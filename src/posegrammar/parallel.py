"""A call's groups of work on the CPUs this process may use."""

from __future__ import annotations

import os
import threading

import numpy as np

# The CPUs this process may run on: the most threads one call runs on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_groups(count: int, n: int, task, **errstate) -> list:
    """``task(group)`` for each of ``n`` contiguous slices ``group`` of
    ``range(count)``, in order, their lengths differing by at most 1, run on
    ``min(n, _WORKERS)`` threads: the caller's, and others started for this call and
    joined before it returns or raises.  Each thread takes the next group in order and
    runs it under its own ``np.errstate(**errstate)``, as a new thread starts with
    numpy's defaults.  No group starts after one has failed, and the lowest-indexed
    failed group's error is raised: every group below it, taken before it, has run to
    its end."""
    groups = [slice(count * i // n, count * (i + 1) // n) for i in range(n)]
    results: list = [None] * n
    failed: dict[int, BaseException] = {}
    taken = iter(range(n))
    lock = threading.Lock()

    def run() -> None:
        with np.errstate(**errstate):
            while True:
                with lock:
                    i = None if failed else next(taken, None)
                if i is None:
                    return
                try:
                    results[i] = task(groups[i])
                except BaseException as exc:
                    failed[i] = exc

    threads = []
    try:
        for _ in range(min(n, _WORKERS) - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results
