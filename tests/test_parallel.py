"""``parallel._run_groups``: how a call's work is cut into groups, and what
it returns or raises when they run on several threads."""

from __future__ import annotations

import threading

import pytest

from posegrammar import parallel


@pytest.fixture(params=[1, 2, 4])
def workers(request, monkeypatch):
    """The number of CPUs taken as usable: the most threads a call runs on."""
    monkeypatch.setattr(parallel, "_WORKERS", request.param)
    return request.param


@pytest.mark.parametrize("count, n", [(1, 1), (5, 5), (26, 2), (13, 3)])
def test_groups_are_contiguous_ordered_slices_of_near_equal_length(workers, count, n):
    groups = parallel._run_groups(count, n, lambda group: group)
    assert len(groups) == n
    assert all(isinstance(group, slice) and group.step is None for group in groups)
    assert [i for group in groups for i in range(count)[group]] == list(range(count))
    lengths = [group.stop - group.start for group in groups]
    assert max(lengths) - min(lengths) <= 1


def test_results_do_not_depend_on_the_number_of_threads(monkeypatch):
    def task(group):
        return [i * i for i in range(group.start, group.stop)]

    results = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(parallel, "_WORKERS", cpus)
        results.append(parallel._run_groups(26, 4, task))
    expected = [task(slice(start, stop)) for start, stop in ((0, 6), (6, 13), (13, 19), (19, 26))]
    assert results == [expected] * 3


def test_the_lowest_indexed_failure_is_raised(monkeypatch):
    """Of two groups on two threads, the second fails first, and the first,
    held back until then, fails after it: the first group's error is
    raised."""
    monkeypatch.setattr(parallel, "_WORKERS", 2)
    second_failed = threading.Event()

    def task(group):
        if group.start == 0:
            assert second_failed.wait(timeout=30), "the second group never failed"
            raise ValueError("first")
        second_failed.set()
        raise ValueError("second")

    with pytest.raises(ValueError, match="^first$"):
        parallel._run_groups(2, 2, task)
    assert second_failed.is_set()


def test_on_one_thread_no_group_starts_after_a_failure(monkeypatch):
    monkeypatch.setattr(parallel, "_WORKERS", 1)
    started = []

    def task(group):
        started.append(group.start)
        if group.start == 1:
            raise ValueError("second")
        return group.start

    with pytest.raises(ValueError, match="^second$"):
        parallel._run_groups(4, 4, task)
    assert started == [0, 1]


def test_zero_groups_run_no_task(workers):
    """A search of no objectives cuts its zero rows into zero groups."""
    assert parallel._run_groups(0, 0, lambda group: pytest.fail("no group should run")) == []
