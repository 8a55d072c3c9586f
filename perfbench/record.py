"""Record the reference outputs the benchmark checks every item against.

    python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

Runs every item in each workload's pool once and writes
``perfbench/reference/WORKLOAD.json``.  The references are recorded from
one commit, named in each file, and are not re-recorded when the program
changes: a change that moves an output beyond the tolerance fails items.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main(names) -> int:
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    for name in names:
        workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.WORK)
        try:
            with run.speed.Speedometer(0.0) as meter:
                workloads, wl = run.set_up(name, 0, workdir, meter)[:2]
            items = {}
            for item in wl.prepare(wl.pool()):
                output = wl.run(item)
                record, problems = wl.observe(item, output)
                if problems:
                    raise RuntimeError(f"{name} item {item.key}: {problems}")
                items[item.key] = record
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        doc = {
            "workload": name,
            "commit": run.git_commit(),
            "tolerance": workloads.TOLERANCE,
            "items": items,
        }
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
        print(f"wrote {len(items)} items to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
