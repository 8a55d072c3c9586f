"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run sets up once, then times
items in a closed loop with one caller until ``--seconds`` of scaled item
time have passed and the workload's minimum item count is done.  The loop runs
in three segments; between them a fresh child interpreter sets up again,
so ``setup_s`` is the median of three set-ups, imports included.  Every
end-to-end time is scaled to a fixed machine speed that a kernel sampled
during the measurement gives (see ``speed.py``); the wall times are
printed and recorded beside them.  With ``--trace 1`` it sets up once,
times the minimum item count untraced and again traced, alternating item
by item, with every public function of the measured modules wrapped for
the traced items, and reports per-layer numbers.  Every output is checked
against the recorded reference; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("joint-dense", "diag-two-person", "cli-constrained-wide", "learn-600")
SETUP_REPEATS = 3

END_TO_END = {
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_FUNCTIONS = (
    "inference.select_final",
    "inference.parse_constrained",
    "inference.parse_unconstrained",
    "inference.attribute_scores",
    "appearance.load_proposals",
    "appearance.synth_scores",
    "relations.load_models",
    "relations.save_models",
    "grammar.load_grammar",
    "grammar.save_parse_graph",
    "cli.cli_dispatch",
    "evaluation.run_diagnostic",
    "evaluation.strict_pcp",
    "evaluation.parse_attribute_scores",
    "evaluation.no_pose_attribute_scores",
    "evaluation.average_precision",
    "learning.learn_models",
    "learning.fit_kinematic",
    "learning.fit_syntactic",
    "learning.displacement_samples",
    "learning.mutual_information",
    "learning.derive_associations",
)
# The search entry points: their self time is the time spent parsing.
SEARCH_FUNCTIONS = (
    "inference.select_final",
    "inference.parse_constrained",
    "inference.parse_unconstrained",
)

PER_LAYER = {
    **{
        f"{fn}.{suffix}": unit
        for fn in LAYER_FUNCTIONS
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("failed", "count"))
    },
    "inference.candidates_scored": "count",
    "inference.candidates_per_s": "1/s",
    "appearance.load_proposals.rows_per_s": "1/s",
    "learning.em_iterations": "count",
    "learning.em_capped_edges": "count",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Limit BLAS and OpenMP pools to the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)
    return nproc


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def set_up(name: str, seed: int, workdir: str, meter: speed.Speedometer):
    """Import the package, build the workload's models and inputs."""
    with meter.measure() as timing:
        import workloads

        wl = workloads.WORKLOADS[name](workdir)
        items = wl.prepare(wl.order(seed))
    import posegrammar

    if SRC not in Path(posegrammar.__file__).resolve().parents:
        raise RuntimeError(f"posegrammar imported from {posegrammar.__file__}, not from {SRC}")
    return workloads, wl, items, timing


def child_set_up(args) -> speed.Timing:
    """Set-up time measured in a fresh interpreter, imports included."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
    ]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed ({out.returncode}): {out.stderr.strip()}")
    return speed.Timing(**json.loads(out.stdout.splitlines()[-1]))


class Loop:
    """Closed loop, one caller: time each item, check it outside the timing."""

    def __init__(self, workloads, wl, items, reference, meter, tracer=None):
        self.workloads, self.wl, self.items, self.reference = workloads, wl, items, reference
        self.meter, self.tracer = meter, tracer
        self.instrument = (
            spans.Instrumentation(tracer, workloads.MEASURED, workloads.namespaces())
            if tracer else contextlib.nullcontext()
        )
        self.timings: list[speed.Timing] = []
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.counts: Counter = Counter()

    def run(self, count: int, seconds: float) -> None:
        """Continue until at least ``count`` items and ``seconds`` of item time.

        Item time is counted scaled, so that how many items a run holds,
        and so which items, does not follow the machine's speed.
        """
        while len(self.timings) < count or sum(t.scaled_s for t in self.timings) < seconds:
            with self.instrument:
                self._one(len(self.timings))

    def _one(self, i: int) -> None:
        item = self.items[i % len(self.items)]
        scope = self.tracer.item(i) if self.tracer else contextlib.nullcontext()
        problems = []
        try:
            with self.meter.measure() as timing, scope:
                output = self.wl.run(item)
        except Exception as exc:  # an item that raises is a failed item
            problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            try:
                record, problems = self.wl.observe(item, output)
                problems += self.workloads.compare(record, self.reference[item.key])
                self.counts.update(self.wl.counts(item, output))
                self.records.append(record)
            except Exception as exc:  # a malformed output is a failed item
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.timings.append(timing)
        if problems:
            self.failures.append(f"item {i} ({item.key}): " + "; ".join(problems[:3]))

    def items_per_s(self, field: str = "scaled_s") -> float:
        return len(self.timings) / sum(getattr(t, field) for t in self.timings)

    def durations(self, field: str = "scaled_s") -> list[float]:
        return [getattr(t, field) for t in self.timings]


def layer_metrics(tracer, counts, untraced_ips, traced_ips) -> dict[str, float]:
    summary = spans.summarize([s for s in tracer.spans if s.item is not None])
    empty = {"calls": 0, "self_s": 0.0, "failed": 0}
    m: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        row = summary.get(fn, empty)
        for key in ("calls", "self_s", "failed"):
            m[f"{fn}.{key}"] = row[key]
    search_s = sum(summary.get(fn, empty)["self_s"] for fn in SEARCH_FUNCTIONS)
    load_s = summary.get("appearance.load_proposals", empty)["self_s"]
    m["inference.candidates_scored"] = counts["candidates_scored"]
    m["inference.candidates_per_s"] = counts["candidates_scored"] / search_s if search_s else 0.0
    m["appearance.load_proposals.rows_per_s"] = counts["proposal_rows"] / load_s if load_s else 0.0
    m["learning.em_iterations"] = counts["em_iterations"]
    m["learning.em_capped_edges"] = counts["em_capped_edges"]
    m["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "posegrammar" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    reference_path = HERE / "reference" / f"{args.workload}.json"
    if not reference_path.is_file():
        print(f"error: no reference outputs at {reference_path}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()[0]
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    # A traced run samples the speed kernel only between items, so that no
    # span holds kernel time.
    meter = speed.Speedometer(speed.PERIOD_S if args.trace == 0 else 0.0)
    try:
        with meter:
            if args.setup_only:
                timing = set_up(args.workload, args.seed, workdir, meter)[3]
                print(json.dumps(vars(timing)))
                return 0
            workloads, wl, items, timing = set_up(args.workload, args.seed, workdir, meter)
            setups = [timing]
            reference = workloads.strict_json(reference_path.read_text(encoding="utf-8"))["items"]
            loop = Loop(workloads, wl, items, reference, meter)
            extra: dict = {}
            if args.trace == 0:
                # The child set-ups run between segments of the timed loop, so the
                # timed items spread over a longer stretch of wall time and average
                # over more of a shared machine's slow and fast phases.
                for k in range(1, SETUP_REPEATS + 1):
                    loop.run(math.ceil(wl.min_items * k / SETUP_REPEATS), args.seconds * k / SETUP_REPEATS)
                    if k < SETUP_REPEATS:
                        setups.append(child_set_up(args))
                durations = loop.durations()
                metrics = {
                    "items_per_s": loop.items_per_s(),
                    "item_s.p50": statistics.median(durations),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "setup_s": statistics.median(t.scaled_s for t in setups),
                }
                units = END_TO_END
                tail = spans.tail_percentile(durations)
                extra["item_s.tail"] = (
                    {"value": tail[0], "unit": "s", "percentile": tail[1], "n": tail[2]}
                    if tail else f"omitted: {len(durations)} items, fewer than 11"
                )
                # The unscaled figures, and how slow the machine ran against
                # the reference speed, so that a scaled figure can be checked.
                extra["items_per_s.wall"] = {"value": loop.items_per_s("wall_s"), "unit": "1/s"}
                extra["item_s.p50.wall"] = {"value": statistics.median(loop.durations("wall_s")), "unit": "s"}
                extra["setup_s.wall"] = {"value": statistics.median(t.wall_s for t in setups), "unit": "s"}
                extra["speed.factor.p50"] = {"value": statistics.median(loop.durations("factor")), "unit": "ratio"}
                extra["setup_s.samples"] = [t.scaled_s for t in setups]
                if len(loop.records) >= wl.min_items:
                    quality = wl.quality(loop.records[: wl.min_items])
                    extra.update({k: {"value": v, "unit": "ratio"} for k, v in quality.items()})
                loops = [loop]
            else:
                # Untraced and traced runs of each item alternate, and so does
                # which goes first, so both see the same stretch of machine speed
                # and the overhead is a paired figure.
                tracer = spans.Tracer()
                traced = Loop(workloads, wl, items, reference, meter, tracer)
                for i in range(1, wl.min_items + 1):
                    for lp in (loop, traced) if i % 2 else (traced, loop):
                        lp.run(i, 0.0)
                # Pairing already cancels the machine's drift, and the
                # kernel runs only once per item here, so wall times serve.
                metrics = layer_metrics(
                    tracer, traced.counts, loop.items_per_s("wall_s"), traced.items_per_s("wall_s")
                )
                units = PER_LAYER
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]), encoding="utf-8")
                extra["spans_file"] = str(spans_path.relative_to(ROOT))
                loops = [loop, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy
    import scipy

    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }
    failures = [f for lp in loops for f in lp.failures]
    attempted = sum(len(lp.timings) for lp in loops)
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "failed_frac": failed / attempted, "failures": failures, "extra": extra,
              "item_timings": [[vars(t) for t in lp.timings] for lp in loops], **result}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for line in failures:
        print("FAILED " + line)
    print(f"failed_frac {failed / attempted} ({failed}/{attempted} items)")
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']} {v['unit']}")
    for k, v in extra.items():
        if isinstance(v, dict):
            suffix = f" (p{v['percentile']:.1f}, n={v['n']})" if "n" in v else ""
            print(f"{k} {v['value']} {v['unit']}{suffix}")
        else:
            print(f"{k} {v}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
