"""Self-test of the benchmark's own arithmetic, on synthetic spans.

Nothing here times anything: spans carry made-up start and end values.
"""

from __future__ import annotations

import json
import math
import types
from pathlib import Path

import run
import spans
import speed
import workloads


def _span(id, parent, name, start, end, failed=False, item=0):
    return spans.Span(id, parent, name, start, end, failed, item)


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert spans.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert spans.union_length([(3.0, 4.0), (0.0, 1.0), (1.0, 2.0)]) == 3.0


def test_self_time_subtracts_union_of_direct_children_only():
    tree = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 3.0),
        _span(2, 0, "b", 2.0, 5.0),  # overlaps a: counted once
        _span(3, 0, "a", 7.0, 8.0),
        _span(4, 2, "c", 2.5, 4.5),  # grandchild: only b loses it
    ]
    own = spans.self_times(tree)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0}
    summary = spans.summarize(tree[:3] + [_span(3, 0, "a", 7.0, 8.0, failed=True), tree[4]])
    assert summary["a"] == {"calls": 2, "self_s": 3.0, "failed": 1}
    assert summary["root"]["self_s"] == 5.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(range(10)) is None
    value, pct, n = spans.tail_percentile(range(11, 0, -1))
    assert (value, n) == (1, 11) and math.isclose(pct, 100.0 / 11)
    value, pct, n = spans.tail_percentile(range(100))
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(x > value for x in range(100)) == 10


def test_instrumentation_wraps_every_binding_and_restores():
    home = types.ModuleType("fake.home")
    other = types.ModuleType("fake.other")

    def inner(x):
        return x + 1

    def outer(x):
        return home.inner(x) * 2

    def _hidden():
        return 0

    for f in (inner, outer, _hidden):
        f.__module__ = "fake.home"
        setattr(home, f.__name__, f)
    other.inner = inner  # a caller's own imported binding

    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, {"home": home}, [home, other]):
        assert home._hidden is _hidden
        with tracer.item(0):
            assert home.outer(1) == 4
            assert other.inner(1) == 2
    assert home.inner is inner and other.inner is inner and home.outer is outer
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("bench.item", None), ("home.outer", 0), ("home.inner", 1), ("home.inner", 0)]
    assert all(s.item == 0 for s in tracer.spans)


def test_scale_removes_kernel_time_and_divides_by_mean_speed():
    ref = speed.REFERENCE_S
    t = speed.scale(1.0, [ref, ref], [2 * ref, 2 * ref, 2 * ref])
    assert math.isclose(t.own_s, 1.0 - 2 * ref)
    assert math.isclose(t.factor, 2.0)
    assert math.isclose(t.scaled_s, (1.0 - 2 * ref) / 2.0)
    t = speed.scale(0.5, [], [ref / 2])  # only the sample before the interval
    assert (t.own_s, t.factor, t.scaled_s) == (0.5, 0.5, 1.0)


def test_beam_candidates_counts_prefix_capped_beam():
    assert workloads.beam_candidates([50] * 17, 100) == 50 + 50 * 50 + 15 * 100 * 50
    assert workloads.beam_candidates([2] * 17, 100) == 2 + 4 + 8 + 16 + 32 + 64 + 128 + 10 * 200
    assert workloads.beam_candidates([3, 1, 4], 2) == 3 + 2 * 1 + 2 * 4


def test_compare_tolerates_last_bits_but_not_other_changes():
    ref = {"ids": ["a", "b"], "total_score": -12.5, "pcp": 1.0}
    assert workloads.compare({"ids": ["a", "b"], "total_score": -12.5 + 1e-12, "pcp": 1}, ref) == []
    assert workloads.compare({"ids": ["b", "a"], "total_score": -12.5, "pcp": 1.0}, ref)
    assert workloads.compare({"ids": ["a", "b"], "total_score": math.nan, "pcp": 1.0}, ref)
    assert workloads.compare({"ids": ["a", "b"], "total_score": -12.5}, ref)


def test_strict_json_rejects_non_finite_constants():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    for text in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]'):
        try:
            workloads.strict_json(text)
        except ValueError:
            continue
        raise AssertionError(f"accepted {text}")


def test_benchmark_json_names_what_the_runner_emits():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
