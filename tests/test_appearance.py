"""Appearance layer tests: proposals, score tables, synthetic provider."""

from __future__ import annotations

import builtins
import dataclasses
import json
import math
import re
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegrammar import appearance
from posegrammar.appearance import (
    PART_ORDER,
    SYNTH_MARGIN,
    SYNTH_TARGET_BONUS,
    Proposal,
    ProposalSet,
    ScoreTable,
    load_proposals,
    save_proposals,
    synth_scores,
)
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.jsonio import number, read_json_lines
from posegrammar.grammar import AttributeDef, PartState, default_attributes
from posegrammar.synthetic import Person, SyntheticScene, single_person_scene, two_person_scene


@pytest.fixture(autouse=True, scope="module")
def _every_load_opens_its_file_once():
    """Every ``load_proposals`` call in this module, loaded or refused,
    fails unless it opened its file exactly once: a refused file is not
    read a second time to find its error."""

    def load_once(path, **kwargs):
        opened = []
        real_open = builtins.open

        def counted_open(file, *args, **kw):
            opened.append(file)
            return real_open(file, *args, **kw)

        with mock.patch.object(builtins, "open", counted_open):
            try:
                return appearance.load_proposals(path, **kwargs)
            finally:
                assert opened == [path], f"load_proposals opened {opened}"

    with mock.patch.object(sys.modules[__name__], "load_proposals", load_once):
        yield


SMALL_ATTRS = (
    AttributeDef("gender", "gender", ("male", "female")),
    AttributeDef("hat", "hat", ("yes", "no")),
)


def _proposal(pid="p1", part="head", x=0.0, y=0.0, part_type=1):
    return Proposal(id=pid, part=part, x=x, y=y, part_type=part_type, box=(0.0, 0.0, 10.0, 10.0))


class TestProposal:
    def test_requires_nonempty_string_id(self):
        with pytest.raises(ValidationError, match="non-empty string"):
            Proposal(id="", part="head", x=0, y=0, part_type=1, box=(0, 0, 1, 1))

    def test_rejects_flat_box(self):
        with pytest.raises(ValidationError, match="must be positive"):
            Proposal(id="p", part="head", x=0, y=0, part_type=1, box=(0, 0, 0, 5))

    def test_rejects_bad_type(self):
        with pytest.raises(ValidationError, match="^part_type must be an integer >= 1, got 0$"):
            _proposal(part_type=0)

    def test_rejects_non_finite_position_and_box(self):
        with pytest.raises(ValidationError, match="^x must be a finite number, got nan$"):
            Proposal(id="p", part="head", x=math.nan, y=math.inf, box=(math.nan,) * 4, part_type=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("x", "1", "x must be a finite number, got '1'"),
            ("y", True, "y must be a finite number, got True"),
            ("box", ("1", 0, 5, 5), "box[0] must be a finite number, got '1'"),
            ("box", (0, 0, True, 5), "box[2] must be a finite number, got True"),
            ("x", 10**400, "x must be a finite number, got an integer beyond the float range"),
            ("box", (0, 0, 5, -(10**400)), "box[3] must be a finite number, got an integer beyond the float range"),
            ("part_type", 2.7, "part_type must be an integer >= 1, got 2.7"),
            ("part_type", "3", "part_type must be an integer >= 1, got '3'"),
            ("part_type", True, "part_type must be an integer >= 1, got True"),
        ],
    )
    def test_rejects_numbers_of_the_wrong_type(self, field, value, message):
        fields = dict(id="p", part="head", x=0.0, y=0.0, part_type=1, box=(0, 0, 5, 5))
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            Proposal(**{**fields, field: value})


def _cell(table, pid, attr, value):
    """The grid cell of proposal ``pid`` and ``attr=value``."""
    return float(table.values[table.rows([pid])[0], table.column(attr, value)])


class TestScoreTable:
    def test_lookup_reads_the_grid(self):
        t = ScoreTable({"p1": {"hat": {"yes": -0.25}}})
        assert _cell(t, "p1", "hat", "yes") == -0.25

    def test_values_hold_one_row_per_proposal_and_one_column_per_pair(self):
        t = ScoreTable(
            {"p1": {"hat": {"yes": 1.0, "no": 2.0}}, "p2": {"hat": {"no": 4.0, "yes": 3.0}}}
        )
        assert t.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert t.rows(["p2", "p1"]).tolist() == [1, 0]
        assert (t.column("hat", "yes"), t.column("hat", "no")) == (0, 1)

    def test_grid_is_immutable(self):
        t = ScoreTable({"p1": {"hat": {"yes": 0.0}}})
        with pytest.raises(ValueError, match="read-only"):
            t.values[0, 0] = 1.0
        assert not hasattr(t, "set")

    @pytest.mark.parametrize(
        "score, problem",
        [
            (math.inf, "inf"),
            (10**400, "an integer beyond the float range"),
            ("high", "'high'"),
            ([1.0], "a JSON array of length 1"),
            (True, "True"),
            (None, "None"),
        ],
        ids=["inf", "huge-int", "string", "list", "bool", "none"],
    )
    def test_rejects_non_finite(self, score, problem):
        message = f"proposal 'p2': scores.hat.no must be a finite number, got {problem}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ScoreTable(
                {"p1": {"hat": {"yes": 0.0, "no": 0.0}}, "p2": {"hat": {"yes": 0.0, "no": score}}}
            )

    @pytest.mark.parametrize(
        "row, problem",
        [
            (None, "scores must be a JSON object, got None"),
            ([1.0], "scores must be a JSON object, got a JSON array of length 1"),
            ({"hat": [1.0]}, "scores.hat must be a JSON object, got a JSON array of length 1"),
            ({"hat": 5}, "scores.hat must be a JSON object, got 5"),
            ({"hat": "yes"}, "scores.hat must be a JSON object, got 'yes'"),
            ({"hat": {"yes": 0.0}, "age": []}, "scores.age must be a JSON object, got a JSON array of length 0"),
            ({"hat": {"yes": 0.0}, "age": 5}, "scores.age must be a JSON object, got 5"),
        ],
        ids=["None", "row1", "row2", "row3", "row4", "extra-empty-array", "extra-number"],
    )
    def test_rejects_a_row_that_is_not_a_mapping(self, row, problem):
        with pytest.raises(ValidationError, match="^" + re.escape(f"proposal 'p2': {problem}") + "$"):
            ScoreTable({"p1": {"hat": {"yes": 0.0}}, "p2": row})

    @pytest.mark.parametrize("lacking", ["p1", "p2"])
    def test_rejects_a_proposal_lacking_a_column_another_has(self, lacking):
        entries = {"p1": {"hat": {"yes": 0.0, "no": 0.0}}, "p2": {"hat": {"yes": 0.0, "no": 0.0}}}
        del entries[lacking]["hat"]["no"]
        with pytest.raises(ValidationError, match=f"^proposal '{lacking}': scores.hat.no is missing"):
            ScoreTable(entries)

    @pytest.mark.parametrize("holder", ["p1", "p2"])
    def test_an_attribute_with_no_values_adds_no_column(self, holder):
        entries = {"p1": {"hat": {"yes": 0.5}}, "p2": {"hat": {"yes": -0.5}}}
        entries[holder] = {**entries[holder], "gender": {}}
        assert ScoreTable(entries) == ScoreTable({"p1": {"hat": {"yes": 0.5}}, "p2": {"hat": {"yes": -0.5}}})

    def test_rows_of_any_mapping_type_load(self):
        from types import MappingProxyType

        entries = {"p1": {"hat": {"yes": 0.5, "no": 1}}, "p2": {"hat": {"no": -0.5, "yes": 2.0}}}
        proxied = {pid: MappingProxyType({a: MappingProxyType(v) for a, v in row.items()}) for pid, row in entries.items()}
        assert ScoreTable(proxied).values.tolist() == ScoreTable(entries).values.tolist() == [[0.5, 1.0], [2.0, -0.5]]

    def test_missing_lookups_name_the_part(self):
        t = ScoreTable({"p1": {"hat": {"yes": 0.0}}})
        # ``part`` gives the part at the missing id's position.
        with pytest.raises(MissingEntryError, match=r"^no scores for proposal 'p9' \(part 'head'\)$"):
            t.rows(["p1", "p9", "p8"], part=["torso", "head", "neck"].__getitem__)
        with pytest.raises(MissingEntryError, match=r"^no scores for proposal 'p9'$"):
            t.rows(["p1", "p9"])
        with pytest.raises(MissingEntryError, match="^the score table has no scores for attribute 'gender'$"):
            t.column("gender", "male")
        with pytest.raises(MissingEntryError, match="^the score table has no score for 'hat'='maybe'$"):
            t.column("hat", "maybe")

    def test_appearance_keeps_the_sign_of_an_assigned_zero(self):
        t = ScoreTable({"p1": {"hat": {"yes": -0.0, "no": -1.0}}})
        attrs = (AttributeDef("hat", "hat", ("yes", "no")),)
        [constrained, unconstrained] = t.appearance(t.rows(["p1"]), attrs, [{"hat": "yes"}, {}])
        assert math.copysign(1.0, constrained[0]) == -1.0
        assert math.copysign(1.0, unconstrained[0]) == 1.0

    def test_appearance_refuses_a_pair_no_proposal_has(self):
        t = ScoreTable({"p1": {"hat": {"yes": 0.0}}})
        with pytest.raises(MissingEntryError, match="no score for 'hat'='no'"):
            t.appearance(t.rows(["p1"]), (AttributeDef("hat", "hat", ("yes", "no")),), [{"hat": "yes"}])


def _listed(pset):
    return [p for part in pset.buckets for p in pset.proposals_for(part)]


# Per proposal field, values a ``Proposal`` refuses.
_REFUSED_TEXT = st.one_of(st.just(""), st.integers(), st.none(), st.floats(), st.booleans())
_REFUSED_COORDINATE = st.sampled_from([math.nan, math.inf, -math.inf, "1", "", True, False, None, 10**400, -(10**400)])


def _box_with(at: tuple) -> tuple:
    """The box (5, 5, 5, 5) with its entry ``at[0]`` set to ``at[1]``."""
    return tuple(at[1] if j == at[0] else 5.0 for j in range(4))


_REFUSED_BOX = st.one_of(
    st.tuples(st.integers(0, 3), _REFUSED_COORDINATE).map(_box_with),  # a bad entry
    st.integers(0, 6).filter(lambda n: n != 4).map(lambda n: (5.0,) * n),  # the wrong length
    st.sampled_from([None, 5.0, "0 0 5 5", {"w": 5.0}]),  # not an array
    st.tuples(st.integers(2, 3), st.sampled_from([0, 0.0, -0.0, -1.0, -1e300, -(10**300)])).map(_box_with),  # flat
)
_REFUSED = {
    "id": _REFUSED_TEXT,
    "part": _REFUSED_TEXT,
    "x": _REFUSED_COORDINATE,
    "y": _REFUSED_COORDINATE,
    "part_type": st.one_of(
        st.integers(max_value=0),
        st.integers(min_value=10**309),
        st.floats(),
        st.booleans(),
        st.text(max_size=2),
        st.none(),
    ),
    "box": _REFUSED_BOX,
}


class TestProposalSet:
    def test_part_type_exceeds_count(self):
        with pytest.raises(ValidationError, match="exceeds"):
            ProposalSet.from_proposals(
                [_proposal(part_type=5)], ScoreTable({"p1": {}}), part_type_count=4
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate proposal id"):
            ProposalSet.from_proposals(
                [_proposal("p1"), _proposal("p1", part="torso")], ScoreTable({"p1": {}})
            )

    def test_proposal_without_a_row_rejected(self):
        with pytest.raises(MissingEntryError, match=r"no scores for proposal 'p2' \(part 'torso'\)"):
            ProposalSet.from_proposals(
                [_proposal("p1"), _proposal("p2", part="torso")], ScoreTable({"p1": {}})
            )

    @settings(max_examples=60, deadline=None)
    @given(persons=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), missing=st.integers(0, 3))
    def test_buckets_equal_a_per_part_reference(self, persons, seed, missing):
        """Each part's proposals are gathered in one order, and each bucket
        holds what gathering that part alone gives: its ids in id order
        (``p10`` before ``p2``), their ``xy``, ``types``, ``boxes`` and
        score rows, whatever order the proposals and the score rows are
        listed in.  With ``missing`` score rows dropped, the set is refused
        naming the first proposal without one, in bucket order, and its
        part, in the words of a part-by-part lookup."""
        rng = np.random.default_rng(seed)
        listed = [(f"p{i}", part) for i in range(persons) for part in PART_ORDER]
        listed = [listed[j] for j in rng.permutation(len(listed))]
        ids, parts = [f"{pid}.{part}" for pid, part in listed], [part for _pid, part in listed]
        xy = [tuple(pair) for pair in rng.uniform(-50.0, 400.0, (len(ids), 2)).tolist()]
        types = rng.integers(1, 10, len(ids)).tolist()
        boxes = [tuple(box) for box in rng.uniform(1.0, 40.0, (len(ids), 4)).tolist()]
        dropped = set(rng.choice(ids, size=missing, replace=False).tolist())
        scored = [ids[j] for j in rng.permutation(len(ids)) if ids[j] not in dropped]
        table = ScoreTable({pid: {"hat": dict(zip(("yes", "no"), rng.normal(size=2).tolist()))} for pid in scored})
        members: dict[str, list[int]] = {}
        for i, part in enumerate(parts):
            members.setdefault(part, []).append(i)
        reference = {part: sorted(index, key=ids.__getitem__) for part, index in members.items()}
        lacking = [(ids[i], part) for part, index in reference.items() for i in index if ids[i] in dropped]
        if lacking:
            pid, part = lacking[0]
            with pytest.raises(MissingEntryError, match=f"^no scores for proposal '{re.escape(pid)}' \\(part '{part}'\\)$"):
                ProposalSet.from_columns(ids, parts, xy, types, boxes, table, 9)
            return
        pset = ProposalSet.from_columns(ids, parts, xy, types, boxes, table, 9)
        assert list(pset.buckets) == list(reference)
        for part, index in reference.items():
            b = pset.buckets[part]
            assert b.part == part and b.ids == tuple(ids[i] for i in index)
            if persons > 10:
                assert b.ids.index(f"p10.{part}") < b.ids.index(f"p2.{part}")
            np.testing.assert_array_equal(b.xy, np.array([xy[i] for i in index]))
            np.testing.assert_array_equal(b.types, np.array([types[i] for i in index], dtype=np.int64))
            np.testing.assert_array_equal(b.boxes, np.array([boxes[i] for i in index]))
            assert b.rows.tolist() == [table.row(ids[i]) for i in index]
            assert (b.xy.dtype, b.types.dtype, b.boxes.dtype, b.rows.dtype) == (float, np.int64, float, np.intp)
            assert (b.xy.shape, b.boxes.shape) == ((len(index), 2), (len(index), 4))

    def test_missing_bucket_is_empty(self):
        pset = ProposalSet.from_proposals([_proposal()], ScoreTable({"p1": {}}))
        assert pset.proposals_for("torso") == ()
        assert len(pset) == 1

    @settings(max_examples=120, deadline=None)
    @given(field=st.sampled_from(sorted(_REFUSED)), data=st.data())
    def test_from_columns_refuses_what_a_proposal_refuses(self, tmp_path_factory, field, data):
        """Every column value that ``Proposal`` refuses is refused before
        any search, which builds its states from these columns unchecked:
        by ``from_columns``, in ``Proposal``'s words after the proposal's
        id, and by ``load_proposals``, naming the line."""
        n = data.draw(st.integers(1, 4))
        i = data.draw(st.integers(0, n - 1))
        rows = [
            {"id": f"p{j}", "part": PART_ORDER[j], "x": float(j), "y": -0.0, "part_type": j + 1, "box": (0.0, 0.0, 5.0, 5.0)}
            for j in range(n)
        ]
        rows[i][field] = data.draw(_REFUSED[field])
        with pytest.raises(ValidationError) as refused:
            Proposal(**rows[i])
        assert str(refused.value).startswith(field)
        ids, parts, types, boxes = ([r[f] for r in rows] for f in ("id", "part", "part_type", "box"))
        xy = [(r["x"], r["y"]) for r in rows]
        scores = ScoreTable({f"p{j}": {"hat": {"yes": 0.5}} for j in range(n)})
        with pytest.raises(ValidationError) as caught:
            ProposalSet.from_columns(ids, parts, xy, types, boxes, scores, 9)
        assert str(caught.value) == f"proposal {rows[i]['id']!r}: {refused.value}"
        path = tmp_path_factory.mktemp("refused") / "props.jsonl"
        lines = [json.dumps({**r, "scores": {"hat": {"yes": 0.5}}}) for r in rows]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}:{i + 1}: ")):
            load_proposals(str(path))

    @pytest.mark.parametrize(
        "pair, shown",
        [((1.0,), "a JSON array of length 1"), ([1, 2, 3], "a JSON array of length 3"), (5.0, "5.0"), (None, "None")],
    )
    def test_from_columns_refuses_an_xy_entry_that_is_not_a_pair(self, pair, shown):
        columns = (["a", "b"], ["head", "torso"], [(0.0, 0.0), pair], [1, 1], [(0, 0, 5, 5)] * 2)
        message = f"proposal 'b': xy must be a JSON array of length 2, got {shown}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ProposalSet.from_columns(*columns, ScoreTable({"a": {}, "b": {}}), 9)

    def test_from_columns_reads_numpy_scalars_as_a_proposal_does(self):
        """Values a ``Proposal`` takes and converts, though not of the types
        the whole-column scan reads, give the set of their converted values."""
        scores = ScoreTable({"a": {}, "b": {}})
        boxes = [(0, 0, 5, 5)] * 2
        plain = ProposalSet.from_columns(["a", "b"], ["head"] * 2, [(0.5, 1.0), (2.0, 3.0)], [1, 2], boxes, scores, 9)
        ids, parts = [np.str_("a"), "b"], [np.str_("head"), "head"]
        xy, types = [(np.float64(0.5), 1), (2.0, np.float64(3.0))], [np.int64(1), np.int16(2)]
        numpy = ProposalSet.from_columns(ids, parts, xy, types, [(0, 0, 5, np.float64(5.0))] * 2, scores, 9)
        assert _listed(numpy) == _listed(plain)
        assert _hexes(numpy.buckets["head"].xy) == _hexes(plain.buckets["head"].xy)

    @pytest.mark.parametrize("delta", [1, -1], ids=["too-long", "too-short"])
    @pytest.mark.parametrize("column", ["ids", "parts", "xy", "types", "boxes"])
    def test_from_columns_refuses_columns_of_unequal_length(self, column, delta):
        """Three proposals' columns, one of them a proposal longer or
        shorter, are refused naming each column's length: not built without
        a proposal, nor failed on an index."""
        columns = {
            "ids": ["a", "b", "c"],
            "parts": ["head", "torso", "head"],
            "xy": [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)],
            "types": [1, 2, 3],
            "boxes": [(0.0, 0.0, 5.0, 5.0)] * 3,
        }
        extra = {"ids": "d", "parts": "torso", "xy": (3.0, 3.0), "types": 1, "boxes": (0.0, 0.0, 5.0, 5.0)}
        columns[column] = columns[column] + [extra[column]] if delta > 0 else columns[column][:-1]
        named = ", ".join(f"{name} {3 + delta if name == column else 3}" for name in columns)
        scores = ScoreTable({pid: {} for pid in "abcd"})
        with pytest.raises(ValidationError, match="^" + re.escape(f"proposal columns differ in length: {named}") + "$"):
            ProposalSet.from_columns(*columns.values(), scores, 9)

    @pytest.mark.parametrize("part_type", [1, 2**63])
    @pytest.mark.parametrize("part_type_count", [2**63, 2**64])
    def test_from_columns_refuses_a_part_type_count_beyond_int64(self, part_type, part_type_count):
        """A count a ``Proposal`` accepts, but beyond the range of the
        int64 part-type column, is refused by name, not by numpy's
        ``OverflowError``, whatever the part types."""
        message = f"part_type_count {part_type_count} is beyond {2**63 - 1}, the largest part type an int64 column holds"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ProposalSet.from_columns(
                ["a"], ["head"], [(0.0, 0.0)], [part_type], [(0, 0, 5, 5)], ScoreTable({"a": {}}), part_type_count
            )

    def test_a_part_type_beyond_int64_is_refused_by_the_count(self):
        """Under the largest count the column holds, a part type one past
        it is refused naming the proposal; the count itself is accepted."""
        scores = ScoreTable({"a": {}})
        pset = ProposalSet.from_columns(["a"], ["head"], [(0.0, 0.0)], [2**63 - 1], [(0, 0, 5, 5)], scores, 2**63 - 1)
        assert pset.buckets["head"].types.tolist() == [2**63 - 1]
        message = f"proposal 'a': part_type {2**63} exceeds part_type_count {2**63 - 1}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ProposalSet.from_columns(["a"], ["head"], [(0.0, 0.0)], [2**63], [(0, 0, 5, 5)], scores, 2**63 - 1)


class TestSynthScores:
    def test_one_proposal_per_person_and_part(self):
        scene = two_person_scene(seed=2)
        pset = synth_scores(scene, noise_sigma=0.5, rng_seed=1)
        assert len(pset) == 2 * 17
        for part in PART_ORDER:
            assert len(pset.proposals_for(part)) == 2

    def test_a_hub_keypoint_beyond_the_float_range_is_refused_naming_its_proposal(self):
        """Joints near the edge of the float range give the hubs, member
        centroids, an infinite keypoint: the proposal set refuses it when
        it is built, naming the proposal, not a search once it has run."""
        person = single_person_scene(seed=1).persons[0]
        joints = {p: (1.7e308, y) for p, (_x, y) in person.joints.items()}
        edge = int(1.79e308)
        scene = SyntheticScene(persons=(Person(joints=joints, attributes=person.attributes),), image_size=(edge, edge))
        with pytest.raises(ValidationError, match=r"^proposal 'p0\.full_body': x must be a finite number, got inf$"):
            synth_scores(scene, noise_sigma=0.0, rng_seed=3)

    def test_proposals_sit_on_ground_truth(self):
        scene = single_person_scene(seed=6)
        pset = synth_scores(scene, noise_sigma=0.0, rng_seed=1)
        head = scene.persons[0].joints["head"]
        (prop,) = pset.proposals_for("head")
        assert (prop.x, prop.y) == head

    def test_determinism(self):
        scene = two_person_scene(seed=2)
        a = synth_scores(scene, noise_sigma=0.7, rng_seed=9)
        b = synth_scores(scene, noise_sigma=0.7, rng_seed=9)
        assert a.scores == b.scores
        assert [p.id for p in _listed(a)] == [p.id for p in _listed(b)]

    def test_seed_changes_scores(self):
        scene = two_person_scene(seed=2)
        a = synth_scores(scene, noise_sigma=0.7, rng_seed=9)
        b = synth_scores(scene, noise_sigma=0.7, rng_seed=10)
        assert a.scores != b.scores

    def test_zero_noise_true_value_strictly_best_on_target(self):
        """Margin structure: at sigma 0 the target person's true value wins
        every per-part comparison strictly."""
        scene = single_person_scene(seed=3, attr_defs=SMALL_ATTRS)
        truth = scene.persons[0].attributes
        pset = synth_scores(scene, noise_sigma=0.0, rng_seed=5, attr_defs=SMALL_ATTRS)
        for prop in _listed(pset):
            for attr in SMALL_ATTRS:
                best = max(
                    attr.domain, key=lambda v: _cell(pset.scores, prop.id, attr.id, v)
                )
                assert best == truth[attr.id]

    def test_target_bonus_separates_persons(self):
        """At sigma 0 the target's true value scores SYNTH_TARGET_BONUS on
        every part and its others SYNTH_MARGIN less; each distractor part
        scores 0 on exactly one value, its apparent one, and -SYNTH_MARGIN
        on the rest."""
        scene = two_person_scene(seed=4, attr_defs=SMALL_ATTRS)
        pset = synth_scores(scene, noise_sigma=0.0, rng_seed=5, attr_defs=SMALL_ATTRS)
        truth = scene.persons[0].attributes
        for part in PART_ORDER:
            for attr in SMALL_ATTRS:
                mine = {v: _cell(pset.scores, f"p0.{part}", attr.id, v) for v in attr.domain}
                assert mine.pop(truth[attr.id]) == pytest.approx(SYNTH_TARGET_BONUS)
                assert list(mine.values()) == [pytest.approx(SYNTH_TARGET_BONUS - SYNTH_MARGIN)] * len(mine)
                theirs = sorted(_cell(pset.scores, f"p1.{part}", attr.id, v) for v in attr.domain)
                assert theirs[-1] == pytest.approx(0.0)
                assert theirs[:-1] == [pytest.approx(-SYNTH_MARGIN)] * (len(attr.domain) - 1)
        assert SYNTH_TARGET_BONUS > 0.0 and SYNTH_MARGIN > SYNTH_TARGET_BONUS

    def test_incoherent_distractor_has_no_single_consistent_value(self):
        """With coherence 0 the distractor's per-part apparent values are
        resampled; over 14 atomic parts at least one disagrees with any
        fixed choice, so a global constraint accrues margin penalties."""
        scene = two_person_scene(seed=4)
        pset = synth_scores(scene, noise_sigma=0.0, rng_seed=5)
        attr = "upper_cloth_type"
        domain = ("t_shirt", "jumper", "suit", "no_cloth", "swimwear")
        best_total = max(
            sum(_cell(pset.scores, f"p1.{p}", attr, v) for p in PART_ORDER)
            for v in domain
        )
        assert best_total < -2.0

    def test_negative_seed_rejected(self):
        scene = single_person_scene(seed=3)
        with pytest.raises(ValidationError, match=r"^rng_seed must be an integer >= 0, got -1$"):
            synth_scores(scene, noise_sigma=0.1, rng_seed=-1)

    def test_a_noise_beyond_the_float_range_is_refused_naming_it(self):
        """The first score the noise pushes out of the float range is
        refused naming ``noise_sigma``, the person and the part, not a
        proposal record the caller never wrote."""
        message = (
            "noise_sigma 1e+308 gives person 0's part 'full_body' a score of -inf "
            "for upper_cloth_type=no_cloth, not a finite number"
        )
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            synth_scores(two_person_scene(seed=4), noise_sigma=1e308, rng_seed=0)

    def test_a_person_is_drawn_and_checked_before_the_next_is_checked(self):
        """Each person's attributes are checked, then drawn, then its rows
        checked, before the next person's attributes: a second person
        lacking an attribute is refused only once the first person's rows
        are finite."""
        scene = two_person_scene(seed=4)
        first, second = scene.persons
        lacking = Person(second.joints, {a: v for a, v in second.attributes.items() if a != "gender"})
        scene = SyntheticScene((first, lacking), scene.image_size)
        message = (
            "noise_sigma 1e+308 gives person 0's part 'full_body' a score of -inf "
            "for upper_cloth_type=no_cloth, not a finite number"
        )
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            synth_scores(scene, noise_sigma=1e308, rng_seed=0)
        with pytest.raises(ValidationError, match="^person 1 has no value for attribute 'gender'$"):
            synth_scores(scene, noise_sigma=0.9, rng_seed=0)

    def test_negative_sigma_rejected(self):
        scene = single_person_scene(seed=3)
        with pytest.raises(ValidationError, match="noise_sigma"):
            synth_scores(scene, noise_sigma=-0.1, rng_seed=0)

    def test_person_missing_attribute_value(self):
        scene = single_person_scene(seed=3, attr_defs=SMALL_ATTRS)
        extra = SMALL_ATTRS + (AttributeDef("age", "age", ("youth", "adult")),)
        with pytest.raises(ValidationError, match="no value for attribute 'age'"):
            synth_scores(scene, noise_sigma=0.0, rng_seed=0, attr_defs=extra)

    def test_person_value_outside_the_domain(self):
        scene = single_person_scene(seed=3)
        [person] = scene.persons
        robot = Person(person.joints, {**person.attributes, "gender": "robot"})
        with pytest.raises(ValidationError, match="^person 0: value 'robot' outside domain of 'gender'$"):
            synth_scores(SyntheticScene((robot,), scene.image_size), noise_sigma=0.0, rng_seed=0)

    def test_person_with_undeclared_attribute(self):
        scene = single_person_scene(seed=3)
        with pytest.raises(ValidationError, match="undeclared attributes"):
            synth_scores(scene, noise_sigma=0.0, rng_seed=0, attr_defs=SMALL_ATTRS)


class TestProposalIO:
    def _round_trip(self, tmp_path, pset):
        path = tmp_path / "props.jsonl"
        save_proposals(pset, str(path))
        return path, load_proposals(str(path), part_type_count=pset.part_type_count)

    def test_round_trip_preserves_everything(self, tmp_path):
        """The proposals a set rebuilds, before and after a file round trip,
        equal the ones it was built from, per part in id order and with the
        sign of a -0.0 coordinate kept."""
        scene = two_person_scene(seed=7)
        synth = synth_scores(scene, noise_sigma=0.6, rng_seed=3)
        given = _listed(synth)[::-1]
        given[0] = dataclasses.replace(given[0], x=-0.0)
        by_part = {part: [p for p in given if p.part == part] for part in synth.buckets}
        # Given out of id order, so the set must sort them.
        assert any([p.id for p in ps] != sorted(p.id for p in ps) for ps in by_part.values())
        pset = ProposalSet.from_proposals(given, synth.scores)
        path, back = self._round_trip(tmp_path, pset)
        assert back.scores == pset.scores
        for built in (pset, back):
            assert set(built.buckets) == set(by_part)
            for part in built.buckets:
                assert built.proposals_for(part) == tuple(sorted(by_part[part], key=lambda p: p.id))
            (first,) = [p for p in _listed(built) if p.id == given[0].id]
            assert math.copysign(1.0, first.x) == -1.0

    def test_round_trip_is_idempotent(self, tmp_path):
        scene = single_person_scene(seed=7)
        pset = synth_scores(scene, noise_sigma=0.6, rng_seed=3)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_proposals(pset, str(p1))
        save_proposals(load_proposals(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_infinity_token(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        doc = {
            "id": "p1",
            "part": "head",
            "x": 0.0,
            "y": 0.0,
            "part_type": 1,
            "box": [0, 0, 5, 5],
            "scores": {"hat": {"yes": None}},
        }
        text = json.dumps(doc).replace("null", "Infinity")
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="non-finite JSON constant"):
            load_proposals(str(path))

    def test_rejects_string_score(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        doc = {
            "id": "p1",
            "part": "head",
            "x": 0.0,
            "y": 0.0,
            "part_type": 1,
            "box": [0, 0, 5, 5],
            "scores": {"hat": {"yes": "high"}},
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValidationError, match="scores.hat.yes must be a finite number, got 'high'"):
            load_proposals(str(path))

    def test_error_includes_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {
            "id": "p1",
            "part": "head",
            "x": 0.0,
            "y": 0.0,
            "part_type": 1,
            "box": [0, 0, 5, 5],
        }
        path.write_text(json.dumps(good) + "\n{broken\n")
        with pytest.raises(ValidationError, match=":2: invalid JSON"):
            load_proposals(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        doc = {
            "id": "p1",
            "part": "head",
            "x": 0.0,
            "y": 0.0,
            "part_type": 1,
            "box": [0, 0, 5, 5],
        }
        path.write_text("\n" + json.dumps(doc) + "\n\n")
        assert len(load_proposals(str(path))) == 1

    @pytest.mark.parametrize("field", ["x", "score"])
    def test_integer_beyond_float_range_is_malformed(self, tmp_path, field):
        path = tmp_path / "bad.jsonl"
        huge = "1" + "0" * 400
        doc = {
            "id": "p1",
            "part": "head",
            "x": 0.0,
            "y": 0.0,
            "part_type": 1,
            "box": [0, 0, 5, 5],
            "scores": {"hat": {"yes": 0.5}},
        }
        good = json.dumps(doc)
        bad = good.replace('"x": 0.0', f'"x": {huge}') if field == "x" else good.replace("0.5", huge)
        path.write_text(good.replace('"p1"', '"p0"') + "\n" + bad + "\n")
        where = {
            "x": f"{path}:2: x must be a finite number, got an integer beyond the float range",
            "score": f"{path}: proposal 'p1': scores.hat.yes must be a finite number, got an integer beyond",
        }
        with pytest.raises(ValidationError, match="^" + re.escape(where[field])):
            load_proposals(str(path))

    def test_incomplete_grid_names_the_file_and_the_proposal(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        docs = [
            {"id": pid, "part": "head", "x": 0.0, "y": 0.0, "part_type": 1, "box": [0, 0, 5, 5],
             "scores": {"hat": scores}}
            for pid, scores in (("p1", {"yes": 0.5, "no": 0.0}), ("p2", {"yes": 0.5}))
        ]
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        message = "^" + re.escape(f"{path}: proposal 'p2': scores.hat.no is missing, which other proposals have")
        with pytest.raises(ValidationError, match=message):
            load_proposals(str(path))


def _line(pid="p1", **fields):
    doc = {"id": pid, "part": "head", "x": 0.0, "y": 0.0, "part_type": 1, "box": [0, 0, 5, 5],
           "scores": {"hat": {"yes": 0.5}}}
    return json.dumps({**doc, **fields})


class TestLoaderErrors:
    """Errors of the proposal reader name ``path:line`` of the first line at
    fault, though it checks whole columns."""

    def _load(self, tmp_path, lines, **kwargs):
        path = tmp_path / "props.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return str(path), lambda: load_proposals(str(path), **kwargs)

    def test_a_duplicate_id_names_the_line_of_its_second_listing(self, tmp_path):
        path, load = self._load(tmp_path, [_line("full_body.0"), "", _line("full_body.0", part="torso")])
        message = f"{path}:3: duplicate proposal id 'full_body.0'"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_a_part_type_beyond_the_count_names_its_line(self, tmp_path):
        path, load = self._load(tmp_path, [_line("p0"), _line("full_body.0", part_type=4)], part_type_count=1)
        message = f"{path}:2: part_type 4 exceeds part_type_count 1"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_a_part_type_beyond_int64_names_its_line(self, tmp_path):
        path, load = self._load(tmp_path, [_line("p0"), _line("full_body.0", part_type=2**63)], part_type_count=2**63 - 1)
        message = f"{path}:2: part_type {2**63} exceeds part_type_count {2**63 - 1}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_the_first_line_at_fault_is_named_whichever_column_fails(self, tmp_path):
        lines = [_line("p1"), _line("p2", box=[0, 0, "5", 5]), _line("p3", x="1")]
        path, load = self._load(tmp_path, lines)
        message = f"{path}:2: box[2] must be a finite number, got '5'"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    @pytest.mark.parametrize("top, shown", [("[1]", "a JSON array of length 1"), ("3", "3"), ('"text"', "'text'")])
    def test_a_line_that_is_not_an_object_names_its_line(self, tmp_path, top, shown):
        path, load = self._load(tmp_path, [_line("p1"), top])
        message = f"{path}:2: the document must be a JSON object, got {shown}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    @pytest.mark.parametrize("field", ["id", "part"])
    def test_an_empty_string_names_its_line(self, tmp_path, field):
        path, load = self._load(tmp_path, [_line("p1"), _line("p2", **{field: ""})])
        message = f"{path}:2: {field} must be a non-empty string, got ''"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_a_flat_box_names_its_line(self, tmp_path):
        path, load = self._load(tmp_path, ["", _line("p1", box=[0, 0, 0, 5])])
        message = f"{path}:2: box width and height must be positive, got (0.0, 0.0, 0.0, 5.0)"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_an_integer_just_beyond_the_float_range_is_refused(self, tmp_path):
        """It rounds to the largest float, so only its exact value shows it."""
        edge = int(sys.float_info.max) + 1
        path, load = self._load(tmp_path, [_line("p1"), _line("p2", y=edge)])
        message = f"{path}:2: y must be a finite number, got an integer beyond the float range"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()

    def test_a_score_row_listing_a_pair_the_others_lack_is_refused(self, tmp_path):
        extra = {"hat": {"yes": 0.5}, "gender": {"male": 0.0}}
        path, load = self._load(tmp_path, [_line("p1"), _line("p2", scores=extra)])
        message = f"{path}: proposal 'p1': scores.gender.male is missing, which other proposals have"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            load()


_TWO = {"hat": {"yes": 0.5, "no": 1.0}, "gender": {"male": 0.0}}
_BARE = json.dumps({"id": "p2", "part": "head", "x": 0.0, "y": 0.0, "part_type": 1, "box": [0, 0, 5, 5]})
# Files the loader refuses, and the error each gets, ``PATH`` standing for
# the file's path, in the words a check of the line at fault alone uses.
_REFUSED_FILES = {
    "decode-after-field": (
        [_line("p1"), _line("p2", x="1"), _line("p3"), "{broken"],
        "PATH:4: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "decode-after-extra-pair": (
        [_line("p1"), _line("p2", scores=_TWO), "[1, 2"],
        "PATH: proposal 'p1': scores.hat.no is missing, which other proposals have",
    ),
    "later-extra-pair": (
        [_line("p1"), _line("p2"), _line("p3", scores={"hat": {"no": 0.5, "yes": 0.5}})],
        "PATH: proposal 'p1': scores.hat.no is missing, which other proposals have",
    ),
    "later-extra-attribute": (
        [_line("p1"), _line("p2", scores={"gender": {"male": 0.0}, "hat": {"yes": 0.5}})],
        "PATH: proposal 'p1': scores.gender.male is missing, which other proposals have",
    ),
    "missing-pair": (
        [
            _line("p1", scores=_TWO),
            _line("p2", scores={"gender": {"male": 0.0}, "hat": {"no": 1.0, "yes": 0.5}}),
            _line("p3", scores={"hat": {"yes": 0.5, "no": 1.0}}),
        ],
        "PATH: proposal 'p3': scores.gender.male is missing, which other proposals have",
    ),
    "missing-scores": (
        [_line("p1"), _BARE],
        "PATH: proposal 'p2': scores.hat.yes is missing, which other proposals have",
    ),
    "score-not-object": (
        [_line("p1"), _line("p2", scores={"hat": [0.5]})],
        "PATH: proposal 'p2': scores.hat must be a JSON object, got a JSON array of length 1",
    ),
    "non-object-line": (
        [_line("p1"), _line("p2", scores=_TWO), "[1]", _line("p4", x="1")],
        "PATH: proposal 'p1': scores.hat.no is missing, which other proposals have",
    ),
    "missing-field-after-extra-pair": (
        [_line("p1"), _line("p2", scores=_TWO), json.dumps({"id": "p3"})],
        "PATH: proposal 'p1': scores.hat.no is missing, which other proposals have",
    ),
    "non-finite-cell": (
        [_line("p1"), _line("p2").replace("0.5", "1e400")],
        "PATH: proposal 'p2': scores.hat.yes must be a finite number, got inf",
    ),
    "duplicate-ids": (
        [_line("p1"), _line("p2"), _line("p1", part="torso")],
        "PATH:3: duplicate proposal id 'p1'",
    ),
    "duplicate-id-overriding-an-extra-pair": (
        [_line("p1", scores=_TWO), _line("p2"), _line("p1")],
        "PATH: proposal 'p2': scores.hat.no is missing, which other proposals have",
    ),
    "duplicate-id-overriding-a-non-finite-cell": (
        [_line("p1").replace("0.5", "1e400"), _line("p1")],
        "PATH:2: duplicate proposal id 'p1'",
    ),
    "duplicate-id-with-other-pairs": (
        [_line("p1"), _line("p1", scores={"hat": {"yes": 0.5, "no": 1.0}})],
        "PATH: proposal 'p1': scores.hat.no is missing, which other proposals have",
    ),
    "duplicate-id-after-a-part-type-beyond-the-count": (
        [_line("p1"), _line("p2", part_type=12), _line("p1")],
        "PATH:2: part_type 12 exceeds part_type_count 9",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_FILES))
def test_the_loader_refuses_a_file_in_the_words_of_a_line_by_line_check(tmp_path, case):
    """The first line the loader cannot read into its columns (not JSON,
    not an object, a field missing, or score pairs unlike the first
    line's) is refused at once, by its fields, then by its score row
    against the first line's, so no later line is read.  Past the last
    line every refusal of a proposal (its fields, a part type beyond the
    count, a repeated id) wins over any score cell, naming the first line
    at fault."""
    lines, message = _REFUSED_FILES[case]
    path = tmp_path / "props.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        load_proposals(str(path), part_type_count=9)
    assert str(caught.value) == message.replace("PATH", str(path))


def test_a_line_listing_its_keys_in_another_order_loads_equal(tmp_path):
    scores = {"hat": {"yes": 0.5, "no": -0.0}, "gender": {"male": 1, "female": 2.5}}
    docs = [json.loads(_line(f"p{i}", x=float(i), scores=scores)) for i in range(3)]
    turned = [dict(reversed(doc.items())) for doc in docs]
    turned[1]["scores"] = {a: dict(reversed(per_value.items())) for a, per_value in reversed(scores.items())}
    loaded = []
    for name, lines in (("listed.jsonl", docs), ("turned.jsonl", turned)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines), encoding="utf-8")
        loaded.append(load_proposals(str(path)))
    listed, back = loaded
    assert back.scores == listed.scores
    assert _hexes(back.scores.values) == _hexes(listed.scores.values)
    assert _listed(back) == _listed(listed)


def test_the_loader_holds_less_than_half_of_the_decoded_file(tmp_path):
    """It drops each line's document once its fields and cells are read:
    on a 17 x 200 file its traced peak stays below half of the peak of
    holding every decoded line."""
    rng = np.random.default_rng(5)
    attrs = default_attributes()
    path = tmp_path / "wide.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for part in PART_ORDER:
            for i in range(200):
                x, y = rng.uniform(0, 320), rng.uniform(0, 240)
                doc = {
                    "id": f"{part}.{i}", "part": part, "x": x, "y": y, "part_type": int(rng.integers(1, 10)),
                    "box": [0.0, 0.0, 40.0, 40.0],
                    "scores": {a.id: {v: float(rng.normal()) for v in a.domain} for a in attrs},
                }
                fh.write(json.dumps(doc) + "\n")
    peaks = []
    loads = (partial(load_proposals, part_type_count=9), partial(read_json_lines, build=lambda doc: doc))
    for load in loads:
        tracemalloc.start()
        try:
            load(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1]


# Valid cells of a proposal file: integers and floats, -0.0 and integers
# near 10**300 among them.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.integers(10**300 - 10**6, 10**300 + 10**6).flatmap(lambda n: st.sampled_from([n, -n])),
    st.just(-0.0),
)
_SIZES = st.one_of(st.floats(min_value=1e-300, max_value=1e300), st.integers(1, 10**300))
_PAIRS = {"hat": ("yes", "no"), "gender": ("male",), "age": ("youth", "adult", "elder")}


@st.composite
def _proposal_files(draw):
    """The lines of a valid proposal file over 1-5 parts, each score row
    listing its attributes and values in its own order, blank lines
    between."""
    parts = draw(st.lists(st.sampled_from(PART_ORDER), min_size=1, max_size=5, unique=True))
    attrs = draw(st.lists(st.sampled_from(sorted(_PAIRS)), min_size=1, unique=True))
    lines = []
    for i in range(draw(st.integers(1, 12))):
        scores = {
            a: {v: draw(_NUMBERS) for v in draw(st.permutations(_PAIRS[a]))}
            for a in draw(st.permutations(attrs))
        }
        doc = {
            "id": f"q{draw(st.integers(0, 3))}.{i}",
            "part": draw(st.sampled_from(parts)),
            "x": draw(_NUMBERS),
            "y": draw(_NUMBERS),
            "part_type": draw(st.integers(1, 9)),
            "box": [draw(_NUMBERS), draw(_NUMBERS), draw(_SIZES), draw(_SIZES)],
            "scores": scores,
        }
        lines += [json.dumps(doc)] + draw(st.lists(st.sampled_from(["", "  "]), max_size=1))
    return lines


def _hexes(values) -> list:
    return [float.hex(float(v)) for v in np.ravel(values)]


@given(lines=_proposal_files())
@settings(max_examples=80, deadline=None)
def test_the_columnar_loader_matches_a_line_by_line_reference(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("props") / "props.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    pset = load_proposals(str(path), part_type_count=9)
    docs = read_json_lines(str(path), lambda doc: doc)
    proposals = [Proposal.from_json_dict(doc) for doc in docs]
    assert list(pset.buckets) == list(dict.fromkeys(p.part for p in proposals))
    for part, bucket in pset.buckets.items():
        # Each part's proposals in id order, with their file rows.
        mine = sorted(((r, p) for r, p in enumerate(proposals) if p.part == part), key=lambda rp: rp[1].id)
        ids = tuple(p.id for _r, p in mine)
        assert bucket.ids == ids == tuple(sorted(ids))
        assert _hexes(bucket.xy) == _hexes([(p.x, p.y) for _r, p in mine])
        assert _hexes(bucket.boxes) == _hexes([p.box for _r, p in mine])
        assert bucket.types.tolist() == [p.part_type for _r, p in mine]
        assert bucket.rows.tolist() == [r for r, _p in mine]
    assert pset.scores.values.shape == (len(docs), sum(map(len, docs[0]["scores"].values())))
    for r, doc in enumerate(docs):
        for attr, per_value in doc["scores"].items():
            for value, cell in per_value.items():
                got = pset.scores.values[r, pset.scores.column(attr, value)]
                assert float.hex(float(got)) == float.hex(number(cell))


@st.composite
def _column_sets(draw):
    """Proposal columns of 1-5 proposals over 1-3 parts, with their score
    table; about half of them with one value that ``Proposal`` refuses."""
    n = draw(st.integers(1, 5))
    rows = [
        {
            "id": f"q{draw(st.integers(0, 3))}.{j}",
            "part": draw(st.sampled_from(PART_ORDER[:3])),
            "x": draw(_NUMBERS),
            "y": draw(_NUMBERS),
            "part_type": draw(st.integers(1, 9)),
            "box": (draw(_NUMBERS), draw(_NUMBERS), draw(_SIZES), draw(_SIZES)),
        }
        for j in range(n)
    ]
    scores = ScoreTable({r["id"]: {"hat": {"yes": draw(_NUMBERS), "no": draw(_NUMBERS)}} for r in rows})
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(_REFUSED)))
        rows[draw(st.integers(0, n - 1))][field] = draw(_REFUSED[field])
    ids, parts, types, boxes = ([r[f] for r in rows] for f in ("id", "part", "part_type", "box"))
    return ids, parts, [(r["x"], r["y"]) for r in rows], types, boxes, scores


@given(columns=_column_sets())
@settings(max_examples=120, deadline=None)
def test_every_set_from_columns_accepts_round_trips_through_a_file(tmp_path_factory, columns):
    """Whatever columns ``from_columns`` accepts rebuild as proposals, part
    by part, and a save and load gives back their ids, types and score
    cells, and their coordinates and boxes to the bit; the columns it
    does not accept it refuses with a ``ValidationError``."""
    try:
        pset = ProposalSet.from_columns(*columns, 9)
    except ValidationError:
        return
    for part in pset.buckets:
        assert len(pset.proposals_for(part)) == len(pset.buckets[part].ids)
    path = tmp_path_factory.mktemp("round-trip") / "props.jsonl"
    save_proposals(pset, str(path))
    back = load_proposals(str(path), part_type_count=9)
    assert list(back.buckets) == sorted(pset.buckets)
    for part, bucket in pset.buckets.items():
        loaded = back.buckets[part]
        assert loaded.ids == bucket.ids
        assert loaded.types.tolist() == bucket.types.tolist()
        assert _hexes(loaded.xy) == _hexes(bucket.xy)
        assert _hexes(loaded.boxes) == _hexes(bucket.boxes)
        cells = [(pid, "hat", value) for pid in bucket.ids for value in ("yes", "no")]
        assert [float.hex(_cell(back.scores, *cell)) for cell in cells] == [
            float.hex(_cell(pset.scores, *cell)) for cell in cells
        ]
