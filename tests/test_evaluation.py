"""Metric and diagnostic-harness tests.

Strict PCP and average precision get closed-form fixtures with exact
expected values; the diagnostic runner is checked for report shape and
determinism on a small corpus, with the headline quality gates living in
the acceptance suite.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegrammar import evaluation, inference
from posegrammar.appearance import Proposal, ProposalSet, ScoreTable
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.evaluation import (
    ALL_MODES,
    DiagnosticConfig,
    Stick,
    annotation_from_person,
    argmax_value,
    average_precision,
    default_sticks,
    make_training_pairs,
    no_pose_attribute_scores,
    parse_attribute_scores,
    run_diagnostic,
    strict_pcp,
)
from posegrammar.grammar import (
    ATOMIC_PARTS,
    AOGrammar,
    build_default_human_grammar,
    AttributeDef,
    GrammarNode,
    NodeKind,
    ParseGraph,
    PartState,
    part_keypoints,
)
from posegrammar.inference import BeamConfig
from posegrammar.learning import Annotation, JointObs
from posegrammar.relations import AttributeAssociation, RelationModels, full_association
from posegrammar.synthetic import generate_family, single_person_scene

_JOINTS = {
    "head": (50.0, 10.0),
    "torso": (50.0, 40.0),
    "l_shoulder": (35.0, 30.0),
    "r_shoulder": (65.0, 30.0),
    "l_upper_arm": (30.0, 45.0),
    "l_lower_arm": (25.0, 55.0),
    "r_upper_arm": (70.0, 45.0),
    "r_lower_arm": (75.0, 55.0),
    "l_hip": (40.0, 60.0),
    "r_hip": (60.0, 60.0),
    "l_upper_leg": (40.0, 75.0),
    "l_lower_leg": (40.0, 90.0),
    "r_upper_leg": (60.0, 75.0),
    "r_lower_leg": (60.0, 90.0),
}


def _truth(hidden=(), scale=1.0):
    joints = {
        p: JointObs(x=x * scale, y=y * scale, visible=p not in hidden)
        for p, (x, y) in _JOINTS.items()
    }
    return Annotation(
        joints=joints, person_box=(0.0, 0.0, 100.0 * scale, 100.0 * scale), attributes={}
    )


def _parse(offsets=None, scale=1.0):
    """Parse graph sitting on the truth joints, plus per-part offsets."""
    offsets = offsets or {}
    states = {}
    for part, (x, y) in _JOINTS.items():
        dx, dy = offsets.get(part, (0.0, 0.0))
        states[part] = PartState(part, (x + dx) * scale, (y + dy) * scale, 1, f"p.{part}")
    return ParseGraph(states, {}, 0.0)


class TestDefaultSticks:
    def test_thirteen_sticks_indexed_from_one(self, grammar):
        sticks = default_sticks(grammar)
        assert len(sticks) == 13
        assert [s.index for s in sticks] == list(range(1, 14))
        assert [(s.a, s.b) for s in sticks] == list(grammar.dg_edges)

    def test_composite_endpoint_rejected(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("a", "b")),
            GrammarNode("a", NodeKind.TERMINAL, "a"),
            GrammarNode("b", NodeKind.TERMINAL, "b"),
        )
        g = AOGrammar(
            root="root",
            nodes=nodes,
            psg_edges=(("root", "a"), ("root", "b")),
            dg_edges=(("root", "a"),),
            attributes=(AttributeDef("c", "c", ("u", "v")),),
            part_type_count=2,
        )
        with pytest.raises(ValidationError, match="non-atomic endpoint"):
            default_sticks(g)


_TORSO_HEAD = (Stick(1, "torso", "head"),)


class TestStrictPcp:
    def test_perfect_prediction(self, grammar):
        sticks = default_sticks(grammar)
        result = strict_pcp(_parse(), _truth(), sticks)
        assert result.mean == 1.0
        assert set(result.per_stick) == set(range(1, 14))
        assert all(result.per_stick.values())

    def test_endpoint_at_exactly_half_length_counts(self):
        # Stick length 30, so the bound is 15; a 15-pixel miss is inclusive.
        result = strict_pcp(_parse({"head": (0.0, 15.0)}), _truth(), _TORSO_HEAD)
        assert result.per_stick == {1: True}
        assert result.mean == 1.0

    def test_endpoint_past_half_length_fails(self):
        result = strict_pcp(_parse({"head": (0.0, 18.0)}), _truth(), _TORSO_HEAD)
        assert result.per_stick == {1: False}
        assert result.mean == 0.0

    def test_both_endpoints_must_hit(self):
        result = strict_pcp(_parse({"torso": (0.0, 16.0)}), _truth(), _TORSO_HEAD)
        assert result.per_stick == {1: False}

    def test_two_of_three_sticks(self):
        sticks = (
            Stick(1, "torso", "head"),
            Stick(2, "l_hip", "l_upper_leg"),
            Stick(3, "r_hip", "r_upper_leg"),
        )
        # Stick 3 has length 15, bound 7.5; an 8-pixel miss breaks it.
        result = strict_pcp(_parse({"r_upper_leg": (8.0, 0.0)}), _truth(), sticks)
        assert result.per_stick == {1: True, 2: True, 3: False}
        np.testing.assert_allclose(result.mean, 2.0 / 3.0, atol=1e-12)

    def test_scale_equivariance(self, grammar):
        sticks = default_sticks(grammar)
        offsets = {"head": (0.0, 12.0), "l_upper_leg": (8.0, 0.0), "r_lower_arm": (3.0, 3.0)}
        base = strict_pcp(_parse(offsets), _truth(), sticks)
        scaled = strict_pcp(_parse(offsets, scale=10.0), _truth(scale=10.0), sticks)
        assert base.per_stick == scaled.per_stick
        assert base.mean == scaled.mean

    def test_invisible_endpoint_excluded(self):
        sticks = (Stick(1, "torso", "head"), Stick(2, "l_hip", "l_upper_leg"))
        result = strict_pcp(_parse(), _truth(hidden=("head",)), sticks)
        assert result.per_stick == {2: True}
        assert result.mean == 1.0

    def test_nothing_evaluable(self):
        with pytest.raises(ValidationError, match="no evaluable sticks"):
            strict_pcp(_parse(), _truth(hidden=("head",)), _TORSO_HEAD)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError, match="positive"):
            strict_pcp(_parse(), _truth(), _TORSO_HEAD, threshold=0.0)

    def test_missing_predicted_state(self):
        pg = _parse()
        del pg.states["head"]
        with pytest.raises(MissingEntryError, match="head"):
            strict_pcp(pg, _truth(), _TORSO_HEAD)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([3.0, 2.0, 1.0], [1, 1, 0]) == 1.0

    def test_worst_ranking_of_one_positive(self):
        np.testing.assert_allclose(
            average_precision([1.0, 2.0, 3.0], [1, 0, 0]), 1.0 / 3.0, atol=1e-12
        )

    def test_alternating_fixture(self):
        np.testing.assert_allclose(
            average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]), 5.0 / 6.0, atol=1e-12
        )

    def test_ties_stand_or_fall_together(self):
        for labels in ([1, 0], [0, 1]):
            np.testing.assert_allclose(
                average_precision([5.0, 5.0], labels), 0.5, atol=1e-12
            )
        assert average_precision([5.0, 4.0], [1, 0]) == 1.0

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(0, 1)), min_size=1, max_size=40
        ).filter(lambda pairs: any(label for _, label in pairs))
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, pairs):
        scores = [float(s) for s, _ in pairs]
        labels = [label for _, label in pairs]
        base = average_precision(scores, labels)
        shifted = average_precision([3.0 * s + 7.0 for s in scores], labels)
        assert base == shifted
        assert 0.0 <= base <= 1.0 + 1e-12

    def test_validation_errors(self):
        with pytest.raises(ValidationError, match="at least one"):
            average_precision([], [])
        with pytest.raises(ValidationError, match="equal-length"):
            average_precision([1.0], [1, 0])
        with pytest.raises(ValidationError, match="finite"):
            average_precision([float("nan")], [1])
        with pytest.raises(ValidationError, match=r"^scores\[0\] must be a finite number, got an integer beyond"):
            average_precision([10**400, 0.8], [1, 0])
        with pytest.raises(ValidationError, match="0 or 1"):
            average_precision([1.0], [2])
        with pytest.raises(ValidationError, match="no positive"):
            average_precision([1.0, 2.0], [0, 0])

    @pytest.mark.parametrize(
        "scores, problem",
        [([0.9, True], "[1] must be a finite number, got True"), ([math.inf, 0.5], "[0] must be a finite number, got inf")],
        ids=["bool", "inf"],
    )
    def test_scores_follow_the_number_rule_naming_the_index(self, scores, problem):
        with pytest.raises(ValidationError, match="^" + re.escape("scores" + problem) + "$"):
            average_precision(scores, [1, 0])

    def test_integer_scores_are_read_as_floats(self):
        assert average_precision([2, 1], [1, 0]) == 1.0


class TestArgmaxValue:
    def test_picks_the_peak(self):
        assert argmax_value({"u": -1.0, "v": 2.0, "w": 0.5}, ("u", "v", "w")) == "v"

    def test_tie_goes_to_earliest_domain_entry(self):
        per_value = {"u": 1.5, "v": 1.5}
        assert argmax_value(per_value, ("u", "v")) == "u"
        assert argmax_value(per_value, ("v", "u")) == "v"


class TestAnnotationFromPerson:
    def test_clean_annotation_matches_person(self, grammar):
        scene = single_person_scene(3, attr_defs=tuple(grammar.attributes))
        person = scene.persons[0]
        ann = annotation_from_person(person)
        assert all(j.visible for j in ann.joints.values())
        assert ann.attributes == person.attributes
        for part, (x, y) in person.joints.items():
            assert (ann.joints[part].x, ann.joints[part].y) == (x, y)

    def test_person_and_annotation_give_the_same_keypoints(self, grammar):
        """Synthetic proposals and proposal labeling see one keypoint layout,
        in one order: the joints, then upper, lower and full body."""
        person = single_person_scene(3, attr_defs=tuple(grammar.attributes)).persons[0]
        ann = annotation_from_person(person, np.random.default_rng(7), occlude=True)
        from_person = list(part_keypoints(person.joints).items())
        from_ann = list(part_keypoints({p: (j.x, j.y) for p, j in ann.joints.items()}).items())
        assert from_ann == from_person
        assert len(from_person) == 17
        assert [p for p, _ in from_person[14:]] == ["upper_body", "lower_body", "full_body"]

    def test_occlusion_requires_rng(self, grammar):
        scene = single_person_scene(3, attr_defs=tuple(grammar.attributes))
        with pytest.raises(ValidationError, match="rng"):
            annotation_from_person(scene.persons[0], occlude=True)

    def test_occlusion_is_seeded(self, grammar):
        scene = single_person_scene(3, attr_defs=tuple(grammar.attributes))
        a = annotation_from_person(scene.persons[0], np.random.default_rng(7), occlude=True)
        b = annotation_from_person(scene.persons[0], np.random.default_rng(7), occlude=True)
        assert a == b

    def test_occlusion_hides_joints_and_drops_values(self, grammar):
        scene = single_person_scene(3, attr_defs=tuple(grammar.attributes))
        hid_joint = dropped_value = 0
        for seed in range(60):
            ann = annotation_from_person(
                scene.persons[0], np.random.default_rng(seed), occlude=True
            )
            assert any(j.visible for j in ann.joints.values())
            assert set(ann.joints) == set(ATOMIC_PARTS)
            hid_joint += any(not j.visible for j in ann.joints.values())
            dropped_value += any(v is None for v in ann.attributes.values())
        assert hid_joint > 10
        assert dropped_value > 10


class TestMakeTrainingPairs:
    def test_deterministic(self, grammar):
        a_anns, a_types = make_training_pairs(6, seed=11, grammar=grammar)
        b_anns, b_types = make_training_pairs(6, seed=11, grammar=grammar)
        assert a_anns == b_anns
        assert a_types == b_types

    def test_a_negative_seed_is_refused_naming_it(self, grammar):
        with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got -1$"):
            make_training_pairs(5, seed=-1, grammar=grammar)

    def test_shapes_and_ranges(self, grammar):
        anns, types = make_training_pairs(5, seed=2, grammar=grammar)
        assert len(anns) == len(types) == 5
        for sample in types:
            assert set(sample) == set(grammar.part_ids)
            assert all(1 <= t <= grammar.part_type_count for t in sample.values())

    def test_size_bound(self, grammar):
        with pytest.raises(ValidationError, match="^n must be an integer >= 1, got 0$"):
            make_training_pairs(0, seed=1, grammar=grammar)


def _tiny_pset():
    table = ScoreTable(
        {"ph": {"hat": {"yes": 2.0, "no": -1.0}}, "pt": {"hat": {"yes": 5.0, "no": 0.5}}}
    )
    pset = ProposalSet.from_proposals(
        [
            Proposal(id="ph", part="head", x=0, y=0, part_type=1, box=(0, 0, 2, 2)),
            Proposal(id="pt", part="torso", x=0, y=0, part_type=1, box=(0, 0, 2, 2)),
        ],
        table,
    )
    return pset


class TestAttributeScoring:
    def _grammar(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("head", "torso")),
            GrammarNode("head", NodeKind.TERMINAL, "head"),
            GrammarNode("torso", NodeKind.TERMINAL, "torso"),
        )
        return AOGrammar(
            root="root",
            nodes=nodes,
            psg_edges=(("root", "head"), ("root", "torso")),
            dg_edges=(("head", "torso"),),
            attributes=(AttributeDef("hat", "hat", ("yes", "no")),),
            part_type_count=1,
        )

    def test_parse_scores_mask_by_association(self):
        g = self._grammar()
        pset = _tiny_pset()
        assoc = AttributeAssociation(parts={"head": ("hat",), "torso": ()}, attr_ids=("hat",))
        states = {
            "head": PartState("head", 0.0, 0.0, 1, "ph"),
            "torso": PartState("torso", 0.0, 0.0, 1, "pt"),
        }
        pg = ParseGraph(states, {}, 0.0)
        scores = parse_attribute_scores(pg, pset, assoc, g)
        np.testing.assert_allclose(scores["hat"]["yes"], 2.0, atol=1e-12)
        np.testing.assert_allclose(scores["hat"]["no"], -1.0, atol=1e-12)

    def test_no_pose_scores_take_the_best_proposal(self):
        g = self._grammar()
        scores = no_pose_attribute_scores(_tiny_pset(), g)
        np.testing.assert_allclose(scores["hat"]["yes"], 5.0, atol=1e-12)
        np.testing.assert_allclose(scores["hat"]["no"], 0.5, atol=1e-12)

    def test_no_pose_needs_proposals(self):
        g = self._grammar()
        with pytest.raises(ValidationError, match="no proposals"):
            no_pose_attribute_scores(ProposalSet.from_proposals([], ScoreTable({})), g)


class TestRunDiagnostic:
    def _config(self, grammar, models, **overrides):
        kwargs = dict(
            grammar=grammar,
            models=models,
            beam=BeamConfig(beam_width=8),
            noise_sigma=0.9,
            seed=3,
        )
        kwargs.update(overrides)
        return DiagnosticConfig(**kwargs)

    def test_report_shape(self, grammar, quick_models):
        scenes = generate_family("two-person", 3, seed=77)
        report = run_diagnostic(scenes, self._config(grammar, quick_models))
        assert report["schema_version"] == 1
        assert report["n_scenes"] == 3
        assert set(report["modes"]) == set(ALL_MODES)
        for mode in ("joint", "no-attribute"):
            assert 0.0 <= report["modes"][mode]["pcp"] <= 1.0
        assert report["modes"]["no-pose"]["pcp"] is None
        for mode in ALL_MODES:
            entry = report["modes"][mode]
            assert 0.0 <= entry["attribute_accuracy"] <= 1.0
            assert 0.0 <= entry["mean_ap"] <= 1.0
            assert len(entry["per_attribute_accuracy"]) == len(grammar.attributes)

    def test_deterministic_report(self, grammar, quick_models):
        scenes = generate_family("two-person", 2, seed=9)
        cfg = self._config(grammar, quick_models)
        assert run_diagnostic(scenes, cfg, modes=("no-pose",)) == run_diagnostic(
            scenes, cfg, modes=("no-pose",)
        )

    def test_mode_subset(self, grammar, quick_models):
        scenes = generate_family("two-person", 2, seed=9)
        report = run_diagnostic(
            scenes, self._config(grammar, quick_models), modes=("no-attribute",)
        )
        assert set(report["modes"]) == {"no-attribute"}

    def test_stacked_modes_report_what_each_mode_reports_alone(self, grammar, quick_models):
        """The joint and no-attribute parses of a scene share one stacked
        search; each mode's numbers equal those of a run of that mode alone."""
        scenes = generate_family("two-person", 2, seed=9)
        cfg = self._config(grammar, quick_models)
        together = run_diagnostic(scenes, cfg)
        for mode in ALL_MODES:
            alone = run_diagnostic(scenes, cfg, modes=(mode,))
            assert alone["modes"][mode] == together["modes"][mode]

    def test_one_search_per_scene(self, grammar, quick_models, monkeypatch):
        """All three modes on one scene run exactly one search."""
        calls = []
        search = inference._search

        def counted(*args):
            calls.append(args[3])
            return search(*args)

        monkeypatch.setattr(inference, "_search", counted)
        monkeypatch.setattr(evaluation, "_search", counted)
        run_diagnostic(generate_family("two-person", 1, seed=1), self._config(grammar, quick_models))
        pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
        assert calls == [[{a: v} for a, v in pairs] + [{}]]

    @pytest.mark.parametrize(
        "modes",
        [(), ("joint", "joint"), ("no-pose", "joint", "no-pose")],
        ids=["empty", "joint-twice", "no-pose-twice"],
    )
    def test_modes_must_be_distinct_and_non_empty(self, grammar, quick_models, modes):
        with pytest.raises(ValidationError, match=r"modes must be distinct and non-empty, got \("):
            run_diagnostic(
                generate_family("two-person", 1, seed=1),
                self._config(grammar, quick_models),
                modes=modes,
            )

    def test_unknown_mode(self, grammar, quick_models):
        with pytest.raises(ValidationError, match="unknown diagnostic mode"):
            run_diagnostic(
                generate_family("two-person", 1, seed=1),
                self._config(grammar, quick_models),
                modes=("freestyle",),
            )

    def test_a_grammar_without_attributes_reports_no_attribute_numbers(self, quick_models):
        """The pose is still scored; accuracy, like mean AP, has nothing to
        average and reads None."""
        bare = build_default_human_grammar(attr_defs=())
        models = RelationModels(quick_models.syntactic, quick_models.kinematic, full_association(bare))
        scenes = generate_family("single", 2, seed=0, attr_defs=())
        report = run_diagnostic(scenes, self._config(bare, models), modes=("no-attribute", "no-pose"))
        for mode, entry in report["modes"].items():
            assert entry["attribute_accuracy"] is None and entry["mean_ap"] is None, mode
            assert entry["per_attribute_accuracy"] == {}
        assert 0.0 <= report["modes"]["no-attribute"]["pcp"] <= 1.0

    def test_needs_scenes(self, grammar, quick_models):
        with pytest.raises(ValidationError, match="at least one scene"):
            run_diagnostic([], self._config(grammar, quick_models))
