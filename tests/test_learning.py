"""Learning tests: proposal part types, table fitting, EM, MI, and associations.

Closed-form fixtures come first in each class; the generative checks
afterwards only assert properties an estimator must have regardless of
its internals (count consistency, trace monotonicity, mean recovery).
"""

from __future__ import annotations

import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from posegrammar import learning, parallel
from posegrammar.appearance import PART_ORDER, Proposal, synth_scores
from posegrammar.errors import DegenerateDataError, MissingEntryError, ValidationError
from posegrammar.evaluation import annotation_from_person, make_training_pairs
from posegrammar.grammar import (
    ATOMIC_PARTS,
    AOGrammar,
    AttributeDef,
    GrammarNode,
    PartState,
    part_keypoints,
)
from posegrammar.learning import (
    Annotation,
    EM_TOL,
    OVERLAP_POSITIVE,
    JointObs,
    box_iou,
    _kmeans_plusplus,
    derive_associations,
    displacement_samples,
    fit_kinematic,
    fit_syntactic,
    learn_models,
    load_annotations,
    mutual_information,
    proposal_part_types,
    save_annotations,
)
from posegrammar.relations import COV_EIG_FLOOR
from posegrammar.synthetic import generate_family, part_box

# A spread-out pose on a 100 x 100 person box, used by the part-type
# fixtures below.  Member centroids: upper_body (50, 38.75),
# lower_body (50, 75), full_body (50, 54.285...).
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


def _annotation(visible=(), hidden=(), attributes=None):
    joints = {
        p: JointObs(x=x, y=y, visible=p not in hidden) for p, (x, y) in _JOINTS.items()
    }
    return Annotation(
        joints=joints,
        person_box=(0.0, 0.0, 100.0, 100.0),
        attributes=attributes if attributes is not None else {},
    )


def _prop(pid, part, box, part_type=1):
    """A proposal for ``part`` at the centre of ``box``."""
    x0, y0, w, h = box
    return Proposal(id=pid, part=part, x=x0 + w / 2.0, y=y0 + h / 2.0, part_type=part_type, box=box)


class TestAnnotation:
    def test_missing_joint_rejected(self):
        joints = {p: JointObs(0.0, 0.0) for p in ATOMIC_PARTS[:-1]}
        with pytest.raises(ValidationError, match="misses joints"):
            Annotation(joints=joints, person_box=(0, 0, 10, 10), attributes={})

    def test_unknown_joint_rejected(self):
        joints = {p: JointObs(0.0, 0.0) for p in ATOMIC_PARTS}
        joints["tail"] = JointObs(0.0, 0.0)
        with pytest.raises(ValidationError, match="unknown joints"):
            Annotation(joints=joints, person_box=(0, 0, 10, 10), attributes={})

    def test_needs_a_visible_joint(self):
        joints = {p: JointObs(0.0, 0.0, visible=False) for p in ATOMIC_PARTS}
        with pytest.raises(ValidationError, match="visible"):
            Annotation(joints=joints, person_box=(0, 0, 10, 10), attributes={})

    def test_degenerate_box_rejected(self):
        joints = {p: JointObs(0.0, 0.0) for p in ATOMIC_PARTS}
        with pytest.raises(ValidationError, match="positive area"):
            Annotation(joints=joints, person_box=(0, 0, 10, 0), attributes={})

    def test_non_finite_box_rejected(self):
        joints = {p: JointObs(0.0, 0.0) for p in ATOMIC_PARTS}
        with pytest.raises(ValidationError, match=r"^person_box\[0\] must be a finite number, got nan$"):
            Annotation(joints=joints, person_box=(math.nan, 0, math.nan, 1), attributes={})

    def test_json_round_trip(self, tmp_path):
        ann = _annotation(hidden=("l_lower_leg",), attributes={"hat": "yes", "age": None})
        again = Annotation.from_json_dict(ann.to_json_dict())
        assert again == ann
        path = tmp_path / "anns.jsonl"
        save_annotations([ann, _annotation()], str(path))
        loaded = load_annotations(str(path))
        assert loaded == [ann, _annotation()]

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"person_box": [0, 0, 1, 1]}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="bad.jsonl:1"):
            load_annotations(str(path))

    def test_keypoints_include_member_centroids(self):
        pts = part_keypoints({p: (j.x, j.y) for p, j in _annotation().joints.items()})
        assert len(pts) == 17
        np.testing.assert_allclose(pts["lower_body"], (50.0, 75.0), atol=1e-12)
        np.testing.assert_allclose(pts["upper_body"], (50.0, 38.75), atol=1e-12)


class TestBoxIou:
    def test_half_overlap(self):
        np.testing.assert_allclose(
            box_iou((0, 0, 10, 10), (5, 0, 10, 10)), 1.0 / 3.0, atol=1e-15
        )

    def test_identical_boxes(self):
        assert box_iou((2, 3, 7, 9), (2, 3, 7, 9)) == 1.0

    def test_disjoint_boxes(self):
        assert box_iou((0, 0, 10, 10), (20, 20, 5, 5)) == 0.0

    def test_zero_area_union(self):
        assert box_iou((0, 0, 0, 0), (0, 0, 0, 0)) == 0.0


class TestProposalPartTypes:
    def test_a_proposal_on_its_own_part_box_gets_its_type(self):
        ann = _annotation()
        props = [_prop(f"p{k}", part, part_box(part, _JOINTS), 1 + k % 9) for k, part in enumerate(PART_ORDER)]
        assert len(props) == 17
        assert proposal_part_types(ann, props) == {part: 1 + k % 9 for k, part in enumerate(PART_ORDER)}

    def test_a_composite_box_covers_its_members_padded(self):
        ann = _annotation()
        box = part_box("lower_body", _JOINTS)
        assert box == (34.0, 54.0, 32.0, 42.0)
        assert proposal_part_types(ann, [_prop("c", "lower_body", box, part_type=6)]) == {"lower_body": 6}

    def test_the_person_box_around_an_atomic_keypoint_gives_no_type(self):
        """The person box contains the head's keypoint but overlaps the
        head's own box by only about 0.05."""
        ann = _annotation()
        assert box_iou(ann.person_box, part_box("head", _JOINTS)) < OVERLAP_POSITIVE
        assert proposal_part_types(ann, [_prop("h", "head", ann.person_box, part_type=4)]) == {}

    def test_a_box_at_the_overlap_bound_gives_no_type(self):
        """l_lower_leg's box is (31, 75, 18, 30): 18 x 21 of it overlaps it
        by exactly 0.7, 18 x 22 by more."""
        ann = _annotation()
        own = part_box("l_lower_leg", _JOINTS)
        at, above = (31.0, 75.0, 18.0, 21.0), (31.0, 75.0, 18.0, 22.0)
        assert box_iou(at, own) == OVERLAP_POSITIVE < box_iou(above, own)
        assert proposal_part_types(ann, [_prop("at", "l_lower_leg", at)]) == {}
        assert proposal_part_types(ann, [_prop("above", "l_lower_leg", above, 3)]) == {"l_lower_leg": 3}

    def test_another_parts_box_gives_no_type(self):
        """A proposal names its part: sitting exactly on another part's box
        types neither part."""
        ann = _annotation()
        leg = part_box("l_lower_leg", _JOINTS)
        assert proposal_part_types(ann, [_prop("h", "head", leg, part_type=5)]) == {}

    def test_the_first_proposal_of_a_part_wins(self):
        ann = _annotation()
        head = part_box("head", _JOINTS)
        props = [
            _prop("miss", "head", ann.person_box, part_type=1),
            _prop("a", "head", head, part_type=3),
            _prop("b", "head", head, part_type=5),
        ]
        assert proposal_part_types(ann, props) == {"head": 3}
        assert proposal_part_types(ann, props[::-1]) == {"head": 5}

    @pytest.mark.parametrize("index", range(8))
    def test_a_distractors_proposals_type_none_of_the_targets_parts(self, index):
        """A two-person scene's distractor stands beside the target: against
        the target's annotation its proposals alone give no type, and listed
        first they leave the target's own 17 types."""
        scene = generate_family("two-person", 8, seed=7)[index]
        pset = synth_scores(scene, 0.0, index)
        listed = [p for part in pset.buckets for p in pset.proposals_for(part)]
        target = [p for p in listed if p.id.startswith("p0.")]
        distractor = [p for p in listed if p.id.startswith("p1.")]
        assert len(target) == len(distractor) == 17
        ann = annotation_from_person(scene.persons[0])
        assert proposal_part_types(ann, distractor) == {}
        assert proposal_part_types(ann, distractor + target) == {p.part: p.part_type for p in target}

    def test_a_part_without_a_box_is_refused_naming_the_proposal(self):
        ann = _annotation()
        props = [_prop("a", "head", part_box("head", _JOINTS)), _prop("t", "tail", (0.0, 0.0, 10.0, 10.0))]
        message = "proposal 't': part 'tail' is not one of the 17 keypoint parts"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            proposal_part_types(ann, props)


def _toy_grammar():
    nodes = (
        GrammarNode("root", "root", ("a", "b")),
        GrammarNode("a", "a"),
        GrammarNode("b", "b"),
    )
    return AOGrammar(
        root="root",
        nodes=nodes,
        dg_edges=(("a", "b"),),
        attributes=(AttributeDef("c", "c", ("u", "v")),),
        part_type_count=2,
    )


@pytest.fixture(scope="module")
def corpus_101(grammar):
    """The first corpus of the learning benchmark: 600 annotations and
    their part types."""
    return make_training_pairs(600, seed=101, grammar=grammar)


def _log(table, edge, t_parent, t_child):
    """The log entry of ``edge``'s co-occurrence table at two part types."""
    return table.logs[table.row(edge), t_parent - 1, t_child - 1]


def _loop_syntactic(type_samples, grammar):
    """Co-occurrence counts one sample at a time: the reference for the
    counted fit."""
    t = grammar.part_type_count
    tables = {}
    for parent, child in grammar.psg_edges:
        counts = np.zeros((t, t))
        n = 0
        for types in type_samples:
            if types.get(parent) is not None and types.get(child) is not None:
                counts[types[parent] - 1, types[child] - 1] += 1.0
                n += 1
        tables[(parent, child)] = (counts + 1.0) / (n + t * t)
    return tables


def _loop_displacements(annotations, grammar):
    """Child-minus-parent offsets one annotation at a time."""
    out = {e: [] for e in grammar.dg_edges}
    for ann in annotations:
        for parent, child in grammar.dg_edges:
            jp, jc = ann.joints[parent], ann.joints[child]
            if jp.visible and jc.visible:
                out[(parent, child)].append((jc.x - jp.x, jc.y - jp.y))
    return {e: np.array(v).reshape(-1, 2) for e, v in out.items()}


def _loop_mutual_information(known, visible):
    """Mutual information from a 2 x 2 table counted one sample at a time."""
    n = len(known)
    counts = [[0, 0], [0, 0]]
    for a, b in zip(known, visible):
        counts[int(a)][int(b)] += 1
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if counts[i][j]:
                p = counts[i][j] / n
                px = (counts[i][0] + counts[i][1]) / n
                py = (counts[0][j] + counts[1][j]) / n
                mi += p * math.log(p / (px * py))
    return mi


class TestFitSyntactic:
    def test_single_observation_smoothing(self, grammar):
        """One sample per edge: the observed cell gets 2/82, the rest 1/82."""
        types = {p: 1 for p in grammar.part_ids}
        types["full_body"] = 2
        types["upper_body"] = 3
        table = fit_syntactic([types], grammar)
        np.testing.assert_allclose(
            _log(table, ("full_body", "upper_body"), 2, 3), math.log(2.0 / 82.0), atol=1e-12
        )
        np.testing.assert_allclose(
            _log(table, ("full_body", "upper_body"), 1, 1), math.log(1.0 / 82.0), atol=1e-12
        )
        np.testing.assert_allclose(
            _log(table, ("upper_body", "head"), 3, 1), math.log(2.0 / 82.0), atol=1e-12
        )

    def test_counting_oracle(self):
        g = _toy_grammar()
        samples = [(1, 1), (1, 2), (1, 1)]
        table = fit_syntactic([{"root": tr, "a": tc, "b": tc} for tr, tc in samples], g)
        np.testing.assert_allclose(
            _log(table, ("root", "a"), 1, 1), math.log(3.0 / 7.0), atol=1e-12
        )
        np.testing.assert_allclose(
            _log(table, ("root", "a"), 1, 2), math.log(2.0 / 7.0), atol=1e-12
        )
        np.testing.assert_allclose(
            _log(table, ("root", "a"), 2, 1), math.log(1.0 / 7.0), atol=1e-12
        )

    def test_uniform_fallback_warns(self):
        g = _toy_grammar()
        with pytest.warns(UserWarning, match="uniform") as caught:
            table = fit_syntactic([{"root": 1}], g)
        np.testing.assert_allclose(_log(table, ("root", "a"), 2, 2), math.log(0.25), atol=1e-12)
        np.testing.assert_allclose(_log(table, ("root", "b"), 1, 2), math.log(0.25), atol=1e-12)
        assert [str(w.message) for w in caught] == [
            "no part-type samples for edges [('root', 'a'), ('root', 'b')]; they use the uniform table"
        ]
        # One warning however many edges fall back; a sampled edge is not named.
        with pytest.warns(UserWarning) as caught:
            fit_syntactic([{"root": 1, "a": 2}, {"b": 1}], g)
        assert [str(w.message) for w in caught] == [
            "no part-type samples for edges [('root', 'b')]; they use the uniform table"
        ]

    def test_out_of_range_type_rejected(self):
        g = _toy_grammar()
        with pytest.raises(ValidationError, match="1..2"):
            fit_syntactic([{"root": 1, "a": 3, "b": 1}], g)


    def test_counts_match_the_per_sample_loop(self, grammar, corpus_101):
        """Corpus 101 with about a fifth of its part types dropped, so
        edges differ in their sample counts."""
        annotations, types = corpus_101
        rng = np.random.default_rng(3)
        thinned = [{p: v for p, v in per.items() if rng.random() > 0.2} for per in types]
        table = fit_syntactic(thinned, grammar)
        expected = _loop_syntactic(thinned, grammar)
        assert list(table.tables) == list(expected)
        for edge, counts in expected.items():
            assert np.array_equal(table.tables[edge], counts), edge

    def test_out_of_range_error_names_the_first_bad_pair(self):
        """Edges are checked in grammar order, each over the samples in
        order; a type whose edge partner has none is not a pair."""
        g = _toy_grammar()
        samples = [{"root": 1, "a": 2}, {"a": 7, "b": 9}, {"root": 2, "a": 1, "b": 3}, {"root": 0, "b": 1}]
        message = "part types for edge ('root', 'b') must lie in 1..2, got (2, 3)"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            fit_syntactic(samples, g)
        message = "part types for edge ('root', 'a') must lie in 1..2, got (1, 1.5)"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            fit_syntactic([{"root": 1, "a": 1.5}], g)

    @pytest.mark.parametrize("bad", ["a", [1], 1.5, 2.0, True], ids=["str", "list", "fraction", "float", "bool"])
    def test_fit_and_score_hold_one_part_type_rule(self, bad):
        """``fit_syntactic`` refuses what ``Proposal``, ``PartState`` (so
        every parse ``recompute_score`` scores) and the file readers refuse:
        a part type is an integer in 1..t, never a float or a bool, in
        either position."""
        g = _toy_grammar()
        for pair in ((bad, 1), (1, bad)):
            message = f"part types for edge ('root', 'a') must lie in 1..2, got ({pair[0]}, {pair[1]})"
            with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
                fit_syntactic([{"root": pair[0], "a": pair[1]}], g)
        with pytest.raises(ValidationError, match="^part_type must be an integer >= 1, got "):
            PartState("a", 0.0, 0.0, bad, "p")


class TestDisplacementSamples:
    def test_offsets_are_child_minus_parent(self, grammar):
        samples = displacement_samples([_annotation()], grammar)
        assert set(samples) == set(grammar.dg_edges)
        np.testing.assert_allclose(samples[("torso", "head")], [(0.0, -30.0)], atol=1e-12)
        np.testing.assert_allclose(samples[("l_hip", "l_upper_leg")], [(0.0, 15.0)], atol=1e-12)

    def test_invisible_joint_excluded(self, grammar):
        anns = [_annotation(), _annotation(hidden=("head",))]
        samples = displacement_samples(anns, grammar)
        assert samples[("torso", "head")].shape == (1, 2)
        assert samples[("torso", "l_shoulder")].shape == (2, 2)


    def test_offsets_match_the_per_annotation_loop(self, grammar, corpus_101):
        samples = displacement_samples(corpus_101[0], grammar)
        expected = _loop_displacements(corpus_101[0], grammar)
        assert list(samples) == list(expected)
        for edge, offsets in expected.items():
            assert np.array_equal(samples[edge], offsets), edge

    def test_an_edge_never_seen_has_no_rows(self, grammar):
        samples = displacement_samples([_annotation(hidden=("head",))], grammar)
        assert samples[("torso", "head")].shape == (0, 2)


def _reference_em(X, k, rng, max_iter):
    """EM one component at a time through ``numpy.linalg``: the loop the
    batched closed-form fit replaced, kept as its reference."""

    def floor(cov):
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        return (vecs * np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T

    def log_terms(means, weights, covs):
        terms = np.full((X.shape[0], k), -np.inf)
        for i in np.flatnonzero(weights > 0.0):
            diff = X - means[i]
            quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(covs[i]), diff)
            logdet = np.linalg.slogdet(covs[i])[1]
            terms[:, i] = math.log(weights[i]) - math.log(2.0 * math.pi) - 0.5 * (logdet + quad)
        return terms

    n = X.shape[0]
    means = _kmeans_plusplus(X, k, rng)
    labels = np.argmin(np.sum((X[:, None, :] - means[None, :, :]) ** 2, axis=2), axis=1)
    weights, covs = np.empty(k), np.empty((k, 2, 2))
    for i in range(k):
        members = X[labels == i]
        covs[i] = floor(np.cov(members.T) if members.shape[0] >= 2 else np.cov(X.T))
        weights[i] = max(members.shape[0], 1) / n
    weights /= weights.sum()
    trace = []
    for _ in range(max_iter + 1):
        terms = log_terms(means, weights, covs)
        log_mix = logsumexp(terms, axis=1)
        trace.append(float(np.mean(log_mix)))
        if len(trace) > max_iter or (len(trace) > 1 and trace[-1] - trace[-2] < EM_TOL):
            break
        resp = np.exp(terms - log_mix[:, None])
        for i in range(k):
            nk = resp[:, i].sum()
            if nk < 1e-12:
                weights[i] = 0.0
                continue
            weights[i] = nk / n
            means[i] = resp[:, i] @ X / nk
            diff = X - means[i]
            covs[i] = floor((resp[:, i] * diff.T) @ diff / nk)
        weights /= weights.sum()
    return weights, means, covs, trace


# Per-edge held-out mean log-density of the gate corpus's models, as the
# per-edge EM fitted them.
_HELD_OUT_MEAN_LOG_DENSITY = {
    "torso->head": -7.174474186367517,
    "torso->l_shoulder": -7.121037516584069,
    "l_shoulder->l_upper_arm": -7.213580834850746,
    "l_upper_arm->l_lower_arm": -7.119542334935997,
    "torso->r_shoulder": -7.29084835704511,
    "r_shoulder->r_upper_arm": -7.5488827351069085,
    "r_upper_arm->r_lower_arm": -7.238691175114779,
    "torso->l_hip": -7.249289401466192,
    "l_hip->l_upper_leg": -7.240131966397401,
    "l_upper_leg->l_lower_leg": -7.447527203973996,
    "torso->r_hip": -7.431210434965776,
    "r_hip->r_upper_leg": -7.27235743342525,
    "r_upper_leg->r_lower_leg": -7.152636867559272,
}


class TestFitKinematic:
    def test_no_edges_fit_an_empty_model(self):
        model = fit_kinematic({})
        assert model.mixtures == {} and model.fit_traces == {}

    @pytest.mark.parametrize("case", ["three-clusters", "empty-component"])
    def test_batched_fit_matches_the_per_component_reference(self, case):
        """Same iteration count, and parameters within 1e-9 of each
        matrix's or vector's scale.  In the second case two far sites and
        a duplicated seed leave one component with responsibilities below
        1e-12: it keeps its parameters at weight 0."""
        rng = np.random.default_rng(21)
        if case == "three-clusters":
            centres = np.array([[0.0, -30.0], [25.0, 10.0], [-20.0, 15.0]])
            X = np.vstack([rng.normal(c, s, size=(70, 2)) for c, s in zip(centres, (2.0, 5.0, 0.5))])
            k = 4
        else:
            X = np.array([[0.0, 0.0]] * 3 + [[1e6, 0.0]] * 2)
            k = 3
        edge = ("a", "b")
        model = fit_kinematic({edge: X}, n_components=k, seed=4)
        mix, trace = model.mixtures[edge], model.fit_traces[edge]
        weights, means, covs, expected = _reference_em(X, k, np.random.default_rng([4, 0]), 200)
        assert len(trace) == len(expected)
        np.testing.assert_allclose(trace, expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(mix.weights, weights, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mix.means, means, rtol=0, atol=1e-9 * np.abs(X).max())
        np.testing.assert_allclose(mix.covariances, covs, rtol=1e-9, atol=1e-9 * np.abs(covs).max())
        assert (0.0 in mix.weights) == (case == "empty-component")

    def test_stacked_fit_matches_the_reference_per_edge(self, caplog):
        """Five edges fitted in one call, each against the reference run
        alone with its own seed: same iteration count, the same
        tolerances as above.  ``b->c`` has fewer samples than components,
        ``a->b`` converges while ``d->e`` and ``e->f`` run to ``max_iter``,
        and ``c->d`` is the empty-component case."""
        rng = np.random.default_rng(21)
        centres = np.array([[0.0, -30.0], [25.0, 10.0], [-20.0, 15.0]])
        data = {
            ("a", "b"): np.vstack([rng.normal(c, s, size=(70, 2)) for c, s in zip(centres, (2.0, 5.0, 0.5))]),
            ("b", "c"): rng.normal(0.0, 1.0, size=(3, 2)),
            ("c", "d"): np.array([[0.0, 0.0]] * 3 + [[1e6, 0.0]] * 2),
            ("d", "e"): rng.normal((4.0, -2.0), 0.5, size=(80, 2)),
            ("e", "f"): rng.normal(0.0, 3.0, size=(200, 2)),
        }
        with caplog.at_level(logging.INFO, logger="posegrammar.learning"):
            with pytest.warns(UserWarning, match="edge \\('b', 'c'\\): only 3 samples for 4 components"):
                model = fit_kinematic(data, n_components=4, seed=4, max_iter=40)
        lengths = {}
        for index, (edge, X) in enumerate(data.items()):
            k = min(len(X), 4)
            mix, trace = model.mixtures[edge], model.fit_traces[edge]
            weights, means, covs, expected = _reference_em(X, k, np.random.default_rng([4, index]), 40)
            assert len(trace) == len(expected), edge
            np.testing.assert_allclose(trace, expected, rtol=0, atol=1e-9)
            np.testing.assert_allclose(mix.weights, weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mix.means, means, rtol=0, atol=1e-9 * np.abs(X).max())
            np.testing.assert_allclose(mix.covariances, covs, rtol=1e-9, atol=1e-9 * np.abs(covs).max())
            lengths[edge] = len(trace)
        assert model.mixtures[("b", "c")].weights.shape == (3,)
        assert 0.0 in model.mixtures[("c", "d")].weights
        capped = {e for e, n in lengths.items() if n > 40}
        assert capped == {("d", "e"), ("e", "f")} and lengths[("a", "b")] < 40
        assert {r.args[:2] for r in caplog.records} == capped

    @staticmethod
    def _longest_first():
        """Three edges: the longest converges first and the middle one
        next, while the shortest runs to ``max_iter=30``."""
        rng = np.random.default_rng(8)
        return {
            ("a", "b"): np.vstack([rng.normal((10.0, 0.0), 0.1, (150, 2)), rng.normal((-10.0, 5.0), 0.1, (150, 2))]),
            ("b", "c"): rng.normal(0.0, 3.0, size=(150, 2)),
            ("c", "d"): rng.normal((4.0, -2.0), 0.5, size=(60, 2)),
        }

    def test_the_longest_edge_stopping_first_leaves_the_rest_running(self):
        """The longest edge stops first and the middle one next, so the
        working arrays lose an edge twice, while the shortest, padded until
        the last, runs to ``max_iter``: each edge still matches the
        reference run alone, at the tolerances above."""
        data = self._longest_first()
        model = fit_kinematic(data, n_components=2, seed=2, max_iter=30)
        lengths = {}
        for index, (edge, X) in enumerate(data.items()):
            mix, trace = model.mixtures[edge], model.fit_traces[edge]
            weights, means, covs, expected = _reference_em(X, 2, np.random.default_rng([2, index]), 30)
            assert len(trace) == len(expected), edge
            np.testing.assert_allclose(trace, expected, rtol=0, atol=1e-9)
            np.testing.assert_allclose(mix.weights, weights, rtol=0, atol=1e-12)
            np.testing.assert_allclose(mix.means, means, rtol=0, atol=1e-9 * np.abs(X).max())
            np.testing.assert_allclose(mix.covariances, covs, rtol=1e-9, atol=1e-9 * np.abs(covs).max())
            lengths[edge] = len(trace)
        assert lengths[("a", "b")] < lengths[("b", "c")] < lengths[("c", "d")] == 31

    @staticmethod
    def _on_cpus(monkeypatch, cpus: int) -> list:
        """From now on, fit on ``cpus`` usable CPUs, each group on a thread
        of its own whatever its size: a list that records the likelihood
        fall, or ``None``, each group's :func:`_em_fit` returns."""
        monkeypatch.setattr(parallel, "_WORKERS", cpus)
        monkeypatch.setattr(learning, "_THREAD_CELLS", 1)
        falls = []
        em_fit = learning._em_fit

        def spied(*args):
            fit, fall = em_fit(*args)
            falls.append(fall)
            return fit, fall

        monkeypatch.setattr(learning, "_em_fit", spied)
        return falls

    @pytest.mark.parametrize("corpus", ["quick", "longest-first", "mixed-1", "mixed-3"])
    def test_grouping_never_changes_a_fit(self, grammar, monkeypatch, corpus):
        """On 1, 2, 3 and E usable CPUs the edges run as that many
        contiguous groups, on as many threads; with E each edge is fitted
        alone in its group.  Every mixture and every trace is bit-identical
        to the one-group fit's: every group pads its samples to the fit's
        longest edge, and each mean log-likelihood is summed in sample
        order.  The corpora: the quick models' 13 edges of 10 components,
        the three edges whose longest stops first, and four edges of 11 to
        200 samples with 1 or 3 components, on which groups padded only to
        their own longest edge would round differently."""
        if corpus == "quick":
            data = displacement_samples(make_training_pairs(80, seed=11, grammar=grammar)[0], grammar)
            kwargs = {"n_components": 10, "seed": 5}
        elif corpus == "longest-first":
            data, kwargs = self._longest_first(), {"n_components": 2, "seed": 2, "max_iter": 30}
        else:
            rng = np.random.default_rng(4)
            data = {
                ("a", "b"): rng.normal((3.0, 1.0), 2.0, (200, 2)),
                ("b", "c"): rng.normal(0.0, 1.5, (11, 2)),
                ("c", "d"): rng.normal((-2.0, 4.0), 1.0, (37, 2)),
                ("d", "e"): rng.normal(0.0, 3.0, (90, 2)),
            }
            kwargs = {"n_components": int(corpus[-1]), "seed": 3}
        fits = {}
        for cpus in sorted({1, 2, 3, len(data)}):
            falls = self._on_cpus(monkeypatch, cpus)
            model = fit_kinematic(data, **kwargs)
            assert falls == [None] * cpus  # one group per CPU, none fell
            fits[cpus] = {
                edge: (mix.weights.tobytes(), mix.means.tobytes(), mix.covariances.tobytes(), model.fit_traces[edge])
                for edge, mix in model.mixtures.items()
            }
        assert all(fit == fits[1] for fit in fits.values())

    def test_the_earliest_likelihood_fall_is_refused_on_any_number_of_cpus(self, grammar, monkeypatch):
        """Two far-apart edges, ``a->b`` first, fall at EM iterations 7 and
        2.  From two CPUs on they run in different groups, each of which
        stops at its own fall; the refusal, as on one CPU, names the edge
        that fell at the earliest iteration, ``c->d``, with its numbers."""
        corpus = displacement_samples(make_training_pairs(60, seed=3, grammar=grammar)[0], grammar)
        filler = np.random.default_rng(0).normal(0.0, 5.0, size=(40, 2))
        data = {
            ("a", "b"): corpus[("r_hip", "r_upper_leg")] * 1e18,
            ("b", "c"): filler,
            ("c", "d"): corpus[("l_hip", "l_upper_leg")] * 1e18,
            ("d", "e"): filler,
        }
        message = (
            "edge ('c', 'd'): displacement samples are beyond the range the fit can represent "
            "(EM mean log-likelihood decreased from -88.52032643455907 to -88.54908089207339)"
        )
        for cpus in (1, 2, 3, 4):
            falls = self._on_cpus(monkeypatch, cpus)
            with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
                fit_kinematic(data, n_components=4, seed=2)
            steps = sorted(fall[0] for fall in falls if fall)
            assert steps == ([2] if cpus == 1 else [2, 7])

    def test_recovers_cluster_means(self):
        rng = np.random.default_rng(0)
        a = rng.normal((10.0, 0.0), 0.1, size=(60, 2))
        b = rng.normal((-10.0, 5.0), 0.1, size=(60, 2))
        X = np.vstack([a, b])
        model = fit_kinematic({("a", "b"): X}, n_components=2, seed=3)
        mix = model.mixtures[("a", "b")]
        means = mix.means[np.argsort(mix.means[:, 0])]
        np.testing.assert_allclose(means[0], (-10.0, 5.0), atol=0.1)
        np.testing.assert_allclose(means[1], (10.0, 0.0), atol=0.1)
        np.testing.assert_allclose(sorted(mix.weights), (0.5, 0.5), atol=0.05)

    def test_trace_never_decreases(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0.0, 3.0, size=(200, 2))
        model = fit_kinematic({("a", "b"): X}, n_components=4, seed=1)
        trace = model.fit_traces[("a", "b")]
        assert len(trace) >= 2
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9)

    def test_density_peaks_near_the_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal((4.0, -2.0), 0.5, size=(80, 2))
        model = fit_kinematic({("a", "b"): X}, n_components=3, seed=0)
        near, far = model.log_density(("a", "b"), np.array([[4.0, -2.0], [40.0, 40.0]]))
        assert near > far + 10.0

    def test_too_few_samples(self):
        with pytest.raises(DegenerateDataError, match="at least 2"):
            fit_kinematic({("a", "b"): np.zeros((1, 2))})

    def test_component_count_reduced_with_warning(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0.0, 1.0, size=(3, 2))
        with pytest.warns(UserWarning, match="only 3 samples"):
            model = fit_kinematic({("a", "b"): X}, n_components=10, seed=0)
        assert model.mixtures[("a", "b")].weights.shape[0] == 3

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError, match=r"\(n, 2\)"):
            fit_kinematic({("a", "b"): np.zeros((4, 3))})
        bad = np.zeros((4, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            fit_kinematic({("a", "b"): bad})

    def test_logs_exactly_the_edges_stopped_at_max_iter(self, caplog):
        rng = np.random.default_rng(0)
        data = {
            ("a", "b"): np.vstack(
                [rng.normal((10.0, 0.0), 0.1, (60, 2)), rng.normal((-10.0, 5.0), 0.1, (60, 2))]
            ),
            ("b", "c"): rng.normal(0.0, 3.0, size=(200, 2)),
            ("c", "d"): rng.normal((4.0, -2.0), 0.5, size=(80, 2)),
        }
        with caplog.at_level(logging.INFO, logger="posegrammar.learning"):
            model = fit_kinematic(data, n_components=2, seed=1, max_iter=10)
        capped = {e for e, t in model.fit_traces.items() if len(t) > 10}
        assert capped == {("c", "d")}
        assert all(r.levelno == logging.INFO for r in caplog.records)
        logged = {r.args[:2] for r in caplog.records}
        assert logged == capped
        trace = model.fit_traces[("c", "d")]
        [record] = caplog.records
        assert record.getMessage() == (
            f"edge c->d: EM stopped at max_iter after 10 iterations, last gain {trace[-1] - trace[-2]:.3g}"
        )

    def test_acceptance_corpus_keeps_its_em_trajectory(self, grammar, trained_models):
        """The gate corpus, ``make_training_pairs(600, seed=11)`` fitted with
        seed 5: each edge's iteration count, and its held-out mean
        log-density on ``make_training_pairs(200, seed=999)`` within 1e-9
        of the values the per-edge fit gave before EM was stacked."""
        kinematic = trained_models.kinematic
        assert [len(t) for t in kinematic.fit_traces.values()] == [201] * 7 + [177] + [201] * 5
        held_out = displacement_samples(make_training_pairs(200, seed=999, grammar=grammar)[0], grammar)
        got = {f"{p}->{c}": float(np.mean(kinematic.log_density((p, c), X))) for (p, c), X in held_out.items()}
        assert got == pytest.approx(_HELD_OUT_MEAN_LOG_DENSITY, rel=0, abs=1e-9)

    def test_a_negative_seed_is_refused_naming_it(self):
        X = np.random.default_rng(12).normal(0.0, 2.0, size=(50, 2))
        with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got -1$"):
            fit_kinematic({("a", "b"): X}, n_components=3, seed=-1)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        X = rng.normal(0.0, 2.0, size=(50, 2))
        m1 = fit_kinematic({("a", "b"): X}, n_components=3, seed=7).mixtures[("a", "b")]
        m2 = fit_kinematic({("a", "b"): X}, n_components=3, seed=7).mixtures[("a", "b")]
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.means, m2.means)
        assert np.array_equal(m1.covariances, m2.covariances)


class TestMutualInformation:
    def test_perfect_dependence_is_ln_two(self):
        a = [True, False, True, False]
        np.testing.assert_allclose(
            mutual_information(a, a), 0.6931471805599453, atol=1e-12
        )

    def test_mixed_table_fixture(self):
        """Counts (4, 1, 1, 4) out of 10: MI = 0.8 ln 1.6 + 0.2 ln 0.4."""
        attr = [False] * 5 + [True] * 5
        part = [False] * 4 + [True] + [False] + [True] * 4
        np.testing.assert_allclose(
            mutual_information(attr, part), 0.19274475702175753, atol=1e-12
        )

    def test_independence_is_zero(self):
        assert mutual_information([True, True, False, False], [True, False, True, False]) == 0.0
        assert mutual_information([True, False], [True, True]) == 0.0

    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_symmetric(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        mi = mutual_information(a, b)
        assert mi >= -1e-12
        np.testing.assert_allclose(mi, mutual_information(b, a), atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="differ in length"):
            mutual_information([True], [True, False])

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="at least one"):
            mutual_information([], [])


    def test_learned_information_matches_the_per_sample_loop(self, grammar, corpus_101):
        """Every (atomic part, attribute) value ``learn_models`` counts from
        one product is the per-sample loop's to the bit."""
        annotations, types = corpus_101
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mi = learn_models(annotations, grammar, type_samples=types, n_components=1, seed=0).association.mi
        assert set(mi) == set(grammar.terminal_ids)
        for part in grammar.terminal_ids:
            visible = [ann.joints[part].visible for ann in annotations]
            for attr in grammar.attributes:
                known = [ann.attributes.get(attr.id) is not None for ann in annotations]
                expected = _loop_mutual_information(known, visible)
                assert float.hex(mi[part][attr.id]) == float.hex(expected), (part, attr.id)
                assert float.hex(mutual_information(known, visible)) == float.hex(expected)


class TestDeriveAssociations:
    _LEGS = ("l_upper_leg", "l_lower_leg", "r_upper_leg", "r_lower_leg")

    def _mi_map(self, grammar, hot_attr, hot_parts, hi=0.5, lo=0.1):
        mi = {}
        for part in grammar.terminal_ids:
            mi[part] = {}
            for attr in grammar.attributes:
                if attr.id == hot_attr:
                    mi[part][attr.id] = hi if part in hot_parts else lo
                else:
                    mi[part][attr.id] = 0.2
        return mi

    def test_high_mi_parts_plus_ancestors(self, grammar):
        mi = self._mi_map(grammar, "lower_cloth_type", self._LEGS)
        assoc = derive_associations(mi, grammar)
        carrying = {p for p in grammar.part_ids if "lower_cloth_type" in assoc.attrs_for(p)}
        assert carrying == set(self._LEGS) | {"lower_body", "full_body"}

    def test_all_equal_mi_associates_nothing(self, grammar):
        mi = self._mi_map(grammar, "hat", hot_parts=(), hi=0.2, lo=0.2)
        assoc = derive_associations(mi, grammar)
        for part in grammar.part_ids:
            assert "hat" not in assoc.attrs_for(part)

    def test_missing_part_rejected(self, grammar):
        mi = self._mi_map(grammar, "hat", ("head",))
        del mi["torso"]
        with pytest.raises(MissingEntryError, match="torso"):
            derive_associations(mi, grammar)

    def test_missing_attribute_rejected(self, grammar):
        mi = self._mi_map(grammar, "hat", ("head",))
        del mi["head"]["gender"]
        with pytest.raises(MissingEntryError, match="gender"):
            derive_associations(mi, grammar)

    def test_mi_provenance_preserved(self, grammar):
        mi = self._mi_map(grammar, "hat", ("head",))
        assoc = derive_associations(mi, grammar)
        assert assoc.mi["head"]["hat"] == 0.5


class TestLearnModels:
    def test_full_fit_from_type_samples(self, grammar, quick_models):
        assert set(quick_models.syntactic.tables) == set(grammar.psg_edges)
        assert set(quick_models.kinematic.mixtures) == set(grammar.dg_edges)
        parts = quick_models.association.parts
        assert set(parts) == set(grammar.part_ids)
        assert all(parts[p] <= parts[a] for p in grammar.part_ids for a in grammar.psg_ancestors(p))
        assert quick_models.part_type_count == grammar.part_type_count

    def test_a_negative_seed_is_refused_naming_it(self, grammar):
        ann = _annotation(attributes={a.id: a.domain[0] for a in grammar.attributes})
        with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0, got -1$"):
            learn_models([ann, ann], grammar, seed=-1)

    def test_empty_corpus(self, grammar):
        with pytest.raises(DegenerateDataError, match="at least one"):
            learn_models([], grammar)

    def test_misaligned_type_samples(self, grammar):
        ann = _annotation(attributes={a.id: a.domain[0] for a in grammar.attributes})
        with pytest.raises(ValidationError, match="one-to-one"):
            learn_models([ann, ann], grammar, type_samples=[{}])

    def test_types_recovered_from_proposal_groups(self, grammar):
        """Proposals sitting on their own parts' boxes feed the tables."""
        attrs = {a.id: a.domain[0] for a in grammar.attributes}
        anns = [_annotation(attributes=attrs) for _ in range(2)]
        # One proposal on the head's box, one on the upper body's; both
        # carry part type 2, so the decomposition edge between them is
        # observed at cell (2, 2) once per annotation.
        groups = [
            [_prop(f"g{j}", part, part_box(part, _JOINTS), part_type=2) for j, part in enumerate(("head", "upper_body"))]
            for _ in anns
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            types = list(map(proposal_part_types, anns, groups))
            models = learn_models(anns, grammar, type_samples=types, n_components=2)
        np.testing.assert_allclose(
            _log(models.syntactic, ("upper_body", "head"), 2, 2), math.log(3.0 / 83.0), atol=1e-12
        )
        np.testing.assert_allclose(
            _log(models.syntactic, ("upper_body", "head"), 1, 1), math.log(1.0 / 83.0), atol=1e-12
        )

    @pytest.mark.parametrize("scale", [3.0, 300.0])
    def test_a_spread_out_corpus_within_range_fits(self, grammar, far_apart, scale):
        annotations, types = far_apart(scale)
        models = learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)
        assert set(models.kinematic.mixtures) == set(grammar.dg_edges)

    def test_a_corpus_beyond_the_fit_range_is_refused_naming_the_edge(self, grammar, beyond_range):
        """Each way the fit fails on far-apart samples ends in one named
        refusal: no bare ``RuntimeError`` and no numpy ``ValueError``."""
        annotations, types, edge = beyond_range
        message = f"edge {edge}: displacement samples are beyond the range the fit can represent ("
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            learn_models(annotations, grammar, type_samples=types, n_components=3, seed=1)

    def test_deterministic_fit(self, grammar):
        from posegrammar.evaluation import make_training_pairs

        anns, types = make_training_pairs(40, seed=11, grammar=grammar)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m1 = learn_models(anns, grammar, type_samples=types, n_components=3, seed=5)
            m2 = learn_models(anns, grammar, type_samples=types, n_components=3, seed=5)
        assert m1.to_json_dict() == m2.to_json_dict()
