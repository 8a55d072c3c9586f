"""Beam search tests: oracle agreement, monotonicity, objectives, ties.

The exhaustive enumerator shares the beam's per-step arithmetic and tie
rule, so wherever the beam covers the whole proposal lattice the two must
agree exactly, not approximately.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegrammar import inference
from posegrammar.appearance import Proposal, ProposalSet, ScoreTable, save_proposals, synth_scores
from posegrammar.cli import cli_dispatch
from posegrammar.errors import (
    EnumerationLimitError,
    InfeasibleParseError,
    MissingEntryError,
    ValidationError,
)
from posegrammar.grammar import (
    AOGrammar,
    AttributeDef,
    GrammarNode,
    NodeKind,
    ParseGraph,
    PartState,
    recompute_score,
    save_grammar,
)
from posegrammar.inference import (
    _TABLES,
    BeamConfig,
    _extend,
    _prepare,
    _readout,
    _search,
    _Step,
    _Table,
    attribute_scores,
    brute_force_parse,
    default_expansion_order,
    parse_constrained,
    parse_unconstrained,
    select_final,
)
from posegrammar.relations import (
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    save_models,
    uniform_syntactic_table,
)
from posegrammar.synthetic import two_person_scene

_PROPERTY_ATTRIBUTE = (AttributeDef("c", "c", ("u", "v")),)


def _toy_grammar(part_type_count=2):
    nodes = (
        GrammarNode("root", NodeKind.AND, "root", ("a", "b")),
        GrammarNode("a", NodeKind.TERMINAL, "a"),
        GrammarNode("b", NodeKind.TERMINAL, "b"),
    )
    return AOGrammar(
        root="root",
        nodes=nodes,
        psg_edges=(("root", "a"), ("root", "b")),
        dg_edges=(("a", "b"),),
        attributes=(AttributeDef("c", "c", ("u", "v")),),
        part_type_count=part_type_count,
    )


def _toy_world(seed, counts=(3, 3, 3), part_type_count=2):
    """Seeded random grammar instance: tables, mixtures, proposals, scores."""
    rng = np.random.default_rng(seed)
    g = _toy_grammar(part_type_count)
    t = part_type_count
    syn_tables = {}
    for e in g.psg_edges:
        m = rng.uniform(0.2, 1.0, size=(t, t))
        syn_tables[e] = m / m.sum()
    syn = SyntacticTable(syn_tables, part_type_count=t)
    mixes = {}
    for e in g.dg_edges:
        w = rng.dirichlet(np.ones(2))
        means = rng.normal(0.0, 10.0, size=(2, 2))
        covs = np.stack([np.eye(2) * rng.uniform(2.0, 6.0) for _ in range(2)])
        mixes[e] = Mixture(weights=w, means=means, covariances=covs)
    kin = KinematicMoG(mixes)
    assoc = AttributeAssociation({p: ("c",) for p in g.part_ids}, ("c",))
    models = RelationModels(syntactic=syn, kinematic=kin, association=assoc)
    scores = {}
    proposals = []
    for part, n in zip(("root", "a", "b"), counts):
        for i in range(n):
            pid = f"{part}{i}"
            proposals.append(
                Proposal(
                    id=pid,
                    part=part,
                    x=float(rng.uniform(0.0, 40.0)),
                    y=float(rng.uniform(0.0, 40.0)),
                    part_type=int(rng.integers(1, t + 1)),
                    box=(0.0, 0.0, 5.0, 5.0),
                )
            )
            scores[pid] = {"c": {v: float(rng.normal(0.0, 1.5)) for v in ("u", "v")}}
    pset = ProposalSet.from_proposals(proposals, ScoreTable(scores), part_type_count=t)
    return g, models, pset


def _listed(pset):
    """Every proposal of ``pset``, bucket by bucket in listing order."""
    return [p for part in pset.buckets for p in pset.proposals_for(part)]


def _rescored(pset, change):
    """``pset`` rebuilt on a copy of its scores that ``change`` edits per
    proposal id; the score table itself is immutable."""
    scores = {}
    for p in _listed(pset):
        scores[p.id] = pset.scores.per_proposal(p.id)
        change(p.id, scores[p.id])
    return ProposalSet.from_proposals(
        _listed(pset), ScoreTable(scores), part_type_count=pset.part_type_count
    )


def _lattice_size(pset, parts=("root", "a", "b")):
    n = 1
    for p in parts:
        n *= len(pset.proposals_for(p))
    return n


class TestExpansionOrder:
    def test_default_grammar_order(self, grammar):
        order = default_expansion_order(grammar)
        assert order[0] == "full_body"
        assert len(order) == 17
        assert sorted(order) == sorted(grammar.part_ids)
        position = {p: i for i, p in enumerate(order)}
        for part in order:
            for parent in (grammar.psg_parent(part), grammar.dg_parent(part)):
                if parent is not None:
                    assert position[parent] < position[part]
        # The torso grounds before any limb joint it anchors.
        assert position["torso"] < position["head"]
        assert position["torso"] < position["l_shoulder"]

    def test_a_part_waits_for_all_of_its_parents(self):
        """``c`` is listed between its two dependency parents; it is placed
        after both, so both of its edges close at its own step."""
        g, _models, _pset = _two_parent_world(0)
        assert default_expansion_order(g) == ("root", "a", "b", "c")

    def test_parts_that_never_become_placeable(self):
        g = _toy_grammar()
        cyclic = AOGrammar(g.root, g.nodes, g.psg_edges, (("a", "b"), ("b", "a")), g.attributes, 2)
        message = "cannot derive an expansion order: parts ['a', 'b'] never become placeable"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            default_expansion_order(cyclic)

    def test_beam_width_bound(self):
        with pytest.raises(ValidationError, match="^beam_width must be an integer >= 1, got 0$"):
            BeamConfig(beam_width=0)
        for width, shown in ((2.5, "2.5"), (float("nan"), "nan"), (True, "True"), ("3", "'3'")):
            with pytest.raises(ValidationError, match="^" + re.escape(f"beam_width must be an integer >= 1, got {shown}") + "$"):
                BeamConfig(beam_width=width)
        cfg = BeamConfig(beam_width=np.int64(3))
        assert cfg.beam_width == 3 and type(cfg.beam_width) is int


class TestBeamMatchesBruteForce:
    """A beam covering the whole lattice must equal the enumerator exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_constrained_exact(self, seed):
        g, models, pset = _toy_world(seed, counts=(3, 4, 3))
        full = _lattice_size(pset)
        oracle = brute_force_parse(g, models, pset, {"c": "u"})
        beam = parse_constrained(g, models, pset, "c", "u", BeamConfig(beam_width=full))
        assert beam.total_score == oracle.total_score
        assert beam.states == oracle.states
        assert beam.attribute_assignment == oracle.attribute_assignment

    @pytest.mark.parametrize("seed", range(8))
    def test_unconstrained_exact(self, seed):
        g, models, pset = _toy_world(seed + 100, counts=(4, 3, 4))
        full = _lattice_size(pset)
        oracle = brute_force_parse(g, models, pset, {})
        beam = parse_unconstrained(g, models, pset, BeamConfig(beam_width=full))
        assert beam.total_score == oracle.total_score
        assert beam.states == oracle.states
        assert beam.attribute_assignment == {}

    def test_parse_grounds_every_grammar_part(self):
        g, models, pset = _toy_world(1)
        pg = parse_constrained(g, models, pset, "c", "u")
        assert set(pg.states) == set(g.part_ids)


    @pytest.mark.parametrize("seed", range(6))
    def test_two_dependency_parents_exact(self, seed):
        """A part with two dependency parents: the full-width beam equals the
        oracle (same ids, bit-identical total) under both objective forms,
        and the total agrees with an independent recomputation."""
        g, models, pset = _two_parent_world(seed)
        full = _lattice_size(pset, ("root", "a", "b", "c"))
        for assignment in ({"c": "u"}, {}):
            [beam] = _search(g, models, pset, [assignment], BeamConfig(beam_width=full))
            oracle = brute_force_parse(g, models, pset, assignment)
            assert _ids(beam) == _ids(oracle)
            assert float.hex(beam.total_score) == float.hex(oracle.total_score)
            assert beam.attribute_assignment == oracle.attribute_assignment == assignment
            np.testing.assert_allclose(
                recompute_score(beam, g, models, pset.scores), beam.total_score, rtol=0, atol=1e-9
            )


class TestBeamWidthMonotonicity:
    @pytest.mark.parametrize("seed", range(6))
    def test_score_never_drops_as_width_grows(self, seed):
        g, models, pset = _toy_world(seed + 300, counts=(4, 4, 4))
        full = _lattice_size(pset)
        widths = [1, 2, 4, 8, 16, full]
        scores = [
            parse_constrained(g, models, pset, "c", "v", BeamConfig(beam_width=k)).total_score
            for k in widths
        ]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo
        oracle = brute_force_parse(g, models, pset, {"c": "v"})
        assert scores[-1] == oracle.total_score


class TestObjectives:
    def test_constrained_score_matches_recompute(self):
        g, models, pset = _toy_world(7)
        pg = parse_constrained(g, models, pset, "c", "u")
        np.testing.assert_allclose(
            recompute_score(pg, g, models, pset.scores), pg.total_score, rtol=0, atol=1e-9
        )

    def test_unconstrained_score_matches_recompute(self):
        g, models, pset = _toy_world(8)
        pg = parse_unconstrained(g, models, pset)
        np.testing.assert_allclose(
            recompute_score(pg, g, models, pset.scores), pg.total_score, rtol=0, atol=1e-9
        )

    def test_constraint_changes_the_winner(self):
        """Each value pulls the parse toward proposals scoring high on it."""
        g, models, pset = _toy_world(3)

        def rig(pid, per_attr):
            if pid.startswith("a"):
                i = int(pid[1:])
                per_attr["c"] = {"u": 100.0 if i == 0 else -100.0, "v": 100.0 if i == 2 else -100.0}

        pset = _rescored(pset, rig)
        pg_u = parse_constrained(g, models, pset, "c", "u")
        pg_v = parse_constrained(g, models, pset, "c", "v")
        assert pg_u.states["a"].proposal_ref == "a0"
        assert pg_v.states["a"].proposal_ref == "a2"

    def test_unknown_attribute(self):
        g, models, pset = _toy_world(0)
        with pytest.raises(MissingEntryError, match="unknown attribute"):
            parse_constrained(g, models, pset, "mood", "happy")

    def test_value_outside_domain(self):
        g, models, pset = _toy_world(0)
        with pytest.raises(ValidationError, match="not in domain"):
            parse_constrained(g, models, pset, "c", "w")

    def test_empty_bucket_is_infeasible(self):
        g, models, pset = _toy_world(0)
        empty = ProposalSet.from_proposals(
            pset.proposals_for("root") + pset.proposals_for("a"), pset.scores, part_type_count=2
        )
        with pytest.raises(InfeasibleParseError, match="part 'b' has no proposals"):
            parse_constrained(g, models, empty, "c", "u")


class TestTieBreaking:
    def test_exact_tie_falls_to_lexicographic_ids(self):
        """Identical scores resolve by the tuple of proposal ids."""
        g, models, pset = _toy_world(5)
        # Make the two root proposals indistinguishable by score.
        clones = [
            Proposal(id=f"rt{i}", part="root", x=1.0, y=2.0, part_type=1, box=(0, 0, 5, 5))
            for i in range(2)
        ]
        kept = pset.proposals_for("a") + pset.proposals_for("b")
        scores = {p.id: pset.scores.per_proposal(p.id) for p in kept}
        scores.update({p.id: {"c": {"u": 0.5, "v": 0.5}} for p in clones})
        pset2 = ProposalSet.from_proposals([*clones, *kept], ScoreTable(scores), part_type_count=2)
        pg = parse_constrained(g, models, pset2, "c", "u")
        assert pg.states["root"].proposal_ref == "rt0"
        oracle = brute_force_parse(g, models, pset2, {"c": "u"})
        assert oracle.states["root"].proposal_ref == "rt0"


    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_tie_across_prefixes_goes_to_the_smaller_prefix(self, width):
        """Two complete parses tie exactly, the one through the smaller
        prefix ending in the larger child id: the id tuple, not the child
        id alone, decides."""
        g = _toy_grammar()
        models = RelationModels(
            syntactic=uniform_syntactic_table(g.psg_edges, part_type_count=2),
            kinematic=KinematicMoG(
                {("a", "b"): Mixture(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None])}
            ),
            association=AttributeAssociation({p: ("c",) for p in g.part_ids}, ("c",)),
        )
        scores = {}
        rows = [("r", "root", 0.0, 0.0), ("a0", "a", 0.0, 0.5), ("a1", "a", 20.0, 0.0),
                ("bz", "b", 0.0, 0.0), ("ba", "b", 20.0, 0.5)]
        props = []
        for pid, part, x, app in rows:
            props.append(Proposal(id=pid, part=part, x=x, y=0.0, part_type=1, box=(0, 0, 5, 5)))
            scores[pid] = {"c": {"u": app, "v": app}}
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=2)
        beam = parse_constrained(g, models, pset, "c", "u", BeamConfig(beam_width=width))
        oracle = brute_force_parse(g, models, pset, {"c": "u"})
        assert _ids(beam) == _ids(oracle) == {"root": "r", "a": "a0", "b": "bz"}
        assert beam.total_score == oracle.total_score


class TestEnumerationGuard:
    def test_brute_force_refuses_large_lattices(self):
        scores = {}
        proposals = []
        for part in ("root", "a", "b"):
            for i in range(500):
                pid = f"{part}{i}"
                proposals.append(
                    Proposal(id=pid, part=part, x=0.0, y=0.0, part_type=1, box=(0, 0, 5, 5))
                )
                scores[pid] = {"c": {"u": 0.0, "v": 0.0}}
        pset = ProposalSet.from_proposals(proposals, ScoreTable(scores), part_type_count=2)
        g, models, _ = _toy_world(0)
        with pytest.raises(EnumerationLimitError, match="exceed the guard"):
            brute_force_parse(g, models, pset, {"c": "u"})


def _partial_total(g, models, pset, assigned, attr=None, value=None):
    """Independent score of a partial assignment, summed per edge."""
    total = 0.0
    for part, st in assigned.items():
        if attr is not None:
            total += pset.scores.lookup(st.proposal_ref, attr, value)
        else:
            for a in g.attributes:
                total += max(pset.scores.lookup(st.proposal_ref, a.id, v) for v in a.domain)
    for p, c in g.psg_edges:
        if p in assigned and c in assigned:
            total += models.syntactic.score((p, c), assigned[p].part_type, assigned[c].part_type)
    for p, c in g.dg_edges:
        if p in assigned and c in assigned:
            total += models.kinematic.score(
                (p, c), assigned[c].x - assigned[p].x, assigned[c].y - assigned[p].y
            )
    return total


class TestBeamTrace:
    def test_partial_scores_audit(self):
        """Every prefix of a 3x3x3 lattice, extended step by step through the
        search's own sum, scores what an independent per-edge recomputation
        gives, under a constrained and the unconstrained objective."""
        g, models, pset = _toy_world(11, counts=(3, 3, 3))
        objectives = ({"c": "u"}, {})
        constraints = (("c", "u"), (None, None))
        steps = _prepare(g, models, pset, objectives)
        score, idxs = steps[0].app, np.arange(steps[0].app.shape[1])[:, None]
        audited = 0
        for si, step in enumerate(steps):
            if si:
                # Both objectives extend the same prefixes, stacked.
                total = _extend(step, score, np.stack([idxs] * len(objectives)))
                k, b, n = total.shape
                score = total.reshape(k, -1)
                idxs = np.column_stack((np.repeat(idxs, n, axis=0), np.tile(np.arange(n), b)))
            for row_scores, (attr, value) in zip(score.tolist(), constraints):
                for partial, row in zip(row_scores, idxs.tolist()):
                    props = [pset.proposals_for(steps[k].bucket.part)[j] for k, j in enumerate(row)]
                    assigned = {p.part: PartState(p.part, p.x, p.y, p.part_type, p.id) for p in props}
                    expected = _partial_total(g, models, pset, assigned, attr, value)
                    np.testing.assert_allclose(partial, expected, rtol=0, atol=1e-9)
                    audited += 1
        assert audited == 2 * (3 + 9 + 27)


class TestSelectFinal:
    def test_rigged_pair_wins(self):
        g, models, pset = _toy_world(13)
        pset = _rescored(pset, lambda pid, per_attr: per_attr["c"].update(v=25.0))
        best, per_pair = select_final(g, models, pset)
        assert set(per_pair) == {("c", "u"), ("c", "v")}
        assert best.attribute_assignment == {"c": "v"}
        assert best.total_score == per_pair[("c", "v")].total_score

    def test_exact_tie_keeps_first_pair(self):
        g, models, pset = _toy_world(13)
        pset = _rescored(pset, lambda pid, per_attr: per_attr["c"].update(v=per_attr["c"]["u"]))
        best, per_pair = select_final(g, models, pset)
        assert per_pair[("c", "u")].total_score == per_pair[("c", "v")].total_score
        assert best.attribute_assignment == {"c": "u"}

    def test_runs_one_search_over_every_pair(self, monkeypatch):
        g, models, pset = _toy_world(13)
        calls = []

        def counted(*args):
            calls.append(args[3])
            return _search(*args)

        monkeypatch.setattr(inference, "_search", counted)
        _best, per_pair = select_final(g, models, pset)
        assert calls == [[{"c": "u"}, {"c": "v"}]]
        assert list(per_pair) == [("c", "u"), ("c", "v")]

    def test_grammar_without_attributes_rejected(self):
        g, models, pset = _toy_world(13)
        bare = AOGrammar(g.root, g.nodes, g.psg_edges, g.dg_edges, attributes=(), part_type_count=2)
        with pytest.raises(ValidationError, match="at least one"):
            select_final(bare, models, pset)

    def test_two_person_scene_exact_argmax_stays_on_target(self, grammar, quick_models):
        """With the distractor's attribute evidence incoherent, the exact
        constrained argmax under the target's true value picks the
        target's proposal at all 17 parts."""
        scene = two_person_scene(seed=21)
        truth = scene.persons[0].attributes
        pset = synth_scores(scene, noise_sigma=0.0, rng_seed=4)
        pg = brute_force_parse(
            grammar, quick_models, pset, {"gender": truth["gender"]}
        )
        for st in pg.states.values():
            assert st.proposal_ref.startswith("p0.")


class TestAttributeScores:
    def test_masked_sums(self):
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
        assoc = AttributeAssociation(
            parts={"head": ("hat",), "torso": ()}, attr_ids=("hat",)
        )
        states = {
            "head": PartState("head", 0.0, 0.0, 1, "ph"),
            "torso": PartState("torso", 0.0, 0.0, 1, "pt"),
        }
        per_pair = {
            ("hat", "yes"): ParseGraph(states, {"hat": "yes"}, 0.0),
            ("hat", "no"): ParseGraph(states, {"hat": "no"}, 0.0),
        }
        scores = attribute_scores(per_pair, pset, assoc)
        # Only the head is associated with hat; torso's 5.0 is masked out.
        np.testing.assert_allclose(scores["hat"]["yes"], 2.0, atol=1e-12)
        np.testing.assert_allclose(scores["hat"]["no"], -1.0, atol=1e-12)


class TestReadout:
    """The masked sum behind every attribute readout, summed over a parse's
    own assignment."""

    @staticmethod
    def _assigned_total(pg, pset, assoc):
        return sum(_readout(pg, pset, assoc, a, v) for a, v in pg.attribute_assignment.items())

    def test_assigned_attributes_masked_by_association(self):
        table = ScoreTable(
            {
                "ph": {"hat": {"yes": 1.25}, "gender": {"male": 100.0}},
                "pt": {"hat": {"yes": 50.0}, "gender": {"male": 0.5}},
            }
        )
        pset = ProposalSet.from_proposals(
            [
                Proposal(id="ph", part="head", x=0, y=0, part_type=1, box=(0, 0, 10, 10)),
                Proposal(id="pt", part="torso", x=0, y=0, part_type=1, box=(0, 0, 10, 10)),
            ],
            table,
        )
        assoc = AttributeAssociation(
            parts={"head": ("hat",), "torso": ("gender",)},
            attr_ids=("hat", "gender"),
        )
        pg = ParseGraph(
            states={
                "head": PartState("head", 0.0, 0.0, 1, "ph"),
                "torso": PartState("torso", 0.0, 0.0, 1, "pt"),
            },
            attribute_assignment={"hat": "yes", "gender": "male"},
            total_score=0.0,
        )
        # head contributes hat only, torso gender only: 1.25 + 0.5
        np.testing.assert_allclose(self._assigned_total(pg, pset, assoc), 1.75, atol=1e-12)

    def test_unassigned_attribute_contributes_nothing(self):
        table = ScoreTable({"ph": {"hat": {"yes": 1.25}}})
        pset = ProposalSet.from_proposals(
            [Proposal(id="ph", part="head", x=0, y=0, part_type=1, box=(0, 0, 10, 10))], table
        )
        assoc = AttributeAssociation(
            parts={"head": ("hat", "gender")}, attr_ids=("hat", "gender")
        )
        pg = ParseGraph(
            states={"head": PartState("head", 0.0, 0.0, 1, "ph")},
            attribute_assignment={"hat": "yes"},
            total_score=0.0,
        )
        np.testing.assert_allclose(self._assigned_total(pg, pset, assoc), 1.25, atol=1e-12)


def _lookup_appearance(grammar, pset, step, assignment):
    """A step's appearance vector read cell by cell through ``lookup``: the
    assigned cell itself, or 0.0 plus each attribute's best value score."""
    out = []
    for p in pset.proposals_for(step.bucket.part):
        if assignment:
            [(attr, value)] = assignment.items()
            out.append(pset.scores.lookup(p.id, attr, value, part=p.part))
        else:
            total = 0.0
            for a in grammar.attributes:
                total += max(pset.scores.lookup(p.id, a.id, v, part=p.part) for v in a.domain)
            out.append(total)
    return out


def _lookup_readout(pg, pset, assoc, attr, value):
    """``_readout`` as a plain loop: from 0.0, add each associated part's
    cell in state order."""
    total = 0.0
    for part, st in pg.states.items():
        if assoc.contains(part, attr):
            total += pset.scores.lookup(st.proposal_ref, attr, value, part=part)
    return total


def _bits(values):
    return [float(v).hex() for v in values]


class TestAppearanceBits:
    """Every appearance read through the score grid performs the same float
    operations as the cell-by-cell loop it replaced, so results match bit
    for bit: signed zeros, and sums whose order matters at 8+ terms."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), per_part=st.integers(1, 3))
    def test_prepare_and_readout_equal_the_lookup_loop(self, grammar, quick_models, seed, per_part):
        rng = np.random.default_rng(seed)
        scores, props = {}, []
        for part in grammar.part_ids:
            for i in range(per_part):
                pid = f"{part}.{i}"
                part_type = int(rng.integers(1, 10))
                props.append(Proposal(pid, part, float(i), 0.0, part_type, (0, 0, 4, 4)))
                scores[pid] = {}
                for a in grammar.attributes:
                    # Magnitudes 1e-8..1e8 make the summation order visible;
                    # one cell in ten is -0.0.
                    n = len(a.domain)
                    cells = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
                    cells[rng.random(n) < 0.1] = -0.0
                    scores[pid][a.id] = dict(zip(a.domain, cells.tolist()))
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=9)

        pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
        assignments = [{}] + [{a: v} for a, v in pairs]
        steps = _prepare(grammar, quick_models, pset, assignments)
        for step in steps:
            assert step.app.shape == (len(assignments), len(step.bucket.ids))
            for app, assignment in zip(step.app, assignments):
                assert _bits(app) == _bits(_lookup_appearance(grammar, pset, step, assignment))

        # Each attribute is carried by 8 to 17 parts.
        parts = list(grammar.part_ids)
        carried = {
            a.id: set(rng.permutation(parts)[: int(rng.integers(8, 18))]) for a in grammar.attributes
        }
        assoc = AttributeAssociation(
            {part: tuple(a for a in carried if part in carried[a]) for part in parts}, list(carried)
        )
        for attr, value in pairs:
            order = rng.permutation(parts).tolist()
            chosen = {part: f"{part}.{int(rng.integers(0, per_part))}" for part in order}
            pg = ParseGraph(
                {part: PartState(part, 0.0, 0.0, 1, pid) for part, pid in chosen.items()}, {}, 0.0
            )
            assert _bits([_readout(pg, pset, assoc, attr, value)]) == _bits(
                [_lookup_readout(pg, pset, assoc, attr, value)]
            )


class TestListingOrder:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        width=st.integers(1, 12),
        constrained=st.booleans(),
        data=st.data(),
    )
    def test_shuffled_buckets_parse_identically(self, seed, width, constrained, data):
        """The chosen ids and the exact total do not depend on the order in
        which the proposals are listed, at any beam width."""
        g, models, pset = _toy_world(seed, counts=(3, 4, 3))
        shuffled = ProposalSet.from_proposals(
            data.draw(st.permutations(_listed(pset))),
            pset.scores,
            part_type_count=pset.part_type_count,
        )
        cfg = BeamConfig(beam_width=width)
        if constrained:
            runs = [parse_constrained(g, models, ps, "c", "v", cfg) for ps in (pset, shuffled)]
        else:
            runs = [parse_unconstrained(g, models, ps, cfg) for ps in (pset, shuffled)]
        a, b = runs
        assert {p: s.proposal_ref for p, s in a.states.items()} == {
            p: s.proposal_ref for p, s in b.states.items()
        }
        assert a.total_score == b.total_score


class TestDeterminism:
    def test_repeat_runs_serialize_identically(self):
        g, models, pset = _toy_world(17, counts=(4, 4, 4))
        a = parse_constrained(g, models, pset, "c", "u", BeamConfig(beam_width=8))
        b = parse_constrained(g, models, pset, "c", "u", BeamConfig(beam_width=8))
        assert a.to_json_dict(g) == b.to_json_dict(g)

    def test_width_one_returns_complete_parse(self):
        g, models, pset = _toy_world(19)
        pg = parse_unconstrained(g, models, pset, BeamConfig(beam_width=1))
        assert set(pg.states) == {"root", "a", "b"}
        assert math.isfinite(pg.total_score)


def _chain_world(seed, parts, flat=False, far=None):
    """A four-part grammar (root over a, b, c; dependency chain a -> b -> c)
    whose proposals draw coordinates, types and appearance scores from
    small pools, so equal candidate scores are common.  ``parts`` maps each
    part to its bucket's proposal ids, in listing order.  ``flat`` puts
    every proposal at one point with one type, so every relation row is
    constant and prefixes with different scores tie after extension.
    ``far`` names a part whose proposals all sit at x of about 1e200."""
    rng = np.random.default_rng(seed)
    nodes = (
        GrammarNode("root", NodeKind.AND, "root", ("a", "b", "c")),
        GrammarNode("a", NodeKind.TERMINAL, "a"),
        GrammarNode("b", NodeKind.TERMINAL, "b"),
        GrammarNode("c", NodeKind.TERMINAL, "c"),
    )
    g = AOGrammar(
        root="root",
        nodes=nodes,
        psg_edges=(("root", "a"), ("root", "b"), ("root", "c")),
        dg_edges=(("a", "b"), ("b", "c")),
        attributes=_PROPERTY_ATTRIBUTE,
        part_type_count=2,
    )
    syn = {}
    for e in g.psg_edges:
        m = rng.uniform(0.2, 1.0, size=(2, 2))
        syn[e] = m / m.sum()
    mixes = {
        e: Mixture(
            weights=np.array([0.6, 0.4]),
            means=rng.normal(0.0, 4.0, size=(2, 2)),
            covariances=np.stack([np.eye(2) * 3.0, np.eye(2) * 8.0]),
        )
        for e in g.dg_edges
    }
    models = RelationModels(
        syntactic=SyntacticTable(syn, part_type_count=2),
        kinematic=KinematicMoG(mixes),
        association=AttributeAssociation({p: ("c",) for p in g.part_ids}, ("c",)),
    )
    scores = {}
    props = []
    for part, ids in parts.items():
        for pid in ids:
            props.append(
                Proposal(
                    id=pid,
                    part=part,
                    x=(1e200 if part == far else 0.0) + (0.0 if flat else float(rng.choice([0.0, 4.0]))),
                    y=0.0 if flat else float(rng.choice([0.0, 4.0])),
                    part_type=1 if flat else int(rng.integers(1, 3)),
                    box=(0.0, 0.0, 5.0, 5.0),
                )
            )
            scores[pid] = {
                "c": {v: float(rng.choice([0.0, 0.5, 1.0] if flat else [0.0, 0.5])) for v in ("u", "v")}
            }
    return g, models, ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=2)


def _two_parent_world(seed, counts=(2, 3, 3, 3)):
    """A four-part grammar (root over a, c, b) in which ``c``, listed
    between them, has two dependency parents, ``a`` and ``b``; seeded
    tables, mixtures, proposals and scores."""
    rng = np.random.default_rng(seed)
    nodes = (
        GrammarNode("root", NodeKind.AND, "root", ("a", "c", "b")),
        GrammarNode("a", NodeKind.TERMINAL, "a"),
        GrammarNode("c", NodeKind.TERMINAL, "c"),
        GrammarNode("b", NodeKind.TERMINAL, "b"),
    )
    g = AOGrammar(
        root="root",
        nodes=nodes,
        psg_edges=(("root", "a"), ("root", "c"), ("root", "b")),
        dg_edges=(("a", "c"), ("b", "c")),
        attributes=_PROPERTY_ATTRIBUTE,
        part_type_count=2,
    )
    syn = {}
    for e in g.psg_edges:
        m = rng.uniform(0.2, 1.0, size=(2, 2))
        syn[e] = m / m.sum()
    mixes = {
        e: Mixture(
            weights=np.array([0.6, 0.4]),
            means=rng.normal(0.0, 8.0, size=(2, 2)),
            covariances=np.stack([np.eye(2) * 4.0, np.eye(2) * 9.0]),
        )
        for e in g.dg_edges
    }
    models = RelationModels(
        syntactic=SyntacticTable(syn, part_type_count=2),
        kinematic=KinematicMoG(mixes),
        association=AttributeAssociation({p: ("c",) for p in g.part_ids}, ("c",)),
    )
    scores, props = {}, []
    for part, n in zip(("root", "a", "b", "c"), counts):
        for i in range(n):
            pid = f"{part}{i}"
            x, y = rng.uniform(0.0, 30.0, size=2).tolist()
            props.append(Proposal(pid, part, x, y, int(rng.integers(1, 3)), (0.0, 0.0, 5.0, 5.0)))
            scores[pid] = {"c": {v: float(rng.normal(0.0, 1.5)) for v in ("u", "v")}}
    return g, models, ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=2)


def _objective_steps(steps, k):
    """The steps of a stacked search cut down to objective ``k`` alone."""
    out = []
    for step in steps:
        alone = _Step(step.bucket, step.app[k : k + 1])
        alone.closings = step.closings
        out.append(alone)
    return out


def _reference_beam(steps, width):
    """The beam of a one-objective search as a plain sort on (-score, id
    tuple), cut to ``width`` at every step, over the same candidate sums
    the search uses."""
    first = steps[0]
    beam = [(s, (pid,), (j,)) for j, (s, pid) in enumerate(zip(first.app[0].tolist(), first.bucket.ids))]
    beam = sorted(beam, key=lambda c: (-c[0], c[1]))[:width]
    for step in steps[1:]:
        new = []
        for score, ids, idxs in beam:
            sums = _extend(step, np.array([[score]]), np.array([[idxs]]))[0, 0].tolist()
            new += [
                (s, ids + (pid,), idxs + (j,))
                for j, (s, pid) in enumerate(zip(sums, step.bucket.ids))
            ]
        beam = sorted(new, key=lambda c: (-c[0], c[1]))[:width]
    return beam[0]


def _ids(pg):
    return {p: s.proposal_ref for p, s in pg.states.items()}


def _refused_edge(run):
    """``run()``, or the edge named by the ValidationError it raises."""
    try:
        return run()
    except ValidationError as exc:
        named = re.match(r"edge (\S+): ", str(exc))
        assert named, exc
        return ("refused", named.group(1))


class TestBeamProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        flat=st.booleans(),
        far=st.sampled_from((None, "root", "a", "b", "c")),
        data=st.data(),
    )
    def test_beam_equals_plain_sort_and_oracle(self, seed, flat, far, data):
        """At every width the beam keeps what a plain sort keeps, and at the
        full lattice it equals the oracle: same ids, bit-identical total.
        Every objective gets the same result alone and stacked with the
        others.  A bucket at x=1e200 on a displacement edge makes all of
        them refuse the input, naming the same edge."""
        parts = {}
        for part in ("root", "a", "b", "c"):
            n = data.draw(st.integers(1, 3))
            # Ids listed out of id order, so listing order cannot stand in
            # for the tie rule.
            parts[part] = data.draw(st.permutations([f"{part}{i}" for i in range(n)]))
        g, models, pset = _chain_world(seed, parts, flat, far)
        objectives = [{"c": "u"}, {"c": "v"}, {}]
        full = _lattice_size(pset, parts)
        width = data.draw(st.integers(1, full))

        def result(pg):
            return tuple(pg.states[p].proposal_ref for p in parts), float.hex(pg.total_score)

        def public(objective, cfg):
            if not objective:
                return parse_unconstrained(g, models, pset, cfg)
            [(attr, value)] = objective.items()
            return parse_constrained(g, models, pset, attr, value, cfg)

        def alone(k):
            cfg = BeamConfig(beam_width=k)
            return [result(public(objective, cfg)) for objective in objectives]

        def stacked(k):
            return [result(pg) for pg in _search(g, models, pset, objectives, BeamConfig(beam_width=k))]

        def plain():
            steps = _prepare(g, models, pset, objectives)
            out = []
            for k in range(len(objectives)):
                score, ids, _idxs = _reference_beam(_objective_steps(steps, k), width)
                out.append((ids, float.hex(score)))
            return out

        def oracle():
            return [result(brute_force_parse(g, models, pset, objective)) for objective in objectives]

        narrow = _refused_edge(lambda: stacked(width))
        assert narrow == _refused_edge(lambda: alone(width)) == _refused_edge(plain)
        assert _refused_edge(lambda: stacked(full)) == _refused_edge(lambda: alone(full)) == _refused_edge(oracle)
        assert (narrow[0] == "refused") == (far in ("a", "b", "c"))

    def test_objectives_resolve_their_own_ties_at_the_cut(self):
        """Stacked objectives tie at the cut on different candidates.  With
        every proposal at one point and of one type, each relation row is
        constant, so appearance alone decides.  At width 2, objective ``u``
        keeps roots (r2, r0) and objective ``v`` ties r1 and r2; at part
        ``a``, ``v``'s four candidates all tie at its cut, past the width,
        while ``u`` has no tie beyond it.  Each objective must break its
        ties by its own survivors' id ranks, at its own cut score."""
        g, models, _ = _toy_world(3)
        appearance = {
            "r0": (1.0, 0.0), "r1": (0.0, 1.0), "r2": (2.0, 1.0),
            "a0": (0.5, 0.0), "a1": (0.0, 0.0),
            "b0": (0.0, 0.0), "b1": (0.5, 0.0),
        }
        part = {"r": "root", "a": "a", "b": "b"}
        proposals = [Proposal(pid, part[pid[0]], 0.0, 0.0, 1, (0.0, 0.0, 5.0, 5.0)) for pid in appearance]
        scores = ScoreTable({pid: {"c": {"u": u, "v": v}} for pid, (u, v) in appearance.items()})
        pset = ProposalSet.from_proposals(proposals, scores, part_type_count=2)
        cfg = BeamConfig(beam_width=2)
        objectives = [{"c": "u"}, {"c": "v"}]
        stacked = [_ids(pg) for pg in _search(g, models, pset, objectives, cfg)]
        assert stacked == [
            {"root": "r2", "a": "a0", "b": "b1"},
            {"root": "r1", "a": "a0", "b": "b0"},
        ]
        assert stacked == [_ids(parse_constrained(g, models, pset, "c", v, cfg)) for v in ("u", "v")]


class TestRelationTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_rows_equal_full_table(self, seed):
        g, models, pset = _toy_world(seed + 500, counts=(4, 5, 6))
        steps = _prepare(g, models, pset, [{}])
        rng = np.random.default_rng(seed)
        tables = [table for step in steps for _first, table in step.closings]
        assert len(tables) == 3
        for table in tables:
            n = len(table.parent.ids)
            full = _Table(table.source, table.edge, table.parent, table.child)
            whole = full.rows(np.arange(n))
            lazy = _Table(table.source, table.edge, table.parent, table.child)
            for _ in range(3):
                idx = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
                np.testing.assert_array_equal(lazy.rows(idx), whole[idx])
            np.testing.assert_array_equal(lazy.rows(np.arange(n)), whole)
            # Each entry against the model's own scalar score.
            parent, child = table.edge
            for r, p in enumerate(pset.proposals_for(table.parent.part)):
                for c, ch in enumerate(pset.proposals_for(table.child.part)):
                    assert (p.part, ch.part) == (parent, child)
                    if isinstance(table.source, SyntacticTable):
                        expected = models.syntactic.score(table.edge, p.part_type, ch.part_type)
                        assert whole[r, c] == expected
                    else:
                        expected = models.kinematic.score(table.edge, ch.x - p.x, ch.y - p.y)
                        np.testing.assert_allclose(whole[r, c], expected, rtol=0, atol=1e-12)

    def test_one_proposal_set_two_models(self):
        """Tables are kept per relation model, so alternating models on one
        proposal set gives each model the result a fresh set gives it."""
        g, models_a, pset = _toy_world(31, counts=(3, 4, 3))
        _, models_b, _ = _toy_world(32, counts=(3, 4, 3))

        def fresh():
            return ProposalSet.from_proposals(
                _listed(pset), pset.scores, part_type_count=pset.part_type_count
            )

        cfg = BeamConfig(beam_width=3)
        runs = [
            (models, parse_unconstrained(g, models, pset, cfg))
            for models in (models_a, models_b, models_a, models_b)
        ]
        for models, pg in runs:
            expected = parse_unconstrained(g, models, fresh(), cfg)
            assert _ids(pg) == _ids(expected)
            assert pg.total_score == expected.total_score
        assert runs[0][1].total_score != runs[1][1].total_score

    def test_dropped_proposal_set_frees_its_tables(self):
        g, models, pset = _toy_world(33)
        parse_constrained(g, models, pset, "c", "u")
        assert pset in _TABLES
        gone = weakref.ref(pset)
        del pset
        gc.collect()
        assert gone() is None


class TestNonFiniteRelations:
    """With every head proposal at x=1e200 the torso->head displacement
    density is -inf; every search refuses the input, naming the edge and
    both proposals, instead of returning a NaN score."""

    @staticmethod
    def _far_heads():
        pset = synth_scores(two_person_scene(seed=21), noise_sigma=0.0, rng_seed=4)
        props = [dataclasses.replace(p, x=1e200) if p.part == "head" else p for p in _listed(pset)]
        return ProposalSet.from_proposals(props, pset.scores, part_type_count=pset.part_type_count)

    _MESSAGE = r"edge torso->head: displacement score between proposals 'p\d\.torso' and 'p\d\.head' is -inf, not finite"

    def test_parse_unconstrained(self, grammar, quick_models):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            parse_unconstrained(grammar, quick_models, self._far_heads())

    def test_parse_constrained(self, grammar, quick_models):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            parse_constrained(grammar, quick_models, self._far_heads(), "gender", "male")

    def test_brute_force_parse(self, grammar, quick_models):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            brute_force_parse(grammar, quick_models, self._far_heads(), {"gender": "male"})


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Appearance scores of 1e308 on the first two parts sum past the float
    range at the second; the search refuses the input instead of ranking
    an infinite score, and numpy warns of nothing."""

    _MESSAGE = (
        "a partial parse score at part 'a' is not finite: appearance and relation scores overflow"
    )

    @staticmethod
    def _huge():
        g, models, pset = _toy_world(43)

        def huge(pid, per_attr):
            if not pid.startswith("b"):
                per_attr["c"] = {"u": 1e308, "v": 1e308}

        return g, models, _rescored(pset, huge)

    def test_parse_unconstrained(self):
        g, models, pset = self._huge()
        with pytest.raises(ValidationError, match="^" + re.escape(self._MESSAGE) + "$"):
            parse_unconstrained(g, models, pset)

    def test_brute_force_parse(self):
        g, models, pset = self._huge()
        with pytest.raises(ValidationError, match="^" + re.escape(self._MESSAGE) + "$"):
            brute_force_parse(g, models, pset, {})


class TestPartTypesBeyondModels:
    """A proposal whose type exceeds the models' type count is refused when
    the relation tables are built, naming the proposal, its type, the edge
    and the count, instead of an IndexError from the search."""

    _MESSAGE = "edge root->b: proposal 'b1' has part_type 5, beyond the models' part_type_count 2"

    @staticmethod
    def _type_five():
        g, models, pset = _toy_world(41)
        props = [dataclasses.replace(p, part_type=5) if p.id == "b1" else p for p in _listed(pset)]
        return g, models, ProposalSet.from_proposals(props, pset.scores, part_type_count=9)

    def test_parse_unconstrained(self):
        g, models, pset = self._type_five()
        with pytest.raises(ValidationError, match=self._MESSAGE):
            parse_unconstrained(g, models, pset)

    def test_cli_parse_exits_one(self, tmp_path, capsys):
        _, models, pset = self._type_five()
        paths = {name: str(tmp_path / f"{name}.json") for name in ("grammar", "models", "proposals")}
        save_grammar(_toy_grammar(part_type_count=9), paths["grammar"])
        save_models(models, paths["models"])
        save_proposals(pset, paths["proposals"])
        out = tmp_path / "parse.json"
        argv = ["parse", "--mode", "unconstrained", "--out", str(out)]
        argv += [f"--{name}={path}" for name, path in paths.items()]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {self._MESSAGE}"]
        assert not out.exists()
