"""Beam search tests: oracle agreement, monotonicity, objectives, ties.

The exhaustive enumerator shares the beam's per-step arithmetic and tie
rule, so wherever the beam covers the whole proposal lattice the two must
agree exactly, not approximately.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import re
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegrammar import inference, parallel
from posegrammar.appearance import Proposal, ProposalSet, ScoreTable, save_proposals, synth_scores
from posegrammar.cli import cli_dispatch
from posegrammar.errors import InfeasibleParseError, MissingEntryError, ValidationError
from posegrammar.evaluation import DiagnosticConfig, parse_attribute_scores, run_diagnostic
from posegrammar.grammar import (
    AOGrammar,
    AttributeDef,
    GrammarNode,
    ParseGraph,
    PartState,
    part_keypoints,
    recompute_score,
    save_grammar,
)
from posegrammar.inference import (
    _TABLES,
    BeamConfig,
    _cut,
    _extend,
    _Group,
    _prepare,
    _run_beam,
    _Step,
    _steps,
    _Table,
    attribute_pairs,
    attribute_scores,
    best_parse,
    parse_constrained,
    parse_unconstrained,
    search,
    select_final,
)
from posegrammar.relations import (
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    save_models,
)
from posegrammar.synthetic import generate_family, two_person_scene

from oracle import EnumerationLimitError, brute_force_parse, reference_extend, table_rows, uniform_syntactic_table

_PROPERTY_ATTRIBUTE = (AttributeDef("c", "c", ("u", "v")),)


def _toy_grammar(part_type_count=2):
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
        order = grammar.expansion_order
        assert type(order) is tuple and order[0] == "full_body"
        assert len(order) == 17
        assert sorted(order) == sorted(grammar.part_ids)
        position = {p: i for i, p in enumerate(order)}
        for parent, child in grammar.psg_edges + grammar.dg_edges:
            assert position[parent] < position[child]
        # The torso grounds before any limb joint it anchors.
        assert position["torso"] < position["head"]
        assert position["torso"] < position["l_shoulder"]

    def test_a_part_waits_for_all_of_its_parents(self):
        """``c`` is listed before its dependency parent ``b``; it is placed
        after both of its parents, so its decomposition edge and its
        dependency edge close at its own step."""
        g, models, pset = _two_parent_world(0)
        assert g.expansion_order == ("root", "a", "b", "c")
        last = _prepare(g, models, pset, [{}])[-1]
        assert [(parent, table.edge) for parent, table in last.closings] == [(0, ("root", "c")), (2, ("b", "c"))]

    def test_every_later_step_first_closes_a_cooccurrence_table(self, grammar, quick_models):
        """The root's step closes no edge, and every later step closes at
        least one, the first of them read from a co-occurrence table, on
        the default human grammar and on every grammar these tests build.
        ``_extend``'s product form relies on it: that first closing absorbs
        the sign of a ``-0.0 + -0.0`` sum."""
        worlds = [
            (grammar, quick_models, synth_scores(two_person_scene(seed=21), noise_sigma=0.0, rng_seed=4)),
            _toy_world(0),
            _toy_world(0, part_type_count=9),
            _chain_world(0, {p: [f"{p}0", f"{p}1"] for p in ("root", "a", "b", "c")}),
            _two_parent_world(0),
        ]
        for g, models, pset in worlds:
            steps = _prepare(g, models, pset, [{}])
            assert [step.bucket.part for step in steps] == list(g.expansion_order)
            assert steps[0].closings == []
            for step in steps[1:]:
                assert step.closings, step.bucket.part
                assert isinstance(step.closings[0][1].source, SyntacticTable), step.bucket.part

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

    def test_the_oracle_is_not_a_narrow_beam(self):
        """On this lattice a width-1 beam prunes the best parse: the oracle's
        total is strictly above the beam's, so the oracle searches more
        than the beam it checks."""
        g, models, pset = _toy_world(1)
        oracle = brute_force_parse(g, models, pset, {})
        narrow = parse_unconstrained(g, models, pset, BeamConfig(beam_width=1))
        assert oracle.total_score > narrow.total_score
        assert _ids(oracle) != _ids(narrow)

    def test_parse_grounds_every_grammar_part(self):
        g, models, pset = _toy_world(1)
        pg = parse_constrained(g, models, pset, "c", "u")
        assert set(pg.states) == set(g.part_ids)


    @pytest.mark.parametrize("seed", range(6))
    def test_two_parents_exact(self, seed):
        """A part whose step closes two tables, one per parent: the
        full-width beam equals the oracle (same ids, bit-identical total)
        under both objective forms, and the total agrees with an
        independent recomputation."""
        g, models, pset = _two_parent_world(seed)
        full = _lattice_size(pset, ("root", "a", "b", "c"))
        for assignment in ({"c": "u"}, {}):
            [beam] = search(g, models, pset, [assignment], BeamConfig(beam_width=full))
            oracle = brute_force_parse(g, models, pset, assignment)
            assert _ids(beam) == _ids(oracle)
            assert float.hex(beam.total_score) == float.hex(oracle.total_score)
            assert beam.attribute_assignment == oracle.attribute_assignment == assignment
            np.testing.assert_allclose(
                recompute_score(beam, g, models, pset.scores), beam.total_score, rtol=0, atol=1e-9
            )


def _search_bits(grammar, models, pset, width):
    """``float.hex`` of each total and of its recomputation, per parse of a
    K=27 search: every (attribute, value) pair of ``grammar`` and ``{}``."""
    assignments = [{attr: value} for attr, value in attribute_pairs(grammar)] + [{}]
    parses = search(grammar, models, pset, assignments, BeamConfig(beam_width=width))
    return [(float.hex(pg.total_score), float.hex(recompute_score(pg, grammar, models, pset.scores))) for pg in parses]


class TestRecomputeBits:
    """``recompute_score`` sums in the search's order, so every parse a
    search returns recomputes to its ``total_score`` bit for bit, on the
    benchmark's lattices and on diagnostic scenes, at narrow and full
    widths.  Summing all appearance terms first, a dependency term before
    a co-occurrence term, or parts in listing order breaks this."""

    @pytest.mark.parametrize("seed", range(200, 208))
    def test_dense_lattices(self, grammar, trained_models, seed):
        pset = _dense_lattice(grammar, seed, 50)
        for width in (10, 100):
            bits = _search_bits(grammar, trained_models, pset, width)
            assert [total for total, _ in bits] == [again for _, again in bits]

    def test_a_wide_lattice_filled_as_read(self, grammar, trained_models):
        pset = _dense_lattice(grammar, 300, 200)
        bits = _search_bits(grammar, trained_models, pset, 10)
        assert [total for total, _ in bits] == [again for _, again in bits]

    @pytest.mark.parametrize("seed", range(4))
    def test_two_person_scenes(self, grammar, trained_models, seed):
        pset = synth_scores(two_person_scene(seed=seed), noise_sigma=0.9, rng_seed=seed)
        for width in (1, 4, 100):
            bits = _search_bits(grammar, trained_models, pset, width)
            assert [total for total, _ in bits] == [again for _, again in bits]


def _search_digest(grammar, models, pset, objectives, widths):
    """sha256 over every parse of one search per width and per list of
    ``objectives``: its proposal ids, part by part in expansion order, and
    the ``float.hex`` of its total."""
    digest = hashlib.sha256()
    for width in widths:
        for assignments in objectives:
            for pg in search(grammar, models, pset, assignments, BeamConfig(beam_width=width)):
                ids = [pg.states[part].proposal_ref for part in grammar.expansion_order]
                digest.update(repr((ids, float.hex(pg.total_score))).encode())
    return digest.hexdigest()


# Taken from the search before it gathered each set's buckets at once and
# before its beam columns held table rows.
TWO_PERSON_DIGESTS = [
    "9551587a2a463ce1d1f8b8e8087c65326d10030526c265e43b8fb05727b337f2",
    "7522729a8aebac698d468a9e85c39318fc4eac38b00c3c3b7b89ffc7ec0b574a",
    "78b642d3686535056d527e013c4f4ddcbe06143013d6078737fae4128524f15e",
    "41a0ff55eee4f939705dc2d2e7a63d2766a977d9f0cb893da1eed5f58aac5722",
]
DENSE_DIGESTS = {
    200: "2b208f87595be8081b371828baab737b1644e73d8bc908fb307b1f47182ba2bf",
    201: "0768dbd27dc369345406072d156aeda1626672b46c8990f2f308c215345dad07",
}
WIDE_DIGEST = "2a284da30e4a00d83bae743be2e5cfd3ada9b000ded8f03e3003d5c394e4ccc3"


class TestSearchDigests:
    """Every parse of a search keeps its proposal ids and its total's bits,
    against the digests above.  Two-person scenes run K=27 (every pair and
    ``{}``); the lattices run the K=26 pairs and ``{}`` as two searches, as
    ``joint-dense`` does."""

    @staticmethod
    def _pairs(grammar):
        return [{attr: value} for attr, value in attribute_pairs(grammar)]

    def test_two_person_scenes(self, grammar, trained_models):
        digests = []
        for seed in range(4):
            pset = synth_scores(two_person_scene(seed=seed), noise_sigma=0.9, rng_seed=seed)
            objectives = [self._pairs(grammar) + [{}]]
            digests.append(_search_digest(grammar, trained_models, pset, objectives, (1, 3, 100)))
        assert digests == TWO_PERSON_DIGESTS

    @pytest.mark.parametrize("seed", [200, 201])
    def test_dense_lattices(self, grammar, trained_models, seed):
        pset = _dense_lattice(grammar, seed, 50)
        objectives = [self._pairs(grammar), [{}]]
        assert _search_digest(grammar, trained_models, pset, objectives, (10, 100)) == DENSE_DIGESTS[seed]

    def test_a_wide_lattice(self, grammar, trained_models):
        pset = _dense_lattice(grammar, 300, 200)
        objectives = [self._pairs(grammar), [{}]]
        assert _search_digest(grammar, trained_models, pset, objectives, (10,)) == WIDE_DIGEST


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

    @pytest.mark.parametrize(
        "assignment, error, text",
        [
            ({"c": "w"}, ValidationError, "value 'w' not in domain of attribute 'c': ('u', 'v')"),
            ({"c": ["u"]}, ValidationError, "value ['u'] not in domain of attribute 'c': ('u', 'v')"),
            ({"c": ("u",)}, ValidationError, "value ('u',) not in domain of attribute 'c': ('u', 'v')"),
            ({"c": None}, ValidationError, "value None not in domain of attribute 'c': ('u', 'v')"),
            ({"mood": "u"}, MissingEntryError, "unknown attribute 'mood'"),
            ({"mood": ["u"]}, MissingEntryError, "unknown attribute 'mood'"),
        ],
        ids=["outside", "unhashable", "tuple", "none", "unknown", "unknown-unhashable"],
    )
    def test_refused_pairs_keep_their_texts(self, assignment, error, text):
        """A pair the grammar does not declare, hashable or not, is refused
        by its attribute's domain, with the text a search always gave, and
        before any table is built."""
        g, models, pset = _toy_world(0)
        with pytest.raises(error) as caught:
            search(g, models, pset, [{"c": "u"}, assignment])
        assert str(caught.value) == text
        assert pset not in inference._TABLES

    def test_assignments_are_read_once(self):
        """A generator of assignments gives the parses its list gives, bit
        for bit, and an empty one gives none."""
        g, models, pset = _toy_world(4)
        assignments = [{"c": "u"}, {}, {"c": "v"}]
        listed = search(g, models, pset, assignments, BeamConfig(beam_width=2))
        generated = search(g, models, pset, (a for a in assignments), BeamConfig(beam_width=2))
        assert [(_ids(pg), float.hex(pg.total_score), pg.attribute_assignment) for pg in generated] == [
            (_ids(pg), float.hex(pg.total_score), pg.attribute_assignment) for pg in listed
        ]
        assert search(g, models, pset, iter([])) == []

    @pytest.mark.parametrize(
        "assignments, shown",
        [({"c": "u"}, "'c'"), (["c"], "'c'"), ([{"c": "u"}, ("c", "u")], "('c', 'u')")],
        ids=["a-mapping", "a-list-of-names", "a-tuple"],
    )
    def test_an_assignment_that_is_not_a_mapping_is_refused_by_index(self, assignments, shown):
        g, models, pset = _toy_world(0)
        index = len(assignments) - 1
        with pytest.raises(ValidationError) as caught:
            search(g, models, pset, assignments)
        assert str(caught.value) == f"assignments[{index}] must be a mapping of attribute to value, got {shown}"
        assert pset not in inference._TABLES

    def test_empty_bucket_is_infeasible(self):
        g, models, pset = _toy_world(0)
        empty = ProposalSet.from_proposals(
            pset.proposals_for("root") + pset.proposals_for("a"), pset.scores, part_type_count=2
        )
        with pytest.raises(InfeasibleParseError, match="part 'b' has no proposals"):
            parse_constrained(g, models, empty, "c", "u")

    def test_no_assignments_give_no_parses(self, monkeypatch):
        """A search of no objectives plans nothing, so it refuses no set,
        not even one with a part without proposals."""
        g, models, pset = _toy_world(0)
        partial = ProposalSet.from_proposals(pset.proposals_for("root"), pset.scores, part_type_count=2)

        def unplanned(*args):
            raise AssertionError("_prepare called")

        monkeypatch.setattr(inference, "_prepare", unplanned)
        assert search(g, models, pset, []) == []
        assert search(g, models, partial, [], BeamConfig(beam_width=3)) == []

    @pytest.mark.parametrize("cfg, shown", [(10, "10"), ("wide", "'wide'"), ({"beam_width": 3}, "a JSON object")])
    def test_a_cfg_that_is_not_a_beam_config_is_refused(self, cfg, shown):
        g, models, pset = _toy_world(0)
        message = f"cfg must be a BeamConfig, got {shown}"
        for assignments in ([{"c": "u"}], []):
            with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
                search(g, models, pset, assignments, cfg)


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

    @pytest.mark.parametrize("width", [1, 2])
    def test_zero_and_negative_zero_tie_and_fall_to_the_smaller_id(self, width):
        """0.0 and -0.0 are equal scores: the smaller id wins the cut though
        it is listed second."""
        g, models, pset = _toy_world(5)
        clones = [
            Proposal(id=pid, part="root", x=1.0, y=2.0, part_type=1, box=(0, 0, 5, 5)) for pid in ("rt1", "rt0")
        ]
        kept = pset.proposals_for("a") + pset.proposals_for("b")
        scores = {p.id: pset.scores.per_proposal(p.id) for p in kept}
        scores.update({"rt1": {"c": {"u": 0.0, "v": 0.0}}, "rt0": {"c": {"u": -0.0, "v": -0.0}}})
        pset2 = ProposalSet.from_proposals([*clones, *kept], ScoreTable(scores), part_type_count=2)
        pg = parse_constrained(g, models, pset2, "c", "u", BeamConfig(beam_width=width))
        oracle = brute_force_parse(g, models, pset2, {"c": "u"})
        assert pg.states["root"].proposal_ref == oracle.states["root"].proposal_ref == "rt0"

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

    # Eight distinct values, so candidates often tie; 0.0 and -0.0 tie too.
    _POOL = (-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0, 7.0)

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 6), m=st.integers(1, 8), data=st.data())
    def test_cut_keeps_what_a_sort_on_score_then_index_keeps(self, width, m, data):
        """Per row, ``_cut`` keeps the ``width`` candidates first under
        (-score, index), listed by index, in a fresh scratch buffer and in
        a larger one full of NaN, and the decode of a one-step search picks
        the row's first maximum among them.  Rows drawn with unique values
        never tie; the others mostly do."""
        rows = lambda unique: st.lists(st.sampled_from(self._POOL), min_size=m, max_size=m, unique=unique)
        k = data.draw(st.integers(1, 4))
        scores = np.array([data.draw(rows(data.draw(st.booleans()))) for _ in range(k)])
        kept = _cut(scores, width, np.empty(scores.size))
        index = np.arange(m)
        ranked = [np.lexsort((index, -row))[:width] for row in scores]
        assert kept.tolist() == [sorted(r * m + order) for r, order in enumerate(ranked)]
        # A caller's scratch buffer, larger than needed and stale, keeps the same.
        stale = np.full(scores.size + 3, np.nan)
        assert _cut(scores, width, stale).tolist() == kept.tolist()
        ids = [f"p{j}" for j in range(m)]
        proposals = [Proposal(pid, "root", 0.0, 0.0, 1, (0.0, 0.0, 1.0, 1.0)) for pid in ids]
        bucket = ProposalSet.from_proposals(proposals, ScoreTable({pid: {} for pid in ids})).buckets["root"]
        for row, order, (score, [j]) in zip(scores, ranked, _run_beam(_steps([bucket], scores), width)):
            assert j == order[0]
            assert float.hex(score) == float.hex(row[j])


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


def _cell(table, pid, attr, value):
    """The grid cell of proposal ``pid`` and ``attr=value``."""
    return float(table.values[table.rows([pid])[0], table.column(attr, value)])


def _partial_total(g, models, pset, assigned, attr=None, value=None):
    """Independent score of a partial assignment, summed per edge."""
    total = 0.0
    for part, st in assigned.items():
        if attr is not None:
            total += _cell(pset.scores, st.proposal_ref, attr, value)
        else:
            for a in g.attributes:
                total += max(_cell(pset.scores, st.proposal_ref, a.id, v) for v in a.domain)
    syntactic = models.syntactic
    for p, c in g.psg_edges:
        if p in assigned and c in assigned:
            total += syntactic.logs[syntactic.row((p, c)), assigned[p].part_type - 1, assigned[c].part_type - 1]
    for p, c in g.dg_edges:
        if p in assigned and c in assigned:
            offset = [[assigned[c].x - assigned[p].x, assigned[c].y - assigned[p].y]]
            total += models.kinematic.log_density((p, c), np.array(offset))[0]
    return float(total)


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
                # Both objectives extend the same prefixes, stacked; each
                # parent's column, per objective, made by its table as the search makes it.
                cols = {p: table.column(np.stack([idxs[:, p]] * len(objectives))) for p, table in step.closings}
                work = _Group(slice(0, len(objectives)), score.shape[1] * len(step.bucket.ids))
                total = _extend(step, score, cols, work)
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


def _awkward_cells(rng, shape):
    """Cells of magnitude 1e-300 to 1e300 with either sign, about one in
    three of them -0.0, 0.0 or subnormal."""
    cells = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-300, 301, shape)
    pick = rng.random(shape)
    cells[pick < 0.15] = -0.0
    cells[(pick >= 0.15) & (pick < 0.25)] = 0.0
    subnormal = (pick >= 0.25) & (pick < 0.35)
    cells[subnormal] = rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320], int(subnormal.sum()))
    return cells


class TestExtendBits:
    """The product form of a beam step's sum gives, cell by cell, the
    float a broadcast ``score + app`` followed by each closing's ``+=``
    gives, with every prefix of the step's closings that keeps the first,
    on workspaces full of NaN."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans(), prefixes=st.integers(1, 6))
    def test_extend_equals_the_broadcast_reference(self, grammar, quick_models, seed, stacked, prefixes):
        rng = np.random.default_rng(seed)
        props, scores = [], {}
        for part in grammar.part_ids:
            for i in range(int(rng.integers(1, 4))):
                pid = f"{part}.{i}"
                x, y = rng.uniform(0.0, 320.0), rng.uniform(0.0, 240.0)
                props.append(Proposal(pid, part, float(x), float(y), int(rng.integers(1, 10)), (0, 0, 4, 4)))
                # Each part's first proposal scores -0.0 under every
                # single-pair objective.
                scores[pid] = {
                    a.id: dict(zip(a.domain, (-0.0 if i == 0 else c for c in _awkward_cells(rng, len(a.domain)).tolist())))
                    for a in grammar.attributes
                }
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=grammar.part_type_count)
        assignments = [{a.id: v} for a in grammar.attributes for v in a.domain] + [{}]
        if not stacked:
            assignments = [assignments[int(rng.integers(len(assignments)))]]
        steps = _prepare(grammar, quick_models, pset, assignments)
        k = len(assignments)
        for step in steps[1:]:
            score = _awkward_cells(rng, (k, prefixes))
            score[:, 0] = -0.0
            cols = {p: t.column(rng.integers(0, len(steps[p].bucket.ids), size=(k, prefixes))) for p, t in step.closings}
            for j in range(1, len(step.closings) + 1):
                part = _Step(step.bucket, step.lifted, step.peak)
                part.closings = step.closings[:j]
                work = _Group(slice(0, k), prefixes * len(step.bucket.ids))
                work.sums.fill(np.nan)
                work.rows.fill(np.nan)
                got = _extend(part, score, cols, work)
                assert _bits(got.ravel()) == _bits(reference_extend(part, score, cols).ravel())


class TestSelectFinal:
    def test_best_parse_of_no_parses_is_refused(self):
        with pytest.raises(ValidationError, match=r"^best_parse needs at least one \(attribute, value\) pair's parse"):
            best_parse({})

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
            return search(*args)

        monkeypatch.setattr(inference, "search", counted)
        _best, per_pair = select_final(g, models, pset)
        assert calls == [[{"c": "u"}, {"c": "v"}]]
        assert list(per_pair) == [("c", "u"), ("c", "v")]

    def test_grammar_without_attributes_rejected(self):
        g, models, pset = _toy_world(13)
        bare = AOGrammar(g.root, g.nodes, g.dg_edges, attributes=(), part_type_count=2)
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
        pairs = pg.attribute_assignment.items()
        scores = attribute_scores({(a, v): pg for a, v in pairs}, pset, assoc)
        return sum(scores[a][v] for a, v in pairs)

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


def _counted_rows(monkeypatch) -> list[str]:
    """A list that records, from now on, the id of every ``ScoreTable.row`` lookup."""
    calls, row = [], ScoreTable.row
    monkeypatch.setattr(ScoreTable, "row", lambda table, pid: calls.append(pid) or row(table, pid))
    return calls


class TestReadoutRows:
    """A readout finds a parse's carried rows once per attribute: pairs
    that share a parse share its rows, distinct parses find their own.
    Errors keep their order: an unknown attribute, then a part with no
    association entry, then the pair's column, then a missing row, then a
    sum that is not finite, naming only its own attribute's proposals."""

    def test_a_shared_parse_finds_its_rows_once_per_attribute(self, grammar, quick_models, monkeypatch):
        assoc, pset = quick_models.association, synth_scores(two_person_scene(seed=5), 0.9, 5)
        pg = parse_unconstrained(grammar, quick_models, pset)
        carrying = {
            a.id: [st.proposal_ref for part, st in pg.states.items() if a.id in assoc.attrs_for(part)]
            for a in grammar.attributes
        }
        assert len({tuple(refs) for refs in carrying.values()}) > 1
        calls = _counted_rows(monkeypatch)
        parse_attribute_scores(pg, pset, assoc, grammar)
        assert calls == [ref for a in grammar.attributes for ref in carrying[a.id]]
        assert len(calls) < sum(len(carrying[a.id]) * len(a.domain) for a in grammar.attributes)

    def test_distinct_parses_find_their_own_rows(self, grammar, quick_models, monkeypatch):
        assoc, pset = quick_models.association, synth_scores(two_person_scene(seed=5), 0.9, 5)
        _best, per_pair = select_final(grammar, quick_models, pset)
        assert len({id(pg) for pg in per_pair.values()}) == len(per_pair) == 26
        calls = _counted_rows(monkeypatch)
        attribute_scores(per_pair, pset, assoc)
        expected = [
            st.proposal_ref for (attr, _v), pg in per_pair.items() for part, st in pg.states.items()
            if attr in assoc.attrs_for(part)
        ]
        assert calls == expected

    @staticmethod
    def _world(extra=None):
        """A head carrying ``hat``, and a torso and legs carrying
        ``gender``, whose ``male`` cells sum beyond the float range; one
        parse holds all three, plus ``extra`` states (part to proposal)."""
        table = ScoreTable({
            "ph": {"hat": {"yes": 1.5, "no": -2.0}, "gender": {"male": 0.0, "female": 0.25}},
            "pt": {"hat": {"yes": 4.0, "no": 8.0}, "gender": {"male": 1e308, "female": 0.5}},
            "pl": {"hat": {"yes": 16.0, "no": 32.0}, "gender": {"male": 1e308, "female": 0.75}},
        })
        scored = {"head": "ph", "torso": "pt", "legs": "pl"}
        pset = ProposalSet.from_proposals(
            [Proposal(id=pid, part=part, x=0, y=0, part_type=1, box=(0, 0, 2, 2)) for part, pid in scored.items()], table
        )
        assoc = AttributeAssociation({"head": ("hat",), "torso": ("gender",), "legs": ("gender",)}, ("hat", "gender"))
        states = {part: PartState(part, 0.0, 0.0, 1, pid) for part, pid in (scored | (extra or {})).items()}
        return pset, assoc, ParseGraph(states, {}, 0.0)

    @staticmethod
    def _refused(error, message, per_pair, pset, assoc):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            attribute_scores(per_pair, pset, assoc)

    def test_a_non_finite_sum_names_its_own_attribute_s_proposals(self):
        pset, assoc, pg = self._world()
        pairs = [("hat", "yes"), ("hat", "no"), ("gender", "female")]
        assert attribute_scores(dict.fromkeys(pairs, pg), pset, assoc) == {
            "hat": {"yes": 1.5, "no": -2.0}, "gender": {"female": 1.25}
        }
        message = "attribute score gender=male summed over proposals ['pt', 'pl'] is inf, not a finite number"
        self._refused(ValidationError, message, dict.fromkeys(pairs + [("gender", "male")], pg), pset, assoc)

    def test_the_column_is_refused_before_a_row(self):
        pset, assoc, pg = self._world({"head": "ghost"})
        column = "the score table has no score for 'hat'='maybe'"
        self._refused(MissingEntryError, column, dict.fromkeys([("hat", "maybe"), ("hat", "yes")], pg), pset, assoc)
        row = "no scores for proposal 'ghost'"
        self._refused(MissingEntryError, row, dict.fromkeys([("hat", "yes"), ("hat", "maybe")], pg), pset, assoc)
        self._refused(MissingEntryError, row, dict.fromkeys([("gender", "female"), ("hat", "yes")], pg), pset, assoc)

    def test_unknown_attributes_and_unassociated_parts_keep_their_errors(self):
        pset, assoc, pg = self._world({"arm": "ghost"})
        unknown = "unknown attribute 'mood'"
        self._refused(MissingEntryError, unknown, dict.fromkeys([("mood", "happy"), ("hat", "yes")], pg), pset, assoc)
        unassociated = "no association entry for part 'arm'"
        self._refused(MissingEntryError, unassociated, {("hat", "maybe"): pg}, pset, assoc)
        _pset, _assoc, known = self._world()
        per_pair = {("hat", "yes"): known, ("gender", "female"): known, ("mood", "happy"): known}
        self._refused(MissingEntryError, unknown, per_pair, pset, assoc)


def _lookup_appearance(grammar, pset, step, assignment):
    """A step's appearance vector read cell by cell: the assigned cells
    added in assignment order from the first, or 0.0 plus each
    attribute's best value score."""
    out = []
    for p in pset.proposals_for(step.bucket.part):
        if assignment:
            cells = [_cell(pset.scores, p.id, attr, value) for attr, value in assignment.items()]
            total = cells[0]
            for cell in cells[1:]:
                total += cell
            out.append(total)
        else:
            total = 0.0
            for a in grammar.attributes:
                total += max(_cell(pset.scores, p.id, a.id, v) for v in a.domain)
            out.append(total)
    return out


def _lookup_readout(pg, pset, assoc, attr, value):
    """An attribute readout as a plain loop: from 0.0, add each associated
    part's cell in state order."""
    total = 0.0
    for part, st in pg.states.items():
        if attr in assoc.attrs_for(part):
            total += _cell(pset.scores, st.proposal_ref, attr, value)
    return total


def _bits(values):
    return [float(v).hex() for v in values]


class TestAppearanceBits:
    """Every appearance read through the score grid performs the same float
    operations as the cell-by-cell loop it replaced, so results match bit
    for bit: signed zeros, and sums whose order matters at 8+ terms.  The
    stacked (K, N) block of a search equals each assignment's own sum, for
    single-pair, two-pair and empty assignments alike."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), per_part=st.integers(1, 3))
    def test_prepare_and_readout_equal_the_lookup_loop(self, grammar, quick_models, seed, per_part):
        rng = np.random.default_rng(seed)
        first, second = grammar.attributes[:2]
        scores, props = {}, []
        for part in grammar.part_ids:
            for i in range(per_part):
                pid = f"{part}.{i}"
                part_type = int(rng.integers(1, 10))
                props.append(Proposal(pid, part, float(i), 0.0, part_type, (0, 0, 4, 4)))
                scores[pid] = {}
                for a in grammar.attributes:
                    # Magnitudes 1e-8..1e8 make the summation order visible;
                    # one cell in ten is -0.0, and so is every cell of the
                    # first two attributes at each part's first proposal,
                    # which a two-pair sum from 0.0 would turn into 0.0.
                    n = len(a.domain)
                    cells = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
                    cells[rng.random(n) < 0.1] = -0.0
                    if i == 0 and a in (first, second):
                        cells[:] = -0.0
                    scores[pid][a.id] = dict(zip(a.domain, cells.tolist()))
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=9)

        pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
        two_pairs = [{first.id: u, second.id: v} for u in first.domain for v in second.domain]
        for _ in range(4):
            a, b = rng.choice(len(grammar.attributes), 2, replace=False)
            a, b = grammar.attributes[a], grammar.attributes[b]
            two_pairs.append({a.id: str(rng.choice(a.domain)), b.id: str(rng.choice(b.domain))})
        assignments = [{}] + [{a: v} for a, v in pairs] + two_pairs + [{}]
        assignments = [assignments[k] for k in rng.permutation(len(assignments))]
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
        assert len({frozenset(c) for c in carried.values()}) > 1
        assoc = AttributeAssociation(
            {part: tuple(a for a in carried if part in carried[a]) for part in parts}, list(carried)
        )
        for attr, value in pairs:
            order = rng.permutation(parts).tolist()
            chosen = {part: f"{part}.{int(rng.integers(0, per_part))}" for part in order}
            pg = ParseGraph(
                {part: PartState(part, 0.0, 0.0, 1, pid) for part, pid in chosen.items()}, {}, 0.0
            )
            assert _bits([attribute_scores({(attr, value): pg}, pset, assoc)[attr][value]]) == _bits(
                [_lookup_readout(pg, pset, assoc, attr, value)]
            )
        # One parse shared by all pairs, as the no-attribute readout shares
        # it: each attribute sums its own carried parts.
        order = rng.permutation(parts).tolist()
        shared = ParseGraph(
            {part: PartState(part, 0.0, 0.0, 1, f"{part}.{int(rng.integers(0, per_part))}") for part in order}, {}, 0.0
        )
        scores = attribute_scores({pair: shared for pair in pairs}, pset, assoc)
        assert _bits([scores[a][v] for a, v in pairs]) == _bits(
            [_lookup_readout(shared, pset, assoc, a, v) for a, v in pairs]
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
        GrammarNode("root", "root", ("a", "b", "c")),
        GrammarNode("a", "a"),
        GrammarNode("b", "b"),
        GrammarNode("c", "c"),
    )
    g = AOGrammar(
        root="root",
        nodes=nodes,
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
    """A four-part grammar (root over a, c, b; dependency chain a -> b -> c)
    in which ``c``, listed before its dependency parent ``b``, has two
    parents, ``root`` and ``b``; seeded tables, mixtures, proposals and
    scores."""
    rng = np.random.default_rng(seed)
    nodes = (
        GrammarNode("root", "root", ("a", "c", "b")),
        GrammarNode("a", "a"),
        GrammarNode("c", "c"),
        GrammarNode("b", "b"),
    )
    g = AOGrammar(
        root="root",
        nodes=nodes,
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


def _reference_beam(steps, k, width):
    """The beam of objective ``k`` of a stacked search, searched alone, as a
    plain sort on (-score, id tuple), cut to ``width`` at every step, over
    the same candidate sums the search uses."""
    first = steps[0]
    beam = [(s, (pid,), (j,)) for j, (s, pid) in enumerate(zip(first.app[k].tolist(), first.bucket.ids))]
    beam = sorted(beam, key=lambda c: (-c[0], c[1]))[:width]
    for step in steps[1:]:
        new = []
        for score, ids, idxs in beam:
            cols = {p: table.column(np.array([[idxs[p]]])) for p, table in step.closings}
            work = _Group(slice(k, k + 1), len(step.bucket.ids))
            sums = _extend(step, np.array([[score]]), cols, work)[0, 0].tolist()
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
            return [result(pg) for pg in search(g, models, pset, objectives, BeamConfig(beam_width=k))]

        def plain():
            steps = _prepare(g, models, pset, objectives)
            out = []
            for k in range(len(objectives)):
                score, ids, _idxs = _reference_beam(steps, k, width)
                out.append((ids, float.hex(score)))
            return out

        def oracle():
            return [result(brute_force_parse(g, models, pset, objective)) for objective in objectives]

        narrow = _refused_edge(lambda: stacked(width))
        assert narrow == _refused_edge(lambda: alone(width)) == _refused_edge(plain)
        assert _refused_edge(lambda: stacked(full)) == _refused_edge(lambda: alone(full)) == _refused_edge(oracle)
        assert (narrow[0] == "refused") == (far in ("a", "b", "c"))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flat=st.booleans(), width=st.integers(1, 64), data=st.data())
    def test_default_grammar_beam_equals_plain_sort(self, grammar, quick_models, seed, flat, width, data):
        """At the default 17-part grammar, where the search drops a part's
        column of proposal indices many steps before the last, the stacked
        beam keeps what a plain sort keeps for every objective: same ids,
        bit-identical total.  Coordinates, types and appearance scores come
        from small pools, so candidates tie; ``flat`` puts every proposal
        at one point with one type, so appearance alone decides."""
        rng = np.random.default_rng(seed)
        props, scores = [], {}
        for part in grammar.part_ids:
            n = int(rng.integers(2, 4))
            # Ids listed out of id order, so listing order cannot stand in
            # for the tie rule.
            for pid in rng.permutation([f"{part}.{i}" for i in range(n)]).tolist():
                x, y = (0.0, 0.0) if flat else rng.choice([0.0, 12.0], size=2).tolist()
                part_type = 1 if flat else int(rng.integers(1, 3))
                props.append(Proposal(pid, part, x, y, part_type, (0.0, 0.0, 5.0, 5.0)))
                scores[pid] = {
                    a.id: {v: float(rng.choice([0.0, 0.5, 1.0])) for v in a.domain} for a in grammar.attributes
                }
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=grammar.part_type_count)
        attribute = data.draw(st.sampled_from(grammar.attributes))
        v, w = data.draw(st.permutations(attribute.domain))[:2]
        objectives = [{attribute.id: v}, {attribute.id: w}, {}]

        stacked = search(grammar, quick_models, pset, objectives, BeamConfig(beam_width=width))
        steps = _prepare(grammar, quick_models, pset, objectives)
        for k, pg in enumerate(stacked):
            score, ids, _idxs = _reference_beam(steps, k, width)
            assert tuple(pg.states[step.bucket.part].proposal_ref for step in steps) == ids
            assert float.hex(pg.total_score) == float.hex(score)

    def test_objectives_resolve_their_own_ties_at_the_cut(self):
        """Stacked objectives tie at the cut on different candidates.  With
        every proposal at one point and of one type, each relation row is
        constant, so appearance alone decides.  At width 2, objective ``u``
        keeps roots (r2, r0) and objective ``v`` ties r1 and r2; at part
        ``a``, ``v``'s four candidates all tie at its cut, past the width,
        while ``u`` has no tie beyond it.  Each objective must break its
        ties by its own survivors' id tuples, at its own cut score."""
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
        stacked = [_ids(pg) for pg in search(g, models, pset, objectives, cfg)]
        assert stacked == [
            {"root": "r2", "a": "a0", "b": "b1"},
            {"root": "r1", "a": "a0", "b": "b0"},
        ]
        assert stacked == [_ids(parse_constrained(g, models, pset, "c", v, cfg)) for v in ("u", "v")]


def _dense_lattice(grammar, seed, per_part):
    """Criterion 9's draw: ``per_part`` proposals per part, uniform over a
    320 x 240 image, part types uniform in 1..9 and N(0, 1) appearance
    scores."""
    return _lattice(grammar, seed, dict.fromkeys(grammar.part_ids, per_part))


def _lattice(grammar, seed, sizes):
    """Criterion 9's draw with ``sizes[part]`` proposals for each part."""
    rng = np.random.default_rng(seed)
    props, scores = [], {}
    for part in grammar.part_ids:
        for i in range(sizes[part]):
            pid = f"{part}.{i}"
            x, y = float(rng.uniform(0.0, 320.0)), float(rng.uniform(0.0, 240.0))
            props.append(Proposal(pid, part, x, y, int(rng.integers(1, 10)), (0.0, 0.0, 40.0, 40.0)))
            scores[pid] = {a.id: {v: float(rng.normal(0.0, 1.0)) for v in a.domain} for a in grammar.attributes}
    return ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=grammar.part_type_count)


class TestParseAssembly:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 16))
    def test_search_results_equal_what_the_checked_constructors_build(self, grammar, quick_models, seed, width):
        """The search builds its parse graphs from the proposal set's
        columns without re-checking them.  Rebuilt through the public
        ``PartState`` and ``ParseGraph`` constructors, each graph is equal,
        with fields of the same types and the chosen proposals' coordinates
        to the bit (``-0.0`` included).  A proposal chosen under several
        objectives is one state object, and each graph holds its own copy
        of its assignment."""
        rng = np.random.default_rng(seed)
        props, scores = [], {}
        for part in grammar.part_ids:
            for i in range(int(rng.integers(1, 4))):
                pid = f"{part}.{i}"
                x, y = rng.choice([-0.0, 0.0, 7.5, 12.0, 1e3], size=2).tolist()
                props.append(Proposal(pid, part, x, y, int(rng.integers(1, 4)), (0.0, 0.0, 5.0, 5.0)))
                scores[pid] = {a.id: {v: float(rng.normal()) for v in a.domain} for a in grammar.attributes}
        pset = ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=grammar.part_type_count)
        by_id = {p.id: p for p in props}
        objectives = [{a.id: v} for a in grammar.attributes[:2] for v in a.domain] + [{}]
        graphs = search(grammar, quick_models, pset, objectives, BeamConfig(beam_width=width))
        shared = {}
        for objective, pg in zip(objectives, graphs):
            states = {p: PartState(s.part, s.x, s.y, s.part_type, s.proposal_ref) for p, s in pg.states.items()}
            assert pg == ParseGraph(states, objective, pg.total_score)
            assert list(pg.states) == list(grammar.expansion_order)
            assert (type(pg.states), type(pg.attribute_assignment), type(pg.total_score)) == (dict, dict, float)
            assert pg.attribute_assignment == objective and pg.attribute_assignment is not objective
            for part, state in pg.states.items():
                chosen = by_id[state.proposal_ref]
                fields = (state.part, state.x, state.y, state.part_type, state.proposal_ref)
                assert [type(f) for f in fields] == [str, float, float, int, str]
                assert (state.part, chosen.part) == (part, part)
                assert (float.hex(state.x), float.hex(state.y)) == (float.hex(chosen.x), float.hex(chosen.y))
                assert state.part_type == chosen.part_type
                assert shared.setdefault(state.proposal_ref, state) is state

    def test_a_non_finite_total_is_still_refused(self):
        """A one-part grammar's search never sums two steps, so no overflow
        check sees its total: the assembly refuses a total beyond the float
        range, naming the field, as the checked constructor did.  The
        appearance sums that overflow, unconstrained and over two assigned
        attributes, warn nothing."""
        attrs = (AttributeDef("c", "c", ("u", "v")), AttributeDef("d", "d", ("u", "v")))
        g = AOGrammar(root="r", nodes=[GrammarNode("r", "r")], dg_edges=[], attributes=attrs)
        models = RelationModels(
            uniform_syntactic_table([], 2), KinematicMoG({}), AttributeAssociation({"r": ("c",)}, ("c", "d"))
        )
        scores = ScoreTable({"r0": {a: {"u": 1.7e308, "v": 1.7e308} for a in ("c", "d")}})
        pset = ProposalSet.from_proposals([Proposal("r0", "r", 0.0, 0.0, 1, (0.0, 0.0, 1.0, 1.0))], scores, 2)
        assert parse_constrained(g, models, pset, "c", "u").total_score == 1.7e308
        # The appearance sum overflows when the objective is prepared.
        refused = r"^total_score must be a finite number, got inf$"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match=refused):
                parse_unconstrained(g, models, pset)
            with pytest.raises(ValidationError, match=refused):
                search(g, models, pset, [{"c": "u", "d": "v"}])
        assert caught == []


class TestObjectiveGroups:
    """A stacked search runs its objectives in the fewest contiguous groups,
    of near-equal size, whose step blocks fit ``_GROUP_CELLS`` cells; no
    grouping changes a parse."""

    @pytest.mark.parametrize("width", [1, 3, 100])
    @pytest.mark.parametrize("per_part", [8, 50])
    def test_grouping_never_changes_a_parse(self, grammar, quick_models, monkeypatch, per_part, width, workers):
        """The 26 pairs and ``{}`` in groups of at most 1, 2 and 9
        objectives, run on 1, 2 or 4 threads, give every objective the ids
        and bit-identical total of one group of all 27."""
        pset = _dense_lattice(grammar, 5, per_part)
        assignments = [{a.id: v} for a in grammar.attributes for v in a.domain] + [{}]
        cfg = BeamConfig(beam_width=width)
        # The largest (B, N) block of one objective: B survivors of the
        # previous step extended by a bucket of ``per_part``.
        block, b = 0, 1
        for _part in grammar.part_ids:
            block, b = max(block, b * per_part), min(width, b * per_part)
        sizes = _group_sizes(monkeypatch)

        def run(group):
            monkeypatch.setattr(inference, "_GROUP_CELLS", group * block)
            sizes.clear()
            return [(_ids(pg), float.hex(pg.total_score)) for pg in search(grammar, quick_models, pset, assignments, cfg)]

        whole = run(27)
        assert sizes == [27]
        for group, count in ((1, 27), (2, 14), (9, 3)):
            assert run(group) == whole
            assert len(sizes) == count and sum(sizes) == 27
            assert max(sizes) == group and min(sizes) >= group - 1

    def test_the_split_follows_the_block_size(self, grammar, quick_models, monkeypatch):
        """At width 100 a 17x50 lattice's largest block is 5,000 cells per
        objective, so ``select_final``'s 26 objectives run as 13 + 13 and
        27 as 9 + 9 + 9; a two-person scene's diagnostic search, 200 cells
        per objective, and every one-objective search run as one group."""
        pset = _dense_lattice(grammar, 5, 50)
        cfg = BeamConfig(beam_width=100)
        sizes = _group_sizes(monkeypatch)
        select_final(grammar, quick_models, pset, cfg)
        assert sizes == [13, 13]
        sizes.clear()
        search(grammar, quick_models, pset, [{a.id: v} for a in grammar.attributes for v in a.domain] + [{}], cfg)
        assert sizes == [9, 9, 9]
        sizes.clear()
        run_diagnostic(generate_family("two-person", 1, seed=1), DiagnosticConfig(grammar, quick_models))
        assert sizes == [27]
        sizes.clear()
        parse_constrained(grammar, quick_models, pset, "gender", "male", cfg)
        parse_unconstrained(grammar, quick_models, pset, cfg)
        assert sizes == [1, 1]

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_the_lowest_failed_group_s_error_is_raised(self, monkeypatch, workers):
        """``c=u`` overflows at part 'b' and ``c=v`` at part 'a', each
        objective a group of its own.  Run on two threads, with ``c=u``'s
        group held back until ``c=v``'s has failed, the search still
        raises the first group's error, as it does on one thread."""
        g, models, pset = _toy_world(43)

        def huge(pid, per_attr):
            per_attr["c"] = {
                "root": {"u": 1e308, "v": 1.5e308},
                "a": {"u": 0.0, "v": 1e308},
                "b": {"u": 1e308, "v": 0.0},
            }[pid.rstrip("0123456789")]

        pset = _rescored(pset, huge)
        monkeypatch.setattr(inference, "_GROUP_CELLS", 1)
        later_failed = threading.Event()
        run_group = inference._run_group

        def spied(steps, beam_width, work):
            if steps[0].app[work.objectives][0, 0] == 1e308:
                assert later_failed.wait(timeout=30), "c=v's group never failed"
                return run_group(steps, beam_width, work)
            try:
                return run_group(steps, beam_width, work)
            except ValidationError as exc:
                assert "at part 'a'" in str(exc)
                later_failed.set()
                raise

        monkeypatch.setattr(inference, "_run_group", spied)
        with pytest.raises(ValidationError, match=r"^a partial parse score at part 'b' is not finite: "):
            select_final(g, models, pset)
        assert later_failed.is_set()

    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    def test_no_group_starts_after_one_fails(self, monkeypatch, workers):
        """Of three one-objective groups only the first, ``c=v``,
        overflows.  On one thread it stops the search before the others
        start.  On two, the first fails once the second has started, the
        second, held back until then, runs to its end, and its thread
        starts no third."""
        g, models, pset = _toy_world(43)

        def huge_v(pid, per_attr):
            if not pid.startswith("b"):
                per_attr["c"]["v"] = 1e308

        pset = _rescored(pset, huge_v)
        monkeypatch.setattr(inference, "_GROUP_CELLS", 1)
        second, failed = threading.Event(), threading.Event()
        started = []
        run_group = inference._run_group

        def spied(steps, beam_width, work):
            started.append(work.objectives)
            if len(started) == 2:
                second.set()
            if steps[0].app[work.objectives][0, 0] == 1e308:
                assert workers == 1 or second.wait(timeout=30), "no second group started"
                try:
                    return run_group(steps, beam_width, work)
                finally:
                    failed.set()
            assert failed.wait(timeout=30), "c=v's group never ran"
            return run_group(steps, beam_width, work)

        monkeypatch.setattr(inference, "_run_group", spied)
        with pytest.raises(ValidationError, match=r"^a partial parse score at part 'a' is not finite: "):
            search(g, models, pset, [{"c": "v"}, {"c": "u"}, {"c": "u"}], None)
        assert len(started) == workers


class TestRelationTables:
    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_rows_equal_full_table(self, seed):
        g, models, pset = _toy_world(seed + 500, counts=(4, 5, 6))
        steps = _prepare(g, models, pset, [{}])
        rng = np.random.default_rng(seed)
        tables = [table for step in steps for _first, table in step.closings]
        assert len(tables) == 3

        def read(t, idx):
            """The rows of the parent's proposals ``idx``, through the column the search makes."""
            return table_rows(t, t.column(idx))

        for table in tables:
            n = len(table.parent.ids)
            # A co-occurrence table is only ever built whole.
            cooccurrence = isinstance(table.source, SyntacticTable)
            whole = read(table if cooccurrence else _unfilled(table), np.arange(n))
            lazy = table if cooccurrence else _unfilled(table)
            for _ in range(3):
                idx = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
                np.testing.assert_array_equal(read(lazy, idx), whole[idx])
            np.testing.assert_array_equal(read(lazy, np.arange(n)), whole)
            # Each entry against the model's own scalar score.
            parent, child = table.edge
            for r, p in enumerate(pset.proposals_for(table.parent.part)):
                for c, ch in enumerate(pset.proposals_for(table.child.part)):
                    assert (p.part, ch.part) == (parent, child)
                    if isinstance(table.source, SyntacticTable):
                        expected = models.syntactic.logs[models.syntactic.row(table.edge), p.part_type - 1, ch.part_type - 1]
                        assert whole[r, c] == expected
                    else:
                        [expected] = models.kinematic.log_density(table.edge, np.array([[ch.x - p.x, ch.y - p.y]]))
                        np.testing.assert_allclose(whole[r, c], expected, rtol=0, atol=1e-12)

    def test_a_cooccurrence_table_holds_one_row_per_part_type(self, grammar, quick_models):
        """A co-occurrence edge scores part types only, so its table is
        (part types, child proposals), whatever the parent's proposal count:
        an eager per-proposal gather would cost a wide lattice memory."""
        pset = synth_scores(two_person_scene(seed=4), noise_sigma=0.9, rng_seed=8)
        steps = _prepare(grammar, quick_models, pset, [{}])
        tables = [table for step in steps for _parent, table in step.closings]
        cooccurrence = [t for t in tables if isinstance(t.source, SyntacticTable)]
        assert len(cooccurrence) == len(grammar.psg_edges)
        for table in cooccurrence:
            assert len(table.parent.ids) == 2
            assert table.values.shape == (quick_models.syntactic.part_type_count, len(table.child.ids))

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

    def test_threads_reading_the_same_unfilled_rows_fill_them_once(self, monkeypatch):
        """Two threads that read the same unfilled half of a displacement
        table at once both get its rows, and the table stays exact for
        every later read.  Each fill first waits at a barrier for the
        other thread's: with the table's lock one thread fills the rows
        while the other waits for the lock and then finds them filled, so
        the barrier only times out; without it both fill the same rows,
        count them twice, and the half never read counts as filled."""
        g, models, pset = _toy_world(34, counts=(3, 4, 3))
        steps = _prepare(g, models, pset, [{}])
        [table] = [t for step in steps for _parent, t in step.closings if not isinstance(t.source, SyntacticTable)]
        n = len(table.parent.ids)
        # Built before the reference is filled, so that no unfilled row of
        # it is memory that held the reference's values.
        shared = _unfilled(table)
        whole = table_rows(_unfilled(table), np.arange(n))
        barrier = threading.Barrier(2, timeout=1.0)
        scores = KinematicMoG.displacement_scores

        def meeting(self, edges, parents, children):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return scores(self, edges, parents, children)

        monkeypatch.setattr(KinematicMoG, "displacement_scores", meeting)
        half = np.arange(n // 2)
        read = [None, None]

        def reader(i):
            read[i] = table_rows(shared, half)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for rows in read:
            np.testing.assert_array_equal(rows, whole[half])
        np.testing.assert_array_equal(table_rows(shared, np.arange(n)), whole)
        assert shared.unfilled == 0 and shared.filled.all()

    @pytest.mark.parametrize("seed", [300, 301])
    def test_concurrent_searches_on_one_set_match_a_lone_search(self, grammar, quick_models, seed, monkeypatch):
        """Two threads running ``select_final`` on one fresh proposal set
        each get the parses of a search on a set of its own, and both read
        the tables the set keeps, one per edge, though each thread builds
        every table, the two meeting at a barrier in each build."""
        cfg = BeamConfig(beam_width=10)
        lone = select_final(grammar, quick_models, _dense_lattice(grammar, seed, 20), cfg)[1]
        expected = [(_ids(pg), float.hex(pg.total_score)) for pg in lone.values()]
        pset = _dense_lattice(grammar, seed, 20)
        barrier = threading.Barrier(2, timeout=1.0)
        build = _Table.__init__

        def meeting(self, *args):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            build(self, *args)

        monkeypatch.setattr(_Table, "__init__", meeting)
        read = []
        run_group = inference._run_group

        def spied(steps, beam_width, work):
            read.extend(table for step in steps for _parent, table in step.closings)
            return run_group(steps, beam_width, work)

        monkeypatch.setattr(inference, "_run_group", spied)
        got = [None, None]

        def search_on(i):
            got[i] = [(_ids(pg), float.hex(pg.total_score)) for pg in select_final(grammar, quick_models, pset, cfg)[1].values()]

        threads = [threading.Thread(target=search_on, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert got == [expected, expected]
        kept = _TABLES[pset].values()
        assert len(kept) == len(grammar.psg_edges) + len(grammar.dg_edges)
        assert {id(table) for table in read} == {id(table) for table in kept}

    def test_dropped_proposal_set_frees_its_tables(self):
        g, models, pset = _toy_world(33)
        parse_constrained(g, models, pset, "c", "u")
        assert pset in _TABLES
        gone = weakref.ref(pset)
        del pset
        gc.collect()
        assert gone() is None


@pytest.fixture(params=["one-group", "one-objective-per-group"])
def group_budget(request, monkeypatch):
    """The default group budget, or one so small that each objective of a
    stacked search runs as a group of its own."""
    if request.param == "one-objective-per-group":
        monkeypatch.setattr(inference, "_GROUP_CELLS", 1)
    return request.param


@pytest.fixture(params=[1, 2, 4])
def workers(request, monkeypatch):
    """The number of CPUs a stacked search takes as usable: the most
    threads its groups of objectives run on."""
    monkeypatch.setattr(parallel, "_WORKERS", request.param)
    return request.param


def _group_sizes(monkeypatch):
    """A list that records, from now on, the number of objectives of each
    group a search runs."""
    sizes = []
    run_group = inference._run_group

    def spied(steps, beam_width, work):
        sizes.append(work.objectives.stop - work.objectives.start)
        return run_group(steps, beam_width, work)

    monkeypatch.setattr(inference, "_run_group", spied)
    return sizes


class TestNonFiniteRelations:
    """With every head proposal at x=1e200 the torso->head displacement
    density is -inf; every search refuses the input, naming the edge and
    both proposals, instead of returning a NaN score, also where each
    objective of a stacked search runs as a group of its own."""

    @staticmethod
    def _far_heads():
        pset = synth_scores(two_person_scene(seed=21), noise_sigma=0.0, rng_seed=4)
        props = [dataclasses.replace(p, x=1e200) if p.part == "head" else p for p in _listed(pset)]
        return ProposalSet.from_proposals(props, pset.scores, part_type_count=pset.part_type_count)

    _MESSAGE = r"edge torso->head: displacement score between proposals 'p\d\.torso' and 'p\d\.head' is -inf, not finite"

    def test_parse_unconstrained(self, grammar, quick_models, group_budget):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            parse_unconstrained(grammar, quick_models, self._far_heads())

    def test_parse_constrained(self, grammar, quick_models, group_budget):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            parse_constrained(grammar, quick_models, self._far_heads(), "gender", "male")

    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    def test_select_final(self, grammar, quick_models, group_budget, workers, monkeypatch):
        """The set is refused when its tables are built, so no group runs."""
        sizes = _group_sizes(monkeypatch)
        with pytest.raises(ValidationError, match=self._MESSAGE):
            select_final(grammar, quick_models, self._far_heads())
        assert sizes == []

    def test_brute_force_parse(self, grammar, quick_models):
        with pytest.raises(ValidationError, match=self._MESSAGE):
            brute_force_parse(grammar, quick_models, self._far_heads(), {"gender": "male"})


def _kinematic(steps):
    """The displacement tables ``steps`` close, in plan order."""
    return [table for step in steps for _parent, table in step.closings if not isinstance(table.source, SyntacticTable)]


def _unfilled(table):
    """The displacement ``table`` built anew with no values, each row
    filled the first time it is read."""
    return _Table(table.source, table.edge, table.parent, table.child, table.peak)


def _outcome(run):
    """``run()``'s (ids, hex total) per parse, or the message of the
    ValidationError it raises."""
    try:
        return [(_ids(pg), float.hex(pg.total_score)) for pg in run()]
    except ValidationError as exc:
        return str(exc)


class TestWholeFill:
    """A set whose stacked (edges, components, cells) block of displacement
    tables fits ``_GROUP_CELLS`` has every table filled whole when built,
    in one mixture call, before any search can read them; every search on
    it gets the ids and the bits of the bounded path, which fills each row
    as a search reads it."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 4), min_size=17, max_size=17),
        width=st.integers(1, 100),
        workers=st.sampled_from([1, 2]),
        budget=st.sampled_from([2**16, 13 * 10 * 16]),
        data=st.data(),
    )
    def test_parses_equal_those_of_the_bounded_path(self, grammar, trained_models, seed, sizes, width, workers, budget, data):
        """Buckets of 1 to 4 proposals, mixed within a set, so 1x1 tables
        share the block with larger ones; K=1 and the diagnostic's K=27;
        at the smaller budget, which every such block still fits, a wide
        K=27 search runs in several groups, on one thread or two.  A budget
        of one cell, which no block fits, takes the bounded path."""
        sizes = dict(zip(grammar.part_ids, sizes))
        everything = [{attr: value} for attr, value in attribute_pairs(grammar)] + [{}]
        assignments = data.draw(st.sampled_from([everything, *([a] for a in everything)]))
        cfg = BeamConfig(beam_width=width)

        def run(budget):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "_WORKERS", workers)
                mp.setattr(inference, "_GROUP_CELLS", budget)
                pset = _lattice(grammar, seed, sizes)
                tables = _kinematic(_prepare(grammar, trained_models, pset, [{}]))
                unfilled = [table.unfilled for table in tables]
                got = _outcome(lambda: search(grammar, trained_models, pset, assignments, cfg))
            return got, unfilled, tables

        (whole, unfilled_whole, _), (bounded, unfilled, tables) = run(budget), run(1)
        assert whole == bounded
        assert unfilled_whole == [0] * 13
        assert unfilled == [len(table.parent.ids) for table in tables]
        assert [table.peak for table in tables] == [_bound(trained_models, table) for table in tables]

    @pytest.mark.parametrize("seed", range(6))
    def test_each_cell_is_the_row_by_row_fill_to_the_bit(self, grammar, trained_models, seed):
        """Each cell of a whole-filled table equals its row computed alone,
        as the bounded path computes a row a survivor reads: a table whose
        child has one proposal gets a one-point row, whose ten components
        are summed in the order the stacked block sums them."""
        rng = np.random.default_rng(seed)
        pset = _lattice(grammar, seed, {part: int(rng.integers(1, 5)) for part in grammar.part_ids})
        for table in _kinematic(_prepare(grammar, trained_models, pset, [{}])):
            # Built whole: no row is left to fill, so no fill mask or lock is made.
            assert table.unfilled == 0 and not hasattr(table, "filled") and not hasattr(table, "lock")
            alone = np.concatenate([table_rows(_unfilled(table), [r]) for r in range(len(table.parent.ids))])
            assert [float.hex(v) for v in alone.ravel()] == [float.hex(v) for v in table.values.ravel()]
            assert table.peak == float(np.abs(table.values).max()) > 0.0

    def test_tables_are_filled_in_one_call_before_they_are_published(self, grammar, trained_models, monkeypatch):
        """One mixture call fills every dependency edge's table, none of them
        yet in ``_TABLES``, where another search could read a row not yet
        written; a second search on the set fills nothing."""
        pset = _lattice(grammar, 3, {part: 1 + i % 4 for i, part in enumerate(grammar.part_ids)})
        calls = []
        scores = KinematicMoG.displacement_scores

        def spied(self, edges, parents, children):
            calls.append([(self, edge) in _TABLES.get(pset, {}) for edge in edges])
            return scores(self, edges, parents, children)

        monkeypatch.setattr(KinematicMoG, "displacement_scores", spied)
        parse_unconstrained(grammar, trained_models, pset, BeamConfig(beam_width=100))
        assert calls == [[False] * len(grammar.dg_edges)]
        select_final(grammar, trained_models, pset, BeamConfig(beam_width=100))
        assert len(calls) == 1

    @pytest.mark.parametrize("over", [0, 1], ids=["fits", "one-cell-over"])
    def test_a_block_beyond_the_budget_is_bounded(self, grammar, trained_models, over, monkeypatch):
        """Thirteen edges of ten components over a 3x4 block of cells fill
        whole at a budget of exactly that many cells; a cell below, each
        table is left unfilled, its ``peak`` the bound."""
        sizes = {part: 3 for part in grammar.part_ids}
        sizes["head"] = 4
        monkeypatch.setattr(inference, "_GROUP_CELLS", 13 * 10 * 3 * 4 - over)
        tables = _kinematic(_prepare(grammar, trained_models, _lattice(grammar, 5, sizes), [{}]))
        assert len(tables) == 13
        assert [table.unfilled for table in tables] == [0 if not over else len(table.parent.ids) for table in tables]
        expected = [_bound(trained_models, t) if over else float(np.abs(t.values).max()) for t in tables]
        assert [table.peak for table in tables] == expected
        assert all(0.0 < table.peak < 2.0**900 for table in tables)

    def test_the_benchmark_lattices_stay_row_by_row(self, grammar, trained_models):
        """17x50 (13 x 10 x 2,500 cells) is far past the budget, so those
        sets keep filling only the rows a search reads; every table is
        proved finite, and its bound sets no step's check."""
        steps = _prepare(grammar, trained_models, _dense_lattice(grammar, 200, 50), [{}])
        tables = _kinematic(steps)
        assert all(not table.filled.any() for table in tables)
        assert all(table.peak == _bound(trained_models, table) < 1e10 for table in tables)
        assert not any(step.check for step in steps)


def _bound(models, table):
    [bound] = models.kinematic.displacement_bounds([table.edge], table.parent.xy[None], table.child.xy[None])
    return bound


def _moved(pset, pid, **coordinates):
    """``pset`` rebuilt with the proposal ``pid`` moved to ``coordinates``."""
    props = [dataclasses.replace(p, **coordinates) if p.id == pid else p for p in _listed(pset)]
    return ProposalSet.from_proposals(props, pset.scores, part_type_count=pset.part_type_count)


class TestRefusedForWhatItHolds:
    """A set holding a displacement score that is not finite is refused when
    its tables are built, naming the first such cell in plan, row and
    column order, whatever the width, the objectives, their groups, the
    threads or the fill path: no group runs and no table is kept."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        far=st.sampled_from([1e150, -1e150, 1e160, -1e160, 1e200, -1e200]),
        axis=st.sampled_from(["x", "y"]),
        bounded=st.booleans(),
        workers=st.sampled_from([1, 2]),
        data=st.data(),
    )
    def test_a_set_refused_at_some_width_is_refused_at_every_width(
        self, grammar, trained_models, seed, wide, far, axis, bounded, workers, data
    ):
        """One proposal of a part's bucket of 1 to 4 proposals, or of 23 to
        40, two other parts having up to 3, at one extreme coordinate: a
        search at width w refuses the set exactly when one at full width,
        which reads every row, does, in the same words.  The part is often
        the torso, the one dependency parent no dependency edge reaches, so
        that only its own rows hold its scores and a narrow beam may drop
        it unread.  K=1 or the diagnostic's K=27, on one thread or two; a
        budget of one cell takes the bounded path."""
        rng = np.random.default_rng(seed)
        sizes = dict.fromkeys(grammar.part_ids, 1)
        big = data.draw(st.one_of(st.just("torso"), st.sampled_from(grammar.part_ids)))
        for part in rng.choice([p for p in grammar.part_ids if p != big], 2, replace=False).tolist():
            sizes[part] = int(rng.integers(1, 4))
        sizes[big] = int(rng.integers(23, 41) if wide else rng.integers(1, 5))
        pset = _lattice(grammar, seed, sizes)
        moved = f"{big}.{data.draw(st.integers(0, sizes[big] - 1))}"
        everything = [{attr: value} for attr, value in attribute_pairs(grammar)] + [{}]
        assignments = data.draw(st.sampled_from([everything, [{}], [everything[0]]]))
        width = data.draw(st.integers(1, 100))

        def refusal(width):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(parallel, "_WORKERS", workers)
                if bounded:
                    mp.setattr(inference, "_GROUP_CELLS", 1)
                try:
                    search(grammar, trained_models, _moved(pset, moved, **{axis: far}), assignments, BeamConfig(width))
                except ValidationError as exc:
                    return str(exc)
                return None

        assert refusal(width) == refusal(math.prod(sizes.values()))

    @pytest.mark.parametrize("width", [1, 100])
    @pytest.mark.parametrize("workers", [1, 2], indirect=True)
    def test_a_far_torso_is_refused_before_any_search(self, grammar, trained_models, width, workers, group_budget, monkeypatch):
        """With one torso proposal at x=1e200, each of the torso's five
        dependency tables has one row that is not finite: on either fill
        path (the budget of one cell takes the bounded one) the set is
        refused at its first cell, before any group runs, and no table of
        it is kept."""
        pset = _moved(_lattice(grammar, 8, dict.fromkeys(grammar.part_ids, 2)), "torso.1", x=1e200)
        assignments = [{attr: value} for attr, value in attribute_pairs(grammar)] + [{}]
        sizes = _group_sizes(monkeypatch)
        message = "edge torso->head: displacement score between proposals 'torso.1' and 'head.0' is -inf, not finite"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            search(grammar, trained_models, pset, assignments, BeamConfig(beam_width=width))
        assert sizes == []
        assert _TABLES[pset] == {}

    @pytest.mark.parametrize("torso", [0, 31, 37, 47])
    @pytest.mark.parametrize("width", [1, 100])
    def test_lattice_200_with_a_far_torso(self, grammar, trained_models, torso, width):
        """On the benchmark's 17x50 lattice 200, a torso proposal at
        x=1e160 is refused at width 1 as at width 100; at x=1e150 every
        score is finite and the set is accepted.  Before sets were refused
        for what they hold, torso.0, .31 and .47 were accepted at width 1."""
        pset = _dense_lattice(grammar, 200, 50)
        cfg = BeamConfig(beam_width=width)
        message = f"edge torso->head: displacement score between proposals 'torso.{torso}' and 'head.0' is -inf, not finite"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            parse_unconstrained(grammar, trained_models, _moved(pset, f"torso.{torso}", x=1e160), cfg)
        parse_unconstrained(grammar, trained_models, _moved(pset, f"torso.{torso}", x=1e150), cfg)

    def test_a_table_the_bound_cannot_prove_finite_is_filled_whole(self, grammar, trained_models):
        """At x=1e150 a torso's quadratic terms reach about 1e297: finite,
        but past 2**900, so each table of a torso edge is filled whole when
        built and its ``peak`` is its largest ``|value|``; every other
        table of the 17x50 set is proved finite and filled as read."""
        pset = _moved(_dense_lattice(grammar, 200, 50), "torso.0", x=1e150)
        steps = _prepare(grammar, trained_models, pset, [{}])
        for table in _kinematic(steps):
            if table.edge[0] == "torso":
                assert table.unfilled == 0 and not hasattr(table, "filled")
                assert table.peak == float(np.abs(table.values).max()) > 2.0**900
            else:
                assert table.unfilled == 50 and table.peak == _bound(trained_models, table) < 1e10
        assert not any(step.check for step in steps)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflow:
    """Appearance scores of 1e308 on the first two parts sum past the float
    range at the second; the search refuses the input instead of ranking
    an infinite score, also where the cut would drop every infinite
    candidate, and numpy warns of nothing."""

    _MESSAGE = (
        "a partial parse score at part 'a' is not finite: appearance and relation scores overflow"
    )

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        """Stacked searches of more than one group run on two threads, so a
        thread that does not silence numpy's overflow warning fails."""
        monkeypatch.setattr(parallel, "_WORKERS", 2)

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

    @pytest.mark.parametrize("width", [1, 2])
    def test_an_overflow_the_cut_would_prune_is_refused(self, width, group_budget):
        """Every root proposal and ``a0`` score -1e308, so only the
        candidates through ``a0`` overflow, to -inf, and a beam narrower
        than the lattice would cut them: the search refuses the input all
        the same, though no survivor is infinite."""
        g, models, pset = _toy_world(43)

        def low(pid, per_attr):
            if pid.startswith("root") or pid == "a0":
                per_attr["c"] = {"u": -1e308, "v": -1e308}

        pset = _rescored(pset, low)
        cfg = BeamConfig(beam_width=width)
        assert width < _lattice_size(pset)
        for run in (
            lambda: parse_unconstrained(g, models, pset, cfg),
            lambda: parse_constrained(g, models, pset, "c", "v", cfg),
            lambda: select_final(g, models, pset, cfg),
        ):
            with pytest.raises(ValidationError, match="^" + re.escape(self._MESSAGE) + "$"):
                run()

    def test_an_overflow_only_the_last_group_reaches_is_refused(self, group_budget, monkeypatch):
        """Only the ``c=v`` column scores 1e308, on the first two parts, so
        only the last objective of ``select_final`` overflows: run alone as
        the last group, after ``c=u``'s group has finished, it is refused
        in the same words."""
        g, models, pset = _toy_world(43)

        def huge_v(pid, per_attr):
            if not pid.startswith("b"):
                per_attr["c"]["v"] = 1e308

        pset = _rescored(pset, huge_v)
        parse_constrained(g, models, pset, "c", "u")
        sizes = _group_sizes(monkeypatch)
        with pytest.raises(ValidationError, match="^" + re.escape(self._MESSAGE) + "$"):
            select_final(g, models, pset)
        assert sizes == ([1, 1] if group_budget == "one-objective-per-group" else [2])

    def test_recompute_score(self):
        """A parse over the huge proposals, rescored from scratch, sums past
        the float range and is refused."""
        g, models, pset = self._huge()
        states = {}
        for part in ("root", "a", "b"):
            p = pset.proposals_for(part)[0]
            states[part] = PartState(part, p.x, p.y, p.part_type, p.id)
        pg = ParseGraph(states, {"c": "u"}, 0.0)
        with pytest.raises(ValidationError, match="^recomputed parse graph score is not finite$"):
            recompute_score(pg, g, models, pset.scores)


class TestReadoutOverflow:
    """One proposal per part, placed at a scene's first person, under the
    gate corpus's models.  ``gender=male`` scores 1e308 on ``full_body``
    and ``torso``, both associated with gender, and -1e308 on
    ``lower_body``, which is not and is grounded between them; every
    other score is 0.  Each partial sum of the search stays finite, but
    the readout over the associated parts does not: it is refused naming
    the pair and the proposals summed."""

    _MESSAGE = (
        "attribute score gender=male summed over proposals ['full_body.0', 'upper_body.0', 'torso.0', "
        "'head.0', 'l_shoulder.0', 'r_shoulder.0'] is inf, not a finite number"
    )

    @staticmethod
    def _lattice(grammar):
        keypoints = part_keypoints(two_person_scene(seed=21).persons[0].joints)
        props = [
            Proposal(id=f"{p}.0", part=p, x=keypoints[p][0], y=keypoints[p][1], part_type=1, box=(0.0, 0.0, 40.0, 40.0))
            for p in grammar.part_ids
        ]
        huge = {"full_body": 1e308, "torso": 1e308, "lower_body": -1e308}
        scores = {
            prop.id: {
                a.id: {v: huge.get(prop.part, 0.0) if (a.id, v) == ("gender", "male") else 0.0 for v in a.domain}
                for a in grammar.attributes
            }
            for prop in props
        }
        return ProposalSet.from_proposals(props, ScoreTable(scores), part_type_count=grammar.part_type_count)

    def test_the_search_stays_finite_and_the_readout_refuses(self, grammar, trained_models):
        assoc = trained_models.association
        assert {"full_body", "torso"} <= {p for p in grammar.part_ids if "gender" in assoc.attrs_for(p)}
        assert "gender" not in assoc.attrs_for("lower_body")
        pset = self._lattice(grammar)
        best, per_pair = select_final(grammar, trained_models, pset)
        assert best.attribute_assignment == {"gender": "male"} and math.isfinite(best.total_score)
        with pytest.raises(ValidationError, match="^" + re.escape(self._MESSAGE) + "$"):
            attribute_scores(per_pair, pset, assoc)

    def test_cli_joint_parse_exits_one_naming_the_readout(self, grammar, trained_models, tmp_path, capsys):
        paths = {name: str(tmp_path / f"{name}.json") for name in ("grammar", "models", "proposals")}
        save_grammar(grammar, paths["grammar"])
        save_models(trained_models, paths["models"])
        save_proposals(self._lattice(grammar), paths["proposals"])
        out, scores_out = tmp_path / "parse.json", tmp_path / "scores.json"
        argv = ["parse", "--mode", "joint", "--out", str(out), "--scores-out", str(scores_out)]
        argv += [f"--{name}={path}" for name, path in paths.items()]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {self._MESSAGE}"]
        assert not out.exists() and not scores_out.exists()


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
