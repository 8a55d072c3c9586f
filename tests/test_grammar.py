"""Structural tests: default grammar shape, validation, serialization."""

from __future__ import annotations

import json
import math
import re

import pytest

from posegrammar.appearance import ScoreTable
from posegrammar.cli import cli_dispatch
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.grammar import (
    ATOMIC_PARTS,
    DEFAULT_DG_EDGES,
    FULL_BODY,
    LOWER_BODY,
    UPPER_BODY,
    AOGrammar,
    AttributeDef,
    GrammarNode,
    NodeKind,
    ParseGraph,
    PartState,
    build_default_human_grammar,
    default_attributes,
    load_grammar,
    load_parse_graph,
    parents_first,
    recompute_score,
    save_grammar,
    save_parse_graph,
    validate,
)


class TestDefaultGrammar:
    """The stock 17-part human body grammar."""

    def test_counts(self, grammar):
        assert len(grammar.nodes) == 17
        assert len(grammar.terminal_ids) == 14
        assert len(grammar.psg_edges) == 16
        assert len(grammar.dg_edges) == 13
        assert grammar.part_type_count == 9

    def test_root_and_levels(self, grammar):
        assert grammar.root == FULL_BODY
        assert grammar.node(FULL_BODY).kind is NodeKind.AND
        assert set(grammar.node(FULL_BODY).children) == {UPPER_BODY, LOWER_BODY}
        for part in ATOMIC_PARTS:
            assert grammar.node(part).is_terminal

    def test_validates_clean(self, grammar):
        report = validate(grammar)
        assert report.ok
        assert bool(report)
        assert report.violations == []

    def test_dependency_tree_rooted_at_torso(self, grammar):
        assert grammar.dg_edges == DEFAULT_DG_EDGES
        assert grammar.dg_parent("torso") is None
        for part in ATOMIC_PARTS:
            if part != "torso":
                assert grammar.dg_parent(part) is not None
        # Tree over 14 nodes needs exactly 13 edges, all endpoints atomic.
        for parent, child in grammar.dg_edges:
            assert parent in ATOMIC_PARTS and child in ATOMIC_PARTS

    def test_decomposition_ancestors(self, grammar):
        assert grammar.psg_ancestors("l_lower_arm") == (UPPER_BODY, FULL_BODY)
        assert grammar.psg_ancestors("r_upper_leg") == (LOWER_BODY, FULL_BODY)
        assert grammar.psg_ancestors(UPPER_BODY) == (FULL_BODY,)
        assert grammar.psg_ancestors(FULL_BODY) == ()

    def test_default_attributes(self, grammar):
        attrs = {a.id: a.domain for a in grammar.attributes}
        assert len(attrs) == 9
        assert attrs["gender"] == ("male", "female")
        assert attrs["age"] == ("youth", "adult", "elderly")
        assert sum(len(d) for d in attrs.values()) == 26

    def test_duplicate_attribute_rejected(self):
        dupes = (
            AttributeDef("gender", "gender", ("male", "female")),
            AttributeDef("gender", "gender", ("a", "b")),
        )
        with pytest.raises(ValidationError, match="duplicate attribute"):
            build_default_human_grammar(attr_defs=dupes)

    def test_unknown_lookups_raise(self, grammar):
        with pytest.raises(MissingEntryError, match="unknown grammar node"):
            grammar.node("tail")
        with pytest.raises(MissingEntryError, match="unknown attribute"):
            grammar.attribute("mood")


class TestAttributeDef:
    def test_requires_two_values(self):
        with pytest.raises(ValidationError, match="at least two values"):
            AttributeDef("flag", "flag", ("only",))

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValidationError, match="duplicate domain values"):
            AttributeDef("flag", "flag", ("yes", "yes"))


def _toy_nodes():
    return (
        GrammarNode("root", NodeKind.AND, "root", ("a", "b")),
        GrammarNode("a", NodeKind.TERMINAL, "a"),
        GrammarNode("b", NodeKind.TERMINAL, "b"),
    )


def _toy_grammar(**overrides):
    kwargs = dict(
        root="root",
        nodes=_toy_nodes(),
        psg_edges=(("root", "a"), ("root", "b")),
        dg_edges=(("a", "b"),),
        attributes=(AttributeDef("c", "c", ("u", "v")),),
        part_type_count=2,
    )
    kwargs.update(overrides)
    return AOGrammar(**kwargs)


class TestValidation:
    """validate() reports structural violations instead of raising."""

    def test_toy_grammar_clean(self):
        assert validate(_toy_grammar()).ok

    def test_duplicate_node_ids(self):
        nodes = _toy_nodes() + (GrammarNode("a", NodeKind.TERMINAL, "again"),)
        report = validate(_toy_grammar(nodes=nodes))
        assert any("duplicate node ids" in v for v in report.violations)

    def test_missing_root(self):
        report = validate(_toy_grammar(root="ghost"))
        assert any("root" in v and "ghost" in v for v in report.violations)

    def test_terminal_with_children(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("a", "b")),
            GrammarNode("a", NodeKind.TERMINAL, "a", ("b",)),
            GrammarNode("b", NodeKind.TERMINAL, "b"),
        )
        report = validate(
            _toy_grammar(nodes=nodes, psg_edges=(("root", "a"), ("root", "b"), ("a", "b")))
        )
        assert any("terminal node 'a' has children" in v for v in report.violations)

    def test_or_node_is_refused(self, tmp_path, capsys):
        allowed = r"grammar node 'root': kind 'or' is not one of \['and', 'terminal'\]"
        with pytest.raises(ValidationError, match=allowed):
            GrammarNode("root", "or", "root", ("a", "b"))
        doc = _toy_grammar().to_json_dict()
        doc["nodes"][0]["kind"] = "or"
        path = tmp_path / "or.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: grammar node 'root'"):
            load_grammar(str(path))
        assert cli_dispatch(["validate", "--grammar", str(path)]) == 1
        assert f"{path}: grammar node 'root'" in capsys.readouterr().err

    def test_self_edge(self):
        report = validate(_toy_grammar(dg_edges=(("a", "a"),)))
        assert any("self-edge" in v for v in report.violations)

    def test_undeclared_edge_endpoint(self):
        report = validate(_toy_grammar(dg_edges=(("a", "ghost"),)))
        assert any("undeclared node 'ghost'" in v for v in report.violations)

    def test_psg_cycle(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("a",)),
            GrammarNode("a", NodeKind.AND, "a", ("root",)),
        )
        report = validate(
            AOGrammar(
                root="root",
                nodes=nodes,
                psg_edges=(("root", "a"), ("a", "root")),
                dg_edges=(),
            )
        )
        assert any("psg edges contain a cycle" in v for v in report.violations)

    def test_multiple_psg_parents(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("m", "a")),
            GrammarNode("m", NodeKind.AND, "m", ("a",)),
            GrammarNode("a", NodeKind.TERMINAL, "a"),
        )
        report = validate(
            AOGrammar(
                root="root",
                nodes=nodes,
                psg_edges=(("root", "m"), ("root", "a"), ("m", "a")),
                dg_edges=(),
            )
        )
        assert any("multiple psg parents" in v for v in report.violations)

    def test_unreachable_node(self):
        nodes = _toy_nodes() + (GrammarNode("island", NodeKind.TERMINAL, "island"),)
        report = validate(_toy_grammar(nodes=nodes))
        assert any("unreachable" in v and "island" in v for v in report.violations)

    def test_dg_on_composite_part(self):
        report = validate(_toy_grammar(dg_edges=(("root", "a"),)))
        assert any("non-terminal" in v for v in report.violations)

    def test_dg_cycle(self):
        nodes = (
            GrammarNode("root", NodeKind.AND, "root", ("a", "b")),
            GrammarNode("a", NodeKind.TERMINAL, "a"),
            GrammarNode("b", NodeKind.TERMINAL, "b"),
        )
        report = validate(
            _toy_grammar(nodes=nodes, dg_edges=(("a", "b"), ("b", "a")))
        )
        assert any("dg edges contain a cycle" in v for v in report.violations)

    def test_placement_after_every_parent(self):
        """``parents_first`` places a node once all its parents are placed,
        taking the first such node in listing order; a node on a cycle or
        below an unlisted parent is returned as never placeable."""
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("x", "d")]
        assert parents_first(["d", "c", "b", "a"], edges) == (["a", "b", "c"], ["d"])
        assert parents_first(["a", "b", "c"], [("a", "b"), ("b", "a")]) == (["c"], ["a", "b"])
        assert parents_first(["a"], [("a", "a")]) == ([], ["a"])

    def test_psg_must_mirror_children(self):
        report = validate(_toy_grammar(psg_edges=(("root", "a"),)))
        assert any("missing from psg_edges" in v for v in report.violations)

    @pytest.mark.parametrize("count", [0, 2.5, True])
    def test_part_type_count_bound(self, count):
        report = validate(_toy_grammar(part_type_count=count))
        assert f"part_type_count must be an integer >= 1, got {count!r}" in report.violations


class TestGrammarSerialization:
    def test_round_trip_equality(self, grammar):
        doc = grammar.to_json_dict()
        back = AOGrammar.from_json_dict(doc)
        assert back == grammar
        assert back.to_json_dict() == doc

    def test_file_round_trip(self, grammar, tmp_path):
        path = tmp_path / "grammar.json"
        save_grammar(grammar, str(path))
        assert load_grammar(str(path)) == grammar

    def test_malformed_document(self):
        with pytest.raises(ValidationError, match="^root is missing$"):
            AOGrammar.from_json_dict({"nodes": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_grammar(str(path))


def _toy_parse(score=0.0, assignment=()):
    states = {
        "root": PartState("root", 1.0, 2.0, 1, "pr"),
        "a": PartState("a", 3.0, 2.0, 2, "pa"),
        "b": PartState("b", 3.0, 6.0, 1, "pb"),
    }
    return ParseGraph(states=states, attribute_assignment=dict(assignment), total_score=score)


class _FlatSyntactic:
    def __init__(self, value):
        self.value = value
        self.calls = []

    def score(self, edge, t_parent, t_child):
        self.calls.append((edge, t_parent, t_child))
        return self.value


class _FlatKinematic:
    def __init__(self, value):
        self.value = value
        self.calls = []

    def score(self, edge, dx, dy):
        self.calls.append((edge, dx, dy))
        return self.value


class _Models:
    def __init__(self, syn, kin):
        self.syntactic = syn
        self.kinematic = kin


_TOY_TABLE = ScoreTable(
    {
        "pr": {"c": {"u": 1.0, "v": 9.0}},
        "pa": {"c": {"u": 2.0, "v": 9.0}},
        "pb": {"c": {"u": 0.5, "v": 9.0}},
    }
)


class TestParseGraph:
    def test_state_key_must_match_part(self):
        with pytest.raises(ValidationError, match="describes part"):
            ParseGraph(
                states={"a": PartState("b", 0.0, 0.0, 1, "p")},
                attribute_assignment={},
                total_score=0.0,
            )

    def test_non_finite_total_score_rejected(self):
        with pytest.raises(ValidationError, match="^total_score must be a finite number, got nan$"):
            ParseGraph({"a": PartState("a", 0.0, 0.0, 1, "p")}, {}, math.nan)

    def test_part_state_type_bound(self):
        with pytest.raises(ValidationError, match="^part_type must be an integer >= 1, got 0$"):
            PartState("a", 0.0, 0.0, 0, "p")

    def test_recompute_constrained_fixture(self):
        """Hand-computed total: appearance + syntactic + kinematic.

        Appearance (assigned c=u): 1.0 + 2.0 + 0.5 = 3.5.  Two psg edges
        at 0.75 each, one dg edge at 1.5: total 3.5 + 1.5 + 1.5 = 6.5.
        """
        g = _toy_grammar()
        pg = _toy_parse(assignment={"c": "u"})
        syn, kin = _FlatSyntactic(0.75), _FlatKinematic(1.5)
        total = recompute_score(pg, g, _Models(syn, kin), _TOY_TABLE)
        assert math.isclose(total, 6.5, rel_tol=0, abs_tol=1e-12)
        assert syn.calls == [(("root", "a"), 1, 2), (("root", "b"), 1, 1)]
        # Displacement is child minus parent for the (a, b) edge.
        assert kin.calls == [(("a", "b"), 0.0, 4.0)]

    def test_recompute_unconstrained_takes_best_value(self):
        """With no assignment, each part contributes its best value score."""
        g = _toy_grammar()
        pg = _toy_parse()
        table = ScoreTable(
            {
                "pr": {"c": {"u": 1.0, "v": 4.0}},
                "pa": {"c": {"u": 2.0, "v": -1.0}},
                "pb": {"c": {"u": 0.5, "v": 0.25}},
            }
        )
        total = recompute_score(pg, g, _Models(_FlatSyntactic(0.0), _FlatKinematic(0.0)), table)
        assert math.isclose(total, 4.0 + 2.0 + 0.5, rel_tol=0, abs_tol=1e-12)

    def test_recompute_rejects_unknown_part(self):
        g = _toy_grammar()
        pg = ParseGraph(
            states={"ghost": PartState("ghost", 0.0, 0.0, 1, "p")},
            attribute_assignment={"c": "u"},
            total_score=0.0,
        )
        table = ScoreTable({"p": {"c": {"u": 0.0, "v": 0.0}}})
        with pytest.raises(MissingEntryError, match="unknown parts"):
            recompute_score(pg, g, _Models(_FlatSyntactic(0.0), _FlatKinematic(0.0)), table)

    def test_json_round_trip(self, tmp_path):
        g = _toy_grammar()
        pg = _toy_parse(score=6.5, assignment={"c": "u"})
        path = tmp_path / "parse.json"
        save_parse_graph(pg, str(path), g)
        back = load_parse_graph(str(path), g)
        assert back.states == pg.states
        assert back.attribute_assignment == {"c": "u"}
        assert back.total_score == 6.5
        models = _Models(_FlatSyntactic(0.75), _FlatKinematic(1.5))
        rescored = [recompute_score(p, g, models, _TOY_TABLE) for p in (back, pg)]
        assert float.hex(rescored[0]) == float.hex(rescored[1])

    def test_partial_parse_scores_only_covered_edges(self):
        """Appearance 1.0 + 2.0, one covered psg edge at 0.75, no dg edge."""
        g = _toy_grammar()
        doc = {
            "schema_version": 1,
            "states": [
                {"part": "root", "x": 0.0, "y": 0.0, "part_type": 1, "proposal": "pr"},
                {"part": "a", "x": 1.0, "y": 0.0, "part_type": 1, "proposal": "pa"},
            ],
            "attributes": {"c": "u"},
            "total_score": 0.0,
        }
        pg = ParseGraph.from_json_dict(doc, g)
        syn, kin = _FlatSyntactic(0.75), _FlatKinematic(1.5)
        total = recompute_score(pg, g, _Models(syn, kin), _TOY_TABLE)
        assert syn.calls == [(("root", "a"), 1, 1)]
        assert kin.calls == []
        assert total == 1.0 + 2.0 + 0.75
