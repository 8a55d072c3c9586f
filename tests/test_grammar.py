"""Structural tests: default grammar shape, construction refusals,
serialization."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegrammar.appearance import ScoreTable
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.evaluation import default_sticks
from posegrammar.grammar import (
    ATOMIC_PARTS,
    DEFAULT_DG_EDGES,
    FULL_BODY,
    LOWER_BODY,
    UPPER_BODY,
    AOGrammar,
    AttributeDef,
    GrammarNode,
    ParseGraph,
    PartState,
    build_default_human_grammar,
    load_grammar,
    load_parse_graph,
    parents_first,
    recompute_score,
    save_grammar,
    save_parse_graph,
)
from posegrammar.relations import AttributeAssociation, KinematicMoG, Mixture, RelationModels, SyntacticTable
from posegrammar.render import render_svg


class TestDefaultGrammar:
    """The stock 17-part human body grammar."""

    def test_counts(self, grammar):
        assert len(grammar.nodes) == 17
        assert len(grammar.terminal_ids) == 14
        assert len(grammar.psg_edges) == 16
        assert len(grammar.dg_edges) == 13
        assert grammar.part_type_count == 9

    def test_root_and_levels(self, grammar):
        nodes = {n.id: n for n in grammar.nodes}
        assert grammar.root == FULL_BODY
        assert set(nodes[FULL_BODY].children) == {UPPER_BODY, LOWER_BODY}
        assert grammar.terminal_ids == ATOMIC_PARTS
        for part in ATOMIC_PARTS:
            assert nodes[part].children == ()

    def test_rebuilds_from_its_own_fields(self, grammar):
        """The constructor keeps node and attribute instances as they are."""
        fields = (grammar.root, grammar.nodes, grammar.dg_edges, grammar.attributes, grammar.part_type_count)
        back = AOGrammar(*fields)
        assert back == grammar
        assert back.nodes == grammar.nodes and back.nodes[0] is grammar.nodes[0]

    def test_decomposition_edges_follow_the_children_lists(self, grammar):
        """The derived edges equal the 16 edges the grammar used to list,
        in the same order: each node's children in listing order."""
        upper = ("head", "torso", "l_shoulder", "r_shoulder", "l_upper_arm", "l_lower_arm", "r_upper_arm", "r_lower_arm")
        lower = ("l_hip", "r_hip", "l_upper_leg", "l_lower_leg", "r_upper_leg", "r_lower_leg")
        expected = (
            (FULL_BODY, UPPER_BODY),
            (FULL_BODY, LOWER_BODY),
            *((UPPER_BODY, m) for m in upper),
            *((LOWER_BODY, m) for m in lower),
        )
        assert grammar.psg_edges == expected

    def test_dependency_tree_rooted_at_torso(self, grammar):
        assert grammar.dg_edges == DEFAULT_DG_EDGES
        children = {child for _parent, child in grammar.dg_edges}
        assert children == set(ATOMIC_PARTS) - {"torso"}
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
        with pytest.raises(ValidationError, match=r"^duplicate attribute ids: \['gender'\]$"):
            build_default_human_grammar(attr_defs=dupes)

    def test_unknown_lookups_raise(self, grammar):
        """The one lookup a grammar has; a parse naming an unknown part is
        refused by ``recompute_score`` (``test_recompute_rejects_unknown_part``)."""
        with pytest.raises(MissingEntryError, match="^unknown attribute 'mood'$"):
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
        GrammarNode("root", "root", ("a", "b")),
        GrammarNode("a", "a"),
        GrammarNode("b", "b"),
    )


def _toy_grammar(**overrides):
    kwargs = dict(
        root="root",
        nodes=_toy_nodes(),
        dg_edges=(("a", "b"),),
        attributes=(AttributeDef("c", "c", ("u", "v")),),
        part_type_count=2,
    )
    kwargs.update(overrides)
    return AOGrammar(**kwargs)


def _violations(**overrides) -> list[str]:
    """The violations construction refuses the toy grammar with
    ``overrides`` for, in order."""
    with pytest.raises(ValidationError) as refused:
        _toy_grammar(**overrides)
    return str(refused.value).split("; ")


class TestValidation:
    """Construction refuses a grammar with every violation it has, in one
    error."""

    def test_toy_grammar_clean(self):
        assert _toy_grammar().terminal_ids == ("a", "b")

    def test_duplicate_node_ids(self):
        nodes = _toy_nodes() + (GrammarNode("a", "again"),)
        assert "duplicate node ids: ['a']" in _violations(nodes=nodes)

    def test_missing_root(self):
        assert "root 'ghost' is not a declared node" in _violations(root="ghost")

    def test_no_nodes(self):
        assert _violations(nodes=(), dg_edges=()) == ["grammar has no nodes", "root 'root' is not a declared node"]

    def test_terminal_with_children(self):
        """A terminal given children is an and-node, so the dependency edge
        on it and the second parent of its child are refused."""
        nodes = (
            GrammarNode("root", "root", ("a", "b")),
            GrammarNode("a", "a", ("b",)),
            GrammarNode("b", "b"),
        )
        assert _violations(nodes=nodes) == [
            "node 'b' has multiple psg parents ['a', 'root']",
            "dg edge ('a', 'b') touches non-terminal node 'a'",
        ]

    def test_duplicate_and_undeclared_children(self):
        nodes = (GrammarNode("root", "root", ("a", "b", "a", "ghost")), GrammarNode("a", "a"), GrammarNode("b", "b"))
        assert _violations(nodes=nodes)[:2] == [
            "node 'root' lists duplicate children",
            "node 'root' references undeclared child 'ghost'",
        ]

    def test_self_edge(self):
        assert "dg self-edge on 'a'" in _violations(dg_edges=(("a", "a"),))

    def test_duplicate_dg_edges(self):
        assert _violations(dg_edges=(("a", "b"), ("a", "b"))) == [
            "duplicate dg edges",
            "node 'b' has multiple dg parents ['a', 'a']",
        ]

    def test_undeclared_edge_endpoint(self):
        assert _violations(dg_edges=(("a", "ghost"),)) == ["dg edge ('a', 'ghost') references undeclared node 'ghost'"]

    def test_psg_cycle(self):
        nodes = (
            GrammarNode("root", "root", ("a",)),
            GrammarNode("a", "a", ("root",)),
        )
        assert _violations(nodes=nodes, dg_edges=()) == ["psg edges contain a cycle"]

    def test_node_listing_itself_as_a_child(self):
        nodes = (GrammarNode("root", "root", ("root", "a")), GrammarNode("a", "a"))
        assert _violations(nodes=nodes, dg_edges=()) == ["psg edges contain a cycle"]

    def test_multiple_psg_parents(self):
        nodes = (
            GrammarNode("root", "root", ("m", "a")),
            GrammarNode("m", "m", ("a",)),
            GrammarNode("a", "a"),
        )
        assert _violations(nodes=nodes, dg_edges=()) == ["node 'a' has multiple psg parents ['m', 'root']"]

    def test_unreachable_node(self):
        nodes = _toy_nodes() + (GrammarNode("island", "island"),)
        assert _violations(nodes=nodes) == ["nodes unreachable from root via psg edges: ['island']"]

    def test_dg_on_composite_part(self):
        assert _violations(dg_edges=(("root", "a"),)) == ["dg edge ('root', 'a') touches non-terminal node 'root'"]

    def test_dg_cycle(self):
        assert _violations(dg_edges=(("a", "b"), ("b", "a"))) == ["dg edges contain a cycle"]

    def test_every_violation_in_one_error(self):
        nodes = _toy_nodes() + (GrammarNode("island", "island"),)
        attributes = (AttributeDef("c", "c", ("u", "v")),) * 2
        assert _violations(nodes=nodes, dg_edges=(("a", "a"),), attributes=attributes) == [
            "dg self-edge on 'a'",
            "nodes unreachable from root via psg edges: ['island']",
            "dg edges contain a cycle",
            "duplicate attribute ids: ['c']",
        ]

    def test_placement_after_every_parent(self):
        """``parents_first`` places a node once all its parents are placed,
        taking the first such node in listing order; a node on a cycle or
        below an unlisted parent is returned as never placeable."""
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("x", "d")]
        assert parents_first(["d", "c", "b", "a"], edges) == (["a", "b", "c"], ["d"])
        assert parents_first(["a", "b", "c"], [("a", "b"), ("b", "a")]) == (["c"], ["a", "b"])
        assert parents_first(["a"], [("a", "a")]) == ([], ["a"])

    @pytest.mark.parametrize("count", [0, 2.5, True])
    def test_part_type_count_bound(self, count):
        message = f"part_type_count must be an integer >= 1, got {count!r}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            _toy_grammar(part_type_count=count)

    def test_fields_are_fixed(self, grammar):
        """A grammar cannot be edited into an invalid one after construction."""
        with pytest.raises(AttributeError):
            grammar.dg_edges = (("head", "torso"),)


def _edit(doc: dict, data) -> None:
    """One structural edit of a grammar document, drawn by ``data``: add,
    drop or move a child; add a dependency edge between any two ids, an
    undeclared one included, or drop one; rename a node in one place only;
    drop a node; or give a terminal children."""
    nodes = doc["nodes"]
    ids = [n["id"] for n in nodes] + ["ghost"]
    node = data.draw(st.sampled_from(nodes))
    kind = data.draw(
        st.sampled_from(["add child", "drop child", "move child", "add edge", "drop edge", "rename", "drop node", "terminal"])
    )
    if kind == "add child":
        node["children"].append(data.draw(st.sampled_from(ids)))
    elif kind in ("drop child", "move child") and node["children"]:
        child = node["children"].pop(data.draw(st.integers(0, len(node["children"]) - 1)))
        if kind == "move child":
            data.draw(st.sampled_from([n for n in nodes if n["children"]] or nodes))["children"].append(child)
    elif kind == "add edge":
        doc["dg_edges"].append([data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))])
    elif kind == "drop edge" and doc["dg_edges"]:
        doc["dg_edges"].pop(data.draw(st.integers(0, len(doc["dg_edges"]) - 1)))
    elif kind == "rename":
        places = [(doc, "root")] + [(n, "id") for n in nodes]
        places += [(n["children"], i) for n in nodes for i in range(len(n["children"]))]
        places += [(e, i) for e in doc["dg_edges"] for i in (0, 1)]
        holder, key = data.draw(st.sampled_from(places))
        holder[key] = "renamed"
    elif kind == "drop node":
        nodes.remove(node)
    elif kind == "terminal":
        terminal = data.draw(st.sampled_from([n for n in nodes if not n["children"]] or nodes))
        terminal["children"] = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))


class TestEveryGrammarIsValid:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_an_edited_grammar_is_refused_or_usable(self, tmp_path_factory, data):
        """Loading an edited default grammar either fails with one
        ValidationError naming the file, or gives a grammar whose expansion
        order places every part once after all of its parents, whose
        sticks join terminals and which renders a parse grounded in that
        order.  No other exception is raised."""
        doc = build_default_human_grammar().to_json_dict()
        for _ in range(data.draw(st.integers(0, 3))):
            _edit(doc, data)
        path = tmp_path_factory.mktemp("edited") / "grammar.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            g = load_grammar(str(path))
        except ValidationError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
        order = g.expansion_order
        assert sorted(order) == sorted(g.part_ids) and len(set(order)) == len(order)
        position = {p: i for i, p in enumerate(order)}
        for parent, child in g.psg_edges + g.dg_edges:
            assert position[parent] < position[child]
        terminals = set(g.terminal_ids)
        assert all({s.a, s.b} <= terminals for s in default_sticks(g))
        states = {p: PartState(p, float(i), float(i % 3), 1, f"r{i}") for i, p in enumerate(order)}
        svg = render_svg(ParseGraph(states, {}, 0.0), g)
        assert svg.count('class="stick"') == len(g.dg_edges)
        assert svg.count('class="keypoint"') == len(terminals)


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

    def test_children_lists_are_the_decomposition(self, grammar):
        """A grammar file writes no ``psg_edges``; an older file's key is
        ignored, even one that disagrees with the children lists."""
        doc = grammar.to_json_dict()
        assert "psg_edges" not in doc
        older = dict(doc, psg_edges=[["full_body", "head"]])
        back = AOGrammar.from_json_dict(older)
        assert back == grammar
        assert back.psg_edges == grammar.psg_edges

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


def _toy_models():
    """Real relation models for the toy grammar, with entries a hand total
    can name: ``(root, a)`` holds 0.5 at types (1, 2) and 0.125 at (1, 1),
    ``(root, b)`` 0.25 at (1, 1), and ``(a, b)`` is a unit Gaussian at the
    offset (0, 4), whose log density there is -log(2 pi) to the bit."""
    syntactic = SyntacticTable(
        {("root", "a"): [[0.125, 0.5], [0.125, 0.25]], ("root", "b"): [[0.25, 0.125], [0.375, 0.25]]},
        part_type_count=2,
    )
    kinematic = KinematicMoG({("a", "b"): Mixture(np.array([1.0]), np.array([[0.0, 4.0]]), np.eye(2)[None])})
    return RelationModels(syntactic, kinematic, AttributeAssociation({}, ("c",)))


def _log(models, edge, t_parent, t_child):
    """The co-occurrence log entry of ``edge`` at two part types."""
    return float(models.syntactic.logs[models.syntactic.row(edge), t_parent - 1, t_child - 1])


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
        """Hand-computed total: appearance (assigned c=u) 1.0, 2.0 and 0.5;
        the (root, a) entry 0.5 at types (1, 2), the (root, b) entry 0.25 at
        (1, 1), and the (a, b) offset (0, 4), child minus parent, at the
        unit Gaussian's mean.  Summed in expansion order from 0.0: root, then
        a and its decomposition edge, then b, its decomposition edge and its
        dependency edge."""
        g, models = _toy_grammar(), _toy_models()
        pg = _toy_parse(assignment={"c": "u"})
        total = recompute_score(pg, g, models, _TOY_TABLE)
        assert math.isclose(total, 3.5 + math.log(0.5 * 0.25) - math.log(2.0 * math.pi), rel_tol=0, abs_tol=1e-12)
        [density] = models.kinematic.log_density(("a", "b"), np.array([[0.0, 4.0]]))
        assert density == -math.log(2.0 * math.pi)
        in_order = 0.0 + 1.0 + 2.0 + _log(models, ("root", "a"), 1, 2) + 0.5 + _log(models, ("root", "b"), 1, 1) + density
        assert float.hex(total) == float.hex(in_order)

    def test_recompute_unconstrained_takes_best_value(self):
        """With no assignment, each part contributes its best value score."""
        g, models = _toy_grammar(), _toy_models()
        pg = _toy_parse()
        table = ScoreTable(
            {
                "pr": {"c": {"u": 1.0, "v": 4.0}},
                "pa": {"c": {"u": 2.0, "v": -1.0}},
                "pb": {"c": {"u": 0.5, "v": 0.25}},
            }
        )
        total = recompute_score(pg, g, models, table)
        expected = 4.0 + 2.0 + math.log(0.5) + 0.5 + math.log(0.25) - math.log(2.0 * math.pi)
        assert math.isclose(total, expected, rel_tol=0, abs_tol=1e-12)

    def test_recompute_rejects_unknown_part(self):
        g = _toy_grammar()
        pg = ParseGraph(
            states={"ghost": PartState("ghost", 0.0, 0.0, 1, "p")},
            attribute_assignment={"c": "u"},
            total_score=0.0,
        )
        table = ScoreTable({"p": {"c": {"u": 0.0, "v": 0.0}}})
        with pytest.raises(MissingEntryError, match="unknown parts"):
            recompute_score(pg, g, _toy_models(), table)

    def test_an_empty_parse_recomputes_to_zero(self):
        total = recompute_score(ParseGraph({}, {}, 0.0), _toy_grammar(), _toy_models(), _TOY_TABLE)
        assert float.hex(total) == float.hex(0.0)

    @pytest.mark.parametrize("source", ["syntactic", "kinematic"])
    def test_an_edge_with_no_model_is_refused_naming_it(self, source):
        models = _toy_models()
        if source == "syntactic":
            tables = {("root", "a"): models.syntactic.tables[("root", "a")]}
            models.syntactic, message = SyntacticTable(tables, 2), "no syntactic table for edge ('root', 'b')"
        else:
            models.kinematic, message = KinematicMoG({}), "no kinematic mixture for edge ('a', 'b')"
        with pytest.raises(MissingEntryError, match="^" + re.escape(message) + "$"):
            recompute_score(_toy_parse(assignment={"c": "u"}), _toy_grammar(), models, _TOY_TABLE)

    @pytest.mark.parametrize("part_type", [3, 2**63, 2**70])
    @pytest.mark.parametrize("part", ["root", "b"])
    def test_a_part_type_beyond_the_models_count_is_refused(self, part, part_type):
        """``PartState`` takes any integer >= 1; the models' count is checked
        before any gather, so 2**70 is refused, not an ``OverflowError``."""
        pg = _toy_parse(assignment={"c": "u"})
        states = dict(pg.states, **{part: dataclasses.replace(pg.states[part], part_type=part_type)})
        pair = (part_type, 2) if part == "root" else (1, part_type)
        message = f"part types must lie in 1..2, got {pair}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            recompute_score(ParseGraph(states, {"c": "u"}, 0.0), _toy_grammar(), _toy_models(), _TOY_TABLE)

    @pytest.mark.parametrize("b_x, shown", [(1e308, "(inf, 4.0)"), (-1.7e308, "(-inf, 4.0)")])
    def test_a_displacement_past_the_float_range_is_refused(self, b_x, shown):
        """``a`` and ``b`` at finite x on opposite sides of 0, too far apart
        for their offset, child minus parent, to be a float."""
        pg = _toy_parse(assignment={"c": "u"})
        states = dict(pg.states)
        states["a"] = dataclasses.replace(states["a"], x=-1e308 if b_x > 0 else 1e308)
        states["b"] = dataclasses.replace(states["b"], x=b_x)
        message = f"displacement must be finite, got {shown}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            recompute_score(ParseGraph(states, {"c": "u"}, 0.0), _toy_grammar(), _toy_models(), _TOY_TABLE)

    def test_json_round_trip(self, tmp_path):
        g = _toy_grammar()
        pg = _toy_parse(score=6.5, assignment={"c": "u"})
        path = tmp_path / "parse.json"
        save_parse_graph(pg, str(path), g)
        back = load_parse_graph(str(path), g)
        assert back.states == pg.states
        assert back.attribute_assignment == {"c": "u"}
        assert back.total_score == 6.5
        models = _toy_models()
        rescored = [recompute_score(p, g, models, _TOY_TABLE) for p in (back, pg)]
        assert float.hex(rescored[0]) == float.hex(rescored[1])

    def test_partial_parse_scores_only_covered_edges(self):
        """Appearance 1.0 + 2.0, one covered psg edge at log 0.125, no dg edge."""
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
        models = _toy_models()
        total = recompute_score(pg, g, models, _TOY_TABLE)
        assert float.hex(total) == float.hex(1.0 + 2.0 + _log(models, ("root", "a"), 1, 1))
        assert math.isclose(total, 3.0 + math.log(0.125), rel_tol=0, abs_tol=1e-12)

    def test_a_part_listed_twice_is_refused_naming_both_states(self, tmp_path):
        """A parse document keeps one state per part: a second ``head``
        is refused, not kept over the first."""
        g = build_default_human_grammar()
        pg = ParseGraph({p: PartState(p, 1.0, 2.0, 1, f"{p}.0") for p in ("torso", "head")}, {}, 0.5)
        doc = pg.to_json_dict(g)
        doc["states"].append(dict(doc["states"][0], proposal="b"))
        message = "states[2] repeats part 'head' of states[0]"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            ParseGraph.from_json_dict(doc, g)
        path = tmp_path / "parse.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}: {message}") + "$"):
            load_parse_graph(str(path), g)
