"""Attributed and-or graph over human body parts.

This module holds the structural half of the grammar: the node hierarchy,
the two edge sets, the attribute catalog, and the parse-graph types that
inference produces.  The learned probability models live in
:mod:`posegrammar.relations`; appearance scores in
:mod:`posegrammar.appearance`.

A grammar carries two edge sets over the same nodes:

* ``psg_edges`` decompose a part into its constituents (parent -> child),
  e.g. the full body into upper and lower body.  They are derived from
  the and-nodes' ``children`` lists, which are the one statement of the
  decomposition.
* ``dg_edges`` connect geometrically dependent parts (parent -> child),
  e.g. the torso to the head.  In the default grammar they form a tree
  over the 14 atomic parts, rooted at the torso.

The alternatives an or-node would choose among (part scale, aspect
ratio) are the per-part ``part_type`` in ``1..part_type_count``, so a
grammar is an and-graph: a node with no children is a terminal, any other
an and-node, and a parse grounds every node.  Construction refuses a
grammar that breaks any structural rule, so every grammar is valid.  A
parse graph is its part states, its attribute assignment and its score;
the edges it scores are the grammar's edges with states for both
parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MemberDescriptorType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .jsonio import SCHEMA_VERSION, read_json, schema_version, versioned, write_json
from .jsonio import array, check_fields, count, instance, mapping, number, optional, record, text

NodeId = str
AttrId = str

UPPER_BODY: NodeId = "upper_body"
LOWER_BODY: NodeId = "lower_body"
FULL_BODY: NodeId = "full_body"

UPPER_BODY_MEMBERS: tuple[NodeId, ...] = (
    "head",
    "torso",
    "l_shoulder",
    "r_shoulder",
    "l_upper_arm",
    "l_lower_arm",
    "r_upper_arm",
    "r_lower_arm",
)
LOWER_BODY_MEMBERS: tuple[NodeId, ...] = (
    "l_hip",
    "r_hip",
    "l_upper_leg",
    "l_lower_leg",
    "r_upper_leg",
    "r_lower_leg",
)

# Atomic (terminal) parts, in canonical order.
ATOMIC_PARTS: tuple[NodeId, ...] = UPPER_BODY_MEMBERS + LOWER_BODY_MEMBERS

# Atomic joints covered by each composite part.
PART_MEMBERS: dict[NodeId, tuple[NodeId, ...]] = {
    UPPER_BODY: UPPER_BODY_MEMBERS,
    LOWER_BODY: LOWER_BODY_MEMBERS,
    FULL_BODY: ATOMIC_PARTS,
}


def require_atomic_joints(joints: Mapping[NodeId, object], what: str) -> None:
    """Refuse ``joints`` unless keyed by exactly the 14 atomic parts;
    ``what`` names the record in the error."""
    missing = [p for p in ATOMIC_PARTS if p not in joints]
    if missing:
        raise ValidationError(f"{what} misses joints {missing}")
    extra = sorted(set(joints) - set(ATOMIC_PARTS))
    if extra:
        raise ValidationError(f"{what} has unknown joints {extra}")


def part_keypoints(
    joints: Mapping[NodeId, tuple[float, float]],
) -> dict[NodeId, tuple[float, float]]:
    """Keypoints for all 17 parts: the 14 joints, then member centroids.

    The centroids follow in upper, lower, full body order.
    """
    pts = dict(joints)
    for part, members in PART_MEMBERS.items():
        xs = [joints[m][0] for m in members]
        ys = [joints[m][1] for m in members]
        pts[part] = (sum(xs) / len(xs), sum(ys) / len(ys))
    return pts


# Geometric dependency tree over atomic parts, rooted at the torso.
# Order matters: stick indices in evaluation follow this listing.
DEFAULT_DG_EDGES: tuple[tuple[NodeId, NodeId], ...] = (
    ("torso", "head"),
    ("torso", "l_shoulder"),
    ("l_shoulder", "l_upper_arm"),
    ("l_upper_arm", "l_lower_arm"),
    ("torso", "r_shoulder"),
    ("r_shoulder", "r_upper_arm"),
    ("r_upper_arm", "r_lower_arm"),
    ("torso", "l_hip"),
    ("l_hip", "l_upper_leg"),
    ("l_upper_leg", "l_lower_leg"),
    ("torso", "r_hip"),
    ("r_hip", "r_upper_leg"),
    ("r_upper_leg", "r_lower_leg"),
)

DEFAULT_PART_TYPE_COUNT = 9


@dataclass(frozen=True, slots=True)
class GrammarNode:
    """One node of the grammar: a terminal when it has no ``children``,
    else an and-node composing them.

    There are no or-nodes; a part's alternatives are its part types.
    """

    id: NodeId
    name: str
    children: tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self, _GRAMMAR_NODE_FIELDS)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GrammarNode":
        return cls(**_named_by_id(_GRAMMAR_NODE_FIELDS, doc))


@dataclass(frozen=True, slots=True)
class AttributeDef:
    """A categorical attribute with a fixed value vocabulary."""

    id: AttrId
    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        check_fields(self, _ATTRIBUTE_FIELDS)
        if len(self.domain) < 2:
            raise ValidationError(
                f"attribute {self.id!r}: domain needs at least two values, got {self.domain!r}"
            )
        if len(set(self.domain)) != len(self.domain):
            raise ValidationError(f"attribute {self.id!r}: duplicate domain values in {self.domain!r}")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "AttributeDef":
        return cls(**_named_by_id(_ATTRIBUTE_FIELDS, doc))


_GRAMMAR_NODE_FIELDS = record(id=text, name=optional(text, None), children=optional(array(text), ()))
_ATTRIBUTE_FIELDS = record(id=text, name=optional(text, None), domain=array(text))


def _named_by_id(spec: record, doc) -> dict:
    """``spec.present(doc)``, the ``name`` defaulting to the ``id``."""
    fields = spec.present(doc)
    if "name" not in doc:
        fields["name"] = fields["id"]
    return fields


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class AOGrammar:
    """Immutable structural grammar: nodes, both edge sets, attributes.

    The nodes form an and-graph; its terminals are the nodes with no
    children; the alternatives of the paper's or-nodes are part types in
    ``1..part_type_count``.  ``psg_edges`` is derived: ``(node.id, child)``
    for each node in listing order and each of its children in listed
    order.  So is ``expansion_order``, the order a search grounds parts in:
    :func:`parents_first` over the root, then the listing, so each part
    follows all of its decomposition and dependency parents.

    Construction checks the fields by the spec a grammar file is read
    through, then the structural rules, and refuses every violation at
    once in one :class:`ValidationError`: every grammar that exists is
    valid.  So the two edge sets are acyclic together, since every
    dependency endpoint is a terminal, which starts no decomposition edge.
    """

    root: NodeId
    nodes: tuple[GrammarNode, ...]
    dg_edges: tuple[tuple[NodeId, NodeId], ...]
    attributes: tuple[AttributeDef, ...] = ()
    part_type_count: int = DEFAULT_PART_TYPE_COUNT
    psg_edges: tuple[tuple[NodeId, NodeId], ...] = field(init=False)
    expansion_order: tuple[NodeId, ...] = field(init=False)
    _attr_by_id: dict[AttrId, AttributeDef] = field(init=False)
    _psg_parent: dict[NodeId, NodeId] = field(init=False)

    def __post_init__(self) -> None:
        check_fields(self, _GRAMMAR)
        psg_edges = tuple((n.id, c) for n in self.nodes for c in n.children)
        object.__setattr__(self, "psg_edges", psg_edges)
        violations = _violations(self)
        if violations:
            raise ValidationError("; ".join(violations))
        pool = [self.root] + [n.id for n in self.nodes if n.id != self.root]
        object.__setattr__(self, "expansion_order", tuple(parents_first(pool, psg_edges + self.dg_edges)[0]))
        object.__setattr__(self, "_attr_by_id", {a.id: a for a in self.attributes})
        object.__setattr__(self, "_psg_parent", {child: parent for parent, child in psg_edges})

    # -- lookups ---------------------------------------------------------

    @property
    def part_ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def terminal_ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes if not n.children)

    def attribute(self, attr_id: AttrId) -> AttributeDef:
        try:
            return self._attr_by_id[attr_id]
        except KeyError:
            raise MissingEntryError(f"unknown attribute {attr_id!r}") from None

    def psg_ancestors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Chain of decomposition parents from ``node_id`` up to the root."""
        out: list[NodeId] = []
        parent = self._psg_parent.get(node_id)
        while parent is not None:
            out.append(parent)
            parent = self._psg_parent.get(parent)
        return tuple(out)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "nodes": [{"id": n.id, "name": n.name, "children": list(n.children)} for n in self.nodes],
            "dg_edges": [list(e) for e in self.dg_edges],
            "attributes": [{"id": a.id, "name": a.name, "domain": list(a.domain)} for a in self.attributes],
            "part_type_count": self.part_type_count,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "AOGrammar":
        return cls(**_GRAMMAR.present(versioned(doc)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AOGrammar):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self) -> str:
        return (
            f"AOGrammar(root={self.root!r}, nodes={len(self.nodes)}, "
            f"psg_edges={len(self.psg_edges)}, dg_edges={len(self.dg_edges)}, "
            f"attributes={len(self.attributes)})"
        )


_GRAMMAR = record(
    root=text,
    nodes=array(instance(GrammarNode, GrammarNode.from_json_dict)),
    dg_edges=optional(array(array(text, 2)), ()),
    attributes=optional(array(instance(AttributeDef, AttributeDef.from_json_dict)), ()),
    part_type_count=optional(count, DEFAULT_PART_TYPE_COUNT),
)


def save_grammar(grammar: AOGrammar, path: str) -> None:
    write_json(path, grammar.to_json_dict())


def load_grammar(path: str) -> AOGrammar:
    return read_json(path, AOGrammar.from_json_dict)


def default_attributes() -> tuple[AttributeDef, ...]:
    """Default catalog of person attributes used by the synthetic benchmark."""
    spec = [
        ("gender", ("male", "female")),
        ("age", ("youth", "adult", "elderly")),
        ("hair_style", ("long_hair", "short_hair", "bald")),
        ("upper_cloth_type", ("t_shirt", "jumper", "suit", "no_cloth", "swimwear")),
        ("upper_cloth_length", ("long_sleeve", "short_sleeve", "no_sleeve")),
        ("lower_cloth_type", ("long_pants", "short_pants", "skirt", "jeans")),
        ("glasses", ("yes", "no")),
        ("hat", ("yes", "no")),
        ("backpack", ("yes", "no")),
    ]
    return tuple(AttributeDef(id=a, name=a.replace("_", " "), domain=d) for a, d in spec)


def build_default_human_grammar(attr_defs: Sequence[AttributeDef] | None = None) -> AOGrammar:
    """Build the 17-part human body grammar.

    One root (full body), two mid-level parts (upper and lower body), and
    14 atomic parts.  16 decomposition edges, 13 dependency edges.
    """
    if attr_defs is None:
        attr_defs = default_attributes()
    nodes = [
        GrammarNode(FULL_BODY, "full body", (UPPER_BODY, LOWER_BODY)),
        GrammarNode(UPPER_BODY, "upper body", UPPER_BODY_MEMBERS),
        GrammarNode(LOWER_BODY, "lower body", LOWER_BODY_MEMBERS),
    ]
    nodes.extend(GrammarNode(p, p.replace("_", " ")) for p in ATOMIC_PARTS)
    return AOGrammar(root=FULL_BODY, nodes=nodes, dg_edges=DEFAULT_DG_EDGES, attributes=attr_defs)


# -- validation ------------------------------------------------------------


def parents_first(
    nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]]
) -> tuple[list[NodeId], list[NodeId]]:
    """``nodes`` placed one by one, each time the first in ``nodes`` order
    with all its parents under the (parent, child) ``edges`` placed; and the
    nodes never placeable, on or below a cycle or a parent not in ``nodes``."""
    parents: dict[NodeId, set[NodeId]] = {}
    for parent, child in edges:
        parents.setdefault(child, set()).add(parent)
    order: list[NodeId] = []
    pool = list(nodes)
    while pool:
        for i, nid in enumerate(pool):
            if parents.get(nid, set()).issubset(order):
                order.append(pool.pop(i))
                break
        else:
            break
    return order, pool


def _forest_violations(kind: str, edges: Sequence[tuple[NodeId, NodeId]]) -> list[str]:
    """A cycle in ``edges``, or else each node with more than one parent."""
    if parents_first(dict.fromkeys(n for edge in edges for n in edge), edges)[1]:
        return [f"{kind} edges contain a cycle"]
    parents: dict[NodeId, list[NodeId]] = {}
    for parent, child in edges:
        parents.setdefault(child, []).append(parent)
    return [f"node {c!r} has multiple {kind} parents {sorted(ps)}" for c, ps in parents.items() if len(ps) > 1]


def _violations(grammar: AOGrammar) -> list[str]:
    """The structural rules the grammar's checked fields break, empty when
    there are none."""
    report: list[str] = []
    ids = [n.id for n in grammar.nodes]
    known = set(ids)

    if len(known) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        report.append(f"duplicate node ids: {dupes}")
    if not grammar.nodes:
        report.append("grammar has no nodes")
    if grammar.root not in known:
        report.append(f"root {grammar.root!r} is not a declared node")

    for n in grammar.nodes:
        if len(set(n.children)) != len(n.children):
            report.append(f"node {n.id!r} lists duplicate children")
        for c in n.children:
            if c not in known:
                report.append(f"node {n.id!r} references undeclared child {c!r}")

    for p, c in grammar.dg_edges:
        if p == c:
            report.append(f"dg self-edge on {p!r}")
        for end in (p, c):
            if end not in known:
                report.append(f"dg edge ({p!r}, {c!r}) references undeclared node {end!r}")
    if len(set(grammar.dg_edges)) != len(grammar.dg_edges):
        report.append("duplicate dg edges")

    report += _forest_violations("psg", grammar.psg_edges)
    if grammar.root in known:
        children = {n.id: n.children for n in grammar.nodes}
        reached = {grammar.root}
        frontier = [grammar.root]
        while frontier:
            for c in children[frontier.pop()]:
                if c in known and c not in reached:
                    reached.add(c)
                    frontier.append(c)
        unreached = sorted(known - reached)
        if unreached:
            report.append(f"nodes unreachable from root via psg edges: {unreached}")

    composite = {n.id for n in grammar.nodes if n.children}
    for p, c in grammar.dg_edges:
        for end in (p, c):
            if end in composite:
                report.append(f"dg edge ({p!r}, {c!r}) touches non-terminal node {end!r}")
    report += _forest_violations("dg", grammar.dg_edges)

    attr_ids = [a.id for a in grammar.attributes]
    if len(set(attr_ids)) != len(attr_ids):
        dupes = sorted({a for a in attr_ids if attr_ids.count(a) > 1})
        report.append(f"duplicate attribute ids: {dupes}")

    return report


# -- parse graphs -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PartState:
    """A grounded part: image position, chosen type, and source proposal."""

    part: NodeId
    x: float
    y: float
    part_type: int
    proposal_ref: str

    def __post_init__(self) -> None:
        check_fields(self, _PART_STATE_FIELDS)


_PART_STATE_FIELDS = record(part=text, x=number, y=number, part_type=count, proposal_ref=text)


@dataclass(frozen=True, slots=True)
class ParseGraph:
    """A fully grounded parse: one state per selected part plus its score.

    ``attribute_assignment`` is empty for parses produced without an
    attribute constraint; a constrained parse maps the constraining
    attribute to its fixed value.
    """

    states: Mapping[NodeId, PartState]
    attribute_assignment: Mapping[AttrId, str]
    total_score: float

    def __post_init__(self) -> None:
        check_fields(self, _PARSE_GRAPH_FIELDS)
        for part, st in self.states.items():
            if part != st.part:
                raise ValidationError(f"state keyed {part!r} describes part {st.part!r}")

    def to_json_dict(self, grammar: AOGrammar) -> dict:
        order = [p for p in grammar.part_ids if p in self.states]
        order.extend(sorted(set(self.states) - set(order)))
        return {
            "schema_version": SCHEMA_VERSION,
            "states": [
                {
                    "part": p,
                    "x": self.states[p].x,
                    "y": self.states[p].y,
                    "part_type": self.states[p].part_type,
                    "proposal": self.states[p].proposal_ref,
                }
                for p in order
            ],
            "attributes": dict(self.attribute_assignment),
            "total_score": self.total_score,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping, grammar: AOGrammar) -> "ParseGraph":
        d, first = _PARSE_DOC(doc), {}
        for j, s in enumerate(d["states"]):
            if (i := first.setdefault(s["part"], j)) != j:
                raise ValidationError(f"states[{j}] repeats part {s['part']!r} of states[{i}]")
        states = [PartState(s["part"], s["x"], s["y"], s["part_type"], s["proposal"]) for s in d["states"]]
        return cls({s.part: s for s in states}, d["attributes"], d["total_score"])


_PARSE_GRAPH_FIELDS = record(states=mapping(instance(PartState)), attribute_assignment=mapping(text), total_score=number)
# A parse file lists its states, names their proposal_ref ``proposal`` and
# the assignment ``attributes``.
_PARSE_DOC = record(
    schema_version=schema_version,
    states=array(record(part=text, x=number, y=number, part_type=count, proposal=text)),
    attributes=optional(mapping(text), {}),
    total_score=number,
)
_SLOTS = {cls: [vars(cls)[name] for name in cls.__slots__] for cls in (PartState, ParseGraph)}
_SET_SLOT = MemberDescriptorType.__set__  # sets a slot past the frozen ``__setattr__``


def _trusted(cls, *values):
    """The frozen dataclass ``cls`` with ``values`` in its fields, in order,
    unchecked: for values its field specs keep as they are, as the search's
    states built from :meth:`ProposalSet.from_columns`' checked columns."""
    obj = object.__new__(cls)
    for slot, value in zip(_SLOTS[cls], values):
        _SET_SLOT(slot, obj, value)
    return obj


def save_parse_graph(pg: ParseGraph, path: str, grammar: AOGrammar) -> None:
    write_json(path, pg.to_json_dict(grammar))


def load_parse_graph(path: str, grammar: AOGrammar) -> ParseGraph:
    return read_json(path, lambda doc: ParseGraph.from_json_dict(doc, grammar))


def recompute_score(pg: ParseGraph, grammar: AOGrammar, models, scores) -> float:
    """Recompute a parse graph's score from scratch, summed as the search sums it.

    The appearance term follows the objective the parse was produced
    under: the assigned values' scores, or with an empty assignment each
    attribute's best value score.  From ``0.0``, each part with a state
    adds, in ``grammar.expansion_order``, its appearance term, then the
    term of each edge with states for both parts that closes at it: its
    decomposition edge's co-occurrence log entry, then its dependency
    edge's displacement log density.  Each model is read in one call.
    """
    states = pg.states
    missing = set(states) - set(grammar.part_ids)
    if missing:
        raise MissingEntryError(f"parse graph states name unknown parts {sorted(missing)}")
    parts = [p for p in grammar.expansion_order if p in states]
    [app] = scores.appearance(scores.rows([states[p].proposal_ref for p in parts]), grammar.attributes, [pg.attribute_assignment])
    psg, dg = ([(p, c) for p, c in edges if p in states and c in states] for edges in (grammar.psg_edges, grammar.dg_edges))
    t, cells = models.syntactic.part_type_count, []
    for parent, child in psg:
        row, pair = models.syntactic.row((parent, child)), (states[parent].part_type, states[child].part_type)
        if max(pair) > t:
            raise ValidationError(f"part types must lie in 1..{t}, got {pair}")
        cells.append((row, pair[0] - 1, pair[1] - 1))
    offsets = [(states[c].x - states[p].x, states[c].y - states[p].y) for p, c in dg]
    for dx, dy in offsets:
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValidationError(f"displacement must be finite, got ({dx}, {dy})")
    terms = {part: [term] for part, term in zip(parts, app.tolist())}
    relations = models.syntactic.logs[tuple(np.array(cells, dtype=int).reshape(-1, 3).T)].tolist()
    relations += models.kinematic.log_densities(dg, np.reshape(offsets, (-1, 1, 2)))[:, 0].tolist()
    for (_parent, child), term in zip(psg + dg, relations):
        terms[child].append(term)
    total = 0.0
    for part_terms in terms.values():
        for term in part_terms:
            total += term
    if not math.isfinite(total):
        raise ValidationError("recomputed parse graph score is not finite")
    return total
