"""Attributed and-or graph over human body parts.

This module holds the structural half of the grammar: the node hierarchy,
the two edge sets, the attribute catalog, and the parse-graph types that
inference produces.  The learned probability models live in
:mod:`posegrammar.relations`; appearance scores in
:mod:`posegrammar.appearance`.

A grammar carries two edge sets over the same nodes:

* ``psg_edges`` decompose a part into its constituents (parent -> child),
  e.g. the full body into upper and lower body.
* ``dg_edges`` connect geometrically dependent parts (parent -> child),
  e.g. the torso to the head.  In the default grammar they form a tree
  over the 14 atomic parts, rooted at the torso.

The alternatives an or-node would choose among (part scale, aspect
ratio) are the per-part ``part_type`` in ``1..part_type_count``, so a
grammar is an and-graph: every node is an and-node or a terminal, and a
parse grounds every node.  A parse graph is its part states, its
attribute assignment and its score; the edges it scores are the grammar's
edges whose two parts both have states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import MissingEntryError, ValidationError
from .jsonio import SCHEMA_VERSION, FieldError, read_json, schema_version, versioned, write_json
from .jsonio import array, check_fields, count, instance, mapping, number, optional, record, text

NodeId = str
AttrId = str

# Atomic (terminal) parts, in canonical order.
ATOMIC_PARTS: tuple[NodeId, ...] = (
    "head",
    "torso",
    "l_shoulder",
    "r_shoulder",
    "l_upper_arm",
    "l_lower_arm",
    "r_upper_arm",
    "r_lower_arm",
    "l_hip",
    "r_hip",
    "l_upper_leg",
    "l_lower_leg",
    "r_upper_leg",
    "r_lower_leg",
)

UPPER_BODY: NodeId = "upper_body"
LOWER_BODY: NodeId = "lower_body"
FULL_BODY: NodeId = "full_body"
MID_PARTS: tuple[NodeId, ...] = (UPPER_BODY, LOWER_BODY)

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

    The centroids follow in upper, lower, full body order; proposal
    labeling breaks distance ties by this order.
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


class NodeKind(str, Enum):
    AND = "and"
    TERMINAL = "terminal"


@dataclass(frozen=True)
class GrammarNode:
    """One node of the grammar: an and-node or a terminal.

    There are no or-nodes; a part's alternatives are its part types.  Any
    other kind is refused here.  Arity rules (terminals childless,
    and-nodes composing) are reported by :func:`validate` rather than
    enforced here, so that malformed documents can be loaded and
    diagnosed.
    """

    id: NodeId
    kind: NodeKind
    name: str
    children: tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        check_fields(self, _GRAMMAR_NODE_FIELDS)
        try:
            kind = NodeKind(self.kind)
        except ValueError:
            allowed = [k.value for k in NodeKind]
            raise ValidationError(
                f"grammar node {self.id!r}: kind {self.kind!r} is not one of {allowed}"
            ) from None
        object.__setattr__(self, "kind", kind)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "GrammarNode":
        return cls(**_named_by_id(_GRAMMAR_NODE_FIELDS, doc))

    @property
    def is_terminal(self) -> bool:
        return self.kind is NodeKind.TERMINAL


@dataclass(frozen=True)
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


_GRAMMAR_NODE_FIELDS = record(id=text, kind=text, name=optional(text, None), children=optional(array(text), ()))
_ATTRIBUTE_FIELDS = record(id=text, name=optional(text, None), domain=array(text))


def _named_by_id(spec: record, doc) -> dict:
    """``spec.present(doc)``, the ``name`` defaulting to the ``id``."""
    fields = spec.present(doc)
    if "name" not in doc:
        fields["name"] = fields["id"]
    return fields


class AOGrammar:
    """Immutable structural grammar: nodes, both edge sets, attributes.

    The nodes form an and-graph; the alternatives of the paper's
    or-nodes are part types in ``1..part_type_count``.

    Construction accepts structurally broken graphs so that
    :func:`validate` can report on them; inference and learning assume a
    grammar whose validation report is clean.
    """

    def __init__(
        self,
        root: NodeId,
        nodes: Sequence[GrammarNode],
        psg_edges: Iterable[tuple[NodeId, NodeId]],
        dg_edges: Iterable[tuple[NodeId, NodeId]],
        attributes: Sequence[AttributeDef] = (),
        part_type_count: int = DEFAULT_PART_TYPE_COUNT,
    ) -> None:
        self.root = root
        self.nodes = tuple(nodes)
        self.psg_edges = tuple(map(tuple, psg_edges))
        self.dg_edges = tuple(map(tuple, dg_edges))
        self.attributes = tuple(attributes)
        self.part_type_count = part_type_count

        self._node_by_id = {n.id: n for n in self.nodes}
        self._attr_by_id = {a.id: a for a in self.attributes}
        self._psg_parents: dict[NodeId, list[NodeId]] = {}
        for parent, child in self.psg_edges:
            self._psg_parents.setdefault(child, []).append(parent)
        self._dg_parents: dict[NodeId, list[NodeId]] = {}
        for parent, child in self.dg_edges:
            self._dg_parents.setdefault(child, []).append(parent)

    # -- lookups ---------------------------------------------------------

    @property
    def part_ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes)

    @property
    def terminal_ids(self) -> tuple[NodeId, ...]:
        return tuple(n.id for n in self.nodes if n.is_terminal)

    def node(self, node_id: NodeId) -> GrammarNode:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise MissingEntryError(f"unknown grammar node {node_id!r}") from None

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._node_by_id

    def attribute(self, attr_id: AttrId) -> AttributeDef:
        try:
            return self._attr_by_id[attr_id]
        except KeyError:
            raise MissingEntryError(f"unknown attribute {attr_id!r}") from None

    def psg_parent(self, node_id: NodeId) -> NodeId | None:
        parents = self._psg_parents.get(node_id)
        return parents[0] if parents else None

    def dg_parent(self, node_id: NodeId) -> NodeId | None:
        parents = self._dg_parents.get(node_id)
        return parents[0] if parents else None

    def psg_ancestors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Chain of decomposition parents from ``node_id`` up to the root."""
        out: list[NodeId] = []
        seen = {node_id}
        cur = self.psg_parent(node_id)
        while cur is not None and cur not in seen:
            out.append(cur)
            seen.add(cur)
            cur = self.psg_parent(cur)
        return tuple(out)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "root": self.root,
            "nodes": [{**vars(n), "kind": n.kind.value, "children": list(n.children)} for n in self.nodes],
            "psg_edges": [list(e) for e in self.psg_edges],
            "dg_edges": [list(e) for e in self.dg_edges],
            "attributes": [{**vars(a), "domain": list(a.domain)} for a in self.attributes],
            "part_type_count": self.part_type_count,
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "AOGrammar":
        return cls(**_GRAMMAR(versioned(doc)))

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


_EDGES = optional(array(array(text, 2)), ())
_GRAMMAR = record(
    root=text,
    nodes=array(GrammarNode.from_json_dict),
    psg_edges=_EDGES,
    dg_edges=_EDGES,
    attributes=optional(array(AttributeDef.from_json_dict), ()),
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


def build_default_human_grammar(
    attr_defs: Sequence[AttributeDef] | None = None,
    part_type_count: int = DEFAULT_PART_TYPE_COUNT,
) -> AOGrammar:
    """Build the 17-part human body grammar.

    One root (full body), two mid-level parts (upper and lower body), and
    14 atomic parts.  16 decomposition edges, 13 dependency edges.
    """
    if attr_defs is None:
        attr_defs = default_attributes()
    seen: set[AttrId] = set()
    for a in attr_defs:
        if a.id in seen:
            raise ValidationError(f"duplicate attribute id {a.id!r}")
        seen.add(a.id)

    nodes = [
        GrammarNode(FULL_BODY, NodeKind.AND, "full body", (UPPER_BODY, LOWER_BODY)),
        GrammarNode(UPPER_BODY, NodeKind.AND, "upper body", UPPER_BODY_MEMBERS),
        GrammarNode(LOWER_BODY, NodeKind.AND, "lower body", LOWER_BODY_MEMBERS),
    ]
    nodes.extend(
        GrammarNode(p, NodeKind.TERMINAL, p.replace("_", " ")) for p in ATOMIC_PARTS
    )

    psg_edges = [(FULL_BODY, UPPER_BODY), (FULL_BODY, LOWER_BODY)]
    psg_edges.extend((UPPER_BODY, m) for m in UPPER_BODY_MEMBERS)
    psg_edges.extend((LOWER_BODY, m) for m in LOWER_BODY_MEMBERS)

    return AOGrammar(
        root=FULL_BODY,
        nodes=nodes,
        psg_edges=psg_edges,
        dg_edges=DEFAULT_DG_EDGES,
        attributes=tuple(attr_defs),
        part_type_count=part_type_count,
    )


# -- validation ------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of structural validation: empty ``violations`` means valid."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __bool__(self) -> bool:
        return self.ok


def parents_first(
    nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]]
) -> tuple[list[NodeId], list[NodeId]]:
    """``nodes`` placed one by one, each time the first in ``nodes`` order
    whose parents under the (parent, child) ``edges`` are all placed; and the
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


def _cyclic(edges: Sequence[tuple[NodeId, NodeId]]) -> bool:
    return bool(parents_first(dict.fromkeys(n for edge in edges for n in edge), edges)[1])


def validate(grammar: AOGrammar) -> ValidationReport:
    """Check structural well-formedness; returns a report, never raises."""
    report = ValidationReport()
    ids = [n.id for n in grammar.nodes]
    known = set(ids)

    if len(known) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        report.add(f"duplicate node ids: {dupes}")
    if not grammar.nodes:
        report.add("grammar has no nodes")
    if grammar.root not in known:
        report.add(f"root {grammar.root!r} is not a declared node")
    try:
        count(grammar.part_type_count)
    except FieldError as exc:
        report.add(str(exc.within("part_type_count")))

    for n in grammar.nodes:
        n_children = len(n.children)
        if n.kind is NodeKind.TERMINAL and n_children:
            report.add(f"terminal node {n.id!r} has children {list(n.children)}")
        elif n.kind is NodeKind.AND and n_children < 1:
            report.add(f"and-node {n.id!r} has no children")
        if len(set(n.children)) != n_children:
            report.add(f"node {n.id!r} lists duplicate children")
        for c in n.children:
            if c not in known:
                report.add(f"node {n.id!r} references undeclared child {c!r}")

    for label, edges in (("psg", grammar.psg_edges), ("dg", grammar.dg_edges)):
        for p, c in edges:
            if p == c:
                report.add(f"{label} self-edge on {p!r}")
            for end in (p, c):
                if end not in known:
                    report.add(f"{label} edge ({p!r}, {c!r}) references undeclared node {end!r}")
        if len(set(edges)) != len(edges):
            report.add(f"duplicate {label} edges")

    # Decomposition edges must mirror the children lists.
    psg_set = set(grammar.psg_edges)
    child_set = {(n.id, c) for n in grammar.nodes for c in n.children}
    for edge in sorted(psg_set - child_set):
        report.add(f"psg edge {edge} not present in any children list")
    for edge in sorted(child_set - psg_set):
        report.add(f"children list pair {edge} missing from psg_edges")

    if _cyclic(grammar.psg_edges):
        report.add("psg edges contain a cycle")
    else:
        # With acyclic edges, check single-parenthood and root reachability.
        for child, parents in grammar._psg_parents.items():
            if len(parents) > 1:
                report.add(f"node {child!r} has multiple psg parents {sorted(parents)}")
        if grammar.root in known:
            reached = {grammar.root}
            frontier = [grammar.root]
            while frontier:
                cur = frontier.pop()
                if cur not in grammar._node_by_id:
                    continue
                for c in grammar.node(cur).children:
                    if c in known and c not in reached:
                        reached.add(c)
                        frontier.append(c)
            unreached = sorted(known - reached)
            if unreached:
                report.add(f"nodes unreachable from root via psg edges: {unreached}")

    terminals = set(grammar.terminal_ids)
    for p, c in grammar.dg_edges:
        for end in (p, c):
            if end in known and end not in terminals:
                report.add(f"dg edge ({p!r}, {c!r}) touches non-terminal node {end!r}")
    if _cyclic(grammar.dg_edges):
        report.add("dg edges contain a cycle")
    else:
        for child, parents in grammar._dg_parents.items():
            if len(parents) > 1:
                report.add(f"node {child!r} has multiple dg parents {sorted(parents)}")

    attr_ids = [a.id for a in grammar.attributes]
    if len(set(attr_ids)) != len(attr_ids):
        dupes = sorted({a for a in attr_ids if attr_ids.count(a) > 1})
        report.add(f"duplicate attribute ids: {dupes}")

    return report


# -- parse graphs -----------------------------------------------------------


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        d = _PARSE_DOC(doc)
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


def save_parse_graph(pg: ParseGraph, path: str, grammar: AOGrammar) -> None:
    write_json(path, pg.to_json_dict(grammar))


def load_parse_graph(path: str, grammar: AOGrammar) -> ParseGraph:
    return read_json(path, lambda doc: ParseGraph.from_json_dict(doc, grammar))


def recompute_score(pg: ParseGraph, grammar: AOGrammar, models, scores) -> float:
    """Recompute a parse graph's score from scratch.

    The appearance term follows the objective the parse was produced
    under: with a non-empty attribute assignment every part contributes
    the assigned value's score for each assigned attribute; with an empty
    assignment every part contributes, for each attribute in the grammar,
    its best value score (the unconstrained objective).  Relation terms
    sum, in grammar order, the syntactic score over the decomposition
    edges and the geometric score over the dependency edges whose two
    parts both have states.
    """
    refs = [pg.states[p].proposal_ref for p in grammar.part_ids if p in pg.states]
    app = scores.appearance(scores.rows(refs), grammar.attributes, pg.attribute_assignment)
    total = 0.0
    for term in app.tolist():
        total += term
    missing = [p for p in pg.states if not grammar.has_node(p)]
    if missing:
        raise MissingEntryError(f"parse graph states name unknown parts {sorted(missing)}")

    states = pg.states
    for parent, child in grammar.psg_edges:
        if parent in states and child in states:
            ps, cs = states[parent], states[child]
            total += models.syntactic.score((parent, child), ps.part_type, cs.part_type)
    for parent, child in grammar.dg_edges:
        if parent in states and child in states:
            ps, cs = states[parent], states[child]
            total += models.kinematic.score((parent, child), cs.x - ps.x, cs.y - ps.y)
    if not math.isfinite(total):
        raise ValidationError("recomputed parse graph score is not finite")
    return total
