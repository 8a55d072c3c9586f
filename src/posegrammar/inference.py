"""Parse inference: beam search over part proposals.

Exact dynamic programming is ruled out by the loops the two edge sets
create together, so parsing is a beam search.  It seeds candidates from
the root part's proposals and grounds one part per step in a fixed
expansion order; whenever a step grounds a part, every grammar edge whose
endpoints are now both grounded contributes its relation score.  Only the
top ``beam_width`` candidates survive a step, ordered by score and, on
ties, by the tuple of chosen proposal ids.

Two objectives share this machinery:

* constrained: every part is scored under one fixed attribute value,
  treating the attribute as a global constraint on the whole body;
* unconstrained: every part contributes its best value score for every
  attribute, each part free to pick its own values.

:func:`brute_force_parse` enumerates the full proposal lattice with the
same step arithmetic, so on small instances a wide-enough beam must match
it exactly; it is the testing oracle, guarded against blowup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .appearance import ProposalSet
from .errors import (
    EnumerationLimitError,
    InfeasibleParseError,
    ValidationError,
)
from .grammar import AOGrammar, AttrId, NodeId, ParseGraph, PartState
from .relations import AttributeAssociation, RelationModels, _mixture_logpdf

COMBINATION_GUARD = 10_000_000

Objective = str | tuple[str, AttrId, str]


@dataclass(frozen=True)
class BeamConfig:
    """Beam width and part expansion order (None picks the default order)."""

    beam_width: int = 100
    expansion_order: tuple[NodeId, ...] | None = None

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValidationError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.expansion_order is not None:
            object.__setattr__(self, "expansion_order", tuple(self.expansion_order))


@dataclass
class PartialParse:
    """Prefix of a parse during beam search: grounded parts plus score."""

    assigned: dict[NodeId, PartState] = field(default_factory=dict)
    score: float = 0.0


def default_expansion_order(grammar: AOGrammar) -> tuple[NodeId, ...]:
    """Root-first order placing each part after both of its parents.

    Repeatedly picks the first node, in grammar listing order, whose
    decomposition parent and dependency parent are already placed.  For
    the default human grammar this grounds the torso right after the body
    levels and walks each limb outward.
    """
    order: list[NodeId] = [grammar.root]
    placed = {grammar.root}
    pool = [p for p in grammar.part_ids if p != grammar.root]
    while pool:
        for i, nid in enumerate(pool):
            pp = grammar.psg_parent(nid)
            dp = grammar.dg_parent(nid)
            if (pp is None or pp in placed) and (dp is None or dp in placed):
                order.append(nid)
                placed.add(nid)
                pool.pop(i)
                break
        else:
            raise ValidationError(
                f"cannot derive an expansion order: parts {pool} never become placeable"
            )
    return tuple(order)


def _validated_order(grammar: AOGrammar, cfg: BeamConfig) -> tuple[NodeId, ...]:
    if cfg.expansion_order is None:
        return default_expansion_order(grammar)
    order = cfg.expansion_order
    if sorted(order) != sorted(grammar.part_ids):
        raise ValidationError("expansion_order must be a permutation of the grammar's parts")
    if order[0] != grammar.root:
        raise ValidationError(
            f"expansion_order must start at the root {grammar.root!r}, got {order[0]!r}"
        )
    position = {p: i for i, p in enumerate(order)}
    for part in order:
        for parent in (grammar.psg_parent(part), grammar.dg_parent(part)):
            if parent is not None and position[parent] > position[part]:
                raise ValidationError(
                    f"expansion_order places {part!r} before its parent {parent!r}"
                )
    return order


class _Step:
    """One expansion step: the part to ground and the edges it closes."""

    __slots__ = ("part", "closings")

    def __init__(self, part: NodeId):
        self.part = part
        # Entries: (other_position, kind, payload, cur_is_child) where kind
        # is "s" (payload: log table) or "k" (payload: prepared mixture).
        self.closings: list[tuple[int, str, object, bool]] = []


def _build_plan(grammar: AOGrammar, models: RelationModels, order: Sequence[NodeId]) -> list[_Step]:
    position = {p: i for i, p in enumerate(order)}
    steps = [_Step(p) for p in order]
    for edge in grammar.psg_edges:
        parent, child = edge
        at = max(position[parent], position[child])
        cur_is_child = position[child] == at
        other = min(position[parent], position[child])
        steps[at].closings.append((other, "s", models.syntactic.log_matrix(edge), cur_is_child))
    for edge in grammar.dg_edges:
        parent, child = edge
        at = max(position[parent], position[child])
        cur_is_child = position[child] == at
        other = min(position[parent], position[child])
        steps[at].closings.append((other, "k", models.kinematic.prepared(edge), cur_is_child))
    return steps


def _assignment(grammar: AOGrammar, objective: Objective) -> dict[AttrId, str]:
    """The attribute assignment ``objective`` imposes: empty when unconstrained."""
    kind = objective if isinstance(objective, str) else objective[0]
    if kind == "unconstrained":
        return {}
    if kind != "constrained":
        raise ValidationError(f"unknown objective {objective!r}")
    _, attr_id, value = objective
    attr = grammar.attribute(attr_id)
    if value not in attr.domain:
        raise ValidationError(
            f"value {value!r} not in domain of attribute {attr_id!r}: {attr.domain}"
        )
    return {attr_id: value}


def _prefetch_buckets(
    grammar: AOGrammar,
    pset: ProposalSet,
    order: Sequence[NodeId],
    assignment: Mapping[AttrId, str],
) -> list[list[tuple[str, float, float, int, float]]]:
    """Per step: (id, x, y, type, appearance term) for each proposal."""
    if assignment:
        [(attr_id, value)] = assignment.items()
    buckets = []
    for part in order:
        props = pset.proposals_for(part)
        if not props:
            raise InfeasibleParseError(f"part {part!r} has no proposals")
        rows = []
        for p in props:
            if assignment:
                app = pset.scores.lookup(p.id, attr_id, value, part=part)
            else:
                app = 0.0
                for a in grammar.attributes:
                    app += max(
                        pset.scores.lookup(p.id, a.id, v, part=part) for v in a.domain
                    )
            rows.append((p.id, p.x, p.y, p.part_type, app))
        buckets.append(rows)
    return buckets


def _candidate_key(cand: tuple[float, tuple[str, ...], tuple[int, ...]]):
    return (-cand[0], cand[1])


def _resolve_closings(closings, buckets, idxs):
    resolved = []
    for other_pos, kind, payload, cur_is_child in closings:
        resolved.append((kind, payload, cur_is_child, buckets[other_pos][idxs[other_pos]]))
    return resolved


def _step_score(score, row, resolved):
    pid, x, y, t, app = row
    s = score + app
    for kind, payload, cur_is_child, other in resolved:
        _, ox, oy, ot, _ = other
        if kind == "s":
            s += payload[ot - 1][t - 1] if cur_is_child else payload[t - 1][ot - 1]
        else:
            if cur_is_child:
                s += _mixture_logpdf(payload, x - ox, y - oy)
            else:
                s += _mixture_logpdf(payload, ox - x, oy - y)
    return s


def _run_beam(steps, buckets, beam_width, collect_trace=None, order=None):
    first = buckets[0]
    beam = [(row[4], (row[0],), (j,)) for j, row in enumerate(first)]
    beam.sort(key=_candidate_key)
    del beam[beam_width:]
    if collect_trace is not None:
        collect_trace.append(_trace_entry(steps, buckets, beam, 1, order))
    for si in range(1, len(steps)):
        bucket = buckets[si]
        closings = steps[si].closings
        new = []
        for score, idkey, idxs in beam:
            resolved = _resolve_closings(closings, buckets, idxs)
            for j, row in enumerate(bucket):
                new.append((_step_score(score, row, resolved), idkey + (row[0],), idxs + (j,)))
        new.sort(key=_candidate_key)
        del new[beam_width:]
        beam = new
        if collect_trace is not None:
            collect_trace.append(_trace_entry(steps, buckets, beam, si + 1, order))
    return beam


def _trace_entry(steps, buckets, beam, depth, order):
    entries = []
    for score, _idkey, idxs in beam:
        assigned = {}
        for si in range(depth):
            pid, x, y, t, _ = buckets[si][idxs[si]]
            part = order[si]
            assigned[part] = PartState(part=part, x=x, y=y, part_type=t, proposal_ref=pid)
        entries.append(PartialParse(assigned=assigned, score=score))
    return tuple(entries)


def _build_parse_graph(grammar, order, buckets, cand, assignment) -> ParseGraph:
    score, _idkey, idxs = cand
    states = {}
    for si, part in enumerate(order):
        pid, x, y, t, _ = buckets[si][idxs[si]]
        states[part] = PartState(part=part, x=x, y=y, part_type=t, proposal_ref=pid)
    return ParseGraph(
        states=states,
        used_psg_edges=tuple(grammar.psg_edges),
        used_dg_edges=tuple(grammar.dg_edges),
        attribute_assignment=dict(assignment),
        total_score=score,
    )


def _prepare(grammar, models, pset, objective, cfg):
    """Validated order, assignment, appearance buckets and step plan."""
    order = _validated_order(grammar, cfg or BeamConfig())
    assignment = _assignment(grammar, objective)
    buckets = _prefetch_buckets(grammar, pset, order, assignment)
    return order, assignment, buckets, _build_plan(grammar, models, order)


def _search(grammar, models, pset, objective, cfg, collect_trace) -> ParseGraph:
    """Beam search for the best parse under ``objective``."""
    cfg = cfg or BeamConfig()
    order, assignment, buckets, steps = _prepare(grammar, models, pset, objective, cfg)
    beam = _run_beam(steps, buckets, cfg.beam_width, collect_trace, order)
    return _build_parse_graph(grammar, order, buckets, beam[0], assignment)


def parse_constrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    attr: AttrId,
    value: str,
    cfg: BeamConfig | None = None,
    *,
    collect_trace: list | None = None,
) -> ParseGraph:
    """Best parse with ``attr`` fixed to ``value`` on every part."""
    return _search(grammar, models, pset, ("constrained", attr, value), cfg, collect_trace)


def parse_unconstrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    cfg: BeamConfig | None = None,
    *,
    collect_trace: list | None = None,
) -> ParseGraph:
    """Best parse with every part free to pick its own attribute values."""
    return _search(grammar, models, pset, "unconstrained", cfg, collect_trace)


def brute_force_parse(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    objective: Objective,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Exact argmax by exhaustive enumeration; the testing oracle.

    Refuses instances whose proposal lattice exceeds ``COMBINATION_GUARD``
    combinations.  Uses the same per-step arithmetic and tie rule as the
    beam, so a beam covering the full lattice reproduces its result
    bit for bit.
    """
    order, assignment, buckets, steps = _prepare(grammar, models, pset, objective, cfg)

    total = 1
    for b in buckets:
        total *= len(b)
        if total > COMBINATION_GUARD:
            raise EnumerationLimitError(
                f"{total}+ proposal combinations exceed the guard of {COMBINATION_GUARD}"
            )

    n = len(steps)
    best: list = [None]

    def descend(si: int, score: float, idkey: tuple, idxs: tuple) -> None:
        if si == n:
            cand = (score, idkey, idxs)
            if best[0] is None or _candidate_key(cand) < _candidate_key(best[0]):
                best[0] = cand
            return
        resolved = _resolve_closings(steps[si].closings, buckets, idxs)
        for j, row in enumerate(buckets[si]):
            descend(si + 1, _step_score(score, row, resolved), idkey + (row[0],), idxs + (j,))

    descend(0, 0.0, (), ())
    return _build_parse_graph(grammar, order, buckets, best[0], assignment)


def select_final(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    attr_values: Sequence[tuple[AttrId, str]] | None = None,
    cfg: BeamConfig | None = None,
) -> tuple[ParseGraph, dict[tuple[AttrId, str], ParseGraph]]:
    """Run one constrained parse per (attribute, value) pair; keep the best.

    Returns the winning parse graph and the full pair-to-parse map.  Ties
    go to the earliest pair in list order.
    """
    if attr_values is None:
        attr_values = [(a.id, v) for a in grammar.attributes for v in a.domain]
    attr_values = list(attr_values)
    if not attr_values:
        raise ValidationError("select_final needs at least one (attribute, value) pair")
    per_pair: dict[tuple[AttrId, str], ParseGraph] = {}
    best_pair = None
    for attr, value in attr_values:
        pg = parse_constrained(grammar, models, pset, attr, value, cfg)
        per_pair[(attr, value)] = pg
        if best_pair is None or pg.total_score > per_pair[best_pair].total_score:
            best_pair = (attr, value)
    return per_pair[best_pair], per_pair


def _readout(
    pg: ParseGraph, pset: ProposalSet, assoc: AttributeAssociation, attr: AttrId, value: str
) -> float:
    """Score of ``attr=value`` summed over the parse's parts associated with ``attr``."""
    total = 0.0
    for part, st in pg.states.items():
        if assoc.contains(part, attr):
            total += pset.scores.lookup(st.proposal_ref, attr, value, part=part)
    return total


def attribute_scores(
    per_pair: Mapping[tuple[AttrId, str], ParseGraph],
    pset: ProposalSet,
    assoc: AttributeAssociation,
) -> dict[AttrId, dict[str, float]]:
    """Attribute classification scores from attribute-specific parses.

    For each (attribute, value) pair, sums that value's appearance score
    over the parts of the pair's parse graph that are associated with the
    attribute.  Parts outside the association contribute nothing.
    """
    out: dict[AttrId, dict[str, float]] = {}
    for (attr, value), pg in per_pair.items():
        out.setdefault(attr, {})[value] = _readout(pg, pset, assoc, attr, value)
    return out
