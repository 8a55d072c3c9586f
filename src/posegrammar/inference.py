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

Each step reads its part's columnar :class:`~posegrammar.appearance.Bucket`
straight from the proposal set.  Relation scores come from tables, not
from per-candidate math.  Every edge closed at a step has a table with
one row per proposal of the part grounded first and one column per
proposal of the part grounded second: the co-occurrence table gathers the
edge's log matrix by the buckets' ``types``, and the displacement table
evaluates the edge's mixture log-density on the grid of ``xy`` offsets.
A row is computed the first time a search reads it.  The tables are the
only thing cached per :class:`ProposalSet` (weakly, so a dropped set
frees them), kept per relation model, so the constrained parses of every
(attribute, value) pair, the unconstrained parse and the oracle read the
same numbers.  The appearance term is one vector per objective, gathered
from the proposal set's immutable score grid
(:meth:`ScoreTable.appearance`) and sliced per bucket; a grammar pair the
grid lacks is refused before any search step.  A beam step is one (B, N)
numpy sum, beam score plus appearance plus each closing's table row, cut
by ``np.lexsort`` on score and id-tuple rank.

:func:`brute_force_parse` enumerates the full proposal lattice and reads
the same tables through the same sum, so on small instances a wide-enough
beam must match it exactly; it is the testing oracle, guarded against
blowup.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .appearance import Bucket, ProposalSet
from .errors import (
    EnumerationLimitError,
    InfeasibleParseError,
    ValidationError,
)
from .grammar import AOGrammar, AttrId, NodeId, ParseGraph, PartState
from .relations import AttributeAssociation, Edge, RelationModels, SyntacticTable

COMBINATION_GUARD = 10_000_000

Objective = str | tuple[str, AttrId, str]


@dataclass(frozen=True)
class BeamConfig:
    """Beam width."""

    beam_width: int = 100

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValidationError(f"beam_width must be >= 1, got {self.beam_width}")


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


# The expansion order of each grammar, by ``id``; a dropped grammar frees
# its entry.  Grammars compare by structure and so are not hashable.
_ORDERS: dict[int, tuple[NodeId, ...]] = {}


def _expansion_order(grammar: AOGrammar) -> tuple[NodeId, ...]:
    order = _ORDERS.get(id(grammar))
    if order is None:
        order = _ORDERS[id(grammar)] = default_expansion_order(grammar)
        weakref.finalize(grammar, _ORDERS.pop, id(grammar), None)
    return order


class _Table:
    """Relation scores of one edge between the part grounded first and the
    part grounded second: one row per proposal of the first, one column
    per proposal of the second.  A row is computed the first time a search
    reads it."""

    __slots__ = ("source", "edge", "log", "first", "second", "second_is_child", "values", "filled")

    def __init__(self, source, edge: Edge, first: Bucket, second: Bucket):
        self.source = source
        self.edge = edge
        # Looked up now, so that a missing model entry fails before any search.
        if isinstance(source, SyntacticTable):
            self.log = source.log_matrix(edge)
            for bucket in (first, second):
                beyond = np.flatnonzero(bucket.types > source.part_type_count)
                if beyond.size:
                    j = beyond[0]
                    raise ValidationError(
                        f"edge {edge[0]}->{edge[1]}: proposal {bucket.ids[j]!r} has part_type "
                        f"{bucket.types[j]}, beyond the models' part_type_count {source.part_type_count}"
                    )
        else:
            self.log = None
            source.mixture(edge)
        self.first = first
        self.second = second
        self.second_is_child = second.part == edge[1]
        self.values = np.empty((len(first.ids), len(second.ids)))
        self.filled = np.zeros(len(first.ids), dtype=bool)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the first part's proposals ``idx``, shape (len(idx), N)."""
        todo = idx[~self.filled[idx]]
        if todo.size:
            todo = np.unique(todo)
            self.values[todo] = self._compute(todo)
            self.filled[todo] = True
        return self.values[idx]

    def _compute(self, rows: np.ndarray) -> np.ndarray:
        first, second = self.first, self.second
        if self.log is not None:
            if self.second_is_child:
                return self.log[np.ix_(first.types[rows] - 1, second.types - 1)]
            return self.log[np.ix_(second.types - 1, first.types[rows] - 1)].T
        offsets = second.xy[None, :, :] - first.xy[rows, None, :]
        if not self.second_is_child:
            offsets = -offsets
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.source.log_density(self.edge, offsets.reshape(-1, 2))
        values = values.reshape(len(rows), len(second.ids))
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            r, c = bad[0]
            ids = (first.ids[rows[r]], second.ids[c])
            parent, child = ids[::-1] if not self.second_is_child else ids
            raise ValidationError(
                f"edge {self.edge[0]}->{self.edge[1]}: displacement score between proposals "
                f"{parent!r} and {child!r} is {float(values[r, c])!r}, not finite"
            )
        return values


# The relation tables of each proposal set, by relation model, edge and
# orientation; a dropped set frees its tables.
_TABLES: weakref.WeakKeyDictionary[ProposalSet, dict[tuple, _Table]] = weakref.WeakKeyDictionary()


class _Step:
    """One expansion step: the part's bucket, its appearance vector under
    the objective, and the tables of the edges it closes, each with the
    step position of the edge's other part."""

    __slots__ = ("bucket", "app", "closings")

    def __init__(self, bucket: Bucket, app: np.ndarray):
        self.bucket = bucket
        self.app = app
        self.closings: list[tuple[int, _Table]] = []


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


def _prepare(grammar, models, pset, objective):
    """The objective's assignment, and per step of the default expansion
    order the bucket, its appearance vector and the tables of the edges it
    closes."""
    order = _expansion_order(grammar)
    assignment = _assignment(grammar, objective)
    tables = _TABLES.setdefault(pset, {})
    buckets = [pset.buckets.get(part) for part in order]
    if None in buckets:
        raise InfeasibleParseError(f"part {order[buckets.index(None)]!r} has no proposals")
    rows = np.concatenate([b.rows for b in buckets])
    app = pset.scores.appearance(rows, grammar.attributes, assignment)
    ends = np.cumsum([len(b.rows) for b in buckets])[:-1]
    steps = [_Step(b, a) for b, a in zip(buckets, np.split(app, ends))]
    position = {p: i for i, p in enumerate(order)}
    closing = ((models.syntactic, grammar.psg_edges), (models.kinematic, grammar.dg_edges))
    for source, edges in closing:
        for edge in edges:
            first, second = sorted((position[edge[0]], position[edge[1]]))
            # The table holds ``source``, so its id stays unused by any other
            # object while the key exists.
            key = (id(source), tuple(edge), order[second])
            if key not in tables:
                tables[key] = _Table(source, tuple(edge), steps[first].bucket, steps[second].bucket)
            steps[second].closings.append((first, tables[key]))
    return assignment, steps


def _extend(step: _Step, score: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Scores of the prefixes ``idxs`` (B, si) with ``score`` (B,), each
    extended by every proposal of ``step``: shape (B, N).

    The appearance term is added first, then each closing table's row in
    plan order; the beam and the oracle both use this one sum.
    """
    total = score[:, None] + step.app
    for first, table in step.closings:
        total += table.rows(idxs[:, first])
    if not np.isfinite(total).all():
        raise ValidationError(
            f"a partial parse score at part {step.bucket.part!r} is not finite: "
            "appearance and relation scores overflow"
        )
    return total


def _cut(scores: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """Indices of the ``width`` best candidates, best first.

    Higher score wins; equal scores go to the lower key.  Every candidate
    tied with the score at the cut reaches the sort.
    """
    if scores.size > width:
        kth = scores.size - width
        cut = np.partition(scores, kth)[kth]
        pool = np.flatnonzero(scores >= cut)
    else:
        pool = np.arange(scores.size)
    return pool[np.lexsort((keys[pool], -scores[pool]))[:width]]


def _run_beam(steps: list[_Step], beam_width: int):
    """Best (score, per-step proposal indices) under the beam.

    Ties go to the lexicographically smaller tuple of proposal ids.  Each
    survivor carries a rank that orders the survivors' id tuples, so a
    candidate's id tuple orders as (parent rank, child id rank).
    """
    first = steps[0]
    keep = _cut(first.app, first.bucket.id_rank, beam_width)
    score, rank, idxs = first.app[keep], first.bucket.id_rank[keep], keep[:, None]
    for step in steps[1:]:
        total = _extend(step, score, idxs).ravel()
        n = len(step.app)
        keys = (rank[:, None] * n + step.bucket.id_rank).ravel()
        keep = _cut(total, keys, beam_width)
        score, rank = total[keep], keys[keep].argsort().argsort()
        idxs = np.column_stack((idxs[keep // n], keep % n))
    return float(score[0]), idxs[0].tolist()


def _state(step: _Step, j: int) -> PartState:
    b = step.bucket
    x, y, part_type = b.xy.item(j, 0), b.xy.item(j, 1), b.types.item(j)
    return PartState(part=b.part, x=x, y=y, part_type=part_type, proposal_ref=b.ids[j])


def _build_parse_graph(grammar, steps, score, idxs, assignment) -> ParseGraph:
    return ParseGraph(
        states={step.bucket.part: _state(step, j) for step, j in zip(steps, idxs)},
        used_psg_edges=tuple(grammar.psg_edges),
        used_dg_edges=tuple(grammar.dg_edges),
        attribute_assignment=dict(assignment),
        total_score=score,
    )


def _search(grammar, models, pset, objective, cfg) -> ParseGraph:
    """Beam search for the best parse under ``objective``."""
    assignment, steps = _prepare(grammar, models, pset, objective)
    score, idxs = _run_beam(steps, (cfg or BeamConfig()).beam_width)
    return _build_parse_graph(grammar, steps, score, idxs, assignment)


def parse_constrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    attr: AttrId,
    value: str,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Best parse with ``attr`` fixed to ``value`` on every part."""
    return _search(grammar, models, pset, ("constrained", attr, value), cfg)


def parse_unconstrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Best parse with every part free to pick its own attribute values."""
    return _search(grammar, models, pset, "unconstrained", cfg)


def brute_force_parse(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    objective: Objective,
) -> ParseGraph:
    """Exact argmax by exhaustive enumeration; the testing oracle.

    Refuses instances whose proposal lattice exceeds ``COMBINATION_GUARD``
    combinations.  Reads the beam's relation tables through the same sum,
    and breaks ties on the tuple of proposal ids as the beam does, so a
    beam covering the full lattice reproduces its result bit for bit.
    """
    assignment, steps = _prepare(grammar, models, pset, objective)

    total = 1
    for step in steps:
        total *= len(step.app)
        if total > COMBINATION_GUARD:
            raise EnumerationLimitError(
                f"{total}+ proposal combinations exceed the guard of {COMBINATION_GUARD}"
            )

    n = len(steps)
    best: list = [None]

    def descend(si: int, scores: list, idkeys: list, idxs: list) -> None:
        """Visit every completion of sibling prefixes that ground ``si`` parts."""
        if si == n:
            for score, idkey, ix in zip(scores, idkeys, idxs):
                key = (-score, idkey)
                if best[0] is None or key < best[0][0]:
                    best[0] = (key, score, ix)
            return
        sums = _extend(steps[si], np.array(scores), np.array(idxs)).tolist()
        ids = steps[si].bucket.ids
        for row, idkey, ix in zip(sums, idkeys, idxs):
            descend(si + 1, row, [idkey + (i,) for i in ids], [ix + (j,) for j in range(len(ids))])

    ids = steps[0].bucket.ids
    descend(1, steps[0].app.tolist(), [(i,) for i in ids], [(j,) for j in range(len(ids))])
    _key, score, idxs = best[0]
    return _build_parse_graph(grammar, steps, score, idxs, assignment)


def select_final(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    cfg: BeamConfig | None = None,
) -> tuple[ParseGraph, dict[tuple[AttrId, str], ParseGraph]]:
    """Run one constrained parse per (attribute, value) pair of the
    grammar; keep the best.

    Returns the winning parse graph and the full pair-to-parse map.  Ties
    go to the earliest pair in grammar order.
    """
    pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
    if not pairs:
        raise ValidationError("select_final needs at least one (attribute, value) pair")
    per_pair: dict[tuple[AttrId, str], ParseGraph] = {}
    best_pair = None
    for attr, value in pairs:
        pg = parse_constrained(grammar, models, pset, attr, value, cfg)
        per_pair[(attr, value)] = pg
        if best_pair is None or pg.total_score > per_pair[best_pair].total_score:
            best_pair = (attr, value)
    return per_pair[best_pair], per_pair


def _readout(
    pg: ParseGraph, pset: ProposalSet, assoc: AttributeAssociation, attr: AttrId, value: str
) -> float:
    """Score of ``attr=value`` summed over the parse's parts associated with
    ``attr``, in state order from ``0.0``."""
    scores = pset.scores
    refs = [st.proposal_ref for part, st in pg.states.items() if assoc.contains(part, attr)]
    # Added one by one, not by np.sum, whose pairwise order changes the
    # last bits of the byte-compared readout.
    total = 0.0
    for score in scores.values[scores.rows(refs), scores.column(attr, value)].tolist():
        total += score
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
