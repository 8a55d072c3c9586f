"""Parse inference: beam search over part proposals.

Exact dynamic programming is ruled out by the loops the two edge sets
create together, so parsing is a beam search.  It seeds candidates from
the root part's proposals and grounds one part per step in a fixed
expansion order; whenever a step grounds a part, every grammar edge whose
endpoints are now both grounded contributes its relation score.  Only the
top ``beam_width`` candidates survive a step, ordered by score and, on
ties, by the tuple of chosen proposal ids.

An objective is an attribute assignment, the attribute grammar's part
of the parse: ``{attr: value}`` scores every part under that one value,
treating the attribute as a global constraint on the whole body, and
``{}`` lets every part contribute its best value score for every
attribute, each part free to pick its own values.

One search runs K objectives stacked on a leading axis: the 26
constrained parses of :func:`select_final` are one K=26 search, and
:func:`parse_constrained` and :func:`parse_unconstrained` are K=1
searches.  Steps, buckets and relation tables are shared; each step reads
its part's columnar :class:`~posegrammar.appearance.Bucket` straight from
the proposal set and holds a (K, N) appearance block, one row per
objective, gathered once from the set's immutable score grid
(:meth:`ScoreTable.appearance`); a grammar pair the grid lacks is refused
before any search step.

Relation scores come from tables, not from per-candidate math.  The
expansion order grounds every part after all of its parents, so each edge
closes at its child's step and its table has one row per proposal of the
parent and one column per proposal of the child: the co-occurrence table
gathers the edge's log matrix by the buckets' ``types``, and the
displacement table evaluates the edge's mixture log-density on the grid
of child-minus-parent ``xy`` offsets.  A row is computed the first time a
search reads it.  The tables are the only thing cached per
:class:`ProposalSet` (weakly, so a dropped set frees them), kept per
relation model, so every objective and the oracle read the same numbers.

A beam step is one (K, B, N) numpy sum: each survivor's score plus the
appearance row of its objective, then each closing table's row in plan
order, the rows gathered once for all K*B survivors.  So every candidate
sees the same float operations, in the same order, as in a search of its
objective alone.  The cut is per objective: a per-row ``argpartition`` at
the beam width, widened to the largest count of candidates tied with a
row's score at its cut, so every tied candidate reaches the sort; the
pool is then ordered within each objective by (-score, id-tuple rank).

:func:`brute_force_parse` enumerates the full proposal lattice and reads
the same tables through the same sum, at K=1, so on small instances a
wide-enough beam must match it exactly; it is the testing oracle, guarded
against blowup.
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
from .grammar import AOGrammar, AttrId, NodeId, ParseGraph, PartState, parents_first
from .jsonio import check_fields, count, record
from .relations import AttributeAssociation, Edge, RelationModels, SyntacticTable

COMBINATION_GUARD = 10_000_000


@dataclass(frozen=True)
class BeamConfig:
    """Beam width: an integer >= 1, kept as ``int``."""

    beam_width: int = 100

    def __post_init__(self) -> None:
        check_fields(self, _BEAM_WIDTH)


_BEAM_WIDTH = record(beam_width=count)


def default_expansion_order(grammar: AOGrammar) -> tuple[NodeId, ...]:
    """Root-first order placing each part after all of its decomposition
    and dependency parents (:func:`parents_first` over the root, then the
    grammar's listing), so every edge's parent is grounded before its
    child.  For the default human grammar this grounds the torso right
    after the body levels and walks each limb outward.
    """
    pool = [grammar.root] + [p for p in grammar.part_ids if p != grammar.root]
    order, stuck = parents_first(pool, grammar.psg_edges + grammar.dg_edges)
    if stuck:
        raise ValidationError(
            f"cannot derive an expansion order: parts {stuck} never become placeable"
        )
    return tuple(order)


class _Table:
    """Relation scores of one edge: one row per proposal of its parent, one
    column per proposal of its child.  A row is computed the first time a
    search reads it."""

    __slots__ = ("source", "edge", "log", "parent", "child", "values", "filled")

    def __init__(self, source, edge: Edge, parent: Bucket, child: Bucket):
        self.source = source
        self.edge = edge
        # Looked up now, so that a missing model entry fails before any search.
        if isinstance(source, SyntacticTable):
            self.log = source.log_matrix(edge)
            for bucket in (parent, child):
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
        self.parent = parent
        self.child = child
        self.values = np.empty((len(parent.ids), len(child.ids)))
        self.filled = np.zeros(len(parent.ids), dtype=bool)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the parent's proposals ``idx``, shape (len(idx), N)."""
        todo = np.zeros_like(self.filled)
        todo[idx] = True
        todo = np.flatnonzero(todo & ~self.filled)
        if todo.size:
            self.values[todo] = self._compute(todo)
            self.filled[todo] = True
        return self.values[idx]

    def _compute(self, rows: np.ndarray) -> np.ndarray:
        parent, child = self.parent, self.child
        if self.log is not None:
            return self.log[np.ix_(parent.types[rows] - 1, child.types - 1)]
        offsets = child.xy[None, :, :] - parent.xy[rows, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.source.log_density(self.edge, offsets.reshape(-1, 2))
        values = values.reshape(len(rows), len(child.ids))
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            r, c = bad[0]
            raise ValidationError(
                f"edge {self.edge[0]}->{self.edge[1]}: displacement score between proposals "
                f"{parent.ids[rows[r]]!r} and {child.ids[c]!r} is {float(values[r, c])!r}, not finite"
            )
        return values


# The relation tables of each proposal set, by relation model and edge; a
# dropped set frees its tables.
_TABLES: weakref.WeakKeyDictionary[ProposalSet, dict[tuple, _Table]] = weakref.WeakKeyDictionary()


class _Step:
    """One expansion step: the part's bucket, its (K, N) appearance block,
    one row per objective, and the tables of the edges it closes, each with
    the step position of the edge's parent."""

    __slots__ = ("bucket", "app", "closings")

    def __init__(self, bucket: Bucket, app: np.ndarray):
        self.bucket = bucket
        self.app = app
        self.closings: list[tuple[int, _Table]] = []


def _prepare(grammar, models, pset, assignments) -> list[_Step]:
    """Per step of the default expansion order, the bucket, its appearance
    block (one row per attribute assignment) and the tables of the edges
    it closes."""
    order = default_expansion_order(grammar)
    for assignment in assignments:
        for attr_id, value in assignment.items():
            domain = grammar.attribute(attr_id).domain
            if value not in domain:
                raise ValidationError(
                    f"value {value!r} not in domain of attribute {attr_id!r}: {domain}"
                )
    tables = _TABLES.setdefault(pset, {})
    buckets = [pset.buckets.get(part) for part in order]
    if None in buckets:
        raise InfeasibleParseError(f"part {order[buckets.index(None)]!r} has no proposals")
    rows = np.concatenate([b.rows for b in buckets])
    app = np.stack([pset.scores.appearance(rows, grammar.attributes, a) for a in assignments])
    ends = np.cumsum([len(b.rows) for b in buckets])[:-1]
    steps = [_Step(b, a) for b, a in zip(buckets, np.split(app, ends, axis=1))]
    position = {p: i for i, p in enumerate(order)}
    closing = ((models.syntactic, grammar.psg_edges), (models.kinematic, grammar.dg_edges))
    for source, edges in closing:
        for edge in edges:
            parent, child = position[edge[0]], position[edge[1]]
            if (source, edge) not in tables:
                tables[source, edge] = _Table(source, edge, steps[parent].bucket, steps[child].bucket)
            steps[child].closings.append((parent, tables[source, edge]))
    return steps


def _extend(step: _Step, score: np.ndarray, idxs: np.ndarray) -> np.ndarray:
    """Scores of the prefixes ``idxs`` (K, B, si) with ``score`` (K, B), one
    row per objective, each extended by every proposal of ``step``: shape
    (K, B, N).

    The appearance term is added first, then each closing table's row in
    plan order; the beam and the oracle (at K=1) both use this one sum.
    Table rows are gathered once for all K*B prefixes.  A sum that
    overflows is refused here; the searches silence numpy's warning.
    """
    total = score[:, :, None] + step.app[:, None, :]
    for parent, table in step.closings:
        total += table.rows(idxs[:, :, parent].ravel()).reshape(total.shape)
    if not np.isfinite(total).all():
        raise ValidationError(
            f"a partial parse score at part {step.bucket.part!r} is not finite: "
            "appearance and relation scores overflow"
        )
    return total


def _cut(scores: np.ndarray, key_of, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``scores`` (K, M), the indices of its ``width`` best
    candidates, best first, and their keys.

    Higher score wins; equal scores go to the lower key.  ``key_of(pool)``
    gives the keys of the candidates ``pool`` (K, P), so keys are built
    only for the pool: each row's ``width`` best by score and every
    candidate tied with the row's score at the cut.
    """
    k, m = scores.shape
    rows = np.arange(k)[:, None]
    if m > width:
        pool = np.argpartition(scores, m - width, axis=1)[:, m - width :]
        tied = int(np.count_nonzero(scores >= scores[rows, pool[:, :1]], axis=1).max())
        if tied > width:
            pool = np.argpartition(scores, m - tied, axis=1)[:, m - tied :]
    else:
        pool = np.broadcast_to(np.arange(m), scores.shape)
    keys = key_of(pool)
    order = np.lexsort((keys, -scores[rows, pool]), axis=1)[:, :width]
    return pool[rows, order], keys[rows, order]


def _run_beam(steps: list[_Step], beam_width: int) -> list[tuple[float, list[int]]]:
    """Per objective, the best (score, per-step proposal indices) under the
    beam.

    Each objective keeps its own ``beam_width`` survivors.  Ties go to the
    lexicographically smaller tuple of proposal ids.  Each survivor carries
    a rank that orders its objective's survivors' id tuples, so a
    candidate's id tuple orders as (parent rank, child id rank).
    """
    first = steps[0]
    rows = np.arange(len(first.app))[:, None]
    keep, rank = _cut(first.app, first.bucket.id_rank.__getitem__, beam_width)
    score, idxs = first.app[rows, keep], keep[:, :, None]
    for step in steps[1:]:
        total = _extend(step, score, idxs).reshape(len(rows), -1)
        n, id_rank = step.app.shape[1], step.bucket.id_rank

        def key_of(pool):
            parent, child = np.divmod(pool, n)
            return rank[rows, parent] * n + id_rank[child]

        keep, keys = _cut(total, key_of, beam_width)
        parent, child = np.divmod(keep, n)
        score, rank = total[rows, keep], keys.argsort(1).argsort(1)
        idxs = np.concatenate((idxs[rows, parent], child[:, :, None]), axis=2)
        # Freed before the next step builds its own (K, B, N) block.
        del total
    return list(zip(score[:, 0].tolist(), idxs[:, 0].tolist()))


def _state(step: _Step, j: int) -> PartState:
    b = step.bucket
    x, y, part_type = b.xy.item(j, 0), b.xy.item(j, 1), b.types.item(j)
    return PartState(part=b.part, x=x, y=y, part_type=part_type, proposal_ref=b.ids[j])


def _build_parse_graphs(steps, assignments, results) -> list[ParseGraph]:
    """One parse graph per objective's assignment and (score, per-step
    proposal indices); a proposal several objectives choose gets one
    shared, immutable :class:`PartState`."""
    states: dict[tuple[int, int], PartState] = {}
    graphs = []
    for assignment, (score, idxs) in zip(assignments, results):
        chosen = {}
        for si, j in enumerate(idxs):
            if (si, j) not in states:
                states[si, j] = _state(steps[si], j)
            chosen[steps[si].bucket.part] = states[si, j]
        graphs.append(ParseGraph(states=chosen, attribute_assignment=assignment, total_score=score))
    return graphs


def _search(grammar, models, pset, assignments, cfg) -> list[ParseGraph]:
    """One beam search for the best parse under each of the attribute
    ``assignments``, stacked: steps, buckets and relation tables are
    shared."""
    steps = _prepare(grammar, models, pset, assignments)
    with np.errstate(over="ignore"):
        results = _run_beam(steps, (cfg or BeamConfig()).beam_width)
    return _build_parse_graphs(steps, assignments, results)


def parse_constrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    attr: AttrId,
    value: str,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Best parse with ``attr`` fixed to ``value`` on every part."""
    [pg] = _search(grammar, models, pset, [{attr: value}], cfg)
    return pg


def parse_unconstrained(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Best parse with every part free to pick its own attribute values."""
    [pg] = _search(grammar, models, pset, [{}], cfg)
    return pg


def brute_force_parse(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    assignment: Mapping[AttrId, str],
) -> ParseGraph:
    """Exact argmax under the attribute ``assignment`` (``{}`` is
    unconstrained) by exhaustive enumeration; the testing oracle.

    Refuses instances whose proposal lattice exceeds ``COMBINATION_GUARD``
    combinations.  Reads the beam's relation tables through the same sum,
    and breaks ties on the tuple of proposal ids as the beam does, so a
    beam covering the full lattice reproduces its result bit for bit.
    """
    steps = _prepare(grammar, models, pset, [assignment])

    total = 1
    for step in steps:
        total *= len(step.bucket.ids)
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
        sums = _extend(steps[si], np.array([scores]), np.array([idxs]))[0].tolist()
        ids = steps[si].bucket.ids
        for row, idkey, ix in zip(sums, idkeys, idxs):
            descend(si + 1, row, [idkey + (i,) for i in ids], [ix + (j,) for j in range(len(ids))])

    ids = steps[0].bucket.ids
    with np.errstate(over="ignore"):
        descend(1, steps[0].app[0].tolist(), [(i,) for i in ids], [(j,) for j in range(len(ids))])
    _key, score, idxs = best[0]
    [pg] = _build_parse_graphs(steps, [assignment], [(score, idxs)])
    return pg


def _pairs(grammar: AOGrammar) -> list[tuple[AttrId, str]]:
    """Every (attribute, value) pair of the grammar, in grammar order."""
    pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
    if not pairs:
        raise ValidationError("select_final needs at least one (attribute, value) pair")
    return pairs


def _select(per_pair: Mapping[tuple[AttrId, str], ParseGraph]) -> ParseGraph:
    """The best-scoring parse of ``per_pair``; ties go to the earliest pair."""
    return max(per_pair.values(), key=lambda pg: pg.total_score)


def select_final(
    grammar: AOGrammar,
    models: RelationModels,
    pset: ProposalSet,
    cfg: BeamConfig | None = None,
) -> tuple[ParseGraph, dict[tuple[AttrId, str], ParseGraph]]:
    """Run one constrained parse per (attribute, value) pair of the
    grammar, all in one stacked search; keep the best.

    Returns the winning parse graph and the full pair-to-parse map.  Ties
    go to the earliest pair in grammar order.
    """
    pairs = _pairs(grammar)
    assignments = [{attr: value} for attr, value in pairs]
    per_pair = dict(zip(pairs, _search(grammar, models, pset, assignments, cfg)))
    return _select(per_pair), per_pair


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
