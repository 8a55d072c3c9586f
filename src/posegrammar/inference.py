"""Parse inference: beam search over part proposals.

One search, :func:`search`, finds the best parse under each of K
attribute assignments, its objectives, stacked on a leading axis:
:func:`select_final` runs its 26 (attribute, value) pairs as one K=26
search, and :func:`parse_constrained` and :func:`parse_unconstrained` are
K=1 searches.  :func:`_prepare` plans the steps and their relation tables
(:class:`_Table`), :func:`_extend` sums a step's candidates, :func:`_cut`
keeps each objective's best, and :func:`_run_beam` runs the steps.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import parallel
from .appearance import Bucket, ProposalSet
from .errors import InfeasibleParseError, MissingEntryError, ValidationError
from .grammar import AOGrammar, AttrId, NodeId, ParseGraph, PartState, _trusted
from .jsonio import argument, check_fields, count, instance, nullable, number, record
from .relations import AttributeAssociation, Edge, KinematicMoG, RelationModels, SyntacticTable, _padded


@dataclass(frozen=True, slots=True)
class BeamConfig:
    """Beam width: an integer >= 1, kept as ``int``."""

    beam_width: int = 100

    def __post_init__(self) -> None:
        check_fields(self, _BEAM_WIDTH)


_BEAM_WIDTH = record(beam_width=count)


def default_expansion_order(grammar: AOGrammar) -> tuple[NodeId, ...]:
    """``grammar.expansion_order``, the order every search grounds the parts in."""
    return grammar.expansion_order


class _Table:
    """Relation scores of one edge, read as one row per proposal of its
    parent and one column per proposal of its child.  A co-occurrence
    table scores part types only, so it holds one row per part type; a
    displacement table one row per parent proposal.  A displacement table
    proved finite may be built without ``values``: it fills each row the
    first time a search reads it, under its ``lock``, so that searches on
    several threads share it.  ``peak`` bounds every ``|value|``."""

    __slots__ = ("source", "edge", "parent", "child", "peak", "values", "unfilled", "filled", "lock")

    def __init__(self, source, edge: Edge, parent: Bucket, child: Bucket, peak: float, values: np.ndarray | None = None):
        self.source, self.edge, self.parent, self.child, self.peak = source, edge, parent, child, peak
        self.values, self.unfilled = values, 0
        if values is None:
            self.values, self.unfilled = np.empty((len(parent.ids), len(child.ids))), len(parent.ids)
            self.filled, self.lock = np.zeros(len(parent.ids), dtype=bool), threading.Lock()

    def column(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the parent's proposals ``idx``: their part-type rows in a co-occurrence table."""
        return self.parent.types.take(idx) - 1 if isinstance(self.source, SyntacticTable) else idx

    def rows(self, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rows ``idx`` (:meth:`column`), shape (len(idx), N), written into ``out``."""
        # Every index is in range, and "clip" writes ``out`` unbuffered.
        if self.unfilled and not self.filled.take(idx).all():
            with self.lock:
                # The rows read and not filled: another thread may have
                # filled some of them meanwhile.
                todo = np.flatnonzero(np.bincount(idx, minlength=len(self.filled)) * ~self.filled)
                if todo.size:
                    # Marked filled once written: readers check ``filled`` unlocked.
                    parents = self.parent.xy[None, todo]
                    [self.values[todo]] = self.source.displacement_scores([self.edge], parents, self.child.xy[None])
                    self.filled[todo] = True
                    self.unfilled -= todo.size
        return self.values.take(idx, axis=0, out=out, mode="clip")


def _cooccurrences(source: SyntacticTable, edges: list[Edge], pset: ProposalSet) -> list[_Table]:
    """The co-occurrence tables of ``edges`` (at least one) on ``pset``, and
    their peaks, in one gather from ``source``'s stacked logs, each child's
    types padded by repeating its last, once each edge is found and, edge
    by edge, no proposal's part type is beyond its count."""
    parents, children = [pset.buckets[e[0]] for e in edges], [pset.buckets[e[1]] for e in edges]
    rows = []
    for edge, parent, child in zip(edges, parents, children):
        rows.append(source.row(edge))
        for bucket in (parent, child) if pset.part_type_count > source.part_type_count else ():
            beyond = np.flatnonzero(bucket.types > source.part_type_count)
            if beyond.size:
                j = beyond[0]
                raise ValidationError(
                    f"edge {edge[0]}->{edge[1]}: proposal {bucket.ids[j]!r} has part_type "
                    f"{bucket.types[j]}, beyond the models' part_type_count {source.part_type_count}"
                )
    types = _padded([c.types for c in children])[:, None] - 1
    block = source.logs[np.array(rows)[:, None, None], np.arange(source.part_type_count)[:, None], types]
    tables = zip(edges, parents, children, np.abs(block).max(axis=(1, 2)).tolist(), block)
    return [_Table(source, e, p, c, peak, values[:, : len(c.ids)]) for e, p, c, peak, values in tables]


def _displacements(source: KinematicMoG, edges: list[Edge], pset: ProposalSet) -> list[_Table]:
    """The displacement tables of ``edges`` (at least one) on ``pset``, once
    each mixture is found: filled whole together if their block fits
    ``_GROUP_CELLS``, else each proved finite fills as read, its bound its
    peak, and each other one is filled whole alone."""
    for edge in edges:
        source.mixture(edge)
    parents, children = [pset.buckets[e[0]] for e in edges], [pset.buckets[e[1]] for e in edges]
    shape = max(len(p.ids) for p in parents), max(len(c.ids) for c in children)
    if len(edges) * source.components * math.prod(shape) <= _GROUP_CELLS:
        return _fill_whole(source, edges, parents, children)
    bounds = source.displacement_bounds(edges, _padded([p.xy for p in parents]), _padded([c.xy for c in children]))
    tables = zip(edges, parents, children, bounds)
    return [_Table(source, e, p, c, b) if b < math.inf else _fill_whole(source, [e], [p], [c])[0] for e, p, c, b in tables]


def _fill_whole(source: KinematicMoG, edges: list[Edge], parents: list[Bucket], children: list[Bucket]) -> list[_Table]:
    """The displacement tables of ``edges`` from the buckets ``parents`` to
    ``children``, and their peaks, every cell in one stacked mixture call;
    the first cell that is not finite, in table, row and column order (a
    padded cell repeats an earlier one), refuses the set."""
    values = source.displacement_scores(edges, _padded([p.xy for p in parents]), _padded([c.xy for c in children]))
    if not np.isfinite(values).all():
        e, r, c = np.argwhere(~np.isfinite(values))[0]
        raise ValidationError(
            f"edge {edges[e][0]}->{edges[e][1]}: displacement score between proposals "
            f"{parents[e].ids[r]!r} and {children[e].ids[c]!r} is {float(values[e, r, c])!r}, not finite"
        )
    tables = zip(edges, parents, children, np.abs(values).max(axis=(1, 2)).tolist(), values)
    return [_Table(source, e, p, c, peak, block[: len(p.ids), : len(c.ids)]) for e, p, c, peak, block in tables]


# The relation tables of each proposal set, by relation model and edge: the
# only thing a search caches, so every objective of every search reads the
# same numbers.  A dropped set frees its tables.
_TABLES: weakref.WeakKeyDictionary[ProposalSet, dict[tuple, _Table]] = weakref.WeakKeyDictionary()


class _Step:
    """One expansion step: the part's bucket, its (K, N) appearance block,
    one row per objective, and the tables of the edges it closes, each with
    the step position of the edge's parent.  ``lifted`` is the (K, 2, N)
    stack of a row of ones over each appearance row, the right factor of
    the step's first sum, and ``app`` its second row; ``peak`` bounds the
    block's ``|app|``; while ``check`` (true until set) its sums are checked."""

    __slots__ = ("bucket", "lifted", "app", "peak", "closings", "check")

    def __init__(self, bucket: Bucket, lifted: np.ndarray, peak: float):
        self.bucket, self.lifted, self.app, self.peak, self.check = bucket, lifted, lifted[:, 1], peak, True
        self.closings: list[tuple[int, _Table]] = []


def _steps(buckets: list[Bucket], app: np.ndarray) -> list[_Step]:
    """One step per bucket, each holding its columns of the (K, all
    proposals) appearance block ``app``, which lists the buckets' proposals
    in order."""
    lifted = np.ones((app.shape[0], 2, app.shape[1]))
    lifted[:, 1] = app
    ends = np.cumsum([len(b.ids) for b in buckets]).tolist()
    peaks = np.maximum.reduceat(np.abs(app).max(axis=0), [0] + ends[:-1]).tolist()
    return [_Step(b, lifted[:, :, s:e], peak) for b, s, e, peak in zip(buckets, [0] + ends, ends, peaks)]


# A block whose bound on |score| stays below this holds only finite sums.
_EXACT_CHECK = 2.0**1022


class _Group:
    """The rows ``objectives`` of a search's step blocks that run together,
    with two flat blocks of ``size`` floats per objective, ``sums`` for a
    step's sums and ``rows`` for its gathers and cut."""

    __slots__ = ("objectives", "sums", "rows")

    def __init__(self, objectives: slice, size: int):
        self.objectives = objectives
        self.sums = np.empty((objectives.stop - objectives.start) * size)
        self.rows = np.empty_like(self.sums)


def check_assignment(grammar: AOGrammar, assignment: Mapping[AttrId, str]) -> None:
    """Refuse an attribute ``assignment`` naming an attribute ``grammar``
    lacks, or a value outside the attribute's domain."""
    for attr_id, value in assignment.items():
        domain = grammar.attribute(attr_id).domain
        if value not in domain:
            raise ValidationError(f"value {value!r} not in domain of attribute {attr_id!r}: {domain}")


def _prepare(grammar, models, pset, assignments) -> list[_Step]:
    """Per step of the grammar's expansion order, the bucket, its appearance
    block (one row per attribute assignment), the tables of the edges it
    closes, and ``check``, set once the peaks so far reach ``_EXACT_CHECK``.
    The set's new tables are built by :func:`_cooccurrences` and
    :func:`_displacements`.  A set holding a score that is not finite is so
    refused before any search, and keeps no table."""
    order = grammar.expansion_order
    for i, assignment in enumerate(assignments):
        if not isinstance(assignment, Mapping):
            raise ValidationError(f"assignments[{i}] must be a mapping of attribute to value, got {assignment!r}")
        check_assignment(grammar, assignment)
    tables = _TABLES.setdefault(pset, {})
    buckets = [pset.buckets.get(part) for part in order]
    if None in buckets:
        raise InfeasibleParseError(f"part {order[buckets.index(None)]!r} has no proposals")
    rows = np.concatenate([b.rows for b in buckets])
    with np.errstate(over="ignore"):  # a sum beyond the float range is refused by the search
        steps = _steps(buckets, pset.scores.appearance(rows, grammar.attributes, assignments))
    position = {p: i for i, p in enumerate(order)}
    closing = [(models.syntactic, e) for e in grammar.psg_edges] + [(models.kinematic, e) for e in grammar.dg_edges]
    psg = [e for e in grammar.psg_edges if (models.syntactic, e) not in tables]
    dg = [e for e in grammar.dg_edges if (models.kinematic, e) not in tables]
    made = _cooccurrences(models.syntactic, psg, pset) if psg else []
    made += _displacements(models.kinematic, dg, pset) if dg else []
    for table in made:
        # A search on another thread may build the same table: the first
        # one stored is the one every search reads.
        tables.setdefault((table.source, table.edge), table)
    for source, edge in closing:
        steps[position[edge[1]]].closings.append((position[edge[0]], tables[source, edge]))
    bound = 0.0
    for step in steps:
        step.check = (bound := bound + step.peak + sum(t.peak for _parent, t in step.closings)) >= _EXACT_CHECK
    return steps


def _extend(step: _Step, score: np.ndarray, cols, work: _Group) -> np.ndarray:
    """Scores of the prefixes with ``score`` (K, B), one row per objective
    of the group ``work``, each extended by every proposal of ``step``, a
    step after the first: shape (K, B, N), a view of ``work.sums``.
    ``cols[p]`` holds the prefixes' (K, B) column at step position ``p``
    (:meth:`_Table.column`), for every parent position of ``step``'s closings.

    The appearance term is added first, then each closing table's row in
    plan order, so every candidate sees the float operations of a search
    of its objective alone; the beam, and at K=1 the exhaustive oracle
    under ``tests/``, both use this one sum.  The first sum is the product
    ``[score, 1] @ [1; app]``: both products are exact, so each cell is
    ``score + app`` rounded once, written faster than a broadcast add.
    Table rows are gathered once for all K*B prefixes, into ``work.rows``.

    Table values are finite, so a sum fails only by overflow, checked cell
    by cell where ``step.check`` is set; the searches silence numpy's warning.
    """
    k, b = score.shape
    size = k * b * step.app.shape[1]
    total = work.sums[:size].reshape(k, b, -1)
    # The product gives -0.0 + -0.0 as +0.0, where a broadcast add gives
    # -0.0; the first closing absorbs the sign.  It is the part's
    # co-occurrence edge (every part but the root is a psg child, as the
    # grammar refuses a part no psg edge reaches, and the plan lists psg
    # edges first), whose log entries are never -0.0, and 0.0 + r equals
    # -0.0 + r for every r but -0.0.
    lhs = np.empty((k, b, 2))
    lhs[..., 0], lhs[..., 1] = score, 1.0
    np.matmul(lhs, step.lifted[work.objectives], out=total)
    gathered = work.rows[:size].reshape(k * b, -1)
    for parent, table in step.closings:
        total += table.rows(cols[parent].ravel(), out=gathered).reshape(total.shape)
    if step.check and not np.isfinite(total).all():
        raise ValidationError(
            f"a partial parse score at part {step.bucket.part!r} is not finite: "
            "appearance and relation scores overflow"
        )
    return total


def _cut(scores: np.ndarray, width: int, scratch: np.ndarray) -> np.ndarray:
    """Per row of ``scores`` (K, M), the flat indices into ``scores`` of its
    ``width`` best candidates, in ascending order.  ``scratch``, a flat
    buffer of at least K*M floats, holds the partition.

    Higher score wins; equal scores go to the lower index.  The cut is the
    row's ``width``-th best score: every candidate above it is kept, and
    the lowest-indexed candidates at it fill the rest.
    """
    k, m = scores.shape
    if m <= width:
        return np.arange(k * m).reshape(k, m)
    part = scratch[: k * m].reshape(k, m)
    np.copyto(part, scores)
    part.partition(m - width, axis=1)
    cut = part[:, m - width, None]
    kept = scores >= cut
    # Every row keeps at least ``width``, so more in all means more in some.
    if np.count_nonzero(kept) > k * width:
        # More candidates tie at some row's cut (-0.0 equals 0.0) than fit.
        above, at = scores > cut, scores == cut
        room = width - np.count_nonzero(above, axis=1)[:, None]
        kept = above | (at & (np.cumsum(at, axis=1) <= room))
    return np.flatnonzero(kept).reshape(k, width)


# The most cells a step block of one group of objectives may hold.  A
# float64 block of 2**16 cells is 512 KiB, so a step's two blocks, the sums
# and the gathers, take half of a 2 MiB per-core L2 and stay there across
# the step's passes.  At 2**17 a K=26 search on a 17x50 lattice at width
# 100 would not split; in groups of 5 or fewer objectives it runs no
# faster than unsplit, the extra groups' per-step calls eating the gain.
_GROUP_CELLS = 2**16


def _run_beam(steps: list[_Step], beam_width: int) -> list[tuple[float, list[int]]]:
    """Per objective, the best (score, per-step proposal indices) under the
    beam.  Ties go to the smaller tuple of proposal ids: buckets list their
    proposals in id order and each step keeps its survivors in id-tuple
    order, so a candidate's flat index in a (B, N) block orders as its ids.

    The K objectives run as the fewest groups whose step blocks fit
    ``_GROUP_CELLS`` cells (one objective alone always runs), each a
    :class:`_Group`, by :func:`~posegrammar.parallel._run_groups`."""
    k = len(steps[0].app)
    # B survivors per objective extend into B*N candidates, B=1 at the first step.
    size, b = 0, 1
    for step in steps:
        m = b * step.app.shape[1]
        size, b = max(size, m), min(beam_width, m)
    n = -(-k // max(1, _GROUP_CELLS // size))
    results = parallel._run_groups(k, n, lambda rows: _run_group(steps, beam_width, _Group(rows, size)), over="ignore")
    return [result for group in results for result in group]


def _run_group(steps: list[_Step], beam_width: int, work: _Group) -> list[tuple[float, list[int]]]:
    """:func:`_run_beam` for the group ``work``, every step summed and cut in its blocks.

    A survivor's back-pointers are its parent, as a flat index into the
    previous step's (K, B) survivors, and its proposal index.  A column
    that later closings read is made by the ``last`` table to read it (the
    grammar keeps decomposition parents off the dependency edges, so a
    position's readers are of one kind) and re-gathered through the
    parents until then; each objective's best is decoded after the last step.
    """
    last = {parent: (si, table) for si, step in enumerate(steps) for parent, table in step.closings}
    score, cols, pointers = None, {}, []
    for si, step in enumerate(steps):
        # The first step's candidates all extend one empty prefix per objective.
        total = _extend(step, score, cols, work).reshape(len(score), -1) if si else step.app[work.objectives]
        keep = _cut(total, beam_width, work.rows)
        score = total.take(keep)
        parent = keep // step.app.shape[1]
        child = keep - parent * step.app.shape[1]  # half the cost of np.divmod
        pointers.append((parent, child))
        cols = {p: c.take(parent) for p, c in cols.items() if last[p][0] > si}
        if si in last:
            cols[si] = last[si][1].column(child)
    # Each objective's best survivor, as a flat index: the first maximum,
    # so the smallest id tuple among equal scores.
    best = score.argmax(axis=1) + np.arange(0, score.size, score.shape[1])
    top = score.take(best)
    idxs = []
    for parent, child in reversed(pointers):
        idxs.append(child.take(best))
        best = parent.take(best)
    return list(zip(top.tolist(), np.column_stack(idxs[::-1]).tolist()))


def _build_parse_graphs(steps, assignments, results) -> list[ParseGraph]:
    """One parse graph per objective's assignment and (score, per-step
    proposal indices), built by :func:`~posegrammar.grammar._trusted` from
    the buckets' columns: only the scores, which the search summed, are
    checked.  A proposal several objectives choose gets one shared,
    immutable :class:`PartState`, its cells read once per search."""
    states = []
    for step, chosen in zip(steps, zip(*(idxs for _score, idxs in results))):
        b, made = step.bucket, {}
        for j in set(chosen):  # cell by cell: a wide bucket's whole columns cost more to read
            made[j] = _trusted(PartState, b.part, b.xy.item(j, 0), b.xy.item(j, 1), b.types.item(j), b.ids[j])
        states.append(made)
    parts = [step.bucket.part for step in steps]
    graphs = []
    for assignment, (score, idxs) in zip(assignments, results):
        chosen = dict(zip(parts, map(dict.__getitem__, states, idxs)))
        graphs.append(_trusted(ParseGraph, chosen, dict(assignment), argument("total_score", score, number)))
    return graphs


def search(
    grammar: AOGrammar, models: RelationModels, pset: ProposalSet, assignments: Sequence[Mapping[AttrId, str]],
    cfg: BeamConfig | None = None,
) -> list[ParseGraph]:
    """One beam search for the best parse under each of the attribute
    ``assignments``, stacked: steps, buckets and relation tables are
    shared.  One parse per assignment, in order.  ``{attr: value}`` scores
    every part under that one value, a global constraint on the body;
    ``{}`` lets each part contribute its best value of every attribute.
    ``cfg`` is a :class:`BeamConfig` or ``None``; past it, a search of no
    objectives returns ``[]``, refusing nothing, not even a set lacking a part."""
    cfg = argument("cfg", cfg, nullable(instance(BeamConfig))) or BeamConfig()
    assignments = list(assignments)
    if not assignments:
        return []
    steps = _prepare(grammar, models, pset, assignments)
    return _build_parse_graphs(steps, assignments, _run_beam(steps, cfg.beam_width))


def parse_constrained(
    grammar: AOGrammar, models: RelationModels, pset: ProposalSet, attr: AttrId, value: str,
    cfg: BeamConfig | None = None,
) -> ParseGraph:
    """Best parse with ``attr`` fixed to ``value`` on every part."""
    [pg] = search(grammar, models, pset, [{attr: value}], cfg)
    return pg


def parse_unconstrained(
    grammar: AOGrammar, models: RelationModels, pset: ProposalSet, cfg: BeamConfig | None = None
) -> ParseGraph:
    """Best parse with every part free to pick its own attribute values."""
    [pg] = search(grammar, models, pset, [{}], cfg)
    return pg


def attribute_pairs(grammar: AOGrammar) -> list[tuple[AttrId, str]]:
    """Every (attribute, value) pair of the grammar, in grammar order."""
    pairs = [(a.id, v) for a in grammar.attributes for v in a.domain]
    if not pairs:
        raise ValidationError(
            "a joint parse needs at least one (attribute, value) pair, and the grammar declares no attributes"
        )
    return pairs


def best_parse(per_pair: Mapping[tuple[AttrId, str], ParseGraph]) -> ParseGraph:
    """The best-scoring parse of ``per_pair``; ties go to the earliest pair."""
    if not per_pair:
        raise ValidationError("best_parse needs at least one (attribute, value) pair's parse, got none")
    return max(per_pair.values(), key=lambda pg: pg.total_score)


def select_final(
    grammar: AOGrammar, models: RelationModels, pset: ProposalSet, cfg: BeamConfig | None = None
) -> tuple[ParseGraph, dict[tuple[AttrId, str], ParseGraph]]:
    """One constrained parse per (attribute, value) pair of the grammar,
    all in one stacked search: the winner by :func:`best_parse`, and the
    full pair-to-parse map in grammar order."""
    pairs = attribute_pairs(grammar)
    assignments = [{attr: value} for attr, value in pairs]
    per_pair = dict(zip(pairs, search(grammar, models, pset, assignments, cfg)))
    return best_parse(per_pair), per_pair


def attribute_scores(
    per_pair: Mapping[tuple[AttrId, str], ParseGraph], pset: ProposalSet, assoc: AttributeAssociation
) -> dict[AttrId, dict[str, float]]:
    """Attribute classification scores from attribute-specific parses.

    Per (attribute, value) pair, the value's cells of the pair's parse's
    states whose parts carry the attribute, summed in state order from
    ``0.0``, one float at a time.  Within one call each part's carried
    attributes are looked up once, and each distinct parse's carried rows
    once per attribute, after the pair's column.  A sum beyond the float
    range is refused naming the pair and the proposals summed.
    """
    scores, cell, out = pset.scores, pset.scores.values.item, {}
    carried: dict[NodeId, frozenset[AttrId]] = {}
    rows: dict[tuple[int, AttrId], list[int]] = {}  # by (parse identity, attribute)
    # Listed first, so every parse outlives the loop and no identity is reused.
    for (attr, value), pg in list(per_pair.items()):
        if pg.states and attr not in assoc.attr_ids:
            raise MissingEntryError(f"unknown attribute {attr!r}")
        if (found := rows.get(key := (id(pg), attr))) is None:
            for part in pg.states:
                if part not in carried:
                    carried[part] = assoc.attrs_for(part)
        column = scores.column(attr, value)
        if found is None:
            found = rows[key] = []
            for part, st in pg.states.items():
                if attr in carried[part]:
                    found.append(scores.row(st.proposal_ref))
        # One by one, not by np.sum: its pairwise order changes the last bits.
        total = 0.0
        for r in found:
            total += cell(r, column)
        if not math.isfinite(total):
            refs = [st.proposal_ref for part, st in pg.states.items() if attr in carried[part]]
            raise ValidationError(
                f"attribute score {attr}={value} summed over proposals {refs} is {total}, not a finite number"
            )
        out.setdefault(attr, {})[value] = total
    return out
