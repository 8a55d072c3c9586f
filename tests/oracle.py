"""Reference code the tests check the package against.

:func:`brute_force_parse` enumerates the full proposal lattice and reads
the beam's relation tables through the beam's own sum
(:func:`posegrammar.inference._extend`), at K=1, so on small instances a
wide-enough beam must match it exactly; it is the testing oracle, guarded
against blowup.  :func:`reference_extend` is that sum in its plain
broadcast form, which the beam's product form must reproduce bit for
bit, and :func:`table_rows` reads a relation table's rows into a fresh
buffer.  Each reads the columns the search reads, made by the tables'
own :meth:`~posegrammar.inference._Table.column`.
:func:`uniform_syntactic_table` builds the co-occurrence model that puts
equal mass on every pair of part types.
:func:`reference_average_precision` is average precision of one stream,
computed on its own, as the batched form must reproduce it bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from posegrammar.appearance import ProposalSet
from posegrammar.errors import PoseGrammarError, ValidationError
from posegrammar.grammar import DEFAULT_PART_TYPE_COUNT, AOGrammar, AttrId, ParseGraph
from posegrammar.inference import _build_parse_graphs, _extend, _Group, _prepare, _Step, _Table
from posegrammar.relations import Edge, RelationModels, SyntacticTable

COMBINATION_GUARD = 10_000_000


class EnumerationLimitError(PoseGrammarError):
    """Exhaustive search refused: the combination count exceeds the guard."""


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
    # Every sum is checked, whatever the tables' peaks.
    for step in steps:
        step.check = True

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
        # The prefixes' (1, B) column per parent position, made by its table as the search makes it.
        cols = {p: table.column(np.array(idxs)[None, :, p]) for p, table in steps[si].closings}
        work = _Group(slice(0, 1), len(scores) * len(steps[si].bucket.ids))
        sums = _extend(steps[si], np.array([scores]), cols, work)[0].tolist()
        ids = steps[si].bucket.ids
        for row, idkey, ix in zip(sums, idkeys, idxs):
            descend(si + 1, row, [idkey + (i,) for i in ids], [ix + (j,) for j in range(len(ids))])

    ids = steps[0].bucket.ids
    with np.errstate(over="ignore"):
        descend(1, steps[0].app[0].tolist(), [(i,) for i in ids], [(j,) for j in range(len(ids))])
    _key, score, idxs = best[0]
    [pg] = _build_parse_graphs(steps, [assignment], [(score, idxs)])
    return pg


def reference_extend(step: _Step, score: np.ndarray, cols) -> np.ndarray:
    """The (K, B, N) scores of the prefixes with ``score`` (K, B) extended
    by every proposal of ``step``, as one broadcast sum: ``score + app``,
    then each closing table's row in plan order.  A sum that overflows is
    refused."""
    total = score[:, :, None] + step.app[:, None, :]
    for parent, table in step.closings:
        total += table_rows(table, cols[parent].ravel()).reshape(total.shape)
    if not np.isfinite(total).all():
        raise ValidationError(
            f"a partial parse score at part {step.bucket.part!r} is not finite: "
            "appearance and relation scores overflow"
        )
    return total


def table_rows(table: _Table, idx) -> np.ndarray:
    """The rows ``idx`` of ``table``, gathered into a buffer of their own:
    a beam column, as :meth:`~posegrammar.inference._Table.column` makes it
    from the parent's proposal indices."""
    idx = np.asarray(idx)
    return table.rows(idx, np.empty((len(idx), len(table.child.ids))))


def uniform_syntactic_table(
    edges: Iterable[Edge], part_type_count: int = DEFAULT_PART_TYPE_COUNT
) -> SyntacticTable:
    t = part_type_count
    mat = np.full((t, t), 1.0 / (t * t))
    return SyntacticTable({tuple(e): mat.copy() for e in edges}, part_type_count=t)


def reference_average_precision(scores, labels) -> float:
    """Average precision of one stream of finite ``scores`` and 0/1
    ``labels`` with a positive label: ranked by score, stable on ties,
    grouped at score boundaries, enveloped and summed by ``np.sum``."""
    s, y = np.asarray(scores, dtype=float), np.asarray(labels)
    positives = int(y.sum())
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order].astype(float)
    boundaries = np.append(np.where(np.diff(s) != 0.0)[0], s.shape[0] - 1)
    tp = np.cumsum(y)[boundaries]
    seen = boundaries + 1.0
    recall = tp / positives
    precision = tp / seen
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * envelope))
