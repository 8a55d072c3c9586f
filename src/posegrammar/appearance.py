"""Appearance scores: part proposals and their per-attribute log-scores.

The engine never looks at pixels.  Whatever detector produced the
proposals is abstracted into a :class:`ScoreTable`, loaded from disk or
produced by the synthetic provider :func:`synth_scores`: an immutable
grid with one row per proposal and one column per (attribute, value)
pair.  It is complete and finite: ``_Grid.add``, the one reader of a
score row for :class:`ScoreTable` and :func:`load_proposals` alike,
refuses a row by the file reader's rule, naming the proposal and the
pair.  Every appearance read gathers from it.

A :class:`ProposalSet` holds one columnar :class:`Bucket` per part.  Its
proposals, given as columns by the proposal reader, the synthetic
provider or :meth:`ProposalSet.from_proposals`, pass one check,
:func:`_checked_columns`: what a :class:`Proposal` refuses, a part type
beyond the count or a repeated id is refused there, as the search reads
the columns unchecked.  A bucket lists its part's proposals in id order,
whatever order they were given in, so the search can break score ties by
position.  A set and its buckets are read-only once built.  Only
:meth:`ProposalSet.proposals_for` rebuilds proposals.

:func:`load_proposals` reads a file in one streaming pass, keeping only
each line's proposal fields and score cells, read by the grid's one
reader, and builds the score grid from those cells.  It never reads its
file twice: a file it refuses is refused from what that pass kept.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .grammar import (
    ATOMIC_PARTS,
    DEFAULT_PART_TYPE_COUNT,
    FULL_BODY,
    LOWER_BODY,
    UPPER_BODY,
    AttrId,
    AttributeDef,
    NodeId,
    default_attributes,
    part_keypoints,
)
from .jsonio import FieldError, json_lines, write_json_lines
from .jsonio import argument, array, check_fields, count, mapping, nonnegative, number, number_column
from .jsonio import naming, record, text
from .synthetic import SyntheticScene, _sigma, part_box

# Canonical 17-part ordering used by the synthetic provider.
PART_ORDER: tuple[NodeId, ...] = (FULL_BODY, UPPER_BODY, LOWER_BODY) + ATOMIC_PARTS


@dataclass(frozen=True, slots=True)
class Proposal:
    """One detected part candidate: position, type, and bounding box."""

    id: str
    part: NodeId
    x: float
    y: float
    part_type: int
    box: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        check_fields(self, _PROPOSAL)
        if self.box[2] <= 0.0 or self.box[3] <= 0.0:
            raise ValidationError(f"box width and height must be positive, got {self.box!r}")

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Proposal":
        """The proposal a JSON object describes; its other keys are ignored."""
        return cls(**_PROPOSAL.present(doc))


_PROPOSAL = record(id=text, part=text, x=number, y=number, part_type=count, box=array(number, 4))
_PROPOSAL_FIELDS = itemgetter(*(name for name, _spec, _default in _PROPOSAL.fields))


_SCORES = mapping(mapping(number))


class ScoreTable:
    """Finite log-scores as an immutable, complete grid: ``values`` has one
    row per proposal id and one column per (attribute, value) pair, both in
    first-seen order.  :meth:`rows` and :meth:`column` resolve ids and
    pairs to indices and own the error text for ones the grid lacks."""

    __slots__ = ("values", "_rows", "_columns")

    def __init__(self, entries: Mapping[str, Mapping[AttrId, Mapping[str, float]]]):
        grid = _Grid()
        for pid, per_attr in entries.items():
            grid.add(pid, per_attr)
        self._fill(list(entries), grid.columns, grid.values(list(entries)))

    @classmethod
    def _from_grid(cls, pids: Sequence[str], columns: dict, values: np.ndarray) -> "ScoreTable":
        """The table of the finite (len(pids), len(columns)) array
        ``values``: one row per id of ``pids`` (all distinct), in order, and
        one column per pair of ``columns``, each mapped to its index."""
        table = cls.__new__(cls)
        table._fill(pids, columns, values)
        return table

    def _fill(self, pids: Sequence[str], columns: dict, values: np.ndarray) -> None:
        self._rows = {pid: r for r, pid in enumerate(pids)}
        self._columns = columns
        self.values = values
        self.values.flags.writeable = False

    def rows(self, pids: Sequence[str], part: Callable[[int], NodeId] | None = None) -> np.ndarray:
        """The row of each of ``pids``; an error names the first id missing, the i-th, and its part ``part(i)``."""
        try:
            return np.array([self._rows[pid] for pid in pids], dtype=np.intp)
        except KeyError as exc:
            where = f" (part {part(pids.index(exc.args[0]))!r})" if part else ""
            raise MissingEntryError(f"no scores for proposal {exc.args[0]!r}{where}") from None

    def row(self, pid: str) -> int:
        """The row of ``pid``, refused as :meth:`rows` refuses it."""
        return self._rows[pid] if pid in self._rows else int(self.rows([pid])[0])

    def column(self, attr: AttrId, value: str) -> int:
        """The column of ``attr=value``."""
        if (attr, value) in self._columns:
            return self._columns[attr, value]
        if any(a == attr for a, _v in self._columns):
            raise MissingEntryError(f"the score table has no score for {attr!r}={value!r}")
        raise MissingEntryError(f"the score table has no scores for attribute {attr!r}")

    def appearance(
        self,
        rows: np.ndarray,
        attributes: Sequence[AttributeDef],
        assignments: Sequence[Mapping[AttrId, str]],
    ) -> np.ndarray:
        """Each objective's appearance term of each of ``rows``: one row per
        assignment of ``assignments``, shape (K, len(rows)).

        Under an assignment: the assigned cells, added in assignment order
        with no ``0.0`` start, so a ``-0.0`` score keeps its sign.  Without
        one: ``0.0`` plus each attribute's best value score, in the order
        of ``attributes``.  Every pair of ``attributes`` must have a column.
        """
        groups = [[self.column(a.id, v) for v in a.domain] for a in attributes]
        columns = [[self.column(a, v) for a, v in assignment.items()] for assignment in assignments]
        out = np.empty((len(columns), len(rows)))
        cells = self.values.take(rows, axis=0)
        free = None  # the first free objective's row, built once
        for row, cols in zip(out, columns):
            if cols:
                row[:] = cells[:, cols[0]]
                for c in cols[1:]:
                    row += cells[:, c]
            elif free is not None:
                row[:] = free
            else:
                free = row
                row.fill(0.0)
                for group in groups:
                    row += reduce(np.maximum, [cells[:, c] for c in group])
        return out

    def per_proposal(self, pid: str) -> dict[AttrId, dict[str, float]]:
        [row] = self.rows([pid])
        out: dict[AttrId, dict[str, float]] = {}
        for (attr, value), score in zip(self._columns, self.values[row].tolist()):
            out.setdefault(attr, {})[value] = score
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return {p: self.per_proposal(p) for p in self._rows} == {
            p: other.per_proposal(p) for p in other._rows
        }


def _refused_scores(pid: str, exc: FieldError, *keys) -> ValidationError:
    """``exc``, refusing proposal ``pid``'s ``scores`` field at ``keys``."""
    return ValidationError(f"proposal {pid!r}: {exc.within('scores', *keys)}")


def _cells(values: Sequence[str]) -> Callable[[Mapping], tuple]:
    """A function from an object to its entries at ``values`` (at least
    one), as a tuple."""
    if len(values) == 1:
        [value] = values
        return lambda per_value: (per_value[value],)
    return itemgetter(*values)


class _Grid:
    """Score rows read one by one into one flat list of ``cells``, row by
    row, at the (attribute, value) pairs of the first row, each pair mapped
    to its column in ``columns``.  An attribute with no values adds no
    pair, listed or not."""

    __slots__ = ("columns", "cells", "_first", "_getters")

    def __init__(self) -> None:
        self.columns: dict[tuple[AttrId, str], int] = {}
        self.cells: list = []
        self._getters: list | None = None

    def add(self, pid: str, per_attr) -> None:
        """Read proposal ``pid``'s score row ``per_attr``, an object of
        objects listing the first row's pairs and no others.  A row the
        fast read cannot take is checked beside the first row: the first
        row, then this one, by the score-row spec, then the first of the two
        that lacks a pair the other lists is refused, naming its proposal
        and the pair.  A row that passes is read as checked."""
        try:
            if self._getters is None:
                self._first = pid, per_attr
                self._getters = [(attr, _cells(tuple(pv))) for attr, pv in per_attr.items() if pv]
                pairs = ((attr, value) for attr, per_value in per_attr.items() for value in per_value)
                self.columns = {pair: c for c, pair in enumerate(pairs)}
            per_values = per_attr.values()
            if type(per_attr) is dict and set(map(type, per_values)) <= {dict}:
                # It lists no other pairs when it lists as many as are read.
                if sum(map(len, per_values)) == len(self.columns):
                    for attr, get in self._getters:
                        self.cells += get(per_attr[attr])
                    return
        except (AttributeError, KeyError, TypeError):
            pass
        # The fast read may have read some cells of a row lacking one of the
        # first row's pairs: such a row is refused below.
        rows, checked = [self._first, (pid, per_attr)], []
        for row_pid, row in rows:
            try:
                checked.append(_SCORES(row))
            except FieldError as exc:
                raise _refused_scores(row_pid, exc) from None
        pairs = dict.fromkeys((a, v) for row in checked for a, per_value in row.items() for v in per_value)
        for (row_pid, _row), row in zip(rows, checked):
            for attr, value in pairs:
                if value not in row.get(attr, ()):
                    raise ValidationError(f"proposal {row_pid!r}: scores.{attr}.{value} is missing, which other proposals have")
        for attr, get in self._getters:
            self.cells += get(checked[1][attr])

    def values(self, pids: Sequence[str]) -> np.ndarray:
        """The cells as a (len(pids), len(columns)) array, row ``r`` that of
        ``pids[r]``; a cell that fails the number rule is refused naming
        its proposal and pair."""
        try:
            values = number_column(self.cells)
        except FieldError as exc:
            r, c = divmod(exc.path[0], len(self.columns))
            raise _refused_scores(pids[r], FieldError(exc.problem), *list(self.columns)[c]) from None
        return values.reshape(len(pids), len(self.columns))


@dataclass(frozen=True, slots=True, eq=False)
class Bucket:
    """One part's proposals as columns: ``ids``, ``xy`` (N, 2), ``types``
    (N,) and ``boxes`` (N, 4), and each proposal's score-grid row in
    ``rows``.  :meth:`ProposalSet.from_columns` lists them in id order,
    read-only; no field can be rebound."""

    part: NodeId
    ids: tuple[str, ...]
    xy: np.ndarray
    types: np.ndarray
    boxes: np.ndarray
    rows: np.ndarray


class ProposalSet:
    """A read-only mapping to one :class:`Bucket` of read-only columns per
    part that has proposals, sharing one score table; built by
    :meth:`from_columns`.  No attribute can be rebound, as the search
    caches tables built from the set (weakly, by the set)."""

    __slots__ = ("buckets", "scores", "part_type_count", "__weakref__")

    def __init__(self, buckets: Iterable[Bucket], scores: ScoreTable, part_type_count: int) -> None:
        object.__setattr__(self, "buckets", MappingProxyType({b.part: b for b in buckets}))
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "part_type_count", part_type_count)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @classmethod
    def from_columns(cls, ids, parts, xy, types, boxes, scores: ScoreTable, part_type_count: int) -> "ProposalSet":
        """Proposals given as columns in listing order, grouped by part,
        each part's in id order.  They pass :func:`_checked_columns`, whose
        errors name the proposal by its id, as the search builds its states
        from these columns unchecked; each must have a row in ``scores``."""
        part_type_count = argument("part_type_count", part_type_count, count)
        columns = _checked_columns(ids, parts, xy, types, boxes, part_type_count, lambda i: f"proposal {ids[i]!r}")
        return cls._grouped(ids, parts, *columns, scores, part_type_count)

    @classmethod
    def _grouped(cls, ids, parts, xy: np.ndarray, types: np.ndarray, boxes: np.ndarray, scores, part_type_count):
        """The set of the checked columns, one bucket per part: its slice of the columns gathered once, in id order."""
        members: dict[NodeId, list[int]] = {}
        for i, part in enumerate(parts):
            members.setdefault(part, []).append(i)
        order = [i for index in members.values() for i in sorted(index, key=ids.__getitem__)]
        ordered = [ids[i] for i in order]
        columns = xy[order], types[order], boxes[order], scores.rows(ordered, lambda i: parts[order[i]])
        for column in columns:
            column.flags.writeable = False
        ends = list(accumulate(map(len, members.values())))
        buckets = [Bucket(p, tuple(ordered[s:e]), *(c[s:e] for c in columns)) for p, s, e in zip(members, [0] + ends, ends)]
        return cls(buckets, scores, part_type_count)

    @classmethod
    def from_proposals(
        cls,
        proposals: Iterable[Proposal],
        scores: ScoreTable,
        part_type_count: int = DEFAULT_PART_TYPE_COUNT,
    ) -> "ProposalSet":
        """``proposals`` grouped by part, as :meth:`from_columns` groups them."""
        ps = list(proposals)
        return cls.from_columns(
            [p.id for p in ps],
            [p.part for p in ps],
            [(p.x, p.y) for p in ps],
            [p.part_type for p in ps],
            [p.box for p in ps],
            scores,
            part_type_count,
        )

    def proposals_for(self, part: NodeId) -> tuple[Proposal, ...]:
        """``part``'s proposals in id order, rebuilt from its bucket."""
        if part not in self.buckets:
            return ()
        b = self.buckets[part]
        columns = zip(b.ids, b.xy.tolist(), b.types.tolist(), b.boxes.tolist())
        return tuple(Proposal(pid, part, x, y, t, box) for pid, (x, y), t, box in columns)

    def __len__(self) -> int:
        return sum(len(b.ids) for b in self.buckets.values())


def load_proposals(path: str, *, part_type_count: int = DEFAULT_PART_TYPE_COUNT) -> ProposalSet:
    """Read a JSON-lines proposal file; one proposal object per line.

    One streaming pass, which never reads the file again: each line is
    decoded, its six proposal fields go to the columns and its score
    cells, read at the first line's (attribute, value) pairs, to one flat
    list, and the document is dropped.  The pass stops at the first line
    it cannot read so (not an object, a field missing, or score pairs
    unlike the first line's) and refuses it: by its fields, naming
    ``path:line``, else by its score row against the first line's, naming
    ``path`` and the proposal.  After the last line the proposals pass
    :func:`_checked_columns`, whose errors name the first line at fault,
    as a check of that line alone words it; then the score grid is built
    from the cells, its errors naming ``path`` and the proposal.
    """
    part_type_count = argument("part_type_count", part_type_count, count)
    linenos: list[int] = []
    fields: list[tuple] = []
    grid = _Grid()
    for lineno, doc in json_lines(path):
        try:
            fields.append(_PROPOSAL_FIELDS(doc))
            grid.add(doc["id"], doc.get("scores", {}))
        except (KeyError, TypeError, ValidationError):  # not an object, a field missing, or its score row refused
            with naming(f"{path}:{lineno}"):
                Proposal.from_json_dict(doc)
            with naming(path):
                raise
        linenos.append(lineno)
    ids, parts, xs, ys, types, boxes = zip(*fields) if fields else [()] * 6
    where = lambda i: f"{path}:{linenos[i]}"
    xy, types, boxes = _checked_columns(ids, parts, list(zip(xs, ys)), types, boxes, part_type_count, where)
    # The grid keys its rows by id, so it comes after the ids' check.
    with naming(path):
        scores = ScoreTable._from_grid(ids, grid.columns, grid.values(ids))
    return ProposalSet._grouped(ids, parts, xy, types, boxes, scores, part_type_count)


_PAIR = array(lambda entry: entry, 2)  # (x, y), its entries left to the check of a Proposal


_INT64_MAX = int(np.iinfo(np.int64).max)


def _checked_columns(ids, parts, xy, types, boxes, part_type_count: int, where: Callable[[int], str]) -> tuple:
    """The ``xy`` (N, 2), ``types`` (N,) and ``boxes`` (N, 4) arrays of N
    proposals given as columns in listing order, ``xy`` of (x, y) pairs and
    ``boxes`` of 4 numbers each, as lists or tuples: the reader's decoded
    lists, :func:`synth_scores`' tuples and
    :meth:`ProposalSet.from_proposals`' checked floats alike.

    Each proposal must be one :class:`Proposal` takes, with a part type of
    at most ``part_type_count`` and an id no earlier one has.  Columns of
    unequal length are refused, naming each one's length.  Otherwise each
    column is scanned whole; when one fails, the first proposal at fault
    is refused, by ``Proposal(...)``, then by the part-type bound, then by
    its repeated id, the error prefixed by ``where(i)`` for the i-th.  A
    ``part_type_count`` beyond the int64 ``types`` column's range is
    refused first, so every part type at most it fits the column."""
    if part_type_count > _INT64_MAX:
        raise ValidationError(
            f"part_type_count {part_type_count} is beyond {_INT64_MAX}, the largest part type an int64 column holds"
        )
    lengths = {"ids": len(ids), "parts": len(parts), "xy": len(xy), "types": len(types), "boxes": len(boxes)}
    if len(set(lengths.values())) > 1:
        named = ", ".join(f"{name} {n}" for name, n in lengths.items())
        raise ValidationError(f"proposal columns differ in length: {named}")
    n = len(ids)
    fine = set(map(type, ids)) | set(map(type, parts)) <= {str} and all(ids) and all(parts) and len(set(ids)) == n
    fine = fine and set(map(type, types)) <= {int}
    fine = fine and 1 <= min(types, default=1) <= max(types, default=1) <= part_type_count
    fine = fine and set(map(type, xy)) | set(map(type, boxes)) <= {list, tuple}
    if fine and set(map(len, xy)) <= {2} and set(map(len, boxes)) <= {4}:
        try:
            numbers = number_column([*chain.from_iterable(xy), *chain.from_iterable(boxes)])
        except FieldError:
            pass
        else:
            checked_xy, checked_boxes = numbers[: 2 * n].reshape(n, 2), numbers[2 * n :].reshape(n, 4)
            if (checked_boxes[:, 2:] > 0.0).all():
                return checked_xy, np.array(types, dtype=np.int64), checked_boxes
    # Some proposal may be at fault: the first one is refused.  If none is,
    # the columns hold their values as a Proposal reads them.
    seen: set[str] = set()
    checked = []
    for i, (pid, part, pair, part_type, box) in enumerate(zip(ids, parts, xy, types, boxes)):
        with naming(where(i)):
            p = Proposal(pid, part, *argument("xy", pair, _PAIR), part_type, box)
            if p.part_type > part_type_count:
                raise ValidationError(f"part_type {p.part_type} exceeds part_type_count {part_type_count}")
            if p.id in seen:
                raise ValidationError(f"duplicate proposal id {p.id!r}")
        seen.add(p.id)
        checked.append(((p.x, p.y), p.part_type, p.box))
    xy, types, boxes = zip(*checked)
    return np.array(xy, dtype=float), np.array(types, dtype=np.int64), np.array(boxes, dtype=float)


def save_proposals(pset: ProposalSet, path: str) -> None:
    """Write JSON-lines, parts in sorted order, each part's proposals in id
    order."""
    docs = []
    for part in sorted(pset.buckets):
        b = pset.buckets[part]
        columns = zip(b.ids, b.xy.tolist(), b.types.tolist(), b.boxes.tolist())
        for pid, (x, y), part_type, box in columns:
            doc = {
                "id": pid,
                "part": part,
                "x": x,
                "y": y,
                "part_type": part_type,
                "box": box,
                "scores": pset.scores.per_proposal(pid),
            }
            docs.append(doc)
    write_json_lines(path, docs)


# The synthetic provider's score structure, as :func:`synth_scores` uses it.
SYNTH_MARGIN = 2.5
SYNTH_TARGET_BONUS = 0.15


def synth_scores(
    scene: SyntheticScene,
    noise_sigma: float,
    rng_seed: int,
    *,
    attr_defs: Sequence[AttributeDef] | None = None,
    part_type_count: int = DEFAULT_PART_TYPE_COUNT,
) -> ProposalSet:
    """Oracle appearance provider over a synthetic scene.

    Emits one proposal per (person, part) at the ground-truth keypoint.
    A proposal's score for an attribute value is ``-SYNTH_MARGIN`` if the
    value contradicts the part's apparent value, ``0`` otherwise, plus
    ``SYNTH_TARGET_BONUS`` for the first person and Gaussian noise of
    sigma ``noise_sigma`` (a number >= 0).  The first person's parts all
    show that person's true values, so with zero noise the true value is
    strictly highest at every one of its parts.  Later persons mimic
    off-center people with corrupted per-part attribute evidence: each
    (part, attribute) shows an independently drawn domain value, so no
    single value fits all of their parts at once.  A noise so large that a
    score leaves the float range is refused, naming ``noise_sigma``, the
    person, the part and the first such pair.

    The draws run person by person, part by part: the part's type, then,
    for the first person, one noise draw per (attribute, value) pair at
    once; for a later person, per attribute, one uniform draw no value
    depends on, its apparent value and one noise draw per value at once.
    A person's rows are written together once drawn.
    """
    noise_sigma = _sigma("noise_sigma", noise_sigma)
    part_type_count = argument("part_type_count", part_type_count, count)
    attr_defs = default_attributes() if attr_defs is None else tuple(attr_defs)
    rng = np.random.default_rng(argument("rng_seed", rng_seed, nonnegative))
    pairs = [(a.id, v) for a in attr_defs for v in a.domain]
    sizes = [len(a.domain) for a in attr_defs]
    starts, declared = np.cumsum([0] + sizes).tolist(), {a.id for a in attr_defs}
    grid = np.empty((len(scene.persons) * len(PART_ORDER), len(pairs)))
    proposals: list[tuple] = []  # (id, part, (x, y), part type, box)
    for pi, person in enumerate(scene.persons):
        unknown = [a for a in person.attributes if a not in declared]
        if unknown:
            raise ValidationError(f"person {pi} has values for undeclared attributes {unknown}")
        for attr in attr_defs:
            true_value = person.attributes.get(attr.id)
            if true_value is None:
                raise ValidationError(f"person {pi} has no value for attribute {attr.id!r}")
            if true_value not in attr.domain:
                raise ValidationError(f"person {pi}: value {true_value!r} outside domain of {attr.id!r}")
        truth = [s + a.domain.index(person.attributes[a.id]) for s, a in zip(starts, attr_defs)]
        keypoints = part_keypoints(person.joints)
        bonus = SYNTH_TARGET_BONUS if pi == 0 else 0.0
        first, noise, shown = len(proposals), [], []
        for part in PART_ORDER:
            part_type = int(rng.integers(1, part_type_count + 1))
            proposals.append((f"p{pi}.{part}", part, keypoints[part], part_type, part_box(part, keypoints)))
            if pi == 0:
                apparent = truth
                noise.append(rng.normal(0.0, noise_sigma, size=len(pairs)))
            else:
                apparent = []
                for start, size in zip(starts, sizes):
                    rng.random()  # dropped, but the later draws follow it and tests/test_pinned_outputs.py pins them
                    apparent.append(start + int(rng.integers(0, size)))
                    noise.append(rng.normal(0.0, noise_sigma, size=size))
            shown.append(apparent)
        rows = grid[first : len(proposals)]
        rows.fill(bonus + -SYNTH_MARGIN)
        rows[np.arange(len(PART_ORDER))[:, None], np.array(shown, dtype=np.intp)] = bonus + 0.0
        rows += np.concatenate(noise).reshape(rows.shape) if noise else 0.0  # a later person may have no attributes
        bad = np.argwhere(~np.isfinite(rows))
        if bad.size:
            r, c = bad[0]
            attr, value = pairs[c]
            raise ValidationError(
                f"noise_sigma {noise_sigma} gives person {pi}'s part {PART_ORDER[r]!r} "
                f"a score of {rows.item(r, c)} for {attr}={value}, not a finite number"
            )
    columns = {pair: c for c, pair in enumerate(pairs)}
    scores = ScoreTable._from_grid([pid for pid, *_rest in proposals], columns, grid)
    return ProposalSet.from_columns(*zip(*proposals), scores, part_type_count)
