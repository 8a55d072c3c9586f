"""Appearance scores: part proposals and their per-attribute log-scores.

The engine never looks at pixels.  Whatever detector produced the
proposals is abstracted into a :class:`ScoreTable`, loaded from disk or
produced by the synthetic provider :func:`synth_scores`: an immutable
grid with one row per proposal and one column per (attribute, value)
pair.  It is complete and finite; a score that is not a finite number, or
a proposal lacking a pair another proposal has, is refused when the table
is built, naming the proposal and the pair.  Every appearance read
gathers from it.

A :class:`ProposalSet` holds one columnar :class:`Bucket` per part, all
built by :meth:`ProposalSet.from_columns` from proposals given as
columns: the proposal reader's, the synthetic provider's and
:meth:`ProposalSet.from_proposals`'s.  The set keeps no :class:`Proposal`
objects: the search reads the columns, and only
:meth:`ProposalSet.proposals_for` rebuilds proposals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .grammar import (
    ATOMIC_PARTS,
    DEFAULT_PART_TYPE_COUNT,
    FULL_BODY,
    LOWER_BODY,
    PART_MEMBERS,
    UPPER_BODY,
    AttrId,
    AttributeDef,
    NodeId,
    default_attributes,
    part_keypoints,
)
from .jsonio import FieldError, read_json_lines, write_json_lines
from .jsonio import argument, array, check_fields, count, mapping, nonnegative, number, number_column
from .jsonio import record, text
from .synthetic import PART_BOX_SIZES, SyntheticScene

# Canonical 17-part ordering used by the synthetic provider.
PART_ORDER: tuple[NodeId, ...] = (FULL_BODY, UPPER_BODY, LOWER_BODY) + ATOMIC_PARTS


@dataclass(frozen=True)
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
            raise ValidationError(
                f"proposal {self.id!r}: box width and height must be positive, got {self.box!r}"
            )

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Proposal":
        """The proposal a JSON object describes; its other keys are ignored."""
        return cls(**_PROPOSAL.present(doc))


_PROPOSAL = record(id=text, part=text, x=number, y=number, part_type=count, box=array(number, 4))
_PROPOSAL_FIELDS = itemgetter("id", "part", "x", "y", "part_type", "box")


_SCORES = mapping(mapping(number))


class ScoreTable:
    """Finite log-scores as an immutable, complete grid: ``values`` has one
    row per proposal id and one column per (attribute, value) pair, both in
    first-seen order.  :meth:`rows` and :meth:`column` resolve ids and
    pairs to indices and own the error text for ones the grid lacks."""

    __slots__ = ("values", "_rows", "_columns")

    def __init__(self, entries: Mapping[str, Mapping[AttrId, Mapping[str, float]]]):
        self._rows = {pid: r for r, pid in enumerate(entries)}
        grid = _grid(list(entries.values()))
        if grid is None:
            # Some row is not an object of objects, or its pairs differ
            # from the first row's: check each row, then find the first
            # pair a row lacks.
            rows = []
            for pid, per_attr in entries.items():
                try:
                    rows.append(_SCORES(per_attr))
                except FieldError as exc:
                    raise _refused_scores(pid, exc) from None
            pairs = dict.fromkeys((a, v) for per_attr in rows for a, per_value in per_attr.items() for v in per_value)
            for pid, per_attr in zip(entries, rows):
                for attr, value in pairs:
                    if value not in per_attr.get(attr, ()):
                        raise ValidationError(
                            f"proposal {pid!r}: scores.{attr}.{value} is missing, which other proposals have"
                        )
            grid = _grid(rows)
        self._columns, cells = grid
        try:
            values = number_column(cells)
        except FieldError as exc:
            r, c = divmod(exc.path[0], len(self._columns))
            pid, pair = list(self._rows)[r], list(self._columns)[c]
            raise _refused_scores(pid, FieldError(exc.problem), *pair) from None
        self.values = values.reshape(len(self._rows), len(self._columns))
        self.values.flags.writeable = False

    def rows(self, pids: Iterable[str], part: NodeId | None = None) -> np.ndarray:
        """The row of each of ``pids``; an error names ``part``."""
        try:
            return np.array([self._rows[pid] for pid in pids], dtype=np.intp)
        except KeyError as exc:
            where = f" (part {part!r})" if part else ""
            raise MissingEntryError(f"no scores for proposal {exc.args[0]!r}{where}") from None

    def column(self, attr: AttrId, value: str, whose: str = "the score table") -> int:
        """The column of ``attr=value``; an error says ``whose`` lacks it."""
        if (attr, value) in self._columns:
            return self._columns[attr, value]
        if any(a == attr for a, _v in self._columns):
            raise MissingEntryError(f"{whose} has no score for {attr!r}={value!r}")
        raise MissingEntryError(f"{whose} has no scores for attribute {attr!r}")

    def lookup(self, pid: str, attr: AttrId, value: str, part: NodeId | None = None) -> float:
        [row] = self.rows([pid], part)
        where = f" (part {part!r})" if part else ""
        return float(self.values[row, self.column(attr, value, f"proposal {pid!r}{where}")])

    def appearance(
        self, rows: np.ndarray, attributes: Sequence[AttributeDef], assignment: Mapping[AttrId, str]
    ) -> np.ndarray:
        """The objective's appearance term of each of ``rows``.

        Under an assignment: the assigned cells, added in assignment order
        with no ``0.0`` start, so a ``-0.0`` score keeps its sign.  Without
        one: ``0.0`` plus each attribute's best value score, in the order
        of ``attributes``.  Every pair of ``attributes`` must have a column.
        """
        groups = [[self.column(a.id, v) for v in a.domain] for a in attributes]
        if assignment:
            # Gathered cell by cell, so the result owns its memory and holds
            # no view of a whole row block.
            cells = [self.values[rows, self.column(a, v)] for a, v in assignment.items()]
            return reduce(np.add, cells)
        grid = self.values[rows]
        return reduce(np.add, [grid[:, g].max(axis=1) for g in groups], np.zeros(len(grid)))

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


def _grid(rows: list) -> tuple[dict, list] | None:
    """The (attribute, value) pairs of ``rows[0]``, each mapped to its
    column, and every row's cells read at those pairs, flat and row by row;
    ``None`` when a row is not an object of objects or lists other pairs.
    An attribute with no values adds no pair, listed or not."""
    if not rows:
        return {}, []
    try:
        getters = [(attr, _cells(tuple(per_value))) for attr, per_value in rows[0].items() if per_value]
        cells: list = []
        for per_attr in rows:
            for attr, get in getters:
                cells += get(per_attr[attr])
        per_values = list(chain.from_iterable(map(dict.values, rows)))
    except (AttributeError, KeyError, TypeError):
        return None
    # Every row has the first row's pairs; it has no others when the rows
    # list as many pairs as were read.
    if not (set(map(type, per_values)) <= {dict} and sum(map(len, per_values)) == len(cells)):
        return None
    pairs = ((attr, value) for attr, per_value in rows[0].items() for value in per_value)
    return {pair: c for c, pair in enumerate(pairs)}, cells


class Bucket:
    """One part's proposals as columns, in listing order: ``ids``, ``xy``
    (N, 2), ``types`` (N,) and ``boxes`` (N, 4), each proposal's score-grid
    row in ``rows``, and in ``id_rank`` each id's rank among the ids."""

    __slots__ = ("part", "ids", "xy", "types", "boxes", "rows", "id_rank")

    def __init__(self, part: NodeId, ids: tuple[str, ...], xy, types, boxes, rows) -> None:
        self.part, self.ids, self.xy, self.types, self.boxes, self.rows = part, ids, xy, types, boxes, rows
        # The inverse of the id-sorting permutation.
        self.id_rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))


class ProposalSet:
    """One :class:`Bucket` per part that has proposals, sharing one score
    table; built by :meth:`from_columns`."""

    def __init__(self, buckets: Iterable[Bucket], scores: ScoreTable, part_type_count: int) -> None:
        self.buckets = {b.part: b for b in buckets}
        self.scores = scores
        self.part_type_count = part_type_count

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        parts: Sequence[NodeId],
        xy,
        types: Sequence[int],
        boxes,
        scores: ScoreTable,
        part_type_count: int,
        where: Callable[[int], str] = lambda i: "",
    ) -> "ProposalSet":
        """Checked proposals given as columns in listing order (``xy`` and
        ``boxes`` of 2 and 4 numbers each), grouped by part, each part's in
        listing order.  Every id must be unique, have a row in ``scores``
        and a type of at most ``part_type_count``; an error about the i-th
        proposal starts with ``where(i)``."""
        part_type_count = int(part_type_count)
        if max(types, default=0) > part_type_count or len(set(ids)) < len(ids):
            seen: set[str] = set()
            for i, (pid, part_type) in enumerate(zip(ids, types)):
                if part_type > part_type_count:
                    raise ValidationError(
                        f"{where(i)}proposal {pid!r}: part_type {part_type} exceeds "
                        f"part_type_count {part_type_count}"
                    )
                if pid in seen:
                    raise ValidationError(f"{where(i)}duplicate proposal id {pid!r}")
                seen.add(pid)
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        types = np.asarray(types, dtype=np.int64)
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        members: dict[NodeId, list[int]] = {}
        for i, part in enumerate(parts):
            members.setdefault(part, []).append(i)
        buckets = []
        for part, index in members.items():
            part_ids = tuple(ids[i] for i in index)
            rows = scores.rows(part_ids, part)
            buckets.append(Bucket(part, part_ids, xy[index], types[index], boxes[index], rows))
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
        """``part``'s proposals in listing order, rebuilt from its bucket."""
        if part not in self.buckets:
            return ()
        b = self.buckets[part]
        columns = zip(b.ids, b.xy.tolist(), b.types.tolist(), b.boxes.tolist())
        return tuple(Proposal(pid, part, x, y, t, box) for pid, (x, y), t, box in columns)

    def __len__(self) -> int:
        return sum(len(b.ids) for b in self.buckets.values())


def load_proposals(path: str, *, part_type_count: int = DEFAULT_PART_TYPE_COUNT) -> ProposalSet:
    """Read a JSON-lines proposal file; one proposal object per line.

    Each line is decoded once, then each field is checked and converted
    as one column.  An error names ``path:line`` of the first line at
    fault, in the words a check of that line alone uses, except the score
    grid's, which names ``path`` and the proposal.
    """
    linenos: list[int] = []
    docs = read_json_lines(path, lambda doc: doc, linenos)
    columns = _proposal_columns(docs)
    if columns is None:
        for lineno, doc in zip(linenos, docs):
            try:
                Proposal.from_json_dict(doc)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    ids, parts, xy, types, boxes = columns
    try:
        scores = ScoreTable(dict(zip(ids, map(dict.get, docs, repeat("scores"), repeat({})))))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    del docs  # the decoded lines are not needed past this point
    where = lambda i: f"{path}:{linenos[i]}: "
    return ProposalSet.from_columns(ids, parts, xy, types, boxes, scores, part_type_count, where)


def _proposal_columns(docs: list) -> tuple | None:
    """The columns ``ids``, ``parts``, ``xy``, ``types`` and ``boxes`` of the
    proposal objects ``docs``; ``None`` when a document fails a check."""
    if not set(map(type, docs)) <= {dict}:
        return None
    try:
        ids, parts, xs, ys, types, boxes = zip(*map(_PROPOSAL_FIELDS, docs)) if docs else [()] * 6
    except KeyError:
        return None
    if not set(map(type, types)) <= {int}:
        return None
    try:
        # Integers all pass the count rule when their extremes do.
        count(min(types, default=1)), count(max(types, default=1))
    except FieldError:
        return None
    if not (set(map(type, ids)) | set(map(type, parts)) <= {str} and all(ids) and all(parts)):
        return None
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        return None
    try:
        numbers = number_column(xs + ys + tuple(chain.from_iterable(boxes)))
    except FieldError:
        return None
    n = len(docs)
    xy, boxes = numbers[: 2 * n].reshape(2, n).T, numbers[2 * n :].reshape(n, 4)
    if (boxes[:, 2:] <= 0.0).any():
        return None
    return ids, parts, xy, types, boxes


def save_proposals(pset: ProposalSet, path: str) -> None:
    """Write JSON-lines, parts in sorted order, bucket order preserved."""
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


def _part_box(
    part: NodeId, keypoints: Mapping[NodeId, tuple[float, float]]
) -> tuple[float, float, float, float]:
    if part in PART_BOX_SIZES:
        w, h = PART_BOX_SIZES[part]
        x, y = keypoints[part]
        return (x - w / 2.0, y - h / 2.0, w, h)
    members = PART_MEMBERS[part]
    pad = 6.0
    xs = [keypoints[m][0] for m in members]
    ys = [keypoints[m][1] for m in members]
    x0, y0 = min(xs) - pad, min(ys) - pad
    return (x0, y0, max(xs) + pad - x0, max(ys) + pad - y0)


def synth_scores(
    scene: SyntheticScene,
    noise_sigma: float,
    rng_seed: int,
    *,
    attr_defs: Sequence[AttributeDef] | None = None,
    margin: float = 2.5,
    target_bonus: float = 0.15,
    distractor_coherence: float = 0.0,
    part_type_count: int = DEFAULT_PART_TYPE_COUNT,
) -> ProposalSet:
    """Oracle appearance provider over a synthetic scene.

    Emits one proposal per (person, part) at the ground-truth keypoint.
    A proposal's score for an attribute value is ``-margin`` if the value
    contradicts the part's apparent value, ``0`` otherwise, plus
    ``target_bonus`` for the first person and Gaussian noise of the given
    sigma.  The first person's parts all show that person's true values,
    so with zero noise the true value is strictly highest at every one of
    its parts.  Later persons mimic off-center people whose per-part
    attribute evidence is corrupted: each (part, attribute) shows the
    person's true value with probability ``distractor_coherence`` and an
    independently drawn domain value otherwise, so no single value fits
    all of their parts at once.
    """
    noise_sigma = argument("noise_sigma", noise_sigma, number)
    margin = argument("margin", margin, number)
    target_bonus = argument("target_bonus", target_bonus, number)
    distractor_coherence = argument("distractor_coherence", distractor_coherence, number)
    part_type_count = argument("part_type_count", part_type_count, count)
    if noise_sigma < 0.0:
        raise ValidationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if not 0.0 <= distractor_coherence <= 1.0:
        raise ValidationError(
            f"distractor_coherence must be in [0, 1], got {distractor_coherence}"
        )
    attr_defs = default_attributes() if attr_defs is None else tuple(attr_defs)
    rng = np.random.default_rng(argument("rng_seed", rng_seed, nonnegative))
    proposals: list[tuple] = []  # (id, part, (x, y), part type, box)
    scores: dict[str, dict[AttrId, dict[str, float]]] = {}
    for pi, person in enumerate(scene.persons):
        unknown = [a for a in person.attributes if a not in {d.id for d in attr_defs}]
        if unknown:
            raise ValidationError(f"person {pi} has values for undeclared attributes {unknown}")
        keypoints = part_keypoints(person.joints)
        bonus = target_bonus if pi == 0 else 0.0
        for part in PART_ORDER:
            pid = f"p{pi}.{part}"
            part_type = int(rng.integers(1, part_type_count + 1))
            proposals.append((pid, part, keypoints[part], part_type, _part_box(part, keypoints)))
            per_attr = scores[pid] = {}
            for attr in attr_defs:
                true_value = person.attributes.get(attr.id)
                if true_value is None:
                    raise ValidationError(
                        f"person {pi} has no value for attribute {attr.id!r}"
                    )
                if true_value not in attr.domain:
                    raise ValidationError(
                        f"person {pi}: value {true_value!r} outside domain of {attr.id!r}"
                    )
                apparent = true_value
                if pi > 0 and rng.random() >= distractor_coherence:
                    apparent = attr.domain[int(rng.integers(0, len(attr.domain)))]
                per_value = per_attr[attr.id] = {}
                for value in attr.domain:
                    base = bonus + (0.0 if value == apparent else -margin)
                    noise = float(rng.normal(0.0, noise_sigma))
                    per_value[value] = base + noise
    return ProposalSet.from_columns(*zip(*proposals), ScoreTable(scores), part_type_count)
