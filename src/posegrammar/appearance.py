"""Appearance scores: part proposals and their per-attribute log-scores.

The engine never looks at pixels.  Whatever detector produced the
proposals is abstracted into a :class:`ScoreTable`, loaded from disk or
produced by the synthetic provider :func:`synth_scores`: an immutable
grid with one row per proposal and one column per (attribute, value)
pair.  It is complete and finite; a non-finite score, or a proposal
lacking a pair another proposal has, is refused when the table is built,
naming the proposal and the pair.  Every appearance read gathers from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .grammar import (
    ATOMIC_PARTS,
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
from .jsonio import malformed, read_json_lines, write_json_lines
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
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"proposal id must be a non-empty string, got {self.id!r}")
        box = tuple(float(v) for v in self.box)
        if len(box) != 4:
            raise ValidationError(f"proposal {self.id!r}: box must have 4 entries, got {box!r}")
        x, y = float(self.x), float(self.y)
        if not all(map(math.isfinite, (x, y) + box)):
            raise ValidationError(
                f"proposal {self.id!r}: x, y and box must be finite, got ({x!r}, {y!r}) and {box!r}"
            )
        if box[2] <= 0.0 or box[3] <= 0.0:
            raise ValidationError(
                f"proposal {self.id!r}: box width and height must be positive, got {box!r}"
            )
        if self.part_type < 1:
            raise ValidationError(
                f"proposal {self.id!r}: part_type must be >= 1, got {self.part_type}"
            )
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class ScoreTable:
    """Finite log-scores as an immutable, complete grid: ``values`` has one
    row per proposal id and one column per (attribute, value) pair, both in
    first-seen order.  :meth:`rows` and :meth:`column` resolve ids and
    pairs to indices and own the error text for ones the grid lacks."""

    __slots__ = ("values", "_rows", "_columns")

    def __init__(self, entries: Mapping[str, Mapping[AttrId, Mapping[str, float]]]):
        self._rows = {pid: r for r, pid in enumerate(entries)}
        self._columns: dict[tuple[AttrId, str], int] = {}
        # Rows that list the same pairs in the same order form one block,
        # filled with one array assignment.
        blocks: dict[tuple, tuple[list[int], list[int], list]] = {}
        for r, per_attr in enumerate(entries.values()):
            layout = tuple((attr, tuple(per_value)) for attr, per_value in per_attr.items())
            if layout not in blocks:
                pairs = [(a, v) for a, vs in layout for v in vs]
                cols = [self._columns.setdefault(pair, len(self._columns)) for pair in pairs]
                blocks[layout] = (cols, [], [])
            _cols, rows, scores = blocks[layout]
            rows.append(r)
            for per_value in per_attr.values():
                scores.extend(per_value.values())
        self.values = np.full((len(self._rows), len(self._columns)), np.nan)
        given = np.zeros(self.values.shape, dtype=bool)
        for cols, rows, scores in blocks.values():
            cells = np.ix_(rows, cols)
            self.values[cells] = np.array(scores, dtype=float).reshape(len(rows), len(cols))
            given[cells] = True
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            r, c = bad[0]
            pid, (attr, value) = list(self._rows)[r], list(self._columns)[c]
            if given[r, c]:
                raise ValidationError(
                    f"score for proposal {pid!r}, attribute {attr!r}={value!r} "
                    f"must be finite, got {float(self.values[r, c])!r}"
                )
            raise ValidationError(
                f"proposal {pid!r} has no score for {attr!r}={value!r}, which other proposals have"
            )
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
        grid = self.values[rows]
        if assignment:
            return reduce(np.add, [grid[:, self.column(a, v)] for a, v in assignment.items()])
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


class ProposalSet:
    """Per-part proposal buckets sharing one score table."""

    def __init__(
        self,
        buckets: Mapping[NodeId, Sequence[Proposal]],
        scores: ScoreTable,
        part_type_count: int = 9,
    ) -> None:
        self.part_type_count = int(part_type_count)
        self.scores = scores
        self.buckets: dict[NodeId, tuple[Proposal, ...]] = {}
        seen_ids: set[str] = set()
        for part, props in buckets.items():
            props = tuple(props)
            for p in props:
                if p.part != part:
                    raise ValidationError(
                        f"proposal {p.id!r} for part {p.part!r} filed under bucket {part!r}"
                    )
                if p.part_type > self.part_type_count:
                    raise ValidationError(
                        f"proposal {p.id!r}: part_type {p.part_type} exceeds "
                        f"part_type_count {self.part_type_count}"
                    )
                if p.id in seen_ids:
                    raise ValidationError(f"duplicate proposal id {p.id!r}")
                seen_ids.add(p.id)
            self.buckets[part] = props
        for part, props in self.buckets.items():
            scores.rows((p.id for p in props), part)

    @classmethod
    def from_proposals(
        cls,
        proposals: Iterable[Proposal],
        scores: ScoreTable,
        part_type_count: int = 9,
    ) -> "ProposalSet":
        buckets: dict[NodeId, list[Proposal]] = {}
        for p in proposals:
            buckets.setdefault(p.part, []).append(p)
        return cls(buckets, scores, part_type_count=part_type_count)

    def proposals_for(self, part: NodeId) -> tuple[Proposal, ...]:
        return self.buckets.get(part, ())

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())


def load_proposals(path: str, *, part_type_count: int = 9) -> ProposalSet:
    """Read a JSON-lines proposal file; one proposal object per line."""
    rows = read_json_lines(path, lambda doc: (_proposal_from_doc(doc), _scores_from_doc(doc)))
    try:
        scores = ScoreTable({p.id: per_attr for p, per_attr in rows})
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return ProposalSet.from_proposals((p for p, _ in rows), scores, part_type_count=part_type_count)


def _proposal_from_doc(doc: Mapping) -> Proposal:
    """The proposal a JSON object describes."""
    with malformed("proposal", doc):
        box = doc["box"]
        if not isinstance(box, (list, tuple)) or len(box) != 4:
            raise ValidationError(f"box must be a 4-element array, got {box!r}")
        for field in ("x", "y"):
            v = doc[field]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValidationError(f"field {field!r} must be a number, got {v!r}")
        return Proposal(
            id=str(doc["id"]),
            part=str(doc["part"]),
            x=float(doc["x"]),
            y=float(doc["y"]),
            part_type=int(doc["part_type"]),
            box=tuple(float(v) for v in box),
        )


def _scores_from_doc(doc: Mapping) -> Mapping[AttrId, Mapping[str, float]]:
    """The scores a proposal object lists, each checked to be a JSON number."""
    with malformed("proposal", doc):
        scores = doc.get("scores", {})
        for attr, per_value in scores.items():
            for value, score in per_value.items():
                if type(score) is not float:
                    if type(score) is not int:
                        raise ValidationError(
                            f"score for {attr!r}={value!r} must be a number, got {score!r}"
                        )
                    float(score)  # an integer beyond the float range raises here
        return scores


def save_proposals(pset: ProposalSet, path: str) -> None:
    """Write JSON-lines, parts in sorted order, bucket order preserved."""
    docs = []
    for part in sorted(pset.buckets):
        for p in pset.buckets[part]:
            doc = {
                "id": p.id,
                "part": p.part,
                "x": p.x,
                "y": p.y,
                "part_type": p.part_type,
                "box": list(p.box),
                "scores": pset.scores.per_proposal(p.id),
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
    part_type_count: int = 9,
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
    if noise_sigma < 0.0:
        raise ValidationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if not 0.0 <= distractor_coherence <= 1.0:
        raise ValidationError(
            f"distractor_coherence must be in [0, 1], got {distractor_coherence}"
        )
    attr_defs = default_attributes() if attr_defs is None else tuple(attr_defs)
    rng = np.random.default_rng(int(rng_seed))
    proposals: list[Proposal] = []
    scores: dict[str, dict[AttrId, dict[str, float]]] = {}
    for pi, person in enumerate(scene.persons):
        unknown = [a for a in person.attributes if a not in {d.id for d in attr_defs}]
        if unknown:
            raise ValidationError(f"person {pi} has values for undeclared attributes {unknown}")
        keypoints = part_keypoints(person.joints)
        bonus = target_bonus if pi == 0 else 0.0
        for part in PART_ORDER:
            x, y = keypoints[part]
            pid = f"p{pi}.{part}"
            proposals.append(
                Proposal(
                    id=pid,
                    part=part,
                    x=x,
                    y=y,
                    part_type=int(rng.integers(1, part_type_count + 1)),
                    box=_part_box(part, keypoints),
                )
            )
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
    return ProposalSet.from_proposals(proposals, ScoreTable(scores), part_type_count=part_type_count)
