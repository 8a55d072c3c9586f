"""Appearance scores: part proposals and their per-attribute log-scores.

The engine never looks at pixels.  Whatever detector produced the
proposals is abstracted into a :class:`ScoreTable` mapping
``(proposal id, attribute, value)`` to a log-score, loaded from disk or
produced by the synthetic provider :func:`synth_scores`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Finite log-scores keyed by (proposal id, attribute, value)."""

    def __init__(self, entries: Mapping[str, Mapping[AttrId, Mapping[str, float]]] | None = None):
        self._scores: dict[str, dict[AttrId, dict[str, float]]] = {}
        for pid, per_attr in (entries or {}).items():
            for attr, per_value in per_attr.items():
                for value, score in per_value.items():
                    self.set(pid, attr, value, score)

    def set(self, pid: str, attr: AttrId, value: str, score: float) -> None:
        score = float(score)
        if not math.isfinite(score):
            raise ValidationError(
                f"score for proposal {pid!r}, attribute {attr!r}={value!r} "
                f"must be finite, got {score!r}"
            )
        self._scores.setdefault(pid, {}).setdefault(attr, {})[value] = score

    def lookup(self, pid: str, attr: AttrId, value: str, part: NodeId | None = None) -> float:
        where = f" (part {part!r})" if part else ""
        per_attr = self._scores.get(pid)
        if per_attr is None:
            raise MissingEntryError(f"no scores for proposal {pid!r}{where}")
        per_value = per_attr.get(attr)
        if per_value is None:
            raise MissingEntryError(
                f"proposal {pid!r}{where} has no scores for attribute {attr!r}"
            )
        try:
            return per_value[value]
        except KeyError:
            raise MissingEntryError(
                f"proposal {pid!r}{where} has no score for {attr!r}={value!r}"
            ) from None

    def per_proposal(self, pid: str) -> dict[AttrId, dict[str, float]]:
        return {a: dict(v) for a, v in self._scores.get(pid, {}).items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return self._scores == other._scores

    def __len__(self) -> int:
        return sum(len(v) for per in self._scores.values() for v in per.values())


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

    def all_proposals(self) -> list[Proposal]:
        return [p for part in self.buckets for p in self.buckets[part]]

    def __len__(self) -> int:
        return sum(len(b) for b in self.buckets.values())


def load_proposals(path: str, *, part_type_count: int = 9) -> ProposalSet:
    """Read a JSON-lines proposal file; one proposal object per line."""
    scores = ScoreTable()
    proposals = read_json_lines(path, lambda doc: _proposal_from_doc(doc, scores))
    return ProposalSet.from_proposals(proposals, scores, part_type_count=part_type_count)


def _proposal_from_doc(doc: Mapping, scores: ScoreTable | None = None) -> Proposal:
    """The proposal a JSON object describes; its scores go into ``scores`` if given."""
    with malformed("proposal", doc):
        box = doc["box"]
        if not isinstance(box, (list, tuple)) or len(box) != 4:
            raise ValidationError(f"box must be a 4-element array, got {box!r}")
        for field in ("x", "y"):
            v = doc[field]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ValidationError(f"field {field!r} must be a number, got {v!r}")
        proposal = Proposal(
            id=str(doc["id"]),
            part=str(doc["part"]),
            x=float(doc["x"]),
            y=float(doc["y"]),
            part_type=int(doc["part_type"]),
            box=tuple(float(v) for v in box),
        )
        if scores is not None:
            for attr, per_value in doc.get("scores", {}).items():
                for value, score in per_value.items():
                    if not isinstance(score, (int, float)) or isinstance(score, bool):
                        raise ValidationError(
                            f"score for {attr!r}={value!r} must be a number, got {score!r}"
                        )
                    scores.set(proposal.id, str(attr), str(value), float(score))
    return proposal


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
    table = ScoreTable()
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
                for value in attr.domain:
                    base = bonus + (0.0 if value == apparent else -margin)
                    noise = float(rng.normal(0.0, noise_sigma))
                    table.set(pid, attr.id, value, base + noise)
    return ProposalSet.from_proposals(proposals, table, part_type_count=part_type_count)
