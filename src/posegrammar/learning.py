"""Model learning from pose annotations.

Covers the ingestion and fitting side of the engine: labeling detector
proposals against annotated persons, fitting the part-type co-occurrence
tables and the per-edge displacement mixtures, and deriving part to
attribute associations from mutual information between attribute
availability and part visibility.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .appearance import Proposal
from .errors import DegenerateDataError, MissingEntryError, ValidationError
from .grammar import (
    ATOMIC_PARTS,
    PART_MEMBERS,
    AOGrammar,
    AttrId,
    NodeId,
    part_keypoints,
    require_atomic_joints,
)
from .jsonio import read_json_lines, write_json_lines
from .jsonio import argument, array, check_fields, count, flag, instance, mapping, nonnegative, nullable, number, optional
from .jsonio import record, text
from .relations import (
    AttributeAssociation,
    Edge,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    _component_constants,
    _floor_covariances,
    _log_sum_exp,
    _matrices,
    _mixture_terms,
)

# Proposal labeling thresholds: person-box overlap below the first bound
# marks a negative, above the second bound a part candidate; the band in
# between is discarded as ambiguous.  Part candidates must additionally
# have a normalized keypoint distance below the distance bound.
OVERLAP_NEGATIVE = 0.5
OVERLAP_POSITIVE = 0.7
DISTANCE_BOUND = 0.5

# EM stops once the mean log-likelihood gains less than this per iteration.
EM_TOL = 1e-6

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True)
class JointObs:
    """One annotated joint: position plus visibility."""

    x: float
    y: float
    visible: bool = True

    def __post_init__(self) -> None:
        check_fields(self, _JOINT_FIELDS)


_JOINT_FIELDS = record(x=number, y=number, visible=flag)
# An annotation file writes a joint as [x, y, visible].
_JOINT_DOC = array((number, number, flag))


@dataclass(frozen=True)
class Annotation:
    """Ground truth for one person: 14 joints, person box, attribute values.

    A joint is a :class:`JointObs`, or ``[x, y, visible]`` as an annotation
    file writes it.  ``attributes`` maps attribute ids to a value label, or
    ``None`` when the value could not be determined for this person (for
    example the relevant body region is not visible).
    """

    joints: Mapping[NodeId, JointObs]
    person_box: tuple[float, float, float, float]
    attributes: Mapping[AttrId, str | None]

    def __post_init__(self) -> None:
        check_fields(self, _ANNOTATION_FIELDS)
        require_atomic_joints(self.joints, "annotation")
        if not any(j.visible for j in self.joints.values()):
            raise ValidationError("annotation needs at least one visible joint")
        if self.person_box[2] <= 0.0 or self.person_box[3] <= 0.0:
            raise ValidationError(f"person box must have positive area, got {self.person_box!r}")

    def to_json_dict(self) -> dict:
        return {
            "joints": {p: [j.x, j.y, j.visible] for p, j in self.joints.items()},
            "person_box": list(self.person_box),
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Annotation":
        return cls(**_ANNOTATION_FIELDS.present(doc))


_ANNOTATION_FIELDS = record(
    joints=mapping(instance(JointObs, lambda joint: JointObs(*_JOINT_DOC(joint)))),
    person_box=array(number, 4),
    attributes=optional(mapping(nullable(text)), {}),
)


def save_annotations(annotations: Sequence[Annotation], path: str) -> None:
    write_json_lines(path, [ann.to_json_dict() for ann in annotations])


def load_annotations(path: str) -> list[Annotation]:
    return read_json_lines(path, Annotation.from_json_dict)


@dataclass(frozen=True)
class LabeledProposal:
    """A proposal after labeling: a part candidate or a negative.

    ``part`` is ``None`` for negatives.  ``distance`` records the
    normalized keypoint distance for proposals that passed the overlap
    bound, ``None`` otherwise.
    """

    proposal: Proposal
    part: NodeId | None
    part_type: int | None
    distance: float | None

    @property
    def is_negative(self) -> bool:
        return self.part is None


def box_iou(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two (x0, y0, w, h) boxes."""
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax0 + aw, bx0 + bw), min(ay0 + ah, by0 + bh)
    iw, ih = max(0.0, ix1 - ix0), max(0.0, iy1 - iy0)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0.0 else 0.0


def _box_contains_all(box: Sequence[float], points: Iterable[tuple[float, float]]) -> bool:
    x0, y0, w, h = box
    return all(x0 <= x <= x0 + w and y0 <= y <= y0 + h for x, y in points)


def label_proposals(ann: Annotation, proposals: Sequence[Proposal]) -> list[LabeledProposal]:
    """Label proposals against one annotated person.

    Proposals whose person-box overlap falls below ``OVERLAP_NEGATIVE``
    become negatives.  Proposals above ``OVERLAP_POSITIVE`` are matched to
    the part whose keypoint is nearest under the normalized squared
    distance; a nearest composite part only sticks if the proposal box
    contains all of its joints, otherwise the nearest atomic part is used.
    Matches with distance at or above ``DISTANCE_BOUND`` are dropped, as
    is the ambiguous overlap band in between.
    """
    keypoints = part_keypoints({p: (j.x, j.y) for p, j in ann.joints.items()})
    out: list[LabeledProposal] = []
    for prop in proposals:
        overlap = box_iou(prop.box, ann.person_box)
        if overlap < OVERLAP_NEGATIVE:
            out.append(LabeledProposal(prop, part=None, part_type=None, distance=None))
            continue
        if overlap <= OVERLAP_POSITIVE:
            continue
        cx, cy = prop.x, prop.y
        norm = min(prop.box[2], prop.box[3])
        best_part = None
        best_d = math.inf
        for part, (kx, ky) in keypoints.items():
            d = ((cx - kx) ** 2 + (cy - ky) ** 2) / norm
            if d < best_d:
                best_d = d
                best_part = part
        if best_part not in ATOMIC_PARTS:
            members = PART_MEMBERS[best_part]
            if not _box_contains_all(prop.box, [keypoints[m] for m in members]):
                best_part = min(
                    ATOMIC_PARTS,
                    key=lambda p: (cx - keypoints[p][0]) ** 2 + (cy - keypoints[p][1]) ** 2,
                )
        if best_d < DISTANCE_BOUND:
            out.append(
                LabeledProposal(prop, part=best_part, part_type=prop.part_type, distance=best_d)
            )
    return out


def fit_syntactic(
    data: Sequence[tuple[Annotation, Mapping[NodeId, int]]],
    grammar: AOGrammar,
) -> SyntacticTable:
    """Fit per-edge part-type co-occurrence tables with add-one smoothing.

    ``data`` pairs each annotation with the part types chosen for it (for
    example the types of its matched positive proposals).  An edge
    contributes a sample when both of its parts have a type.  Edges with
    no samples fall back to the uniform table with a warning.
    """
    t = grammar.part_type_count
    cells = t * t
    tables: dict[Edge, np.ndarray] = {}
    for edge in grammar.psg_edges:
        parent, child = edge
        counts = np.zeros((t, t), dtype=float)
        n = 0
        for _ann, types in data:
            tp = types.get(parent)
            tc = types.get(child)
            if tp is None or tc is None:
                continue
            if not (1 <= tp <= t and 1 <= tc <= t):
                raise ValidationError(
                    f"part types for edge {edge} must lie in 1..{t}, got ({tp}, {tc})"
                )
            counts[tp - 1, tc - 1] += 1.0
            n += 1
        if n == 0:
            warnings.warn(
                f"no part-type samples for edge {edge}; using the uniform table",
                stacklevel=2,
            )
        tables[edge] = (counts + 1.0) / (n + cells)
    return SyntacticTable(tables, part_type_count=t)


def _kmeans_plusplus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seed ``k`` means by the usual distance-weighted sampling."""
    n = X.shape[0]
    means = np.empty((k, X.shape[1]))
    means[0] = X[int(rng.integers(0, n))]
    d2 = np.sum((X - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            means[i] = X[int(rng.integers(0, n))]
            continue
        means[i] = X[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((X - means[i]) ** 2, axis=1))
    return means


def _scatter(X: np.ndarray, resp: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Each component's ``resp``-weighted scatter of the samples about its
    centre, (k, 2, 2), from the three moments."""
    dx = X[:, 0, None] - centres[:, 0]
    dy = X[:, 1, None] - centres[:, 1]
    rdx = resp * dx
    return _matrices((rdx * dx).sum(axis=0), (rdx * dy).sum(axis=0), (resp * dy * dy).sum(axis=0))


def _em_fit(
    X: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
) -> tuple[Mixture, list[float]]:
    """EM for a ``k``-component mixture over the (n >= 2) rows of ``X``, with
    the mean log-likelihood before each update as the trace.

    k-means++ seeds the means; each component starts from the covariance
    of the samples nearest its seed (the global covariance when fewer than
    two) and their share of the samples.  Each iteration is batched over
    the components: the E-step goes through :func:`_mixture_terms`, the
    M-step takes the responsibility sums, the means, the three covariance
    moments and one eigenvalue floor.  A component whose responsibilities
    sum below 1e-12 keeps its parameters and gets weight 0.
    """
    n = X.shape[0]
    means = _kmeans_plusplus(X, k, rng)
    labels = np.argmin(
        np.sum((X[:, None, :] - means[None, :, :]) ** 2, axis=2), axis=1
    )
    members = (labels[:, None] == np.arange(k)).astype(float)
    counts = members.sum(axis=0)
    centres = members.T @ X / np.maximum(counts, 1.0)[:, None]
    own = _scatter(X, members, centres) / np.maximum(counts - 1.0, 1.0)[:, None, None]
    covs = _floor_covariances(np.where((counts >= 2)[:, None, None], own, np.cov(X.T)))
    weights = np.maximum(counts, 1.0) / n
    weights = weights / weights.sum()

    trace: list[float] = []
    prev = None
    for _ in range(max_iter):
        # E-step quantities double as the likelihood trace.
        log_comp = _mixture_terms(X, means, *_component_constants(weights, covs))
        log_mix = _log_sum_exp(log_comp)
        ll = float(np.mean(log_mix))
        if prev is not None and ll < prev - 1e-7:
            raise RuntimeError(
                f"EM mean log-likelihood decreased from {prev} to {ll}"
            )
        trace.append(ll)
        if prev is not None and ll - prev < EM_TOL:
            break
        prev = ll

        resp = np.exp(log_comp - log_mix[:, None])
        nk = resp.sum(axis=0)
        live = nk >= 1e-12
        mass = np.where(live, nk, 1.0)
        means = np.where(live[:, None], resp.T @ X / mass[:, None], means)
        fitted = _floor_covariances(_scatter(X, resp, means) / mass[:, None, None])
        covs = np.where(live[:, None, None], fitted, covs)
        weights = np.where(live, nk / n, 0.0)
        weights = weights / weights.sum()
    else:
        log_mix = _log_sum_exp(_mixture_terms(X, means, *_component_constants(weights, covs)))
        trace.append(float(np.mean(log_mix)))

    return Mixture(weights=weights, means=means, covariances=covs), trace


def fit_kinematic(
    data: Mapping[Edge, np.ndarray],
    n_components: int = 10,
    seed: int = 0,
    max_iter: int = 200,
) -> KinematicMoG:
    """Fit one displacement mixture per dependency edge via EM.

    Each edge needs at least two displacement samples.  When an edge has
    fewer samples than requested components, the component count drops to
    the sample count with a warning.  Per-edge fits are seeded
    independently from ``seed`` so edge order cannot leak between fits.
    An edge whose fit stops at ``max_iter`` rather than at ``EM_TOL`` is
    logged at INFO, with its last gain in mean log-likelihood.
    """
    n_components = argument("n_components", n_components, count)
    seed = argument("seed", seed, nonnegative)
    mixtures: dict[Edge, Mixture] = {}
    traces: dict[Edge, list[float]] = {}
    for index, (edge, samples) in enumerate(data.items()):
        X = np.asarray(samples, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValidationError(
                f"edge {edge}: displacement samples must be (n, 2), got {X.shape}"
            )
        if not np.all(np.isfinite(X)):
            raise ValidationError(f"edge {edge}: displacement samples must be finite")
        n = X.shape[0]
        if n < 2:
            raise DegenerateDataError(
                f"edge {edge}: needs at least 2 displacement samples, got {n}"
            )
        k = n_components
        if n < k:
            warnings.warn(
                f"edge {edge}: only {n} samples for {k} components; using {n}",
                stacklevel=2,
            )
            k = n
        rng = np.random.default_rng([seed, index])
        mixtures[edge], traces[edge] = _em_fit(X, k, rng, max_iter)
        trace = traces[edge]
        if len(trace) > max_iter:
            gain = trace[-1] - trace[-2] if len(trace) > 1 else math.nan
            _LOG.info(
                "edge %s->%s: EM stopped at max_iter after %d iterations, last gain %.3g",
                edge[0], edge[1], max_iter, gain,
            )
    return KinematicMoG(mixtures, fit_traces=traces)


def displacement_samples(
    annotations: Sequence[Annotation], grammar: AOGrammar
) -> dict[Edge, np.ndarray]:
    """Child-minus-parent offsets per dependency edge, visible joints only."""
    out: dict[Edge, list[tuple[float, float]]] = {e: [] for e in grammar.dg_edges}
    for ann in annotations:
        for parent, child in grammar.dg_edges:
            jp, jc = ann.joints[parent], ann.joints[child]
            if jp.visible and jc.visible:
                out[(parent, child)].append((jc.x - jp.x, jc.y - jp.y))
    return {e: np.asarray(v, dtype=float) for e, v in out.items()}


def mutual_information(attr_known: Sequence[bool], part_visible: Sequence[bool]) -> float:
    """Mutual information, in nats, of two paired boolean samples."""
    if len(attr_known) != len(part_visible):
        raise ValidationError(
            f"sample lists differ in length: {len(attr_known)} vs {len(part_visible)}"
        )
    n = len(attr_known)
    if n == 0:
        raise ValidationError("mutual information needs at least one sample")
    counts = [[0, 0], [0, 0]]
    for a, b in zip(attr_known, part_visible):
        counts[int(bool(a))][int(bool(b))] += 1
    mi = 0.0
    for i in (0, 1):
        for j in (0, 1):
            c = counts[i][j]
            if c == 0:
                continue
            p = c / n
            px = (counts[i][0] + counts[i][1]) / n
            py = (counts[0][j] + counts[1][j]) / n
            mi += p * math.log(p / (px * py))
    return mi


def derive_associations(
    mi: Mapping[NodeId, Mapping[AttrId, float]],
    grammar: AOGrammar,
) -> AttributeAssociation:
    """Associate attributes with parts whose MI is strictly above the mean.

    The mean is taken over the atomic parts for each attribute.  Every
    associated part then propagates the attribute to its decomposition
    ancestors, so the result is closed under the part hierarchy.
    """
    atomic = grammar.terminal_ids
    attr_ids = tuple(a.id for a in grammar.attributes)
    for part in atomic:
        if part not in mi:
            raise MissingEntryError(f"mutual information map misses atomic part {part!r}")
        for attr in attr_ids:
            if attr not in mi[part]:
                raise MissingEntryError(
                    f"mutual information map misses attribute {attr!r} for part {part!r}"
                )
    parts: dict[NodeId, set[AttrId]] = {p: set() for p in grammar.part_ids}
    for attr in attr_ids:
        values = [float(mi[p][attr]) for p in atomic]
        mean = sum(values) / len(values)
        for part, value in zip(atomic, values):
            if value > mean:
                parts[part].add(attr)
                for ancestor in grammar.psg_ancestors(part):
                    parts[ancestor].add(attr)
    provenance = {p: {a: float(v) for a, v in per.items()} for p, per in mi.items()}
    return AttributeAssociation(parts=parts, attr_ids=attr_ids, mi=provenance)


def learn_models(
    annotations: Sequence[Annotation],
    grammar: AOGrammar,
    *,
    type_samples: Sequence[Mapping[NodeId, int]] | None = None,
    proposal_groups: Sequence[Sequence[Proposal]] | None = None,
    n_components: int = 10,
    seed: int = 0,
):
    """Fit all three relation models from an annotated corpus.

    Part types for the co-occurrence tables come from ``type_samples``
    when given, else from labeling ``proposal_groups`` against their
    annotations, else every edge falls back to uniform.
    """
    n_components = argument("n_components", n_components, count)
    seed = argument("seed", seed, nonnegative)
    if not annotations:
        raise DegenerateDataError("learning needs at least one annotation")
    if type_samples is not None and len(type_samples) != len(annotations):
        raise ValidationError("type_samples must align one-to-one with annotations")
    if proposal_groups is not None and len(proposal_groups) != len(annotations):
        raise ValidationError("proposal_groups must align one-to-one with annotations")

    if type_samples is None:
        type_samples = []
        for i, ann in enumerate(annotations):
            types: dict[NodeId, int] = {}
            if proposal_groups is not None:
                for lp in label_proposals(ann, proposal_groups[i]):
                    if not lp.is_negative and lp.part not in types:
                        types[lp.part] = lp.part_type
            type_samples.append(types)

    syntactic = fit_syntactic(list(zip(annotations, type_samples)), grammar)
    kinematic = fit_kinematic(
        displacement_samples(annotations, grammar), n_components=n_components, seed=seed
    )

    known = {
        a.id: [ann.attributes.get(a.id) is not None for ann in annotations]
        for a in grammar.attributes
    }
    mi: dict[NodeId, dict[AttrId, float]] = {}
    for part in grammar.terminal_ids:
        visible = [ann.joints[part].visible for ann in annotations]
        mi[part] = {attr: mutual_information(k, visible) for attr, k in known.items()}
    association = derive_associations(mi, grammar)
    return RelationModels(syntactic=syntactic, kinematic=kinematic, association=association)
