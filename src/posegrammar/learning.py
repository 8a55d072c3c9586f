"""Model learning from pose annotations.

Covers the ingestion and fitting side of the engine: reading the part
types of detector proposals that sit on their own part's box, fitting the
part-type co-occurrence tables and the per-edge displacement mixtures,
and deriving part to attribute associations from mutual information
between attribute availability and part visibility.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import parallel
from .appearance import Proposal
from .errors import DegenerateDataError, MissingEntryError, ValidationError
from .grammar import AOGrammar, AttrId, NodeId, require_atomic_joints
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
    _centring,
    _floor_covariances,
    _is_part_type,
    _log_sum_exp,
    _matrices,
    _mixture_terms,
    _offsets,
    _term_constants,
)
from .synthetic import part_box

# A proposal shows its part's type when its box overlaps that part's box
# by more than this.
OVERLAP_POSITIVE = 0.7

# EM stops once the mean log-likelihood gains less than this per iteration.
EM_TOL = 1e-6

# The fewest (edge, component, sample) cells an EM group needs for a thread of
# its own, as threads hand the GIL over at every numpy call: on 2 CPUs, two groups
# take 1.9 times one's time at 6k cells each, 1.1 at 18k, 1.0 at 21k, 0.82 at 29k.
_THREAD_CELLS = 20_000

_LOG = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def proposal_part_types(annotation: Annotation, proposals: Sequence[Proposal]) -> dict[NodeId, int]:
    """The part types ``proposals`` show for ``annotation``: each part takes
    the type of the first proposal for it with a box overlapping the part's own
    box (:func:`part_box` around the annotation's joints) by more than
    ``OVERLAP_POSITIVE``.  A proposal for a part with no box, not being
    one of the 17 keypoint parts, is refused naming it."""
    joints = {p: (j.x, j.y) for p, j in annotation.joints.items()}
    types: dict[NodeId, int] = {}
    for prop in proposals:
        try:
            box = part_box(prop.part, joints)
        except KeyError:
            raise ValidationError(f"proposal {prop.id!r}: part {prop.part!r} is not one of the 17 keypoint parts") from None
        if prop.part not in types and box_iou(prop.box, box) > OVERLAP_POSITIVE:
            types[prop.part] = prop.part_type
    return types


def fit_syntactic(type_samples: Sequence[Mapping[NodeId, int]], grammar: AOGrammar) -> SyntacticTable:
    """Fit per-edge part-type co-occurrence tables with add-one smoothing.

    Each of ``type_samples`` maps parts to the types chosen for one
    annotation (for example by :func:`proposal_part_types`).  An edge
    counts the samples where both of its parts have a type, not ``None``;
    the first such pair with a value that :func:`_is_part_type` refuses,
    edge by edge in sample order, is refused.  Edges with no samples fall
    back to the uniform table, named in one warning.
    """
    t = grammar.part_type_count
    cells = t * t
    # Each part's type in each sample, checked once: present, accepted, and
    # its code (type - 1, or 0 where absent or refused).
    values, present, accepted, codes = {}, {}, {}, {}
    for part in dict.fromkeys(p for edge in grammar.psg_edges for p in edge):
        values[part] = [s.get(part) for s in type_samples]
        present[part] = np.array([v is not None for v in values[part]], dtype=bool)
        accepted[part] = np.array([v is not None and _is_part_type(v, t) for v in values[part]], dtype=bool)
        codes[part] = np.array([v - 1 if ok else 0 for v, ok in zip(values[part], accepted[part])], dtype=np.intp)
    tables: dict[Edge, np.ndarray] = {}
    unsampled: list[Edge] = []
    for edge in grammar.psg_edges:
        parent, child = edge
        paired = present[parent] & present[child]
        refused = np.flatnonzero(paired & ~(accepted[parent] & accepted[child]))
        if refused.size:
            a, b = values[parent][refused[0]], values[child][refused[0]]
            raise ValidationError(f"part types for edge {edge} must lie in 1..{t}, got ({a}, {b})")
        n = np.count_nonzero(paired)
        if not n:
            unsampled.append(edge)
        counts = np.bincount(codes[parent][paired] * t + codes[child][paired], minlength=cells).reshape(t, t)
        tables[edge] = (counts + 1.0) / (n + cells)
    if unsampled:
        warnings.warn(
            f"no part-type samples for edges {unsampled}; they use the uniform table",
            stacklevel=2,
        )
    return SyntacticTable(tables, part_type_count=t)


def _beyond_range(edge: Edge, why) -> ValidationError:
    """The refusal of ``edge``'s displacement samples, on which the fit
    failed for the reason ``why``."""
    return ValidationError(f"edge {edge}: displacement samples are beyond the range the fit can represent ({why})")


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


def _scatter(resp, dx, dy) -> np.ndarray:
    """Each component's ``resp``-weighted scatter of the points at offsets
    ``dx``, ``dy`` from its centre, (..., k, 2, 2), from the three moments;
    ``resp``, ``dx`` and ``dy`` are (..., k, N)."""
    moment = "...n,...n,...n->..."
    return _matrices(
        np.einsum(moment, resp, dx, dx), np.einsum(moment, resp, dx, dy), np.einsum(moment, resp, dy, dy)
    )


def _em_fit(
    points: np.ndarray, mask: np.ndarray, means: np.ndarray, ks: np.ndarray, block: np.ndarray, max_iter: int
) -> tuple[tuple | None, tuple[int, int, str] | None]:
    """EM for the mixtures of a group of edges at once, stacked.

    Edge ``e`` has ``n_e = mask[e].sum() >= 2`` samples, the first ``n_e``
    columns of ``points[e]`` (rows x, y and 1, padded to the fit's longest
    edge with copies of a sample that ``mask`` leaves out), and ``ks[e]``
    components seeded for k-means++ by the first rows of ``means[e]``;
    the rest are padding at weight 0.  Each component starts from the
    covariance of the samples nearest its seed (the edge's covariance when
    fewer than two) and their share of the samples.

    Each iteration is one E-step through :func:`_mixture_terms` and
    :func:`_log_sum_exp`, and one M-step of responsibility sums, means,
    the three covariance moments and one eigenvalue floor, over every
    running edge and its components, in (edge, component, sample) buffers
    that are prefix views of the three rows of ``block``, (3, E, k * N) and
    each row contiguous.  The responsibilities are the
    exponentials :func:`_log_sum_exp` returns over their sums, a padded
    sample's sum set to +inf.  A component with responsibilities summing below
    1e-12 keeps its parameters and gets weight 0.  An edge stops on its
    own once its mean log-likelihood, summed in sample order, gains less
    than ``EM_TOL``: its parameters are written out, and it leaves every
    working array.  The samples keep their padded width, so no grouping of
    the edges changes how a sum over them rounds.

    Returns the weights (E, k), means (E, k, 2) and covariances (E, k, 2, 2),
    the (E, max_iter + 1) history of mean log-likelihoods before each update
    and each edge's trace length, with ``None``; or, once a likelihood falls,
    ``None`` and the iteration, the lowest edge that fell at it and why.
    """
    n = mask.sum(axis=1)
    padded = mask == 0.0
    real = np.arange(means.shape[1]) < ks[:, None]
    block = block.reshape(3, -1)
    terms, *scratch = block.reshape((3,) + means.shape[:2] + mask.shape[1:])
    # ``r @ samples`` gives each component's sums of r x, r y and r.
    samples = np.ascontiguousarray(points.transpose(0, 2, 1))

    dx, dy = _offsets(points, _centring(means), scratch)
    distance = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=terms)
    np.copyto(distance, np.inf, where=~real[..., None])
    nearest = distance.argmin(axis=1)
    members = np.equal(nearest[:, None, :], np.arange(means.shape[1])[:, None], out=terms)
    members *= mask[:, None, :]
    moments = members @ samples
    counts = moments[..., 2]
    centres = _centring(moments[..., :2] / np.maximum(counts, 1.0)[..., None])
    own = _scatter(members, *_offsets(points, centres, scratch)) / np.maximum(counts - 1.0, 1.0)[..., None, None]
    whole = mask[:, None, :]
    moments = whole @ samples
    centre = _centring(moments[..., :2] / moments[..., 2:])
    spread = _scatter(whole, *_offsets(points, centre)) / (n - 1.0)[:, None, None, None]
    covs = _floor_covariances(np.where((counts >= 2)[..., None, None], own, spread))
    weights = np.where(real, np.maximum(counts, 1.0), 0.0) / n[:, None]
    weights /= weights.sum(axis=1, keepdims=True)

    final_weights, final_means, final_covs = np.empty_like(weights), np.empty_like(means), np.empty_like(covs)
    history = np.empty((len(n), max_iter + 1))
    steps = np.zeros(len(n), dtype=int)
    rows = np.arange(len(n))  # the edge of each working row
    prev = np.full(len(n), -np.inf)
    offsets = _offsets(points, _centring(means), scratch)
    for step in range(max_iter + 1):
        # E-step quantities double as the likelihood trace.
        _mixture_terms(offsets, *_term_constants(weights, covs), out=terms)
        log_mix, exps, sums = _log_sum_exp(terms, scratch=scratch[0])
        # Summed in sample order, so no padding changes an edge's trace.
        ll = np.cumsum(log_mix * mask, axis=1)[:, -1] / n
        fell = np.flatnonzero(ll < prev - 1e-7)
        if fell.size:
            why = f"EM mean log-likelihood decreased from {float(prev[fell[0]])} to {float(ll[fell[0]])}"
            return None, (step, int(rows[fell[0]]), why)
        history[rows, step] = ll
        steps[rows] += 1
        # The E-step after update ``max_iter`` only ends the trace.
        stop = (step >= max_iter) | (ll - prev < EM_TOL)
        if stop.any():
            done = rows[stop]
            final_weights[done], final_means[done], final_covs[done] = weights[stop], means[stop], covs[stop]
            if stop.all():
                break
            go = ~stop
            rows, n, ll, weights, means, covs = rows[go], n[go], ll[go], weights[go], means[go], covs[go]
            points, samples, mask, padded = points[go], samples[go], mask[go], padded[go]
            exps, sums = exps[go], sums[go]
            terms, *scratch = block[:, : exps.size].reshape((3,) + exps.shape)
        prev = ll

        # A padded sample's +inf sum gives it responsibility 0.
        np.copyto(sums, np.inf, where=padded)
        resp = np.divide(exps, sums[:, None, :], out=terms)
        moments = resp @ samples
        nk = moments[..., 2]
        live = nk >= 1e-12
        mass = np.where(live, nk, 1.0)
        means = np.where(live[..., None], moments[..., :2] / mass[..., None], means)
        # The offsets from the new means serve the scatter and the next E-step.
        offsets = _offsets(points, _centring(means), scratch)
        update = _floor_covariances(_scatter(resp, *offsets) / mass[..., None, None])
        covs = np.where(live[..., None, None], update, covs)
        fresh = np.where(live, nk, 0.0) / n[:, None]
        weights = fresh / fresh.sum(axis=1, keepdims=True)
    return (final_weights, final_means, final_covs, history, steps), None


def fit_kinematic(
    data: Mapping[Edge, np.ndarray],
    n_components: int = 10,
    seed: int = 0,
    max_iter: int = 200,
) -> KinematicMoG:
    """Fit one displacement mixture per dependency edge, the edges in
    contiguous groups of one stacked EM (:func:`_em_fit`) each.

    Each edge needs at least two displacement samples.  When an edge has
    fewer samples than requested components, the component count drops to
    the sample count with a warning.  Each edge's k-means++ start is
    seeded from ``[seed, index]``, so edge order cannot leak between
    fits, and each edge stops on its own.  An edge that stops at
    ``max_iter`` rather than at ``EM_TOL`` is logged at INFO, with its
    last gain in mean log-likelihood.  Samples so far apart that the fit
    cannot represent them (its sums overflow, its likelihood falls, or its
    mixture fails the :class:`Mixture` check) are refused naming the edge.
    The groups, one per usable CPU while each holds ``_THREAD_CELLS``
    cells, run by :func:`~posegrammar.parallel._run_groups`.  Their number
    changes no fit, log or refusal: a fall is refused at the earliest
    iteration, naming the lowest edge that fell at it.
    """
    n_components = argument("n_components", n_components, count)
    seed = argument("seed", seed, nonnegative)
    max_iter = argument("max_iter", max_iter, nonnegative)
    edges = list(data)
    samples = [np.asarray(data[edge], dtype=float) for edge in edges]
    for edge, X in zip(edges, samples):
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValidationError(f"edge {edge}: displacement samples must be (n, 2), got {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValidationError(f"edge {edge}: displacement samples must be finite")
        if X.shape[0] < 2:
            raise DegenerateDataError(f"edge {edge}: needs at least 2 displacement samples, got {X.shape[0]}")
        # This bounds the squared distances the k-means++ seeding sums.
        with np.errstate(over="ignore"):
            if not np.isfinite(len(X) * np.square(np.ptp(X, axis=0)).sum()):
                raise _beyond_range(edge, "their squared range overflows")
    if not edges:
        return KinematicMoG({})
    ks = np.array([min(X.shape[0], n_components) for X in samples])
    width = max(X.shape[0] for X in samples)
    points = np.ones((len(edges), 3, width))
    mask = np.zeros((len(edges), width))
    means = np.zeros((len(edges), ks.max(), 2))
    for index, (edge, X, k) in enumerate(zip(edges, samples, ks)):
        n = X.shape[0]
        if k < n_components:
            warnings.warn(
                f"edge {edge}: only {n} samples for {n_components} components; using {n}",
                stacklevel=2,
            )
        points[index, :2] = X[:1].T
        points[index, :2, :n] = X.T
        mask[index, :n] = 1.0
        means[index, :k] = _kmeans_plusplus(X, k, np.random.default_rng([seed, index]))

    n_groups = max(1, min(parallel._WORKERS, len(edges), means.shape[1] * mask.size // _THREAD_CELLS))
    # One allocation for every group's buffers, on this thread: made on the groups' threads, the malloc
    # state they left cost a later search in the process 410 page faults and 6% of its time in 3 of 5 runs.
    block = np.empty((3, len(edges), means.shape[1] * width))

    def fit(group: slice):
        result, fall = _em_fit(*(a[group] for a in (points, mask, means, ks)), block[:, group], max_iter)
        return result, fall and (fall[0], group.start + fall[1], fall[2])

    fits = parallel._run_groups(len(edges), n_groups, fit, all="ignore")  # a fit gone non-finite is refused below
    falls = [fall for _fit, fall in fits if fall]
    if falls:
        _step, index, why = min(falls)
        raise _beyond_range(edges[index], why)
    weights, means, covs, history, steps = map(np.concatenate, zip(*(result for result, _fall in fits)))
    mixtures: dict[Edge, Mixture] = {}
    traces: dict[Edge, list[float]] = {}
    for index, (edge, k, length) in enumerate(zip(edges, ks, steps)):
        try:
            mixtures[edge] = Mixture(weights[index, :k], means[index, :k], covs[index, :k])
        except ValidationError as exc:
            raise _beyond_range(edge, exc) from None
        traces[edge] = trace = history[index, :length].tolist()
        if length > max_iter:
            gain = trace[-1] - trace[-2] if length > 1 else math.nan
            _LOG.info(
                "edge %s->%s: EM stopped at max_iter after %d iterations, last gain %.3g",
                edge[0], edge[1], max_iter, gain,
            )
    return KinematicMoG(mixtures, fit_traces=traces)


def displacement_samples(annotations: Sequence[Annotation], grammar: AOGrammar) -> dict[Edge, np.ndarray]:
    """Child-minus-parent offsets per dependency edge, visible joints only;
    each edge's samples are an (n, 2) array, in annotation order."""
    out: dict[Edge, np.ndarray] = {}
    for parent, child in grammar.dg_edges:
        pairs = ((ann.joints[parent], ann.joints[child]) for ann in annotations)
        offsets = [(c.x - p.x, c.y - p.y) for p, c in pairs if p.visible and c.visible]
        out[(parent, child)] = np.array(offsets, dtype=float).reshape(-1, 2)
    return out


def _information(counts: Sequence[Sequence[int]], n: int) -> float:
    """Mutual information, in nats, of the 2 x 2 table ``counts`` of ``n``
    paired boolean samples."""
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
    return _information(counts, n)


def derive_associations(
    mi: Mapping[NodeId, Mapping[AttrId, float]],
    grammar: AOGrammar,
) -> AttributeAssociation:
    """Associate attributes with parts where their MI is strictly above the mean.

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
    n_components: int = 10,
    seed: int = 0,
):
    """Fit all three relation models from an annotated corpus.

    The co-occurrence tables count ``type_samples``, one part-type map per
    annotation (:func:`proposal_part_types` reads one off a group of
    detector proposals); without them every edge falls back to the
    uniform table.  A terminal of ``grammar`` that the annotations carry
    no joint for is refused, naming it.
    """
    n_components = argument("n_components", n_components, count)
    seed = argument("seed", seed, nonnegative)
    if not annotations:
        raise DegenerateDataError("learning needs at least one annotation")
    if type_samples is None:
        type_samples = [{}] * len(annotations)
    if len(type_samples) != len(annotations):
        raise ValidationError("type_samples must align one-to-one with annotations")
    # Every annotation has the same joints.
    missing = [p for p in grammar.terminal_ids if p not in annotations[0].joints]
    if missing:
        raise MissingEntryError(f"the annotations carry no joint for the grammar's terminals {missing}")

    syntactic = fit_syntactic(type_samples, grammar)
    kinematic = fit_kinematic(
        displacement_samples(annotations, grammar), n_components=n_components, seed=seed
    )

    # Every (part, attribute) 2 x 2 table from one product: annotations
    # with the part visible and the attribute known, and the margins.
    n = len(annotations)
    attr_ids = [a.id for a in grammar.attributes]
    terminals = grammar.terminal_ids
    visible = np.array([[ann.joints[p].visible for p in terminals] for ann in annotations], dtype=np.int64)
    known = np.array([[ann.attributes.get(a) is not None for a in attr_ids] for ann in annotations], dtype=np.int64)
    both = (visible.T @ known).tolist()
    seen, told = visible.sum(axis=0).tolist(), known.sum(axis=0).tolist()
    mi: dict[NodeId, dict[AttrId, float]] = {}
    for part, row, v in zip(terminals, both, seen):
        mi[part] = {
            attr: _information([[n - k - v + b, v - b], [k - b, b]], n)
            for attr, b, k in zip(attr_ids, row, told)
        }
    association = derive_associations(mi, grammar)
    return RelationModels(syntactic=syntactic, kinematic=kinematic, association=association)
