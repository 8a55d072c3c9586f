"""Learned relation models: part-type co-occurrence, geometry, associations.

Three models score the non-appearance half of a parse:

* :class:`SyntacticTable` holds one part-type co-occurrence distribution
  per decomposition edge; its log entries score how plausibly a parent
  type combines with a child type.
* :class:`KinematicMoG` holds one mixture of 2-d Gaussians per dependency
  edge, over the child-minus-parent pixel displacement.
* :class:`AttributeAssociation` records which attributes each part is
  informative about; it gates the attribute scoring of a final parse.

All scores are log-probabilities (or log-densities); higher is better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .grammar import DEFAULT_PART_TYPE_COUNT, AttrId, NodeId
from .jsonio import SCHEMA_VERSION, read_json, schema_version, write_json
from .jsonio import FieldError, argument, array, count, mapping, number, optional, record, text

Edge = tuple[NodeId, NodeId]

# Covariance eigenvalue floor applied during fitting, in squared pixels.
COV_EIG_FLOOR = 1e-4

_LOG_TWO_PI = math.log(2.0 * math.pi)


def _edge_key(edge: Edge) -> str:
    return f"{edge[0]}->{edge[1]}"


def _parse_edge_key(key: str) -> Edge:
    parent, sep, child = key.partition("->")
    if not sep or not parent or not child:
        raise ValidationError(f"malformed edge key {key!r}, expected 'parent->child'")
    return parent, child


def _is_part_type(value, part_type_count: int) -> bool:
    """Whether ``value`` is a part type of a ``part_type_count``-type table:
    an integer the ``count`` spec accepts, at most ``part_type_count``."""
    try:
        return count(value) <= part_type_count
    except FieldError:
        return False


class SyntacticTable:
    """Per-edge joint distributions over (parent type, child type) pairs."""

    def __init__(
        self, tables: Mapping[Edge, np.ndarray], part_type_count: int = DEFAULT_PART_TYPE_COUNT
    ) -> None:
        self.part_type_count = argument("part_type_count", part_type_count, count)
        self.tables: dict[Edge, np.ndarray] = {}
        t = self.part_type_count
        for edge, mat in tables.items():
            try:
                arr = np.asarray(mat, dtype=float)
                shape = arr.shape
            except ValueError:
                shape = "ragged or non-numeric rows"
            if shape != (t, t):
                raise ValidationError(
                    f"syntactic table for {edge}: expected shape {(t, t)}, got {shape}"
                )
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValidationError(
                    f"syntactic table for {edge}: entries must be finite and positive"
                )
            if abs(float(arr.sum()) - 1.0) > 1e-9:
                raise ValidationError(
                    f"syntactic table for {edge}: entries sum to {arr.sum()!r}, not 1"
                )
            self.tables[tuple(edge)] = arr
        self._row = {edge: i for i, edge in enumerate(self.tables)}
        self.logs = np.array([np.log(arr) for arr in self.tables.values()]).reshape(-1, t, t)

    def row(self, edge: Edge) -> int:
        """The index of ``edge``'s table in ``logs``, the (edges, T, T) stack of their logs."""
        try:
            return self._row[tuple(edge)]
        except KeyError:
            raise MissingEntryError(f"no syntactic table for edge {tuple(edge)}") from None


@dataclass(frozen=True)
class Mixture:
    """Parameters of one 2-d Gaussian mixture."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        k = w.shape[0] if w.ndim == 1 else -1
        if k < 1 or mu.shape != (k, 2) or cov.shape != (k, 2, 2):
            raise ValidationError(
                f"mixture shapes inconsistent: weights {w.shape}, means {mu.shape}, "
                f"covariances {cov.shape}"
            )
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(cov))):
            raise ValidationError("mixture parameters must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"mixture weights must be non-negative and sum to 1, got {w!r}")
        asymmetric = np.abs(cov[:, 0, 1] - cov[:, 1, 0]) > 1e-9
        a, b, d = _entries(cov)
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = ~np.isfinite(_determinant(a, b, d))
            lowest, _ = _eigenvalues(a, b, d)
        bad = np.flatnonzero(asymmetric | overflow | (lowest < COV_EIG_FLOOR * (1.0 - 1e-6)))
        if bad.size:
            i = bad[0]
            if asymmetric[i]:
                raise ValidationError(f"mixture component {i}: covariance not symmetric")
            if overflow[i]:
                raise ValidationError(
                    f"mixture component {i}: covariance determinant is beyond the float range"
                )
            raise ValidationError(
                f"mixture component {i}: covariance eigenvalue {float(lowest[i])!r} below "
                f"floor {COV_EIG_FLOOR}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)


# Closed-form 2x2 Gaussian math, batched over leading axes.  A covariance
# ``[[a, b], [b, d]]`` travels as its three entries; EM, the model check,
# the mixture log-density and so the relation tables all use these.


def _entries(matrices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a``, ``b`` and ``d`` of each (..., 2, 2) matrix read as the symmetric
    ``[[a, b], [b, d]]``; ``b`` is the mean of the two off-diagonal entries."""
    m = np.asarray(matrices, dtype=float)
    return m[..., 0, 0], 0.5 * (m[..., 0, 1] + m[..., 1, 0]), m[..., 1, 1]


def _matrices(a, b, d) -> np.ndarray:
    """The (..., 2, 2) stack of ``[[a, b], [b, d]]``."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0] = a
    out[..., 0, 1] = out[..., 1, 0] = b
    out[..., 1, 1] = d
    return out


def _determinant(a, b, d) -> np.ndarray:
    """The determinant ``a d - b^2`` of ``[[a, b], [b, d]]``."""
    return a * d - b * b


def _eigenvalues(a, b, d) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger eigenvalue of ``[[a, b], [b, d]]``.

    ``mid +- radius`` gives the eigenvalue of larger magnitude without
    cancellation; the other one is the determinant over it, so a small
    eigenvalue keeps its relative precision.
    """
    mid = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), b)
    up = mid >= 0.0
    big = np.where(up, mid + radius, mid - radius)
    other = np.divide(_determinant(a, b, d), big, out=np.zeros(np.shape(big)), where=big != 0.0)
    return np.where(up, other, big), np.where(up, big, other)


def _floor_covariances(covariances) -> np.ndarray:
    """Symmetrize (..., 2, 2) covariances and lift every eigenvalue below
    ``COV_EIG_FLOOR`` to it.

    On a 2x2 matrix ``C`` with eigenvalues ``lo <= hi``, applying
    ``max(., floor)`` to the spectrum is the affine map ``alpha + beta * x``
    through the two lifted eigenvalues, so the result is
    ``alpha * I + beta * C``: ``C`` itself when ``lo`` is at or above the
    floor, ``floor * I`` when ``hi`` is not above it, and otherwise the
    line through ``(lo, floor)`` and ``(hi, hi)``.
    """
    a, b, d = _entries(covariances)
    lo, hi = _eigenvalues(a, b, d)
    lifted = lo < COV_EIG_FLOOR
    split = lifted & (hi > COV_EIG_FLOOR)
    beta = np.divide(hi - COV_EIG_FLOOR, hi - lo, out=np.where(lifted, 0.0, 1.0), where=split)
    alpha = np.where(lifted, COV_EIG_FLOOR - beta * lo, 0.0)
    return _matrices(alpha + beta * a, beta * b, alpha + beta * d)


def _component_constants(weights, covariances) -> tuple[np.ndarray, np.ndarray]:
    """Per component ``log w - log 2pi - log det / 2``, shape (..., k), and
    the entries ``(ia, ib, ic)`` of the inverse covariance as a (..., k, 3)
    array.

    In closed form: ``det = a d - b^2`` and the inverse is
    ``[[d, -b], [-b, a]] / det``.  Components with non-positive weight get
    -inf and a zero inverse.
    """
    w = np.asarray(weights, dtype=float)
    a, b, d = _entries(covariances)
    live = w > 0.0
    det = np.where(live, _determinant(a, b, d), 1.0)
    consts = np.log(w, out=np.full(w.shape, -np.inf), where=live)
    consts -= _LOG_TWO_PI
    consts -= 0.5 * np.log(det)
    entries = np.empty(w.shape + (3,))
    entries[..., 0], entries[..., 1], entries[..., 2] = d, -b, a
    inverses = np.divide(entries, det[..., None], out=np.zeros_like(entries), where=live[..., None])
    return consts, inverses


# The mixture math below runs component-major: the N points of one
# mixture are the rows ``x``, ``y`` and a row of ones of a (..., 3, N)
# array, and every per-component array is (..., k, N), so each sum over
# the points reads contiguous memory.  EM passes preallocated buffers
# through ``out`` and ``scratch``; without them each call allocates its own.


def _centring(centres) -> np.ndarray:
    """The left factors ``[1, -cx]`` and ``[1, -cy]`` by which
    :func:`_offsets` takes the (..., k, 2) ``centres``, shape (..., k, 2, 2)."""
    lhs = np.ones(np.shape(centres) + (2,))
    np.negative(centres, out=lhs[..., 1])
    return lhs


def _offsets(points, centring, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """``x - cx`` and ``y - cy`` of the (..., 3, N) points ``[x; y; 1]``
    against the centres of ``centring`` (:func:`_centring`), each (..., k, N).

    Each is the product of ``[1, -c]`` with ``[x; 1]``: both products are
    exact, so the one rounded sum is ``x - c`` to the bit, and the matrix
    product writes the block faster than a broadcast subtraction.
    """
    dx = np.matmul(centring[..., 0, :], points[..., ::2, :], out=out[0])
    dy = np.matmul(centring[..., 1, :], points[..., 1:, :], out=out[1])
    return dx, dy


def _quadratic(inverses, dx, dy, out) -> np.ndarray:
    """``ia dx^2 + 2 ib dx dy + ic dy^2`` for (..., k, 3) inverse entries
    and (..., k, N) offsets ``dx``, ``dy``: shape (..., k, N).  ``dx`` is
    overwritten."""
    ia, ib, ic = inverses[..., 0, None], inverses[..., 1, None], inverses[..., 2, None]
    quad = np.multiply(ia, dx, out=out)
    quad *= dx
    cross = np.multiply(dx, 2.0 * ib, out=dx)
    cross *= dy
    quad += cross
    np.multiply(ic, dy, out=cross)
    cross *= dy
    quad += cross
    return quad


def _term_constants(weights, covariances) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """What :func:`_mixture_terms` reads of each component: its constant as
    a (..., k, 1) column, minus half its inverse entries, (..., k, 3), and
    the (..., k, 1) mask of the -inf constants, ``None`` when there is none."""
    consts, inverses = _component_constants(weights, covariances)
    dead = consts == -np.inf
    # Halving the inverse entries is exact, so the terms get -quad / 2 to the bit.
    return consts[..., None], -0.5 * inverses, dead[..., None] if dead.any() else None


def _mixture_terms(offsets, consts, halved, dead, out=None) -> np.ndarray:
    """Per-component log terms ``const - quad / 2`` of the points at the
    (..., k, N) offsets ``(dx, dy)`` from each component's mean, as
    :func:`_offsets` gives them, shape (..., k, N); ``dx`` is overwritten.

    ``consts``, ``halved`` and ``dead`` come from :func:`_term_constants`;
    the dead components' terms are -inf.  :func:`_log_sum_exp` over the
    components gives the mixture log-density, and the EM E-step the
    responsibilities.
    """
    dx, dy = offsets
    terms = _quadratic(halved, dx, dy, out=out)
    terms += consts
    if dead is not None:
        np.copyto(terms, -np.inf, where=dead)
    return terms


def _log_sum_exp(terms: np.ndarray, scratch=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-sum-exp over the components of (..., k, N) terms, shape (..., N),
    total on every point, with the exponentials and sums it is taken from.

    A point with all terms -inf gives -inf and one with a NaN term
    gives NaN; the largest term is taken out before ``exp`` only where it
    is finite.  The exponentials of the shifted terms, (..., k, N) and in
    ``scratch`` when given, and their per-point sums, (..., N), come back
    too: over its sum, each exponential is its component's responsibility.
    """
    top = terms.max(axis=-2)
    shift = np.where(np.isfinite(top), top, 0.0)
    exps = np.subtract(terms, shift[..., None, :], out=scratch)
    np.exp(exps, out=exps)
    # numpy sums a block of two or more points over its components in
    # order, but a (..., k, 1) block pairwise, as one contiguous run; its
    # running sum is in order, so a point's bits do not depend on how many
    # points share its call.
    sums = exps.sum(axis=-2) if exps.shape[-1] != 1 else np.add.accumulate(exps, axis=-2)[..., -1, :]
    with np.errstate(divide="ignore"):
        total = np.log(sums)
    total += shift
    return total, exps, sums


class KinematicMoG:
    """Per-dependency-edge Gaussian mixtures over child-minus-parent
    offsets; ``components`` is the most components any of them has."""

    def __init__(
        self,
        mixtures: Mapping[Edge, Mixture],
        fit_traces: Mapping[Edge, Sequence[float]] | None = None,
    ) -> None:
        self.mixtures: dict[Edge, Mixture] = {tuple(e): m for e, m in mixtures.items()}
        # What :meth:`log_densities` reads of each mixture, computed once
        # and stacked one edge per row, every mixture padded to the most
        # components with zero-weight ones: their terms are -inf and add
        # 0.0 to each sum, so no density changes by a bit.
        self._row = {e: i for i, e in enumerate(self.mixtures)}
        self.components = max((len(m.weights) for m in self.mixtures.values()), default=1)
        weights = np.zeros((len(self.mixtures), self.components))
        means = np.zeros(weights.shape + (2,))
        covariances = np.broadcast_to(np.eye(2), weights.shape + (2, 2)).copy()
        for i, m in enumerate(self.mixtures.values()):
            k = len(m.weights)
            weights[i, :k], means[i, :k], covariances[i, :k] = m.weights, m.means, m.covariances
        self._constants = (_centring(means), *_term_constants(weights, covariances))
        self.fit_traces: dict[Edge, tuple[float, ...]] = {
            tuple(e): tuple(t) for e, t in (fit_traces or {}).items()
        }

    def mixture(self, edge: Edge) -> Mixture:
        try:
            return self.mixtures[tuple(edge)]
        except KeyError:
            raise MissingEntryError(f"no kinematic mixture for edge {tuple(edge)}") from None

    def log_density(self, edge: Edge, points: np.ndarray) -> np.ndarray:
        """Vectorized log density over an (N, 2) array of displacements;
        points of another shape are refused, naming the edge."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValidationError(f"edge {edge[0]}->{edge[1]}: displacements must have shape (N, 2), got {points.shape}")
        return self.log_densities([edge], points[None])[0]

    def log_densities(self, edges: Sequence[Edge], points: np.ndarray) -> np.ndarray:
        """The log densities of an (E, N, 2) block of displacements, row
        ``e`` under the mixture of ``edges[e]``: shape (E, N), in one pass
        over (edge, component, point) arrays.  A point gets the same bits
        whatever edges and points share its call."""
        try:
            rows = [self._row[tuple(edge)] for edge in edges]
        except KeyError as exc:
            raise MissingEntryError(f"no kinematic mixture for edge {exc.args[0]}") from None
        centring, consts, halved, dead = (c if c is None else c.take(rows, axis=0) for c in self._constants)
        block = np.ones((len(rows), 3, points.shape[1]))
        block[:, :2] = points.transpose(0, 2, 1)
        return _log_sum_exp(_mixture_terms(_offsets(block, centring), consts, halved, dead))[0]

    def displacement_scores(self, edges: Sequence[Edge], parents: np.ndarray, children: np.ndarray) -> np.ndarray:
        """The log densities of the offsets from each of the (E, R, 2)
        positions ``parents[e]`` to each of the (E, C, 2) ``children[e]``
        under the mixture of ``edges[e]``, all in one :meth:`log_densities`
        call: shape (E, R, C).  Offsets too far apart for the float range
        give scores that are not finite, without numpy's warnings: the
        relation tables refuse them."""
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = children[:, None, :, :] - parents[:, :, None, :]
            return self.log_densities(edges, offsets.reshape(len(edges), -1, 2)).reshape(offsets.shape[:3])

    def displacement_bounds(self, edges: Sequence[Edge], parents: np.ndarray, children: np.ndarray) -> list[float]:
        """Per edge ``e``, a bound on each ``|score|`` :meth:`displacement_scores` gives the
        (E, R, 2) ``parents`` and (E, C, 2) ``children``, padded or not, the bits it gets alone:
        per live component of its mixture, its quadratic term at their extents, bounded in
        :func:`_quadratic`'s order so that rounding keeps it, its constant and the live count;
        ``inf`` unless every quadratic term is below 2**900, proving all finite."""
        rows = [self._row[tuple(edge)] for edge in edges]
        centring, consts, halved = (c.take(rows, axis=0) for c in self._constants[:3])
        live = consts[..., 0].T > -math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            # Each coordinate's points made contiguous: a reduction over a middle axis is slow.
            parents, children = (np.ascontiguousarray(xy.transpose(0, 2, 1)) for xy in (parents, children))
            extent = np.maximum(children.max(2) - parents.min(2), parents.max(2) - children.min(2))
            (rx, ry), (ha, hb, hc) = (extent[:, None] + np.abs(centring[..., 1])).T, np.abs(halved).T
            quad = ha * rx * rx + rx * (2.0 * hb) * ry + hc * ry * ry
            bound = np.where(live, quad + np.abs(consts[..., 0].T), -math.inf).max(axis=0) + np.count_nonzero(live, axis=0)
            finite = np.where(live, quad, -math.inf).max(axis=0) < 2.0**900
        return np.where(finite, bound, math.inf).tolist()


def _padded(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The (n_e, ...) ``arrays`` stacked, each padded to the longest by
    repeating its last row: shape (E, n, ...)."""
    n = max(len(a) for a in arrays)
    return np.array([np.concatenate([a, a[-1:].repeat(n - len(a), axis=0)]) if len(a) < n else a for a in arrays])


class AttributeAssociation:
    """Which attributes each part carries evidence for, with MI provenance."""

    def __init__(
        self,
        parts: Mapping[NodeId, Iterable[AttrId]],
        attr_ids: Iterable[AttrId],
        mi: Mapping[NodeId, Mapping[AttrId, float]] | None = None,
    ) -> None:
        self.attr_ids: tuple[AttrId, ...] = tuple(attr_ids)
        universe = set(self.attr_ids)
        self.parts: dict[NodeId, frozenset[AttrId]] = {}
        for part, attrs in parts.items():
            attrs = frozenset(attrs)
            unknown = attrs - universe
            if unknown:
                raise ValidationError(
                    f"part {part!r} associated with undeclared attributes {sorted(unknown)}"
                )
            self.parts[part] = attrs
        self.mi: dict[NodeId, dict[AttrId, float]] = {
            p: dict(per_attr) for p, per_attr in (mi or {}).items()
        }

    def attrs_for(self, part: NodeId) -> frozenset[AttrId]:
        try:
            return self.parts[part]
        except KeyError:
            raise MissingEntryError(f"no association entry for part {part!r}") from None


@dataclass
class RelationModels:
    """Bundle of the three learned relation models."""

    syntactic: SyntacticTable
    kinematic: KinematicMoG
    association: AttributeAssociation

    @property
    def part_type_count(self) -> int:
        """The type count of the syntactic table."""
        return self.syntactic.part_type_count

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "part_type_count": self.part_type_count,
            "syntactic": {_edge_key(e): mat.tolist() for e, mat in self.syntactic.tables.items()},
            "kinematic": {
                _edge_key(e): [
                    {"w": w, "mu": mu, "cov": cov}
                    for w, mu, cov in zip(m.weights.tolist(), m.means.tolist(), m.covariances.tolist())
                ]
                for e, m in self.kinematic.mixtures.items()
            },
            "association": {
                "attr_ids": list(self.association.attr_ids),
                "parts": {p: sorted(a) for p, a in self.association.parts.items()},
                "mi": {
                    p: {a: float(v) for a, v in per.items()}
                    for p, per in self.association.mi.items()
                },
            },
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "RelationModels":
        d = _MODELS(doc)
        a = d["association"]
        syntactic = {_parse_edge_key(k): rows for k, rows in d["syntactic"].items()}
        kinematic = {
            _parse_edge_key(k): Mixture(*([c[f] for c in comps] for f in ("w", "mu", "cov")))
            for k, comps in d["kinematic"].items()
        }
        return cls(
            SyntacticTable(syntactic, d["part_type_count"]),
            KinematicMoG(kinematic),
            AttributeAssociation(a["parts"], a["attr_ids"], mi=a["mi"]),
        )


_MODELS = record(
    schema_version=schema_version,
    part_type_count=optional(count, DEFAULT_PART_TYPE_COUNT),
    syntactic=mapping(array(array(number))),
    kinematic=mapping(
        array(record(w=number, mu=array(number, 2), cov=array(array(number, 2), 2)))
    ),
    association=record(attr_ids=array(text), parts=mapping(array(text)), mi=optional(mapping(mapping(number)), {})),
)


def save_models(models: RelationModels, path: str) -> None:
    write_json(path, models.to_json_dict())


def load_models(path: str) -> RelationModels:
    return read_json(path, RelationModels.from_json_dict)
