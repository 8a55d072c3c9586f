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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingEntryError, ValidationError
from .grammar import AOGrammar, AttrId, NodeId, ValidationReport
from .jsonio import malformed, read_json, write_json

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


class SyntacticTable:
    """Per-edge joint distributions over (parent type, child type) pairs."""

    def __init__(self, tables: Mapping[Edge, np.ndarray], part_type_count: int = 9) -> None:
        self.part_type_count = int(part_type_count)
        self.tables: dict[Edge, np.ndarray] = {}
        t = self.part_type_count
        for edge, mat in tables.items():
            arr = np.asarray(mat, dtype=float)
            if arr.shape != (t, t):
                raise ValidationError(
                    f"syntactic table for {edge}: expected shape {(t, t)}, got {arr.shape}"
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
        self._log = {edge: np.log(arr) for edge, arr in self.tables.items()}

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.tables)

    def log_matrix(self, edge: Edge) -> np.ndarray:
        try:
            return self._log[tuple(edge)]
        except KeyError:
            raise MissingEntryError(f"no syntactic table for edge {tuple(edge)}") from None

    def score(self, edge: Edge, t_parent: int, t_child: int) -> float:
        mat = self.log_matrix(edge)
        t = self.part_type_count
        if not (1 <= t_parent <= t and 1 <= t_child <= t):
            raise ValidationError(
                f"part types must lie in 1..{t}, got ({t_parent}, {t_child})"
            )
        return float(mat[t_parent - 1, t_child - 1])


def uniform_syntactic_table(edges: Iterable[Edge], part_type_count: int = 9) -> SyntacticTable:
    t = part_type_count
    mat = np.full((t, t), 1.0 / (t * t))
    return SyntacticTable({tuple(e): mat.copy() for e in edges}, part_type_count=t)


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
        for i in range(k):
            if abs(cov[i, 0, 1] - cov[i, 1, 0]) > 1e-9:
                raise ValidationError(f"mixture component {i}: covariance not symmetric")
            eigvals = np.linalg.eigvalsh(cov[i])
            if eigvals[0] < COV_EIG_FLOOR * (1.0 - 1e-6):
                raise ValidationError(
                    f"mixture component {i}: covariance eigenvalue {eigvals[0]!r} below "
                    f"floor {COV_EIG_FLOOR}"
                )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)


def _component_constants(weights, covariances) -> tuple[np.ndarray, np.ndarray]:
    """Per component ``log w - log 2pi - log det / 2`` and the inverse covariance.

    Components with non-positive weight get -inf and a zero inverse.
    """
    consts = np.full(weights.shape[0], -np.inf)
    inverses = np.zeros((weights.shape[0], 2, 2))
    for i, (w, cov) in enumerate(zip(weights, covariances)):
        if w <= 0.0:
            continue
        inverses[i] = np.linalg.inv(cov)
        _, logdet = np.linalg.slogdet(cov)
        consts[i] = math.log(float(w)) - _LOG_TWO_PI - 0.5 * logdet
    return consts, inverses


def _mixture_terms(points, means, consts, inverses) -> np.ndarray:
    """Per-component log terms ``const - quad / 2``, shape (N, k).

    ``consts`` and ``inverses`` come from :func:`_component_constants`;
    components with a -inf constant stay -inf.  A log-sum-exp over axis 1
    gives the mixture log-density; the EM E-step also needs the terms
    themselves for the responsibilities.
    """
    diff = np.asarray(points, dtype=float)[:, None, :] - means
    quad = np.einsum("nki,kij,nkj->nk", diff, inverses, diff)
    return np.where(consts == -np.inf, -np.inf, consts - 0.5 * quad)


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of (N, k) terms, total on every row.

    A row of -inf gives -inf and a row holding NaN gives NaN; only rows
    with a finite maximum reach ``exp``.
    """
    top = terms.max(axis=1)
    out = top.copy()
    ok = np.isfinite(top)
    out[ok] += np.log(np.exp(terms[ok] - top[ok, None]).sum(axis=1))
    return out


class KinematicMoG:
    """Per-dependency-edge Gaussian mixtures over child-minus-parent offsets."""

    def __init__(
        self,
        mixtures: Mapping[Edge, Mixture],
        fit_traces: Mapping[Edge, Sequence[float]] | None = None,
    ) -> None:
        self.mixtures: dict[Edge, Mixture] = {tuple(e): m for e, m in mixtures.items()}
        self._constants = {
            e: _component_constants(m.weights, m.covariances) for e, m in self.mixtures.items()
        }
        self.fit_traces: dict[Edge, tuple[float, ...]] = {
            tuple(e): tuple(t) for e, t in (fit_traces or {}).items()
        }

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.mixtures)

    def mixture(self, edge: Edge) -> Mixture:
        try:
            return self.mixtures[tuple(edge)]
        except KeyError:
            raise MissingEntryError(f"no kinematic mixture for edge {tuple(edge)}") from None

    def score(self, edge: Edge, dx: float, dy: float) -> float:
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValidationError(f"displacement must be finite, got ({dx}, {dy})")
        return float(self.log_density(edge, np.array([[dx, dy]]))[0])

    def log_density(self, edge: Edge, points: np.ndarray) -> np.ndarray:
        """Vectorized log density over an (N, 2) array of displacements."""
        mix = self.mixture(edge)
        consts, inverses = self._constants[tuple(edge)]
        return _log_sum_exp(_mixture_terms(points, mix.means, consts, inverses))


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

    def contains(self, part: NodeId, attr: AttrId) -> bool:
        if attr not in self.attr_ids:
            raise MissingEntryError(f"unknown attribute {attr!r}")
        return attr in self.attrs_for(part)


def full_association(grammar: AOGrammar) -> AttributeAssociation:
    """Associate every part with every attribute (trivially closed)."""
    attr_ids = tuple(a.id for a in grammar.attributes)
    return AttributeAssociation(
        {p: attr_ids for p in grammar.part_ids}, attr_ids=attr_ids
    )


def validate_association(assoc: AttributeAssociation, grammar: AOGrammar) -> ValidationReport:
    """Report parts missing entries and ancestor-closure violations."""
    report = ValidationReport()
    for part in grammar.part_ids:
        if part not in assoc.parts:
            report.add(f"association misses grammar part {part!r}")
    for part, attrs in assoc.parts.items():
        if not grammar.has_node(part):
            report.add(f"association names unknown part {part!r}")
            continue
        for ancestor in grammar.psg_ancestors(part):
            if ancestor not in assoc.parts:
                continue
            missing = attrs - assoc.parts[ancestor]
            if missing:
                report.add(
                    f"ancestor {ancestor!r} of {part!r} misses attributes {sorted(missing)}"
                )
    return report


@dataclass
class RelationModels:
    """Bundle of the three learned relation models."""

    syntactic: SyntacticTable
    kinematic: KinematicMoG
    association: AttributeAssociation
    part_type_count: int = field(default=9)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "part_type_count": self.part_type_count,
            "syntactic": {
                _edge_key(e): [[float(x) for x in row] for row in mat]
                for e, mat in self.syntactic.tables.items()
            },
            "kinematic": {
                _edge_key(e): [
                    {
                        "w": float(w),
                        "mu": [float(mu[0]), float(mu[1])],
                        "cov": [[float(c) for c in row] for row in cov],
                    }
                    for w, mu, cov in zip(m.weights, m.means, m.covariances)
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
        with malformed("models document", doc):
            ptc = int(doc.get("part_type_count", 9))
            syn = SyntacticTable(
                {_parse_edge_key(k): np.asarray(v, dtype=float) for k, v in doc["syntactic"].items()},
                part_type_count=ptc,
            )
            mixtures = {}
            for key, comps in doc["kinematic"].items():
                mixtures[_parse_edge_key(key)] = Mixture(
                    weights=np.array([c["w"] for c in comps], dtype=float),
                    means=np.array([c["mu"] for c in comps], dtype=float),
                    covariances=np.array([c["cov"] for c in comps], dtype=float),
                )
            adoc = doc["association"]
            assoc = AttributeAssociation(
                parts={p: tuple(a) for p, a in adoc.get("parts", {}).items()},
                attr_ids=tuple(adoc.get("attr_ids", ())),
                mi={p: {a: float(v) for a, v in per.items()} for p, per in adoc.get("mi", {}).items()},
            )
        return cls(syntactic=syn, kinematic=KinematicMoG(mixtures), association=assoc, part_type_count=ptc)


def save_models(models: RelationModels, path: str) -> None:
    write_json(path, models.to_json_dict())


def load_models(path: str) -> RelationModels:
    return read_json(path, RelationModels.from_json_dict)
