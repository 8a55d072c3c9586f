"""Relation model tests: co-occurrence tables, mixtures, associations.

Expected numbers are either closed forms written out in the test or
independent recomputations via scipy.stats, never copied from the
implementation under test.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from posegrammar.appearance import Proposal, ProposalSet, ScoreTable
from posegrammar.errors import MissingEntryError, ValidationError
from posegrammar.grammar import ParseGraph, PartState
from posegrammar.inference import _Table, attribute_scores
from posegrammar.relations import (
    COV_EIG_FLOOR,
    AttributeAssociation,
    KinematicMoG,
    Mixture,
    RelationModels,
    SyntacticTable,
    _centring,
    _component_constants,
    _eigenvalues,
    _entries,
    _floor_covariances,
    _log_sum_exp,
    _mixture_terms,
    _offsets,
    _parse_edge_key,
    _quadratic,
    _term_constants,
    load_models,
    _padded,
    save_models,
)

from oracle import table_rows, uniform_syntactic_table

EDGE = ("torso", "head")


class TestSyntacticTable:
    def test_uniform_table_is_log_one_over_81(self):
        """With 9 types a uniform joint puts 1/81 on every cell."""
        table = uniform_syntactic_table([EDGE], part_type_count=9)
        expected = math.log(1.0 / 81.0)
        for tp in (1, 5, 9):
            for tc in (1, 5, 9):
                np.testing.assert_allclose(
                    table.logs[table.row(EDGE), tp - 1, tc - 1], expected, rtol=0, atol=1e-15
                )

    def test_logs_hold_the_log_of_each_entry(self):
        mat = np.array([[0.5, 0.25], [0.125, 0.125]])
        table = SyntacticTable({EDGE: mat}, part_type_count=2)
        logs = table.logs[table.row(EDGE)]
        np.testing.assert_allclose(logs[0, 0], math.log(0.5), atol=1e-15)
        np.testing.assert_allclose(logs[0, 1], math.log(0.25), atol=1e-15)
        np.testing.assert_allclose(logs[1, 0], math.log(0.125), atol=1e-15)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError, match="expected shape"):
            SyntacticTable({EDGE: np.ones((2, 3)) / 6.0}, part_type_count=2)
        with pytest.raises(ValidationError, match=r"expected shape \(2, 2\), got ragged or non-numeric rows"):
            SyntacticTable({EDGE: ((0.5, 0.25), (0.25,))}, part_type_count=2)

    def test_rejects_zero_entries(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="finite and positive"):
            SyntacticTable({EDGE: mat}, part_type_count=2)

    def test_rejects_unnormalized(self):
        mat = np.full((2, 2), 0.3)
        with pytest.raises(ValidationError, match="sum to"):
            SyntacticTable({EDGE: mat}, part_type_count=2)

    def test_missing_edge(self):
        table = uniform_syntactic_table([EDGE], part_type_count=2)
        with pytest.raises(MissingEntryError, match="no syntactic table"):
            table.row(("torso", "l_hip"))


def _single_gaussian(mean=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0))):
    return Mixture(
        weights=np.array([1.0]),
        means=np.array([mean]),
        covariances=np.array([cov]),
    )


def _three_component():
    return Mixture(
        weights=np.array([0.5, 0.3, 0.2]),
        means=np.array([[0.0, -30.0], [6.0, -28.0], [-5.0, -33.0]]),
        covariances=np.array(
            [
                [[9.0, 1.0], [1.0, 16.0]],
                [[4.0, -0.5], [-0.5, 4.0]],
                [[25.0, 0.0], [0.0, 2.0]],
            ]
        ),
    )


def _oracle_logpdf(mix: Mixture, points: np.ndarray) -> np.ndarray:
    """Independent recomputation through scipy.stats; log domain throughout
    so far-tail evaluations do not underflow."""
    logs = np.stack(
        [
            math.log(w) + np.atleast_1d(multivariate_normal(mean=mu, cov=cov).logpdf(points))
            for w, mu, cov in zip(mix.weights, mix.means, mix.covariances)
            if w > 0.0
        ]
    )
    return logsumexp(logs, axis=0)


class TestMixtureDensity:
    def test_standard_normal_at_mean(self):
        """A unit Gaussian evaluated at its mean: log(1/(2*pi))."""
        mog = KinematicMoG({EDGE: _single_gaussian()})
        np.testing.assert_allclose(
            mog.log_density(EDGE, np.zeros((1, 2))), [-1.8378770664093453], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2,), (1, 2, 2)])
    def test_points_not_of_shape_n_by_2_are_refused(self, shape):
        """A (1, 1) array would broadcast into the offset (x, x), and a
        (3, 3) one fail in numpy: both are refused, naming the edge."""
        mog = KinematicMoG({EDGE: _single_gaussian()})
        message = f"edge torso->head: displacements must have shape (N, 2), got {shape}"
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            mog.log_density(EDGE, np.ones(shape).tolist())
        assert mog.log_density(EDGE, np.zeros((0, 2))).shape == (0,)

    def test_shifted_gaussian_quadratic_falloff(self):
        """One sigma from the mean costs exactly one half nat."""
        mog = KinematicMoG({EDGE: _single_gaussian(mean=(3.0, -2.0))})
        at_mean, one_off = mog.log_density(EDGE, np.array([[3.0, -2.0], [4.0, -2.0]]))
        np.testing.assert_allclose(at_mean - one_off, 0.5, rtol=0, atol=1e-12)

    def test_three_component_matches_direct_summation(self):
        mix = _three_component()
        mog = KinematicMoG({EDGE: mix})
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 15.0, size=(64, 2)) + np.array([0.0, -30.0])
        expected = _oracle_logpdf(mix, pts)
        got = np.array([mog.log_density(EDGE, np.array([[x, y]]))[0] for x, y in pts])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mog.log_density(EDGE, pts), expected, rtol=0, atol=1e-12)
        # The beam's relation table: one parent at the origin, one child
        # proposal per point, its ids zero-padded so id order is point order.
        parents = [Proposal("p", EDGE[0], 0.0, 0.0, 1, (0, 0, 1, 1))]
        kids = [
            Proposal(f"c{i:02d}", EDGE[1], float(x), float(y), 1, (0, 0, 1, 1))
            for i, (x, y) in enumerate(pts)
        ]
        table = ScoreTable({p.id: {} for p in parents + kids})
        pset = ProposalSet.from_proposals(parents + kids, table)
        buckets = pset.buckets
        assert buckets[EDGE[1]].ids == tuple(p.id for p in kids)
        beam = table_rows(_Table(mog, EDGE, buckets[EDGE[0]], buckets[EDGE[1]], math.inf), [0])[0]
        np.testing.assert_allclose(beam, expected, rtol=0, atol=1e-12)

    def test_density_integrates_to_one(self):
        """Midpoint integration over a wide grid recovers total mass 1."""
        mix = _three_component()
        mog = KinematicMoG({EDGE: mix})
        xs = np.linspace(-60.0, 60.0, 301)
        ys = np.linspace(-95.0, 35.0, 326)
        dx = xs[1] - xs[0]
        dy = ys[1] - ys[0]
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        mass = float(np.exp(mog.log_density(EDGE, pts)).sum() * dx * dy)
        np.testing.assert_allclose(mass, 1.0, rtol=0, atol=0.01)

    def test_zero_weight_component_is_ignored(self):
        with_dead = Mixture(
            weights=np.array([1.0, 0.0]),
            means=np.array([[0.0, 0.0], [50.0, 50.0]]),
            covariances=np.array([np.eye(2), np.eye(2)]),
        )
        mog = KinematicMoG({EDGE: with_dead})
        solo = KinematicMoG({EDGE: _single_gaussian()})
        point = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(mog.log_density(EDGE, point), solo.log_density(EDGE, point), rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        dx=st.floats(-80, 80),
        dy=st.floats(-80, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_mixtures_match_oracle(self, dx, dy, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(k))
        means = rng.normal(0.0, 20.0, size=(k, 2))
        covs = np.empty((k, 2, 2))
        for i in range(k):
            m = rng.normal(0.0, 2.0, size=(2, 2))
            covs[i] = m @ m.T + 1.0 * np.eye(2)
        mix = Mixture(weights=w, means=means, covariances=covs)
        mog = KinematicMoG({EDGE: mix})
        expected = _oracle_logpdf(mix, np.array([[dx, dy]]))[0]
        np.testing.assert_allclose(mog.log_density(EDGE, np.array([[dx, dy]])), [expected], rtol=1e-10, atol=1e-10)


def _per_call_log_density(mix: Mixture, points: np.ndarray) -> np.ndarray:
    """The mixture log-density of the (N, 2) ``points`` as it was computed
    before the model cached its per-edge constants: the constants, minus
    half the inverse entries and the dead components derived afresh, the
    offsets by subtraction (the matrix product is the subtraction to the
    bit), every array component-major, (k, N), as the cached path lays
    them out, and the components summed one by one, in order, at every N."""
    consts, inverses = _component_constants(mix.weights, mix.covariances)
    ia, ib, ic = (-0.5 * inverses).T[:, :, None]
    pts = np.asarray(points, dtype=float)
    dx = pts[None, :, 0] - mix.means[:, 0, None]
    dy = pts[None, :, 1] - mix.means[:, 1, None]
    terms = ia * dx * dx + dx * (2.0 * ib) * dy + ic * dy * dy + consts[:, None]
    terms[consts == -np.inf] = -np.inf
    top = terms.max(axis=0)
    shift = np.where(np.isfinite(top), top, 0.0)
    exps = np.exp(terms - shift)
    sums = exps[0]
    for row in exps[1:]:
        sums = sums + row
    with np.errstate(divide="ignore"):
        return np.log(sums) + shift


class TestLogDensityBits:
    """The cached per-edge constants give the per-call formula's result to
    the bit, at ten components, with dead components, and for a point
    alone, where numpy's own sum over a (k, 1) block would take its
    pairwise path: every point's components are summed in order."""

    @staticmethod
    def _mixture(rng, dead=()):
        """Ten broad, overlapping components, so that several add to the
        sum at a point and its order shows in the last bits."""
        weights = rng.dirichlet(np.ones(10))
        weights[list(dead)] = 0.0
        weights /= weights.sum()
        return Mixture(weights, rng.normal(0.0, 5.0, size=(10, 2)), _spd(rng, 10, (50.0, 100.0), 4.0))

    @staticmethod
    def _assert_bits(got, expected):
        assert [float.hex(v) for v in np.ravel(got)] == [float.hex(v) for v in np.ravel(expected)]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        mix = self._mixture(rng)
        points = rng.normal(0.0, 20.0, size=(int(rng.integers(2, 40)), 2))
        self._assert_bits(KinematicMoG({EDGE: mix}).log_density(EDGE, points), _per_call_log_density(mix, points))

    @pytest.mark.parametrize("seed", range(6))
    def test_one_point_per_edge_as_recompute_reads_it(self, seed):
        """``recompute_score`` reads one offset per dependency edge, all in
        one (E, 1, 2) ``log_densities`` call."""
        rng = np.random.default_rng(seed + 10)
        mix = self._mixture(rng)
        mog = KinematicMoG({EDGE: mix})
        points = rng.normal(0.0, 20.0, size=(20, 2))
        expected = [_per_call_log_density(mix, point[None])[0] for point in points]
        for point, want in zip(points, expected):
            self._assert_bits(mog.log_density(EDGE, point[None]), [want])
        self._assert_bits(mog.log_densities([EDGE] * len(points), points[:, None]), expected)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), dead=st.sets(st.integers(0, 9), max_size=9))
    def test_a_point_reads_the_same_alone_and_among_others(self, seed, n, dead):
        """``log_density(edge, P)[i]`` is ``log_density(edge, P[i:i+1])[0]``
        to the bit: how many points share a call never changes the order in
        which a point's components are summed."""
        rng = np.random.default_rng(seed)
        mog = KinematicMoG({EDGE: self._mixture(rng, sorted(dead))})
        points = rng.normal(0.0, 20.0, size=(n, 2))
        self._assert_bits(mog.log_density(EDGE, points), [mog.log_density(EDGE, points[i : i + 1])[0] for i in range(n)])

    def test_edges_stacked_with_unequal_component_counts_read_as_each_alone(self):
        """One :meth:`log_densities` call over edges of 10, 3 (one of them
        dead) and 1 components, padded to 10 with zero-weight ones, gives
        each edge's row the bits of its own model, one point at a time too."""
        rng = np.random.default_rng(5)
        three = Mixture(np.array([0.5, 0.0, 0.5]), rng.normal(0.0, 5.0, size=(3, 2)), _spd(rng, 3, (50.0, 100.0), 4.0))
        mixtures = {("a", "b"): self._mixture(rng), ("b", "c"): three, ("c", "d"): _single_gaussian(mean=(1.0, -2.0))}
        mog = KinematicMoG(mixtures)
        assert mog.components == 10
        points = rng.normal(0.0, 20.0, size=(3, 7, 2))
        stacked = mog.log_densities(list(mixtures), points)
        for row, (edge, mix), pts in zip(stacked, mixtures.items(), points):
            self._assert_bits(row, _per_call_log_density(mix, pts))
            self._assert_bits(row, KinematicMoG({edge: mix}).log_density(edge, pts))
            self._assert_bits(row[:1], mog.log_densities([edge], pts[None, :1])[0])
        with pytest.raises(MissingEntryError, match=re.escape("no kinematic mixture for edge ('a', 'c')")):
            mog.log_densities([("a", "b"), ("a", "c")], points[:2])

    def test_displacement_scores_are_child_minus_parent_densities(self):
        """Each (parent, child) cell of a padded block is the density of the
        child's position minus the parent's; the padding repeats each edge's
        last position, so its cells repeat real ones."""
        rng = np.random.default_rng(6)
        mixtures = {("a", "b"): self._mixture(rng), ("b", "c"): self._mixture(rng)}
        mog = KinematicMoG(mixtures)
        parents = [rng.normal(0.0, 9.0, size=(2, 2)), rng.normal(0.0, 9.0, size=(3, 2))]
        children = [rng.normal(0.0, 9.0, size=(4, 2)), rng.normal(0.0, 9.0, size=(1, 2))]
        ends = _padded(parents), _padded(children)
        assert ends[0].shape == (2, 3, 2) and ends[1].shape == (2, 4, 2)
        assert ends[0][0].tolist() == parents[0].tolist() + [parents[0][-1].tolist()]
        assert ends[1][1].tolist() == [children[1][0].tolist()] * 4
        block = mog.displacement_scores(list(mixtures), *ends)
        for e, edge in enumerate(mixtures):
            for r, c in np.ndindex(block.shape[1:]):
                offset = ends[1][e, c] - ends[0][e, r]
                self._assert_bits(block[e, r, c], mog.log_density(edge, offset[None]))

    @pytest.mark.parametrize("dead", [(0,), (3, 7), tuple(range(9))], ids=["first", "two", "all-but-one"])
    def test_zero_weight_components(self, dead):
        rng = np.random.default_rng(len(dead))
        mix = self._mixture(rng, dead)
        mog = KinematicMoG({EDGE: mix})
        points = rng.normal(0.0, 20.0, size=(12, 2))
        self._assert_bits(mog.log_density(EDGE, points), _per_call_log_density(mix, points))
        for point in points:
            self._assert_bits(mog.log_density(EDGE, point[None]), _per_call_log_density(mix, point[None]))

    def test_a_dead_component_stays_minus_inf_at_an_infinite_offset(self):
        """An offset that overflows to infinity gives a dead component's
        zero inverse a NaN quadratic term; its term stays -inf, so where the
        live component's term is -inf the density is -inf, not NaN."""
        covs = np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]], np.eye(2)])
        mix = Mixture(np.array([0.0, 1.0, 0.0]), np.full((3, 2), [-1e308, 0.0]), covs)
        points = np.array([[1.7e308, -1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = KinematicMoG({EDGE: mix}).log_density(EDGE, points)
            self._assert_bits(got, _per_call_log_density(mix, points))
        assert got.tolist() == [-np.inf]


def _positions(rng, n, scale):
    """``n`` random (x, y) positions of magnitude about ``10**scale``, with
    -0.0, 0.0 and subnormal coordinates among them."""
    xy = rng.normal(0.0, 1.0, size=(n, 2)) * 10.0**scale
    pick = rng.random((n, 2))
    xy[pick < 0.1] = -0.0
    xy[(pick >= 0.1) & (pick < 0.2)] = 0.0
    subnormal = (pick >= 0.2) & (pick < 0.3)
    xy[subnormal] = rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320], int(subnormal.sum()))
    return xy


def _bound(mog, parents, children, edge=EDGE):
    """``edge``'s bound for the (R, 2) ``parents`` and (C, 2) ``children``, alone in its call."""
    [bound] = mog.displacement_bounds([edge], parents[None], children[None])
    return bound


def _bound_one_edge(mog, edge, parents, children):
    """The bound as it was computed one edge at a time, over the live
    components only: the reference a stacked call must match to the bit."""
    centring, consts, halved = (c[mog._row[edge]] for c in mog._constants[:3])
    live = consts[:, 0] > -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.maximum(children.max(0) - parents.min(0), parents.max(0) - children.min(0))
        (rx, ry), (ha, hb, hc) = (extent + np.abs(centring[live, :, 1])).T, np.abs(halved[live]).T
        quad = ha * rx * rx + rx * (2.0 * hb) * ry + hc * ry * ry
        bound = float((quad + np.abs(consts[live, 0])).max()) + np.count_nonzero(live)
    return bound if quad.max() < 2.0**900 else math.inf


class TestDisplacementBound:
    """``displacement_bounds`` bounds every ``|score|`` of the offsets between
    two sets of positions from their extents alone; where it is finite,
    every score is finite."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        mean_scale=st.integers(-320, 200),
        position_scale=st.integers(-320, 200),
        dead=st.booleans(),
    )
    def test_a_finite_bound_holds_every_cell(self, seed, k, rows, cols, mean_scale, position_scale, dead):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(k))
        if dead and k > 1:
            weights[0] = 0.0
            weights /= weights.sum()
        means = rng.normal(0.0, 1.0, size=(k, 2)) * 10.0**mean_scale
        mog = KinematicMoG({EDGE: Mixture(weights, means, _spd(rng, k, (1e-3, 1e2), 1e4))})
        parents, children = _positions(rng, rows, position_scale), _positions(rng, cols, position_scale)
        bound = _bound(mog, parents, children)
        cells = mog.displacement_scores([EDGE], parents[None], children[None])[0]
        if bound < math.inf:
            assert np.isfinite(cells).all()
            assert np.abs(cells).max() <= bound

    @pytest.mark.parametrize(
        "mean, cov, child",
        [
            ((0.0, 0.0), ((1.0, -0.9), (-0.9, 1.0)), (10.0, 10.0)),
            ((0.0, 0.0), ((1.0, 0.9), (0.9, 1.0)), (-10.0, 10.0)),
            ((1e3, -1e3), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0)),
            ((1e200, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0)),
        ],
        ids=["corner-anticorrelated", "corner-correlated", "far-mean", "mean-beyond-the-range"],
    )
    def test_the_bound_holds_where_the_extents_are_reached(self, mean, cov, child):
        """From a parent at the origin, the one offset reaches both extents
        plus the mean, and at the two corners the cross term adds to the
        quadratic term; a mean of 1e200 puts the score beyond the float
        range, so the bound is infinite."""
        mog = KinematicMoG({EDGE: _single_gaussian(mean, cov)})
        parents, children = np.zeros((1, 2)), np.array([child])
        [[cell]] = mog.displacement_scores([EDGE], parents[None], children[None])[0]
        bound = _bound(mog, parents, children)
        assert abs(cell) <= bound
        assert math.isfinite(cell) == math.isfinite(bound)

    def test_a_bound_past_2_to_the_900_is_infinite(self):
        """Quadratic terms of about 5e279, past 2**900 but inside the float
        range, prove nothing: the bound is infinite, though every score is
        finite, and the table is filled whole to find out."""
        mog = KinematicMoG({EDGE: _single_gaussian()})
        parents, children = np.zeros((1, 2)), np.array([[1e140, 0.0], [1e134, 0.0]])
        assert np.isfinite(mog.displacement_scores([EDGE], parents[None], children[None])).all()
        assert _bound(mog, parents, children) == math.inf
        assert _bound(mog, parents, children[1:]) < 2.0**900

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), edges=st.integers(1, 6), scale=st.integers(-320, 200))
    def test_a_stacked_call_gives_each_edge_its_bound_alone(self, seed, edges, scale):
        """Edges of 1 to 4 components, some of them dead, each over 1 to 5
        parents and children, padded by repeating the last: one call gives
        each edge the bits of its bound alone, finite or not, and of the
        bound computed one edge at a time over its live components."""
        rng = np.random.default_rng(seed)
        mixtures = {}
        for e in range(edges):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k))
            weights[: int(rng.integers(0, k))] = 0.0
            means = rng.normal(0.0, 1.0, size=(k, 2)) * 10.0 ** int(rng.integers(-320, 200))
            mixtures[f"p{e}", f"c{e}"] = Mixture(weights / weights.sum(), means, _spd(rng, k, (1e-3, 1e2), 1e4))
        mog = KinematicMoG(mixtures)
        parents = [_positions(rng, int(rng.integers(1, 6)), scale) for _ in range(edges)]
        children = [_positions(rng, int(rng.integers(1, 6)), scale) for _ in range(edges)]
        stacked = mog.displacement_bounds(list(mixtures), _padded(parents), _padded(children))
        alone = [_bound(mog, p, c, edge) for edge, p, c in zip(mixtures, parents, children)]
        reference = [_bound_one_edge(mog, edge, p, c) for edge, p, c in zip(mixtures, parents, children)]
        assert [float.hex(b) for b in stacked] == [float.hex(b) for b in alone] == [float.hex(b) for b in reference]


def _spd(rng, count, lowest=(1e-2, 1e2), max_condition=1e4):
    """Random SPD 2x2 matrices: a random rotation of eigenvalues whose
    smaller one and condition number are log-uniform in the given ranges."""
    lo = np.exp(rng.uniform(*np.log(lowest), size=count))
    hi = lo * np.exp(rng.uniform(0.0, np.log(max_condition), size=count))
    theta = rng.uniform(0.0, np.pi, size=count)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    covs = rot @ (np.stack([lo, hi], -1)[:, :, None] * np.swapaxes(rot, 1, 2))
    return (covs + np.swapaxes(covs, 1, 2)) / 2.0


def _eigh_floor(covs: np.ndarray) -> np.ndarray:
    """The eigenvalue floor through ``numpy.linalg.eigh``, one matrix at a time."""
    out = np.empty_like(covs)
    for i, cov in enumerate(covs):
        vals, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        out[i] = (vecs * np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T
    return out


def _assert_matrices_close(got, expected, rtol=1e-10):
    """Entries agree within ``rtol`` of each matrix's largest entry."""
    scale = np.abs(expected).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - expected) <= rtol * scale)


class TestClosedFormGaussian:
    """The closed-form 2x2 math against ``numpy.linalg``: log-domain values
    agree within 1e-10 absolute (1e-10 relative in the density), matrices
    within 1e-10 of their largest entry."""

    def test_random_spd_matches_linalg(self):
        """Batched as EM runs it: the 200 components as 4 mixtures of 50,
        each component's 50 offsets one row of a (..., k, N) array."""
        rng = np.random.default_rng(8)
        covs = _spd(rng, 200)
        weights = rng.dirichlet(np.ones(200))
        consts, inverses = _component_constants(weights.reshape(4, 50), covs.reshape(4, 50, 2, 2))
        assert consts.shape == (4, 50) and inverses.shape == (4, 50, 3)
        expected = np.log(weights) - math.log(2.0 * math.pi) - 0.5 * np.linalg.slogdet(covs)[1]
        np.testing.assert_allclose(consts.reshape(200), expected, rtol=1e-10, atol=1e-10)
        inv = np.linalg.inv(covs)
        ia, ib, ic = inverses.reshape(200, 3).T
        _assert_matrices_close(np.stack([np.stack([ia, ib], -1), np.stack([ib, ic], -1)], -2), inv)
        lo, hi = _eigenvalues(*_entries(covs))
        np.testing.assert_allclose(np.stack([lo, hi], -1), np.linalg.eigvalsh(covs), rtol=1e-10)
        _assert_matrices_close(_floor_covariances(covs), _eigh_floor(covs))
        offsets = rng.normal(0.0, 30.0, size=(200, 50, 2))
        quad = np.einsum("kni,kij,knj->kn", offsets, inv, offsets)
        dx, dy = (offsets[..., i].reshape(4, 50, 50) for i in (0, 1))
        got = _quadratic(inverses, dx, dy, out=None)
        assert got.shape == (4, 50, 50)
        np.testing.assert_allclose(got.reshape(200, 50), quad, rtol=1e-10)

    def test_offsets_are_the_subtraction_to_the_bit(self):
        """Through the matrix product ``[1, -c] @ [x; 1]``, overflow included."""
        rng = np.random.default_rng(10)
        xy = rng.normal(0.0, 1e3, size=(3, 2, 40))
        centres = rng.normal(0.0, 1e3, size=(3, 5, 2))
        xy[0, :, :2] = 1.7e308
        centres[0, 0] = -1.7e308
        points = np.concatenate([xy, np.ones((3, 1, 40))], axis=1)
        with np.errstate(over="ignore"):
            dx, dy = _offsets(points, _centring(centres))
            assert np.array_equal(dx, xy[:, None, 0, :] - centres[..., 0, None])
            assert np.array_equal(dy, xy[:, None, 1, :] - centres[..., 1, None])
        assert np.isinf(dx[0, 0, :2]).all()

    def test_batched_log_density_matches_each_mixture_alone(self):
        """One (E, k, N) call agrees with E single-mixture calls to the bit
        and with scipy; a dead component's terms stay -inf.  The
        exponentials over their sums are the responsibilities."""
        rng = np.random.default_rng(11)
        covs = _spd(rng, 12).reshape(3, 4, 2, 2)
        weights = rng.dirichlet(np.ones(4), size=3)
        weights[1, 2] = 0.0
        weights[1] /= weights[1].sum()
        means = rng.normal(0.0, 10.0, size=(3, 4, 2))
        xy = rng.normal(0.0, 10.0, size=(3, 2, 30))
        points = np.concatenate([xy, np.ones((3, 1, 30))], axis=1)
        terms = _mixture_terms(_offsets(points, _centring(means)), *_term_constants(weights, covs))
        assert np.all(terms[1, 2] == -np.inf)
        stacked, exps, sums = _log_sum_exp(terms)
        np.testing.assert_allclose(exps / sums[:, None, :], np.exp(terms - stacked[:, None, :]), rtol=1e-12, atol=0)
        assert np.all(exps[1, 2] == 0.0)
        for e in range(3):
            constants = _term_constants(weights[e], covs[e])
            alone = _log_sum_exp(_mixture_terms(_offsets(points[e], _centring(means[e])), *constants))[0]
            np.testing.assert_array_equal(stacked[e], alone)
            live = [
                np.log(w) + multivariate_normal(m, c).logpdf(xy[e].T)
                for w, m, c in zip(weights[e], means[e], covs[e])
                if w > 0.0
            ]
            expected = logsumexp(live, axis=0)
            np.testing.assert_allclose(stacked[e], expected, rtol=0, atol=1e-10)

    def test_floor_matches_eigh_across_the_floor(self):
        covs = _spd(np.random.default_rng(9), 200, lowest=(1e-7, 1e-3))
        floored = _floor_covariances(covs)
        _assert_matrices_close(floored, _eigh_floor(covs))
        assert np.all(_eigenvalues(*_entries(floored))[0] >= COV_EIG_FLOOR * (1.0 - 1e-9))

    def test_isotropic_matrix_below_the_floor_lifts_both_eigenvalues(self):
        covs = np.array([0.25 * COV_EIG_FLOOR * np.eye(2)])
        floored = _floor_covariances(covs)
        np.testing.assert_allclose(floored, [COV_EIG_FLOOR * np.eye(2)], rtol=1e-12, atol=0)
        _assert_matrices_close(floored, _eigh_floor(covs))

    @pytest.mark.parametrize("diagonal", [(1e-6, 4.0), (4.0, 1e-6)], ids=["a<d", "a>d"])
    def test_diagonal_matrix_lifts_only_its_small_entry(self, diagonal):
        covs = np.array([np.diag(diagonal)])
        expected = np.diag(np.maximum(diagonal, COV_EIG_FLOOR))
        np.testing.assert_allclose(_floor_covariances(covs)[0], expected, rtol=1e-10, atol=1e-16)
        lo, hi = _eigenvalues(*_entries(covs))
        np.testing.assert_allclose([lo[0], hi[0]], sorted(diagonal), rtol=1e-10)

    def test_non_psd_input_is_lifted_like_eigh(self):
        covs = np.array([[[1.0, 2.0], [2.0, 1.0]], [[-3.0, 0.5], [0.5, -1.0]]])
        lo, hi = _eigenvalues(*_entries(covs))
        np.testing.assert_allclose(np.stack([lo, hi], -1), np.linalg.eigvalsh(covs), rtol=1e-12)
        floored = _floor_covariances(covs)
        _assert_matrices_close(floored, _eigh_floor(covs))
        np.testing.assert_allclose(floored[1], COV_EIG_FLOOR * np.eye(2), rtol=1e-12)

    def test_zero_weight_component_gets_minus_inf_and_a_zero_inverse(self):
        consts, inverses = _component_constants(np.array([1.0, 0.0]), np.array([np.eye(2), 4.0 * np.eye(2)]))
        assert consts[0] == pytest.approx(-math.log(2.0 * math.pi), abs=1e-15)
        assert consts[1] == -np.inf
        assert inverses.tolist() == [[1.0, -0.0, 1.0], [0.0, 0.0, 0.0]]


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            Mixture(
                weights=np.array([0.5, 0.4]),
                means=np.zeros((2, 2)),
                covariances=np.array([np.eye(2), np.eye(2)]),
            )

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            Mixture(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                covariances=np.array([[[1.0, 0.5], [0.2, 1.0]]]),
            )

    def test_covariance_eigenvalue_floor(self):
        with pytest.raises(ValidationError, match="below"):
            Mixture(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                covariances=np.array([[[1e-6, 0.0], [0.0, 1.0]]]),
            )

    def test_covariance_determinant_must_fit_the_float_range(self):
        with pytest.raises(ValidationError, match="component 1: covariance determinant is beyond"):
            Mixture(
                weights=np.array([0.5, 0.5]),
                means=np.zeros((2, 2)),
                covariances=np.array([np.eye(2), 1e200 * np.eye(2)]),
            )

    @pytest.mark.parametrize("field", ["weights", "means", "covariances"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_parameters_must_be_finite(self, field, bad):
        params = {"weights": np.array([1.0]), "means": np.zeros((1, 2)), "covariances": np.array([np.eye(2)])}
        params[field].flat[0] = bad
        with pytest.raises(ValidationError, match="^mixture parameters must be finite$"):
            Mixture(**params)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shapes inconsistent"):
            Mixture(
                weights=np.array([1.0]),
                means=np.zeros((2, 2)),
                covariances=np.array([np.eye(2)]),
            )

    def test_missing_edge(self):
        mog = KinematicMoG({EDGE: _single_gaussian()})
        with pytest.raises(MissingEntryError, match="no kinematic mixture"):
            mog.log_density(("torso", "l_hip"), np.zeros((1, 2)))
        with pytest.raises(MissingEntryError, match="no kinematic mixture"):
            mog.log_densities([EDGE, ("torso", "l_hip")], np.zeros((2, 1, 2)))


class TestAttributeAssociation:
    def test_membership_and_compat(self):
        assoc = AttributeAssociation(
            parts={"head": ("hat",), "torso": ()},
            attr_ids=("hat", "backpack"),
        )
        assert assoc.attrs_for("head") == frozenset({"hat"})
        assert assoc.attrs_for("torso") == frozenset()

    def test_undeclared_attribute_in_parts(self):
        with pytest.raises(ValidationError, match="undeclared attributes"):
            AttributeAssociation(parts={"head": ("mood",)}, attr_ids=("hat",))

    def test_unknown_attribute_query(self):
        """A readout of an attribute the association does not declare is
        refused, not summed over no parts."""
        assoc = AttributeAssociation(parts={"head": ("hat",)}, attr_ids=("hat",))
        pset = ProposalSet.from_proposals(
            [Proposal("ph", "head", 0.0, 0.0, 1, (0.0, 0.0, 4.0, 4.0))],
            ScoreTable({"ph": {"hat": {"yes": 1.0}, "mood": {"happy": 2.0}}}),
        )
        pg = ParseGraph({"head": PartState("head", 0.0, 0.0, 1, "ph")}, {"mood": "happy"}, 0.0)
        with pytest.raises(MissingEntryError, match="^unknown attribute 'mood'$"):
            attribute_scores({("mood", "happy"): pg}, pset, assoc)

    def test_unknown_part_query(self):
        assoc = AttributeAssociation(parts={"head": ("hat",)}, attr_ids=("hat",))
        with pytest.raises(MissingEntryError, match="no association entry"):
            assoc.attrs_for("tail")


_TWO_TYPES = SyntacticTable(
    {("root", "a"): np.array([[0.5, 0.25], [0.125, 0.125]])},
    part_type_count=2,
)


class TestModelSerialization:
    def _models(self, syn=_TWO_TYPES):
        kin = KinematicMoG(
            {("a", "b"): _three_component()},
            fit_traces={("a", "b"): (-5.0, -4.5, -4.4)},
        )
        assoc = AttributeAssociation(
            parts={"root": ("c",), "a": ("c",), "b": ()},
            attr_ids=("c",),
            mi={"a": {"c": 0.12}},
        )
        return RelationModels(syn, kin, assoc)

    def test_round_trip_numeric_equality(self):
        models = self._models()
        back = RelationModels.from_json_dict(models.to_json_dict())
        np.testing.assert_allclose(
            back.syntactic.tables[("root", "a")],
            models.syntactic.tables[("root", "a")],
            rtol=0,
            atol=0,
        )
        m0 = models.kinematic.mixture(("a", "b"))
        m1 = back.kinematic.mixture(("a", "b"))
        np.testing.assert_allclose(m1.weights, m0.weights, rtol=0, atol=0)
        np.testing.assert_allclose(m1.means, m0.means, rtol=0, atol=0)
        np.testing.assert_allclose(m1.covariances, m0.covariances, rtol=0, atol=0)
        assert back.association.parts == models.association.parts
        assert back.association.mi == models.association.mi
        assert back.part_type_count == 2

    def test_fit_traces_are_not_persisted(self):
        models = self._models()
        back = RelationModels.from_json_dict(models.to_json_dict())
        assert back.kinematic.fit_traces == {}

    @pytest.mark.parametrize(
        "syn",
        [_TWO_TYPES, uniform_syntactic_table([("root", "a")], 3)],
        ids=["two-types", "three-uniform-types"],
    )
    def test_file_round_trip_scores_identically(self, tmp_path, syn):
        """The type count written is the syntactic table's own."""
        models = self._models(syn)
        path = tmp_path / "models.json"
        save_models(models, str(path))
        assert json.loads(path.read_text())["part_type_count"] == syn.part_type_count
        back = load_models(str(path))
        assert back.part_type_count == syn.part_type_count
        np.testing.assert_array_equal(back.syntactic.tables[("root", "a")], syn.tables[("root", "a")])
        points = np.array([(0.0, -30.0), (6.0, -28.0), (10.0, 0.0)])
        np.testing.assert_allclose(
            back.kinematic.log_density(("a", "b"), points),
            models.kinematic.log_density(("a", "b"), points),
            rtol=0,
            atol=0,
        )

    def test_malformed_document(self):
        with pytest.raises(ValidationError, match="^kinematic is missing$"):
            RelationModels.from_json_dict({"syntactic": {}})

    def test_edge_key_format(self):
        assert _parse_edge_key("torso->head") == ("torso", "head")
        with pytest.raises(ValidationError, match="malformed edge key"):
            _parse_edge_key("torsohead")
