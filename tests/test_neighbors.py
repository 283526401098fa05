import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnsums import (
    AnnulusBallCounterexample,
    Ball,
    Box,
    DegenerateStatistic,
    GaussianStandard,
    NeighborQuery,
    PointSet,
    PowerLawTail,
    UniformConvexUnion,
    build_index,
    knn_distances,
    nn_distance_bruteforce,
    nn_distance_indexed,
    statistic_phi,
    statistic_power,
)
from nnsums import neighbors

LINE = PointSet([0.0, 1.0, 3.0])


# ---------------------------------------------------------------------------
# single-query distances


def test_line_first_neighbor_of_origin():
    assert nn_distance_bruteforce(LINE, NeighborQuery(j=1, index=0)) == 1.0


def test_line_second_neighbor_of_middle():
    assert nn_distance_bruteforce(LINE, NeighborQuery(j=2, index=1)) == 2.0


def test_small_set_convention_returns_zero():
    # with card(X) <= j every neighbor distance is 0 by convention
    xs = PointSet([[0.0, 0.0], [5.0, 5.0]])
    for index in range(2):
        q = NeighborQuery(j=2, index=index)
        assert nn_distance_bruteforce(xs, q) == 0.0
        assert nn_distance_indexed(xs, q) == 0.0


def test_duplicate_points_have_zero_distance():
    xs = PointSet([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0]])
    for index in (0, 1):
        q = NeighborQuery(j=1, index=index)
        assert nn_distance_bruteforce(xs, q) == 0.0
        assert nn_distance_indexed(xs, q) == 0.0


def test_indexed_matches_bruteforce_on_line():
    for j in (1, 2):
        for index in range(3):
            q = NeighborQuery(j=j, index=index)
            assert nn_distance_indexed(LINE, q) == nn_distance_bruteforce(LINE, q)


def test_indexed_equals_bruteforce_uniform_cube():
    # oracle over all pairs: 500 uniform points in [0,1]^3, every query
    rng = np.random.default_rng(42)
    xs = PointSet(rng.random((500, 3)))
    index = build_index(xs)
    for j in (1, 2, 3):
        expected = np.array(
            [nn_distance_bruteforce(xs, NeighborQuery(j=j, index=i)) for i in range(500)]
        )
        got = np.array(
            [nn_distance_indexed(xs, NeighborQuery(j=j, index=i), index) for i in range(500)]
        )
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(knn_distances(xs, j), expected)


def test_query_validation():
    with pytest.raises(ValueError):
        NeighborQuery(j=0, index=0)
    with pytest.raises(IndexError):
        nn_distance_bruteforce(LINE, NeighborQuery(j=1, index=3))
    with pytest.raises(IndexError):
        nn_distance_indexed(LINE, NeighborQuery(j=1, index=5))


def test_index_refuses_foreign_point_set():
    other = PointSet([0.0, 2.0, 5.0])
    index = build_index(LINE)
    with pytest.raises(ValueError):
        nn_distance_indexed(other, NeighborQuery(j=1, index=0), index)


# d >= 8 checks the oracle's four-lane order of the kernel's sum; the sets of
# 2 048 points fill their box, so they meet the oracle through midpoint splits
@pytest.mark.parametrize(
    "n, d",
    [
        *itertools.product([2, 3, 17, 100, 1024, 1025], [1, 2, 5, 8, 9, 12]),
        (2048, 1),
        (2048, 2),
        (2048, 3),
    ],
)
def test_knn_distances_equal_bruteforce_with_duplicates(n, d):
    # duplicated points put exact zeros and ties in play
    rng = np.random.default_rng([n, d])
    pts = rng.random((n, d))
    dup = rng.integers(0, n, size=n // 3)
    pts[rng.integers(0, n, size=n // 3)] = pts[dup]
    xs = PointSet(pts)
    assert neighbors._fills_its_box(xs.coords) == (n >= 2000)
    for j in (1, 2):
        expected = np.array(
            [nn_distance_bruteforce(xs, NeighborQuery(j=j, index=i)) for i in range(n)]
        )
        got = knn_distances(xs, j)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


# the catalog laws, with whether their samples of 2 000 points or more fill
# their box: the uniform unions do, the Gaussian and the heavy tails do not
_SPLIT_LAWS = {
    "unit_square": (lambda: UniformConvexUnion.unit_cube(2), True),
    "unit_cube": (lambda: UniformConvexUnion.unit_cube(3), True),
    "segment": (lambda: UniformConvexUnion.unit_cube(1), True),
    "disc": (lambda: UniformConvexUnion([Ball((0.0, 0.0), 1.0)]), True),
    "ball_3d": (lambda: UniformConvexUnion([Ball((0.0, 0.0, 0.0), 1.0)]), True),
    "box_and_disc": (
        lambda: UniformConvexUnion([Box((0.0, 0.0), (1.0, 2.0)), Ball((3.0, 3.0), 1.0)]),
        True,
    ),
    "gaussian_2d": (lambda: GaussianStandard(2), False),
    "gaussian_3d": (lambda: GaussianStandard(3), False),
    "power_law_2d": (lambda: PowerLawTail(2, 6.0), False),
    "power_law_heavy": (lambda: PowerLawTail(2, 3.5), False),
    "counterexample_2d": (lambda: AnnulusBallCounterexample(2, 1.5), False),
}


@pytest.mark.parametrize("n", [2000, 20_000])
@pytest.mark.parametrize("name", sorted(_SPLIT_LAWS))
def test_split_rule_follows_the_law(name, n):
    make, fills = _SPLIT_LAWS[name]
    for seed in range(3):
        coords = make().sample(np.random.default_rng([seed, n]), n)
        assert neighbors._fills_its_box(coords) is fills, seed
    # below the size floor every set keeps the median splits
    assert neighbors._fills_its_box(coords[:1999]) is False


def test_split_rule_is_definite_near_the_float_maximum():
    # the spread is taken on shifted and scaled coordinates: the squares of
    # raw coordinates of 1e300 would overflow and warn
    unit = np.random.default_rng(5).random((4000, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert neighbors._fills_its_box(1e300 * (2.0 * unit - 1.0)) is True
        # a range that overflows, and a coordinate with no range, give False
        assert neighbors._fills_its_box(1.7e308 * (2.0 * unit - 1.0)) is False
        assert neighbors._fills_its_box(np.column_stack([unit[:, 0], np.ones(4000)])) is False


def _repeated_point_set():
    # one point repeated 40 times, more than a kd-tree leaf holds
    rng = np.random.default_rng(7)
    pts = rng.random((2000, 2))
    pts[rng.choice(np.arange(1, 2000), size=40, replace=False)] = pts[0]
    return PointSet(pts)


_SCATTER_SETS = {
    "power_tail": lambda: PointSet(PowerLawTail(2, 6).sample(np.random.default_rng(11), 3000)),
    "repeated_point": _repeated_point_set,
}


@pytest.mark.parametrize("j", [1, 3])
@pytest.mark.parametrize("name", sorted(_SCATTER_SETS))
def test_knn_distances_scatter_back_in_input_order(name, j):
    # the tree is queried in its own leaf order; each distance must land on
    # the point it was measured from
    xs = _SCATTER_SETS[name]()
    expected = np.array(
        [nn_distance_bruteforce(xs, NeighborQuery(j=j, index=i)) for i in range(len(xs))]
    )
    np.testing.assert_array_equal(knn_distances(xs, j), expected)


@pytest.mark.parametrize("j", [1, 3])
@pytest.mark.parametrize("name", sorted(_SCATTER_SETS))
def test_knn_distances_permutation_equivariant(name, j):
    x = _SCATTER_SETS[name]().coords
    p = np.random.default_rng(j).permutation(len(x))
    np.testing.assert_array_equal(
        knn_distances(PointSet(x[p]), j), knn_distances(PointSet(x), j)[p]
    )


def test_monotone_in_j():
    rng = np.random.default_rng(3)
    xs = PointSet(rng.normal(size=(60, 2)))
    d1 = knn_distances(xs, 1)
    d2 = knn_distances(xs, 2)
    d3 = knn_distances(xs, 3)
    assert np.all(d1 <= d2)
    assert np.all(d2 <= d3)


def test_one_nn_in_degree_bounded_in_plane():
    # a point of the plane is the nearest neighbor of at most 6 others
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.random((200, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        sq = (diff * diff).sum(-1)
        np.fill_diagonal(sq, np.inf)
        nearest = sq.argmin(axis=1)
        counts = np.bincount(nearest, minlength=200)
        assert counts.max() <= 6


# ---------------------------------------------------------------------------
# power sums


def test_power_sum_line_alpha_one():
    # n^{1/d} = 3 and the neighbor distances are 1, 1, 2
    assert statistic_power(LINE, 1, 1.0) == 12.0


def test_power_sum_line_alpha_zero():
    assert statistic_power(LINE, 1, 0.0) == 3.0


def test_power_sum_square_corners_alpha_two():
    xs = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # each corner's nearest neighbor is one side away: 4 * (sqrt(4) * 1)^2
    assert statistic_power(xs, 1, 2.0) == 16.0


def test_power_sum_small_set_is_zero():
    xs = PointSet([[0.0, 0.0], [1.0, 1.0]])
    assert statistic_power(xs, 2, 1.0) == 0.0
    assert statistic_power(xs, 5, -1.0) == 0.0  # convention wins even for alpha < 0


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_power_sum_refuses_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        statistic_power(LINE, 1, alpha)


def test_degenerate_negative_alpha_on_ties():
    xs = PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateStatistic, match="2 of 3 summands not finite"):
        statistic_power(xs, 1, -0.5)
    # nonnegative exponents stay total
    assert statistic_power(xs, 1, 0.0) == 3.0
    assert statistic_power(xs, 1, 1.0) > 0.0


def test_phi_matches_power():
    assert statistic_phi(LINE, 1, lambda t: t) == statistic_power(LINE, 1, 1.0)


def test_phi_constant_counts_points():
    rng = np.random.default_rng(5)
    xs = PointSet(rng.random((37, 2)))
    assert statistic_phi(xs, 1, lambda t: np.ones_like(t)) == 37.0


def test_phi_capped_line():
    # normalized distances are 3, 3, 6; min(t, 1) caps each at 1
    assert statistic_phi(LINE, 1, lambda t: np.minimum(t, 1.0)) == 3.0


def test_phi_scalar_callable_falls_back():
    assert statistic_phi(LINE, 1, lambda t: min(float(t), 1.0)) == 3.0


def test_phi_gets_one_sample_as_a_one_dimensional_array():
    # a phi that takes len() or iterates sees the n scaled distances 3, 3, 6
    assert statistic_phi(LINE, 1, lambda t: np.ones(len(t))) == 3.0
    exps = statistic_phi(LINE, 1, lambda t: np.array([math.exp(-v) for v in t]))
    assert exps == math.exp(-3.0) + math.exp(-3.0) + math.exp(-6.0)


def test_phi_non_finite_raises():
    xs = PointSet([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with np.errstate(divide="ignore"):
        with pytest.raises(DegenerateStatistic, match="summands not finite"):
            statistic_phi(xs, 1, lambda t: 1.0 / t)
    # normalized distances 3, 3, 6 give -inf, -inf, +inf, whose total is NaN
    with pytest.raises(DegenerateStatistic, match="3 of 3 summands not finite"):
        statistic_phi(LINE, 1, lambda t: np.where(t > 4.0, np.inf, -np.inf))


def test_power_sum_overflow_raises():
    # every summand is finite but their sum is not
    xs = PointSet([0.0, 1.0, 2.0])
    with pytest.raises(DegenerateStatistic, match="overflowed"):
        statistic_power(xs, 1, 646.0)
    with pytest.raises(DegenerateStatistic):
        statistic_phi(xs, 1, lambda t: np.full_like(t, 1e308))


def test_overflowed_distances_are_named_not_blamed_on_ties():
    # squared separations of 1e400 overflow, so every distance is +inf
    xs = PointSet([[0.0], [1e200], [3e200]])
    with pytest.raises(DegenerateStatistic, match="3 of 3 neighbour distances overflowed"):
        statistic_power(xs, 1, 1.0)


def test_overflowed_distances_are_refused_under_a_negative_power():
    # inf^(-1) is 0, so without the distance check the sum is a silent 0.0
    xs = PointSet([[0.0], [1e200], [3e200]])
    with pytest.raises(DegenerateStatistic, match="3 of 3 neighbour distances overflowed"):
        statistic_power(xs, 1, -1.0)
    with pytest.raises(DegenerateStatistic, match="3 of 3 neighbour distances overflowed"):
        statistic_phi(xs, 1, lambda t: 1.0 / t)


# ---------------------------------------------------------------------------
# symmetry properties


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    dx=st.floats(-50.0, 50.0),
    dy=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_rigid_motion_invariance(theta, dx, dy, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(25, 2))
    moved = pts @ _rotation(theta).T + np.array([dx, dy])
    s0 = statistic_power(PointSet(pts), 1, 1.5)
    s1 = statistic_power(PointSet(moved), 1, 1.5)
    assert s1 == pytest.approx(s0, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(1e-3, 1e3),
    alpha=st.floats(-1.5, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scaling_covariance(lam, alpha, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(20, 2))
    s0 = statistic_power(PointSet(pts), 1, alpha)
    s1 = statistic_power(PointSet(lam * pts), 1, alpha)
    assert s1 == pytest.approx(lam**alpha * s0, rel=1e-9)
