import itertools
import math
from collections import Counter
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chisquare

import nnsums.densities as densities
import nnsums.limits as limits
from nnsums import (
    AnnulusBallCounterexample,
    Ball,
    Box,
    ConfigError,
    GaussianStandard,
    PointSet,
    PowerLawTail,
    UniformConvexUnion,
    model_from_config,
    unit_ball_volume,
)

GOF_SIGNIFICANCE = 1e-3
GOF_SAMPLE = 100_000


def _sample_n(model, n: int, seed) -> PointSet:
    """n i.i.d. draws from the model as a PointSet, deterministic in the seed."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return PointSet(model.sample(np.random.default_rng(seed), n))


@pytest.fixture(scope="module")
def catalog():
    return {
        "uniform": UniformConvexUnion.unit_cube(2),
        "uniform_mixed": UniformConvexUnion(
            [Box(lo=(0.0, 0.0), hi=(1.0, 2.0)), Ball(center=(4.0, 0.0), radius=1.5)]
        ),
        "gaussian": GaussianStandard(2),
        "power": PowerLawTail(2, 6.0),
        "counterexample": AnnulusBallCounterexample(2, 1.0),
    }


# ---------------------------------------------------------------------------
# construction and validation


def test_bodies_reject_overlap():
    with pytest.raises(ValueError, match="overlap"):
        UniformConvexUnion(
            [Box(lo=(0.0, 0.0), hi=(2.0, 2.0)), Ball(center=(2.5, 1.0), radius=1.0)]
        )
    with pytest.raises(ValueError, match="overlap"):
        UniformConvexUnion(
            [Ball(center=(0.0, 0.0), radius=1.0), Ball(center=(1.5, 0.0), radius=1.0)]
        )


def test_bodies_touching_is_allowed():
    UniformConvexUnion(
        [Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), Box(lo=(1.0, 0.0), hi=(2.0, 1.0))]
    )


def test_bodies_reject_degenerate():
    with pytest.raises(ValueError):
        Box(lo=(0.0, 0.0), hi=(0.0, 1.0))
    with pytest.raises(ValueError):
        Ball(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(ValueError):
        UniformConvexUnion([])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        UniformConvexUnion([Box(lo=(0.0,), hi=(1.0,)), Box(lo=(0.0, 0.0), hi=(1.0, 1.0))])


def test_counterexample_rejects_bad_rate():
    with pytest.raises(ValueError):
        AnnulusBallCounterexample(2, 0.0)
    with pytest.raises(ValueError):
        AnnulusBallCounterexample(2, -1.0)
    # shell k >= 1024 is centred at 3 * 2^(k-1) = +inf; P(k >= 1024) = 2^(-1022 r)
    with pytest.raises(ValueError, match="r=0.01 is below 53/1022"):
        AnnulusBallCounterexample(2, 0.01)
    with pytest.raises(ConfigError, match="r=0.01 is below 53/1022"):
        model_from_config({"model": "counterexample", "d": 2, "r": 0.01})
    # C = 1 / (omega_d * 2^(-2r) / (1 - 2^(-r))) overflows from about r = 512
    for r in (520.0, 600.0):
        with pytest.raises(ValueError, match=f"r={r} is too large"):
            AnnulusBallCounterexample(2, r)
        with pytest.raises(ConfigError, match=f"r={r} is too large"):
            model_from_config({"model": "counterexample", "d": 2, "r": r})
    for r in (53 / 1022, 0.5, 1.0, 2.0):
        model = AnnulusBallCounterexample(2, r)
        assert np.isfinite(model.sample(np.random.default_rng(3), 20000)).all()


def test_power_law_requires_beta_above_d():
    with pytest.raises(ValueError):
        PowerLawTail(2, 2.0)


def test_building_a_model_runs_no_quadrature(monkeypatch):
    # normalizing constants are closed forms; in d = 7 a quadrature that
    # nests once per dimension would take minutes
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature while building a model")

    for module in (densities, limits):
        monkeypatch.setattr(module, "_adaptive_gauss", refuse)
    models = [
        UniformConvexUnion.unit_cube(7),
        UniformConvexUnion(
            [Box(lo=(0.0, 0.0), hi=(1.0, 2.0)), Ball(center=(4.0, 0.0), radius=1.5)]
        ),
        GaussianStandard(3),
        PowerLawTail(2, 6.0),
        AnnulusBallCounterexample(2, 1.0),
    ]
    for model in models:
        assert model_from_config(model.to_config()).to_config() == model.to_config()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_body_volumes_match_closed_forms(d):
    box = Box(lo=(-0.5,) + (1.0,) * (d - 1), hi=(1.0,) + (3.0,) * (d - 1))
    assert box.volume == pytest.approx(1.5 * 2.0 ** (d - 1), rel=1e-15)
    ball = Ball(center=(4.0,) + (0.0,) * (d - 1), radius=1.5)
    unit = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[d]
    assert ball.volume == pytest.approx(unit * 1.5**d, rel=1e-15)


# ---------------------------------------------------------------------------
# pdf values and bounds


def test_uniform_pdf_values(catalog):
    u = catalog["uniform"]
    assert u.pdf([0.5, 0.5]) == 1.0
    assert u.pdf([1.5, 0.5]) == 0.0
    assert u.sup_pdf == 1.0
    assert u.inf_pdf_on_support == 1.0


def test_gaussian_pdf_bound(catalog):
    g = catalog["gaussian"]
    assert g.pdf([0.0, 0.0]) == pytest.approx(g.sup_pdf, rel=1e-15)
    assert g.pdf([1.0, 1.0]) < g.sup_pdf


def test_power_pdf_formula(catalog):
    p = catalog["power"]
    assert p.pdf([0.0, 0.0]) == pytest.approx(p.c_beta, rel=1e-15)
    assert p.pdf([3.0, 4.0]) == pytest.approx(p.c_beta * 6.0**-6.0, rel=1e-12)


def test_counterexample_pdf_on_and_off_balls(catalog):
    c = catalog["counterexample"]
    inside_b2 = [6.0, 0.5]
    assert c.pdf(inside_b2) == pytest.approx(c.c_norm * 2.0**-2.0, rel=1e-12)
    inside_b3 = [12.0, 0.0]
    assert c.pdf(inside_b3) == pytest.approx(c.c_norm * 2.0**-3.0, rel=1e-12)
    for off in ([0.0, 0.0], [4.0, 0.0], [9.0, 0.0], [6.0, 1.5], [-6.0, 0.0]):
        assert c.pdf(off) == 0.0
    assert c.sup_pdf == pytest.approx(c.pdf(inside_b2), rel=1e-12)


def test_counterexample_pdf_is_positive_on_its_own_samples():
    # past 2^50, rounding center + offset moves x_1 by up to half a spacing
    c = AnnulusBallCounterexample(3, 0.06)
    xs = c.sample(np.random.default_rng(1), 10_000)
    assert xs[:, 0].max() > 2.0**52
    assert (c.pdf(xs) > 0).all()
    # B_52 is centered at 3 * 2^51, where floats are 1 apart: half of that
    # is forgiven, so x_1 = center + 1 is inside and center + 2 is not
    center = c.center_coordinate(52)
    assert np.spacing(center) == 1.0
    assert c.pdf([center + 1.0, 0.5, 0.0]) > 0.0
    assert c.pdf([center + 2.0, 0.0, 0.0]) == 0.0


def test_pdf_of_one_point_is_a_float_and_of_rows_an_array(catalog):
    rows = np.array([[6.0, 0.5], [12.0, 0.0], [0.5, 0.5], [-3.0, 2.0]])
    for name, model in catalog.items():
        one = model.pdf(rows[0])
        assert type(one) is float, name
        many = model.pdf(rows)
        assert isinstance(many, np.ndarray) and many.shape == (4,), name
        assert many[0] == one, name


def test_counterexample_balls_sit_inside_annuli():
    c = AnnulusBallCounterexample(3, 0.7)
    for k in range(2, 12):
        center = c.center_coordinate(k)
        assert center - 1.0 >= 2.0**k
        assert center + 1.0 <= 2.0 ** (k + 1)


# ---------------------------------------------------------------------------
# sampling correctness


def test_uniform_sample_mean(catalog):
    xs = _sample_n(catalog["uniform"], GOF_SAMPLE, seed=101)
    mean = xs.coords.mean(axis=0)
    se = math.sqrt(1.0 / 12.0 / GOF_SAMPLE)
    assert np.all(np.abs(mean - 0.5) < 3.0 * se)


def test_gaussian_sample_variance(catalog):
    xs = _sample_n(catalog["gaussian"], GOF_SAMPLE, seed=202)
    var = xs.coords.var(axis=0, ddof=1)
    se = math.sqrt(2.0 / (GOF_SAMPLE - 1))
    assert np.all(np.abs(var - 1.0) < 3.0 * se)


def test_counterexample_shell_two_fraction(catalog):
    # r = 1: the mass of shell 2 is exactly 1/2
    c = catalog["counterexample"]
    assert c.annulus_mass(2) == pytest.approx(0.5, rel=1e-12)
    xs = _sample_n(c, GOF_SAMPLE, seed=303)
    norms = np.linalg.norm(xs.coords, axis=1)
    frac = np.mean((norms >= 4.0) & (norms < 8.0))
    se = math.sqrt(0.25 / GOF_SAMPLE)
    assert abs(frac - 0.5) < 3.0 * se


def test_sampling_is_deterministic(catalog):
    for model in catalog.values():
        a = _sample_n(model, 500, seed=777).coords
        b = _sample_n(model, 500, seed=777).coords
        np.testing.assert_array_equal(a, b)
        c = _sample_n(model, 500, seed=778).coords
        assert not np.array_equal(a, c)


def _reference_ball_sample(center, radius, rng, n):
    # The rejection loop Ball.sample once ran: shift and scale each batch of
    # candidates, then accept where |c + r(2u - 1) - c|^2 <= r^2.
    center = np.asarray(center, dtype=float)
    out = np.empty((n, len(center)))
    need = n
    while need:
        cand = center + radius * (2.0 * rng.random((need, len(center))) - 1.0)
        diff = cand - center
        keep = np.sum(diff * diff, axis=-1) <= radius**2
        got = int(keep.sum())
        if got:
            out[n - need : n - need + got] = cand[keep]
            need -= got
    return out


def _assert_same_draws(sample, reference, seeds):
    # same points, and the generators left in the same state: a sampler that
    # draws its candidates in other batches passes the first and fails this
    for seed in seeds:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample(rng), reference(ref_rng)
        assert np.array_equal(got, want), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 9, 256])
def test_counterexample_sample_matches_reference_rejection(d, r, n):
    model = AnnulusBallCounterexample(d, r)

    def reference(rng):
        k = rng.geometric(1.0 - 2.0 ** (-r), size=n) + 1
        offsets = _reference_ball_sample((0.0,) * d, 1.0, rng, n)
        offsets[:, 0] += 3.0 * 2.0 ** (k.astype(float) - 1.0)
        return offsets

    _assert_same_draws(lambda rng: model.sample(rng, n), reference, range(200))


def _round_by_round_unit_ball_sample(rng, n, d):
    # the unit-ball sampler before it drew ahead: each round draws one
    # candidate per missing point and keeps those inside the ball
    out = np.empty((n, d))
    got = 0
    while got < n:
        v = 2.0 * rng.random((n - got, d)) - 1.0
        v = v[(v * v).sum(axis=-1) <= 1.0]
        out[got : got + len(v)] = v
        got += len(v)
    return out


def _same_state(a, b) -> bool:
    # bit generator states are dicts of ints, strings and (MT19937, Philox) arrays
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_ball_sample_as_round_by_round(make_rng, n, d):
    rng, ref_rng = make_rng(), make_rng()
    got = densities._unit_ball_sample(rng, n, d)
    want = _round_by_round_unit_ball_sample(ref_rng, n, d)
    assert np.array_equal(got, want), (n, d)
    assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state), (n, d)


_BALL_SIZES = [*range(1, 41), 63, 64, 65, 127, 128, 129, 255, 256, 257, 500, 1000, 1999, 2000]


@pytest.mark.parametrize("d", range(1, 8))
def test_unit_ball_sample_draws_as_round_by_round(d):
    # the draw-ahead rounds rewind to just past the n-th candidate kept
    for n in _BALL_SIZES:
        for seed in range(3):
            _assert_ball_sample_as_round_by_round(lambda: np.random.default_rng([seed, n, d]), n, d)


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
)
@pytest.mark.parametrize("buffered", [False, True])
def test_unit_ball_sample_rewinds_every_bit_generator(bit_generator, buffered):
    def make_rng(seed):
        rng = np.random.Generator(bit_generator(seed))
        if buffered:
            # a 32-bit draw leaves half of a 64-bit output in the generator's
            # buffer, which the rewind must keep
            rng.integers(0, 1000, dtype=np.uint32)
        return rng

    if buffered and bit_generator is not np.random.MT19937:
        assert make_rng(0).bit_generator.state["has_uint32"] == 1
    for d in (1, 2, 3, 5, 7):
        for n in (1, 2, 3, 17, 256, 2000):
            _assert_ball_sample_as_round_by_round(lambda: make_rng(n * 10 + d), n, d)


def _choice_union_sample(model, rng, n):
    # the many-body draw: pick each point's body by rng.choice, then fill
    # each body's rows, the points placed by broadcasting over the rows
    probs = np.array([b.volume for b in model.bodies]) / model.total_volume
    idx = rng.choice(len(model.bodies), size=n, p=probs)
    out = np.empty((n, model.dim))
    for b_i, body in enumerate(model.bodies):
        mask = idx == b_i
        count = int(mask.sum())
        if not count:
            continue
        if isinstance(body, Box):
            lo, hi = np.asarray(body.lo), np.asarray(body.hi)
            out[mask] = lo + (hi - lo) * rng.random((count, model.dim))
        else:
            v = densities._unit_ball_sample(rng, count, model.dim)
            out[mask] = np.asarray(body.center) + body.radius * v
    return out


_ONE_BODY_UNIONS = [
    UniformConvexUnion.unit_cube(1),
    UniformConvexUnion([Box(lo=(-3.0, 0.1), hi=(0.7, 1e3))]),
    UniformConvexUnion([Box(lo=(-1e-3, 5.0, 2.0), hi=(1e-3, 6.5, 2.25))]),
    UniformConvexUnion([Ball(center=(0.3, -7.0), radius=2.5)]),
    UniformConvexUnion([Ball(center=(1e5, 0.0, -0.1), radius=1e-3)]),
]


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
)
@pytest.mark.parametrize("buffered", [False, True])
def test_one_body_union_draws_as_the_choice_path(bit_generator, buffered):
    # one body skips rng.choice and the scatter, but still draws its n
    # doubles: the points and the generator's state after them are the same
    def make_rng(seed):
        rng = np.random.Generator(bit_generator(seed))
        if buffered:
            rng.integers(0, 1000, dtype=np.uint32)
        return rng

    for m, model in enumerate(_ONE_BODY_UNIONS):
        for n in (0, 1, 2, 17, 2000):
            rng, ref_rng = make_rng([m, n]), make_rng([m, n])
            got = model.sample(rng, n)
            want = _choice_union_sample(model, ref_rng, n)
            assert got.shape == want.shape and np.array_equal(got, want), (m, n)
            assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state), (m, n)


def test_many_body_union_places_points_as_the_broadcast():
    model = UniformConvexUnion(
        [Box(lo=(-3.0, 0.1), hi=(0.7, 1e3)), Ball(center=(5.0, -7.0), radius=2.5)]
    )
    for n in (1, 17, 2000):
        got = model.sample(np.random.default_rng(n), n)
        assert np.array_equal(got, _choice_union_sample(model, np.random.default_rng(n), n))


@pytest.mark.parametrize("d, beta", [(1, 1.5), (2, 6.0), (3, 7.0)])
def test_power_law_places_points_as_the_broadcast(d, beta):
    # radius * direction / norm, a column at a time, is the broadcast's arithmetic
    model = PowerLawTail(d, beta)
    rng = np.random.default_rng([d, 4])
    radii = rng.standard_gamma(d, 3000) / rng.standard_gamma(beta - d, 3000)
    directions = rng.standard_normal((3000, d))
    norms = np.sqrt(densities._squared_norms(directions))
    want = radii[:, None] * directions / norms[:, None]
    assert np.array_equal(model.sample(np.random.default_rng([d, 4]), 3000), want)


def test_unit_ball_sample_round_memory_is_capped():
    # at d = 10 one candidate in 400 lands inside: an uncapped draw-ahead
    # round would hold about 400 times the points of the round-by-round one
    peaks = []
    for sample in (densities._unit_ball_sample, _round_by_round_unit_ball_sample):
        tracemalloc.start()
        try:
            sample(np.random.default_rng(3), 10_000, 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3 * peaks[1], peaks


def test_unit_ball_sample_refuses_past_2_to_the_12_candidates_per_point():
    # 2^d / omega_d candidates per point: 3068 at d = 12, 8996 at d = 13
    assert densities._unit_ball_sample(np.random.default_rng(0), 5, 12).shape == (5, 12)
    for d in (13, 20, 40):
        with pytest.raises(ConfigError, match=f"d = {d}:"):
            densities._unit_ball_sample(np.random.default_rng(0), 5, d)


@pytest.mark.parametrize("d", range(1, 13))
def test_squared_norms_equal_the_row_sum(d):
    # numpy sums 8 or more terms pairwise, so the column order must follow it
    rng = np.random.default_rng([d, 12])
    for rows in (1, 7, 826, 300_001):
        cube = 2.0 * rng.random((rows, d)) - 1.0
        spread = cube * np.exp2(rng.integers(-40, 40, size=(rows, d)))
        for v in (cube, spread):
            assert np.array_equal(densities._squared_norms(v), (v * v).sum(axis=-1)), rows
    # a stack of candidate arrays, as the counterexample's stacked draw holds
    stack = 2.0 * rng.random((9, 13, d)) - 1.0
    assert np.array_equal(densities._squared_norms(stack), (stack * stack).sum(axis=-1))


@pytest.mark.parametrize("d", range(1, 13))
def test_root_of_squared_norms_equals_linalg_norm(d):
    # the power law's direction norms are bitwise np.linalg.norm's, whose
    # squares near 1e-300 and 1e300 sit at the ends of the float range
    rng = np.random.default_rng([d, 13])
    for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
        for _ in range(20):
            v = scale * rng.standard_normal((257, d))
            norms = np.linalg.norm(v, axis=1)
            assert np.array_equal(np.sqrt(densities._squared_norms(v)), norms), scale


def _stream(seed, n, rep):
    return np.random.default_rng(np.random.SeedSequence((seed, n, rep, 0)))


def _stacked_samples(model, seed, n, stack):
    """Rows of ``model._sample_stack`` into the first d coordinates of an
    (s, n, d + 1) array, as a sweep stacks them, on a seat that returns a
    new generator on each stream, and the per-stream oracle (the class's
    ``sample``, past any instance patch)."""
    d = model.dim
    coords = np.full((stack, n, d + 1), np.nan)
    model._sample_stack(lambda rep: _stream(seed, n, rep), range(stack), n, coords[..., :d])
    want = [type(model).sample(model, _stream(seed, n, rep), n) for rep in range(stack)]
    assert np.isnan(coords[..., d]).all()
    return coords[..., :d], np.stack(want)


def test_counterexample_stack_draw_equals_the_stacked_samples(monkeypatch):
    short = Counter()
    for d, r in itertools.product((1, 2, 3), (0.06, 0.5, 1.0, 3.0)):
        model = AnnulusBallCounterexample(d, r)
        draw = model.sample
        monkeypatch.setattr(model, "sample", lambda rng, n, d=d: short.update([d]) or draw(rng, n))
        for n, seed in itertools.product((2, 3, 5, 8, 17, 64, 128), range(3)):
            got, want = _stacked_samples(model, seed, n, 1024 // n)
            assert np.array_equal(got, want), (d, r, n, seed)
    # rows whose first round came up short were drawn again by sample; in
    # d = 1 every candidate lands inside, in d = 3 about one row in 2 000
    # at n = 2 is short
    assert short[1] == 0 and short[3] > 0


@pytest.mark.parametrize("d", [2, 3])
def test_counterexample_stack_draw_with_short_first_rounds(d, monkeypatch):
    # a first round of n candidates is short unless all land inside
    monkeypatch.setattr(densities, "_round_size", lambda need, accept: need)
    model = AnnulusBallCounterexample(d, 1.0)
    draw = model.sample
    short = []
    monkeypatch.setattr(model, "sample", lambda rng, n: short.append(n) or draw(rng, n))
    for n in (2, 3, 8, 64):
        got, want = _stacked_samples(model, 11, n, 1024 // n)
        assert np.array_equal(got, want), n
    assert 0 < len(short) < sum(1024 // n for n in (2, 3, 8, 64))


def test_default_stack_draw_is_one_sample_per_stream(catalog):
    for name, model in catalog.items():
        got, want = _stacked_samples(model, 4, 17, 60)
        assert np.array_equal(got, want), name


@pytest.mark.parametrize(
    "ball",
    [
        Ball(center=(0.0,), radius=1.0),
        Ball(center=(4.0,), radius=1.5),
        Ball(center=(0.0, 0.0), radius=1.0),
        Ball(center=(1.5, 0.0), radius=1.0),
        Ball(center=(2.5, 1.0), radius=1.0),
        Ball(center=(3.0, 0.5), radius=0.5),
        Ball(center=(4.0, 0.0), radius=1.5),
        Ball(center=(0.0, 0.0, 0.0), radius=1.0),
        Ball(center=(4.0, 0.0, 0.0), radius=1.5),
    ],
)
def test_ball_sample_matches_reference_rejection(ball):
    # the accept test now runs before the shift and scale; on these balls it
    # still accepts exactly the candidates the reference loop accepts
    for n in (1, 9, 256):
        _assert_same_draws(
            lambda rng: ball.sample(rng, n),
            lambda rng: _reference_ball_sample(ball.center, ball.radius, rng, n),
            range(1000),
        )


def test_sample_points_live_on_support(catalog):
    for name, model in catalog.items():
        xs = _sample_n(model, 2000, seed=11)
        dens = model.pdf(xs.coords)
        assert np.all(dens > 0), name


def _shell_index(norms: np.ndarray) -> np.ndarray:
    out = np.zeros(len(norms), dtype=int)
    pos = norms >= 2.0
    out[pos] = np.floor(np.log2(norms[pos])).astype(int)
    return out


def _gof_pvalue(observed_counts, probs):
    observed = np.asarray(observed_counts, dtype=float)
    expected = np.asarray(probs, dtype=float) * observed.sum()
    keep = expected > 5.0
    # lump thin bins together so the chi-square approximation applies
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    exp *= obs.sum() / exp.sum()
    return chisquare(obs, exp).pvalue


def test_gof_uniform(catalog):
    xs = _sample_n(catalog["uniform"], GOF_SAMPLE, seed=404).coords
    bins = 4
    ix = np.minimum((xs[:, 0] * bins).astype(int), bins - 1)
    iy = np.minimum((xs[:, 1] * bins).astype(int), bins - 1)
    counts = np.bincount(ix * bins + iy, minlength=bins * bins)
    p = _gof_pvalue(counts, np.full(bins * bins, 1.0 / (bins * bins)))
    assert p > GOF_SIGNIFICANCE


def test_gof_uniform_mixed(catalog):
    model = catalog["uniform_mixed"]
    xs = _sample_n(model, GOF_SAMPLE, seed=405).coords
    in_box = xs[:, 0] <= 1.0
    box, ball = model.bodies
    p_box = box.volume / model.total_volume
    # split the box by height and the ball by radius around its center
    heights = xs[in_box, 1]
    r = np.linalg.norm(xs[~in_box] - np.array(ball.center), axis=1)
    half_r = ball.radius / 2.0 ** 0.5  # half the ball volume in 2-d
    counts = [
        int(np.sum(heights < 1.0)),
        int(np.sum(heights >= 1.0)),
        int(np.sum(r <= half_r)),
        int(np.sum(r > half_r)),
    ]
    probs = [p_box / 2.0, p_box / 2.0, (1 - p_box) / 2.0, (1 - p_box) / 2.0]
    p = _gof_pvalue(counts, probs)
    assert p > GOF_SIGNIFICANCE


def test_gof_gaussian_radial(catalog):
    model = catalog["gaussian"]
    xs = _sample_n(model, GOF_SAMPLE, seed=406).coords
    norms = np.linalg.norm(xs, axis=1)
    edges = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, np.inf])
    counts = np.histogram(norms, bins=edges)[0]
    # radial CDF of the planar standard normal: 1 - exp(-s^2/2)
    cdf = lambda s: 1.0 - np.exp(-0.5 * s * s)  # noqa: E731
    probs = np.diff([cdf(e) if np.isfinite(e) else 1.0 for e in edges])
    p = _gof_pvalue(counts, probs)
    assert p > GOF_SIGNIFICANCE


@pytest.mark.parametrize("d, beta", [(1, 1.5), (2, 2.5), (2, 6.0), (3, 7.0)])
def test_gof_power_radial(d, beta):
    # beta - d < 1 in the first two cases, so the denominator gamma draw has
    # shape below 1; the far bins (16, 64, 256) check the heavy tail.
    model = PowerLawTail(d, beta)
    xs = _sample_n(model, GOF_SAMPLE, seed=407).coords
    norms = np.linalg.norm(xs, axis=1)
    edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0, 256.0, np.inf])
    counts = np.histogram(norms, bins=edges)[0]
    probs = np.diff(
        [model._radial_cdf(e) if np.isfinite(e) else 1.0 for e in edges]
    )
    p = _gof_pvalue(counts, probs)
    assert p > GOF_SIGNIFICANCE


def test_gof_counterexample_shells(catalog):
    model = catalog["counterexample"]
    xs = _sample_n(model, GOF_SAMPLE, seed=408).coords
    shells = _shell_index(np.linalg.norm(xs, axis=1))
    kmax = 12
    counts = [int(np.sum(shells == k)) for k in range(2, kmax)]
    counts.append(int(np.sum(shells >= kmax)))
    probs = [model.annulus_mass(k) for k in range(2, kmax)]
    probs.append(1.0 - sum(probs))
    p = _gof_pvalue(counts, probs)
    assert p > GOF_SIGNIFICANCE


def test_shell_frequencies_match_annulus_mass(catalog):
    for name in ("gaussian", "power", "counterexample"):
        model = catalog[name]
        xs = _sample_n(model, GOF_SAMPLE, seed=55).coords
        shells = _shell_index(np.linalg.norm(xs, axis=1))
        for k in range(0, 6):
            mass = model.annulus_mass(k)
            se = math.sqrt(max(mass * (1.0 - mass), 1e-12) / GOF_SAMPLE)
            freq = float(np.mean(shells == k))
            assert abs(freq - mass) < max(3.0 * se, 2e-4), (name, k)


# ---------------------------------------------------------------------------
# integrals of f^rho


def test_uniform_i_rho_any_rho(catalog):
    u = catalog["uniform"]
    for rho in (0.25, 0.5, 2.0, 5.0):
        assert u.i_rho(rho) == 1.0
    mixed = catalog["uniform_mixed"]
    v = mixed.total_volume
    assert mixed.i_rho(2.0) == pytest.approx(1.0 / v, rel=1e-12)
    assert mixed.i_rho(-1.0) == pytest.approx(v**2, rel=1e-12)


def test_gaussian_i_rho_closed_form_vs_quadrature(catalog):
    g = catalog["gaussian"]
    for rho in (0.5, 0.75, 1.25, 2.0):
        oracle, err = integrate.quad(
            lambda s, r=rho: 2.0 * math.pi * s * ((2 * math.pi) ** -1 * math.exp(-0.5 * s * s)) ** r,
            0.0,
            np.inf,
        )
        assert err < 1e-6
        assert g.i_rho(rho) == pytest.approx(oracle, rel=1e-6)
    assert g.i_rho(0.5) == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=1e-13)


def test_gaussian_i_rho_2d_grid_oracle():
    # full 2-d quadrature over a generous square, as an independent route
    g = GaussianStandard(2)
    rho = 0.5
    val, err = integrate.dblquad(
        lambda y, x: ((2 * math.pi) ** -1 * math.exp(-0.5 * (x * x + y * y))) ** rho,
        -12.0,
        12.0,
        -12.0,
        12.0,
    )
    assert g.i_rho(rho) == pytest.approx(val, rel=1e-6)


def test_power_i_rho_divergence_boundary():
    # d = 1, beta = 2, rho = 1/2 puts beta*rho exactly at d: divergent
    p = PowerLawTail(1, 2.0)
    assert p.i_rho(0.5) == math.inf
    assert not p.i_rho_is_finite(0.5)
    assert p.i_rho_is_finite(0.75)
    assert math.isfinite(p.i_rho(0.75))


def test_power_i_rho_against_beta_closed_form(catalog):
    # the radial integral has a Beta-function closed form
    p = catalog["power"]
    for rho in (0.5, 0.75, 1.5):
        b = p.beta * rho
        closed = (
            p.c_beta**rho
            * 2.0
            * unit_ball_volume(2)
            * math.exp(math.lgamma(2.0) + math.lgamma(b - 2.0) - math.lgamma(b))
        )
        assert p.i_rho(rho) == pytest.approx(closed, rel=1e-13)


def test_counterexample_i_rho_closed_form_vs_partial_sums(catalog):
    c = catalog["counterexample"]
    for rho in (0.25, 0.5, 1.5):
        partial = sum(
            unit_ball_volume(2) * (c.c_norm * 2.0 ** (-c.r * k)) ** rho
            for k in range(2, 400)
        )
        assert c.i_rho(rho) == pytest.approx(partial, rel=1e-10)
        assert c.i_rho_is_finite(rho)


def test_counterexample_i_rho_where_c_to_the_rho_overflows():
    # C is about 2^(2r) / omega_d, so C^rho overflows from about r = 512 / rho
    # while the integral omega_d sup_pdf^rho / (1 - 2^(-r rho)) stays below 1
    for d, r, rho in [(2, 300.0, 1.75), (1, 400.0, 1.5), (3, 500.0, 1.1), (2, 100.0, 6.0)]:
        c = AnnulusBallCounterexample(d, r)
        with pytest.raises(OverflowError):
            c.c_norm**rho
        want = unit_ball_volume(d) * c.sup_pdf**rho / (1.0 - 2.0 ** (-r * rho))
        assert c.i_rho(rho) == want and math.isfinite(want)
        # log omega_d + rho log(C 2^(-2r)); 1 - 2^(-r rho) is 1 in double precision
        log_want = math.log(unit_ball_volume(d)) + rho * (math.log(c.c_norm) - 2 * r * math.log(2))
        assert math.log(c.i_rho(rho)) == pytest.approx(log_want, rel=1e-12, abs=1e-12)
    # every value C^rho does not overflow stays the product it was
    for d, r, rho in itertools.product((1, 2, 3), (0.06, 1.0, 30.0, 300.0), (0.5, 1.0, 1.5, 3.0)):
        c = AnnulusBallCounterexample(d, r)
        try:
            product = c.c_norm**rho
        except OverflowError:
            continue
        rr = r * rho
        want = unit_ball_volume(d) * product * 2.0 ** (-2.0 * rr) / (1.0 - 2.0 ** (-rr))
        assert c.i_rho(rho) == want, (d, r, rho)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0.06, 0.5, 1.0, 3.0])
def test_counterexample_i_rho_at_small_r_rho_against_mpmath(d, r):
    # 1 - 2^(-r rho) as a plain difference cancels: at d = 2, r = 0.5,
    # rho = 2^-52 it gave 2.83e16 for 4.08e16
    mpmath = pytest.importorskip("mpmath")
    c = AnnulusBallCounterexample(d, r)
    rhos = [2.0**-52, 2.0**-40, 1e-8, 2.0**-20, 1e-4, 2.0**-8, 0.0078, 2.0**-6, 0.0157, 0.1, 0.5, 1.0]
    for rho in rhos:
        with mpmath.workdps(40):
            rr = mpmath.mpf(r) * mpmath.mpf(rho)
            want = (
                mpmath.mpf(c._omega)
                * mpmath.mpf(c.c_norm) ** mpmath.mpf(rho)
                * mpmath.power(2, -2 * rr)
                / -mpmath.expm1(-rr * mpmath.log(2))
            )
        assert c.i_rho(rho) == pytest.approx(float(want), rel=1e-14, abs=0.0), (d, r, rho)


def test_i_rho_past_an_overflowing_product_is_taken_in_log_space():
    mpmath = pytest.importorskip("mpmath")
    # c_beta^rho alone overflows from rho = 13.05 on, the product only past 14.6
    model = PowerLawTail(12, 512.0)
    rho = 13.2
    with pytest.raises(OverflowError):
        model.c_beta**rho
    with mpmath.workdps(40):
        b = 512.0 * rho
        omega = mpmath.pi**6 / 720
        want = mpmath.mpf(model.c_beta) ** rho * 12 * omega * mpmath.beta(12, b - 12)
    assert model.i_rho(rho) == pytest.approx(float(want), rel=1e-11)


@pytest.mark.parametrize(
    "model, rho",
    [
        (PowerLawTail(12, 512.0), 1.0 + 4000 / 12),
        (UniformConvexUnion([Box(lo=(0.0,) * 5, hi=(1e-3,) * 5)]), 801.0),
        (AnnulusBallCounterexample(20, 300.0), 200.0),
        (GaussianStandard(40), 2.0**-52),
        # 1 - 2^(-r rho) rounds to 0, and 1 / (r rho ln 2) exceeds the largest float
        (AnnulusBallCounterexample(2, 1.0), 1e-310),
    ],
)
def test_i_rho_past_the_largest_float_is_refused_naming_rho(model, rho):
    with pytest.raises(ConfigError, match=f"rho = {rho!r}"):
        model.i_rho(rho)


# ---------------------------------------------------------------------------
# moments and critical moments
#
# The package reads only the critical moment. The absolute moments E|X|^r
# are test oracles, checked below against independent quadrature and Monte
# Carlo.


def _box_abs_moment_integral(box, power):
    ranges = list(zip(box.lo, box.hi))
    val, _ = integrate.nquad(lambda *x: math.sqrt(sum(v * v for v in x)) ** power, ranges)
    return val


def _ball_abs_moment_integral(center_norm, radius, d, power):
    """Integral of |x|^power over a ball of the given radius whose center
    sits ``center_norm`` away from the origin."""
    if d == 1:
        lo, hi = center_norm - radius, center_norm + radius
        pts = [0.0] if lo < 0.0 < hi else None
        val, _ = integrate.quad(lambda t: abs(t) ** power, lo, hi, points=pts, limit=100)
        return val
    # Split by the angle psi between the point offset and the center
    # direction: |c + t*theta|^2 = c^2 + t^2 + 2*c*t*cos(psi), and the
    # spherical slice at angle psi has area (d-1)*omega_{d-1}*sin(psi)^(d-2).
    ring = (d - 1) * unit_ball_volume(d - 1)
    csq = center_norm * center_norm

    def integrand(psi, t):
        norm_sq = csq + t * t + 2.0 * center_norm * t * math.cos(psi)
        return ring * math.sin(psi) ** (d - 2) * t ** (d - 1) * norm_sq ** (power / 2.0)

    val, _ = integrate.dblquad(integrand, 0.0, radius, 0.0, math.pi)
    return val


def _abs_moment(model, r):
    """r-th absolute moment E|X|^r of a catalog model; ``math.inf`` when divergent."""
    if r <= 0:
        raise ValueError(f"moment order must be positive, got {r}")
    d = model.dim
    if isinstance(model, UniformConvexUnion):
        total = sum(
            _box_abs_moment_integral(b, r)
            if isinstance(b, Box)
            else _ball_abs_moment_integral(math.hypot(*b.center), b.radius, d, r)
            for b in model.bodies
        )
        return total / model.total_volume
    if isinstance(model, GaussianStandard):
        # |X| is chi-distributed with d degrees of freedom
        return math.exp(
            0.5 * r * math.log(2.0) + math.lgamma((d + r) / 2.0) - math.lgamma(d / 2.0)
        )
    if isinstance(model, PowerLawTail):
        if r >= model.beta - d:
            return math.inf
        log_b = math.lgamma(d + r) + math.lgamma(model.beta - d - r) - math.lgamma(model.beta)
        return model.c_beta * d * unit_ball_volume(d) * math.exp(log_b)
    # the counterexample: a series over its unit balls, one per annulus
    if r >= model.r:
        return math.inf
    total = 0.0
    for k in range(2, 501):
        mass = model.annulus_mass(k)
        ball = _ball_abs_moment_integral(model.center_coordinate(k), 1.0, d, r)
        total += mass * ball / unit_ball_volume(d)
        # remaining terms are below a geometric envelope with ratio 2^(r - r_c)
        envelope = model.annulus_mass(k + 1) * (model.center_coordinate(k + 1) + 1.0) ** r
        if envelope / (1.0 - 2.0 ** (r - model.r)) < 1e-12 * total:
            return total
    raise AssertionError("moment series did not settle")


def test_critical_moments(catalog):
    assert catalog["uniform"].critical_moment() == math.inf
    assert catalog["gaussian"].critical_moment() == math.inf
    assert catalog["power"].critical_moment() == 4.0
    assert catalog["counterexample"].critical_moment() == 1.0


def test_gaussian_moment_chi_values(catalog):
    g = catalog["gaussian"]
    # E|X|^2 = d for a standard normal
    assert _abs_moment(g, 2.0) == pytest.approx(2.0, rel=1e-12)
    # E|X| = sqrt(pi/2) in the plane
    assert _abs_moment(g, 1.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
    assert math.isfinite(_abs_moment(g, 7.5))


def test_power_moment_closed_vs_quadrature(catalog):
    p = catalog["power"]
    r = 1.5
    oracle, err = integrate.quad(
        lambda s: 2.0 * math.pi * s ** (1.0 + r) * p.c_beta * (1.0 + s) ** -6.0,
        0.0,
        np.inf,
    )
    assert err < 1e-8
    assert _abs_moment(p, r) == pytest.approx(oracle, rel=1e-9)


def test_power_moment_infinite_beyond_critical():
    p = PowerLawTail(2, 4.0)  # r_c = 2
    assert _abs_moment(p, 3.0) == math.inf
    assert _abs_moment(p, 2.0) == math.inf  # diverges at the critical order too
    assert math.isfinite(_abs_moment(p, 1.9))


def test_uniform_moment_numeric_vs_monte_carlo(catalog):
    model = catalog["uniform_mixed"]
    r = 0.5
    value = _abs_moment(model, r)
    xs = _sample_n(model, GOF_SAMPLE, seed=66).coords
    draws = np.linalg.norm(xs, axis=1) ** r
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(value - draws.mean()) < 3.0 * se


def test_counterexample_moment_below_critical_vs_monte_carlo(catalog):
    c = catalog["counterexample"]
    value = _abs_moment(c, 0.5)
    assert math.isfinite(value)
    xs = _sample_n(c, GOF_SAMPLE, seed=77).coords
    draws = np.linalg.norm(xs, axis=1) ** 0.5
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(value - draws.mean()) < 3.0 * se
    # sanity: the value sits between the bounding-shell estimates
    lo = sum(
        c.annulus_mass(k) * (c.center_coordinate(k) - 1.0) ** 0.5 for k in range(2, 200)
    )
    hi = sum(
        c.annulus_mass(k) * (c.center_coordinate(k) + 1.0) ** 0.5 for k in range(2, 200)
    )
    assert lo < value < hi


def test_counterexample_moment_divergence(catalog):
    c = catalog["counterexample"]
    assert _abs_moment(c, 1.0) == math.inf
    assert _abs_moment(c, 1.5) == math.inf


def test_moment_rejects_nonpositive_order(catalog):
    # below order 0 the box quadrature meets a pole at the origin
    for model in catalog.values():
        with pytest.raises(ValueError):
            _abs_moment(model, 0.0)


def test_power_empirical_moment_blowup_beyond_critical():
    # truncated moments E[min(|X|^2, M)] keep climbing when the moment
    # diverges (r = 2 > r_c = 1) and plateau when it is finite (r_c = 4)
    caps = (1e2, 1e4, 1e6)
    divergent = np.linalg.norm(_sample_n(PowerLawTail(2, 3.0), 100_000, seed=88).coords, axis=1) ** 2
    div_means = [np.minimum(divergent, m).mean() for m in caps]
    assert div_means[0] < div_means[1] < div_means[2]
    assert div_means[2] / div_means[1] > 2.0
    convergent = np.linalg.norm(_sample_n(PowerLawTail(2, 6.0), 100_000, seed=88).coords, axis=1) ** 2
    conv_means = [np.minimum(convergent, m).mean() for m in caps]
    assert conv_means[2] / conv_means[1] < 1.01


# ---------------------------------------------------------------------------
# annulus masses


def test_annulus_masses_sum_to_one(catalog):
    cases = {
        "gaussian": 12,
        "power": 12,
        "counterexample": 40,
    }
    for name, kmax in cases.items():
        total = sum(catalog[name].annulus_mass(k) for k in range(kmax))
        assert total == pytest.approx(1.0, abs=1e-9), name


def test_annulus_mass_validation(catalog):
    with pytest.raises(ValueError):
        catalog["gaussian"].annulus_mass(-1)


def test_counterexample_regularity_ratio_exact(catalog):
    c = catalog["counterexample"]
    for k in range(3, 16):
        ratio = c.annulus_mass(k) / c.annulus_mass(k - 1)
        assert ratio == pytest.approx(2.0 ** (-c.r), rel=1e-14)
    assert c.annulus_mass(0) == 0.0
    assert c.annulus_mass(1) == 0.0


def test_uniform_unions_refuse_annulus_masses(catalog):
    # a compact support has no shell schedule
    for name in ("uniform", "uniform_mixed"):
        with pytest.raises(ConfigError, match="compact support"):
            catalog[name].annulus_mass(0)


# ---------------------------------------------------------------------------
# config round trips


def test_model_from_config_round_trip(catalog):
    for model in catalog.values():
        rebuilt = model_from_config(model.to_config())
        assert rebuilt.to_config() == model.to_config()


def test_model_from_config_errors():
    with pytest.raises(ConfigError, match="unknown model"):
        model_from_config({"model": "nope", "d": 2})
    with pytest.raises(ConfigError, match="'d'"):
        model_from_config({"model": "gaussian"})
    with pytest.raises(ConfigError, match="needs key"):
        model_from_config({"model": "power_law", "d": 2})
    with pytest.raises(ConfigError, match="positive integer"):
        model_from_config({"model": "gaussian", "d": 0})
    with pytest.raises(ConfigError):
        model_from_config({"model": "power_law", "d": 2, "beta": 1.0})
    with pytest.raises(ConfigError, match="body"):
        model_from_config({"model": "uniform_union", "d": 2, "bodies": [{"type": "cone"}]})
    with pytest.raises(ConfigError, match="does not match"):
        model_from_config(
            {
                "model": "uniform_union",
                "d": 3,
                "bodies": [{"type": "box", "lo": [0, 0], "hi": [1, 1]}],
            }
        )


def _union(body):
    return {"model": "uniform_union", "d": 1, "bodies": [body]}


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"model": "gaussian", "d": True}, "'d'"),
        ({"model": "gaussian", "d": 2.0}, "'d'"),
        ({"model": ["gaussian"], "d": 2}, "unknown model"),
        ({"model": "power_law", "d": 2, "beta": "6"}, "'beta'"),
        ({"model": "counterexample", "d": 2, "r": math.inf}, "'r'"),
        ({"model": "uniform_union", "d": 2, "bodies": {"type": "box"}}, "'bodies'"),
        (_union({"type": "box", "lo": ["0"], "hi": [1]}), "'lo'"),
        (_union({"type": "ball", "center": [0], "radius": True}), "'radius'"),
        (_union({"type": "box", "lo": [0], "hi": [1], "color": 1}), "'color'"),
    ],
)
def test_model_from_config_refuses_wrong_kinds(cfg, key):
    # each value was once converted or ignored, building some other model
    with pytest.raises(ConfigError, match=key):
        model_from_config(cfg)


def test_sample_n_returns_point_set(catalog):
    xs = _sample_n(catalog["uniform"], 10, seed=1)
    assert isinstance(xs, PointSet)
    assert len(xs) == 10
    with pytest.raises(ValueError):
        _sample_n(catalog["uniform"], 0, seed=1)
