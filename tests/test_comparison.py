import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from solab.comparison import (
    VolestConstants,
    derive_setup,
    diameter_bound,
    f_parabolic_test,
    laplacian_comparison_check,
    volest_bound,
    volume_bound_check,
)
from solab.errors import InvalidDimension, InvalidRegime, NegativeRadicand, NonFiniteValues, NotAModel
from solab.factory import build_classified, build_einstein_family, build_gaussian
from solab.geometry import integral_to, weighted_ball_volume, weighted_sphere_volume
from solab.kernel import (
    MIN_SAMPLES,
    GridFn,
    integrate_cumulative,
    interpolate,
    sn_cn,
    solve_linear_ode2,
    solve_linear_ode2_with_derivative,
)


def hyperbolic_model(n=3, r_max=4.0):
    # trivial expander on the constant-curvature -1 model: f = 0
    return build_classified(c=1.0, a=0.0, b=0.0, n=n, r_max=r_max)


def euclidean_model(n=3, r_max=8.0):
    return build_gaussian(0.0, n, r_max=r_max)


def gaussian_model(n=3, r_max=8.0):
    return build_gaussian(1.0, n, r_max=r_max)


# ---------------------------------------------------------------------------
# derive_setup
# ---------------------------------------------------------------------------

def test_setup_hyperbolic():
    s = hyperbolic_model()
    cs = derive_setup(s)
    np.testing.assert_allclose(cs.G.values, 1.0, atol=1e-9)
    np.testing.assert_allclose(cs.theta, 0.0, atol=1e-12)
    assert np.max(np.abs(cs.h - np.sinh(s.profile.grid))) < 1e-8


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("h", lambda a: a + 1e-3, "comparison solution must vanish at the pole"),
        ("theta", lambda a: -a - np.linspace(0.0, 1.0, a.size), "theta must be nondecreasing"),
    ],
    ids=["h_nonzero_at_pole", "decreasing_theta"],
)
def test_comparison_setup_rejects_bad_data(field, bad, message):
    cs = derive_setup(gaussian_model())
    with pytest.raises(ValueError, match=message):
        replace(cs, **{field: bad(getattr(cs, field))})


def test_setup_euclidean():
    s = euclidean_model()
    cs = derive_setup(s)
    np.testing.assert_allclose(cs.G.values, 0.0, atol=1e-10)
    assert np.max(np.abs(cs.h - s.profile.grid)) < 1e-10


def test_setup_gaussian_shrinker():
    # Ric_f = lambda0 > 0, f' = lambda0 r >= 0: both bound profiles vanish
    cs = derive_setup(gaussian_model())
    np.testing.assert_allclose(cs.G.values, 0.0, atol=1e-9)
    np.testing.assert_allclose(cs.theta, 0.0, atol=1e-12)


def test_setup_requires_model():
    s = build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 2.0))
    with pytest.raises(NotAModel):
        derive_setup(s)


def test_setup_theta_tracks_negative_gradient():
    s = build_gaussian(-0.5, 3, r_max=4.0)  # f' = -0.5 r <= 0
    cs = derive_setup(s)
    t = s.profile.grid
    np.testing.assert_allclose(cs.theta, 0.5 * t, atol=1e-9)
    # Ric_f = -0.5: G = 0.5/(n-1) = 0.25
    np.testing.assert_allclose(cs.G.values[50:], 0.25, atol=1e-8)


# ---------------------------------------------------------------------------
# Laplacian comparison
# ---------------------------------------------------------------------------

def test_laplacian_equality_on_hyperbolic():
    s = hyperbolic_model()
    rep = laplacian_comparison_check(s, derive_setup(s))
    assert rep.passed
    band = s.profile.trusted_band("laplacian_comparison", rep.per_point)
    assert np.max(np.abs(rep.per_point[band])) < 1e-6  # equality case


def test_laplacian_equality_on_euclidean():
    s = euclidean_model()
    rep = laplacian_comparison_check(s, derive_setup(s))
    assert rep.passed
    band = s.profile.trusted_band("laplacian_comparison", rep.per_point)
    assert np.max(np.abs(rep.per_point[band])) < 1e-7


def test_laplacian_strict_on_gaussian():
    s = gaussian_model()
    rep = laplacian_comparison_check(s, derive_setup(s))
    assert rep.passed
    # actual = d/r - r stays strictly below the bound d/r by exactly r
    t = s.profile.grid
    band = s.profile.trusted_band("laplacian_comparison", rep.per_point)
    np.testing.assert_allclose(rep.per_point[band], -t[band], atol=1e-7)


def _f_mutants(s, eps):
    t = s.profile.grid
    return {sign: replace(s, f=replace(s.f, values=s.f.values + sign * eps * t * t)) for sign in (-1, 1)}


def test_laplacian_comparison_catches_a_mutant_against_the_fixed_setup():
    # The check compares a spec with bound data derived from that same
    # spec, so a mutant checked against its own setup passes.  With the
    # unmutated setup held fixed, f - eps t^2 raises Delta_f r by
    # 2 eps r above the sharp bound on the hyperbolic model and fails;
    # f + eps t^2 lowers it and passes, as an inequality should.
    s = hyperbolic_model()
    cs = derive_setup(s)
    mutants = _f_mutants(s, 1e-3)
    lower = laplacian_comparison_check(mutants[-1], cs)
    assert not lower.passed
    # 8.0e-3: 2 eps r at the last trusted sample, r = 3.992
    assert lower.sup_norm == pytest.approx(2e-3 * lower.argmax_t, rel=1e-6)
    assert lower.argmax_t == pytest.approx(3.992)
    assert laplacian_comparison_check(mutants[1], cs).sup_norm == 0.0
    for mutant in mutants.values():
        assert laplacian_comparison_check(mutant, derive_setup(mutant)).passed


def test_laplacian_comparison_on_gaussian_misses_both_mutants():
    # gaussian sits a distance r below its bound (f' = r, theta = 0), far
    # from the sharp case, so a 2e-3 r shift of Delta_f r either way
    # stays below it
    s = gaussian_model()
    cs = derive_setup(s)
    for mutant in _f_mutants(s, 1e-3).values():
        assert laplacian_comparison_check(mutant, cs).sup_norm == 0.0


# ---------------------------------------------------------------------------
# volume bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_volume_equality_hyperbolic(r):
    s = hyperbolic_model()
    cs = derive_setup(s)
    actual, bound, ok = volume_bound_check(s, cs, r)
    assert ok
    assert actual == pytest.approx(bound, rel=1e-6)
    assert actual == pytest.approx(math.pi * (math.sinh(2 * r) - 2 * r), abs=1e-8)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_volume_equality_euclidean(r):
    s = euclidean_model()
    cs = derive_setup(s)
    actual, bound, ok = volume_bound_check(s, cs, r)
    assert ok
    assert actual == pytest.approx(bound, rel=1e-6)
    assert actual == pytest.approx(4 * math.pi * r**3 / 3, rel=1e-10)


@pytest.mark.parametrize("model", [hyperbolic_model, gaussian_model])
def test_volume_bound_check_takes_an_array_of_radii(model):
    s = model()
    cs = derive_setup(s)
    p = s.profile
    radii = [p.t0 + frac * (p.t1 - p.t0) for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    vb = volume_bound_check(s, cs, np.array(radii))
    for j, r in enumerate(radii):
        one = volume_bound_check(s, cs, r)
        assert (type(one.actual), type(one.bound), type(one.passed)) == (float, float, bool)
        assert (vb.actual[j], vb.bound[j], vb.passed[j]) == one


def test_volume_bound_strict_on_gaussian():
    s = gaussian_model()
    cs = derive_setup(s)
    actual, bound, ok = volume_bound_check(s, cs, 3.0)
    assert ok
    assert bound == pytest.approx(4 * math.pi * 9.0, rel=1e-9)  # unweighted cone
    assert actual < bound * 0.5


def test_volume_bound_monotone_in_G():
    s = hyperbolic_model()
    cs = derive_setup(s)
    bigger = GridFn(cs.G.t0, cs.G.t1, cs.G.values + 0.5)
    from solab.comparison import ComparisonSetup

    h, hp = solve_linear_ode2_with_derivative(bigger, 0.0, 1.0)
    cs2 = ComparisonSetup(G=bigger, theta=cs.theta, h=h, hp=hp)
    for r in (0.5, 1.0, 2.0, 3.0):
        _, b1, _ = volume_bound_check(s, cs, r)
        _, b2, _ = volume_bound_check(s, cs2, r)
        assert b2 >= b1


def test_sturm_domination():
    # G >= c_min pointwise forces h >= sn_{-c_min}
    t = np.linspace(0.0, 2.0, 2001)
    Q = GridFn(0.0, 2.0, 1.0 + t**2)
    h = solve_linear_ode2(Q, 0.0, 1.0)
    assert np.all(h >= sn_cn(-1.0, t)[0] - 1e-9)


@pytest.mark.parametrize("res, r_max", [(2001, 8.0), (1001, 3.0), (1002, 3.0), (20001, 8.0), (200001, 16.0)])
def test_prefix_integral_reads_the_whole_grid_values(res, r_max):
    # the prefix ends 3 or more samples past the cell of the largest
    # radius, so the Simpson and interior-rule values read there are the
    # whole grid's, and so is the spacing they are read with: bit for bit
    p = build_gaussian(1.0, 3, r_max=r_max, resolution=res).profile
    integrand = np.exp(np.sin(p.grid))
    whole = integrate_cumulative(integrand, p.h)
    radii = [np.array([0.3 * r, 0.77 * r, r]) for r in np.linspace(0.1, r_max, 61)]
    if res == 1001:
        # prefix lengths m whose own spacing (grid[m - 1] - t0) / (m - 1)
        # misses h, each read at grid[m - 4], the radius that ends its
        # prefix at m (or m - 1, where (grid[m - 4] - t0) / h rounds down)
        misses = [m for m in range(MIN_SAMPLES, res) if (p.grid_at(m - 1) - p.t0) / (m - 1) != p.h]
        assert len(misses) == 121
        radii += [p.grid_at(m - 4) for m in misses]
    for r in radii:
        np.testing.assert_allclose(integral_to(p, "test", integrand, r), interpolate(whole, p.t0, p.h, r), rtol=0, atol=0)


def test_prefix_integral_names_an_infinite_sample_and_an_overflowing_sum():
    # the integrand's first infinite sample is named; so is the first
    # sample where a running integral of finite samples leaves the float range
    p = build_gaussian(1.0, 3, r_max=4.0, resolution=101).profile
    integrand = np.ones(101)
    integrand[3] = np.inf
    with pytest.raises(NonFiniteValues, match="probe: non-finite value at t = 0.12$"):
        integral_to(p, "probe", integrand, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValues, match="probe: non-finite value at t = 1.8$"):
            integral_to(p, "probe", np.full(101, 1e308), 4.0)


def test_volume_bound_path_depends_only_on_the_samples_up_to_its_radius():
    # theta = sinh t, and e^Theta overflows past t = 7.26, beyond the
    # largest radius 5.475.  Holding theta at its t = 5.84 value from there
    # on keeps e^Theta finite on the whole grid, and changes no sample the
    # bound reads, so the bound must not change in any bit
    s = build_classified(c=1.0, a=-1.0, b=60.0, n=3, r_max=7.3, resolution=201)
    cs = derive_setup(s)
    flat = cs.theta.copy()
    flat[161:] = flat[160]
    radii = np.array([1.825, 3.65, 5.475])
    bounds = [volume_bound_check(s, c, radii).bound for c in (cs, replace(cs, theta=flat))]
    np.testing.assert_array_equal(bounds[0], bounds[1])


# ---------------------------------------------------------------------------
# decay-rate volume estimates
# ---------------------------------------------------------------------------

def gaussian_volest_constants(s):
    # Delta_f r = d/r - r at the calibration radius 2
    p = s.profile
    return VolestConstants(
        r0=2.0,
        C=p.d / 2.0 - 2.0,
        sphere_vol_r0=weighted_sphere_volume(p, s.f, 2.0),
        ball_vol_r0=weighted_ball_volume(p, s.f, 2.0),
    )


def test_volest_dominates_gaussian_spheres():
    s = gaussian_model()
    consts = gaussian_volest_constants(s)
    for r in np.linspace(2.0, 8.0, 25):
        sphere_bound, ball_bound = volest_bound(1.0, 0.0, consts, float(r))
        actual = weighted_sphere_volume(s.profile, s.f, float(r))
        assert actual <= sphere_bound * (1 + 1e-9)
        assert weighted_ball_volume(s.profile, s.f, float(r)) <= ball_bound * (1 + 1e-9)


def test_volest_ball_bounded_for_positive_decay():
    s = gaussian_model()
    consts = gaussian_volest_constants(s)
    _, ball_8 = volest_bound(1.0, 0.0, consts, 8.0)
    _, ball_6 = volest_bound(1.0, 0.0, consts, 6.0)
    # e^{-C2 r^2} sphere decay: the ball bound saturates
    assert ball_8 - ball_6 < 1e-3 * ball_8


def test_volest_flat_regime_exponential_envelope():
    # cylinder with linear potential: actual sphere volume e^{-t} V_Sigma
    consts = VolestConstants(r0=2.0, C=1.0, sphere_vol_r0=math.exp(-2.0), ball_vol_r0=1.0)
    for r in (3.0, 5.0, 8.0):
        sphere_bound, _ = volest_bound(0.0, 0.0, consts, r)
        assert math.exp(-r) <= sphere_bound
        assert sphere_bound == pytest.approx(math.exp(-2.0) * math.exp(r - 2.0), rel=1e-12)


def test_volest_log_regime_monotone_decreasing():
    consts = VolestConstants(r0=2.0, C=0.0, sphere_vol_r0=1.0, ball_vol_r0=1.0)
    rs = np.linspace(3.0, 20.0, 30)
    vals = [volest_bound(1.0, 1.0, consts, float(r))[0] for r in rs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # shape e^{-C2 r log(1+r)}: log-bound ratio against r log(1+r) stabilizes
    exps = [-math.log(v) / (r * math.log1p(r)) for v, r in zip(vals, rs)]
    assert exps[-1] == pytest.approx(exps[-2], rel=0.05)


def test_volest_rejects_negative_mu():
    from solab.errors import InvalidRegime

    consts = VolestConstants(r0=2.0, C=0.0, sphere_vol_r0=1.0, ball_vol_r0=1.0)
    with pytest.raises(InvalidRegime):
        volest_bound(1.0, -0.5, consts, 4.0)


def test_volest_rejects_a_bound_beyond_the_float_range():
    # D (r - r0) overflows: to -inf the sphere bound is e^(+inf), and to
    # +inf it would read as a sphere volume of 0
    consts = VolestConstants(r0=2.0, C=0.0, sphere_vol_r0=1.0, ball_vol_r0=1.0)
    for D in (-1e308, 1e308):
        with pytest.raises(NonFiniteValues, match=r"volest_bound: the bound leaves the float range on \[2, 8\]$"):
            volest_bound(D, 0.0, consts, 8.0)


@pytest.mark.parametrize(
    "D, mu, constants, r, error, message",
    [
        (math.nan, 0.0, {}, 8.0, ValueError, "D must be finite"),
        (math.inf, 0.0, {}, 8.0, ValueError, "D must be finite"),
        (1.0, math.nan, {}, 8.0, InvalidRegime, "mu must be finite and nonnegative"),
        (1.0, math.inf, {}, 8.0, InvalidRegime, "mu must be finite and nonnegative"),
        (1.0, 0.0, {}, math.inf, ValueError, "r must be finite"),
        (1.0, 0.0, {}, math.nan, ValueError, "r must be finite"),
        (1.0, 0.0, {"C": math.nan}, 8.0, ValueError, r"constants\.C must be finite"),
        (1.0, 0.0, {"sphere_vol_r0": math.inf}, 8.0, ValueError, r"constants\.sphere_vol_r0 must be finite"),
    ],
)
def test_volest_refuses_a_non_finite_argument(D, mu, constants, r, error, message):
    # named up front, not as a bound past the float range or a numpy warning
    consts = VolestConstants(**{"r0": 2.0, "C": 0.0, "sphere_vol_r0": 1.0, "ball_vol_r0": 1.0, **constants})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=message):
            volest_bound(D, mu, consts, r)


def test_volest_growing_regimes_for_negative_D():
    consts = VolestConstants(r0=2.0, C=0.0, sphere_vol_r0=1.0, ball_vol_r0=1.0)
    for mu, label in ((2.0, "e^{C2 r}"), (1.0, "e^{C2 r log r}"), (0.5, "e^{C2 r^{3/2}}")):
        vals = [volest_bound(-1.0, mu, consts, r)[0] for r in (4.0, 8.0, 16.0)]
        assert vals[0] < vals[1] < vals[2], label


# ---------------------------------------------------------------------------
# parabolicity
# ---------------------------------------------------------------------------

def test_gaussian_likely_parabolic():
    s = gaussian_model(r_max=8.0)
    partials, verdict = f_parabolic_test(s, 8.0)
    assert verdict == "LikelyParabolic"
    assert partials[-1] > partials[-2] > 0


def test_euclidean_3d_not_parabolic():
    s = euclidean_model(n=3, r_max=24.0)
    _, verdict = f_parabolic_test(s, 24.0)
    assert verdict == "LikelyNonParabolic"


def test_euclidean_plane_parabolic():
    s = euclidean_model(n=2, r_max=24.0)
    _, verdict = f_parabolic_test(s, 24.0)
    assert verdict == "LikelyParabolic"


def test_parabolicity_integrates_only_up_to_r_max():
    # 1 / vol_f(boundary B_t) overflows at t = 11.984, past r_max = 8
    _, verdict = f_parabolic_test(build_gaussian(10.0, 3, r_max=16.0), 8.0)
    assert verdict == "LikelyParabolic"


@pytest.mark.parametrize("lambda0, t", [(20.0, "8.472"), (100.0, "3.784")])
def test_parabolicity_rejects_overflowing_integrand(lambda0, t):
    # e^(-f) = e^(-lambda0 t^2 / 2) underflows, and 1 / vol_f(boundary B_t)
    # overflows: those samples are no longer integrated as 0
    s = build_gaussian(lambda0, 3, r_max=16.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteValues, match=f"f_parabolic: non-finite value at t = {t}"):
            f_parabolic_test(s, 16.0)


@pytest.mark.parametrize("entry", ["interpolate", "weighted_ball_volume", "volume_bound_check", "f_parabolic_test"])
def test_a_nan_evaluation_point_lies_outside_the_grid_domain(entry):
    # NaN fails no `<` or `>` test, so each range check is written to fail on it
    s = build_gaussian(1.0, 3, r_max=8.0, resolution=401)
    call = {
        "interpolate": lambda: interpolate(np.arange(9.0), 0.0, 1.0, math.nan),
        "weighted_ball_volume": lambda: weighted_ball_volume(s.profile, s.f, math.nan),
        "volume_bound_check": lambda: volume_bound_check(s, derive_setup(s), np.array([1.0, math.nan])),
        "f_parabolic_test": lambda: f_parabolic_test(s, math.nan),
    }[entry]
    with pytest.raises(ValueError, match="evaluation point outside the grid domain"):
        call()


# ---------------------------------------------------------------------------
# diameter bound
# ---------------------------------------------------------------------------

def test_diameter_sharp_on_spheres():
    for n in range(2, 9):
        bound = diameter_bound(float(n - 1), 0.0, float(n - 1), n)
        assert bound == pytest.approx(math.pi, abs=1e-12)


def test_diameter_degenerate_inputs():
    assert diameter_bound(1.0, 0.0, 0.0, 5) == 0.0
    assert diameter_bound(1.0, 1.0, 0.0, 7) == pytest.approx(4.0)


def test_diameter_rejects_negative_radicand():
    with pytest.raises(NegativeRadicand):
        diameter_bound(1.0, 0.1, -10.0, 3)


def test_diameter_rejects_negative_F():
    with pytest.raises(ValueError, match="F must be nonnegative"):
        diameter_bound(1.0, -0.1, 1.0, 3)


@pytest.mark.parametrize("n", [1, True, 0, 2.5, 3.0], ids=["one", "bool", "zero", "fraction", "float_3"])
def test_diameter_rejects_a_dimension_that_is_not_an_integer_of_at_least_2(n):
    # n = 1 and n = True once gave a zero diameter, n = 0 a negative radicand
    with pytest.raises(InvalidDimension, match="total dimension must be an integer of at least 2"):
        diameter_bound(1.0, 0.0, 1.0, n)


def test_diameter_takes_a_numpy_integer_dimension():
    assert diameter_bound(2.0, 0.0, 2.0, np.int64(3)) == diameter_bound(2.0, 0.0, 2.0, 3)


@pytest.mark.parametrize(
    "mu0, F, c, name",
    [
        (math.inf, 0.0, 1.0, "mu0"),
        (math.nan, 0.0, 1.0, "mu0"),
        (1.0, math.nan, 1.0, "F"),
        (1.0, math.inf, 1.0, "F"),
        (1.0, 0.0, math.inf, "c"),
        (1.0, 0.0, -math.inf, "c"),
        (1.0, 0.0, math.nan, "c"),
    ],
)
def test_diameter_refuses_a_non_finite_argument(mu0, F, c, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        diameter_bound(mu0, F, c, 3)


def test_diameter_monotonicities():
    mu0s = (0.5, 1.0, 2.0)
    Fs = (0.0, 0.5, 1.0)
    cs = (0.0, 1.0, 4.0)
    for n in (3, 5):
        for F in Fs:
            for c in cs:
                vals = [diameter_bound(m, F, c, n) for m in mu0s]
                assert vals[0] >= vals[1] >= vals[2]
        for m in mu0s:
            for c in cs:
                vals = [diameter_bound(m, F, c, n) for F in Fs]
                assert vals[0] <= vals[1] <= vals[2]
            for F in Fs:
                vals = [diameter_bound(m, F, c, n) for c in cs]
                assert vals[0] <= vals[1] <= vals[2]


def test_sturm_domination_on_derived_setup():
    # expanding flat model: G is the constant 0.5/(n-1) = 0.25, so the
    # comparison solution must dominate sn_{-0.25}
    from solab.factory import build_gaussian

    cs = derive_setup(build_gaussian(-0.5, 3, r_max=4.0))
    c_min = float(np.min(cs.G.values))
    assert c_min > 0.2
    assert np.all(cs.h >= sn_cn(-c_min, cs.G.grid)[0] - 1e-9)


def test_parabolicity_rejects_short_domain():
    s = gaussian_model(r_max=8.0)
    with pytest.raises(ValueError):
        f_parabolic_test(s, 4.0)


def test_volest_rejects_radius_below_calibration():
    consts = VolestConstants(r0=2.0, C=0.0, sphere_vol_r0=1.0, ball_vol_r0=1.0)
    with pytest.raises(ValueError):
        volest_bound(1.0, 0.0, consts, 1.0)


def test_diameter_rejects_bad_mu0():
    with pytest.raises(ValueError):
        diameter_bound(0.0, 1.0, 1.0, 3)
