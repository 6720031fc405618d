import math

import numpy as np
import pytest

from solab.errors import InvalidWarp, NotAModel
from solab.geometry import (
    POLE_EXCLUSION_STEPS,
    Polynomial,
    SnCombination,
    WarpProfile,
    curvature_grids,
    radial_laplacian,
    ric_norm2,
    sphere_volume_density,
    trace_free_cube,
    unit_sphere_volume,
    weighted_ball_volume,
    weighted_sphere_volume,
)
from solab.kernel import GridFn, derivative

from .oracles import quad_trapz


def euclidean_profile(n=3, r_max=4.0, res=2001):
    return WarpProfile(
        n=n,
        rho_sigma=n - 2,
        g=SnCombination(k=0.0, c1=1.0, c2=0.0),
        t0=0.0,
        t1=r_max,
        n_samples=res,
        fiber_constant_curvature=True,
    )


def hyperbolic_profile(n=3, r_max=4.0, res=2001):
    return WarpProfile(
        n=n,
        rho_sigma=n - 2,
        g=SnCombination(k=-1.0, c1=1.0, c2=0.0),
        t0=0.0,
        t1=r_max,
        n_samples=res,
        fiber_constant_curvature=True,
    )


def cylinder_profile(n=3, length=4.0, res=2001):
    return WarpProfile(
        n=n,
        rho_sigma=0.0,
        g=Polynomial(coeffs=(1.0,)),
        t0=0.0,
        t1=length,
        n_samples=res,
        fiber_constant_curvature=True,
    )


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_at(p, t):
    """The curvature grids read at the grid sample of parameter t."""
    i = round((t - p.t0) / p.h)
    assert p.grid[i] == pytest.approx(t, abs=1e-12)
    return {key: arr[i] for key, arr in curvature_grids(p).items()}


def test_euclidean_model_is_flat():
    p = euclidean_profile()
    for t in (0.5, 1.0, 3.0):
        c = curvature_at(p, t)
        assert abs(c["rho_fib"]) < 1e-12
        assert abs(c["rho_rad"]) < 1e-12
        assert abs(c["S"]) < 1e-12


def test_hyperbolic_model_constant_curvature():
    # Ricci eigenvalues of H^3 are -(n-1) = -2, so S = -6
    c = curvature_at(hyperbolic_profile(), 1.0)
    assert c["rho_fib"] == pytest.approx(-2.0, abs=1e-10)
    assert c["rho_rad"] == pytest.approx(-2.0, abs=1e-10)
    assert c["S"] == pytest.approx(-6.0, abs=1e-10)


def test_cylinder_is_ricci_flat():
    p = cylinder_profile()
    grids = curvature_grids(p)
    for arr in (*(grids[key] for key in ("rho_fib", "rho_rad", "S", "T_norm2")), ric_norm2(p)):
        assert np.nanmax(np.abs(arr)) < 1e-12


def test_pole_sample_is_nan_and_excluded():
    # the curvature formulas are 0/0 at the pole: no value, no sup-norm
    p = hyperbolic_profile()
    grids = curvature_grids(p)
    assert all(np.isnan(arr[0]) for arr in (*grids.values(), ric_norm2(p), trace_free_cube(p)))
    assert not np.isnan(grids["rho_fib"][1])
    for edge in (0, 4, 8):
        assert not p.valid_mask(*grids.values(), edge=edge)[0]


def test_sphere_model_positive_curvature():
    p = WarpProfile(
        n=3, rho_sigma=1.0, g=SnCombination(k=1.0, c1=1.0, c2=0.0),
        t0=0.0, t1=3.0, n_samples=2001, fiber_constant_curvature=True,
    )
    c = curvature_at(p, 1.2)
    assert c["rho_fib"] == pytest.approx(2.0, abs=1e-10)
    assert c["rho_rad"] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("cc", [-1.0, 0.0, 1.0])
def test_constant_curvature_models_across_grid(cc):
    # g = sn_{-c}: every sample (pole band excluded) sees eigenvalues -(n-1) c
    n = 4
    r_max = 2.0 if cc <= 0 else 2.8
    p = WarpProfile(
        n=n, rho_sigma=n - 2, g=SnCombination(k=-cc, c1=1.0, c2=0.0),
        t0=0.0, t1=r_max, n_samples=2001, fiber_constant_curvature=True,
    )
    grids = curvature_grids(p)
    mask = p.valid_mask(grids["rho_fib"], grids["rho_rad"])
    target = -(n - 1) * cc
    assert np.max(np.abs(grids["rho_fib"][mask] - target)) < 1e-7
    assert np.max(np.abs(grids["rho_rad"][mask] - target)) < 1e-7


def test_trace_identities_on_samples():
    p = hyperbolic_profile(n=5)
    grids = curvature_grids(p)
    mask = p.valid_mask(*grids.values())
    d = p.d
    np.testing.assert_allclose(
        grids["S"][mask], d * grids["rho_fib"][mask] + grids["rho_rad"][mask], atol=1e-9
    )
    np.testing.assert_allclose(
        d * grids["tau_f"][mask] + grids["tau_r"][mask], 0.0, atol=1e-9
    )
    assert np.min(grids["T_norm2"][mask]) >= 0.0


def test_einstein_criterion_separates_profiles():
    # cosh t solves g'' = g, so the profile is Einstein: eigenvalue gap ~ 0
    n = 4
    ein = WarpProfile(
        n=n, rho_sigma=-(n - 2), g=SnCombination(k=-1.0, c1=0.0, c2=1.0),
        t0=0.0, t1=2.0, n_samples=2001, fiber_constant_curvature=True,
    )
    grids = curvature_grids(ein)
    mask = ein.valid_mask(grids["rho_fib"], grids["rho_rad"])
    assert np.max(np.abs(grids["rho_fib"][mask] - grids["rho_rad"][mask])) < 1e-7

    # a perturbed warp is visibly not Einstein
    pert = WarpProfile(
        n=n, rho_sigma=-(n - 2), g=Polynomial((1.0, 0.0, 0.6, 0.0, 1.0 / 24.0)),
        t0=0.0, t1=2.0, n_samples=2001, fiber_constant_curvature=True,
    )
    grids = curvature_grids(pert)
    mask = pert.valid_mask(grids["rho_fib"], grids["rho_rad"])
    assert np.max(np.abs(grids["rho_fib"][mask] - grids["rho_rad"][mask])) > 1e-2


# ---------------------------------------------------------------------------
# Hessian and weighted Laplacian
# ---------------------------------------------------------------------------

def test_laplacian_of_distance_squared_flat():
    # u = t^2 on R^3: Delta u = 2n = 6
    p = euclidean_profile()
    u = GridFn.from_callable(lambda t: t**2, 0.0, 4.0, 2001)
    lap = radial_laplacian(p, derivative(u, 1).values, derivative(u, 2).values)
    mask = p.valid_mask(lap)
    assert np.max(np.abs(lap[mask] - 6.0)) < 1e-8


def test_laplacian_of_one_vanishes():
    p = hyperbolic_profile()
    one = GridFn.constant(1.0, 0.0, 4.0, 2001)
    f = GridFn.from_callable(lambda t: 0.3 * t**2, 0.0, 4.0, 2001)
    lap = radial_laplacian(p, derivative(one, 1).values, derivative(one, 2).values, derivative(f, 1).values)
    mask = p.valid_mask(lap)
    assert np.max(np.abs(lap[mask])) < 1e-12


def test_weighted_laplacian_gaussian():
    # g = t, f = t^2/2, u = t^2/2, n = 3: Delta_f u = 3 - t^2
    p = euclidean_profile()
    half_sq = GridFn.from_callable(lambda t: t**2 / 2.0, 0.0, 4.0, 2001)
    up = derivative(half_sq, 1).values
    lap = radial_laplacian(p, up, derivative(half_sq, 2).values, up)
    mask = p.valid_mask(lap)
    t = p.grid[mask]
    assert np.max(np.abs(lap[mask] - (3.0 - t**2))) < 1e-8


def test_laplacian_on_hyperbolic_model():
    # u = cos t + 0.1 t^3 on H^3 (g = sinh t, d = 2): Delta u = u'' + 2 coth(t) u'
    p = hyperbolic_profile()
    u = GridFn.from_callable(lambda t: np.cos(t) + 0.1 * t**3, 0.0, 4.0, 2001)
    lap = radial_laplacian(p, derivative(u, 1).values, derivative(u, 2).values)
    mask = p.valid_mask(lap)
    t = p.grid[mask]
    exact = -np.cos(t) + 0.6 * t + 2.0 / np.tanh(t) * (-np.sin(t) + 0.3 * t * t)
    assert np.max(np.abs(lap[mask] - exact)) < 1e-7


# ---------------------------------------------------------------------------
# weighted volumes
# ---------------------------------------------------------------------------

def test_euclidean_sphere_area():
    p = euclidean_profile()
    assert weighted_sphere_volume(p, None, 2.0) == pytest.approx(16 * math.pi, rel=1e-12)


def test_gaussian_sphere_volume_n2():
    p = euclidean_profile(n=2)
    f = GridFn.from_callable(lambda t: t**2 / 2.0, 0.0, 4.0, 2001)
    direct = weighted_sphere_volume(p, f, 1.0)
    assert direct == pytest.approx(2 * math.pi * math.exp(-0.5), rel=1e-12)
    # cross-check against quadrature of the density over the circle fiber
    oracle = quad_trapz(lambda s: np.full_like(s, math.exp(-0.5) * 1.0), 0.0, 2 * math.pi)
    assert direct == pytest.approx(oracle, rel=1e-9)


def test_hyperbolic_sphere_area():
    p = hyperbolic_profile()
    assert weighted_sphere_volume(p, None, 1.0) == pytest.approx(
        4 * math.pi * math.sinh(1.0) ** 2, rel=1e-12
    )


def test_euclidean_ball_volume():
    p = euclidean_profile()
    assert weighted_ball_volume(p, None, 1.0) == pytest.approx(4 * math.pi / 3, abs=1e-10)


def test_gaussian_total_weighted_volume_n2():
    p = euclidean_profile(n=2, r_max=8.0)
    f = GridFn.from_callable(lambda t: t**2 / 2.0, 0.0, 8.0, 2001)
    assert weighted_ball_volume(p, f, 8.0) == pytest.approx(2 * math.pi, rel=1e-9)


def test_hyperbolic_ball_volume():
    p = hyperbolic_profile()
    expect = math.pi * (math.sinh(2.0) - 2.0)
    assert weighted_ball_volume(p, None, 1.0) == pytest.approx(expect, abs=1e-8)


def test_ball_volume_monotone_in_radius():
    p = hyperbolic_profile()
    f = GridFn.from_callable(lambda t: np.sin(t), 0.0, 4.0, 2001)
    radii = np.linspace(0.1, 4.0, 40)
    vols = [weighted_ball_volume(p, f, r) for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))


def test_volume_requires_model():
    p = cylinder_profile()
    with pytest.raises(NotAModel):
        weighted_sphere_volume(p, None, 1.0)
    with pytest.raises(NotAModel):
        weighted_ball_volume(p, None, 1.0)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

def test_nonpositive_warp_rejected():
    with pytest.raises(InvalidWarp):
        WarpProfile(
            n=3, rho_sigma=1.0, g=SnCombination(k=1.0, c1=1.0, c2=0.0),
            t0=0.0, t1=4.0, n_samples=2001, fiber_constant_curvature=True,
        )  # sin t vanishes at pi < 4
    with pytest.raises(InvalidWarp):
        WarpProfile(
            n=3, rho_sigma=1.0, g=Polynomial(coeffs=(-1.0, 1.0)),
            t0=1.0, t1=3.0, n_samples=201, fiber_constant_curvature=True,
        )  # g(1) = 0 and g'(1) = 1, but a pole sits at t = 0


def test_pole_requires_unit_sphere_fiber():
    # g = t vanishes at t0, but over a non-unit fiber t0 is no pole, so the
    # warp is not positive on the interval
    with pytest.raises(InvalidWarp):
        WarpProfile(
            n=3, rho_sigma=0.5, g=SnCombination(k=0.0, c1=1.0, c2=0.0),
            t0=0.0, t1=4.0, n_samples=2001, fiber_constant_curvature=True,
        )


def test_pole_requires_vanishing_warp():
    p = WarpProfile(
        n=3, rho_sigma=1.0, g=SnCombination(k=0.0, c1=1.0, c2=1.0),
        t0=0.0, t1=4.0, n_samples=2001, fiber_constant_curvature=True,
    )  # g = 1 + t
    assert not p.pole
    with pytest.raises(NotAModel):
        p.require_model()


@pytest.mark.parametrize(
    "k, c1, c2, t0, t1, pole",
    [
        (0.0, 1.0, 0.0, 0.0, 3.0, True),  # sn_0 = t
        (1.0, 1.0, 0.0, 0.0, 3.0, True),  # sn_1 = sin t
        (-1.0, 1.0, 0.0, 0.0, 3.0, True),  # sn_{-1} = sinh t
        (-1.0, 0.0, 1.0, 0.0, 3.0, False),  # cn_{-1} = cosh t
        (-1.0, 1.0, 0.0, 1.0, 3.0, False),  # sinh t away from t = 0
    ],
)
def test_pole_is_worked_out_from_the_warp(k, c1, c2, t0, t1, pole):
    p = WarpProfile(
        n=3, rho_sigma=1.0, g=SnCombination(k=k, c1=c1, c2=c2),
        t0=t0, t1=t1, n_samples=201, fiber_constant_curvature=True,
    )
    assert p.pole is pole


@pytest.mark.parametrize(
    "form, exact",
    [
        (SnCombination(k=-2.0, c1=0.7, c2=1.3),
         lambda t: (0.7 * np.sinh(math.sqrt(2) * t) / math.sqrt(2) + 1.3 * np.cosh(math.sqrt(2) * t),
                    0.7 * np.cosh(math.sqrt(2) * t) + 1.3 * math.sqrt(2) * np.sinh(math.sqrt(2) * t),
                    2.0 * (0.7 * np.sinh(math.sqrt(2) * t) / math.sqrt(2) + 1.3 * np.cosh(math.sqrt(2) * t)))),
        (SnCombination(k=0.0, c1=0.7, c2=1.3),
         lambda t: (0.7 * t + 1.3, 0.7 + 0.0 * t, 0.0 * t)),
        (SnCombination(k=3.0, c1=0.7, c2=1.3),
         lambda t: (0.7 * np.sin(math.sqrt(3) * t) / math.sqrt(3) + 1.3 * np.cos(math.sqrt(3) * t),
                    0.7 * np.cos(math.sqrt(3) * t) - 1.3 * math.sqrt(3) * np.sin(math.sqrt(3) * t),
                    -3.0 * (0.7 * np.sin(math.sqrt(3) * t) / math.sqrt(3) + 1.3 * np.cos(math.sqrt(3) * t)))),
        (Polynomial(coeffs=(1.0, -0.5, 0.25, 0.125)),
         lambda t: (1.0 - 0.5 * t + 0.25 * t**2 + 0.125 * t**3,
                    -0.5 + 0.5 * t + 0.375 * t**2,
                    0.5 + 0.75 * t)),
        (SnCombination(k=1.0, c1=1.0, c2=0.0, c0=2.0),
         lambda t: (2.0 + np.sin(t), np.cos(t), -np.sin(t))),
    ],
)
def test_derivatives_match_the_analytic_jet(form, exact):
    t = np.linspace(0.0, 1.5, 301)
    for got, want in zip(form.derivatives(t), exact(t)):
        assert np.max(np.abs(got - want)) < 1e-12
    # a scalar t gives floats
    assert all(isinstance(v, float) for v in form.derivatives(0.4))


def test_warp_values_are_read_only():
    for arr in hyperbolic_profile(res=101).warp_values:
        with pytest.raises(ValueError):
            arr[1] = 0.0


def test_sphere_volume_density_in_large_dimensions():
    # d = 499: fiber_volume underflows to 0 and 8^499 overflows, while the
    # density is representable at every g
    p = WarpProfile(
        n=500, rho_sigma=498.0, g=SnCombination(k=0.0, c1=1.0, c2=0.0),
        t0=0.0, t1=8.0, n_samples=201, fiber_constant_curvature=True,
    )
    assert p.fiber_volume == 0.0

    def oracle(g):
        # omega_d = omega_{d-2} 2 pi / (d - 1) from omega_1 = 2 pi, with the
        # factors of g^d interleaved so every partial product stays in range
        v = 2.0 * math.pi * g
        for k in range(3, 500, 2):
            v *= 2.0 * math.pi / (k - 1) * g * g
        return v

    dens = sphere_volume_density(p, np.array([0.0, 3.0, 8.0]))
    assert dens[0] == 0.0
    assert dens[1] == pytest.approx(3.63e-128, rel=1e-3)
    assert dens[1] == pytest.approx(oracle(3.0), rel=1e-12)
    assert dens[2] == pytest.approx(oracle(8.0), rel=1e-12)
    weighted = sphere_volume_density(p, np.array([3.0, 8.0]), np.array([4.5, 32.0]))
    np.testing.assert_allclose(weighted, [oracle(3.0) * math.exp(-4.5), oracle(8.0) * math.exp(-32.0)], rtol=1e-12)
    assert weighted_sphere_volume(p, None, 8.0) == pytest.approx(oracle(8.0), rel=1e-12)


def test_unit_sphere_volumes():
    assert unit_sphere_volume(1) == pytest.approx(2 * math.pi)
    assert unit_sphere_volume(2) == pytest.approx(4 * math.pi)
    assert unit_sphere_volume(3) == pytest.approx(2 * math.pi**2)


def test_unit_sphere_volume_in_large_dimensions():
    def log_gamma_form(d):
        a = (d + 1) / 2.0
        return 2.0 * math.exp(a * math.log(math.pi) - math.lgamma(a))

    # Gamma((d+1)/2) is finite up to d = 342: the plain formula, bit for bit
    for d in (1, 2, 3, 10, 100, 342):
        assert unit_sphere_volume(d) == 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
    assert unit_sphere_volume(342) == pytest.approx(log_gamma_form(342), rel=1e-12)
    for d in (343, 399):
        assert 0.0 < unit_sphere_volume(d) == pytest.approx(log_gamma_form(d), rel=1e-12)


def test_trace_free_cube_by_multiplication_matches_pow():
    g = SnCombination(k=1.0, c1=1.0, c2=0.0, c0=2.0)  # 2 + sin t
    p = WarpProfile(n=3, rho_sigma=1.0, g=g, t0=0.0, t1=2 * np.pi, n_samples=2001, fiber_constant_curvature=True)
    c = curvature_grids(p)
    assert (c["tau_f"] < 0).any()
    np.testing.assert_allclose(trace_free_cube(p), p.d * c["tau_f"] ** 3 + c["tau_r"] ** 3, rtol=1e-15, atol=0)


@pytest.mark.parametrize("t0, t1, res", [(0.0, 8.0, 2001), (0.3, 7.1, 20001), (-2.0, 1e-3, 9)])
def test_grid_at_is_linspace(t0, t1, res):
    p = WarpProfile(n=3, rho_sigma=0.0, g=Polynomial(coeffs=(1.0,)), t0=t0, t1=t1, n_samples=res)
    assert np.array_equal([p.grid_at(i) for i in range(res)], p.grid)


@pytest.mark.parametrize("res", [21, 2001, 20001])
def test_pole_band_by_index_is_the_band_by_radius(res):
    p = euclidean_profile(r_max=8.0, res=res)
    expected = p.grid > p.t0 + (POLE_EXCLUSION_STEPS - 0.5) * p.h
    expected[-4:] = False
    assert np.array_equal(p.valid_mask(), expected)


@pytest.mark.parametrize("edge", [0, 1, 4])
def test_valid_mask_drops_edge_samples_at_each_end(edge):
    p = cylinder_profile()
    mask = p.valid_mask(edge=edge)
    assert mask.sum() == p.n_samples - 2 * edge
    assert mask[edge] and mask[p.n_samples - 1 - edge]
