
from dataclasses import replace

import numpy as np
import pytest

from solab.comparison import diameter_bound
from solab.errors import InvalidCase, InvalidDimension, InvalidWarp, NonFiniteValues
from solab.factory import (
    FamilyTag,
    SolitonSpec,
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from solab.geometry import Polynomial, SnCombination, WarpProfile, curvature_grids, weighted_ball_volume
from solab.kernel import GridFn, derivative
from solab.verify import Classification, classify_soliton, soliton_residual

# frozen via the exponential-series oracle (tests/oracles.py)
SINH_2 = 3.626860407847018
TWO_PI_CUBED_SQRT = 15.749609945722419  # (2 pi)^(3/2)


# ---------------------------------------------------------------------------
# Einstein family
# ---------------------------------------------------------------------------

def test_einstein_cosh_closed_forms():
    s = build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 2.0))
    t = s.profile.grid
    np.testing.assert_allclose(s.profile.warp_values[0], np.cosh(t), atol=1e-12)
    np.testing.assert_allclose(s.lam.values, np.sinh(t) - 3.0, atol=1e-12)
    # f = integral of cosh = sinh
    assert s.f.values[-1] == pytest.approx(SINH_2, abs=1e-10)
    assert soliton_residual(s).sup_norm < 1e-8


def test_einstein_zero_slope_is_trivial():
    s = build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=0.0, b=0.5, n=4, interval=(0.0, 2.0))
    np.testing.assert_allclose(s.lam.values, -3.0, atol=1e-14)
    np.testing.assert_allclose(s.f.values, 0.5, atol=1e-14)
    assert classify_soliton(s) is Classification.TRIVIAL


def test_einstein_cylinder_steady():
    s = build_einstein_family(c=0.0, g0=1.0, gp0=0.0, a=2.0, b=0.0, n=3)
    np.testing.assert_allclose(s.lam.values, 0.0, atol=1e-14)
    np.testing.assert_allclose(s.f.values, 2.0 * s.profile.grid, atol=1e-12)
    assert classify_soliton(s) is Classification.STEADY


def test_einstein_profiles_are_einstein():
    for c in (-1.0, 0.0, 1.0):
        s = build_einstein_family(c=c, g0=1.0, gp0=0.2, a=1.0, b=0.0, n=4, interval=(0.0, 1.4))
        grids = curvature_grids(s.profile)
        band = s.profile.trusted_band("eigenvalues", grids["rho_fib"], grids["rho_rad"])
        assert np.max(np.abs(grids["rho_fib"][band] - grids["rho_rad"][band])) < 1e-7


def test_einstein_soliton_function_gradient_relation():
    # c f' = lambda' in the radial variable whenever c != 0
    for c in (-1.0, 0.5, 2.0):
        s = build_einstein_family(c=c, g0=1.0, gp0=0.0, a=0.7, b=0.0, n=5, interval=(0.0, 1.2))
        fp = derivative(s.f.values, s.profile.h, 1)
        lamp = derivative(s.lam.values, s.profile.h, 1)
        band = s.profile.trusted_band("gradients", fp, lamp)
        assert np.max(np.abs(c * fp[band] - lamp[band])) < 1e-7


def test_einstein_rejects_vanishing_warp():
    with pytest.raises(InvalidWarp):
        build_einstein_family(c=-1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 2.0))
        # g = cos t crosses zero at pi/2 < 2


def test_einstein_detects_pole_start():
    s = build_einstein_family(c=-1.0, g0=0.0, gp0=1.0, a=0.3, b=0.0, n=3, interval=(0.0, 3.0))
    assert s.profile.pole  # g = sin t model of the round sphere


# ---------------------------------------------------------------------------
# general family
# ---------------------------------------------------------------------------

def general_sine_spec(res=2001):
    t0, t1 = 0.0, 2.0 * np.pi
    g = SnCombination(k=1.0, c1=1.0, c2=0.0, c0=2.0)  # 2 + sin t
    return build_general_family(g, rho_sigma=1.0, A=0.5, B=0.0, n=3, interval=(t0, t1), resolution=res)


def test_general_sine_residual():
    assert soliton_residual(general_sine_spec()).sup_norm < 1e-6


def test_general_family_degenerates_to_einstein():
    # when g'' = c g and rho_sigma matches, (A, B) = (a, b) reproduces the
    # Einstein family
    c, n = 1.0, 4
    t0, t1, res = 0.0, 2.0, 2001
    ein = build_einstein_family(c=c, g0=1.0, gp0=0.0, a=0.8, b=0.3, n=n, interval=(t0, t1))
    g = SnCombination(k=-1.0, c1=0.0, c2=1.0)  # cosh t
    gen = build_general_family(
        g, rho_sigma=ein.profile.rho_sigma, A=0.8, B=0.3, n=n, interval=(t0, t1), resolution=res
    )
    assert np.max(np.abs(gen.f.values - ein.f.values)) < 1e-7
    assert np.max(np.abs(gen.lam.values - ein.lam.values)) < 1e-7


def test_general_cylinder_degenerates_to_linear_potential():
    a0, b0 = 1.3, -0.4
    s = build_general_family(Polynomial((1.0,)), rho_sigma=0.0, A=a0, B=b0, n=3)
    np.testing.assert_allclose(s.f.values, a0 * s.profile.grid + b0, atol=1e-10)
    assert np.all(s.lam.values == 0.0)


def test_general_rejects_nonpositive_warp():
    g = SnCombination(k=1.0, c1=1.0, c2=0.0)  # sin t
    with pytest.raises(InvalidWarp):
        build_general_family(g, rho_sigma=1.0, A=0.0, B=0.0, n=3)


# ---------------------------------------------------------------------------
# classified cases and the Gaussian
# ---------------------------------------------------------------------------

def test_gaussian_shrinker():
    s = build_gaussian(1.0, 3, r_max=8.0)
    rep = soliton_residual(s)
    # analytically exact; the measured value is the double-precision floor
    # of stencil second derivatives (~ eps |f| / h^2)
    assert rep.sup_norm < 1e-8
    assert classify_soliton(s) is Classification.SHRINKING


def test_classified_space_form_sphere():
    s = build_classified(c=-1.0, a=0.5, b=0.0, n=3, r_max=3.0)
    t = s.profile.grid
    np.testing.assert_allclose(s.lam.values, 0.5 * np.cos(t) + 2.0, atol=1e-12)
    assert soliton_residual(s).sup_norm < 1e-8


def test_classified_space_form_constant_lambda_is_trivial():
    s = build_classified(c=1.0, a=0.0, b=0.2, n=3, r_max=4.0)
    assert np.ptp(s.lam.values) == 0.0
    assert classify_soliton(s) is Classification.TRIVIAL


def test_classified_space_form_rejects_flat():
    with pytest.raises(InvalidCase):
        build_classified(c=0.0, a=1.0, b=0.0, n=3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_gaussian(1.0, 2.5),  # would build a fiber of dimension 1.5
        lambda: build_gaussian(1.0, 3.0),
        lambda: build_classified(1.0, 0.0, 0.0, 3.5),
        lambda: build_classified(1.0, 0.0, 0.0, True),
        lambda: WarpProfile(1, 0.0, SnCombination(k=0.0, c1=1.0, c2=0.0), 0.0, 1.0, 101),
    ],
    ids=["gaussian_2.5", "gaussian_float_3", "space_form_3.5", "space_form_bool", "profile_1"],
)
def test_profile_refuses_a_dimension_that_is_not_an_integer_of_at_least_2(build):
    with pytest.raises(InvalidDimension, match="total dimension must be an integer of at least 2"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: diameter_bound(1.0, 0.0, 1.0, 10**400),
        lambda: build_gaussian(1.0, 10**400),
        lambda: build_classified(1.0, 0.0, 0.0, 10**400),
        lambda: build_einstein_family(1.0, 1.0, 0.0, 1.0, 0.0, 10**400),
        lambda: build_general_family(SnCombination(k=-1.0, c1=0.0, c2=1.0), 1.0, 0.5, 0.0, 10**400),
        lambda: WarpProfile(2**53 + 1, 0.0, SnCombination(k=0.0, c1=1.0, c2=0.0), 0.0, 1.0, 101),
    ],
    ids=["diameter", "gaussian", "space_form", "einstein", "general", "profile_2**53+1"],
)
def test_a_dimension_past_2_to_the_53_is_refused_by_name(build):
    # 10**400 once met float arithmetic as a bare OverflowError
    with pytest.raises(InvalidDimension, match=r"total dimension must be at most 2\*\*53"):
        build()


def test_profile_takes_a_numpy_integer_dimension():
    s = build_classified(1.0, 0.0, 0.0, np.int64(3))
    assert s.profile.d == 2 and soliton_residual(s).passed


def test_gaussian_total_weighted_volume():
    s = build_gaussian(1.0, 3, r_max=8.0)
    vol = weighted_ball_volume(s.profile, s.f, 8.0)
    assert vol == pytest.approx(TWO_PI_CUBED_SQRT, abs=1e-6)


def test_spec_rejects_fields_off_the_profile_grid():
    s = build_gaussian(1.0, 3, r_max=4.0, resolution=101)
    p = s.profile
    for field, u in (("f", GridFn(p.t0, p.t1, np.zeros(102))), ("lam", GridFn(p.t0, 4.5, s.lam.values))):
        with pytest.raises(ValueError, match="f and lambda must live on the profile grid"):
            replace(s, **{field: u})


def test_spec_names_the_first_infinite_sample_of_f_or_lambda():
    # a GridFn keeps an infinite sample; the spec, which owns f and lambda,
    # refuses it with the first bad t
    s = build_gaussian(1.0, 3, r_max=4.0, resolution=101)
    for field, u in (("f", s.f), ("lam", s.lam)):
        v = u.values.copy()
        v[3] = np.inf
        with pytest.raises(NonFiniteValues, match="f and lambda: non-finite value at t = 0.12$"):
            replace(s, **{field: replace(u, values=v)})


def test_spec_refuses_derivatives_that_overflow_on_a_tiny_grid():
    # h^2 underflows to 0, and the second-derivative stencil divides by it
    p = WarpProfile(n=3, rho_sigma=0.0, g=SnCombination(k=0.0, c1=0.0, c2=1.0), t0=0.0, t1=1e-300, n_samples=11)
    f = GridFn(0.0, 1e-300, np.linspace(0.0, 1.0, 11) ** 2)
    s = SolitonSpec(profile=p, f=f, lam=GridFn(0.0, 1e-300, np.zeros(11)), family_tag=FamilyTag.GENERAL_WARPED)
    with pytest.raises(NonFiniteValues, match="derivatives of f and lambda: non-finite value at t = 0$"):
        s.fp


def test_spec_refuses_a_nan_pole_sample_of_f_in_its_derivatives():
    # require_finite lets a NaN pass at the pole sample, but the one-sided
    # stencils spread it to the samples after it, where it is refused
    s = build_gaussian(1.0, 3, r_max=4.0, resolution=101)
    v = s.f.values.copy()
    v[0] = np.nan
    s = replace(s, f=replace(s.f, values=v))
    with pytest.raises(NonFiniteValues, match="derivatives of f and lambda: non-finite value at t = 0.04$"):
        s.fp


def test_gaussian_zero_is_trivial_flat():
    s = build_gaussian(0.0, 3, r_max=4.0)
    assert classify_soliton(s) is Classification.TRIVIAL
    assert np.ptp(s.f.values) == 0.0


def test_gaussian_negative_lambda_expands():
    s = build_gaussian(-1.0, 2, r_max=4.0)
    assert classify_soliton(s) is Classification.EXPANDING


def test_every_family_meets_its_residual_tolerance():
    specs = [
        build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 2.0)),
        build_einstein_family(c=-1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 1.5)),
        build_einstein_family(c=0.0, g0=1.0, gp0=0.0, a=2.0, b=0.0, n=3),
        build_gaussian(1.0, 3, r_max=8.0),
        build_classified(c=1.0, a=-0.5, b=0.0, n=4, r_max=4.0),
        general_sine_spec(),
    ]
    for s in specs:
        rep = soliton_residual(s)
        assert rep.passed, f"{s.family_tag}: residual {rep.sup_norm:.3e}"


def test_einstein_shifted_interval_is_not_a_pole_model():
    s = build_einstein_family(c=-1.0, g0=0.0, gp0=1.0, a=0.3, b=0.0, n=3, interval=(1.0, 3.0))
    assert not s.profile.pole
    assert soliton_residual(s).sup_norm < 1e-8


def test_derived_fields_are_cached_read_only_and_free_with_the_spec(monkeypatch):
    import gc
    import weakref
    from dataclasses import replace

    from solab import factory, geometry
    from solab.comparison import derive_setup

    calls = {"derivative": 0, "curvature_grids": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(factory, "derivative", counting("derivative", derivative))
    monkeypatch.setattr(geometry, "curvature_grids", counting("curvature_grids", curvature_grids))
    s = build_gaussian(1.0, 3, resolution=101)
    for _ in range(2):
        s.bakry_emery, s.lap_lam, s.hess_lam_T, s.lampp
    # f', f'', lambda', lambda'' together, once; the curvature once
    assert calls == {"derivative": 4, "curvature_grids": 1}
    p = s.profile
    np.testing.assert_array_equal(s.fp, derivative(s.f.values, p.h, 1))
    assert p.curvature is p.curvature
    # derive_setup owns theta, h and h', and sets them read-only too
    cs = derive_setup(s)
    for arr in (s.fp, s.fpp, s.lamp, s.lampp, p.g_ratio, p.curvature["T_norm2"], cs.theta, cs.h, cs.hp):
        with pytest.raises(ValueError):
            arr[5] = 0.0
    with pytest.raises(TypeError):
        p.curvature["S"] = p.curvature["T_norm2"]

    # the curvature belongs to the profile, the derivatives to the spec
    shifted = replace(s, lam=replace(s.lam, values=s.lam.values + 1.0))
    assert shifted.profile.curvature is p.curvature
    assert shifted.lamp is not s.lamp
    assert calls == {"derivative": 8, "curvature_grids": 1}

    # the arrays live in the spec's and the profile's own caches, so
    # dropping the spec frees them without waiting for the cyclic collector
    refs = [weakref.ref(s.fp), weakref.ref(p.curvature["S"])]
    gc.disable()
    try:
        del s, p, shifted, cs
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
