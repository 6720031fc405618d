
import numpy as np
import pytest

from solab.errors import InvalidCase, InvalidWarp
from solab.factory import (
    ClassifiedCase,
    FamilyTag,
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from solab.geometry import curvature_grids, weighted_ball_volume
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
        mask = s.profile.valid_mask(grids["rho_fib"], grids["rho_rad"])
        assert np.max(np.abs(grids["rho_fib"][mask] - grids["rho_rad"][mask])) < 1e-7


def test_einstein_soliton_function_gradient_relation():
    # c f' = lambda' in the radial variable whenever c != 0
    for c in (-1.0, 0.5, 2.0):
        s = build_einstein_family(c=c, g0=1.0, gp0=0.0, a=0.7, b=0.0, n=5, interval=(0.0, 1.2))
        fp = derivative(s.f, 1).values
        lamp = derivative(s.lam, 1).values
        mask = s.profile.valid_mask(fp, lamp)
        assert np.max(np.abs(c * fp[mask] - lamp[mask])) < 1e-7


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
    g = GridFn.from_callable(lambda t: 2.0 + np.sin(t), t0, t1, res)
    return build_general_family(g, rho_sigma=1.0, A=0.5, B=0.0, n=3, interval=(t0, t1), resolution=res)


def test_general_sine_residual():
    assert soliton_residual(general_sine_spec()).sup_norm < 1e-6


def test_general_family_degenerates_to_einstein():
    # when g'' = c g and rho_sigma matches, (A, B) = (a, b) reproduces the
    # Einstein family
    c, n = 1.0, 4
    t0, t1, res = 0.0, 2.0, 2001
    ein = build_einstein_family(c=c, g0=1.0, gp0=0.0, a=0.8, b=0.3, n=n, interval=(t0, t1))
    g = GridFn.from_callable(np.cosh, t0, t1, res)
    gen = build_general_family(
        g, rho_sigma=ein.profile.rho_sigma, A=0.8, B=0.3, n=n, interval=(t0, t1), resolution=res
    )
    assert np.max(np.abs(gen.f.values - ein.f.values)) < 1e-7
    assert np.max(np.abs(gen.lam.values - ein.lam.values)) < 1e-7


def test_general_cylinder_degenerates_to_linear_potential():
    a0, b0 = 1.3, -0.4
    g = GridFn.constant(1.0, 0.0, 4.0, 2001)
    s = build_general_family(g, rho_sigma=0.0, A=a0, B=b0, n=3)
    np.testing.assert_allclose(s.f.values, a0 * s.profile.grid + b0, atol=1e-10)
    # edge samples carry ~1e-10 of stencil rounding from g'' of the
    # tabulated constant; the interior is clean
    np.testing.assert_allclose(s.lam.values, 0.0, atol=1e-9)
    assert np.max(np.abs(s.lam.values[4:-4])) < 1e-12


def test_general_rejects_nonpositive_warp():
    g = GridFn.from_callable(lambda t: np.sin(t), 0.0, 4.0, 2001)
    with pytest.raises(InvalidWarp):
        build_general_family(g, rho_sigma=1.0, A=0.0, B=0.0, n=3)


# ---------------------------------------------------------------------------
# classified cases and the Gaussian
# ---------------------------------------------------------------------------

def test_classified_flat_is_gaussian_shrinker():
    s = build_classified(ClassifiedCase.FLAT, {"lambda0": 1.0}, n=3, interval=(0.0, 8.0))
    rep = soliton_residual(s)
    # analytically exact; the measured value is the double-precision floor
    # of stencil second derivatives (~ eps |f| / h^2)
    assert rep.sup_norm < 1e-8
    assert classify_soliton(s) is Classification.SHRINKING


def test_classified_space_form_sphere():
    s = build_classified(
        ClassifiedCase.SPACE_FORM, {"c": -1.0, "a": 0.5, "b": 0.0}, n=3, interval=(0.0, 3.0)
    )
    t = s.profile.grid
    np.testing.assert_allclose(s.lam.values, 0.5 * np.cos(t) + 2.0, atol=1e-12)
    assert soliton_residual(s).sup_norm < 1e-8


def test_classified_space_form_constant_lambda_is_trivial():
    s = build_classified(
        ClassifiedCase.SPACE_FORM, {"c": 1.0, "a": 0.0, "b": 0.2}, n=3, interval=(0.0, 4.0)
    )
    assert np.ptp(s.lam.values) == 0.0
    assert classify_soliton(s) is Classification.TRIVIAL


def test_classified_space_form_rejects_flat():
    with pytest.raises(InvalidCase):
        build_classified(ClassifiedCase.SPACE_FORM, {"c": 0.0, "a": 1.0}, n=3)


def test_classified_hyperbolic_matches_einstein_builder():
    params = {"c": 1.0, "g0": 1.0, "gp0": 0.5, "a": 0.4, "b": 0.1}
    s = build_classified(ClassifiedCase.HYPERBOLIC_WARPED, params, n=4, interval=(0.0, 2.0))
    e = build_einstein_family(n=4, interval=(0.0, 2.0), **params)
    np.testing.assert_allclose(s.lam.values, e.lam.values, atol=1e-14)
    assert s.family_tag is FamilyTag.CLASSIFIED_HYPERBOLIC_WARPED
    assert soliton_residual(s).sup_norm < 1e-8


def test_gaussian_total_weighted_volume():
    s = build_gaussian(1.0, 3, r_max=8.0)
    vol = weighted_ball_volume(s.profile, s.f, 8.0)
    assert vol == pytest.approx(TWO_PI_CUBED_SQRT, abs=1e-6)


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
        build_classified(ClassifiedCase.SPACE_FORM, {"c": 1.0, "a": -0.5}, n=4, interval=(0.0, 4.0)),
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
    np.testing.assert_array_equal(s.fp, derivative(s.f, 1).values)
    p = s.profile
    assert p.curvature is p.curvature
    for arr in (s.fp, s.fpp, s.lamp, s.lampp, p.g_ratio, p.curvature["T_norm2"]):
        with pytest.raises(ValueError):
            arr[5] = 0.0
    with pytest.raises(TypeError):
        p.curvature["S"] = p.curvature["T_norm2"]

    # the curvature belongs to the profile, the derivatives to the spec
    shifted = replace(s, lam=s.lam.with_values(s.lam.values + 1.0))
    assert shifted.profile.curvature is p.curvature
    assert shifted.lamp is not s.lamp
    assert calls == {"derivative": 8, "curvature_grids": 1}

    # the arrays live in the spec's and the profile's own caches, so
    # dropping the spec frees them without waiting for the cyclic collector
    refs = [weakref.ref(s.fp), weakref.ref(p.curvature["S"])]
    gc.disable()
    try:
        del s, p, shifted
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
