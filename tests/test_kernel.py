import tracemalloc

import numpy as np
import pytest

from solab.errors import NonFiniteValues, OverflowDetected
from solab.kernel import (
    EDGE_WIDTH,
    GridFn,
    cn,
    derivative,
    fd_weights,
    integrate_cumulative,
    sn,
    solve_linear_ode2,
    solve_linear_ode2_with_derivative,
)

from .oracles import cosh_series, rk4_scalar_ode2, sinh_series

# frozen via the exponential-series oracle (see oracles.py)
SINH_1 = 1.1752011936438016
COSH_1 = 1.5430806348152437
SINH_2 = 3.626860407847018


def test_oracle_constants_are_what_the_series_says():
    assert sinh_series(1.0) == pytest.approx(SINH_1, abs=1e-15)
    assert cosh_series(1.0) == pytest.approx(COSH_1, abs=1e-15)
    assert sinh_series(2.0) == pytest.approx(SINH_2, abs=1e-14)


# ---------------------------------------------------------------------------
# sn / cn
# ---------------------------------------------------------------------------

def test_sn_flat_case_is_identity():
    assert sn(0.0, 2.5) == 2.5


def test_sn_positive_curvature():
    assert sn(1.0, np.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_sn_negative_curvature_matches_series_oracle():
    assert sn(-1.0, 1.0) == pytest.approx(SINH_1, abs=1e-14)


def test_cn_flat_case():
    assert cn(0.0, 7.0) == 1.0


def test_cn_positive_curvature():
    assert cn(1.0, np.pi) == pytest.approx(-1.0, abs=1e-15)


def test_cn_negative_curvature_matches_series_oracle():
    # cn_{-4}(0.5) = cosh(2 * 0.5) = cosh(1)
    assert cn(-4.0, 0.5) == pytest.approx(COSH_1, abs=1e-14)


def test_sn_cn_continuous_in_k_at_zero():
    t = 1.7
    for k in (1e-13, -1e-13):
        assert sn(k, t) == pytest.approx(t, abs=1e-12)
        assert cn(k, t) == pytest.approx(1.0, abs=1e-12)
    # no jump where the series branch hands over to the closed forms
    for k in (3.3e-9, -3.3e-9):  # |k| t^2 straddles the 1e-8 cutoff near t ~ 1.74
        for tt in (1.70, 1.78):
            assert sn(k, tt) == pytest.approx(tt * (1 - k * tt**2 / 6), abs=1e-13)
            assert cn(k, tt) == pytest.approx(1 - k * tt**2 / 2, abs=1e-13)


@pytest.mark.parametrize("k", [-2.5, 0.7])
def test_sn_cn_equal_the_series_closed_form_selection(k):
    # reference: both forms on every sample, then np.where on the cutoff
    t = np.concatenate([np.linspace(-1e-3, 1e-3, 2001), np.linspace(-3.0, 3.0, 601)])
    t2 = t * t
    r = np.sqrt(abs(k))
    near = abs(k) * t2 < 1e-8
    assert near.any() and not near.all()
    sn_closed = np.sin(r * t) / r if k > 0 else np.sinh(r * t) / r
    cn_closed = np.cos(r * t) if k > 0 else np.cosh(r * t)
    sn_series = t * (1.0 - k * t2 / 6.0 + k * k * t2 * t2 / 120.0)
    cn_series = 1.0 - k * t2 / 2.0 + k * k * t2 * t2 / 24.0
    assert np.array_equal(sn(k, t), np.where(near, sn_series, sn_closed))
    assert np.array_equal(cn(k, t), np.where(near, cn_series, cn_closed))


@pytest.mark.filterwarnings("error")
def test_sn_cn_series_finite_for_huge_k():
    # the series terms go through k t^2: k * k alone overflows above |k| ~ 1.3e154
    assert sn(1e200, 0.0) == 0.0
    np.testing.assert_allclose(cn(-1e200, [0.0, 1e-105]), [1.0, 1.0 + 5e-11], rtol=1e-15, atol=0)


def test_pythagorean_identity_all_sign_cases():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.uniform(-4.0, 4.0)
        t = rng.uniform(-2.0, 2.0)
        assert cn(k, t) ** 2 + k * sn(k, t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_sn_solves_its_ode_against_rk4():
    rng = np.random.default_rng(11)
    for _ in range(8):
        k = rng.uniform(-4.0, 4.0)
        Q = GridFn.constant(-k, 0.0, 2.0, 2001)
        y = solve_linear_ode2(Q, 0.0, 1.0)
        assert np.max(np.abs(y.values - sn(k, y.grid))) < 1e-8


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

def test_fd_weights_reproduce_classic_tables():
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 1), np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-13
    )
    np.testing.assert_allclose(
        fd_weights(np.arange(-2, 3), 0.0, 2), np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-13
    )
    np.testing.assert_allclose(
        fd_weights(np.arange(5), 0.0, 1), np.array([-25, 48, -36, 16, -3]) / 12.0, atol=1e-13
    )


def test_derivative_exact_on_quadratic():
    f = GridFn.from_callable(lambda t: t**2, 0.0, 1.0, 101)
    df = derivative(f, 1)
    assert np.max(np.abs(df.values - 2.0 * df.grid)) < 1e-10


def test_derivative_constant_is_zero():
    f = GridFn.constant(3.0, 0.0, 1.0, 51)
    assert np.max(np.abs(derivative(f, 1).values)) < 1e-12


def test_second_derivative_of_sine():
    f = GridFn.from_callable(np.sin, 0.0, np.pi, 400)
    d2 = derivative(f, 2)
    assert np.max(np.abs(d2.values + np.sin(d2.grid))) < 1e-8


def test_derivative_fourth_order_convergence():
    errs = []
    for n in (101, 201):
        f = GridFn.from_callable(np.exp, 0.0, 1.0, n)
        errs.append(np.max(np.abs(derivative(f, 1).values - np.exp(f.grid))))
    assert errs[0] / errs[1] > 12.0  # ~2^4


def _interior_by_expression(v, h, order):
    """The centered stencil as one numpy expression per order: the
    reference for the operation order derivative keeps in place."""
    n = v.size
    if order == 1:
        acc = 8.0 * (v[3 : n - 1] - v[1 : n - 3]) + (v[0 : n - 4] - v[4:n])
    else:
        acc = 16.0 * (v[1 : n - 3] + v[3 : n - 1]) - (v[0 : n - 4] + v[4:n]) - 30.0 * v[2 : n - 2]
    return acc / (12.0 * h**order)


@pytest.mark.parametrize("n", [9, 10, 2001])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_interior_is_bitwise_the_stencil_expression(n, order):
    rng = np.random.default_rng(n)
    v = np.exp(rng.normal(scale=3.0, size=n)) * rng.choice([-1.0, 1.0], size=n)
    f = GridFn(0.3, 7.1, v)
    interior = slice(EDGE_WIDTH, n - EDGE_WIDTH)  # the edge rows overwrite the rest
    expected = np.empty(n)
    expected[2 : n - 2] = _interior_by_expression(v, f.h, order)
    assert np.array_equal(derivative(f, order).values[interior], expected[interior])


# ---------------------------------------------------------------------------
# integrate_cumulative
# ---------------------------------------------------------------------------

def test_cumulative_of_one():
    F = integrate_cumulative(GridFn.constant(1.0, 0.0, 2.0, 201))
    assert F.values[0] == 0.0
    assert F.values[-1] == pytest.approx(2.0, abs=1e-13)


def test_cumulative_of_cos():
    F = integrate_cumulative(GridFn.from_callable(np.cos, 0.0, np.pi / 2, 401))
    assert F.values[-1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [101, 102])  # odd and even sample counts: both end rules
def test_cumulative_exact_on_cubic(n):
    F = integrate_cumulative(GridFn.from_callable(lambda t: t**3, 0.0, 1.0, n))
    assert F.values[-1] == pytest.approx(0.25, abs=1e-12)
    # every prefix is cubic-exact, odd indices included
    exact = F.grid**4 / 4.0
    assert np.max(np.abs(F.values - exact)) < 1e-13


def test_derivative_inverts_cumulative():
    for fn in (np.sin, lambda t: np.exp(-t) * np.cos(3 * t)):
        f = GridFn.from_callable(fn, 0.0, np.pi, 2001)
        back = derivative(integrate_cumulative(f), 1)
        assert np.max(np.abs(back.values - f.values)) < 1e-8


def test_second_derivative_of_cumulative_is_smooth():
    # d2/dt2 of the running integral should recover f' without an
    # even/odd sawtooth from the final-subinterval correction
    f = GridFn.from_callable(np.sin, 0.0, np.pi, 2001)
    d2 = derivative(integrate_cumulative(f), 2)
    assert np.max(np.abs(d2.values - np.cos(d2.grid))) < 1e-7


# ---------------------------------------------------------------------------
# solve_linear_ode2
# ---------------------------------------------------------------------------

def test_ode_zero_potential_gives_line():
    y = solve_linear_ode2(GridFn.constant(0.0, 0.0, 1.0, 101), 0.0, 1.0)
    assert np.max(np.abs(y.values - y.grid)) < 1e-12


def test_ode_unit_potential_gives_sinh():
    y = solve_linear_ode2(GridFn.constant(1.0, 0.0, 2.0, 2001), 0.0, 1.0)
    assert y.values[-1] == pytest.approx(SINH_2, abs=1e-9)


def test_ode_negative_potential_gives_cos():
    y = solve_linear_ode2(GridFn.constant(-1.0, 0.0, np.pi, 2001), 1.0, 0.0)
    assert y.values[-1] == pytest.approx(-1.0, abs=1e-8)


def test_ode_variable_coefficient_against_reference():
    Q = GridFn.from_callable(lambda t: 1.0 + t**2, 0.0, 2.0, 2001)
    y = solve_linear_ode2(Q, 0.0, 1.0)
    ref, _ = rk4_scalar_ode2(lambda t: 1.0 + t * t, 0.0, 1.0, 0.0, 2.0, 4000)
    assert y.values[-1] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [10, 11, 2001, 2003])
def test_ode_scan_matches_stepwise_rk4_on_a_cubic_potential(n):
    # cubic interpolation is exact for a cubic Q, so the grid solver and
    # the independent stepper take the same steps up to rounding; a slip
    # at a block boundary or in a partial last block shows at the end
    def q(t):
        return 1.0 + t - t**3 / 10.0

    y, v = solve_linear_ode2_with_derivative(GridFn.from_callable(q, 0.0, 2.0, n), 0.0, 1.0)
    ref_y, ref_v = rk4_scalar_ode2(q, 0.0, 1.0, 0.0, 2.0, n - 1)
    assert y.values[-1] == pytest.approx(ref_y, rel=1e-12)
    assert v.values[-1] == pytest.approx(ref_v, rel=1e-12)


def test_ode_overflow_detection():
    # the first sample past 1e300, as a step-by-step march reports it
    for q, t1, n, where in ((400.0, 40.0, 2001, "34.58"), (100.0, 80.0, 20001, "69.148")):
        with pytest.raises(OverflowDetected, match=f"near t = {where}$"):
            solve_linear_ode2(GridFn.constant(q, 0.0, t1, n), 0.0, 1.0)


def test_ode_peak_memory_stays_within_eleven_grid_arrays():
    n = 20001
    Q = GridFn.from_callable(lambda t: 1.0 + t**2, 0.0, 2.0, n)
    tracemalloc.start()
    try:
        solve_linear_ode2(Q, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * n


def test_ode_derivative_channel():
    y, v = solve_linear_ode2_with_derivative(GridFn.constant(1.0, 0.0, 2.0, 2001), 0.0, 1.0)
    assert v.values[0] == 1.0
    assert v.values[-1] == pytest.approx(np.cosh(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# GridFn plumbing
# ---------------------------------------------------------------------------

def test_gridfn_rejects_too_few_samples():
    with pytest.raises(ValueError):
        GridFn(0.0, 1.0, np.zeros(8))


def test_gridfn_rejects_infinities():
    v = np.zeros(11)
    v[3] = np.inf
    with pytest.raises(ValueError):
        GridFn(0.0, 1.0, v)


def test_gridfn_owns_a_copy_and_kernel_outputs_keep_the_checks():
    v = np.linspace(0.0, 1.0, 11)
    f = GridFn(0.0, 1.0, v)
    v[3] = 99.0
    assert f.values[3] != 99.0 and v.flags.writeable and not f.values.flags.writeable
    outputs = (derivative(f, 1), derivative(f, 2), integrate_cumulative(f), solve_linear_ode2(f, 0.0, 1.0))
    assert not any(out.values.flags.writeable for out in outputs)
    # h^2 underflows to 0, and the second-derivative stencil divides by it
    tiny = GridFn(0.0, 1e-300, v * v)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NonFiniteValues):
        derivative(tiny, 2)


def test_gridfn_adopt_shares_the_array_and_keeps_the_checks():
    v = np.linspace(0.0, 1.0, 11)
    f = GridFn.adopt(0.0, 1.0, v)
    # no copy, and the caller's array keeps its flags
    assert np.shares_memory(f.values, v) and v.flags.writeable and not f.values.flags.writeable
    v[3] = np.inf
    with pytest.raises(NonFiniteValues):
        GridFn.adopt(0.0, 1.0, v)
    with pytest.raises(ValueError, match="at least"):
        GridFn.adopt(0.0, 1.0, np.zeros(8))


def test_gridfn_interpolation_accuracy():
    f = GridFn.from_callable(np.sin, 0.0, np.pi, 2001)
    t = np.linspace(0.1, 3.0, 77)
    assert np.max(np.abs(f.eval(t) - np.sin(t))) < 1e-11
    assert f.eval(0.5) == pytest.approx(np.sin(0.5), abs=1e-11)
