import tracemalloc

import numpy as np
import pytest

from solab.comparison import derive_setup
from solab.errors import NonFiniteValues
from solab.factory import build_gaussian
from solab.kernel import (
    EDGE_WIDTH,
    GridFn,
    derivative,
    fd_weights,
    integrate_cumulative,
    interpolate,
    nan_fill,
    sn_cn,
    solve_linear_ode2,
    solve_linear_ode2_with_derivative,
)

from .oracles import cosh_series, cubic_eval_reference, rk4_scalar_ode2, sinh_series

# frozen via the exponential-series oracle (see oracles.py)
SINH_1 = 1.1752011936438016
COSH_1 = 1.5430806348152437
SINH_2 = 3.626860407847018


def test_oracle_constants_are_what_the_series_says():
    assert sinh_series(1.0) == pytest.approx(SINH_1, abs=1e-15)
    assert cosh_series(1.0) == pytest.approx(COSH_1, abs=1e-15)
    assert sinh_series(2.0) == pytest.approx(SINH_2, abs=1e-14)


# ---------------------------------------------------------------------------
# sn_cn
# ---------------------------------------------------------------------------

def test_sn_flat_case_is_identity():
    assert sn_cn(0.0, 2.5)[0] == 2.5


def test_sn_positive_curvature():
    assert sn_cn(1.0, np.pi / 2)[0] == pytest.approx(1.0, abs=1e-15)


def test_sn_negative_curvature_matches_series_oracle():
    assert sn_cn(-1.0, 1.0)[0] == pytest.approx(SINH_1, abs=1e-14)


def test_cn_flat_case():
    assert sn_cn(0.0, 7.0)[1] == 1.0


def test_cn_positive_curvature():
    assert sn_cn(1.0, np.pi)[1] == pytest.approx(-1.0, abs=1e-15)


def test_cn_negative_curvature_matches_series_oracle():
    # cn_{-4}(0.5) = cosh(2 * 0.5) = cosh(1)
    assert sn_cn(-4.0, 0.5)[1] == pytest.approx(COSH_1, abs=1e-14)


def test_sn_cn_continuous_in_k_at_zero():
    t = 1.7
    for k in (1e-13, -1e-13):
        assert sn_cn(k, t)[0] == pytest.approx(t, abs=1e-12)
        assert sn_cn(k, t)[1] == pytest.approx(1.0, abs=1e-12)
    # no jump where the series branch hands over to the closed forms
    for k in (3.3e-9, -3.3e-9):  # |k| t^2 straddles the 1e-8 cutoff near t ~ 1.74
        for tt in (1.70, 1.78):
            assert sn_cn(k, tt)[0] == pytest.approx(tt * (1 - k * tt**2 / 6), abs=1e-13)
            assert sn_cn(k, tt)[1] == pytest.approx(1 - k * tt**2 / 2, abs=1e-13)


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
    assert np.array_equal(sn_cn(k, t)[0], np.where(near, sn_series, sn_closed))
    assert np.array_equal(sn_cn(k, t)[1], np.where(near, cn_series, cn_closed))


@pytest.mark.filterwarnings("error")
def test_sn_cn_series_finite_for_huge_k():
    # the series terms go through k t^2: k * k alone overflows above |k| ~ 1.3e154
    assert sn_cn(1e200, 0.0)[0] == 0.0
    np.testing.assert_allclose(sn_cn(-1e200, [0.0, 1e-105])[1], [1.0, 1.0 + 5e-11], rtol=1e-15, atol=0)


def _sn_by_expression(k, t):
    """sn_k(t) as its own function, closed form patched by the series
    below the 1e-8 cutoff on |k| t^2: the reference for sn_cn's first half."""
    k = float(k)
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if k == 0.0:
        out = tq.copy()
    else:
        r = np.sqrt(abs(k))
        out = (np.sin(r * tq) if k > 0 else np.sinh(r * tq)) / r
        near = np.flatnonzero(tq * tq * abs(k) < 1e-8)
        kt2 = k * (tq[near] * tq[near])
        out[near] = tq[near] * (1.0 - kt2 / 6.0 + kt2 * kt2 / 120.0)
    return float(out[0]) if np.ndim(t) == 0 else out


def _cn_by_expression(k, t):
    """cn_k(t) likewise: the reference for sn_cn's second half."""
    k = float(k)
    tq = np.atleast_1d(np.asarray(t, dtype=float))
    if k == 0.0:
        out = np.ones_like(tq)
    else:
        r = np.sqrt(abs(k))
        out = np.cos(r * tq) if k > 0 else np.cosh(r * tq)
        near = np.flatnonzero(tq * tq * abs(k) < 1e-8)
        kt2 = k * (tq[near] * tq[near])
        out[near] = 1.0 - kt2 / 2.0 + kt2 * kt2 / 24.0
    return float(out[0]) if np.ndim(t) == 0 else out


@pytest.mark.parametrize("k", [-1e200, -4.0, -3.3e-9, 0.0, 3.3e-9, 0.7, 1e200])
@pytest.mark.parametrize(
    "t",
    [np.linspace(-3.0, 3.0, 2001), np.array([0.0, 1e-105, 1e-5, 1.70, 1.78, -2.0]), 0.0, 1e-7, 1.78, -0.5],
    ids=["grid", "array", "zero", "tiny", "past_cutoff", "negative"],
)
def test_sn_cn_is_bitwise_the_separate_expressions(k, t):
    # |k| = 3.3e-9 puts 1.70 below the series cutoff and 1.78 above it;
    # |k| = 1e200 puts 1e-105 below it and every other nonzero sample above
    with np.errstate(over="ignore"):  # sinh and cosh of 1e100 t are inf on both sides
        s, c = sn_cn(k, t)
        s_ref, c_ref = _sn_by_expression(k, t), _cn_by_expression(k, t)
    if np.ndim(t) == 0:
        assert type(s) is float and type(c) is float
        assert (s, c) == (s_ref, c_ref)
    else:
        assert isinstance(s, np.ndarray) and isinstance(c, np.ndarray)
        assert np.array_equal(s, s_ref) and np.array_equal(c, c_ref)


def test_pythagorean_identity_all_sign_cases():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.uniform(-4.0, 4.0)
        t = rng.uniform(-2.0, 2.0)
        assert sn_cn(k, t)[1] ** 2 + k * sn_cn(k, t)[0] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_sn_solves_its_ode_against_rk4():
    rng = np.random.default_rng(11)
    for _ in range(8):
        k = rng.uniform(-4.0, 4.0)
        Q = GridFn(0.0, 2.0, np.full(2001, -k))
        y = solve_linear_ode2(Q, 0.0, 1.0)
        assert np.max(np.abs(y - sn_cn(k, Q.grid)[0])) < 1e-8


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
    t = np.linspace(0.0, 1.0, 101)
    df = derivative(t**2, 1.0 / 100, 1)
    assert np.max(np.abs(df - 2.0 * t)) < 1e-10


def test_derivative_constant_is_zero():
    assert np.max(np.abs(derivative(np.full(51, 3.0), 1.0 / 50, 1))) < 1e-12


def test_second_derivative_of_sine():
    t = np.linspace(0.0, np.pi, 400)
    d2 = derivative(np.sin(t), np.pi / 399, 2)
    assert np.max(np.abs(d2 + np.sin(t))) < 1e-8


def test_derivative_fourth_order_convergence():
    errs = []
    for n in (101, 201):
        t = np.linspace(0.0, 1.0, n)
        errs.append(np.max(np.abs(derivative(np.exp(t), 1.0 / (n - 1), 1) - np.exp(t))))
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
    h = (7.1 - 0.3) / (n - 1)
    interior = slice(EDGE_WIDTH, n - EDGE_WIDTH)  # the edge rows overwrite the rest
    expected = np.empty(n)
    expected[2 : n - 2] = _interior_by_expression(v, h, order)
    assert np.array_equal(derivative(v, h, order)[interior], expected[interior])


# ---------------------------------------------------------------------------
# integrate_cumulative
# ---------------------------------------------------------------------------

def test_cumulative_of_one():
    F = integrate_cumulative(np.ones(201), 2.0 / 200)
    assert F[0] == 0.0
    assert F[-1] == pytest.approx(2.0, abs=1e-13)


def test_cumulative_of_cos():
    F = integrate_cumulative(np.cos(np.linspace(0.0, np.pi / 2, 401)), np.pi / 2 / 400)
    assert F[-1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [101, 102])  # odd and even sample counts: both end rules
def test_cumulative_exact_on_cubic(n):
    t = np.linspace(0.0, 1.0, n)
    F = integrate_cumulative(t**3, 1.0 / (n - 1))
    assert F[-1] == pytest.approx(0.25, abs=1e-12)
    # every prefix is cubic-exact, odd indices included
    exact = t**4 / 4.0
    assert np.max(np.abs(F - exact)) < 1e-13


def _cumulative_by_expression(v, h):
    """The running integral written as whole-array expressions, one
    temporary per operation: the reference for the in-place kernel."""
    n = v.size
    F = np.zeros(n)
    F[2::2] = np.cumsum((h / 3.0) * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2]))
    m = (n - 3) // 2
    last = (h / 24.0) * (-v[1 : 1 + 2 * m : 2] + 13.0 * v[2 : 2 + 2 * m : 2] + 13.0 * v[3 : 3 + 2 * m : 2] - v[4 : 4 + 2 * m : 2])
    F[3 : 3 + 2 * m : 2] = F[2 : 2 + 2 * m : 2] + last
    F[1] = (h / 24.0) * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3])
    if n % 2 == 0:
        F[-1] = F[-2] + (h / 24.0) * (v[-4] - 5.0 * v[-3] + 19.0 * v[-2] + 9.0 * v[-1])
    return F


@pytest.mark.parametrize("n", [9, 10, 2001, 2002])
def test_cumulative_is_bitwise_the_rule_expressions(n):
    rng = np.random.default_rng(n)
    v = np.exp(rng.normal(scale=3.0, size=n)) * rng.choice([-1.0, 1.0], size=n)
    h = (7.1 - 0.3) / (n - 1)
    assert np.array_equal(integrate_cumulative(v, h), _cumulative_by_expression(v, h))


def test_cumulative_allocates_only_its_result():
    # at 1.6 arrays a half-grid temporary of the Simpson or end-rule sums
    # would show
    n = 200_001
    v = np.cos(np.linspace(0.0, 4.0, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        integrate_cumulative(v, 4.0 / (n - 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * n


def test_derivative_inverts_cumulative():
    for fn in (np.sin, lambda t: np.exp(-t) * np.cos(3 * t)):
        v, h = fn(np.linspace(0.0, np.pi, 2001)), np.pi / 2000
        back = derivative(integrate_cumulative(v, h), h, 1)
        assert np.max(np.abs(back - v)) < 1e-8


def test_second_derivative_of_cumulative_is_smooth():
    # d2/dt2 of the running integral should recover f' without an
    # even/odd sawtooth from the final-subinterval correction
    t, h = np.linspace(0.0, np.pi, 2001), np.pi / 2000
    d2 = derivative(integrate_cumulative(np.sin(t), h), h, 2)
    assert np.max(np.abs(d2 - np.cos(t))) < 1e-7


# ---------------------------------------------------------------------------
# solve_linear_ode2
# ---------------------------------------------------------------------------

def test_ode_zero_potential_gives_line():
    Q = GridFn(0.0, 1.0, np.zeros(101))
    y = solve_linear_ode2(Q, 0.0, 1.0)
    assert np.max(np.abs(y - Q.grid)) < 1e-12


def test_ode_unit_potential_gives_sinh():
    y = solve_linear_ode2(GridFn(0.0, 2.0, np.ones(2001)), 0.0, 1.0)
    assert y[-1] == pytest.approx(SINH_2, abs=1e-9)


def test_ode_negative_potential_gives_cos():
    y = solve_linear_ode2(GridFn(0.0, np.pi, np.full(2001, -1.0)), 1.0, 0.0)
    assert y[-1] == pytest.approx(-1.0, abs=1e-8)


def test_ode_variable_coefficient_against_reference():
    t = np.linspace(0.0, 2.0, 2001)
    Q = GridFn(0.0, 2.0, 1.0 + t**2)
    y = solve_linear_ode2(Q, 0.0, 1.0)
    ref, _ = rk4_scalar_ode2(lambda t: 1.0 + t * t, 0.0, 1.0, 0.0, 2.0, 4000)
    assert y[-1] == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n", [10, 11, 2001, 2003])
def test_ode_scan_matches_stepwise_rk4_on_a_cubic_potential(n):
    # cubic interpolation is exact for a cubic Q, so the grid solver and
    # the independent stepper take the same steps up to rounding; a slip
    # at a block boundary or in a partial last block shows at the end
    def q(t):
        return 1.0 + t - t**3 / 10.0

    y, v = solve_linear_ode2_with_derivative(GridFn(0.0, 2.0, q(np.linspace(0.0, 2.0, n))), 0.0, 1.0)
    ref_y, ref_v = rk4_scalar_ode2(q, 0.0, 1.0, 0.0, 2.0, n - 1)
    assert y[-1] == pytest.approx(ref_y, rel=1e-12)
    assert v[-1] == pytest.approx(ref_v, rel=1e-12)


def test_ode_overflow_detection():
    # the scan returns whatever IEEE gives: its first non-finite sample lies
    # at or past the first sample past 1e300 of a step-by-step march.
    # derive_setup owns h and h' and names the earlier of their first
    # non-finite samples; its G is q = -lambda0 / 2
    for q, t1, n, where in ((400.0, 40.0, 2001, 34.58), (100.0, 80.0, 20001, 69.148)):
        Q = GridFn(0.0, t1, np.full(n, q))
        y, v = solve_linear_ode2_with_derivative(Q, 0.0, 1.0)
        first = min(np.flatnonzero(~np.isfinite(a))[0] for a in (y, v))
        assert Q.grid[first] >= where
        with pytest.raises(NonFiniteValues, match=f"comparison setup: non-finite value at t = {Q.grid[first]:.6g}$"):
            derive_setup(build_gaussian(-2.0 * q, 3, r_max=t1, resolution=n))


def test_ode_peak_memory_stays_within_eleven_grid_arrays():
    n = 20001
    t = np.linspace(0.0, 2.0, n)
    Q = GridFn(0.0, 2.0, 1.0 + t**2)
    tracemalloc.start()
    try:
        solve_linear_ode2(Q, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 8 * n


def test_ode_derivative_channel():
    y, v = solve_linear_ode2_with_derivative(GridFn(0.0, 2.0, np.ones(2001)), 0.0, 1.0)
    assert v[0] == 1.0
    assert v[-1] == pytest.approx(np.cosh(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# GridFn plumbing
# ---------------------------------------------------------------------------

def test_gridfn_rejects_too_few_samples():
    with pytest.raises(ValueError):
        GridFn(0.0, 1.0, np.zeros(8))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GridFn(0.0, 1.0, np.zeros((2, 11))), "values must be one-dimensional"),
        (lambda: derivative(np.zeros(11), 0.1, 3), "order must be 1 or 2"),
    ],
    ids=["gridfn_2d_values", "derivative_order_3"],
)
def test_kernel_rejects_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_gridfn_owns_a_copy_and_kernel_outputs_keep_the_checks():
    v = np.linspace(0.0, 1.0, 11)
    f = GridFn(0.0, 1.0, v)
    assert not f.values.flags.writeable
    outputs = (
        derivative(v, f.h, 1),
        derivative(v, f.h, 2),
        integrate_cumulative(v, f.h),
        *solve_linear_ode2_with_derivative(f, 0.0, 1.0),
    )
    # every kernel output is a fresh array of its own, not the caller's
    assert not any(np.shares_memory(out, v) for out in outputs)
    # h^2 underflows to 0, and the second-derivative stencil divides by it:
    # the kernel returns the overflow, and the spec that owns the
    # derivatives refuses it (test_factory)
    assert np.isinf(derivative(v * v, 1e-300 / 10, 2)).all()


def test_gridfn_adopt_shares_the_array_and_keeps_the_checks():
    # the constructor adopts the caller's array: no copy, and the caller's
    # array keeps its flags
    v = np.linspace(0.0, 1.0, 11)
    f = GridFn(0.0, 1.0, v)
    assert np.shares_memory(f.values, v) and v.flags.writeable and not f.values.flags.writeable
    # an infinite sample is kept for the array's owner to judge
    # (require_finite, in test_factory and test_comparison)
    bad = v.copy()
    bad[3] = np.inf
    assert GridFn(0.0, 1.0, bad).values[3] == np.inf
    with pytest.raises(ValueError, match="at least"):
        GridFn(0.0, 1.0, np.zeros(8))
    with pytest.raises(ValueError, match="t1 > t0"):
        GridFn(1.0, 1.0, v)


def test_nan_fill_fills_the_pole_sample_only():
    # a NaN first sample is a pole's and takes its neighbour's value; a NaN
    # anywhere else is an overflow and stays, for the sup-norms to reject
    v = np.linspace(0.0, 1.0, 11)
    v[[0, -1]] = np.nan
    out = nan_fill(v)
    assert out[0] == out[1] and np.isnan(out[-1]) and np.isnan(v[0])
    assert nan_fill(out) is out  # nothing left to fill


def test_gridfn_interpolation_accuracy():
    f = GridFn(0.0, np.pi, np.sin(np.linspace(0.0, np.pi, 2001)))
    t = np.linspace(0.1, 3.0, 77)
    assert np.max(np.abs(f.eval(t) - np.sin(t))) < 1e-11
    assert f.eval(0.5) == pytest.approx(np.sin(0.5), abs=1e-11)


GRIDS = [(0.0, 2.0 * np.pi, 2001), (0.0, 8.0, 20001), (-1.0, 1.0, 1002)]


@pytest.mark.parametrize("t0, t1, n", GRIDS)
def test_interpolate_is_the_gridfn_rule_bit_for_bit(t0, t1, n):
    # inside [t0, t1], both ends included, the read takes the spacing of
    # the grid and no clamp: every value keeps the old rule's bits
    grid = np.linspace(t0, t1, n)
    v = np.exp(np.sin(3.0 * grid))
    h = (t1 - t0) / (n - 1)
    t = np.concatenate([grid, np.linspace(t0, t1, 7919), 0.5 * (grid[1:] + grid[:-1])])
    np.testing.assert_allclose(interpolate(v, t0, h, t), cubic_eval_reference(t0, t1, v, t), rtol=0, atol=0)
    for end in (t0, t1):
        assert interpolate(v, t0, h, end) == cubic_eval_reference(t0, t1, v, end)
    assert GridFn(t0, t1, v).eval(t1) == interpolate(v, t0, h, t1)


@pytest.mark.parametrize("t0, t1, n", GRIDS)
def test_interpolate_accepts_the_slack_past_each_end_and_no_more(t0, t1, n):
    grid = np.linspace(t0, t1, n)
    v, h, span = np.cos(grid), (t1 - t0) / (n - 1), t1 - t0
    # read off the end cubic, so within |cos'| 1e-10 (t1 - t0) of the end samples
    inside = interpolate(v, t0, h, np.array([t0 - 1e-10 * span, t1 + 1e-10 * span]))
    np.testing.assert_allclose(inside, [v[0], v[-1]], rtol=0, atol=2e-10 * span)
    for t in (t0 - 1e-8 * span, t1 + 1e-8 * span):
        with pytest.raises(ValueError, match="outside the grid domain"):
            interpolate(v, t0, h, t)
