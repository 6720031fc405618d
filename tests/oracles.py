"""Independent oracles used to freeze expected values in the tests.

These deliberately avoid the code paths under test: series instead of
library hyperbolics where the point is to check a special function,
brute-force quadrature / RK marching written inline where the point is to
check the kernel's quadrature or ODE solver.
"""

from math import factorial

import numpy as np


def exp_series(x: float, terms: int = 40) -> float:
    return sum(x ** j / factorial(j) for j in range(terms))


def sinh_series(x: float) -> float:
    return (exp_series(x) - exp_series(-x)) / 2.0


def cosh_series(x: float) -> float:
    return (exp_series(x) + exp_series(-x)) / 2.0


def quad_trapz(fn, a: float, b: float, n: int = 200_001) -> float:
    """Dense-trapezoid quadrature; crude but independent of the kernel."""
    t = np.linspace(a, b, n)
    return float(np.trapezoid(fn(t), t))


def rk4_scalar_ode2(qfun, y0: float, yp0: float, a: float, b: float, steps: int):
    """Reference RK4 for y'' = q(t) y, independent of the grid machinery."""
    h = (b - a) / steps
    y, v, t = y0, yp0, a
    for _ in range(steps):
        k1y, k1v = v, qfun(t) * y
        k2y, k2v = v + 0.5 * h * k1v, qfun(t + 0.5 * h) * (y + 0.5 * h * k1y)
        k3y, k3v = v + 0.5 * h * k2v, qfun(t + 0.5 * h) * (y + 0.5 * h * k2y)
        k4y, k4v = v + h * k3v, qfun(t + h) * (y + h * k3y)
        y += (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
        v += (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += h
    return y, v


def cubic_eval_reference(t0: float, t1: float, v: np.ndarray, t):
    """The cubic Lagrange read of samples v on [t0, t1] as GridFn.eval wrote
    it before the rule moved to kernel.interpolate: a point within the
    1e-9-relative slack past an end is clamped to that end."""
    tq = np.asarray(t, dtype=float)
    scalar = tq.ndim == 0
    tq = np.atleast_1d(tq)
    slack = 1e-9 * (t1 - t0)
    if (tq < t0 - slack).any() or (tq > t1 + slack).any():
        raise ValueError("evaluation point outside the grid domain")
    h = (t1 - t0) / (v.size - 1)
    s = (np.clip(tq, t0, t1) - t0) / h
    i = np.clip(np.floor(s).astype(int), 1, v.size - 3)
    u = s - i
    w_m1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w_0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w_1 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w_2 = (u + 1.0) * u * (u - 1.0) / 6.0
    out = w_m1 * v[i - 1] + w_0 * v[i] + w_1 * v[i + 1] + w_2 * v[i + 2]
    return float(out[0]) if scalar else out
