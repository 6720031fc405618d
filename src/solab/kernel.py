"""One-dimensional numerical substrate.

Uniform-grid functions with 4th-order differentiation and cumulative
quadrature, the generalized sine/cosine pair sn_k / cn_k, and a fixed-step
RK4 solver for y'' = Q(t) y.  Everything downstream (curvature, soliton
residuals, volume comparison) is built on these primitives, so the accuracy
contracts here are the binding ones: O(h^4) for derivatives and integrals on
smooth data, including second derivatives of composed integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonFiniteValues, OverflowDetected

__all__ = [
    "GridFn",
    "sn",
    "cn",
    "derivative",
    "nan_fill",
    "integrate_cumulative",
    "solve_linear_ode2",
    "solve_linear_ode2_with_derivative",
    "fd_weights",
    "EDGE_WIDTH",
    "MIN_SAMPLES",
]

# Width of the one-sided stencil band at each end of the grid.  Grids must
# contain at least one centered-stencil point between the two bands.
EDGE_WIDTH = 4
MIN_SAMPLES = 2 * EDGE_WIDTH + 1


@dataclass(frozen=True)
class GridFn:
    """A real function of one variable sampled on a uniform grid.

    Values must be free of infinities.  NaN is tolerated at isolated
    samples (it marks points where a quantity is undefined, e.g. a ratio
    at a model pole); all quadrature and sup-norm consumers either see
    finite data or mask NaN explicitly.
    """

    t0: float
    t1: float
    values: np.ndarray

    def __post_init__(self):
        # own a frozen copy: freezing a caller's array in place would be
        # a visible side effect
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def adopt(cls, t0: float, t1: float, values: np.ndarray) -> "GridFn":
        """A GridFn over a float array the caller hands over and no longer
        writes to: the same checks as the constructor, without its
        defensive copy.  It reads the array through a read-only view, so
        the caller's own array keeps its flags."""
        out = object.__new__(cls)
        object.__setattr__(out, "t0", t0)
        object.__setattr__(out, "t1", t1)
        out._own(np.asarray(values, dtype=float).view())
        return out

    def _own(self, vals: np.ndarray) -> None:
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("GridFn values must be one-dimensional")
        if vals.size < MIN_SAMPLES:
            raise ValueError(f"GridFn needs at least {MIN_SAMPLES} samples, got {vals.size}")
        if not self.t1 > self.t0:
            raise ValueError("GridFn requires t1 > t0")
        if np.isinf(vals).any():
            raise NonFiniteValues("GridFn values must not contain infinities")

    @property
    def n_samples(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n_samples - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_samples)

    @classmethod
    def from_callable(cls, fn: Callable, t0: float, t1: float, n_samples: int) -> "GridFn":
        t = np.linspace(t0, t1, n_samples)
        return cls(t0, t1, np.asarray(fn(t), dtype=float))

    @classmethod
    def constant(cls, value: float, t0: float, t1: float, n_samples: int) -> "GridFn":
        return cls(t0, t1, np.full(n_samples, float(value)))

    def with_values(self, values: np.ndarray) -> "GridFn":
        """Same grid, new samples."""
        return GridFn(self.t0, self.t1, values)

    def same_grid(self, other: "GridFn") -> bool:
        return (
            self.n_samples == other.n_samples
            and abs(self.t0 - other.t0) <= 1e-12 * (1 + abs(self.t0))
            and abs(self.t1 - other.t1) <= 1e-12 * (1 + abs(self.t1))
        )

    def eval(self, t):
        """Evaluate at arbitrary points by 4-point (cubic) Lagrange interpolation.

        O(h^4) accurate on smooth data.  Points may sit anywhere in
        [t0, t1] (a 1e-9-relative slack beyond the ends is tolerated and
        clamped).
        """
        tq = np.asarray(t, dtype=float)
        scalar = tq.ndim == 0
        tq = np.atleast_1d(tq)
        slack = 1e-9 * (self.t1 - self.t0)
        if (tq < self.t0 - slack).any() or (tq > self.t1 + slack).any():
            raise ValueError("evaluation point outside the grid domain")
        s = (np.clip(tq, self.t0, self.t1) - self.t0) / self.h
        i = np.clip(np.floor(s).astype(int), 1, self.n_samples - 3)
        u = s - i
        v = self.values
        w_m1 = -u * (u - 1.0) * (u - 2.0) / 6.0
        w_0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
        w_1 = -(u + 1.0) * u * (u - 2.0) / 2.0
        w_2 = (u + 1.0) * u * (u - 1.0) / 6.0
        out = w_m1 * v[i - 1] + w_0 * v[i] + w_1 * v[i + 1] + w_2 * v[i + 2]
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# generalized sine / cosine
# ---------------------------------------------------------------------------

# Below this threshold on |k| t^2 the closed forms lose digits to
# cancellation; the unified power series (identical for all signs of k)
# takes over, which also enforces continuity in k across k = 0.
_SERIES_CUTOFF = 1e-8


def _near_zero(k: float, tq: np.ndarray) -> np.ndarray:
    """Indices of the samples where the closed forms give way to the series."""
    t2 = tq * tq
    t2 *= abs(k)
    return np.flatnonzero(t2 < _SERIES_CUTOFF)


def sn(k: float, t):
    """Generalized sine: the solution of y'' + k y = 0, y(0)=0, y'(0)=1.

    sinh(sqrt(-k) t)/sqrt(-k) for k < 0, t for k = 0, sin(sqrt(k) t)/sqrt(k)
    for k > 0.  Accepts scalars or arrays in t.
    """
    k = float(k)
    tq = np.asarray(t, dtype=float)
    scalar = tq.ndim == 0
    tq = np.atleast_1d(tq)
    if k == 0.0:
        out = tq.copy()
    else:
        r = np.sqrt(abs(k))
        out = np.sin(r * tq) if k > 0 else np.sinh(r * tq)
        out /= r
        near = _near_zero(k, tq)
        ts = tq[near]
        kt2 = k * (ts * ts)  # k * k would overflow for |k| above about 1e154
        out[near] = ts * (1.0 - kt2 / 6.0 + kt2 * kt2 / 120.0)
    return float(out[0]) if scalar else out


def cn(k: float, t):
    """Derivative of sn in t: cosh, 1, or cos according to the sign of k."""
    k = float(k)
    tq = np.asarray(t, dtype=float)
    scalar = tq.ndim == 0
    tq = np.atleast_1d(tq)
    if k == 0.0:
        out = np.ones_like(tq)
    else:
        r = np.sqrt(abs(k))
        out = np.cos(r * tq) if k > 0 else np.cosh(r * tq)
        near = _near_zero(k, tq)
        kt2 = k * (tq[near] * tq[near])
        out[near] = 1.0 - kt2 / 2.0 + kt2 * kt2 / 24.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_weights(offsets, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights at x0 for the given derivative order.

    Fornberg's recursion on the (unit-spaced) node offsets.  Divide by
    h**order for a physical grid spacing h.
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for m in range(mn, 0, -1):
                    c[i, m] = c1 * (m * c[i - 1, m - 1] - c5 * c[i - 1, m]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for m in range(mn, 0, -1):
                c[j, m] = (c4 * c[j, m] - m * c[j, m - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=None)
def _edge_weight_table(order: int) -> np.ndarray:
    """Rows i = 0..3: one-sided 4th-order weights over the first cluster.

    First derivatives use a 5-node cluster, second derivatives a 6-node
    cluster; both give O(h^4) at every row.  Mirror (with sign for odd
    orders) for the right edge.
    """
    width = 5 if order == 1 else 6
    rows = []
    for i in range(EDGE_WIDTH):
        w = fd_weights(np.arange(width), float(i), order)
        # differentiation must annihilate constants exactly; park the
        # rounding residue of the recursion on the largest weight
        w[np.argmax(np.abs(w))] -= w.sum()
        rows.append(w)
    return np.vstack(rows)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def derivative(f: GridFn, order: int = 1) -> GridFn:
    """Differentiate on the grid: 4th-order centered stencils in the
    interior, one-sided 4th-order stencils at the 4 boundary points of
    each side; an overflow (a tiny h) is left to GridFn's check."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    v = f.values
    n = v.size
    h = f.h
    scale = h ** order
    out = np.empty(n)

    # integer-weight pairing so that constants cancel exactly before the
    # 1/h**order amplification; evaluated in place in the interior of out
    mid = out[2 : n - 2]
    if order == 1:
        # 8 (v[i+1] - v[i-1]) + (v[i-2] - v[i+2])
        np.subtract(v[3 : n - 1], v[1 : n - 3], out=mid)
        mid *= 8.0
        mid += v[0 : n - 4] - v[4:n]
    else:
        # 16 (v[i-1] + v[i+1]) - (v[i-2] + v[i+2]) - 30 v[i]
        np.add(v[1 : n - 3], v[3 : n - 1], out=mid)
        mid *= 16.0
        pair = v[0 : n - 4] + v[4:n]
        mid -= pair
        mid -= np.multiply(v[2 : n - 2], 30.0, out=pair)
    mid /= 12.0 * scale

    edge = _edge_weight_table(order)
    width = edge.shape[1]
    out[:EDGE_WIDTH] = edge @ v[:width] / scale
    # right edge: same cluster viewed from the far end (row i lands at
    # index n-1-i, with the axis flip negating odd derivative orders)
    sign = -1.0 if order % 2 else 1.0
    out[n - EDGE_WIDTH :] = (sign * (edge @ v[: n - width - 1 : -1]) / scale)[::-1]
    return GridFn.adopt(f.t0, f.t1, out)


def nan_fill(arr: np.ndarray) -> np.ndarray:
    """Replace leading/trailing NaN (pole samples) by the nearest finite
    value so stencils near the trusted region stay clean; the polluted
    band is excluded from sup-norms anyway."""
    if np.isfinite(arr).all():
        return arr
    out = arr.copy()
    finite = np.flatnonzero(np.isfinite(out))
    if finite.size == 0:
        raise NonFiniteValues("array has no finite samples")
    out[: finite[0]] = out[finite[0]]
    out[finite[-1] + 1 :] = out[finite[-1]]
    return out


# ---------------------------------------------------------------------------
# cumulative quadrature
# ---------------------------------------------------------------------------

def integrate_cumulative(f: GridFn) -> GridFn:
    """Running integral F with F(t0) = 0 and F' = f, O(h^4) on smooth data.

    Even-index prefixes are composite Simpson.  Odd-index prefixes append a
    corrected trapezoid over the final subinterval (cubic through the two
    neighbours on each side); a plain trapezoid there would leave an O(h^3)
    even/odd sawtooth that second derivatives of the result amplify to
    O(h), which the identity suite cannot afford.
    """
    v = f.values
    n = v.size
    h = f.h
    F = np.zeros(n)
    # near the float limit, sum scaled by an exact power of two: 4 v must not overflow
    shift = max(0, math.frexp(max(abs(float(v.max())), abs(float(v.min()))))[1] - 1000)
    v = v * 2.0**-shift if shift else v
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to GridFn's check
        pairs = (h / 3.0) * (v[0:-2:2] + 4.0 * v[1:-1:2] + v[2::2])
        F[2::2] = np.cumsum(pairs)

        # odd k = 3, 5, ... with a node past k: the 4-point rule over
        # [k-1, k]; an odd last index uses the left-sided end rule below
        m = (n - 3) // 2
        last = (h / 24.0) * (-v[1 : 1 + 2 * m : 2] + 13.0 * v[2 : 2 + 2 * m : 2] + 13.0 * v[3 : 3 + 2 * m : 2] - v[4 : 4 + 2 * m : 2])
        F[3 : 3 + 2 * m : 2] = F[2 : 2 + 2 * m : 2] + last
        F[1] = (h / 24.0) * (9.0 * v[0] + 19.0 * v[1] - 5.0 * v[2] + v[3])
        if n % 2 == 0:
            i = n - 1
            F[i] = F[i - 1] + (h / 24.0) * (v[i - 3] - 5.0 * v[i - 2] + 19.0 * v[i - 1] + 9.0 * v[i])
        if shift:
            F *= 2.0**shift
    return GridFn.adopt(f.t0, f.t1, F)


# ---------------------------------------------------------------------------
# second-order linear ODE
# ---------------------------------------------------------------------------

def _rk4_step_matrices(Q: GridFn):
    """Entries (m00, m01, m10, m11) of every RK4 step x_{i+1} = M_i x_i for
    y'' = Q y, with x = (y, y').

    Q at the half steps is the cubic through the four nearest samples, the
    same interpolant as Q.eval up to rounding: weights (-1, 9, 9, -1)/16 inside, the first
    and last four samples on the end intervals.  Only the four entry arrays
    outlive the call, so the peak stays near 5 arrays of the grid's size.
    """
    q = Q.values
    h = Q.h
    q0, q1 = q[:-1], q[1:]
    qh = q0 + q1
    qh *= 9.0
    qh[1:-1] -= q[:-3] + q[3:]
    qh[0] = 5.0 * q[0] + 15.0 * q[1] - 5.0 * q[2] + q[3]
    qh[-1] = q[-4] - 5.0 * q[-3] + 15.0 * q[-2] + 5.0 * q[-1]
    qh /= 16.0

    # m01 = h + h^3/6 qh
    m01 = qh * (h**3 / 6.0)
    m01 += h
    # m10 = h/6 (q0 + 4 qh + q1 + h^2/2 qh (q0 + q1))
    s = q0 + q1
    m10 = s * qh
    m10 *= h * h / 2.0
    m10 += s
    np.multiply(qh, 4.0, out=s)
    m10 += s
    m10 *= h / 6.0
    del s
    # m00 = 1 + h^2/6 (q0 + 2 qh + h^2/4 q0 qh), m11 the same with q1
    diag = []
    for qe in (q0, q1):
        m = qe * qh
        m *= h * h / 4.0
        m += qe
        m += qh
        m += qh
        m *= h * h / 6.0
        m += 1.0
        diag.append(m)
    return diag[0], m01, m10, diag[1]


def _transfer_scan(m00, m01, m10, m11, y0: float, yp0: float):
    """States x_0 .. x_N of x_{i+1} = M_i x_i, x_0 = (y0, yp0), in O(N) work.

    The N steps form blocks of L consecutive steps.  Sweep 1 multiplies
    out each full block's transfer matrix with L vectorized 2x2 products
    over strided views (block b, step j is index b*L + j); a scalar loop
    carries the state across the N/L blocks; sweep 2 marches every block
    from its start state, writing straight into y and y'.  Scratch beyond
    the outputs is O(sqrt(N)).  A vectorized step (a dozen numpy calls)
    costs about four scalar carry steps, so L = sqrt(N/8) balances the 2L
    of the one against the N/L of the other.
    """
    N = m00.size
    L = max(2, math.isqrt(N // 8))
    nb = N // L
    y = np.empty(N + 1)
    v = np.empty(N + 1)

    full = slice(0, nb * L, L)
    p00, p01, p10, p11 = m00[full].copy(), m01[full].copy(), m10[full].copy(), m11[full].copy()
    for j in range(1, L):
        full = slice(j, j + nb * L, L)
        a, b, c, d = m00[full], m01[full], m10[full], m11[full]
        p00, p01, p10, p11 = a * p00 + b * p10, a * p01 + b * p11, c * p00 + d * p10, c * p01 + d * p11

    # block-start states; a trailing partial block needs its start too
    starts = [(float(y0), float(yp0))]
    for b00, b01, b10, b11 in zip(p00.tolist(), p01.tolist(), p10.tolist(), p11.tolist()):
        if len(starts) * L >= N:
            break
        ys, vs = starts[-1]
        starts.append((b00 * ys + b01 * vs, b10 * ys + b11 * vs))
    y[0:N:L], v[0:N:L] = zip(*starts)

    for j in range(L):
        steps, after = slice(j, N, L), slice(j + 1, N + 1, L)
        a, b, c, d = m00[steps], m01[steps], m10[steps], m11[steps]
        ys, vs = y[steps], v[steps]
        y_next = a * ys + b * vs
        v[after] = c * ys + d * vs
        y[after] = y_next
    return y, v


def _rk4_linear(Q: GridFn, y0: float, yp0: float):
    with np.errstate(over="ignore", invalid="ignore"):
        y, v = _transfer_scan(*_rk4_step_matrices(Q), y0, yp0)
        # strict > lets NaN through, as the step-by-step check did
        big = np.abs(y[1:]) > 1e300
        big |= np.abs(v[1:]) > 1e300
    if big.any():
        i = int(np.argmax(big)) + 1
        raise OverflowDetected(f"solution exceeded 1e300 near t = {Q.t0 + i * Q.h:.6g}")
    return GridFn.adopt(Q.t0, Q.t1, y), GridFn.adopt(Q.t0, Q.t1, v)


def solve_linear_ode2(Q: GridFn, y0: float, yp0: float) -> GridFn:
    """Solve y'' = Q(t) y with y(t0) = y0, y'(t0) = yp0.

    Classical RK4 on the grid spacing, with Q interpolated cubically at
    half steps; global error O(h^4).  Each step is a 2x2 matrix acting on
    (y, y'); a blocked transfer-matrix scan multiplies them out in O(n)
    work.  Raises OverflowDetected at the first sample where |y| or |y'|
    exceeds 1e300.
    """
    y, _ = _rk4_linear(Q, y0, yp0)
    return y


def solve_linear_ode2_with_derivative(Q: GridFn, y0: float, yp0: float):
    """Like solve_linear_ode2 but also returns y' on the grid (from the
    integrated system, not a stencil)."""
    return _rk4_linear(Q, y0, yp0)
