"""Weighted Laplacian and volume comparison on model manifolds.

From a soliton spec on a pole model the engine derives the smallest
admissible nondecreasing bound data: G (Ricci lower-bound profile), theta
(bound on -f'), and the comparison solution h of h'' = G h, h(0) = 0,
h'(0) = 1, with h' from the same RK4 scan.  The comparison statements are
sharp exactly on space-form models with constant potential, which is what
the equality tests exploit.  The multiplicative constants the existence
statements leave free are calibrated at the pole (or at a stated
calibration radius) so the equality cases are testable rather than vacuous.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidRegime, NegativeRadicand, NonFiniteValues
from .factory import SolitonSpec
from .geometry import integral_to, require_dimension, sphere_volume_density, weighted_ball_volume
from .kernel import GridFn, integrate_cumulative, nan_fill, solve_linear_ode2_with_derivative
from .verify import ResidualReport, residual_report

__all__ = [
    "ComparisonSetup",
    "VolestConstants",
    "VolumeBound",
    "derive_setup",
    "laplacian_comparison_check",
    "volume_bound_check",
    "volest_bound",
    "f_parabolic_test",
    "diameter_bound",
]

LAPLACIAN_COMPARISON_TOL = 1e-7
VOLUME_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class ComparisonSetup:
    """Bound data derived from a spec: G and theta (both forced
    nondecreasing by a running max), the comparison solution h and its
    slope hp = h' (arrays on the profile's grid, G a GridFn for reads
    between samples)."""

    G: GridFn
    theta: np.ndarray
    h: np.ndarray
    hp: np.ndarray

    def __post_init__(self):
        if abs(self.h[0]) > 1e-10:
            raise ValueError("comparison solution must vanish at the pole")
        if np.any(np.diff(self.theta) < -1e-12):
            raise ValueError("theta must be nondecreasing")


def derive_setup(s: SolitonSpec) -> ComparisonSetup:
    """Extract (G, theta, h, h') from a spec, theta, h and h' read-only.

    The Bakry-Emery eigenvalues are rho_fib + f' g'/g and rho_rad + f''
    (both equal lambda on a true soliton); G is the running max of
    max(0, -min_eig/(n-1)) and theta the running max of max(0, -f'),
    the smallest nondecreasing data the comparison hypotheses admit.
    """
    p = s.profile
    p.require_model()
    # each grid is built just before it is read, so the RK4 scan's step
    # matrices never share the heap with min_eig or theta
    min_eig = nan_fill(np.minimum(*s.bakry_emery))
    G = GridFn(p.t0, p.t1, np.maximum.accumulate(np.maximum(0.0, -min_eig / (p.n - 1))))
    del min_eig
    h, hp = solve_linear_ode2_with_derivative(G, 0.0, 1.0)
    theta = np.maximum.accumulate(np.maximum(0.0, -s.fp))
    p.require_finite("comparison setup", G.values, theta, h, hp)
    for a in (theta, h, hp):
        a.setflags(write=False)
    return ComparisonSetup(G=G, theta=theta, h=h, hp=hp)


def laplacian_comparison_check(s: SolitonSpec, cs: ComparisonSetup) -> ResidualReport:
    """One-sided check of the distance-Laplacian bound

        Delta_f r  <=  (n-1) h'/h + theta(r).

    per_point is (actual - bound); the check passes when the actual value
    never exceeds the bound beyond tolerance.  Space-form models with
    constant potential achieve equality.
    """
    p = s.profile
    p.require_model()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # left to residual_report
        per = p.d * p.g_ratio
        per -= s.fp
        bound = (p.n - 1) * cs.hp
        bound /= cs.h
        bound += cs.theta
        per -= bound  # actual - bound
    del bound
    return residual_report("laplacian_comparison", p, per, LAPLACIAN_COMPARISON_TOL, one_sided=True)


class VolumeBound(NamedTuple):
    """Ball volume, its bound and the verdict: floats and a bool for one
    radius, arrays for an array of radii."""

    actual: float
    bound: float
    passed: bool


def volume_bound_check(s: SolitonSpec, cs: ComparisonSetup, r: float | np.ndarray) -> VolumeBound:
    """Weighted ball volume against the comparison bound

        vol_f(B_r) <= D * integral_0^r h(t)^(n-1) e^(int_0^t theta) dt

    with D calibrated so the two densities agree at the pole
    (D = fiber_volume * e^(-f(pole)), exact for models).  r is one radius
    or an array of radii (as for interpolate); the volume curves are
    integrated once either way, up to the largest radius (integral_to)."""
    p = s.profile
    p.require_model()
    actual = weighted_ball_volume(p, s.f, r)
    Theta = integrate_cumulative(cs.theta, p.h)
    with np.errstate(over="ignore"):  # an infinite D sends the bound to its log path
        D = p.fiber_volume * float(np.exp(-s.f.values[0]))
    bound = None
    if 0.0 < D < math.inf:  # the direct path, unless the prefix integral_to reads leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):  # left to integral_to
            integrand = cs.h ** (p.n - 1)
            integrand *= np.exp(Theta)
        try:
            bound = D * integral_to(p, "volume_bound", integrand, r)
        except NonFiniteValues:
            pass
    if bound is None:  # D h^(n-1) e^Theta as one density, in logs where a factor leaves the float range
        integrand = sphere_volume_density(p, cs.h, s.f.values[0] - Theta)
        bound = integral_to(p, "volume_bound", integrand, r)
    return VolumeBound(actual, bound, actual <= bound * (1 + VOLUME_BOUND_SLACK))


# ---------------------------------------------------------------------------
# decay-rate volume estimates
# ---------------------------------------------------------------------------

def _require_finite_args(**args: float) -> None:
    """Refuse a non-finite scalar argument with a ValueError that names it."""
    for name, x in args.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, not {x!r}")


@dataclass(frozen=True)
class VolestConstants:
    """Calibration data for the decay-rate sphere/ball bounds: the
    calibration radius, the distance-Laplacian value C there, and the
    actual sphere/ball volumes there."""

    r0: float
    C: float
    sphere_vol_r0: float
    ball_vol_r0: float


def volest_bound(D: float, mu: float, constants: VolestConstants, r: float) -> tuple[float, float]:
    """Sphere and ball volume bounds under Ric_f >= D (1+r)^(-mu).

    Integrating the Riccati bound phi_f' <= -Ric_f gives

        Delta_f r <= C - integral_{r0}^r D (1+s)^(-mu) ds,

    and exponentiating the double integral yields the bound families
    e^(-C2 r^(2-mu)) (0 <= mu < 1), e^(-C2 r log(1+r)) (mu = 1) for D > 0,
    e^(C r) for D = 0, and the growing counterparts for D < 0.  The inner
    integral is closed-form; the outer ones are evaluated by quadrature.
    """
    if not 0 <= mu < math.inf:
        raise InvalidRegime(f"mu must be finite and nonnegative, not {mu!r}")
    _require_finite_args(D=D, r=r, **{f"constants.{k}": v for k, v in asdict(constants).items()})
    r = float(r)
    r0 = constants.r0
    if r < r0:
        raise ValueError("evaluation radius below the calibration radius")
    if r == r0:
        return constants.sphere_vol_r0, constants.ball_vol_r0

    t = np.linspace(r0, r, 2001)
    h = (r - r0) / (t.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past the float range is refused below
        if mu == 1.0:
            inner = D * (np.log1p(t) - math.log1p(r0))
        else:
            inner = D * ((1.0 + t) ** (1.0 - mu) - (1.0 + r0) ** (1.0 - mu)) / (1.0 - mu)
        J = integrate_cumulative(inner, h)
        sphere_vals = constants.sphere_vol_r0 * np.exp(constants.C * (t - r0) - J)
    ball = constants.ball_vol_r0 + float(integrate_cumulative(sphere_vals, h)[-1])
    if not (np.isfinite(J).all() and math.isfinite(ball)):  # an infinite J reads as a sphere volume of 0
        raise NonFiniteValues(f"volest_bound: the bound leaves the float range on [{r0:g}, {r:g}]")
    return float(sphere_vals[-1]), ball


# ---------------------------------------------------------------------------
# parabolicity and diameter
# ---------------------------------------------------------------------------

class ParabolicVerdict(NamedTuple):
    integral_growth: tuple
    verdict: str  # "LikelyParabolic" | "LikelyNonParabolic"


def f_parabolic_test(s: SolitonSpec, r_max: float) -> ParabolicVerdict:
    """Divergence heuristic for integral_2^T dt / vol_f(boundary B_t).

    Partial integrals at T = r_max/4, r_max/2, r_max; LikelyParabolic when
    the last increment still carries more than 25% of the total (the
    integral has not settled, consistent with divergence)."""
    p = s.profile
    p.require_model()
    r_max = float(r_max)
    if r_max / 4 < 2.0 or r_max > p.t1 + 1e-12:
        raise ValueError("need 8 <= r_max <= profile end")
    dens = sphere_volume_density(p, p.g_values, s.f.values)
    with np.errstate(divide="ignore", over="ignore"):  # left to require_finite
        integrand = 1.0 / dens
    integrand[0] = 0.0  # the pole, 1/0, lies below the test's start at t = 2
    F = integral_to(p, "f_parabolic", integrand, np.array([2.0, r_max / 4, r_max / 2, r_max]))
    partials = tuple((F[1:] - F[0]).tolist())
    total = partials[-1]
    last_increment = partials[-1] - partials[-2]
    verdict = "LikelyParabolic" if last_increment > 0.25 * total else "LikelyNonParabolic"
    return ParabolicVerdict(partials, verdict)


def diameter_bound(mu0: float, F: float, c: float, n: int) -> float:
    """Compactness diameter bound (1/mu0) [2F + sqrt(4F^2 + pi^2 (n-1) c)].

    Sharp on the unit round sphere (mu0 = n-1, F = 0, c = n-1 gives pi).
    F = c = 0 returns 0, a degenerate bound reported as-is (it flags a
    vacuous curvature ceiling rather than an error)."""
    _require_finite_args(mu0=mu0, F=F, c=c)
    require_dimension(n)
    if not mu0 > 0:
        raise ValueError("mu0 must be positive")
    if F < 0:
        raise ValueError("F must be nonnegative")
    radicand = 4.0 * F * F + math.pi**2 * (n - 1) * c
    if radicand < 0:
        raise NegativeRadicand(f"4F^2 + pi^2 (n-1) c = {radicand:.6g} < 0")
    return (2.0 * F + math.sqrt(radicand)) / mu0
