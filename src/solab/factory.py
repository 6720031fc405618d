"""Constructors for the explicit almost-soliton families.

Every constructor returns a SolitonSpec: a warped-product profile together
with a radial potential f and soliton function lambda satisfying

    Ric + Hess(f) = lambda <,>

on the working interval.  Closed-form families are built from analytic
derivatives and are expected to satisfy the defining equation to 1e-8;
the quadrature-built general family to 1e-6 at the default resolution.
The verifier module re-checks this for every constructed spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidCase, InvalidDimension, InvalidWarp
from .geometry import SnCombination, WarpProfile, radial_laplacian, require_dimension
from .kernel import GridFn, derivative, integrate_cumulative

__all__ = [
    "FamilyTag",
    "SolitonSpec",
    "build_einstein_family",
    "build_general_family",
    "build_classified",
    "build_gaussian",
    "CLOSED_FORM_TOL",
    "QUADRATURE_TOL",
    "DEFAULT_RESOLUTION",
]

# sup-norm residual each family is required to meet (composed O(h^4)
# stencil and Simpson error at the default 2001-sample resolution)
CLOSED_FORM_TOL = 1e-8
QUADRATURE_TOL = 1e-6

DEFAULT_RESOLUTION = 2001
DEFAULT_INTERVAL = (0.0, 4.0)


class FamilyTag(Enum):
    EINSTEIN_WARPED = "einstein_warped"
    GENERAL_WARPED = "general_warped"
    CLASSIFIED_SPACE_FORM = "classified_space_form"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class SolitonSpec:
    """A candidate gradient Ricci almost soliton on a warped product.

    Invariant (enforced by the verification suite rather than at
    construction, so that building and checking stay independent): the
    defining-equation residual stays below residual_tolerance.

    Note: with f and lambda both radial, df ^ dlambda = 0 holds by
    construction, so lambda is a function of f wherever df != 0; no test
    is needed for that compatibility.
    """

    profile: WarpProfile
    f: GridFn
    lam: GridFn
    family_tag: FamilyTag

    def __post_init__(self):
        p = self.profile
        if any((u.t0, u.t1, u.n_samples) != (p.t0, p.t1, p.n_samples) for u in (self.f, self.lam)):
            raise ValueError("f and lambda must live on the profile grid")
        p.require_finite("f and lambda", self.f.values, self.lam.values)

    @property
    def residual_tolerance(self) -> float:
        if self.family_tag is FamilyTag.GENERAL_WARPED:
            return QUADRATURE_TOL
        return CLOSED_FORM_TOL

    @cached_property
    def extrema(self) -> tuple:
        """(S_*, S^*, |T|^*, lambda_*, lambda^*), reduced once for the audits
        and the spec summary: grid stand-ins for the global quantities, the
        curvature ones over the trusted samples."""
        p = self.profile
        c = p.curvature
        band = p.trusted_band("grid extrema", c["S"], c["T_norm2"])
        S = c["S"][band]
        T_sup = math.sqrt(max(0.0, float(np.max(c["T_norm2"][band]))))
        lam = self.lam.values
        return float(np.min(S)), float(np.max(S)), T_sup, float(np.min(lam)), float(np.max(lam))

    @cached_property
    def _derivatives(self) -> tuple:
        """f', f'', lambda', lambda'' by stencil, read-only, computed and judged
        together on first use (a tiny h overflows; stencils spread a NaN pole)."""
        out = tuple(derivative(u.values, self.profile.h, order) for u in (self.f, self.lam) for order in (1, 2))
        self.profile.require_finite("derivatives of f and lambda", *out)
        for a in out:
            a.setflags(write=False)
        return out

    fp = property(lambda self: self._derivatives[0])
    fpp = property(lambda self: self._derivatives[1])
    lamp = property(lambda self: self._derivatives[2])
    lampp = property(lambda self: self._derivatives[3])

    @property
    def bakry_emery(self) -> tuple:
        """Eigenvalues (fiber, radial) of Ric + Hess f: rho_fib + f' g'/g and
        rho_rad + f''; both equal lambda on a true soliton."""
        c = self.profile.curvature
        with np.errstate(over="ignore", invalid="ignore"):  # left to the checks' finiteness tests
            return c["rho_fib"] + self.fp * self.profile.g_ratio, c["rho_rad"] + self.fpp

    @property
    def lap_lam(self) -> np.ndarray:
        """Plain Laplacian of lambda: lambda'' + d (g'/g) lambda'."""
        return radial_laplacian(self.profile, self.lamp, self.lampp)

    @property
    def hess_lam_T(self) -> np.ndarray:
        """Hess lambda contracted with the trace-free Ricci tensor T:
        d (lambda' g'/g) tau_f + lambda'' tau_r."""
        p = self.profile
        c = p.curvature
        with np.errstate(over="ignore", invalid="ignore"):  # left to the checks' finiteness tests
            return p.d * (self.lamp * p.g_ratio) * c["tau_f"] + self.lampp * c["tau_r"]

    def f_laplacian(self, u_values: np.ndarray) -> np.ndarray:
        """Weighted Laplacian Delta_f of the radial function with these
        samples; u_values is read, not copied, and must not change during
        the call."""
        p = self.profile
        return radial_laplacian(p, derivative(u_values, p.h, 1), derivative(u_values, p.h, 2), self.fp)


def build_einstein_family(
    c: float,
    g0: float,
    gp0: float,
    a: float,
    b: float,
    n: int,
    interval=DEFAULT_INTERVAL,
    resolution: int = DEFAULT_RESOLUTION,
) -> SolitonSpec:
    """Einstein warped product g'' = c g carrying the soliton structure

        f(t)      = a * integral_0^t g + b
        lambda(t) = a g'(t) - (n-1) c

    with g = gp0 * sn_{-c} + g0 * cn_{-c} and the fiber Einstein constant
    rho_sigma = (n-2) (gp0^2 - c g0^2) that makes the total space Einstein.
    """
    require_dimension(n)  # before n enters float arithmetic
    if n < 3:
        raise InvalidDimension("einstein family needs n >= 3")
    t0, t1 = float(interval[0]), float(interval[1])
    d = n - 1
    form = SnCombination(k=-float(c), c1=float(gp0), c2=float(g0))
    rho_sigma = (d - 1) * (gp0 * gp0 - c * g0 * g0)
    profile = WarpProfile(
        n=n,
        rho_sigma=rho_sigma,
        g=form,
        t0=t0,
        t1=t1,
        n_samples=resolution,
    )
    g, gp, _ = profile.warp_values
    f = GridFn(t0, t1, a * integrate_cumulative(g, profile.h) + b)
    lam = GridFn(t0, t1, a * gp - d * c)
    return SolitonSpec(profile=profile, f=f, lam=lam, family_tag=FamilyTag.EINSTEIN_WARPED)


def build_general_family(
    g,
    rho_sigma: float,
    A: float,
    B: float,
    n: int,
    interval=DEFAULT_INTERVAL,
    resolution: int = DEFAULT_RESOLUTION,
) -> SolitonSpec:
    """Almost soliton on I x_g Sigma for an arbitrary positive warp.

    With a = -rho_sigma / (n-2), the radial system integrates to

        h(t)      = (g'' g - g'^2 - a) / g^3
        f(t)      = B + integral_0^t g(s) [A + (n-2) integral_0^s h] ds
        lambda(t) = -(n-2) (g'^2 + a)/g^2 - g''/g + g'(t) [A + (n-2) integral_0^t h]

    (integrals anchored at the interval start; the constants A, B absorb
    the choice of anchor).  When g'' = c g with matching rho_sigma this
    degenerates to the Einstein family with (A, B) = (a, b).
    """
    if n < 3:
        raise InvalidDimension("general family needs n >= 3")
    t0, t1 = float(interval[0]), float(interval[1])
    d = n - 1
    profile = WarpProfile(
        n=n,
        rho_sigma=float(rho_sigma),
        g=g,
        t0=t0,
        t1=t1,
        n_samples=resolution,
    )
    gv, gp, gpp = profile.warp_values
    if np.min(gv) <= 0:
        raise InvalidWarp("general family needs g > 0 on the closed interval")
    a = -float(rho_sigma) / (d - 1)
    h = (gpp * gv - gp * gp - a) / gv**3
    inner = A + (d - 1) * integrate_cumulative(h, profile.h)
    f = GridFn(t0, t1, integrate_cumulative(gv * inner, profile.h) + B)
    lam = GridFn(t0, t1, -(d - 1) * (gp * gp + a) / gv**2 - gpp / gv + gp * inner)
    return SolitonSpec(profile=profile, f=f, lam=lam, family_tag=FamilyTag.GENERAL_WARPED)


def build_classified(
    c: float, a: float, b: float, n: int, r_max: float = 4.0, resolution: int = DEFAULT_RESOLUTION
) -> SolitonSpec:
    """Space-form model g = sn_{-c} with lambda = a cn_{-c}(r) - (n-1) c and
    f = a cn_{-c}(r) / c + b, the classified Einstein almost soliton of
    curvature -c; the flat one (c = 0) is build_gaussian, so c = 0 is
    rejected."""
    require_dimension(n)  # before n enters float arithmetic
    c, a, b, r_max = float(c), float(a), float(b), float(r_max)
    if c == 0.0:
        raise InvalidCase("space-form case requires c != 0")
    profile = WarpProfile(
        n=n,
        rho_sigma=float(n - 2),
        g=SnCombination(k=-c, c1=1.0, c2=0.0),
        t0=0.0,
        t1=r_max,
        n_samples=resolution,
    )
    cn_c = profile.warp_values[1]  # g = sn_{-c}, so g' = cn_{-c}
    lam = GridFn(0.0, r_max, a * cn_c - (n - 1) * c)
    f = GridFn(0.0, r_max, (a / c) * cn_c + b)
    return SolitonSpec(profile=profile, f=f, lam=lam, family_tag=FamilyTag.CLASSIFIED_SPACE_FORM)


def build_gaussian(lambda0: float, n: int, r_max: float = 8.0, resolution: int = DEFAULT_RESOLUTION) -> SolitonSpec:
    """Flat model with f = lambda0 r^2/2: shrinking for lambda0 > 0,
    steady (and trivial) for lambda0 = 0, expanding for lambda0 < 0."""
    if n < 2:
        raise InvalidDimension("gaussian needs n >= 2")
    require_dimension(n)  # before n enters float arithmetic
    lambda0, r_max = float(lambda0), float(r_max)
    profile = WarpProfile(
        n=n,
        rho_sigma=float(n - 2),
        g=SnCombination(k=0.0, c1=1.0, c2=0.0),
        t0=0.0,
        t1=r_max,
        n_samples=resolution,
    )
    t = profile.grid
    f = GridFn(0.0, r_max, 0.5 * lambda0 * t * t)
    lam = GridFn(0.0, r_max, np.full(resolution, lambda0))
    return SolitonSpec(profile=profile, f=f, lam=lam, family_tag=FamilyTag.GAUSSIAN)
