"""Curvature and weighted calculus on warped products I x_g Sigma.

Conventions, used everywhere in this package: n = dim M, d = n - 1 = dim
Sigma.  The fiber's Einstein constant is stored directly as the eigenvalue
rho_sigma of its Ricci tensor in an orthonormal frame (so the unit round
d-sphere has rho_sigma = d - 1); texts that write the fiber condition as
Ric = -(d-1) a (,) relate to this by a = -rho_sigma / (d - 1).

Pointwise Ricci eigenvalues of the warped metric dt^2 + g(t)^2 (,)_Sigma:

    fiber:   -(d-1) (g'/g)^2 - g''/g + rho_sigma / g^2
    radial:  -d g''/g

A profile with a pole (g(t0) = 0, g'(t0) = 1, unit-sphere fiber) is a model
manifold: geodesic spheres about the pole are fiber copies, which is what
the weighted volume operations rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidWarp, NoTrustedSamples, NotAModel, PoleSingularity
from .kernel import GridFn, cn, derivative, integrate_cumulative, sn

__all__ = [
    "SnCombination",
    "Polynomial",
    "WarpProfile",
    "CurvatureSample",
    "unit_sphere_volume",
    "curvature_at",
    "curvature_grids",
    "radial_hessian",
    "f_laplacian",
    "weighted_sphere_volume",
    "weighted_ball_volume",
]

# samples within 10 grid spacings of a pole are excluded from sup-norms;
# ratios like g'/g amplify stencil noise there
POLE_EXCLUSION_STEPS = 10


def unit_sphere_volume(d: int) -> float:
    """Riemannian volume of the unit round d-sphere."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# ---------------------------------------------------------------------------
# closed-form warping functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnCombination:
    """t -> c1 * sn_k(t) + c2 * cn_k(t); derivatives are analytic."""

    k: float
    c1: float
    c2: float

    def value(self, t):
        return self.c1 * sn(self.k, t) + self.c2 * cn(self.k, t)

    def d1(self, t):
        # cn' = -k sn
        return self.c1 * cn(self.k, t) - self.c2 * self.k * sn(self.k, t)

    def d2(self, t):
        return -self.k * self.value(t)


@dataclass(frozen=True)
class Polynomial:
    """t -> sum coeffs[j] * t^j (ascending order)."""

    coeffs: tuple

    def _poly(self, c, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for a in reversed(c):
            out = out * t + a
        return out if np.ndim(t) else float(out)

    def value(self, t):
        return self._poly(self.coeffs, t)

    def d1(self, t):
        return self._poly(tuple(j * a for j, a in enumerate(self.coeffs))[1:] or (0.0,), t)

    def d2(self, t):
        return self._poly(tuple(j * (j - 1) * a for j, a in enumerate(self.coeffs))[2:] or (0.0,), t)


ClosedForm = SnCombination | Polynomial


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpProfile:
    """A warped-product geometry I x_g Sigma^d with Einstein fiber.

    Parameters
    ----------
    n : total dimension (>= 2; the d = 1 fiber case only arises for the
        flat plane used by the parabolicity checks and forces rho_sigma = 0)
    rho_sigma : fiber Ricci eigenvalue
    g : warping function, closed form or tabulated GridFn on [t0, t1]
    t0, t1, n_samples : working grid
    pole : t0 is a model-manifold pole (g(t0) = 0, g'(t0) = 1, unit-sphere
        fiber)
    fiber_constant_curvature : the fiber is declared a space form, which is
        exactly the conformal-flatness condition for the warped metric
    fiber_volume : total Riemannian volume of the fiber
    """

    n: int
    rho_sigma: float
    g: ClosedForm | GridFn
    t0: float
    t1: float
    n_samples: int
    pole: bool = False
    fiber_constant_curvature: bool = False
    fiber_volume: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("total dimension must be at least 2")
        if self.n == 2 and abs(self.rho_sigma) > 1e-14:
            raise ValueError("a one-dimensional fiber is Ricci flat: rho_sigma must be 0")
        if isinstance(self.g, GridFn):
            if not self.g.same_grid(GridFn(self.t0, self.t1, np.zeros(self.n_samples))):
                raise ValueError("tabulated g must live on the profile grid")
        if self.fiber_volume is None:
            vol = unit_sphere_volume(self.d) if self._unit_sphere_fiber() else 1.0
            object.__setattr__(self, "fiber_volume", vol)
        if not self.fiber_volume > 0:
            raise ValueError("fiber_volume must be positive")

        gvals = self.warp_values[0]
        if np.min(gvals[1:-1]) <= 0 or (not self.pole and (gvals[0] <= 0 or gvals[-1] <= 0)):
            raise InvalidWarp("warping function must be positive on the interval")
        if self.pole:
            g0 = float(self.g_at(self.t0))
            gp0 = float(self.g_prime_at(self.t0))
            if abs(g0) > 1e-10 or abs(gp0 - 1.0) > 1e-10:
                raise ValueError("pole requires g(t0) = 0 and g'(t0) = 1")
            if not self._unit_sphere_fiber():
                raise ValueError("pole requires the unit round sphere fiber")

    def _unit_sphere_fiber(self) -> bool:
        return (
            abs(self.rho_sigma - (self.d - 1)) <= 1e-12
            and (self.fiber_constant_curvature or self.d == 1)
        )

    @property
    def d(self) -> int:
        return self.n - 1

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n_samples - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_samples)

    @cached_property
    def warp_values(self):
        """(g, g', g'') sampled on the grid; analytic where the form allows."""
        t = self.grid
        if isinstance(self.g, (SnCombination, Polynomial)):
            return (
                np.asarray(self.g.value(t), dtype=float),
                np.asarray(self.g.d1(t), dtype=float),
                np.asarray(self.g.d2(t), dtype=float),
            )
        return self.g.values.copy(), derivative(self.g, 1).values, derivative(self.g, 2).values

    def g_at(self, t):
        if isinstance(self.g, (SnCombination, Polynomial)):
            return self.g.value(t)
        return self.g.eval(t)

    def g_prime_at(self, t):
        if isinstance(self.g, (SnCombination, Polynomial)):
            return self.g.d1(t)
        return GridFn(self.t0, self.t1, self.warp_values[1]).eval(t)

    def g_second_at(self, t):
        if isinstance(self.g, (SnCombination, Polynomial)):
            return self.g.d2(t)
        return GridFn(self.t0, self.t1, self.warp_values[2]).eval(t)

    def valid_mask(self, *arrays: np.ndarray, edge: int = 4) -> np.ndarray:
        """Samples trusted for sup-norms: stencil-interior, away from a
        pole, and finite in every supplied array.

        edge is the boundary band to drop: 4 for a single stencil
        application, 8 for quantities that differentiate a stencil output
        again (one-sided rows of the inner pass pollute the outer one).
        """
        m = np.ones(self.n_samples, dtype=bool)
        m[:edge] = False
        m[-edge:] = False
        if self.pole:
            m &= self.grid > self.t0 + (POLE_EXCLUSION_STEPS - 0.5) * self.h
        for a in arrays:
            m &= np.isfinite(a)
        return m

    def trusted_mask(self, what: str, *arrays: np.ndarray, edge: int = 4) -> np.ndarray:
        """valid_mask for a quantity reduced over it; raises
        NoTrustedSamples, naming what, when no sample is left."""
        m = self.valid_mask(*arrays, edge=edge)
        if not m.any():
            raise NoTrustedSamples(f"{what}: no trusted samples on a {self.n_samples}-sample grid")
        return m


@dataclass(frozen=True)
class CurvatureSample:
    """All pointwise curvature scalars at one parameter value."""

    t: float
    rho_fib: float
    rho_rad: float
    S: float
    ric_norm2: float
    tau_f: float
    tau_r: float
    T_norm2: float
    trT3: float


def _curvature_from_warp(n: int, rho_sigma: float, g, gp, gpp):
    d = n - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gp / g
        rho_fib = -(d - 1) * ratio * ratio - gpp / g + rho_sigma / (g * g)
        rho_rad = -d * gpp / g
    S = d * rho_fib + rho_rad
    tau_f = rho_fib - S / n
    tau_r = rho_rad - S / n
    return {
        "rho_fib": rho_fib,
        "rho_rad": rho_rad,
        "S": S,
        "ric_norm2": d * rho_fib**2 + rho_rad**2,
        "tau_f": tau_f,
        "tau_r": tau_r,
        "T_norm2": d * tau_f**2 + tau_r**2,
        "trT3": d * tau_f**3 + tau_r**3,
    }


def curvature_grids(p: WarpProfile) -> dict:
    """All curvature scalars sampled on the grid.

    At a pole the formulas are 0/0; those samples are NaN (the pointwise
    curvature_at performs the limit instead).
    """
    g, gp, gpp = p.warp_values
    out = _curvature_from_warp(p.n, p.rho_sigma, g, gp, gpp)
    for key, arr in out.items():
        arr = np.where(np.isfinite(arr), arr, np.nan)
        out[key] = arr
    return out


def _sample_from_scalars(t, scal) -> CurvatureSample:
    return CurvatureSample(t=float(t), **{k: float(v) for k, v in scal.items()})


def _at_pole(p: WarpProfile, t: float) -> bool:
    return p.pole and t <= p.t0 + 1e-14 * max(1.0, abs(p.t0))


def _pole_limit(p: WarpProfile, sample) -> dict:
    """t -> t0+ limit of each scalar in the dict sample(t) returns,
    Richardson extrapolated from t0 + 5h and t0 + 10h (even expansion)."""
    near = sample(p.t0 + 5 * p.h)
    far = sample(p.t0 + 10 * p.h)
    vals = {}
    for key, a in near.items():
        b = far[key]
        if not (np.isfinite(a) and np.isfinite(b)) or abs(a - b) > 1e3 * (1.0 + abs(a)):
            raise PoleSingularity(f"limit at the pole diverges in {key}")
        vals[key] = (4.0 * a - b) / 3.0
    return vals


def curvature_at(p: WarpProfile, t: float) -> CurvatureSample:
    """Pointwise curvature; at a pole the t -> t0+ limit is Richardson
    extrapolated from samples at t0 + 5h and t0 + 10h (even expansion)."""
    t = float(t)
    if _at_pole(p, t):
        return _sample_from_scalars(p.t0, _pole_limit(p, lambda tt: _scalar_curvature_dict(p, tt)))
    if not (p.t0 - 1e-12 <= t <= p.t1 + 1e-12):
        raise ValueError("t outside the profile interval")
    return _sample_from_scalars(t, _scalar_curvature_dict(p, t))


def _scalar_curvature_dict(p: WarpProfile, t: float) -> dict:
    g = float(p.g_at(t))
    gp = float(p.g_prime_at(t))
    gpp = float(p.g_second_at(t))
    out = _curvature_from_warp(p.n, p.rho_sigma, np.float64(g), np.float64(gp), np.float64(gpp))
    return {k: float(v) for k, v in out.items()}


def radial_hessian(p: WarpProfile, u: GridFn, t: float):
    """Eigenvalues (fiber, radial) = (u' g'/g, u'') of the Hessian of a
    radial function u at parameter t."""
    up = derivative(u, 1)
    upp = derivative(u, 2)
    t = float(t)

    def fiber(tt):
        return {"hessian_fiber": float(up.eval(tt)) * float(p.g_prime_at(tt)) / float(p.g_at(tt))}

    if _at_pole(p, t):
        return _pole_limit(p, fiber)["hessian_fiber"], float(upp.eval(p.t0))
    return fiber(t)["hessian_fiber"], float(upp.eval(t))


def f_laplacian(p: WarpProfile, f: GridFn | np.ndarray | None, u: GridFn) -> GridFn:
    """Weighted Laplacian of a radial function: u'' + d (g'/g) u' - f' u'.

    f is the potential, or its sampled derivative f' for a caller that
    already holds it; pass f = None (or a constant) for the plain
    Laplacian.  At a pole the endpoint sample is NaN and excluded from
    downstream sup-norms.
    """
    g, gp, _ = p.warp_values
    up = derivative(u, 1).values
    upp = derivative(u, 2).values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = upp + p.d * (gp / g) * up
    if f is not None:
        fprime = derivative(f, 1).values if isinstance(f, GridFn) else f
        out = out - fprime * up
    out = np.where(np.isfinite(out), out, np.nan)
    return GridFn(p.t0, p.t1, out)


def _require_model(p: WarpProfile):
    if not p.pole:
        raise NotAModel("operation requires a pole model profile")


def weighted_sphere_volume(p: WarpProfile, f: GridFn | None, r: float) -> float:
    """vol_f of the geodesic sphere of radius r about the pole:
    fiber_volume * g(r)^d * e^(-f(r))."""
    _require_model(p)
    r = float(r)
    weight = 1.0 if f is None else math.exp(-float(f.eval(r)))
    return p.fiber_volume * float(p.g_at(r)) ** p.d * weight


def _sphere_volume_gridfn(p: WarpProfile, f: GridFn | None) -> GridFn:
    g = p.warp_values[0]
    dens = p.fiber_volume * g**p.d
    if f is not None:
        dens = dens * np.exp(-f.values)
    return GridFn(p.t0, p.t1, dens)


def weighted_ball_volume(p: WarpProfile, f: GridFn | None, r: float) -> float:
    """vol_f of the geodesic ball of radius r about the pole, by composite
    Simpson of the sphere-volume density."""
    _require_model(p)
    return float(integrate_cumulative(_sphere_volume_gridfn(p, f)).eval(float(r)))
