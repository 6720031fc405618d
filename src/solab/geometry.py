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
from types import MappingProxyType

import numpy as np

from .errors import (
    InvalidDimension,
    InvalidWarp,
    NonFiniteValues,
    NoTrustedSamples,
    NotAModel,
)
from .kernel import GridFn, cn, integrate_cumulative, sn

__all__ = [
    "SnCombination",
    "Polynomial",
    "WarpProfile",
    "unit_sphere_volume",
    "curvature_grids",
    "ric_norm2",
    "trace_free_cube",
    "radial_laplacian",
    "sphere_volume_density",
    "weighted_sphere_volume",
    "weighted_ball_volume",
]

# samples within 10 grid spacings of a pole are excluded from sup-norms;
# ratios like g'/g amplify stencil noise there
POLE_EXCLUSION_STEPS = 10


def _log_unit_sphere_volume(d: int) -> float:
    """log unit_sphere_volume(d) by log-gamma, finite where the volume underflows."""
    a = (d + 1) / 2.0
    return math.log(2.0) + a * math.log(math.pi) - math.lgamma(a)


def unit_sphere_volume(d: int) -> float:
    """Riemannian volume of the unit round d-sphere."""
    a = (d + 1) / 2.0
    try:
        return 2.0 * math.pi**a / math.gamma(a)
    except OverflowError:
        # large d: pi^a and Gamma(a) overflow where their ratio does not
        return math.exp(_log_unit_sphere_volume(d))


# ---------------------------------------------------------------------------
# closed-form warping functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnCombination:
    """t -> c0 + c1 * sn_k(t) + c2 * cn_k(t); derivatives are analytic."""

    k: float
    c1: float
    c2: float
    c0: float = 0.0

    def derivatives(self, t):
        """(g, g', g'') at t from one sn and one cn evaluation (cn' = -k sn)."""
        s, c = sn(self.k, t), cn(self.k, t)
        u = self.c1 * s + self.c2 * c
        return u + self.c0, self.c1 * c - self.c2 * self.k * s, -self.k * u


@dataclass(frozen=True)
class Polynomial:
    """t -> sum coeffs[j] * t^j (ascending order)."""

    coeffs: tuple

    def _poly(self, c, t):
        out = np.zeros_like(np.asarray(t, dtype=float))
        for a in reversed(c):
            out = out * t + a
        return out if np.ndim(t) else float(out)

    def derivatives(self, t):
        """(g, g', g'') at t."""
        c1 = tuple(j * a for j, a in enumerate(self.coeffs))[1:] or (0.0,)
        c2 = tuple(j * (j - 1) * a for j, a in enumerate(self.coeffs))[2:] or (0.0,)
        return self._poly(self.coeffs, t), self._poly(c1, t), self._poly(c2, t)


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
    g : warping function, a closed form
    t0, t1, n_samples : working grid
    fiber_constant_curvature : the fiber is declared a space form, which is
        exactly the conformal-flatness condition for the warped metric

    Whether t0 is a pole is worked out from the warp and fiber (`pole`).
    """

    n: int
    rho_sigma: float
    g: ClosedForm
    t0: float
    t1: float
    n_samples: int
    fiber_constant_curvature: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise InvalidDimension("total dimension must be at least 2")
        if self.n == 2 and abs(self.rho_sigma) > 1e-14:
            raise ValueError("a one-dimensional fiber is Ricci flat: rho_sigma must be 0")

        # an overflowing closed form shows up as a non-finite sample below
        with np.errstate(over="ignore", invalid="ignore"):
            warp = self.warp_values
        if not all(np.isfinite(a).all() for a in warp):
            raise NonFiniteValues("warping function g, g' and g'' must be finite on the interval")
        gvals = warp[0]
        if np.min(gvals[1:-1]) <= 0 or (not self.pole and (gvals[0] <= 0 or gvals[-1] <= 0)):
            raise InvalidWarp("warping function must be positive on the interval")

    @cached_property
    def pole(self) -> bool:
        """t0 is a model-manifold pole: t0 = 0, g(t0) = 0 and g'(t0) = 1
        within 1e-14, and a unit round sphere fiber."""
        g, gp, _ = self.warp_values  # grid[0] == t0: g(t0) and g'(t0) come first
        at_pole = self.t0 == 0.0 and abs(g[0]) < 1e-14 and abs(gp[0] - 1.0) < 1e-14
        return bool(at_pole and self._unit_sphere_fiber())

    def _unit_sphere_fiber(self) -> bool:
        return (
            abs(self.rho_sigma - (self.d - 1)) <= 1e-12
            and (self.fiber_constant_curvature or self.d == 1)
        )

    def require_model(self) -> None:
        """Raise NotAModel unless t0 is a model-manifold pole."""
        if not self.pole:
            raise NotAModel("operation requires a pole model profile")

    @property
    def d(self) -> int:
        return self.n - 1

    @property
    def fiber_volume(self) -> float:
        """Total Riemannian volume of the fiber: the unit sphere's for a
        unit-sphere fiber, 1 otherwise."""
        return unit_sphere_volume(self.d) if self._unit_sphere_fiber() else 1.0

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / (self.n_samples - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_samples)

    def grid_at(self, i: int) -> float:
        """grid[i] without building the grid, by np.linspace's own formula
        (i * step + t0, with t1 exactly at the last index)."""
        if i == self.n_samples - 1:
            return float(self.t1)
        return float(i * self.h + self.t0)

    @cached_property
    def warp_values(self):
        """(g, g', g'') sampled on the grid (read-only), from the closed form.

        Held until the curvature grids are built: after them g' and g''
        have no reader, and g stays cached as g_values.  A read after that
        evaluates the closed form again."""
        warp = tuple(np.asarray(a, dtype=float) for a in self.g.derivatives(self.grid))
        for a in warp:
            a.setflags(write=False)
        return warp

    @cached_property
    def g_values(self) -> np.ndarray:
        """g sampled on the grid (read-only); it outlives warp_values."""
        return self.warp_values[0]

    @cached_property
    def g_ratio(self) -> np.ndarray:
        """g'/g sampled on the grid (read-only; NaN where undefined, i.e. at
        a pole)."""
        g, gp, _ = self.warp_values
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = gp / g
        ratio = np.where(np.isfinite(ratio), ratio, np.nan)
        ratio.setflags(write=False)
        return ratio

    @cached_property
    def curvature(self):
        """curvature_grids of this profile as a read-only mapping, built on
        first use.  Building it releases warp_values (see there)."""
        out = MappingProxyType(curvature_grids(self))
        self.g_values  # cache g before (g, g', g'') goes
        self.__dict__.pop("warp_values", None)
        return out

    def valid_mask(self, *arrays: np.ndarray, edge: int = 4) -> np.ndarray:
        """Samples trusted for sup-norms: stencil-interior, away from a
        pole, and finite in every supplied array.

        edge is the boundary band to drop: 4 for a single stencil
        application, 8 for quantities that differentiate a stencil output
        again (one-sided rows of the inner pass pollute the outer one).
        """
        m = np.ones(self.n_samples, dtype=bool)
        m[:edge] = False
        m[self.n_samples - edge:] = False
        if self.pole:
            m[:POLE_EXCLUSION_STEPS] = False
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


def _nan_where_nonfinite(arr: np.ndarray) -> np.ndarray:
    """arr with every non-finite sample set to NaN, in place."""
    arr[~np.isfinite(arr)] = np.nan
    return arr


def curvature_grids(p: WarpProfile) -> dict:
    """Read-only grids of the curvature scalars read more than once: the
    Ricci eigenvalues, S, the trace-free eigenvalues tau and |T|^2.
    |Ric|^2 and tr T^3 have one reader each and are built there
    (ric_norm2, trace_free_cube).

    At a pole the formulas are 0/0.  Those samples, and any that leave the
    float range, are NaN; valid_mask excludes them from every sup-norm.
    """
    g, _, gpp = p.warp_values
    d = p.d
    ratio = p.g_ratio
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho_fib = -(d - 1) * ratio * ratio - gpp / g + p.rho_sigma / (g * g)
        rho_rad = -d * gpp / g
        S = d * rho_fib + rho_rad
        tau_f = rho_fib - S / p.n
        tau_r = rho_rad - S / p.n
        out = {
            "rho_fib": rho_fib,
            "rho_rad": rho_rad,
            "S": S,
            "tau_f": tau_f,
            "tau_r": tau_r,
            "T_norm2": d * tau_f**2 + tau_r**2,
        }
    for arr in out.values():
        _nan_where_nonfinite(arr).setflags(write=False)
    return out


def ric_norm2(p: WarpProfile) -> np.ndarray:
    """|Ric|^2 = d rho_fib^2 + rho_rad^2 on the grid, NaN where the
    curvature is or where it leaves the float range."""
    c = p.curvature
    with np.errstate(over="ignore", invalid="ignore"):
        out = p.d * c["rho_fib"] ** 2 + c["rho_rad"] ** 2
    return _nan_where_nonfinite(out)


def trace_free_cube(p: WarpProfile) -> np.ndarray:
    """tr T^3 = d tau_f^3 + tau_r^3 on the grid, NaN where the curvature
    is or where it leaves the float range."""
    c = p.curvature
    tau_f, tau_r = c["tau_f"], c["tau_r"]
    with np.errstate(over="ignore", invalid="ignore"):
        # cubes by multiplication: numpy's pow drops to scalar libm calls
        # for negative bases, and a trace-free pair always has one
        out = p.d * (tau_f * tau_f * tau_f) + tau_r * tau_r * tau_r
    return _nan_where_nonfinite(out)


def radial_laplacian(
    p: WarpProfile, up: np.ndarray, upp: np.ndarray, fp: np.ndarray | None = None
) -> np.ndarray:
    """Weighted Laplacian of a radial function from its sampled derivatives
    u' and u'': u'' + d (g'/g) u' - f' u' (the plain Laplacian when fp is
    None).  Non-finite samples, e.g. at a pole, become NaN and are excluded
    from downstream sup-norms."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = p.d * p.g_ratio
        out *= up
        np.add(upp, out, out=out)
        if fp is not None:
            out -= fp * up
    out[~np.isfinite(out)] = np.nan
    return out


def sphere_volume_density(p: WarpProfile, g, f=None):
    """vol_f density of the geodesic sphere about the pole where the warp
    takes the value g and the potential the value f (arrays or scalars):
    fiber_volume * g^d * e^(-f), or fiber_volume * g^d for f = None.  A
    density beyond the float range leaves infinite samples, which a GridFn
    rejects."""
    fv = p.fiber_volume
    with np.errstate(over="ignore", invalid="ignore"):
        dens = fv * g**p.d
        if f is not None:
            dens *= np.exp(-f)
    redo = ~np.isfinite(dens) | (fv == 0.0)
    if not np.any(redo):
        return dens
    # large d: fiber_volume underflows to 0 and g^d overflows where their
    # product need not, so those samples are computed in logs
    log_fv = math.log(fv) if fv > 0.0 else _log_unit_sphere_volume(p.d)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_dens = log_fv + p.d * np.log(g) - (0.0 if f is None else f)
        return np.where(redo, np.exp(log_dens), dens)


def weighted_sphere_volume(p: WarpProfile, f: GridFn | None, r: float) -> float:
    """vol_f of the geodesic sphere of radius r about the pole."""
    p.require_model()
    g = np.float64(p.g.derivatives(float(r))[0])
    return float(sphere_volume_density(p, g, None if f is None else float(f.eval(r))))


def weighted_ball_volume(p: WarpProfile, f: GridFn | None, r: float | np.ndarray):
    """vol_f of the geodesic ball of radius r about the pole, by composite
    Simpson of the sphere-volume density.  r may be one radius (returns a
    float) or an array of radii (returns an array), as for GridFn.eval."""
    p.require_model()
    dens = sphere_volume_density(p, p.g_values, None if f is None else f.values)
    return integrate_cumulative(GridFn.adopt(p.t0, p.t1, dens)).eval(r)
