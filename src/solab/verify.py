"""Numerical verification: defining-equation residuals, differential
identities, the trace-free sharp cubic bound, soliton classification, and
the hypothesis/conclusion audits for the triviality, scalar-curvature and
gap theorems plus the Omori-Yau condition set.

All identity checks are radial transcriptions evaluated on the working
grid, and each is an equality checked two-sided.  Sup-norms and grid
extrema reduce over one slice of trusted samples (WarpProfile.trusted_band):
4 stencil points at each end are dropped (8 for identity residuals), and
on pole models the band within 10 grid spacings of the pole, where 1/g
amplifies stencil noise.  The pole sample is the only one without a
value: a non-finite sample anywhere else is an overflow, and raises
NonFiniteValues instead of being dropped.
Grid extrema (S_*, lambda_*, ...) are finite-domain approximations of
the global quantities, so audits report "consistent with", not "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NonPositiveG, NoTrustedSamples, NotConformallyFlat, NotTraceFree
from .factory import SolitonSpec
from .geometry import radial_laplacian, ric_norm2, trace_free_cube
from .kernel import EDGE_WIDTH, GridFn, derivative, integrate_cumulative, interpolate, nan_fill

__all__ = [
    "IDENTITY_IDS",
    "ResidualReport",
    "Flag",
    "AuditReport",
    "Verdict",
    "Classification",
    "residual_report",
    "soliton_residual",
    "identity_residual",
    "grad_T_norm2",
    "okumura_check",
    "okumura_residual",
    "okumura_attained_frac",
    "classify_soliton",
    "audit_theorem",
    "check_OY_hypotheses",
    "IDENTITY_TOL",
    "OKUMURA_TOL",
]

IDENTITY_TOL = 1e-5       # second-order identity residuals
OKUMURA_TOL = 1e-12       # relative defect of Okumura's equality on a warped product
_EINSTEIN_T = 1e-8        # |T| below this reads as Einstein (trace-free part zero)

IDENTITY_IDS = ("grad_f_bochner", "trace", "scalar_gradient", "scalar_laplacian", "trace_free_balance")


class Verdict(Enum):
    CONSISTENT = "consistent"
    HYPOTHESES_NOT_MET = "hypotheses_not_met"
    VIOLATION = "violation"


class Classification(Enum):
    SHRINKING = "shrinking"
    STEADY = "steady"
    EXPANDING = "expanding"
    INDEFINITE = "indefinite"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one sup-norm (or one-sided) residual check.

    For two-sided checks (the defining equation and every identity)
    sup_norm is max |per_point| over trusted samples.  For the one-sided
    check (the Laplacian comparison) per_point must stay <= 0 and sup_norm
    records the worst violation (0 when the check holds everywhere).
    """

    identity_id: str
    sup_norm: float
    argmax_t: float
    per_point: np.ndarray
    tolerance_used: float
    passed: bool
    one_sided: bool = False


@dataclass(frozen=True)
class Flag:
    """A named audit flag with the measured quantity behind it."""

    passed: bool
    measured: float | str


@dataclass(frozen=True)
class AuditReport:
    theorem_id: str
    hypothesis_flags: dict
    conclusion_flags: dict
    notes: tuple = ()

    @property
    def verdict(self) -> Verdict:
        """VIOLATION only when every hypothesis holds and a conclusion fails."""
        if all(f.passed for f in self.hypothesis_flags.values()):
            return Verdict.CONSISTENT if all(self.conclusion_flags.values()) else Verdict.VIOLATION
        return Verdict.HYPOTHESES_NOT_MET

    def to_dict(self) -> dict:
        def flag(v):
            m = v.measured
            if not isinstance(m, str):
                m = float(m) if math.isfinite(m) else None
            return {"passed": bool(v.passed), "measured": m}

        return {
            "theorem_id": self.theorem_id,
            "hypothesis_flags": {k: flag(v) for k, v in self.hypothesis_flags.items()},
            "conclusion_flags": {k: bool(v) for k, v in self.conclusion_flags.items()},
            "verdict": self.verdict.value,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual_report(
    ident: str, p, per_point: np.ndarray, tol: float, *, one_sided: bool = False, edge: int = EDGE_WIDTH
) -> ResidualReport:
    """Sup-norm report of per_point over the trusted samples of profile p;
    the report keeps per_point itself, set read-only.

    Two-sided: passes when max |per_point| < tol.  one_sided: per_point
    must stay <= 0; sup_norm is the worst violation (0 when there is
    none) and the check passes when it is at most tol.  argmax_t locates
    the worst sample either way.
    """
    per_point.setflags(write=False)
    band = p.trusted_band(ident, per_point, edge=edge)
    vals = per_point[band] if one_sided else np.abs(per_point[band])
    k = int(np.argmax(vals))
    worst = float(vals[k])
    return ResidualReport(
        identity_id=ident,
        sup_norm=max(0.0, worst) if one_sided else worst,
        argmax_t=p.grid_at(band.start + k),
        per_point=per_point,
        tolerance_used=tol,
        passed=worst <= tol if one_sided else worst < tol,
        one_sided=one_sided,
    )


def soliton_residual(s: SolitonSpec) -> ResidualReport:
    """Residual of Ric + Hess(f) = lambda <,> in both eigendirections:
    max(|rho_fib + f' g'/g - lambda|, |rho_rad + f'' - lambda|)."""
    eig_f, eig_r = s.bakry_emery
    lam = s.lam.values
    per_point = np.maximum(np.abs(eig_f - lam), np.abs(eig_r - lam))
    return residual_report("soliton", s.profile, per_point, s.residual_tolerance)


def identity_residual(s: SolitonSpec, ident: str) -> ResidualReport:
    """Radial residual of one of the differential identities.

    grad_f_bochner      half Delta_f |grad f|^2 against |Hess f|^2
    trace               trace of the defining equation, S - n lambda + Delta f
    scalar_gradient     S' = 2(n-1) lambda' + 2 f' Ric(radial)
    scalar_laplacian    half Delta_f S against lambda S - |Ric|^2
    trace_free_balance  the |T|^2 balance against |grad T|^2 (needs a
                        declared space-form fiber)
    """
    if ident not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {ident!r}")
    p = s.profile
    n, d = p.n, p.d
    c = p.curvature
    lam = s.lam.values

    # sums of several terms accumulate in place, left to right, so each
    # term's temporaries are freed before the next term is built
    if ident == "grad_f_bochner":
        with np.errstate(over="ignore", invalid="ignore"):  # left to residual_report's check
            per = s.f_laplacian(s.fp**2)
            per *= 0.5
            per -= s.fpp**2 + d * (s.fp * p.g_ratio) ** 2  # |Hess f|^2
            per += lam * s.fp**2
            per += (n - 2) * s.lamp * s.fp
    elif ident == "trace":
        per = c["S"] - n * lam + radial_laplacian(p, s.fp, s.fpp)
    elif ident == "scalar_gradient":
        S_prime = derivative(nan_fill(c["S"]), p.h, 1)
        per = S_prime - 2 * (n - 1) * s.lamp - 2 * s.fp * c["rho_rad"]
    elif ident == "scalar_laplacian":
        per = s.f_laplacian(nan_fill(c["S"]))
        per *= 0.5
        per -= lam * c["S"]
        per += ric_norm2(p)
        per -= (n - 1) * s.lap_lam
    else:  # trace_free_balance
        if n < 3:
            raise NotConformallyFlat("the |T|^2 balance needs a space-form fiber and n >= 3")
        per = s.f_laplacian(nan_fill(c["T_norm2"]))
        per *= 0.5
        per -= 2.0 * (lam - c["S"] * (n - 2) / (n * (n - 1))) * c["T_norm2"]
        per -= (n - 2) * s.hess_lam_T
        per -= 4.0 / (n - 2) * trace_free_cube(p)
        per -= grad_T_norm2(s)
    # composed stencils pollute twice the band
    return residual_report(ident, p, per, IDENTITY_TOL, edge=2 * EDGE_WIDTH)


def grad_T_norm2(s: SolitonSpec) -> np.ndarray:
    """|grad T|^2 (an array) from the trace-free eigenvalues' derivatives:

        d (tau_f')^2 + (tau_r')^2 + 2 d (g'/g)^2 (tau_f - tau_r)^2

    The cross term carries the mixed fiber-radial components T(e_k, dt)
    generated by parallel transport; the formula is validated against a
    brute-force coordinate computation in the test suite.
    """
    p = s.profile
    tf = nan_fill(p.curvature["tau_f"])
    tr = nan_fill(p.curvature["tau_r"])
    with np.errstate(over="ignore", invalid="ignore"):  # left to residual_report's check
        # term by term, so each derivative is freed once it is squared
        vals = p.d * derivative(tf, p.h, 1) ** 2
        vals += derivative(tr, p.h, 1) ** 2
        cross = (tf - tr) ** 2
        cross *= 2.0 * p.d * p.g_ratio**2
        vals += cross
    return vals


# ---------------------------------------------------------------------------
# Okumura's bound
# ---------------------------------------------------------------------------

def okumura_check(eigenvalues):
    """Sharp cubic trace bound for a trace-free symmetric tensor:

        sum lam_i^3 >= -(n-2)/sqrt(n(n-1)) * (sum lam_i^2)^(3/2)

    Returns (lhs, rhs, passed) for one tuple; equality is attained exactly
    on multiples of (-(n-1), 1, ..., 1) and permutations.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    if lam.ndim > 1 or n < 2:
        raise ValueError("need at least two eigenvalues, as one tuple")
    trace = abs(sum(lam.tolist()))  # Python's sum: inf - inf is NaN, with no numpy warning
    if not trace <= 1e-10:
        raise NotTraceFree(f"eigenvalues sum to {trace:.3e} in absolute value")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        cubes, norm_cubed = np.sum(lam * lam * lam), np.sum(lam**2) ** 1.5
    if not (np.isfinite(cubes) and np.isfinite(norm_cubed)):
        raise ValueError(f"eigenvalues up to {np.abs(lam).max():.3e} in absolute value: cubes past the float range")
    lhs = float(cubes)
    rhs = float(-(n - 2) / math.sqrt(n * (n - 1)) * norm_cubed)
    return lhs, rhs, lhs >= rhs - 1e-12


def okumura_residual(s: SolitonSpec) -> ResidualReport:
    """Okumura's bound tr T^3 >= -k |T|^3, k = (n-2)/sqrt(n(n-1)), on the
    spec's own trace-free Ricci tensor.  T has eigenvalues tau_f (d times)
    and tau_r = -d tau_f, so |tr T^3| = k |T|^3 at every sample: per_point
    is the two-sided defect (|tr T^3| - k |T|^3) / max(1, k |T|^3), formed
    on T scaled by an exact power of two where a cube leaves the float range."""
    p = s.profile
    c = p.curvature
    k = (p.n - 2) / math.sqrt(p.n * (p.n - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # left to residual_report's check
        bound = np.sqrt(c["T_norm2"])
        bound *= c["T_norm2"]
        bound *= k  # k |T|^3
        per = trace_free_cube(p)
        np.abs(per, out=per)
        per -= bound
        per /= np.maximum(bound, 1.0, out=bound)
        bad = np.flatnonzero(~np.isfinite(per))  # a pole sample stays NaN; elsewhere k |T|^3 > 1
        T, e = np.frexp(np.sqrt(c["T_norm2"][bad]))  # |T| = T 2^e, exactly
        tf, tr = np.ldexp(c["tau_f"][bad], -e), np.ldexp(c["tau_r"][bad], -e)
        bound = T * np.ldexp(c["T_norm2"][bad], -2 * e) * k
        per[bad] = (np.abs(p.d * (tf * tf * tf) + tr * tr * tr) - bound) / bound
    return residual_report("okumura_equality", p, per, OKUMURA_TOL)


def okumura_attained_frac(s: SolitonSpec) -> float | None:
    """The share of trusted non-Einstein samples (|T| >= 1e-8) where
    Okumura's lower bound is attained, tau_f >= 0; None when there are none."""
    c = s.profile.curvature
    band = s.profile.trusted_band("okumura_equality", c["T_norm2"], c["tau_f"])
    live = np.sqrt(c["T_norm2"][band]) >= _EINSTEIN_T
    count = int(np.count_nonzero(live))
    return int(np.count_nonzero(live & (c["tau_f"][band] >= 0.0))) / count if count else None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_NULL_THRESHOLD = 1e-10


def _lambda_sign(lam: np.ndarray) -> Classification:
    """Sign census of lambda over every sample: indefinite when it takes both signs."""
    pos = bool(np.any(lam > _NULL_THRESHOLD))
    neg = bool(np.any(lam < -_NULL_THRESHOLD))
    if pos and neg:
        return Classification.INDEFINITE
    if pos:
        return Classification.SHRINKING
    if neg:
        return Classification.EXPANDING
    return Classification.STEADY


def classify_soliton(s: SolitonSpec) -> Classification:
    """Sign census of lambda; trivial when the potential is constant."""
    if np.max(np.abs(s.fp)) < _NULL_THRESHOLD:
        return Classification.TRIVIAL
    return _lambda_sign(s.lam.values)


# ---------------------------------------------------------------------------
# theorem audits
# ---------------------------------------------------------------------------

def _fit_growth_exponent(r: np.ndarray, y: np.ndarray) -> float:
    """Log-log slope over the data (finite-domain proxy for a limsup
    growth order)."""
    good = (y > 1e-300) & (r > 0)
    if good.sum() < 8:
        return -math.inf
    return float(np.polyfit(np.log(r[good]), np.log(y[good]), 1)[0])


def _gradient_growth_flag(p, fp, r, band, fit) -> Flag:
    """|grad f|^2 does not grow: its log-log slope over the final third of
    the trusted samples (fit) is at most 0.05, unless f is constant."""
    with np.errstate(over="ignore"):  # left to require_finite
        grad2 = fp**2
    p.require_finite("triviality", grad2)
    exponent = _fit_growth_exponent(r[fit], grad2[fit])
    return Flag(bool(np.max(grad2[band]) < 1e-20 or exponent <= 0.05), exponent)


def _audit_triviality(s: SolitonSpec) -> AuditReport:
    """Triviality of expanders at the exponents alpha = sigma = mu = 0 and
    A = B = 1: lambda = -(n-1), |grad f|^2 not growing, and lambda' f' <= 0.
    The pinching -(n-1) B^2 (1+r^2)^(alpha/2) <= lambda <= -(n-1) A^2
    (1+r^2)^(-mu/2) is then lambda = -(n-1), measured by the worst
    |lambda + (n-1)| on the trusted samples."""
    fp = s.fp
    p = s.profile
    n = p.n
    lam = s.lam.values
    band = p.trusted_band("triviality", lam, fp)
    r = p.grid
    fit = slice(max(band.start, int(np.searchsorted(r, p.t0 + 2.0 * (p.t1 - p.t0) / 3.0))), band.stop)
    r -= p.t0  # the distance from t0, in the grid's buffer

    hyps = {}
    hyps["expanding"] = Flag(bool(np.all(lam < 0)), float(np.max(lam)))
    hyps["gradient_growth"] = _gradient_growth_flag(p, fp, r, band, fit)
    pinch = float(np.max(np.abs(lam[band] + (n - 1))))
    hyps["lambda_bounds"] = Flag(pinch <= 1e-12, pinch)

    if n == 2:
        hyps["sign_condition"] = Flag(True, "n = 2, condition waived")
    else:
        with np.errstate(over="ignore"):  # an infinite product fails the flag, as it should
            worst = float(np.max(s.lamp[band] * fp[band]))
        hyps["sign_condition"] = Flag(worst <= _NULL_THRESHOLD, worst)

    concls = {"trivial": bool(np.max(np.abs(fp[band])) < 1e-8)}
    return AuditReport(
        theorem_id="triviality",
        hypothesis_flags=hyps,
        conclusion_flags=concls,
        notes=("growth exponents fitted on the final third of a finite grid",),
    )


def _audit_scalar_bounds(s: SolitonSpec) -> AuditReport:
    p = s.profile
    n = p.n

    plain_lap_lam = s.lap_lam
    worst = float(np.max(plain_lap_lam[p.trusted_band("scalar_bounds", plain_lap_lam)]))
    hyps = {"delta_lambda_nonpositive": Flag(worst <= _NULL_THRESHOLD, worst)}

    cls = _lambda_sign(s.lam.values)  # the sign lambda has, also when f is constant
    hyps["definite_sign"] = Flag(cls is not Classification.INDEFINITE, cls.value)

    S_star, _, _, lam_star, lam_sup = s.extrema

    concls = {}
    if cls is Classification.EXPANDING:
        concls["lower_bound_n_lambda"] = bool(n * lam_star <= S_star + 1e-8)
        concls["scalar_curvature_negative"] = bool(S_star < 1e-10)
    elif cls is Classification.STEADY:
        concls["scalar_infimum_zero"] = bool(abs(S_star) <= 1e-8)
    elif cls is Classification.SHRINKING:
        concls["scalar_infimum_nonnegative"] = bool(S_star >= -1e-8)
        concls["upper_bound_n_lambda"] = bool(S_star <= n * lam_sup + 1e-8)

    return AuditReport(
        theorem_id="scalar_bounds",
        hypothesis_flags=hyps,
        conclusion_flags=concls,
        notes=(
            f"S_* = {S_star:.6g}, lambda_* = {lam_star:.6g}, lambda^* = {lam_sup:.6g} (grid extrema)",
            "the sign hypothesis uses the plain (unweighted) Laplacian of lambda",
        ),
    )


def _audit_trace_free_gap(s: SolitonSpec) -> AuditReport:
    p = s.profile
    n = p.n
    _, S_sup, T_sup, lam_star, _ = s.extrema

    hess_lam_T = s.hess_lam_T
    worst = float(np.min(hess_lam_T[p.trusted_band("trace_free_gap", hess_lam_T)]))
    # conformal flatness holds by construction (every spec is warped over a
    # space form), and S^* and lambda_* are finite once the band is trusted
    hyps = {"hess_lambda_T_nonnegative": Flag(worst >= -_NULL_THRESHOLD, worst)}

    gap = 0.5 * (math.sqrt(n * (n - 1)) * lam_star - S_sup * (n - 2) / math.sqrt(n * (n - 1)))
    einstein = T_sup < _EINSTEIN_T
    concls = {"einstein_or_gap": bool(einstein or T_sup >= gap - 1e-8)}
    return AuditReport(
        theorem_id="trace_free_gap",
        hypothesis_flags=hyps,
        conclusion_flags=concls,
        notes=(f"|T|^* = {T_sup:.6g}, gap threshold = {gap:.6g} (grid extrema)",),
    )


def audit_theorem(s: SolitonSpec, theorem: str) -> AuditReport:
    """Audit one theorem on a spec: measure every hypothesis, measure the
    conclusion, and report VIOLATION only when the hypotheses all hold and
    the conclusion fails (that state failing is the point of the audit)."""
    if theorem == "triviality":
        return _audit_triviality(s)
    if theorem == "scalar_bounds":
        return _audit_scalar_bounds(s)
    if theorem == "trace_free_gap":
        return _audit_trace_free_gap(s)
    raise ValueError(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# Omori-Yau condition set
# ---------------------------------------------------------------------------

def _oy_windows(G: GridFn, t_max: float) -> tuple:
    """The grid points of the last tenth and of the mid tenth of
    [1, t_max]; raises NoTrustedSamples when either is empty."""
    lo, hi = 1.0, t_max
    tw = G.grid
    # when hi > lo both windows lie inside [lo, hi]; otherwise the check below
    # raises.  Copies, so that the windows do not hold the full grid
    t_last, t_mid = (
        tw[np.searchsorted(tw, a):np.searchsorted(tw, b, side="right")].copy()
        for a, b in ((hi - 0.1 * (hi - lo), hi), (lo + 0.5 * (hi - lo), lo + 0.6 * (hi - lo)))
    )
    if not (hi > lo and t_last.size and t_mid.size):
        raise NoTrustedSamples(f"omori_yau: no samples in the mid and last tenths of [1, {t_max:g}]")
    return t_last, t_mid


def check_OY_hypotheses(G: GridFn, t_max: float) -> AuditReport:
    """Finite-domain checks of the four admissibility conditions on a
    Ricci lower-bound profile G.

    (i) G(0) > 0 is a precondition, not a flag: a G that is not positive
    and finite everywhere raises NonPositiveG.  The flags are (ii) G
    nondecreasing; (iii) divergence of the integral
    of G^(-1/2), proxied by the last-half increment of the partial
    integral exceeding 5%; (iv) boundedness of t G(sqrt t)/G(t), proxied
    by the max over the last tenth of [1, t_max] staying within 2x the max
    over the mid tenth.  (iii) and (iv) are heuristics on a truncated
    domain and are flagged as such in the notes.
    """
    t_max = float(t_max)
    if not np.all((G.values > 0) & (G.values < math.inf)):  # NaN fails too
        raise NonPositiveG("G must be strictly positive and finite")
    if abs(G.t0) > 1e-12 or t_max > G.t1 + 1e-12:
        raise ValueError("need G sampled on [0, t_max]")
    t_last, t_mid = _oy_windows(G, t_max)

    hyps = {}
    # first-difference quotient: higher-order stencils ring on the
    # staircase a running-max preprocessing produces
    worst = float(np.min(np.diff(G.values))) / G.h
    hyps["nondecreasing"] = Flag(worst >= -_NULL_THRESHOLD, worst)

    inv_sqrt = integrate_cumulative(G.values**-0.5, G.h)
    half, full = interpolate(inv_sqrt, G.t0, G.h, np.array([t_max / 2, t_max])).tolist()
    increment = (full - half) / full if full > 0 else 0.0
    hyps["inverse_sqrt_not_integrable"] = Flag(increment > 0.05, increment)

    m_last, m_mid = (float(np.max(tq * G.eval(np.sqrt(tq)) / G.eval(tq))) for tq in (t_last, t_mid))
    stable = bool(np.isfinite(m_last) and np.isfinite(m_mid) and m_last <= 2.0 * m_mid)
    hyps["scaling_ratio_stabilizes"] = Flag(stable, m_last)

    return AuditReport(
        theorem_id="omori_yau",
        hypothesis_flags=hyps,
        conclusion_flags={},
        notes=(
            "conditions (iii) and (iv) are finite-domain heuristics: "
            "partial-integral growth and windowed ratio maxima stand in for "
            "the integral and limsup conditions",
        ),
    )
