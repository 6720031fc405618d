"""Numerical verification: defining-equation residuals, differential
identities, the trace-free sharp cubic bound, soliton classification, and
the hypothesis/conclusion audits for the triviality, scalar-curvature and
gap theorems plus the Omori-Yau condition set.

All identity checks are radial transcriptions evaluated on the working
grid.  Sup-norms run over trusted samples only: 4 stencil points at each
end are dropped (8 for identity residuals), and on pole models the band
within 10 grid spacings of the pole, where 1/g amplifies stencil noise.
Grid extrema (S_*, lambda_*, ...) are finite-domain approximations of
the global quantities, so audits report "consistent with", not "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    MissingParams,
    NonFiniteValues,
    NonPositiveG,
    NoTrustedSamples,
    NotConformallyFlat,
    NotTraceFree,
)
from .factory import SolitonSpec
from .geometry import radial_laplacian
from .kernel import EDGE_WIDTH, GridFn, derivative, integrate_cumulative, nan_fill

__all__ = [
    "IDENTITY_IDS",
    "ResidualReport",
    "Flag",
    "AuditReport",
    "TrivialityAuditParams",
    "Verdict",
    "Classification",
    "residual_report",
    "soliton_residual",
    "identity_residual",
    "grad_T_norm2",
    "okumura_check",
    "classify_soliton",
    "audit_theorem",
    "check_OY_hypotheses",
    "IDENTITY_TOL",
    "ONE_SIDED_SLACK",
]

IDENTITY_TOL = 1e-5       # second-order identity residuals
ONE_SIDED_SLACK = 1e-5    # slack for one-sided (nonnegativity) checks

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

    For two-sided checks sup_norm is max |per_point| over trusted samples.
    For one-sided checks (the trace-free balance, the Laplacian
    comparison) per_point must stay on one side of zero and sup_norm
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
    verdict: Verdict
    notes: tuple = ()

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


@dataclass(frozen=True)
class TrivialityAuditParams:
    """Exponents and constants for the expanding-triviality audit.

    alpha > -2 and 0 <= sigma <= 2/3; mu must satisfy
    min{0, -alpha} <= mu <= 1 - 3 sigma/2 (sigma >= alpha) or
    1 - sigma - alpha/2 (sigma < alpha); B >= A > 0.
    """

    alpha: float
    sigma: float
    mu: float
    A: float
    B: float

    def __post_init__(self):
        if not self.alpha > -2:
            raise ValueError("alpha must exceed -2")
        if not 0 <= self.sigma <= 2.0 / 3.0:
            raise ValueError("sigma must lie in [0, 2/3]")
        upper = 1 - 1.5 * self.sigma if self.sigma >= self.alpha else 1 - self.sigma - self.alpha / 2
        if not min(0.0, -self.alpha) <= self.mu <= upper:
            raise ValueError("mu outside the admissible window")
        if not (self.B >= self.A > 0):
            raise ValueError("need B >= A > 0")


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual_report(
    ident: str, p, per_point: np.ndarray, tol: float, *, sign: int = 0, edge: int = EDGE_WIDTH
) -> ResidualReport:
    """Sup-norm report of per_point over the trusted samples of profile p;
    the report keeps per_point itself, set read-only.

    sign = 0: two-sided, passes when max |per_point| < tol.  sign = +1
    (-1): one-sided, per_point must stay >= 0 (<= 0); sup_norm is the
    worst violation (0 when there is none) and the check passes when it
    is at most tol.  argmax_t locates the worst sample either way.
    """
    if np.isinf(per_point).any():
        raise NonFiniteValues(f"{ident}: residual values must not contain infinities")
    per_point.setflags(write=False)
    mask = p.trusted_mask(ident, per_point, edge=edge)
    vals = np.abs(per_point) if sign == 0 else -sign * per_point
    # untrusted samples can never win: every trusted one is finite
    vals[~mask] = -np.inf
    k = int(np.argmax(vals))
    worst = float(vals[k])
    return ResidualReport(
        identity_id=ident,
        sup_norm=worst if sign == 0 else max(0.0, worst),
        argmax_t=p.grid_at(k),
        per_point=per_point,
        tolerance_used=tol,
        passed=worst < tol if sign == 0 else worst <= tol,
        one_sided=sign != 0,
    )


def soliton_residual(s: SolitonSpec, tol: float | None = None) -> ResidualReport:
    """Residual of Ric + Hess(f) = lambda <,> in both eigendirections:
    max(|rho_fib + f' g'/g - lambda|, |rho_rad + f'' - lambda|)."""
    eig_f, eig_r = s.bakry_emery
    lam = s.lam.values
    per_point = np.maximum(np.abs(eig_f - lam), np.abs(eig_r - lam))
    return residual_report(
        "soliton", s.profile, per_point, s.residual_tolerance if tol is None else tol
    )


def identity_residual(s: SolitonSpec, ident: str, tol: float | None = None) -> ResidualReport:
    """Radial residual of one of the differential identities.

    grad_f_bochner      half Delta_f |grad f|^2 against |Hess f|^2
    trace               trace of the defining equation, S - n lambda + Delta f
    scalar_gradient     S' = 2(n-1) lambda' + 2 f' Ric(radial)
    scalar_laplacian    half Delta_f S against lambda S - |Ric|^2
    trace_free_balance  one-sided: the |T|^2 balance whose defect is
                        |grad T|^2 >= 0 (needs a declared space-form fiber)
    """
    if ident not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {ident!r}")
    p = s.profile
    n, d = p.n, p.d
    c = p.curvature
    lam = s.lam.values
    sign = 0

    if ident == "grad_f_bochner":
        with np.errstate(over="ignore", invalid="ignore"):  # left to GridFn's and residual_report's checks
            hess2 = s.fpp**2 + d * (s.fp * p.g_ratio) ** 2
            per = (
                0.5 * s.f_laplacian(s.fp**2)
                - hess2
                + lam * s.fp**2
                + (n - 2) * s.lamp * s.fp
            )
    elif ident == "trace":
        per = c["S"] - n * lam + radial_laplacian(p, s.fp, s.fpp)
    elif ident == "scalar_gradient":
        S_prime = derivative(GridFn(p.t0, p.t1, nan_fill(c["S"])), 1).values
        per = S_prime - 2 * (n - 1) * s.lamp - 2 * s.fp * c["rho_rad"]
    elif ident == "scalar_laplacian":
        per = (
            0.5 * s.f_laplacian(nan_fill(c["S"]))
            - lam * c["S"]
            + c["ric_norm2"]
            - (n - 1) * s.lap_lam
        )
    else:  # trace_free_balance
        if not (p.fiber_constant_curvature and n >= 3):
            raise NotConformallyFlat("the |T|^2 balance needs a space-form fiber and n >= 3")
        sign = 1
        per = (
            0.5 * s.f_laplacian(nan_fill(c["T_norm2"]))
            - 2.0 * (lam - c["S"] * (n - 2) / (n * (n - 1))) * c["T_norm2"]
            - (n - 2) * s.hess_lam_T
            - 4.0 / (n - 2) * c["trT3"]
        )
    if tol is None:
        tol = ONE_SIDED_SLACK if sign else IDENTITY_TOL
    # composed stencils pollute twice the band
    return residual_report(ident, p, per, tol, sign=sign, edge=2 * EDGE_WIDTH)


def grad_T_norm2(s: SolitonSpec) -> GridFn:
    """|grad T|^2 from the first derivatives of the trace-free eigenvalues:

        d (tau_f')^2 + (tau_r')^2 + 2 d (g'/g)^2 (tau_f - tau_r)^2

    The cross term carries the mixed fiber-radial components T(e_k, dt)
    generated by parallel transport; the formula is validated against a
    brute-force coordinate computation in the test suite.
    """
    p = s.profile
    tf = nan_fill(p.curvature["tau_f"])
    tr = nan_fill(p.curvature["tau_r"])
    tfp = derivative(GridFn(p.t0, p.t1, tf), 1).values
    trp = derivative(GridFn(p.t0, p.t1, tr), 1).values
    vals = p.d * tfp**2 + trp**2 + 2.0 * p.d * p.g_ratio**2 * (tf - tr) ** 2
    return GridFn(p.t0, p.t1, np.where(np.isfinite(vals), vals, np.nan))


# ---------------------------------------------------------------------------
# Okumura's bound
# ---------------------------------------------------------------------------

def okumura_check(eigenvalues):
    """Sharp cubic trace bound for a trace-free symmetric tensor:

        sum lam_i^3 >= -(n-2)/sqrt(n(n-1)) * (sum lam_i^2)^(3/2)

    Returns (lhs, rhs, passed); equality is attained exactly on multiples
    of (-(n-1), 1, ..., 1) and permutations.  Tuples run along the last
    axis; a stack of tuples gives arrays of lhs, rhs and passed.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.shape[-1] if lam.ndim else 1
    if n < 2:
        raise ValueError("need at least two eigenvalues")
    trace = np.abs(lam.sum(axis=-1))
    if np.max(trace) > 1e-10:
        raise NotTraceFree(f"eigenvalues sum to {np.max(trace):.3e} in absolute value")
    lhs = np.sum(lam * lam * lam, axis=-1)
    rhs = -(n - 2) / math.sqrt(n * (n - 1)) * np.sum(lam**2, axis=-1) ** 1.5
    if lam.ndim == 1:
        lhs, rhs = float(lhs), float(rhs)
    return lhs, rhs, lhs >= rhs - 1e-12


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

_NULL_THRESHOLD = 1e-10


def classify_soliton(s: SolitonSpec) -> Classification:
    """Sign census of lambda; trivial when the potential is constant."""
    fp = s.fp
    if np.max(np.abs(fp)) < _NULL_THRESHOLD:
        return Classification.TRIVIAL
    lam = s.lam.values
    pos = bool(np.any(lam > _NULL_THRESHOLD))
    neg = bool(np.any(lam < -_NULL_THRESHOLD))
    if pos and neg:
        return Classification.INDEFINITE
    if pos:
        return Classification.SHRINKING
    if neg:
        return Classification.EXPANDING
    return Classification.STEADY


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


def _verdict(hyps: dict, concls: dict) -> Verdict:
    if all(f.passed for f in hyps.values()):
        return Verdict.CONSISTENT if all(concls.values()) else Verdict.VIOLATION
    return Verdict.HYPOTHESES_NOT_MET


def _audit_triviality(s: SolitonSpec, params: TrivialityAuditParams) -> AuditReport:
    fp = s.fp
    p = s.profile
    n = p.n
    lam = s.lam.values
    mask = p.trusted_mask("triviality", lam, fp)
    t = p.grid
    r = t - p.t0

    hyps = {}
    hyps["expanding"] = Flag(bool(np.all(lam < 0)), float(np.max(lam)))

    with np.errstate(over="ignore"):
        grad2 = fp**2
    if np.isinf(grad2).any():
        raise NonFiniteValues("triviality: |grad f|^2 leaves the float range")
    fit = mask & (t >= p.t0 + 2.0 * (p.t1 - p.t0) / 3.0)
    exponent = _fit_growth_exponent(r[fit], grad2[fit])
    if np.max(grad2[mask]) < 1e-20:
        growth_ok = True
    elif params.sigma == 0:
        growth_ok = exponent <= 0.05
    else:
        growth_ok = exponent <= params.sigma - 0.05
    hyps["gradient_growth"] = Flag(bool(growth_ok), exponent)

    lower = -(n - 1) * params.B**2 * (1 + r**2) ** (params.alpha / 2)
    upper = -(n - 1) * params.A**2 * (1 + r**2) ** (-params.mu / 2)
    violation = np.maximum(lower - lam, lam - upper)[mask]
    hyps["lambda_bounds"] = Flag(bool(np.max(violation) <= 1e-12), float(np.max(violation)))

    if n == 2:
        hyps["sign_condition"] = Flag(True, "n = 2, condition waived")
    else:
        with np.errstate(over="ignore"):  # an infinite product fails the flag, as it should
            worst = float(np.max((s.lamp * fp)[mask]))
        hyps["sign_condition"] = Flag(worst <= _NULL_THRESHOLD, worst)

    concls = {"trivial": bool(np.max(np.abs(fp[mask])) < 1e-8)}
    return AuditReport(
        theorem_id="triviality",
        hypothesis_flags=hyps,
        conclusion_flags=concls,
        verdict=_verdict(hyps, concls),
        notes=("growth exponents fitted on the final third of a finite grid",),
    )


def _audit_scalar_bounds(s: SolitonSpec) -> AuditReport:
    p = s.profile
    n = p.n
    c = p.curvature
    lam = s.lam.values
    mask = p.trusted_mask("scalar_bounds", c["S"])

    plain_lap_lam = s.lap_lam
    lap_mask = p.trusted_mask("scalar_bounds", plain_lap_lam)
    worst = float(np.max(plain_lap_lam[lap_mask]))
    hyps = {"delta_lambda_nonpositive": Flag(worst <= _NULL_THRESHOLD, worst)}

    cls = classify_soliton(s)
    if cls is Classification.TRIVIAL:
        # constant lambda: audit the sign it has
        lam0 = float(np.mean(lam))
        cls = (
            Classification.EXPANDING if lam0 < -_NULL_THRESHOLD
            else Classification.SHRINKING if lam0 > _NULL_THRESHOLD
            else Classification.STEADY
        )
    definite = cls in (Classification.EXPANDING, Classification.STEADY, Classification.SHRINKING)
    hyps["definite_sign"] = Flag(definite, cls.value)

    S_star = float(np.min(c["S"][mask]))
    lam_star = float(np.min(lam))
    lam_sup = float(np.max(lam))

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
        verdict=_verdict(hyps, concls),
        notes=(
            f"S_* = {S_star:.6g}, lambda_* = {lam_star:.6g}, lambda^* = {lam_sup:.6g} (grid extrema)",
            "the sign hypothesis uses the plain (unweighted) Laplacian of lambda",
        ),
    )


def _audit_trace_free_gap(s: SolitonSpec) -> AuditReport:
    p = s.profile
    n = p.n
    c = p.curvature
    mask = p.trusted_mask("trace_free_gap", c["S"], c["T_norm2"])

    hess_lam_T = s.hess_lam_T
    worst = float(np.min(hess_lam_T[p.trusted_mask("trace_free_gap", hess_lam_T)]))
    hyps = {
        "hess_lambda_T_nonnegative": Flag(worst >= -_NULL_THRESHOLD, worst),
        "conformally_flat": Flag(bool(p.fiber_constant_curvature), str(p.fiber_constant_curvature)),
    }
    S_sup = float(np.max(c["S"][mask]))
    lam_star = float(np.min(s.lam.values))
    hyps["scalar_curvature_bounded_above"] = Flag(bool(np.isfinite(S_sup)), S_sup)
    hyps["lambda_bounded_below"] = Flag(bool(np.isfinite(lam_star)), lam_star)

    T_sup = float(math.sqrt(max(0.0, np.max(c["T_norm2"][mask]))))
    gap = 0.5 * (math.sqrt(n * (n - 1)) * lam_star - S_sup * (n - 2) / math.sqrt(n * (n - 1)))
    einstein = T_sup < 1e-8
    concls = {"einstein_or_gap": bool(einstein or T_sup >= gap - 1e-8)}
    return AuditReport(
        theorem_id="trace_free_gap",
        hypothesis_flags=hyps,
        conclusion_flags=concls,
        verdict=_verdict(hyps, concls),
        notes=(f"|T|^* = {T_sup:.6g}, gap threshold = {gap:.6g} (grid extrema)",),
    )


def audit_theorem(s: SolitonSpec, theorem: str, params: TrivialityAuditParams | None = None) -> AuditReport:
    """Audit one theorem on a spec: measure every hypothesis, measure the
    conclusion, and report VIOLATION only when the hypotheses all hold and
    the conclusion fails (that state failing is the point of the audit)."""
    if theorem == "triviality":
        if params is None:
            raise MissingParams("the triviality audit needs TrivialityAuditParams")
        return _audit_triviality(s, params)
    if theorem == "scalar_bounds":
        return _audit_scalar_bounds(s)
    if theorem == "trace_free_gap":
        return _audit_trace_free_gap(s)
    raise ValueError(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# Omori-Yau condition set
# ---------------------------------------------------------------------------

def check_OY_hypotheses(G: GridFn, t_max: float) -> AuditReport:
    """Finite-domain checks of the four admissibility conditions on a
    Ricci lower-bound profile G.

    (i) G(0) > 0; (ii) G nondecreasing; (iii) divergence of the integral
    of G^(-1/2), proxied by the last-half increment of the partial
    integral exceeding 5%; (iv) boundedness of t G(sqrt t)/G(t), proxied
    by the max over the last tenth of [1, t_max] staying within 2x the max
    over the mid tenth.  (iii) and (iv) are heuristics on a truncated
    domain and are flagged as such in the notes.
    """
    t_max = float(t_max)
    if not np.all(G.values > 0):  # NaN fails too
        raise NonPositiveG("G must be strictly positive")
    if G.t0 > 1e-12 or t_max > G.t1 + 1e-12:
        raise ValueError("need G sampled on [0, t_max]")
    t = G.grid
    lo, hi = 1.0, t_max
    tw = t[(t >= lo) & (t <= hi)]
    last = tw >= hi - 0.1 * (hi - lo)
    mid = (tw >= lo + 0.5 * (hi - lo)) & (tw <= lo + 0.6 * (hi - lo))
    if not (hi > lo and last.any() and mid.any()):
        raise NoTrustedSamples(f"omori_yau: no samples in the mid and last tenths of [1, {t_max:g}]")

    hyps = {}
    hyps["positive_at_origin"] = Flag(bool(G.values[0] > 0), float(G.values[0]))

    # first-difference quotient: higher-order stencils ring on the
    # staircase a running-max preprocessing produces
    worst = float(np.min(np.diff(G.values))) / G.h
    hyps["nondecreasing"] = Flag(worst >= -_NULL_THRESHOLD, worst)

    inv_sqrt = integrate_cumulative(G.with_values(G.values**-0.5))
    full = float(inv_sqrt.eval(t_max))
    half = float(inv_sqrt.eval(t_max / 2))
    increment = (full - half) / full if full > 0 else 0.0
    hyps["inverse_sqrt_not_integrable"] = Flag(increment > 0.05, increment)

    m_last, m_mid = (float(np.max(tq * G.eval(np.sqrt(tq)) / G.eval(tq))) for tq in (tw[last], tw[mid]))
    stable = bool(np.isfinite(m_last) and np.isfinite(m_mid) and m_last <= 2.0 * m_mid)
    hyps["scaling_ratio_stabilizes"] = Flag(stable, m_last)

    return AuditReport(
        theorem_id="omori_yau",
        hypothesis_flags=hyps,
        conclusion_flags={},
        verdict=_verdict(hyps, {}),
        notes=(
            "conditions (iii) and (iv) are finite-domain heuristics: "
            "partial-integral growth and windowed ratio maxima stand in for "
            "the integral and limsup conditions",
        ),
    )
