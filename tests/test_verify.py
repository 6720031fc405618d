import json
import math
from dataclasses import replace

import numpy as np
import pytest

from solab.cli import DEMO_MANIFESTS
from solab.errors import MissingParams, NonFiniteValues, NonPositiveG, NotConformallyFlat, NotTraceFree
from solab.factory import (
    ClassifiedCase,
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from solab.geometry import POLE_EXCLUSION_STEPS, Polynomial, SnCombination, WarpProfile
from solab.kernel import EDGE_WIDTH, GridFn, derivative
from solab.manifest import build_spec, parse_manifest
from solab.verify import (
    IDENTITY_IDS,
    TrivialityAuditParams,
    Classification,
    Verdict,
    audit_theorem,
    check_OY_hypotheses,
    classify_soliton,
    grad_T_norm2,
    identity_residual,
    okumura_check,
    residual_report,
    soliton_residual,
)


def gaussian_spec(lambda0=1.0, n=3, r_max=8.0):
    return build_gaussian(lambda0, n, r_max=r_max)


def einstein_cosh(n=4, a=1.0):
    return build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=a, b=0.0, n=n, interval=(0.0, 2.0))


def general_sine(n=3):
    g = SnCombination(k=1.0, c1=1.0, c2=0.0, c0=2.0)  # 2 + sin t
    return build_general_family(g, rho_sigma=1.0, A=0.5, B=0.0, n=n, interval=(0.0, 2 * np.pi))


def hyperbolic_trivial(n=3):
    return build_classified(
        ClassifiedCase.SPACE_FORM, {"c": 1.0, "a": 0.0, "b": 0.0}, n=n, interval=(0.0, 4.0)
    )


ALL_SPECS = {
    "gaussian": gaussian_spec(),
    "einstein_cosh": einstein_cosh(),
    "cylinder": build_einstein_family(c=0.0, g0=1.0, gp0=0.0, a=2.0, b=0.0, n=3),
    "general_sine": general_sine(),
    "hyperbolic_trivial": hyperbolic_trivial(),
    "space_form_sphere": build_classified(
        ClassifiedCase.SPACE_FORM, {"c": -1.0, "a": 0.5, "b": 0.0}, n=3, interval=(0.0, 3.0)
    ),
}


# ---------------------------------------------------------------------------
# defining-equation residual
# ---------------------------------------------------------------------------

def test_corrupted_lambda_is_detected():
    s = gaussian_spec()
    bad = replace(s, lam=s.lam.with_values(s.lam.values + 0.1))
    rep = soliton_residual(bad)
    assert not rep.passed
    assert rep.sup_norm == pytest.approx(0.1, rel=1e-6)


def test_residual_report_fields():
    rep = soliton_residual(einstein_cosh())
    assert rep.identity_id == "soliton"
    assert rep.passed and rep.sup_norm < rep.tolerance_used
    assert 0.0 <= rep.argmax_t <= 2.0
    assert rep.per_point.shape == (2001,)
    assert not rep.per_point.flags.writeable


@pytest.mark.parametrize("one_sided", [False, True])
def test_residual_report_argmax_t_is_the_grid_value(one_sided):
    flat = WarpProfile(n=3, rho_sigma=0.0, g=Polynomial(coeffs=(1.0,)), t0=0.3, t1=7.1, n_samples=2001)
    pole = gaussian_spec().profile
    # the last trusted sample, the first one past the pole band, one inside
    for p, i in ((flat, flat.n_samples - 1 - EDGE_WIDTH), (pole, POLE_EXCLUSION_STEPS), (pole, 1234)):
        bad = 1.0 if one_sided else -1.0  # a violation either way
        per = np.zeros(p.n_samples)
        per[i] = bad
        per[[0, -1]] = 100.0 * bad  # untrusted samples never win
        rep = residual_report("probe", p, per, 0.5, one_sided=one_sided)
        assert rep.sup_norm == 1.0
        assert rep.argmax_t == p.grid[i]


def test_residual_report_rejects_infinite_residuals():
    # an infinite sample is a failure to report, not an untrusted sample to skip
    p = gaussian_spec().profile
    per = np.zeros(p.n_samples)
    per[1000] = np.inf
    with pytest.raises(NonFiniteValues, match="probe"):
        residual_report("probe", p, per, 0.5)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_SPECS))
@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_identities_hold_on_factory_specs(name, ident):
    # every identity is an equality; the trace-free balance residual is
    # balance - |grad T|^2, so a pass also pins the balance to |grad T|^2
    rep = identity_residual(ALL_SPECS[name], ident)
    assert not rep.one_sided
    assert rep.passed, f"{ident} on {name}: {rep.sup_norm:.3e} at t={rep.argmax_t:.3f}"


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_one_sided_trace_free_balance(name):
    # the balance itself (residual + |grad T|^2) is the one-sided
    # statement of the paper: it never goes below zero past the old slack
    s = ALL_SPECS[name]
    rep = identity_residual(s, "trace_free_balance")
    balance = rep.per_point + grad_T_norm2(s).values
    mask = s.profile.trusted_mask("trace-free balance", balance, edge=2 * EDGE_WIDTH)
    assert np.min(balance[mask]) >= -1e-5, f"trace-free balance on {name}: min {np.min(balance[mask]):.3e}"


def test_identity_suite_catches_corruption():
    s = einstein_cosh()
    bad = replace(s, lam=s.lam.with_values(s.lam.values * 1.02))
    assert not identity_residual(bad, "trace").passed


def test_trace_identity_on_gaussian_is_exact():
    # S - n lambda + Delta f = 0 - n lambda0 + (1 + d) lambda0 = 0;
    # the measured value is the stencil second-derivative rounding floor
    rep = identity_residual(gaussian_spec(), "trace")
    assert rep.sup_norm < 1e-8


def test_i2_26r_requires_space_form_fiber():
    from solab.geometry import WarpProfile

    s = einstein_cosh()
    p = s.profile
    bare = WarpProfile(
        n=p.n, rho_sigma=p.rho_sigma, g=p.g, t0=p.t0, t1=p.t1, n_samples=p.n_samples,
        fiber_constant_curvature=False,
    )
    with pytest.raises(NotConformallyFlat):
        identity_residual(replace(s, profile=bare), "trace_free_balance")


def _mutants(s, eps):
    """Perturbed copies of a demo spec; every demo warp is an SnCombination,
    and shifting its k keeps a pole a pole."""
    p, t = s.profile, s.profile.grid
    return {
        "lambda + eps": replace(s, lam=s.lam.with_values(s.lam.values + eps)),
        "lambda - eps": replace(s, lam=s.lam.with_values(s.lam.values - eps)),
        "lambda + eps t": replace(s, lam=s.lam.with_values(s.lam.values + eps * t)),
        "f + eps t^2": replace(s, f=s.f.with_values(s.f.values + eps * t * t)),
        "warp k + eps": replace(s, profile=replace(p, g=replace(p.g, k=p.g.k + eps))),
    }


# A second general-family spec: the demos other than general-sine are Einstein
# or space forms, where T = 0 and both sides of the trace-free balance stay
# near 0.  Here |T|^2 reaches 15 and the balance residual is 9.5e-7.
GENERAL_SIN_2T = dict(
    DEMO_MANIFESTS["general-sine.json"],
    params={
        "g": {"kind": "sin", "offset": 3.0, "amplitude": 1.0, "frequency": 2.0},
        "rho_sigma": 2.0,
        "A": 0.5,
        "B": 0.0,
        "n": 4,
    },
    grid={"interval": [0.0, 4.0], "resolution": 2001},
)
MUTATED_SPECS = {**DEMO_MANIFESTS, "general sin 2t": GENERAL_SIN_2T}

# Mutants (eps = 1e-3) each equality check fails on at least one of
# MUTATED_SPECS at 2001 samples.  scalar_gradient sees only lambda', so no
# constant shift reaches it.  The trace-free balance catches its five only
# on the two general-family specs, where T != 0.
# The Laplacian comparison is left out: derive_setup re-derives G and theta
# from the mutated spec, so its inequality holds for any f and no mutant trips it.
# tests/test_comparison.py checks it against the unmutated spec's setup.
MUTANTS_CAUGHT = {
    "soliton": {"lambda + eps", "lambda - eps", "lambda + eps t", "f + eps t^2", "warp k + eps"},
    "grad_f_bochner": {"lambda + eps", "lambda - eps", "lambda + eps t", "f + eps t^2", "warp k + eps"},
    "trace": {"lambda + eps", "lambda - eps", "lambda + eps t", "f + eps t^2", "warp k + eps"},
    "scalar_gradient": {"lambda + eps t", "f + eps t^2", "warp k + eps"},
    "scalar_laplacian": {"lambda + eps", "lambda - eps", "lambda + eps t", "f + eps t^2", "warp k + eps"},
    "trace_free_balance": {"lambda + eps", "lambda - eps", "lambda + eps t", "f + eps t^2", "warp k + eps"},
}


def test_equality_checks_catch_mutated_demo_specs():
    def passed(spec, check):
        rep = soliton_residual(spec) if check == "soliton" else identity_residual(spec, check)
        return rep.passed

    caught = {check: set() for check in MUTANTS_CAUGHT}
    balance_caught = {}  # spec -> mutants the trace-free balance fails on it
    for spec_name, payload in MUTATED_SPECS.items():
        s = build_spec(parse_manifest(json.dumps(payload).encode()))
        assert s.profile.n_samples == 2001
        for check in caught:
            assert passed(s, check), (spec_name, check)
        for name, mutant in _mutants(s, 1e-3).items():
            for check in caught:
                if not passed(mutant, check):
                    caught[check].add(name)
                    if check == "trace_free_balance":
                        balance_caught.setdefault(spec_name, set()).add(name)
    assert caught == MUTANTS_CAUGHT
    every = MUTANTS_CAUGHT["trace_free_balance"]
    assert balance_caught == {"general-sine.json": every, "general sin 2t": every}


# ---------------------------------------------------------------------------
# |grad T|^2: closed form vs brute-force coordinate computation
# ---------------------------------------------------------------------------

def brute_force_grad_T_norm2(spec, t_eval):
    """Coordinate-chart |grad T|^2 for n = 3 over the unit 2-sphere fiber.

    Metric diag(1, g^2, g^2 sin^2 theta) in (t, theta, phi); the nonzero
    Christoffel symbols are standard.  T is diagonal with eigenvalues
    (tau_r, tau_f, tau_f), i.e. T_tt = tau_r, T_theta_theta = tau_f g^2,
    T_phi_phi = tau_f g^2 sin^2 theta.  Radial derivatives of the
    eigenvalue fields come from stencils on the sampled curvature.
    """
    from solab.geometry import curvature_grids

    p = spec.profile
    assert p.n == 3 and abs(p.rho_sigma - 1.0) < 1e-12
    curv = curvature_grids(p)
    tau_f = GridFn(p.t0, p.t1, curv["tau_f"])
    tau_r = GridFn(p.t0, p.t1, curv["tau_r"])
    dtau_f = derivative(tau_f, 1)
    dtau_r = derivative(tau_r, 1)

    th = 1.1  # arbitrary latitude away from the coordinate axis
    sin, cos = math.sin(th), math.cos(th)
    g, gp, _ = p.g.derivatives(t_eval)
    tf, tr = float(tau_f.eval(t_eval)), float(tau_r.eval(t_eval))
    tfp, trp = float(dtau_f.eval(t_eval)), float(dtau_r.eval(t_eval))

    # index order (t, theta, phi) = (0, 1, 2)
    dim = 3
    gamma = np.zeros((dim, dim, dim))  # gamma[a][b][c] = Gamma^a_{bc}
    gamma[0][1][1] = -g * gp
    gamma[0][2][2] = -g * gp * sin * sin
    gamma[1][0][1] = gamma[1][1][0] = gp / g
    gamma[2][0][2] = gamma[2][2][0] = gp / g
    gamma[1][2][2] = -sin * cos
    gamma[2][1][2] = gamma[2][2][1] = cos / sin

    T = np.diag([tr, tf * g * g, tf * g * g * sin * sin])
    dT = np.zeros((dim, dim, dim))  # dT[c][a][b] = partial_c T_ab
    dT[0][0][0] = trp
    dT[0][1][1] = tfp * g * g + 2.0 * tf * g * gp
    dT[0][2][2] = (tfp * g * g + 2.0 * tf * g * gp) * sin * sin
    dT[1][2][2] = tf * g * g * 2.0 * sin * cos

    nablaT = np.zeros((dim, dim, dim))  # nabla_c T_ab
    for c in range(dim):
        for a in range(dim):
            for b in range(dim):
                v = dT[c][a][b]
                for e in range(dim):
                    v -= gamma[e][c][a] * T[e][b] + gamma[e][c][b] * T[a][e]
                nablaT[c][a][b] = v

    inv = np.diag([1.0, 1.0 / (g * g), 1.0 / (g * g * sin * sin)])
    total = 0.0
    for c in range(dim):
        for a in range(dim):
            for b in range(dim):
                total += inv[c, c] * inv[a, a] * inv[b, b] * nablaT[c][a][b] ** 2
    return total


def test_grad_T_closed_form_vanishes_on_space_forms():
    s = hyperbolic_trivial()
    gt = grad_T_norm2(s)
    mask = s.profile.valid_mask(gt.values)
    assert np.max(np.abs(gt.values[mask])) < 1e-12
    for t in (0.8, 1.5, 2.5):
        assert brute_force_grad_T_norm2(s, t) == pytest.approx(0.0, abs=1e-12)


def test_grad_T_closed_form_matches_brute_force_off_einstein():
    s = general_sine()
    gt = grad_T_norm2(s)
    for t in (1.0, 2.0, 3.5, 5.0):
        assert float(gt.eval(t)) == pytest.approx(
            brute_force_grad_T_norm2(s, t), rel=1e-6, abs=1e-9
        )


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_trace_free_balance_defect_equals_grad_T(name):
    # the residual is the balance defect minus |grad T|^2; on the wider
    # single-stencil band it stays within 2e-5 of zero
    s = ALL_SPECS[name]
    rep = identity_residual(s, "trace_free_balance")
    gt = grad_T_norm2(s)
    mask = s.profile.valid_mask(rep.per_point, gt.values)
    defect = rep.per_point + gt.values
    assert np.max(np.abs(defect[mask] - gt.values[mask])) < 2e-5


# ---------------------------------------------------------------------------
# Okumura
# ---------------------------------------------------------------------------

def test_okumura_equality_pattern_n3():
    lhs, rhs, ok = okumura_check([-2.0, 1.0, 1.0])
    assert lhs == pytest.approx(-6.0, abs=1e-12)
    assert rhs == pytest.approx(-6.0, abs=1e-12)
    assert ok


def test_okumura_strict_case():
    lhs, rhs, ok = okumura_check([2.0, -1.0, -1.0])
    assert lhs == pytest.approx(6.0)
    assert rhs == pytest.approx(-6.0)
    assert ok


def test_okumura_zeros():
    lhs, rhs, ok = okumura_check(np.zeros(5))
    assert lhs == rhs == 0.0 and ok


def test_okumura_rejects_nonzero_trace():
    with pytest.raises(NotTraceFree):
        okumura_check([1.0, 1.0, 1.0])


def test_okumura_random_tuples_and_equality_classifier():
    rng = np.random.default_rng(42)
    for n in range(3, 9):
        v = rng.normal(size=(10_000, n))
        v -= v.mean(axis=1, keepdims=True)
        norm2 = np.sum(v**2, axis=1)
        lhs = np.sum(v**3, axis=1)
        rhs = -(n - 2) / math.sqrt(n * (n - 1)) * norm2**1.5
        gap = lhs - rhs
        assert np.min(gap) >= -1e-12
        # equality within 1e-10 only near multiples of (-(n-1), 1, ..., 1)
        tight = gap < 1e-10 * np.maximum(1.0, norm2**1.5)
        pattern = np.sort(np.array([-(n - 1.0)] + [1.0] * (n - 1)))
        pattern /= np.linalg.norm(pattern)
        for row in v[tight]:
            unit = np.sort(row) / np.linalg.norm(row)
            assert np.max(np.abs(unit - pattern)) < 1e-4


def test_okumura_check_takes_tuples_along_the_last_axis():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(2, 25, 4))
    v -= v.mean(axis=-1, keepdims=True)
    lhs, rhs, ok = okumura_check(v)
    assert lhs.shape == rhs.shape == ok.shape == (2, 25)
    # numpy's vector pow may round the last bit differently from the scalar one
    for row, l1, r1, ok1 in zip(v.reshape(-1, 4), lhs.ravel(), rhs.ravel(), ok.ravel()):
        assert okumura_check(row) == (pytest.approx(l1, rel=1e-15), pytest.approx(r1, rel=1e-15), ok1)
    v[1, 7, 0] += 1e-3  # one tuple off the trace-free subspace rejects the stack
    with pytest.raises(NotTraceFree):
        okumura_check(v)


def test_okumura_equality_for_scaled_patterns():
    for n in range(3, 9):
        for s in (0.5, 1.0, 2.0):
            tup = [-(n - 1) * s] + [s] * (n - 1)
            lhs, rhs, ok = okumura_check(tup)
            assert ok
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classifications():
    assert classify_soliton(gaussian_spec()) is Classification.SHRINKING
    assert classify_soliton(ALL_SPECS["cylinder"]) is Classification.STEADY
    # lambda = sinh t - 3 changes sign on [0, 2] since sinh 2 > 3
    assert classify_soliton(einstein_cosh()) is Classification.INDEFINITE
    assert classify_soliton(hyperbolic_trivial()) is Classification.TRIVIAL
    assert classify_soliton(gaussian_spec(lambda0=-1.0, n=2, r_max=4.0)) is Classification.EXPANDING


# ---------------------------------------------------------------------------
# theorem audits
# ---------------------------------------------------------------------------

def test_audit_scalar_bounds_gaussian_shrinking_case():
    rep = audit_theorem(gaussian_spec(), "scalar_bounds")
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.conclusion_flags["scalar_infimum_nonnegative"]
    assert rep.conclusion_flags["upper_bound_n_lambda"]


def test_audit_scalar_bounds_steady_cylinder_case():
    rep = audit_theorem(ALL_SPECS["cylinder"], "scalar_bounds")
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.conclusion_flags["scalar_infimum_zero"]


def test_audit_scalar_bounds_trivial_expanding_equality():
    rep = audit_theorem(hyperbolic_trivial(), "scalar_bounds")
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.conclusion_flags["lower_bound_n_lambda"]


def test_audit_triviality_requires_params():
    with pytest.raises(MissingParams):
        audit_theorem(gaussian_spec(), "triviality")


def test_audit_triviality_exponential_gradient_fails_growth():
    # space-form expander: f' grows like sinh, so the polynomial growth
    # hypothesis cannot hold and the nontrivial soliton is no counterexample
    s = build_classified(
        ClassifiedCase.SPACE_FORM, {"c": 1.0, "a": -0.5, "b": 0.0}, n=4, interval=(0.0, 6.0)
    )
    params = TrivialityAuditParams(alpha=0.0, sigma=0.5, mu=0.0, A=1.0, B=1.0)
    rep = audit_theorem(s, "triviality", params)
    assert rep.verdict is Verdict.HYPOTHESES_NOT_MET
    assert not rep.hypothesis_flags["gradient_growth"].passed
    assert rep.hypothesis_flags["gradient_growth"].measured > 2.0 / 3.0
    assert rep.hypothesis_flags["expanding"].passed


def test_audit_triviality_params_validation():
    with pytest.raises(ValueError):
        TrivialityAuditParams(alpha=-3.0, sigma=0.0, mu=0.0, A=1.0, B=1.0)
    with pytest.raises(ValueError):
        TrivialityAuditParams(alpha=0.0, sigma=0.9, mu=0.0, A=1.0, B=1.0)
    with pytest.raises(ValueError):
        TrivialityAuditParams(alpha=0.0, sigma=0.0, mu=2.0, A=1.0, B=1.0)
    with pytest.raises(ValueError):
        TrivialityAuditParams(alpha=0.0, sigma=0.0, mu=0.0, A=2.0, B=1.0)


def test_audit_trace_free_gap_einstein_branch():
    rep = audit_theorem(einstein_cosh(), "trace_free_gap")
    assert rep.verdict is Verdict.CONSISTENT
    assert rep.conclusion_flags["einstein_or_gap"]


@pytest.mark.parametrize("name", sorted(ALL_SPECS))
def test_no_factory_spec_violates_any_theorem(name):
    s = ALL_SPECS[name]
    params = TrivialityAuditParams(alpha=0.0, sigma=0.0, mu=0.0, A=1.0, B=1.0)
    for theorem in ("triviality", "scalar_bounds", "trace_free_gap"):
        rep = audit_theorem(s, theorem, params)
        assert rep.verdict is not Verdict.VIOLATION, f"{theorem} on {name}"


# ---------------------------------------------------------------------------
# Omori-Yau hypothesis checker
# ---------------------------------------------------------------------------

def test_oy_quadratic_profile_passes_all_four():
    G = GridFn.from_callable(lambda t: t**2 + 1.0, 0.0, 100.0, 4001)
    rep = check_OY_hypotheses(G, 100.0)
    assert rep.verdict is Verdict.CONSISTENT
    assert all(f.passed for f in rep.hypothesis_flags.values())


def test_oy_gaussian_growth_fails_integrability_condition():
    G = GridFn.from_callable(lambda t: np.exp(t**2), 0.0, 20.0, 4001)
    rep = check_OY_hypotheses(G, 20.0)
    assert not rep.hypothesis_flags["inverse_sqrt_not_integrable"].passed
    assert rep.verdict is Verdict.HYPOTHESES_NOT_MET


def test_oy_constant_profile_passes():
    G = GridFn.constant(1.0, 0.0, 100.0, 2001)
    rep = check_OY_hypotheses(G, 100.0)
    assert rep.verdict is Verdict.CONSISTENT


def test_oy_rejects_nonpositive_profile():
    G = GridFn.from_callable(lambda t: t - 1.0, 0.0, 10.0, 2001)
    with pytest.raises(NonPositiveG):
        check_OY_hypotheses(G, 10.0)


def test_audit_violation_on_inconsistent_spec():
    # hand-built non-soliton: hyperbolic profile (S = -6) dressed with a
    # shrinking constant soliton function; hypotheses all measure true,
    # the scalar-curvature conclusion measures false -> VIOLATION, the
    # state the suite exists to catch
    base = hyperbolic_trivial()
    fake = replace(base, lam=base.lam.with_values(np.ones(base.lam.n_samples)),
                   f=base.f.with_values(1e-6 * base.f.grid**2))
    assert not soliton_residual(fake).passed
    rep = audit_theorem(fake, "scalar_bounds")
    assert rep.verdict is Verdict.VIOLATION
    assert all(f.passed for f in rep.hypothesis_flags.values())
    assert not rep.conclusion_flags["scalar_infimum_nonnegative"]


def test_audit_triviality_all_hypotheses_met_on_trivial_expander():
    # constant-potential hyperbolic expander: every hypothesis holds at
    # the boundary and the trivial conclusion closes the audit
    s = hyperbolic_trivial()
    params = TrivialityAuditParams(alpha=0.0, sigma=0.0, mu=0.0, A=1.0, B=1.0)
    rep = audit_theorem(s, "triviality", params)
    assert rep.verdict is Verdict.CONSISTENT
    assert all(f.passed for f in rep.hypothesis_flags.values())
    assert rep.conclusion_flags["trivial"]


def test_audit_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        audit_theorem(gaussian_spec(), "uniformization")


def test_identity_unknown_id_rejected():
    with pytest.raises(ValueError):
        identity_residual(gaussian_spec(), "bianchi")


def test_residual_detects_corrupted_potential():
    s = gaussian_spec()
    bad = replace(s, f=s.f.with_values(s.f.values + 0.05 * np.sin(s.f.grid)))
    assert not soliton_residual(bad).passed
