"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s and in
failure reports).  Every criterion runs in well under 10 seconds at the
default 2001-sample resolution.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from solab.comparison import (
    VolestConstants,
    derive_setup,
    diameter_bound,
    f_parabolic_test,
    laplacian_comparison_check,
    volest_bound,
    volume_bound_check,
)
from solab.factory import (
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from solab.geometry import SnCombination, weighted_ball_volume, weighted_sphere_volume
from solab.kernel import GridFn
from solab.verify import (
    IDENTITY_IDS,
    Verdict,
    audit_theorem,
    check_OY_hypotheses,
    identity_residual,
    okumura_check,
    soliton_residual,
)

TWO_PI_CUBED_SQRT = 15.749609945722419  # (2 pi)^(3/2), frozen from the series oracle


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {label}: PASS")


def closed_form_specs():
    return {
        "einstein c=-1": build_einstein_family(c=-1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 1.5)),
        "einstein c=0": build_einstein_family(c=0.0, g0=1.0, gp0=0.0, a=2.0, b=0.0, n=3, interval=(0.0, 4.0)),
        "einstein c=1": build_einstein_family(c=1.0, g0=1.0, gp0=0.0, a=1.0, b=0.0, n=4, interval=(0.0, 2.0)),
        "gaussian": build_gaussian(1.0, 3, r_max=8.0),
        "classified space form": build_classified(c=-1.0, a=0.5, b=0.0, n=3, r_max=3.0),
        "classified hyperbolic": build_einstein_family(
            c=1.0, g0=1.0, gp0=0.5, a=0.4, b=0.1, n=4, interval=(0.0, 2.0)
        ),
    }


def general_spec():
    g = SnCombination(k=1.0, c1=1.0, c2=0.0, c0=2.0)  # 2 + sin t
    return build_general_family(g, rho_sigma=1.0, A=0.5, B=0.0, n=3, interval=(0.0, 2 * np.pi))


def all_factory_specs():
    specs = closed_form_specs()
    specs["general sine"] = general_spec()
    return specs


def test_criterion_1_defining_equation_residuals():
    with criterion(1, "defining-equation residuals"):
        for name, spec in closed_form_specs().items():
            rep = soliton_residual(spec)
            assert rep.sup_norm < 1e-8, f"{name}: {rep.sup_norm:.3e}"
        rep = soliton_residual(general_spec())
        assert rep.sup_norm < 1e-6, f"general: {rep.sup_norm:.3e}"


def test_criterion_2_identity_suite():
    with criterion(2, "differential identity suite"):
        for name, spec in all_factory_specs().items():
            # the trace-free balance is checked as the equality with |grad T|^2
            # (formula validated against a brute-force frame computation in test_verify)
            for ident in IDENTITY_IDS:
                rep = identity_residual(spec, ident)
                assert not rep.one_sided
                assert rep.sup_norm < 1e-5, f"{ident} on {name}: {rep.sup_norm:.3e}"


def test_criterion_3_okumura_bound():
    with criterion(3, "trace-free cubic bound"):
        rng = np.random.default_rng(42)
        for n in range(3, 9):
            v = rng.normal(size=(10_000, n))
            v -= v.mean(axis=1, keepdims=True)
            lhs = np.sum(v**3, axis=1)
            rhs = -(n - 2) / math.sqrt(n * (n - 1)) * np.sum(v**2, axis=1) ** 1.5
            assert np.min(lhs - rhs) >= -1e-12
            for s in (0.5, 1.0, 2.0):
                lhs1, rhs1, ok = okumura_check([-(n - 1) * s] + [s] * (n - 1))
                assert ok and abs(lhs1 - rhs1) < 1e-10 * max(1.0, abs(rhs1))


def test_criterion_4_comparison_sharpness():
    with criterion(4, "comparison sharpness on models"):
        hyper = build_classified(c=1.0, a=0.0, b=0.0, n=3, r_max=4.0)
        euclid = build_gaussian(0.0, 3, r_max=8.0)
        for spec, actual_lap in ((hyper, lambda r: 2.0 / math.tanh(r)), (euclid, lambda r: 2.0 / r)):
            cs = derive_setup(spec)
            rep = laplacian_comparison_check(spec, cs)
            assert rep.passed
            per = GridFn(spec.profile.t0, spec.profile.t1, rep.per_point)
            for r in (0.5, 1.0, 2.0):
                gap = float(per.eval(r))
                assert abs(gap) <= 1e-6 * abs(actual_lap(r)), f"laplacian bound gap at r={r}: {gap:.3e}"
                actual, bound, ok = volume_bound_check(spec, cs, r)
                assert ok and abs(actual - bound) <= 1e-6 * bound, f"volume bound mismatch at r={r}"
        for r in (0.5, 1.0, 2.0):
            vol = weighted_ball_volume(hyper.profile, hyper.f, r)
            assert vol == pytest.approx(math.pi * (math.sinh(2 * r) - 2 * r), abs=1e-8)


def test_criterion_5_decay_rate_volume_estimate():
    with criterion(5, "decay-rate volume estimate on the shrinker"):
        s = build_gaussian(1.0, 3, r_max=8.0)
        p = s.profile
        consts = VolestConstants(
            r0=2.0,
            C=p.d / 2.0 - 2.0,  # Delta_f r = d/r - r at the calibration radius
            sphere_vol_r0=weighted_sphere_volume(p, s.f, 2.0),
            ball_vol_r0=weighted_ball_volume(p, s.f, 2.0),
        )
        for r in np.linspace(2.0, 8.0, 61):
            sphere_bound, _ = volest_bound(1.0, 0.0, consts, float(r))
            actual = 4 * math.pi * r * r * math.exp(-r * r / 2.0)
            assert actual <= sphere_bound * (1 + 1e-9), f"r={r:.2f}"
        total = weighted_ball_volume(p, s.f, 8.0)
        assert abs(total - TWO_PI_CUBED_SQRT) < 1e-6


def test_criterion_6_scalar_curvature_audits():
    with criterion(6, "scalar-curvature theorem audits"):
        gaussian = build_gaussian(1.0, 3, r_max=8.0)
        rep = audit_theorem(gaussian, "scalar_bounds")
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.conclusion_flags["scalar_infimum_nonnegative"]
        assert "S_* = " in rep.notes[0]

        cylinder = build_einstein_family(c=0.0, g0=1.0, gp0=0.0, a=2.0, b=0.0, n=3, interval=(0.0, 4.0))
        rep = audit_theorem(cylinder, "scalar_bounds")
        assert rep.verdict is Verdict.CONSISTENT
        assert rep.conclusion_flags["scalar_infimum_zero"]

        for name, spec in all_factory_specs().items():
            for theorem in ("triviality", "scalar_bounds", "trace_free_gap"):
                rep = audit_theorem(spec, theorem)
                assert rep.verdict is not Verdict.VIOLATION, f"{theorem} on {name}"


def test_criterion_7_diameter_bound_sharpness():
    with criterion(7, "diameter bound sharp on round spheres"):
        for n in range(2, 9):
            bound = diameter_bound(float(n - 1), 0.0, float(n - 1), n)
            assert abs(bound - math.pi) < 1e-12, f"n={n}: {bound!r}"


def test_criterion_8_parabolicity_verdicts():
    with criterion(8, "parabolicity heuristics"):
        _, verdict = f_parabolic_test(build_gaussian(1.0, 3, r_max=8.0), 8.0)
        assert verdict == "LikelyParabolic"
        _, verdict = f_parabolic_test(build_gaussian(0.0, 3, r_max=24.0), 24.0)
        assert verdict == "LikelyNonParabolic"
        _, verdict = f_parabolic_test(build_gaussian(0.0, 2, r_max=24.0), 24.0)
        assert verdict == "LikelyParabolic"


def test_criterion_9_omori_yau_conditions():
    with criterion(9, "Omori-Yau condition checks"):
        t = np.linspace(0.0, 100.0, 4001)
        G = GridFn(0.0, 100.0, t**2 + 1.0)
        rep = check_OY_hypotheses(G, 100.0)
        assert all(f.passed for f in rep.hypothesis_flags.values())
        t = np.linspace(0.0, 20.0, 4001)
        G = GridFn(0.0, 20.0, np.exp(t**2))
        rep = check_OY_hypotheses(G, 20.0)
        assert not rep.hypothesis_flags["inverse_sqrt_not_integrable"].passed


def test_criterion_10_cli_contract(tmp_path, monkeypatch):
    with criterion(10, "CLI determinism and exit codes"):
        from solab.cli import DEMO_MANIFESTS, main

        monkeypatch.chdir(tmp_path)
        assert main(["demo"]) == 0
        for fname in DEMO_MANIFESTS:
            out1, out2 = tmp_path / (fname + ".1"), tmp_path / (fname + ".2")
            assert main(["run", fname, "--format", "json", "--no-timings", "--out", str(out1)]) == 0, fname
            assert main(["run", fname, "--format", "json", "--no-timings", "--out", str(out2)]) == 0, fname
            assert out1.read_bytes() == out2.read_bytes(), fname

        corrupted = json.loads((tmp_path / "gaussian.json").read_text())
        corrupted["params"]["corrupt_lambda"] = 0.1
        (tmp_path / "corrupted.json").write_text(json.dumps(corrupted))
        assert main(["run", "corrupted.json"]) == 1

        (tmp_path / "malformed.json").write_text("{\"version\": ")
        assert main(["run", "malformed.json"]) == 2
