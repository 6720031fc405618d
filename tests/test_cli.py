import ctypes
import hashlib
import json
import platform
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solab import cli
from solab.cli import DEMO_MANIFESTS, main
from solab.errors import NotAModel, ParseError, SchemaError
from solab.manifest import FAMILIES, MAX_SAMPLES, SUITES, build_spec, parse_manifest
from solab import report as report_module
from solab.report import render_report, run_suite

GAUSSIAN_MANIFEST = {
    "version": "1",
    "family": "gaussian",
    "params": {"lambda0": 1, "n": 3},
    "grid": {"interval": [0.01, 8], "resolution": 2001},
    "suites": ["residual", "audits"],
}


def manifest_bytes(payload) -> bytes:
    return json.dumps(payload).encode()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_valid_manifest():
    m = parse_manifest(manifest_bytes(GAUSSIAN_MANIFEST))
    assert m.family == "gaussian"
    assert m.params["lambda0"] == 1.0
    assert m.resolution == 2001
    assert m.suites == ("residual", "audits")
    assert m.seed == 42


def test_parse_rejects_bad_version():
    bad = dict(GAUSSIAN_MANIFEST, version="2")
    with pytest.raises(SchemaError, match="version"):
        parse_manifest(manifest_bytes(bad))


def test_parse_rejects_unknown_keys_with_path():
    bad = dict(GAUSSIAN_MANIFEST, extra=1)
    with pytest.raises(SchemaError, match=r"\$\.extra"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 3, "spin": 2})
    with pytest.raises(SchemaError, match=r"\$\.params\.spin"):
        parse_manifest(manifest_bytes(bad))


@pytest.mark.parametrize("family", ["kahler", "classified_flat", "classified_hyperbolic"])
def test_parse_rejects_unknown_family(family):
    bad = dict(GAUSSIAN_MANIFEST, family=family)
    with pytest.raises(SchemaError, match="family"):
        parse_manifest(manifest_bytes(bad))


def test_parse_rejects_missing_required_param():
    bad = dict(GAUSSIAN_MANIFEST, params={"n": 3})
    with pytest.raises(SchemaError, match="lambda0"):
        parse_manifest(manifest_bytes(bad))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError, match="line"):
        parse_manifest(b"{not json")


def test_parse_einstein_manifest_builds_cosh_example():
    payload = {
        "version": "1",
        "family": "einstein",
        "params": {"c": 1, "g0": 1, "gp0": 0, "a": 1, "b": 0, "n": 4},
        "grid": {"interval": [0, 2], "resolution": 2001},
        "suites": ["residual"],
    }
    spec = build_spec(parse_manifest(manifest_bytes(payload)))
    t = spec.profile.grid
    np.testing.assert_allclose(spec.lam.values, np.sinh(t) - 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# run_suite
# ---------------------------------------------------------------------------

def test_run_suite_gaussian_passes():
    m = parse_manifest(manifest_bytes(dict(GAUSSIAN_MANIFEST, suites=["residual", "identities", "audits"])))
    rep = run_suite(m)
    assert rep.overall
    assert [r["suite"] for r in rep.suite_results] == ["residual", "identities", "audits"]


def test_run_suite_corrupted_lambda_fails():
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 3, "corrupt_lambda": 0.1})
    rep = run_suite(parse_manifest(manifest_bytes(bad)))
    assert not rep.overall
    residual = rep.suite_results[0]
    assert residual["suite"] == "residual" and not residual["passed"]


def test_run_suite_comparison_requires_model():
    payload = {
        "version": "1",
        "family": "einstein",
        "params": {"c": 1, "g0": 1, "gp0": 0, "a": 1, "b": 0, "n": 4},
        "grid": {"interval": [0, 2], "resolution": 2001},
        "suites": ["comparison"],
    }
    with pytest.raises(NotAModel, match="comparison"):
        run_suite(parse_manifest(manifest_bytes(payload)))


def test_pole_family_grid_starts_at_the_pole():
    # a gaussian grid starts at the pole whatever the interval start says;
    # only the manifest echo keeps the start as written
    payload = dict(GAUSSIAN_MANIFEST, suites=["residual", "identities", "audits", "comparison"])
    reports = []
    for interval in ([0.01, 8], [0, 8]):
        m = parse_manifest(manifest_bytes(dict(payload, grid={"interval": interval, "resolution": 2001})))
        p = build_spec(m).profile
        assert p.t0 == 0.0 and p.pole
        rep = run_suite(m)
        rep.timings = None
        reports.append(json.loads(render_report(rep, "json")))
    shifted, anchored = reports
    assert shifted["manifest"]["grid"]["interval"] == [0.01, 8.0]
    shifted["manifest"]["grid"]["interval"] = anchored["manifest"]["grid"]["interval"]
    assert shifted == anchored


# ---------------------------------------------------------------------------
# report formats
# ---------------------------------------------------------------------------

def test_json_report_round_trips():
    m = parse_manifest(manifest_bytes(GAUSSIAN_MANIFEST))
    rep = run_suite(m)
    rep.timings = None
    assert json.loads(render_report(rep, "json")) == rep.to_dict()


def test_csv_profile_table():
    m = parse_manifest(manifest_bytes(GAUSSIAN_MANIFEST))
    rep = run_suite(m)
    lines = render_report(rep, "csv").splitlines()
    assert lines[0] == "t,g,f,lambda,S,ric_norm2,T_norm2,residual"
    assert len(lines) == 1 + 2001
    # row at t = 1 (index 250 of [0, 8] at 2001 samples)
    row = lines[1 + 250].split(",")
    assert float(row[0]) == pytest.approx(1.0)
    assert float(row[3]) == pytest.approx(1.0)   # lambda
    assert abs(float(row[4])) < 1e-10            # S
    # pole sample: curvature columns are empty, not omitted
    first = lines[1].split(",")
    assert len(first) == 8
    assert first[4] == ""


def test_csv_absent_residual_column_is_empty():
    m = parse_manifest(manifest_bytes(dict(GAUSSIAN_MANIFEST, suites=["audits"])))
    rep = run_suite(m)
    lines = render_report(rep, "csv").splitlines()
    assert lines[100].endswith(",")


def test_text_report_contains_fail_and_suite_name():
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 3, "corrupt_lambda": 0.1})
    rep = run_suite(parse_manifest(manifest_bytes(bad)))
    text = render_report(rep, "text")
    assert "residual: FAIL" in text
    assert "overall: FAIL" in text


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def write_manifest(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# classified_space_form omits a and b, so parse_manifest fills in the schema defaults
PASSING_MANIFESTS = {
    "gaussian": GAUSSIAN_MANIFEST,
    "classified_space_form": dict(
        GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 1, "n": 3},
        grid={"interval": [0, 4], "resolution": 2001},
    ),
    "einstein": dict(
        GAUSSIAN_MANIFEST, family="einstein", params={"c": 1, "g0": 1, "gp0": 0, "a": 0, "b": 0, "n": 4},
        grid={"interval": [0, 2], "resolution": 2001},
    ),
}


@pytest.mark.parametrize("family", list(PASSING_MANIFESTS))
def test_cli_pass_exit_zero(tmp_path, capsys, family):
    path = write_manifest(tmp_path, PASSING_MANIFESTS[family])
    code = main(["run", path, "--no-timings"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_two_dimensional_identities_skip_trace_free_balance(tmp_path):
    payload = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 2}, suites=["identities", "audits"])
    out = tmp_path / "r.json"
    code = main(["run", write_manifest(tmp_path, payload), "--format", "json", "--no-timings", "--out", str(out)])
    assert code == 0
    identities, audits = json.loads(out.read_text())["suite_results"]
    assert identities["checks"][-1] == {
        "identity_id": "trace_free_balance",
        "skipped": "the |T|^2 balance needs a space-form fiber and n >= 3",
    }
    triviality = audits["checks"][0]
    assert triviality["theorem_id"] == "triviality"
    assert triviality["hypothesis_flags"]["sign_condition"] == {
        "passed": True, "measured": "n = 2, condition waived",
    }


_CYLINDER = dict(GAUSSIAN_MANIFEST, family="einstein", params={"c": 0, "g0": 1, "gp0": 0, "a": 0, "b": 0, "n": 4},
                 grid={"interval": [0, 2], "resolution": 2001}, suites=["identities"])


@pytest.mark.parametrize(
    "payload, path",
    [
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": float("nan"), "n": 3}), "$.params.lambda0"),
        (dict(GAUSSIAN_MANIFEST, grid={"interval": [0, float("inf")], "resolution": 2001}),
         "$.grid.interval[1]"),
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": 10**400, "n": 3}), "$.params.lambda0"),
        # float(n - 2) in the gaussian builder
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 2**1024}), "$.params.n"),
        # (n - 2) / (n (n - 1)) in trace_free_balance
        (dict(_CYLINDER, params=dict(_CYLINDER["params"], n=10**300)), "$.params.n"),
        # the spacing (t1 - t0) / (N - 1) overflows
        (dict(_CYLINDER, grid={"interval": [-1e308, 1e308], "resolution": 2001}), "$.grid.interval"),
    ],
    ids=["nan_param", "infinite_interval_end", "integer_beyond_float_range", "gaussian_n_beyond_exact_floats",
         "einstein_n_beyond_exact_floats", "interval_length_overflows"],
)
def test_cli_non_finite_number_exit_two(tmp_path, capsys, payload, path):
    assert main(["run", write_manifest(tmp_path, payload)]) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        dict(_CYLINDER, params=dict(_CYLINDER["params"], n=2**53)),
        # a pole family reads only the interval end
        dict(GAUSSIAN_MANIFEST, grid={"interval": [-1e308, 8], "resolution": 2001}),
    ],
    ids=["largest_exact_n", "pole_family_interval_start"],
)
def test_cli_values_at_the_schema_bounds_pass(tmp_path, payload):
    assert main(["run", write_manifest(tmp_path, payload), "--no-timings"]) == 0


def _demo_at(demo, suites, res):
    payload = DEMO_MANIFESTS[f"{demo}.json"]
    return dict(payload, suites=suites, grid=dict(payload["grid"], resolution=res))


_PROFILE_WITH_NAN = dict(GAUSSIAN_MANIFEST, family="classified_space_form",
                         params={"c": 1.192092896e-07, "a": 1e+300, "b": 6.819194701598045e+16, "n": 5},
                         grid={"interval": [0, 18.153409896102268], "resolution": 185})

# (demo, suites, the largest grid with no trusted sample, the smallest with one)
_EMPTY_BANDS = [
    ("cylinder", ["residual", "identities"], 16, 17),
    ("hyperbolic-model", ["residual"], 14, 15),
    ("hyperbolic-model", ["residual", "identities"], 18, 19),
    ("gaussian", ["audits"], 14, 15),
]


@pytest.mark.parametrize(
    "payload, message",
    [
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 1}), "gaussian needs n >= 2"),
        # every closed-form kind requires all of its keys: sin has no defaults
        *((dict(GAUSSIAN_MANIFEST, family="general", params={"g": g, "rho_sigma": 1, "A": 0.5, "B": 0, "n": 3}),
           f"missing required key $.params.g.{key}")
          for g, key in (({"kind": "sn", "k": 1, "c2": 2}, "c1"), ({"kind": "sin", "offset": 2, "amplitude": 1}, "frequency"))),
        # cosh(100 t) overflows on [0, 10], and g'' = 1e4 cosh(100 t) first
        (dict(GAUSSIAN_MANIFEST, family="einstein", params={"c": 1e4, "g0": 1, "gp0": 0, "a": 1, "b": 0, "n": 4},
              grid={"interval": [0, 10], "resolution": 201}), "warp: non-finite value at t = 7.05"),
        # e^(-f) = e^800 overflows in the ball volume density, past the pole
        (dict(GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 1, "a": 0, "b": -800, "n": 3},
              suites=["comparison"], grid={"interval": [0, 4], "resolution": 201}),
         "suite 'comparison': ball_volume: non-finite value at t = 0.02"),
        # no sample in the mid tenth of [1, 4] for condition (iv)
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": 0, "n": 3}, suites=["oy"],
              grid={"interval": [0, 4], "resolution": 11}),
         "suite 'oy': omori_yau: no samples in the mid and last tenths of [1, 4]"),
        # [1, t_max] is empty
        (dict(GAUSSIAN_MANIFEST, params={"lambda0": 0, "n": 3}, suites=["oy"],
              grid={"interval": [0, 1], "resolution": 11}),
         "suite 'oy': omori_yau: no samples in the mid and last tenths of [1, 1]"),
        # g^2 and g^3 underflow to 0
        (dict(GAUSSIAN_MANIFEST, family="general",
              params={"g": {"kind": "sn", "k": 0, "c1": 0, "c2": 3.1213423401088904e-219},
                      "rho_sigma": 0, "A": 0, "B": 0, "n": 3},
              suites=["residual"], grid={"interval": [0, 1], "resolution": 9}),
         "f and lambda: non-finite value at t = 0"),
        # f' is about 4e238, and its square overflows
        (dict(GAUSSIAN_MANIFEST, family="classified_space_form",
              params={"c": 2.5025091253077462e-239, "a": 1, "b": 0, "n": 2},
              suites=["identities"], grid={"interval": [0, 1], "resolution": 9}),
         "suite 'identities': grad_f_bochner: non-finite value at t = 0.125"),
        # h ~ 7e-249: the stencils' 1/h^2 overflows
        (dict(GAUSSIAN_MANIFEST, family="einstein",
              params={"c": 1.1823376650284692e+70, "g0": 1, "gp0": 0, "a": 0, "b": 0, "n": 11},
              suites=["residual"], grid={"interval": [-6.746121076280463e-248, 0], "resolution": 9}),
         "suite 'residual': derivatives of f and lambda: non-finite value at t = -6.74612e-248"),
        # (g'/g)^2 ~ 1e432 in the curvature, but h^2 underflows to 0 first,
        # and the second-derivative stencils divide by it
        (dict(GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 3.9370655731229626e-240, "n": 6},
              suites=["residual"], grid={"interval": [0, 7.1007136801990635e-217], "resolution": 9}),
         "suite 'residual': derivatives of f and lambda: non-finite value at t = 0"),
        # |grad f|^2 overflows in the triviality audit
        (dict(GAUSSIAN_MANIFEST, family="gaussian",
              params={"lambda0": 2.1338780901317334e+217, "n": 7, "corrupt_lambda": -3.384182484740786e+16},
              suites=["audits"], grid={"interval": [1.5, 6.871177016932034], "resolution": 44}),
         "suite 'audits': triviality: non-finite value at t = 0"),
        # a subnormal interval: h^2 underflows to 0, so f'' and lambda'' are 0/0
        (dict(GAUSSIAN_MANIFEST, family="gaussian", params={"lambda0": 2.2250738585e-313, "n": 11},
              suites=["comparison"], grid={"interval": [0, 2.2250738585e-313], "resolution": 11}),
         "suite 'comparison': derivatives of f and lambda: non-finite value at t = 2.22507e-314"),
        # a pole family's grid starts at t = 0, past this interval's end
        (dict(GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 1, "a": 2, "n": 6},
              suites=["audits"], grid={"interval": [-19, -14.9], "resolution": 9}),
         "$.grid.interval must end past the pole, t = 0, for a pole family"),
        # h^(n-1) e^Theta is 0 * inf in the volume bound
        (dict(GAUSSIAN_MANIFEST, family="gaussian", params={"lambda0": 5.910216486567447e+185, "n": 9},
              suites=["comparison"], grid={"interval": [-4.4e-249, 3.0775457320025937e-55], "resolution": 258}),
         "suite 'comparison': volume_bound: non-finite value at t = 1.19749e-57"),
        # inf - inf in the grad_f_bochner residual, away from the pole
        (dict(GAUSSIAN_MANIFEST, family="gaussian",
              params={"lambda0": 1.2892651523764015e+95, "n": 10, "corrupt_lambda": 1.1204822209439632e+249},
              suites=["identities"], grid={"interval": [0, 15.653879711884684], "resolution": 72}),
         "suite 'identities': grad_f_bochner: non-finite value at t = 0.220477"),
        # f is about 8.4e306, and the f'' stencil's sums overflow
        (dict(_PROFILE_WITH_NAN, suites=["oy"]),
         "suite 'oy': derivatives of f and lambda: non-finite value at t = 0.394639"),
        # sin(1e60 t) is exact on every sample, but the stencils overflow on it
        (dict(GAUSSIAN_MANIFEST, family="general",
              params={"g": {"kind": "sin", "offset": 2, "amplitude": 1, "frequency": 1e60},
                      "rho_sigma": 1, "A": 0.5, "B": 0, "n": 3},
              suites=["identities"], grid={"interval": [0, 6], "resolution": 201}),
         "suite 'identities': grad_f_bochner: non-finite value at t = 0"),
        # the spec summary reads f' too, so a suite that reads no derivative
        # does not save the job
        (dict(_PROFILE_WITH_NAN, suites=["okumura"]),
         "derivatives of f and lambda: non-finite value at t = 0.394639"),
        # h'' = G h with G about 1e6 leaves the float range past t = 1.07
        *((dict(GAUSSIAN_MANIFEST, params={"lambda0": -1e6, "n": 3}, suites=[suite],
                grid={"interval": [0, 8], "resolution": 2001}),
           f"suite '{suite}': comparison setup: non-finite value at t = 1.072") for suite in ("comparison", "oy")),
        # the trusted band is empty: the edge bands (8 samples each for an
        # identity) and, on a pole model, the first 10 samples meet
        *((_demo_at(demo, suites, res), f"no trusted samples on a {res}-sample grid")
          for demo, suites, res, _ in _EMPTY_BANDS),
        # sections of the wrong shape
        *((dict(GAUSSIAN_MANIFEST, **{key: value}), message) for key, value, message in (
            ("params", [1, 3], "expected an object at $.params"),
            ("grid", [0, 8], "expected an object at $.grid"),
            ("grid", {"interval": [0, 4, 8]}, "expected [start, end] at $.grid.interval"),
            ("suites", [], "expected a non-empty list at $.suites"),
        )),
        # every bound is fixed by its check: no manifest key can set one
        (dict(GAUSSIAN_MANIFEST, tolerances={"residual": 1.0}), "unknown key at $.tolerances"),
        *((dict(GAUSSIAN_MANIFEST, family="general", params={"g": g, "rho_sigma": 1, "A": 0.5, "B": 0, "n": 3}),
           message) for g, message in (
            ("t", "expected a closed-form object at $.params.g"),
            ({"kind": "poly", "coeffs": []}, "expected a coefficient list at $.params.g.coeffs"),
        )),
        # g = t has a pole at t = 0, where the general family's g vanishes
        (dict(GAUSSIAN_MANIFEST, family="general",
              params={"g": {"kind": "sn", "k": 0, "c1": 1, "c2": 0}, "rho_sigma": 1, "A": 0.5, "B": 0, "n": 3},
              grid={"interval": [0, 4], "resolution": 201}),
         "general family needs g > 0 on the closed interval"),
    ],
    ids=["gaussian_n1", "closed_form_missing_sn_key", "closed_form_missing_sin_key", "einstein_overflowing_warp",
         "space_form_calibration_overflow", "oy_empty_mid_window", "oy_interval_below_one",
         "general_warp_powers_underflow", "space_form_grad_f_square_overflow", "tiny_grid_stencil_overflow",
         "tiny_grid_curvature_overflow", "triviality_gradient_overflow", "subnormal_grid_no_finite_eigenvalue",
         "pole_family_interval_before_pole", "volume_bound_zero_times_infinity", "bochner_infinity_minus_infinity",
         "oy_profile_with_nan", "unresolved_sin_frequency", "okumura_profile_with_nan",
         "comparison_solution_overflow", "oy_comparison_solution_overflow",
         *(f"empty_band_{demo}_{res}" for demo, _, res, _ in _EMPTY_BANDS),
         "params_not_object", "grid_not_object", "interval_not_a_pair", "empty_suites", "tolerances_unknown_key",
         "closed_form_not_object", "closed_form_empty_coeffs", "general_warp_vanishes_at_pole"],
)
def test_cli_precondition_error_exit_two(tmp_path, capsys, payload, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", write_manifest(tmp_path, payload)]) == 2
    assert message in capsys.readouterr().err


def test_cli_okumura_holds_where_the_cubes_of_T_overflow(tmp_path):
    # with g = t^2 + 1e-60, |T|^* is near 1e120 and |T|^3 leaves the float
    # range; the defect there is formed on T scaled by a power of two, and
    # reads what it reads with g = t^2 + 1e-40, where no cube overflows
    results = []
    for c0 in (1e-60, 1e-40):
        payload = dict(GAUSSIAN_MANIFEST, family="general", suites=["okumura"],
                       params={"g": {"kind": "poly", "coeffs": [c0, 0, 1]}, "rho_sigma": 1, "A": 0.5, "B": 0, "n": 4},
                       grid={"interval": [-1, 1], "resolution": 2001})
        out = tmp_path / "report.json"
        assert main(["run", write_manifest(tmp_path, payload), "--format", "json", "--no-timings", "--out", str(out)]) == 0
        results.append(json.loads(out.read_text())["suite_results"][0]["checks"][0])
    assert results[0] == results[1]
    assert results[0]["sup_norm"] == pytest.approx(1.1175636086264652e-14, rel=1e-12)


def test_cli_volume_bound_reads_only_the_samples_up_to_its_radius(tmp_path):
    # e^Theta overflows past t = 7.26, beyond the largest radius 5.475
    payload = dict(GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 1, "a": -1, "b": 60, "n": 3},
                   suites=["comparison"], grid={"interval": [0, 7.3], "resolution": 201})
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", write_manifest(tmp_path, payload), "--format", "json", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["suite_results"][0]["checks"]
    volume = [(c["r"], c["passed"]) for c in checks if c.get("check") == "volume_bound"]
    assert volume == [(1.825, True), (3.65, True), (5.475, True)]


@pytest.mark.parametrize(
    "demo, suites, res", [(demo, suites, res) for demo, suites, _, res in _EMPTY_BANDS],
    ids=[f"{demo}_{res}" for demo, _, _, res in _EMPTY_BANDS],
)
def test_cli_smallest_trusted_band_exits_zero(tmp_path, demo, suites, res):
    # one sample more than each empty band of the cases above
    assert main(["run", write_manifest(tmp_path, _demo_at(demo, suites, res)), "--no-timings"]) == 0


@pytest.mark.parametrize("n", [400, 500])
def test_cli_large_dimension_comparison_passes_without_warning(tmp_path, n):
    # g^(n-1) and h^(n-1) overflow, and for n = 500 fiber_volume underflows
    # to 0, yet the densities and the bound are representable: both are
    # taken in logs
    payload = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": n}, suites=["comparison"],
                   grid={"interval": [0, 8], "resolution": 201})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_manifest(tmp_path, payload)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_ball_volume_near_the_float_limit_passes_without_warning(tmp_path, capsys):
    # ball volumes up to 6.2e306, whose Simpson terms 4 v would overflow
    # unless the quadrature scales them
    payload = dict(GAUSSIAN_MANIFEST, family="classified_space_form", params={"c": 1, "a": 0, "b": -700, "n": 3},
                   suites=["comparison"], grid={"interval": [0, 4], "resolution": 201})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", write_manifest(tmp_path, payload)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "comparison: PASS" in capsys.readouterr().out


def test_cli_overflowing_samples_exit_two_without_warning(tmp_path, capsys):
    # d (g'/g) u' overflows in radial_laplacian on the first grid; on the
    # second, |Ric|^2 and |T|^2 overflow at t = 0, which is no pole.  Only a
    # pole sample may lack a value, so an overflow ends the run as a
    # precondition error, not in checks on the samples left
    laplacian = dict(GAUSSIAN_MANIFEST, family="einstein",
                     params={"c": 5e-324, "g0": 2.3111355340550108e+16, "gp0": 5.479446372782705e+137,
                             "a": 0, "b": 5e-324, "n": 10},
                     suites=["identities", "audits"],
                     grid={"interval": [3.558949814430625e-282, 3.390614269195102e-27], "resolution": 52})
    curvature = dict(GAUSSIAN_MANIFEST, family="einstein",
                     params={"c": 4.272687737249145e-200, "g0": 5.864881174664321e-39,
                             "gp0": 7.187825930577302e+55, "a": -2.1328874117530036e-277,
                             "b": -2.2234340695174332e-31, "n": 4},
                     suites=["identities"],
                     grid={"interval": [0.0, 6.103515625e-05], "resolution": 98})
    for payload, message in ((laplacian, "scalar_laplacian: non-finite value at t = 3.55895e-282"),
                             (curvature, "scalar_laplacian: non-finite value at t = 0")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", write_manifest(tmp_path, payload)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, t1, resolution, code, message",
    [
        # h^2 = 1.6e318 leaves the float range in the stencils' scale
        ("residual", 1e160, 9, 2, "suite 'residual': soliton: no trusted samples on a 9-sample grid"),
        # h^3 = 2.0e327 in the RK4 step matrices
        ("comparison", 1e110, 9, 2, "suite 'comparison': comparison setup: non-finite value at t = 1.25e+109"),
        # r^2 overflows in the triviality audit's lambda bounds, raised to the power 0
        ("audits", 1e155, 101, 0, "audits: PASS"),
    ],
    ids=["derivative_scale", "rk4_step", "lambda_bounds"],
)
def test_cli_huge_spacing_ends_without_traceback_or_warning(tmp_path, capsys, suite, t1, resolution, code, message):
    payload = dict(GAUSSIAN_MANIFEST, params={"lambda0": 0, "n": 3}, suites=[suite],
                   grid={"interval": [0, t1], "resolution": resolution})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", write_manifest(tmp_path, payload), "--no-timings"]) == code
    out, err = capsys.readouterr()
    assert message in (err if code else out)


def _param_value(kind):
    if kind == "float":
        return st.floats(allow_nan=False, allow_infinity=False)
    if kind == "int":
        return st.integers(min_value=0, max_value=12)
    number = st.floats(allow_nan=False, allow_infinity=False)
    # each key may be missing, a schema error
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("sn")}, optional={"k": number, "c1": number, "c2": number}),
        st.fixed_dictionaries({"kind": st.just("poly")}, optional={"coeffs": st.lists(number, min_size=1, max_size=4)}),
        st.fixed_dictionaries({"kind": st.just("sin")},
                              optional={"offset": number, "amplitude": number, "frequency": number}),
    )


@st.composite
def manifests(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    params = {}
    for name, (kind, default) in FAMILIES[family][1].items():
        if default is None or draw(st.booleans()):
            params[name] = draw(_param_value(kind))
    if draw(st.booleans()):
        params["corrupt_lambda"] = draw(st.floats(allow_nan=False, allow_infinity=False))
    start, end = sorted(draw(st.lists(st.floats(-20, 20), min_size=2, max_size=2, unique=True)))
    return {
        "version": "1",
        "family": family,
        "params": params,
        "grid": {"interval": [start, end], "resolution": draw(st.integers(9, 401))},
        "suites": draw(st.lists(st.sampled_from(SUITES), min_size=1, unique=True)),
        "seed": draw(st.integers()),
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(payload=manifests())
def test_cli_manifest_fuzz_exits_cleanly(tmp_path_factory, payload):
    # any manifest the schema admits ends in 0, 1 or 2, never in a
    # traceback, and leaves no numpy RuntimeWarning behind
    path = write_manifest(tmp_path_factory.getbasetemp(), payload, name="fuzz.json")
    out = str(tmp_path_factory.getbasetemp() / "fuzz.out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", path, "--format", "json", "--out", out]) in (0, 1, 2)


def test_cli_suite_failure_exit_one(tmp_path):
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 3, "corrupt_lambda": 0.1})
    assert main(["run", write_manifest(tmp_path, bad)]) == 1


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(b"{", "malformed JSON", id="truncated"),
        pytest.param(b'\xff\xfe{"version": "1"}', "not UTF-8", id="not_utf8"),
        pytest.param(b"[" * 100000 + b"]" * 100000, "nested too deeply", id="nested_too_deeply"),
        pytest.param(b"[]", "manifest root must be an object", id="root_not_object"),
    ],
)
def test_cli_malformed_manifest_exit_two(tmp_path, capsys, payload, message):
    path = tmp_path / "broken.json"
    path.write_bytes(payload)
    assert main(["run", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_cli_missing_file_exit_two(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("suite", ["residual", "comparison", "audits", "okumura"])
def test_cli_no_trusted_samples_exit_two(tmp_path, capsys, suite):
    # 9 samples: the stencil bands and the pole exclusion leave no sample
    payload = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": 9}, suites=[suite])
    assert main(["run", write_manifest(tmp_path, payload)]) == 2
    assert "no trusted samples" in capsys.readouterr().err


def test_cli_tol_override(tmp_path):
    path = write_manifest(tmp_path, GAUSSIAN_MANIFEST)
    # no flag sets a tolerance, and only the manifest sets the seed
    for flag in (["--tol", "residual=1e-15"], ["--seed", "7"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", path, *flag])
        assert exc.value.code == 2


def test_cli_families(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for fam in ("gaussian", "einstein", "general", "classified_space_form"):
        assert fam in out


def test_cli_families_matches_golden(capsys):
    # every family's parameter rows, with their kinds and defaults
    assert main(["families"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "families.txt").read_text(encoding="utf-8")


def test_cli_demo_writes_manifests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["demo"]) == 0
    for fname in DEMO_MANIFESTS:
        assert (tmp_path / fname).exists()
        parse_manifest((tmp_path / fname).read_bytes())


def test_cli_demo_unwritable_manifest_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gaussian.json").mkdir()
    assert main(["demo"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_reuses_one_parser_and_each_call_parses_afresh(tmp_path, monkeypatch, capsys):
    # main runs many times in one process on one cached parser; no call may
    # see an option, default or error left by the one before
    assert cli._parser() is cli._parser()
    path = write_manifest(tmp_path, GAUSSIAN_MANIFEST)
    out = tmp_path / "report.json"
    calls = (
        ["run", path, "--format", "json", "--no-timings", "--out", str(out)],
        ["run", path, "--format", "json", "--out", str(out)],
        ["run", path],
    )
    assert main(calls[0]) == 0
    assert "timings" not in json.loads(out.read_text(encoding="utf-8"))
    assert main(calls[1]) == 0
    assert "timings" in json.loads(out.read_text(encoding="utf-8"))
    capsys.readouterr()
    assert main(calls[2]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["families"]) == 0
    assert "gaussian" in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(["demo"]) == 0
    assert all((tmp_path / fname).exists() for fname in DEMO_MANIFESTS)
    for argv in calls:
        assert vars(cli._parser().parse_args(argv)) == vars(cli._parser.__wrapped__().parse_args(argv))


def test_cli_demo_manifests_all_pass_and_json_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["demo"])
    for fname in DEMO_MANIFESTS:
        out1 = tmp_path / (fname + ".1")
        out2 = tmp_path / (fname + ".2")
        assert main(["run", fname, "--format", "json", "--no-timings", "--out", str(out1)]) == 0, fname
        assert main(["run", fname, "--format", "json", "--no-timings", "--out", str(out2)]) == 0, fname
        assert out1.read_bytes() == out2.read_bytes()


GOLDEN_DIR = Path(__file__).parent / "golden"

# golden file -> (demo manifest, grid resolution or None for the demo's own).
# Chained stencils amplify a last-bit change by eps/h^k, so the fine grid
# sees changes the default one hides.  At 20001 and 200001 samples every
# demo fails some check (the rounding floor of chained stencils) and exits 1.
GOLDEN_RUNS = {fname: (fname, None) for fname in DEMO_MANIFESTS}
GOLDEN_RUNS.update(
    {fname.replace(".json", f"-{res}.json"): (fname, res) for fname in DEMO_MANIFESTS for res in (20001, 200001)}
)


@pytest.mark.parametrize("fname", sorted(GOLDEN_RUNS))
def test_cli_demo_json_matches_golden(tmp_path, monkeypatch, fname):
    # regression oracle: the checked-in --no-timings JSON of each demo
    demo, resolution = GOLDEN_RUNS[fname]
    monkeypatch.chdir(tmp_path)
    main(["demo"])
    if resolution is not None:
        payload = json.loads(Path(demo).read_text(encoding="utf-8"))
        payload["grid"]["resolution"] = resolution
        Path(demo).write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "report.json"
    code = main(["run", demo, "--format", "json", "--no-timings", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN_DIR / fname).read_bytes()
    assert code == (0 if resolution is None else 1)


def test_general_sine_identities_hold_at_200001_samples():
    # the sin warp is a closed form: refining the grid adds no stencil error to g' and g''
    payload = dict(DEMO_MANIFESTS["general-sine.json"], suites=["identities"])
    payload["grid"] = dict(payload["grid"], resolution=200_001)
    report = run_suite(parse_manifest(manifest_bytes(payload)))
    checks = {c["identity_id"]: c for c in report.suite_results[0]["checks"]}
    for ident in ("scalar_gradient", "scalar_laplacian", "trace_free_balance"):
        assert checks[ident]["passed"], (ident, checks[ident]["sup_norm"])


def test_cli_trace_free_balance_catches_a_negative_lambda_shift(tmp_path):
    # the balance is an equality with |grad T|^2, so a shift of either sign fails it
    payload = dict(DEMO_MANIFESTS["general-sine.json"], suites=["identities"])
    payload["params"] = dict(payload["params"], corrupt_lambda=-1e-3)
    out = tmp_path / "report.json"
    assert main(["run", write_manifest(tmp_path, payload), "--format", "json", "--out", str(out)]) == 1
    checks = {c["identity_id"]: c for c in json.loads(out.read_text())["suite_results"][0]["checks"]}
    assert not checks["trace_free_balance"]["passed"]


def demo_output_digests(workdir: Path) -> dict:
    """SHA-256 of `solab run <demo> --format csv|text --no-timings` for every
    demo at its own resolution, keyed "<demo>.<format>"."""
    main(["demo"])
    digests = {}
    for demo in sorted(DEMO_MANIFESTS):
        for fmt in ("csv", "text"):
            out = workdir / f"report.{fmt}"
            assert main(["run", demo, "--format", fmt, "--no-timings", "--out", str(out)]) == 0
            digests[f"{demo.replace('.json', '')}.{fmt}"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_cli_demo_csv_and_text_match_golden_digests(tmp_path, monkeypatch):
    # the csv and text renderings are pinned by digest, the json by file
    monkeypatch.chdir(tmp_path)
    expected = json.loads((GOLDEN_DIR / "digests.json").read_text(encoding="utf-8"))
    got = demo_output_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    assert [name for name in sorted(got) if got[name] != expected[name]] == []


def test_parse_rejects_bad_suite_and_tolerance_keys():
    bad = dict(GAUSSIAN_MANIFEST, suites=["residual", "plotting"])
    with pytest.raises(SchemaError, match="plotting"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, suites=["residual", "identities", "residual"])
    with pytest.raises(SchemaError, match=r"duplicate suite at \$\.suites: 'residual'"):
        parse_manifest(manifest_bytes(bad))
    # a bound belongs to its check, so tolerances is an unknown key
    bad = dict(GAUSSIAN_MANIFEST, tolerances={"identities": 10.0})
    with pytest.raises(SchemaError, match=r"unknown key at \$\.tolerances"):
        parse_manifest(manifest_bytes(bad))


def test_parse_rejects_bad_grid():
    bad = dict(GAUSSIAN_MANIFEST, grid={"interval": [2, 1], "resolution": 2001})
    with pytest.raises(SchemaError, match="interval"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": 5})
    with pytest.raises(SchemaError, match="resolution must be at least 9"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": None})
    with pytest.raises(SchemaError, match=r"integer at \$\.grid\.resolution"):
        parse_manifest(manifest_bytes(bad))
    # a manifest without a resolution gets the default
    assert parse_manifest(manifest_bytes(dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8]}))).resolution == 2001
    largest = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": MAX_SAMPLES})
    assert parse_manifest(manifest_bytes(largest)).resolution == 10**7


def test_cli_grid_above_the_sample_cap_exit_two(tmp_path, capsys, monkeypatch):
    # the parse rejects it, so no grid is ever allocated
    def no_build(_manifest):
        raise AssertionError("a spec was built for a manifest beyond the sample cap")

    monkeypatch.setattr(report_module, "build_spec", no_build)
    payload = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": MAX_SAMPLES + 1})
    path = write_manifest(tmp_path, payload)
    tracemalloc.start()
    try:
        code = main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "$.grid.resolution must be at most 10000000" in capsys.readouterr().err
    assert peak < 8 * MAX_SAMPLES / 100  # far below one grid array


def test_parse_rejects_bad_closed_form():
    payload = {
        "version": "1",
        "family": "general",
        "params": {"g": {"kind": "spline"}, "rho_sigma": 1, "A": 0.5, "B": 0, "n": 3},
        "grid": {"interval": [0, 6.28], "resolution": 2001},
        "suites": ["residual"],
    }
    with pytest.raises(SchemaError, match="kind"):
        parse_manifest(manifest_bytes(payload))


def test_parse_rejects_non_integer_seed_and_bool_number():
    bad = dict(GAUSSIAN_MANIFEST, seed=1.5)
    with pytest.raises(SchemaError, match="seed"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, seed=-1)
    with pytest.raises(SchemaError, match=r"non-negative integer at \$\.seed"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": True, "n": 3})
    with pytest.raises(SchemaError, match="lambda0"):
        parse_manifest(manifest_bytes(bad))


def test_cli_seed_override_recorded(tmp_path):
    payload = dict(GAUSSIAN_MANIFEST, suites=["okumura"], seed=7)
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "r.json"
    assert main(["run", path, "--format", "json", "--no-timings", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 7  # echoed, though no suite reads it
    assert "seed" not in rep["suite_results"][0]


def test_suite_results_do_not_depend_on_the_seed():
    demo = DEMO_MANIFESTS["gaussian.json"]  # every suite but oy, okumura included
    results = [
        json.dumps(run_suite(parse_manifest(manifest_bytes(dict(demo, seed=seed)))).suite_results)
        for seed in (7, 42)
    ]
    assert results[0] == results[1]


def test_run_suite_oy_requires_positive_bound_profile():
    from solab.errors import NonPositiveG

    payload = dict(GAUSSIAN_MANIFEST, suites=["oy"])
    with pytest.raises(NonPositiveG, match="oy"):
        run_suite(parse_manifest(manifest_bytes(payload)))  # shrinker has G = 0


def test_manifest_closed_form_sn_and_poly_families():
    payload = {
        "version": "1",
        "family": "general",
        "params": {
            "g": {"kind": "sn", "k": -1.0, "c1": 0.0, "c2": 1.0},
            "rho_sigma": -2.0, "A": 0.8, "B": 0.3, "n": 4,
        },
        "grid": {"interval": [0, 2], "resolution": 2001},
        "suites": ["residual"],
    }
    rep = run_suite(parse_manifest(manifest_bytes(payload)))
    assert rep.overall  # cosh warp through the manifest path
    payload["params"]["g"] = {"kind": "poly", "coeffs": [1.0]}
    payload["params"]["rho_sigma"] = 0.0
    rep = run_suite(parse_manifest(manifest_bytes(payload)))
    assert rep.overall


def test_cli_unwritable_output_exit_two(tmp_path, capsys):
    path = write_manifest(tmp_path, GAUSSIAN_MANIFEST)
    dest = tmp_path / "missing" / "dir" / "report.json"
    assert main(["run", path, "--format", "json", "--out", str(dest)]) == 2
    assert "cannot write" in capsys.readouterr().err


# fine enough for `solab run` to keep freed heap pages mapped
FINE_CYLINDER = dict(DEMO_MANIFESTS["cylinder.json"], grid={"interval": [0.0, 4.0], "resolution": 20001})

# runs one job twice in a fresh process and prints the minor page faults
# of the second
REPEATED_JOB = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from solab.cli import main
argv = ["run", sys.argv[2], "--format", "json", "--out", sys.argv[3]]
main(argv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the allocator setting applies to glibc only",
)
def test_cli_repeated_job_reuses_heap_pages(tmp_path):
    # with heap trimming on, the second job faults in every page of its
    # full-grid temporaries again (about 1,500 faults at 20001 samples)
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [str(src), write_manifest(tmp_path, FINE_CYLINDER), str(tmp_path / "report.json")]
    done = subprocess.run([sys.executable, "-c", REPEATED_JOB, *argv], capture_output=True, text=True, check=True)
    assert int(done.stdout) < 200


def test_cli_sets_the_allocator_for_fine_grids_only_and_runs_without_mallopt(tmp_path, monkeypatch):
    opened = []

    def cdll(name):
        opened.append(name)
        return object()  # a C library without mallopt

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    cli._keep_heap_pages.cache_clear()
    try:
        assert main(["run", write_manifest(tmp_path, GAUSSIAN_MANIFEST)]) == 0
        assert opened == []
        fine = dict(FINE_CYLINDER, suites=["audits"])
        assert main(["run", write_manifest(tmp_path, fine), "--out", str(tmp_path / "report.txt")]) == 0
    finally:
        cli._keep_heap_pages.cache_clear()
    assert opened == [None]
