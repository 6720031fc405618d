import json
from pathlib import Path

import numpy as np
import pytest

from solab.cli import DEMO_MANIFESTS, main
from solab.errors import NotAModel, ParseError, SchemaError
from solab.manifest import build_spec, parse_manifest
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


def test_parse_rejects_unknown_family():
    bad = dict(GAUSSIAN_MANIFEST, family="kahler")
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


def test_resolution_env_default(monkeypatch):
    payload = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8]})
    monkeypatch.setenv("SOLAB_RESOLUTION", "1201")
    assert parse_manifest(manifest_bytes(payload)).resolution == 1201
    monkeypatch.delenv("SOLAB_RESOLUTION")
    assert parse_manifest(manifest_bytes(payload)).resolution == 2001


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


def test_cli_pass_exit_zero(tmp_path, capsys):
    path = write_manifest(tmp_path, GAUSSIAN_MANIFEST)
    code = main(["run", path, "--no-timings"])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_suite_failure_exit_one(tmp_path):
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": 1, "n": 3, "corrupt_lambda": 0.1})
    assert main(["run", write_manifest(tmp_path, bad)]) == 1


def test_cli_malformed_manifest_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_missing_file_exit_two(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("suite", ["residual", "comparison", "audits", "okumura"])
def test_cli_no_trusted_samples_exit_two(tmp_path, capsys, suite):
    # 9 samples: the stencil bands and the pole exclusion leave no sample
    payload = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": 9}, suites=[suite])
    assert main(["run", write_manifest(tmp_path, payload)]) == 2
    assert "no trusted samples" in capsys.readouterr().err


def test_cli_tol_override(tmp_path):
    # an absurdly tight residual tolerance turns the pass into a failure
    path = write_manifest(tmp_path, GAUSSIAN_MANIFEST)
    assert main(["run", path, "--tol", "residual=1e-15"]) == 1
    assert main(["run", path, "--tol", "bogus=1"]) == 2


def test_cli_families(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for fam in ("gaussian", "einstein", "general", "classified_space_form"):
        assert fam in out


def test_cli_demo_writes_manifests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["demo"]) == 0
    for fname in DEMO_MANIFESTS:
        assert (tmp_path / fname).exists()
        parse_manifest((tmp_path / fname).read_bytes())


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


@pytest.mark.parametrize("fname", sorted(DEMO_MANIFESTS))
def test_cli_demo_json_matches_golden(tmp_path, monkeypatch, fname):
    # regression oracle: the checked-in --no-timings JSON of each demo
    monkeypatch.chdir(tmp_path)
    main(["demo"])
    out = tmp_path / "report.json"
    assert main(["run", fname, "--format", "json", "--no-timings", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / fname).read_bytes()


def test_parse_rejects_bad_suite_and_tolerance_keys():
    bad = dict(GAUSSIAN_MANIFEST, suites=["residual", "plotting"])
    with pytest.raises(SchemaError, match="plotting"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, tolerances={"volume": 1e-3})
    with pytest.raises(SchemaError, match=r"tolerances\.volume"):
        parse_manifest(manifest_bytes(bad))


def test_parse_rejects_bad_grid():
    bad = dict(GAUSSIAN_MANIFEST, grid={"interval": [2, 1], "resolution": 2001})
    with pytest.raises(SchemaError, match="interval"):
        parse_manifest(manifest_bytes(bad))
    bad = dict(GAUSSIAN_MANIFEST, grid={"interval": [0, 8], "resolution": 5})
    with pytest.raises(SchemaError, match="resolution"):
        parse_manifest(manifest_bytes(bad))


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
    bad = dict(GAUSSIAN_MANIFEST, params={"lambda0": True, "n": 3})
    with pytest.raises(SchemaError, match="lambda0"):
        parse_manifest(manifest_bytes(bad))


def test_cli_seed_override_recorded(tmp_path):
    payload = dict(GAUSSIAN_MANIFEST, suites=["okumura"])
    path = write_manifest(tmp_path, payload)
    out = tmp_path / "r.json"
    assert main(["run", path, "--format", "json", "--no-timings", "--seed", "7", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["seed"] == 7
    assert rep["suite_results"][0]["seed"] == 7


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
