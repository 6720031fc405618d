"""Self-tests for the benchmark: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import hostref
import run
import spans
from workloads import CSV_HEADER, WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_of_nested_calls():
    now = [0.0]
    rec = spans.Recorder(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def inner():
        now[0] += 2.0
        traced_leaf()
        now[0] += 3.0

    def outer():
        now[0] += 10.0
        traced_inner()
        traced_inner()
        now[0] += 4.0

    traced_leaf = rec.wrap("leaf", leaf)
    traced_inner = rec.wrap("inner", inner)
    rec.job = "j"
    rec.wrap("outer", outer)()

    durations = [end - start for _, start, end, _, _ in rec.spans]
    assert durations == [26.0, 6.0, 1.0, 6.0, 1.0]
    assert spans.self_times(rec.spans) == [14.0, 5.0, 1.0, 5.0, 1.0]
    totals = spans.per_job_totals(rec)["j"]
    assert totals["outer.self_s"] == 14.0
    assert totals["inner.self_s"] == 10.0 and totals["inner.calls"] == 2
    assert totals["leaf.self_s"] == 2.0


def test_instrument_rebinds_from_imports_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    from solab import factory, kernel, verify

    original = kernel.derivative
    rec = spans.Recorder()
    restore = spans.instrument(rec)
    try:
        assert verify.derivative is not original and kernel.derivative is verify.derivative
        rec.job = "j"
        verify.soliton_residual(factory.build_gaussian(1.0, 3, resolution=101))
    finally:
        restore()
    assert kernel.derivative is original and verify.derivative is original
    assert kernel.GridFn.eval.__name__ == "eval" and not hasattr(kernel.GridFn.eval, "__wrapped__")
    totals = spans.per_job_totals(rec)["j"]
    assert totals["kernel.derivative.calls"] == 4  # f', f'', lambda', lambda''
    assert totals["geometry.curvature_grids.calls"] == 1
    assert totals["kernel.GridFn.init.calls"] > 0
    assert totals["kernel.bytes_computed"] == 8 * 101 * totals["kernel.GridFn.init.calls"]


def _manifest():
    return {"grid": {"interval": [0.0, 1.0], "resolution": 9}, "suites": ["residual"]}


def _csv(rows):
    body = [f"{i / (rows - 1)!r},1,2,3,4,5,6,7" for i in range(rows)]
    return "\n".join([CSV_HEADER, *body]) + "\n"


def test_checker_accepts_well_formed_csv():
    assert check_output("fine-export", _manifest(), 0, _csv(9)) == (None, 1, 1)
    assert check_output("fine-export", _manifest(), 1, _csv(9)) == (None, 0, 1)


def test_checker_rejects_truncated_csv():
    whole = _csv(9)
    error, _, _ = check_output("fine-export", _manifest(), 0, whole[: len(whole) // 2])
    assert error is not None
    error, _, _ = check_output("fine-export", _manifest(), 0, _csv(8))
    assert "rows" in error


def test_checker_rejects_exit_2_and_raise():
    assert check_output("fine-export", _manifest(), 2, None)[0] == "exit code 2"
    assert check_output("fine-verify", _manifest(), None, None)[0] == "raised"


def _json_report(overall):
    return json.dumps({
        "overall": overall,
        "suite_results": [
            {"suite": "residual", "passed": True, "checks": [{"passed": True}]},
            {"suite": "audits", "passed": True, "checks": [{"verdict": "consistent"}, {"verdict": "hypotheses_not_met"}]},
        ],
    })


def test_checker_counts_json_checks_and_rejects_demo_exit_1():
    manifest = {"suites": ["residual", "audits"]}
    assert check_output("demo-2001", manifest, 0, _json_report("pass")) == (None, 3, 3)
    assert check_output("fine-verify", manifest, 1, _json_report("fail")) == (None, 3, 3)
    assert check_output("demo-2001", manifest, 1, _json_report("fail"))[0] is not None
    assert check_output("fine-verify", manifest, 0, _json_report("fail"))[0] is not None
    assert check_output("fine-verify", {"suites": ["residual"]}, 0, _json_report("pass"))[0] is not None
    assert check_output("fine-verify", manifest, 0, "{")[0].startswith("malformed")


def test_host_clock_factor_is_nominal_over_median_reference():
    now = [0.0]
    durations = iter([1.0, 4.0, 2.0])

    def work():
        now[0] += next(durations) * hostref.REF_NOMINAL_S

    host = hostref.HostClock(every_s=10.0, clock=lambda: now[0], work=work)
    with pytest.raises(ValueError):
        host.factor()
    host.probe()
    assert host.maybe_probe() == 0.0  # within every_s of the last probe
    now[0] += 25.0  # two probes due
    assert host.maybe_probe() == pytest.approx(6.0 * hostref.REF_NOMINAL_S)
    assert host.factor() == pytest.approx(1 / 2.0)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(range(20)) == (50, 9)
    assert run.tail_percentile(range(99)) == (50, 49)
    assert run.tail_percentile(range(100)) == (90, 89)
    assert run.tail_percentile(range(1000)) == (99, 989)
    with pytest.raises(ValueError):
        run.tail_percentile(range(19))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["demo-2001", "fine-verify"]
    assert set(WORKLOADS) == {"demo-2001", "fine-verify", "fine-export"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
