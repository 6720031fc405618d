"""Suite execution and report emission for the CLI."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .comparison import derive_setup, laplacian_comparison_check, volume_bound_check
from .errors import NotConformallyFlat, SolabError
from .factory import SolitonSpec
from .manifest import Manifest, build_spec
from .verify import (
    IDENTITY_IDS,
    TrivialityAuditParams,
    ResidualReport,
    Verdict,
    audit_theorem,
    check_OY_hypotheses,
    classify_soliton,
    identity_residual,
    okumura_check,
    soliton_residual,
)

__all__ = ["RunReport", "run_suite", "emit_report", "render_report"]

CSV_COLUMNS = ("t", "g", "f", "lambda", "S", "ric_norm2", "T_norm2", "residual")

# neutral default exponents for the expanding-triviality audit when a
# manifest has no specific triviality hypotheses in mind
_DEFAULT_TRIVIALITY_PARAMS = TrivialityAuditParams(alpha=0.0, sigma=0.0, mu=0.0, A=1.0, B=1.0)


def _finite_or_none(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _residual_dict(rep: ResidualReport) -> dict:
    return {
        "identity_id": rep.identity_id,
        "sup_norm": _finite_or_none(rep.sup_norm),
        "argmax_t": _finite_or_none(rep.argmax_t),
        "tolerance_used": rep.tolerance_used,
        "passed": bool(rep.passed),
        "one_sided": bool(rep.one_sided),
    }


@dataclass
class RunReport:
    manifest_echo: dict
    spec_summary: dict
    suite_results: list
    overall: bool
    seed: int
    timings: dict | None
    table: dict  # profile-table columns, emitted by the csv format only

    def to_dict(self) -> dict:
        out = {
            "manifest": self.manifest_echo,
            "spec_summary": self.spec_summary,
            "suite_results": self.suite_results,
            "overall": "pass" if self.overall else "fail",
            "seed": self.seed,
        }
        if self.timings is not None:
            out["timings"] = self.timings
        return out


def _spec_summary(spec: SolitonSpec) -> dict:
    p = spec.profile
    curv = p.curvature
    mask = p.trusted_mask("spec summary", curv["S"], curv["T_norm2"])
    return {
        "family": spec.family_tag.value,
        "n": p.n,
        "classification": classify_soliton(spec).value,
        "S_star": _finite_or_none(np.min(curv["S"][mask])),
        "lambda_star": _finite_or_none(np.min(spec.lam.values)),
        "lambda_sup": _finite_or_none(np.max(spec.lam.values)),
        "T_sup": _finite_or_none(math.sqrt(max(0.0, float(np.max(curv["T_norm2"][mask]))))),
        "residual_tolerance": spec.residual_tolerance,
    }


def _run_okumura(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(10_000, n))
    v -= v.mean(axis=1, keepdims=True)
    lhs, rhs, _ = okumura_check(v)
    min_gap = float(np.min(lhs - rhs))
    pattern_ok = True
    for s in (0.5, 1.0, 2.0):
        lhs, rhs, _ = okumura_check([-(n - 1) * s] + [s] * (n - 1))
        pattern_ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    return {
        "suite": "okumura",
        "n": n,
        "samples": 10_000,
        "seed": seed,
        "min_gap": min_gap,
        "equality_pattern_ok": bool(pattern_ok),
        "passed": bool(min_gap >= -1e-12 and pattern_ok),
    }


def run_suite(m: Manifest) -> RunReport:
    """Build the spec and execute the requested suites in order.

    Deterministic given the manifest: randomized sampling uses the
    manifest seed (recorded in the report).  Constructor and verifier
    errors propagate with the suite named in the message.
    """
    spec = build_spec(m)
    p = spec.profile
    results: list = []
    timings: dict = {}
    residual_points = None
    cs = None  # comparison setup, shared by the comparison and oy suites
    overall = True

    for name in m.suites:
        start = time.perf_counter()
        try:
            if name == "residual":
                rep = soliton_residual(spec, tol=m.tolerances.get("residual"))
                residual_points = rep.per_point
                result = {"suite": "residual", "passed": bool(rep.passed), "checks": [_residual_dict(rep)]}
            elif name == "identities":
                checks = []
                for ident in IDENTITY_IDS:
                    tol = m.tolerances.get("identities") if ident != "trace_free_balance" else None
                    try:
                        checks.append(_residual_dict(identity_residual(spec, ident, tol=tol)))
                    except NotConformallyFlat as exc:
                        checks.append({"identity_id": ident, "skipped": str(exc)})
                passed = all(c.get("passed", True) for c in checks)
                result = {"suite": "identities", "passed": bool(passed), "checks": checks}
            elif name == "audits":
                checks = [
                    audit_theorem(spec, t, _DEFAULT_TRIVIALITY_PARAMS).to_dict()
                    for t in ("triviality", "scalar_bounds", "trace_free_gap")
                ]
                passed = all(c["verdict"] != Verdict.VIOLATION.value for c in checks)
                result = {"suite": "audits", "passed": bool(passed), "checks": checks}
            elif name == "comparison":
                cs = derive_setup(spec) if cs is None else cs
                lap = laplacian_comparison_check(spec, cs)
                checks = [_residual_dict(lap)]
                passed = lap.passed
                radii = [p.t0 + frac * (p.t1 - p.t0) for frac in (0.25, 0.5, 0.75)]
                vb = volume_bound_check(spec, cs, np.array(radii))
                for r, actual, bound, ok in zip(radii, *(col.tolist() for col in vb)):
                    checks.append(
                        {"check": "volume_bound", "r": r, "actual": actual, "bound": bound, "passed": ok}
                    )
                    passed = passed and ok
                result = {"suite": "comparison", "passed": bool(passed), "checks": checks}
            elif name == "okumura":
                result = _run_okumura(p.n, m.seed)
            elif name == "oy":
                cs = derive_setup(spec) if cs is None else cs
                rep = check_OY_hypotheses(cs.G, p.t1)
                result = {
                    "suite": "oy",
                    "passed": rep.verdict is Verdict.CONSISTENT,
                    "checks": [rep.to_dict()],
                }
            else:  # pragma: no cover - parse_manifest already rejected it
                raise SolabError(f"unknown suite {name!r}")
        except SolabError as exc:
            raise type(exc)(f"suite '{name}': {exc}") from exc
        timings[name] = time.perf_counter() - start
        overall = overall and result["passed"]
        results.append(result)

    curv = p.curvature
    table = {
        "t": p.grid,
        "g": p.warp_values[0],
        "f": spec.f.values,
        "lambda": spec.lam.values,
        "S": curv["S"],
        "ric_norm2": curv["ric_norm2"],
        "T_norm2": curv["T_norm2"],
        "residual": residual_points,
    }
    return RunReport(
        manifest_echo=m.echo(),
        spec_summary=_spec_summary(spec),
        suite_results=results,
        overall=overall,
        seed=m.seed,
        timings=timings,
        table=table,
    )


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if not math.isfinite(x):
        return ""
    return f"{x:.12g}"


def render_report(r: RunReport, fmt: str) -> str:
    """Render a report as json, csv (profile table), or text."""
    if fmt == "json":
        return json.dumps(r.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "csv":
        rows = [",".join(CSV_COLUMNS)]
        n = len(r.table["t"])
        cols = [r.table[c] for c in CSV_COLUMNS]
        for i in range(n):
            rows.append(",".join("" if col is None else _fmt_cell(col[i]) for col in cols))
        return "\n".join(rows) + "\n"
    if fmt == "text":
        lines = [
            f"family: {r.spec_summary['family']} (n = {r.spec_summary['n']}, "
            f"classification: {r.spec_summary['classification']})",
            f"S_* = {r.spec_summary['S_star']}, lambda_* = {r.spec_summary['lambda_star']}, "
            f"lambda^* = {r.spec_summary['lambda_sup']}, |T|^* = {r.spec_summary['T_sup']}",
        ]
        for res in r.suite_results:
            lines.append(f"{res['suite']}: {'PASS' if res['passed'] else 'FAIL'}")
        lines.append(f"overall: {'PASS' if r.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def emit_report(r: RunReport, fmt: str, path) -> None:
    """Write a rendered report to a file path ("-" or None for stdout)."""
    rendered = render_report(r, fmt)
    if path is None or path == "-":
        import sys

        sys.stdout.write(rendered)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rendered)
