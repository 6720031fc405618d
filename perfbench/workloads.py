"""Workload generation and output checking for the solab benchmark.

Every workload is built from `solab.cli.DEMO_MANIFESTS`.  The seed sets
each manifest's `seed` field and the order of the jobs within each pass;
the program only sees the generated manifest files.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

CSV_HEADER = "t,g,f,lambda,S,ric_norm2,T_norm2,residual"
CSV_FIELDS = 8

# name -> (grid resolution, suites override or None, output format).
# fine-export is run by hand only: on a shared host its timings spread too
# far from run to run for a regression bound (see README.md).
WORKLOADS = {
    "demo-2001": (2001, None, "json"),
    "fine-verify": (200001, None, "json"),
    "fine-export": (200001, ["residual"], "csv"),
}


class Workload:
    """The manifests of one workload, written to `directory`, and the
    seeded job order."""

    def __init__(self, name: str, seed: int, demo_manifests: dict, directory: Path, resolution=None):
        default_resolution, suites, self.fmt = WORKLOADS[name]
        self.name = name
        self.resolution = resolution or default_resolution
        self.rng = random.Random(seed)
        self.jobs = []  # (manifest path, manifest dict)
        for fname, base in demo_manifests.items():
            manifest = copy.deepcopy(base)
            manifest["grid"]["resolution"] = self.resolution
            if suites is not None:
                manifest["suites"] = list(suites)
            manifest["seed"] = self.rng.randrange(2**31)
            path = directory / fname
            # byte layout as `solab demo` writes it
            path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            self.jobs.append((path, manifest))

    def next_pass(self) -> list:
        """The jobs of one pass, in seeded order."""
        jobs = list(self.jobs)
        self.rng.shuffle(jobs)
        return jobs

    def job(self, fname: str) -> tuple:
        """(manifest path, manifest) of the named demo manifest."""
        return next(job for job in self.jobs if job[0].name == fname)

    def argv(self, manifest_path: Path, out_path: Path) -> list:
        return ["run", str(manifest_path), "--format", self.fmt, "--no-timings", "--out", str(out_path)]


def _json_checks(result: dict) -> tuple:
    """(passed, run) for one suite result, by the rule run_suite applies."""
    suite = result["suite"]
    if suite in ("okumura", "oy"):
        return int(bool(result["passed"])), 1
    if suite == "audits":
        verdicts = [c["verdict"] for c in result["checks"]]
        return sum(v != "violation" for v in verdicts), len(verdicts)
    checks = [c for c in result["checks"] if "skipped" not in c]
    return sum(bool(c["passed"]) for c in checks), len(checks)


def check_output(workload_name: str, manifest: dict, exit_code, text) -> tuple:
    """Judge one job.

    Returns (error or None, checks passed, checks run).  A job fails when
    it raised (exit_code None), exited with 2, wrote malformed output, or,
    on demo-2001, exited with anything but 0.
    """
    if exit_code is None:
        return "raised", 0, 0
    if exit_code not in (0, 1):
        return f"exit code {exit_code}", 0, 0
    if workload_name == "demo-2001" and exit_code != 0:
        return f"exit code {exit_code} on a demo manifest", 0, 0
    if text is None:
        return "no output file", 0, 0
    if WORKLOADS[workload_name][2] == "csv":
        return _check_csv(manifest, exit_code, text)
    return _check_json(manifest, exit_code, text)


def _check_json(manifest: dict, exit_code: int, text: str) -> tuple:
    try:
        report = json.loads(text)
        listed = [r["suite"] for r in report["suite_results"]]
        overall = report["overall"]
        counts = [_json_checks(r) for r in report["suite_results"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed JSON report: {exc!r}", 0, 0
    if listed != manifest["suites"]:
        return f"report lists suites {listed}, manifest asked for {manifest['suites']}", 0, 0
    if overall != ("pass" if exit_code == 0 else "fail"):
        return f"overall {overall!r} disagrees with exit code {exit_code}", 0, 0
    if "timings" in report:
        return "timings present under --no-timings", 0, 0
    return None, sum(p for p, _ in counts), sum(n for _, n in counts)


def _check_csv(manifest: dict, exit_code: int, text: str) -> tuple:
    lines = text.split("\n")
    if lines[-1] != "":
        return "CSV does not end with a newline", 0, 0
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return "CSV header differs", 0, 0
    rows = lines[1:]
    expected = manifest["grid"]["resolution"]
    if len(rows) != expected:
        return f"CSV has {len(rows)} rows, expected {expected}", 0, 0
    bad = next((i for i, row in enumerate(rows) if row.count(",") != CSV_FIELDS - 1), None)
    if bad is not None:
        return f"CSV row {bad} does not have {CSV_FIELDS} fields", 0, 0
    try:
        t_first, t_last = float(rows[0].split(",", 1)[0]), float(rows[-1].split(",", 1)[0])
    except ValueError:
        return "CSV t column is not numeric", 0, 0
    start, end = manifest["grid"]["interval"]
    if abs(t_first - start) > 1e-9 * (1 + abs(end)) or abs(t_last - end) > 1e-9 * (1 + abs(end)):
        return f"CSV t column spans [{t_first}, {t_last}], manifest asked for [{start}, {end}]", 0, 0
    # a residual-only CSV run reports pass/fail through its exit code only
    return None, int(exit_code == 0), 1
