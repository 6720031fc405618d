"""solab benchmark: closed-loop `solab run` jobs on the demo manifests.

    python3 perfbench/run.py --workload demo-2001 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one client, one thread: each job is one in-process
`solab.cli.main(["run", ...])` call, and the next job starts when the last
one has written its output.  A pass runs the five manifests of the
workload once, in seeded order; the run repeats passes until `--seconds`
have gone by.  Every output is checked.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and prints per-layer metrics (medians per
traced pass) and the tracing overhead; the spans are written to
`.perfbench-run/`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Reported times, end-to-end and per-layer, are in reference seconds (see
hostref.py): wall times scaled by how fast the host ran a fixed reference
during the run, so that the host's drifting speed cancels.  Wall-clock
end-to-end figures are printed above the result line.
"""

from __future__ import annotations

import os

# single-threaded numerics; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
from hostref import REF_NOMINAL_S, HostClock
from workloads import WORKLOADS, Workload, check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

MIN_PASSES = 4      # at least 20 jobs, so p50 leaves 10 beyond it
TAIL_BEYOND = 10    # samples the reported tail percentile must leave beyond it
# Whole percentiles would move the tail from one manifest's jobs to
# another's whenever a run completes one pass more or less; on this ladder
# a step changes only when the job count crosses 20, 100, 1000 or 10000.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
SETUP_REPEATS = 11
SETUP_JOB = "cylinder.json"  # the cheapest demo manifest, run at WARMUP_RESOLUTION
SETUP_TIMEOUT_S = 150
WARMUP_RESOLUTION = 2001

END_TO_END = (
    ("throughput_ksamples_s", "ksamples/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("checks_passed_frac", "fraction"),
)

_SUITES = ("residual", "identities", "audits", "comparison", "okumura", "oy")
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("manifest.parse_manifest.self_s", "s"),
    ("manifest.build_spec.self_s", "s"),
    ("factory.build.self_s", "s"),
    ("report.run_suite.self_s", "s"),
    *((f"report.suite.{suite}_s", "s") for suite in _SUITES),
    ("report.render_report.self_s", "s"),
    ("report.emit_report.self_s", "s"),
    ("report.bytes_out", "bytes"),
    ("geometry.curvature_grids.calls", "count"),
    ("geometry.curvature_grids.self_s", "s"),
    ("geometry.curvature_grids.calls_per_job", "calls/job"),
    ("kernel.derivative.calls", "count"),
    ("kernel.derivative.self_s", "s"),
    ("kernel.derivative.calls_per_job", "calls/job"),
    ("kernel.integrate_cumulative.calls", "count"),
    ("kernel.integrate_cumulative.self_s", "s"),
    ("kernel.GridFn.eval.calls", "count"),
    ("kernel.GridFn.eval.self_s", "s"),
    ("kernel.GridFn.init.calls", "count"),
    ("kernel.bytes_computed", "bytes"),
    ("kernel.rk4.calls", "count"),
    ("kernel.rk4.self_s", "s"),
    ("kernel.rk4.steps", "count"),
    ("verify.soliton_residual.self_s", "s"),
    ("verify.identity_residual.calls", "count"),
    ("verify.identity_residual.self_s", "s"),
    ("verify.audit_theorem.calls", "count"),
    ("verify.audit_theorem.self_s", "s"),
    ("verify.check_OY_hypotheses.self_s", "s"),
    ("verify.classify_soliton.calls", "count"),
    ("verify.classify_soliton.self_s", "s"),
    ("comparison.derive_setup.calls", "count"),
    ("comparison.derive_setup.self_s", "s"),
    ("comparison.laplacian_comparison_check.self_s", "s"),
    ("comparison.volume_bound_check.self_s", "s"),
    ("trace_overhead", "ratio"),
)

# fresh interpreter: import the CLI, run one job, exit with its code
_SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import solab.cli; sys.exit(solab.cli.main(sys.argv[2:]))"


@dataclass
class JobResult:
    seconds: float  # wall
    samples: int
    error: str | None
    checks_passed: int
    checks_run: int
    bytes_out: int


@dataclass
class PassResult:
    seconds: float
    jobs: list
    index: int
    traced: bool


def load_cli():
    """Import solab.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "solab" / "cli.py").is_file():
        sys.exit(f"perfbench: no solab source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import solab.cli

    if Path(solab.cli.__file__).resolve().parent != SRC / "solab":
        sys.exit(f"perfbench: imported solab from {solab.cli.__file__}, not from {SRC}")
    return solab.cli


def run_job(cli, workload: Workload, manifest_path: Path, manifest: dict, out_path: Path) -> JobResult:
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli.main(workload.argv(manifest_path, out_path))
    except SystemExit as exc:  # argparse rejects
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a job that raises is a failed job
        traceback.print_exc(file=sys.stderr)
        code = None
    end = time.perf_counter()
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    error, passed, run = check_output(workload.name, manifest, code, text)
    if error is not None:
        print(f"perfbench: {manifest_path.name}: {error}", file=sys.stderr)
    return JobResult(end - start, workload.resolution, error, passed, run, 0 if text is None else len(text.encode()))


def run_pass(cli, workload: Workload, out_dir: Path, index: int, recorder=None, host=None) -> PassResult:
    """One pass; `host` is probed between jobs, and its time is left out
    of the pass's wall time."""
    jobs = []
    probing = 0.0
    start = time.perf_counter()
    for i, (path, manifest) in enumerate(workload.next_pass()):
        if host is not None:
            probing += host.maybe_probe()
        if recorder is not None:
            recorder.job = (index, i)
        jobs.append(run_job(cli, workload, path, manifest, out_dir / (path.name + ".out")))
    return PassResult(time.perf_counter() - start - probing, jobs, index, recorder is not None)


def measure_setup(workload: Workload, out_dir: Path, host: HostClock) -> float:
    """Median wall time of fresh interpreters that import the CLI and run
    the workload's SETUP_JOB.  `host` is probed before each one."""
    path, manifest = workload.job(SETUP_JOB)
    out_path = out_dir / "setup.out"
    times = []
    for _ in range(SETUP_REPEATS):
        out_path.unlink(missing_ok=True)
        host.probe()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *workload.argv(path, out_path)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        error, _, _ = check_output(workload.name, manifest, proc.returncode, text)
        if error is not None:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit(f"perfbench: set-up job failed: {error}")
    return statistics.median(times)


def tail_percentile(values) -> tuple:
    """Highest TAIL_LADDER percentile (nearest rank) with at least
    TAIL_BEYOND samples above its rank: (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    ranks = [(p, math.ceil(round(p * n / 100, 9))) for p in TAIL_LADDER]
    usable = [(p, rank) for p, rank in ranks if n - rank >= TAIL_BEYOND]
    if not usable:
        raise ValueError(f"need at least {2 * TAIL_BEYOND} samples for a tail, got {n}")
    pct, rank = usable[-1]
    return pct, ordered[rank - 1]


def time_metrics(passes, scale: float = 1.0) -> tuple:
    """(throughput, p50, tail percentile, tail) of wall times multiplied
    by `scale`.  Throughput counts the jobs' own time, not the benchmark's
    output checks between them."""
    jobs = [job for p in passes for job in p.jobs]
    pct, tail = tail_percentile([job.seconds for job in jobs])
    # median pass, so one pass slowed by a neighbour on the host does not move it
    throughput = statistics.median(
        sum(job.samples for job in p.jobs if job.error is None) / sum(job.seconds for job in p.jobs) / 1e3
        for p in passes
    )
    return throughput / scale, statistics.median(job.seconds for job in jobs) * scale, pct, tail * scale


def end_to_end_metrics(passes, setup_s: float, scale: float) -> tuple:
    """End-to-end metrics, times in wall seconds multiplied by `scale`."""
    jobs = [job for p in passes for job in p.jobs]
    done = [job for job in jobs if job.error is None]
    throughput, p50, pct, tail = time_metrics(passes, scale)
    checks_run = sum(job.checks_run for job in done)
    metrics = {
        "throughput_ksamples_s": throughput,
        "job_p50_s": p50,
        "job_tail_s": tail,
        "setup_s": setup_s * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_passed_frac": sum(job.checks_passed for job in done) / checks_run if checks_run else 0.0,
    }
    notes = {
        "job_tail_s": f"p{pct:g} of {len(jobs)} jobs",
        "checks_passed_frac": f"{sum(job.checks_passed for job in done)} of {checks_run} checks",
    }
    return metrics, notes


def per_layer_metrics(passes, recorder, scale: float) -> dict:
    """Per-layer metrics, times (unit s) in wall seconds multiplied by `scale`."""
    by_job = spans.per_job_totals(recorder)
    per_pass = []
    for p in passes:
        if not p.traced:
            continue
        totals = defaultdict(float)
        for job_key, stats in by_job.items():
            if job_key is not None and job_key[0] == p.index:
                for stat, value in stats.items():
                    totals[stat] += value
        jobs = len(p.jobs)
        for name in ("geometry.curvature_grids", "kernel.derivative"):
            totals[f"{name}.calls_per_job"] = totals[f"{name}.calls"] / jobs
        totals["report.bytes_out"] = sum(job.bytes_out for job in p.jobs)
        per_pass.append(totals)
    metrics = {
        name: statistics.median(t[name] for t in per_pass) * (scale if unit == "s" else 1.0)
        for name, unit in PER_LAYER if name != "trace_overhead"
    }
    metrics["trace_overhead"] = statistics.median(p.seconds for p in passes if p.traced) / statistics.median(
        p.seconds for p in passes if not p.traced
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    RUN_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        (scratch / "warmup").mkdir()
        (scratch / "jobs").mkdir()
        # fill lazy caches (imports, stencil tables) before anything is timed
        warmup = Workload(args.workload, args.seed, cli.DEMO_MANIFESTS, scratch / "warmup", WARMUP_RESOLUTION)
        run_pass(cli, warmup, scratch, -1)
        workload = Workload(args.workload, args.seed, cli.DEMO_MANIFESTS, scratch / "jobs")
        # one full-size job, so the allocator has grown before the first pass
        path, manifest = workload.job(SETUP_JOB)
        run_job(cli, workload, path, manifest, scratch / "warmup.out")
        host = HostClock()
        setup_s = None if args.trace else measure_setup(warmup, scratch, host)

        recorder = spans.Recorder() if args.trace else None
        passes = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(passes) < MIN_PASSES:
            traced = bool(args.trace) and len(passes) % 2 == 1
            restore = spans.instrument(recorder) if traced else None
            try:
                passes.append(run_pass(cli, workload, scratch, len(passes), recorder if traced else None, host))
            finally:
                if restore is not None:
                    restore()
        host.probe()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs = [job for p in passes for job in p.jobs]
    failed = sum(job.error is not None for job in jobs)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  jobs {len(jobs)}  "
          f"wall {sum(p.seconds for p in passes):.3f} s")
    walls = sorted(p.seconds for p in passes)
    print(f"pass wall: median {statistics.median(walls):.4g} s, min {walls[0]:.4g} s, max {walls[-1]:.4g} s")
    print(f"failed_frac = {failed / len(jobs):.6g} ({failed} of {len(jobs)} jobs)")
    if args.trace:
        recorder.write(RUN_DIR / f"spans-{args.workload}.tsv")
        metrics = per_layer_metrics(passes, recorder, host.factor())
        units = dict(PER_LAYER)
        notes = {"trace_overhead": "median traced pass / median untraced pass"}
    else:
        metrics, notes = end_to_end_metrics(passes, setup_s, host.factor())
        units = dict(END_TO_END)
        throughput, p50, pct, tail = time_metrics(passes)
        refs = sorted(host.seconds)
        print(f"wall clock: throughput {throughput:.6g} ksamples/s, job p50 {p50:.6g} s, "
              f"job p{pct:g} {tail:.6g} s, setup {setup_s:.6g} s")
        print(f"host reference: {len(refs)} probes, median {statistics.median(refs) * 1e3:.4g} ms, "
              f"min {refs[0] * 1e3:.4g} ms, max {refs[-1] * 1e3:.4g} ms (nominal {REF_NOMINAL_S * 1e3:g} ms)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
