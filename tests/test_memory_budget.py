"""Peak memory of a fine `solab run` job, counted in full-grid arrays.

Each demo manifest at 200001 samples goes through run_suite and
render_report(json) under tracemalloc, which sees numpy's array buffers.
The peak above the pre-run baseline must stay within ARRAY_BUDGET arrays
of 200001 float64 samples.  On failure the message lists, for each suite
stage, the arrays live when it returns (its result included) and its own
peak, both above the baseline.
"""

import copy
import json
import tracemalloc

import pytest

from solab import report
from solab.cli import DEMO_MANIFESTS
from solab.manifest import parse_manifest

SAMPLES = 200_001
ARRAY_BYTES = 8 * SAMPLES
ARRAY_BUDGET = 23

# the stage functions run_suite calls, by their names in solab.report
STAGES = (
    "build_spec",
    "soliton_residual",
    "identity_residual",
    "audit_theorem",
    "derive_setup",
    "laplacian_comparison_check",
    "volume_bound_check",
    "okumura_residual",
    "okumura_attained_frac",
    "check_OY_hypotheses",
)


class StageMeter:
    """Traced memory around each stage call, in arrays above a baseline."""

    def __init__(self):
        self.baseline = tracemalloc.get_traced_memory()[0]
        self.peak = self.baseline  # bytes, over the stages and between them
        self.rows = []  # (stage, live after, peak during)

    def arrays(self, nbytes: int) -> float:
        return (nbytes - self.baseline) / ARRAY_BYTES

    def note_peak(self) -> None:
        """Fold tracemalloc's peak since its last reset into self.peak."""
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])

    def wrap(self, name, fn):
        def staged(*args, **kwargs):
            self.note_peak()
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            live, peak = tracemalloc.get_traced_memory()
            self.peak = max(self.peak, peak)
            # identities and audits are named by their second argument
            label = f"{name}({args[1]})" if len(args) > 1 and isinstance(args[1], str) else name
            self.rows.append((label, self.arrays(live), self.arrays(peak)))
            return out

        return staged

    def table(self) -> str:
        return "\n".join(f"  {label:40s} live {live:5.1f}  peak {peak:5.1f}" for label, live, peak in self.rows)


@pytest.mark.parametrize("fname", list(DEMO_MANIFESTS))
def test_fine_job_fits_the_array_budget(fname, monkeypatch):
    payload = copy.deepcopy(DEMO_MANIFESTS[fname])
    payload["grid"]["resolution"] = SAMPLES
    manifest = parse_manifest(json.dumps(payload))
    tracemalloc.start()
    try:
        meter = StageMeter()
        for name in STAGES:
            monkeypatch.setattr(report, name, meter.wrap(name, getattr(report, name)))
        report.render_report(report.run_suite(manifest), "json")
        meter.note_peak()
    finally:
        tracemalloc.stop()
    peak = meter.arrays(meter.peak)
    assert peak <= ARRAY_BUDGET, (
        f"{fname} at {SAMPLES} samples peaks at {peak:.1f} full-grid arrays, "
        f"over the budget of {ARRAY_BUDGET}; arrays by stage:\n{meter.table()}"
    )
