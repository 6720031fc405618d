"""Command-line front end.

    solab run <manifest.json> [--format json|csv|text] [--out PATH] [--no-timings]
    solab families
    solab demo

The manifest file alone sets what a run computes: family, grid and
suites (its seed is echoed in the report and read by no suite).  Exit
codes: 0 when every requested suite passes, 1 when a suite fails, 2 on
bad arguments and on manifest, precondition, or I/O errors.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from pathlib import Path

from .errors import SolabError
from .manifest import FAMILIES, parse_manifest
from .report import emit_report, run_suite

DEMO_MANIFESTS = {
    "gaussian.json": {
        "version": "1",
        "family": "gaussian",
        "params": {"lambda0": 1.0, "n": 3},
        "grid": {"interval": [0.0, 8.0], "resolution": 2001},
        "suites": ["residual", "identities", "audits", "comparison", "okumura"],
        "seed": 42,
    },
    "einstein-cosh.json": {
        "version": "1",
        "family": "einstein",
        "params": {"c": 1.0, "g0": 1.0, "gp0": 0.0, "a": 1.0, "b": 0.0, "n": 4},
        "grid": {"interval": [0.0, 2.0], "resolution": 2001},
        "suites": ["residual", "identities", "audits"],
        "seed": 42,
    },
    "general-sine.json": {
        "version": "1",
        "family": "general",
        "params": {
            "g": {"kind": "sin", "offset": 2.0, "amplitude": 1.0, "frequency": 1.0},
            "rho_sigma": 1.0,
            "A": 0.5,
            "B": 0.0,
            "n": 3,
        },
        "grid": {"interval": [0.0, 6.283185307179586], "resolution": 2001},
        "suites": ["residual", "identities", "audits"],
        "seed": 42,
    },
    "hyperbolic-model.json": {
        "version": "1",
        "family": "classified_space_form",
        "params": {"c": 1.0, "a": 0.0, "b": 0.0, "n": 3},
        "grid": {"interval": [0.0, 4.0], "resolution": 2001},
        "suites": ["residual", "identities", "audits", "comparison", "oy"],
        "seed": 42,
    },
    "cylinder.json": {
        "version": "1",
        "family": "einstein",
        "params": {"c": 0.0, "g0": 1.0, "gp0": 0.0, "a": 2.0, "b": 0.0, "n": 3},
        "grid": {"interval": [0.0, 4.0], "resolution": 2001},
        "suites": ["residual", "identities", "audits"],
        "seed": 42,
    },
}


# the mmap threshold is glibc's ceiling for its dynamic one on 64-bit, so full-grid
# temporaries (1.6 MB at 200001 samples) come from the heap, not a fresh mmap; the
# heap of a fine job grows to about 50 MB, and a 32 MiB trim threshold still trimmed it
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 256 << 20
# from here two freed grid arrays pass glibc's default 128 KiB trim threshold; coarser
# jobs save too few page faults to change the allocator for all else in the process
_HEAP_GRID_SAMPLES = (64 << 10) // 8


@functools.cache
def _keep_heap_pages() -> None:
    """Keep freed heap pages mapped for the rest of the process (glibc only)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library or no mallopt: skip
        return
    mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in <malloc.h>
    mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def cmd_run(args) -> int:
    try:
        text = Path(args.manifest).read_bytes()
    except OSError as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = parse_manifest(text)
        if manifest.resolution >= _HEAP_GRID_SAMPLES:
            _keep_heap_pages()
        report = run_suite(manifest)
    except SolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.no_timings:
        report.timings = None
    try:
        emit_report(report, args.format, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.overall else 1


def cmd_families(_args) -> int:
    for name, (desc, schema) in FAMILIES.items():
        print(f"{name}: {desc}")
        for pname, (kind, default) in schema.items():
            req = "required" if default is None else f"default {default}"
            print(f"  {pname}: {kind} ({req})")
        print("  corrupt_lambda: float (optional fault injection, shifts lambda)")
    return 0


def cmd_demo(_args) -> int:
    for fname, payload in DEMO_MANIFESTS.items():
        try:
            Path(fname).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {fname}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {fname}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process.

    Building it takes about 0.6 ms, a sixth of a median 2001-sample job,
    which callers that run `main` in a loop (the benchmark, the tests)
    would pay on every call.  `parse_args` leaves the parser unchanged,
    so every call parses as a fresh parser would.
    """
    parser = argparse.ArgumentParser(prog="solab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the suites a manifest requests")
    run_p.add_argument("manifest", help="path to a manifest JSON file")
    run_p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    run_p.add_argument("--out", default=None, help="output path (default stdout)")
    run_p.add_argument("--no-timings", action="store_true", help="strip timings for byte-stable output")
    run_p.set_defaults(func=cmd_run)

    fam_p = sub.add_parser("families", help="list constructors and parameter schemas")
    fam_p.set_defaults(func=cmd_families)

    demo_p = sub.add_parser("demo", help="write the five canonical manifests to the working directory")
    demo_p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    code = args.func(args)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
