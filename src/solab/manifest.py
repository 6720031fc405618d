"""Manifest parsing and validation for the CLI runner.

Manifests are strict JSON: unknown keys anywhere are rejected with the
offending path named, so a mistyped constant fails loudly instead of
silently running defaults.  Version "1" only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, SchemaError
from .factory import (
    DEFAULT_RESOLUTION,
    SolitonSpec,
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from .geometry import Polynomial, SnCombination
from .kernel import MIN_SAMPLES

__all__ = ["Manifest", "parse_manifest", "build_spec", "FAMILIES", "SUITES", "DEFAULT_SEED", "MAX_SAMPLES"]

SUITES = ("residual", "identities", "audits", "comparison", "okumura", "oy")
DEFAULT_SEED = 42
# 50 times the 200001-sample fine grid; a job peaks near 23 full-grid
# arrays, about 1.8 GB at this size (README, Conventions)
MAX_SAMPLES = 10**7

# family name -> (description, {param: (kind, default, None if required)})
# every family also accepts the fault-injection key "corrupt_lambda"
FAMILIES = {
    "gaussian": (
        "flat model with f = lambda0 r^2/2 (shrinking for lambda0 > 0)",
        {"lambda0": ("float", None), "n": ("int", None)},
    ),
    "einstein": (
        "Einstein warp g = gp0 sn_{-c} + g0 cn_{-c} with f = a int g + b",
        {
            "c": ("float", None),
            "g0": ("float", None),
            "gp0": ("float", None),
            "a": ("float", None),
            "b": ("float", None),
            "n": ("int", None),
        },
    ),
    "classified_space_form": (
        "constant-curvature model, lambda = a cn_{-c}(r) - (n-1) c",
        {
            "c": ("float", None),
            "a": ("float", 0.0),
            "b": ("float", 0.0),
            "n": ("int", None),
        },
    ),
    "general": (
        "arbitrary positive warp; f and lambda by nested quadrature",
        {
            "g": ("closed_form", None),
            "rho_sigma": ("float", None),
            "A": ("float", None),
            "B": ("float", None),
            "n": ("int", None),
        },
    ),
}


@dataclass(frozen=True)
class Manifest:
    version: str
    family: str
    params: dict
    interval: tuple
    resolution: int
    suites: tuple
    seed: int

    def echo(self) -> dict:
        return {
            "version": self.version,
            "family": self.family,
            "params": self.params,
            "grid": {"interval": list(self.interval), "resolution": self.resolution},
            "suites": list(self.suites),
            "seed": self.seed,
        }


def _require_keys(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key at {path}.{key}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number at {path}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number at {path}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer at {path}")
    return value


# closed-form kind -> its keys, every one required
_CLOSED_FORM_KEYS = {"sn": ("k", "c1", "c2"), "poly": ("coeffs",), "sin": ("offset", "amplitude", "frequency")}


def _closed_form(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"expected a closed-form object at {path}")
    kind = value.get("kind")
    keys = _CLOSED_FORM_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise SchemaError(f"unknown closed-form kind at {path}.kind")
    _require_keys(value, {"kind", *keys}, path)
    for key in keys:
        if key not in value:
            raise SchemaError(f"missing required key {path}.{key}")
    if kind == "poly":
        coeffs = value["coeffs"]
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaError(f"expected a coefficient list at {path}.coeffs")
        return {"kind": "poly", "coeffs": [_number(c, f"{path}.coeffs") for c in coeffs]}
    return {"kind": kind, **{k: _number(value[k], f"{path}.{k}") for k in keys}}


def parse_manifest(text) -> Manifest:
    """Parse and validate manifest JSON (bytes or str)."""
    try:
        raw = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply") from exc
    if not isinstance(raw, dict):
        raise SchemaError("manifest root must be an object")

    _require_keys(raw, {"version", "family", "params", "grid", "suites", "seed"}, "$")

    version = raw.get("version")
    if version != "1":
        raise SchemaError(f"unsupported value at $.version: {version!r} (expected \"1\")")

    family = raw.get("family")
    if family not in FAMILIES:
        raise SchemaError(f"unknown family at $.family: {family!r}")
    _, schema = FAMILIES[family]

    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise SchemaError("expected an object at $.params")
    _require_keys(raw_params, set(schema) | {"corrupt_lambda"}, "$.params")
    params = {}
    for name, (kind, default) in schema.items():
        if name not in raw_params:
            if default is None:
                raise SchemaError(f"missing required key $.params.{name}")
            params[name] = default
            continue
        value = raw_params[name]
        path = f"$.params.{name}"
        if kind == "float":
            params[name] = _number(value, path)
        elif kind == "int":
            params[name] = _integer(value, path)
            if params[name] > 2**53:  # past the integers a float holds exactly
                raise SchemaError(f"{path} must be at most 2**53")
        else:
            params[name] = _closed_form(value, path)
    if "corrupt_lambda" in raw_params:
        params["corrupt_lambda"] = _number(raw_params["corrupt_lambda"], "$.params.corrupt_lambda")

    grid = raw.get("grid")
    if not isinstance(grid, dict):
        raise SchemaError("expected an object at $.grid")
    _require_keys(grid, {"interval", "resolution"}, "$.grid")
    interval = grid.get("interval")
    if not (isinstance(interval, list) and len(interval) == 2):
        raise SchemaError("expected [start, end] at $.grid.interval")
    a = _number(interval[0], "$.grid.interval[0]")
    b = _number(interval[1], "$.grid.interval[1]")
    if not b > a:
        raise SchemaError("$.grid.interval must satisfy start < end")
    # pole families anchor their grid at the pole, t = 0 (see build_spec)
    if family in ("gaussian", "classified_space_form"):
        if not b > 0:
            raise SchemaError("$.grid.interval must end past the pole, t = 0, for a pole family")
    elif not math.isfinite(b - a):
        raise SchemaError("$.grid.interval must have a length within the float range")
    resolution = _integer(grid.get("resolution", DEFAULT_RESOLUTION), "$.grid.resolution")
    if resolution < MIN_SAMPLES:
        raise SchemaError(f"$.grid.resolution must be at least {MIN_SAMPLES}")
    if resolution > MAX_SAMPLES:
        raise SchemaError(f"$.grid.resolution must be at most {MAX_SAMPLES}")

    suites_raw = raw.get("suites")
    if not isinstance(suites_raw, list) or not suites_raw:
        raise SchemaError("expected a non-empty list at $.suites")
    for i, s in enumerate(suites_raw):
        if s not in SUITES:
            raise SchemaError(f"unknown suite at $.suites: {s!r}")
        if s in suites_raw[:i]:
            raise SchemaError(f"duplicate suite at $.suites: {s!r}")

    seed = _integer(raw.get("seed", DEFAULT_SEED), "$.seed")
    if seed < 0:
        raise SchemaError("expected a non-negative integer at $.seed")

    return Manifest(
        version=version,
        family=family,
        params=params,
        interval=(a, b),
        resolution=resolution,
        suites=tuple(suites_raw),
        seed=seed,
    )


def _materialize_form(spec: dict):
    if spec["kind"] == "sn":
        return SnCombination(k=spec["k"], c1=spec["c1"], c2=spec["c2"])
    if spec["kind"] == "poly":
        return Polynomial(coeffs=tuple(spec["coeffs"]))
    # "sin": offset + amplitude * sin(w t) = offset + amplitude * w * sn_{w^2}(t)
    w = spec["frequency"]
    return SnCombination(k=w * w, c1=spec["amplitude"] * w, c2=0.0, c0=spec["offset"])


# an array that leaves the float range fails require_finite in the layer that owns it
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def build_spec(m: Manifest) -> SolitonSpec:
    """Construct the SolitonSpec a manifest describes.

    Pole families anchor their grid at the pole (radius 0) regardless of
    the requested interval start, since ball volumes integrate from the
    pole; the interval end is honoured.
    """
    p = dict(m.params)
    corrupt = p.pop("corrupt_lambda", None)
    if m.family == "gaussian":
        spec = build_gaussian(p["lambda0"], p["n"], r_max=m.interval[1], resolution=m.resolution)
    elif m.family == "einstein":
        spec = build_einstein_family(
            c=p["c"], g0=p["g0"], gp0=p["gp0"], a=p["a"], b=p["b"], n=p["n"],
            interval=m.interval, resolution=m.resolution,
        )
    elif m.family == "classified_space_form":
        spec = build_classified(p["c"], p["a"], p["b"], p["n"], r_max=m.interval[1], resolution=m.resolution)
    elif m.family == "general":
        form = _materialize_form(p["g"])
        spec = build_general_family(
            form, rho_sigma=p["rho_sigma"], A=p["A"], B=p["B"], n=p["n"],
            interval=m.interval, resolution=m.resolution,
        )
    else:  # pragma: no cover - parse_manifest already rejected it
        raise SchemaError(f"unknown family {m.family!r}")

    if corrupt is not None:
        spec = replace(spec, lam=replace(spec.lam, values=spec.lam.values + corrupt))
    return spec
