"""Homothety as a metamorphic oracle.

For g_bar = kappa^2 g, Ric and Hess f are unchanged as (0,2)-tensors, so
Ric + Hess f = lambda g becomes Ric + Hess f = (lambda / kappa^2) g_bar.  On
a warped product that is t -> kappa t, g(t) -> kappa g(t / kappa), with
rho_sigma and f unchanged and lambda -> lambda / kappa^2.  A residual of
weight w (its units, length^-w) then rescales by kappa^-w.  With kappa a
power of two every rescaling is exact in floating point, so each demo's
sup norms must match bit for bit.
"""

import copy
import json

import pytest

from solab.cli import DEMO_MANIFESTS
from solab.manifest import parse_manifest
from solab.report import run_suite

# manifest parameter -> the power of kappa it scales by
PARAM_POWERS = {
    "gaussian": {"lambda0": -2},
    "einstein": {"c": -2, "g0": 1, "a": -2},
    "classified_space_form": {"c": -2, "a": -2},
    "general": {"A": -2},
}
SIN_POWERS = {"offset": 1, "amplitude": 1, "frequency": -1}

# check -> w, its sup norm scaling by kappa^-w
WEIGHTS = {
    "soliton": 2,
    "trace": 2,
    "scalar_gradient": 3,
    "grad_f_bochner": 4,
    "scalar_laplacian": 4,
    "trace_free_balance": 6,
    "okumura_equality": 6,
}


def rescaled(payload: dict, kappa: float) -> dict:
    """The demo manifest of the same manifold with its metric times kappa^2.
    The oy suite is left out: its windows start at t = 1 whatever the
    unit of length."""
    out = copy.deepcopy(payload)
    params = out["params"]
    for key, power in PARAM_POWERS[out["family"]].items():
        params[key] *= kappa**power
    if out["family"] == "general":
        assert params["g"]["kind"] == "sin"
        for key, power in SIN_POWERS.items():
            params["g"][key] *= kappa**power
    out["grid"]["interval"] = [kappa * t for t in out["grid"]["interval"]]
    out["suites"] = [s for s in out["suites"] if s != "oy"]
    return out


def measured(payload: dict) -> tuple:
    """Every check's sup norm by (suite, check), and the volume checks'
    (r, actual, bound) in order."""
    rep = run_suite(parse_manifest(json.dumps(payload)))
    checks = [c for res in rep.suite_results for c in res["checks"]]
    sup = {(res["suite"], c["identity_id"]): c["sup_norm"]
           for res in rep.suite_results for c in res["checks"] if "sup_norm" in c}
    volumes = [(c["r"], c["actual"], c["bound"]) for c in checks if c.get("check") == "volume_bound"]
    return sup, volumes


@pytest.mark.parametrize("kappa", [0.5, 2.0])
@pytest.mark.parametrize("demo", sorted(DEMO_MANIFESTS))
def test_homothety_rescales_every_check_exactly(demo, kappa):
    base, base_volumes = measured(rescaled(DEMO_MANIFESTS[demo], 1.0))
    scaled, volumes = measured(rescaled(DEMO_MANIFESTS[demo], kappa))
    assert scaled.keys() == base.keys()
    for key, value in base.items():
        _, check = key
        if check == "laplacian_comparison":
            assert value == 0.0 and scaled[key] == 0.0, key
        else:
            assert scaled[key] == value * kappa ** -WEIGHTS[check], (key, value, scaled[key])
    # weighted ball volumes rescale by kappa^n, since f is unchanged
    n = DEMO_MANIFESTS[demo]["params"]["n"]
    assert volumes == [(kappa * r, kappa**n * actual, kappa**n * bound) for r, actual, bound in base_volumes]
