"""solab: a numerical laboratory for warped-product Ricci almost solitons.

Construct the explicit soliton families on warped products, verify the
differential identities they satisfy, and check the weighted Laplacian /
volume comparison bounds and theorem audits, all on one-dimensional radial
grids at desk scale.
"""

from .comparison import (
    ComparisonSetup,
    VolestConstants,
    VolumeBound,
    derive_setup,
    diameter_bound,
    f_parabolic_test,
    laplacian_comparison_check,
    volest_bound,
    volume_bound_check,
)
from .factory import (
    FamilyTag,
    SolitonSpec,
    build_classified,
    build_einstein_family,
    build_gaussian,
    build_general_family,
)
from .geometry import (
    Polynomial,
    SnCombination,
    WarpProfile,
    unit_sphere_volume,
    weighted_ball_volume,
    weighted_sphere_volume,
)
from .kernel import GridFn, derivative, integrate_cumulative, sn_cn, solve_linear_ode2
from .manifest import Manifest, build_spec, parse_manifest
from .report import RunReport, emit_report, run_suite
from .verify import (
    AuditReport,
    Classification,
    ResidualReport,
    Verdict,
    audit_theorem,
    check_OY_hypotheses,
    classify_soliton,
    grad_T_norm2,
    identity_residual,
    okumura_check,
    soliton_residual,
)

__version__ = "0.1.0"
