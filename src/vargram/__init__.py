"""Energy functions, Gramians, and rank tests for control-affine systems.

The toolkit simulates prolonged (variational) and two-copy dynamics of
smooth input-affine systems, evaluates differential and incremental
controllability/observability energies by quadrature, checks Lyapunov and
Riccati certificate residuals, runs Lie-bracket rank tests, and bundles
the whole chain into empirical verification reports.
"""

from vargram.expr import ExprAst, SystemSpec, parse_expression, parse_system_spec
from vargram.calculus import Dual, VectorField, MatrixField, jacobian
from vargram.integrate import Trajectory, QuadratureResult
from vargram.systems import SystemModel, AugmentedField, registry
from vargram.energy import (EnergyValue, LinePath, diff_observability,
                            diff_controllability_fb, incr_observability,
                            incr_controllability_fb, path_energy_integral,
                            quadratic_limit)
from vargram.gramian import (GramianResult, ResidualReport, PDScan,
                             empirical_obs_gramian, empirical_ctrl_gramian,
                             pd_scan)
from vargram.rank import (RankMatrix, ctrl_bracket_matrix, strong_access_matrix,
                          obs_codistribution)
from vargram.verify import Report, DecayEstimate, fit_decay

__all__ = [
    "ExprAst",
    "SystemSpec",
    "parse_expression",
    "parse_system_spec",
    "Dual",
    "VectorField",
    "MatrixField",
    "jacobian",
    "Trajectory",
    "QuadratureResult",
    "SystemModel",
    "AugmentedField",
    "registry",
    "EnergyValue",
    "LinePath",
    "diff_observability",
    "diff_controllability_fb",
    "incr_observability",
    "incr_controllability_fb",
    "path_energy_integral",
    "quadratic_limit",
    "GramianResult",
    "ResidualReport",
    "PDScan",
    "empirical_obs_gramian",
    "empirical_ctrl_gramian",
    "pd_scan",
    "RankMatrix",
    "ctrl_bracket_matrix",
    "strong_access_matrix",
    "obs_codistribution",
    "Report",
    "DecayEstimate",
    "fit_decay",
]

__version__ = "0.1.0"
