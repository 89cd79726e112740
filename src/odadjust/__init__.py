"""Origin-destination demand adjustment for congested networks.

The package estimates demand matrices from partial link-flow observations by
solving a bilevel program: the upper level fits observed flows and prior
demands, the lower level keeps the flows at user equilibrium.  The lower level
is lifted into its optimality system and the whole thing is solved by an
inexact restoration method whose feasibility phase is an ordinary traffic
assignment.
"""

from .driver import (DapResult, IRConfig, IterationRecord, STATUS_CONVERGED,
                     STATUS_MAX_OUTER, STATUS_STALLED, solve_dap)
from .errors import (DanglingReference, DimensionMismatch, DuplicateId,
                     InputError, MalformedInput, MaxIterations,
                     NegativeCoefficient, NonFiniteObjective, OdAdjustError,
                     ResidualTooLarge, SolverStalled, TooLarge, Unreachable,
                     UnreachableDestination)
from .kkt import (equilibrium_sensitivity, eval_C, eval_C_jacobian, eval_F,
                  eval_L, eval_L_grad, recover_multipliers, tangent_space)
from .network import (Commodity, CostFunction, Link, Network, aggregate_flows,
                      build_structure, parse_network)
from .projection import TangentSpace, min_norm_solve, project
from .tap import TapSolution, beckmann_objective, relative_gap, solve_tap

__version__ = "0.1.0"

__all__ = [
    "Commodity", "CostFunction", "DapResult",
    "IRConfig", "IterationRecord", "Link", "Network",
    "TangentSpace", "TapSolution",
    "aggregate_flows", "beckmann_objective",
    "build_structure", "equilibrium_sensitivity", "eval_C",
    "eval_C_jacobian", "eval_F", "eval_L", "eval_L_grad",
    "min_norm_solve", "parse_network", "project", "recover_multipliers",
    "relative_gap", "solve_dap",
    "solve_tap", "tangent_space",
    "STATUS_CONVERGED", "STATUS_MAX_OUTER", "STATUS_STALLED",
    "OdAdjustError", "InputError", "MalformedInput", "DuplicateId",
    "DanglingReference", "NegativeCoefficient", "UnreachableDestination",
    "DimensionMismatch", "Unreachable", "MaxIterations",
    "ResidualTooLarge", "SolverStalled", "NonFiniteObjective", "TooLarge",
]
