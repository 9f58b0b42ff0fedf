"""mfhier: certified adaptive model hierarchies for multi-query scenarios.

A request is answered by the cheapest model in an ordered hierarchy whose
error estimate meets the tolerance, with automatic fallback to more
accurate models and feedback of evaluation data into the cheaper ones.
Ships a three-stage instantiation for a parametrized parabolic PDE
(full-order / reduced-basis / learned coefficients) and a two-stage
optimization demo, plus a Monte Carlo outer-loop harness.
"""

from .errors import (ConfigurationError, DomainError, HierarchyError,
                     NotReadyError, StaleGenerationError, StreamAborted)
from .fom import (AffineSystem, FullOrderLevel, ParabolicResult, Trajectory,
                  assemble, compute_qoi, solve_fom)
from .harness import (RunConfig, StreamSummary, baseline, build_scenario,
                      default_config, draw_parameters, load_config, report,
                      run, summarize, verify)
from .hierarchy import (REFERENCE, CertifiedAnswer, ModelHierarchy, ModelLevel,
                        ModelOutput, ParameterBox, QueryRecord)
from .mlsurrogate import (KernelRegressor, MLCoefficientLevel, fit,
                          predict_trajectory, rebase)
from .optdemo import (DescentResult, ObjectiveOracle, SurrogateObjectiveLevel,
                      FullObjectiveLevel, descend, fd_gradient, himmelblau)
from .rb import (BasisChanged, ReducedBasis, ReducedBasisLevel,
                 ReducedSystem, ReducedTrajectory, build_reduced_system,
                 coercivity_lower_bound, error_estimate, extend_basis,
                 reconstruct, reconstruct_final, residual_dual_norms, solve_rb)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "AffineSystem", "BasisChanged", "CertifiedAnswer", "ConfigurationError",
    "DescentResult", "DomainError", "FullObjectiveLevel", "FullOrderLevel",
    "HierarchyError", "KernelRegressor", "MLCoefficientLevel",
    "ModelHierarchy", "ModelLevel", "ModelOutput", "NotReadyError",
    "ObjectiveOracle", "ParabolicResult", "ParameterBox", "QueryRecord",
    "REFERENCE", "ReducedBasis", "ReducedBasisLevel", "ReducedSystem",
    "ReducedTrajectory", "RunConfig", "SplitMix64", "StaleGenerationError",
    "StreamAborted", "StreamSummary", "SurrogateObjectiveLevel", "Trajectory",
    "assemble", "baseline", "build_reduced_system",
    "build_scenario", "coercivity_lower_bound", "compute_qoi",
    "default_config", "descend", "draw_parameters", "error_estimate",
    "extend_basis", "fd_gradient", "fit", "himmelblau", "load_config",
    "predict_trajectory", "rebase", "reconstruct", "reconstruct_final",
    "report", "residual_dual_norms", "run", "solve_fom", "solve_rb",
    "summarize", "verify",
]
