"""Chart-local numerical differential geometry: almost Hermitian structures,
tension fields and harmonic-morphism-style verification scenarios."""

from .errors import (ConfigError, CriticalPoint, DimensionMismatch, DslError,
                     DslSyntaxError, EvaluationError, EvaluationOutsideDomain,
                     FibreDimension, GeometryError, MissingStructure,
                     PreconditionFailed, RankDeficient, SingularMetric,
                     TargetDimensionTooSmall, TooManyExcludedSamples,
                     UnknownScenario, UnknownSymbol, WrongDimension)
from .hermitian import (AlmostComplexField, HermitianFrame, StructureJet,
                        StructureReport, classify_structure, divergence_J,
                        hermitian_frame, lee_vector, nabla_J, nijenhuis, structure_jet)
from .manifold import (Box, Chart, Embedding, SamplePlan, VectorField, christoffel,
                       covariant_derivative, gradient, lie_bracket, metric_derivative)
from .maps import (ConformalityData, MapSpec, PointJet, condition_ii_residual,
                   conformality, differential, fibre_mean_curvature,
                   holomorphy_residual, homothety_residual, lee_pushforward,
                   lift_structure, point_jet, superminimality_residual, tension)
from .numdiff import DiffConfig, by_row, orthonormalize, partial, second_partial
from .scenarios import (CheckResult, VerificationReport, run_scenario,
                        scenario_description, scenario_ids)

__version__ = "0.1.0"

__all__ = [
    "AlmostComplexField", "Box", "Chart", "CheckResult",
    "ConfigError", "ConformalityData", "CriticalPoint", "DiffConfig",
    "DimensionMismatch", "DslError", "DslSyntaxError", "Embedding",
    "EvaluationError", "EvaluationOutsideDomain", "FibreDimension",
    "GeometryError", "HermitianFrame", "MapSpec", "MissingStructure", "PointJet",
    "PreconditionFailed", "RankDeficient", "SamplePlan", "SingularMetric",
    "StructureJet", "StructureReport", "TargetDimensionTooSmall", "TooManyExcludedSamples",
    "UnknownScenario", "UnknownSymbol",
    "VectorField", "VerificationReport", "WrongDimension",
    "by_row", "christoffel", "classify_structure", "condition_ii_residual", "conformality",
    "covariant_derivative", "differential", "divergence_J",
    "fibre_mean_curvature", "gradient", "hermitian_frame", "holomorphy_residual",
    "homothety_residual", "lee_pushforward", "lee_vector", "lie_bracket", "metric_derivative",
    "lift_structure", "nabla_J", "nijenhuis", "orthonormalize", "partial", "point_jet",
    "run_scenario", "scenario_description", "scenario_ids",
    "second_partial", "structure_jet", "superminimality_residual", "tension",
]
