"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all chart/tensor computation failures."""


class EvaluationOutsideDomain(GeometryError):
    """A point lies too close to its chart's boundary for a stencil around it."""


class RankDeficient(GeometryError):
    """Fewer independent vectors than requested survived orthonormalization."""


class SingularMetric(GeometryError):
    """Metric inversion failed or the metric is not positive-definite."""


class MissingStructure(GeometryError):
    """An operation needs an almost-complex structure that was not supplied."""


class CriticalPoint(GeometryError):
    """A fibre-geometry operation was evaluated at a non-regular point."""


class FibreDimension(GeometryError):
    """The vertical space does not have the required dimension."""


class WrongDimension(GeometryError):
    """The chart dimension does not match what the operation requires."""


class TargetDimensionTooSmall(GeometryError):
    """A check requiring a target of real dimension > 2 got a smaller one."""


class DegenerateParameters(GeometryError):
    """Parameters define a degenerate (non-invertible) transformation."""


class PreconditionFailed(GeometryError):
    """A scenario precondition does not hold for the supplied objects."""

    def __init__(self, precondition: str, message: str = ""):
        self.precondition = precondition
        super().__init__(f"precondition '{precondition}' failed" + (f": {message}" if message else ""))


class UnknownScenario(GeometryError):
    """Scenario id not present in the registry."""


class TooManyExcludedSamples(GeometryError):
    """More than 10% of planned samples were excluded as near-critical."""


class DslError(Exception):
    """Base class for config-language failures."""


class DslSyntaxError(DslError):
    """Malformed config text; carries line/column and what was expected."""

    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, col {col}: expected {expected}")


class UnknownSymbol(DslError):
    """An identifier that is neither a coordinate nor a known function."""


class DimensionMismatch(DslError):
    """A coordinate index or array shape exceeds the declared dimension."""


class EvaluationError(DslError):
    """Expression evaluation produced NaN/Inf or hit a math-domain violation."""


class ConfigError(DslError):
    """A parsed config failed its load-time numeric validation."""
