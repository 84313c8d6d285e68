"""Exception vocabulary shared across the package.

Every exception carries a stable machine-readable ``code`` that the CLI
surfaces in error reports, so scripted callers can dispatch on it without
parsing messages.
"""


class CantorVisError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class ParseError(CantorVisError):
    code = "parse-error"


class OutOfRange(CantorVisError):
    """A parameter violates its documented range (e.g. lambda outside (0, 1/2))."""

    code = "out-of-range"


class NonPositiveDenominator(CantorVisError):
    """Quotient of intervals requested with a divisor touching (-inf, 0]."""

    code = "non-positive-denominator"


class ZeroRatio(CantorVisError):
    code = "zero-ratio"


class DepthBudgetExceeded(CantorVisError):
    """An enumeration would pass the depth ceiling or the item ceiling."""

    code = "depth-budget-exceeded"


class NotBasicEndpoints(CantorVisError):
    """A window bound is not an endpoint of any basic interval at the checked ranks."""

    code = "not-basic-endpoints"


class LengthMismatch(CantorVisError):
    code = "length-mismatch"


class NegativeSlope(CantorVisError):
    code = "negative-slope"


class InsufficientScales(CantorVisError):
    code = "insufficient-scales"


class NotIntervalAttractor(CantorVisError):
    """The four projected images fail to cover the target interval exactly."""

    code = "not-interval-attractor"


class OutOfAttractor(CantorVisError):
    code = "out-of-attractor"


class ClosureNotFinite(CantorVisError):
    """Orbit closures could not be certified finite within the given budget."""

    code = "closure-not-finite"


class EmptySystem(CantorVisError):
    code = "empty-system"


class OutputNotWritable(CantorVisError):
    """The CLI could not write its report to the requested --out file."""

    code = "output-not-writable"
