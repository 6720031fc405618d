"""Exception types raised across the soliton laboratory."""

__all__ = [
    "SolabError",
    "InvalidDimension",
    "NonFiniteValues",
    "OverflowDetected",
    "NotAModel",
    "InvalidWarp",
    "InvalidCase",
    "NotConformallyFlat",
    "NotTraceFree",
    "MissingParams",
    "NonPositiveG",
    "EnvelopeViolation",
    "InvalidRegime",
    "NegativeRadicand",
    "NoTrustedSamples",
    "ParseError",
    "SchemaError",
]


class SolabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimension(SolabError, ValueError):
    """Dimension n below what a constructor supports."""


class NonFiniteValues(SolabError, ValueError):
    """Sampled data that must be finite overflowed or is undefined."""


class OverflowDetected(SolabError):
    """ODE solution exceeded the representable range (|y| > 1e300)."""


class NotAModel(SolabError):
    """Operation requires a pole model (geodesic spheres are fiber copies)."""


class InvalidWarp(SolabError):
    """Warping function is not strictly positive on the working interval."""


class InvalidCase(SolabError):
    """Parameters do not select a valid classified-solution case."""


class NotConformallyFlat(SolabError):
    """Check requires a declared constant-curvature (space form) fiber."""


class NotTraceFree(SolabError):
    """Eigenvalue tuple does not sum to zero."""


class MissingParams(SolabError):
    """A theorem audit was requested without its required parameter set."""


class NonPositiveG(SolabError):
    """Ricci lower-bound profile must be strictly positive."""


class EnvelopeViolation(SolabError):
    """Potential leaves the requested envelope xi <= f <= omega."""


class InvalidRegime(SolabError):
    """Decay exponent outside the supported range (mu >= 0)."""


class NegativeRadicand(SolabError):
    """Diameter bound radicand 4F^2 + pi^2 (n-1) c is negative."""


class NoTrustedSamples(SolabError):
    """A residual check has no trusted sample left (grid too coarse for the
    stencil bands and the pole exclusion, or no finite values)."""


class ParseError(SolabError):
    """Manifest text is not well-formed JSON."""


class SchemaError(SolabError):
    """Manifest JSON violates the manifest schema; message names the path."""
