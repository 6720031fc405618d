"""Exception types raised across the soliton laboratory."""

__all__ = [
    "SolabError",
    "InvalidDimension",
    "NonFiniteValues",
    "NotAModel",
    "InvalidWarp",
    "InvalidCase",
    "NotConformallyFlat",
    "NotTraceFree",
    "NonPositiveG",
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


class NotAModel(SolabError):
    """Operation requires a pole model (geodesic spheres are fiber copies)."""


class InvalidWarp(SolabError):
    """Warping function is not strictly positive on the working interval."""


class InvalidCase(SolabError):
    """Parameters select no classified space form (c = 0 is the flat gaussian)."""


class NotConformallyFlat(SolabError):
    """Check requires a locally conformally flat metric: a space-form fiber and n >= 3."""


class NotTraceFree(SolabError):
    """Eigenvalue tuple does not sum to zero."""


class NonPositiveG(SolabError):
    """Ricci lower-bound profile must be strictly positive."""


class InvalidRegime(SolabError):
    """Decay exponent outside the supported range (mu >= 0)."""


class NegativeRadicand(SolabError):
    """Diameter bound radicand 4F^2 + pi^2 (n-1) c is negative."""


class NoTrustedSamples(SolabError):
    """No trusted sample is left once the stencil bands and the pole band are dropped."""


class ParseError(SolabError):
    """Manifest text is not well-formed JSON."""


class SchemaError(SolabError):
    """Manifest JSON violates the manifest schema; message names the path."""
