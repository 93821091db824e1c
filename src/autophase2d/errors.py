"""Exception hierarchy for recovery failures.

Every error below is a domain error: the inputs were structurally readable
but violated a contract of the operation that raised it. I/O and
configuration problems are deliberately not represented here; the CLI maps
those to a separate exit code.
"""


class AutophaseError(Exception):
    """Base class for all domain errors raised by this package."""


class LengthMismatch(AutophaseError):
    """Vector length is incompatible with the requested matrix size."""


class InvalidOversampling(AutophaseError):
    """Magnitude grid is too small to determine the autocorrelation."""


class NotAnAutocorrelation(AutophaseError):
    """Inverse transform of the magnitude data is not a real symmetric grid."""


class AsymmetricInput(AutophaseError):
    """Grid claimed to be an autocorrelation lacks point symmetry."""


class DegenerateSize(AutophaseError):
    """Operation needs a matrix of side at least two."""


class ZeroEndpoint(AutophaseError):
    """Extreme lag of the autocorrelation vanishes, so the signal lacks full support."""


class RootFindingFailed(AutophaseError):
    """Polynomial zeros could not be located or do not form reflected pairs."""


class UnitCircleZero(AutophaseError):
    """A zero sits on the unit circle, where flipping is ill-defined."""


class UnpairedComplexZero(AutophaseError):
    """A complex zero has no conjugate partner, so real candidates cannot be built."""


class NonRealResult(AutophaseError):
    """Constraint product came out complex beyond roundoff."""


class ResidualExceeded(AutophaseError):
    """At least one reconstructed candidate fails to reproduce the autocorrelation."""

    def __init__(self, message, bitmasks=None):
        super().__init__(message)
        self.bitmasks = list(bitmasks) if bitmasks is not None else []


class NoMatch(AutophaseError):
    """No candidate satisfies the disambiguating constraint.

    Carries the full report (with an empty match list) so callers can inspect
    the rejected candidates and tolerances.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SearchSpaceTooLarge(AutophaseError):
    """Requested exhaustive search exceeds the hard enumeration budget."""
