"""Exception taxonomy shared by all oqmap modules.

Two families matter to callers (and fix the CLI exit codes):

* ``ValidationError`` -- the request itself is ill-posed: a bad partition,
  a dimension that violates divisibility, a cover level too fine for the
  quantum lattice, and so on.  These are caller mistakes.
* ``NumericalError`` -- the request was well-posed but a numerical
  procedure failed to deliver: an eigensolver did not converge, a
  symmetry that should hold to machine precision does not.
"""

__all__ = [
    "OQMapError",
    "ValidationError",
    "NumericalError",
    "NonMonotonePartition",
    "EmptyOrFullKeepSet",
    "EndpointMismatch",
    "OutOfDomain",
    "HorizonTooLarge",
    "DivisibilityError",
    "DimensionGuard",
    "LengthMismatch",
    "SolverFailure",
    "InsufficientSamples",
    "CoverTooFine",
    "ProbeInsideBulkSpectrum",
    "SingularResolvent",
    "UnnormalizedInput",
]


class OQMapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OQMapError):
    """Ill-posed input; maps to CLI exit code 2."""


class NumericalError(OQMapError):
    """Well-posed input, failed computation; maps to CLI exit code 3."""


# --- classical map specification -------------------------------------------

class NonMonotonePartition(ValidationError):
    """Partition points are not strictly increasing."""


class EmptyOrFullKeepSet(ValidationError):
    """The kept-rectangle set must be nonempty and proper, else the map
    is closed (nothing escapes) or empty (everything does)."""


class EndpointMismatch(ValidationError):
    """Partition must start at exactly 0 and end at exactly 1."""


class OutOfDomain(ValidationError):
    """Phase-space point outside the fundamental domain [0,1) x [0,1)."""


class HorizonTooLarge(ValidationError):
    """An escape horizon or cover level would enumerate too many intervals."""


# --- quantization -----------------------------------------------------------

class DivisibilityError(ValidationError):
    """N * ell_i must be an integer for every rectangle i."""


class DimensionGuard(ValidationError):
    """Requested matrix dimension exceeds the dense-solver guard."""


class LengthMismatch(ValidationError):
    """A phase list (or similar vector) has the wrong length."""


# --- spectral analysis ------------------------------------------------------

class SolverFailure(NumericalError):
    """The dense eigensolver (or a downstream consistency check) failed."""


class InsufficientSamples(ValidationError):
    """A least-squares fit needs at least 3 usable sample points."""


class CoverTooFine(ValidationError):
    """Some trapped-set strip contains no quantum position index."""


class ProbeInsideBulkSpectrum(ValidationError):
    """An effective-Hamiltonian probe lies inside (or too close to) the
    spectrum of (I-Pi)M, where the resolvent series does not converge."""


class SingularResolvent(NumericalError):
    """The linear solve for [I - (1/lambda)(I-Pi)M]^{-1} broke down."""


# --- phase space ------------------------------------------------------------

class UnnormalizedInput(ValidationError):
    """Husimi analysis requires a unit-norm state vector."""
