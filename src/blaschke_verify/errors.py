"""Exception types shared across the package.

Everything derives from :class:`BlaschkeVerifyError` so callers can catch the
whole family at once.  Input-validation failures (bad points, non-contractions,
unnormalized measures) raise :class:`InputError`, whose message names the
field or precondition; the CLI exits 2 on them.  Numerical failures (eigensolver
stagnation, contours through zeros) raise a :class:`NumericalError` leaf, whose
name the CLI prints after ``check failed:`` before exiting 1.
"""


class BlaschkeVerifyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BlaschkeVerifyError):
    """A caller-supplied object violates a documented precondition."""


class NumericalError(BlaschkeVerifyError):
    """A numerical procedure failed to reach its target accuracy."""


class NoConvergence(NumericalError):
    """The Schur iteration stalled, or a numerical-range distance bracket was
    still open after NR_MAX_STEPS single-angle evaluations."""


class SingularResolvent(NumericalError):
    """(I - wA) or (lam - A) was numerically singular."""


class ContourThroughZero(NumericalError):
    """Could not place an integration contour away from all zeros."""


class MaxDepthExceeded(NumericalError):
    """Zero isolation exceeded the subdivision depth budget."""


class NonIntegerWinding(NumericalError):
    """Winding-number quadrature failed to settle near an integer."""


class ZeroOnBoundary(NumericalError):
    """Boundary integrand vanishes somewhere on the unit circle."""


class QuadratureNoConvergence(NumericalError):
    """Boundary quadrature did not stabilize within the node budget."""


class DilationError(NumericalError):
    """Constructed dilation violated a unitarity or compression invariant."""
