"""Exception types shared across the package.

Everything derives from :class:`BlaschkeVerifyError` so callers can catch the
whole family at once.  Input-validation failures (bad points, non-contractions,
unnormalized measures) are kept separate from numerical failures (eigensolver
stagnation, contours through zeros) because the CLI maps them to different exit
codes.
"""


class BlaschkeVerifyError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BlaschkeVerifyError):
    """A caller-supplied object violates a documented precondition."""


class NonFiniteValue(InputError):
    """A point, weight or coefficient is NaN or infinite."""


class MalformedField(InputError):
    """A file field is not a number, list or object where one is required."""


class PointNotOnCircle(InputError):
    """Atom point further than the repair band from the unit circle."""


class NonAtomicMeasure(InputError):
    """Operation requires a purely atomic measure but lebesgue != 0."""


class NotNormalized(InputError):
    """Measure mass (or weight sum) must equal 1 for this check."""


class NotAContraction(InputError):
    """Operator norm exceeds 1 beyond the admitted slack."""


class NotHermitian(InputError):
    """Matrix is not Hermitian within tolerance."""


class NotPSD(InputError):
    """Hermitian matrix has an eigenvalue below the admitted negative slack."""


class OutsideDisk(InputError):
    """Evaluation point must lie in the open unit disk."""


class OutsideDomain(InputError):
    """Evaluation point must lie outside the closed unit disk."""


class DimensionMismatch(InputError):
    """Operands have incompatible shapes."""


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
