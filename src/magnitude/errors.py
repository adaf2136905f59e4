"""Exception hierarchy shared across the package."""


class MagnitudeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2  # command-line exit status; numerical failures use 3


class SingularSystem(MagnitudeError):
    """The similarity matrix cannot be solved reliably at the requested tolerance."""

    exit_code = 3


class NotHomogeneous(MagnitudeError):
    """Similarity row sums differ by more than the tolerance."""


class NonpositiveScale(MagnitudeError, ValueError):
    """Scale factors must be strictly positive."""


class NonpositiveLength(MagnitudeError, ValueError):
    """Lengths and circumferences must be strictly positive."""


class HypothesisViolated(MagnitudeError):
    """The measure is not exactly half Lebesgue on the interval to be removed."""


class NotContained(MagnitudeError):
    """The interval to remove does not sit inside a single carrier interval."""


class PointOutsideCarrier(MagnitudeError):
    """The probe point lies outside the carrier of the measure."""


class TooFewPoints(MagnitudeError, ValueError):
    """Finite approximations need at least two grid points."""


class NoConvergence(MagnitudeError):
    """Quadrature failed to reach the requested tolerance."""

    exit_code = 3


class IndexOutOfRange(MagnitudeError, ValueError):
    """Intrinsic volume index must satisfy 0 <= i <= n."""


class EpsilonTooLarge(MagnitudeError, ValueError):
    """Tube radius must satisfy 0 < eps < R."""


class NonFiniteResult(MagnitudeError):
    """The computed magnitude overflowed or is otherwise not a finite number."""

    exit_code = 3


class IllConditionedFit(MagnitudeError):
    """Extrapolation spread exceeded the requested coefficient tolerance."""

    exit_code = 3
