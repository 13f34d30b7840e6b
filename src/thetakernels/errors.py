"""Exception types shared across the package."""


class ThetaKernelsError(Exception):
    """Base class for all errors raised by this package."""


# --- theta engine ---

class NotPositiveDefinite(ThetaKernelsError):
    """The imaginary part of a period matrix is not positive definite."""


class ToleranceTooSmall(ThetaKernelsError):
    """Requested tolerance is below what double precision can certify."""


class PointOnTheta(ThetaKernelsError):
    """A Jacobian point lies on the theta divisor (within the floor)."""


# --- curve model ---

class NonSquarefree(ThetaKernelsError):
    """The defining polynomial has a (numerically) repeated root."""


class DegreeTooSmall(ThetaKernelsError):
    """deg f < 3 does not define a positive-genus hyperelliptic curve."""


class QuadratureNonConvergent(ThetaKernelsError):
    """Node doubling exhausted without reaching the requested tolerance."""


class PathThroughBranchPoint(ThetaKernelsError):
    """No admissible integration path avoiding the branch points was found."""


class InadmissiblePoint(ThetaKernelsError):
    """Surface point too close to a branch point (or not on the curve)."""


# --- kernel functions ---

class OnDiagonal(ThetaKernelsError):
    """Kernel evaluated at coinciding points."""


class SquareRootBranchUnresolvable(ThetaKernelsError):
    """Prime-form half-density is too close to zero to pick a branch."""


class NoNonsingularOddCharacteristic(ThetaKernelsError):
    """Every odd characteristic has a (numerically) vanishing gradient."""


class ConstraintViolation(ThetaKernelsError):
    """Input data violates a stated constraint (e.g. sum not in lattice)."""


class NotOnThetaSmoothLocus(ThetaKernelsError):
    """Point is not a smooth zero of theta."""



# --- jet calculus ---

class WeightMismatch(ThetaKernelsError):
    """Kernel weight/pole data does not match the requested operation."""


class NotMonic(ThetaKernelsError):
    """Jet kernel does not restrict to the identity on the diagonal."""


class NotMonicOn2Delta(ThetaKernelsError):
    """Jet kernel does not agree with the canonical jet on 2nd order."""


class NonInvertibleChart(ThetaKernelsError):
    """Coordinate change has w(0) != 0 or w'(0) == 0."""


class TraceNotZero(ThetaKernelsError):
    """Matrix polydifferential slot is not traceless."""


class TruncationUnderflow(ThetaKernelsError):
    """Input jet order is insufficient for the requested output order."""


class DiagonalValueMismatch(ThetaKernelsError):
    """Kernel restriction to the diagonal differs from the declared scalar."""
