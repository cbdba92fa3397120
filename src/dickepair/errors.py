"""Exception types raised by the numerical modules."""


class DickepairError(Exception):
    """Base class for all package errors."""


class ZeroDrive(DickepairError):
    """Steady-state formulas are singular at zero drive (alpha^-n undefined).

    Raised where the drive |alpha| = rabi / |1 + i*dipole_shift| has no
    finite reciprocal: at rabi = 0, and for a finite drive that is
    numerically zero (below about 5.6e-309 at zero pair shift). The
    zero-drive limit is the pure ground state; callers wanting that limit
    should use a small but finite drive, e.g. rabi = 1e-4 (rates are in
    units of gamma).
    """


class IndexRange(DickepairError):
    """A moment index (p, r, f) is negative."""


class PairUndefined(DickepairError):
    """Two-qubit reduction requested for fewer than two qubits."""


class NumericalFailure(DickepairError):
    """An eigenvalue computation failed or produced out-of-tolerance values."""


class SizeExceeded(DickepairError):
    """Dense brute-force solve requested beyond the supported system size."""


class DegenerateNullSpace(DickepairError):
    """The Liouvillian has more than one near-zero singular value."""


class GridTooCoarse(DickepairError):
    """Transition detection needs a finer parameter grid."""
