"""Exception types shared across the package."""


class DwbcError(Exception):
    """Base class for all computation errors raised by this package."""


class ZeroDenominator(DwbcError):
    """Division by an identically zero scalar, series or polynomial."""


class OrderExceeded(DwbcError):
    """A pole order exceeded its stated bound during residue extraction."""


class PrecisionLoss(DwbcError):
    """A truncated-series operation consumed the available window.

    Internal: adaptive drivers catch this and rebuild the series tower
    with a wider window.
    """


class SizeLimit(DwbcError):
    """Requested lattice size exceeds the backend's configured bound."""


class InvalidRegion(DwbcError):
    """Region indices (r, s) out of range for the lattice size."""


class NearDegenerate(DwbcError):
    """Two spectral parameters collide within tolerance, so a
    determinant/prefactor expression is numerically 0/0."""


class Singular(DwbcError):
    """Parameters sit exactly on a pole of a closed-form expression."""


class DegeneratePoints(DwbcError):
    """Coincident evaluation points in a Vandermonde-divided formula."""


class PoleCollision(DwbcError):
    """t^2 - 2*Delta*t + 1 = 0: two pole families of an integrand collide."""


class ChainBreak(DwbcError):
    """A derivation-chain trace found two consecutive steps that disagree."""

    def __init__(self, step, lhs, rhs):
        super().__init__(f"derivation chain breaks at step {step!r}: {lhs} != {rhs}")
        self.step = step
        self.lhs = lhs
        self.rhs = rhs


class DegenerateHankel(DwbcError):
    """A Hankel principal minor vanished; the orthogonal-polynomial
    family does not exist at these parameters."""


class TruncationInsufficient(DwbcError):
    """Increasing the Taylor truncation moved a result beyond tolerance."""


class SamplePoleHit(DwbcError):
    """A random sample point landed on a pole of the identity under test;
    the caller should resample."""
