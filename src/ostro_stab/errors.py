"""Exception types shared across the package.

``DomainError`` covers invalid-but-well-formed requests (resonant or
unordered Stokes expansion, Floquet exponent out of range, a query below
the instability threshold, ...).  The command line maps these to exit
code 2.  Anything else is an internal failure.
"""


class DomainError(Exception):
    """Request outside the mathematical domain of the analysis."""


class ResonantWavenumber(DomainError):
    """Stokes expansion not usable at this carrier wavenumber: an expansion
    denominator zero to rounding at an n = 2, 3, 4 harmonic resonance
    (stokes_coefficients), or an expansion not ordered, or a power of the
    amplitude that overflows, at the amplitude asked for
    (harmonic_amplitudes)."""


class DivisionByZero(DomainError):
    """Bloch index n + xi equal to zero, the pole of the dispersion relation."""


class Singularity(DomainError):
    """Collision-kernel evaluation at a pole or zero of its denominator."""


class NoCollision(DomainError):
    """The requested mode pair admits no eigenvalue collision."""


class NotACollision(DomainError):
    """(n, m, xi0) does not satisfy the collision condition at tolerance."""


class NotUnstable(DomainError):
    """Growth rate requested where the discriminant is non-negative."""


class WrongDispersionSign(DomainError):
    """Operation requires the opposite sign of the dispersion coefficient."""


class OrderNotAnalyzed(DomainError):
    """No reduced pencil is constructed for mode separations >= 3."""


class XiOutOfRange(DomainError):
    """Floquet exponent outside (0, 1/2]."""


class ConvergenceFailure(Exception):
    """The dense eigensolver failed to converge (internal failure)."""
