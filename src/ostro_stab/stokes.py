"""Small-amplitude periodic traveling waves of the Ostrovsky equation.

The Ostrovsky equation (u_t - beta*u_xxx + (u^2)_x)_x = gamma*u supports
2*pi/k-periodic traveling waves bifurcating from the rest state at the
linear phase speed c0 = gamma/k^2 + beta*k^2.  In the stretched variable
z = k*(x - c*t) the profile w(z) is 2*pi-periodic, even, zero mean, and
solves

    c*k^2*w'' + beta*k^4*w'''' - k^2*(w^2)'' + gamma*w = 0.

Through fourth order in the amplitude a,

    w = a*cos z + a^2*A2*cos 2z + a^3*A3*cos 3z
          + a^4*(A42*cos 2z + A44*cos 4z) + O(a^5),
    c = c0 + a^2*c2 + a^4*c4 + O(a^6),

with closed-form coefficients.  ``residual_F`` evaluates the profile
equation on the truncated expansion and returns its L2 norm, the root
mean square over a period; the value must scale like a^5, which is this
module's independent correctness oracle.

For beta > 0 the expansion has denominators 3*gamma - 12*beta*k^4,
8*gamma - 72*beta*k^4 and 15*gamma - 240*beta*k^4, which vanish at the
n = 2, 3, 4 harmonic resonances k = (gamma/(beta*n^2))**(1/4); the
higher resonances n >= 5 have no denominator through fourth order.
``stokes_coefficients`` refuses a k at which a denominator is zero to
rounding, ``_ROUNDING`` of the sum of its terms' magnitudes.  Any other k
is a wave: ``PhysicalParams`` checks only signs and finiteness.

No bound is put on the bare amplitude a: every ratio W_{j+1}/W_1 of the
profile's harmonics depends only on beta*k^4/gamma and a*k^2/gamma, so a
cap on a would refuse in one set of units a wave it accepts in another.
What keeps the truncated profile a small-amplitude wave is that its
expansion is ordered: ``harmonic_amplitudes``, through which the
profile, its residual, the Bloch matrices and the reduced pencils take
the wave at an amplitude, refuses any a at which a harmonic W_j, j >= 2,
is not smaller than the fundamental W_1 = a.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ResonantWavenumber

__all__ = [
    "PhysicalParams",
    "StokesWave",
    "check_amplitude",
    "check_coefficients",
    "phase_speed_c0",
    "stokes_coefficients",
    "harmonic_amplitudes",
    "eval_profile",
    "eval_speed",
    "residual_F",
]

# The share of its scale within which a rounded quantity is zero: an
# expansion denominator here, and in dispersion a double root in x of the
# collision quadratic and omega at a Bloch index (a collision at the
# spectral origin).
_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class PhysicalParams:
    """Dispersion coefficient beta (nonzero), rotation gamma > 0, carrier k > 0.

    Every such k is accepted, also at a harmonic resonance: the dispersion
    relation has none, and the expansion's are stokes_coefficients' to
    refuse.
    """

    beta: float
    gamma: float
    k: float

    def __post_init__(self):
        check_coefficients(self.beta, self.gamma)
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")


def check_coefficients(beta: float, gamma: float) -> None:
    """Raise ValueError unless gamma > 0 and beta != 0 are both finite."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(beta) or beta == 0:
        raise ValueError(f"beta must be finite and nonzero, got {beta}")


def check_amplitude(a) -> float:
    """a as a float; ValueError unless it is finite.  Whether the
    expansion is ordered at a is harmonic_amplitudes' check."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    return a


def _check_count(name: str, value, lo, hi) -> int:
    """value as an int; ValueError unless it is an integer in [lo, hi].

    The one rule for every count the program accepts: a mode window or
    index, a truncation, a grid or sweep size.  A numpy integer is an
    integer, a bool is not; hi may be math.inf.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} {value!r} is not an integer")
    value = int(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} {value} not in [{lo}, {hi}]")
    return value


@dataclass(frozen=True)
class StokesWave:
    """Expansion coefficients of one small-amplitude wave family."""

    params: PhysicalParams
    c0: float
    A2: float
    A3: float
    A42: float
    A44: float
    c2: float
    c4: float


def phase_speed_c0(params: PhysicalParams) -> float:
    """Linear phase speed of the fundamental mode, gamma/k^2 + beta*k^2."""
    return params.gamma / params.k**2 + params.beta * params.k**2


def stokes_coefficients(params: PhysicalParams) -> StokesWave:
    """Build the wave coefficients through fourth order in amplitude.

    ResonantWavenumber where one of the expansion denominators
    3*gamma - 12*beta*k^4, 8*gamma - 72*beta*k^4 and
    15*gamma - 240*beta*k^4 is zero to rounding: at most ``_ROUNDING``
    times the sum of its terms' magnitudes, so at the n = 2, 3, 4
    resonance itself in any units.  A denominator that overflowed to
    inf is no resonance; the results it gives are checked for finiteness
    where they are used.  Next to a resonance the coefficients are finite
    but large, and harmonic_amplitudes decides at which amplitudes the
    expansion is still ordered.
    """
    beta, gamma, k = params.beta, params.gamma, params.k
    k2, k4 = k**2, k**4
    d = {}
    for n, g, b in ((2, 3, 12), (3, 8, 72), (4, 15, 240)):
        d[n] = g * gamma - b * beta * k4
        if math.isfinite(d[n]) and abs(d[n]) <= _ROUNDING * (g * gamma + b * abs(beta) * k4):
            raise ResonantWavenumber(
                f"k={k!r} is at the n={n} harmonic resonance "
                f"(gamma/(beta*{n * n}))**(1/4): the expansion denominator "
                f"{g}*gamma - {b}*beta*k^4 is zero to rounding")
    A2 = 2 * k2 / d[2]
    A3 = 9 * k2 * A2 / d[3]
    A42 = 2 * A2 * A3 - 2 * A2**3
    A44 = 8 * k2 * (A2**2 + 2 * A3) / d[4]
    c2 = A2
    c4 = 3 * A2 * A3 - 2 * A2**3
    return StokesWave(
        params=params, c0=phase_speed_c0(params),
        A2=A2, A3=A3, A42=A42, A44=A44, c2=c2, c4=c4,
    )


def harmonic_amplitudes(wave: StokesWave, a) -> np.ndarray:
    """Cosine-series amplitudes [W1, W2, W3, W4] of the profile at amplitude a.

    ResonantWavenumber where the expansion is not ordered at a: some
    harmonic |W_j|, j >= 2, is not finite, or is not smaller than
    |W_1| = |a| > 0.  A harmonic reaches the fundamental next to a
    harmonic resonance, where the coefficients blow up, or where
    a*k^2/gamma is not small; the truncated profile is then no
    small-amplitude wave, and any growth or pencil computed on it is
    spurious.  ResonantWavenumber too, naming the power, where a**2,
    a**3 or a**4 overflows.
    """
    a = check_amplitude(a)
    powers = []
    for p in (2, 3, 4):
        try:
            powers.append(a**p)
        except OverflowError:
            raise ResonantWavenumber(
                f"expansion not evaluable at a={a!r}: a**{p} overflows") from None
    a2, a3, a4 = powers
    W = [a, a2 * wave.A2 + a4 * wave.A42, a3 * wave.A3, a4 * wave.A44]
    # at a = 0 a harmonic is 0 unless a coefficient is not finite
    if not all(Wj == 0 or abs(Wj) < abs(a) for Wj in W[1:]):
        H = np.abs(W)
        j = int(np.argmax(H[1:])) + 1
        raise ResonantWavenumber(
            f"expansion not ordered at a={a!r}: harmonic W{j + 1} = "
            f"{H[j]:.3g} is not smaller than |a| (k={wave.params.k!r} is "
            "near a harmonic resonance, or |a| is not small)")
    return np.array(W)


def eval_profile(wave: StokesWave, a, z):
    """Evaluate the truncated profile at z (scalar or array).

    Even in z, 2*pi-periodic and zero mean by construction.
    """
    W = harmonic_amplitudes(wave, a)
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for j, Wj in enumerate(W, start=1):
        out += Wj * np.cos(j * z)
    return float(out) if out.ndim == 0 else out


def eval_speed(wave: StokesWave, a) -> float:
    """Wave speed c0 + a^2*c2 + a^4*c4 (even in a)."""
    a = check_amplitude(a)
    return wave.c0 + a**2 * wave.c2 + a**4 * wave.c4


def residual_F(wave: StokesWave, a) -> float:
    """L2 norm of the profile-equation residual at amplitude a.

    The residual F = c*k^2*w'' + beta*k^4*w'''' - k^2*(w^2)'' + gamma*w is
    a cosine series of harmonics 1..8, formed coefficient by coefficient.
    With w = sum_i W_i cos(i z), harmonic j of w^2 sums the products
    W_i*W_l/2 over i + l = j and |i - l| = j (the convolution of w's
    exponential coefficients W_i/2), and

        F_j = (gamma - c*k^2*j^2 + beta*k^4*j^4)*W_j + k^2*j^2*(w^2)_j.

    F has zero mean, so by Parseval its norm, the root mean square over a
    period, is sqrt(sum_j F_j^2 / 2).  The only error is the O(a^5)
    truncation of the expansion itself: the returned norm must scale like
    a^5.
    """
    W = harmonic_amplitudes(wave, a)
    beta, gamma, k = wave.params.beta, wave.params.gamma, wave.params.k
    k2, c = k**2, eval_speed(wave, a)
    half = np.concatenate([W[::-1], [0.0], W]) / 2.0
    w2 = 2.0 * np.convolve(half, half)[9:]
    j2 = np.arange(1.0, 9.0) ** 2
    Wj = np.concatenate([W, np.zeros(4)])
    F = (gamma - c * k2 * j2 + beta * k2 * k2 * j2 * j2) * Wj + k2 * j2 * w2
    return float(np.sqrt(0.5 * np.sum(F * F)))
