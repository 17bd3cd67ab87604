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
equation on the truncated expansion and returns its discrete L2 norm;
the value must scale like a^5, which is this module's independent
correctness oracle.

For beta > 0 the carrier wavenumbers (gamma/(beta*n^2))**(1/4), n >= 2,
are fundamental/harmonic resonances where the expansion denominators
vanish; those k are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonantWavenumber

__all__ = [
    "PhysicalParams",
    "Amplitude",
    "StokesWave",
    "as_amplitude",
    "check_coefficients",
    "phase_speed_c0",
    "resonant_wavenumbers",
    "stokes_coefficients",
    "harmonic_amplitudes",
    "eval_profile",
    "eval_speed",
    "residual_F",
]

# Largest |a| for which the fourth-order expansion is used.
A_MAX = 0.1
# An expansion denominator smaller than this times its natural scale
# marks a resonant carrier wavenumber.
_DENOM_TOL = 1e-9


@dataclass(frozen=True)
class PhysicalParams:
    """Dispersion coefficient beta (nonzero), rotation gamma > 0, carrier k > 0.

    For beta > 0, k must keep a relative distance ``resonance_radius``
    from every resonant wavenumber (gamma/(beta*n^2))**(1/4), n >= 2.
    """

    beta: float
    gamma: float
    k: float
    resonance_radius: float = 1e-6

    def __post_init__(self):
        check_coefficients(self.beta, self.gamma)
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if self.beta > 0:
            for n, kr in _nearby_resonances(self.beta, self.gamma, self.k):
                if abs(self.k - kr) <= self.resonance_radius * kr:
                    raise ResonantWavenumber(
                        f"k={self.k} within exclusion radius of resonance "
                        f"k={kr} (n={n})"
                    )


def check_coefficients(beta: float, gamma: float) -> None:
    """Raise ValueError unless gamma > 0 and beta != 0 are both finite."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if not math.isfinite(beta) or beta == 0:
        raise ValueError(f"beta must be finite and nonzero, got {beta}")


def _nearby_resonances(beta, gamma, k):
    """Resonant wavenumbers with index near sqrt(gamma/beta)/k^2."""
    n_star = math.sqrt(gamma / beta) / k**2
    lo = max(2, int(math.floor(n_star)) - 2)
    hi = max(2, int(math.ceil(n_star)) + 2)
    return [(n, (gamma / (beta * n**2)) ** 0.25) for n in range(lo, hi + 1)]


@dataclass(frozen=True)
class Amplitude:
    """Amplitude parameter, |a| <= A_MAX."""

    a: float

    def __post_init__(self):
        if not abs(self.a) <= A_MAX:
            raise ValueError(f"|a|={abs(self.a)} exceeds a_max={A_MAX}")


def as_amplitude(a) -> Amplitude:
    return a if isinstance(a, Amplitude) else Amplitude(float(a))


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


def resonant_wavenumbers(params: PhysicalParams, n_max: int) -> list[float]:
    """Resonant carrier wavenumbers (gamma/(beta*n^2))**(1/4), 2 <= n <= n_max.

    Real roots exist only for beta > 0; for beta < 0 the list is empty.
    Returned in decreasing order (increasing n).
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if params.beta < 0:
        return []
    return [
        (params.gamma / (params.beta * n**2)) ** 0.25 for n in range(2, n_max + 1)
    ]


def stokes_coefficients(params: PhysicalParams) -> StokesWave:
    """Build the wave coefficients through fourth order in amplitude.

    Raises ResonantWavenumber if any of the three expansion denominators
    3*gamma - 12*beta*k^4, 8*gamma - 72*beta*k^4, 15*gamma - 240*beta*k^4
    is smaller in magnitude than ``_DENOM_TOL`` times its natural scale
    (these vanish exactly at the n = 2, 3, 4 resonances).
    """
    beta, gamma, k = params.beta, params.gamma, params.k
    k2, k4 = k**2, k**4
    denominators = (
        (3 * gamma - 12 * beta * k4, 3 * gamma + 12 * abs(beta) * k4),
        (8 * gamma - 72 * beta * k4, 8 * gamma + 72 * abs(beta) * k4),
        (15 * gamma - 240 * beta * k4, 15 * gamma + 240 * abs(beta) * k4),
    )
    for d, scale in denominators:
        if abs(d) < _DENOM_TOL * scale:
            raise ResonantWavenumber(
                f"expansion denominator {d} vanishes near k={k}"
            )
    A2 = 2 * k2 / denominators[0][0]
    A3 = 9 * k2 * A2 / denominators[1][0]
    A42 = 2 * A2 * A3 - 2 * A2**3
    A44 = 8 * k2 * (A2**2 + 2 * A3) / denominators[2][0]
    c2 = A2
    c4 = 3 * A2 * A3 - 2 * A2**3
    return StokesWave(
        params=params, c0=phase_speed_c0(params),
        A2=A2, A3=A3, A42=A42, A44=A44, c2=c2, c4=c4,
    )


def harmonic_amplitudes(wave: StokesWave, a) -> np.ndarray:
    """Cosine-series amplitudes [W1, W2, W3, W4] of the profile at amplitude a."""
    a = as_amplitude(a).a
    return np.array([
        a,
        a**2 * wave.A2 + a**4 * wave.A42,
        a**3 * wave.A3,
        a**4 * wave.A44,
    ])


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
    a = as_amplitude(a).a
    return wave.c0 + a**2 * wave.c2 + a**4 * wave.c4


def residual_F(wave: StokesWave, a, grid_size: int = 256) -> float:
    """Discrete L2 norm of the profile-equation residual at amplitude a.

    The residual c*k^2*w'' + beta*k^4*w'''' - k^2*(w^2)'' + gamma*w is
    evaluated on a uniform grid with all derivatives taken spectrally.
    The grid resolves every harmonic of w^2 exactly (w has 4 harmonics),
    so the only error is the O(a^5) truncation of the expansion itself:
    the returned norm must scale like a^5.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    amp = as_amplitude(a)
    beta, gamma, k = wave.params.beta, wave.params.gamma, wave.params.k
    k2, k4 = k**2, k**4
    z = 2 * np.pi * np.arange(grid_size) / grid_size
    w = eval_profile(wave, amp, z)
    c = eval_speed(wave, amp)
    # w has harmonics 1..4 and w^2 harmonics 0..8; anything above is FFT
    # rounding noise and would be blown up by the j^4 differentiation.
    w_hat = np.fft.rfft(w)
    w_hat[5:] = 0.0
    w2_hat = np.fft.rfft(w * w)
    w2_hat[9:] = 0.0
    j = np.arange(len(w_hat))
    F_hat = (
        -c * k2 * j**2 * w_hat
        + beta * k4 * j**4 * w_hat
        + k2 * j**2 * w2_hat
        + gamma * w_hat
    )
    F = np.fft.irfft(F_hat, n=grid_size)
    return float(np.sqrt(np.mean(F * F)))
