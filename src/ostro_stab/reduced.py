"""Two-mode reduction at an eigenvalue collision.

Near a collision i*omega of modes n and n + dn the spectrum of the
linearized operator is governed, to leading order in the amplitude a, by
a 2x2 pencil: the action of the operator on the two colliding Fourier
modes, whose Gram matrix is the identity at the orders kept here.  Every
entry of that action is i times a real number, so the pencil is i*M with
M real, and it is kept as M.  Its eigenvalues i*(omega + mu) are those
of i*M: mu solves the real quadratic det(M - (omega + mu)*I) = 0, and a
negative discriminant means the perturbed eigenvalues leave the
imaginary axis, i.e. instability.

One constructor builds the pencil for dn = 1 (entries through a^2) and
dn = 2 (through a^4) from the wave's dn-th harmonic and its speed
correction.  Larger separations are rejected; their leading coupling
enters at order a^dn and no reduction is constructed here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import dispersion, stokes
from .errors import NotACollision, NotUnstable, OrderNotAnalyzed, WrongDispersionSign
from .stokes import StokesWave, check_amplitude, check_coefficients

__all__ = [
    "ReducedPencil",
    "DiscriminantResult",
    "reduced_pencil",
    "eigenvalue_shifts",
    "discriminant_dn1",
    "predicted_growth_rate",
    "instability_threshold_dn1",
]

#: Largest gap omega(n + xi0) - omega(m + xi0), as a share of omega's
#: scale, that reduced_pencil takes for a collision.
COLLISION_TOL = 1e-8


@dataclass(frozen=True)
class ReducedPencil:
    """2x2 pencil at a collision, as the real M whose i*M it is."""

    M: np.ndarray
    omega: float
    order: int
    n: int
    m: int
    xi0: float


@dataclass(frozen=True)
class DiscriminantResult:
    """Exact discriminant and eigenvalue shifts of the 2x2 pencil."""

    value: float
    shifts: tuple[complex, complex]
    unstable: bool
    growth_rate: float


def _checked_omega(wave: StokesWave, n: int, m: int, xi0: float) -> float:
    """Collision frequency omega(n + xi0) at c = c0.

    NotACollision where |omega(n + xi0) - omega(m + xi0)| exceeds
    ``COLLISION_TOL`` times the larger scale of the two frequencies, the
    sum of the magnitudes of omega's terms (``dispersion._omega_scale``).
    The bound has omega's units, so the check gives the same answer for
    any rescaling of beta and gamma.
    """
    params, c0 = wave.params, stokes.phase_speed_c0(wave.params)
    w_n = dispersion.omega(params, c0, n + xi0)
    w_m = dispersion.omega(params, c0, m + xi0)
    scale = max(dispersion._omega_scale(params, c0, n + xi0),
                dispersion._omega_scale(params, c0, m + xi0))
    if abs(w_n - w_m) > COLLISION_TOL * scale:
        raise NotACollision(
            f"omega gap {abs(w_n - w_m):.3e} at (n={n}, m={m}, xi0={xi0})"
        )
    return w_n


def reduced_pencil(wave: StokesWave, n: int, m: int, xi0: float, a) -> ReducedPencil:
    """Pencil for the pair {n, m}, dn = |m - n| <= 2, exact through a^(2*dn).

    The coupling is carried by the wave's dn-th harmonic W_dn (W1 = a,
    W2 = a^2*A2 + a^4*A42): off-diagonal -k^2*W_dn*(other index + xi0) in
    M.  The diagonal is omega + k^2*(c - c0)*(index + xi0), with the speed
    correction c - c0 kept through a^(2*dn).  Separations >= 3 are not
    analyzed.
    """
    n, m = min(n, m), max(n, m)
    dn = m - n
    if not 1 <= dn <= 2:
        raise OrderNotAnalyzed(f"no reduced pencil for mode separation {dn}")
    W = stokes.harmonic_amplitudes(wave, a)[dn - 1]
    w = _checked_omega(wave, n, m, xi0)
    dc = a**2 * wave.c2 if dn == 1 else a**2 * wave.c2 + a**4 * wave.c4
    k2 = wave.params.k**2
    p, q = n + xi0, m + xi0
    # + 0.0 makes a zero coupling (a = 0) +0.0, the value B_imag prints
    M = np.array([
        [w + k2 * dc * p, -k2 * W * q + 0.0],
        [-k2 * W * p + 0.0, w + k2 * dc * q],
    ])
    return ReducedPencil(M=M, omega=w, order=2 * dn, n=n, m=m, xi0=xi0)


def eigenvalue_shifts(pencil: ReducedPencil) -> DiscriminantResult:
    """Solve det(M - (omega + mu)*I) = 0 exactly.

    mu is an eigenvalue of the real G = M - omega*I, so it solves
    mu^2 - tr(G)*mu + det(G) = 0 with discriminant tr^2 - 4*det.  A
    negative discriminant gives a complex-conjugate pair of shifts and a
    positive growth rate max(Re(i*mu)), so ``unstable`` (disc < 0) holds
    exactly when the growth rate is positive.  The discriminant scales
    like a^2 at dn = 1, so no fixed cut-off below 0 could tell a small
    amplitude from a stable one.
    """
    G = pencil.M - pencil.omega * np.eye(2)
    tr = float(G[0, 0] + G[1, 1])
    det = float(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
    disc = tr * tr - 4.0 * det
    root = cmath.sqrt(disc)
    mu = ((tr + root) / 2.0, (tr - root) / 2.0)
    growth = max((1j * mu[0]).real, (1j * mu[1]).real, 0.0)
    return DiscriminantResult(
        value=disc, shifts=mu, unstable=disc < 0, growth_rate=growth)


def discriminant_dn1(wave: StokesWave, n: int, xi0: float, a) -> float:
    """Leading-order discriminant 4*k^4*a^2*(n+xi0)*(n+1+xi0) for dn = 1."""
    a = check_amplitude(a)
    return 4.0 * wave.params.k**4 * a**2 * (n + xi0) * (n + 1 + xi0)


def predicted_growth_rate(wave: StokesWave, n: int, xi0: float, a) -> float:
    """Leading-order growth rate k^2*|a|*sqrt(-(n+xi0)*(n+1+xi0)).

    Only defined when the index product is negative (opposite Krein
    signatures); otherwise NotUnstable.  Linear in |a|, the oracle target
    for the truncated-Fourier spectrum.
    """
    a = check_amplitude(a)
    product = (n + xi0) * (n + 1 + xi0)
    if product >= 0:
        raise NotUnstable(
            f"(n+xi0)(n+1+xi0) = {product} >= 0: no leading-order instability"
        )
    return wave.params.k**2 * abs(a) * (-product) ** 0.5


def instability_threshold_dn1(beta: float, gamma: float) -> float:
    """Wavenumber (4*gamma/beta)**(1/4) above which the {-1, 0} collision exists.

    Every k beyond it yields a negative dn = 1 discriminant, hence
    instability; requires beta > 0.
    """
    if not beta > 0:
        raise WrongDispersionSign("threshold defined for beta > 0 only")
    check_coefficients(beta, gamma)
    return (4.0 * gamma / beta) ** 0.25
