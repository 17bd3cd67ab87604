"""Two-mode reduction at an eigenvalue collision.

Near a collision i*omega of modes n and n + dn the spectrum of the
linearized operator is governed, to leading order in the amplitude a, by
a 2x2 matrix B: the action of the operator on the two colliding Fourier
modes, whose Gram matrix is the identity at the orders kept here.  Its
characteristic equation det(B - (i*omega + i*mu)*I) = 0 is a real
quadratic in mu; a negative discriminant means the perturbed eigenvalues
leave the imaginary axis, i.e. instability.

Pencils are built for dn = 1 (entries through a^2) and dn = 2 (through
a^4).  Larger separations are rejected; their leading coupling enters at
order a^dn and no reduction is constructed here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import dispersion, stokes
from .errors import NotACollision, NotUnstable, OrderNotAnalyzed, WrongDispersionSign
from .stokes import StokesWave, as_amplitude

__all__ = [
    "ReducedPencil",
    "DiscriminantResult",
    "reduced_matrix_dn1",
    "reduced_matrix_dn2",
    "reduced_pencil",
    "eigenvalue_shifts",
    "discriminant_dn1",
    "predicted_growth_rate",
    "instability_threshold_dn1",
]

COLLISION_TOL = 1e-8


@dataclass(frozen=True)
class ReducedPencil:
    """2x2 pencil B at a collision; every entry of B is i times a real."""

    B: np.ndarray
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
    """Collision frequency at (n, m, xi0); NotACollision if the gap exceeds tolerance."""
    c0 = stokes.phase_speed_c0(wave.params)
    w_n = dispersion.omega(wave.params, c0, n + xi0)
    w_m = dispersion.omega(wave.params, c0, m + xi0)
    if abs(w_n - w_m) > COLLISION_TOL * max(1.0, abs(w_n), abs(w_m)):
        raise NotACollision(
            f"omega gap {abs(w_n - w_m):.3e} at (n={n}, m={m}, xi0={xi0})"
        )
    return w_n


def reduced_matrix_dn1(wave: StokesWave, n: int, xi0: float, a) -> ReducedPencil:
    """Pencil for the pair {n, n+1}, entries exact through a^2.

    Diagonal corrections i*k^2*a^2*(index + xi0)*c2, off-diagonal coupling
    -i*k^2*a*(other index + xi0); the Gram matrix is the identity at this
    order.
    """
    a = as_amplitude(a).a
    w = _checked_omega(wave, n, n + 1, xi0)
    k2 = wave.params.k**2
    p, q = n + xi0, n + 1 + xi0
    B = np.array([
        [1j * w + 1j * k2 * a**2 * p * wave.c2, -1j * k2 * a * q],
        [-1j * k2 * a * p, 1j * w + 1j * k2 * a**2 * q * wave.c2],
    ])
    return ReducedPencil(B=B, omega=w, order=2, n=n, m=n + 1, xi0=xi0)


def reduced_matrix_dn2(wave: StokesWave, n: int, xi0: float, a) -> ReducedPencil:
    """Pencil for the pair {n, n+2}, entries exact through a^4.

    The coupling is carried by the second harmonic of the wave, so both
    diagonal (a^2*A2 + a^4*c4) and off-diagonal (a^2*A2 + a^4*A42)
    corrections start at a^2.
    """
    a = as_amplitude(a).a
    w = _checked_omega(wave, n, n + 2, xi0)
    k2 = wave.params.k**2
    p, q = n + xi0, n + 2 + xi0
    diag = a**2 * wave.A2 + a**4 * wave.c4
    off = a**2 * wave.A2 + a**4 * wave.A42
    B = np.array([
        [1j * w + 1j * k2 * diag * p, -1j * k2 * off * q],
        [-1j * k2 * off * p, 1j * w + 1j * k2 * diag * q],
    ])
    return ReducedPencil(B=B, omega=w, order=4, n=n, m=n + 2, xi0=xi0)


def reduced_pencil(wave: StokesWave, n: int, m: int, xi0: float, a) -> ReducedPencil:
    """Dispatch on the mode separation; separations >= 3 are not analyzed."""
    n, m = min(n, m), max(n, m)
    dn = m - n
    if dn == 1:
        return reduced_matrix_dn1(wave, n, xi0, a)
    if dn == 2:
        return reduced_matrix_dn2(wave, n, xi0, a)
    raise OrderNotAnalyzed(f"no reduced pencil for mode separation {dn}")


def eigenvalue_shifts(pencil: ReducedPencil) -> DiscriminantResult:
    """Solve det(B - (i*omega + i*mu)*I) = 0 exactly.

    G = -i*(B - i*omega*I) is real; mu solves
    mu^2 - tr(G)*mu + det(G) = 0 with discriminant tr^2 - 4*det.  A
    negative discriminant gives a complex-conjugate pair of shifts and a
    positive growth rate max(Re(i*mu)).
    """
    G_c = -1j * (pencil.B - 1j * pencil.omega * np.eye(2))
    if np.max(np.abs(G_c.imag)) > 1e-12 * max(1.0, np.max(np.abs(G_c.real))):
        raise ValueError("pencil entries are not purely imaginary")
    G = G_c.real
    tr = G[0, 0] + G[1, 1]
    det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
    disc = tr * tr - 4.0 * det
    root = cmath.sqrt(disc)
    mu = ((tr + root) / 2.0, (tr - root) / 2.0)
    growth = max((1j * mu[0]).real, (1j * mu[1]).real, 0.0)
    return DiscriminantResult(
        value=float(disc),
        shifts=mu,
        unstable=disc < -1e-14,
        growth_rate=float(growth),
    )


def discriminant_dn1(wave: StokesWave, n: int, xi0: float, a) -> float:
    """Leading-order discriminant 4*k^4*a^2*(n+xi0)*(n+1+xi0) for dn = 1."""
    a = as_amplitude(a).a
    return 4.0 * wave.params.k**4 * a**2 * (n + xi0) * (n + 1 + xi0)


def predicted_growth_rate(wave: StokesWave, n: int, xi0: float, a) -> float:
    """Leading-order growth rate k^2*|a|*sqrt(-(n+xi0)*(n+1+xi0)).

    Only defined when the index product is negative (opposite Krein
    signatures); otherwise NotUnstable.  Linear in |a|, the oracle target
    for the truncated-Fourier spectrum.
    """
    a = as_amplitude(a).a
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
    if not (beta < math.inf and 0 < gamma < math.inf):
        raise ValueError(f"need finite beta and gamma > 0, got {beta}, {gamma}")
    return (4.0 * gamma / beta) ** 0.25
