"""Bloch dispersion relation, eigenvalue collisions and Krein signatures.

At zero amplitude the linearization about a 2*pi/k-periodic wave has, for
each Floquet exponent xi in (0, 1/2], purely imaginary eigenvalues
i*omega(n + xi) indexed by the integer Fourier modes, with

    omega(x) = k^2*x*(c - beta*k^2*x^2) - gamma/x.

Spectral instability can only emerge from a collision
omega(n + xi) = omega(m + xi) of two such eigenvalues, and only when
their Krein signatures sgn(omega/x) differ.  Eliminating c = c0 from the
collision condition gives the closed form

    k^4 = (gamma*dn/beta) * collision_K(x, dn),        x = n + xi, dn = m - n,

so the sign of the rational function ``collision_K`` decides which sign
of beta admits a collision of a given pair.  This module solves both
directions of that relation (k given xi, xi given k), classifies all
colliding pairs, computes the wavenumber interval swept by a collision
family, and evaluates Krein signatures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import stokes
from .errors import DivisionByZero, NoCollision, Singularity, XiOutOfRange
from .stokes import PhysicalParams

__all__ = [
    "CollisionEvent",
    "CollisionInterval",
    "CollisionPair",
    "omega",
    "check_xi",
    "collision_K",
    "collision_wavenumber",
    "collision_xi",
    "collision_events",
    "collision_interval",
    "enumerate_collision_pairs",
    "krein_signature",
    "origin_collisions",
]

# Bloch indices x = n + xi never reach zero for xi in (0, 1/2]; the guard
# only trips on raw user input.
_X_TOL = 1e-12

# Points of the uniform xi grid on (0, 1/2] that brackets collision roots
# and samples collision intervals; its first point is also the probe used
# for the small-xi sign of collision_K.
_XI_GRID = 4096
_XI_SAMPLES = np.arange(1, _XI_GRID + 1) / (2 * _XI_GRID)
_XI_SAMPLES.flags.writeable = False
_XI_EPS = 1.0 / (2 * _XI_GRID)

#: Absolute xi tolerance of the bracketed collision roots.
XI_ROOT_TOL = 1e-12

#: |omega| below this is treated as a collision at the spectral origin.
OMEGA_ORIGIN_TOL = 1e-10


@dataclass(frozen=True)
class CollisionEvent:
    """One resolved collision of i*omega(n+xi0) and i*omega(m+xi0)."""

    n: int
    m: int
    xi0: float
    k: float
    omega: float
    at_origin: bool
    opposite_krein: bool


@dataclass(frozen=True)
class CollisionInterval:
    """Wavenumber interval over which the pair {n, m} collides.

    ``k_max`` is math.inf when one of the colliding indices is zero (the
    kernel is unbounded toward the excluded xi -> 0 endpoint).
    """

    n: int
    m: int
    k_min: float
    k_max: float

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.k_max)


@dataclass(frozen=True)
class CollisionPair:
    """A mode pair admitting a collision, with its Krein classification."""

    n: int
    m: int
    opposite_krein: bool

    @property
    def dn(self) -> int:
        return self.m - self.n


def check_xi(xi: float) -> None:
    """Raise XiOutOfRange unless xi lies in the Floquet domain (0, 1/2]."""
    if not 0 < xi <= 0.5:
        raise XiOutOfRange(f"xi={xi} not in (0, 1/2]")


def omega(params: PhysicalParams, c: float, x):
    """Dispersion frequency k^2*x*(c - beta*k^2*x^2) - gamma/x.

    With c = c0 this is the unperturbed Bloch frequency at index x = n + xi.
    Odd in x.  Accepts scalars or arrays; raises DivisionByZero when any
    |x| falls below tolerance.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(np.abs(x_arr) < _X_TOL):
        raise DivisionByZero(f"Bloch index too close to zero: {x}")
    k2 = params.k**2
    val = k2 * x_arr * (c - params.beta * k2 * x_arr**2) - params.gamma / x_arr
    return float(val) if val.ndim == 0 else val


def _collision_k4(beta, gamma, x, dn):
    """k^4 = (gamma*dn/beta) * collision_K(x, dn) for scalar or array x.

    NaN at the poles of the kernel: x = 0, x = -dn, or a cubic factor
    vanishing relative to its terms.  A scalar x is evaluated with NumPy
    scalars, whose cubes (libm pow) match Python float arithmetic bit for
    bit where the array power loop may not, and comes back as a float.
    """
    x = np.asarray(x, dtype=float)[()]
    y = x + dn
    cubic = y**3 - x**3 - dn
    pole = ((np.abs(x) < _X_TOL) | (np.abs(y) < _X_TOL)
            | (np.abs(cubic)
               < _X_TOL * np.maximum(1.0, np.abs(x) ** 3 + np.abs(y) ** 3 + dn)))
    with np.errstate(divide="ignore", invalid="ignore"):
        k4 = np.where(pole, np.nan,
                      (gamma * dn / beta) * ((1.0 + x * y) / (x * y * cubic)))
    return float(k4) if k4.ndim == 0 else k4


def collision_K(x, dn: int):
    """Collision kernel (1 + x*(x+dn)) / (x*(x+dn)*((x+dn)^3 - x^3 - dn)).

    k^4 = (gamma*dn/beta) * collision_K(x, dn) is the wavenumber at which
    modes n and n + dn collide at Bloch index x = n + xi, so the kernel's
    sign decides which sign of beta admits the collision.  A scalar x at a
    pole of the formula (x = 0, x = -dn, or a vanishing cubic factor)
    raises Singularity; an array x gets NaN there.
    """
    if dn < 1:
        raise ValueError("dn must be a positive integer")
    # beta = dn, gamma = 1 make the prefactor gamma*dn/beta exactly 1
    K = _collision_k4(dn, 1.0, x, dn)
    if isinstance(K, float) and math.isnan(K):
        raise Singularity(f"collision kernel pole at x={x}, dn={dn}")
    return K


def collision_wavenumber(beta: float, gamma: float, n: int, m: int, xi: float):
    """Wavenumber at which modes n and m collide at Floquet exponent xi.

    Returns None when (gamma*dn/beta)*collision_K is non-positive, i.e.
    the pair does not collide at this xi for this sign of beta.
    """
    if n == m:
        raise ValueError("need two distinct modes")
    check_xi(xi)
    n, m = min(n, m), max(n, m)
    k4 = _collision_k4(beta, gamma, n + xi, m - n)
    if math.isnan(k4):
        raise Singularity(f"collision kernel pole at x={n + xi}, dn={m - n}")
    return k4**0.25 if k4 > 0 else None


def collision_xi(params: PhysicalParams, n: int, m: int) -> list[float]:
    """All xi in (0, 1/2] where omega(n+xi) = omega(m+xi) at c = c0.

    Sign changes are bracketed on a uniform grid of ``_XI_GRID`` points
    and refined to ``XI_ROOT_TOL``; an empty list means no collision at
    this k.
    """
    if n == m:
        raise ValueError("need two distinct modes")
    c0 = stokes.phase_speed_c0(params)

    def gap(xi):
        return omega(params, c0, n + xi) - omega(params, c0, m + xi)

    xs = _XI_SAMPLES
    wn = omega(params, c0, n + xs)
    wm = omega(params, c0, m + xs)
    fv = wn - wm
    roots = list(xs[np.abs(fv) <= 1e-11 * np.maximum(1.0, np.abs(wn) + np.abs(wm))])
    sign = np.sign(fv)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        roots.append(brentq(gap, xs[i], xs[i + 1], xtol=XI_ROOT_TOL))
    roots.sort()
    # at a tangency (k at an interval endpoint) the node test and the
    # bracketing both report the same double root, sqrt(eps)-apart
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-6:
            deduped.append(float(r))
    return deduped


def collision_events(params: PhysicalParams, n: int, m: int) -> list[CollisionEvent]:
    """Resolve all collisions of the pair {n, m} at this k into events."""
    n, m = min(n, m), max(n, m)
    c0 = stokes.phase_speed_c0(params)
    events = []
    for xi0 in collision_xi(params, n, m):
        w = omega(params, c0, n + xi0)
        events.append(CollisionEvent(
            n=n, m=m, xi0=xi0, k=params.k, omega=w,
            at_origin=abs(w) <= OMEGA_ORIGIN_TOL,
            opposite_krein=(n + xi0) * (m + xi0) < 0,
        ))
    return events


def _admits_collision(beta: float, n: int, dn: int) -> bool:
    """Whether modes {n, n+dn} collide for this sign of beta, xi in (0, 1/2].

    Decided by the sign of collision_K(n + xi, dn) as xi -> 0+, which is
    constant on the admissible classification (beta > 0 needs a positive
    kernel, beta < 0 a negative one).
    """
    K = collision_K(n + _XI_EPS, dn)
    return (K > 0) == (beta > 0)


def enumerate_collision_pairs(beta: float, dn_max: int, n_range: int) -> list[CollisionPair]:
    """All colliding pairs {n, n+dn} with dn <= dn_max and |n|, |m| <= n_range.

    Each pair carries ``opposite_krein``, true exactly when n <= -1 <= 0 <= m
    so that (n + xi)(m + xi) < 0 throughout xi in (0, 1/2].
    """
    if dn_max < 1:
        raise ValueError("dn_max must be >= 1")
    if n_range < dn_max:
        raise ValueError("n_range must be >= dn_max")
    pairs = []
    for dn in range(1, dn_max + 1):
        for n in range(-n_range, n_range - dn + 1):
            if _admits_collision(beta, n, dn):
                m = n + dn
                pairs.append(CollisionPair(n=n, m=m,
                                           opposite_krein=(n <= -1 and m >= 0)))
    return pairs


def collision_interval(beta: float, gamma: float, n: int, m: int) -> CollisionInterval:
    """Range of wavenumbers over which the pair {n, m} collides.

    The whole Floquet family xi in (-1/2, 1/2] \\ {0} is swept; negative
    xi covers the collisions of the reflected pair {-m, -n}, which belong
    to the same unordered mode pair by the xi -> -xi spectral symmetry.

    The reported endpoints are the dense-sample extrema polished by a
    bounded scalar minimization; open endpoints (at xi -> 0 or
    xi -> -1/2) are approached but never attained, so k_min of an
    interval whose infimum is 0 comes out as a small positive number.
    k_max is math.inf when one colliding index is zero.
    """
    n, m = min(n, m), max(n, m)
    dn = m - n
    if not (_admits_collision(beta, n, dn) or _admits_collision(beta, -m, dn)):
        raise NoCollision(f"pair {{{n},{m}}} admits no collision for beta={beta}")

    # xi = -1/2 .. -2/(2*_XI_GRID), then the positive samples
    xs = np.concatenate([-_XI_SAMPLES[:0:-1], _XI_SAMPLES])
    k4 = _collision_k4(beta, gamma, n + xs, dn)
    k4_adm = np.where(k4 > 0, k4, np.nan)
    if np.all(np.isnan(k4_adm)):
        raise NoCollision(f"pair {{{n},{m}}} admits no collision for beta={beta}")

    def refine(sign, j):
        """Polish sign*k^4 around sample j; inadmissible xi cost +inf."""
        def cost(t):
            k4 = _collision_k4(beta, gamma, n + t, dn)
            return sign * k4 if k4 > 0 else math.inf

        lo = xs[j - 1] if j >= 1 else -0.5 + 2.0**-40
        hi = xs[j + 1] if j + 1 < len(xs) else 0.5
        res = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
        return res.fun

    j_min = int(np.nanargmin(k4_adm))
    k_min = float(min(np.nanmin(k4_adm), refine(1.0, j_min)) ** 0.25)

    if n == 0 or m == 0:
        k_max = math.inf
    else:
        neg = refine(-1.0, int(np.nanargmax(k4_adm)))
        best_max = max(np.nanmax(k4_adm), -neg if math.isfinite(neg) else -math.inf)
        k_max = float(best_max**0.25)
    return CollisionInterval(n=n, m=m, k_min=k_min, k_max=k_max)


def krein_signature(params: PhysicalParams, c: float, x: float) -> int:
    """Sign of omega(x)/x; 0 when |omega| < OMEGA_ORIGIN_TOL (origin collision)."""
    w = omega(params, c, x)
    if abs(w) < OMEGA_ORIGIN_TOL:
        return 0
    return 1 if w / x > 0 else -1


def origin_collisions(beta: float, gamma: float, n_range: int) -> list[CollisionEvent]:
    """Collisions at the spectral origin: only for beta > 0, at xi = 1/2.

    For each n the partner is m = -n - 1 and the wavenumber is
    (gamma/(beta*(n+1/2)^2))**(1/4); omega vanishes there exactly.
    Empty for beta < 0.
    """
    if beta < 0:
        return []
    events = []
    for n in range(-n_range, n_range + 1):
        k = (gamma / (beta * (n + 0.5) ** 2)) ** 0.25
        events.append(CollisionEvent(
            n=n, m=-n - 1, xi0=0.5, k=k, omega=0.0,
            at_origin=True, opposite_krein=True,
        ))
    return events
