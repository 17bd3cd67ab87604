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
of beta admits a collision of a given pair.  The kernel depends on x only
through p = x*(x+dn):

    k^4 = (gamma/beta) * (1 + p) / (p*(3p + dn^2 - 1)),

so for a given k the relation is a quadratic in p.  This module solves
both directions of that relation in closed form (k given xi, xi given
k), classifies all colliding pairs, computes the wavenumber interval
swept by a collision family, and evaluates Krein signatures.

Two answers turn on a rounded quantity being zero: a double root in x of
that quadratic, and omega = 0, a collision at the spectral origin with
Krein signature 0.  Both are decided by one share of rounding,
``stokes._ROUNDING`` (which also decides a resonant expansion
denominator), of the quantity's own scale, never by an absolute bound,
so a change of units, which multiplies every omega by one factor,
changes neither answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import stokes
from .errors import DivisionByZero, NoCollision, Singularity, XiOutOfRange
from .stokes import _ROUNDING, PhysicalParams, _check_count

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

# The xi of the probe that decides the small-xi sign of collision_K.
_XI_EPS = 2.0**-13
# Largest mode index window |n| <= n_range of the dispersion and
# collisions tables.
MAX_N_RANGE = 1000


@dataclass(frozen=True)
class CollisionEvent:
    """One resolved collision of i*omega(n+xi0) and i*omega(m+xi0).

    ``at_origin`` holds exactly where ``krein_signature`` is 0 at n + xi0:
    omega is zero to rounding relative to its own scale.
    """

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
    x is zero, its pole.  A nonzero x, however small, is evaluated: the
    frequency is finite until gamma/x overflows.
    """
    x_arr = np.asarray(x, dtype=float)
    zero = x_arr == 0
    if zero.any():
        raise DivisionByZero(f"Bloch index is zero: {x_arr[zero][0]}")
    k2 = params.k**2
    val = k2 * x_arr * (c - params.beta * k2 * x_arr**2) - params.gamma / x_arr
    return float(val) if val.ndim == 0 else val


def _omega_scale(params: PhysicalParams, c: float, x):
    """k^2*|x|*|c| + |beta|*k^4*|x|^3 + gamma/|x|, the sum of the
    magnitudes of omega's three terms at x.

    It bounds |omega(x)| and, times eps, its rounding: where omega is
    zero that rounding, the rounding of k included, is about 10*eps
    times the scale.  It scales with omega, so a zero test made on it
    gives the same answer in any units.
    """
    ax = np.abs(x)
    k2 = params.k**2
    return (k2 * ax * abs(c) + abs(params.beta) * k2 * k2 * (ax * ax * ax)
            + params.gamma / ax)


def _is_zero(params: PhysicalParams, c: float, x, w):
    """Whether w = omega(params, c, x) is zero to rounding: |w| at most
    ``_ROUNDING`` times ``_omega_scale``."""
    return np.abs(w) <= _ROUNDING * _omega_scale(params, c, x)


def _collision_k4(beta, gamma, x, dn):
    """k^4 = (gamma*dn/beta) * collision_K(x, dn) for scalar or array x.

    With p = x*(x+dn) and s = 1 + p, the kernel is s / (p*dn*f), where
    f = 3s + dn^2 - 4 = (y^3 - x^3 - dn)/dn for y = x + dn.  Both factors
    are formed without cancellation from t = x + dn/2:
    s = t^2 + (1 - dn^2/4), and f = 3t^2 + (dn^2/4 - 1), a sum of
    non-negative terms for dn >= 2 and 3p at dn = 1.  At dn = 2, s = t^2
    and f = 3s, so the removable pole at x = -1 cancels to rounding and
    the kernel is 1/(6p) up to the last bits.  Products only: the scalar
    and array paths agree bit for bit.

    NaN at the poles: x == 0 or x + dn == 0, and s == 0 exactly at
    dn = 2 (x = -1).  Any other x, however close to a pole, is evaluated,
    and is inf only where p*f underflows.  A scalar x comes back as a
    float.
    """
    x = np.asarray(x, dtype=float)[()]
    y = x + dn
    p = x * y
    t = x + 0.5 * dn
    tt = t * t
    s = tt + (1.0 - 0.25 * dn * dn)
    f = 3.0 * p if dn == 1 else 3.0 * tt + (0.25 * dn * dn - 1.0)
    pole = (x == 0) | (y == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k4 = np.where(pole, np.nan, (gamma * dn / beta) * (s / (p * (dn * f))))
    return float(k4) if k4.ndim == 0 else k4


def collision_K(x, dn: int):
    """Collision kernel (1 + x*(x+dn)) / (x*(x+dn)*((x+dn)^3 - x^3 - dn)).

    k^4 = (gamma*dn/beta) * collision_K(x, dn) is the wavenumber at which
    modes n and n + dn collide at Bloch index x = n + xi, so the kernel's
    sign decides which sign of beta admits the collision.  It is computed
    from p = x*(x+dn) without cubes (see ``_collision_k4``); at dn = 2 it
    is 1/(6p), finite up to x = -1.  A scalar x at a pole of the formula
    (x = 0, x = -dn, or x = -1 at dn = 2, where 0/0 is left undefined)
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

    Solved in closed form.  With x = n + xi, dn = |m - n|, p = x*(x+dn)
    and B = beta*k^4, the collision is the quadratic

        3*B*p^2 + ((dn^2 - 1)*B - gamma)*p - gamma = 0.

    Its roots come from the cancellation-free formula, with the
    discriminant written as ((dn^2 - 1)*B + gamma)^2 + 4*(4 - dn^2)*B*gamma
    so that at dn = 2, where the quadratic factors as
    (1 + p)*(3B*p - gamma), it is the square (3B + gamma)^2 and p = -1
    comes out exact to rounding.  Each real root p gives
    x^2 + dn*x - p = 0, and x - n is kept when it lies in (0, 1/2].  A
    double root in x (dn^2 + 4p within rounding of 0) is taken as
    x = -dn/2: the tangency at the end of a collision interval
    (xi = 1/2), or the root p = -1 at dn = 2, which is xi = 0
    (omega(-1) = omega(1) = 0 for every k) and so no collision.  Away
    from a tangency the roots are accurate to about 1e-12 in xi; near
    one, xi moves like the square root of any perturbation of k.  An
    empty list means no collision at this k.
    """
    if n == m:
        raise ValueError("need two distinct modes")
    n, m = min(n, m), max(n, m)
    dn = m - n
    B, gamma = params.beta * params.k**4, params.gamma
    qb = (dn * dn - 1) * B - gamma
    # r*r, not r**2: libm's pow need not round a square as a product does,
    # and a 2^j change of units must scale disc by exactly 4^j
    r = (dn * dn - 1) * B + gamma
    disc = r * r + 4 * (4 - dn * dn) * B * gamma
    if disc < 0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    xs = []
    # where beta*k^4 underflows to 0 the quadratic is linear: p = -1 only
    for p in (q / (3.0 * B), -gamma / q) if B else (-gamma / q,):
        d = dn * dn + 4.0 * p
        if abs(d) <= _ROUNDING * dn * dn:
            xs.append(-0.5 * dn)
        elif d > 0:
            s = math.sqrt(d)
            xs += [2.0 * p / (dn + s), -0.5 * (dn + s)]
    return sorted({x - n for x in xs if 0 < x - n <= 0.5})


def collision_events(params: PhysicalParams, n: int, m: int) -> list[CollisionEvent]:
    """Resolve all collisions of the pair {n, m} at this k into events."""
    n, m = min(n, m), max(n, m)
    c0 = stokes.phase_speed_c0(params)
    events = []
    for xi0 in collision_xi(params, n, m):
        w = omega(params, c0, n + xi0)
        events.append(CollisionEvent(
            n=n, m=m, xi0=xi0, k=params.k, omega=w,
            at_origin=bool(_is_zero(params, c0, n + xi0, w)),
            opposite_krein=(n + xi0) * (m + xi0) < 0,
        ))
    return events


def _admits_collision(beta: float, n, dn: int):
    """Whether modes {n, n+dn} collide for this sign of beta, xi near 0+.

    Decided by the sign of collision_K(n + xi, dn) as xi -> 0+ (beta > 0
    needs a positive kernel, beta < 0 a negative one).  The sign is not
    constant on (0, 1/2] for every pair: for {-3, 0} and {-4, 0} the
    factor 1 + p vanishes at xi = (3 - sqrt(5))/2 and 2 - sqrt(3), past
    which these pairs also collide for beta > 0, and this probe misses
    them.  An array of n gets a bool array.
    """
    K = collision_K(n + _XI_EPS, dn)
    return (K > 0) == (beta > 0)


def enumerate_collision_pairs(beta: float, dn_max: int, n_range: int) -> list[CollisionPair]:
    """All colliding pairs {n, n+dn} with dn <= dn_max and |n|, |m| <= n_range.

    Each pair carries ``opposite_krein``, true exactly when n <= -1 <= 0 <= m
    so that (n + xi)(m + xi) < 0 throughout xi in (0, 1/2].  Only dn up to
    2*n_range has a pair inside the window, so a dn_max past it costs
    nothing.  n_range is a count in [0, MAX_N_RANGE] and dn_max one in
    [1, inf], checked before any work (stokes._check_count).  The table
    depends on beta only through its sign, and is built once per process
    for each sign and window; every call gets a new list.
    """
    n_range = _check_count("n_range", n_range, 0, MAX_N_RANGE)
    dn_max = _check_count("dn_max", dn_max, 1, math.inf)
    return list(_pair_table(bool(beta > 0), min(dn_max, 2 * n_range), n_range))


@functools.lru_cache(maxsize=2)
def _pair_table(positive: bool, dn_top: int, n_range: int) -> tuple[CollisionPair, ...]:
    """The pairs of enumerate_collision_pairs for beta > 0 (positive) or
    beta <= 0, with dn <= dn_top."""
    pairs = []
    for dn in range(1, dn_top + 1):
        ns = np.arange(-n_range, n_range - dn + 1)
        for n in ns[_admits_collision(1.0 if positive else -1.0, ns, dn)].tolist():
            m = n + dn
            pairs.append(CollisionPair(n=n, m=m,
                                       opposite_krein=(n <= -1 and m >= 0)))
    return tuple(pairs)


def collision_interval(beta: float, gamma: float, n: int, m: int) -> CollisionInterval:
    """Range of wavenumbers over which the pair {n, m} collides.

    The whole Floquet family xi in (-1/2, 1/2] \\ {0} is swept; negative
    xi covers the collisions of the reflected pair {-m, -n}, which belong
    to the same unordered mode pair by the xi -> -xi spectral symmetry.

    The endpoints are solved in closed form.  Apart from its poles and
    zeros, k^4 as a function of p = x*(x+dn) has a p-derivative that
    vanishes only at p = 0 and p = -2 (dn = 1), at p = -1 = -dn^2/4
    (dn = 2), and nowhere for dn >= 3, so no x in the family reaches such
    a point except x = -dn/2, where dp/dx vanishes.  That x is
    xi = -(n+m)/2, which lies in the family only as xi = 0 or 1/2.  So
    each extremum is k^4 at xi = -1/2 (the open end), at xi = 1/2, at
    xi = 0 when neither mode is 0 (else a pole there makes k_max
    math.inf), or the infimum 0 where 1 + p = 0.  That zero is a root of
    x^2 + dn*x + 1, which is real and simple only for dn >= 3 (at dn = 2
    it cancels against the pole), and k^4 changes sign there, so one side
    of it collides: k_min is then 0.0.  The roots lie more than 1 apart,
    so at most one is in the family.
    """
    if n == m:
        raise ValueError("need two distinct modes")
    n, m = min(n, m), max(n, m)
    dn = m - n
    k4 = _collision_k4(beta, gamma, n + np.array([-0.5, 0.5]), dn)
    if n and m:
        # xi = 0, where p = n*m; at dn = 2 the kernel is 1/(6p), whose
        # form removes the pole of {-1, 1} there
        k4 = np.append(k4, gamma / (3.0 * beta * n * m) if dn == 2
                       else _collision_k4(beta, gamma, n, dn))
    k4_adm = k4[k4 > 0]
    zero_inside = False
    if dn >= 3:
        r = dn + math.sqrt(dn * dn - 4.0)
        zero_inside = any(abs(x - n) < 0.5 for x in (-2.0 / r, -0.5 * r))
    if not (zero_inside or k4_adm.size):
        raise NoCollision(f"pair {{{n},{m}}} admits no collision for beta={beta}")
    k_min = 0.0 if zero_inside else float(k4_adm.min() ** 0.25)
    k_max = math.inf if n == 0 or m == 0 else float(k4_adm.max() ** 0.25)
    return CollisionInterval(n=n, m=m, k_min=k_min, k_max=k_max)


def krein_signature(params: PhysicalParams, c: float, x):
    """Sign of omega(x)/x; 0 where omega(x) is zero to rounding.

    omega counts as zero, a collision at the spectral origin, where
    |omega(x)| is at most 64*eps times the sum of the magnitudes of its
    three terms, k^2*|x|*|c| + |beta|*k^4*|x|^3 + gamma/|x|.  The test
    is relative to omega's own scale, so the signature does not depend
    on units: rescaling (beta, gamma) by any power of two gives the
    same answer.  A scalar x gets an int, an array of x an int array.
    """
    w = omega(params, c, x)
    kappa = np.where(_is_zero(params, c, x, w), 0,
                     np.where(np.divide(w, x) > 0, 1, -1))
    return int(kappa) if kappa.ndim == 0 else kappa


def origin_collisions(beta: float, gamma: float, n_range: int) -> list[CollisionEvent]:
    """Collisions at the spectral origin: only for beta > 0, at xi = 1/2.

    For each n the partner is m = -n - 1 and the wavenumber is
    (gamma/(beta*(n+1/2)^2))**(1/4); omega vanishes there exactly.
    Empty for beta < 0.  n_range is a count in [0, MAX_N_RANGE], checked
    before any work (stokes._check_count).
    """
    n_range = _check_count("n_range", n_range, 0, MAX_N_RANGE)
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
