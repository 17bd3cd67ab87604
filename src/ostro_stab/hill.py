"""Truncated-Fourier (Hill) computation of the Bloch spectrum.

For xi in (0, 1/2] the linearized operator acts on 2*pi-periodic
functions as

    A = k^2*(d/dz + i*xi)*(c + beta*k^2*(d/dz + i*xi)^2 - 2*w)
        + gamma*(d/dz + i*xi)^{-1},

and factors as J*L with J = diag(i*(n+xi)) skew-adjoint and L
self-adjoint.  Retaining Fourier modes -N..N turns A into a dense
(2N+1)x(2N+1) matrix whose every entry is i times a real number: the
diagonal carries the dispersion frequencies, and the wave couples modes
at distance <= 4 through its cosine harmonics.  Eigenvalues with
positive real part at any xi mean spectral instability of the wave on
the whole line; this module is the numerical oracle for the analytical
collision predictions.

Growth needs two modes of opposite sign of n+xi to collide.  The
Gershgorin intervals around the frequencies omega(n+xi) fall into
clusters; a count of negative eigenvalues (an inertia count) across each
cluster proves every eigenvalue real when the cluster is one mode, modes
of one sign, or a pair of opposite sign whose Schur-complement
determinant is positive.  A slice whose every cluster passes scores 0.0,
as its solve would, and an xi sweep does not solve it.  The rest are
solved once, for their eigenvalues, and the clusters left open decide
which growth counts: only growth whose frequency lies in an open cluster
without one of the boundary_margin modes next to +-N.  Slice by slice,
the certificate looks only at the modes that can meet a mode of the
other sign: over each block of xi values, a hull of every mode's
interval proves the others apart on the whole block.  A sweep refines
its best point by parabolic steps on a lattice of 63 points certified
in one call, and a certified maximiser is returned unsolved.

The real solver returns exact conjugate pairs, so every solved spectrum
is exactly symmetric under lambda -> -conj(lambda); a slice's
``paired`` flag checks that bit for bit, with no tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import dispersion, stokes
from .errors import ConvergenceFailure, IndefiniteNearZero
from .stokes import StokesWave, as_amplitude

__all__ = [
    "TruncationConfig",
    "SpectrumSlice",
    "assemble_matrix",
    "assemble_L_matrix",
    "eigenvalues",
    "spectrum_slice",
    "max_growth",
    "krein_of_eigenpair",
]

# Largest matrix dimension 2N+1 the truncation may ask for.
MAX_DIM = 10_000
# Largest number of points of the default xi grid.
MAX_XI_GRID = 2**20
# Largest mode index window |n| <= n_range of the dispersion and
# collisions tables.
MAX_N_RANGE = 1000
# Left end of the xi sweep, excluded from it.
_XI_LO = 1.0 / 1024
# |Re lambda| above this makes an eigenvalue a growth candidate.
_RE_TRIGGER = 1e-12
# |<L v, v>| below this on a unit eigenvector leaves its Krein sign undefined.
_KREIN_ZERO_TOL = 1e-10
# Refinement rounds around the best slice of the sweep, one solve at most
# each, on a lattice of _LATTICE - 1 points evenly inside its bracket.
_REFINE_ROUNDS = 3
_LATTICE = 64
# Golden-section fraction of a bracket side.
_GOLDEN = (3.0 - 5.0**0.5) / 2.0
# xi values per vectorised certificate block: bounds its (block, 2N+1)
# temporaries to a few times one matrix.
_CERTIFY_BLOCK = 64
# Least gap between clusters of Gershgorin intervals, relative to
# ||R||_inf, for a slice to count as certified.
_CERTIFY_MARGIN = 64 * np.finfo(float).eps
# Bound, relative to ||R||_inf, on the entries of the real perturbation
# that the eigensolver's output is exact for, as a colliding pair sees it.
_SOLVE_NOISE = 1e3 * _CERTIFY_MARGIN


def _check_grid_size(num: int) -> None:
    if not 1 <= num <= MAX_XI_GRID:
        raise ValueError(f"xi grid size {num} not in [1, {MAX_XI_GRID}]")


def default_xi_grid(num: int) -> np.ndarray:
    """Uniform xi grid on (1/1024, 1/2], left endpoint excluded.

    High-frequency instability bubbles are O(a) wide, which this
    resolves for the amplitudes used here.  The excluded neighborhood of
    xi = 0 is the modulational regime of the nearly-coalescing +-1 modes,
    outside the scope of the high-frequency sweep.
    """
    _check_grid_size(num)
    return _XI_LO + (0.5 - _XI_LO) * np.arange(1, num + 1) / num


@dataclass(frozen=True)
class TruncationConfig:
    """Fourier truncation -N..N and the size of the xi sweep grid.

    ``xi_grid`` is the number of points of ``default_xi_grid``, which
    ``grid()`` builds on demand; a single slice never builds it.  The
    ``boundary_margin`` modes next to +-N are considered contaminated by
    truncation and are ignored when attributing growth.
    """

    N: int = 32
    xi_grid: int = 512
    boundary_margin: ClassVar[int] = 4

    def __post_init__(self):
        if self.N < 8:
            raise ValueError("N must be >= 8")
        if 2 * self.N + 1 > MAX_DIM:
            raise ValueError(f"2N+1 = {2 * self.N + 1} exceeds the {MAX_DIM} "
                             "matrix-dimension guard")
        _check_grid_size(self.xi_grid)

    def grid(self) -> np.ndarray:
        return default_xi_grid(self.xi_grid)


class Cluster(NamedTuple):
    """A cluster that _on_axis leaves open: its span [lo, hi] on the real
    line, its modes n, and whether one is within boundary_margin of +-N."""

    lo: float
    hi: float
    modes: tuple[int, ...]
    boundary: bool


@dataclass(frozen=True, eq=False)
class SpectrumSlice:
    """Eigenvalues of the truncated operator at one (a, xi), compared by
    identity.  ``growth_clusters`` are the open clusters that hold a growth
    candidate; it counts unless the cluster holds a boundary mode."""

    xi: float
    a: float
    eigenvalues: np.ndarray
    max_real_part: float
    paired: bool
    growth_clusters: tuple[Cluster, ...] = ()


@functools.lru_cache(maxsize=1)
def _wave_terms(wave: StokesWave, a: float, N: int) -> tuple[float, np.ndarray]:
    """The xi-independent parts of one wave's matrices: speed c and coupling.

    The coupling is the off-diagonal part of L, a symmetric Toeplitz
    matrix with -2*k^2*w_hat bands; the exponential Fourier coefficients
    of w are half its cosine amplitudes, w_hat(+-j) = W_j / 2.  A sweep
    builds them once, on its first slice.  The array is read-only because
    every later slice of the same (wave, a, N) shares it: callers copy it
    before writing a diagonal.
    """
    k2 = wave.params.k**2
    col = np.zeros(2 * N + 1)
    for j, Wj in enumerate(stokes.harmonic_amplitudes(wave, a), start=1):
        col[j] = -2.0 * k2 * (Wj / 2.0)
    i = np.arange(2 * N + 1)
    coupling = col[np.abs(i[:, None] - i)]
    coupling.flags.writeable = False
    return stokes.eval_speed(wave, a), coupling


def assemble_L_matrix(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> np.ndarray:
    """Self-adjoint factor L, truncated to modes -N..N.

    Diagonal k^2*(c - beta*k^2*(n+xi)^2) - gamma/(n+xi)^2, off-diagonal
    -2*k^2*w_hat(n-m).  Real symmetric, returned as a float array.
    """
    dispersion.check_xi(xi)
    beta, gamma, k = wave.params.beta, wave.params.gamma, wave.params.k
    k2 = k**2
    c, coupling = _wave_terms(wave, as_amplitude(a).a, cfg.N)
    x = np.arange(-cfg.N, cfg.N + 1) + xi
    L = coupling.copy()
    L[np.diag_indices_from(L)] = k2 * (c - beta * k2 * x**2) - gamma / x**2
    return L


def assemble_matrix(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> np.ndarray:
    """Truncated Bloch operator as a complex (2N+1)x(2N+1) matrix.

    Row n, column m: i*omega(n+xi) on the diagonal (at the
    amplitude-corrected speed c), -2i*k^2*(n+xi)*w_hat(n-m) off it.
    Every entry is i times a real number.
    """
    dispersion.check_xi(xi)
    return 1j * _assemble_real(wave, a, xi, cfg.N)


def _assemble_real(wave: StokesWave, a, xi: float, N: int) -> np.ndarray:
    """Imaginary part of the Bloch matrix; accepts any xi with n+xi != 0."""
    c, coupling = _wave_terms(wave, as_amplitude(a).a, N)
    x = np.arange(-N, N + 1) + xi
    R = x[:, None] * coupling
    R[np.diag_indices_from(R)] = dispersion.omega(wave.params, c, x)
    return R


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix (backward-stable solve)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension exceeds the {MAX_DIM} guard")
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _pairing_ok(lam: np.ndarray) -> bool:
    """True when lambda -> -conj(lambda) maps the spectrum onto itself.

    lam must be sorted by (imag, real), as spectrum_slice sorts it; its
    mirror -conj(lam), sorted the same way, must then equal it entry by
    entry.  The check is exact: the real solver returns exact conjugate
    pairs w, conj(w), and 1j*w is exact, so a paired spectrum matches its
    mirror bit for bit.
    """
    mirror = -np.conj(lam)
    return bool(np.array_equal(lam, mirror[np.lexsort((mirror.real, mirror.imag))]))


def spectrum_slice(wave: StokesWave, a, xi: float, cfg: TruncationConfig,
                   clusters: tuple[Cluster, ...] | None = None) -> SpectrumSlice:
    """Assemble and solve one (a, xi) slice.

    The matrix is i times a real matrix R, so the real eigensolver is
    used, once; its output is exactly symmetric under
    lambda -> -conj(lambda), which ``paired`` checks exactly on the
    (imag, real)-sorted eigenvalues.  A growth candidate i*w, |Im w| above
    _RE_TRIGGER, counts only when Re w lies in the span of an open
    cluster without a boundary mode (see _on_axis): outside every open
    span the certificate proved it real, so its real part is solver
    noise; in a boundary cluster it is a truncation artifact.  A sweep
    passes the slice's open ``clusters``; else _on_axis is asked for
    them, on this xi alone and only when there is a candidate.
    """
    dispersion.check_xi(xi)
    amp = as_amplitude(a)
    w = eigenvalues(_assemble_real(wave, amp, xi, cfg.N))
    candidate = np.abs(w.imag) > _RE_TRIGGER
    keep = ~candidate
    grown = []
    if candidate.any():
        if clusters is None:
            clusters = _on_axis(wave, amp, np.array([xi], dtype=float), cfg.N)[1][0]
        for c in clusters:
            held = candidate & (c.lo <= w.real) & (w.real <= c.hi)
            if held.any():
                grown.append(c)
                if not c.boundary:
                    keep |= held
    lam = 1j * w
    max_re = float(lam.real[keep].max()) + 0.0 if keep.any() else 0.0
    lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=amp.a, eigenvalues=lam,
                         max_real_part=max_re, paired=_pairing_ok(lam),
                         growth_clusters=tuple(grown))


def _collision_seeds(wave: StokesWave, a) -> list[float]:
    """Candidate xi values near opposite-Krein collisions of this wave.

    Instability bubbles are centered within O(a^2) of the unperturbed
    collision xi0 but can be orders of magnitude narrower than a uniform
    sweep grid (half-width ~ growth / |d(omega_n - omega_m)/dxi|), so the
    sweep is seeded with each xi0 plus a geometric ladder of offsets
    scaled by a*k^2.
    """
    amp = abs(as_amplitude(a).a)
    scale = amp * wave.params.k**2
    offsets = [0.0]
    for s in (0.001, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
        offsets += [s * scale, -s * scale]
    seeds = []
    for n, m in _opposite_pairs(wave.params.beta > 0):
        for xi0 in dispersion.collision_xi(wave.params, n, m):
            for d in offsets:
                xi = xi0 + d
                if _XI_LO < xi <= 0.5:
                    seeds.append(xi)
    return seeds


@functools.lru_cache(maxsize=2)
def _opposite_pairs(positive_beta: bool) -> tuple[tuple[int, int], ...]:
    """The opposite-Krein pairs {n, m}, dn <= 4, |n|, |m| <= 6, that collide
    for this sign of beta; which pairs collide depends on nothing else."""
    return tuple((pair.n, pair.m) for pair in dispersion.enumerate_collision_pairs(
        1.0 if positive_beta else -1.0, 4, 6) if pair.opposite_krein)


def _critical_points(params: stokes.PhysicalParams, c: float) -> np.ndarray:
    """Real x where d omega/dx = k^2*c - 3*beta*k^4*x^2 + gamma/x^2 vanishes.

    x = +-sqrt(u) for each root u > 0 of 3*beta*k^4*u^2 - k^2*c*u - gamma,
    by the cancellation-free form of the quadratic formula.
    """
    k2 = params.k**2
    qa, qb, qc = 3.0 * params.beta * k2 * k2, -k2 * c, -params.gamma
    disc = qb * qb - 4.0 * qa * qc
    if not disc >= 0:
        return np.empty(0)
    q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
    u = np.array([q / qa, qc / q])
    x = np.sqrt(u[u > 0])
    return np.concatenate([x, -x])


def _hulls(params: stokes.PhysicalParams, c: float, abs_c: np.ndarray,
           row_sum: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Bounds over xi in [lo, hi] on each mode's Gershgorin interval.

    One row per span.  Returns the hull ends (left, right), and lower and
    upper bounds on the mode's term |omega(x)| + |x|*row_sum of
    ||R||_inf (see _on_axis).  A mode whose span holds x = 0 meets the
    pole of omega: its hull is the whole line.
    """
    ends = n + np.stack([lo, hi])[:, :, None]
    centre = dispersion.omega(params, c, ends)
    c_lo, c_hi = centre.min(axis=0), centre.max(axis=0)
    x = _critical_points(params, c)[:, None, None]
    inside = (ends[0] < x) & (x < ends[1])
    if inside.any():
        w = dispersion.omega(params, c, x)
        c_lo = np.minimum(c_lo, np.where(inside, w, np.inf).min(axis=0))
        c_hi = np.maximum(c_hi, np.where(inside, w, -np.inf).max(axis=0))
    pole = (ends[0] < 0) & (ends[1] > 0)
    c_lo, c_hi = np.where(pole, -np.inf, c_lo), np.where(pole, np.inf, c_hi)
    x_min = np.where(pole, 0.0, np.abs(ends).min(axis=0))
    x_max = np.abs(ends).max(axis=0)
    s = np.sqrt(x_max)
    radius = s * (s @ abs_c)
    w_max = np.maximum(np.abs(c_lo), np.abs(c_hi))
    w_min = np.where(c_lo * c_hi > 0, np.minimum(np.abs(c_lo), np.abs(c_hi)), 0.0)
    return (c_lo - radius, c_hi + radius,
            w_min + x_min * row_sum, w_max + x_max * row_sum)


def _runs(left: np.ndarray, right: np.ndarray, gap: np.ndarray, *sides):
    """Clusters of each row's intervals, as runs of the flattened order.

    Sorted by left end, a left end starts a cluster exactly when it
    clears the right end ranked one lower by its row's gap.  Returns the
    flattened order, each run's start and size, and the count of each
    side's modes (a boolean array like left) in each run.
    """
    order = np.argsort(left, axis=1)
    first = np.ones(left.shape, dtype=bool)
    first[:, 1:] = (np.sort(left, axis=1)[:, 1:] - np.sort(right, axis=1)[:, :-1]
                    >= gap[:, None])
    order = (order + left.shape[1] * np.arange(left.shape[0])[:, None]).ravel()
    start = np.flatnonzero(first)
    size = np.diff(start, append=first.size)
    counts = []
    for side in sides:
        total = np.concatenate(([0], np.cumsum(side.ravel()[order])))
        counts.append(total[start + size] - total[start])
    return order, start, size, counts


def _on_axis(wave: StokesWave, a, xis: np.ndarray,
             N: int) -> tuple[np.ndarray, list[tuple[Cluster, ...]]]:
    """Whether an inertia certificate proves each xi slice free of growth,
    and each slice's clusters that it leaves open.

    R = X*C + diag(omega(n+xi)), X = diag(n+xi), is similar to Sigma*H
    with H = |X|^{1/2} L |X|^{1/2} symmetric and Sigma = sgn(X); its
    eigenvalues mu are those of the pencil H - mu*Sigma.  Each mode n gets
    the Gershgorin interval of Sigma*H, centre omega(n+xi) and radius
    sqrt|x_n| * sum_m |C_nm| sqrt|x_m|.  Sorted by left end, the intervals
    fall into clusters split by gaps of at least _CERTIFY_MARGIN*||R||_inf,
    which absorbs the rounding of centres and radii; a cluster of s
    intervals holds exactly s eigenvalues.  At a gap point t, H - t*Sigma
    is strictly diagonally dominant, so its count of negative eigenvalues
    is read off its diagonal sgn(x_n)*(omega_n - t); between two
    consecutive points that count changes only at real eigenvalues, by at
    most one per eigenvalue.  A slice is certified when every cluster is

    (a) one mode: its eigenvalue is real, as R is real;
    (b) modes of one sign of n+xi: the count changes by the cluster size
        across the cluster, so all of its eigenvalues are real;
    (c) two modes p, q of opposite sign: at t halfway between their
        centres, which no other interval reaches, the rest D of
        H - t*Sigma is still strictly diagonally dominant, and a definite
        Schur complement S = A - B D^-1 B^T onto the pair makes the
        count at t differ by one from both ends, so one real eigenvalue
        lies on each side of t.  Split D = Delta + E, Delta = diag D: as
        D^-1 = Delta^-1 - Delta^-1 E D^-1, S is the first-order term
        S1 = A - B Delta^-1 B^T, summed exactly, plus the remainder
        B Delta^-1 E D^-1 B^T.  S1 holds the two-hop coupling through a
        third mode, which for {-1,1} at beta < 0 (through mode 0) is most
        of it.  With b_i the coupling row of mode i into D, u_i =
        b_i Delta^-1, rho_m the row sums of |E| and Varah's
        ||D^-1||_inf <= 1/delta, delta the least row dominance of D, the
        remainder's ij entry is at most (sum_m |u_i,m| rho_m) |b_j|_inf /
        delta.  Since |Delta_m| >= delta + rho_m, |S - A| is never bounded
        more loosely than by Varah alone, |b_i|_1 |b_j|_inf / delta,
        rounding aside.
        Each of the 2N+1 terms of S1_ij is a product of factors rounded a
        few times, and summing adds one rounding per term, so the
        computed S1_ij is within (2N+17)*eps*(|A_ij| + sum_m |b_i,m u_j,m|)
        of the exact one.  With e_ij the remainder plus rounding bound, S
        is definite when S1_pp and S1_qq have one sign and
        det = (|S1_pp| - e_pp)*(|S1_qq| - e_qq) - (|S1_pq| + e_pq)^2 > 0.

    Each certified eigenvalue is real, so lambda = i*mu lies on the
    imaginary axis.  The solve must find that too.  It is backward stable
    but does not keep the pencil structure: it solves a real perturbation
    of R whose entries, as the pair sees them, are bounded by
    eta = _SOLVE_NOISE*||R||_inf (1e3 times the cluster gap, room for the
    backward-error constant of the dimension and the |X|^{1/2} scaling).
    The pair's eigenvalues are mid +- sqrt(det), det = dc^2/4 - h^2, dc
    the centre difference and h = |S1_pq| + e_pq the coupling bound;
    entries moved by eta lower det by at most eta*(|dc| + 2*h + eta).  So
    (c) asks det to exceed that margin, or the pair could come out as a
    noise complex pair.  The bounds e are sums of non-negative terms, and
    their own relative rounding, below (2N+17)*eps, stays far inside it.
    (b) has no margin: eigenvalues of one type leave the real line under
    such a perturbation only when two of them lie within about eta of
    each other.  Anything else, such as a mixed cluster of three modes,
    is left to the solve.

    The clusters left open (a pair failing (c), read on every pair, or a
    larger mixed cluster) are returned per slice.  The Gershgorin discs
    of Sigma*H bound its complex eigenvalues too, and a connected union
    of s discs, which meets the real line in a cluster of s intervals,
    holds exactly s of them.  So each eigenvalue's real part lies in the
    span of its own cluster, at least _CERTIFY_MARGIN*||R||_inf from any
    other.  A Cluster's span is widened by half that gap on each side,
    room for rounding that meets no other span; an eigenvalue whose real
    part lies in no returned span is in a cluster proven real.  A
    certified slice has no open cluster.

    Only the modes that can meet a mode of the other sign are looked at
    slice by slice.  The xi values are taken in blocks of _CERTIFY_BLOCK.
    Over a block's span [lo, hi], mode n gets a hull that holds its
    interval on every slice of the block.  Its centre omega(x), x in
    [n+lo, n+hi], lies between the least and the largest of omega at both
    ends and at each real critical point inside (x = +-sqrt(u),
    3*beta*k^4*u^2 - k^2*c*u - gamma = 0).  Its radius is at most the
    same sum with each sqrt|x_m| at the larger of its two end values: n+xi
    keeps its sign on the span (a mode whose span holds x = 0 gets the
    whole line), so sqrt|n+xi| is monotone there.  The end values bound
    the mode's term |omega_n| + |x_n|*row_sum_n of ||R||_inf from above
    and below the same way.  The hulls fall into clusters, split by gaps
    of _CERTIFY_MARGIN times the largest upper bound, and on every slice
    of the block each cluster of intervals lies in one of them.  So a
    cluster of hulls of one sign holds only clusters that pass (a) or (b).
    The modes of the other hull clusters make up the block's window.  The
    slices of the blocks with a window are clustered as above on the
    union of their windows, each slice's ||R||_inf read off the modes
    whose upper bound reaches the largest lower bound of its block.  Rule
    (c) reads rows and diagonal on the window and the modes coupled to it,
    which hold every nonzero of b_p and b_q.  Any other mode m has
    rho_m = r_m, so its row dominance |omega_m - t| - r_m is the signed
    distance of t from its interval, at least the signed distance
    max(left_m - t, t - right_m) from its hull.  That bound stands in for
    it in delta, which can only make delta smaller and (c) stricter.

    The rounding of the hulls: the computed ends are the exact ones up to
    the rounding of one centre and one radius.  At xi = lo and hi they are
    the slice expressions themselves; sqrt and the sums of non-negative
    products are monotone in their arguments; a critical point is found to
    a few eps relative by the cancellation-free quadratic formula, which
    moves omega only at second order, as omega' = 0 there.  So computed
    hulls that clear each other by _CERTIFY_MARGIN times the upper bound
    keep the exact intervals apart, as the gap between computed intervals
    does on one slice.  A hull's signed distance carries the same few
    eps*||R||_inf of rounding as the |Delta_m| - rho_m it stands in for.
    The slice-by-slice arrays are only as wide as the window, the modes
    coupled to it and theirs, and are taken in chunks of at most
    _CERTIFY_BLOCK*(2N+1) entries.
    """
    c, coupling = _wave_terms(wave, as_amplitude(a).a, N)
    abs_c = np.abs(coupling)
    row_sum = abs_c.sum(axis=1)
    n = np.arange(-N, N + 1)
    params = wave.params
    # each block's hulls, and its window: the modes of its hull clusters
    # that hold modes of both signs of n+xi
    blocks = np.arange(0, xis.size, _CERTIFY_BLOCK)
    lo, hi = np.minimum.reduceat(xis, blocks), np.maximum.reduceat(xis, blocks)
    left, right, norm_lo, norm_hi = _hulls(params, c, abs_c, row_sum, n, lo, hi)
    order, _, size, (plus, minus) = _runs(
        left, right, _CERTIFY_MARGIN * norm_hi.max(axis=1),
        n + hi[:, None] > 0, n + lo[:, None] < 0)
    windows = np.empty(left.shape, dtype=bool)
    windows.ravel()[order] = np.repeat((plus > 0) & (minus > 0), size)
    busy = windows.any(axis=1)
    certified = np.ones(xis.size, dtype=bool)
    clusters = [()] * xis.size
    if not busy.any():
        return certified, clusters
    # slice by slice: the windows and the modes coupled to them (ext), the
    # modes coupled to those (for their radii), and the modes whose terms
    # can be the largest of ||R||_inf
    window = windows[busy].any(axis=0)
    ext = window | abs_c[window].any(axis=0)
    top = (norm_hi >= norm_lo.max(axis=1, keepdims=True))[busy].any(axis=0)
    modes = np.flatnonzero(ext | abs_c[ext].any(axis=0) | top)
    e = np.flatnonzero(ext[modes])
    ext_modes = modes[e]
    win = np.flatnonzero(window[ext_modes])
    width = win.size
    to_ext = abs_c[np.ix_(modes, ext_modes)]
    left_out, right_out = left[:, ~ext], right[:, ~ext]
    rows = np.flatnonzero(np.repeat(busy, np.diff(blocks, append=xis.size)))
    step = max(1, _CERTIFY_BLOCK * n.size // modes.size)
    edge = N - TruncationConfig.boundary_margin
    for j in range(0, rows.size, step):
        idx = rows[j:j + step]
        x = n[modes] + xis[idx, None]
        centre = dispersion.omega(params, c, x)
        s = np.sqrt(np.abs(x))
        norm = np.max((np.abs(centre) + np.abs(x) * row_sum[modes])[:, top[modes]],
                      axis=1)
        radius = s[:, e] * (s @ to_ext)
        x, centre, s = x[:, e], centre[:, e], s[:, e]
        # the window's clusters: start, size, modes n+xi > 0
        lft, rgt = centre[:, win] - radius[:, win], centre[:, win] + radius[:, win]
        gap = _CERTIFY_MARGIN * norm
        order, start, size, (plus,) = _runs(lft, rgt, gap, x[:, win] > 0)
        # a one-sign cluster passes (a) or (b); a mixed one must be a pair
        # that passes (c)
        mixed = (plus > 0) & (plus < size)
        failed = mixed & (size > 2)
        pairs = np.flatnonzero(mixed & (size == 2))
        first = start[pairs]
        r = first // width
        p, q = win[order[first] % width], win[order[first + 1] % width]
        # (c) on every pair cluster p, q, at t halfway
        ctr, span = centre[r], np.arange(r.size)
        c_p, c_q = ctr[span, p], ctr[span, q]
        t = 0.5 * (c_p + c_q)
        # H - t*Sigma: the pair's diagonal a and coupling h, its coupling
        # rows b into D, and diag = Delta, the diagonal of D
        diag = np.sign(x[r]) * (ctr - t[:, None])
        a_p, a_q = diag[span, p], diag[span, q]
        bp = s[r, p, None] * coupling[ext_modes[p, None], ext_modes] * s[r]
        bq = s[r, q, None] * coupling[ext_modes[q, None], ext_modes] * s[r]
        h = bp[span, q]
        for row in (bp, bq):
            row[span, p] = row[span, q] = 0.0
        diag[span, p] = diag[span, q] = np.inf
        abs_p, abs_q = np.abs(bp), np.abs(bq)
        rho = radius[r] - abs_p - abs_q
        # the modes past ext enter delta by their hulls' distance from t
        blk = idx[r] // _CERTIFY_BLOCK
        delta = np.minimum(
            (np.abs(diag) - rho).min(axis=1),
            np.maximum(left_out[blk] - t[:, None], t[:, None] - right_out[blk])
            .min(axis=1, initial=np.inf))
        # a slice with delta <= 0 fails anyway; its divisions may not be finite
        with np.errstate(divide="ignore", invalid="ignore"):
            up, uq = bp / diag, bq / diag
            abs_up, abs_uq = np.abs(up), np.abs(uq)
            # the first-order complement S1 = A - B Delta^-1 B^T
            s_pp = a_p - np.sum(bp * up, axis=1)
            s_qq = a_q - np.sum(bq * uq, axis=1)
            s_pq = h - np.sum(bp * uq, axis=1)
            # e: the remainder bound plus the rounding of S1
            f_p = np.sum(abs_up * rho, axis=1) / delta
            f_q = np.sum(abs_uq * rho, axis=1) / delta
            pinf, qinf = abs_p.max(axis=1), abs_q.max(axis=1)
            rnd = (n.size + 16) * np.finfo(float).eps
            e_pp = f_p * pinf + rnd * (np.abs(a_p) + np.sum(abs_p * abs_up, axis=1))
            e_qq = f_q * qinf + rnd * (np.abs(a_q) + np.sum(abs_q * abs_uq, axis=1))
            e_pq = (np.minimum(f_p * qinf, f_q * pinf)
                    + rnd * (np.abs(h) + np.sum(abs_p * abs_uq, axis=1)))
            d_p, d_q = np.abs(s_pp) - e_pp, np.abs(s_qq) - e_qq
            coupled = np.abs(s_pq) + e_pq
            eta = _SOLVE_NOISE * norm[r]
            margin = eta * (np.abs(c_p - c_q) + 2.0 * coupled + eta)
            det = d_p * d_q - coupled**2
        failed[pairs[~((delta > 0) & (s_pp * s_qq > 0) & (d_p > 0)
                       & (d_q > 0) & (det > margin))]] = True
        runs = np.flatnonzero(failed)
        k, head = start[runs] // width, start[runs]
        certified[idx[k]] = False
        # each open cluster: its span, widened by half the gap, and its modes
        lo_end = lft.ravel()[order[head]] - gap[k] / 2
        hi_end = np.maximum.reduceat(rgt.ravel()[order], start)[runs] + gap[k] / 2
        mode_n = (ext_modes[win] - N)[order % width].tolist()
        for i, j, z, lo_j, hi_j in zip(*(v.tolist() for v in (
                idx[k], head, size[runs], lo_end, hi_end))):
            ns = tuple(sorted(mode_n[j:j + z]))
            clusters[i] += (Cluster(lo_j, hi_j, ns, max(map(abs, ns)) > edge),)
    return certified, clusters


class _CertifiedSlice(SpectrumSlice):
    """A slice that _on_axis proves free of growth, not yet solved.

    Its solve gives max_real_part 0.0 and a paired spectrum (the real
    solver's output is exactly paired), so those are set now; the
    eigenvalues are solved on first access.
    """

    def __init__(self, wave: StokesWave, a, xi: float, cfg: TruncationConfig):
        for name, value in (("xi", float(xi)), ("a", as_amplitude(a).a),
                            ("max_real_part", 0.0), ("paired", True),
                            ("_solve", functools.partial(spectrum_slice, wave, a,
                                                         xi, cfg))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return self._solve().eigenvalues


def max_growth(wave: StokesWave, a,
               cfg: TruncationConfig) -> tuple[float, float, SpectrumSlice]:
    """Maximize max_real_part over the xi sweep, with parabolic refinement.

    Returns (xi_star, growth, slice at xi_star).  The uniform grid is
    augmented with collision-seeded candidates (see _collision_seeds):
    high-frequency bubbles can be far narrower than any practical
    uniform grid spacing, but they sit at the analytically known
    collision points.

    Only slices that may grow are solved.  A slice that _on_axis
    certifies has every eigenvalue on the imaginary axis: by an inertia
    count, each cluster of overlapping Gershgorin intervals (one mode,
    modes of one sign, or a pair of opposite sign held apart by its
    Schur complement) holds only real eigenvalues of the real Bloch
    matrix.  It scores exactly 0.0, the value its solve would give,
    without a solve.  Growth can appear only where a colliding pair of
    opposite sign is not held apart, or in a larger mixed cluster; each
    solved slice gets those clusters, which decide what growth counts
    (see spectrum_slice).  The grid is certified in one call.

    The refinement keeps the best grid point m and its bracket of grid
    neighbours, and visits only a lattice of _LATTICE - 1 points evenly
    inside the bracket, certified in one call.  Near a bubble's peak,
    growth^2 is a parabola in xi (the growth is the imaginary part of a
    2x2 pencil's eigenvalue).  So each round aims at the vertex of the
    parabola through growth^2 at the bracket ends and m, or, with no
    vertex inside, m at an end or not growing, at the golden-section
    point of the larger side; it solves the nearest lattice point inside
    the bracket not yet visited, and keeps the best point and its
    neighbours.  A point replaces m only when it grows strictly more, so
    the first maximiser still wins ties.  A grid on which nothing grows
    is not refined: its first point is returned.  A certified maximiser
    is returned unsolved, its eigenvalues solved on first access.
    """
    grid = np.unique(np.concatenate([
        cfg.grid(), np.asarray(_collision_seeds(wave, a))
    ]))
    growth, solved = _growth(wave, a, grid, _on_axis(wave, a, grid, cfg.N)[1], cfg)
    i = int(np.argmax(growth))
    # the bracket and its best point m, each (xi, growth, solved slice or None)
    lo, m, hi = ((grid[j], growth[j], solved.get(j))
                 for j in (max(i - 1, 0), i, min(i + 1, grid.size - 1)))
    # a grid that grows nowhere brackets no bubble: its first point stands
    if m[1] > 0:
        lattice = lo[0] + (hi[0] - lo[0]) * np.arange(1, _LATTICE) / _LATTICE
        open_lattice = _on_axis(wave, a, lattice, cfg.N)[1]
        for _ in range(_REFINE_ROUNDS):
            # every point visited is m, a bracket end or outside the bracket
            free = np.flatnonzero((lo[0] < lattice) & (lattice < hi[0])
                                  & (lattice != m[0]))
            if not free.size:
                break
            (x0, g0, _), (x1, g1, _), (x2, g2, _) = lo, m, hi
            d0, d2 = (x1 - x0) * (g1**2 - g2**2), (x2 - x1) * (g1**2 - g0**2)
            v = np.nan
            if g1 > 0 and x0 < x1 < x2 and d0 + d2 != 0:
                v = x1 - 0.5 * ((x1 - x0) * d0 - (x2 - x1) * d2) / (d0 + d2)
            if not x0 < v < x2:
                v = x1 + _GOLDEN * (x2 - x1 if x2 - x1 >= x1 - x0 else x0 - x1)
            j = free[np.argmin(np.abs(lattice[free] - v))]
            g, s = _growth(wave, a, lattice[j:j + 1], open_lattice[j:j + 1], cfg)
            t = (lattice[j], g[0], s.get(0))
            if t[1] > m[1]:
                lo, m, hi = (m, t, hi) if t[0] > m[0] else (lo, t, m)
            else:
                lo, hi = (lo, t) if t[0] > m[0] else (t, hi)
    best = m[2] if m[2] is not None else _CertifiedSlice(wave, a, m[0], cfg)
    return best.xi, best.max_real_part, best


def _growth(wave: StokesWave, a, xis: np.ndarray, clusters: list[tuple[Cluster, ...]],
            cfg: TruncationConfig) -> tuple[np.ndarray, dict[int, SpectrumSlice]]:
    """max_real_part at each xi, and the solved slices by index.

    Certified slices, which have no open clusters, score 0.0 and are not
    solved; the others are solved with their open clusters.
    """
    growth = np.zeros(xis.size)
    solved = {}
    for i, open_ in enumerate(clusters):
        if open_:
            solved[i] = spectrum_slice(wave, a, xis[i], cfg, open_)
            growth[i] = solved[i].max_real_part
    return growth, solved


def krein_of_eigenpair(L: np.ndarray, v: np.ndarray) -> int:
    """Sign of the energy quadratic form <L v, v> on a normalized eigenvector.

    Real by self-adjointness of L.  Raises IndefiniteNearZero when the
    form is numerically zero, the standard degeneracy on eigenvectors at
    or past a collision that has left the imaginary axis.
    """
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero eigenvector")
    v = v / nrm
    s = np.vdot(v, np.asarray(L) @ v)
    if abs(s) < _KREIN_ZERO_TOL:
        raise IndefiniteNearZero(f"quadratic form {s:.3e} below tolerance")
    return 1 if s.real > 0 else -1
