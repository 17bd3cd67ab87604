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

Truncation artifacts live near the boundary modes +-N, so eigenvalues
whose eigenvector mass concentrates there are excluded from growth
statistics.  A slice is solved once, for its eigenvalues; only the growth
candidates among them, with a real part above trigger, get eigenvectors,
each by one step of inverse iteration at its computed eigenvalue.

An xi sweep solves only the slices where growth is possible.  Growth
needs two modes of opposite sign of n+xi to collide.  The Gershgorin
intervals around the frequencies omega(n+xi) fall into clusters; a
count of negative eigenvalues (an inertia count) across each cluster
proves every eigenvalue real when the cluster is one mode, modes of one
sign, or a pair of opposite sign whose Schur-complement determinant is
positive.  Such a slice has its whole spectrum on the imaginary axis; it
scores 0.0, as its solve would, and is not solved.  The rest, at a
collision, are solved in full.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.linalg import toeplitz

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

# A spectrum counts as paired when some matching of lambda with
# -conj(lambda) agrees within PAIRING_TOL*max(1, |lambda|) entry by entry.
PAIRING_TOL = 1e-9
# Largest matrix dimension 2N+1 the truncation may ask for.
MAX_DIM = 10_000
# Largest number of points of the default xi grid.
MAX_XI_GRID = 2**20
# |Re lambda| above this makes an eigenvalue a growth candidate.
_RE_TRIGGER = 1e-12
_BOUNDARY_MASS_LIMIT = 0.01
# An eigenvalue can leave the imaginary axis only if the energy form
# <L v, v> vanishes on its eigenvector; a decisively nonzero form marks
# the real part as eigensolver noise from a same-signature near-collision.
_KREIN_FORM_TOL = 1e-3
# |<L v, v>| below this on a unit eigenvector leaves its Krein sign undefined.
_KREIN_ZERO_TOL = 1e-10
# Trisection rounds around the best slice of the sweep.
_REFINE_ROUNDS = 3
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
    lo = 1.0 / 1024
    return lo + (0.5 - lo) * np.arange(1, num + 1) / num


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


@dataclass(frozen=True)
class SpectrumSlice:
    """Eigenvalues of the truncated operator at one (a, xi)."""

    xi: float
    a: float
    eigenvalues: np.ndarray
    max_real_part: float
    paired: bool


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
    coupling = toeplitz(col)
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


def _pairing_ok(lam: np.ndarray, tol: float = PAIRING_TOL) -> bool:
    """True when lambda -> -conj(lambda) maps the multiset onto itself.

    That is, some matching of lambda with -conj(lambda) agrees within
    tol*max(1, |lambda|) entry by entry.  Sorted witness, greedy
    fallback: the real solver's output is exactly symmetric, so sorting
    both sides by (imag, real) lines the pairs up and the check costs one
    sort.  Near ties in the imaginary part (complex-solver output) can
    misalign the sorted order; only then does the greedy matcher decide.
    """
    return _sorted_witness(lam, tol) or _greedy_matching(lam, tol)


def _sorted_witness(lam: np.ndarray, tol: float) -> bool:
    """Whether the (imag, real)-sorted lambda and -conj(lambda) agree pairwise."""
    target = -np.conj(lam)
    a = lam[np.lexsort((lam.real, lam.imag))]
    b = target[np.lexsort((target.real, target.imag))]
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a))))


def _greedy_matching(lam: np.ndarray, tol: float) -> bool:
    """Match each lambda to its nearest unused -conj(lambda); O(n^2)."""
    target = -np.conj(lam)
    used = np.zeros(lam.size, dtype=bool)
    for z in lam:
        d = np.abs(target - z)
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol * max(1.0, abs(z)):
            return False
        used[j] = True
    return True


def _boundary_mass(v: np.ndarray, margin: int) -> float:
    p = np.abs(v) ** 2
    total = p.sum()
    if total == 0:
        return 1.0
    return (p[:margin].sum() + p[-margin:].sum()) / total


def _eigenvector(R: np.ndarray, mu: complex) -> np.ndarray:
    """Unit eigenvector of R for its computed eigenvalue mu.

    One step of inverse iteration from (1, ..., 1).  As in LAPACK's
    dlaein, an exactly singular R - mu*I has its shift nudged by
    eps*||R||_inf, which keeps the residual a few eps*||R||_inf.
    """
    eye, ones = np.eye(R.shape[0]), np.ones(R.shape[0])
    try:
        v = np.linalg.solve(R - mu * eye, ones)
    except np.linalg.LinAlgError:
        nudge = np.finfo(float).eps * np.abs(R).sum(axis=1).max()
        v = np.linalg.solve(R - (mu + nudge) * eye, ones)
    return v / np.linalg.norm(v)


def _growth_kept(R: np.ndarray, L: np.ndarray, w: np.ndarray, margin: int) -> np.ndarray:
    """Which eigenvalues i*w of R count toward ``max_real_part``.

    A candidate, |Im w| above _RE_TRIGGER, is dropped when its eigenvector
    mass sits at the truncation boundary, or when its energy form <L v, v>
    is decisively nonzero: a definite form pins the eigenvalue to the
    imaginary axis, so its real part is noise from a same-signature
    near-collision.  LAPACK returns each conjugate pair of the real R
    together, positive imaginary part first; conj(v) is the eigenvector
    of conj(w) and reads the same in both filters, so one solve decides
    the pair.
    """
    keep = np.abs(w.imag) <= _RE_TRIGGER
    for i in np.flatnonzero(w.imag > _RE_TRIGGER):
        v = _eigenvector(R, w[i])
        if _boundary_mass(v, margin) > _BOUNDARY_MASS_LIMIT:
            continue
        form = abs(np.vdot(v, L @ v)) / np.vdot(v, v).real
        if form > _KREIN_FORM_TOL * (1.0 + abs(w[i].real)):
            continue
        keep[i] = keep[i + 1] = True
    return keep


def spectrum_slice(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> SpectrumSlice:
    """Assemble and solve one (a, xi) slice.

    The matrix is i times a real matrix R, so the real eigensolver is
    used, once; its output is exactly symmetric under
    lambda -> -conj(lambda).  Only eigenvalues with a real part above
    trigger get eigenvectors, by inverse iteration, for _growth_kept.
    """
    dispersion.check_xi(xi)
    amp = as_amplitude(a)
    R = _assemble_real(wave, amp, xi, cfg.N)
    w = eigenvalues(R)
    keep = np.abs(w.imag) <= _RE_TRIGGER
    if not keep.all():
        keep = _growth_kept(R, assemble_L_matrix(wave, amp, xi, cfg), w,
                            cfg.boundary_margin)
    lam = 1j * w
    max_re = float(lam.real[keep].max()) + 0.0 if keep.any() else 0.0
    lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=amp.a, eigenvalues=lam,
                         max_real_part=max_re, paired=_pairing_ok(lam))


def _collision_seeds(wave: StokesWave, a, lo: float) -> list[float]:
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
    for pair in dispersion.enumerate_collision_pairs(wave.params.beta, 4, 6):
        if not pair.opposite_krein:
            continue
        for xi0 in dispersion.collision_xi(wave.params, pair.n, pair.m):
            for d in offsets:
                xi = xi0 + d
                if lo < xi <= 0.5:
                    seeds.append(xi)
    return seeds


def _on_axis(wave: StokesWave, a, xis: np.ndarray, N: int) -> np.ndarray:
    """Whether an inertia certificate proves each xi slice free of growth.

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
    is left to the solve.  Vectorised over blocks of _CERTIFY_BLOCK xi
    values.
    """
    c, coupling = _wave_terms(wave, as_amplitude(a).a, N)
    abs_c = np.abs(coupling)
    row_sum = abs_c.sum(axis=1)
    n = np.arange(-N, N + 1)

    def intervals(xi):
        x = n + xi[:, None]
        centre = dispersion.omega(wave.params, c, x)
        s = np.sqrt(np.abs(x))
        radius = s * (s @ abs_c)
        norm = np.max(np.abs(centre) + np.abs(x) * row_sum, axis=1)
        return x, centre, s, radius, norm

    # (a) first, on every slice: each left end, sorted, clears the right
    # end ranked one lower exactly when every cluster is one interval
    certified = np.empty(xis.size, dtype=bool)
    for lo in range(0, xis.size, _CERTIFY_BLOCK):
        _, centre, _, radius, norm = intervals(xis[lo:lo + _CERTIFY_BLOCK])
        certified[lo:lo + _CERTIFY_BLOCK] = np.all(
            np.sort(centre - radius, axis=1)[:, 1:]
            - np.sort(centre + radius, axis=1)[:, :-1]
            >= _CERTIFY_MARGIN * norm[:, None], axis=1)
    # (b) and (c) on the slices left, near a collision
    rest = np.flatnonzero(~certified)
    for lo in range(0, rest.size, _CERTIFY_BLOCK):
        idx = rest[lo:lo + _CERTIFY_BLOCK]
        x, centre, s, radius, norm = intervals(xis[idx])
        # by the same ranking, a cluster starts at each left end, in
        # sorted order, that clears the right end ranked one lower
        width = x.shape[1]
        order = np.argsort(centre - radius, axis=1)
        left = np.take_along_axis(centre - radius, order, axis=1)
        first = np.ones(x.shape, dtype=bool)
        first[:, 1:] = (left[:, 1:] - np.sort(centre + radius, axis=1)[:, :-1]
                        >= _CERTIFY_MARGIN * norm[:, None])
        # clusters as runs of the flattened order: start, size, modes n+xi > 0
        order = (order + width * np.arange(idx.size)[:, None]).ravel()
        start = np.flatnonzero(first)
        size = np.diff(start, append=x.size)
        plus = np.concatenate(([0], np.cumsum(x.ravel()[order] > 0)))
        plus = plus[start + size] - plus[start]
        pair = (size == 2) & (plus == 1)
        # a one-sign cluster passes (b); a mixed one must be a pair
        ok = np.ones(idx.size, dtype=bool)
        ok[start[(plus > 0) & (plus < size) & ~pair] // width] = False
        start = start[pair]
        start = start[ok[start // width]]
        r, p, q = start // width, order[start] % width, order[start + 1] % width
        # (c) on every pair cluster p, q of those slices, at t halfway
        ctr, span = centre[r], np.arange(r.size)
        c_p, c_q = ctr[span, p], ctr[span, q]
        t = 0.5 * (c_p + c_q)
        # H - t*Sigma: the pair's diagonal a and coupling h, its coupling
        # rows b into D, and diag = Delta, the diagonal of D
        diag = np.sign(x[r]) * (ctr - t[:, None])
        a_p, a_q = diag[span, p], diag[span, q]
        bp = s[r, p, None] * coupling[p] * s[r]
        bq = s[r, q, None] * coupling[q] * s[r]
        h = bp[span, q]
        for row in (bp, bq):
            row[span, p] = row[span, q] = 0.0
        diag[span, p] = diag[span, q] = np.inf
        abs_p, abs_q = np.abs(bp), np.abs(bq)
        rho = radius[r] - abs_p - abs_q
        delta = (np.abs(diag) - rho).min(axis=1)
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
            rnd = (width + 16) * np.finfo(float).eps
            e_pp = f_p * pinf + rnd * (np.abs(a_p) + np.sum(abs_p * abs_up, axis=1))
            e_qq = f_q * qinf + rnd * (np.abs(a_q) + np.sum(abs_q * abs_uq, axis=1))
            e_pq = (np.minimum(f_p * qinf, f_q * pinf)
                    + rnd * (np.abs(h) + np.sum(abs_p * abs_uq, axis=1)))
            d_p, d_q = np.abs(s_pp) - e_pp, np.abs(s_qq) - e_qq
            coupled = np.abs(s_pq) + e_pq
            eta = _SOLVE_NOISE * norm[r]
            margin = eta * (np.abs(c_p - c_q) + 2.0 * coupled + eta)
            det = d_p * d_q - coupled**2
        ok[r[~((delta > 0) & (s_pp * s_qq > 0) & (d_p > 0) & (d_q > 0)
               & (det > margin))]] = False
        certified[idx] = ok
    return certified


def max_growth(wave: StokesWave, a,
               cfg: TruncationConfig) -> tuple[float, float, SpectrumSlice]:
    """Maximize max_real_part over the xi sweep, with trisection refinement.

    Returns (xi_star, growth, slice at xi_star).  The uniform grid is
    augmented with collision-seeded candidates (see _collision_seeds):
    high-frequency bubbles can be far narrower than any practical
    uniform grid spacing, but they sit at the analytically known
    collision points.  The trisection then narrows the bracket around
    the best evaluated point.

    Only slices that may grow are solved.  A slice that _on_axis
    certifies has every eigenvalue on the imaginary axis: by an inertia
    count, each cluster of overlapping Gershgorin intervals (one mode,
    modes of one sign, or a pair of opposite sign held apart by its
    Schur complement) holds only real eigenvalues of the real Bloch
    matrix.  It scores exactly 0.0, the value its solve would give,
    without a solve.  Growth can appear only where a colliding pair of
    opposite sign is not held apart, or in a larger mixed cluster.  The
    first maximiser still wins ties, and the returned slice is always
    solved.
    """
    grid = np.unique(np.concatenate([
        cfg.grid(), np.asarray(_collision_seeds(wave, a, lo=1.0 / 1024))
    ]))
    growth, solved = _growth(wave, a, grid, cfg)
    i = int(np.argmax(growth))
    best_xi, best_growth, best = grid[i], growth[i], solved.get(i)
    lo = grid[i - 1] if i > 0 else grid[0]
    hi = grid[i + 1] if i + 1 < grid.size else grid[-1]
    for _ in range(_REFINE_ROUNDS):
        t = np.array([lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0])
        g, s = _growth(wave, a, t, cfg)
        for j in (0, 1):
            if g[j] > best_growth:
                best_xi, best_growth, best = t[j], g[j], s.get(j)
        if g[0] >= g[1]:
            hi = t[1]
        else:
            lo = t[0]
    if best is None:
        best = spectrum_slice(wave, a, best_xi, cfg)
    return best.xi, best.max_real_part, best


def _growth(wave: StokesWave, a, xis: np.ndarray,
            cfg: TruncationConfig) -> tuple[np.ndarray, dict[int, SpectrumSlice]]:
    """max_real_part at each xi, and the solved slices by index.

    Slices that _on_axis certifies score 0.0 and are not solved.
    """
    growth = np.zeros(xis.size)
    solved = {}
    for i in np.flatnonzero(~_on_axis(wave, a, xis, cfg.N)):
        solved[i] = spectrum_slice(wave, a, xis[i], cfg)
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
