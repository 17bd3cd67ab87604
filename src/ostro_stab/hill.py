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
solved once, and the clusters left open alone decide which growth counts:
any eigenvalue off the imaginary axis, however small its real part, whose
frequency lies in an open cluster without one of the boundary_margin
modes next to +-N.  A sweep solves such a slice on a window of those
clusters' modes only, two coupling-band widths wider on each side, and a
residual guard in the whole matrix vouches for each eigenvalue that
counts; a single slice query solves all 2N+1 modes.  One builder,
_block, assembles every block of R these solves read: all 2N+1 modes,
a window and the band rows next to it, and the seeds' pair windows
(see _bubble_seeds), stacked one per pair.
The guard's scale is the slice's ||R||_inf, which the certificate
computes once for its cluster gap and which the open clusters carry, so
a window solve does no O(N) work.  The window solver, _solve_window,
solves one open slice; a sweep builds a SpectrumSlice only for the slice
it returns.
Slice by slice, the certificate looks only at the modes that can meet a
mode of the other sign: over each block of xi values, a hull of every
mode's interval proves the others apart on the whole block.

A sweep looks at the uniform grid on (1/1024, 1/2] and at the seeds
where the wave's bubbles peak: the root of each opposite-Krein pair's
effective 2x2 detuning, and the modulational peak xi*, when these lie on
(1/1024, 1/2].  It certifies all of those xi values in one pass, solves
the open ones once each and returns the largest growth; a certified
maximiser is not solved.

The real solver returns exact conjugate pairs, so every solved spectrum
is exactly symmetric under lambda -> -conj(lambda); a slice's
``paired`` flag checks that bit for bit, with no tolerance.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import dispersion, stokes
from .errors import ConvergenceFailure
from .stokes import StokesWave

__all__ = [
    "TruncationConfig",
    "SpectrumSlice",
    "assemble_matrix",
    "assemble_L_matrix",
    "eigenvalues",
    "spectrum_slice",
    "max_growth",
]

# Largest matrix dimension 2N+1 the truncation may ask for.
MAX_DIM = 10_000
# Largest number of points of the default xi grid.
MAX_XI_GRID = 2**20
# Largest number of (block, mode) entries, (2N+1)*ceil(xi_grid/64), of a
# sweep's certificate hull stage, which holds them all at once: about 130
# traced bytes each at N >= 200, so about 0.55 GB at the bound.
MAX_HULL_ENTRIES = 2**22
# Left end of the xi sweep, excluded from it.
_XI_LO = 1.0 / 1024
# Secant steps of each pair's root search (see _bubble_seeds).
_ROOT_STEPS = 4
# xi values per certificate block, over which each mode gets one hull.
_CERTIFY_BLOCK = 64
# Entries per chunk of the certificate's slice-by-slice stage, over the modes
# it reads: one chunk for a sweep's grid at N = 32, bounded chunks for a
# large grid.
_CERTIFY_ENTRIES = 2**17
# Least gap between clusters of Gershgorin intervals, relative to
# ||R||_inf, for a slice to count as certified: the one share of rounding
# the analytic layer also decides its zeros by.
_CERTIFY_MARGIN = stokes._ROUNDING
# Bound, relative to ||R||_inf, on the entries of the real perturbation
# that the eigensolver's output is exact for, as a colliding pair sees it.
_SOLVE_NOISE = 1e3 * _CERTIFY_MARGIN


def _check_grid_size(num: int) -> None:
    if not isinstance(num, numbers.Integral):
        raise ValueError(f"xi grid size {num!r} is not an integer")
    if not 1 <= num <= MAX_XI_GRID:
        raise ValueError(f"xi grid size {num} not in [1, {MAX_XI_GRID}]")


def default_xi_grid(num: int) -> np.ndarray:
    """Uniform xi grid on (1/1024, 1/2], left endpoint excluded.

    (1/1024, 1/2] is the sweep's domain: max_growth looks at this grid
    and at the seeds of _bubble_seeds inside it.  The grid finds growth
    that no seed predicts; a bubble narrower than its spacing is found at
    its seed.  A modulational peak xi* below 1/1024 lies outside the
    domain, and the sweep reports only the flank of its bubble that
    reaches into it, if any.
    """
    _check_grid_size(num)
    return _XI_LO + (0.5 - _XI_LO) * np.arange(1, num + 1) / num


@dataclass(frozen=True)
class TruncationConfig:
    """Fourier truncation -N..N and the size of the xi sweep grid.

    ``xi_grid`` is the number of points of ``default_xi_grid``, which
    ``grid()`` builds on demand; a single slice never builds it.  The
    ``boundary_margin`` modes next to +-N are considered contaminated by
    truncation and are ignored when attributing growth.  Each size must
    be an integer, a numpy integer included, and is bounded at
    construction, before any work: 2N+1 <= MAX_DIM and xi_grid <=
    MAX_XI_GRID.  The bound on the pair, which only a sweep needs, is
    checked where the sweep starts (see max_growth).
    """

    N: int = 32
    xi_grid: int = 512
    boundary_margin: ClassVar[int] = 4

    def __post_init__(self):
        if not isinstance(self.N, numbers.Integral):
            raise ValueError(f"N = {self.N!r} is not an integer")
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
    line, its modes n, whether one is within boundary_margin of +-N, and
    its slice's ||R||_inf, which the certificate computed (see _on_axis)
    and the window solve's residual guard reads (see _solve_window)."""

    lo: float
    hi: float
    modes: tuple[int, ...]
    boundary: bool
    norm: float


@dataclass(frozen=True, eq=False)
class SpectrumSlice:
    """Eigenvalues of the truncated operator at one (a, xi), compared by
    identity: all 2N+1 of them, or, for a slice a sweep solved on a window,
    the window's (see _solve_window).  ``growth_clusters`` are the open
    clusters that hold a growth candidate, an eigenvalue off the imaginary
    axis however small its real part; it counts unless the cluster holds a
    boundary mode.  ``max_real_part`` is the largest counted real part, or
    0.0."""

    xi: float
    a: float
    eigenvalues: np.ndarray
    max_real_part: float
    paired: bool
    growth_clusters: tuple[Cluster, ...] = ()


@functools.lru_cache(maxsize=1)
def _wave_terms(wave: StokesWave, a: float,
                N: int) -> tuple[float, np.ndarray, np.ndarray, int]:
    """The xi-independent parts of one wave's matrices: speed c, the
    coupling's first column col, its row sums and its band width.

    The coupling C is the off-diagonal part of L, a symmetric Toeplitz
    matrix with -2*k^2*w_hat bands; the exponential Fourier coefficients
    of w are half its cosine amplitudes, w_hat(+-j) = W_j / 2.  It is kept
    as its bands only: C_nm = col[|n-m|], zero past |n-m| = 4 (see
    _coupling), the last nonzero at the band width.  row_sum_n =
    sum_m |C_nm| (see _abs_times), so that row n of R sums to
    |omega(n+xi)| + |n+xi|*row_sum_n in absolute value.  A sweep builds
    them once, on its first slice, in O(N); both arrays are read-only
    because every later slice of the same (wave, a, N) shares them.
    """
    k2 = wave.params.k**2
    col = np.zeros(2 * N + 1)
    for j, Wj in enumerate(stokes.harmonic_amplitudes(wave, a), start=1):
        col[j] = -2.0 * k2 * (Wj / 2.0)
    row_sum = _abs_times(col, np.ones(2 * N + 1))
    col.flags.writeable = row_sum.flags.writeable = False
    band = int(np.flatnonzero(col).max(initial=0))
    return stokes.eval_speed(wave, a), col, row_sum, band


def _coupling(col: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The block C[rows, cols] of the coupling whose first column is col,
    one block per leading index of rows and cols."""
    return col[np.abs(rows[..., :, None] - cols[..., None, :])]


def _block(wave: StokesWave, a, xi, N: int, rows: np.ndarray,
           cols: np.ndarray | None = None) -> np.ndarray:
    """The block R[rows, cols] of the real Bloch matrix at xi, rows and
    cols arrays of mode indices in -N..N; R is the one this module
    solves, the truncated operator being i*R.

    Row n, column m: (n+xi)*C_nm, C the coupling (see _wave_terms), and
    omega(n+xi) on the diagonal.  Leading axes of rows, cols and xi
    broadcast, one block each: _bubble_seeds stacks one run of modes per
    pair, each at its own xi.  cols defaults to rows.  The rows must
    start with the modes of cols, in order, and share no other mode with
    them (a window solve appends the band rows to its window), so that
    omega is placed on the diagonal by index.  Any xi with n+xi != 0 is
    accepted.
    """
    c, col, _, _ = _wave_terms(wave, a, N)
    cols = rows if cols is None else cols
    x = rows + np.asarray(xi)[..., None]
    R = x[..., :, None] * _coupling(col, rows, cols)
    d = np.arange(cols.shape[-1])
    R[..., d, d] = dispersion.omega(wave.params, c, x[..., :d.size])
    return R


def _abs_times(col: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|C| v along the last axis of v, C the coupling whose first column is
    col, as a sum over the nonzero bands of col."""
    out = np.zeros(v.shape)
    for d in np.flatnonzero(col):
        out[..., d:] += abs(col[d]) * v[..., :-d]
        out[..., :-d] += abs(col[d]) * v[..., d:]
    return out


def assemble_L_matrix(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> np.ndarray:
    """Self-adjoint factor L, truncated to modes -N..N.

    Diagonal k^2*(c - beta*k^2*(n+xi)^2) - gamma/(n+xi)^2, off-diagonal
    -2*k^2*w_hat(n-m).  Real symmetric, returned as a float array.
    """
    dispersion.check_xi(xi)
    beta, gamma, k = wave.params.beta, wave.params.gamma, wave.params.k
    k2 = k**2
    c, col, _, _ = _wave_terms(wave, a, cfg.N)
    i = np.arange(2 * cfg.N + 1)
    x = i - cfg.N + xi
    L = _coupling(col, i, i)
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
    return _block(wave, a, xi, N, np.arange(-N, N + 1))


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense square matrix (backward-stable solve).

    The Hill layer passes the real R, whose complex eigenvalues the real
    solver returns as exact conjugate pairs.
    """
    return _solve(np.linalg.eigvals, matrix)


def _solve(solver, matrix: np.ndarray):
    """``solver`` (np.linalg.eigvals or np.linalg.eig) on a finite square
    matrix of at most MAX_DIM rows; LAPACK's failure is a
    ConvergenceFailure.  A matrix that overflowed to inf or holds NaN is
    refused before LAPACK runs, as bad input, not an internal failure."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if matrix.shape[0] > MAX_DIM:
        raise ValueError(f"matrix dimension exceeds the {MAX_DIM} guard")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    try:
        return solver(matrix)
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


def spectrum_slice(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> SpectrumSlice:
    """Assemble and solve one (a, xi) slice on all 2N+1 modes.

    The matrix is i times a real matrix R, so the real eigensolver is
    used; its output is exactly symmetric under lambda -> -conj(lambda),
    which ``paired`` checks exactly on the (imag, real)-sorted
    eigenvalues.  A growth candidate i*w, any eigenvalue off the imaginary
    axis (Im w != 0; the real solver returns each real w with an imaginary
    part of exactly 0.0), counts only when Re w lies in the span of an open
    cluster without a boundary mode (see _on_axis): outside every open span
    the certificate proved it real, so its real part is solver noise; in a
    boundary cluster it is a truncation artifact.  _on_axis is asked for
    the open clusters on this xi alone, only when there is a candidate.
    """
    dispersion.check_xi(xi)
    w = eigenvalues(_assemble_real(wave, a, xi, cfg.N))
    clusters = ()
    if np.any(w.imag):
        clusters = _on_axis(wave, a, np.array([xi], dtype=float), cfg.N)[0]
    counted, grown = _attribute(w, clusters)
    return _built(xi, a, _score(w, counted), w, grown)


def _solve_window(wave: StokesWave, a: float, xi: float, clusters: tuple[Cluster, ...],
                  N: int) -> tuple[float, np.ndarray, tuple[Cluster, ...]]:
    """An open slice's max_real_part, the eigenvalues w of R it was solved
    for (i*w are the slice's) and its growth clusters.

    The slice is solved on the window of its open ``clusters``: the modes
    of the clusters without a boundary mode, widened on each side by two
    widths of the coupling band and clipped to -N..N.  It is assembled
    (see _block) only on the window's columns, on its rows and on the
    band rows next to it (rest; no other row reaches them), and solved by
    np.linalg.eig.  Each counted eigenpair (mu, v), v of unit norm, must
    pass a residual guard in R:
    ||R[rest, window] v||_2 <= _CERTIFY_MARGIN*||R||_inf, ||R||_inf the
    norm the certificate computed for the slice, which its clusters carry
    (see Cluster); so no step of a window solve is O(N).  Then mu is an
    exact eigenvalue of R + E, ||E||_2 at most the window's backward
    error plus that bound, inside the noise _on_axis allows the solve.  A
    window of all 2N+1 modes takes the same path, with no rows left for
    the guard to check; only a slice that fails the guard is solved, for
    eigenvalues only, on all 2N+1 modes.  A window
    slice holds the window's eigenvalues, and its growth clusters only the
    clusters that hold one of them; when every open cluster holds a
    boundary mode, nothing can count, the window is empty and the slice
    scores 0.0 unsolved.
    """
    band = _wave_terms(wave, a, N)[3]
    modes = [n for cl in clusters if not cl.boundary for n in cl.modes]
    if not modes:
        return 0.0, np.empty(0), ()
    lo, hi = max(min(modes) - 2 * band, -N), min(max(modes) + 2 * band, N)
    window = np.arange(lo, hi + 1)
    # the window's rows, then the band rows around it, which hold every
    # other nonzero of its columns
    rows = [window, np.arange(max(lo - band, -N), lo),
            np.arange(hi + 1, min(hi + band, N) + 1)]
    R = _block(wave, a, xi, N, np.concatenate(rows), window)
    w, v = _solve(np.linalg.eig, R[:window.size])
    counted, grown = _attribute(w, clusters)
    residual = np.linalg.norm(R[window.size:] @ v[:, counted], axis=0)
    if not np.all(residual <= _CERTIFY_MARGIN * clusters[0].norm):
        w = eigenvalues(_assemble_real(wave, a, xi, N))
        counted, grown = _attribute(w, clusters)
    return _score(w, counted), w, grown


def _score(w: np.ndarray, counted: np.ndarray) -> float:
    """max_real_part of the slice i*w: the largest Re(i*w) = -Im w over
    the counted candidates, which come in conjugate pairs, or 0.0 when
    none counts."""
    return float(-w.imag[counted].min()) if counted.any() else 0.0


def _built(xi: float, a: float, growth: float, w: np.ndarray,
           grown: tuple[Cluster, ...]) -> SpectrumSlice:
    """The SpectrumSlice of eigenvalues i*w, sorted by (imag, real)."""
    lam = 1j * w
    lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=float(a), eigenvalues=lam, max_real_part=growth,
                         paired=_pairing_ok(lam), growth_clusters=grown)


def _attribute(w: np.ndarray,
               clusters: tuple[Cluster, ...]) -> tuple[np.ndarray, tuple[Cluster, ...]]:
    """Which growth candidates count, and the clusters that hold one.

    A candidate, an eigenvalue with Im w != 0, belongs to the cluster whose
    span holds Re w, and counts unless that cluster holds a boundary mode.
    """
    candidate = w.imag != 0
    counted = np.zeros(w.size, dtype=bool)
    grown = []
    if candidate.any():
        for c in clusters:
            held = candidate & (c.lo <= w.real) & (w.real <= c.hi)
            if held.any():
                grown.append(c)
                if not c.boundary:
                    counted |= held
    return counted, tuple(grown)


def _bubble_seeds(wave: StokesWave, a: float, N: int) -> np.ndarray:
    """The xi in (1/1024, 1/2] where this wave's instability bubbles peak.

    A high-frequency bubble of an opposite-Krein pair {n, m} peaks where
    the pair's effective 2x2 is tuned (Deconinck & Trichtchenko 2017): at
    the root of the detuning M_nn - M_mm of the Feshbach complement
    M(t) = A - B (D - t)^-1 C of R onto the pair, R on a window of the
    pair's modes widened on each side by two widths of the coupling band,
    as a window solve is (see _solve_window), and clipped to -N..N (a run
    of equal length for every pair, ordered n, m and then the rest, so
    that each step builds the pairs' blocks of R, each at its own xi, in
    one _block call and solves them in one stacked solve; at a = 0 the
    band is 0 and M is A).  Each collision
    xi0 of collision_xi starts a Newton step on the unperturbed slope
    omega'(n+xi) - omega'(m+xi), then _ROOT_STEPS secant steps; t is the
    mean of R_nn and R_mm at xi0, then the mean of M's diagonal at the
    step before.  The modulational bubble of the +-1 modes peaks at
    xi* = a*sqrt(2|c2|/(k|omega''(k)|)), omega''(k) = 6*beta*k + 2*gamma/k^3,
    when omega''(k)*c2 < 0 (Lighthill 1965).  A seed only chooses where
    the sweep looks: its growth is that of its certified window solve.

    The pairs seeded are the ten {n, m} with n <= -1 < 0 <= m and
    m - n <= 4, as far as the wave's four harmonics couple two modes
    directly.  n + xi and m + xi differ in sign on (0, 1/2], so every
    collision of such a pair, for either sign of beta, is opposite-Krein,
    and collision_xi's closed form alone decides which of them collide at
    this k, and where.
    """
    params, k = wave.params, wave.params.k
    curv = 6.0 * params.beta * k + 2.0 * params.gamma / k**3
    seeds = []
    if curv * wave.c2 < 0:
        seeds.append(abs(a) * np.sqrt(2.0 * abs(wave.c2) / (k * abs(curv))))
    found = [(n, n + dn, xi0) for dn in range(1, 5) for n in range(-dn, 0)
             for xi0 in dispersion.collision_xi(params, n, n + dn)]
    if found:
        n, m, xi = (np.array(v) for v in zip(*found))
        c, _, _, band = _wave_terms(wave, a, N)
        # each pair's window: n, m, then the rest of the run
        size = min(2 * N + 1, 4 * band + 1 + int((m - n).max()))
        run = np.clip(n - 2 * band, -N, N + 1 - size)[:, None] + np.arange(size)
        rest = run[(run != n[:, None]) & (run != m[:, None])].reshape(n.size, size - 2)
        modes = np.column_stack([n, m, rest])
        eye = np.eye(size - 2)

        def detuning(xi, t):
            R = _block(wave, a, xi, N, modes)
            M = R[:, :2, :2] - R[:, :2, 2:] @ np.linalg.solve(
                R[:, 2:, 2:] - t[:, None, None] * eye, R[:, 2:, :2])
            return M[:, 0, 0] - M[:, 1, 1], 0.5 * (M[:, 0, 0] + M[:, 1, 1])

        # omega'(x) but its term k^2*c, which the slope's difference drops
        x = np.stack([n + xi, m + xi])
        dw = params.gamma / x**2 - 3.0 * params.beta * k**4 * x**2
        f, t = detuning(xi, dispersion.omega(params, c, x).mean(axis=0))

        def moved(xi, step):
            # a step that is not finite has converged or stalled; xi in
            # (0, 1) keeps every n+xi off the pole of omega at 0
            return np.clip(np.where(np.isfinite(step), xi - step, xi),
                           _XI_LO / 2, 1 - _XI_LO / 2)

        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / (dw[0] - dw[1])
            for _ in range(_ROOT_STEPS):
                new = moved(xi, step)
                f_new, t = detuning(new, t)
                step, xi, f = f_new * (new - xi) / (f_new - f), new, f_new
            seeds += moved(xi, step).tolist()
    seeds = np.array(seeds)
    return seeds[(_XI_LO < seeds) & (seeds <= 0.5)]


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


def _hulls(params: stokes.PhysicalParams, c: float, col: np.ndarray,
           row_sum: np.ndarray, n: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Bounds over xi in [lo, hi] on each mode's Gershgorin interval.

    One row per span, on the coupling's bands col and row sums (see
    _wave_terms).  Returns the hull ends (left, right), and lower and
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
    radius = s * _abs_times(col, s)
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


def _on_axis(wave: StokesWave, a, xis: np.ndarray, N: int) -> list[tuple[Cluster, ...]]:
    """Each xi slice's clusters that an inertia certificate leaves open; a
    slice without one is proven free of growth.

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
    imaginary axis.  A solve of all 2N+1 modes must find that too.  It is
    backward stable but does not keep the pencil structure: it solves a
    real perturbation of R whose entries, as the pair sees them, are
    bounded by eta = _SOLVE_NOISE*||R||_inf (1e3 times the cluster gap,
    room for the backward-error constant of the dimension and the
    |X|^{1/2} scaling).  A sweep solves an open slice on a window of R
    only (see _solve_window).  There an eigenvalue counts only when the
    residual of its eigenvector in R, beyond the window solve's own
    backward error, is at most _CERTIFY_MARGIN*||R||_inf, so it too is
    exact for a perturbation of R inside eta; the window's eigenvalues in
    certified clusters do not count, whatever their rounding.
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
    slice by slice.  The ascending xi values are taken in blocks of
    _CERTIFY_BLOCK, each spanning [lo, hi] from its first xi to the next
    block's first, so the spans tile [xis[0], xis[-1]].  Over a block's
    span, mode n gets a hull that holds its interval on every xi of the
    span.  Its centre omega(x), x in
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
    whose upper bound reaches the largest lower bound of its block: they
    hold the largest term, so this is the norm over all 2N+1 modes, bit
    for bit.  Rule
    (c) reads rows and diagonal on the window and the modes coupled to it,
    which hold every nonzero of b_p and b_q.  Any other mode m has
    rho_m = r_m, so its row dominance |omega_m - t| - r_m is the signed
    distance of t from its interval, at least the signed distance
    max(left_m - t, t - right_m) from its hull.  That bound stands in for
    it in delta, which can only make delta smaller and (c) stricter.  The
    pair's hull cluster is mixed, so all of its modes are window modes,
    and t lies inside it; every other mode's hull lies wholly below or
    wholly above it.  So the least of those bounds is
    min(above - t, t - below), above the least left end of the hulls
    above the cluster and below the largest right end of those below it,
    the same float (rounding is monotone); both are held per block and
    mode, so the bound costs O(1) per pair.

    The xi values must be ascending, or a block's span would miss xi
    values of its own block, whose slices its hulls would then certify
    unsoundly; _on_axis refuses any other order.  A span still reaches
    the next block's first xi, past its own last one, although no slice
    between the two is asked for: a shorter span could only tighten the
    hulls, and would change which slices are certified.

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
    _CERTIFY_ENTRIES entries over those modes, a fixed budget: a sweep's
    grid at N = 32 is one chunk, while a grid of MAX_XI_GRID points at
    large N is cut into chunks of bounded memory.  The hull stage's
    (blocks, 2N+1) arrays are held whole; max_growth bounds their entries
    by MAX_HULL_ENTRIES before a sweep starts, and a single slice's pass
    has one block.
    """
    if np.any(xis[1:] < xis[:-1]):
        raise ValueError("the certificate's xi values must be ascending")
    c, col, row_sum, _ = _wave_terms(wave, a, N)
    n = np.arange(-N, N + 1)
    # each block's hulls, and its window: the modes of its hull clusters
    # that hold modes of both signs of n+xi
    first = np.arange(0, xis.size, _CERTIFY_BLOCK)
    lo, hi = xis[first], xis[np.minimum(first + _CERTIFY_BLOCK, xis.size - 1)]
    left, right, norm_lo, norm_hi = _hulls(wave.params, c, col, row_sum, n, lo, hi)
    order, _, size, (plus, minus) = _runs(
        left, right, _CERTIFY_MARGIN * norm_hi.max(axis=1),
        n + hi[:, None] > 0, n + lo[:, None] < 0)
    windows = np.empty(left.shape, dtype=bool)
    windows.ravel()[order] = np.repeat((plus > 0) & (minus > 0), size)
    busy = windows.any(axis=1)
    # the slices of the blocks with a window; the others are certified by
    # their blocks' hulls
    rows = np.flatnonzero(busy.repeat(_CERTIFY_BLOCK)[:xis.size])
    if not rows.size:
        return [()] * xis.size
    # slice by slice: the windows and the modes coupled to them (ext), the
    # modes coupled to those (for their radii), and the modes whose terms
    # can be the largest of ||R||_inf
    window = windows[busy].any(axis=0)
    ext = window | (_abs_times(col, window) > 0)
    top = (norm_hi >= norm_lo.max(axis=1, keepdims=True))[busy].any(axis=0)
    modes = np.flatnonzero(ext | (_abs_times(col, ext) > 0) | top)
    e = np.flatnonzero(ext[modes])
    ext_modes = modes[e]
    win = np.flatnonzero(window[ext_modes])
    row_sum, top = row_sum[modes], top[modes]
    to_ext = np.abs(_coupling(col, modes, ext_modes))
    # in each block's order of left ends, the running max of the right ends
    # and, from the end, the running min of the left ends of the modes past
    # ext: at a mode of a hull cluster without such modes, the nearest hull
    # end past ext below and above the cluster
    ranked = order.reshape(left.shape)
    far = ~ext[ranked % n.size]
    below, above = np.empty(left.shape), np.empty(left.shape)
    below.ravel()[order] = np.maximum.accumulate(
        np.where(far, right.ravel()[ranked], -np.inf), axis=1).ravel()
    above.ravel()[order] = np.minimum.accumulate(
        np.where(far, left.ravel()[ranked], np.inf)[:, ::-1], axis=1)[:, ::-1].ravel()
    below, above = below[:, ext], above[:, ext]
    # free the hull stage's (blocks, 2N+1) arrays before the slice stage
    # allocates its own
    del left, right, norm_lo, norm_hi, order, windows, ranked, far
    clusters = [()] * xis.size
    width = win.size
    step = max(1, _CERTIFY_ENTRIES // modes.size)
    edge = N - TruncationConfig.boundary_margin
    for j in range(0, rows.size, step):
        idx = rows[j:j + step]
        x = (modes - N) + xis[idx, None]
        centre = dispersion.omega(wave.params, c, x)
        s = np.sqrt(np.abs(x))
        norm = np.max((np.abs(centre) + np.abs(x) * row_sum)[:, top], axis=1)
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
        bp = s[r, p, None] * _coupling(col, ext_modes[p], ext_modes) * s[r]
        bq = s[r, q, None] * _coupling(col, ext_modes[q], ext_modes) * s[r]
        h = bp[span, q]
        for row in (bp, bq):
            row[span, p] = row[span, q] = 0.0
        diag[span, p] = diag[span, q] = np.inf
        abs_p, abs_q = np.abs(bp), np.abs(bq)
        rho = radius[r] - abs_p - abs_q
        # the modes past ext enter delta by their hulls' distance from t
        b = idx[r] // _CERTIFY_BLOCK
        delta = np.minimum((np.abs(diag) - rho).min(axis=1),
                           np.minimum(above[b, p] - t, t - below[b, p]))
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
            rnd = (2 * N + 17) * np.finfo(float).eps
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
        # each open cluster: its span, widened by half the gap, and its modes
        lo_end = lft.ravel()[order[head]] - gap[k] / 2
        hi_end = np.maximum.reduceat(rgt.ravel()[order], start)[runs] + gap[k] / 2
        mode_n = (ext_modes[win] - N)[order % width].tolist()
        for i, j, z, lo_j, hi_j, norm_i in zip(*(v.tolist() for v in (
                idx[k], head, size[runs], lo_end, hi_end, norm[k]))):
            ns = tuple(sorted(mode_n[j:j + z]))
            clusters[i] += (Cluster(lo_j, hi_j, ns, max(map(abs, ns)) > edge, norm_i),)
    return clusters


def max_growth(wave: StokesWave, a,
               cfg: TruncationConfig) -> tuple[float, float, SpectrumSlice | None]:
    """Maximize max_real_part over the xi sweep: the grid and the seeds.

    Returns (xi_star, growth, slice at xi_star), the slice None when the
    maximiser was certified and so not solved; of equal growths the least
    xi wins.  A solved slice holds the eigenvalues of its window, not all
    2N+1 (see _solve_window).  The uniform grid (see default_xi_grid) is
    joined by the seeds of _bubble_seeds: high-frequency bubbles can be
    far narrower than any practical grid spacing, and the modulational one
    can peak below the grid's first point, but each peaks at its seed.
    The seeds only choose where to look; every growth is that of a
    certified, guarded window solve.

    Only slices that may grow are solved.  A slice that _on_axis
    certifies has every eigenvalue on the imaginary axis: by an inertia
    count, each cluster of overlapping Gershgorin intervals (one mode,
    modes of one sign, or a pair of opposite sign held apart by its
    Schur complement) holds only real eigenvalues of the real Bloch
    matrix.  It scores exactly 0.0, the value its solve would give,
    without a solve.  Growth can appear only where a colliding pair of
    opposite sign is not held apart, or in a larger mixed cluster; each
    solved slice gets those clusters, which decide what growth counts
    and which window of modes is solved (see _solve_window).  The grid
    and the seeds, sorted, are certified in one _on_axis pass; each open
    slice is solved once, and only the returned one is built as a
    SpectrumSlice.

    That pass holds 2N+1 hull entries per block of 64 xi values at once
    (see _on_axis), so a cfg with (2N+1)*ceil(xi_grid/64) above
    MAX_HULL_ENTRIES is refused with ValueError before any work.
    """
    entries = (2 * cfg.N + 1) * -(-cfg.xi_grid // _CERTIFY_BLOCK)
    if entries > MAX_HULL_ENTRIES:
        raise ValueError(f"(2N+1)*ceil(xi_grid/{_CERTIFY_BLOCK}) = {entries} "
                         f"exceeds the {MAX_HULL_ENTRIES} hull-entry guard")
    xis = np.unique(np.concatenate([cfg.grid(), _bubble_seeds(wave, a, cfg.N)]))
    solved = {i: _solve_window(wave, a, xis[i], cl, cfg.N)
              for i, cl in enumerate(_on_axis(wave, a, xis, cfg.N)) if cl}
    growth = np.zeros(xis.size)
    growth[list(solved)] = [g for g, _, _ in solved.values()]
    i = int(np.argmax(growth))
    return float(xis[i]), float(growth[i]), None if i not in solved else _built(
        xis[i], a, *solved[i])
