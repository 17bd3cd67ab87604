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
statistics.
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
# |Re lambda| above this triggers the eigenvector-based filters.
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


def spectrum_slice(wave: StokesWave, a, xi: float, cfg: TruncationConfig) -> SpectrumSlice:
    """Assemble and solve one (a, xi) slice.

    The matrix is i times a real matrix, so the real eigensolver is used;
    its output is exactly symmetric under lambda -> -conj(lambda).
    Eigenvectors are only computed when some eigenvalue has a real part
    above trigger; those candidates are dropped from ``max_real_part``
    when their eigenvector mass sits at the truncation boundary or when
    their energy form <L v, v> is decisively nonzero (a definite form
    pins the true eigenvalue to the imaginary axis, so the real part is
    noise from a same-signature near-collision).
    """
    dispersion.check_xi(xi)
    amp = as_amplitude(a)
    R = _assemble_real(wave, amp, xi, cfg.N)
    lam = 1j * eigenvalues(R)

    re = lam.real
    if np.any(np.abs(re) > _RE_TRIGGER):
        w, V = np.linalg.eig(R)
        lam = 1j * w
        re = lam.real
        L = assemble_L_matrix(wave, amp, xi, cfg)
        keep = np.abs(re) <= _RE_TRIGGER
        for i in np.flatnonzero(~keep):
            v = V[:, i]
            if _boundary_mass(v, cfg.boundary_margin) > _BOUNDARY_MASS_LIMIT:
                continue
            form = abs(np.vdot(v, L @ v)) / np.vdot(v, v).real
            if form > _KREIN_FORM_TOL * (1.0 + abs(lam[i].imag)):
                continue
            keep[i] = True
        max_re = float(re[keep].max()) + 0.0 if keep.any() else 0.0
    else:
        max_re = float(re.max()) + 0.0

    order = np.lexsort((lam.real, lam.imag))
    lam = lam[order]
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


def max_growth(wave: StokesWave, a,
               cfg: TruncationConfig) -> tuple[float, float, SpectrumSlice]:
    """Maximize max_real_part over the xi sweep, with trisection refinement.

    Returns (xi_star, growth, slice at xi_star).  The uniform grid is
    augmented with collision-seeded candidates (see _collision_seeds):
    high-frequency bubbles can be far narrower than any practical
    uniform grid spacing, but they sit at the analytically known
    collision points.  The trisection then narrows the bracket around
    the best evaluated point.
    """
    grid = np.unique(np.concatenate([
        cfg.grid(), np.asarray(_collision_seeds(wave, a, lo=1.0 / 1024))
    ]))
    slices = [spectrum_slice(wave, a, t, cfg) for t in grid]
    best = max(slices, key=lambda s: s.max_real_part)
    i = slices.index(best)
    lo = grid[i - 1] if i > 0 else grid[0]
    hi = grid[i + 1] if i + 1 < grid.size else grid[-1]
    for _ in range(_REFINE_ROUNDS):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        s1 = spectrum_slice(wave, a, t1, cfg)
        s2 = spectrum_slice(wave, a, t2, cfg)
        for s in (s1, s2):
            if s.max_real_part > best.max_real_part:
                best = s
        if s1.max_real_part >= s2.max_real_part:
            hi = t2
        else:
            lo = t1
    return best.xi, best.max_real_part, best


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
