import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig, toeplitz
from scipy.optimize import minimize_scalar

from ostro_stab import (
    ConvergenceFailure,
    PhysicalParams,
    ResonantWavenumber,
    TruncationConfig,
    XiOutOfRange,
    assemble_L_matrix,
    assemble_matrix,
    collision_xi,
    default_xi_grid,
    eigenvalues,
    enumerate_collision_pairs,
    eval_speed,
    harmonic_amplitudes,
    hill,
    krein_signature,
    max_growth,
    omega,
    phase_speed_c0,
    predicted_growth_rate,
    reduced_pencil,
    spectrum_slice,
    stokes_coefficients,
)
from ostro_stab.hill import (
    _CERTIFY_BLOCK,
    _CERTIFY_MARGIN,
    _SOLVE_NOISE,
    _XI_LO,
    MAX_DIM,
    MAX_HULL_ENTRIES,
    MAX_XI_GRID,
    SpectrumSlice,
    _assemble_real,
    _block,
    _bubble_seeds,
    _critical_points,
    _hulls,
    _on_axis,
    _pairing_ok,
    _wave_terms,
)
from ostro_stab.stokes import check_amplitude

# the largest amplitude drawn
A_HI = 0.1


def wave_at(beta, gamma, k):
    return stokes_coefficients(PhysicalParams(beta, gamma, k))


def ordered_wave(beta, gamma, k, a):
    """wave_at(beta, gamma, k); a draw is assumed away where k is resonant
    or where the expansion is not ordered at amplitude a, next to the
    K = beta*k^4/gamma = 1/4 resonance."""
    try:
        w = wave_at(beta, gamma, k)
        harmonic_amplitudes(w, a)
    except ResonantWavenumber:
        assume(False)
    return w


def _drawn_wave(beta, gamma, u, a):
    # k is u times the {-1,0} threshold (beta > 0) or gamma^(1/4) (beta < 0)
    return ordered_wave(beta, gamma, u * (4.0 * gamma if beta > 0 else gamma) ** 0.25, a)


CFG16 = TruncationConfig(N=16)
CFG32 = TruncationConfig(N=32)

# beta = -1/4096, gamma = 1, k = 6.7, a = 0.095: the image under
# (beta, k, a) -> (beta/8^4, 8k, a/64) of beta = -1, k = 0.8375, a = 6.08,
# an ordered expansion (|W3| = 0.85|W1|) so large that at N = 9, xi = 0.1
# one open cluster holds every mode, the boundary modes among them, and
# the truncated slice has a pair growing at 2.9
BOUNDARY_BGK, BOUNDARY_A, BOUNDARY_XI = (-1 / 4096, 1.0, 6.7), 0.095, 0.1


def dense_coupling(wave, a, N):
    """The coupling of modes -N..N as a dense Toeplitz matrix, built from
    the wave's cosine amplitudes W_j: -2*k^2*(W_j/2) at distance j."""
    col = np.zeros(2 * N + 1)
    col[1:5] = -2.0 * wave.params.k**2 * (harmonic_amplitudes(wave, a) / 2.0)
    return toeplitz(col)


def dense_R(wave, a, N, xi):
    """The real Bloch matrix R on modes -N..N, built densely from the
    wave's amplitudes and speed: (n+xi) times the coupling off the
    diagonal, omega(n+xi) on it."""
    x = np.arange(-N, N + 1) + xi
    R = x[:, None] * dense_coupling(wave, a, N)
    R[np.diag_indices_from(R)] = omega(wave.params, eval_speed(wave, a), x)
    return R


class TestAssembly:
    def test_zero_amplitude_is_diagonal_dispersion(self):
        w = wave_at(1, 1, 1.3)
        c0 = phase_speed_c0(w.params)
        M = assemble_matrix(w, 0.0, 0.3, CFG16)
        x = np.arange(-16, 17) + 0.3
        np.testing.assert_array_equal(np.diag(M), 1j * omega(w.params, c0, x))
        assert np.all(M - np.diag(np.diag(M)) == 0)

    def test_entries_purely_imaginary(self):
        w = wave_at(-1, 2, 0.9)
        M = assemble_matrix(w, 0.06, 0.41, CFG16)
        assert np.all(M.real == 0.0)

    def test_coupling_band_structure(self):
        w = wave_at(1, 1, 1.3)
        M = assemble_matrix(w, 0.05, 0.3, CFG16)
        R = M.imag
        # wave harmonics couple modes at distance 1..4 only
        for d in range(5, 33):
            assert np.all(np.diag(R, d) == 0) and np.all(np.diag(R, -d) == 0)
        # row index carries the (n + xi) prefactor
        x = np.arange(-16, 17) + 0.3
        k2 = w.params.k**2
        np.testing.assert_array_equal(np.diag(R, 1),
                                      x[:-1] * (-2 * k2 * (0.05 / 2)))

    def test_xi_range_enforced(self):
        w = wave_at(1, 1, 1.3)
        for xi in (0.0, -0.2, 0.7):
            with pytest.raises(XiOutOfRange):
                assemble_matrix(w, 0.01, xi, CFG16)
            with pytest.raises(XiOutOfRange):
                assemble_L_matrix(w, 0.01, xi, CFG16)

    def test_reflection_identity(self):
        # index reflection plus xi -> -xi negates the matrix exactly
        w = wave_at(1, 1, 1.6)
        R_pos = _assemble_real(w, 0.03, 0.27, 16)
        R_neg = _assemble_real(w, 0.03, -0.27, 16)
        np.testing.assert_array_equal(R_neg[::-1, ::-1], -R_pos)

    def test_memoised_coupling_does_not_leak(self):
        # the xi-independent coupling is built once per (wave, a, N) and
        # shared by later slices; each slice must equal a fresh build
        w = wave_at(1, 1, 1.6)
        beta, gamma, k2 = w.params.beta, w.params.gamma, w.params.k**2
        a, N = 0.03, 16
        T = dense_coupling(w, a, N)
        c = eval_speed(w, a)

        def fresh_L(xi):
            x = np.arange(-N, N + 1) + xi
            L = T.copy()
            L[np.diag_indices_from(L)] = k2 * (c - beta * k2 * x**2) - gamma / x**2
            return L

        def fresh_R(xi):
            x = np.arange(-N, N + 1) + xi
            R = x[:, None] * T
            R[np.diag_indices_from(R)] = omega(w.params, c, x)
            return R

        L1 = assemble_L_matrix(w, a, 0.21, CFG16)
        R2 = _assemble_real(w, a, 0.37, N)
        L2 = assemble_L_matrix(w, a, 0.37, CFG16)
        for got, want in ((L1, fresh_L(0.21)), (R2, fresh_R(0.37)),
                          (L2, fresh_L(0.37))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the memo holds the coupling's first column, its row sums and its
        # band width
        _, col, row_sum, band = _wave_terms(w, a, N)
        for memo in (col, row_sum):
            assert not memo.flags.writeable
            with pytest.raises(ValueError):
                memo[0] = 1.0
        assert col.tobytes() == T[:, 0].tobytes()
        assert band == np.flatnonzero(T[:, 0]).max()


class TestBlockBuilder:
    """hill._block, the one builder of R, equals the dense R bit for bit on
    each block the Hill layer reads: all modes, a window solve's window and
    band rows, and the seeds' stacked pair runs."""

    def test_all_modes(self):
        w, a, N = wave_at(1, 1, 1.6), 0.03, 16
        for xi in (0.37, 0.5, _XI_LO):
            got = _block(w, a, xi, N, np.arange(-N, N + 1))
            assert got.dtype == np.float64
            assert got.tobytes() == dense_R(w, a, N, xi).tobytes()

    def test_window_and_band_rows(self):
        w, a, N, xi = wave_at(-1, 2, 0.9), 0.06, 16, 0.41
        band = _wave_terms(w, a, N)[3]
        assert band == 4
        R = dense_R(w, a, N, xi)
        # inside, clipped at -N, clipped at +N, and all 2N+1 modes
        for lo, hi in ((-3, 5), (-N, -6), (7, N), (-N, N)):
            # the window's rows, then the band rows, as _solve_window
            # stacks them
            window = np.arange(lo, hi + 1)
            rest = np.r_[max(lo - band, -N):lo, hi + 1:min(hi + band, N) + 1]
            rows = np.r_[window, rest]
            got = _block(w, a, xi, N, rows, window)
            assert got.shape == (rows.size, window.size)
            assert got.tobytes() == R[np.ix_(rows + N, window + N)].tobytes()
            assert _block(w, a, xi, N, window).tobytes() == got[:window.size].tobytes()
            # no row past the band rows reaches the window's columns
            others = np.setdiff1d(np.arange(-N, N + 1), np.r_[window, rest])
            assert not R[np.ix_(others + N, window + N)].any()

    @pytest.mark.parametrize("bgk, N", [((1, 1, 0.6), 16), ((-1, 1, 0.78), 16),
                                        ((-1, 1, 0.78), 8)])
    def test_stacked_pair_runs(self, bgk, N):
        # each pair's run as _bubble_seeds builds it: n, m, then the rest
        # of a run of equal length, clipped to -N..N, each at its own xi
        w, a = wave_at(*bgk), 0.02
        band = _wave_terms(w, a, N)[3]
        found = [(n, n + dn, xi0) for dn in range(1, 5) for n in range(-dn, 0)
                 for xi0 in collision_xi(w.params, n, n + dn)]
        assert len(found) >= 2
        n, m, xi = (np.array(v) for v in zip(*found))
        size = min(2 * N + 1, 4 * band + 1 + int((m - n).max()))
        run = np.clip(n - 2 * band, -N, N + 1 - size)[:, None] + np.arange(size)
        rest = run[(run != n[:, None]) & (run != m[:, None])].reshape(n.size, size - 2)
        modes = np.column_stack([n, m, rest])
        got = _block(w, a, xi, N, modes)
        assert got.shape == (n.size, size, size)
        for p in range(n.size):
            want = dense_R(w, a, N, xi[p])[np.ix_(modes[p] + N, modes[p] + N)]
            assert got[p].tobytes() == want.tobytes()


class TestFactorization:
    def test_L_symmetric(self):
        w = wave_at(1, 1, 1.6)
        L = assemble_L_matrix(w, 0.04, 0.27, CFG16)
        np.testing.assert_array_equal(L, L.T)

    def test_JL_equals_A(self):
        w = wave_at(1, 1, 1.6)
        A = assemble_matrix(w, 0.04, 0.27, CFG16)
        L = assemble_L_matrix(w, 0.04, 0.27, CFG16)
        x = np.arange(-16, 17) + 0.27
        JL = 1j * x[:, None] * L
        off = ~np.eye(33, dtype=bool)
        np.testing.assert_array_equal(JL[off], A[off])
        np.testing.assert_allclose(np.diag(JL).imag, np.diag(A).imag,
                                   rtol=1e-13)

    def test_L_diagonal_is_omega_over_x_at_zero_amplitude(self):
        w = wave_at(1, 1, 1.6)
        c0 = phase_speed_c0(w.params)
        L0 = assemble_L_matrix(w, 0.0, 0.27, CFG16)
        x = np.arange(-16, 17) + 0.27
        np.testing.assert_allclose(np.diag(L0), omega(w.params, c0, x) / x,
                                   rtol=1e-12)


class TestEigenvalues:
    def test_diagonal_matrix(self):
        d = np.array([1j, -2j, 3j])
        lam = eigenvalues(np.diag(d))
        np.testing.assert_allclose(sorted(lam, key=lambda z: z.imag),
                                   sorted(d, key=lambda z: z.imag), atol=1e-15)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(10_001))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((3, 2)))

    def test_non_finite_rejected(self):
        # an overflowed matrix is bad input, not a LAPACK failure
        with pytest.raises(ValueError, match="finite"):
            eigenvalues(np.array([[np.inf]]))

    def test_matches_dispersion_at_zero_amplitude(self):
        w = wave_at(1, 6, 2.5)
        c0 = phase_speed_c0(w.params)
        lam = eigenvalues(assemble_matrix(w, 0.0, 0.25, CFG32))
        x = np.arange(-32, 33) + 0.25
        for target in 1j * omega(w.params, c0, x):
            assert np.min(np.abs(lam - target)) < 1e-12


class TestPairing:
    def test_unpaired_rejected(self):
        assert not _pairing_ok(np.array([0.1 + 1j, -0.1 + 1j, 0.2 + 2j]))
        assert not _pairing_ok(np.array([1e-3 + 1j, -1e-3 + (1 + 1e-6) * 1j]))

    def test_mirror_off_by_one_ulp_rejected(self):
        # the check is exact: a partner one ulp off its mirror image fails
        x = 0.25
        lam = np.array([-x + 1j, np.nextafter(x, 1.0) + 1j])
        assert not _pairing_ok(lam)
        assert _pairing_ok(np.array([-x + 1j, x + 1j]))

    def test_real_solver_output_exactly_paired(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        lam = 1j * eigenvalues(_assemble_real(w, 0.02, xi0, 32))
        assert np.any(lam.real != 0.0)
        assert _pairing_ok(lam[np.lexsort((lam.real, lam.imag))])


class TestSpectrumSlice:
    def test_zero_amplitude_spectrum_imaginary(self):
        w = wave_at(1, 1, 1.3)
        sl = spectrum_slice(w, 0.0, 0.2, CFG32)
        assert sl.max_real_part <= 1e-12
        assert sl.paired
        assert sl.eigenvalues.size == 65

    def test_eigenvalues_sorted_deterministically(self):
        w = wave_at(1, 1, 1.6)
        s1 = spectrum_slice(w, 0.01, 0.3, CFG16)
        s2 = spectrum_slice(w, 0.01, 0.3, CFG16)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.all(np.diff(s1.eigenvalues.imag) >= 0)

    def test_unstable_slice_matches_prediction(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        sl = spectrum_slice(w, 0.01, xi0, CFG32)
        pred = predicted_growth_rate(w, -1, xi0, 0.01)
        assert sl.paired
        assert sl.max_real_part == pytest.approx(pred, rel=0.1)

    def test_same_signature_splitting_filtered(self):
        # {0,4} is a same-signature collision: its pair stays on the axis
        # here, so there is no candidate (TestGrowthFilter drops one in a
        # cluster of one sign)
        w = wave_at(1, 1, 1.2)
        xi0 = collision_xi(w.params, 0, 4)[0]
        sl = spectrum_slice(w, 0.005, xi0, CFG32)
        assert sl.max_real_part < 1e-8

    def test_boundary_growth_filtered(self):
        # the truncated slice's growing pair lies in the one uncertified
        # cluster, which holds the boundary modes: the boundary rule drops it
        w = wave_at(*BOUNDARY_BGK)
        sl = spectrum_slice(w, BOUNDARY_A, BOUNDARY_XI, TruncationConfig(N=9))
        assert sl.eigenvalues.real.max() > 2.5
        assert sl.max_real_part == 0.0
        assert [c.boundary for c in sl.growth_clusters] == [True]

    def test_slices_compare_and_hash_by_identity(self):
        # beta = gamma = 1, k = 1.6, N = 8, xi = 0.3: two solves of one
        # slice are equal in every field but are two slices
        w, cfg = wave_at(1, 1, 1.6), TruncationConfig(N=8)
        s1, s2 = spectrum_slice(w, 0.01, 0.3, cfg), spectrum_slice(w, 0.01, 0.3, cfg)
        assert s1 == s1 and s1 != s2
        assert len({s1, s2, s1}) == 2 and hash(s1) == hash(s1)

    def test_below_threshold_quiet(self):
        w = wave_at(1, 1, 1.3)
        for xi in (0.05, 0.2, 0.35, 0.5):
            assert spectrum_slice(w, 0.005, xi, CFG32).max_real_part < 1e-8

    def test_truncation_convergence(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        g32 = spectrum_slice(w, 0.02, xi0, TruncationConfig(N=32)).max_real_part
        g64 = spectrum_slice(w, 0.02, xi0, TruncationConfig(N=64)).max_real_part
        assert abs(g32 - g64) < 1e-8


# The eigenvector filters that the certificate's clusters replaced, kept as
# the reference the cluster rule is checked against.  A growth candidate
# was dropped when its eigenvector mass sat at the truncation boundary, or
# when its energy form <L v, v> was decisively nonzero (a same-signature
# near-collision).
BOUNDARY_MASS_LIMIT = 0.01
KREIN_FORM_TOL = 1e-3


def boundary_mass(v, margin):
    p = np.abs(v) ** 2
    total = p.sum()
    if total == 0:
        return 1.0
    return (p[:margin].sum() + p[-margin:].sum()) / total


def eigenvector(R, mu):
    """Unit eigenvector of R for its computed eigenvalue mu: one step of
    inverse iteration from (1, ..., 1), the shift nudged by eps*||R||_inf
    when R - mu*I is exactly singular."""
    eye, ones = np.eye(R.shape[0]), np.ones(R.shape[0])
    try:
        v = np.linalg.solve(R - mu * eye, ones)
    except np.linalg.LinAlgError:
        nudge = np.finfo(float).eps * np.abs(R).sum(axis=1).max()
        v = np.linalg.solve(R - (mu + nudge) * eye, ones)
    return v / np.linalg.norm(v)


def filter_kept(R, L, w, margin):
    """Which eigenvalues i*w of R the eigenvector filters count; one
    inverse-iteration solve decides each conjugate pair.

    The form of a growing pair's eigenvector is zero; the computed unit
    eigenvector v is off by about its residual over the gap to the
    nearest other eigenvalue, so its form may be off by twice that times
    ||L v||.  A form within that first-order error is no evidence of a
    definite form: at tiny growth the gap, twice the growth, is small.
    """
    keep = w.imag == 0
    for i in np.flatnonzero(w.imag > 0):
        v = eigenvector(R, w[i])
        if boundary_mass(v, margin) > BOUNDARY_MASS_LIMIT:
            continue
        Lv = L @ v
        form = abs(np.vdot(v, Lv)) / np.vdot(v, v).real
        gap = np.abs(np.delete(w, i) - w[i]).min()
        error = 2.0 * np.linalg.norm(Lv) * np.linalg.norm(R @ v - w[i] * v) / gap
        if form > KREIN_FORM_TOL * (1.0 + abs(w[i].real)) + error:
            continue
        keep[i] = keep[i + 1] = True
    return keep


def cluster_kept(w, clusters):
    """Which eigenvalues i*w count by the cluster rule: those on the axis,
    and the candidates whose Re w lies in a non-boundary span."""
    candidate = w.imag != 0
    keep = ~candidate
    for c in clusters:
        if not c.boundary:
            keep |= candidate & (c.lo <= w.real) & (w.real <= c.hi)
    return keep


class TestGrowthFilter:
    # a fake conjugate pair x0 +- i*G injected into a solved slice, in
    # place of the two real eigenvalues nearest x0: it counts only when x0
    # lies in an uncertified cluster that holds no boundary mode.  At
    # beta = gamma = 1, k = 1.6, a = A_HI, xi = 0.00648 the opposite-sign
    # pair {-1,1} is left open, and modes 0 and 3 overlap in a cluster of
    # one sign
    G, XI = 0.5, 0.006484242121060531

    def solved_with_pair(self, monkeypatch, w, a, xi, cfg, x0, clusters=None):
        def with_pair(R):
            mu = eigenvalues(R)
            real = np.flatnonzero(mu.imag == 0.0)
            i, j = real[np.argsort(np.abs(mu.real[real] - x0))[:2]]
            mu[i], mu[j] = x0 + 1j * self.G, x0 - 1j * self.G
            return mu

        monkeypatch.setattr(hill, "eigenvalues", with_pair)
        if clusters is None:
            return spectrum_slice(w, a, xi, cfg)
        return hill._built(xi, a, *hill._solve_window(w, a, xi, clusters, cfg.N))

    def centre(self, w, a, xi, N, *modes):
        return np.mean([_assemble_real(w, a, xi, N)[n + N, n + N] for n in modes])

    def test_indefinite_pair_kept(self, monkeypatch):
        w = wave_at(1, 1, 1.6)
        assert sorted(_clusters(w, A_HI, self.XI, 16)) == [[-1, 1], [0, 3]]
        x0 = self.centre(w, A_HI, self.XI, 16, -1, 1)
        sl = self.solved_with_pair(monkeypatch, w, A_HI, self.XI, CFG16, x0)
        assert sl.max_real_part == self.G
        assert [(c.modes, c.boundary) for c in sl.growth_clusters] == [((-1, 1), False)]

    def test_definite_form_dropped(self, monkeypatch):
        # the one-sign cluster {0, 3} is proven real (rule (b)): the pair is
        # solver noise there, and the slice keeps its own growth
        w = wave_at(1, 1, 1.6)
        x0 = self.centre(w, A_HI, self.XI, 16, 0, 3)
        growth = spectrum_slice(w, A_HI, self.XI, CFG16).max_real_part
        sl = self.solved_with_pair(monkeypatch, w, A_HI, self.XI, CFG16, x0)
        assert 0.0 < sl.max_real_part == growth < self.G
        assert [c.modes for c in sl.growth_clusters] == [(-1, 1)]

    def test_boundary_cluster_dropped(self, monkeypatch):
        # on the boundary wave one cluster holds every mode, the boundary
        # modes among them: the pair is dropped there, and counts once the
        # same cluster is passed as interior
        w, a, xi = wave_at(*BOUNDARY_BGK), BOUNDARY_A, BOUNDARY_XI
        cfg = TruncationConfig(N=9)
        (cluster,) = _on_axis(w, a, np.array([xi]), 9)[0]
        assert cluster.modes == tuple(range(-9, 10)) and cluster.boundary
        x0 = self.centre(w, a, xi, 9, 0)
        sl = self.solved_with_pair(monkeypatch, w, a, xi, cfg, x0)
        assert sl.max_real_part == 0.0
        assert sl.growth_clusters == (cluster,)
        interior = (cluster._replace(boundary=False),)
        sl = self.solved_with_pair(monkeypatch, w, a, xi, cfg, x0, interior)
        assert sl.max_real_part > 2.5

    def test_singular_shift(self):
        # R - i*I is exactly singular: a bare solve fails, the reference
        # eigenvector nudges the shift
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(R - 1j * np.eye(2), np.ones(2))
        v = eigenvector(R, 1j)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(R @ v - 1j * v) <= 4 * np.finfo(float).eps

    @settings(max_examples=150, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6), a=st.floats(0.0, A_HI, exclude_min=True),
           N=st.integers(8, 48), pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    def test_counted_growth_in_uncertified_span(self, beta, gamma, u, a, N, pick,
                                                t, scale):
        # within a*k^2/2 of an opposite-sign collision: the growth counted
        # is carried by an eigenvalue in a non-boundary span that _on_axis
        # returns for that xi, alone or among the sweep grid, and a
        # certified slice counts none
        w = _drawn_wave(beta, gamma, u, a)
        k = w.params.k
        seeds = _crossings(w, opposite=True)
        assume(seeds)
        xi = seeds[int(pick * len(seeds))] + t * a * k**2 / 10**scale
        assume(1e-3 <= xi <= 0.5)
        clusters = _on_axis(w, a, np.array([xi]), N)
        grid = np.unique(np.append(default_xi_grid(64), xi))
        i = int(np.searchsorted(grid, xi))
        grid_clusters = _on_axis(w, a, grid, N)
        # the same clusters; their spans within the rounding of a radius,
        # whose sums the batch shape can reorder
        certified = not clusters[0]
        assert (not grid_clusters[i]) == certified
        assert [c[2:] for c in grid_clusters[i]] == [c[2:] for c in clusters[0]]
        norm = np.abs(_assemble_real(w, a, xi, N)).sum(axis=1).max()
        np.testing.assert_allclose([c[:2] for c in grid_clusters[i]],
                                   [c[:2] for c in clusters[0]],
                                   rtol=0, atol=8 * np.finfo(float).eps * norm)
        spans = sorted((c.lo, c.hi) for c in clusters[0])
        assert all(hi < lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        sl = spectrum_slice(w, a, xi, TruncationConfig(N=N))
        assert set(sl.growth_clusters) <= set(clusters[0])
        if certified:
            assert clusters[0] == () and sl.max_real_part == 0.0
        lam = sl.eigenvalues
        if sl.max_real_part > 0:
            top = lam.imag[lam.real == sl.max_real_part]
            assert any(c.lo <= z <= c.hi and not c.boundary
                       for c in clusters[0] for z in top)


    @settings(max_examples=150, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6), a=st.floats(0.0, A_HI, exclude_min=True),
           N=st.integers(8, 48), pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    def test_open_span_widened_by_half_gap(self, beta, gamma, u, a, N, pick, t,
                                           scale):
        # each open cluster of a slice near an opposite-sign collision, on
        # a 16-point grid holding it: its span is the union of its modes'
        # Gershgorin intervals, read off the assembled matrix, widened by
        # half the cluster gap _CERTIFY_MARGIN*||R||_inf on each side, up
        # to the rounding of a centre and a radius
        w = _drawn_wave(beta, gamma, u, a)
        k = w.params.k
        seeds = _crossings(w, opposite=True)
        assume(seeds)
        xi = seeds[int(pick * len(seeds))] + t * a * k**2 / 10**scale
        assume(1e-3 <= xi <= 0.5)
        xis = np.unique(np.append(default_xi_grid(16), xi))
        clusters = _on_axis(w, a, xis, N)
        assume(any(clusters))
        for x, open_ in zip(xis, clusters):
            R = _assemble_real(w, a, x, N)
            s = np.sqrt(np.abs(np.arange(-N, N + 1) + x))
            off = np.abs(R - np.diag(np.diag(R)))
            centre, radius = np.diag(R), (off * s).sum(axis=1) / s
            norm = np.abs(R).sum(axis=1).max()
            gap, tol = _CERTIFY_MARGIN * norm, 4 * np.finfo(float).eps * norm
            for c in open_:
                rows = np.array(c.modes) + N
                assert abs(c.lo - ((centre - radius)[rows].min() - gap / 2)) <= tol
                assert abs(c.hi - ((centre + radius)[rows].max() + gap / 2)) <= tol


def _clusters(w, a, xi, N):
    """Modes of each cluster of two or more overlapping Gershgorin intervals.

    Read off the assembled matrix: |X|^{-1/2} R |X|^{1/2} has entries
    R_nm sqrt|x_m| / sqrt|x_n|, and its intervals are merged in order of
    their left ends.
    """
    R = _assemble_real(w, a, xi, N)
    x = np.arange(-N, N + 1) + xi
    s = np.sqrt(np.abs(x))
    centre = np.diag(R)
    radius = np.abs(R * s[None, :] / s[:, None]).sum(axis=1) - np.abs(centre)
    clusters, reach = [], -np.inf
    for i in np.argsort(centre - radius):
        if centre[i] - radius[i] > reach:
            clusters.append([])
        clusters[-1].append(int(i) - N)
        reach = max(reach, centre[i] + radius[i])
    return [sorted(c) for c in clusters if len(c) > 1]


def _crossings(w, opposite):
    """xi of each collision of two modes of opposite (or of one) sign."""
    return [xi for pair in enumerate_collision_pairs(w.params.beta, 4, 6)
            if pair.opposite_krein == opposite
            for xi in collision_xi(w.params, pair.n, pair.m)]


class TestCertificate:
    @settings(max_examples=300, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6),
           a=st.floats(0.0, A_HI, exclude_min=True),
           N=st.integers(8, 48), xi=st.floats(1e-3, 0.5),
           near=st.sampled_from(["uniform", "opposite", "same"]),
           pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    def test_sound(self, beta, gamma, u, a, N, xi, near, pick, t, scale):
        # wherever the certificate holds, the solve finds no growth at all.
        # k is u times the {-1,0} threshold (beta > 0) or gamma^(1/4)
        # (beta < 0).  Two thirds of the draws sit within a*k^2/2 (down to
        # a thousandth of it) of a bubble's peak, the sweep's seed, across
        # the edge of the bubble, where clusters of two modes of opposite
        # sign of n+xi are certified or not; or of a collision of modes of
        # one sign, whose clusters are always certified
        w = _drawn_wave(beta, gamma, u, a)
        k = w.params.k
        if near != "uniform":
            seeds = (_bubble_seeds(w, a, N).tolist() if near == "opposite"
                     else _crossings(w, opposite=False))
            assume(seeds)
            xi = seeds[int(pick * len(seeds))] + t * a * k**2 / 10**scale
            assume(1e-3 <= xi <= 0.5)
        assume(not _on_axis(w, a, np.array([xi]), N)[0])
        sl = spectrum_slice(w, a, xi, TruncationConfig(N=N))
        assert sl.max_real_part == 0.0
        assert np.all(sl.eigenvalues.real == 0.0)

    @pytest.mark.parametrize("a, xi, clusters", [
        (0.01, 0.2088, [[0, 1]]),                      # one sign
        (A_HI, 0.2088, [[0, 1]]),
        (0.01, 0.025115910621102442, [[-1, 1], [0, 2]]),  # and a pair
        (A_HI, 0.025115910621102442, [[-1, 1], [0, 2]]),
        (0.01, 0.2828306772509555, [[-1, 0]]),         # xi0 + 0.003: a pair
        (A_HI, 0.2998306772509555, [[-1, 0]]),        # xi0 + 0.02, off its bubble
    ])
    def test_certifies_overlapping_clusters(self, a, xi, clusters):
        # beta = gamma = 1, k = 1.6: {-1,0} collides at xi0 = 0.27983, and
        # the one-sign pairs {0,1} and {0,2} at 0.2088 and 0.02512
        w = wave_at(1, 1, 1.6)
        assert sorted(_clusters(w, a, xi, 16)) == clusters
        assert not _on_axis(w, a, np.array([xi]), 16)[0]
        assert spectrum_slice(w, a, xi, CFG16).max_real_part == 0.0

    @pytest.mark.parametrize("xi", [0.35, 0.36])
    def test_leaves_mixed_triples_to_the_solve(self, xi):
        # below the threshold at the largest amplitude, modes -2, -1 and 1
        # overlap: the inertia count across them is odd, which proves one
        # real eigenvalue of three, so the slice is solved
        w = wave_at(1, 1, 0.85)
        assert _clusters(w, A_HI, xi, 16) == [[-2, -1, 1]]
        assert _on_axis(w, A_HI, np.array([xi]), 16)[0]

    @pytest.mark.parametrize("a", [1e-4, 0.01, A_HI])
    @pytest.mark.parametrize("N", [16, 32])
    def test_rejects_collision(self, a, N):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        assert _on_axis(w, a, np.array([xi0]), N)[0]

    @pytest.mark.parametrize("N", [16, 32])
    def test_far_modes_bound_delta(self, N):
        # beta = gamma = 1, k = 0.34, a = 0.05, xi = 0.42: modes -8 and 9
        # make a pair cluster 17 modes apart, whose ext reaches modes -4
        # and 5.  Modes 0 and -3, past ext, lie 0.23 and 0.27 from the
        # pair's midpoint t, nearer than any ext mode (0.98 and more):
        # their hull distance is the least row dominance of D.  With it,
        # rule (c) leaves the pair to the solve, as the certificate on
        # every mode does; a delta of the ext modes alone certifies it
        w, xi = wave_at(1, 1, 0.34), np.array([0.42])
        assert [c.modes for c in _on_axis(w, 0.05, xi, N)[0]] == [(-8, 9)]
        assert not full_width_on_axis(w, 0.05, xi, N)[0]

    def test_margin_at_bubble_edge(self):
        # just past the edge of a bubble the pair's eigenvalues are barely
        # apart, closer than the solver's rounding can keep them: those
        # slices are left to the solve, which finds them on the axis
        w = wave_at(1, 1, 1.6)
        a = 1e-8
        inside = collision_xi(w.params, -1, 0)[0]
        assert spectrum_slice(w, a, inside, CFG16).max_real_part > 0
        outside = inside + 1e-3
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if spectrum_slice(w, a, mid, CFG16).max_real_part > 0:
                inside = mid
            else:
                outside = mid
        xis = outside + a * np.geomspace(1e-12, 1e-3, 50)
        assert all(_on_axis(w, a, xis, 16))
        for xi in xis:
            assert spectrum_slice(w, a, xi, CFG16).max_real_part == 0.0

    def test_tight_around_bubble(self):
        # the {-1,0} intervals overlap for |xi - xi0| < 0.0034, but the
        # slice grows only for |xi - xi0| < 0.0012: the pair test leaves
        # little more than the growing slices to the solve
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        xis = xi0 + np.linspace(-0.005, 0.005, 2001)
        certified = np.array([not c for c in _on_axis(w, 0.01, xis, 16)])
        growth = np.array([spectrum_slice(w, 0.01, xi, CFG16).max_real_part
                           for xi in xis])
        assert not np.any(growth[certified] != 0.0)
        assert np.count_nonzero(growth > 0) > 400
        assert np.count_nonzero(~certified) <= 1.1 * np.count_nonzero(growth > 0)

    @pytest.mark.parametrize("a", [0.005, 0.01, 0.02])
    @pytest.mark.parametrize("N", [16, 32])
    def test_tight_around_minus_one_one_bubble(self, a, N):
        # beta < 0: {-1,1} couples mostly through mode 0, and its bubble is
        # O(a^2) wide.  The first-order Schur term holds the pair apart
        # right up to the bubble, so only a few slices past the growing
        # ones are left to the solve
        w = wave_at(-1, 1, 0.78)
        xis = 0.31538 + 0.01 * (a / 0.01)**2 * np.linspace(-1, 1, 801)
        certified = np.array([not c for c in _on_axis(w, a, xis, N)])
        cfg = TruncationConfig(N=N)
        growth = np.array([spectrum_slice(w, a, xi, cfg).max_real_part
                           for xi in xis])
        assert not np.any(growth[certified] != 0.0)
        assert np.count_nonzero(growth > 0) > 0
        assert np.count_nonzero(~certified) <= np.count_nonzero(growth > 0) + 3


def full_width_on_axis(wave, a, xis, N):
    """Reference certificate: rules (a)-(c) of _on_axis on all 2N+1 modes
    of every slice, with no hulls and no window.

    Rule (a) first, on every slice, in blocks of _CERTIFY_BLOCK xi
    values; (b) and (c) on the slices left, with rows 2N+1 wide and delta
    taken over every mode, on the dense coupling.
    """
    a = check_amplitude(a)
    c, coupling = eval_speed(wave, a), dense_coupling(wave, a, N)
    abs_c = np.abs(coupling)
    row_sum = abs_c.sum(axis=1)
    n = np.arange(-N, N + 1)

    def intervals(xi):
        x = n + xi[:, None]
        centre = omega(wave.params, c, x)
        s = np.sqrt(np.abs(x))
        radius = s * (s @ abs_c)
        norm = np.max(np.abs(centre) + np.abs(x) * row_sum, axis=1)
        return x, centre, s, radius, norm

    certified = np.empty(xis.size, dtype=bool)
    for lo in range(0, xis.size, _CERTIFY_BLOCK):
        _, centre, _, radius, norm = intervals(xis[lo:lo + _CERTIFY_BLOCK])
        certified[lo:lo + _CERTIFY_BLOCK] = np.all(
            np.sort(centre - radius, axis=1)[:, 1:]
            - np.sort(centre + radius, axis=1)[:, :-1]
            >= _CERTIFY_MARGIN * norm[:, None], axis=1)
    rest = np.flatnonzero(~certified)
    for lo in range(0, rest.size, _CERTIFY_BLOCK):
        idx = rest[lo:lo + _CERTIFY_BLOCK]
        x, centre, s, radius, norm = intervals(xis[idx])
        width = x.shape[1]
        order = np.argsort(centre - radius, axis=1)
        left = np.take_along_axis(centre - radius, order, axis=1)
        first = np.ones(x.shape, dtype=bool)
        first[:, 1:] = (left[:, 1:] - np.sort(centre + radius, axis=1)[:, :-1]
                        >= _CERTIFY_MARGIN * norm[:, None])
        order = (order + width * np.arange(idx.size)[:, None]).ravel()
        start = np.flatnonzero(first)
        size = np.diff(start, append=x.size)
        plus = np.concatenate(([0], np.cumsum(x.ravel()[order] > 0)))
        plus = plus[start + size] - plus[start]
        pair = (size == 2) & (plus == 1)
        ok = np.ones(idx.size, dtype=bool)
        ok[start[(plus > 0) & (plus < size) & ~pair] // width] = False
        start = start[pair]
        start = start[ok[start // width]]
        r, p, q = start // width, order[start] % width, order[start + 1] % width
        ctr, span = centre[r], np.arange(r.size)
        c_p, c_q = ctr[span, p], ctr[span, q]
        t = 0.5 * (c_p + c_q)
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
        with np.errstate(divide="ignore", invalid="ignore"):
            up, uq = bp / diag, bq / diag
            abs_up, abs_uq = np.abs(up), np.abs(uq)
            s_pp = a_p - np.sum(bp * up, axis=1)
            s_qq = a_q - np.sum(bq * uq, axis=1)
            s_pq = h - np.sum(bp * uq, axis=1)
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


_WAVES = dict(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
              u=st.floats(0.5, 1.6), a=st.floats(0.0, A_HI, exclude_min=True))




class TestWindowedCertificate:
    @settings(max_examples=150, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32, 48, 96]),
           sweep=st.sampled_from([16, 64, 512, 0]),
           pick=st.floats(0.0, 1.0, exclude_max=True), width=st.floats(-9.0, -1.0))
    def test_matches_full_width(self, beta, gamma, u, a, N, sweep, pick, width):
        # a sweep grid with its seeds, as max_growth builds it, or
        # (sweep = 0) 63 points evenly inside a bracket 10^width wide around
        # a seed or a collision: the verdicts are those of the certificate
        # computed on every mode of every slice
        w = _drawn_wave(beta, gamma, u, a)
        seeds = _bubble_seeds(w, a, N)
        if sweep:
            xis = np.unique(np.concatenate([default_xi_grid(sweep), seeds]))
        else:
            seeds = [*seeds, *_crossings(w, opposite=True)]
            assume(seeds)
            xi0 = seeds[int(pick * len(seeds))]
            lo, hi = max(_XI_LO, xi0 - 10**width), min(0.5, xi0 + 10**width)
            xis = lo + (hi - lo) * np.arange(1, 64) / 64
        np.testing.assert_array_equal([not c for c in _on_axis(w, a, xis, N)],
                                      full_width_on_axis(w, a, xis, N))

    @settings(max_examples=150, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32, 48, 96]),
           lo=st.floats(1e-3, 0.5), width=st.floats(-6.0, 0.0))
    def test_hulls_hold_every_interval(self, beta, gamma, u, a, N, lo, width):
        # intervals across [lo, hi], and at every mode's critical points
        # inside it, where omega turns, lie in their hulls up to the
        # rounding of a centre and a radius, far inside the hull margin.
        # The hulls take the banded sums of _wave_terms, the intervals
        # the dense coupling's
        w = _drawn_wave(beta, gamma, u, a)
        hi = min(0.5, lo + 10**width)
        c, abs_c = eval_speed(w, a), np.abs(dense_coupling(w, a, N))
        _, col, row_sum, _ = _wave_terms(w, a, N)
        n = np.arange(-N, N + 1)
        left, right, norm_lo, norm_hi = (
            v[0] for v in _hulls(w.params, c, col, row_sum, n,
                                 np.array([lo]), np.array([hi])))
        turns = (_critical_points(w.params, c)[:, None] - n).ravel()
        xi = np.concatenate([np.linspace(lo, hi, 101),
                             turns[(lo <= turns) & (turns <= hi)]])
        x = n + xi[:, None]
        centre = omega(w.params, c, x)
        s = np.sqrt(np.abs(x))
        radius = s * (s @ abs_c)
        term = np.abs(centre) + np.abs(x) * abs_c.sum(axis=1)
        tol = 8 * np.finfo(float).eps * norm_hi.max()
        assert tol < _CERTIFY_MARGIN * norm_hi.max() / 4
        assert np.all(centre - radius >= left - tol)
        assert np.all(centre + radius <= right + tol)
        assert np.all(term <= norm_hi * (1 + 1e-14))
        assert np.all(term >= norm_lo * (1 - 1e-14))


def two_solve_kept(R, L, margin):
    """Eigenvalues w of R by np.linalg.eig, and which count toward growth.

    The filter loop of two_solve_slice, on eig's own eigenvectors.
    """
    w, V = np.linalg.eig(R)
    lam = 1j * w
    keep = lam.real == 0
    for i in np.flatnonzero(~keep):
        v = V[:, i]
        if boundary_mass(v, margin) > BOUNDARY_MASS_LIMIT:
            continue
        form = abs(np.vdot(v, L @ v)) / np.vdot(v, v).real
        if form > KREIN_FORM_TOL * (1.0 + abs(lam[i].imag)):
            continue
        keep[i] = True
    return w, keep


def two_solve_slice(wave, a, xi, cfg):
    """Reference slice: eigenvalues, and a second dense solve on growth.

    When some eigenvalue is off the imaginary axis, np.linalg.eig
    solves the slice again, and its eigenvalues and eigenvectors replace
    those of the first solve for the filters.
    """
    a = check_amplitude(a)
    R = _assemble_real(wave, a, xi, cfg.N)
    lam = 1j * eigenvalues(R)
    re = lam.real
    if np.any(re):
        w, keep = two_solve_kept(R, assemble_L_matrix(wave, a, xi, cfg),
                                 cfg.boundary_margin)
        lam = 1j * w
        re = lam.real
        max_re = float(re[keep].max()) + 0.0 if keep.any() else 0.0
    else:
        max_re = float(re.max()) + 0.0
    lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=a, eigenvalues=lam,
                         max_real_part=max_re, paired=_pairing_ok(lam))


class TestOneSolve:
    @settings(max_examples=200, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6),
           a=st.floats(0.0, A_HI, exclude_min=True),
           N=st.one_of(st.integers(8, 37), st.sampled_from([48, 96])),
           pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    # growth about 2e-12 at a = 1e-12 (xi0 = 0.1815, 0.1399): real, but
    # the computed eigenvector's form is below its own first-order error
    @example(beta=1.0, gamma=2.0, u=1.3389830508474576, a=1e-12, N=20,
             pick=0.0, t=0.0, scale=0)
    @example(beta=1.0, gamma=2.0, u=1.5, a=1e-12, N=48, pick=0.0, t=0.0, scale=0)
    def test_matches_two_solve_slice(self, beta, gamma, u, a, N, pick, t, scale):
        # within a*k^2/2 of an opposite-sign collision, where about a
        # fifth of the slices grow.  The cluster rule decides as the
        # eigenvector filters do, on the same eigenvalues.  Up to 2N+1 = 75
        # LAPACK's eigenvalues-only and eigenvector solves return the same
        # eigenvalues bit for bit; above, they differ in the last bits, so
        # the growth must agree within rounding
        w = _drawn_wave(beta, gamma, u, a)
        k = w.params.k
        seeds = _crossings(w, opposite=True)
        assume(seeds)
        xi = seeds[int(pick * len(seeds))] + t * a * k**2 / 10**scale
        assume(1e-3 <= xi <= 0.5)
        cfg = TruncationConfig(N=N)
        sl, ref = spectrum_slice(w, a, xi, cfg), two_solve_slice(w, a, xi, cfg)
        assert sl.paired == ref.paired
        R = _assemble_real(w, a, xi, N)
        tol = 64 * np.finfo(float).eps * np.abs(R).sum(axis=1).max()
        mu = eigenvalues(R)
        for m in mu[mu.imag > 0]:
            v = eigenvector(R, m)
            assert np.linalg.norm(R @ v - m * v) <= tol
        cand = mu.imag != 0
        L = assemble_L_matrix(w, a, xi, cfg)
        np.testing.assert_array_equal(
            cluster_kept(mu, _on_axis(w, a, np.array([xi]), N)[0])[cand],
            filter_kept(R, L, mu, cfg.boundary_margin)[cand])
        if N <= 37:
            assert sl.max_real_part == ref.max_real_part
            assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        else:
            assert abs(sl.max_real_part - ref.max_real_part) <= tol


def window_slice(wave, a, xi, cfg):
    """Reference slice, solved as a sweep solves it.

    A slice that _on_axis certifies on its own xi scores 0.0 unsolved.
    Otherwise np.linalg.eig solves the modes of its open clusters without
    a boundary mode, 8 more on each side (two widths of the 4 coupling
    bands), clipped to -N..N; the cluster rule decides what counts.
    """
    a = check_amplitude(a)
    N = cfg.N
    clusters = _on_axis(wave, a, np.array([xi]), N)[0]
    modes = [n for c in clusters if not c.boundary for n in c.modes]
    lam, max_re = np.empty(0, dtype=complex), 0.0
    if modes:
        lo, hi = max(min(modes) - 8, -N) + N, min(max(modes) + 8, N) + N + 1
        w = np.linalg.eig(_assemble_real(wave, a, xi, N)[lo:hi, lo:hi])[0]
        keep = cluster_kept(w, clusters)
        lam = 1j * w
        max_re = float(lam.real[keep].max()) + 0.0 if keep.any() else 0.0
        lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=a, eigenvalues=lam,
                         max_real_part=max_re, paired=_pairing_ok(lam))


def exhaustive_max_growth(wave, a, cfg):
    """Reference sweep: solves every slice of the grid and the seeds, as
    window_slice does, and returns the first slice of largest growth."""
    xis = np.unique(np.concatenate([cfg.grid(), _bubble_seeds(wave, a, cfg.N)]))
    slices = [window_slice(wave, a, t, cfg) for t in xis]
    best = max(slices, key=lambda s: s.max_real_part)
    return best.xi, best.max_real_part, best


def spy_solves(mp, record):
    """Patch hill._solve_window, the solver of every slice a sweep solves,
    so that record(xi, growth, clusters) sees each slice it solves."""
    solve = hill._solve_window

    def recording_solve(wave, a, xi, clusters, N):
        out = solve(wave, a, xi, clusters, N)
        record(xi, out[0], clusters)
        return out

    mp.setattr(hill, "_solve_window", recording_solve)


class TestMaxGrowth:
    @pytest.mark.parametrize("beta, gamma, k, a, xi_grid, pairs", [
        (1.0, 2.0, 1.3 * 8.0**0.25, 0.01, 512, 0),    # above threshold
        (1.0, 2.0, 0.8 * 8.0**0.25, 0.01, 512, 0),    # below threshold
        (-1.0, 3.0, 0.9 * 3.0**0.25, 0.015, 512, 0),  # beta < 0
        (-1.0, 1.0, 0.78, 0.02, 512, 2),              # two pairs at once
        (-1.0, 3.0, 0.9 * 3.0**0.25, A_HI, 512, 2),  # largest amplitude
        (1.0, 1.0, 1.3, 1e-4, 64, 0),                 # all stable
    ])
    def test_matches_slice_by_slice_reference(self, beta, gamma, k, a, xi_grid,
                                              pairs, monkeypatch):
        # every slice of the grid and the seeds, each certified on its own
        # and solved on its window: the sweep's maximiser, bit for bit
        w = wave_at(beta, gamma, k)
        cfg = TruncationConfig(N=32, xi_grid=xi_grid)
        swept = []

        def recording_on_axis(wave, a, xis, N):
            swept.extend(xis)
            return hill_on_axis(wave, a, xis, N)

        hill_on_axis = hill._on_axis
        monkeypatch.setattr(hill, "_on_axis", recording_on_axis)
        xi_star, growth, sl = max_growth(w, a, cfg)
        ref_xi, ref_growth, ref = exhaustive_max_growth(w, a, cfg)
        assert (xi_star, growth) == (ref_xi, ref_growth)
        if sl is not None:
            assert (sl.paired, sl.max_real_part) == (ref.paired, ref.max_real_part)
            assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        if pairs:
            # some slice of the sweep, solved or certified, has that many
            # clusters of modes of both signs
            assert any(sum(min(c) < 0 <= max(c) for c in _clusters(w, a, xi, 32))
                       >= pairs for xi in swept)
        if xi_grid == 64:
            # the maximiser was certified, so it is returned unsolved
            assert sl is None and growth == 0.0 and ref.paired
            assert not _on_axis(w, a, np.array([xi_star]), 32)[0]

    @pytest.mark.parametrize("beta, gamma, k, a, most", [
        (-1.0, 1.0, 0.78, 0.02, 31),           # {-1,1} held apart off its bubble
        # below threshold: the modulational seed and the grid's first point,
        # on the flank of its bubble
        (1.0, 2.0, 0.8 * 8.0**0.25, 0.01, 2),
        (1.0, 1.0, 1.6, 0.01, 4),              # above: the {-1,0} bubble
    ])
    def test_solves_few_slices(self, beta, gamma, k, a, most, monkeypatch):
        solved = []
        spy_solves(monkeypatch, lambda xi, growth, clusters: solved.append(xi))
        xi_star, _, _ = max_growth(wave_at(beta, gamma, k), a, CFG32)
        assert len(solved) <= most
        assert xi_star in solved

    @settings(max_examples=40, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32]),
           xi_grid=st.sampled_from([16, 64, 512]))
    def test_growth_is_best_of_grid_and_seeds(self, beta, gamma, u, a, N, xi_grid):
        # one _on_axis call, on the grid and the seeds; no slice solved
        # twice; the growth is the largest of the solved slices', at the
        # least xi that has it, and the returned slice is that slice
        w = _drawn_wave(beta, gamma, u, a)
        cfg = TruncationConfig(N=N, xi_grid=xi_grid)
        calls, solved = [], []
        hill_on_axis = hill._on_axis

        def recording_on_axis(wave, a, xis, N):
            calls.append(np.array(xis))
            return hill_on_axis(wave, a, xis, N)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hill, "_on_axis", recording_on_axis)
            spy_solves(mp, lambda xi, growth, clusters: solved.append((xi, growth)))
            xi_star, growth, sl = max_growth(w, a, cfg)
        seeds = _bubble_seeds(w, a, N)
        assert np.all((_XI_LO < seeds) & (seeds <= 0.5))
        (xis,) = calls
        assert xis.tobytes() == np.unique(np.concatenate([cfg.grid(), seeds])).tobytes()
        assert len({np.float64(xi).tobytes() for xi, _ in solved}) == len(solved)
        best = max([g for _, g in solved], default=0.0)
        assert growth == best == (0.0 if sl is None else sl.max_real_part)
        if sl is None:
            assert xi_star == xis[0]
        else:
            assert xi_star == sl.xi == min(xi for xi, g in solved if g == best)

    def test_certified_maximiser_not_solved(self, monkeypatch):
        # nothing grows at a = 1e-4 and every slice is certified: no slice
        # is solved, and none is returned
        w = wave_at(1, 1, 1.3)
        cfg = TruncationConfig(N=32, xi_grid=64)
        solved = []
        spy_solves(monkeypatch, lambda xi, growth, clusters: solved.append(xi))
        xi_star, growth, sl = max_growth(w, 1e-4, cfg)
        assert solved == []
        assert (growth, sl) == (0.0, None)

    def test_zero_amplitude(self):
        w = wave_at(1, 1, 1.3)
        cfg = TruncationConfig(N=16, xi_grid=64)
        _, growth, _ = max_growth(w, 0.0, cfg)
        assert growth <= 1e-12

    def test_maximizer_at_collision(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        xi_star, growth, sl = max_growth(w, 0.01, CFG32)
        assert abs(xi_star - xi0) < 0.005
        assert growth == pytest.approx(
            predicted_growth_rate(w, -1, xi0, 0.01), rel=0.05)
        assert sl.paired

    def test_growth_linear_in_amplitude(self):
        w = wave_at(1, 1, 1.6)
        _, g2, _ = max_growth(w, 0.02, CFG32)
        _, g1, _ = max_growth(w, 0.01, CFG32)
        assert 1.8 <= g2 / g1 <= 2.2

    def test_dn3_bubble_seeded_by_collision_xi(self):
        # for beta > 0, {-3,0} collides, opposite-Krein, at every k below
        # 0.4658 (1 + p vanishes at xi = (3 - sqrt(5))/2), a pair the sign
        # probe of enumerate_collision_pairs does not list; its bubble
        # grows like a^3, the order of a dn = 3 collision
        w = wave_at(1, 1, 0.4)
        xi0 = collision_xi(w.params, -3, 0)[0]
        growth = {}
        for a in (0.02, 0.04):
            xi_star, growth[a], sl = max_growth(w, a, CFG32)
            assert growth[a] > 0 and abs(xi_star - xi0) < 1e-3
            assert [c.modes for c in sl.growth_clusters] == [(-3, 0)]
        assert 6 <= growth[0.04] / growth[0.02] <= 10


# one wave of each group of the sweep benchmark: beta > 0 above and below
# the {-1,0} threshold, and beta < 0
BENCH_GROUPS = [
    (1.0, 2.0, 1.3 * 8.0**0.25, 0.01),
    (1.0, 2.0, 0.8 * 8.0**0.25, 0.01),
    (-1.0, 3.0, 0.9 * 3.0**0.25, 0.015),
]


class TestHeadlineBubbleOracle:
    """The paper's headline {-1,0} bubble, measured by max_growth at N = 32,
    against an oracle that shares no code with hill: R assembled densely
    from the wave's amplitudes, speed and omega (dense_R), solved by
    np.linalg.eigvals at N = 16, its growth maximised over xi around each
    collision of {-1,0}.  Kept to dn = 1: the narrow {-2,0} bubbles slip
    through a plain xi scan."""

    @pytest.mark.parametrize("bgk, a", [((1, 1, 1.6), 0.01), ((1, 2.3, 1.9), 0.015)])
    def test_peak_matches_dense_oracle(self, bgk, a):
        w = wave_at(*bgk)

        def growth(xi):
            return np.abs(np.linalg.eigvals(dense_R(w, a, 16, xi)).imag).max()

        peaks = []
        for xi0 in collision_xi(w.params, -1, 0):
            scan = np.linspace(max(xi0 - 0.02, _XI_LO), min(xi0 + 0.02, 0.5), 401)
            j = int(np.argmax([growth(xi) for xi in scan]))
            best = minimize_scalar(lambda xi: -growth(xi), method="bounded",
                                   bounds=(scan[max(j - 1, 0)], scan[min(j + 1, 400)]),
                                   options={"xatol": 1e-10})
            peaks.append((-best.fun, best.x))
        assert peaks
        g_oracle, xi_oracle = max(peaks)
        xi_star, g, _ = max_growth(w, a, CFG32)
        assert g == pytest.approx(g_oracle, rel=1e-5)
        assert abs(xi_star - xi_oracle) <= 1e-4


class TestExactRescaling:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6), j=st.integers(64, 819),
           i=st.integers(-12, 4), xi=st.floats(0.01, 0.5))
    def test_power_of_two_maps(self, beta, gamma, u, j, i, xi):
        # Two rescalings are exact in floating point, powers of two being
        # exact factors.  (beta, gamma, a) -> s*(beta, gamma, a), s = 4^i,
        # multiplies every entry of R by s (time runs s times faster), so
        # growth and eigenvalues scale by s bit for bit and xi* stays.
        # (beta, k, a) -> (beta/16, 2k, a/4) keeps beta*k^4/gamma and
        # a*k^2/gamma, and every entry of R: nothing changes by a bit.  A
        # test on absolute sizes anywhere in the sweep would break either;
        # s*a reaches past 0.1, as no bound is put on the bare amplitude.
        # Two limits of the arithmetic, not of the sweep, shape the draws:
        # LAPACK's eigenvalues of 2R differ from twice those of R in the
        # last bit on about 2% of slices (it takes square roots of single
        # entries), so s is an even power of two; and libm's pow is not
        # always exact under a power-of-two scaling, so a = j/2^16 and k on
        # a 2^-10 lattice make the Stokes expansion's a**3, a**4 and k**4
        # exact.  Its powers of A2 (A2**2 in A44) can still move R by a
        # bit, on about 4 draws in 10^4, so the draws are derandomized.
        k = round(1024 * u * (4.0 * gamma if beta > 0 else gamma) ** 0.25) / 1024
        a, s = j / 2**16, 4.0**i
        w = ordered_wave(beta, gamma, k, a)
        xi_star, growth, _ = max_growth(w, a, CFG32)
        sl = spectrum_slice(w, a, xi, CFG32)
        pencils = [(p.n, p.m, xi0) for p in enumerate_collision_pairs(beta, 2, 2)
                   if p.opposite_krein for xi0 in collision_xi(w.params, p.n, p.m)]
        for v, b, f in ((wave_at(s * beta, s * gamma, k), s * a, s),
                        (wave_at(beta / 16, gamma, 2 * k), a / 4, 1.0)):
            assert max_growth(v, b, CFG32)[:2] == (xi_star, f * growth)
            scaled = spectrum_slice(v, b, xi, CFG32)
            assert scaled.max_real_part == f * sl.max_real_part
            for part in ("real", "imag"):
                assert (getattr(scaled.eigenvalues, part).tobytes()
                        == (f * getattr(sl.eigenvalues, part)).tobytes())
            for n, m, xi0 in pencils:
                assert xi0 in collision_xi(v.params, n, m)
                M = reduced_pencil(w, n, m, xi0, a).M
                assert reduced_pencil(v, n, m, xi0, b).M.tobytes() == (f * M).tobytes()


def recorded_sweep(wave, a, cfg):
    """max_growth's result, with each slice it solved: its xi, growth and
    open clusters.  A sweep that grows has solved at least one slice."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        spy_solves(mp, lambda xi, growth, clusters: calls.append((xi, growth, clusters)))
        result = max_growth(wave, a, cfg)
    assert calls or not result[1] > 0
    return result, calls


class TestWindowSolve:
    @settings(max_examples=30, deadline=None)
    @given(**_WAVES, N=st.one_of(st.integers(8, 48), st.just(96)),
           xi_grid=st.sampled_from([16, 64]))
    def test_matches_full_solve(self, beta, gamma, u, a, N, xi_grid):
        """Every slice a sweep solves on a window grows as two_solve_slice
        does on all 2N+1 modes, within

            tol = 2*kappa*3*_CERTIFY_MARGIN*||R||_inf.

        The full solve's growing eigenvalue is exact for R + E_f, ||E_f||_2
        at most _CERTIFY_MARGIN*||R||_inf (TestOneSolve checks that
        residual).  The window's counted eigenvalue is exact for R + E_w,
        ||E_w||_2 at most the window solve's backward error, no larger for
        a block of R, plus the guard's bound _CERTIFY_MARGIN*||R||_inf.
        Both lie within kappa*||E||_2 of
        the exact eigenvalue to first order, kappa the largest condition
        number 1/|y^H x| (unit left and right eigenvectors) of an
        eigenvalue of R off the real line, or 1 when there is none; the
        factor 2 covers the second-order term.
        """
        w = _drawn_wave(beta, gamma, u, a)
        cfg = TruncationConfig(N=N, xi_grid=xi_grid)
        _, calls = recorded_sweep(w, a, cfg)
        for xi, growth, _ in calls:
            R = _assemble_real(w, a, xi, N)
            norm = np.abs(R).sum(axis=1).max()
            lam, left, right = eig(R, left=True)
            kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))
            kappa = kappa[lam.imag != 0].max(initial=1.0)
            tol = 2 * kappa * 3 * _CERTIFY_MARGIN * norm
            ref = two_solve_slice(w, a, xi, cfg)
            assert abs(growth - ref.max_real_part) <= tol

    def test_guard_failure_falls_back_to_full_solve(self, monkeypatch):
        # with the guard's bound at 0 no counted window eigenpair passes,
        # and the slice is the full solve's, bit for bit
        w = wave_at(1, 1, 1.6)
        xi = collision_xi(w.params, -1, 0)[0]
        clusters = _on_axis(w, 0.01, np.array([xi]), 32)[0]
        full = spectrum_slice(w, 0.01, xi, CFG32)
        window = hill._built(xi, 0.01, *hill._solve_window(w, 0.01, xi, clusters, 32))
        assert full.eigenvalues.size == 65 and window.eigenvalues.size == 18
        assert window.max_real_part == pytest.approx(full.max_real_part, rel=1e-12)
        monkeypatch.setattr(hill, "_CERTIFY_MARGIN", 0.0)
        sl = hill._built(xi, 0.01, *hill._solve_window(w, 0.01, xi, clusters, 32))
        assert sl.eigenvalues.tobytes() == full.eigenvalues.tobytes()
        assert (sl.max_real_part, sl.paired) == (full.max_real_part, full.paired)
        assert sl.growth_clusters == full.growth_clusters == clusters

    def test_boundary_clusters_leave_an_empty_window(self, monkeypatch):
        # on the boundary wave the one open cluster holds every mode, the
        # boundary modes among them: no growth can count, so nothing is
        # solved and the slice scores 0.0
        w, a, xi = wave_at(*BOUNDARY_BGK), BOUNDARY_A, BOUNDARY_XI
        clusters = _on_axis(w, a, np.array([xi]), 9)[0]
        assert [c.boundary for c in clusters] == [True]
        monkeypatch.setattr(hill, "eigenvalues", None)
        monkeypatch.setattr(hill, "_solve", None)
        sl = hill._built(xi, a, *hill._solve_window(w, a, xi, clusters, 9))
        assert (sl.eigenvalues.size, sl.max_real_part, sl.paired) == (0, 0.0, True)
        assert sl.growth_clusters == ()

    @pytest.mark.parametrize("beta, gamma, k, a", BENCH_GROUPS)
    def test_sweep_solves_windows_only(self, beta, gamma, k, a, monkeypatch):
        # at N = 96 every matrix the sweep hands the solver is the window
        # of the slice's open clusters, far below 2N+1 = 193
        dims = []

        def recording_solve(solver, matrix):
            dims.append(matrix.shape[0])
            return hill_solve(solver, matrix)

        hill_solve = hill._solve
        monkeypatch.setattr(hill, "_solve", recording_solve)
        _, calls = recorded_sweep(wave_at(beta, gamma, k), a, TruncationConfig(N=96))
        windows = []
        for _, _, clusters in calls:
            modes = [n for c in clusters if not c.boundary for n in c.modes]
            windows.append(min(max(modes) + 8, 96) - max(min(modes) - 8, -96) + 1)
        assert dims == windows
        assert dims and max(dims) <= 24

    @settings(max_examples=25, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 32, 96]), xi_grid=st.sampled_from([16, 64]))
    def test_guard_and_empty_window_on_grid_slices(self, beta, gamma, u, a, N, xi_grid):
        # each open slice of a sweep's grid, solved alone.  With the
        # guard's bound below 0, a slice whose window counts growth falls
        # back to the full solve, bit for bit, and one that counts none is
        # the window solve the guard does not read (a bound of 0 still
        # passes a residual that is exactly 0, as where the couplings of
        # a = 1.4e-45 underflow).  Its clusters relabelled as boundary
        # clusters leave an empty window: 0.0, with no solve
        w = _drawn_wave(beta, gamma, u, a)
        grid = np.unique(np.concatenate([default_xi_grid(xi_grid), _bubble_seeds(w, a, N)]))
        clusters = _on_axis(w, a, grid, N)
        open_ = [(xi, c) for xi, c in zip(grid, clusters) if c]
        assume(open_)
        for xi, c in open_:
            ref = hill._solve_window(w, a, xi, c, N)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hill, "_CERTIFY_MARGIN", -1.0)
                growth, lam, grown = hill._solve_window(w, a, xi, c, N)
            if hill._attribute(ref[1], c)[0].any():
                full = eigenvalues(_assemble_real(w, a, xi, N))
                counted, full_grown = hill._attribute(full, c)
                assert lam.tobytes() == full.tobytes()
                assert (growth, grown) == (hill._score(full, counted), full_grown)
            else:
                assert lam.tobytes() == ref[1].tobytes()
                assert (growth, grown) == (ref[0], ref[2])
            boundary = tuple(cl._replace(boundary=True) for cl in c)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hill, "_solve", None)
                mp.setattr(hill, "eigenvalues", None)
                growth, lam, grown = hill._solve_window(w, a, xi, boundary, N)
            assert (growth, lam.size, grown) == (0.0, 0, ())

    @pytest.mark.parametrize("beta, gamma, k, a", [
        BENCH_GROUPS[0], BENCH_GROUPS[2], (-1.0, 1.0, 0.78, 0.02), (1.0, 1.0, 1.6, 0.01),
    ])
    def test_returned_slice_is_spectrum_slice(self, beta, gamma, k, a):
        # the one slice max_growth builds is the one-slice solve's at
        # xi_star on the open clusters the sweep solved it with, bit for bit
        (xi_star, growth, sl), calls = recorded_sweep(wave_at(beta, gamma, k), a, CFG32)
        (clusters,) = [c for xi, _, c in calls if xi == xi_star]
        ref = hill._built(xi_star, a, *hill._solve_window(wave_at(beta, gamma, k), a,
                                                          xi_star, clusters, 32))
        assert growth == sl.max_real_part > 0
        assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert ((sl.xi, sl.a, sl.max_real_part, sl.paired, sl.growth_clusters)
                == (ref.xi, ref.a, ref.max_real_part, ref.paired, ref.growth_clusters))

    @pytest.mark.parametrize("beta, gamma, k, a", BENCH_GROUPS)
    def test_sweep_independent_of_truncation(self, beta, gamma, k, a):
        # the windows hold the same modes at every N, so the sweep returns
        # the same xi_star and growth, bit for bit
        w = wave_at(beta, gamma, k)
        results = {max_growth(w, a, TruncationConfig(N=N))[:2]
                   for N in (32, 64, 96, 1000, 2000)}
        assert len(results) == 1

    @pytest.mark.parametrize("beta, gamma, k, a", [BENCH_GROUPS[0], BENCH_GROUPS[2]])
    def test_window_solve_evaluates_omega_on_its_rows(self, beta, gamma, k, a):
        # each slice a sweep solves at N = 2000, solved again with omega
        # spied: the window solve evaluates it on no more than the window's
        # rows, and reads ||R||_inf off the clusters
        w, N = wave_at(beta, gamma, k), 2000
        _, calls = recorded_sweep(w, a, TruncationConfig(N=N))
        assert calls
        for xi, growth, clusters in calls:
            modes = [n for c in clusters if not c.boundary for n in c.modes]
            window = min(max(modes) + 8, N) - max(min(modes) - 8, -N) + 1
            evaluated = []

            def spy(params, c, x):
                evaluated.append(np.size(x))
                return omega(params, c, x)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hill.dispersion, "omega", spy)
                out = hill._solve_window(w, a, xi, clusters, N)
            assert out[0] == growth and out[1].size == window
            assert sum(evaluated) <= window

    @pytest.mark.parametrize("beta, gamma, k, a", BENCH_GROUPS)
    def test_sweep_holds_no_dense_matrix(self, beta, gamma, k, a):
        # the sweep keeps the coupling as its bands: at N = 2000 its traced
        # peak stays below a quarter of one (2N+1)^2 float64 array
        w, N = wave_at(beta, gamma, k), 2000
        tracemalloc.start()
        try:
            max_growth(w, a, TruncationConfig(N=N))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * N + 1)**2 * 8 / 4


def assert_same_certificate(w, a, N, lattice, clusters, ref_clusters):
    """The verdicts and open clusters of ``ref_clusters``: verdicts (a
    slice without open clusters is certified), modes, boundary flags and
    norms equal, spans within 8*eps*||R||_inf (the batch shape can reorder
    a radius's sums)."""
    assert [not c for c in clusters] == [not c for c in ref_clusters]
    assert ([[c[2:] for c in open_] for open_ in clusters]
            == [[c[2:] for c in open_] for open_ in ref_clusters])
    for xi, open_, ref in zip(lattice, clusters, ref_clusters):
        if open_:
            norm = np.abs(_assemble_real(w, a, xi, N)).sum(axis=1).max()
            np.testing.assert_allclose([c[:2] for c in open_], [c[:2] for c in ref],
                                       rtol=0, atol=8 * np.finfo(float).eps * norm)


def chunked_on_axis(w, a, xis, N):
    """_on_axis's clusters of ``xis``, and the slices of each chunk its
    slice-by-slice stage took: _runs clusters the hulls once, one row a
    block, then the intervals of each chunk, one row a slice."""
    rows = []
    runs = hill._runs

    def recording_runs(left, *rest):
        rows.append(left.shape[0])
        return runs(left, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hill, "_runs", recording_runs)
        clusters = _on_axis(w, a, xis, N)
    return clusters, rows[1:]


class TestOnAxisPass:
    @settings(max_examples=100, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32, 96]),
           xi_grid=st.sampled_from([16, 64, 512]),
           pick=st.floats(0.0, 1.0, exclude_max=True), shift=st.integers(-2, 2))
    def test_lattice_among_grid(self, beta, gamma, u, a, N, xi_grid, pick, shift):
        # 63 points evenly inside the bracket of a grid point next to a
        # seed, certified in one pass with the sweep's grid and seeds:
        # the certificate of those points alone, so a slice's verdict does
        # not hang on which other xi values share its block
        w = _drawn_wave(beta, gamma, u, a)
        seeds = _bubble_seeds(w, a, N)
        assume(seeds.size)
        grid = np.unique(np.concatenate([default_xi_grid(xi_grid), seeds]))
        i = int(np.searchsorted(grid, seeds[int(pick * seeds.size)])) + shift
        i = min(max(i, 0), grid.size - 1)
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        lattice = lo + (hi - lo) * np.arange(1, 64) / 64
        xis = np.unique(np.concatenate([grid, lattice]))
        clusters = _on_axis(w, a, xis, N)
        clusters = [clusters[j] for j in np.searchsorted(xis, lattice)]
        assert_same_certificate(w, a, N, lattice, clusters, _on_axis(w, a, lattice, N))

    @pytest.mark.parametrize("beta, gamma, k", [
        (1.0, 1.0, 1.6), (1.0, 2.0, 1.3 * 8.0**0.25),
    ])
    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("at", ["last", "first"])
    def test_collision_at_block_boundary(self, beta, gamma, k, N, at):
        # two blocks of xi values 2e-4 apart, 0.01 between them, the
        # {-1,0} collision at the last xi of the first block or at the
        # first of the second, and no window in the other block's hulls:
        # the collision's slice is left open, and every slice has the
        # certificate it has alone, so each block's slices are read off
        # that block's hulls and rows
        w, a = wave_at(beta, gamma, k), 0.01
        xi0 = collision_xi(w.params, -1, 0)[0]
        near = xi0 + 2e-4 * np.arange(-_CERTIFY_BLOCK + 1, 1)
        far = xi0 + 0.01 + 2e-4 * np.arange(_CERTIFY_BLOCK)
        if at == "first":
            near, far = 2 * xi0 - far[::-1], 2 * xi0 - near[::-1]
        xis = np.concatenate([near, far])
        clusters = _on_axis(w, a, xis, N)
        assert clusters[_CERTIFY_BLOCK - (at == "last")]
        alone = [_on_axis(w, a, xis[j:j + 1], N)[0] for j in range(xis.size)]
        assert_same_certificate(w, a, N, xis, clusters, alone)

    @pytest.mark.parametrize("beta, gamma, k, a", [
        *BENCH_GROUPS,
        (1.0, 1.0, 1.3, 1e-4),  # all stable
    ])
    def test_one_pass_per_sweep(self, beta, gamma, k, a, monkeypatch):
        # max_growth certifies its grid and seeds, ascending, in one
        # _on_axis pass
        passes = []
        hill_on_axis = hill._on_axis

        def recording_on_axis(wave, a, xis, N):
            passes.append(np.array(xis))
            return hill_on_axis(wave, a, xis, N)

        monkeypatch.setattr(hill, "_on_axis", recording_on_axis)
        w = wave_at(beta, gamma, k)
        max_growth(w, a, CFG32)
        (xis,) = passes
        grid = np.unique(np.concatenate([CFG32.grid(), _bubble_seeds(w, a, 32)]))
        assert xis.tobytes() == grid.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32]), xi_grid=st.sampled_from([16, 64, 512]))
    # no block is busy, so no slice is taken slice by slice
    @example(beta=1.0, gamma=1.0, u=0.75, a=5e-324, N=8, xi_grid=16)
    def test_row_chunks_match_one_chunk(self, beta, gamma, u, a, N, xi_grid):
        # a sweep's grid, which at N <= 32 the slice stage takes in one
        # chunk, certified with the entry budget down to one row a chunk
        w = _drawn_wave(beta, gamma, u, a)
        grid = np.unique(np.concatenate([default_xi_grid(xi_grid), _bubble_seeds(w, a, N)]))
        clusters, chunks = chunked_on_axis(w, a, grid, N)
        assert len(chunks) <= 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hill, "_CERTIFY_ENTRIES", 1)
            rows, chunks = chunked_on_axis(w, a, grid, N)
        assert chunks == [1] * len(chunks)
        assert_same_certificate(w, a, N, grid, rows, clusters)

    def test_entry_budget_bounds_memory(self):
        # a 2^16-point grid of the beta < 0 benchmark wave at N = 32 is
        # certified in more than two chunks; the slice stage holds about
        # twenty arrays of at most _CERTIFY_ENTRIES entries at once, and
        # the hull stage's arrays are released before it, so the traced
        # peak of _on_axis stays within 32 times the budget's 8 bytes an
        # entry (21.5 MiB measured; 62-65 MiB with the whole grid one chunk)
        beta, gamma, k, a = BENCH_GROUPS[2]
        w, grid = wave_at(beta, gamma, k), default_xi_grid(2**16)
        assert len(chunked_on_axis(w, a, grid, 32)[1]) > 2
        tracemalloc.start()
        try:
            _on_axis(w, a, grid, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * hill._CERTIFY_ENTRIES * 8

    @settings(max_examples=60, deadline=None)
    @given(**_WAVES, N=st.integers(8, 200), xi=st.floats(0.01, 0.5),
           xi_grid=st.sampled_from([16, 64]))
    def test_open_clusters_carry_the_full_norm(self, beta, gamma, u, a, N, xi, xi_grid):
        # the ||R||_inf each open cluster carries, read off the top modes,
        # is the largest row term over all 2N+1 modes, bit for bit: top
        # holds the arg-max
        w = _drawn_wave(beta, gamma, u, a)
        xis = np.unique(np.concatenate([default_xi_grid(xi_grid), _bubble_seeds(w, a, N),
                                        [xi]]))
        clusters = _on_axis(w, a, xis, N)
        assume(any(clusters))
        c, _, row_sum, _ = _wave_terms(w, a, N)
        for x0, open_ in zip(xis, clusters):
            if open_:
                x = np.arange(-N, N + 1) + x0
                norm = np.max(np.abs(omega(w.params, c, x)) + np.abs(x) * row_sum)
                assert {cl.norm for cl in open_} == {norm}

    def test_far_modes_bound_certify_memory(self):
        # rule (c) bounds the modes past ext by two hull ends a pair, not
        # by a gather over them: at N = 2000 the sweep grid of the beta < 0
        # benchmark wave, 512 of whose slices are taken slice by slice, is
        # certified within 6 MiB, hull stage included (4.53 MiB measured;
        # the slice stage alone took 16.3 MiB when every far mode's hull
        # ends were gathered for each pair)
        beta, gamma, k, a = BENCH_GROUPS[2]
        w, N = wave_at(beta, gamma, k), 2000
        grid = np.unique(np.concatenate([TruncationConfig(N=N).grid(), _bubble_seeds(w, a, N)]))
        assert sum(chunked_on_axis(w, a, grid, N)[1]) >= 512
        tracemalloc.start()
        try:
            _on_axis(w, a, grid, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_refuses_xis_out_of_order(self):
        # a block's span holds the block's own xi values only when they
        # ascend, so any other order is refused
        w, grid = wave_at(1, 1, 1.6), default_xi_grid(64)
        for xis in (grid[::-1], grid[[0, 2, 1, *range(3, 64)]]):
            with pytest.raises(ValueError, match="ascending"):
                _on_axis(w, 0.01, xis, 16)


class TestKreinAtZeroAmplitude:
    # at a = 0 mode n is the coordinate vector e_n, whose energy form
    # <L e_n, e_n> is L's diagonal entry: its sign is the Krein signature
    def test_diagonal_signs(self):
        w = wave_at(1, 1, 1.3)
        c0 = phase_speed_c0(w.params)
        L0 = assemble_L_matrix(w, 0.0, 0.27, CFG16)
        n = np.arange(-16, 17)
        assert np.array_equal(np.sign(np.diag(L0)),
                              krein_signature(w.params, c0, n + 0.27))

    def test_opposite_signs_at_collision(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        L0 = assemble_L_matrix(w, 0.0, xi0, CFG16)
        assert L0[16 - 1, 16 - 1] * L0[16, 16] < 0


class TestConfig:
    def test_n_validated(self):
        with pytest.raises(ValueError):
            TruncationConfig(N=4)
        # 2N+1 > MAX_DIM is rejected at construction, before any solve
        assert TruncationConfig(N=(MAX_DIM - 1) // 2).N == (MAX_DIM - 1) // 2
        with pytest.raises(ValueError, match=rf"N {(MAX_DIM + 1) // 2} not in \[8, "):
            TruncationConfig(N=(MAX_DIM + 1) // 2)

    def test_grid_size_bounded(self):
        assert default_xi_grid(1).tolist() == [0.5]
        assert TruncationConfig(xi_grid=MAX_XI_GRID).xi_grid == MAX_XI_GRID
        for num in (0, -3, MAX_XI_GRID + 1):
            with pytest.raises(ValueError, match="xi grid size"):
                default_xi_grid(num)
            # rejected at construction, before any grid exists
            with pytest.raises(ValueError, match="xi grid size"):
                TruncationConfig(xi_grid=num)

    def test_sizes_must_be_integers(self):
        # a fractional grid size would put the grid's last point past 1/2,
        # and a fractional or NaN N would fail later, inside numpy; a bool
        # is no count, though True == 1 would sweep the one point xi = 1/2
        for kwargs in ({"xi_grid": 100.5}, {"N": 32.5}, {"N": float("nan")},
                       {"xi_grid": True}, {"N": True}):
            with pytest.raises(ValueError, match="not an integer"):
                TruncationConfig(**kwargs)
        with pytest.raises(ValueError, match="not an integer"):
            default_xi_grid(2.5)
        # numpy integers are integers
        cfg = TruncationConfig(N=np.int64(16), xi_grid=np.int32(64))
        assert cfg.grid().size == 64 and cfg.grid()[-1] == 0.5

    def test_hull_entries_bounded(self, monkeypatch):
        # a sweep's hull stage holds (2N+1) * ceil(xi_grid/64) entries at
        # once: past the bound max_growth refuses the sweep before any
        # work, while the config itself, and a single slice on it, stay
        # legal.  N = 32 on the largest grid and N = 4999 on the default
        # grid pass the guard (test_cli runs both).
        w = wave_at(1, 1, 1.6)
        assert TruncationConfig(N=32, xi_grid=MAX_XI_GRID).xi_grid == MAX_XI_GRID
        assert TruncationConfig(N=4999).N == 4999
        for N, xi_grid in ((127, MAX_XI_GRID), (4999, 419 * _CERTIFY_BLOCK)):
            # 255 * 16384 and 9999 * 419 blocks fit: the sweep starts (its
            # certificate is stubbed to certify every slice)
            with monkeypatch.context() as mp:
                mp.setattr(hill, "_on_axis", lambda wave, a, xis, N: [()] * xis.size)
                _, growth, sl = max_growth(w, 0.01, TruncationConfig(N=N, xi_grid=xi_grid))
            assert growth == 0.0 and sl is None

        def no_work(*args, **kwargs):
            raise AssertionError("a sweep past the hull-entry guard started")
        # 9999 * 420 blocks do not fit: the last block may be partial
        for N, xi_grid in ((128, MAX_XI_GRID), (2000, MAX_XI_GRID),
                           (4999, 419 * _CERTIFY_BLOCK + 1)):
            assert (2 * N + 1) * -(-xi_grid // _CERTIFY_BLOCK) > MAX_HULL_ENTRIES
            cfg = TruncationConfig(N=N, xi_grid=xi_grid)
            assert (cfg.N, cfg.xi_grid) == (N, xi_grid)
            with monkeypatch.context() as mp:
                mp.setattr(hill, "_bubble_seeds", no_work)
                mp.setattr(hill, "_on_axis", no_work)
                with pytest.raises(ValueError, match="hull-entry guard"):
                    max_growth(w, 0.01, cfg)
        sl = spectrum_slice(w, 0.01, 0.3, TruncationConfig(N=128, xi_grid=MAX_XI_GRID))
        assert sl.eigenvalues.size == 257 and sl.paired

    def test_default_grid_range(self):
        grid = TruncationConfig().grid()
        assert grid.size == 512
        assert grid[0] > _XI_LO
        assert grid[-1] == 0.5

    def test_boundary_mass(self):
        # the reference filter's measure
        v = np.zeros(33)
        v[0] = 1.0
        assert boundary_mass(v, 4) == 1.0
        v = np.zeros(33)
        v[16] = 1.0
        assert boundary_mass(v, 4) == 0.0


class TestModeSeparationTwo:
    """Measured behavior at second-harmonic-coupled collisions (beta < 0).

    The two colliding modes n and n+2 also interact through a two-hop
    first-harmonic path via the intermediate mode n+1, which enters the
    effective coupling at the same a^2 order as the direct second
    harmonic.  For the {-1,1} family the combined coupling pushes the
    pair off the imaginary axis at O(a^2).  The {-2,0} collision is
    quiescent at leading order only at k^4 = gamma/|beta|, where
    test_pair_m2_0_quiescent sits (k = 1); elsewhere it grows, e.g. at
    beta = -1, gamma = 1, k = 2, a = 0.01 the slice at
    xi = 0.010471489115157728, next to its collision, has max_real_part
    1.169e-8 in the cluster [-2, 0].  Frozen values below were cross-checked against
    second-order degenerate perturbation theory (agreement to five
    digits).
    """

    def test_pair_m1_1_grows_at_second_order(self):
        w = wave_at(-1, 1, 0.78)
        xi0 = collision_xi(w.params, -1, 1)[0]
        cfg = TruncationConfig(N=48)
        g1 = spectrum_slice(w, 0.01, xi0, cfg).max_real_part
        g2 = spectrum_slice(w, 0.02, xi0, cfg).max_real_part
        assert g1 == pytest.approx(0.031337 * 0.01**2, rel=1e-3)
        assert np.log2(g2 / g1) == pytest.approx(2.0, abs=0.05)

    def test_pair_m2_0_quiescent(self):
        w = wave_at(-1, 1, 1.0)
        xi0 = collision_xi(w.params, -2, 0)[0]
        cfg = TruncationConfig(N=48)
        for a in (0.04, 0.02):
            assert spectrum_slice(w, a, xi0, cfg).max_real_part < 1e-9
