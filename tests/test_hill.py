import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ostro_stab import (
    ConvergenceFailure,
    IndefiniteNearZero,
    PhysicalParams,
    TruncationConfig,
    XiOutOfRange,
    assemble_L_matrix,
    assemble_matrix,
    collision_xi,
    default_xi_grid,
    eigenvalues,
    eval_speed,
    harmonic_amplitudes,
    krein_of_eigenpair,
    max_growth,
    omega,
    phase_speed_c0,
    predicted_growth_rate,
    spectrum_slice,
    stokes_coefficients,
)
from ostro_stab.hill import (
    MAX_DIM,
    MAX_XI_GRID,
    PAIRING_TOL,
    _assemble_real,
    _boundary_mass,
    _greedy_matching,
    _pairing_ok,
    _sorted_witness,
    _wave_terms,
)


def wave_at(beta, gamma, k):
    return stokes_coefficients(PhysicalParams(beta, gamma, k))


CFG16 = TruncationConfig(N=16)
CFG32 = TruncationConfig(N=32)


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
        col = np.zeros(2 * N + 1)
        col[1:5] = -2.0 * k2 * (harmonic_amplitudes(w, a) / 2.0)
        T = toeplitz(col)
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
        memo = _wave_terms(w, a, N)[1]
        assert not memo.flags.writeable
        with pytest.raises(ValueError):
            memo[np.diag_indices_from(memo)] = 0.0
        assert memo.tobytes() == T.tobytes()


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

    def test_matches_dispersion_at_zero_amplitude(self):
        w = wave_at(1, 6, 2.5)
        c0 = phase_speed_c0(w.params)
        lam = eigenvalues(assemble_matrix(w, 0.0, 0.25, CFG32))
        x = np.arange(-32, 33) + 0.25
        for target in 1j * omega(w.params, c0, x):
            assert np.min(np.abs(lam - target)) < 1e-12

    def test_generic_solver_pairing(self):
        # zgeev path keeps the -conj symmetry within tolerance
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        lam = eigenvalues(assemble_matrix(w, 0.02, xi0, TruncationConfig(N=12)))
        assert _pairing_ok(lam, tol=1e-9)


def _matching_exists(lam, tol):
    """Reference: a perfect matching of lambda with -conj(lambda) within
    tol*max(1, |lambda|), by maximum bipartite matching."""
    target = -np.conj(lam)
    d = np.abs(lam[:, None] - target[None, :])
    ok = d <= tol * np.maximum(1.0, np.abs(lam))[:, None]
    match = maximum_bipartite_matching(csr_matrix(ok.astype(int)))
    return bool(np.all(match >= 0))


class TestPairing:
    def test_near_tie_falls_back_to_greedy(self):
        # imaginary parts 1e-15 apart with real parts +-v: sorting by
        # (imag, real) pairs v with -v, so the witness fails although the
        # nearest partners agree to 1e-15
        v = 0.25
        lam = np.array([v + 1.0j, -v + (1.0 + 1e-15) * 1j, 3.0j, -2.0j])
        assert not _sorted_witness(lam, PAIRING_TOL)
        assert _greedy_matching(lam, PAIRING_TOL)
        assert _pairing_ok(lam)

    def test_unpaired_rejected(self):
        assert not _pairing_ok(np.array([0.1 + 1j, -0.1 + 1j, 0.2 + 2j]))
        assert not _pairing_ok(np.array([1e-3 + 1j, -1e-3 + (1 + 1e-6) * 1j]))

    def test_real_solver_output_exactly_paired(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        lam = 1j * eigenvalues(_assemble_real(w, 0.02, xi0, 32))
        assert _sorted_witness(lam, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(
               st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 2.0),
               st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-40.0, 40.0),
               st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
               min_size=1, max_size=10),
           order=st.randoms(use_true_random=False))
    def test_never_stricter_than_greedy(self, pairs, order):
        # -conj-symmetric sets perturbed by up to 3*PAIRING_TOL
        lam = []
        for x, y, ex, ey in pairs:
            lam += [x + 1j * y, -x + 1j * y + PAIRING_TOL * (ex + 1j * ey)]
        order.shuffle(lam)
        lam = np.array(lam)
        ok = _pairing_ok(lam)
        if _greedy_matching(lam, PAIRING_TOL):
            assert ok
        if ok:
            assert _matching_exists(lam, PAIRING_TOL)


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
        # {0,4} is a same-signature collision: the eigensolver may split
        # the double eigenvalue off axis, but the energy form is definite
        # there so the filter must discard it
        w = wave_at(1, 1, 1.2)
        xi0 = collision_xi(w.params, 0, 4)[0]
        sl = spectrum_slice(w, 0.005, xi0, CFG32)
        assert sl.max_real_part < 1e-8

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


class TestMaxGrowth:
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


class TestKreinOfEigenpair:
    def test_coordinate_vectors_at_zero_amplitude(self):
        w = wave_at(1, 1, 1.3)
        c0 = phase_speed_c0(w.params)
        L0 = assemble_L_matrix(w, 0.0, 0.27, CFG16)
        for n in (-3, -1, 0, 2):
            v = np.zeros(33)
            v[16 + n] = 1.0
            expected = 1 if omega(w.params, c0, n + 0.27) / (n + 0.27) > 0 else -1
            assert krein_of_eigenpair(L0, v) == expected

    def test_opposite_signs_at_collision(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        L0 = assemble_L_matrix(w, 0.0, xi0, CFG16)
        v_n = np.zeros(33)
        v_n[16 - 1] = 1.0
        v_m = np.zeros(33)
        v_m[16] = 1.0
        assert krein_of_eigenpair(L0, v_n) * krein_of_eigenpair(L0, v_m) == -1

    def test_indefinite_on_unstable_eigenvector(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        R = _assemble_real(w, 0.02, xi0, 16)
        vals, vecs = np.linalg.eig(R)
        lam = 1j * vals
        i = int(np.argmax(lam.real))
        assert lam[i].real > 1e-3
        L = assemble_L_matrix(w, 0.02, xi0, CFG16)
        with pytest.raises(IndefiniteNearZero):
            krein_of_eigenpair(L, vecs[:, i])

    def test_zero_vector_rejected(self):
        L = np.eye(3)
        with pytest.raises(ValueError):
            krein_of_eigenpair(L, np.zeros(3))


class TestConfig:
    def test_n_validated(self):
        with pytest.raises(ValueError):
            TruncationConfig(N=4)
        # 2N+1 > MAX_DIM is rejected at construction, before any solve
        assert TruncationConfig(N=(MAX_DIM - 1) // 2).N == (MAX_DIM - 1) // 2
        with pytest.raises(ValueError, match="dimension"):
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

    def test_default_grid_range(self):
        grid = TruncationConfig().grid()
        assert grid.size == 512
        assert grid[0] > 1.0 / 1024
        assert grid[-1] == 0.5

    def test_boundary_mass(self):
        v = np.zeros(33)
        v[0] = 1.0
        assert _boundary_mass(v, 4) == 1.0
        v = np.zeros(33)
        v[16] = 1.0
        assert _boundary_mass(v, 4) == 0.0


class TestModeSeparationTwo:
    """Measured behavior at second-harmonic-coupled collisions (beta < 0).

    The two colliding modes n and n+2 also interact through a two-hop
    first-harmonic path via the intermediate mode n+1, which enters the
    effective coupling at the same a^2 order as the direct second
    harmonic.  For the {-1,1} family the combined coupling pushes the
    pair off the imaginary axis at O(a^2); for {-2,0} the combination
    stays definite and the collision is quiescent.  Frozen values below
    were cross-checked against second-order degenerate perturbation
    theory (agreement to five digits).
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
