import numpy as np
import pytest

from ostro_stab import (
    ConvergenceFailure,
    IndefiniteNearZero,
    PhysicalParams,
    TruncationConfig,
    XiOutOfRange,
    assemble_L_matrix,
    assemble_matrix,
    collision_xi,
    eigenvalues,
    krein_of_eigenpair,
    max_growth,
    omega,
    phase_speed_c0,
    predicted_growth_rate,
    spectrum_slice,
    stokes_coefficients,
)
from ostro_stab.hill import _assemble_real, _boundary_mass, _pairing_ok


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
        cfg = TruncationConfig(N=16, xi_grid=tuple(np.linspace(0.01, 0.5, 64)))
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

    def test_grid_validated(self):
        with pytest.raises(XiOutOfRange):
            TruncationConfig(xi_grid=(0.0, 0.25))
        with pytest.raises(XiOutOfRange):
            TruncationConfig(xi_grid=(0.25, 0.75))

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
