import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ostro_stab import (
    ConvergenceFailure,
    IndefiniteNearZero,
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
    krein_of_eigenpair,
    max_growth,
    omega,
    phase_speed_c0,
    predicted_growth_rate,
    spectrum_slice,
    stokes_coefficients,
)
from ostro_stab.hill import (
    _BOUNDARY_MASS_LIMIT,
    _CERTIFY_BLOCK,
    _CERTIFY_MARGIN,
    _KREIN_FORM_TOL,
    _RE_TRIGGER,
    _REFINE_ROUNDS,
    _SOLVE_NOISE,
    MAX_DIM,
    MAX_XI_GRID,
    PAIRING_TOL,
    SpectrumSlice,
    _assemble_real,
    _boundary_mass,
    _collision_seeds,
    _critical_points,
    _eigenvector,
    _greedy_matching,
    _growth_kept,
    _hulls,
    _on_axis,
    _pairing_ok,
    _sorted_witness,
    _trisection_tree,
    _wave_terms,
)
from ostro_stab.stokes import A_MAX, as_amplitude


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
        # {0,4} is a same-signature collision: its pair stays on the axis
        # here, so no candidate reaches the filters (TestGrowthFilter
        # drops one with a definite form)
        w = wave_at(1, 1, 1.2)
        xi0 = collision_xi(w.params, 0, 4)[0]
        sl = spectrum_slice(w, 0.005, xi0, CFG32)
        assert sl.max_real_part < 1e-8

    def test_boundary_growth_filtered(self):
        # at k just above half the threshold, next to the second-harmonic
        # resonance, the truncated slice has a growing pair carried by the
        # boundary modes; its energy form vanishes, so only the
        # boundary-mass filter drops it
        w = wave_at(1, 1, 0.708)
        sl = spectrum_slice(w, 0.08, 0.1, TruncationConfig(N=9))
        assert sl.eigenvalues.real.max() > 3.0
        assert sl.max_real_part == 0.0

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


def _rotation_in_diagonal(n, p, g):
    """diag(10, 20, ...) with rows and columns p, p+1 replaced by a
    rotation block g*[[0, 1], [-1, 0]]: eigenvalues +-i*g there, whose
    eigenvectors are (1, +-i)/sqrt(2) on modes p, p+1."""
    R = np.diag(10.0 * np.arange(1, n + 1))
    R[p:p + 2, p:p + 2] = [[0.0, g], [-g, 0.0]]
    return R


class TestGrowthFilter:
    # the Krein-form drop of _growth_kept on a small constructed slice: no
    # Hill slice was found whose growth candidate has a definite form
    N_MODES, MARGIN, G = 11, 4, 0.3

    def kept(self, p, L_block):
        R = _rotation_in_diagonal(self.N_MODES, p, self.G)
        L = np.eye(self.N_MODES)
        L[p:p + 2, p:p + 2] = L_block
        mu = eigenvalues(R)
        keep = _growth_kept(R, L, mu, self.MARGIN)
        return keep[np.abs(mu.imag) > _RE_TRIGGER]

    def test_indefinite_pair_kept(self):
        # <L v, v> = (1 - 1)/2 = 0 on (1, i)/sqrt(2): a genuine growth pair
        assert list(self.kept(5, np.diag([1.0, -1.0]))) == [True, True]

    def test_definite_form_dropped(self):
        assert list(self.kept(5, np.eye(2))) == [False, False]

    def test_singular_shift(self):
        # R - i*I is exactly singular: a bare solve fails, the helper nudges
        R = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(R - 1j * np.eye(2), np.ones(2))
        v = _eigenvector(R, 1j)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(R @ v - 1j * v) <= 4 * np.finfo(float).eps


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
           a=st.floats(0.0, A_MAX, exclude_min=True),
           N=st.integers(8, 48), xi=st.floats(1e-3, 0.5),
           near=st.sampled_from(["uniform", "opposite", "same"]),
           pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    def test_sound(self, beta, gamma, u, a, N, xi, near, pick, t, scale):
        # wherever the certificate holds, the solve finds no growth at all.
        # k is u times the {-1,0} threshold (beta > 0) or gamma^(1/4)
        # (beta < 0).  Two thirds of the draws sit within a*k^2/2 (down to
        # a thousandth of it) of a collision: of modes of opposite sign of
        # n+xi, across the edge of its instability bubble, where clusters
        # of two such modes are certified or not; or of modes of one sign,
        # whose clusters are always certified
        k = u * (4.0 * gamma if beta > 0 else gamma) ** 0.25
        try:
            w = wave_at(beta, gamma, k)
        except ResonantWavenumber:
            assume(False)
        if near != "uniform":
            seeds = (_collision_seeds(w, a, lo=1e-3) if near == "opposite"
                     else _crossings(w, opposite=False))
            assume(seeds)
            xi = seeds[int(pick * len(seeds))] + t * a * k**2 / 10**scale
            assume(1e-3 <= xi <= 0.5)
        assume(_on_axis(w, a, np.array([xi]), N)[0])
        sl = spectrum_slice(w, a, xi, TruncationConfig(N=N))
        assert sl.max_real_part == 0.0
        assert np.all(sl.eigenvalues.real == 0.0)

    @pytest.mark.parametrize("a, xi, clusters", [
        (0.01, 0.2088, [[0, 1]]),                      # one sign
        (A_MAX, 0.2088, [[0, 1]]),
        (0.01, 0.025115910621102442, [[-1, 1], [0, 2]]),  # and a pair
        (A_MAX, 0.025115910621102442, [[-1, 1], [0, 2]]),
        (0.01, 0.2828306772509555, [[-1, 0]]),         # xi0 + 0.003: a pair
        (A_MAX, 0.2998306772509555, [[-1, 0]]),        # xi0 + 0.02, off its bubble
    ])
    def test_certifies_overlapping_clusters(self, a, xi, clusters):
        # beta = gamma = 1, k = 1.6: {-1,0} collides at xi0 = 0.27983, and
        # the one-sign pairs {0,1} and {0,2} at 0.2088 and 0.02512
        w = wave_at(1, 1, 1.6)
        assert sorted(_clusters(w, a, xi, 16)) == clusters
        assert _on_axis(w, a, np.array([xi]), 16)[0]
        assert spectrum_slice(w, a, xi, CFG16).max_real_part == 0.0

    @pytest.mark.parametrize("xi", [0.35, 0.36])
    def test_leaves_mixed_triples_to_the_solve(self, xi):
        # below the threshold at the largest amplitude, modes -2, -1 and 1
        # overlap: the inertia count across them is odd, which proves one
        # real eigenvalue of three, so the slice is solved
        w = wave_at(1, 1, 0.85)
        assert _clusters(w, A_MAX, xi, 16) == [[-2, -1, 1]]
        assert not _on_axis(w, A_MAX, np.array([xi]), 16)[0]

    @pytest.mark.parametrize("a", [1e-4, 0.01, A_MAX])
    @pytest.mark.parametrize("N", [16, 32])
    def test_rejects_collision(self, a, N):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        assert not _on_axis(w, a, np.array([xi0]), N)[0]

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
        assert not np.any(_on_axis(w, a, xis, 16))
        for xi in xis:
            assert spectrum_slice(w, a, xi, CFG16).max_real_part == 0.0

    def test_tight_around_bubble(self):
        # the {-1,0} intervals overlap for |xi - xi0| < 0.0034, but the
        # slice grows only for |xi - xi0| < 0.0012: the pair test leaves
        # little more than the growing slices to the solve
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        xis = xi0 + np.linspace(-0.005, 0.005, 2001)
        certified = _on_axis(w, 0.01, xis, 16)
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
        certified = _on_axis(w, a, xis, N)
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
    taken over every mode.
    """
    c, coupling = _wave_terms(wave, as_amplitude(a).a, N)
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


def trisection_paths(lo, hi):
    """Every point the trisection loop of max_growth can visit from
    (lo, hi), by its own float expressions, over all branch choices."""
    brackets, visited = [(lo, hi)], []
    for _ in range(_REFINE_ROUNDS):
        nxt = []
        for lo, hi in brackets:
            t = np.array([lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0])
            visited += list(t)
            nxt += [(lo, t[1]), (t[0], hi)]
        brackets = nxt
    return visited


_WAVES = dict(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
              u=st.floats(0.5, 1.6), a=st.floats(0.0, A_MAX, exclude_min=True))


def _drawn_wave(beta, gamma, u):
    # k is u times the {-1,0} threshold (beta > 0) or gamma^(1/4) (beta < 0)
    k = u * (4.0 * gamma if beta > 0 else gamma) ** 0.25
    try:
        return wave_at(beta, gamma, k)
    except ResonantWavenumber:
        assume(False)


class TestWindowedCertificate:
    @settings(max_examples=150, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32, 48, 96]),
           sweep=st.sampled_from([16, 64, 512, 0]),
           pick=st.floats(0.0, 1.0, exclude_max=True), width=st.floats(-9.0, -1.0))
    def test_matches_full_width(self, beta, gamma, u, a, N, sweep, pick, width):
        # a sweep grid with its collision seeds, as max_growth builds it, or
        # (sweep = 0) the trisection points of a bracket 10^width wide
        # around a collision seed: the verdicts are those of the
        # certificate computed on every mode of every slice
        w = _drawn_wave(beta, gamma, u)
        seeds = _collision_seeds(w, a, lo=1.0 / 1024)
        if sweep:
            xis = np.unique(np.concatenate([default_xi_grid(sweep), seeds]))
        else:
            assume(seeds)
            xi0 = seeds[int(pick * len(seeds))]
            xis = _trisection_tree(max(1.0 / 1024, xi0 - 10**width),
                                   min(0.5, xi0 + 10**width))
        np.testing.assert_array_equal(_on_axis(w, a, xis, N),
                                      full_width_on_axis(w, a, xis, N))

    @settings(max_examples=150, deadline=None)
    @given(**_WAVES, N=st.sampled_from([8, 16, 32, 48, 96]),
           lo=st.floats(1e-3, 0.5), width=st.floats(-6.0, 0.0))
    def test_hulls_hold_every_interval(self, beta, gamma, u, a, N, lo, width):
        # intervals across [lo, hi], and at every mode's critical points
        # inside it, where omega turns, lie in their hulls up to the
        # rounding of a centre and a radius, far inside the hull margin
        w = _drawn_wave(beta, gamma, u)
        hi = min(0.5, lo + 10**width)
        c, coupling = _wave_terms(w, a, N)
        abs_c = np.abs(coupling)
        n = np.arange(-N, N + 1)
        left, right, norm_lo, norm_hi = (
            v[0] for v in _hulls(w.params, c, abs_c, abs_c.sum(axis=1), n,
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

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(1e-3, 0.5), width=st.floats(0.0, 0.5))
    def test_tree_holds_every_visited_point(self, lo, width):
        # each of the 14 points any branch of the trisection visits is one
        # of the points certified in one call, bit for bit
        hi = np.float64(min(0.5, lo + width))
        tree = _trisection_tree(np.float64(lo), hi)
        assert tree.size == 2 * (2**_REFINE_ROUNDS - 1)
        tree_bits = {t.tobytes() for t in tree}
        assert all(t.tobytes() in tree_bits
                   for t in trisection_paths(np.float64(lo), hi))

    def test_visits_only_certified_tree_points(self, monkeypatch):
        # max_growth certifies the grid, then the 14 tree points in one
        # call, and solves only among those points
        w = wave_at(1, 1, 1.6)
        calls, solved = [], []

        def recording_on_axis(wave, a, xis, N):
            calls.append(np.array(xis))
            return _on_axis(wave, a, xis, N)

        def recording_slice(wave, a, xi, cfg):
            solved.append(xi)
            return spectrum_slice(wave, a, xi, cfg)

        monkeypatch.setattr(hill, "_on_axis", recording_on_axis)
        monkeypatch.setattr(hill, "spectrum_slice", recording_slice)
        max_growth(w, 0.01, CFG16)
        assert len(calls) == 2
        grid, tree = calls
        assert tree.size == 14
        allowed = {t.tobytes() for t in np.concatenate([grid, tree])}
        assert all(np.float64(xi).tobytes() in allowed for xi in solved)


def two_solve_kept(R, L, margin):
    """Eigenvalues w of R by np.linalg.eig, and which count toward growth.

    The filter loop of two_solve_slice, on eig's own eigenvectors.
    """
    w, V = np.linalg.eig(R)
    lam = 1j * w
    keep = np.abs(lam.real) <= _RE_TRIGGER
    for i in np.flatnonzero(~keep):
        v = V[:, i]
        if _boundary_mass(v, margin) > _BOUNDARY_MASS_LIMIT:
            continue
        form = abs(np.vdot(v, L @ v)) / np.vdot(v, v).real
        if form > _KREIN_FORM_TOL * (1.0 + abs(lam[i].imag)):
            continue
        keep[i] = True
    return w, keep


def two_solve_slice(wave, a, xi, cfg):
    """Reference slice: eigenvalues, and a second dense solve on growth.

    When some eigenvalue has a real part above trigger, np.linalg.eig
    solves the slice again, and its eigenvalues and eigenvectors replace
    those of the first solve for the filters.
    """
    amp = as_amplitude(a)
    R = _assemble_real(wave, amp, xi, cfg.N)
    lam = 1j * eigenvalues(R)
    re = lam.real
    if np.any(np.abs(re) > _RE_TRIGGER):
        w, keep = two_solve_kept(R, assemble_L_matrix(wave, amp, xi, cfg),
                                 cfg.boundary_margin)
        lam = 1j * w
        re = lam.real
        max_re = float(re[keep].max()) + 0.0 if keep.any() else 0.0
    else:
        max_re = float(re.max()) + 0.0
    lam = lam[np.lexsort((lam.real, lam.imag))]
    return SpectrumSlice(xi=float(xi), a=amp.a, eigenvalues=lam,
                         max_real_part=max_re, paired=_pairing_ok(lam))


class TestOneSolve:
    @settings(max_examples=200, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6.0),
           u=st.floats(0.5, 1.6),
           a=st.floats(0.0, A_MAX, exclude_min=True),
           N=st.one_of(st.integers(8, 37), st.sampled_from([48, 96])),
           pick=st.floats(0.0, 1.0, exclude_max=True),
           t=st.floats(-0.5, 0.5), scale=st.integers(0, 3))
    def test_matches_two_solve_slice(self, beta, gamma, u, a, N, pick, t, scale):
        # within a*k^2/2 of an opposite-sign collision, where about a
        # fifth of the slices grow.  Up to 2N+1 = 75 LAPACK's
        # eigenvalues-only and eigenvector solves return the same
        # eigenvalues bit for bit; above, they differ in the last bits, so
        # the decisions must agree and the growth within rounding
        k = u * (4.0 * gamma if beta > 0 else gamma) ** 0.25
        try:
            w = wave_at(beta, gamma, k)
        except ResonantWavenumber:
            assume(False)
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
        for m in mu[mu.imag > _RE_TRIGGER]:
            v = _eigenvector(R, m)
            assert np.linalg.norm(R @ v - m * v) <= tol
        if N <= 37:
            assert sl.max_real_part == ref.max_real_part
            assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
            return
        assert abs(sl.max_real_part - ref.max_real_part) <= tol
        # the same candidates kept, matched in (imag, real) order
        L = assemble_L_matrix(w, a, xi, cfg)
        decisions = []
        for ev, keep in ((mu, _growth_kept(R, L, mu, cfg.boundary_margin)),
                         two_solve_kept(R, L, cfg.boundary_margin)):
            cand = np.abs(ev.imag) > _RE_TRIGGER
            decisions.append(keep[cand][np.lexsort((ev.real[cand], ev.imag[cand]))])
        np.testing.assert_array_equal(*decisions)


def exhaustive_max_growth(wave, a, cfg):
    """Reference sweep: solves every slice, grid and refinement alike."""
    grid = np.unique(np.concatenate([
        cfg.grid(), np.asarray(_collision_seeds(wave, a, lo=1.0 / 1024))
    ]))
    slices = [two_solve_slice(wave, a, t, cfg) for t in grid]
    best = max(slices, key=lambda s: s.max_real_part)
    i = slices.index(best)
    lo = grid[i - 1] if i > 0 else grid[0]
    hi = grid[i + 1] if i + 1 < grid.size else grid[-1]
    for _ in range(_REFINE_ROUNDS):
        t1 = lo + (hi - lo) / 3.0
        t2 = hi - (hi - lo) / 3.0
        s1 = two_solve_slice(wave, a, t1, cfg)
        s2 = two_solve_slice(wave, a, t2, cfg)
        for s in (s1, s2):
            if s.max_real_part > best.max_real_part:
                best = s
        if s1.max_real_part >= s2.max_real_part:
            hi = t2
        else:
            lo = t1
    return best.xi, best.max_real_part, best


class TestMaxGrowth:
    @pytest.mark.parametrize("beta, gamma, k, a, xi_grid, pairs", [
        (1.0, 2.0, 1.3 * 8.0**0.25, 0.01, 512, 0),    # above threshold
        (1.0, 2.0, 0.8 * 8.0**0.25, 0.01, 512, 0),    # below threshold
        (-1.0, 3.0, 0.9 * 3.0**0.25, 0.015, 512, 0),  # beta < 0
        (-1.0, 1.0, 0.78, 0.02, 512, 2),              # two pairs at once
        (-1.0, 3.0, 0.9 * 3.0**0.25, A_MAX, 512, 2),  # largest amplitude
        (1.0, 1.0, 1.3, 1e-4, 64, 0),                 # all stable
    ])
    def test_matches_exhaustive_reference(self, beta, gamma, k, a, xi_grid,
                                          pairs, monkeypatch):
        w = wave_at(beta, gamma, k)
        cfg = TruncationConfig(N=32, xi_grid=xi_grid)
        swept = []

        def recording_on_axis(wave, a, xis, N):
            swept.extend(xis)
            return _on_axis(wave, a, xis, N)

        monkeypatch.setattr(hill, "_on_axis", recording_on_axis)
        xi_star, growth, sl = max_growth(w, a, cfg)
        ref_xi, ref_growth, ref = exhaustive_max_growth(w, a, cfg)
        assert (xi_star, growth, sl.paired) == (ref_xi, ref_growth, ref.paired)
        assert sl.max_real_part == ref.max_real_part
        assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        if pairs:
            # some slice of the sweep, solved or certified, has that many
            # clusters of modes of both signs
            assert any(sum(min(c) < 0 <= max(c) for c in _clusters(w, a, xi, 32))
                       >= pairs for xi in swept)
        if xi_grid == 64:
            # the maximiser was certified, so it is returned unsolved: the
            # eigenvalues compared above were solved on first access
            assert growth == 0.0
            assert _on_axis(w, a, np.array([xi_star]), 32)[0]

    @pytest.mark.parametrize("beta, gamma, k, a, most", [
        (-1.0, 1.0, 0.78, 0.02, 45),           # {-1,1} held apart off its bubble
        (1.0, 2.0, 0.8 * 8.0**0.25, 0.01, 1),  # below threshold: nothing grows
    ])
    def test_solves_few_slices(self, beta, gamma, k, a, most, monkeypatch):
        solved = []

        def recording_slice(wave, a, xi, cfg):
            solved.append(xi)
            return spectrum_slice(wave, a, xi, cfg)

        monkeypatch.setattr(hill, "spectrum_slice", recording_slice)
        xi_star, _, _ = max_growth(wave_at(beta, gamma, k), a, CFG32)
        assert len(solved) <= most
        assert xi_star in solved

    def test_certified_maximiser_solved_on_access(self, monkeypatch):
        # nothing grows at a = 1e-4 and every slice is certified: the
        # returned slice is not solved until its eigenvalues are read, and
        # then once, to the slice a solve gives
        w = wave_at(1, 1, 1.3)
        cfg = TruncationConfig(N=32, xi_grid=64)
        solved = []

        def recording_slice(wave, a, xi, cfg):
            solved.append(xi)
            return spectrum_slice(wave, a, xi, cfg)

        monkeypatch.setattr(hill, "spectrum_slice", recording_slice)
        xi_star, growth, sl = max_growth(w, 1e-4, cfg)
        assert solved == []
        assert (sl.xi, sl.a, sl.max_real_part, sl.paired) == (xi_star, 1e-4, 0.0, True)
        ref = spectrum_slice(w, 1e-4, xi_star, cfg)
        assert sl.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert sl.eigenvalues is sl.eigenvalues
        assert solved == [xi_star]

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
        # the same on the inverse-iteration eigenvector of the one solve
        mu = eigenvalues(R)
        with pytest.raises(IndefiniteNearZero):
            krein_of_eigenpair(L, _eigenvector(R, mu[np.argmin(mu.imag)]))

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
