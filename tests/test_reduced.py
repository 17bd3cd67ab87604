import numpy as np
import pytest

from ostro_stab import (
    NotACollision,
    NotUnstable,
    OrderNotAnalyzed,
    PhysicalParams,
    WrongDispersionSign,
    collision_xi,
    discriminant_dn1,
    eigenvalue_shifts,
    eigenvalues,
    instability_threshold_dn1,
    predicted_growth_rate,
    reduced_matrix_dn1,
    reduced_matrix_dn2,
    reduced_pencil,
    stokes_coefficients,
)

RNG = np.random.default_rng(20240817)


def wave_at(beta, gamma, k):
    return stokes_coefficients(PhysicalParams(beta, gamma, k))


class TestThreshold:
    def test_values(self):
        assert instability_threshold_dn1(1, 1) == pytest.approx(2**0.5, rel=1e-15)
        assert instability_threshold_dn1(1, 6) == pytest.approx(
            24**0.25, rel=1e-12)
        assert instability_threshold_dn1(4, 1) == pytest.approx(1.0, rel=1e-15)

    def test_wrong_sign(self):
        with pytest.raises(WrongDispersionSign):
            instability_threshold_dn1(-1, 1)
        with pytest.raises(ValueError):
            instability_threshold_dn1(1, -1)


class TestPencilDn1:
    def test_zero_amplitude_diagonal(self):
        w = wave_at(1, 1, 2**0.5)
        pen = reduced_matrix_dn1(w, -1, 0.5, 0.0)
        np.testing.assert_array_equal(pen.B, 1j * pen.omega * np.eye(2))
        res = eigenvalue_shifts(pen)
        assert res.value == 0.0
        assert res.shifts == (0, 0)
        assert not res.unstable and res.growth_rate == 0.0

    def test_purely_imaginary_entries(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_matrix_dn1(w, -1, xi0, 0.05)
        assert np.all(pen.B.real == 0.0)

    def test_offdiagonal_ratio_encodes_signatures(self):
        w = wave_at(1, 1, 2**0.5 * 1.05)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_matrix_dn1(w, -1, xi0, 0.03)
        ratio = (pen.B[1, 0] / pen.B[0, 1]).real
        assert ratio == pytest.approx((-1 + xi0) / xi0, rel=1e-12)
        assert ratio < 0

    def test_trace_identity(self):
        w = wave_at(1, 1, 1.7)
        xi0 = collision_xi(w.params, -1, 0)[0]
        a = 0.04
        pen = reduced_matrix_dn1(w, -1, xi0, a)
        expected = 1j * w.params.k**2 * a**2 * w.c2 * (2 * (-1) + 1 + 2 * xi0)
        assert pen.B.trace() - 2j * pen.omega == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_collision(self):
        w = wave_at(1, 1, 1.6)
        with pytest.raises(NotACollision):
            reduced_matrix_dn1(w, -1, 0.1, 0.01)


class TestShifts:
    def test_threshold_case(self):
        # k^4 = 4, xi0 = 1/2: leading discriminant -0.04 at a = 0.1
        w = wave_at(1, 1, 2**0.5)
        pen = reduced_matrix_dn1(w, -1, 0.5, 0.1)
        res = eigenvalue_shifts(pen)
        lead = discriminant_dn1(w, -1, 0.5, 0.1)
        assert lead == pytest.approx(-0.04, rel=1e-12)
        assert res.value == pytest.approx(lead, rel=1e-2)
        assert res.unstable
        assert res.growth_rate == pytest.approx(0.1, rel=1e-3)

    def test_shifts_match_generic_eigensolver(self):
        w = wave_at(1, 1, 1.8)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_matrix_dn1(w, -1, xi0, 0.02)
        res = eigenvalue_shifts(pen)
        lam = eigenvalues(pen.B)
        expected = sorted(1j * pen.omega + 1j * np.array(res.shifts),
                          key=lambda z: (z.imag, z.real))
        got = sorted(lam, key=lambda z: (z.imag, z.real))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_closed_form_agreement_random(self):
        # exact 2x2 discriminant vs leading closed form, O(a) relative
        for _ in range(50):
            k = float(RNG.uniform(1.45, 2.5))
            a = float(RNG.uniform(0.001, 0.02))
            w = wave_at(1, 1, k)
            xi0 = collision_xi(w.params, -1, 0)[0]
            res = eigenvalue_shifts(reduced_matrix_dn1(w, -1, xi0, a))
            lead = discriminant_dn1(w, -1, xi0, a)
            assert abs(res.value - lead) <= 20 * a * abs(lead)

    def test_discriminant_sign_tracks_signatures(self):
        for k in (1.5, 2.0, 3.0):
            w = wave_at(1, 1, k)
            xi0 = collision_xi(w.params, -1, 0)[0]
            assert discriminant_dn1(w, -1, xi0, 0.01) < 0
        # same-signature pair {1,2} collides below k = (gamma/(4 beta))^(1/4)
        w = wave_at(1, 1, 0.6)
        xi0 = collision_xi(w.params, 1, 2)[0]
        assert discriminant_dn1(w, 1, xi0, 0.01) > 0


class TestDiscriminant:
    def test_value(self):
        w = wave_at(1, 1, 1)
        assert discriminant_dn1(w, 1, 0.3, 0.01) == pytest.approx(
            4 * 1e-4 * 1.3 * 2.3, rel=1e-12)

    def test_zero_amplitude(self):
        assert discriminant_dn1(wave_at(1, 1, 1), -1, 0.4, 0.0) == 0.0

    def test_negative_for_opposite_pair(self):
        w = wave_at(1, 1, 1)
        for xi0 in (0.1, 0.25, 0.5):
            assert discriminant_dn1(w, -1, xi0, 0.01) < 0


class TestPredictedGrowth:
    def test_half_xi(self):
        w = wave_at(1, 1, 2**0.5)
        assert predicted_growth_rate(w, -1, 0.5, 0.02) == pytest.approx(
            w.params.k**2 * 0.02 / 2, rel=1e-15)

    def test_zero_amplitude(self):
        assert predicted_growth_rate(wave_at(1, 1, 1.6), -1, 0.3, 0.0) == 0.0

    def test_linear_in_amplitude(self):
        w = wave_at(1, 1, 1.6)
        assert predicted_growth_rate(w, -1, 0.28, 0.02) == pytest.approx(
            2 * predicted_growth_rate(w, -1, 0.28, 0.01), rel=1e-15)

    def test_same_signature_rejected(self):
        with pytest.raises(NotUnstable):
            predicted_growth_rate(wave_at(1, 1, 1), 1, 0.3, 0.01)


class TestPencilDn2:
    def test_zero_amplitude_diagonal(self):
        k = (4 / 9) ** 0.25
        w = wave_at(-1, 1, k)
        pen = reduced_matrix_dn2(w, -1, 0.5, 0.0)
        np.testing.assert_array_equal(pen.B, 1j * pen.omega * np.eye(2))

    def test_entry_formulas(self):
        k = (4 / 9) ** 0.25
        w = wave_at(-1, 1, k)
        a, xi0 = 0.05, 0.5
        pen = reduced_matrix_dn2(w, -1, xi0, a)
        k2 = k**2
        diag = a**2 * w.A2 + a**4 * w.c4
        off = a**2 * w.A2 + a**4 * w.A42
        assert pen.B[0, 0] == 1j * pen.omega + 1j * k2 * diag * (-1 + xi0)
        assert pen.B[0, 1] == -1j * k2 * off * (1 + xi0)
        assert pen.B[1, 0] == -1j * k2 * off * (-1 + xi0)
        assert np.all(np.isfinite(pen.B))
        assert (pen.B[0, 1] / pen.B[1, 0]).real == pytest.approx(
            (1 + xi0) / (-1 + xi0), rel=1e-12)

    def test_leading_discriminant_positive(self):
        # the pencil itself predicts no instability at this order
        k = (4 / 9) ** 0.25
        w = wave_at(-1, 1, k)
        pen = reduced_matrix_dn2(w, -1, 0.5, 0.05)
        res = eigenvalue_shifts(pen)
        lead = 4 * k**4 * 0.05**4 * w.A2**2 * 0.5**2
        assert res.value == pytest.approx(lead, rel=1e-2)
        assert res.value > 0
        assert not res.unstable
        assert res.growth_rate == 0.0


class TestDispatch:
    def test_dn_routing(self):
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        assert reduced_pencil(w, 0, -1, xi0, 0.01).order == 2
        k = (4 / 9) ** 0.25
        w2 = wave_at(-1, 1, k)
        assert reduced_pencil(w2, 1, -1, 0.5, 0.01).order == 4

    def test_large_separation_rejected(self):
        w = wave_at(1, 1, 1.6)
        with pytest.raises(OrderNotAnalyzed):
            reduced_pencil(w, -1, 2, 0.3, 0.01)
