import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ostro_stab import (
    NotACollision,
    NotUnstable,
    OrderNotAnalyzed,
    PhysicalParams,
    ResonantWavenumber,
    WrongDispersionSign,
    collision_xi,
    discriminant_dn1,
    eigenvalue_shifts,
    eigenvalues,
    harmonic_amplitudes,
    instability_threshold_dn1,
    predicted_growth_rate,
    reduced_pencil,
    stokes_coefficients,
)
from ostro_stab.reduced import _checked_omega

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

    @pytest.mark.parametrize("beta, gamma, message", [
        (1.0, 0.0, "gamma must be positive and finite"),
        (1.0, math.inf, "gamma must be positive and finite"),
        (math.inf, 1.0, "beta must be finite and nonzero"),
    ])
    def test_invalid_coefficients(self, beta, gamma, message):
        # the check PhysicalParams makes
        with pytest.raises(ValueError, match=message):
            instability_threshold_dn1(beta, gamma)


class TestPencilDn1:
    def test_zero_amplitude_diagonal(self):
        w = wave_at(1, 1, 2**0.5)
        pen = reduced_pencil(w, -1, 0, 0.5, 0.0)
        np.testing.assert_array_equal(pen.M, pen.omega * np.eye(2))
        # a zero coupling is a positive zero, as B_imag prints it
        assert not np.signbit(pen.M[[0, 1], [1, 0]]).any()
        res = eigenvalue_shifts(pen)
        assert res.value == 0.0
        assert res.shifts == (0, 0)
        assert not res.unstable and res.growth_rate == 0.0

    def test_real_entries(self):
        # the pencil i*M is kept as the real M
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_pencil(w, -1, 0, xi0, 0.05)
        assert pen.M.dtype == np.float64 and pen.M.shape == (2, 2)
        assert np.all(np.isfinite(pen.M))

    def test_offdiagonal_ratio_encodes_signatures(self):
        w = wave_at(1, 1, 2**0.5 * 1.05)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_pencil(w, -1, 0, xi0, 0.03)
        ratio = pen.M[1, 0] / pen.M[0, 1]
        assert ratio == pytest.approx((-1 + xi0) / xi0, rel=1e-12)
        assert ratio < 0

    def test_trace_identity(self):
        w = wave_at(1, 1, 1.7)
        xi0 = collision_xi(w.params, -1, 0)[0]
        a = 0.04
        pen = reduced_pencil(w, -1, 0, xi0, a)
        expected = w.params.k**2 * a**2 * w.c2 * (2 * (-1) + 1 + 2 * xi0)
        assert pen.M.trace() - 2 * pen.omega == pytest.approx(expected, rel=1e-12)

    def test_rejects_non_collision(self):
        w = wave_at(1, 1, 1.6)
        with pytest.raises(NotACollision):
            reduced_pencil(w, -1, 0, 0.1, 0.01)


class TestCollisionCheck:
    PAIRS = [(-1, 0), (-1, 1), (-2, 0), (-3, 0)]

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.3, 3.0), negative=st.booleans(),
           gamma=st.floats(0.3, 6.0), scale=st.floats(0.3, 3.0),
           j=st.integers(-40, 40))
    @example(beta=1.0, negative=True, gamma=1.0, scale=0.8, j=-40)
    @example(beta=1.0, negative=False, gamma=1.0, scale=1.6, j=40)
    # the {-3,0} xi, where libm's x**2 and x*x round apart
    @example(beta=1.25, negative=True, gamma=1.3, scale=0.3537474523001713, j=-2)
    def test_rescaling_changes_no_verdict(self, beta, negative, gamma, scale, j):
        # multiplying (beta, gamma) by 2^j multiplies every omega and its
        # scale by 2^j bit for bit: a collision, and a point 1e-3 off one,
        # are told apart in any units
        beta = -beta if negative else beta
        k = scale * (gamma / abs(beta)) ** 0.25
        params = PhysicalParams(beta, gamma, k)
        try:
            stokes_coefficients(params)
        except ResonantWavenumber:
            assume(False)
        unit = 2.0**j
        scaled = PhysicalParams(beta * unit, gamma * unit, k)

        def verdicts(params, unit):
            wave = stokes_coefficients(params)
            out = []
            for n, m in self.PAIRS:
                for xi0 in collision_xi(params, n, m):
                    for xi in (xi0, xi0 + 1e-3):
                        try:
                            out.append(_checked_omega(wave, n, m, xi) / unit)
                        except NotACollision:
                            out.append(None)
            return out

        assert verdicts(scaled, unit) == verdicts(params, 1.0)


class TestShifts:
    def test_threshold_case(self):
        # k^4 = 4, xi0 = 1/2: leading discriminant -0.04 at a = 0.1
        w = wave_at(1, 1, 2**0.5)
        pen = reduced_pencil(w, -1, 0, 0.5, 0.1)
        res = eigenvalue_shifts(pen)
        lead = discriminant_dn1(w, -1, 0.5, 0.1)
        assert lead == pytest.approx(-0.04, rel=1e-12)
        assert res.value == pytest.approx(lead, rel=1e-2)
        assert res.unstable
        assert res.growth_rate == pytest.approx(0.1, rel=1e-3)

    @pytest.mark.parametrize("a", [1e-10, 1e-8, 1e-6, 0.01])
    def test_unstable_exactly_when_growth(self, a):
        # the dn = 1 discriminant scales like a^2, down to -5e-20 here: any
        # negative one is unstable, with the leading-order growth rate
        w = wave_at(1, 1, 1.6)
        xi0 = collision_xi(w.params, -1, 0)[0]
        res = eigenvalue_shifts(reduced_pencil(w, -1, 0, xi0, a))
        assert res.value < 0 and res.unstable and res.growth_rate > 0
        assert res.growth_rate == pytest.approx(
            predicted_growth_rate(w, -1, xi0, a), rel=1e-3)

    @pytest.mark.parametrize("k, n, unstable", [(1.6, -1, True), (0.6, 1, False)])
    def test_fields_are_python_values(self, k, n, unstable):
        # every field has the type its annotation declares, not a numpy
        # scalar, on the unstable {-1,0} and the same-signature {1,2}
        w = wave_at(1, 1, k)
        xi0 = collision_xi(w.params, n, n + 1)[0]
        res = eigenvalue_shifts(reduced_pencil(w, n, n + 1, xi0, 0.01))
        assert res.unstable is unstable
        assert type(res.value) is float and type(res.growth_rate) is float
        assert [type(s) for s in res.shifts] == [complex, complex]

    def test_shifts_match_generic_eigensolver(self):
        w = wave_at(1, 1, 1.8)
        xi0 = collision_xi(w.params, -1, 0)[0]
        pen = reduced_pencil(w, -1, 0, xi0, 0.02)
        res = eigenvalue_shifts(pen)
        # M's eigenvalues are omega + mu
        lam = eigenvalues(pen.M)
        expected = pen.omega + np.array(res.shifts)
        # each eigenvalue against its nearest expected value, one to one:
        # the unstable pair shares its imaginary part, so no sort key
        # orders the two sides alike
        nearest = [int(np.argmin(np.abs(expected - z))) for z in lam]
        assert sorted(nearest) == list(range(len(expected)))
        np.testing.assert_allclose(lam, expected[nearest], atol=1e-12)

    def test_closed_form_agreement_random(self):
        # exact 2x2 discriminant vs leading closed form, O(a) relative
        for _ in range(50):
            k = float(RNG.uniform(1.45, 2.5))
            a = float(RNG.uniform(0.001, 0.02))
            w = wave_at(1, 1, k)
            xi0 = collision_xi(w.params, -1, 0)[0]
            res = eigenvalue_shifts(reduced_pencil(w, -1, 0, xi0, a))
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
        pen = reduced_pencil(w, -1, 1, 0.5, 0.0)
        np.testing.assert_array_equal(pen.M, pen.omega * np.eye(2))
        assert not np.signbit(pen.M[[0, 1], [1, 0]]).any()

    @pytest.mark.parametrize("beta, k, n, m", [
        (-1, (4 / 9) ** 0.25, -1, 1),  # {-1,1}, second harmonic
        (1, 2**0.5, -1, 0),            # {-1,0}, first harmonic
    ], ids=["dn2", "dn1"])
    def test_entry_formulas(self, beta, k, n, m):
        # both pairs collide at xi0 = 1/2
        w = wave_at(beta, 1, k)
        dn, a, xi0 = m - n, 0.05, 0.5
        pen = reduced_pencil(w, n, m, xi0, a)
        assert pen.order == 2 * dn
        k2 = k**2
        W = harmonic_amplitudes(w, a)[dn - 1]
        assert W == (a if dn == 1 else a**2 * w.A2 + a**4 * w.A42)
        diag = a**2 * w.c2 if dn == 1 else a**2 * w.A2 + a**4 * w.c4
        assert pen.M[0, 0] == pen.omega + k2 * diag * (n + xi0)
        assert pen.M[1, 1] == pen.omega + k2 * diag * (m + xi0)
        assert pen.M[0, 1] == -k2 * W * (m + xi0)
        assert pen.M[1, 0] == -k2 * W * (n + xi0)
        assert np.all(np.isfinite(pen.M))
        assert pen.M[0, 1] / pen.M[1, 0] == pytest.approx(
            (m + xi0) / (n + xi0), rel=1e-12)

    def test_leading_discriminant_positive(self):
        # the pencil itself predicts no instability at this order
        k = (4 / 9) ** 0.25
        w = wave_at(-1, 1, k)
        pen = reduced_pencil(w, -1, 1, 0.5, 0.05)
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
        with pytest.raises(OrderNotAnalyzed):
            reduced_pencil(w, 1, 1, 0.3, 0.01)
