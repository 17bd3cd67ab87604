import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro_stab import (
    Amplitude,
    PhysicalParams,
    ResonantWavenumber,
    eval_profile,
    eval_speed,
    phase_speed_c0,
    residual_F,
    resonant_wavenumbers,
    stokes_coefficients,
)

# frozen regression value, measured once on a 256-point grid
RESIDUAL_A001 = 2.0543789574507034e-11


def wave(beta=1.0, gamma=1.0, k=1.0):
    return stokes_coefficients(PhysicalParams(beta, gamma, k))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            PhysicalParams(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            PhysicalParams(0.0, 1.0, 1.0)

    def test_resonant_k_rejected(self):
        with pytest.raises(ResonantWavenumber):
            PhysicalParams(1.0, 1.0, 0.25**0.25)
        # just outside the default exclusion radius is fine
        PhysicalParams(1.0, 1.0, 0.25**0.25 * (1 + 1e-5))

    def test_negative_beta_never_resonant(self):
        PhysicalParams(-1.0, 1.0, 0.25**0.25)

    def test_amplitude_bound(self):
        Amplitude(0.1)
        with pytest.raises(ValueError):
            Amplitude(0.2)


class TestPhaseSpeed:
    def test_unit_values(self):
        assert phase_speed_c0(PhysicalParams(1, 1, 1)) == 2.0

    def test_negative_beta(self):
        assert phase_speed_c0(PhysicalParams(-1, 6, 1)) == 5.0


class TestResonantWavenumbers:
    def test_decreasing_list(self):
        ks = resonant_wavenumbers(PhysicalParams(1, 1, 1), 3)
        assert ks == pytest.approx([0.25**0.25, (1 / 9) ** 0.25], rel=1e-15)
        assert ks[0] > ks[1]

    def test_empty_for_negative_beta(self):
        assert resonant_wavenumbers(PhysicalParams(-1, 1, 1), 5) == []

    def test_single(self):
        ks = resonant_wavenumbers(PhysicalParams(1, 16, 2.0), 2)
        assert ks == pytest.approx([2**0.5], rel=1e-15)

    def test_n_max_validated(self):
        with pytest.raises(ValueError):
            resonant_wavenumbers(PhysicalParams(1, 1, 1), 1)


class TestCoefficients:
    def test_unit_parameters(self):
        w = wave(1, 1, 1)
        assert w.c0 == 2.0
        assert w.A2 == pytest.approx(-2 / 9, rel=1e-15)
        assert w.A3 == pytest.approx(1 / 32, rel=1e-15)
        assert w.A42 == pytest.approx(47 / 5832, rel=1e-14)
        assert w.A44 == pytest.approx(-29 / 7290, rel=1e-14)
        assert w.c4 == pytest.approx(13 / 11664, rel=1e-13)

    def test_negative_beta(self):
        assert wave(-1, 1, 1).A2 == pytest.approx(2 / 15, rel=1e-15)

    def test_closed_form_cross_checks(self):
        w = wave(1, 6, 1.7)
        assert w.c2 == w.A2
        assert w.A42 == 2 * w.A2 * w.A3 - 2 * w.A2**3
        assert w.c4 == 3 * w.A2 * w.A3 - 2 * w.A2**3

    def test_denominator_guard(self):
        # sneak past the k-level exclusion, hit the denominator check
        p = PhysicalParams(1.0, 1.0, 0.25**0.25 * (1 + 1e-13),
                           resonance_radius=0.0)
        with pytest.raises(ResonantWavenumber):
            stokes_coefficients(p)


class TestProfile:
    def test_zero_amplitude(self):
        assert eval_profile(wave(), 0.0, 1.234) == 0.0

    def test_z_zero_sums_harmonics(self):
        w = wave()
        a = 0.05
        expected = a + a**2 * w.A2 + a**3 * w.A3 + a**4 * (w.A42 + w.A44)
        assert eval_profile(w, a, 0.0) == pytest.approx(expected, rel=1e-15)

    @given(z=st.floats(-10, 10), a=st.floats(-0.1, 0.1))
    def test_even_in_z(self, z, a):
        w = wave()
        assert eval_profile(w, a, z) == pytest.approx(
            eval_profile(w, a, -z), abs=1e-15)

    def test_zero_mean(self):
        w = wave(1, 6, 1.7)
        z = 2 * np.pi * np.arange(256) / 256
        assert abs(np.mean(eval_profile(w, 0.08, z))) <= 1e-14

    def test_periodicity(self):
        w = wave(-1, 2, 0.9)
        z = np.linspace(0, 2 * np.pi, 17)
        np.testing.assert_allclose(
            eval_profile(w, 0.05, z), eval_profile(w, 0.05, z + 2 * np.pi),
            atol=1e-14)


class TestSpeed:
    def test_zero_amplitude_gives_c0(self):
        w = wave()
        assert eval_speed(w, 0.0) == w.c0

    def test_unit_value(self):
        assert eval_speed(wave(), 0.1) == pytest.approx(1.9977778892318245,
                                                        rel=1e-12)

    @given(a=st.floats(-0.1, 0.1))
    def test_even_in_a(self, a):
        w = wave()
        assert eval_speed(w, a) == eval_speed(w, -a)


class TestResidual:
    def test_zero_at_zero_amplitude(self):
        assert residual_F(wave(), 0.0) == 0.0

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_fifth_order_scaling(self, beta):
        w = wave(beta, 1, 1)
        r_half = residual_F(w, 0.02)
        exponent = np.log2(residual_F(w, 0.04) / r_half)
        assert 4.5 <= exponent <= 5.5

    def test_scaling_at_small_amplitude(self):
        w = wave()
        exponent = np.log2(residual_F(w, 0.02) / residual_F(w, 0.01))
        assert 4.5 <= exponent <= 5.5

    def test_regression_value(self):
        r = residual_F(wave(), 0.01)
        assert r < 1e-8
        assert r == pytest.approx(RESIDUAL_A001, rel=1e-6)

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            residual_F(wave(), 0.01, grid_size=32)

    @settings(max_examples=25, deadline=None)
    @given(gs=st.sampled_from([64, 128, 256, 512]))
    def test_grid_independent(self, gs):
        # all harmonics of F are resolved at 64 points already
        w = wave(-1, 1, 1)
        assert residual_F(w, 0.03, gs) == pytest.approx(
            residual_F(w, 0.03, 256), rel=1e-10)
