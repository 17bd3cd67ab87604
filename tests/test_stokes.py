import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ostro_stab import (
    PhysicalParams,
    ResonantWavenumber,
    TruncationConfig,
    assemble_L_matrix,
    assemble_matrix,
    collision_xi,
    eval_profile,
    eval_speed,
    harmonic_amplitudes,
    hill,
    max_growth,
    phase_speed_c0,
    reduced_pencil,
    residual_F,
    spectrum_slice,
    stokes_coefficients,
)
from ostro_stab.stokes import check_amplitude

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
            stokes_coefficients(PhysicalParams(1.0, 1.0, 0.25**0.25))
        # one part in 1e5 off the resonance the coefficients are built
        stokes_coefficients(PhysicalParams(1.0, 1.0, 0.25**0.25 * (1 + 1e-5)))

    # (4, 2): k = 1, where 3*gamma - 12*beta*k^4 is exactly 0
    @pytest.mark.parametrize("gamma, n", [(1.0, 2), (1.0, 3), (1.0, 4), (16.0, 2),
                                          (4.0, 2)])
    def test_each_resonance_rejected(self, gamma, n):
        # k = (gamma/(beta*n^2))^(1/4); beta < 0 has no resonance
        k = (gamma / n**2) ** 0.25
        with pytest.raises(ResonantWavenumber, match=f"at the n={n} harmonic"):
            stokes_coefficients(PhysicalParams(1.0, gamma, k))
        stokes_coefficients(PhysicalParams(-1.0, gamma, k))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_finite_coefficients_just_off_resonance(self, n, side):
        # the n = 2, 3, 4 resonances are where the expansion denominators
        # vanish; one part in 1e9 off one they are finite, and it is the
        # ordering rule that refuses a small amplitude there
        k = (1.0 / n**2) ** 0.25 * (1 + side * 1e-9)
        w = stokes_coefficients(PhysicalParams(1.0, 1.0, k))
        assert np.isfinite([w.A2, w.A3, w.A42, w.A44, w.c4]).all()
        with pytest.raises(ResonantWavenumber, match="expansion not ordered"):
            harmonic_amplitudes(w, 0.01)

    @pytest.mark.parametrize("k", [
        # resonances n >= 5 have no denominator through fourth order
        0.2, 0.0015, 1e-100,
        0.5**0.5, (1 / 9) ** 0.25, 0.5, 1.0,
    ])
    def test_params_take_any_positive_k(self, k):
        for gamma in (1.0, 4.0, 16.0):
            assert PhysicalParams(1.0, gamma, k).k == k

    def test_negative_beta_never_resonant(self):
        stokes_coefficients(PhysicalParams(-1.0, 1.0, 0.25**0.25))

    def test_amplitude_finite(self):
        # no bound on the bare amplitude: only a non-finite a is refused
        for a in (0.1, -0.1, 0.64, -1e6):
            assert check_amplitude(a) == a
        assert type(check_amplitude(np.float64(0.05))) is float
        for a in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                check_amplitude(a)


class TestPhaseSpeed:
    def test_unit_values(self):
        assert phase_speed_c0(PhysicalParams(1, 1, 1)) == 2.0

    def test_negative_beta(self):
        assert phase_speed_c0(PhysicalParams(-1, 6, 1)) == 5.0


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


# beta = gamma = 1, k = 0.708, next to the K = beta*k^4/gamma = 1/4
# resonance: at a = 0.08 the harmonic W2 = 23 outgrows W1 = a.  {-3,-1}
# collides there at xi0 = 0.4747
ENTRY_POINTS = {
    "harmonic_amplitudes": harmonic_amplitudes,
    "residual_F": residual_F,
    "eval_profile": lambda w, a: eval_profile(w, a, 0.3),
    "assemble_matrix": lambda w, a: assemble_matrix(w, a, 0.3, TruncationConfig(N=8)),
    "assemble_L_matrix": lambda w, a: assemble_L_matrix(w, a, 0.3, TruncationConfig(N=8)),
    "spectrum_slice": lambda w, a: spectrum_slice(w, a, 0.3, TruncationConfig(N=8)),
    "max_growth": lambda w, a: max_growth(w, a, TruncationConfig(N=8, xi_grid=16)),
    "reduced_pencil": lambda w, a: reduced_pencil(
        w, -3, -1, collision_xi(w.params, -3, -1)[0], a),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestOrderedExpansion:
    def test_unordered_refused_before_any_solve(self, entry, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved for an unordered expansion")
        monkeypatch.setattr(hill, "_solve", no_solve)
        with pytest.raises(ResonantWavenumber, match=(
                r"^expansion not ordered at a=0\.08: harmonic W2 = 23 is not "
                r"smaller than \|a\| \(k=0\.708 is near a harmonic resonance, or "
                r"\|a\| is not small\)$")):
            ENTRY_POINTS[entry](wave(1, 1, 0.708), 0.08)

    def test_zero_amplitude_runs(self, entry):
        ENTRY_POINTS[entry](wave(1, 1, 0.708), 0.0)

    @pytest.mark.parametrize("a, power", [(1e160, 2), (-1e103, 3), (1e100, 4)])
    def test_overflowing_power_refused(self, entry, a, power, monkeypatch):
        # the lowest power of a that overflows is named, before any solve
        def no_solve(*args):
            raise AssertionError("solved for an overflowing amplitude")
        monkeypatch.setattr(hill, "_solve", no_solve)
        with pytest.raises(ResonantWavenumber, match=re.escape(
                f"expansion not evaluable at a={a!r}: a**{power} overflows")):
            ENTRY_POINTS[entry](wave(1, 1, 0.708), a)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_refused(self, entry, a):
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](wave(1, 1, 0.708), a)


def test_non_finite_harmonic_refused_at_zero_amplitude():
    # a coefficient that overflowed to inf makes W3 = 0*inf a NaN at a = 0
    w = dataclasses.replace(wave(), A3=float("inf"))
    with pytest.raises(ResonantWavenumber, match="harmonic W3 = nan"):
        harmonic_amplitudes(w, 0.0)
