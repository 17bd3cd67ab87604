import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ostro_stab import (
    DivisionByZero,
    NoCollision,
    PhysicalParams,
    ResonantWavenumber,
    Singularity,
    XiOutOfRange,
    collision_K,
    collision_events,
    collision_interval,
    collision_wavenumber,
    collision_xi,
    enumerate_collision_pairs,
    krein_signature,
    omega,
    origin_collisions,
    phase_speed_c0,
)

P111 = PhysicalParams(1, 1, 1)


class TestOmega:
    def test_steady_fundamental_mode(self):
        # c0 is defined so that the n=1 mode is steady
        assert omega(P111, 2.0, 1.0) == 0.0

    def test_value(self):
        assert omega(P111, 2.0, 1.5) == pytest.approx(-25 / 24, rel=1e-15)

    @given(x=st.floats(0.01, 40))
    def test_odd(self, x):
        assert omega(P111, 2.0, x) == pytest.approx(-omega(P111, 2.0, -x),
                                                    rel=1e-15)

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 2.5])
        np.testing.assert_array_equal(
            omega(P111, 2.0, xs), [omega(P111, 2.0, float(x)) for x in xs])

    def test_near_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            omega(P111, 2.0, 1e-14)


class TestCollisionKernel:
    def test_known_values(self):
        assert collision_K(-0.5, 1) == pytest.approx(4.0, rel=1e-15)
        assert collision_K(1.5, 2) == pytest.approx(6.25 / 196.875, rel=1e-14)
        assert collision_K(-0.5, 2) == pytest.approx(-2 / 9, rel=1e-14)

    def test_sign_pattern_dn2(self):
        # positive outside (-2, 0), negative inside
        assert collision_K(-3.0, 2) > 0
        assert collision_K(-1.5, 2) < 0
        assert collision_K(1.0, 2) > 0

    def test_always_positive_dn1(self):
        for x in (-3.3, -1.4, -0.5, 0.7, 2.2):
            assert collision_K(x, 1) > 0

    @pytest.mark.parametrize("x,dn", [(0.0, 1), (-2.0, 2), (-1.0, 2)])
    def test_singularities(self, x, dn):
        with pytest.raises(Singularity):
            collision_K(x, dn)

    def test_dn_validated(self):
        with pytest.raises(ValueError):
            collision_K(0.3, 0)

    @pytest.mark.parametrize("dn", [1, 2, 3, 4])
    def test_vectorized_matches_scalar(self, dn):
        # the K_curves figure grid, poles included (NaN for arrays)
        xs = np.arange(-256 * (dn + 2), 513) / 256.0
        ref = []
        for x in xs.tolist():
            try:
                ref.append(collision_K(x, dn))
            except Singularity:
                ref.append(math.nan)
        np.testing.assert_array_equal(collision_K(xs, dn), ref)

    @settings(max_examples=150)
    @given(x=st.floats(-8, 8), dn=st.integers(1, 6))
    def test_two_algebraic_forms_agree(self, x, dn):
        # same collision wavenumber from the kernel form and from the
        # symmetric form gamma*(1+x*y)/(beta*x*y*(x^2+x*y+y^2-1))
        y = x + dn
        assume(abs(x) > 1e-3 and abs(y) > 1e-3)
        assume(abs(x * y * (y**3 - x**3 - dn)) > 1e-3)
        beta, gamma = 1.3, 0.7
        k4_kernel = (gamma * dn / beta) * collision_K(x, dn)
        k4_sym = gamma * (1 + x * y) / (beta * x * y * (x * x + x * y + y * y - 1))
        assert k4_kernel == pytest.approx(k4_sym, rel=1e-12, abs=1e-15)


class TestCollisionWavenumber:
    def test_pair_m1_0_at_half(self):
        k = collision_wavenumber(1, 1, -1, 0, 0.5)
        assert k == pytest.approx(2**0.5, rel=1e-15)

    def test_no_collision_for_negative_beta(self):
        assert collision_wavenumber(-1, 1, -1, 0, 0.5) is None

    def test_pair_m1_1_negative_beta(self):
        k = collision_wavenumber(-1, 1, -1, 1, 0.5)
        assert k == pytest.approx((4 / 9) ** 0.25, rel=1e-14)

    def test_xi_validated(self):
        with pytest.raises(XiOutOfRange):
            collision_wavenumber(1, 1, -1, 0, 0.0)


class TestCollisionXi:
    def test_tangent_root_at_threshold(self):
        xis = collision_xi(PhysicalParams(1, 1, 2**0.5), -1, 0)
        assert len(xis) == 1
        assert xis[0] == pytest.approx(0.5, abs=1e-6)

    def test_below_threshold_empty(self):
        assert collision_xi(PhysicalParams(1, 1, 1.2), -1, 0) == []

    def test_inverse_of_wavenumber(self):
        # just inside the family's range (4/9)**0.25 ~ 0.8164966
        xis = collision_xi(PhysicalParams(-1, 1, 0.8164), -1, 1)
        assert len(xis) == 1
        assert xis[0] == pytest.approx(0.5, abs=5e-3)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.3, 6.0),
           scale=st.floats(0.3, 3.0))
    def test_round_trip_with_wavenumber(self, beta, gamma, scale):
        k = scale * gamma**0.25
        try:
            params = PhysicalParams(beta, gamma, k)
        except ResonantWavenumber:
            assume(False)
        for pair in enumerate_collision_pairs(beta, 4, 6):
            if not pair.opposite_krein:
                continue
            for xi0 in collision_xi(params, pair.n, pair.m):
                assert collision_wavenumber(beta, gamma, pair.n, pair.m, xi0) \
                    == pytest.approx(k, rel=1e-9)

    @pytest.mark.parametrize("k", [1.5, 1.8, 2.2])
    def test_events_consistent(self, k):
        params = PhysicalParams(1, 1, k)
        c0 = phase_speed_c0(params)
        events = collision_events(params, -1, 0)
        assert events
        for e in events:
            gap = abs(omega(params, c0, e.n + e.xi0)
                      - omega(params, c0, e.m + e.xi0))
            assert gap <= 1e-9 * max(1.0, abs(e.omega))
            assert e.opposite_krein == ((e.n + e.xi0) * (e.m + e.xi0) < 0)


class TestCollisionInterval:
    def test_finite_pair_full_floquet(self):
        iv = collision_interval(1, 1, -3, -1)
        assert 0.48 <= iv.k_min <= 0.52
        assert 0.71 <= iv.k_max <= 0.75
        assert not iv.unbounded

    def test_pair_with_zero_index_unbounded(self):
        # with p = x*(x+1) the kernel is (1 + p)/(3*p^2), least at the open
        # end x -> -3/2 of the full family
        iv = collision_interval(1, 1, -1, 0)
        assert iv.k_min == pytest.approx((28 / 27) ** 0.25, rel=1e-6)
        assert math.isinf(iv.k_max)

    def test_reflected_family_negative_beta(self):
        # {0,5} collides only on the xi < 0 branch; its infimum is 0
        iv = collision_interval(-1, 1, 0, 5)
        assert math.isinf(iv.k_max)
        assert 0 < iv.k_min < 0.1

    def test_no_collision(self):
        with pytest.raises(NoCollision):
            collision_interval(1, 1, -1, 1)


class TestEnumerate:
    def test_dn1_positive_beta(self):
        pairs = enumerate_collision_pairs(1.0, 1, 6)
        assert len(pairs) == 12  # all {n, n+1} with |n|, |n+1| <= 6
        opp = [(p.n, p.m) for p in pairs if p.opposite_krein]
        assert opp == [(-1, 0)]

    def test_dn1_negative_beta_empty(self):
        assert enumerate_collision_pairs(-1.0, 1, 6) == []

    def test_dn2_negative_beta(self):
        pairs = enumerate_collision_pairs(-1.0, 2, 6)
        assert {(p.n, p.m) for p in pairs} == {(-2, 0), (-1, 1)}
        assert all(p.opposite_krein for p in pairs)

    def test_dn3_positive_beta_opposite(self):
        pairs = enumerate_collision_pairs(1.0, 3, 6)
        opp = {(p.n, p.m) for p in pairs if p.opposite_krein and p.dn == 3}
        assert opp == {(-1, 2), (-2, 1)}

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_collision_pairs(1.0, 0, 6)
        with pytest.raises(ValueError):
            enumerate_collision_pairs(1.0, 4, 3)


class TestKreinSignature:
    def test_value(self):
        assert krein_signature(P111, 2.0, 1.5) == -1

    def test_zero_at_origin_collision(self):
        params = PhysicalParams(1, 1, 2**0.5)
        c0 = phase_speed_c0(params)
        assert krein_signature(params, c0, 0.5) == 0

    def test_opposite_signs_across_threshold_pair(self):
        params = PhysicalParams(1, 1, 1.6)
        c0 = phase_speed_c0(params)
        xi0 = collision_xi(params, -1, 0)[0]
        k_minus = krein_signature(params, c0, -1 + xi0)
        k_plus = krein_signature(params, c0, xi0)
        assert k_minus * k_plus == -1


class TestOriginCollisions:
    def test_unit_case(self):
        events = origin_collisions(1.0, 1.0, 0)
        assert len(events) == 1
        e = events[0]
        assert (e.n, e.m, e.xi0) == (0, -1, 0.5)
        assert e.k == pytest.approx(2**0.5, rel=1e-15)
        assert e.at_origin and e.opposite_krein

    def test_empty_for_negative_beta(self):
        assert origin_collisions(-1.0, 1.0, 5) == []

    def test_frequency_vanishes(self):
        for e in origin_collisions(1.0, 6.0, 3):
            params = PhysicalParams(1.0, 6.0, e.k)
            c0 = phase_speed_c0(params)
            assert abs(omega(params, c0, e.n + 0.5)) <= 1e-10

    def test_gamma6_value(self):
        e = [x for x in origin_collisions(1.0, 6.0, 2) if x.n == 1][0]
        assert e.k == pytest.approx(1.2778862084925449, rel=1e-12)
