import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ostro_stab import (
    CollisionInterval,
    DivisionByZero,
    NoCollision,
    PhysicalParams,
    Singularity,
    XiOutOfRange,
    collision_K,
    collision_events,
    collision_interval,
    collision_wavenumber,
    collision_xi,
    dispersion,
    enumerate_collision_pairs,
    krein_signature,
    omega,
    origin_collisions,
    phase_speed_c0,
)
from ostro_stab.dispersion import _omega_scale
from ostro_stab.hill import default_xi_grid
from ostro_stab.stokes import _ROUNDING

P111 = PhysicalParams(1, 1, 1)

# The closed-form collision roots are accurate to this in xi away from a
# tangency (a double root in x, where xi moves like the square root of
# any perturbation of k).
XI_ROOT_TOL = 1e-12

# The scan's xi points: uniform on (0, 1/2], and geometric below its step,
# where the roots of pairs with mode 0 go as k grows.  It stops at 1e-6:
# {-1, 1} has a double zero at xi = 0 for every k (omega(+-1) = 0, and
# omega' is even), and below about 1e-7 rounding swamps its gap ~ xi^2.
SCAN_XI = np.unique(np.concatenate([np.arange(1, 2**14 + 1) / 2**15,
                                    np.geomspace(1e-6, 2.0**-15, 80)]))


# A dense sampling of the Floquet family xi in (-1/2, 1/2] \ {0}: the
# 8191 points j/8192, j = -4096 .. 4096, j != 0, -1.
FAMILY_XI = np.concatenate([np.arange(-4096, -1), np.arange(1, 4097)]) / 8192.0


def scan_collision_xi(params, n, m):
    """Roots of omega(n+xi) - omega(m+xi) on (0, 1/2] from its sign changes
    on SCAN_XI, each bisected to rounding.  A sign change counts only where
    the gap at both ends of its bracket is not zero to rounding by the
    program's own rule: more than _ROUNDING times the omega scales of both
    modes."""
    c0 = phase_speed_c0(params)

    def gap(xi):
        return omega(params, c0, n + xi) - omega(params, c0, m + xi)

    f = gap(SCAN_XI)
    clear = np.abs(f) > _ROUNDING * (_omega_scale(params, c0, n + SCAN_XI)
                                     + _omega_scale(params, c0, m + SCAN_XI))
    i = np.flatnonzero((np.sign(f[:-1]) * np.sign(f[1:]) < 0)
                       & clear[:-1] & clear[1:])
    lo, hi, f_lo = SCAN_XI[i], SCAN_XI[i + 1], f[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        left = np.sign(f_mid) == np.sign(f_lo)
        lo, f_lo = np.where(left, mid, lo), np.where(left, f_mid, f_lo)
        hi = np.where(left, hi, mid)
    return list(0.5 * (lo + hi))


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
        # x = 0 is the pole: rejected, alone or anywhere in an array
        with pytest.raises(DivisionByZero):
            omega(P111, 2.0, 0.0)
        with pytest.raises(DivisionByZero):
            omega(P111, 2.0, np.array([0.5, -0.0, 1.0]))

    def test_tiny_index_finite(self):
        # a nonzero index, however small, is no pole: -gamma/x dominates
        assert omega(P111, 2.0, 1e-14) == pytest.approx(-1e14, rel=1e-15)
        assert omega(P111, 2.0, -1e-14) == pytest.approx(1e14, rel=1e-15)


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

    def test_tiny_index_finite(self):
        # next to a pole, not at it: 1/(3p) at dn = 1, p = x*(x + 1)
        assert collision_K(1e-13, 1) == pytest.approx(1 / 3e-26, rel=1e-12)
        assert collision_K(-1 - 2.0**-52, 1) == pytest.approx(
            2.0**104 / 3, rel=1e-12)
        assert np.isfinite(collision_K(np.array([1e-13, -2 + 1e-12]), 2)).all()

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

    @pytest.mark.parametrize("dn", [1, 2, 3, 4])
    def test_matches_cubic_form_to_4_ulps(self, dn):
        # the kernel against the cubic form at 50 digits on the K_curves
        # grid, a dense sampling of the Floquet family of the pairs
        # {-1, dn - 1}, and the collision_contour grid
        xs = np.concatenate([
            np.arange(-256 * (dn + 2), 513) / 256.0,
            -1 + FAMILY_XI,
            -1 + default_xi_grid(512),
        ])
        with mpmath.workdps(50):
            ref = []
            for x in map(mpmath.mpf, xs.tolist()):
                y = x + dn
                den = x * y * (y**3 - x**3 - dn)
                ref.append(float((1 + x * y) / den) if den else math.nan)
        ref = np.array(ref)
        K = collision_K(xs, dn)
        # the same poles: x = 0, x = -dn, and x = -1 at dn = 2
        np.testing.assert_array_equal(np.isnan(K), np.isnan(ref))
        assert np.isnan(ref).sum() == (3 if dn == 2 else 2)
        ok = ~np.isnan(ref)
        ulps = np.abs(K[ok] - ref[ok]) / np.spacing(np.abs(ref[ok]))
        assert ulps.max() <= 4

    def test_dn1_near_poles(self):
        # near x = 0 and x = -1 the factor 3s - 3 of the dn = 1 kernel is
        # 3p, whose cancellation in any form built from s would cost
        # ~eps/|p| relative
        xs = [c + sign * 10.0**-e for e in range(1, 11)
              for sign in (1, -1) for c in (0, -1)]
        with mpmath.workdps(50):
            ref = [float((1 + p) / (3 * p**2))
                   for p in (x * (x + 1) for x in map(mpmath.mpf, xs))]
        for x, r in zip(xs, ref):
            assert abs(collision_K(x, 1) - r) <= 8 * math.ulp(r), x

    @pytest.mark.parametrize("xi", [1e-4, 1e-6, 1e-8])
    def test_dn2_removable_pole(self, xi):
        # at dn = 2 the kernel is 1/(6p): {-1, 1} has k^4 =
        # gamma/(3*|beta|*(1 - xi^2)) up to xi -> 0, where 1 + p and the
        # cubic factor both vanish like xi^2
        with mpmath.workdps(50):
            ref = float((1 / (3 * (1 - mpmath.mpf(xi) ** 2))) ** 0.25)
        # x = -1 itself stays a pole: test_singularities
        k = collision_wavenumber(-1, 1, -1, 1, xi)
        assert abs(k - ref) <= 4 * math.ulp(ref)

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
    @pytest.mark.parametrize("beta, gamma, k", [
        (1, 1, 2**0.5), (1, 2, 8**0.25), (2, 0.5, 1.0),
        (0.7, 3.3, (4 * 3.3 / 0.7)**0.25),
    ])
    def test_tangent_root_at_threshold(self, beta, gamma, k):
        # at k = (4*gamma/beta)^(1/4) the {-1,0} roots meet at x = -1/2, a
        # double root that rounding of p would split or drop
        xis = collision_xi(PhysicalParams(beta, gamma, k), -1, 0)
        assert len(xis) == 1
        assert xis[0] == pytest.approx(0.5, abs=1e-6)
        assert xis == [0.5]
        assert collision_xi(PhysicalParams(beta, gamma, k * (1 - 1e-9)), -1, 0) == []
        (xi,) = collision_xi(PhysicalParams(beta, gamma, k * (1 + 1e-9)), -1, 0)
        assert 0.4999 < xi < 0.5

    @pytest.mark.parametrize("beta, gamma, k, xis", [
        (2.3706874516249985, 0.4678721511574995, 0.30141831992385343, []),
        (-0.4401626043419796, 2.898361259065137, 1.220080834119344,
         [0.09736002338389538]),
    ])
    def test_dn2_double_root_at_zero_is_no_collision(self, beta, gamma, k, xis):
        # at dn = 2 the quadratic in p factors as (1 + p)*(3*beta*k^4*p - gamma),
        # and p = -1 is the double root x = -1: omega(-1) = omega(1) = 0 at
        # xi = 0 for every k.  At these k rounding puts that p one ulp off
        # -1, which would add a root xi ~ 1e-8 without the snap to x = -1.
        got = collision_xi(PhysicalParams(beta, gamma, k), -1, 1)
        assert len(got) == len(xis)
        assert got == pytest.approx(xis, abs=XI_ROOT_TOL)

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
        params = PhysicalParams(beta, gamma, k)
        for pair in enumerate_collision_pairs(beta, 4, 6):
            if not pair.opposite_krein:
                continue
            for xi0 in collision_xi(params, pair.n, pair.m):
                assert collision_wavenumber(beta, gamma, pair.n, pair.m, xi0) \
                    == pytest.approx(k, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.3, 3.0), negative=st.booleans(),
           gamma=st.floats(0.3, 6.0), scale=st.floats(0.3, 3.0))
    # K = beta*k^4/gamma = -1/3, where omega''(k) = 0: the {-1, 1} gap
    # vanishes like xi^4, and near xi = 1e-6 it is rounding noise
    @example(beta=0.3333333333333333, negative=True, gamma=1.0, scale=1.0)
    def test_matches_sign_change_scan(self, beta, negative, gamma, scale):
        # the closed form against a scan of omega(n+xi) - omega(m+xi) for
        # sign changes, refined by bisection, on every pair dn <= 4,
        # |n|, |m| <= 6
        params = PhysicalParams(-beta if negative else beta, gamma,
                                scale * gamma**0.25)
        for dn in range(1, 5):
            for n in range(-6, 7 - dn):
                expected = scan_collision_xi(params, n, n + dn)
                got = collision_xi(params, n, n + dn)
                assert len(got) == len(expected), (n, n + dn, got, expected)
                assert got == pytest.approx(expected, abs=XI_ROOT_TOL)

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
        assert iv.k_min == 0.0

    @pytest.mark.parametrize("n, m", [(-3, 0), (-4, 0)])
    def test_zero_of_kernel_inside_family(self, n, m):
        # 1 + p vanishes at x = (-dn +- sqrt(dn^2 - 4))/2, inside the family
        assert collision_interval(-1, 1, n, m) == CollisionInterval(
            n, m, 0.0, math.inf)

    @given(beta=st.floats(0.05, 20.0), negative=st.booleans(),
           gamma=st.floats(0.05, 20.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_dense_sampling(self, beta, negative, gamma):
        # k^4 on FAMILY_XI and at xi = 0 (the removable pole at dn = 2
        # taken as 1/(6p)); where 1 + p has no zero in the family the
        # interval is the least and the greatest admissible sample,
        # bit for bit
        beta = -beta if negative else beta
        for dn in range(1, 9):
            for n in range(-8, 9):
                m = n + dn
                k4 = dispersion._collision_k4(beta, gamma, n + FAMILY_XI, dn)
                if n and m:
                    k4 = np.append(k4, gamma / (3.0 * beta * n * m) if dn == 2
                                   else dispersion._collision_k4(beta, gamma, n, dn))
                k4 = k4[k4 > 0]
                roots = np.roots([1.0, dn, 1.0])
                zero_inside = dn >= 3 and bool(np.any(np.abs(roots - n) < 0.5))
                if not (k4.size or zero_inside):
                    with pytest.raises(NoCollision):
                        collision_interval(beta, gamma, n, m)
                    continue
                iv = collision_interval(beta, gamma, n, m)
                assert (iv.n, iv.m) == (n, m)
                # the least and the greatest admissible sample bound all
                lo, hi = float(k4.min() ** 0.25), float(k4.max() ** 0.25)
                assert iv.k_min <= lo and hi <= iv.k_max
                assert iv.k_min == (0.0 if zero_inside else lo)
                assert iv.k_max == (hi if n and m else math.inf)

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
        # a window narrower than dn_max is legal: it lists the pairs that
        # fit in it, as the scalar rule does
        assert enumerate_collision_pairs(1.0, 4, 3) == [
            dispersion.CollisionPair(n, n + dn, n <= -1 <= 0 <= n + dn)
            for dn in range(1, 5) for n in range(-3, 4 - dn)
            if dispersion._admits_collision(1.0, n, dn)]
        assert enumerate_collision_pairs(1.0, 4, 0) == []
        # a huge dn_max costs no more than the window's widest pair
        assert (enumerate_collision_pairs(1.0, 10**9, 6)
                == enumerate_collision_pairs(1.0, 12, 6))

    @pytest.mark.parametrize("beta", [1.0, -1.0, 0.3, -2.5])
    def test_matches_scalar_rule(self, beta):
        # one array call per dn decides as the scalar rule does, pair by pair
        for dn_max in range(1, 7):
            for n_range in range(11):
                expected = [
                    dispersion.CollisionPair(n, n + dn, n <= -1 <= 0 <= n + dn)
                    for dn in range(1, dn_max + 1)
                    for n in range(-n_range, n_range - dn + 1)
                    if dispersion._admits_collision(beta, n, dn)]
                pairs = enumerate_collision_pairs(beta, dn_max, n_range)
                assert pairs == expected
                assert all(type(p.n) is int and type(p.m) is int for p in pairs)


class TestTableBounds:
    """Both collision tables refuse an n_range that is not an integer in
    [0, MAX_N_RANGE], and the pair table a dn_max that is not an integer
    >= 1, with ValueError before any work."""

    @pytest.mark.parametrize("dn_max, n_range", [
        (4, -1), (4, dispersion.MAX_N_RANGE + 1), (4, 2.5), (4, True), (2.5, 6),
    ], ids=["-1", str(dispersion.MAX_N_RANGE + 1), "2.5", "True", "dn_max-2.5"])
    def test_refused(self, dn_max, n_range, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("worked past the count guards")
        monkeypatch.setattr(dispersion, "_admits_collision", no_work)
        refused = "n_range" if dn_max == 4 else "dn_max"
        with pytest.raises(ValueError, match=refused):
            enumerate_collision_pairs(1.0, dn_max, n_range)
        if refused == "dn_max":
            return  # the origin table takes no dn_max
        # beta < 0, which has no origin collision, is refused all the same
        for beta in (1.0, -1.0):
            with pytest.raises(ValueError, match="n_range"):
                origin_collisions(beta, 1.0, n_range)


class TestKreinSignature:
    def test_value(self):
        assert krein_signature(P111, 2.0, 1.5) == -1

    def test_zero_at_origin_collision(self):
        params = PhysicalParams(1, 1, 2**0.5)
        c0 = phase_speed_c0(params)
        assert krein_signature(params, c0, 0.5) == 0
        kappa = krein_signature(params, c0, np.array([-1.5, -0.5, 0.5, 1.5]))
        assert kappa.tolist() == [-1, 0, 0, -1]

    @settings(max_examples=100, deadline=None)
    @given(beta=st.sampled_from([1.0, -1.0]), gamma=st.floats(0.5, 6),
           k=st.floats(0.3, 3), xi=st.floats(1e-3, 0.5),
           n_range=st.integers(0, 8))
    def test_array_matches_scalar(self, beta, gamma, k, xi, n_range):
        params = PhysicalParams(beta, gamma, k)
        c0 = phase_speed_c0(params)
        x = np.arange(-n_range, n_range + 1) + xi
        kappa = krein_signature(params, c0, x)
        assert kappa.dtype.kind == "i"
        assert kappa.tolist() == [krein_signature(params, c0, v) for v in x.tolist()]

    def test_opposite_signs_across_threshold_pair(self):
        params = PhysicalParams(1, 1, 1.6)
        c0 = phase_speed_c0(params)
        xi0 = collision_xi(params, -1, 0)[0]
        k_minus = krein_signature(params, c0, -1 + xi0)
        k_plus = krein_signature(params, c0, xi0)
        assert k_minus * k_plus == -1


class TestUnits:
    """Multiplying (beta, gamma) by 2^j multiplies c0 and every omega by 2^j
    bit for bit and leaves every collision xi as it is, so no answer may
    change: each zero test is made on omega's own scale."""

    PAIRS = [(-1, 0), (-1, 1), (-2, 0), (-3, 0)]

    @settings(max_examples=100, deadline=None)
    @given(beta=st.floats(0.3, 3.0), negative=st.booleans(),
           gamma=st.floats(0.3, 6.0), scale=st.floats(0.3, 3.0),
           xi=st.floats(1e-3, 0.5), j=st.integers(-40, 40))
    @example(beta=1.0, negative=False, gamma=1.0, scale=2**0.5, xi=0.5, j=-40)
    @example(beta=1.0, negative=False, gamma=1.0, scale=2**0.5, xi=0.5, j=40)
    def test_rescaling_changes_no_answer(self, beta, negative, gamma, scale,
                                         xi, j):
        beta = -beta if negative else beta
        k = scale * (gamma / abs(beta)) ** 0.25
        params = PhysicalParams(beta, gamma, k)
        unit = 2.0**j
        scaled = PhysicalParams(beta * unit, gamma * unit, k)

        def answers(params, unit):
            c0 = phase_speed_c0(params)
            events = [(e.xi0, e.omega / unit, e.at_origin, e.opposite_krein)
                      for n, m in self.PAIRS
                      for e in collision_events(params, n, m)]
            kappa = [krein_signature(params, c0, np.arange(-6, 7) + x).tolist()
                     for x in [xi] + [e[0] for e in events]]
            return events, kappa

        assert answers(scaled, unit) == answers(params, 1.0)

    @pytest.mark.parametrize("gamma", [1.0, 6.0])
    def test_at_origin_exactly_where_krein_is_zero(self, gamma):
        seen = 0
        for origin in origin_collisions(1.0, gamma, 3):
            params = PhysicalParams(1.0, gamma, origin.k)
            c0 = phase_speed_c0(params)
            for e in collision_events(params, origin.n, origin.m):
                kappa_n = krein_signature(params, c0, e.n + e.xi0)
                kappa_m = krein_signature(params, c0, e.m + e.xi0)
                assert e.at_origin == (kappa_n == 0) == (kappa_m == 0)
                seen += e.at_origin
        assert seen == 7


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
