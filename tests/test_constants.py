"""Rigor constants: exact values, published bounds, and internal consistency."""
import math
from fractions import Fraction

import numpy as np
import pytest

from fracdim.constants import (RigorProfile, admissible_h,
                               bramble_hilbert_constant, cone_image_parameter,
                               deriv_bound_1d, deriv_bounds_2d, distortion_K,
                               err_coefficient_1d, err_coefficient_2d,
                               legendre_projection_constants, make_profile,
                               multivariate_error_constant,
                               w3_seminorm_bound_2d)
from fracdim.maps import make_alphabet_1d, make_alphabet_2d


class TestLegendreConstants:
    def test_c1_c2_published_bounds(self):
        c1, c2 = legendre_projection_constants(2)
        assert 4.42 < c1 < 4.427
        assert 0.112 < c2 < 0.114

    def test_c_n_d_bound(self):
        assert 0.60 < multivariate_error_constant(2, 2) < 0.62

    def test_c1_oracle_quadrature(self):
        """Independent check: c1 = sum_k ||p_k||_1 ||p_k||_inf with p_k the
        orthonormal shifted Legendre polynomials, via dense quadrature."""
        xs = np.linspace(0.0, 1.0, 2_000_001)
        total = 0.0
        for k in range(3):
            leg = np.zeros(k + 1)
            leg[k] = 1.0
            vals = np.polynomial.legendre.legval(2 * xs - 1, leg) * math.sqrt(2 * k + 1)
            total += np.trapezoid(np.abs(vals), xs) * np.abs(vals).max()
        c1, _ = legendre_projection_constants(2)
        assert c1 == pytest.approx(total, abs=1e-6)

    def test_c2_formula(self):
        c1, c2 = legendre_projection_constants(2)
        assert c2 == pytest.approx((1 + c1) / 48.0, rel=1e-12)

    def test_orthonormality_of_basis(self):
        # sanity on the basis underlying c1: <p_j, p_k> = delta_jk on [0,1]
        xs = np.linspace(0.0, 1.0, 200_001)
        P = []
        for k in range(3):
            leg = np.zeros(k + 1)
            leg[k] = 1.0
            P.append(np.polynomial.legendre.legval(2 * xs - 1, leg)
                     * math.sqrt(2 * k + 1))
        for j in range(3):
            for k in range(3):
                ip = np.trapezoid(P[j] * P[k], xs)
                assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)


class TestBrambleHilbert:
    def test_values_n3_d2(self):
        assert bramble_hilbert_constant(3, 2, 1) == pytest.approx(
            2 * math.sqrt(6), rel=1e-12)
        assert bramble_hilbert_constant(3, 2, 0) == pytest.approx(
            math.sqrt(5), rel=1e-12)

    def test_1d_case(self):
        # d=1, j=0: (n_total) * sqrt(1/(n_total!)^2) = n_total/n_total!
        assert bramble_hilbert_constant(3, 1, 0) == pytest.approx(
            3 / math.factorial(3), rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            bramble_hilbert_constant(2, 2, 2)


class TestErrCoefficients:
    def test_err_coefficient_162_exact(self):
        assert err_coefficient_1d(1.0, 2) == 162.0

    def test_err_coefficient_formula(self):
        # (n+1)^n ||Q|| / n! * (2s)(2s+1)...(2s+n), n=2: 27/2 * product
        s = 0.75
        expect = 9 * 1.5 / 2 * (1.5 * 2.5 * 3.5)
        assert err_coefficient_1d(s, 2) == pytest.approx(expect, rel=1e-14)

    def test_err_coefficient_2d_published_scale(self):
        # the worked 2D bound at the default s cap is about 2.01e4
        c = err_coefficient_2d(1.8572, 2)
        assert 1.9e4 < c < 2.1e4

    def test_monotone_in_s(self):
        assert err_coefficient_1d(0.9, 2) < err_coefficient_1d(1.0, 2)
        assert err_coefficient_2d(1.0, 2) < err_coefficient_2d(1.5, 2)


class TestDerivativeBounds:
    def test_1d_rising_product(self):
        assert deriv_bound_1d(1.0, 1) == 2.0
        assert deriv_bound_1d(1.0, 3) == 2.0 * 3.0 * 4.0

    def test_fd_oracle_1d(self):
        """|f^(j)|/f <= (2s)...(2s+j-1) is attained by f(x) = (x+1)^(-2s)
        at x = 0; check the bound against numerical derivatives."""
        s = 0.8
        x = np.linspace(0.0, 1.0, 2001)
        f = (x + 1.0) ** (-2 * s)
        d1 = np.gradient(f, x)
        ratio = np.abs(d1 / f).max()
        assert ratio <= deriv_bound_1d(s, 1) * (1 + 1e-3)
        assert ratio >= deriv_bound_1d(s, 1) * 0.98  # sharp at x=0

    def test_2d_bounds_structure(self):
        b = deriv_bounds_2d(1.0)
        assert b["Cx"] == pytest.approx(2 * 3 * 4, rel=1e-14)
        assert b["grad_ratio"] == pytest.approx(math.sqrt(5), rel=1e-14)
        assert b["Cxxy_lo"] < 0 < b["Cxxy_hi"]
        assert w3_seminorm_bound_2d(1.0) > b["Cx"]


class TestDistortion:
    def test_contains_one(self):
        assert distortion_K(make_alphabet_1d([1, 2])) == 4.0
        assert distortion_K(make_alphabet_2d([(1, 0), (2, 0)])) == 4.0

    def test_min_letter_two(self):
        K = distortion_K(make_alphabet_1d([2, 3]))
        assert K == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)


class TestProfiles:
    def test_1d_default_profile(self):
        p = make_profile(make_alphabet_1d([1, 2]))
        assert p.s_cap == 1.0
        # A = 4^-1 is exact in binary; rounding down still takes one ulp off
        assert p.K == 4.0 and p.A == math.nextafter(0.25, 0)
        assert p.B == pytest.approx(4.0, rel=1e-15)
        assert p.D == 2.0
        assert p.M == 36.0
        assert p.err_coefficient == pytest.approx(162.0, rel=1e-12)
        # worked constants: C1 = 864, C2 = 648
        assert p.C1 == pytest.approx(864.0, rel=1e-9)
        assert p.C2 == pytest.approx(648.0, rel=1e-9)

    @pytest.mark.parametrize("alphabet, s_cap", [
        (make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)]), None),
        (make_alphabet_1d([2, 3]), 1.0),
        (make_alphabet_1d([1, 2]), None),
    ], ids=["2d-default", "2,3-cap-1", "1,2-default"])
    def test_A_is_a_lower_bound(self, alphabet, s_cap):
        # A = K^-s_cap bounds the eigenfunction from below, so the double
        # must not exceed the exact power of the doubles K and s_cap
        mpmath = pytest.importorskip("mpmath")
        p = make_profile(alphabet, s_cap=s_cap)
        with mpmath.workdps(50):
            exact = mpmath.power(mpmath.mpf(p.K), -mpmath.mpf(p.s_cap))
            assert mpmath.mpf(p.A) <= exact
            assert mpmath.mpf(p.B) >= 1 / exact

    def test_2d_default_profile(self):
        p = make_profile(make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)]))
        assert p.D == pytest.approx(2 * math.sqrt(5), rel=1e-14)
        assert p.M == 787.0
        assert p.C1 < 1.1e6
        assert p.C2 < 2.1e4

    def test_2d_relaxed_profile(self):
        p = make_profile(make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)]),
                         s_cap=1.15, alpha=0.2, beta=0.2)
        assert p.M == 163.0

    def test_admissible_1d(self):
        alphabet = make_alphabet_1d([1, 2])
        p = make_profile(alphabet)
        bounds = admissible_h(p, alphabet)
        assert bounds["overall"] == pytest.approx(0.0215166, rel=1e-3)
        assert bounds["overall"] <= min(bounds["positivity"], bounds["alpha"],
                                        bounds["beta"], bounds["resolution"])

    def test_admissible_resolution_binding(self):
        alphabet = make_alphabet_1d(list(range(1, 101)))
        p = make_profile(alphabet)
        bounds = admissible_h(p, alphabet)
        assert bounds["resolution"] == pytest.approx(0.01, rel=1e-15)

    def test_cone_image_parameter_1d(self):
        p = make_profile(make_alphabet_1d([1, 2]))
        mprime = cone_image_parameter(p, 1e-4)
        assert mprime == pytest.approx(32.00003, rel=1e-5)
        assert mprime < p.M

    def test_cone_image_parameter_2d_relaxed(self):
        p = make_profile(make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)]),
                         s_cap=1.15, alpha=0.2, beta=0.2)
        mprime = cone_image_parameter(p, 1.0 / 1250.0)
        assert mprime < p.M
        assert mprime == pytest.approx(109.7, rel=2e-2)

    def test_cone_image_parameter_is_least_double_above_exact(self):
        # the float formula at the double nearest 1/499 lands 2.2e-17
        # relative below the exact M' for the exact 1/499
        p = make_profile(make_alphabet_1d([1, 2]))
        h = Fraction(1, 499)
        exact = ((Fraction(p.D) * Fraction(p.B) + Fraction(p.C1) * h ** 2)
                 / (Fraction(p.A) - Fraction(p.C2) * h ** 3))
        mprime = cone_image_parameter(p, 1.0 / 499)
        assert Fraction(mprime) >= exact
        assert Fraction(math.nextafter(mprime, 0.0)) < exact

    def test_cone_image_parameter_coarse_mesh_rejected(self):
        p = make_profile(make_alphabet_1d([1, 2]))
        with pytest.raises(ValueError):
            cone_image_parameter(p, 0.3)

    def test_err_scales_cubically(self):
        p = make_profile(make_alphabet_1d([1, 2]))
        assert p.err(1e-4) == pytest.approx(162e-12, rel=1e-12)
        assert p.err(2e-4) / p.err(1e-4) == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("J", [3, 64, 500, 3000, 10**5])
    def test_err_is_least_double_above_exact(self, J):
        # bounds coeff (1/J)^3 for the exact 1/J, not for its nearest double
        # (at J = 3 and 3000 the double 1/J lies below 1/J)
        for p in (make_profile(make_alphabet_1d([1, 2])),
                  make_profile(make_alphabet_2d([(1, 0), (1, 1), (1, -1),
                                                 (2, 0)]),
                               s_cap=1.15, alpha=0.2, beta=0.2)):
            exact = Fraction(p.err_coefficient) * Fraction(1, J) ** 3
            err = p.err(1.0 / J)
            assert Fraction(err) >= exact
            assert Fraction(math.nextafter(err, 0.0)) < exact

    def test_profile_is_frozen(self):
        p = make_profile(make_alphabet_1d([1, 2]))
        assert isinstance(p, RigorProfile)
        with pytest.raises(Exception):
            p.M = 1.0

    def test_invalid_alpha_beta(self):
        with pytest.raises(ValueError):
            make_profile(make_alphabet_1d([1, 2]), alpha=0.0)
        with pytest.raises(ValueError):
            make_profile(make_alphabet_1d([1, 2]), beta=1.5)
