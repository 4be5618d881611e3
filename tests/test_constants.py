"""Rigor constants: exact values, published bounds, internal consistency,
and the rounding direction of every constant."""
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fracdim.constants import (RigorProfile, admissible_h,
                               bramble_hilbert_constant, cone_image_parameter,
                               deriv_bound_1d, deriv_bounds_2d, distortion_K,
                               err_coefficient_1d, err_coefficient_2d,
                               legendre_projection_constants, make_profile,
                               multivariate_error_constant,
                               w3_seminorm_bound_2d)
from fracdim.maps import make_alphabet_1d, make_alphabet_2d, parse_alphabet
from fracdim.quasi import make_quasi_interpolant


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

    @pytest.mark.parametrize("cap, slack", [(5e-324, None), (1e-300, None),
                                            (None, 2.225073858507203e-309)])
    def test_admissible_outside_normal_doubles(self, cap, slack):
        # at the cap 5e-324 the ratio under the beta root overflows a double
        # (an OverflowError escaped), and a subnormal one kept so few bits
        # that stepping down to the root took 2 s; both are rooted in logs
        alphabet = make_alphabet_2d([(1, 0), (2, 0)])
        p = make_profile(alphabet, s_cap=cap, alpha=slack, beta=slack)
        bounds = admissible_h(p, alphabet)
        n = p.n
        for name, rhs, coeff, k in (
                ("alpha", Fraction(p.alpha) * Fraction(p.D) * Fraction(p.B),
                 Fraction(p.C1), n),
                ("beta", Fraction(p.beta) * Fraction(p.A), Fraction(p.C2),
                 n + 1)):
            h = bounds[name]
            root = math.exp((math.log(rhs.numerator)
                             - math.log(rhs.denominator)
                             - math.log(coeff.numerator)
                             + math.log(coeff.denominator)) / k)
            assert coeff * Fraction(h) ** k <= rhs
            assert h == pytest.approx(root, rel=1e-12)

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

    @pytest.mark.parametrize("name", ["s_cap", "M"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_invalid_s_cap_and_M(self, name, value):
        # an infinite s_cap overflowed in Fraction(s_cap), a NaN one failed
        # there with a message that did not name it, and a NaN M passed
        with pytest.raises(ValueError, match=f"^{name} = "):
            make_profile(make_alphabet_1d([1, 2]), **{name: value})


def _mp(mpmath, x):
    """The exact value of a double or a Fraction as an mpf."""
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _mp_c1(mpmath, n):
    """c1(n) = sum_k ||p_k||_1 ||p_k||_inf, p_k = sqrt(2k+1) P_k(2x-1), by
    quadrature between the roots of P_k (Gauss nodes, polished)."""
    total = 0
    for k in range(n + 1):
        roots = [mpmath.findroot(lambda t: mpmath.legendre(k, t), r)
                 for r in np.polynomial.legendre.leggauss(k)[0]] if k else []
        nodes = [0] + sorted((r + 1) / 2 for r in roots) + [1]
        norm1 = mpmath.quad(lambda x: abs(mpmath.legendre(k, 2 * x - 1)),
                            nodes)
        total += (2 * k + 1) * norm1
    return total


def _mp_bramble_hilbert(mpmath, n_total, j):
    """The d = 2 Bramble-Hilbert constant: (j+1) (n_total-j) times the root
    of sum over |beta| = n_total-j of 1/(beta!)^2."""
    m = n_total - j
    ssum = sum(mpmath.mpf(1) / (math.factorial(a) * math.factorial(m - a)) ** 2
               for a in range(m + 1))
    return (j + 1) * m * mpmath.sqrt(ssum)


class TestConservativeDirection:
    """Every constant against its exact value at 50 digits, from the doubles
    it is built from: what bounds an error or a cone parameter must lie on or
    above it, what bounds the eigenfunction from below or the mesh width
    must lie on or below it."""

    CAPS = (0.5, 0.8, 1.0, 1.15, 1.5, 1.8572)
    ALPHA_BETA = (0.01, 0.05, 0.2)
    MS = (None, 7.0, 38.0, 111.0, 163.0, 787.0)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("text", ["1,2", "2,3", "1..10", "primes<50",
                                      "(1,0),(1,1),(1,-1),(2,0)"],
                             ids=["1,2", "2,3", "1..10", "primes<50",
                                  "2d-four"])
    def test_grid(self, text, n):
        mpmath = pytest.importorskip("mpmath")
        alphabet = parse_alphabet(text)
        d, q = alphabet.d, make_quasi_interpolant(n)
        with mpmath.workdps(50):
            mp = lambda x: _mp(mpmath, x)  # noqa: E731
            qn = mp(q.q_norm_exact)
            c1 = _mp_c1(mpmath, n)
            c2 = (1 + c1) / (2 ** (n + 1) * math.factorial(n + 1))
            cbh0 = _mp_bramble_hilbert(mpmath, n + 1, 0)
            cbh1 = _mp_bramble_hilbert(mpmath, n + 1, 1)
            tensor = [math.prod(w) for w in product(q.weights_exact, repeat=d)]
            S = sum(mp(w) for w in tensor if w > 0)
            n_eff = n if n % 2 == 0 else n + 1
            k = min(alphabet.letters) if d == 1 else 1
            K = 4 if k == 1 else mpmath.exp(mpmath.mpf(2) / (k * k - 1))
            wrong = {}  # the first case each constant fails at
            for cap, ab, M in product(self.CAPS, self.ALPHA_BETA, self.MS):
                p = make_profile(alphabet, n=n, s_cap=cap, alpha=ab, beta=ab,
                                 M=M)
                s, A, B = mp(p.s_cap), mp(p.A), mp(p.B)
                D, C1, C2 = mp(p.D), mp(p.C1), mp(p.C2)
                rising = mpmath.fprod(2 * s + i for i in range(n + 1))
                if d == 1:
                    err_coeff = ((n + 1) ** n * qn / math.factorial(n)
                                 * rising)
                    exact_C1 = (2 * (n + 1) ** (n - 1) * qn
                                / math.factorial(n - 1) * rising * B)
                    exact_C2 = err_coeff * B
                    exact_D = 2 * s
                else:
                    Cx = 2 * s * (2 * s + 1) * (2 * s + 2)
                    Cy = 2 * s * (2 * s + 2) * max(25 * mpmath.sqrt(5) / 72,
                                                   (2 * s + 1) / 8)
                    W3 = (Cx + Cy
                          + max(abs(-mpmath.mpf(4) / 3 * s
                                    * (1 + (s + 2) * (2 * s + 1))),
                                s * s / 2 + s)
                          + max(abs(-4 * s * (1 + mpmath.mpf(4) / 27
                                              * (s + 2) * (2 * s + 1))),
                                4 * s * s + 8 * s))
                    err_coeff = (c2 * (1 + c1) * qn ** 2
                                 * (2 * n + 1) ** (n + 1) * (Cx + Cy))
                    exact_C1 = (mpmath.sqrt(2)
                                * (cbh1 * (2 * n + 1) ** n
                                   * mpmath.sqrt(2) ** n
                                   + 2 * qn ** 2 * cbh0 * (2 * n + 1) ** (n + 1)
                                   * mpmath.sqrt(2) ** (n + 1)) * W3)
                    exact_C2 = err_coeff
                    exact_D = 2 * mpmath.sqrt(5)
                cone = (1 + mp(ab)) / (1 - mp(ab)) * D * B / A
                above = {"K": (p.K, K),
                         "B": (p.B, mpmath.power(mp(p.K), s)),
                         "D": (p.D, exact_D), "C1": (p.C1, exact_C1),
                         "C2": (p.C2, exact_C2),
                         "err_coefficient": (p.err_coefficient, err_coeff),
                         "M": (p.M, cone if M is None else mp(M))}
                below = {"A": (p.A, mpmath.power(mp(p.K), -s))}
                for J in (499, 3000):
                    h = mpmath.mpf(1) / J
                    above[f"err(1/{J})"] = (p.err(1.0 / J),
                                            mp(p.err_coefficient)
                                            * h ** (n + 1))
                    if A - C2 * h ** (n + 1) > 0:
                        above[f"M'(1/{J})"] = (
                            cone_image_parameter(p, 1.0 / J),
                            (D * B + C1 * h ** n) / (A - C2 * h ** (n + 1)))
                bounds = admissible_h(p, alphabet)
                below.update({
                    "positivity": (bounds["positivity"],
                                   mpmath.log(S / (S - 1))
                                   / (mp(p.M) * n_eff * mpmath.sqrt(d))),
                    "alpha": (bounds["alpha"],
                              mpmath.root(mp(ab) * D * B / C1, n)),
                    "beta": (bounds["beta"],
                             mpmath.root(mp(ab) * A / C2, n + 1)),
                    "resolution": (bounds["resolution"],
                                   mpmath.mpf(1) / alphabet.max_component)})
                case = f"cap={cap} alpha=beta={ab} M={M}"
                for name, (value, exact) in above.items():
                    if mp(value) < exact:
                        wrong.setdefault(f"{name} below exact", case)
                for name, (value, exact) in below.items():
                    if mp(value) > exact:
                        wrong.setdefault(f"{name} above exact", case)
                assert bounds["overall"] == min(
                    bounds[key] for key in
                    ("positivity", "alpha", "beta", "resolution"))
        assert wrong == {}


def test_c1_table_against_sympy():
    """c1(n) rederived exactly: p_k = sqrt(2k+1) P_k(2x-1) integrated in
    absolute value between its real roots.  Each table entry lies on or
    above the exact value, and within 1e-25 of it."""
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    for n in (2, 4):
        exact = sp.Integer(0)
        for k in range(n + 1):
            poly = sp.legendre(k, 2 * x - 1)
            roots = [r for r in sp.real_roots(sp.Poly(poly, x)) if 0 < r < 1]
            F = sp.integrate(poly, x)
            nodes = [sp.Integer(0), *sorted(roots), sp.Integer(1)]
            exact += (2 * k + 1) * sum(abs(F.subs(x, b) - F.subs(x, a))
                                       for a, b in zip(nodes, nodes[1:]))
        c1, _ = legendre_projection_constants(n)
        gap = (sp.Rational(c1.numerator, c1.denominator) - exact).evalf(80)
        assert 0 <= gap <= sp.Float("1e-25"), (n, gap)
