"""Contraction maps, derivative norms (with finite-difference oracles), and
the alphabet DSL."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim.maps import (Alphabet, make_alphabet_1d, make_alphabet_2d,
                          parse_alphabet, primes_below)
from oracles import (dphi_norm_1d, dphi_norm_2d, log_dphi_norm_1d,
                     log_dphi_norm_2d, phi_1d, phi_2d)


class TestMaps1D:
    def test_phi_range(self):
        x = np.linspace(0.0, 1.0, 101)
        for e in (1, 2, 5):
            y = phi_1d(e, x)
            assert y.min() >= 1.0 / (e + 1) - 1e-15
            assert y.max() <= 1.0 / e + 1e-15

    def test_contraction(self):
        x = np.linspace(0.0, 1.0, 101)
        for e in (1, 2, 3):
            d = np.abs(np.diff(phi_1d(e, x)) / np.diff(x))
            assert d.max() <= 1.0 / (e * e) + 1e-9

    def test_dphi_fd_oracle(self):
        x = np.linspace(0.05, 0.95, 19)
        eps = 1e-6
        for e in (1, 2, 4):
            fd = np.abs(phi_1d(e, x + eps) - phi_1d(e, x - eps)) / (2 * eps)
            assert np.abs(dphi_norm_1d(e, x, 1.0) - fd).max() < 1e-8

    def test_log_consistency(self):
        x = np.linspace(0.0, 1.0, 11)
        for s in (0.3, 0.7, 1.2):
            direct = dphi_norm_1d(2, x, s)
            via_log = np.exp(s * log_dphi_norm_1d(2, x))
            assert np.abs(direct - via_log).max() < 1e-14


class TestMaps2D:
    def test_inversion_identity(self):
        # phi_e(p) is the complex inversion 1/(z + e): |phi| * |z+e| = 1
        rng = np.random.default_rng(0)
        p = np.column_stack([rng.uniform(0, 1, 50), rng.uniform(-0.5, 0.5, 50)])
        e = (2, 1)
        img = phi_2d(e, p)
        q = p + np.array(e, dtype=float)
        assert np.abs(np.linalg.norm(img, axis=1) * np.linalg.norm(q, axis=1)
                      - 1.0).max() < 1e-13

    def test_maps_into_domain(self):
        xs = np.linspace(0.0, 1.0, 21)
        ys = np.linspace(-0.5, 0.5, 21)
        X, Y = np.meshgrid(xs, ys)
        p = np.column_stack([X.ravel(), Y.ravel()])
        for e in ((1, 0), (1, 1), (1, -1), (2, 0), (1, 4)):
            img = phi_2d(e, p)
            assert img[:, 0].min() > 0.0
            assert img[:, 0].max() <= 1.0 + 1e-12
            assert np.abs(img[:, 1]).max() <= 0.5 + 1e-12

    def test_dphi_norm_fd_jacobian_oracle(self):
        """The conformal derivative norm equals the operator norm of the
        finite-difference Jacobian."""
        rng = np.random.default_rng(1)
        eps = 1e-6
        for e in ((1, 0), (2, 1), (1, -3)):
            for _ in range(10):
                p = np.array([rng.uniform(0.1, 0.9), rng.uniform(-0.4, 0.4)])
                Jac = np.empty((2, 2))
                for j in range(2):
                    dp = np.zeros(2)
                    dp[j] = eps
                    Jac[:, j] = (phi_2d(e, p + dp) - phi_2d(e, p - dp)) / (2 * eps)
                opnorm = np.linalg.svd(Jac, compute_uv=False)[0]
                assert dphi_norm_2d(e, p, 1.0) == pytest.approx(opnorm, rel=1e-6)

    def test_log_consistency(self):
        p = np.array([[0.2, 0.1], [0.8, -0.3]])
        for s in (0.5, 1.149577):
            assert np.abs(dphi_norm_2d((1, 1), p, s)
                          - np.exp(s * log_dphi_norm_2d((1, 1), p))).max() < 1e-14


class TestAlphabetMaps:
    """Alphabet.maps forms p + e and |p + e|^2 once for every letter, with
    the coordinate axis first; each value is the per-letter map's, bit for
    bit."""

    @pytest.mark.parametrize("spec", ["1,2,3", "primes<50",
                                      "(1,0),(1,1),(1,-1),(2,0)",
                                      "(1..3,-2..2)"])
    def test_bitwise_per_letter(self, spec):
        alphabet = parse_alphabet(spec)
        rng = np.random.default_rng(3)
        p = np.column_stack([rng.uniform(-0.1, 1.1, 40),
                             rng.uniform(-0.6, 0.6, 40)])[:, :alphabet.d]
        img, lg = alphabet.maps(p)
        E = len(alphabet.letters)
        assert img.shape == (alphabet.d, 40, E) and lg.shape == (40, E)
        for j, e in enumerate(alphabet.letters):
            if alphabet.d == 1:
                x = p[:, 0]
                want, want_lg = phi_1d(e, x), log_dphi_norm_1d(e, x)
                assert np.array_equal(img[0, :, j], want)
            else:
                want, want_lg = phi_2d(e, p), log_dphi_norm_2d(e, p)
                assert np.array_equal(img[:, :, j], want.T)
            assert np.array_equal(lg[:, j], want_lg)


class TestAlphabet:
    def test_sorted_dedup(self):
        a = make_alphabet_1d([3, 1, 2, 3])
        assert a.letters == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_alphabet_1d([0, 1])
        with pytest.raises(ValueError):
            make_alphabet_2d([(0, 1)])
        with pytest.raises(ValueError):
            Alphabet(d=1, letters=())
        with pytest.raises(ValueError):
            Alphabet(d=3, letters=(1,))

    def test_max_component(self):
        assert make_alphabet_1d([1, 34]).max_component == 34
        assert make_alphabet_2d([(1, 0), (1, -4)]).max_component == 5
        assert make_alphabet_2d([(100, 0), (100, 1)]).max_component == 100

    def test_describe_roundtrip(self):
        for spec in ("1,2", "1,2,34", "(1,0),(1,1),(2,0)"):
            a = parse_alphabet(spec)
            assert parse_alphabet(a.describe()).letters == a.letters


class TestPrimes:
    def trial_division(self, n: int) -> bool:
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    def test_sieve_vs_trial_division(self):
        got = primes_below(2000)
        expect = [n for n in range(2000) if self.trial_division(n)]
        assert got == expect

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50, deadline=None)
    def test_sieve_membership_property(self, n):
        assert (n in primes_below(501)) == self.trial_division(n)


class TestDSL:
    def test_simple_list(self):
        assert parse_alphabet("1,2").letters == (1, 2)
        assert parse_alphabet(" 1 , 2 ").letters == (1, 2)

    def test_range(self):
        assert parse_alphabet("1..34").letters == tuple(range(1, 35))
        assert parse_alphabet("2..4,7").letters == (2, 3, 4, 7)

    def test_primes(self):
        a = parse_alphabet("primes<100")
        assert a.letters == tuple(primes_below(100))

    def test_pairs(self):
        a = parse_alphabet("(1,0),(1,1),(1,-1),(2,0)")
        assert a.d == 2
        assert a.letters == ((1, -1), (1, 0), (1, 1), (2, 0))

    def test_pair_ranges(self):
        a = parse_alphabet("(1,-4..4)")
        assert a.letters == tuple(sorted((1, k) for k in range(-4, 5)))

    def test_mixed_rejected(self):
        with pytest.raises(ValueError):
            parse_alphabet("1,(1,0)")

    def test_malformed(self):
        for bad in ("", "a", "(1,2", "1..", "(1,2,3)", "4..2"):
            with pytest.raises(ValueError):
                parse_alphabet(bad)
