"""Power iteration, cone certificates, and spectral-radius brackets against
dense eigensolver oracles."""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from fracdim.assembly import OperatorCache
from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.maps import make_alphabet_1d, make_alphabet_2d
from fracdim.solver import make_geometry
from fracdim.spectral import (FLOAT_SLACK, PositivityError, cone_membership,
                              power_iteration, scaled_bracket,
                              spectral_bracket)
from oracles import full_matrix


def dense_rho(A):
    return float(np.abs(np.linalg.eigvals(np.asarray(A))).max())


def random_positive_matrix(rng, N):
    return rng.uniform(0.1, 1.0, (N, N))


class TestPowerIteration:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        A = random_positive_matrix(rng, 20)
        res = power_iteration(A)
        rho = dense_rho(A)
        # the raw ratios carry matvec rounding; the slack applied by
        # spectral_bracket makes the containment rigorous
        assert res.ratio_min * (1 - FLOAT_SLACK) <= rho
        assert rho <= res.ratio_max * (1 + FLOAT_SLACK)
        assert res.lam == pytest.approx(rho, rel=1e-10)
        assert res.converged

    def test_iterate_properties(self):
        rng = np.random.default_rng(7)
        A = random_positive_matrix(rng, 15)
        res = power_iteration(A)
        assert res.w.min() > 0
        assert res.w.max() == pytest.approx(1.0, abs=0)

    def test_sparse_input(self):
        rng = np.random.default_rng(9)
        A = sparse.csr_matrix(random_positive_matrix(rng, 12))
        res = power_iteration(A)
        assert res.lam == pytest.approx(dense_rho(A.toarray()), rel=1e-10)

    def test_transfer_operator_input(self):
        cache = OperatorCache(make_alphabet_1d([1, 2]), make_geometry(1, 20, 2))
        op = cache.matrix(0.5313)
        res = power_iteration(op)
        rho = dense_rho(full_matrix(cache, 0.5313).toarray())
        assert res.lam == pytest.approx(rho, rel=1e-10)

    def test_warm_start(self):
        rng = np.random.default_rng(11)
        A = random_positive_matrix(rng, 10)
        cold = power_iteration(A)
        warm = power_iteration(A, start=cold.w)
        assert warm.iterations <= cold.iterations
        assert warm.lam == pytest.approx(cold.lam, rel=1e-12)

    def test_nonpositive_start_rejected(self):
        A = np.ones((3, 3))
        with pytest.raises(PositivityError):
            power_iteration(A, start=np.array([1.0, 0.0, 1.0]))

    def test_positivity_loss_raised(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]]) - np.eye(2)
        with pytest.raises(PositivityError):
            power_iteration(A)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            power_iteration(np.ones((3, 4)))

    def test_nonconvergent_bracket_still_valid(self):
        # two dominant eigenvalues of equal modulus: spread cannot close,
        # but every bracket still contains the spectral radius
        A = np.array([[1.0, 1e-9], [1e-9, 1.0]]) + 0.5 * np.array(
            [[0.0, 1.0], [1.0, 0.0]])
        res = power_iteration(A, max_iter=50)
        rho = dense_rho(A)
        assert res.ratio_min - 1e-15 <= rho <= res.ratio_max + 1e-15


class TestDecisionStop:
    """decide_err stops at the first iterate whose bracket, widened by the
    float slack and scaled by 1 -/+ err, answers both certified predicates:
    it excludes 1, or (1 - err) beta < 1 < (1 + err) alpha."""

    @staticmethod
    def cache():
        return OperatorCache(make_alphabet_1d([1, 2]), make_geometry(1, 64, 2))

    def operator(self, s):
        return self.cache().matrix(s)

    @pytest.mark.parametrize("s", [0.45, 0.6])
    def test_stops_once_decided(self, s):
        op, err = self.operator(s), 1e-4
        full = power_iteration(op)
        res = power_iteration(op, decide_err=err)
        assert res.decided and not res.converged
        assert res.iterations < full.iterations
        np.testing.assert_array_equal(res.y, op @ res.w)
        br = spectral_bracket(op, res.w, y=res.y)
        assert (1 - err) * br.alpha >= 1.0 or (1 + err) * br.beta <= 1.0
        # the dense radius stays inside the early, looser bracket
        rho = dense_rho(full_matrix(self.cache(), s).toarray())
        assert br.alpha <= rho <= br.beta
        assert br.beta - br.alpha > full.ratio_max - full.ratio_min

    def test_undecidable_runs_to_convergence(self):
        # err puts one threshold, (1 - err) lam or (1 + err) lam, on 1, so
        # every iterate's scaled bracket straddles that threshold
        op = self.operator(0.5313)
        full = power_iteration(op)
        res = power_iteration(op, decide_err=abs(1 - 1 / full.lam))
        assert res.converged and not res.decided
        assert res.iterations == full.iterations
        np.testing.assert_array_equal(res.w, full.w)
        assert res.lam == full.lam

    def test_zone_decides(self):
        # err so large that the first bracket, scaled, straddles 1 by more
        # than its own width: s lies between the two certified endpoints
        op, err = self.operator(0.5313), 0.5
        res = power_iteration(op, decide_err=err)
        full = power_iteration(op)
        assert res.decided and not res.converged
        assert res.iterations < full.iterations
        br = spectral_bracket(op, res.w, y=res.y)
        lo_top, hi_bot = scaled_bracket(br.beta, br.alpha, err)
        assert lo_top < 1.0 < hi_bot
        # the converged run answers both predicates the same way
        assert (1 - err) * full.lam < 1.0 < (1 + err) * full.lam


class TestConeMembership:
    def test_1d_member(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 32, 2),))
        x = np.linspace(0.0, 1.0, grid.axes[0].num_intervals)
        w = np.exp(-2.0 * x)  # log-slope 2 per unit, grid step scaled by h
        cert = cone_membership(w, grid, M=36.0)
        assert cert.member
        # adjacent log-increment is 2 * (spacing of x) / h
        expect = 2.0 * (x[1] - x[0]) / grid.h
        assert cert.adjacent_ratio_max == pytest.approx(expect, rel=1e-10)

    def test_1d_violator(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 16, 2),))
        w = np.ones(grid.axes[0].num_intervals)
        w[5] = 100.0  # log-jump of log(100) over one step h
        cert = cone_membership(w, grid, M=36.0)
        assert not cert.member
        assert cert.adjacent_ratio_max == pytest.approx(
            np.log(100.0) / grid.h, rel=1e-12)

    def test_1d_bad_length(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 16, 2),))
        with pytest.raises(ValueError, match="does not match the grid"):
            cone_membership(np.ones(16 + 2), grid, M=36.0)

    def test_2d_grid_inference(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 8, 2),
                           make_uniform_knots(-0.5, 0.5, 8, 2)))
        side = grid.axes[0].num_intervals  # the grid shape comes from the axes
        ix = np.tile(np.arange(side), side)
        iy = np.repeat(np.arange(side), side)
        w = np.exp(0.5 * grid.h * (ix + 2 * iy))
        cert = cone_membership(w, grid, M=36.0)
        assert cert.member
        # steepest adjacent direction is y with log-increment 1.0 * h
        assert cert.adjacent_ratio_max == pytest.approx(1.0, rel=1e-10)

    def test_2d_bad_length(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 8, 2),
                           make_uniform_knots(-0.5, 0.5, 8, 2)))
        with pytest.raises(ValueError):
            cone_membership(np.ones(99), grid, M=36.0)

    def test_nonpositive_rejected(self):
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 8, 2),))
        with pytest.raises(PositivityError):
            cone_membership(np.zeros(grid.axes[0].num_intervals), grid, M=1.0)


class TestSpectralBracket:
    @pytest.mark.parametrize("seed", [0, 5, 12])
    def test_contains_dense_rho(self, seed):
        rng = np.random.default_rng(seed)
        A = random_positive_matrix(rng, 18)
        res = power_iteration(A)
        br = spectral_bracket(A, res.w)
        rho = dense_rho(A)
        assert br.alpha <= rho <= br.beta
        assert br.residual >= 0

    def test_contains_rho_on_transfer_operators(self):
        # small instances of both problem families
        cases = []
        cache1 = OperatorCache(make_alphabet_1d([1, 2]),
                               make_geometry(1, 16, 2))
        cases.append((cache1, 0.5313))
        cache2 = OperatorCache(
            make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)]),
            make_geometry(2, 8, 2))
        cases.append((cache2, 1.1496))
        for cache, s in cases:
            op = cache.matrix(s)
            res = power_iteration(op)
            br = spectral_bracket(op, res.w)
            rho = dense_rho(full_matrix(cache, s).toarray())
            assert br.alpha <= rho <= br.beta

    def test_loose_vector_gives_wide_valid_bracket(self):
        rng = np.random.default_rng(3)
        A = random_positive_matrix(rng, 10)
        w = rng.uniform(0.5, 1.5, 10)
        br = spectral_bracket(A, w)
        assert br.alpha <= dense_rho(A) <= br.beta

    def test_float_slack_widens_endpoints(self):
        A = 2.0 * np.eye(4) + 1e-30 * np.ones((4, 4))
        br = spectral_bracket(A, np.ones(4))
        assert br.alpha == pytest.approx(2.0 * (1 - FLOAT_SLACK), rel=1e-15)
        assert br.beta == pytest.approx(2.0 * (1 + FLOAT_SLACK), rel=1e-15)

    def test_nonpositive_rejected(self):
        A = np.ones((3, 3))
        with pytest.raises(PositivityError):
            spectral_bracket(A, np.array([1.0, -1.0, 1.0]))

    def test_given_image_matches_recomputed(self):
        rng = np.random.default_rng(4)
        A = random_positive_matrix(rng, 12)
        res = power_iteration(A)
        np.testing.assert_array_equal(res.y, A @ res.w)
        assert spectral_bracket(A, res.w, y=res.y) == spectral_bracket(A, res.w)


class TestScaledBracket:
    @pytest.mark.parametrize("alpha, beta, err", [
        (1.0000557, 1.0000558, 5.560774281469531e-05),
        (0.9999999999, 1.0000000001, 6.000000000000001e-09),
        (1 / 3, 2 / 3, 1 / 3),
        (1.0, 1.0, 0.0),
    ])
    def test_encloses_exact_products(self, alpha, beta, err):
        lo, hi = scaled_bracket(alpha, beta, err)
        exact_lo = (1 - Fraction(err)) * Fraction(alpha)
        exact_hi = (1 + Fraction(err)) * Fraction(beta)
        assert Fraction(lo) <= exact_lo and exact_hi <= Fraction(hi)
        # outward by a few ulp, not more
        assert exact_lo - Fraction(lo) <= 4 * Fraction(math.ulp(lo))
        assert Fraction(hi) - exact_hi <= 4 * Fraction(math.ulp(hi))

    def test_decision_uses_the_probe_bracket(self):
        # a decided iterate's scaled bracket, recomputed from its ratios,
        # excludes 1 exactly as the decision rule saw it
        A = 1.5 * np.eye(3) + 0.01 * np.ones((3, 3))
        err = 0.1
        res = power_iteration(A, decide_err=err)
        assert res.decided
        br = spectral_bracket(A, res.w, y=res.y)
        lo, _ = scaled_bracket(br.alpha, br.beta, err)
        assert lo >= 1.0
