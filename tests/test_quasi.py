"""Quasi-interpolant weights, polynomial reproduction, and hidden positivity."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.quasi import (make_quasi_interpolant, positivity_threshold,
                           tensor_positive_weight_sum, tensor_weights)
from fracdim.solver import make_geometry
from oracles import eval_quasi_interpolant


def oracle_weights(n: int) -> list[Fraction]:
    """Independent derivation: enforce that Q reproduces the monomials
    1, x, ..., x^n when combined with the spline expansion, i.e. for each
    monomial the weighted midpoint samples reproduce the blossom (polar form)
    of the monomial at the n consecutive knots following the window start.
    Solved exactly via sympy on symbolic knots."""
    import sympy as sp

    h, a = sp.symbols("h a")  # spacing and window-start knot
    mids = [a + (v + sp.Rational(1, 2)) * h for v in range(n + 1)]
    knots = [a + (j + 1) * h for j in range(n)]
    ws = sp.symbols(f"w0:{n + 1}")
    eqs = []
    from itertools import combinations
    for p in range(n + 1):
        # blossom (polar form) of x^p at the n knots: e_p(knots) / C(n, p)
        elem = sp.Integer(0)
        for comb in combinations(knots, p):
            term = sp.Integer(1)
            for c in comb:
                term *= c
            elem += term
        blossom = elem / sp.binomial(n, p)
        eqs.append(sp.Eq(sum(w * m ** p for w, m in zip(ws, mids)), blossom))
    sol = sp.solve(eqs, ws, dict=True)
    assert len(sol) == 1
    out = []
    for w in ws:
        expr = sp.simplify(sol[0][w])
        assert expr.free_symbols == set(), "weights must be mesh-independent"
        out.append(Fraction(int(sp.fraction(expr)[0]), int(sp.fraction(expr)[1])))
    return out


class TestWeights:
    def test_exact_table(self):
        q = make_quasi_interpolant(2)
        assert q.weights_exact == (Fraction(-1, 8), Fraction(5, 4), Fraction(-1, 8))
        q3 = make_quasi_interpolant(3)
        assert q3.weights_exact == (Fraction(-7, 48), Fraction(31, 48),
                                    Fraction(31, 48), Fraction(-7, 48))
        q4 = make_quasi_interpolant(4)
        assert q4.weights_exact == (Fraction(47, 1152), Fraction(-107, 288),
                                    Fraction(319, 192), Fraction(-107, 288),
                                    Fraction(47, 1152))
        assert make_quasi_interpolant(0).weights_exact == (Fraction(1),)
        assert make_quasi_interpolant(1).weights_exact == (Fraction(1, 2),
                                                           Fraction(1, 2))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_against_blossom_oracle(self, n):
        assert tuple(oracle_weights(n)) == make_quasi_interpolant(n).weights_exact

    def test_weights_sum_to_one(self):
        for n in range(5):
            q = make_quasi_interpolant(n)
            assert sum(q.weights_exact) == 1

    def test_symmetry(self):
        for n in range(5):
            w = make_quasi_interpolant(n).weights_exact
            assert w == tuple(reversed(w))

    def test_norms(self):
        q = make_quasi_interpolant(2)
        assert q.q_norm_exact == Fraction(3, 2)
        # (5/4)^2 plus the four positive corner products (1/8)^2 = 13/8,
        # the sum the 2D positivity threshold uses
        assert tensor_positive_weight_sum(q, 2) == pytest.approx(13 / 8, abs=1e-15)


class TestReproduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polynomial_reproduction_1d(self, n):
        ks = make_uniform_knots(0.0, 1.0, 12, n)
        q = make_quasi_interpolant(n)
        mids = ks.midpoints
        xs = np.linspace(0.0, 1.0, 113)
        rng = np.random.default_rng(7)
        for _ in range(5):
            coeffs = rng.uniform(-2, 2, n + 1)
            p = np.polynomial.Polynomial(coeffs)
            approx = eval_quasi_interpolant(q, TensorGrid((ks,)), p(mids), xs)
            assert np.abs(approx - p(xs)).max() <= 1e-12

    def test_polynomial_reproduction_2d(self):
        n = 2
        grid = TensorGrid((make_uniform_knots(0.0, 1.0, 7, n),
                           make_uniform_knots(-0.5, 0.5, 7, n)))
        q = make_quasi_interpolant(n)
        mx = grid.axes[0].midpoints
        my = grid.axes[1].midpoints
        X, Y = np.meshgrid(mx, my, indexing="ij")

        def p(x, y):
            return 1.0 + x - 2 * y + 0.5 * x * x - x * y + 0.25 * y * y

        samples = p(X, Y)
        pts = np.column_stack([np.linspace(0.05, 0.95, 41),
                               np.linspace(-0.45, 0.45, 41)])
        vals = eval_quasi_interpolant(q, grid, samples, pts)
        assert np.abs(vals - p(pts[:, 0], pts[:, 1])).max() <= 1e-12

    def test_one_axis_grid(self):
        # the 1D geometry the solver builds is a one-axis TensorGrid
        q = make_quasi_interpolant(2)
        grid = make_geometry(1, 16, 2)
        pts = np.array([0.2, 0.5])
        np.testing.assert_array_equal(
            eval_quasi_interpolant(q, grid, np.ones(grid.sample_shape), pts),
            [1.0, 1.0])
        x = grid.axes[0].midpoints
        vals = eval_quasi_interpolant(q, grid, x * x, pts)
        assert np.abs(vals - pts * pts).max() <= 1e-14

    @given(st.integers(min_value=2, max_value=4),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_quadratic_reproduction_property(self, J_extra, a, b):
        # degree-2 weights reproduce any quadratic regardless of mesh size
        ks = make_uniform_knots(0.0, 1.0, 4 + J_extra, 2)
        q = make_quasi_interpolant(2)

        def p(x):
            return a + b * x + (a - b) * x * x

        xs = np.linspace(0.0, 1.0, 11)
        approx = eval_quasi_interpolant(q, TensorGrid((ks,)), p(ks.midpoints), xs)
        assert np.abs(approx - p(xs)).max() <= 1e-12

    def test_coefficient_helpers(self):
        q = make_quasi_interpolant(2)
        W = tensor_weights(q, 2)
        assert W.shape == (3, 3)
        assert W.sum() == pytest.approx(1.0, abs=1e-15)


class TestPositivity:
    def test_threshold_formula_1d(self):
        q = make_quasi_interpolant(2)
        M = 36.0
        expect = -math.log(1.0 - 1.0 / 1.25) / (M * 2 * 1.0)
        assert positivity_threshold(q, 1, M) == pytest.approx(expect, rel=1e-14)

    def test_threshold_formula_2d(self):
        q = make_quasi_interpolant(2)
        M = 787.0
        expect = -math.log(1.0 - 8.0 / 13.0) / (M * 2 * math.sqrt(2))
        assert positivity_threshold(q, 2, M) == pytest.approx(expect, rel=1e-14)

    def test_all_positive_weights_unbounded(self):
        q = make_quasi_interpolant(1)
        assert positivity_threshold(q, 1, 100.0) == math.inf

    def test_positivity_holds_below_threshold(self):
        # a log-Lipschitz-M positive sample vector keeps Qf positive when
        # h is below the threshold
        q = make_quasi_interpolant(2)
        M = 36.0
        hmax = positivity_threshold(q, 1, M)
        J = int(1.0 / hmax) + 2
        ks = make_uniform_knots(0.0, 1.0, J, 2)
        rng = np.random.default_rng(3)
        # steepest admissible cone member: alternate +/- full slope
        logf = np.cumsum(rng.choice([-1.0, 1.0], ks.num_intervals) * M * ks.h)
        samples = np.exp(logf - logf.max())
        xs = np.linspace(0.0, 1.0, 500)
        vals = eval_quasi_interpolant(q, TensorGrid((ks,)), samples, xs)
        assert vals.min() > 0.0

    def test_rejects_nonpositive_M(self):
        q = make_quasi_interpolant(2)
        with pytest.raises(ValueError):
            positivity_threshold(q, 1, 0.0)
