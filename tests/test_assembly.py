"""Collocation assembly against a from-scratch oracle built on scipy splines."""
import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import BSpline

from fracdim.assembly import OperatorCache
from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.maps import make_alphabet_1d, make_alphabet_2d
from fracdim.quasi import make_quasi_interpolant
from fracdim.solver import make_geometry
from oracles import tocsr

W = np.array([-0.125, 1.25, -0.125])


def spline(ks, c):
    """Spline c of the knot vector: the operator's column c on that axis."""
    return BSpline.basis_element(ks.knots[c:c + ks.n + 2], extrapolate=False)


def oracle_apply_1d(alphabet, s, ks, v):
    """Direct evaluation of the quasi-interpolated transfer operator:
    coefficients from the midpoint weights, spline values from scipy.  The
    samples sit at all J+2n interval midpoints; spline c (of J+n) reads the
    samples c..c+n."""
    J, n = ks.J, ks.n
    coeff = np.array([W @ v[c:c + n + 1] for c in range(J + n)])
    x = ks.midpoints
    out = np.zeros(J + 2 * n)
    splines = [spline(ks, c) for c in range(J + n)]
    for e in alphabet.letters:
        y = 1.0 / (x + e)
        wgt = (x + e) ** (-2.0 * s)
        vals = np.zeros(J + 2 * n)
        for c, b in enumerate(splines):
            bv = np.nan_to_num(b(y))
            vals += coeff[c] * bv
        out += wgt * vals
    return out


def oracle_apply_2d(alphabet, s, grid, v):
    ksx, ksy = grid.axes
    n = grid.n
    X, Y = np.meshgrid(ksx.midpoints, ksy.midpoints)  # rows iy, cols ix
    Vs = v.reshape(ksy.J + 2 * n, ksx.J + 2 * n)
    # tensor coefficients
    ncx, ncy = ksx.J + n, ksy.J + n
    coeff = np.empty((ncy, ncx))
    for cy in range(ncy):
        for cx in range(ncx):
            block = Vs[cy:cy + n + 1, cx:cx + n + 1]
            coeff[cy, cx] = W @ block @ W
    bx = [spline(ksx, c) for c in range(ncx)]
    by = [spline(ksy, c) for c in range(ncy)]
    out = np.zeros(X.shape)
    for (e1, e2) in alphabet.letters:
        px = X + e1
        py = Y + e2
        r2 = px * px + py * py
        qx = px / r2
        qy = py / r2
        wgt = r2 ** (-s)
        BX = np.array([np.nan_to_num(b(qx)) for b in bx])  # (ncx, my, mx)
        BY = np.array([np.nan_to_num(b(qy)) for b in by])
        vals = np.einsum("yx,ypq,xpq->pq", coeff, BY, BX)
        out += wgt * vals
    return out.ravel()


class TestOracle1D:
    @pytest.mark.parametrize("J", [8, 11, 16])
    def test_matches_direct_evaluation(self, J):
        alphabet = make_alphabet_1d([1, 2, 3])
        grid = make_geometry(1, J, 2)
        cache = OperatorCache(alphabet, grid)
        ks, = grid.axes
        rng = np.random.default_rng(J)
        for s in (0.4, 0.531280506277205, 0.9):
            op = cache.matrix(s)
            for _ in range(34):
                v = rng.uniform(0.1, 2.0, op.shape[0])
                got = op @ v
                expect = oracle_apply_1d(alphabet, s, ks, v)
                assert np.abs(got - expect).max() <= 1e-12

    def test_materialized_matches_operator(self):
        alphabet = make_alphabet_1d([1, 2])
        cache = OperatorCache(alphabet, make_geometry(1, 12, 2))
        op = cache.matrix(0.6)
        dense = tocsr(op).toarray()
        rng = np.random.default_rng(5)
        v = rng.uniform(0.5, 1.5, op.shape[0])
        assert np.abs(op @ v - dense @ v).max() < 1e-14


class TestOracle2D:
    @pytest.mark.parametrize("J", [8, 10, 12])
    def test_matches_direct_evaluation(self, J):
        alphabet = make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)])
        grid = make_geometry(2, J, 2)
        cache = OperatorCache(alphabet, grid)
        rng = np.random.default_rng(J)
        for s in (1.0, 1.149577146906169):
            op = cache.matrix(s)
            for _ in range(17):
                v = rng.uniform(0.1, 2.0, op.shape[0])
                got = op @ v
                expect = oracle_apply_2d(alphabet, s, grid, v)
                assert np.abs(got - expect).max() <= 1e-12

    def test_coefficient_map_matches_kron(self):
        alphabet = make_alphabet_2d([(1, 0)])
        op = OperatorCache(alphabet, make_geometry(2, 6, 2)).matrix(1.0)
        Wx, Wy = op.W1s
        Wr = sparse.kron(Wy, Wx).toarray()
        rng = np.random.default_rng(2)
        v = rng.uniform(0.1, 1.0, op.shape[0])
        assert np.abs(op.coefficients(v) - Wr @ v).max() < 1e-14


class TestStructure:
    def test_column_sparsity_invariant(self):
        # each collocation row of the evaluation factor holds at most
        # |E| (n+1)^d entries
        alphabet = make_alphabet_1d([1, 2, 3, 4])
        cache = OperatorCache(alphabet, make_geometry(1, 10, 2))
        G = cache.evaluation_matrix(0.7)
        per_row = np.diff(G.indptr)
        assert per_row.max() <= len(alphabet.letters) * 3

    def test_shapes(self):
        alphabet = make_alphabet_2d([(1, 0), (2, 0)])
        cache = OperatorCache(alphabet, make_geometry(2, 7, 2))
        # J+n subintervals along x and J+2n along y, each carrying n
        # exterior midpoints per side and n more splines than subintervals
        assert cache.N == 13 * 15
        assert cache.Ncoef == 11 * 13
        op = cache.matrix(1.0)
        assert op.shape == (195, 195)
        assert tocsr(op).shape == (195, 195)

    def test_s_only_enters_through_weights(self):
        alphabet = make_alphabet_1d([1, 2])
        cache = OperatorCache(alphabet, make_geometry(1, 9, 2))
        G1 = cache.evaluation_matrix(0.5)
        G2 = cache.evaluation_matrix(0.8)
        assert np.array_equal(G1.indices, G2.indices)
        assert np.array_equal(G1.indptr, G2.indptr)
        assert not np.allclose(G1.data, G2.data)

    def test_entries_positive_at_kept_columns(self):
        alphabet = make_alphabet_1d([1, 2])
        G = OperatorCache(alphabet, make_geometry(1, 9, 2)).evaluation_matrix(0.6)
        assert G.data.min() >= 0.0

    def test_degree_and_dimension_validation(self):
        with pytest.raises(ValueError, match="even spline degree"):
            OperatorCache(make_alphabet_1d([1]), make_geometry(1, 8, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            OperatorCache(make_alphabet_2d([(1, 0)]), make_geometry(1, 8, 2))
        q1 = make_quasi_interpolant(4)
        with pytest.raises(ValueError, match="degree must match"):
            OperatorCache(make_alphabet_1d([1]), make_geometry(1, 8, 2), q1)


class TestFullBasis:
    def test_full_windows_stay_in_range(self):
        # every mapped collocation midpoint keeps its whole spline window,
        # i.e. partition of unity holds at all evaluated points
        alphabet = make_alphabet_1d([1, 2])
        cache = OperatorCache(alphabet, make_geometry(1, 32, 2))
        per_row = np.diff(cache.evaluation_matrix(0.5).indptr)
        assert (per_row == 2 * 3).all()

    def test_unpadded_full_basis_rejected(self):
        # without padding some images spill past the unity region
        alphabet = make_alphabet_1d([1, 2])
        with pytest.raises(ValueError, match="leave the padded spline range"):
            OperatorCache(alphabet,
                          TensorGrid((make_uniform_knots(0.0, 1.0, 32, 2),)))
