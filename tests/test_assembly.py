"""Collocation assembly against a from-scratch oracle built on scipy splines."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import BSpline

from fracdim import assembly
from fracdim.assembly import (OperatorCache, coefficient_map, kept_points,
                              operator_footprint)
from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.constants import legendre_projection_constants, make_profile
from fracdim.maps import make_alphabet_1d, make_alphabet_2d, parse_alphabet
from fracdim.quasi import check_degree, make_quasi_interpolant
from fracdim.solver import SolveConfig, make_geometry, solve_dimension
from fracdim.spectral import FLOAT_SLACK
from oracles import (coo_coefficient_map, full_matrix, full_product,
                     letter_structure)

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
        dense = full_matrix(cache, 0.6).toarray()
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
                # the alphabet is closed under e2 -> -e2: a symmetric v
                v = cache.symmetric(rng.uniform(0.1, 2.0, op.shape[0]))
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

    @pytest.mark.parametrize("n", [2, 4])
    def test_coefficients_bitwise_per_axis_w1(self, n):
        # the x taps on slices sum the sparse W1's products in its order
        grid = make_geometry(2, 32, n)
        op = OperatorCache(parse_alphabet(SET_2D), grid).matrix(1.0)
        Wx, Wy = op.W1s
        V = np.random.default_rng(n).uniform(0.1, 1.0, grid.sample_shape)
        want = Wy @ np.ascontiguousarray((Wx @ np.ascontiguousarray(V.T)).T)
        assert op.coefficients(V.ravel()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    def test_coefficient_map_equals_coo_build(self, n):
        # the closed-form CSR holds the frozen COO build's arrays, bit
        # for bit and in the same dtypes, on the padded x axis and on the
        # symmetric y axis
        for ks in make_geometry(2, 30, n).axes:
            got, want = coefficient_map(ks), coo_coefficient_map(ks)
            assert got.shape == want.shape
            for a, b in [(got.data, want.data), (got.indices, want.indices),
                         (got.indptr, want.indptr)]:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def entries_per_point(op):
    """Entries of G(s) per collocation point: the entries of its |E|
    stacked (point, letter) rows."""
    return np.diff(op.G.indptr).reshape(op.weights.shape).sum(axis=1)


class TestStructure:
    def test_column_sparsity_invariant(self):
        # each collocation row of the evaluation factor holds at most
        # |E| (n+1)^d entries
        alphabet = make_alphabet_1d([1, 2, 3, 4])
        cache = OperatorCache(alphabet, make_geometry(1, 10, 2))
        op = cache.matrix(0.7)
        assert op.G.shape[0] == cache.N * len(alphabet.letters)
        assert entries_per_point(op).max() <= len(alphabet.letters) * 3

    def test_shapes(self):
        alphabet = make_alphabet_2d([(1, 0), (2, 0)])
        cache = OperatorCache(alphabet, make_geometry(2, 7, 2))
        # J+n subintervals along x and J+2n along y, each carrying n
        # exterior midpoints per side and n more splines than subintervals
        assert cache.N == 13 * 15
        assert cache.Ncoef == 11 * 13
        # the alphabet is closed under e2 -> -e2: only the 8 of 15 y rows
        # with y >= 0 (one of them at y = 0) are built
        assert cache.kept == 13 * 8
        op = cache.matrix(1.0)
        assert op.shape == (195, 195)
        assert op.G.shape == (13 * 8 * 2, 11 * 13)
        assert full_matrix(cache, 1.0).shape == (195, 195)

    def test_s_only_enters_through_weights(self):
        alphabet = make_alphabet_1d([1, 2])
        cache = OperatorCache(alphabet, make_geometry(1, 9, 2))
        op1, op2 = cache.matrix(0.5), cache.matrix(0.8)
        assert np.array_equal(op1.G.indices, op2.G.indices)
        assert np.array_equal(op1.G.indptr, op2.G.indptr)
        assert np.array_equal(op1.G.data, op2.G.data)
        assert np.array_equal(op1.weights, cache.evaluation_matrix(0.5))
        assert not np.allclose(op1.weights, op2.weights)
        G1, G2 = full_matrix(cache, 0.5), full_matrix(cache, 0.8)
        assert np.array_equal(G1.indptr, G2.indptr)
        assert not np.allclose(G1.data, G2.data)

    def test_entries_positive_at_kept_columns(self):
        alphabet = make_alphabet_1d([1, 2])
        op = OperatorCache(alphabet, make_geometry(1, 9, 2)).matrix(0.6)
        assert op.G.data.min() >= 0.0
        assert op.weights.min() > 0.0

    def test_degree_and_dimension_validation(self):
        # one guard, quasi.check_degree, names the degrees with a weight
        # table (6 once passed a guard and failed later, in
        # make_uniform_knots), and every entry point refuses the others
        # through it, with its message
        for n in (0, 1, 3, 5, 6):
            with pytest.raises(ValueError, match="2 or 4, not"):
                check_degree(n)
        for n in (2, 4):
            check_degree(n)
        A1 = make_alphabet_1d([1])
        for refused in (
                lambda: make_quasi_interpolant(3),
                lambda: OperatorCache(A1, make_geometry(1, 8, 3)),
                lambda: make_profile(A1, n=3),
                lambda: legendre_projection_constants(3),
                lambda: solve_dimension(SolveConfig(A1, n=3, h=1 / 8))):
            with pytest.raises(ValueError, match="even spline degree >= 2 "
                               "with a weight table, 2 or 4, not 3$"):
                refused()
        with pytest.raises(ValueError, match="dimension mismatch"):
            OperatorCache(make_alphabet_2d([(1, 0)]), make_geometry(1, 8, 2))


class TestFullBasis:
    def test_full_windows_stay_in_range(self):
        # every mapped collocation midpoint keeps its whole spline window,
        # i.e. partition of unity holds at all evaluated points
        alphabet = make_alphabet_1d([1, 2])
        cache = OperatorCache(alphabet, make_geometry(1, 32, 2))
        op = cache.matrix(0.5)
        assert (np.diff(op.G.indptr) == 3).all()
        assert (entries_per_point(op) == 2 * 3).all()

    def test_unpadded_full_basis_rejected(self):
        # without padding some images spill past the unity region
        alphabet = make_alphabet_1d([1, 2])
        with pytest.raises(ValueError, match="leave the padded spline range"):
            OperatorCache(alphabet,
                          TensorGrid((make_uniform_knots(0.0, 1.0, 32, 2),)))


SET_2D = "(1,0),(1,1),(1,-1),(2,0)"


@pytest.fixture(scope="module", params=[("1,2", 1, 32), ("primes<50", 1, 50),
                                        (SET_2D, 2, 12)],
                ids=["12-J32", "primes50-J50", "2d-J12"])
def cache(request):
    text, d, J = request.param
    return OperatorCache(parse_alphabet(text), make_geometry(d, J, 2))


def exact_product(op, v) -> list[Fraction]:
    """The kept rows of op @ v summed exactly from the same float factors
    the product rounds: the entries of op.G, the letter weights and the
    coefficients."""
    c = [Fraction(x) for x in op.coefficients(v).tolist()]
    G = op.G
    data, indices = G.data.tolist(), G.indices.tolist()
    rows = [sum((Fraction(data[k]) * c[indices[k]]
                 for k in range(G.indptr[i], G.indptr[i + 1])), Fraction(0))
            for i in range(G.shape[0])]
    E = op.weights.shape[1]
    return [sum((Fraction(w) * r for w, r in
                 zip(op.weights[i].tolist(), rows[i * E:(i + 1) * E])),
                Fraction(0))
            for i in range(len(op.weights))]


def written_G(op) -> sparse.csr_matrix:
    """G(s) written out the direct way: each stacked row's entries scaled
    by its letter weight, a point's |E| rows merged into one."""
    N, E = op.weights.shape
    G = op.G
    data = G.data * np.repeat(op.weights.ravel(), np.diff(G.indptr))
    return sparse.csr_matrix((data, G.indices, G.indptr[::E]),
                             shape=(N, G.shape[1]))


class TestStackedForm:
    """The s-independent stacked G weighted per (point, letter) applies the
    operator G(s) W that it stands for."""

    def test_products_agree(self, cache):
        rng = np.random.default_rng(3)
        v = cache.symmetric(rng.uniform(0.5, 1.5, cache.N))
        for s in (0.5, 0.9, 1.2):
            op = cache.matrix(s)
            y = written_G(op) @ op.coefficients(v)
            ys = (op @ v)[cache.N - cache.kept:]
            assert np.all(np.abs(ys - y) <= 1e-14 * np.abs(y))

    def test_materializes_to_the_same_matrix(self, cache):
        op = cache.matrix(0.9)
        # the coefficient map, first axis innermost
        W = op.W1s[0] if len(op.W1s) == 1 else sparse.kron(op.W1s[1], op.W1s[0])
        a = (written_G(op) @ W).toarray()
        b = full_matrix(cache, 0.9)[cache.N - cache.kept:].toarray()
        assert np.abs(a - b).max() <= 1e-15 * np.abs(a).max()

    def test_probes_share_one_G(self, cache):
        a, b = cache.matrix(0.5), cache.matrix(0.8)
        assert a.G is b.G
        assert a.weights.shape == (cache.kept, len(cache.alphabet.letters))
        assert not np.array_equal(a.weights, b.weights)

    def test_rounding_within_slack(self, cache):
        # each row rounds within FLOAT_SLACK / 100 of the exact rational sum
        # of its own float factors
        v = cache.symmetric(np.random.default_rng(4).uniform(0.5, 1.5,
                                                             cache.N))
        op = cache.matrix(1.0)
        y = (op @ v)[cache.N - cache.kept:]
        for yi, ex in zip(y.tolist(), exact_product(op, v)):
            assert abs(Fraction(yi) - ex) <= Fraction(FLOAT_SLACK / 100) * ex


class TestBlockBuild:
    """The block build computes every entry of Gs and lg by the same
    floating-point operations, in the same order, as a build one letter at
    a time over the whole mesh (its tail of kept points on a folded mesh);
    where the blocks end changes no bit."""

    @pytest.mark.parametrize("text,d,J,n", [
        pytest.param(text, d, J, n, id=f"{text}-{d}-{J}" + tag)
        for text, d, J, n, tag in [
            ("1,2,3", 1, 16, 2, ""), ("primes<50", 1, 64, 2, ""),
            ("primes<50", 1, 64, 4, "-degree4"), ("1..100", 1, 200, 2, ""),
            (SET_2D, 2, 40, 2, ""), ("(1,0),(2,1)", 2, 40, 2, "")]])
    @pytest.mark.parametrize("block", ["default", "one-row", "ragged"])
    def test_bitwise_equal_to_letter_build(self, text, d, J, n, block,
                                           monkeypatch):
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, n)
        E, N = len(alphabet.letters), math.prod(grid.sample_shape)
        if block == "one-row":
            monkeypatch.setattr(assembly, "BLOCK_ROWS", 1)
        elif block == "ragged":
            # blocks of 13 points: the last one is shorter
            assert N % 13 != 0
            monkeypatch.setattr(assembly, "BLOCK_ROWS", 13 * E + 1)
        cache = OperatorCache(alphabet, grid)
        G = cache.matrix(1.0).G
        # the kept rows of the whole-mesh structure
        r0 = (N - cache.kept) * E
        data, indices, indptr, lg = letter_structure(alphabet, grid)
        K = indptr[1]
        want = (data[r0 * K:], indices[r0 * K:], indptr[r0:] - r0 * K,
                lg[N - cache.kept:])
        assert (cache.kept < N) == (text == SET_2D)  # folded
        for got, want in zip((G.data, G.indices, G.indptr, cache._lg),
                             want):
            assert got.tobytes() == want.astype(got.dtype).tobytes()
        assert G.indices.dtype == G.indptr.dtype == np.int32


NOT_CLOSED = "(1,0),(1,1),(2,0)"


class TestFold:
    """A 2D alphabet closed under (e1, e2) -> (e1, -e2), on a grid whose y
    midpoints negate exactly, builds the rows of its points with y >= 0
    only, and a product copies each into its mirror row.  Checked against
    the whole-mesh product of the letter-at-a-time structure."""

    # 16 and 29 y midpoints: an odd count puts one row at y = 0
    @pytest.mark.parametrize("J", [12, 25])
    def test_kept_rows_bitwise_mirrored_within_slack(self, J):
        alphabet, grid = parse_alphabet(SET_2D), make_geometry(2, J, 2)
        cache = OperatorCache(alphabet, grid)
        Ny, Nx = grid.sample_shape
        assert (cache.kept == kept_points(alphabet, grid.sample_shape)
                == (Ny - Ny // 2) * Nx)
        r0 = cache.N - cache.kept
        rng = np.random.default_rng(J)
        for s in (0.9, 1.15):
            v = cache.symmetric(rng.uniform(0.5, 1.5, cache.N))
            got, want = cache.matrix(s) @ v, full_product(cache, s, v)
            assert np.array_equal(got[r0:], want[r0:])
            assert np.all(np.abs(got[:r0] - want[:r0])
                          <= FLOAT_SLACK * want[:r0])

    def test_asymmetric_vector_refused(self):
        cache = OperatorCache(parse_alphabet(SET_2D), make_geometry(2, 12, 2))
        v = np.ones(cache.N)
        cache.matrix(1.0) @ v
        v[0] = math.nextafter(1.0, 2.0)
        with pytest.raises(ValueError, match="symmetric in y"):
            cache.matrix(1.0) @ v

    def test_symmetric(self):
        folded = OperatorCache(parse_alphabet(SET_2D), make_geometry(2, 12, 2))
        v = np.random.default_rng(5).uniform(0.5, 1.5, folded.N)
        w = folded.symmetric(v)
        W = w.reshape(folded.geometry.sample_shape)
        assert np.array_equal(W, W[::-1]) and w.min() > 0.0
        assert np.array_equal(folded.symmetric(w), w)
        unfolded = OperatorCache(parse_alphabet(NOT_CLOSED),
                                 make_geometry(2, 12, 2))
        assert unfolded.symmetric(v) is v

    @pytest.mark.parametrize("grid", ["standard", "offset-y"])
    def test_unfolded_keeps_every_row(self, grid):
        # an alphabet not closed under e2 -> -e2, or a y axis that is not
        # symmetric about 0: every row is built and any vector is taken
        y_symmetric = grid == "standard"
        if y_symmetric:
            alphabet, grid = (parse_alphabet(NOT_CLOSED),
                              make_geometry(2, 12, 2))
        else:
            alphabet = parse_alphabet(SET_2D)
            grid = TensorGrid((make_geometry(2, 8, 2).axes[0],
                               make_uniform_knots(-0.625, 0.875, 12, 2)))
        cache = OperatorCache(alphabet, grid)
        assert cache.kept == cache.N == kept_points(
            alphabet, grid.sample_shape, y_symmetric)
        v = np.random.default_rng(6).uniform(0.5, 1.5, cache.N)
        for s in (0.9, 1.15):
            assert np.array_equal(cache.matrix(s) @ v,
                                  full_product(cache, s, v))


def kept_bytes(cache) -> int:
    G = cache.matrix(1.0).G
    return (G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
            + cache._lg.nbytes + sum(W1.data.nbytes + W1.indices.nbytes
                                     + W1.indptr.nbytes for W1 in cache._W1s))


class TestBuildMemory:
    @pytest.mark.parametrize("J", [150, 300])
    def test_transient_is_one_block(self, J):
        # tracemalloc sees numpy's buffers; N grows about 4x from J = 150
        # to 300, the build's transient must not
        alphabet, grid = parse_alphabet(SET_2D), make_geometry(2, J, 2)
        tracemalloc.start()
        try:
            cache = OperatorCache(alphabet, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = operator_footprint(alphabet, grid.sample_shape, 2)["block"]
        assert peak - kept_bytes(cache) <= budget

    @pytest.mark.parametrize("text,d,J,n", [
        (SET_2D, 2, 500, 2), ("primes<3000", 1, 3000, 2),
        ("primes<3000", 1, 3000, 4), ("(1,0),(2,1)", 2, 250, 2)],
        ids=["certify-2d", "primes-n2", "primes-n4", "unfolded-2d"])
    def test_build_temporaries_within_block_term(self, text, d, J, n,
                                                  monkeypatch):
        # tracemalloc sees numpy's buffers: the peak above what is held
        # after each block (the row pointers, allocated last, would hide
        # the blocks' peak behind the whole build's) and after the build
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, n)
        over, block = [], OperatorCache._block

        def measured(cache, *args):
            block(cache, *args)
            retained, peak = tracemalloc.get_traced_memory()
            over.append(peak - retained)
            tracemalloc.reset_peak()

        monkeypatch.setattr(OperatorCache, "_block", measured)
        tracemalloc.start()
        try:
            cache = OperatorCache(alphabet, grid)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(over) > 2 and cache.nnz > 0
        budget = operator_footprint(alphabet, grid.sample_shape, n)["block"]
        assert max(over + [peak - retained]) <= budget

    @pytest.mark.parametrize("text,d,J", [("primes<50", 1, 64), (SET_2D, 2, 12)])
    def test_footprint_counts_what_the_cache_keeps(self, text, d, J):
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, 2)
        cache = OperatorCache(alphabet, grid)
        fp = operator_footprint(alphabet, grid.sample_shape, 2)
        G = cache.matrix(1.0).G
        assert fp["Gs"] == G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
        assert fp["lg"] == cache._lg.nbytes
        assert fp["probe"] == 2 * cache.matrix(1.0).weights.nbytes
        assert fp["total"] == sum(v for k, v in fp.items() if k != "total")
