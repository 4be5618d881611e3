"""Collocation assembly against a from-scratch oracle built on scipy splines."""
import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.interpolate import BSpline

from fracdim import assembly
from fracdim.assembly import (CSR, OperatorCache, TransferOperator,
                              coefficient_map, kept_points,
                              operator_footprint, product_points,
                              rows_footprint)
from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.constants import legendre_projection_constants, make_profile
from fracdim.maps import (Alphabet, make_alphabet_1d, make_alphabet_2d,
                          parse_alphabet)
from fracdim.quasi import check_degree, make_quasi_interpolant
from fracdim.solver import SolveConfig, make_geometry, solve_dimension
from fracdim.spectral import FLOAT_SLACK
from oracles import (as_scipy, coo_coefficient_map, full_matrix,
                     full_product, letter_structure, plain_rows,
                     unblocked_product)

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
        Wx, Wy = map(as_scipy, op.W1s)
        Wr = sparse.kron(Wy, Wx).toarray()
        rng = np.random.default_rng(2)
        v = rng.uniform(0.1, 1.0, op.shape[0])
        assert np.abs(op.coefficients(v) - Wr @ v).max() < 1e-14

    @pytest.mark.parametrize("n", [2, 4])
    def test_coefficients_bitwise_per_axis_w1(self, n):
        # the x taps on slices sum the sparse W1's products in its order
        grid = make_geometry(2, 32, n)
        op = OperatorCache(parse_alphabet(SET_2D), grid).matrix(1.0)
        Wx, Wy = map(as_scipy, op.W1s)
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
    the product rounds: the entries of op.G (its plain rows), the letter
    weights and the coefficients."""
    c = [Fraction(x) for x in op.coefficients(v).tolist()]
    G = plain_rows(op.G, op.W1s)
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
    G = plain_rows(op.G, op.W1s)
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
        Ws = [as_scipy(W1) for W1 in op.W1s]
        W = Ws[0] if len(Ws) == 1 else sparse.kron(Ws[1], Ws[0])
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


# a merged fixture: 22,911 slots for 48,070 (point, letter) rows
MERGED = ("primes<500", 500)


def merged_cache(text=MERGED[0], J=MERGED[1], n=2):
    cache = OperatorCache(parse_alphabet(text), make_geometry(1, J, n))
    assert cache._merged is not None
    return cache


def stacked_columns(cache) -> np.ndarray:
    """The column of each stacked entry of a 1D cache, (kept, |E| K): Gs's
    own, or on a merged cache Mind's at its slot label."""
    P = cache._Gs
    cols = P.indices if cache._merged is None else cache._merged[0][P.indices]
    return cols.reshape(cache.kept, -1)


def build_passes(alphabet, grid):
    """An OperatorCache and the passes its build made over the points: the
    points _block wrote, over the kept points."""
    block, taken = OperatorCache._block, []

    def spy(self, img, cols, base):
        taken.append(len(cols))
        block(self, img, cols, base)

    with mock.patch.object(OperatorCache, "_block", spy):
        cache = OperatorCache(alphabet, grid)
    return cache, sum(taken) / cache.kept


def written_merged(cache, s: float) -> np.ndarray:
    """The merged values written the direct way: the stacked entries times
    their letter weights exp(s lg), formed as the cache forms them, summed
    per slot in ascending letter order."""
    P = cache._Gs
    w = np.exp(np.multiply(cache._lg, s)).ravel()
    return as_scipy(P).T @ w


class TestMergedRows:
    """A 1D cache whose letters share columns merges each point's |E|
    stacked rows into one row over its distinct columns (slots) when they
    number at most kept |E|: Gs holds each entry's slot label, a probe sums
    the weighted entries into the merged values, and a product is one CSR
    product over them."""

    @pytest.mark.parametrize("text,d,J,merged", [
        ("primes<3000", 1, 750, True), ("primes<3000", 1, 3000, True),
        ("1..100", 1, 799, True), ("1..100", 1, 1599, False),
        ("1..100", 1, 6399, False), ("1,2", 1, 64, False),
        (SET_2D, 2, 40, False), ("(1,0),(2,1)", 2, 40, False),
        ("(1..8,-3..3)", 2, 40, False)])
    def test_rule(self, text, d, J, merged):
        # merged exactly when the points' distinct columns, counted here
        # from the sorted columns of their stacked entries, number at most
        # kept |E|; never in 2D
        alphabet = parse_alphabet(text)
        cache = OperatorCache(alphabet, make_geometry(d, J, 2))
        assert (cache._merged is not None) == merged
        if d == 1:
            cols = np.sort(stacked_columns(cache), axis=1)
            slots = cache.kept + int((np.diff(cols, axis=1) != 0).sum())
            assert (slots <= cache.kept * len(alphabet.letters)) == merged

    @staticmethod
    def slot_oracle(cols):
        """Of the columns cols (points, entries): each point's distinct
        columns, ascending (Mind), its first slot (ptr) and each entry's
        label, its column's slot there, counted by np.unique over (point,
        column) keys."""
        width = int(cols.max()) + 1
        keys = (np.arange(len(cols))[:, None] * width + cols).ravel()
        distinct = np.unique(keys)
        return (distinct % width,
                np.searchsorted(distinct, np.arange(len(cols) + 1) * width),
                np.searchsorted(distinct, keys))

    @classmethod
    def check_slots(cls, cache):
        """Each point's row holds its distinct columns, ascending, and each
        entry's label is its column's slot there (slot_oracle)."""
        P, (Mind, ptr) = cache._Gs, cache._merged
        want = cls.slot_oracle(stacked_columns(cache))
        for got, oracle in zip((Mind, ptr, P.indices), want):
            assert np.array_equal(got, oracle)
        assert P.shape == (len(P.indices) // (cache.n + 1), len(Mind))

    def test_hand_built_block(self):
        # gaps 0, K - 1, K and K + 1 between a point's first columns, in
        # both orders: only a gap over K leaves columns out, a point's slots
        # number K + sum min(gap, K) (the build's count), and Mind runs
        # over the windows after the block's last gap over K
        K = 3
        gaps = np.array([[0, 0, 0, 0, 2, 0, 3, 0, 4, 0],
                         [4, 0, 3, 0, 2, 0, 0, 0, 0, 0]])
        first = 40 - np.cumsum(np.insert(gaps, 0, 0, axis=1), axis=1,
                               dtype=np.int32)
        cols = first[..., None] + np.arange(K, dtype=np.int32)
        Mind, ptr, want = self.slot_oracle(cols.reshape(2, -1))
        assert np.array_equal(np.diff(ptr),
                              K + np.minimum(gaps, K).sum(axis=1))
        got = np.full(len(Mind) + 2, -1, dtype=np.int32)
        # a block after another point's slot, into its slice of Mind
        assembly.relabel(cols, (ptr + 1).astype(np.int32), got)
        assert len(Mind) == 22 and got[0] == got[-1] == -1
        assert np.array_equal(got[1:-1], Mind)
        assert np.array_equal(cols.ravel(), want + 1)

    def test_slots(self):
        # no slot takes more than |E| entries (one per letter)
        cache = merged_cache()
        self.check_slots(cache)
        assert np.bincount(cache._Gs.indices).max() <= \
            len(cache.alphabet.letters)

    @settings(max_examples=40, deadline=None)
    @given(letters=st.lists(st.integers(1, 400), min_size=3, max_size=60,
                            unique=True),
           J=st.integers(30, 600), n=st.sampled_from([2, 4]),
           block=st.integers(1, 4000))
    def test_drawn_alphabets(self, letters, J, n, block):
        # drawn sorted letters, meshes and build blocks: the rule holds,
        # a merged cache's slots are right, the blocks change no bit, and
        # every build writes each block once
        alphabet, grid = make_alphabet_1d(letters), make_geometry(1, J, n)
        want, passes = build_passes(alphabet, grid)
        with mock.patch.object(assembly, "BLOCK_ROWS", block):
            got, more = build_passes(alphabet, grid)
        assert passes == more == 1
        cols = np.sort(stacked_columns(want), axis=1)
        slots = want.kept + int((np.diff(cols, axis=1) != 0).sum())
        merged = slots <= want.kept * len(letters)
        assert (want._merged is not None) == (got._merged is not None) == \
            merged
        pairs = [(got._Gs.data, want._Gs.data), (got._lg, want._lg),
                 (got._Gs.indices, want._Gs.indices)]
        if merged:
            self.check_slots(want)
            pairs += list(zip(got._merged, want._merged))
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()

    def test_rows_within_slack_of_exact_sum(self):
        # each merged row rounds within FLOAT_SLACK / 100 of the exact
        # rational sum of its stacked float factors: entry, letter weight
        # and coefficient
        cache, s = merged_cache(), 0.9
        op = cache.matrix(s)
        v = np.random.default_rng(4).uniform(0.5, 1.5, cache.N)
        y = (op @ v).tolist()
        c = [Fraction(x) for x in op.coefficients(v).tolist()]
        K = cache.n + 1
        w = np.repeat(np.exp(np.multiply(cache._lg, s)), K, axis=1).tolist()
        B = cache._Gs.data.reshape(cache.kept, -1).tolist()
        cols = stacked_columns(cache).tolist()
        for i in range(cache.kept):
            exact = sum((Fraction(b) * Fraction(wi) * c[col]
                         for b, wi, col in zip(B[i], w[i], cols[i])),
                        Fraction(0))
            assert abs(Fraction(y[i]) - exact) <= \
                Fraction(FLOAT_SLACK / 100) * exact

    def test_products_agree_with_stacked(self):
        # the stacked product of the same entries (columns for labels) and
        # the merged one agree within FLOAT_SLACK / 100
        cache = merged_cache()
        cols = stacked_columns(cache).ravel()
        P = cache._Gs
        rng = np.random.default_rng(5)
        for s in (0.5, 0.9, 1.2):
            op = cache.matrix(s)
            stacked = TransferOperator(
                CSR(P.data, cols, P.indptr, (P.shape[0], cache.Ncoef)),
                op.W1s, np.exp(np.multiply(cache._lg, s)), cache._buffer)
            v = rng.uniform(0.5, 1.5, cache.N)
            want = stacked @ v
            assert np.all(np.abs(op @ v - want) <= FLOAT_SLACK / 100 * want)

    @pytest.mark.parametrize("block", ["default", "one-point", "ragged"])
    def test_values_blockwise_equal_whole(self, block, monkeypatch):
        # a probe forms its weights a block of whole points at a time: the
        # merged values are bit for bit the whole P.T @ w at any block size
        E = len(parse_alphabet(MERGED[0]).letters)
        rows = {"default": assembly.PRODUCT_ROWS, "one-point": 1,
                "ragged": 13 * E + 1}[block]
        monkeypatch.setattr(assembly, "PRODUCT_ROWS", rows)
        cache = merged_cache()
        for s in (0.5, 0.9):
            assert np.array_equal(cache.evaluation_matrix(s),
                                  written_merged(cache, s))
            op = cache.matrix(s)
            assert op.weights is None and op.G.shape == (cache.kept,
                                                         cache.Ncoef)

    def test_crowded_first_point_merges_in_one_pass(self, monkeypatch):
        # one point per block: 1..10 at J = 12 has 11 slots at its first
        # point, more than |E| = 10, but 160 in all, within kept |E| = 180.
        # The exact total decides: one pass writes the merged structure
        # one block builds, bit for bit
        want = merged_cache("1..10", 12)
        monkeypatch.setattr(assembly, "BLOCK_ROWS", 1)
        got, passes = build_passes(parse_alphabet("1..10"),
                                   make_geometry(1, 12, 2))
        assert passes == 1 and got._merged is not None
        for a, b in [(got._Gs.data, want._Gs.data),
                     (got._Gs.indices, want._Gs.indices),
                     (got._merged[0], want._merged[0]),
                     (got._merged[1], want._merged[1]), (got._lg, want._lg)]:
            assert a.tobytes() == b.tobytes()

    def test_unsorted_letters_stay_stacked(self):
        # the labels rest on first columns that do not rise with the
        # letter; the build checks it, and letters out of order keep the
        # stacked form, which sums them in their own order
        grid = make_geometry(1, 200, 2)
        merged = OperatorCache(make_alphabet_1d(range(1, 101)), grid)
        unsorted = OperatorCache(Alphabet(1, tuple(range(100, 0, -1))), grid)
        assert merged._merged is not None and unsorted._merged is None
        v = np.random.default_rng(6).uniform(0.5, 1.5, grid.sample_shape)
        for s in (0.9, 1.2):
            want = merged.matrix(s) @ v.ravel()
            got = unsorted.matrix(s) @ v.ravel()
            assert np.all(np.abs(got - want) <= FLOAT_SLACK / 100 * want)


class TestBlockBuild:
    """The block build computes every entry of Gs and lg by the same
    floating-point operations, in the same order, as a build one letter at
    a time over the whole mesh (its tail of kept points on a folded mesh);
    where the blocks end changes no bit.  A row keeps n+1 columns (or slot
    labels); a 2D row, whose K = (n+1)^2 columns are those n+1 shifted by
    ry nsx, keeps its values in n+1 passes (oracles.plain_rows)."""

    @pytest.mark.parametrize("text,d,J,n", [
        pytest.param(text, d, J, n, id=f"{text}-{d}-{J}" + tag)
        for text, d, J, n, tag in [
            ("1,2,3", 1, 16, 2, ""), ("primes<50", 1, 64, 2, ""),
            ("primes<50", 1, 64, 4, "-degree4"), ("1..100", 1, 200, 2, ""),
            (SET_2D, 2, 40, 2, ""), ("(1,0),(2,1)", 2, 40, 2, ""),
            (SET_2D, 2, 30, 4, "-degree4"),
            ("(1,0),(2,1)", 2, 30, 4, "-degree4")]])
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
        rows, K = cache.kept * E, (n + 1) ** d
        assert cache._Gs.indices.shape == (rows * (n + 1),)
        assert np.array_equal(cache._Gs.indptr, np.arange(rows + 1) * (n + 1))
        assert cache._Gs.data.shape == ((rows * K,) if d == 1
                                        else (n + 1, rows * (n + 1)))
        assert cache.nnz == rows * K
        G = plain_rows(cache._Gs, cache._W1s)
        # the kept rows of the whole-mesh structure
        r0 = (N - cache.kept) * E
        data, indices, indptr, lg = letter_structure(alphabet, grid)
        want = (data[r0 * K:], indices[r0 * K:], indptr[r0:] - r0 * K,
                lg[N - cache.kept:])
        assert (cache.kept < N) == (text == SET_2D)  # folded
        # a merged cache (1..100 here) holds slot labels, whose columns are
        # Mind's
        assert (cache._merged is not None) == (text == "1..100")
        columns = G.indices if cache._merged is None else \
            cache._merged[0][G.indices]
        for got, want in zip((G.data, columns, G.indptr, cache._lg),
                             want):
            assert got.tobytes() == want.astype(got.dtype).tobytes()
        assert cache._Gs.indices.dtype == cache._Gs.indptr.dtype == np.int32


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
            + cache._lg.nbytes + cache._buffer.nbytes
            + sum(W1.data.nbytes + W1.indices.nbytes + W1.indptr.nbytes
                  for W1 in cache._W1s))


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

    @pytest.mark.parametrize("text,d,J", [("primes<50", 1, 64), (SET_2D, 2, 12),
                                          ("primes<500", 1, 500)])
    def test_footprint_counts_what_the_cache_keeps(self, text, d, J):
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, 2)
        cache = OperatorCache(alphabet, grid)
        fp = operator_footprint(alphabet, grid.sample_shape, 2)
        G = cache._Gs
        assert fp["Gs"] == G.data.nbytes + G.indices.nbytes + G.indptr.nbytes
        assert fp["lg"] == cache._lg.nbytes
        op = cache.matrix(1.0)
        assert (cache._merged is not None) == (text == "primes<500")
        # only a 1D cache may merge
        assert ("merged" in fp) == (d == 1)
        if cache._merged is None:
            assert fp["probe"] == op.weights.nbytes + op.buffer.nbytes
        else:
            # the merged values take at most the weights' kept |E| doubles,
            # and the weights are formed a block at a time in the buffer
            assert fp["probe"] == cache._lg.nbytes + cache._buffer.nbytes
            assert op.G.data.nbytes <= cache._lg.nbytes
            # the term holds room for kept |E| slots; Mind takes its own
            Mind, ptr = cache._merged
            assert Mind.nbytes + ptr.nbytes <= fp["merged"] == \
                cache._lg.size * Mind.itemsize + ptr.nbytes
        assert fp["total"] == sum(v for k, v in fp.items() if k != "total")

    def test_index_dtype_follows_the_last_row_pointer(self):
        # a 2D Gs's largest index is its last row pointer, rows (n+1), so
        # its indices stay int32 up to 2^31 - 1 of them although rows K is
        # past 2^31; counted without building
        assert assembly.index_dtype(2**31 - 1) is np.int32
        assert assembly.index_dtype(2**31) is np.int64
        for rows, idx in [(715_827_882, 4), (715_827_883, 8)]:
            fp = rows_footprint((30000, 30000), 2, 1, rows)
            assert fp["Gs"] == rows * 9 * 8 + rows * 3 * idx + (rows + 1) * idx


class TestBlockedProduct:
    """A stacked product runs scipy's CSR kernel over blocks of whole
    points into the cache's one buffer and sums each block over its
    letters: bit for bit the whole G @ c and one einsum
    (oracles.unblocked_product), at any block size."""

    @pytest.mark.parametrize("text,d,J,n", [
        ("1..100", 1, 1600, 2), ("primes<50", 1, 64, 4), (SET_2D, 2, 25, 2),
        ("(1,0),(2,1)", 2, 25, 2), ("(1,0),(2,1)", 2, 30, 4)],
        ids=["1d-n2", "1d-n4", "folded-2d", "unfolded-2d", "unfolded-2d-n4"])
    @pytest.mark.parametrize("block", ["default", "one-point", "ragged"])
    def test_bitwise_equal_to_unblocked(self, text, d, J, n, block,
                                        monkeypatch):
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, n)
        E = len(alphabet.letters)
        if block == "one-point":
            monkeypatch.setattr(assembly, "PRODUCT_ROWS", 1)
        elif block == "ragged":
            # blocks of 13 points, one block of rows split among the
            # threads: the last one is shorter
            monkeypatch.setattr(assembly, "PRODUCT_ROWS",
                                13 * E * assembly.CORES + 1)
        cache = OperatorCache(alphabet, grid)
        assert cache._merged is None
        points = {"default": product_points(E, cache.kept), "one-point": 1,
                  "ragged": 13}[block]
        assert cache._buffer.shape == (
            assembly.lanes(-(-cache.kept // points)), points * E)
        if block == "ragged":  # the last block is shorter
            assert cache.kept % 13 != 0
        elif block == "default":  # only 1d-n2 is wider than one block
            assert (cache.kept > points) == (text == "1..100")
        rng = np.random.default_rng(J)
        for s in (0.9, 1.15):
            op = cache.matrix(s)
            v = cache.symmetric(rng.uniform(0.5, 1.5, cache.N))
            assert np.array_equal(op @ v, unblocked_product(op, v))

    def test_passes_continue_the_row_sum(self):
        # csr_matvec starts each row's sum from its value in y, so two
        # passes over the halves of each row add its terms in the order of
        # one pass over the whole row, bit for bit, from a zero or a
        # nonzero y.  A 2D product's passes rest on this: a scipy that
        # changes it fails here.  Terms spread over 16 decades, so an
        # order that differs shows
        rng = np.random.default_rng(8)
        rows, width, m = 500, 6, 40
        data = (rng.uniform(0.5, 1.5, (rows, width))
                * 10.0 ** rng.integers(-8, 9, (rows, width)))
        cols = rng.integers(0, m, (rows, width), dtype=np.int32)
        c = rng.uniform(0.5, 1.5, m)

        def passes(y, *parts):
            for part in parts:
                w = part.stop - part.start
                assembly._sparsetools.csr_matvec(
                    rows, m, np.arange(0, rows * w + 1, w, dtype=np.int32),
                    cols[:, part].ravel(), data[:, part].ravel(), c, y)
            return y.tobytes()

        whole, first, second = slice(0, 6), slice(0, 3), slice(3, 6)
        for y in (np.zeros(rows), rng.uniform(0.5, 1.5, rows)):
            want = passes(y.copy(), whole)
            assert passes(y.copy(), first, second) == want
            assert passes(y.copy(), second, first) != want

    @pytest.mark.parametrize("text,d", [("primes<50", 1), (SET_2D, 2)])
    def test_kernel_is_scipys_product(self, text, d):
        # the private kernel the product calls, on the whole arrays of G's
        # plain rows, is `G @ c` bit for bit: a scipy that moves or changes
        # it fails here
        cache = OperatorCache(parse_alphabet(text), make_geometry(d, 30, 2))
        op = cache.matrix(1.0)
        c = op.coefficients(cache.symmetric(
            np.random.default_rng(3).uniform(0.5, 1.5, cache.N)))
        G, y = plain_rows(op.G, op.W1s), np.zeros(op.G.shape[0])
        assembly._sparsetools.csr_matvec(*G.shape, G.indptr, G.indices,
                                         G.data, c, y)
        assert np.array_equal(y, as_scipy(G) @ c)

    @pytest.mark.parametrize("text,J", [MERGED, ("1..100", 200)])
    def test_scatter_kernel_is_scipys_product(self, text, J):
        # the private kernel a merged cache forms its values with, on the
        # whole stacked P of slot labels, is `P.T @ w` (a CSC product) bit
        # for bit: a scipy that moves or changes it fails here
        P = merged_cache(text, J)._Gs
        w = np.random.default_rng(4).uniform(0.5, 1.5, P.shape[0])
        y = np.zeros(P.shape[1])
        assembly._sparsetools.csc_matvec(P.shape[1], P.shape[0], P.indptr,
                                         P.indices, P.data, w, y)
        assert np.array_equal(y, as_scipy(P).T @ w)


class TestCSRKernels:
    """csr_apply, which calls the csr_matvec (1D u) and csr_matvecs (2D u)
    that assembly loads from scipy's file, is scipy's own `A @ u` bit for
    bit, on each kind of CSR the package holds: a coefficient map W1
    (n = 2, 4) and the plain rows of a folded 2D cache's Gs."""

    @pytest.fixture(params=["W1-n2", "W1-n4", "Gs-folded-2d"])
    def A(self, request):
        if request.param == "Gs-folded-2d":
            cache = OperatorCache(parse_alphabet(SET_2D),
                                  make_geometry(2, 20, 2))
            assert cache.kept < cache.N
            return plain_rows(cache._Gs, cache._W1s)
        return coefficient_map(make_geometry(1, 40, int(request.param[-1]))
                               .axes[0])

    def test_csr_apply_is_scipys_product(self, A):
        rng = np.random.default_rng(7)
        m = A.shape[1]
        for u in (rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, (m, 3)),
                  rng.uniform(0.5, 1.5, (3, m)).swapaxes(0, 1)):
            got, want = assembly.csr_apply(A, u), as_scipy(A) @ u
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_missing_kernel_file_is_named(self, monkeypatch):
        monkeypatch.setattr(assembly.importlib.machinery.PathFinder,
                            "find_spec", lambda name, path: None)
        with pytest.raises(ImportError, match="_sparsetools is not in .*sparse"):
            assembly._load_sparsetools()


class TestProductMemory:
    """A product forms no (point, letter)-sized vector: above what is held
    before it, its peak is the coefficients and the output (two sample
    vectors) and at most one product block of temporaries beside them."""

    @pytest.mark.parametrize("text,d,J", [
        ("primes<3000", 1, 3000), (SET_2D, 2, 500), ("(1,0),(2,1)", 2, 250)],
        ids=["certify-1d-primes", "certify-2d", "unfolded-2d"])
    def test_peak_is_two_vectors_and_one_block(self, text, d, J):
        # tracemalloc sees numpy's buffers
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, 2)
        cache = OperatorCache(alphabet, grid)
        op = cache.matrix(1.1)
        v = cache.symmetric(np.random.default_rng(J).uniform(0.5, 1.5,
                                                             cache.N))
        op @ v  # warm-up
        tracemalloc.start()
        try:
            retained = tracemalloc.get_traced_memory()[0]
            op @ v
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        E = len(alphabet.letters)
        block = 8 * E * product_points(E, cache.kept)
        assert peak - retained <= block + 2 * 8 * cache.N


CORE_COUNTS = (1, 2, 3)  # 3 deals the blocks unevenly


class TestCores:
    """Every pass over blocks of whole points deals its blocks to one
    thread per core (assembly._on_cores, assembly.CORES of them), each
    computed by the same kernel calls as on one thread: at any core count
    every result is bit for bit the serial one, the first failing block's
    error is the one raised, and no thread outlives a call."""

    @staticmethod
    def at_cores(monkeypatch, fn):
        """fn() at each of CORE_COUNTS, its results as bytes."""
        got = []
        for cores in CORE_COUNTS:
            monkeypatch.setattr(assembly, "CORES", cores)
            got.append([np.asarray(a).tobytes() for a in fn()])
        return got

    @pytest.mark.parametrize("text,d,J,n", [
        ("1..100", 1, 1600, 2), ("1,2", 1, 64, 4), (SET_2D, 2, 25, 2),
        ("(1,0),(2,1)", 2, 25, 2)],
        ids=["1d-n2", "1d-n4", "folded-2d", "unfolded-2d"])
    @pytest.mark.parametrize("block", ["one-point", "ragged"])
    def test_products_and_coefficients(self, text, d, J, n, block,
                                       monkeypatch):
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, n)
        E = len(alphabet.letters)
        monkeypatch.setattr(assembly, "PRODUCT_ROWS",
                            1 if block == "one-point" else 13 * E + 1)
        v = np.random.default_rng(J).uniform(0.5, 1.5, math.prod(
            grid.sample_shape))

        def products():
            cache = OperatorCache(alphabet, grid)
            assert cache._merged is None
            op, u = cache.matrix(1.1), cache.symmetric(v)
            threads = threading.active_count()
            y = op @ u
            assert threading.active_count() == threads
            assert np.array_equal(y, unblocked_product(op, u))
            return y, op.coefficients(u)

        one, *more = self.at_cores(monkeypatch, products)
        assert all(got == one for got in more)

    @pytest.mark.parametrize("block", ["one-point", "ragged"])
    def test_merged_probe_values(self, block, monkeypatch):
        E = len(parse_alphabet(MERGED[0]).letters)
        monkeypatch.setattr(assembly, "PRODUCT_ROWS",
                            1 if block == "one-point" else 13 * E + 1)

        def values():
            cache = merged_cache()
            got = [cache.evaluation_matrix(s) for s in (0.5, 0.9)]
            for s, value in zip((0.5, 0.9), got):
                assert np.array_equal(value, written_merged(cache, s))
            return got

        one, *more = self.at_cores(monkeypatch, values)
        assert all(got == one for got in more)

    @pytest.mark.parametrize("text,d,J", [
        ("1,2", 1, 64), ("1..100", 1, 1599), (SET_2D, 2, 40),
        ("(1,0),(2,1)", 2, 40)])
    @pytest.mark.parametrize("block", ["one-row", "ragged"])
    def test_built_structure(self, text, d, J, block, monkeypatch):
        # 1..100 at J = 1599 counts its slots on one thread and stays
        # stacked; the others deal their blocks to the cores
        alphabet, grid = parse_alphabet(text), make_geometry(d, J, 2)
        E = len(alphabet.letters)
        monkeypatch.setattr(assembly, "BLOCK_ROWS",
                            1 if block == "one-row" else 13 * E + 1)

        def built():
            cache = OperatorCache(alphabet, grid)
            G = cache._Gs
            return G.data, G.indices, G.indptr, cache._lg

        one, *more = self.at_cores(monkeypatch, built)
        assert all(got == one for got in more)

    @pytest.mark.parametrize("text,J", [(SET_2D, 4), ("(1,0),(2,1)", 2)])
    def test_padded_range_error_is_the_serial_one(self, text, J,
                                                  monkeypatch):
        # one point per block: SET_2D at J = 4 fails in blocks 0 (letter
        # (1,0)), 30 and 40 ((1,-1)), (1,0),(2,1) at J = 2 first in block 32
        alphabet, grid = parse_alphabet(text), make_geometry(2, J, 2)
        monkeypatch.setattr(assembly, "BLOCK_ROWS", 1)
        messages = []
        for cores in CORE_COUNTS:
            monkeypatch.setattr(assembly, "CORES", cores)
            threads = threading.active_count()
            with pytest.raises(assembly.PaddedRangeError) as err:
                OperatorCache(alphabet, grid)
            assert threading.active_count() == threads
            messages.append(str(err.value))
        assert messages == [messages[0]] * len(CORE_COUNTS)
        assert "letter (1, 0) " in messages[0]

    def test_more_threads_than_cores_switching_fast(self, monkeypatch):
        # six threads on one point each, switching every microsecond: a
        # lost or crossed write into the output or into a thread's row of
        # the buffer would show in the product
        monkeypatch.setattr(assembly, "PRODUCT_ROWS", 1)
        monkeypatch.setattr(assembly, "CORES", 6)
        cache = OperatorCache(parse_alphabet(SET_2D), make_geometry(2, 25, 2))
        op = cache.matrix(1.1)
        v = cache.symmetric(np.random.default_rng(9).uniform(0.5, 1.5,
                                                             cache.N))
        want = unblocked_product(op, v)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [op @ v for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(y, want) for y in got)

    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_lowest_failing_part_raises(self, cores, monkeypatch):
        monkeypatch.setattr(assembly, "CORES", cores)
        ran = {}

        def work(part, t):
            ran[part] = t, threading.get_ident()
            if part in (2, 4, 5):
                raise ValueError(part)

        threads = threading.active_count()
        with pytest.raises(ValueError) as err:
            assembly._on_cores(work, list(range(7)))
        assert err.value.args == (2,)
        assert threading.active_count() == threads
        # thread t of one per core runs parts t, t + cores, ... up to its
        # first failure; the caller's thread is thread 0
        assert ran[0] == (0, threading.get_ident())
        lanes = {t: [k for k in sorted(ran) if ran[k][0] == t]
                 for t in range(cores)}
        assert lanes == {t: [k for k in range(t, 7, cores)
                             if not any(f in (2, 4, 5)
                                        for f in range(t, k, cores))]
                         for t in range(cores)}
