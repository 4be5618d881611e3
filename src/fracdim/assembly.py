"""Sparse collocation of the transfer operator.

The discrete operator acts on sample vectors v_i = f(x_i) at all J+2n knot
interval midpoints per axis (degree n even).  It factors as L_h = G(s) W,
where W maps the samples to the quasi-interpolant coefficients of all J+n
splines per axis (spline c's dual functional references midpoints c..c+n),
and G(s) evaluates

    sum_e ||Dphi_e(x_i)||^s  b_col(phi_e(x_i))

for each tensor spline.  Contraction maps are evaluated directly at the
exterior midpoints (they are well defined slightly outside the domain).  The
nonzero spectrum of G W equals that of the coefficient-space matrix W G, so
eigenvalue brackets transfer verbatim.

Keeping all J+n splines preserves partition of unity across the whole
parameter interval.  The mesh must be padded so every mapped collocation
point lands inside that interval; the eigenvector then genuinely satisfies
the log-Lipschitz cone bounds that the certification lemma requires.  A mesh
without that padding is rejected.

Entries depend on s only through the factor ||Dphi_e(x)||^s, so an
OperatorCache precomputes all s-independent structure once per mesh: the
stacked matrix Gs, with one row per (point, letter) holding that letter's
K = (n+1)^d basis-value products, and one log derivative norm lg per
(point, letter).  It allocates them first, then fills them in blocks of
points, all letters at once: per axis each image's knot interval (the floor
of its scaled coordinate, checked against its two knots and corrected only
where rounding put it one off: locate_intervals), first spline column and
n+1 basis values (basis_terms), then per tensor index k one product (a copy
in 1D) and one column sum written straight into their slices of Gs, with
one block of temporaries beside them (operator_footprint counts both).  A
probe at s takes one exp per (point, letter), w = exp(s lg), and applies
G(s) = sum_e diag(w_e) G_e without writing it: y_i = sum_e w[i, e]
(Gs @ c)[i |E| + e].

Every term of a row is the product of a base value, a weight and a
coefficient (two roundings), and a row sums a chain of K + |E| terms (K per
letter, then |E| weighted letters), e.g. 433 for the 430 letters of
primes<3000; its forward error is bounded accordingly (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 3.1).  W is applied per
axis (never materialized as a tensor), as W1 or its taps
(coefficients_along).

When a 2D alphabet is closed under (e1, e2) -> (e1, -e2) and the y
midpoints negate exactly (make_geometry's grids do), phi_(e1,-e2)(x, -y) is
the mirror image of phi_e(x, y) with the same derivative norm, so L(s)
commutes with the flip y -> -y.  The cache then builds Gs and lg only for
the points with y >= 0 (kept_points), one contiguous tail of the samples,
and a product computes those rows and copies each into its mirror row.  It
takes only vectors that are exactly symmetric in y (OperatorCache.symmetric
makes one), whose exact image is symmetric too: each mirrored row is the
kept row's value, which is within the rounding bound of its exact value.
Every vector stays full length, and any other alphabet keeps all rows
through the same code.

The geometry is a TensorGrid in every dimension (1D is its one-axis case),
so each step here is written once, as a loop over the axes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .bspline import KnotSequence, TensorGrid, basis_terms, locate_intervals
from .maps import Alphabet
from .quasi import make_quasi_interpolant

Array = np.ndarray

# (point, letter) rows per block of the structure build
BLOCK_ROWS = 2 ** 14


class PaddedRangeError(ValueError):
    """Mapped points leave the padded spline range: the mesh is too coarse."""


def index_dtype(nnz: int) -> type:
    """The index dtype scipy keeps for a CSR matrix with nnz entries."""
    return np.int32 if nnz <= np.iinfo(np.int32).max else np.int64


def kept_points(alphabet: Alphabet, shape: tuple[int, ...],
                y_symmetric: bool = True) -> int:
    """Collocation points, of a sample grid of this shape, whose rows an
    OperatorCache builds: the last ones, with y >= 0, when the 2D alphabet
    is closed under (e1, e2) -> (e1, -e2) and the y midpoints negate exactly
    (y_symmetric, as make_geometry makes them); all of them otherwise."""
    N = math.prod(shape)
    letters = set(alphabet.letters)
    if (alphabet.d != 2 or not y_symmetric
            or {(e1, -e2) for e1, e2 in letters} != letters):
        return N
    return (shape[0] - shape[0] // 2) * shape[1]


def operator_footprint(alphabet: Alphabet, shape: tuple[int, ...],
                       n: int) -> dict:
    """Peak bytes of one mesh's operator in a solve, by part and in total,
    from its sample shape (y midpoints negating), the kept points
    (kept_points), |E| and K = (n+1)^d: the OperatorCache's stacked Gs
    (values, columns, row pointers) and lg, a probe's weights and G @ c
    (kept |E| doubles each), six sample vectors of the power iteration, and
    one block of the build (at most 2K + 4(n+1) doubles per row)."""
    N = math.prod(shape)
    rows = kept_points(alphabet, shape) * len(alphabet.letters)
    K = (n + 1) ** len(shape)
    idx = np.dtype(index_dtype(rows * K)).itemsize
    parts = {"Gs": rows * K * (8 + idx) + (rows + 1) * idx, "lg": 8 * rows,
             "probe": 16 * rows, "vectors": 48 * N,
             "block": 8 * BLOCK_ROWS * (2 * K + 4 * (n + 1))}
    return {**parts, "total": sum(parts.values())}


def coefficient_map(ks: KnotSequence) -> sparse.csr_matrix:
    """Per-axis coefficient map W1: row c applies the degree-ks.n midpoint
    weights to samples c..c+n (the dual-functional window of spline c)."""
    n, nc = ks.n, ks.num_splines
    cols = np.arange(nc)[:, None] + np.arange(n + 1)  # scipy keeps int32
    return sparse.csr_matrix(
        (np.tile(make_quasi_interpolant(n).weights, nc), cols.ravel(),
         np.arange(0, cols.size + 1, n + 1)), shape=(nc, ks.num_intervals))


def coefficients_along(W1: sparse.csr_matrix, u: Array, a: int) -> Array:
    """W1 (a coefficient_map) along array axis a of u, 0 or the last: W1 @ u
    on axis 0, else W1's taps on slices, w_0 u_0 + w_1 u_1 + ..., which is
    W1's row sum bit for bit and needs no copy of a strided view."""
    if a == 0:
        return W1 @ u
    # row c holds the taps of row 0 shifted by c, in W1's storage order
    nc, row0 = W1.shape[0], slice(0, W1.indptr[1])
    (w, j), *rest = zip(W1.data[row0], W1.indices[row0])
    c = w * u[..., j:j + nc]
    for w, j in rest:
        c += w * u[..., j:j + nc]
    return c


class TransferOperator:
    """L_h(s) = G(s) W as a matrix-free linear operator on sample vectors.

    G is the s-independent stacked Gs, whose (point, letter) rows the
    letter `weights` exp(s lg) sum into one row per point.  Sample and
    coefficient vectors run with the first axis fastest.  When `weights`
    covers fewer than all N points, G holds the kept tail of a folded
    cache (see kept_points): a product refuses a vector that is not
    exactly symmetric in y, computes the kept rows and mirrors them into
    the rest.  Supports `op @ v` and `.shape`.
    """

    def __init__(self, G: sparse.csr_matrix, W1s: tuple[sparse.csr_matrix, ...],
                 weights: Array):
        self.G = G
        self.W1s = W1s
        self.weights = weights
        # sample grid as a C-order array: last axis outer, first axis fastest
        self._grid = tuple(W1.shape[1] for W1 in reversed(W1s))
        N = math.prod(self._grid)
        self.shape = (N, N)

    def coefficients(self, v: Array) -> Array:
        """Quasi-interpolant coefficients of the splines, from samples:
        each per-axis W1 applied along its own array axis
        (coefficients_along), innermost first."""
        c = np.asarray(v).reshape(self._grid)
        for k, W1 in enumerate(self.W1s):
            c = coefficients_along(W1, c, c.ndim - 1 - k)
        return c.ravel()

    def __matmul__(self, v: Array) -> Array:
        N = self.shape[0]
        r0 = N - len(self.weights)  # the first kept row
        # folded: row iy of the sample grid mirrors row Ny - 1 - iy
        half = self._grid[0] // 2
        if r0:
            V = np.asarray(v).reshape(self._grid)
            if not np.array_equal(V[:half], V[::-1][:half]):
                raise ValueError("a folded operator takes only vectors "
                                 "symmetric in y")
        y = self.G @ self.coefficients(v)
        out = np.empty(N)
        np.einsum("ij,ij->i", y.reshape(self.weights.shape), self.weights,
                  out=out[r0:])
        if r0:
            Y = out.reshape(self._grid)
            Y[:half] = Y[::-1][:half]
        return out


class OperatorCache:
    """s-independent structure of G for one mesh/alphabet; cheap per-s
    rebuilds.

    The spline degree is the geometry's: the per-axis coefficient maps W1
    take its quasi-interpolant weights (coefficient_map), once per cache.
    Gs and lg cover the last `kept` of the N collocation points: those with
    y >= 0 on a folded 2D mesh (kept_points), all N otherwise.  Products
    then take only vectors symmetric in y; `symmetric` makes one.
    """

    def __init__(self, alphabet: Alphabet, geometry: TensorGrid):
        if geometry.d != alphabet.d:
            raise ValueError("alphabet / geometry dimension mismatch")
        self.alphabet = alphabet
        self.geometry = geometry
        self.axes = geometry.axes
        self.n = geometry.n
        self.N = math.prod(geometry.sample_shape)  # samples
        self.Ncoef = math.prod(ax.num_splines for ax in self.axes)  # splines
        y = self.axes[-1].midpoints
        self.kept = kept_points(alphabet, geometry.sample_shape,
                                np.array_equal(y, -y[::-1]))
        self._W1s = tuple(coefficient_map(ax) for ax in self.axes)
        self._build_G_structure()

    def _build_G_structure(self) -> None:
        """Gs and lg of the kept points, in blocks of about BLOCK_ROWS
        (point, letter) rows that cover every letter of their points."""
        E = len(self.alphabet.letters)
        K = (self.n + 1) ** self.geometry.d
        kept, r0 = self.kept, self.N - self.kept
        idx = index_dtype(kept * E * K)
        # rows of Gs run point-major, in the order of _lg
        cols = np.empty((kept, E, K), dtype=idx)
        base = np.empty((kept, E, K))
        lg = np.empty((kept, E))
        mids = [ks.midpoints for ks in self.axes]
        step = max(1, BLOCK_ROWS // E)
        for lo in range(0, kept, step):
            hi = min(lo + step, kept)
            # flat sample index -> midpoint per axis, first axis fastest
            at = np.unravel_index(np.arange(r0 + lo, r0 + hi),
                                  self.geometry.sample_shape)
            p = np.stack([m[i] for m, i in zip(mids, at[::-1])], axis=-1)
            img, lg[lo:hi] = self.alphabet.maps(p)
            self._block(img, cols[lo:hi], base[lo:hi])
        self._Gs = sparse.csr_matrix(
            (base.ravel(), cols.ravel(),
             np.arange(0, kept * E * K + 1, K, dtype=idx)),
            shape=(kept * E, self.Ncoef))
        self._lg = lg
        self.nnz = self._Gs.nnz

    def _block(self, img: Array, cols: Array, base: Array) -> None:
        """Columns and values, into cols and base (m, |E|, K), of the tensor
        splines nonzero at the images img (d, m, |E|).  An image outside the
        partition of unity (mesh too coarse) raises PaddedRangeError."""
        n = self.n
        # fold the axes in, last axis outer (ry outer, rx inner keeps the
        # columns ascending); interval ell holds splines ell-n .. ell
        first, terms = 0, []
        for ks, y in zip(self.axes[::-1], img[::-1]):
            lo, hi = ks.knots[n], ks.knots[ks.num_splines]
            if not (y.min() >= lo and y.max() < hi):
                e = self.alphabet.letters[((y >= lo) & (y < hi)).all(0).argmin()]
                raise PaddedRangeError(f"mapped points of letter {e} leave "
                                       "the padded spline range; refine the "
                                       "mesh (smaller h)")
            ell, t = locate_intervals(ks, y)
            first = (first * ks.num_splines
                     + np.subtract(ell, n, dtype=cols.dtype))
            terms.append(basis_terms(t, n))
        # tensor index k runs over (r per axis), outer axis slowest
        shape = [ks.num_splines for ks in self.axes[::-1]]
        for k, rs in enumerate(np.ndindex(*(n + 1,) * len(terms))):
            values = [B[r] for B, r in zip(terms, rs)]
            if len(values) == 2:  # d is 1 or 2
                np.multiply(*values, out=base[..., k])
            else:
                base[..., k] = values[0]
            np.add(first, int(np.ravel_multi_index(rs, shape)),
                   out=cols[..., k])

    def symmetric(self, v: Array) -> Array:
        """(v + v flipped in y) / 2 on a folded cache, exactly symmetric
        (a + b == b + a) and positive where v is; v itself otherwise."""
        if self.kept == self.N:
            return v
        V = np.asarray(v).reshape(self.geometry.sample_shape)
        return (0.5 * (V + V[::-1])).ravel()

    # -- per-probe assembly -------------------------------------------------
    def evaluation_matrix(self, s: float) -> Array:
        """The (kept, |E|) letter weights exp(s lg) that turn the shared
        stacked Gs into G(s) = sum_e diag(w[:, e]) G_e, formed in one
        buffer."""
        w = np.multiply(self._lg, s)
        return np.exp(w, out=w)

    def matrix(self, s: float) -> TransferOperator:
        """L_h(s): the shared stacked Gs weighted by exp(s lg)."""
        return TransferOperator(self._Gs, self._W1s, self.evaluation_matrix(s))
