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
point lands inside that interval; the eigenvector then genuinely satisfies the log-Lipschitz cone
bounds that the certification lemma requires.  A mesh without that padding
is rejected.

Entries depend on s only through the factor ||Dphi_e(x)||^s, so an
OperatorCache precomputes all s-independent structure (CSR pattern of G,
basis-value products, and one log derivative norm per (point, letter)) once
per mesh and rebuilds only the value array per s probe, with one exp per
(point, letter).  W is applied per axis (never materialized as a tensor).

The geometry is a TensorGrid in every dimension (1D is its one-axis case),
so each step here is written once, as a loop over the axes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .bspline import KnotSequence, TensorGrid, locate_intervals, uniform_basis
from .maps import Alphabet
from .quasi import QuasiInterpolant, make_quasi_interpolant

Array = np.ndarray


class TransferOperator:
    """L_h(s) = G W as a matrix-free linear operator on sample vectors.

    Sample and coefficient vectors run with the first axis fastest.
    Supports `op @ v` and `.shape`.
    """

    def __init__(self, G: sparse.csr_matrix, W1s: tuple[sparse.csr_matrix, ...]):
        self.G = G
        self.W1s = W1s
        # sample grid as a C-order array: last axis outer, first axis fastest
        self._grid = tuple(W1.shape[1] for W1 in reversed(W1s))
        N = math.prod(self._grid)
        self.shape = (N, N)

    def coefficients(self, v: Array) -> Array:
        """Quasi-interpolant coefficients of the splines, from samples:
        each per-axis W1 applied along its own array axis."""
        c = np.asarray(v).reshape(self._grid)
        for k, W1 in enumerate(self.W1s):
            a = c.ndim - 1 - k
            c = (W1 @ c.swapaxes(0, a)).swapaxes(0, a)
        return c.ravel()

    def __matmul__(self, v: Array) -> Array:
        return self.G @ self.coefficients(v)


class OperatorCache:
    """s-independent structure of G for one mesh/alphabet; cheap per-s rebuilds."""

    def __init__(self, alphabet: Alphabet, geometry: TensorGrid,
                 q: QuasiInterpolant | None = None):
        if geometry.d != alphabet.d:
            raise ValueError("alphabet / geometry dimension mismatch")
        self.alphabet = alphabet
        self.geometry = geometry
        self.axes = geometry.axes
        self.n = geometry.n
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("collocation requires an even spline degree >= 2")
        self.q = q if q is not None else make_quasi_interpolant(self.n)
        if self.q.n != self.n:
            raise ValueError("quasi-interpolant degree must match the mesh degree")
        self.N = math.prod(geometry.sample_shape)  # samples
        self.Ncoef = math.prod(ax.num_splines for ax in self.axes)  # splines
        self._W1s = tuple(self._build_W1(ax) for ax in self.axes)
        self._build_G_structure()

    def _build_W1(self, ks: KnotSequence) -> sparse.csr_matrix:
        """Per-axis coefficient map: row c applies the midpoint weights to
        samples c..c+n (the dual-functional window of spline c)."""
        n, nc = self.n, ks.num_splines
        c = np.arange(nc)
        rows = np.repeat(c, n + 1)
        cols = (c[:, None] + np.arange(n + 1)[None, :]).ravel()
        vals = np.tile(self.q.weights, nc)
        return sparse.csr_matrix((vals, (rows, cols)),
                                 shape=(nc, ks.num_intervals))

    def collocation_points(self) -> Array:
        """(N, d) coordinates of the flattened sample index (first axis
        fastest)."""
        mids = [ks.midpoints for ks in reversed(self.axes)]
        grids = np.meshgrid(*mids, indexing="ij")[::-1]
        return np.stack([g.ravel() for g in grids], axis=-1)

    def _spline_window(self, e, ks: KnotSequence,
                       y: Array) -> tuple[Array, Array]:
        """Columns (len(y), n+1) and values of the splines of axis ks that
        are nonzero at the mapped coordinates y.  Every window must lie
        inside the spline range (mapped points inside the partition-of-unity
        region); a violation means the mesh is too coarse for its padding of
        n subintervals to cover the images, and is reported rather than
        silently dropped."""
        n = self.n
        ell, t = locate_intervals(ks, y)
        # the splines nonzero on knot interval ell are ell-n .. ell
        cols = (ell - n)[:, None] + np.arange(n + 1)[None, :]
        if cols.min() < 0 or cols.max() >= ks.num_splines:
            raise ValueError(
                f"mapped points of letter {e} leave the padded spline range; "
                "refine the mesh (smaller h)")
        return cols, uniform_basis(t, n)

    def _letter_block(self, e, p: Array) -> tuple[Array, Array, Array]:
        """Contributions of one letter at the collocation points p (N, d).

        Returns (cols (N, K), base (N, K), lg (N,)) with K = (n+1)^d; base
        holds the s-independent spline products.
        """
        img = self.alphabet.image(e, p)
        windows = [self._spline_window(e, ks, img[:, k])
                   for k, ks in enumerate(self.axes)]
        # fold the axes in, last axis outer: tensor order (ry outer, rx
        # inner) keeps columns ascending per row
        cols, base = windows[-1]
        for ks, (c, B) in zip(self.axes[-2::-1], windows[-2::-1]):
            cols = (cols[:, :, None] * ks.num_splines
                    + c[:, None, :]).reshape(self.N, -1)
            base = (base[:, :, None] * B[:, None, :]).reshape(self.N, -1)
        return cols, base, self.alphabet.log_dnorm(e, p)

    def _build_G_structure(self) -> None:
        p = self.collocation_points()
        cols_parts, base_parts, lg_parts = [], [], []
        K = (self.n + 1) ** self.geometry.d
        for e in self.alphabet.letters:
            cols, base, lg = self._letter_block(e, p)
            cols_parts.append(cols.astype(np.int32))
            base_parts.append(base)
            lg_parts.append(lg)
        # row-major concatenation across letters keeps contributions grouped
        # by collocation point, as CSR requires; _base viewed as (N |E|, K)
        # has one row per (point, letter), in the order of _lg
        self._indices = np.concatenate(cols_parts, axis=1).ravel()
        self._base = np.concatenate(base_parts, axis=1).reshape(-1, K)
        self._lg = np.stack(lg_parts, axis=1).ravel()
        del cols_parts, base_parts, lg_parts, p
        row_len = K * len(self.alphabet.letters)
        self._indptr = np.arange(self.N + 1, dtype=np.int64) * row_len
        self.nnz = int(self._indptr[-1])

    # -- per-probe assembly -------------------------------------------------
    def evaluation_matrix(self, s: float) -> sparse.csr_matrix:
        """G(s): values of the weighted splines at the mapped points.
        Rows may hold duplicate column entries (one per letter); sparse
        matrix-vector products sum them."""
        data = (self._base * np.exp(s * self._lg)[:, None]).ravel()
        return sparse.csr_matrix((data, self._indices, self._indptr),
                                 shape=(self.N, self.Ncoef))

    def matrix(self, s: float) -> TransferOperator:
        return TransferOperator(self.evaluation_matrix(s), self._W1s)
