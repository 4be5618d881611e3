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
basis-value products, and log derivative norms per contribution) once per
mesh and rebuilds only the value array per s probe.  W is applied per axis
(never materialized as a tensor).
"""
from __future__ import annotations

import numpy as np
from scipy import sparse

from .bspline import KnotSequence, TensorGrid, locate_intervals, uniform_basis
from .maps import (Alphabet, log_dphi_norm_1d, log_dphi_norm_2d, phi_1d,
                   phi_2d)
from .quasi import QuasiInterpolant, make_quasi_interpolant

Array = np.ndarray


class TransferOperator:
    """L_h(s) = G W as a matrix-free linear operator on sample vectors.

    Supports `op @ v` and `.shape`; `.tocsr()` materializes the product for
    small problems (tests).
    """

    def __init__(self, G: sparse.csr_matrix, W1s: tuple[sparse.csr_matrix, ...]):
        self.G = G
        self.W1s = W1s
        self.d = len(W1s)
        N = 1
        for W1 in W1s:
            N *= W1.shape[1]
        self.shape = (N, N)

    def coefficients(self, v: Array) -> Array:
        """Quasi-interpolant coefficients of the splines, from samples."""
        if self.d == 1:
            return self.W1s[0] @ v
        W1x, W1y = self.W1s
        V = np.asarray(v).reshape(W1y.shape[1], W1x.shape[1])  # (iy, ix)
        return (W1y @ (W1x @ V.T).T).ravel()  # (cy, cx) -> cy*ncx + cx

    def __matmul__(self, v: Array) -> Array:
        return self.G @ self.coefficients(v)

    def tocsr(self) -> sparse.csr_matrix:
        if self.d == 1:
            W = self.W1s[0]
        else:
            W = sparse.kron(self.W1s[1], self.W1s[0], format="csr")
        G = self.G.copy()
        G.sum_duplicates()
        return (G @ W).tocsr()


class OperatorCache:
    """s-independent structure of G for one mesh/alphabet; cheap per-s rebuilds."""

    def __init__(self, alphabet: Alphabet, geometry,
                 q: QuasiInterpolant | None = None):
        if isinstance(geometry, KnotSequence):
            axes = (geometry,)
        elif isinstance(geometry, TensorGrid):
            axes = geometry.axes
        else:
            raise TypeError("geometry must be a KnotSequence or TensorGrid")
        d = len(axes)
        if d != alphabet.d:
            raise ValueError("alphabet / geometry dimension mismatch")
        self.alphabet = alphabet
        self.axes = axes
        self.d = d
        self.n = axes[0].n
        if self.n % 2 != 0 or self.n < 2:
            raise ValueError("collocation requires an even spline degree >= 2")
        self.q = q if q is not None else make_quasi_interpolant(self.n)
        if self.q.n != self.n:
            raise ValueError("quasi-interpolant degree must match the mesh degree")
        # collocation midpoints and splines per axis
        self.m1s = tuple(ks.num_intervals for ks in axes)
        self.ncs = tuple(ks.num_splines for ks in axes)
        self.N = int(np.prod(self.m1s))      # sample-space dimension
        self.Ncoef = int(np.prod(self.ncs))  # tensor splines
        self._W1s = tuple(self._build_W1(ax) for ax in range(d))
        self._build_G_structure()

    def _build_W1(self, ax: int) -> sparse.csr_matrix:
        """Per-axis coefficient map: row c applies the midpoint weights to
        samples c..c+n (the dual-functional window of spline c)."""
        n, m1, nc = self.n, self.m1s[ax], self.ncs[ax]
        c = np.arange(nc)
        rows = np.repeat(c, n + 1)
        cols = (c[:, None] + np.arange(n + 1)[None, :]).ravel()
        vals = np.tile(self.q.weights, nc)
        return sparse.csr_matrix((vals, (rows, cols)), shape=(nc, m1))

    def collocation_points(self) -> list[Array]:
        """Per-axis coordinates of the flattened sample index (x fastest)."""
        xs = [ks.midpoints for ks in self.axes]
        if self.d == 1:
            return xs
        X = np.tile(xs[0], self.m1s[1])
        Y = np.repeat(xs[1], self.m1s[0])
        return [X, Y]

    def _spline_window(self, e, ax: int, y: Array) -> tuple[Array, Array]:
        """Columns (len(y), n+1) and values of the splines that are nonzero
        at the mapped points y along one axis.  Every window must lie inside
        the spline range (mapped points inside the partition-of-unity
        region); a violation means the mesh is too coarse for its padding of
        n subintervals to cover the images, and is reported rather than
        silently dropped."""
        n = self.n
        ell, t = locate_intervals(self.axes[ax], y)
        # the splines nonzero on knot interval ell are ell-n .. ell
        cols = (ell - n)[:, None] + np.arange(n + 1)[None, :]
        if cols.min() < 0 or cols.max() >= self.ncs[ax]:
            raise ValueError(
                f"mapped points of letter {e} leave the padded spline range; "
                "refine the mesh (smaller h)")
        return cols, uniform_basis(t, n)

    def _letter_block(self, e) -> tuple[Array, Array, Array]:
        """Contributions of one letter at every collocation point.

        Returns (cols (N, K), base (N, K), lg (N,)) with K = (n+1)^d; base
        holds the s-independent spline products.
        """
        coords = self._coords
        if self.d == 1:
            cols, B = self._spline_window(e, 0, phi_1d(e, coords[0]))
            return cols, B, log_dphi_norm_1d(e, coords[0])
        p = np.stack(coords, axis=-1)
        img = phi_2d(e, p)
        cx, Bx = self._spline_window(e, 0, img[:, 0])
        cy, By = self._spline_window(e, 1, img[:, 1])
        K = (self.n + 1) ** 2
        N = self.N
        # tensor order (ry outer, rx inner) keeps columns ascending per row
        cols = (cy[:, :, None] * self.ncs[0] + cx[:, None, :]).reshape(N, K)
        base = (By[:, :, None] * Bx[:, None, :]).reshape(N, K)
        return cols, base, log_dphi_norm_2d(e, p)

    def _build_G_structure(self) -> None:
        self._coords = self.collocation_points()
        cols_parts, base_parts, lg_parts = [], [], []
        K = (self.n + 1) ** self.d
        for e in self.alphabet.letters:
            cols, base, lg = self._letter_block(e)
            cols_parts.append(cols.astype(np.int32))
            base_parts.append(base)
            lg_parts.append(np.repeat(lg[:, None], K, axis=1))
        # row-major concatenation across letters keeps contributions grouped
        # by collocation point, as CSR requires
        self._indices = np.concatenate(cols_parts, axis=1).ravel()
        self._base = np.concatenate(base_parts, axis=1).ravel()
        self._lg = np.concatenate(lg_parts, axis=1).ravel()
        del cols_parts, base_parts, lg_parts
        row_len = K * len(self.alphabet.letters)
        self._indptr = np.arange(self.N + 1, dtype=np.int64) * row_len
        self.nnz = int(self._indptr[-1])
        del self._coords

    # -- per-probe assembly -------------------------------------------------
    def evaluation_matrix(self, s: float) -> sparse.csr_matrix:
        """G(s): values of the weighted splines at the mapped points.
        Rows may hold duplicate column entries (one per letter); sparse
        matrix-vector products sum them."""
        data = self._base * np.exp(s * self._lg)
        return sparse.csr_matrix((data, self._indices, self._indptr),
                                 shape=(self.N, self.Ncoef))

    def matrix(self, s: float) -> TransferOperator:
        return TransferOperator(self.evaluation_matrix(s), self._W1s)
