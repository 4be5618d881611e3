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
(point, letter).  A 2D row's columns are its image's tensor window,
first + ry nsx + rx for the n+1 splines ry in y and rx in x (nsx x-splines
in all), so Gs keeps only the n+1 x-columns first + rx per row, and its
values pass-major: pass ry holds B_y[ry] B_x[rx] for rx = 0..n, the row's
entries at those columns shifted by ry nsx.  1D is the one-pass case, K =
n+1 columns and values per row.  The cache allocates Gs and lg first, then
fills them in blocks of points, all letters at once: per axis each image's
knot interval (the floor of its scaled coordinate, checked against its two
knots and corrected only where rounding put it one off: locate_intervals),
first spline column and n+1 basis values (basis_terms), then n+1 column
sums and per tensor index k one product (a copy in 1D), written straight
into their slices of Gs, with one block of temporaries beside them
(operator_footprint counts both).  A probe at s takes one exp per (point,
letter), w = exp(s lg).  Gs then takes one of two forms, fixed by the
build:

- Stacked rows.  A probe applies G(s) = sum_e diag(w_e) G_e without writing
  it: y_i = sum_e w[i, e] (Gs @ c)[i |E| + e].  A product forms Gs @ c one
  block of whole points at a time, in one buffer of the cache, one
  csr_matvec pass per pass of values over the shared columns and the
  coefficients from ry nsx on, and sums each block over its letters
  straight into the output (TransferOperator), so it holds no (point,
  letter)-sized vector.  A row sums a chain of K + |E| terms (K per
  letter, in the order of the plain K-column row, then |E| weighted
  letters).
- Merged rows.  On a 1D mesh a wide alphabet's letters crowd onto a few
  columns (the images 1/(p + x) of the large primes all lie near 0): at
  h = 1/3000 the 1,290 entries of a point of primes<3000 fall on at most
  99 distinct columns, its slots.  The build counts each point's slots
  from its first columns as it writes a block; a merged cache then labels
  each entry with its column's slot, a closed form in the same columns
  (relabel), and keeps the slots' columns Mind and the points' row
  pointers.  A probe sums each slot's weighted entries, in ascending
  letter order, into one merged value (scipy's csc_matvec over Gs, the
  weights formed a block at a time), and a product is one csr_matvec over
  the merged rows.  A row sums a chain of at most |E| + its row length
  terms: 430 + 99 there, and 430 + 133 at degree 4.

The rule: a 1D cache is merged exactly when its slots number at most
kept |E|, so the merged values never take more memory than the weights
they come from.  primes<3000 merges on every mesh of a solve, and 1..100
on the meshes of table5 up to J = 799; {1, 2} (a point's one window
already outnumbers its two letters), 1..100 from J = 1599 and every 2D mesh
stay stacked.

Every term of a row is the product of a base value, a weight and a
coefficient (two roundings), so its forward error is bounded by the chain
length (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 3.1), far inside FLOAT_SLACK.  W is applied per axis (never
materialized as a tensor), as W1 or its taps (coefficients_along).

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

A pass that runs in blocks of whole points deals its blocks to one thread
per core this process may use (_on_cores, os.sched_getaffinity), at most
one per block, the caller's thread among them: a stacked product (each
thread with its own slice of the cache's buffer, the mirror copy after the
join), the taps of W1 on the last axis of an array of at least one product
block, a merged probe (point i writes only its slots ptr_i .. ptr_i+1 - 1)
and a build that counts no slots (2D, or 1D with K > |E|; a counting
build measured slower on two threads and stays on one).  scipy's kernels and
numpy's large loops release the interpreter lock, and each block runs the
same kernel calls on the same operands as on one thread, so every value is
bit for bit the serial one; a pass of one block starts no thread, so a
solve's seed mesh starts none.  One core does not saturate the
memory bandwidth: on certify-2d's fine mesh (J = 500) two threads took a
product from 11.9 to 8.3 ms on a 2-core host (medians of 30).

Gs and each W1 are CSR tuples in scipy's storage (a 2D Gs with one row of
values per pass), and every product with one runs scipy's compiled kernels
(csr_matvec, csr_matvecs, and csc_matvec for a merged probe), which this
module loads from their file without importing scipy.sparse: that import
wakes numpy.f2py and numpy.testing through scipy's array-API layer and
takes longer than a small solve.

The geometry is a TensorGrid in every dimension (1D is its one-axis case),
so each step here is written once, as a loop over the axes.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from typing import NamedTuple

import numpy as np

from .bspline import KnotSequence, TensorGrid, basis_terms, locate_intervals
from .maps import Alphabet
from .quasi import make_quasi_interpolant

Array = np.ndarray

# (point, letter) rows per block of the structure build
BLOCK_ROWS = 2 ** 14
# (point, letter) rows per block of a product
PRODUCT_ROWS = 2 ** 16
# threads a pass over blocks may run on: the cores this process may use
CORES = len(os.sched_getaffinity(0))


class PaddedRangeError(ValueError):
    """Mapped points leave the padded spline range: the mesh is too coarse."""


def _load_sparsetools():
    """scipy's compiled CSR kernels (scipy.sparse._sparsetools), loaded
    from their file in scipy's package directory without importing
    scipy.sparse, and not registered in sys.modules: a later
    `import scipy.sparse` loads its own copy."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    where = os.path.join(root, "sparse")
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled _sparsetools is not in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension module under its bare name
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module


_sparsetools = _load_sparsetools()


class CSR(NamedTuple):
    """A compressed sparse row matrix in scipy's storage: row i holds the
    values data[indptr[i]:indptr[i+1]] at the columns indices[...]."""
    data: Array
    indices: Array
    indptr: Array
    shape: tuple[int, int]


def index_dtype(top: int) -> type:
    """The index dtype of a CSR whose largest column index or row pointer
    is at most top: int32 where it fits, as scipy keeps it."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def csr_apply(A: CSR, u: Array) -> Array:
    """A @ u for a dense 1D or 2D u, as scipy's csr_matrix computes it:
    a zeroed output, then csr_matvec (1D) or csr_matvecs (2D, one
    column per column of u) on u made C-contiguous."""
    u = np.ascontiguousarray(u)
    m, n = A.shape
    out = np.zeros((m,) + u.shape[1:], dtype=np.result_type(A.data, u))
    if u.ndim == 1:
        _sparsetools.csr_matvec(m, n, A.indptr, A.indices, A.data, u, out)
    else:
        _sparsetools.csr_matvecs(m, n, u.shape[1], A.indptr, A.indices,
                                 A.data, u.ravel(), out.ravel())
    return out


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


def product_points(letters: int, kept: int) -> int:
    """Points per block of a product: whole points, of at most PRODUCT_ROWS
    (point, letter) rows unless one point has more letters, and at most the
    kept points; where those make more than one block, a share of one per
    core, so that the blocks of all threads (lanes) hold no more."""
    step = min(kept, max(1, PRODUCT_ROWS // letters))
    return step if step == kept else -(-step // CORES)


def blocks_of(total: int, step: int) -> list[tuple[int, int]]:
    """The [lo, hi) blocks of `step` items, the last one shorter, that
    cover range(total)."""
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def lanes(blocks: int) -> int:
    """Threads a pass over this many blocks runs on (_on_cores): one per
    core, at most one per block."""
    return max(1, min(CORES, blocks))


def _on_cores(work, parts: list) -> None:
    """work(part, t) for every part in parts, on T = lanes(len(parts))
    threads, the caller's among them: thread t runs parts t, t + T, ... in
    turn, and a single part runs on the caller's thread alone.  Every
    thread is joined before this returns.  Where parts raised, the
    exception of the lowest-numbered one is raised again, the one a serial
    loop raises: the thread of that part ran its earlier ones without."""
    T = lanes(len(parts))
    failed = {}

    def lane(t):
        for k in range(t, len(parts), T):
            try:
                work(parts[k], t)
            except Exception as exc:
                failed[k] = exc
                return

    threads = [threading.Thread(target=lane, args=(t,)) for t in range(1, T)]
    for thread in threads:
        thread.start()
    try:
        lane(0)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]


def operator_footprint(alphabet: Alphabet, shape: tuple[int, ...],
                       n: int) -> dict:
    """Peak bytes of one mesh's operator in a solve, by part and in total,
    from its sample shape (y midpoints negating), the kept points
    (kept_points), |E| and K = (n+1)^d (rows_footprint)."""
    E = len(alphabet.letters)
    return rows_footprint(shape, n, E, kept_points(alphabet, shape))


def rows_footprint(shape: tuple[int, ...], n: int, letters: int,
                   kept: int) -> dict:
    """operator_footprint of `kept` points with `letters` rows each: the
    OperatorCache's stacked Gs (K values, n+1 columns or slots and a row
    pointer per row, in the index dtype of its last row pointer) and lg, a
    probe's weights or merged values (at most kept |E| doubles) and one
    product block (product_points |E| doubles) per thread of a product,
    six sample vectors of the power iteration, and one block of the build
    (at most 2K + 4(n+1) doubles per row) per thread of the build (lanes);
    on a 1D mesh that may merge (K <= |E|) also the merged rows' columns,
    at most kept |E|, and row pointers."""
    N = math.prod(shape)
    rows = kept * letters
    K = (n + 1) ** len(shape)
    idx = np.dtype(index_dtype(rows * (n + 1))).itemsize
    step, build = product_points(letters, kept), max(1, BLOCK_ROWS // letters)
    parts = {"Gs": rows * K * 8 + rows * (n + 1) * idx + (rows + 1) * idx,
             "lg": 8 * rows,
             "probe": 8 * rows + 8 * letters * step * lanes(-(-kept // step)),
             "vectors": 48 * N,
             "block": 8 * BLOCK_ROWS * (2 * K + 4 * (n + 1))
             * lanes(-(-kept // build))}
    if len(shape) == 1 and K <= letters:
        parts["merged"] = (rows + kept + 1) * idx
    return {**parts, "total": sum(parts.values())}


def coefficient_map(ks: KnotSequence) -> CSR:
    """Per-axis coefficient map W1: row c applies the degree-ks.n midpoint
    weights to samples c..c+n (the dual-functional window of spline c)."""
    n, nc = ks.n, ks.num_splines
    idx = index_dtype(nc * (n + 1))
    cols = np.arange(nc, dtype=idx)[:, None] + np.arange(n + 1, dtype=idx)
    return CSR(np.tile(make_quasi_interpolant(n).weights, nc), cols.ravel(),
               np.arange(0, cols.size + 1, n + 1, dtype=idx),
               (nc, ks.num_intervals))


def coefficients_along(W1: CSR, u: Array, a: int) -> Array:
    """W1 (a coefficient_map) along array axis a of u, 0 or the last:
    csr_apply on axis 0, else W1's taps on slices, w_0 u_0 + w_1 u_1 + ...,
    which is W1's row sum bit for bit and needs no copy of a strided view;
    an array of at least one product block (PRODUCT_ROWS values) deals its
    leading rows to the cores (_on_cores)."""
    if a == 0:
        return csr_apply(W1, u)
    # row c holds the taps of row 0 shifted by c, in W1's storage order
    nc, row0 = W1.shape[0], slice(0, W1.indptr[1])
    (w, j), *rest = zip(W1.data[row0], W1.indices[row0])
    c = np.empty(u.shape[:-1] + (nc,))

    def taps(span, t):
        part, out = u[span[0]:span[1]], c[span[0]:span[1]]
        np.multiply(w, part[..., j:j + nc], out=out)
        for wk, jk in rest:
            out += wk * part[..., jk:jk + nc]

    T = lanes(min(len(u), u.size // PRODUCT_ROWS))
    _on_cores(taps, blocks_of(len(u), -(-len(u) // T)))
    return c


class TransferOperator:
    """L_h(s) = G(s) W as a matrix-free linear operator on sample vectors.

    G is either the s-independent stacked Gs, whose (point, letter) rows
    the letter `weights` exp(s lg) sum into one row per point, or, with no
    `weights`, one merged row per point whose values already hold them
    (see OperatorCache).  A merged product is one csr_matvec over G.  A
    stacked one runs over blocks of whole points (product_points), dealt
    to the cores (_on_cores), each through its thread's row of the cache's
    `buffer`: zeroed, then one pass of scipy's compiled CSR kernel
    csr_matvec (the one csr_apply and scipy's own `G @ c` call) per row of
    G's values, the n+1 passes of a 2D G in turn, on views of that row's
    values and of G's n+1 columns per stacked row at the block's offset,
    with G's leading row pointers (every row holds n+1 columns, so they
    fit every block); pass ry reads c from ry nsx on, the splines ry rows
    further up in y.  Then the letter einsum sums the block into its slice
    of the output, which no other block writes.  csr_matvec starts each
    row's sum from its value in the buffer, so the passes add the row's K
    terms in the order of one pass over its K columns, and blocks take
    them in the order of the whole G @ c, which no product forms: a
    product is bit for bit the unblocked one over the plain K-column rows,
    and no block copies any part of G.
    Sample and coefficient vectors run with the first axis fastest.  When G
    covers fewer than all N points, it holds the kept tail of a folded
    cache (see kept_points): a product refuses a vector that is not exactly
    symmetric in y, computes the kept rows and mirrors them into the rest.
    Supports `op @ v` and `.shape`.
    """

    def __init__(self, G: CSR, W1s: tuple[CSR, ...],
                 weights: Array | None = None, buffer: Array | None = None):
        self.G = G
        self.W1s = W1s
        self.weights = weights
        self.buffer = buffer
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
        G, w = self.G, self.weights
        kept = G.shape[0] if w is None else len(w)
        r0 = N - kept  # the first kept row
        # folded: row iy of the sample grid mirrors row Ny - 1 - iy
        half = self._grid[0] // 2
        if r0:
            V = np.asarray(v).reshape(self._grid)
            if not np.array_equal(V[:half], V[::-1][:half]):
                raise ValueError("a folded operator takes only vectors "
                                 "symmetric in y")
        c = self.coefficients(v)
        if w is None:
            out = np.zeros(N)
            _sparsetools.csr_matvec(kept, G.shape[1], G.indptr, G.indices,
                                    G.data, c, out[r0:])
            return out
        out = np.empty(N)
        E = w.shape[1]
        width, step = int(G.indptr[1]), self.buffer.shape[1] // E
        # one row of values per pass; pass ry shifts the columns ry nsx up
        passes = G.data.reshape(-1, len(G.indices))
        nsx = self.W1s[0].shape[0]

        def block(span, t):
            lo, hi = span
            y = self.buffer[t, :(hi - lo) * E]
            y.fill(0.0)
            a, b = lo * E * width, hi * E * width  # the block's entries
            for ry, data in enumerate(passes):
                _sparsetools.csr_matvec(len(y), G.shape[1] - ry * nsx,
                                        G.indptr[:len(y) + 1],
                                        G.indices[a:b], data[a:b],
                                        c[ry * nsx:], y)
            np.einsum("ij,ij->i", y.reshape(hi - lo, E), w[lo:hi],
                      out=out[r0 + lo:r0 + hi])

        _on_cores(block, blocks_of(kept, step))
        if r0:
            Y = out.reshape(self._grid)
            Y[:half] = Y[::-1][:half]
        return out


def relabel(cols: Array, ptr: Array, Mind: Array) -> None:
    """Rewrites a block's 1D columns cols (m, |E|, K) in place as slot
    labels, point i's slots from ptr[i] (m + 1 row pointers, the last the
    next point's), and writes the slots' columns into Mind[ptr[0]:ptr[m]].

    Letter e maps x to 1/(e + x), which falls as e rises, so with the
    letters sorted each point's first columns do not increase with the
    letter, f_0 >= f_1 >= ... (the build checks this), and its distinct
    columns, ascending, are its slots.  Window j, f_j .. f_j + K - 1, adds
    n_j = min(f_{j-1} - f_j, K) columns below all earlier ones (n_0 = K)
    and leaves none out above f_j, so column f_j + r takes slot S_j + r,
    S_j = D - (n_0 + ... + n_j) of the point's D = n_0 + n_1 + ... slots.
    A label adds ptr[i], the point's first slot.  Mind[label], its column,
    is label + f_j - S_j - ptr[i] along window j's n_j new columns, an
    offset that moves only at a gap f_{j-1} - f_j over K.  Such gaps part
    the first letters, whose images lie far apart: past the block's last
    one, at window h, n_j = f_{j-1} - f_j and the offset stays window h's."""
    first, (m, _, K) = cols[..., 0], cols.shape
    gap = np.subtract(first[:, :-1], first[:, 1:])
    # the raw gaps: a gap of K keeps the offset, min(gap, K) hides that
    wide = np.flatnonzero(gap.max(axis=0) > K)
    h = int(wide[-1]) + 1 if len(wide) else 0
    lead = np.empty((m, h + 1), dtype=cols.dtype)  # n_0 .. n_h
    lead[:, 0] = K
    np.minimum(gap[:, :h], K, out=lead[:, 1:])
    cum = np.cumsum(lead, axis=1, dtype=cols.dtype)  # D - S_j, j <= h
    top = np.subtract(ptr[1:, None], cum)  # labels of windows 0 .. h
    shift = first[:, :h + 1] - top  # Mind[label] - label, window j
    # Mind in runs of consecutive columns, windows h (and after) .. 0
    runs = lead[:, ::-1].copy()
    runs[:, 0] += first[:, h] - first[:, -1]
    np.add(np.arange(ptr[0], ptr[-1], dtype=cols.dtype),
           np.repeat(shift[:, ::-1].ravel(), runs.ravel()),
           out=Mind[ptr[0]:ptr[-1]])
    labels = np.subtract(first, shift[:, -1:])
    labels[:, :h] = top[:, :h]
    for r in range(K):  # as _block writes them: one pass per window column
        np.add(labels, r, out=cols[..., r])


class OperatorCache:
    """s-independent structure of G for one mesh/alphabet; cheap per-s
    rebuilds.

    The spline degree is the geometry's: the per-axis coefficient maps W1
    take its quasi-interpolant weights (coefficient_map), once per cache.
    Gs and lg cover the last `kept` of the N collocation points: those with
    y >= 0 on a folded 2D mesh (kept_points), all N otherwise.  Products
    then take only vectors symmetric in y; `symmetric` makes one.  A 1D
    cache whose slots fit the rule is merged: Gs then holds slot labels
    where it held columns (relabel), and `_merged` the slots' columns Mind
    and the points' row pointers.  The product buffer holds one product
    block per thread of a product (lanes).
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
        E = len(alphabet.letters)
        step = product_points(E, self.kept)
        self._buffer = np.empty((lanes(-(-self.kept // step)), step * E))

    def _build_G_structure(self) -> None:
        """Gs and lg of the kept points, in blocks of about BLOCK_ROWS
        (point, letter) rows that cover every letter of their points, dealt
        to the cores (_on_cores).  A 1D point holds at least K slots, so
        only K <= |E| may merge: such a build counts each point's slots,
        K + sum_j min(f_{j-1} - f_j, K), from its first columns f_j as it
        writes a block, into the row pointers, and runs on one thread (it
        measured slower on two).  Where the exact total fits the rule, one
        more pass over the blocks relabels them (relabel)."""
        E, width = len(self.alphabet.letters), self.n + 1
        K = width ** self.geometry.d
        kept, r0 = self.kept, self.N - self.kept
        idx = index_dtype(kept * E * width)
        # rows of Gs run point-major, in the order of _lg; the values of
        # each pass (K // width of them) follow one another
        cols = np.empty((kept, E, width), dtype=idx)
        base = np.empty((K // width, kept, E, width))
        lg = np.empty((kept, E))
        mids = [ks.midpoints for ks in self.axes]
        spans = blocks_of(kept, max(1, BLOCK_ROWS // E))
        counting = self.geometry.d == 1 and K <= E
        ptr = np.zeros(kept + 1, dtype=idx) if counting else None
        rising = False  # some point's first columns rise: letters unsorted

        def fill(span, t):
            nonlocal rising
            lo, hi = span
            # flat sample index -> midpoint per axis, first axis fastest
            if len(mids) == 1:
                p = mids[0][r0 + lo:r0 + hi, None]
            else:
                at = np.unravel_index(np.arange(r0 + lo, r0 + hi),
                                      self.geometry.sample_shape)
                p = np.stack([m[i] for m, i in zip(mids, at[::-1])], axis=-1)
            img, _ = self.alphabet.maps(p, lg[lo:hi])
            self._block(img, cols[lo:hi], base[:, lo:hi])
            if counting:
                first = cols[lo:hi, :, 0]
                gap = np.subtract(first[:, :-1], first[:, 1:])
                rising |= bool(gap.min() < 0)
                np.add(np.minimum(gap, K, out=gap).sum(axis=1), K,
                       out=ptr[lo + 1:hi + 1])

        if counting:
            for span in spans:
                fill(span, 0)
        else:
            _on_cores(fill, spans)
        merged = counting and not rising and \
            int(np.cumsum(ptr, out=ptr)[-1]) <= kept * E
        if merged:
            Mind = np.empty(ptr[-1], dtype=idx)
            for lo, hi in spans:
                relabel(cols[lo:hi], ptr[lo:hi + 1], Mind)
        self._Gs = CSR(base.reshape(-1, cols.size) if K > width
                       else base.ravel(), cols.ravel(),
                       np.arange(0, cols.size + 1, width, dtype=idx),
                       (kept * E, len(Mind) if merged else self.Ncoef))
        self._merged = (Mind, ptr) if merged else None
        self._lg = lg
        self.nnz = base.size

    def _block(self, img: Array, cols: Array, base: Array) -> None:
        """Columns into cols (m, |E|, n+1) and values into base
        (K // (n+1), m, |E|, n+1), of the tensor splines nonzero at the
        images img (d, m, |E|): x-spline rx of the window at column
        first + rx, and the product of y-spline ry and x-spline rx at
        base[ry, ..., rx].  An image outside the partition of unity (mesh
        too coarse) raises PaddedRangeError."""
        n = self.n
        # fold the axes in, last axis outer (ry outer, rx inner keeps the
        # columns ascending); interval ell holds splines ell-n .. ell
        first, terms = None, []
        for ks, y in zip(self.axes[::-1], img[::-1]):
            lo, hi = ks.knots[n], ks.knots[ks.num_splines]
            if not (y.min() >= lo and y.max() < hi):
                e = self.alphabet.letters[((y >= lo) & (y < hi)).all(0).argmin()]
                raise PaddedRangeError(f"mapped points of letter {e} leave "
                                       "the padded spline range; refine the "
                                       "mesh (smaller h)")
            ell, t = locate_intervals(ks, y)
            col = np.subtract(ell, n, dtype=cols.dtype)
            if first is not None:
                col += first * ks.num_splines
            first = col
            terms.append(basis_terms(t, n))
        *outer, inner = terms  # d is 1 or 2: the y splines are outer
        for rx, Bx in enumerate(inner):
            np.add(first, rx, out=cols[..., rx])
            if outer:
                for ry, By in enumerate(outer[0]):
                    np.multiply(By, Bx, out=base[ry, ..., rx])
            else:
                base[0, ..., rx] = Bx

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
        buffer; on a merged cache the merged values instead: each slot's
        stacked entries times their weights, summed in ascending letter
        order by scipy's csc_matvec over Gs (its transpose's product with
        w), the weights formed a product block at a time in the cache's
        buffer, one row of it per thread (_on_cores)."""
        if self._merged is None:
            w = np.multiply(self._lg, s)
            return np.exp(w, out=w)
        P, E = self._Gs, self._lg.shape[1]
        K, step = int(P.indptr[1]), self._buffer.shape[1] // E
        values = np.zeros(P.shape[1])

        def block(span, t):
            # point i's entries fall on its own slots ptr_i .. ptr_i+1 - 1
            lo, hi = span
            w = self._buffer[t, :(hi - lo) * E]
            np.exp(np.multiply(self._lg[lo:hi].ravel(), s, out=w), out=w)
            a, b = lo * E * K, hi * E * K  # the block's entries
            _sparsetools.csc_matvec(P.shape[1], len(w), P.indptr[:len(w) + 1],
                                    P.indices[a:b], P.data[a:b], w, values)

        _on_cores(block, blocks_of(self.kept, step))
        return values

    def matrix(self, s: float) -> TransferOperator:
        """L_h(s): the shared stacked Gs weighted by exp(s lg), or the
        merged rows."""
        w = self.evaluation_matrix(s)
        if self._merged is None:
            return TransferOperator(self._Gs, self._W1s, w, self._buffer)
        Mind, ptr = self._merged
        return TransferOperator(CSR(w, Mind, ptr, (self.kept, self.Ncoef)),
                                self._W1s)
