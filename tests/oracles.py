"""Scalar reference code that the tests compare the solve path against.

Pointwise B-spline values by the Cox-de Boor recurrence, the quasi-interpolant
Qf evaluated from its spline coefficients, the maps phi_e and their
derivative norms ||Dphi_e||^s one letter at a time, the operator structure
built one letter at a time over the whole mesh (every collocation point,
with no use of the y -> -y symmetry that a folded OperatorCache exploits,
and with frozen copies of the first interval location, spline recurrence
and coefficient map, and the unblocked product),
the transfer operator applied from it and materialized as one sparse
matrix, probes run to convergence, and the 1D and 2D dimensions by
(tensor) Chebyshev collocation, independent of the package.  None of it
runs in a solve; it stays simple and slow on purpose.
"""
from __future__ import annotations

import itertools
from functools import lru_cache, reduce

import numpy as np
from scipy import sparse

from fracdim.assembly import (CSR, OperatorCache, TransferOperator,
                              coefficient_map)
from fracdim.bspline import KnotSequence, TensorGrid, locate_intervals, uniform_basis
from fracdim.maps import Alphabet
from fracdim.quasi import QuasiInterpolant, make_quasi_interpolant
from fracdim.spectral import (cone_membership, power_iteration, scaled_bracket,
                              spectral_bracket)

Array = np.ndarray


def as_scipy(A: CSR) -> sparse.csr_matrix:
    """The package's CSR tuple as scipy's csr_matrix, on the same arrays."""
    return sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def parameter_interval(ks: KnotSequence) -> tuple[float, float]:
    """The subinterval [xi_n, xi_{J+n}] where the splines sum to one."""
    return float(ks.knots[ks.n]), float(ks.knots[ks.n + ks.J])


def locate_interval(ks: KnotSequence, x: float) -> int:
    """Index l of the knot interval containing x: [xi_l, xi_{l+1}) half-open,
    the last interval closed."""
    knots = ks.knots
    if x < knots[0] or x > knots[-1]:
        raise ValueError(f"x={x} outside knot span [{knots[0]}, {knots[-1]}]")
    last = ks.num_intervals - 1
    ell = int(np.floor((x - knots[0]) / ks.h))
    ell = min(max(ell, 0), last)
    # repair floating-point rounding of the division
    if x < knots[ell]:
        ell -= 1
    elif ell < last and x >= knots[ell + 1]:
        ell += 1
    return ell


def _bspline_value(knots: Array, k: int, deg: int, x: float, last_closed: bool) -> float:
    if deg == 0:
        if knots[k] <= x < knots[k + 1]:
            return 1.0
        if last_closed and k == len(knots) - 2 and x == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    gamma = (x - knots[k]) / (knots[k + deg] - knots[k])
    if gamma != 0.0:
        left = gamma * _bspline_value(knots, k, deg - 1, x, last_closed)
    right = 0.0
    gamma_next = (x - knots[k + 1]) / (knots[k + 1 + deg] - knots[k + 1])
    if gamma_next != 1.0:
        right = (1.0 - gamma_next) * _bspline_value(knots, k + 1, deg - 1, x, last_closed)
    return left + right


def eval_bspline(ks: KnotSequence, k: int, x: float) -> float:
    """Value of the degree-n spline b_k at x (zero outside [xi_k, xi_{k+n+1}])."""
    if not 0 <= k < ks.num_splines:
        raise IndexError(f"spline index {k} out of range 0..{ks.num_splines - 1}")
    if x < ks.knots[0] or x > ks.knots[-1]:
        raise ValueError(f"x={x} outside knot span")
    return _bspline_value(ks.knots, k, ks.n, x, last_closed=True)


def eval_bspline_derivative(ks: KnotSequence, k: int, x: float) -> float:
    """Derivative of b_k at x via the alpha recurrence (degree n >= 1)."""
    n = ks.n
    if n == 0:
        raise ValueError("derivative undefined for degree-0 splines")
    if not 0 <= k < ks.num_splines:
        raise IndexError(f"spline index {k} out of range")
    if x < ks.knots[0] or x > ks.knots[-1]:
        raise ValueError(f"x={x} outside knot span")
    knots = ks.knots
    alpha_k = n / (knots[k + n] - knots[k])
    alpha_k1 = n / (knots[k + 1 + n] - knots[k + 1])
    return (alpha_k * _bspline_value(knots, k, n - 1, x, True)
            - alpha_k1 * _bspline_value(knots, k + 1, n - 1, x, True))


def local_basis(ks: KnotSequence, x: Array) -> tuple[Array, Array]:
    """Vectorized local evaluation at points x.

    Returns (ell, B) where ell[i] is the knot interval of x[i] and
    B[i, r] = b_{ell[i]-n+r}(x[i]) for r = 0..n (all other splines vanish).
    """
    ell, t = locate_intervals(ks, x)
    return ell, uniform_basis(t, ks.n)


def _local_basis_interior(ks: KnotSequence, xs: Array):
    """(ell, B) as in local_basis, but points at the right end of the
    parameter interval are attributed to the last interior interval (local
    coordinate 1) so the window ell-n..ell stays inside the basis."""
    ell, t = locate_intervals(ks, xs)
    over = ell > ks.n + ks.J - 1
    ell = np.where(over, ks.n + ks.J - 1, ell)
    t = np.where(over, (xs - ks.knots[ell]) / ks.h, t)
    return ell, uniform_basis(t, ks.n)


def eval_quasi_interpolant(q: QuasiInterpolant, grid: TensorGrid, samples,
                           x) -> Array:
    """Qf(x) = sum_{k ~ x} (Q_k f) b_k(x) on a TensorGrid of any dimension d.

    samples: f at every knot-interval midpoint, a (J+2n)^d array with axes
    x, y, ...  x: points in the parameter region, shape (m,) for d = 1 and
    (m, d) otherwise.  Returns the m values.
    """
    samples = np.asarray(samples, dtype=np.float64)
    pts = np.asarray(x, dtype=np.float64).reshape(-1, grid.d)
    # per-axis spline coefficients via successive 1D convolutions
    coeffs = samples
    for axis, ks in enumerate(grid.axes):
        moved = np.moveaxis(coeffs, axis, 0)
        acc = np.zeros((ks.num_splines,) + moved.shape[1:])
        for v in range(q.n + 1):
            acc += q.weights[v] * moved[v:v + ks.num_splines]
        coeffs = np.moveaxis(acc, 0, axis)
    ells, Bs = [], []
    for axis, ks in enumerate(grid.axes):
        lo, hi = parameter_interval(ks)
        xa = pts[:, axis]
        if np.any(xa < lo) or np.any(xa > hi):
            raise ValueError("evaluation point outside parameter region")
        ell, B = _local_basis_interior(ks, xa)
        ells.append(ell)
        Bs.append(B)
    n = grid.n
    out = np.zeros(pts.shape[0])
    for rs in itertools.product(range(n + 1), repeat=grid.d):
        basis = np.prod([B[:, r] for B, r in zip(Bs, rs)], axis=0)
        out += basis * coeffs[tuple(ell - n + r for ell, r in zip(ells, rs))]
    return out


def phi_1d(e, x):
    """1/(x+e); the letter (or array of letters) e broadcasts against x."""
    return 1.0 / (np.asarray(x, dtype=np.float64) + e)


def log_dphi_norm_1d(e, x):
    """log of the unit-exponent derivative norm: ||Dphi_e||^s = exp(s * this)."""
    return -2.0 * np.log(np.asarray(x, dtype=np.float64) + e)


def phi_2d(e, p):
    """Conformal inversion of the translated point; p has shape (..., 2) and
    the letter (2,) or letters (..., 2) broadcast against it."""
    p = np.asarray(p, dtype=np.float64)
    q = p + np.asarray(e, dtype=np.float64)
    return q / np.sum(q * q, axis=-1, keepdims=True)


def log_dphi_norm_2d(e, p):
    """log of the unit-exponent derivative norm: ||Dphi_e||^s = exp(s * this)."""
    p = np.asarray(p, dtype=np.float64)
    q = p + np.asarray(e, dtype=np.float64)
    return -np.log(np.sum(q * q, axis=-1))


def dphi_norm_1d(e: int, x, s: float):
    """||Dphi_e(x)||^s = (x+e)^{-2s}, evaluated directly."""
    return (np.asarray(x, dtype=np.float64) + e) ** (-2.0 * s)


def dphi_norm_2d(e: tuple[int, int], p, s: float):
    """||Dphi_e(p)||^s = |p+e|^{-2s}, evaluated directly."""
    p = np.asarray(p, dtype=np.float64)
    q = p + np.asarray(e, dtype=np.float64)
    return np.sum(q * q, axis=-1) ** (-s)


def zero_filled_intervals(ks: KnotSequence, x: Array) -> tuple[Array, Array]:
    """(ell, t) as fracdim.bspline.locate_intervals returns them, by the
    form it first had: two range tests, a floor of the scaled offset, one
    step down and one step up.  Frozen here so that the structure build is
    checked against code it does not share."""
    x = np.asarray(x, dtype=np.float64)
    knots = ks.knots
    if np.any(x < knots[0]) or np.any(x > knots[-1]):
        raise ValueError("points outside knot span")
    last = ks.num_intervals - 1
    ell = np.floor((x - knots[0]) / ks.h).astype(np.int64)
    np.clip(ell, 0, last, out=ell)
    ell -= (x < knots[ell])
    ell += (ell < last) & (x >= knots[ell + 1])
    return ell, (x - knots[ell]) / ks.h


def zero_filled_basis(t: Array, n: int) -> Array:
    """B[..., r] = b_{ell-n+r}(x) from the local coordinate t, by the
    recurrence accumulated into a zero-filled array per degree, as
    fracdim.bspline first computed it (frozen for the same reason)."""
    t = np.asarray(t, dtype=np.float64)
    B = np.ones(t.shape + (1,), dtype=np.float64)
    for p in range(1, n + 1):
        Bp = np.zeros(t.shape + (p + 1,), dtype=np.float64)
        for r in range(p + 1):
            if r > 0:
                Bp[..., r] += (t + (p - r)) / p * B[..., r - 1]
            if r < p:
                Bp[..., r] += (r + 1 - t) / p * B[..., r]
        B = Bp
    return B


def coo_coefficient_map(ks: KnotSequence) -> sparse.csr_matrix:
    """fracdim.assembly.coefficient_map as it was first built, from COO
    triplets (row, column, weight) converted to CSR (frozen for the same
    reason)."""
    n, nc = ks.n, ks.num_splines
    c = np.arange(nc)
    rows = np.repeat(c, n + 1)
    cols = (c[:, None] + np.arange(n + 1)[None, :]).ravel()
    vals = np.tile(make_quasi_interpolant(n).weights, nc)
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(nc, ks.num_intervals))


def letter_structure(alphabet: Alphabet, grid: TensorGrid):
    """The stacked structure of OperatorCache built one letter at a time
    over all N collocation points, with the same floating-point operations
    in the same order: (data, indices, indptr, lg) of Gs and its log
    derivative norms, rows point-major."""
    mids = [ks.midpoints for ks in reversed(grid.axes)]
    grids = np.meshgrid(*mids, indexing="ij")[::-1]
    p = np.stack([g.ravel() for g in grids], axis=-1)
    N, E, n = len(p), len(alphabet.letters), grid.n
    K = (n + 1) ** grid.d
    cols = np.empty((N, E, K), dtype=np.int64)
    base = np.empty((N, E, K))
    lg = np.empty((N, E))
    for j, e in enumerate(alphabet.letters):
        if alphabet.d == 1:
            img = phi_1d(e, p[:, 0])[:, None]
            lg[:, j] = log_dphi_norm_1d(e, p[:, 0])
        else:
            img, lg[:, j] = phi_2d(e, p), log_dphi_norm_2d(e, p)
        windows = []
        for k, ks in enumerate(grid.axes):
            ell, t = zero_filled_intervals(ks, img[:, k])
            c = (ell - n)[:, None] + np.arange(n + 1)[None, :]
            assert c.min() >= 0 and c.max() < ks.num_splines
            windows.append((c, zero_filled_basis(t, n)))
        c, b = windows[-1]
        for ks, (c1, B1) in zip(grid.axes[-2::-1], windows[-2::-1]):
            c = (c[:, :, None] * ks.num_splines + c1[:, None, :]).reshape(N, -1)
            b = (b[:, :, None] * B1[:, None, :]).reshape(N, -1)
        cols[:, j], base[:, j] = c, b
    return (base.ravel(), cols.ravel(), np.arange(N * E + 1) * K, lg)


def _full_weights(cache: OperatorCache, s: float):
    """letter_structure over every point of the cache's mesh, and its
    letter weights exp(s lg) formed as the cache forms them."""
    data, indices, indptr, lg = letter_structure(cache.alphabet,
                                                 cache.geometry)
    G = sparse.csr_matrix((data, indices, indptr),
                          shape=(len(indptr) - 1, cache.Ncoef))
    return G, np.exp(np.multiply(lg, s))


def full_product(cache: OperatorCache, s: float, v: Array) -> Array:
    """L_h(s) v at every collocation point, from letter_structure, with the
    floating-point operations of a product: the coefficients of v, Gs @ c,
    then each point's |E| rows summed with their letter weights."""
    G, w = _full_weights(cache, s)
    y = G @ cache.matrix(s).coefficients(v)
    return np.einsum("ij,ij->i", y.reshape(w.shape), w)


def unblocked_product(op: TransferOperator, v: Array) -> Array:
    """op @ v as one whole product: the kept rows' G @ c (scipy's fresh
    kept |E| vector), one einsum over the letters, and on a folded
    operator each kept row copied into its mirror row."""
    N, w = op.shape[0], op.weights
    r0 = N - len(w)
    y = as_scipy(op.G) @ op.coefficients(v)
    out = np.empty(N)
    np.einsum("ij,ij->i", y.reshape(w.shape), w, out=out[r0:])
    if r0:
        Y = out.reshape(-1, op.W1s[0].shape[1])
        half = len(Y) // 2
        Y[:half] = Y[::-1][:half]
    return out


def full_matrix(cache: OperatorCache, s: float) -> sparse.csr_matrix:
    """L_h(s) = G(s) W at every collocation point materialized as one
    sparse matrix, from letter_structure: the per-axis W1 maps
    Kronecker-multiplied (first axis innermost), the stacked (point,
    letter) rows weighted and summed per point."""
    G, w = _full_weights(cache, s)
    W = reduce(lambda inner, outer: sparse.kron(outer, inner, format="csr"),
               [as_scipy(coefficient_map(ks))
                for ks in cache.geometry.axes])
    N, E = w.shape
    rows = np.repeat(np.arange(N), E)
    G = sparse.csr_matrix((w.ravel(), (rows, np.arange(N * E))),
                          shape=(N, N * E)) @ G
    G.sum_duplicates()
    return (G @ W).tocsr()


def _chebyshev(nodes: int):
    """The first-kind Chebyshev points t on [-1, 1], and the function whose
    row k holds their Lagrange basis at u[k] in [-1, 1] (barycentric)."""
    angles = (2 * np.arange(nodes) + 1) * np.pi / (2 * nodes)
    t = np.cos(angles)
    bary = (-1.0) ** np.arange(nodes) * np.sin(angles)

    def lagrange(u):
        diff = u[:, None] - t[None, :]
        exact = diff == 0.0
        diff[exact] = 1.0
        c = bary / diff
        c /= c.sum(axis=1, keepdims=True)
        hit = exact.any(axis=1)
        c[hit] = exact[hit]
        return c

    return t, lagrange


def _secant_root(f, s0: float, s1: float) -> float:
    """The root of f by the secant method from s0 and s1."""
    f0, f1 = f(s0), f(s1)
    for _ in range(50):
        if f1 == f0:
            break
        s0, s1, f0 = s1, s1 - f1 * (s1 - s0) / (f1 - f0), f1
        f1 = f(s1)
        if abs(s1 - s0) <= 1e-16 * abs(s1):
            break
    return s1


def _log_lam(terms, s: float) -> float:
    """log of the spectral radius of sum_e exp(-s lr_e) ell_e, for the
    (lr_e, ell_e) of `terms`: a dense collocation matrix of L_s."""
    m = sum(np.exp(-s * lr)[:, None] * ell for lr, ell in terms)
    return float(np.log(np.abs(np.linalg.eigvals(m)).max()))


@lru_cache
def chebyshev_dimension_1d(letters: tuple, nodes: int = 24) -> float:
    """The dimension of a 1D alphabet by Chebyshev collocation of L_s on
    [0, 1], independent of the package: the sibling of
    chebyshev_dimension_2d.

    f is represented by its values at `nodes` first-kind Chebyshev points
    and evaluated at the images phi_e(x) = 1/(x + e) by barycentric
    interpolation, weighted by |phi_e'(x)|^s = (x + e)^(-2s).  L_s is
    analytic on [0, 1], so the error falls geometrically with `nodes`.
    letters: a tuple of integers (an Alphabet's letters); each result is
    kept.
    """
    t, lagrange = _chebyshev(nodes)
    x = (1 + t) / 2
    terms = [(2 * np.log(x + e), lagrange(2 / (x + e) - 1))
             for e in letters]
    return _secant_root(lambda s: _log_lam(terms, s), 0.5, 0.6)


@lru_cache
def chebyshev_dimension_2d(letters: tuple, nodes: int = 24) -> float:
    """The dimension of a 2D alphabet by tensor Chebyshev collocation of L_s
    on [0,1] x [-1/2,1/2], independent of the package.

    f is represented by its values at nodes^2 first-kind Chebyshev points
    and evaluated at the images phi_e(p) = (p + e)/|p + e|^2 by barycentric
    interpolation along each axis; lambda(s) is the largest eigenvalue of
    the dense collocation matrix, and the root of log lambda(s) = 0 comes
    from the secant method.  L_s is analytic on the square (e1 >= 1), so
    the error falls geometrically with `nodes`.  letters: a tuple of
    (e1, e2) pairs (an Alphabet's letters); each result is kept.
    """
    t, lagrange = _chebyshev(nodes)
    x, y = (1 + t) / 2, t / 2
    # points with x fastest: p = (x[i], y[j]) at index j * nodes + i
    px, py = np.tile(x, nodes), np.repeat(y, nodes)
    terms = []
    for e1, e2 in letters:
        qx, qy = px + e1, py + e2
        r2 = qx * qx + qy * qy
        Lx, Ly = lagrange(2 * qx / r2 - 1), lagrange(2 * qy / r2)
        # row p, column (b, a): Ly[p, b] Lx[p, a]
        terms.append((np.log(r2), (Ly[:, :, None] * Lx[:, None, :]
                                    ).reshape(len(px), -1)))
    return _secant_root(lambda s: _log_lam(terms, s), 1.0, 1.1)


class ConvergedProbes:
    """Probes at s run to convergence, warm-started from the last one as
    the solver's probes are: the reference that probes stopping at their
    decision must agree with.  Each record holds the converged lam, the
    Collatz-Wielandt bracket scaled by (1 -/+ err), and whether the final
    iterate lies in the cone K_M."""

    def __init__(self, cache: OperatorCache, M: float, err: float = 0.0):
        self.cache, self.M, self.err = cache, M, err
        self.records: dict[float, dict] = {}
        self._warm = None

    def __call__(self, s: float) -> dict:
        s = float(s)
        if s not in self.records:
            m = self.cache.matrix(s)
            res = power_iteration(m, start=self._warm)
            self._warm = res.w
            br = spectral_bracket(m, res.w, y=res.y)
            lam_lo, lam_hi = scaled_bracket(br.alpha, br.beta, self.err)
            member = cone_membership(res.w, self.cache.geometry, self.M).member
            self.records[s] = {"s": s, "lam": res.lam, "lam_lo": lam_lo,
                               "lam_hi": lam_hi, "converged": res.converged,
                               "member": member}
        return self.records[s]
