"""Scalar reference code that the tests compare the solve path against.

Pointwise B-spline values by the Cox-de Boor recurrence, the quasi-interpolant
Qf evaluated from its spline coefficients, the derivative norms ||Dphi_e||^s
evaluated directly, and the transfer operator materialized as one sparse
matrix.  None of it runs in a solve; it stays simple and slow on purpose.
"""
from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
from scipy import sparse

from fracdim.assembly import TransferOperator
from fracdim.bspline import KnotSequence, TensorGrid, locate_intervals, uniform_basis
from fracdim.quasi import QuasiInterpolant

Array = np.ndarray


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


def dphi_norm_1d(e: int, x, s: float):
    """||Dphi_e(x)||^s = (x+e)^{-2s}, evaluated directly."""
    return (np.asarray(x, dtype=np.float64) + e) ** (-2.0 * s)


def dphi_norm_2d(e: tuple[int, int], p, s: float):
    """||Dphi_e(p)||^s = |p+e|^{-2s}, evaluated directly."""
    p = np.asarray(p, dtype=np.float64)
    q = p + np.asarray(e, dtype=np.float64)
    return np.sum(q * q, axis=-1) ** (-s)


def tocsr(op: TransferOperator) -> sparse.csr_matrix:
    """The TransferOperator G W materialized as one sparse matrix (the
    per-axis W1 maps Kronecker-multiplied, first axis innermost)."""
    W = reduce(lambda inner, outer: sparse.kron(outer, inner, format="csr"),
               op.W1s)
    G = op.G.copy()
    G.sum_duplicates()
    return (G @ W).tocsr()
