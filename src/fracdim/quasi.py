"""Midpoint quasi-interpolant: exact weights, the functionals Q_k, tensor
forms, Qf evaluation, and the hidden-positivity mesh threshold.

The degree-n weights (w_0..w_n) are the unique solution of

    sum_v w_v (v - j)^n = prod_{i=1..n} (i - j - 1/2),   j = 0..n,

which makes Q_k f = sum_v w_v f(xibar_{k+v}) reproduce polynomials of
degree <= n when paired with the spline expansion.  They are kept as exact
rationals and converted to floats once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bspline import (KnotSequence, TensorGrid, locate_intervals,
                      parameter_interval, uniform_basis)

Array = np.ndarray


def _local_basis_interior(ks: KnotSequence, xs: Array):
    """(ell, B) as in local_basis, but points at the right end of the
    parameter interval are attributed to the last interior interval (local
    coordinate 1) so the window ell-n..ell stays inside the basis."""
    ell, t = locate_intervals(ks, xs)
    over = ell > ks.n + ks.J - 1
    ell = np.where(over, ks.n + ks.J - 1, ell)
    t = np.where(over, (xs - ks.knots[ell]) / ks.h, t)
    return ell, uniform_basis(t, ks.n)


def _solve_weight_system(n: int) -> list[Fraction]:
    """Exact Gaussian elimination of the defining (n+1)x(n+1) system."""
    rows = []
    for j in range(n + 1):
        coeffs = [Fraction(v - j) ** n for v in range(n + 1)]
        rhs = Fraction(1)
        for i in range(1, n + 1):
            rhs *= Fraction(2 * (i - j) - 1, 2)
        rows.append(coeffs + [rhs])
    m = n + 1
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        pr = rows[col]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
    return [rows[r][m] / rows[r][r] for r in range(m)]


_WEIGHT_TABLE: dict[int, tuple[Fraction, ...]] = {
    0: (Fraction(1),),
    1: (Fraction(1, 2), Fraction(1, 2)),
    2: (Fraction(-1, 8), Fraction(5, 4), Fraction(-1, 8)),
    3: (Fraction(-7, 48), Fraction(31, 48), Fraction(31, 48), Fraction(-7, 48)),
    4: (Fraction(47, 1152), Fraction(-107, 288), Fraction(319, 192),
        Fraction(-107, 288), Fraction(47, 1152)),
}


@dataclass(frozen=True)
class QuasiInterpolant:
    n: int
    weights_exact: tuple[Fraction, ...]
    weights: Array           # float64 copy of weights_exact
    q_norm: float            # sum |w_v|
    positive_weight_sum: float  # sum over positive weights

    @property
    def q_norm_exact(self) -> Fraction:
        return sum(abs(w) for w in self.weights_exact)

    @property
    def positive_weight_sum_exact(self) -> Fraction:
        return sum(w for w in self.weights_exact if w > 0)


def make_quasi_interpolant(n: int) -> QuasiInterpolant:
    if not 0 <= n <= 4:
        raise ValueError("degree must be in 0..4 (no weight table beyond 4)")
    table = _WEIGHT_TABLE[n]
    solved = _solve_weight_system(n)
    for wt, ws in zip(table, solved):
        if wt != ws:
            raise AssertionError(f"weight table disagrees with defining system at n={n}")
    w = np.array([float(x) for x in table], dtype=np.float64)
    return QuasiInterpolant(
        n=n,
        weights_exact=table,
        weights=w,
        q_norm=float(sum(abs(x) for x in table)),
        positive_weight_sum=float(sum(x for x in table if x > 0)),
    )


def coefficient_1d(q: QuasiInterpolant, samples) -> float:
    """Q_k f from the n+1 midpoint samples f(xibar_k), ..., f(xibar_{k+n})."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (q.n + 1,):
        raise ValueError(f"expected {q.n + 1} samples, got {samples.shape}")
    return float(q.weights @ samples)


def tensor_weights(q: QuasiInterpolant, d: int) -> Array:
    """W_v = prod_j w_{v_j} as a d-dimensional array (axis order x, y, ...)."""
    W = q.weights
    for _ in range(d - 1):
        W = np.multiply.outer(W, q.weights)
    return W


def coefficient_tensor(q: QuasiInterpolant, grid: TensorGrid, block) -> float:
    """Tensor functional: sum_v W_v f over an (n+1)^d midpoint sample block.

    block axes ordered (x, y, ...) to match tensor_weights.
    """
    block = np.asarray(block, dtype=np.float64)
    expect = (q.n + 1,) * grid.d
    if block.shape != expect:
        raise ValueError(f"expected sample block of shape {expect}, got {block.shape}")
    return float(np.sum(tensor_weights(q, grid.d) * block))


def tensor_q_norm(q: QuasiInterpolant, d: int) -> float:
    return q.q_norm ** d


def tensor_positive_weight_sum(q: QuasiInterpolant, d: int) -> float:
    W = tensor_weights(q, d)
    return float(W[W > 0].sum())


def _coefficients_1d_all(q: QuasiInterpolant, ks: KnotSequence, samples: Array) -> Array:
    """Q_k f for every spline k = 0..J+n-1, from samples at all J+2n midpoints."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (ks.num_intervals,):
        raise ValueError("need one sample per knot interval midpoint")
    coeffs = np.zeros(ks.num_splines)
    for v in range(q.n + 1):
        coeffs += q.weights[v] * samples[v:v + ks.num_splines]
    return coeffs


def eval_quasi_interpolant(q: QuasiInterpolant, geometry, samples, x) -> Array:
    """Qf(x) = sum_{k ~ x} (Q_k f) b_k(x).

    geometry: KnotSequence or one-axis TensorGrid (1D, samples over all J+2n
    midpoints) or TensorGrid (samples as a (J+2n)^d array, axes x, y, ...).
    x: scalar/array (1D) or (..., d) points.  Points must lie in the
    parameter region.
    """
    if isinstance(geometry, TensorGrid) and geometry.d == 1:
        geometry, = geometry.axes
    if isinstance(geometry, KnotSequence):
        ks = geometry
        lo, hi = parameter_interval(ks)
        xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(xs < lo) or np.any(xs > hi):
            raise ValueError("evaluation point outside parameter interval")
        coeffs = _coefficients_1d_all(q, ks, samples)
        ell, B = _local_basis_interior(ks, xs)
        out = np.zeros_like(xs)
        for r in range(ks.n + 1):
            out += B[:, r] * coeffs[ell - ks.n + r]
        return out if np.ndim(x) else float(out[0])

    grid: TensorGrid = geometry
    samples = np.asarray(samples, dtype=np.float64)
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pts.shape[-1] != grid.d:
        raise ValueError("point dimension mismatch")
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
    out = np.zeros(pts.shape[0])
    n = grid.n
    if grid.d == 2:
        for rx in range(n + 1):
            for ry in range(n + 1):
                out += (Bs[0][:, rx] * Bs[1][:, ry]
                        * coeffs[ells[0] - n + rx, ells[1] - n + ry])
    else:
        raise NotImplementedError("d > 2 not supported")
    return out if np.asarray(x).ndim > 1 else float(out[0])


def positivity_threshold(q: QuasiInterpolant, d: int, M: float) -> float:
    """Largest h keeping Qf > 0 for every f in the log-Lipschitz cone K_M.

    The sufficient condition is exp(M h sqrt(d) n_eff) (1 - 1/S) < 1 with
    S the positive-weight sum of the (tensor) weights and n_eff = n for even
    degree, n+1 for odd.  All-positive weights (n <= 1) give +inf.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    S = tensor_positive_weight_sum(q, d)
    total = float(sum(tensor_weights(q, d).ravel()))
    if abs(S - total) < 1e-15:  # no negative weights
        return math.inf
    n_eff = q.n if q.n % 2 == 0 else q.n + 1
    return -math.log(1.0 - 1.0 / S) / (M * n_eff * math.sqrt(d))
