"""Midpoint quasi-interpolant: exact weights, their tensor products, and the
hidden-positivity mesh threshold.

The degree-n weights (w_0..w_n) are the unique solution of

    sum_v w_v (v - j)^n = prod_{i=1..n} (i - j - 1/2),   j = 0..n,

which makes Q_k f = sum_v w_v f(xibar_{k+v}) reproduce polynomials of
degree <= n when paired with the spline expansion.  They are tabulated as
exact rationals and converted to floats once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Array = np.ndarray

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

    @property
    def q_norm_exact(self) -> Fraction:
        return sum(abs(w) for w in self.weights_exact)


def make_quasi_interpolant(n: int) -> QuasiInterpolant:
    if not 0 <= n <= 4:
        raise ValueError("degree must be in 0..4 (no weight table beyond 4)")
    table = _WEIGHT_TABLE[n]
    w = np.array([float(x) for x in table], dtype=np.float64)
    return QuasiInterpolant(
        n=n,
        weights_exact=table,
        weights=w,
        q_norm=float(sum(abs(x) for x in table)),
    )


def tensor_weights(q: QuasiInterpolant, d: int) -> Array:
    """W_v = prod_j w_{v_j} as a d-dimensional array (axis order x, y, ...)."""
    W = q.weights
    for _ in range(d - 1):
        W = np.multiply.outer(W, q.weights)
    return W


def tensor_positive_weight_sum(q: QuasiInterpolant, d: int) -> float:
    W = tensor_weights(q, d)
    return float(W[W > 0].sum())


def positivity_threshold(q: QuasiInterpolant, d: int, M: float) -> float:
    """Largest h keeping Qf > 0 for every f in the log-Lipschitz cone K_M.

    The sufficient condition is exp(M h sqrt(d) n_eff) (1 - 1/S) < 1 with
    S the positive-weight sum of the (tensor) weights and n_eff = n for even
    degree, n+1 for odd.  All-positive weights (n <= 1) give +inf.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if min(q.weights_exact) >= 0:
        return math.inf
    S = tensor_positive_weight_sum(q, d)
    n_eff = q.n if q.n % 2 == 0 else q.n + 1
    return -math.log(1.0 - 1.0 / S) / (M * n_eff * math.sqrt(d))
