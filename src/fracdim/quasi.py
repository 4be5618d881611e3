"""Midpoint quasi-interpolant: the exact weight table.

The degree-n weights (w_0..w_n) are the unique solution of

    sum_v w_v (v - j)^n = prod_{i=1..n} (i - j - 1/2),   j = 0..n,

which makes Q_k f = sum_v w_v f(xibar_{k+v}) reproduce polynomials of
degree <= n when paired with the spline expansion.  They are tabulated as
exact rationals and converted to floats once.
"""
from __future__ import annotations

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

    @property
    def q_norm_exact(self) -> Fraction:
        """||Q|| = sum |w_v|."""
        return sum(abs(w) for w in self.weights_exact)


def make_quasi_interpolant(n: int) -> QuasiInterpolant:
    if not 0 <= n <= 4:
        raise ValueError("degree must be in 0..4 (no weight table beyond 4)")
    table = _WEIGHT_TABLE[n]
    w = np.array([float(x) for x in table], dtype=np.float64)
    return QuasiInterpolant(n=n, weights_exact=table, weights=w)

