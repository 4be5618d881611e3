"""Midpoint quasi-interpolant: the exact weight table, and the one rule on
which spline degrees exist.

The degree-n weights (w_0..w_n) are the unique solution of

    sum_v w_v (v - j)^n = prod_{i=1..n} (i - j - 1/2),   j = 0..n,

which makes Q_k f = sum_v w_v f(xibar_{k+v}) reproduce polynomials of
degree <= n when paired with the spline expansion.  They are tabulated as
exact rationals, for the degrees the method uses (collocation at interval
midpoints needs an even n >= 2), and converted to floats once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Array = np.ndarray

_WEIGHT_TABLE: dict[int, tuple[Fraction, ...]] = {
    2: (Fraction(-1, 8), Fraction(5, 4), Fraction(-1, 8)),
    4: (Fraction(47, 1152), Fraction(-107, 288), Fraction(319, 192),
        Fraction(-107, 288), Fraction(47, 1152)),
}


def check_degree(n: int) -> None:
    """The spline degrees the method has: the keys of the weight table."""
    if n not in _WEIGHT_TABLE:
        raise ValueError("collocation requires an even spline degree >= 2 "
                         f"with a weight table, 2 or 4, not {n}")


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
    check_degree(n)
    table = _WEIGHT_TABLE[n]
    w = np.array([float(x) for x in table], dtype=np.float64)
    return QuasiInterpolant(n=n, weights_exact=table, weights=w)
