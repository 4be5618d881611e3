"""Uniform knot sequences, the local B-spline basis on them, and the
tensor-product mesh geometry.

The knot vector is xi_j = domain_lo + (j - n)*h, j = 0..J+2n, so that the
parameter interval [xi_n, xi_{J+n}] equals [domain_lo, domain_hi] exactly.
On a domain symmetric about 0 it is xi_j = (2(j - n) - J)/(2J) (domain_hi -
domain_lo) instead: the numerators are exact integers that negate, so the
knots, and the midpoints formed from them, negate exactly.
A point is located in a half-open knot interval [xi_l, xi_{l+1}) (the very
last interval of the span closed), and the n+1 splines that do not vanish
there are evaluated from its local coordinate (x - xi_l)/h.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class KnotSequence:
    """Uniform knot vector for degree-n splines over [domain_lo, domain_hi]."""

    n: int
    J: int
    domain_lo: float
    domain_hi: float
    h: float
    knots: Array  # xi_0 .. xi_{J+2n}, strictly increasing, spacing h

    @property
    def num_splines(self) -> int:
        """Number of degree-n splines on this knot vector."""
        return len(self.knots) - self.n - 1  # == J + n

    @property
    def num_intervals(self) -> int:
        return len(self.knots) - 1  # == J + 2n

    @property
    def midpoints(self) -> Array:
        """Midpoints of every knot interval (interior and expanded)."""
        return 0.5 * (self.knots[:-1] + self.knots[1:])


def make_uniform_knots(domain_lo: float, domain_hi: float, J: int, n: int) -> KnotSequence:
    if not domain_hi > domain_lo:
        raise ValueError("domain_hi must exceed domain_lo")
    if J < 1:
        raise ValueError("J must be a positive integer")
    if n < 0:
        raise ValueError(f"degree must be >= 0, not {n}")
    h = (domain_hi - domain_lo) / J
    # one multiplication per knot; no cumulative summation drift
    j = np.arange(J + 2 * n + 1, dtype=np.float64)
    if domain_lo == -domain_hi:
        knots = (2.0 * (j - n) - J) / (2 * J) * (domain_hi - domain_lo)
    else:
        knots = domain_lo + (j - n) * h
    return KnotSequence(n=n, J=J, domain_lo=float(domain_lo),
                        domain_hi=float(domain_hi), h=h, knots=knots)


def locate_intervals(ks: KnotSequence, x: Array) -> tuple[Array, Array]:
    """Vectorized interval location: returns (ell, t) with ell the knot
    interval of each point (the floor of (x - xi_0)/h capped at the closed
    last interval, checked against its two knots and stepped down, then up,
    only where rounding put it one off) and t = (x - xi_ell)/h."""
    x = np.asarray(x, dtype=np.float64)
    knots = ks.knots
    lo, hi = knots[0], knots[-1]
    if not (x.min(initial=lo) >= lo and x.max(initial=hi) <= hi):  # or NaN
        raise ValueError("points outside knot span")
    last = ks.num_intervals - 1
    u = x - lo
    u /= ks.h
    ell = np.floor(u, out=u).astype(np.int64)
    np.minimum(ell, last, out=ell)  # x >= xi_0 floors to ell >= 0
    left = knots[ell]
    bad = (x < left) | (x >= np.append(knots[1:-1], np.inf)[ell])
    if bad.any():
        i = bad.nonzero()
        e = ell[i] - (x[i] < left[i])
        e += (e < last) & (x[i] >= knots[e + 1])
        ell[i], left[i] = e, knots[e]
    return ell, np.divide(np.subtract(x, left, out=left), ks.h, out=left)


def basis_terms(t: Array, n: int) -> list[Array]:
    """Nonzero degree-n spline values on a uniform mesh, from the local
    coordinate t = (x - xi_ell)/h in [0, 1), as n+1 separate arrays: term r
    holds b_{ell-n+r}(x).  Term r of degree p is (t + p - r)/p times term
    r-1 plus (r + 1 - t)/p times term r of degree p-1, rounded as when both
    are added to a zero-filled array: adding to 0.0, degree 1's skipped
    + 0, / 1 and * 1, and * 2**-k in place of / 2**k are all exact."""
    def part(num, p, b):  # num / p * b, in num's buffer
        op, q = (np.divide, p) if p & (p - 1) else (np.multiply, 1.0 / p)
        return np.multiply(op(num, q, out=num), b, out=num)

    t = np.asarray(t, dtype=np.float64)
    B = [1.0 - t, t] if n else [np.ones_like(t)]
    for p in range(2, n + 1):
        up = [part(t + (p - r), p, B[r - 1]) for r in range(1, p + 1)]
        down = [part(r + 1 - t, p, B[r]) for r in range(p)]
        B = [down[0], *map(np.add, up[:-1], down[1:], up[:-1]), up[-1]]
    return B


def uniform_basis(t: Array, n: int) -> Array:
    """basis_terms stacked: B[..., r] = b_{ell-n+r}(x), r = 0..n."""
    return np.stack(basis_terms(t, n), axis=-1)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-axis knot sequences sharing n and h (the number
    of subintervals may differ per axis, e.g. when one axis is padded).

    The geometry of every solve, in any dimension: 1D is the one-axis grid.
    """

    axes: tuple[KnotSequence, ...]

    def __post_init__(self):
        if not self.axes:
            raise ValueError("at least one axis required")
        n = self.axes[0].n
        h = self.axes[0].h
        for ax in self.axes[1:]:
            if ax.n != n or abs(ax.h - h) > 1e-12 * abs(h):
                raise ValueError("all axes must share n and h")

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def n(self) -> int:
        return self.axes[0].n

    @property
    def h(self) -> float:
        return self.axes[0].h

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Knot intervals per axis as a C-order array shape, last axis
        outer: vectors over the midpoints run with the first axis fastest."""
        return tuple(ks.num_intervals for ks in reversed(self.axes))

