"""Uniform knot sequences, the local B-spline basis on them, and the
tensor-product mesh geometry.

The knot vector is xi_j = domain_lo + (j - n)*h, j = 0..J+2n, so that the
parameter interval [xi_n, xi_{J+n}] equals [domain_lo, domain_hi] exactly.
A point is located in a half-open knot interval [xi_l, xi_{l+1}) (the very
last interval of the span closed), and the n+1 splines that do not vanish
there are evaluated from its local coordinate (x - xi_l)/h.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 4

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
    if not 0 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE} (weight table stops at 4)")
    h = (domain_hi - domain_lo) / J
    # one multiplication per knot; no cumulative summation drift
    j = np.arange(J + 2 * n + 1, dtype=np.float64)
    knots = domain_lo + (j - n) * h
    return KnotSequence(n=n, J=J, domain_lo=float(domain_lo),
                        domain_hi=float(domain_hi), h=h, knots=knots)


def locate_intervals(ks: KnotSequence, x: Array) -> tuple[Array, Array]:
    """Vectorized interval location: returns (ell, t) with ell the knot
    interval of each point and t = (x - xi_ell)/h the local coordinate."""
    x = np.asarray(x, dtype=np.float64)
    knots = ks.knots
    if np.any(x < knots[0]) or np.any(x > knots[-1]):
        raise ValueError("points outside knot span")
    last = ks.num_intervals - 1
    ell = np.floor((x - knots[0]) / ks.h).astype(np.int64)
    np.clip(ell, 0, last, out=ell)
    ell -= (x < knots[ell])
    ell += (ell < last) & (x >= knots[ell + 1])
    t = (x - knots[ell]) / ks.h
    return ell, t


def uniform_basis(t: Array, n: int) -> Array:
    """Nonzero degree-n spline values on a uniform mesh, from the local
    coordinate t = (x - xi_ell)/h in [0, 1).

    Returns B with B[..., r] = b_{ell-n+r}(x), r = 0..n.
    """
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

