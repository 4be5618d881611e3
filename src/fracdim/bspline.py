"""Uniform knot sequences and B-spline evaluation (univariate and tensor product).

Splines are defined by the Cox-de Boor style recurrence over a uniform knot
vector xi_j = domain_lo + (j - n)*h, j = 0..J+2n, so that the parameter
interval [xi_n, xi_{J+n}] equals [domain_lo, domain_hi] exactly.  Degree-0
splines are characteristic functions of the half-open knot intervals
[xi_l, xi_{l+1}); the very last interval of the knot span is treated as
closed so the right end of the span is still evaluable.
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

    @property
    def interior_midpoints(self) -> Array:
        """Midpoints of the J intervals inside the parameter interval."""
        return self.midpoints[self.n:self.n + self.J]


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


def relevant_indices(ks: KnotSequence, x: float) -> list[int]:
    """Indices k with b_k(x) > 0 (at most n+1 of them)."""
    ell = locate_interval(ks, x)
    lo = max(ell - ks.n, 0)
    hi = min(ell, ks.num_splines - 1)
    return [k for k in range(lo, hi + 1) if eval_bspline(ks, k, x) > 0.0]


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


def local_basis(ks: KnotSequence, x: Array) -> tuple[Array, Array]:
    """Vectorized local evaluation at points x.

    Returns (ell, B) where ell[i] is the knot interval of x[i] and
    B[i, r] = b_{ell[i]-n+r}(x[i]) for r = 0..n (all other splines vanish).
    """
    ell, t = locate_intervals(ks, x)
    return ell, uniform_basis(t, ks.n)


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
    def J(self) -> int:
        return self.axes[0].J

    @property
    def h(self) -> float:
        return self.axes[0].h

    @property
    def sample_shape(self) -> tuple[int, ...]:
        """Knot intervals per axis as a C-order array shape, last axis
        outer: vectors over the midpoints run with the first axis fastest."""
        return tuple(ks.num_intervals for ks in reversed(self.axes))


def eval_tensor_bspline(grid: TensorGrid, k: tuple[int, ...], x: tuple[float, ...]) -> float:
    """Product of per-axis spline values b_{k_1}(x_1) * ... * b_{k_d}(x_d)."""
    if len(k) != grid.d or len(x) != grid.d:
        raise ValueError("dimension mismatch")
    out = 1.0
    for ax, kj, xj in zip(grid.axes, k, x):
        out *= eval_bspline(ax, kj, xj)
        if out == 0.0:
            return 0.0
    return out
