"""Positive approximate eigenvectors, cone certificates, and two-sided
spectral-radius brackets.

For a matrix L mapping the log-Lipschitz cone K_M into K_{M'} with M' < M,
any certified w in K_M gives min_i (Lw)_i/w_i <= r(L) <= max_i (Lw)_i/w_i.
Power iteration only tightens that bracket; it is valid at every iterate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import TensorGrid

Array = np.ndarray

# relative widening of bracket endpoints, absorbing matvec rounding
FLOAT_SLACK = 1e-12

# default relative spread of the ratios at which power iteration has converged
POWER_TOL = 1e-14


class PositivityError(RuntimeError):
    """An iterate or image vector failed strict positivity."""


@dataclass(frozen=True)
class PowerResult:
    lam: float          # geometric mean of the final min/max ratios
    w: Array            # final iterate, sup norm 1, strictly positive
    y: Array            # its image L w
    iterations: int
    ratio_min: float
    ratio_max: float
    converged: bool
    decided: bool       # stopped by the decision rule before converging


@dataclass(frozen=True)
class ConeCertificate:
    adjacent_ratio_max: float
    member: bool


@dataclass(frozen=True)
class SpectralBracket:
    alpha: float
    beta: float
    residual: float  # ratio spread at the certified iterate


def _widen(rmin: float, rmax: float) -> tuple[float, float]:
    """Collatz-Wielandt ratios widened by FLOAT_SLACK: (alpha, beta)."""
    return rmin * (1.0 - FLOAT_SLACK), rmax * (1.0 + FLOAT_SLACK)


def scaled_bracket(alpha: float, beta: float,
                   err: float) -> tuple[float, float]:
    """(lam_lo, lam_hi) = ((1-err) alpha, (1+err) beta) for alpha, beta >= 0,
    each factor and product rounded outward, so the floats enclose the
    exact products."""
    down, up = -math.inf, math.inf
    return (math.nextafter(math.nextafter(1.0 - err, down) * alpha, down),
            math.nextafter(math.nextafter(1.0 + err, up) * beta, up))


def power_iteration(m, tol: float = POWER_TOL, max_iter: int = 100_000,
                    start: Array | None = None,
                    decide_err: float | None = None) -> PowerResult:
    """Iterate w -> Lw / max(Lw), stopping when the relative spread of the
    ratios (Lw)_i/w_i falls below tol, stops improving, or max_iter hits.

    With decide_err = err (a certified probe's, err > 0), also stop at the
    first iterate that answers both bisection predicates, lam_lo >= 1 and
    lam_hi > 1.  With
    (alpha, beta) the widened ratios, (lo, hi) = scaled_bracket(alpha, beta)
    as the certified probe's lam_lo and lam_hi, and (lo_top, hi_bot) =
    scaled_bracket(beta, alpha) the same products with the ratios swapped,
    an iterate decides when
      - lo >= 1: s lies below the dimension;
      - hi <= 1: s lies above it;
      - lo_top < 1 < hi_bot: s lies in the zone between the two endpoints.
        When both are cone-certified, a converged bracket [alpha_c, beta_c]
        and this one hold the same radius, so alpha_c <= beta and beta_c >=
        alpha; rounding is monotone, so the converged lam_lo <= lo_top < 1
        and lam_hi >= hi_bot > 1: it answers both predicates as this
        iterate does.

    Raises PositivityError if any iterate entry fails to stay positive;
    non-convergence is reported via the converged flag, not an exception
    (the cone bracket is valid at any iterate, just looser).
    """
    N = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    w = np.ones(N) if start is None else np.asarray(start, dtype=np.float64).copy()
    if np.any(w <= 0):
        raise PositivityError("start vector must be strictly positive")
    w /= w.max()
    # w and the ratios are updated in place, so a probe's heap does not
    # churn with its iteration count
    ratios = np.empty(N)
    best_spread = np.inf
    stale = 0
    it = 0
    converged = decided = False
    while True:
        y = m @ w
        if y.min() <= 0:
            raise PositivityError(
                "matrix image lost positivity (mesh/cone misconfiguration)")
        np.divide(y, w, out=ratios)
        rmin, rmax = float(ratios.min()), float(ratios.max())
        if converged or stale >= 10 or it == max_iter:
            break
        if decide_err is not None:
            alpha, beta = _widen(rmin, rmax)
            lo, hi = scaled_bracket(alpha, beta, decide_err)
            lo_top, hi_bot = scaled_bracket(beta, alpha, decide_err)
            if lo >= 1.0 or hi <= 1.0 or (lo_top < 1.0 and hi_bot > 1.0):
                decided = True
                break
        spread = (rmax - rmin) / max(abs(rmax), np.finfo(float).tiny)
        converged = spread < tol
        # floating-point floor: stop once the spread no longer improves
        if spread < best_spread * (1 - 1e-3):
            best_spread = spread
            stale = 0
        else:
            stale += 1
        np.divide(y, y.max(), out=w)
        it += 1
    return PowerResult(lam=float(np.sqrt(rmin * rmax)), w=w, y=y,
                       iterations=it, ratio_min=rmin, ratio_max=rmax,
                       converged=converged, decided=decided)


def cone_membership(w: Array, geometry: TensorGrid,
                    M: float) -> ConeCertificate:
    """Check the log-Lipschitz bound |log w_i - log w_j| <= M dist(x_i, x_j)
    on grid-adjacent collocation midpoints.

    Adjacency suffices for all pairs: the log-Lipschitz bound is additive
    along grid paths and the path length dominates the Euclidean distance.
    w holds one value per knot-interval midpoint of the grid.
    """
    w = np.asarray(w, dtype=np.float64)
    if np.any(w <= 0):
        raise PositivityError("cone membership requires a strictly positive vector")
    shape = geometry.sample_shape
    if w.size != math.prod(shape):
        raise ValueError("sample vector length does not match the grid")
    logw = np.log(w).reshape(shape)
    ratio = max((np.abs(np.diff(logw, axis=a)).max()
                 for a in range(logw.ndim) if shape[a] > 1),
                default=0.0) / geometry.h
    return ConeCertificate(adjacent_ratio_max=float(ratio),
                           member=bool(ratio <= M))


def spectral_bracket(m, w: Array, y: Array | None = None) -> SpectralBracket:
    """alpha = min_i (Lw)_i/w_i, beta = max_i, widened by the relative slack
    FLOAT_SLACK against matvec rounding; alpha <= r(L) <= beta for
    cone-certified w.  Pass the image y = Lw when the caller already has
    it."""
    w = np.asarray(w, dtype=np.float64)
    if np.any(w <= 0):
        raise PositivityError("bracket vector must be strictly positive")
    if y is None:
        y = m @ w
    if y.min() <= 0:
        raise PositivityError("matrix image lost positivity")
    ratios = y / w
    alpha, beta = _widen(float(ratios.min()), float(ratios.max()))
    return SpectralBracket(alpha=alpha, beta=beta,
                           residual=float(ratios.max() - ratios.min()))
