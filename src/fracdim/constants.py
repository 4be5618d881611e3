"""Explicit constants for the certification: quasi-interpolation error
coefficients, Legendre projection and Bramble-Hilbert constants, eigenfunction
derivative bounds, cone parameters, and the mesh-admissibility conditions.

All closed-form constants are evaluated in exact rational arithmetic where the
inputs permit and rounded toward the conservative side at the final float
conversion: upward for the constants that multiply an error term, downward
for the eigenfunction lower bound A.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre as npleg

from .quasi import QuasiInterpolant, make_quasi_interpolant, positivity_threshold

def round_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def round_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def round_up_fraction(x: Fraction) -> float:
    """The least double >= the exact rational x."""
    f = float(x)  # correctly rounded
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def exact_h(h: float) -> Fraction:
    """The mesh width as an exact rational: an h that is the double nearest
    1/J stands for the exact 1/J."""
    J = round(1.0 / h)
    return Fraction(1, J) if J >= 1 and 1.0 / J == h else Fraction(h)


def distortion_K(alphabet) -> float:
    """Bounded-distortion constant of the continued-fraction system."""
    if not alphabet.letters:
        raise ValueError("empty alphabet")
    if alphabet.d == 2:
        return 4.0
    if 1 in alphabet.letters:
        return 4.0
    k = min(alphabet.letters)
    return round_up(math.exp(2.0 / (k * k - 1)))


def deriv_bound_1d(s: float, j: int) -> float:
    """Bound on |f^(j)|/f for the 1D eigenfunction: (2s)(2s+1)...(2s+j-1)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    out = 1.0
    for i in range(j):
        out *= 2.0 * s + i
    return out


def deriv_bounds_2d(s: float) -> dict[str, float]:
    """Derivative-ratio bounds for the 2D eigenfunction.

    Cx, Cy bound the pure third partials in x and y; the mixed third partials
    are two-sided (asymmetric) intervals; grad_ratio bounds |grad f|/f.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    Cx = 2 * s * (2 * s + 1) * (2 * s + 2)
    Cy = 2 * s * (2 * s + 2) * max(25 * math.sqrt(5) / 72, (2 * s + 1) / 8)
    Cxxy_lo = -(4.0 / 3.0) * s * (1 + (s + 2) * (2 * s + 1))
    Cxxy_hi = s * s / 2 + s
    Cyyx_lo = -4 * s * (1 + (4.0 / 27.0) * (s + 2) * (2 * s + 1))
    Cyyx_hi = 4 * s * s + 8 * s
    return {
        "Cx": Cx,
        "Cy": Cy,
        "Cxxy_lo": Cxxy_lo,
        "Cxxy_hi": Cxxy_hi,
        "Cyyx_lo": Cyyx_lo,
        "Cyyx_hi": Cyyx_hi,
        "grad_ratio": s * math.sqrt(5),
    }


def w3_seminorm_bound_2d(s: float) -> float:
    """Bound on the third-order seminorm |f|_{W^3_inf}/f of the eigenfunction."""
    b = deriv_bounds_2d(s)
    return (b["Cx"] + b["Cy"]
            + max(abs(b["Cxxy_lo"]), abs(b["Cxxy_hi"]))
            + max(abs(b["Cyyx_lo"]), abs(b["Cyyx_hi"])))


def _abs_integral_01(poly_coeffs: np.ndarray) -> float:
    """Integral of |p| over [0,1] for the polynomial with given power-basis
    coefficients (lowest order first), by exact antiderivative between roots."""
    p = np.polynomial.Polynomial(poly_coeffs)
    roots = [r.real for r in p.roots() if abs(r.imag) < 1e-12 and 0 < r.real < 1]
    # polish the real roots to full precision
    dp = p.deriv()
    polished = []
    for r in roots:
        for _ in range(50):
            step = p(r) / dp(r)
            r -= step
            if abs(step) < 1e-16:
                break
        if abs(p(r)) > 1e-13:
            raise ArithmeticError("root refinement failed")
        polished.append(r)
    nodes = [0.0] + sorted(polished) + [1.0]
    F = p.integ()
    return sum(abs(F(b) - F(a)) for a, b in zip(nodes[:-1], nodes[1:]))


def legendre_projection_constants(n: int) -> tuple[float, float]:
    """(c1, c2) from the shifted-Legendre orthonormal basis on [0,1].

    c1(n) = sum_k (integral_0^1 |p_k|) * sup|p_k| with p_k(x) =
    sqrt(2k+1) P_k(2x-1); c2(n) = (1 + c1(n)) / (2^{n+1} (n+1)!).
    """
    if not 0 <= n <= 4:
        raise ValueError("n must be in 0..4")
    c1 = 0.0
    for k in range(n + 1):
        # P_k(2x-1) in the power basis on [0,1]
        leg = np.zeros(k + 1)
        leg[k] = 1.0
        poly = npleg.leg2poly(leg)  # coefficients in t = 2x-1
        # substitute t = 2x - 1
        pt = np.polynomial.Polynomial([-1.0, 2.0])
        acc = np.polynomial.Polynomial([0.0])
        power = np.polynomial.Polynomial([1.0])
        for c in poly:
            acc = acc + c * power
            power = power * pt
        scale = math.sqrt(2 * k + 1)
        integral = _abs_integral_01(acc.coef) * scale
        sup = scale  # |P_k| <= 1 on [-1,1], attained at the endpoints
        c1 += integral * sup
    c1 = round_up(c1)
    c2 = round_up((1.0 + c1) / (2 ** (n + 1) * math.factorial(n + 1)))
    return c1, c2


def multivariate_error_constant(n: int, d: int) -> float:
    """c(n,d) = c2 (1 + c1 + ... + c1^{d-1})."""
    if d < 1:
        raise ValueError("d must be >= 1")
    c1, c2 = legendre_projection_constants(n)
    if c1 == 1.0:
        return round_up(c2 * d)
    return round_up(c2 * (1.0 - c1 ** d) / (1.0 - c1))


def _multi_indices(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(d - 1, total - head):
            yield (head,) + rest


def bramble_hilbert_constant(n_total: int, d: int, j: int) -> float:
    """Polynomial-approximation constant for the sup-norm estimate of the
    j-th derivatives of the error, on a cell star-shaped about every point."""
    if j >= n_total:
        raise ValueError("j must be < n_total")
    count_j = sum(1 for _ in _multi_indices(d, j))
    ssum = Fraction(0)
    for beta in _multi_indices(d, n_total - j):
        fact = 1
        for b in beta:
            fact *= math.factorial(b)
        ssum += Fraction(1, fact * fact)
    return round_up(count_j * (n_total - j) * math.sqrt(ssum))


def err_coefficient_1d(s: float, n: int) -> float:
    """Coefficient c with |f - Qf| <= c * f * h^{n+1} for the 1D eigenfunction:
    (n+1)^n ||Q|| / n! * (2s)(2s+1)...(2s+n).  Exact in rationals, rounded up."""
    q = make_quasi_interpolant(n)
    sf = Fraction(s)  # exact binary value of the float
    prod = Fraction(1)
    for i in range(n + 1):
        prod *= 2 * sf + i
    coeff = Fraction((n + 1) ** n, math.factorial(n)) * q.q_norm_exact * prod
    return round_up_fraction(coeff)


def err_coefficient_2d(s: float, n: int) -> float:
    """2D analogue: c(n,2) * ||Q||_tensor * (2n+1)^{n+1} * (Cx + Cy)."""
    q = make_quasi_interpolant(n)
    c = multivariate_error_constant(n, 2)
    b = deriv_bounds_2d(s)
    return round_up(c * q.q_norm ** 2 * (2 * n + 1) ** (n + 1) * (b["Cx"] + b["Cy"]))


@dataclass(frozen=True)
class RigorProfile:
    """Everything the cone certification needs, frozen per run."""

    d: int
    n: int
    s_cap: float
    K: float
    A: float           # eigenfunction lower bound K^{-s_cap}
    B: float           # eigenfunction upper bound K^{s_cap}
    D: float           # log-gradient bound of the eigenfunction
    M: float           # cone parameter
    alpha: float
    beta: float
    C1: float          # derivative-error constant in M'
    C2: float          # value-error constant in M'
    err_coefficient: float  # err = err_coefficient * h^{n+1}
    q: QuasiInterpolant = field(repr=False)

    def err(self, h: float) -> float:
        """err_coefficient * h^{n+1} for the exact_h of h, rounded up."""
        return round_up_fraction(Fraction(self.err_coefficient)
                                 * exact_h(h) ** (self.n + 1))


def make_profile(alphabet, n: int = 2, s_cap: float | None = None,
                 alpha: float | None = None, beta: float | None = None,
                 M: float | None = None) -> RigorProfile:
    """Assemble the rigor constants for an alphabet.

    Defaults: 1D s_cap=1, alpha=beta=0.05; 2D s_cap=1.8572, alpha=beta=0.01.
    M defaults to ceil(((1+alpha)/(1-beta)) * D*B/A), the smallest integer
    cone parameter the image-cone condition can certify as h -> 0.
    """
    d = alphabet.d
    q = make_quasi_interpolant(n)
    K = distortion_K(alphabet)
    if s_cap is None:
        s_cap = 1.0 if d == 1 else 1.8572
    if alpha is None:
        alpha = 0.05 if d == 1 else 0.01
    if beta is None:
        beta = 0.05 if d == 1 else 0.01
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must lie in (0,1)")
    A = round_down(K ** (-s_cap))  # a lower bound
    B = round_up(K ** s_cap)
    if d == 1:
        D = deriv_bound_1d(s_cap, 1)  # 2 s_cap
        fderiv = round_up(deriv_bound_1d(s_cap, n + 1) * B)
        C1 = round_up(2 * (n + 1) ** (n - 1) * q.q_norm / math.factorial(n - 1) * fderiv)
        C2 = round_up((n + 1) ** n * q.q_norm / math.factorial(n) * fderiv)
        err_coeff = err_coefficient_1d(s_cap, n)
    elif d == 2:
        # gradient cone bound for s < 2, kept fixed so the certified cone is
        # independent of the working s range
        D = 2 * math.sqrt(5)
        W3 = round_up(w3_seminorm_bound_2d(s_cap))
        cbh1 = bramble_hilbert_constant(n + 1, 2, 1)
        cbh0 = bramble_hilbert_constant(n + 1, 2, 0)
        C1 = round_up(math.sqrt(2) * (cbh1 * (2 * n + 1) ** n * 2 ** (n / 2)
                                      + 2 * q.q_norm ** 2 * cbh0
                                      * (2 * n + 1) ** (n + 1) * 2 ** ((n + 1) / 2)) * W3)
        C2 = err_coefficient_2d(s_cap, n)
        err_coeff = C2
    else:
        raise ValueError("only d in {1, 2} supported")
    if M is None:
        M = float(math.ceil((1 + alpha) / (1 - beta) * D * B / A))
    if M <= 0:
        raise ValueError("M must be positive")
    return RigorProfile(d=d, n=n, s_cap=float(s_cap), K=K, A=A, B=B, D=D,
                        M=float(M), alpha=float(alpha), beta=float(beta),
                        C1=C1, C2=C2, err_coefficient=err_coeff, q=q)


def cone_image_parameter(profile: RigorProfile, h: float) -> float:
    """M'(n,h) = (D B + C1 h^n) / (A - C2 h^{n+1}); the image of the cone K_M
    under the discretized operator lies in K_{M'}.  Evaluated in exact
    rationals at the exact_h of h and rounded up."""
    n, x = profile.n, exact_h(h)
    loss = Fraction(profile.C2) * x ** (n + 1)
    denom = Fraction(profile.A) - loss
    if denom <= 0:
        raise ValueError(f"mesh too coarse: C2 h^(n+1) = "
                         f"{float(loss):.3e} >= A = {profile.A:.3e}")
    return round_up_fraction((Fraction(profile.D) * Fraction(profile.B)
                              + Fraction(profile.C1) * x ** n) / denom)


def admissible_h(profile: RigorProfile, alphabet) -> dict[str, float]:
    """Per-condition mesh bounds and their minimum ('overall').

    Conditions: hidden positivity at M; C1 h^n <= alpha D B (keeps M' below
    (1+alpha)/(1-beta) DB/A together with the next); C2 h^{n+1} <= beta A;
    and the resolution requirement h < 1/max letter component.
    """
    n = profile.n
    out = {
        "positivity": positivity_threshold(profile.q, profile.d, profile.M),
        "alpha": (profile.alpha * profile.D * profile.B / profile.C1) ** (1.0 / n),
        "beta": (profile.beta * profile.A / profile.C2) ** (1.0 / (n + 1)),
        "resolution": 1.0 / alphabet.max_component,
    }
    out["overall"] = min(out.values())
    return out
