"""Explicit constants for the certification: quasi-interpolation error
coefficients, Legendre projection and Bramble-Hilbert constants, eigenfunction
derivative bounds, cone parameters, hidden positivity and the
mesh-admissibility conditions.

Every constant is a function of the spline degree n, which quasi.check_degree
limits to 2 and 4; the quasi-interpolant's weights and ||Q|| are derived from
n where they are needed, never passed.

Exact rationals, one outward rounding: every algebraic constant is one
Fraction expression, each square root replaced by a rational bound on its
conservative side (math.isqrt on a scaled integer), converted to a double
once, upward for the constants that multiply an error term and downward for
the mesh bounds.  Only the transcendental K = exp(2/(k^2-1)), A = K^-s_cap
and B = K^s_cap are float powers, nudged one ulp outward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .quasi import check_degree, make_quasi_interpolant


def round_up_fraction(x: Fraction) -> float:
    """The least double >= the exact rational x."""
    f = float(x)  # correctly rounded
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def round_down_fraction(x: Fraction) -> float:
    """The greatest double <= the exact rational x."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _sqrt_bound(x, up: bool) -> Fraction:
    """A rational within 2^-128 relative of sqrt(x), above it when up, else
    below; exact when x is the square of a rational."""
    x = Fraction(x)
    scaled = x.numerator * x.denominator << 256
    r = math.isqrt(scaled)
    if up and r * r != scaled:
        r += 1
    return Fraction(r, x.denominator << 128)


_SQRT3_UP = _sqrt_bound(3, up=True)
_SQRT5_UP = _sqrt_bound(5, up=True)

# c1(n) = sum_k ||p_k||_1 ||p_k||_inf for the orthonormal shifted Legendre
# polynomials p_k(x) = sqrt(2k+1) P_k(2x-1) on [0,1], k = 0..n, at the
# degrees quasi.check_degree allows.  A closed form at n = 2 (with sqrt(3)
# bounded above); at n = 4, whose roots are nested radicals, a decimal upper
# bound on 9.278810841959933301460434595857...
_C1_TABLE: dict[int, Fraction] = {
    2: Fraction(5, 2) + Fraction(10, 9) * _SQRT3_UP,
    4: Fraction("9.27881084195993330146043460"),
}


def exact_h(h: float) -> Fraction:
    """The mesh width as an exact rational: an h that is the double nearest
    1/J stands for the exact 1/J."""
    J = round(1.0 / h)
    return Fraction(1, J) if J >= 1 and 1.0 / J == h else Fraction(h)


def distortion_K(alphabet) -> float:
    """Bounded-distortion constant of the continued-fraction system."""
    if not alphabet.letters:
        raise ValueError("empty alphabet")
    if alphabet.d == 2 or 1 in alphabet.letters:
        return 4.0
    k = min(alphabet.letters)
    return math.nextafter(math.exp(2.0 / (k * k - 1)), math.inf)


def deriv_bound_1d(s, j: int) -> Fraction:
    """Bound on |f^(j)|/f for the 1D eigenfunction: (2s)(2s+1)...(2s+j-1)."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return math.prod(2 * Fraction(s) + i for i in range(j))


def deriv_bounds_2d(s) -> dict[str, Fraction]:
    """Derivative-ratio bounds for the 2D eigenfunction.

    Cx, Cy bound the pure third partials in x and y; the mixed third partials
    are two-sided (asymmetric) intervals; grad_ratio bounds |grad f|/f.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("s must be positive")
    return {
        "Cx": 2 * s * (2 * s + 1) * (2 * s + 2),
        "Cy": 2 * s * (2 * s + 2) * max(Fraction(25, 72) * _SQRT5_UP,
                                        (2 * s + 1) / 8),
        "Cxxy_lo": -Fraction(4, 3) * s * (1 + (s + 2) * (2 * s + 1)),
        "Cxxy_hi": s * s / 2 + s,
        "Cyyx_lo": -4 * s * (1 + Fraction(4, 27) * (s + 2) * (2 * s + 1)),
        "Cyyx_hi": 4 * s * s + 8 * s,
        "grad_ratio": s * _SQRT5_UP,
    }


def w3_seminorm_bound_2d(s) -> Fraction:
    """Bound on the third-order seminorm |f|_{W^3_inf}/f of the eigenfunction."""
    b = deriv_bounds_2d(s)
    return (b["Cx"] + b["Cy"]
            + max(abs(b["Cxxy_lo"]), abs(b["Cxxy_hi"]))
            + max(abs(b["Cyyx_lo"]), abs(b["Cyyx_hi"])))


def legendre_projection_constants(n: int) -> tuple[Fraction, Fraction]:
    """(c1, c2) from the shifted-Legendre orthonormal basis on [0,1]:
    c1(n) from the table above, c2(n) = (1 + c1(n)) / (2^{n+1} (n+1)!)."""
    check_degree(n)
    c1 = _C1_TABLE[n]
    return c1, (1 + c1) / (2 ** (n + 1) * math.factorial(n + 1))


def multivariate_error_constant(n: int, d: int) -> Fraction:
    """c(n,d) = c2 (1 + c1 + ... + c1^{d-1})."""
    if d < 1:
        raise ValueError("d must be >= 1")
    c1, c2 = legendre_projection_constants(n)
    return c2 * sum(c1 ** i for i in range(d))


def _multi_indices(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _multi_indices(d - 1, total - head):
            yield (head,) + rest


def bramble_hilbert_constant(n_total: int, d: int, j: int) -> Fraction:
    """Polynomial-approximation constant for the sup-norm estimate of the
    j-th derivatives of the error, on a cell star-shaped about every point."""
    if j >= n_total:
        raise ValueError("j must be < n_total")
    count_j = sum(1 for _ in _multi_indices(d, j))
    ssum = sum(Fraction(1, math.prod(math.factorial(b) for b in beta) ** 2)
               for beta in _multi_indices(d, n_total - j))
    return count_j * (n_total - j) * _sqrt_bound(ssum, up=True)


def err_coefficient_1d(s, n: int) -> Fraction:
    """Coefficient c with |f - Qf| <= c * f * h^{n+1} for the 1D eigenfunction:
    (n+1)^n ||Q|| / n! * (2s)(2s+1)...(2s+n)."""
    q = make_quasi_interpolant(n)
    return (Fraction((n + 1) ** n, math.factorial(n)) * q.q_norm_exact
            * deriv_bound_1d(s, n + 1))


def err_coefficient_2d(s, n: int) -> Fraction:
    """2D analogue: c(n,2) * ||Q||_tensor * (2n+1)^{n+1} * (Cx + Cy)."""
    q = make_quasi_interpolant(n)
    b = deriv_bounds_2d(s)
    return (multivariate_error_constant(n, 2) * q.q_norm_exact ** 2
            * (2 * n + 1) ** (n + 1) * (b["Cx"] + b["Cy"]))


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
    check_degree(n)
    K = distortion_K(alphabet)
    if s_cap is None:
        s_cap = 1.0 if d == 1 else 1.8572
    if not 0 < s_cap < math.inf:
        raise ValueError(f"s_cap = {s_cap!r} is not a finite number > 0")
    if alpha is None:
        alpha = 0.05 if d == 1 else 0.01
    if beta is None:
        beta = 0.05 if d == 1 else 0.01
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("alpha and beta must lie in (0,1)")
    try:
        return _profile(d, n, K, s_cap, alpha, beta, M)
    except OverflowError:
        raise ValueError(f"s_cap = {s_cap!r} is too large: the rigor "
                         "constants overflow") from None


def _profile(d, n, K, s_cap, alpha, beta, M) -> RigorProfile:
    """make_profile's constants, from its checked settings."""
    A = math.nextafter(K ** -s_cap, -math.inf)  # a lower bound
    B = math.nextafter(K ** s_cap, math.inf)
    if d == 1:
        D = deriv_bound_1d(s_cap, 1)  # 2 s_cap
        err_coeff = err_coefficient_1d(s_cap, n)
        # the derivative and value errors of Q f, both with |f| <= B
        C2 = err_coeff * Fraction(B)
        C1 = Fraction(2 * n, n + 1) * C2
    elif d == 2:
        # gradient cone bound for s < 2, kept fixed so the certified cone is
        # independent of the working s range
        D = 2 * _SQRT5_UP
        cbh1 = bramble_hilbert_constant(n + 1, 2, 1)
        cbh0 = bramble_hilbert_constant(n + 1, 2, 0)
        q_norm = make_quasi_interpolant(n).q_norm_exact
        C1 = ((cbh1 * (2 * n + 1) ** n * _sqrt_bound(2 ** (n + 1), up=True)
               + 2 * q_norm ** 2 * cbh0 * (2 * n + 1) ** (n + 1)
               * _sqrt_bound(2 ** (n + 2), up=True))
              * w3_seminorm_bound_2d(s_cap))
        C2 = err_coeff = err_coefficient_2d(s_cap, n)
    else:
        raise ValueError("only d in {1, 2} supported")
    D = round_up_fraction(D)
    if M is None:
        M = float(math.ceil((1 + Fraction(alpha)) / (1 - Fraction(beta))
                            * Fraction(D) * Fraction(B) / Fraction(A)))
    if not 0 < M < math.inf:
        raise ValueError(f"M = {M!r} is not a finite number > 0")
    return RigorProfile(d=d, n=n, s_cap=float(s_cap), K=K, A=A, B=B, D=D,
                        M=float(M), alpha=float(alpha), beta=float(beta),
                        C1=round_up_fraction(C1), C2=round_up_fraction(C2),
                        err_coefficient=round_up_fraction(err_coeff))


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


def positivity_threshold(n: int, d: int, M: float) -> float:
    """Largest h keeping Qf > 0 for every f in the log-Lipschitz cone K_M,
    rounded down, for the degree-n quasi-interpolant Q in d dimensions.

    The sufficient condition is exp(M h sqrt(d) n) (1 - 1/S) < 1 with S the
    positive-weight sum of the (tensor) weights.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    q = make_quasi_interpolant(n)
    S = sum(w for w in map(math.prod, product(q.weights_exact, repeat=d))
            if w > 0)
    # log(S/(S-1)) = 2 atanh(x), x = 1/(2S-1): a series of positive terms,
    # so each partial sum bounds it from below
    x = 1 / (2 * S - 1)
    log_lo, power, k = Fraction(0), x, 1
    while power > Fraction(1, 1 << 70):
        log_lo += 2 * power / k
        power *= x * x
        k += 2
    return round_down_fraction(
        log_lo / (Fraction(M) * n * _sqrt_bound(d, up=True)))


def _root_down(rhs: Fraction, coeff: Fraction, k: int) -> float:
    """A double h with coeff h^k <= rhs: the float k-th root of rhs/coeff,
    stepped down until the exact inequality holds; in logs where the ratio
    is no normal double (alpha, beta or s_cap near 1e-308)."""
    r = rhs / coeff
    h = (float(r) ** (1.0 / k) if 2.0 ** -1022 <= r < 2.0 ** 1023 else
         math.exp((math.log(r.numerator) - math.log(r.denominator)) / k))
    while coeff * Fraction(h) ** k > rhs:
        h = math.nextafter(h, 0.0)
    return h


def admissible_h(profile: RigorProfile, alphabet) -> dict[str, float]:
    """Per-condition mesh bounds and their minimum ('overall').

    Conditions: hidden positivity at M; C1 h^n <= alpha D B (keeps M' below
    (1+alpha)/(1-beta) DB/A together with the next); C2 h^{n+1} <= beta A;
    and the resolution requirement h < 1/max letter component.  Each bound
    is rounded down; the resolution one is strict.
    """
    n, p = profile.n, profile
    out = {
        "positivity": positivity_threshold(n, p.d, p.M),
        "alpha": _root_down(Fraction(p.alpha) * Fraction(p.D) * Fraction(p.B),
                            Fraction(p.C1), n),
        "beta": _root_down(Fraction(p.beta) * Fraction(p.A), Fraction(p.C2),
                           n + 1),
        "resolution": round_down_fraction(Fraction(1,
                                                   alphabet.max_component)),
    }
    out["overall"] = min(out.values())
    return out
