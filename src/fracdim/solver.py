"""Dimension solver: mesh validation, eigenvalue bracketing across s, and
bisection to a certified dimension interval.

Certified mode scales the collocation matrix L_h(s) by (1 -/+ err) into the
pair (A_h, B_h); the cone bracket of A_h below 1 certifies s >= s*, that of
B_h above 1 certifies s <= s*.  Only the two probes that end the search are
part of the proof, so a certified solve first predicts both endpoints where
log lam of converged point probes crosses the levels of the two proofs
(_crossings), on one ladder of meshes: the seed mesh of about COARSE_J
subintervals (which first finds the crossing of 0 that caps s), a
mesh SEARCH_COARSENING times coarser than the fine one where that is finer
than the seed mesh, and the fine mesh.  Each finer mesh starts from the
coarser one's iterate and moves its predictions by the Newton step of one
converged probe (_newton); the J // SEARCH_COARSENING mesh then finds its
crossings in a window around the moved ones, and the fine mesh probes next
to each moved prediction and bisects only where those probes straddle it.
Point-estimate mode sets err = 0 and ends at the flip of the eigenvalue
estimate's own lam >= 1 (what convergence tables measure).  Where its
probes would converge anyway (on a mesh that is not certifiable, or in a
convergence study's window around the previous meshes' estimates), regula
falsi on log lam (_predict) first narrows [S_FLOOR, d], or the window, to
about 1e-15, and the bisection finishes from there; an unseeded estimate
on a certifiable mesh bisects [S_FLOOR, d] with probes that stop at their
decision.

Every probe follows one rule.  On a certifiable mesh (h admissible and
M' < M) it stops at its decision, unless it is given a power tolerance to
converge to, and checks its cone; a point probe is the same probe with
err = 0.  On any other mesh, which only a point estimate reaches, it runs
to convergence with no cone check.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import numpy as np
from scipy import sparse

from .assembly import OperatorCache, coefficient_map, operator_footprint
from .bspline import TensorGrid, make_uniform_knots, uniform_basis
from .constants import (RigorProfile, admissible_h, cone_image_parameter,
                        make_profile)
from .maps import Alphabet
from .quasi import check_degree
from .spectral import (FLOAT_SLACK, POWER_TOL, cone_membership,
                       power_iteration, scaled_bracket, spectral_bracket)


# search floor of every bisection in s
S_FLOOR = 1e-6

# subintervals per axis of the seed mesh of a certified solve, whose
# crossings set the cap and seed the predictions: the first mesh of the
# published 2D sweeps
COARSE_J = 25

# a certified solve on J subintervals refines the seed mesh's predictions
# on J // 4 where that is finer than the seed mesh
SEARCH_COARSENING = 4


class InadmissibleMeshError(RuntimeError):
    def __init__(self, h: float, breakdown: dict[str, float]):
        self.h = h
        self.breakdown = breakdown
        msg = ", ".join(f"{k}: {v:.6g}" for k, v in breakdown.items())
        super().__init__(f"h = {h:.6g} exceeds the admissible bound "
                         f"{breakdown['overall']:.6g} ({msg})")


class OversizedMeshError(RuntimeError):
    """The operator of a mesh needs more memory than is available."""

    def __init__(self, h: float, footprint: dict[str, int], available: int):
        self.breakdown = footprint
        super().__init__(f"h = {h:.6g} needs about "
                         f"{footprint['total'] / 2**20:.0f} MiB for its "
                         f"operator, more than the {available / 2**20:.0f} "
                         "MiB available")


class CertificationError(RuntimeError):
    """A rigor precondition failed at some probe (cone, positivity, err)."""


class MonotonicityError(RuntimeError):
    """Recorded eigenvalue estimates were not decreasing in s."""


def make_geometry(d: int, J: int, n: int) -> TensorGrid:
    """Standard domains ([0,1] for 1D, [0,1] x [-1/2,1/2] for 2D) on J
    subintervals per axis, padded by n extra subintervals of the same width
    on every edge that contraction images can spill past (beyond x = 1, and
    in 2D both y edges).  1D is the one-axis grid.

    With the padding, every image of every collocation midpoint lands inside
    the padded partition-of-unity region, so the hidden positivity and
    cone-contraction bounds apply at all collocation points and the power
    iterates genuinely satisfy the certified cone check.
    """
    if d not in (1, 2):
        raise ValueError("only d in {1, 2} supported")
    h = 1.0 / J
    axes = (make_uniform_knots(0.0, 1.0 + n * h, J + n, n),
            make_uniform_knots(-0.5 - n * h, 0.5 + n * h, J + 2 * n, n))
    return TensorGrid(axes[:d])


@dataclass(frozen=True)
class SolveConfig:
    alphabet: Alphabet
    n: int = 2
    h: float | None = None
    mode: str = "certified"  # certified | point-estimate
    tol_s: float | None = None
    s_cap: float | None = None
    alpha: float | None = None
    beta: float | None = None
    M: float | None = None
    unsafe_h: bool = False
    mesh: str = "intervals"  # intervals | nodes

    def resolve_mesh(self) -> int:
        """Number of subintervals J, from an exact-reciprocal h.

        mesh='intervals' reads h = 1/J exactly; mesh='nodes' reads 1/h as the
        number of mesh NODES, i.e. J = 1/h - 1 subintervals (the convention
        of linspace-style grids, used by the published-table reproductions).
        """
        if self.mesh not in ("intervals", "nodes"):
            raise ValueError("mesh must be 'intervals' or 'nodes'")
        if self.h is None:
            raise ValueError("h is required")
        if not self.h > 0:
            raise ValueError(f"h = {self.h} is not positive")
        J = round(1.0 / self.h)
        if J < 1 or abs(self.h * J - 1.0) > 1e-9:
            raise ValueError(f"h = {self.h} is not the reciprocal of an integer")
        if self.mesh == "nodes":
            J -= 1
        if J < 1:
            raise ValueError("mesh has no subintervals")
        return J

    def resolve_tol(self) -> float:
        """Bisection width in s.  A point estimate defaults to 0, i.e. it
        bisects down to adjacent doubles: a midpoint of a wider interval can
        sit several ulp off the discrete root."""
        if self.tol_s is not None:
            if not 0.0 <= self.tol_s < math.inf:
                raise ValueError(f"tol_s = {self.tol_s!r} is not a finite "
                                 "number >= 0")
            return self.tol_s
        if self.mode == "point-estimate":
            return 0.0
        return 1e-14 if self.alphabet.d == 1 else 1e-10


@dataclass(frozen=True)
class DimensionBracket:
    """The result of a solve; the field order is the record's key order."""

    alphabet: str
    d: int
    n: int
    h: float
    mode: str
    s_lo: float
    s_hi: float
    err: float
    probes: list
    constants: dict
    admissibility: dict
    search: dict | None  # the coarse prediction of a certified solve
    wall_ms: float

    @property
    def width(self) -> float:
        return self.s_hi - self.s_lo

    def to_record(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ProbeEngine:
    """Caches probes by s and warm-starts power iteration across probes.

    The warm start is pure acceleration: the cone bracket is valid at any
    positive iterate, and the probe sequence is deterministic from the
    config, so results stay reproducible.

    With `certifiable` set (a mesh where hidden positivity holds: h
    admissible and M' < M), each probe stops power iteration at the first
    iterate that answers both predicates, lam_lo >= 1 and lam_hi > 1, as a
    converged probe would (a "decided" record; see power_iteration), so a
    cached one serves either bisection as it stands.  Its iterate must then
    pass the cone check, which is what makes the bracket valid.  A point
    probe (err = 0) decides only when its bracket lies wholly above or below
    1, so its lam sits on the side of 1 a converged one would.  Without
    `certifiable` each probe runs to convergence, with no cone check.

    `warm` is the vector the next probe starts from: `start`, a strictly
    positive vector on the cache's samples (as _prolong makes from a coarse
    iterate; power_iteration refuses any other), or ones where that is
    None, then each probe's last iterate.  _crossings reads it, and a
    caller may replace it with another positive vector between probes.
    Each warm start passes through cache.symmetric, which a folded cache's
    products need and which leaves an iterate as it is.  A probe given a
    power tolerance `tol` runs to convergence at it instead of stopping at
    its decision; on a certifiable mesh its cone is checked all the same.
    The engine's `tol` is the power tolerance of a probe that runs to
    convergence without one of its own.
    """

    def __init__(self, cache: OperatorCache, profile: RigorProfile, err: float,
                 certifiable: bool, start: np.ndarray | None = None,
                 tol: float = POWER_TOL):
        self.cache = cache
        self.profile = profile
        self.err = err
        self.certifiable = certifiable
        self.tol = tol
        self.records: dict[float, dict] = {}
        self.warm = start

    def probe(self, s: float, tol: float | None = None) -> dict:
        s = float(s)
        if s in self.records:
            return self.records[s]
        m = self.cache.matrix(s)
        decide = self.certifiable and tol is None
        start = None if self.warm is None else self.cache.symmetric(self.warm)
        res = power_iteration(m, tol=self.tol if tol is None else tol,
                              start=start,
                              decide_err=self.err if decide else None)
        self.warm = res.w
        cone = cone_membership(res.w, self.cache.geometry, self.profile.M)
        if self.certifiable and not cone.member:
            raise CertificationError(
                f"eigenvector left the cone at s = {s}: adjacent log ratio "
                f"{cone.adjacent_ratio_max:.6g} > M = {self.profile.M}")
        br = spectral_bracket(m, res.w, y=res.y)
        lam_lo, lam_hi = scaled_bracket(br.alpha, br.beta, self.err)
        rec = {
            "s": s,
            "alpha": br.alpha,
            "beta": br.beta,
            "lam": res.lam,
            "lam_lo": lam_lo,
            "lam_hi": lam_hi,
            "iterations": res.iterations,
            "spread": br.residual,
            "cone_ratio": cone.adjacent_ratio_max,
            "converged": res.converged,
            "decided": res.decided,
        }
        self.records[s] = rec
        return rec

    def audit_monotonicity(self) -> None:
        recs = sorted(self.records.values(), key=lambda r: r["s"])
        for r1, r2 in zip(recs[:-1], recs[1:]):
            allowance = (r2["beta"] - r2["alpha"]) + (r1["beta"] - r1["alpha"])
            if r2["lam"] > r1["lam"] + allowance + 1e-12 * abs(r1["lam"]):
                raise MonotonicityError(
                    f"eigenvalue estimate rose from s={r1['s']!r} "
                    f"({r1['lam']!r}) to s={r2['s']!r} ({r2['lam']!r})")


def _bisect(above, a: float, b: float, tol: float,
            guess: float | None = None,
            radius: float = 0.0) -> tuple[float, float]:
    """Shrink [a, b] around the point where the predicate `above` (true
    below the dimension) turns false, to width tol or adjacent doubles.

    Returns (a, a) when `above(a)` is false: the dimension is at or below
    the search floor.  Raises ValueError when `above(b)` holds.

    Without a guess the search starts from a and b.  With one it probes
    guess + half and, when that answers false, guess - half (both clamped
    to [a, b]), with half 2 ulp short of tol/2, so that the rounded window
    and every halving of it stay within tol, or `radius` where that is
    wider; a side that answers the wrong way moves outward by 2 half,
    4 half, ... until the two sides straddle the dimension or that side
    reaches a or b, where the two rules above apply.  `above` is asked once
    per point, and the returned ends are points it answered for.
    """
    def straddle_missed(s):
        return ValueError(f"search interval does not straddle the dimension: "
                          f"still below it at s = {s}")

    if guess is None:
        if not above(a):
            return a, a
        if above(b):
            raise straddle_missed(b)
    else:
        g = min(max(guess, a), b)
        half = max(0.5 * tol - 2.0 * math.ulp(g), math.ulp(g), radius)
        lo, hi = max(a, g - half), min(b, g + half)
        step = 2.0 * half
        lo_known = False  # above(lo) answered true
        while above(hi):
            if hi == b:
                raise straddle_missed(b)
            lo, hi, lo_known = hi, min(b, hi + step), True
            step *= 2.0
        step = 2.0 * half
        while not lo_known and not above(lo):
            if lo == a:
                return a, a
            lo, hi = max(a, lo - step), lo
            step *= 2.0
        a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if above(mid):
            a = mid
        else:
            b = mid
    return a, b


def _predict(engine: ProbeEngine, a: float, b: float, target: float,
             eps: float, tol: float | None = None) -> float:
    """The s in [a, b] where log lam of the engine's converged probes
    crosses target, by Illinois regula falsi to a bracket of width eps or
    adjacent doubles, from the narrowest bracket the engine's records give:
    the midpoint of the last bracket, whose ends are the records next to
    it; a or b when [a, b] holds no crossing.  Each probe runs at the
    power tolerance `tol` where one is given (converged, and cone-checked
    on a certifiable mesh: see ProbeEngine)."""
    def f(s):
        return math.log(engine.probe(s, tol)["lam"]) - target

    if f(a) <= 0.0:
        return a
    if f(b) > 0.0:
        return b
    known = {s: math.log(r["lam"]) - target for s, r in engine.records.items()}
    hi = min(s for s, v in known.items() if v <= 0.0)
    lo = max(s for s, v in known.items() if s < hi and v > 0.0)
    f_lo, f_hi, moved = known[lo], known[hi], 0
    while hi - lo > eps:
        s = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        s = min(max(s, lo + 0.5 * eps), hi - 0.5 * eps)
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break
        f_s = f(s)
        # Illinois: an end that stays for a second step running has its
        # value halved
        if f_s > 0.0:
            lo, f_lo = s, f_s
            if moved > 0:
                f_hi *= 0.5
            moved = 1
        else:
            hi, f_hi = s, f_s
            if moved < 0:
                f_lo *= 0.5
            moved = -1
    return 0.5 * (lo + hi)


def _prolong(v: np.ndarray, coarse: TensorGrid,
             fine: TensorGrid) -> np.ndarray:
    """The coarse quasi-interpolant Q_c v = sum_j (W1 v)_j b_j of samples v
    on the coarse midpoints, evaluated at the fine ones and floored at half
    the smallest sample, so that a positive v gives a strictly positive
    start (the -1/8 weights of n = 2 can turn a coefficient negative where
    neighbours differ by a factor of ten).

    Along its own array axis, each axis applies the coarse W1
    (coefficient_map, as the operator does), then the n+1 coarse splines
    nonzero at each fine midpoint; apart, the two hold n+1 entries per fine
    point, where their product would hold 2n+1.  A fine midpoint outside
    the coarse partition-of-unity range takes the nearest end piece.
    """
    n = coarse.n
    u = v.reshape(coarse.sample_shape)
    for k, (c, f) in enumerate(zip(coarse.axes, fine.axes)):
        x = f.midpoints
        ell = np.clip(np.floor((x - c.knots[0]) / c.h).astype(np.int32), n,
                      c.num_splines - 1)
        B = uniform_basis((x - c.knots[ell]) / c.h, n)
        cols = (ell - n)[:, None] + np.arange(n + 1, dtype=np.int32)
        splines = sparse.csr_matrix(
            (B.ravel(), cols.ravel(), np.arange(0, B.size + 1, n + 1)),
            shape=(len(x), c.num_splines))
        a = u.ndim - 1 - k
        u = (splines @ (coefficient_map(c) @ u.swapaxes(0, a))
             ).swapaxes(0, a)
    out = u.ravel()
    return np.maximum(out, 0.5 * v.min(), out=out)


def _crossings(engine: ProbeEngine, levels, a: float, b: float,
               eps: float):
    """Where log lam of the engine's converged point probes crosses each
    level in [a, b] (see _predict).  Each level's search starts from all of
    the engine's earlier probes, which then pass the monotonicity audit.
    Returns the crossings and the iterates that ended each level's search
    (the engine's `warm`: eigenvectors next to its crossing, which _prolong
    carries to a finer mesh as its start).
    """
    crossings, iterates = [], []
    for level in levels:
        crossings.append(_predict(engine, a, b, level, eps))
        iterates.append(engine.warm)
    engine.audit_monotonicity()
    return tuple(crossings), iterates


def _seed_engine(alphabet: Alphabet, profile: RigorProfile) -> ProbeEngine:
    """Converged point probes (err = 0, no cone check) on the seed mesh of
    a certified solve: COARSE_J subintervals per axis, or, at a degree n
    where letter 1's images need more, the fewest that hold them.  The
    leftmost collocation midpoint, -(n - 1/2) h, maps to
    1 / (1 - (n - 1/2) h), which lies below the padded edge 1 + n h only
    when h < 1 / (2 n^2 - n): 25 subintervals hold it at n = 2, 29 at
    n = 4."""
    n = profile.n
    geometry = make_geometry(alphabet.d, max(COARSE_J, 2 * n * n - n + 1), n)
    return ProbeEngine(OperatorCache(alphabet, geometry), profile, 0.0,
                       certifiable=False)


def _newton(engine: ProbeEngine, guesses, levels, a: float, b: float,
            tol: float):
    """Both guesses, the crossings of the two levels on a coarser mesh,
    moved by one Newton step of the lower one on the engine's mesh, and
    that step in s (None where it is skipped).

    The coarse predictions share the two meshes' discretization shift, so
    one probe at the lower guess, converged until log lam is known to
    sigma tol / 8, measures it for both: shift = (log lam - levels[0]) /
    sigma, along the slope sigma of -log lam between the two coarse
    crossings, which costs no probe.  Skipped, guesses unchanged, when a
    guess lies on a or b (its level was not crossed inside) or sigma is not
    finite and positive.
    """
    g_lo, g_hi = guesses
    sigma = (levels[0] - levels[1]) / (g_hi - g_lo) if g_hi > g_lo else 0.0
    if not (a < g_lo and g_hi < b and 0.0 < sigma < math.inf):
        return guesses, None
    lam = engine.probe(g_lo, tol=max(sigma * tol / 8, POWER_TOL))["lam"]
    shift = (math.log(lam) - levels[0]) / sigma
    return (g_lo + shift, g_hi + shift), shift


def _mem_available(meminfo: str = "/proc/meminfo") -> int | None:
    """Bytes available for new allocations without swapping (MemAvailable
    in the kernel's meminfo file), or None where that cannot be read."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _setup(config: SolveConfig):
    """Mesh, rigor profile and the guards every entry point shares.

    Raises ValueError for an unknown mode or a degree other than 2 and 4,
    OversizedMeshError, before any build, when the operator's footprint
    exceeds the memory available, and InadmissibleMeshError when h exceeds
    the admissible bound (only a point estimate may pass unsafe_h to go
    on); in certified mode also ValueError for a 2D degree other than 2
    (its error bounds are third order), and CertificationError when
    M' >= M or err >= 1.  A certified solve builds its seed engine
    (_seed_engine) after the footprint check.  That engine first lowers
    s_cap to just above s_hat, where log lam crosses 0 on the seed mesh
    (_crossings on [S_FLOOR, d], to 1e-6 in s), after the guards that do
    not need the cap: a lower cap shrinks err and M', and admissibility,
    M' and err are checked at it.  Returns (J, profile, geometry,
    breakdown, constants, err, certifiable, (seed, s_hat)), certifiable
    when h is admissible and M' < M (always, in certified mode), seed and
    s_hat the seed engine, which the solve goes on probing, and the
    crossing of a certified solve; both are None for a point estimate.
    """
    if config.mode not in ("certified", "point-estimate"):
        raise ValueError("mode must be 'certified' or 'point-estimate'")
    alphabet = config.alphabet
    certified = config.mode == "certified"
    if certified and alphabet.d == 2 and config.n != 2:
        raise ValueError(f"2D certification needs spline degree n = 2, not "
                         f"{config.n}: its error bounds are third order")
    check_degree(config.n)
    J = config.resolve_mesh()
    h = 1.0 / J
    geometry = make_geometry(alphabet.d, J, config.n)
    footprint = operator_footprint(alphabet, geometry)
    available = _mem_available()
    if available is not None and footprint["total"] > available:
        raise OversizedMeshError(h, footprint, available)

    def profile_at(s_cap):
        return make_profile(alphabet, n=config.n, s_cap=s_cap,
                            alpha=config.alpha, beta=config.beta, M=config.M)

    profile = profile_at(config.s_cap)
    seed = s_hat = None
    if certified:
        seed = _seed_engine(alphabet, profile)
        (s_hat,), _ = _crossings(seed, (0.0,), S_FLOOR, float(alphabet.d), 1e-6)
        profile = profile_at(min(profile.s_cap, s_hat + 1e-3))
    breakdown = admissible_h(profile, alphabet)
    # the exact 1/J against each rounded-down bound, and strictly below the
    # exact 1/max component
    admissible = (Fraction(1, J) <= Fraction(breakdown["overall"])
                  and J > alphabet.max_component)
    if not admissible and (certified or not config.unsafe_h):
        raise InadmissibleMeshError(h, breakdown)
    constants = {
        "K": profile.K, "A": profile.A, "B": profile.B, "D": profile.D,
        "M": profile.M, "alpha": profile.alpha, "beta": profile.beta,
        "C1": profile.C1, "C2": profile.C2, "s_cap": profile.s_cap,
        "err_coeff": profile.err_coefficient,
    }
    err = 0.0
    m_prime = cone_image_parameter(profile, h) if admissible else math.inf
    certifiable = m_prime < profile.M
    if certified:
        constants["M_prime"] = m_prime
        if not certifiable:
            raise CertificationError(
                f"image cone parameter M' = {m_prime:.6g} is not below M = {profile.M}")
        err = profile.err(h)
        if err >= 1:
            raise CertificationError(f"err = {err:.6g} >= 1: mesh too coarse")
    return (J, profile, geometry, breakdown, constants, err, certifiable,
            (seed, s_hat))


def solve_dimension(config: SolveConfig, *, guess: float | None = None,
                    radius: float = 0.0) -> DimensionBracket:
    """The certified bracket, or the point estimate, of config.

    The search interval is [S_FLOOR, d], capped at s_cap in certified mode
    (the rigor constants hold only up to it); a certified solve first
    lowers s_cap to just above a seed-mesh crossing (see _setup).  A
    certified solve then predicts both endpoints, where log lam of converged
    point probes crosses the levels at which a converged fine probe's lam_lo
    and lam_hi reach 1, on a ladder of meshes, each started from the
    iterate of the one before at the lower crossing (_prolong, before its
    build) and each moving the crossings of the one before by one Newton
    step (_newton):
      - the seed mesh (_setup's engine) finds both crossings in [a, b]
        (_crossings);
      - J // SEARCH_COARSENING subintervals, only when that is finer than
        the seed mesh, finds them inside [g_lo - D, g_hi + D] in [a, b],
        with g the moved seed crossings and D the larger of |shift| and
        tol / 4 (at least 4 ulp), or in [a, b] when the step is skipped;
        its probes converge to max(sigma tol / 4, POWER_TOL), sigma the
        slope of -log lam between the seed crossings;
      - on the fine mesh, _bisect proves each endpoint from its moved
        prediction, the first s_hi probe started from the last fine
        iterate times the ratio of the two crossings' coarse iterates.
    Each coarse cache is freed before the next build, and a fine mesh
    equal to the seed mesh takes the seed's cache.  A point estimate
    searches [S_FLOOR, d] on the fine mesh, or, given a guess, the window
    [guess - radius, guess + radius] in it.  With a guess, or on a mesh
    that is not certifiable, _predict first finds where log lam of
    converged probes crosses 0 in that interval, to max(tol, 1e-15 max(1,
    hi)), and _bisect starts from the prediction with the half-width of
    _predict's last bracket as its radius; a prediction on an end of the
    interval (a window that misses, or lam < 1 already at S_FLOOR) leaves
    _bisect as it is.  Unseeded on a certifiable mesh it bisects [S_FLOOR,
    d] with decided probes.  Either way it ends at the flip of this mesh's
    own lam >= 1.  Only a point estimate takes a guess.
    A cap below the dimension fails the certified straddle test at the cap,
    so it ends in a ValueError, never in a wrong bracket.  Where lam_lo < 1
    (lam < 1 for a point estimate) already at S_FLOOR, s_lo is 0, the only
    lower bound proved, and so is a point estimate.
    """
    t0 = time.perf_counter()
    tol = config.resolve_tol()
    certified = config.mode == "certified"
    if certified and guess is not None:
        raise ValueError("only a point estimate takes a guess")
    J, profile, geometry, breakdown, constants, err, certifiable, (
        seed, s_hat) = _setup(config)
    d = config.alphabet.d
    a, b = S_FLOOR, (min(float(d), profile.s_cap) if certified else float(d))
    start, search, cache = None, None, None
    if certified:
        # where (1 -/+ err)(1 -/+ FLOAT_SLACK) lam = 1
        levels = (-math.log1p(-err) - math.log1p(-FLOAT_SLACK),
                  -math.log1p(err) - math.log1p(FLOAT_SLACK))
        guesses, iterates = _crossings(seed, levels, a, b, tol / 4)
        coarse = seed.cache.geometry
        search = {"J_s": round(1.0 / coarse.h), "s_hat": s_hat,
                  "seed_lo": guesses[0], "seed_hi": guesses[1],
                  "seed_probes": len(seed.records), "J_c": None,
                  "s_lo": None, "s_hi": None, "probes": 0}
        if J == search["J_s"]:
            cache = seed.cache  # the fine mesh is the seed mesh
        seed = None  # freed before the finer builds
        J_c = J // SEARCH_COARSENING
        if J_c > search["J_s"]:
            g_lo, g_hi = guesses
            sigma = ((levels[0] - levels[1]) / (g_hi - g_lo) if g_hi > g_lo
                     else 0.0)
            mid = make_geometry(d, J_c, profile.n)
            # each start before its build, so its temporaries precede the
            # build's
            start = _prolong(iterates[0], coarse, mid)
            engine = ProbeEngine(
                OperatorCache(config.alphabet, mid), profile, 0.0,
                certifiable=False, start=start,
                tol=max(sigma * tol / 4, POWER_TOL))
            moved, shift = _newton(engine, guesses, levels, a, b, tol)
            lo, hi = a, b
            if shift is not None:
                D = max(abs(shift), tol / 4, 4.0 * math.ulp(moved[1]))
                lo, hi = max(a, moved[0] - D), min(b, moved[1] + D)
            guesses, iterates = _crossings(engine, levels, lo, hi, tol / 4)
            search.update(J_c=J_c, probes=len(engine.records))
            coarse, engine = mid, None
        search["s_lo"], search["s_hi"] = guesses
        start = _prolong(iterates[0], coarse, geometry)
    if cache is None:
        cache = OperatorCache(config.alphabet, geometry)
    engine = ProbeEngine(cache, profile, err, certifiable, start)
    key = "lam_lo" if certified else "lam"  # of the lower end's predicate
    if certified:
        guesses, search["shift"] = _newton(engine, guesses, levels, a, b, tol)
        guess, radius = guesses[0], 0.0
    elif guess is not None or not certifiable:
        # probes that would converge anyway locate the flip superlinearly
        lo, hi = (a, b) if guess is None else (max(a, guess - radius),
                                               min(b, guess + radius))
        p = _predict(engine, lo, hi, 0.0, max(tol, 1e-15 * max(1.0, hi)),
                     tol=POWER_TOL)
        if lo < p < hi:  # start from the ends of _predict's last bracket
            below = max(s for s in engine.records if s < p)
            above = min(s for s in engine.records if s > p)
            guess, radius = p, max(p - below, above - p)
    lo, hi = _bisect(lambda s: engine.probe(s)[key] >= 1.0, a, b, tol, guess,
                     radius)
    if engine.records[lo][key] < 1.0:
        lo = hi = 0.0  # not even the floor lies below the dimension
    if certified:
        s_lo = lo
        engine.warm = engine.warm * _prolong(iterates[1] / iterates[0],
                                             coarse, geometry)
        s_hi = _bisect(lambda s: engine.probe(s)["lam_hi"] > 1.0, a, b, tol,
                       guesses[1])[1]
    else:
        s_lo = s_hi = 0.5 * (lo + hi)
    engine.audit_monotonicity()
    return DimensionBracket(
        s_lo=s_lo, s_hi=s_hi, mode=config.mode, h=1.0 / J, n=config.n, d=d,
        alphabet=config.alphabet.describe(), err=err,
        probes=[engine.records[k] for k in sorted(engine.records)],
        constants=constants, admissibility=breakdown, search=search,
        wall_ms=(time.perf_counter() - t0) * 1000.0)


def convergence_study(config: SolveConfig, h_list,
                      reference: float | None = None) -> list[dict]:
    """Point-estimate s_h across meshes, with deltas and empirical orders.

    Unless config.tol_s is set, each s_h is bisected down to adjacent
    doubles (the point-estimate default): at fine meshes the deltas are a
    few ulp.  From the third mesh on, each solve searches the window of
    the last difference of s_h around the previous s_h, rather than
    [S_FLOOR, d]: regula falsi on its converged probes places the
    bisection there (see solve_dimension), and a window that misses
    widens (see _bisect), so every s_h is still the flip of its own mesh's
    lam >= 1.  Each row counts its solve's unique probes.

    With a reference value: delta_i = |s_i - ref| and rate_i =
    log2(delta_{i-1}/delta_i).  Without: delta_i = |s_i - s_{i-1}| and the
    same log-ratio of successive deltas (needs >= 3 meshes)."""
    h_list = list(h_list)
    if reference is not None and not math.isfinite(reference):
        raise ValueError(f"reference = {reference!r} is not a finite number")
    if reference is None and len(h_list) < 3:
        raise ValueError("Richardson-style rates need at least 3 meshes")
    rows, seed = [], {}
    for h in h_list:
        cfg = replace(config, h=float(h), mode="point-estimate", unsafe_h=True)
        if len(rows) >= 2:
            s1, s2 = rows[-1]["s_h"], rows[-2]["s_h"]
            seed = {"guess": s1, "radius": abs(s1 - s2)}
        b = solve_dimension(cfg, **seed)
        rows.append({"h": float(h), "s_h": b.s_lo, "delta": None, "rate": None,
                     "probes": len(b.probes), "wall_ms": b.wall_ms})
    if reference is not None:
        for r in rows:
            r["delta"] = abs(r["s_h"] - reference)
    else:
        for i in range(1, len(rows)):
            rows[i]["delta"] = abs(rows[i]["s_h"] - rows[i - 1]["s_h"])
    prev = None
    for r in rows:
        if r["delta"] is not None and prev not in (None, 0.0) and r["delta"] > 0:
            r["rate"] = math.log2(prev / r["delta"])
        prev = r["delta"]
    return rows
