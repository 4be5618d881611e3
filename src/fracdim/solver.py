"""Dimension solver: mesh validation, eigenvalue bracketing across s, and
bisection to a certified dimension interval.

Certified mode scales the collocation matrix L_h(s) by (1 -/+ err) into the
pair (A_h, B_h); the cone bracket of A_h below 1 certifies s >= s*, that of
B_h above 1 certifies s <= s*.  Point-estimate mode sets err = 0 and ends at
a 4-ulp bracket of its own log lam = 0 (what convergence tables measure).
Only the probes that end a search matter, so every solve first locates where
log lam of converged point probes crosses its levels on coarser meshes
(_crossings), one ladder that solve_dimension climbs by one routine (_step).

Every probe follows one rule (ProbeEngine): on a certified solve's fine
mesh (err > 0) it stops at its decision and checks its cone; anywhere else
(err = 0: a point estimate, the seed and J // 4 meshes) it converges
unchecked, since a point estimate claims nothing the cone would prove.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .assembly import (CSR, OperatorCache, coefficient_map,
                       coefficients_along, csr_apply, operator_footprint,
                       rows_footprint)
from .bspline import TensorGrid, make_uniform_knots, uniform_basis
from .constants import (RigorProfile, admissible_h, cone_image_parameter,
                        make_profile)
from .maps import Alphabet, largest_item
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

# _slope's secants use only points whose log lam lies this far from 0: a
# converged point probe knows log lam to about 1e-16, so such a secant has
# sigma to about 1e-4.  It filters noise in a point probe, where no
# rounding bound is claimed, so it is not FLOAT_SLACK and need not follow it
SLOPE_NOISE = 1e-12


class InadmissibleMeshError(RuntimeError):
    def __init__(self, h: float, breakdown: dict[str, float]):
        self.h = h
        self.breakdown = breakdown
        msg = ", ".join(f"{k}: {v:.6g}" for k, v in breakdown.items())
        super().__init__(f"h = {h:.6g} exceeds the admissible bound "
                         f"{breakdown['overall']:.6g} ({msg})")


def mebibytes(size: int) -> str:
    """size bytes in MiB to six digits, as a float shows them, and past the
    float range, where size / 2**20 overflows, as a Decimal."""
    return f"{size / 2**20 if size < 2**1000 else Decimal(size) / 2**20:.6g}"


class OversizedMeshError(RuntimeError):
    """The operator of a mesh needs more memory than is available."""

    def __init__(self, h: float, footprint: dict[str, int], available: int):
        self.breakdown = footprint
        super().__init__(f"h = {h:.6g} needs about "
                         f"{mebibytes(footprint['total'])} MiB for its "
                         f"operator, more than the {mebibytes(available)} "
                         "MiB available")


class CertificationError(RuntimeError):
    """A rigor precondition failed at some probe (cone, positivity, err)."""


class MonotonicityError(RuntimeError):
    """Recorded eigenvalue estimates were not decreasing in s."""


def make_geometry(d: int, J: int, n: int) -> TensorGrid:
    """Standard domains ([0,1] for 1D, [0,1] x [-1/2,1/2] for 2D) on J
    subintervals per axis, padded by n more on every edge that contraction
    images can spill past (beyond x = 1, and in 2D both y edges), so that
    every image of a collocation midpoint lands where partition of unity
    holds, and the hidden positivity and cone bounds apply at every point.
    1D is the one-axis grid."""
    if d not in (1, 2):
        raise ValueError("only d in {1, 2} supported")
    h = 1.0 / J
    axes = (make_uniform_knots(0.0, 1.0 + n * h, J + n, n),
            make_uniform_knots(-0.5 - n * h, 0.5 + n * h, J + 2 * n, n))
    return TensorGrid(axes[:d])


def _sample_shape(d: int, J: int, n: int) -> tuple[int, ...]:
    """The sample shape of make_geometry(d, J, n) before any of its O(J)
    arrays exists: J + 3n x and J + 4n y midpoints, which negate."""
    return (J + 4 * n, J + 3 * n)[2 - d:]


def _footprint(alphabet: Alphabet, J: int, n: int) -> dict:
    """operator_footprint of make_geometry(alphabet.d, J, n)."""
    return operator_footprint(alphabet, _sample_shape(alphabet.d, J, n), n)


def mesh_intervals(h: float | None, mesh: str) -> int:
    """Number of subintervals J, from an exact-reciprocal h: h = 1/J
    for mesh 'intervals', and 1/h mesh NODES, J = 1/h - 1, for
    mesh 'nodes' (linspace-style grids, as the published tables use)."""
    if mesh not in ("intervals", "nodes"):
        raise ValueError("mesh must be 'intervals' or 'nodes'")
    if h is None:
        raise ValueError("h is required")
    if not h > 0:
        raise ValueError(f"h = {h} is not positive")
    if not 1.0 / h < math.inf:
        raise ValueError(f"h = {h} has no finite reciprocal")
    J = round(1.0 / h)
    if J < 1 or abs(h * J - 1.0) > 1e-9:
        raise ValueError(f"h = {h} is not the reciprocal of an integer")
    if mesh == "nodes":
        J -= 1
    if J < 1:
        raise ValueError("mesh has no subintervals")
    return J


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
        """mesh_intervals of the config's h and mesh."""
        return mesh_intervals(self.h, self.mesh)

    def resolve_tol(self) -> float:
        """Width in s to solve to.  A point estimate defaults to 0, i.e. it
        stops at a 4-ulp bracket: a midpoint of a wider one can sit several
        ulp off the discrete root."""
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
    search: dict | None  # the prediction of a solve from the seed mesh
    wall_ms: float
    # a point estimate's, for a study's next mesh; not in the record
    rung: Rung | None = field(default=None, repr=False, compare=False)

    @property
    def width(self) -> float:
        return self.s_hi - self.s_lo

    def to_record(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "rung"}


class ProbeEngine:
    """Caches probes by s and warm-starts power iteration across probes.

    The warm start is pure acceleration: the cone bracket is valid at any
    positive iterate, and the probe sequence is deterministic from the
    config, so results stay reproducible.

    With err > 0 (a certified solve's fine mesh, where _setup has checked
    that hidden positivity holds and the solve probes only up to s_cap),
    each probe stops power iteration at the first iterate that answers both
    predicates, lam_lo >= 1 and lam_hi > 1, as a converged probe would (a
    "decided" record; see power_iteration), so a cached one serves either
    bisection as it stands.  Its iterate must then pass the cone check,
    which is what makes the bracket valid.  With err = 0 every probe runs
    to convergence, with no cone check.

    `warm` is the vector the next probe starts from: `start`, a strictly
    positive vector on the cache's samples (as _prolong makes), or ones
    where that is None, then each probe's last iterate; a caller may
    replace it between probes.  Each warm start passes through
    cache.symmetric, which a folded cache's products need.  A probe given a
    power tolerance `tol` runs to convergence at it instead of stopping at
    its decision (its cone still checked where err > 0); the engine's `tol`
    serves a probe that runs to convergence without one.
    """

    def __init__(self, cache: OperatorCache, profile: RigorProfile, err: float,
                 start: np.ndarray | None = None, tol: float = POWER_TOL):
        self.cache = cache
        self.profile = profile
        self.err = err
        self.tol = tol
        self.records: dict[float, dict] = {}
        self.warm = start

    def _take_warm(self) -> np.ndarray | None:
        """The warm start, through cache.symmetric, handed over: the engine
        lets go of it, so that power_iteration's copy is the one that
        lives."""
        warm, self.warm = self.warm, None
        return None if warm is None else self.cache.symmetric(warm)

    def probe(self, s: float, tol: float | None = None) -> dict:
        s = float(s)
        if s in self.records:
            return self.records[s]
        m = self.cache.matrix(s)
        checked = self.err > 0.0
        decide = checked and tol is None
        res = power_iteration(m, tol=self.tol if tol is None else tol,
                              start=self._take_warm(),
                              decide_err=self.err if decide else None)
        self.warm = res.w
        cone = cone_membership(res.w, self.cache.geometry, self.profile.M)
        if checked and not cone.member:
            raise CertificationError(
                f"eigenvector left the cone at s = {s}: adjacent log ratio "
                f"{cone.adjacent_ratio_max:.6g} > M = {self.profile.M}")
        br = spectral_bracket(m, res.w, y=res.y)
        lam_lo, lam_hi = scaled_bracket(br.alpha, br.beta, self.err)
        rec = self.records[s] = {
            "s": s, "alpha": br.alpha, "beta": br.beta, "lam": res.lam,
            "lam_lo": lam_lo, "lam_hi": lam_hi, "iterations": res.iterations,
            "spread": br.residual, "cone_ratio": cone.adjacent_ratio_max,
            "converged": res.converged, "decided": res.decided}
        return rec

    def audit_monotonicity(self) -> None:
        recs = sorted(self.records.values(), key=lambda r: r["s"])
        for r1, r2 in zip(recs[:-1], recs[1:]):
            allowance = (r2["beta"] - r2["alpha"]) + (r1["beta"] - r1["alpha"])
            if (r2["lam"] > r1["lam"] + allowance
                    + FLOAT_SLACK * abs(r1["lam"])):
                raise MonotonicityError(
                    f"eigenvalue estimate rose from s={r1['s']!r} "
                    f"({r1['lam']!r}) to s={r2['s']!r} ({r2['lam']!r})")


def _straddle_missed(s: float) -> ValueError:
    return ValueError(f"search interval does not straddle the dimension: "
                      f"still below it at s = {s}")


def _bisect(above, a: float, b: float, tol: float,
            guess: float) -> tuple[float, float]:
    """Shrink [a, b] around the point where the predicate `above` (true
    below the dimension) turns false, to width tol or adjacent doubles,
    from a guess: it probes guess + half, then guess - half (clamped to [a,
    b]; half 2 ulp short of tol/2, so the window and its halvings stay
    within tol), and moves a side that answers the wrong way outward by 2
    half, 4 half, ... until the sides straddle or reach a or b.  Returns
    (a, a) when `above(a)` is false (the dimension is at or below the
    search floor); raises ValueError when `above(b)` holds.  `above` is
    asked once per point, and the returned ends are points it answered."""
    g = min(max(guess, a), b)
    half = max(0.5 * tol - 2.0 * math.ulp(g), math.ulp(g))
    lo, hi = max(a, g - half), min(b, g + half)
    step = 2.0 * half
    lo_known = False  # above(lo) answered true
    while above(hi):
        if hi == b:
            raise _straddle_missed(b)
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
             eps: float) -> float:
    """The s in [a, b] where log lam of the engine's converged point probes
    (err = 0) crosses target, by Illinois regula falsi to a bracket of
    width eps or adjacent doubles, from the narrowest bracket the engine's
    records give: the midpoint of the last bracket, whose ends are the
    records next to it; a or b when [a, b] holds no crossing."""
    def f(s):
        return math.log(engine.probe(s)["lam"]) - target

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
    start (the -1/8 weights of n = 2 can turn a coefficient negative).
    Either mesh may be the finer.  Along its own array axis, each axis
    applies the coarse W1 (coefficient_map), then the n+1 coarse splines
    nonzero at each fine midpoint (n+1 entries per point each, where their
    product would hold 2n+1); a midpoint outside the coarse partition-of-
    unity range takes the nearest end piece."""
    n = coarse.n
    u = v.reshape(coarse.sample_shape)
    for k, (c, f) in enumerate(zip(coarse.axes, fine.axes)):
        x = f.midpoints
        ell = np.clip(np.floor((x - c.knots[0]) / c.h).astype(np.int32), n,
                      c.num_splines - 1)
        B = uniform_basis((x - c.knots[ell]) / c.h, n)
        cols = (ell - n)[:, None] + np.arange(n + 1, dtype=np.int32)
        splines = CSR(B.ravel(), cols.ravel(),
                      np.arange(0, B.size + 1, n + 1, dtype=np.int32),
                      (len(x), c.num_splines))
        a = u.ndim - 1 - k
        u = coefficients_along(coefficient_map(c), u, a)
        u = csr_apply(splines, u.swapaxes(0, a)).swapaxes(0, a)
    out = u.ravel()
    return np.maximum(out, 0.5 * v.min(), out=out)


def _crossings(engine: ProbeEngine, levels, a: float, b: float,
               eps: float, window=None):
    """Where log lam of the engine's converged point probes crosses each
    level (_predict) in window (lo, hi), or in [a, b] where there is none or
    log lam at lo and hi (probed already) does not straddle the level, each
    search from all of the engine's probes, which then pass the monotonicity
    audit.  Returns the crossings and the iterates that ended each level's
    search (the engine's `warm`, which _prolong carries to a finer mesh)."""
    lo, hi = window or (a, b)

    def log_lam(s):  # a probe on record is not run again
        return math.log(engine.probe(s)["lam"])

    crossings, iterates = [], []
    for level in levels:
        s = _predict(engine, lo, hi, level, eps)
        if log_lam(lo) <= level or log_lam(hi) > level:
            s = _predict(engine, a, b, level, eps)
        crossings.append(s)
        iterates.append(engine.warm)
    engine.audit_monotonicity()
    return tuple(crossings), iterates


def _padding(n: int) -> int:
    """2 n^2 - n, the most subintervals on which letter 1 maps a midpoint
    of a 1D mesh out of its padded range: the leftmost midpoint
    -(n - 1/2) h maps below the padded edge 1 + n h only when
    h < 1 / (2 n^2 - n)."""
    return 2 * n * n - n


def _seed_engine(alphabet: Alphabet, profile: RigorProfile,
                 J: float = math.inf) -> ProbeEngine | None:
    """Converged point probes (err = 0, no cone check) on the seed mesh, or
    None where that is not coarser than J: COARSE_J subintervals per axis,
    or the fewest that hold letter 1's images (more than _padding(n): 25
    subintervals at n = 2, 29 at n = 4)."""
    n = profile.n
    J_s = max(COARSE_J, _padding(n) + 1)
    if J_s >= J:
        return None
    cache = OperatorCache(alphabet, make_geometry(alphabet.d, J_s, n))
    return ProbeEngine(cache, profile, 0.0)


@dataclass
class Rung:
    """A mesh as the next one starts from it: its geometry, its iterate at
    the lower crossing (None once _step has prolonged it), its crossings,
    lowest first, and sigma, the slope of -log lam in s there."""

    geometry: TensorGrid
    iterate: np.ndarray | None
    crossings: tuple
    sigma: float


def _step(rung: Rung, geometry: TensorGrid, build, level: float, a: float,
          b: float, tol: float):
    """One step up a ladder onto geometry.  The rung's iterate is prolonged
    (_prolong) and dropped before build(start) builds the engine it starts.
    Both meshes' crossings share one discretization shift, so one probe at
    the lowest, converged until log lam is known to sigma tol / 8, measures
    it for all: the Newton step shift = (log lam - level) / sigma.  Returns
    the engine, the moved crossings, the shift and the window [g_lo - D,
    g_hi + D] in [a, b], D the larger of |shift| and tol / 4 (at least 4
    ulp); or the crossings, None and [a, b] where one lies on a or b (its
    level not crossed inside) or sigma is not finite and positive."""
    start = _prolong(rung.iterate, rung.geometry, geometry)
    rung.iterate = None  # the build's peak then holds only the start
    engine, g, sigma = build(start), rung.crossings, rung.sigma
    if not (a < g[0] and g[-1] < b and 0.0 < sigma < math.inf):
        return engine, g, None, (a, b)
    lam = engine.probe(g[0], tol=max(sigma * tol / 8, POWER_TOL))["lam"]
    shift = (math.log(lam) - level) / sigma
    g = tuple(x + shift for x in g)
    D = max(abs(shift), tol / 4, 4.0 * math.ulp(g[-1]))
    return engine, g, shift, (max(a, g[0] - D), min(b, g[-1] + D))


def _secant(p, q) -> float:
    """-d log lam / ds between points (s, log lam), 0 unless s rises."""
    (s1, l1), (s2, l2) = p, q
    return (l1 - l2) / (s2 - s1) if s2 > s1 else 0.0


def _slope(engine: ProbeEngine, s: float, prior: float) -> float:
    """sigma at s: the _secant through the point engine's nearest records
    below and above s whose log lam lies over SLOPE_NOISE from 0, else
    prior."""
    far = [(r["s"], math.log(r["lam"])) for r in engine.records.values()
           if abs(math.log(r["lam"])) > SLOPE_NOISE]
    below, above = [p for p in far if p[0] < s], [p for p in far if p[0] > s]
    return _secant(max(below), min(above)) if below and above else prior


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


@functools.lru_cache(maxsize=8, typed=True)
def _once(fn, *args):
    """fn(*args), kept: a profile and its admissible mesh bounds do not
    depend on h, so a study derives them once.  Copy a mutable result."""
    return fn(*args)


def _check_method(mode: str, d: int, n: int) -> None:
    """The mode and the spline degree, as _setup checks them first."""
    if mode not in ("certified", "point-estimate"):
        raise ValueError("mode must be 'certified' or 'point-estimate'")
    if mode == "certified" and d == 2 and n != 2:
        raise ValueError(f"2D certification needs spline degree n = 2, not "
                         f"{n}: its error bounds are third order")
    check_degree(n)


def _check_memory(h: float, footprint: dict) -> None:
    """OversizedMeshError where a footprint exceeds the memory available."""
    available = _mem_available()
    if available is not None and footprint["total"] > available:
        raise OversizedMeshError(h, footprint, available)


def check_spec_size(spec: str, mode: str, n: int, Js: list[int]) -> None:
    """_setup's first refusals of a solve of an alphabet spec on the finest
    of the meshes Js (J subintervals each), before the spec is expanded.
    Its largest item (maps.largest_item, a lower bound on its letter
    count) stands for the alphabet, and half the points for the kept ones
    (a folded 2D mesh keeps at least half): a footprint no larger than the
    alphabet's, so a mesh refused here would be refused in _setup."""
    d, letters = largest_item(spec)
    _check_method(mode, d, n)
    J = max(Js)
    shape = _sample_shape(d, J, n)
    N = math.prod(shape)
    if letters:  # else the parse refuses the empty alphabet
        _check_memory(1.0 / J, rows_footprint(shape, n, letters,
                                              N if d == 1 else N // 2))


def _setup(config: SolveConfig):
    """Mesh, rigor profile and the guards every entry point shares.

    Raises ValueError for an unknown mode or a degree other than 2 and 4,
    OversizedMeshError, before anything of the mesh is allocated, when the
    operator's footprint exceeds the memory available, and
    InadmissibleMeshError when h exceeds the admissible bound (only a point
    estimate may pass unsafe_h to go on); in certified mode also ValueError
    for a 2D degree other than 2 (its error bounds are third order), and
    CertificationError when M' >= M or err >= 1.  A certified solve then
    builds its seed engine (_seed_engine), which lowers s_cap to just above
    s_hat, where log lam crosses 0 on the seed mesh (_crossings on
    [S_FLOOR, d], to 1e-6 in s), before the guards that need the cap: a
    lower cap shrinks err and M'.  Returns (J, profile, geometry,
    breakdown, constants, err, (seed, s_hat)), err 0 for a point estimate,
    seed and s_hat the seed engine, which the solve goes on probing, and
    its crossing (None for a point estimate).
    """
    alphabet = config.alphabet
    certified = config.mode == "certified"
    _check_method(config.mode, alphabet.d, config.n)
    J = config.resolve_mesh()
    h = 1.0 / J
    _check_memory(h, _footprint(alphabet, J, config.n))
    geometry = make_geometry(alphabet.d, J, config.n)

    def profile_at(s_cap):
        return _once(make_profile, alphabet, config.n, s_cap, config.alpha,
                     config.beta, config.M)

    profile = profile_at(config.s_cap)
    seed = s_hat = None
    if certified:
        seed = _seed_engine(alphabet, profile)
        (s_hat,), _ = _crossings(seed, (0.0,), S_FLOOR, float(alphabet.d), 1e-6)
        profile = profile_at(min(profile.s_cap, s_hat + 1e-3))
    breakdown = dict(_once(admissible_h, profile, alphabet))
    padded = (_padding(config.n)
              if alphabet.d == 1 and 1 in alphabet.letters else 0)
    # the exact 1/J against each rounded-down bound, and strictly below the
    # exact 1/max component and 1/padded
    admissible = (Fraction(1, J) <= Fraction(breakdown["overall"])
                  and J > max(alphabet.max_component, padded))
    if not admissible and (certified or not config.unsafe_h):
        if J <= padded:
            breakdown = dict(breakdown, padding=1.0 / padded,
                             overall=min(breakdown["overall"], 1.0 / padded))
        raise InadmissibleMeshError(h, breakdown)
    constants = {
        "K": profile.K, "A": profile.A, "B": profile.B, "D": profile.D,
        "M": profile.M, "alpha": profile.alpha, "beta": profile.beta,
        "C1": profile.C1, "C2": profile.C2, "s_cap": profile.s_cap,
        "err_coeff": profile.err_coefficient,
    }
    err = 0.0
    if certified:
        m_prime = constants["M_prime"] = cone_image_parameter(profile, h)
        if not m_prime < profile.M:
            raise CertificationError(
                f"image cone parameter M' = {m_prime:.6g} is not below M = {profile.M}")
        err = profile.err(h)
        if err >= 1:
            raise CertificationError(f"err = {err:.6g} >= 1: mesh too coarse")
    return J, profile, geometry, breakdown, constants, err, (seed, s_hat)


def solve_dimension(config: SolveConfig, *,
                    rung: Rung | None = None) -> DimensionBracket:
    """The certified bracket, or the point estimate, of config.

    The search interval is [S_FLOOR, d], capped at s_cap in certified mode
    (no certified probe lies above the cap, up to which M holds), where
    _setup first lowers the cap to just above the seed mesh's crossing of
    0.  Every solve climbs one ladder: a rung holds the crossings of the
    solve's levels (where a converged fine probe's lam_lo and lam_hi reach
    1, or 0 for a point estimate), which _crossings finds in its _step's
    window to max(tol / 4, 1e-15 max(1, b)), and sigma, their slope
    (_secant of two crossings, _slope at one).  The bottom rung is the one
    given (a study's previous mesh), else the seed mesh, which a point
    estimate builds only when its mesh is finer; J // SEARCH_COARSENING
    follows where it is finer, its probes converged to max(sigma tol / 4,
    POWER_TOL), then the fine mesh.  There a certified solve proves each
    endpoint by _bisect from its moved prediction, the first s_hi probe
    started from the last iterate times the ratio of the coarse ones; a
    point estimate's fine mesh is one more rung, to max(tol, 4 ulp of its
    window's top), whose crossing is s_h.  The record's search block is
    filled exactly when the solve climbed from the seed mesh.  A cap below
    the dimension, or a point estimate's lam > 1 at d, ends in the straddle
    test's ValueError, never in a wrong bracket.  Where lam_lo < 1 (lam <=
    1) already at S_FLOOR, s_lo, or the point estimate, is 0.
    """
    t0 = time.perf_counter()
    tol = config.resolve_tol()
    certified = config.mode == "certified"
    if certified and rung is not None:
        raise ValueError("only a point estimate takes a rung")
    J, profile, geometry, breakdown, constants, err, (seed, s_hat) = \
        _setup(config)
    alphabet, d = config.alphabet, config.alphabet.d
    a, b = S_FLOOR, (min(float(d), profile.s_cap) if certified else float(d))
    # where (1 -/+ err)(1 -/+ FLOAT_SLACK) lam = 1
    levels = ((-math.log1p(-err) - math.log1p(-FLOAT_SLACK),
               -math.log1p(err) - math.log1p(FLOAT_SLACK)) if certified
              else (0.0,))
    if not certified and rung is None:
        seed = _seed_engine(alphabet, profile, J)

    def climb(engine, window, prior, eps=max(tol / 4, 1e-15 * max(1.0, b))):
        """The rung of engine's mesh, from its crossings (_crossings)."""
        found, iterates = _crossings(engine, levels, a, b, eps, window)
        sigma = (_secant(*zip(found, levels)) if certified
                 else _slope(engine, found[0], prior))
        return Rung(engine.cache.geometry, iterates[0], found, sigma), iterates

    search, cache = None, None
    if seed is not None:
        rung, iterates = climb(seed, None, 0.0)
        search = {"J_s": round(1.0 / rung.geometry.h),
                  "s_hat": rung.crossings[0] if s_hat is None else s_hat,
                  "seed_lo": rung.crossings[0], "seed_hi": rung.crossings[-1],
                  "seed_probes": len(seed.records), "J_c": None,
                  "s_lo": None, "s_hi": None, "probes": 0}
        if J == search["J_s"]:
            cache = seed.cache  # the fine mesh is the seed mesh
        seed = None  # freed before the finer builds
    J_c = J // SEARCH_COARSENING
    if rung is not None and J_c > round(1.0 / rung.geometry.h):
        mid = make_geometry(d, J_c, profile.n)
        engine, _, _, window = _step(
            rung, mid, lambda start: ProbeEngine(
                OperatorCache(alphabet, mid), profile, 0.0, start=start,
                tol=max(rung.sigma * tol / 4, POWER_TOL)),
            levels[0], a, b, tol)
        rung, iterates = climb(engine, window, rung.sigma)
        if search is not None:
            search.update(J_c=J_c, probes=len(engine.records))
        engine = None  # freed before the fine build

    def build(start=None):
        return ProbeEngine(cache or OperatorCache(alphabet, geometry),
                           profile, err, start)

    engine, guesses, shift, window = (
        (build(), None, None, (a, b)) if rung is None
        else _step(rung, geometry, build, levels[0], a, b, tol))
    if search is not None:
        search.update(s_lo=rung.crossings[0], s_hi=rung.crossings[-1],
                      shift=shift)
    if certified:
        s_lo = _bisect(lambda s: engine.probe(s)["lam_lo"] >= 1.0, a, b, tol,
                       guesses[0])[0]
        if engine.records[s_lo]["lam_lo"] < 1.0:
            s_lo = 0.0  # not even the floor lies below the dimension
        engine.warm = engine.warm * _prolong(iterates[1] / iterates[0],
                                             rung.geometry, geometry)
        s_hi = _bisect(lambda s: engine.probe(s)["lam_hi"] > 1.0, a, b, tol,
                       guesses[1])[1]
        rung = None
        engine.audit_monotonicity()
    else:
        rung, _ = climb(engine, window, rung.sigma if rung else 0.0,
                        max(tol, 4.0 * math.ulp(window[1])))
        s_lo = s_hi = rung.crossings[0]
        if s_lo == a and engine.probe(a)["lam"] <= 1.0:
            s_lo = s_hi = 0.0  # not even the floor lies below the dimension
        elif s_lo == b and engine.probe(b)["lam"] > 1.0:
            raise _straddle_missed(b)
    return DimensionBracket(
        s_lo=s_lo, s_hi=s_hi, mode=config.mode, h=1.0 / J, n=config.n, d=d,
        alphabet=alphabet.describe(), err=err,
        probes=[engine.records[k] for k in sorted(engine.records)],
        constants=constants, admissibility=breakdown, search=search,
        wall_ms=(time.perf_counter() - t0) * 1000.0, rung=rung)


def convergence_study(config: SolveConfig, h_list,
                      reference: float | None = None) -> list[dict]:
    """Point-estimate s_h across meshes, with deltas and empirical orders.

    Unless config.tol_s is set, each s_h is the midpoint of a 4-ulp bracket
    of its mesh's log lam = 0 (the point-estimate default): at fine meshes
    the deltas are a few ulp.  Each mesh is one solve_dimension, and from
    the second on its ladder starts from the previous mesh's rung (see
    solve_dimension); every s_h still brackets its own mesh's crossing.
    Each row counts the unique probes of its solve's own (fine) mesh.

    With a reference value: delta_i = |s_i - ref| and rate_i =
    log2(delta_{i-1}/delta_i).  Without: delta_i = |s_i - s_{i-1}| and the
    same log-ratio of successive deltas (needs >= 3 meshes)."""
    h_list = list(h_list)
    if reference is not None and not math.isfinite(reference):
        raise ValueError(f"reference = {reference!r} is not a finite number")
    if reference is None and len(h_list) < 3:
        raise ValueError("Richardson-style rates need at least 3 meshes")
    rows, rung = [], None
    for h in h_list:
        cfg = replace(config, h=float(h), mode="point-estimate", unsafe_h=True)
        b = solve_dimension(cfg, rung=rung)
        rung = b.rung
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
