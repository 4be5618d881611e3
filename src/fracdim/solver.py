"""Dimension solver: mesh validation, eigenvalue bracketing across s, and
bisection to a certified dimension interval.

Certified mode scales the collocation matrix L_h(s) by (1 -/+ err) into the
pair (A_h, B_h); the cone bracket of A_h below 1 certifies s >= s*, that of
B_h above 1 certifies s <= s*.  Two independent bisections locate the
endpoints.  Point-estimate mode sets err = 0 and bisects the eigenvalue
estimate itself (what convergence tables measure).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .assembly import OperatorCache
from .bspline import TensorGrid, make_uniform_knots
from .constants import (RigorProfile, admissible_h, cone_image_parameter,
                        make_profile)
from .maps import Alphabet
from .spectral import (cone_membership, power_iteration, scaled_bracket,
                       spectral_bracket)


class InadmissibleMeshError(RuntimeError):
    def __init__(self, h: float, breakdown: dict[str, float]):
        self.h = h
        self.breakdown = breakdown
        msg = ", ".join(f"{k}: {v:.6g}" for k, v in breakdown.items())
        super().__init__(f"h = {h:.6g} exceeds the admissible bound "
                         f"{breakdown['overall']:.6g} ({msg})")


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
    J: int | None = None
    mode: str = "certified"  # certified | point-estimate
    tol_s: float | None = None
    s_min: float = 1e-6
    s_max: float | None = None
    s_cap: float | None = None
    alpha: float | None = None
    beta: float | None = None
    M: float | None = None
    unsafe_h: bool = False
    mesh: str = "intervals"  # intervals | nodes

    def resolve_mesh(self) -> int:
        """Number of subintervals J, from J or an exact-reciprocal h.

        mesh='intervals' reads h = 1/J exactly; mesh='nodes' reads 1/h as the
        number of mesh NODES, i.e. J = 1/h - 1 subintervals (the convention
        of linspace-style grids, used by the published-table reproductions).
        """
        if self.mesh not in ("intervals", "nodes"):
            raise ValueError("mesh must be 'intervals' or 'nodes'")
        if self.J is not None:
            if self.h is not None and abs(self.h * self.J - 1.0) > 1e-9:
                raise ValueError("h and J disagree")
            return self.J
        if self.h is None:
            raise ValueError("one of h or J is required")
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
            return self.tol_s
        if self.mode == "point-estimate":
            return 0.0
        return 1e-14 if self.alphabet.d == 1 else 1e-10


@dataclass(frozen=True)
class DimensionBracket:
    s_lo: float
    s_hi: float
    mode: str
    h: float
    n: int
    d: int
    alphabet: str
    err: float
    probes: list
    constants: dict
    admissibility: dict
    wall_ms: float
    first_pass: "DimensionBracket | None" = field(default=None, repr=False)

    @property
    def width(self) -> float:
        return self.s_hi - self.s_lo

    def to_record(self) -> dict:
        rec = {
            "alphabet": self.alphabet,
            "d": self.d,
            "n": self.n,
            "h": self.h,
            "mode": self.mode,
            "s_lo": self.s_lo,
            "s_hi": self.s_hi,
            "err": self.err,
            "probes": self.probes,
            "constants": self.constants,
            "admissibility": self.admissibility,
            "wall_ms": self.wall_ms,
        }
        if self.first_pass is not None:
            rec["first_pass"] = self.first_pass.to_record()
        return rec


class ProbeEngine:
    """Caches probes by s and warm-starts power iteration across probes.

    The warm start is pure acceleration: the cone bracket is valid at any
    positive iterate, and the probe sequence is deterministic from the
    config, so results stay reproducible.

    With `decide` set, each probe stops power iteration at the first iterate
    whose scaled bracket [lam_lo, lam_hi] excludes 1 (a "decided" record).
    Such a record answers both certified predicates, lam_lo >= 1 and
    lam_hi > 1, so a cached one serves either bisection as it stands.
    """

    def __init__(self, cache: OperatorCache, profile: RigorProfile, err: float,
                 check_cone: bool, decide: bool = False):
        self.cache = cache
        self.profile = profile
        self.err = err
        self.check_cone = check_cone
        self.decide = decide
        self.records: dict[float, dict] = {}
        self._warm = None

    def probe(self, s: float) -> dict:
        s = float(s)
        if s in self.records:
            return self.records[s]
        m = self.cache.matrix(s)
        res = power_iteration(m, start=self._warm,
                              decide_err=self.err if self.decide else None)
        self._warm = res.w
        cone = cone_membership(res.w, self.cache.geometry, self.profile.M)
        if self.check_cone and not cone.member:
            raise CertificationError(
                f"eigenvector left the cone at s = {s}: adjacent log ratio "
                f"{cone.adjacent_ratio_max:.6g} > M = {self.profile.M}")
        br = spectral_bracket(m, res.w, res.iterations, y=res.y)
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


def _bisect(above, a: float, b: float, tol: float) -> tuple[float, float]:
    """Shrink [a, b] around the point where the predicate `above` (true
    below the dimension) turns false, to width tol or adjacent doubles.

    Returns (a, a) when `above(a)` is already false: the dimension is at or
    below the search floor.  Raises ValueError when `above(b)` still holds.
    """
    if not above(a):
        return a, a
    if above(b):
        raise ValueError(f"search interval does not straddle the dimension: "
                         f"still below it at s = {b}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if above(mid):
            a = mid
        else:
            b = mid
    return a, b


def _setup(config: SolveConfig):
    """Mesh, rigor profile and the guards every entry point shares.

    Raises InadmissibleMeshError when h exceeds the admissible bound (only a
    point estimate may pass unsafe_h to go on), and, in certified mode,
    ValueError for a 2D degree other than 2 (its error bounds are third
    order) and for s_max above s_cap (the constants hold only up to s_cap),
    and CertificationError when M' >= M or err >= 1.
    Returns (h, profile, geometry, breakdown, constants, err).
    """
    alphabet = config.alphabet
    certified = config.mode == "certified"
    if certified and alphabet.d == 2 and config.n != 2:
        raise ValueError(f"2D certification needs spline degree n = 2, not "
                         f"{config.n}: its error bounds are third order")
    J = config.resolve_mesh()
    h = 1.0 / J
    profile = make_profile(alphabet, n=config.n, s_cap=config.s_cap,
                           alpha=config.alpha, beta=config.beta, M=config.M)
    if certified and config.s_max is not None and config.s_max > profile.s_cap:
        raise ValueError(f"s_max = {config.s_max!r} exceeds s_cap = "
                         f"{profile.s_cap!r}: the certified constants hold "
                         "only up to s_cap")
    geometry = make_geometry(alphabet.d, J, config.n)
    breakdown = admissible_h(profile, alphabet)
    if h > breakdown["overall"] and (certified or not config.unsafe_h):
        raise InadmissibleMeshError(h, breakdown)
    constants = {
        "K": profile.K, "A": profile.A, "B": profile.B, "D": profile.D,
        "M": profile.M, "alpha": profile.alpha, "beta": profile.beta,
        "C1": profile.C1, "C2": profile.C2, "s_cap": profile.s_cap,
        "err_coeff": profile.err_coefficient,
    }
    err = 0.0
    if certified:
        m_prime = cone_image_parameter(profile, h)
        constants["M_prime"] = m_prime
        if m_prime >= profile.M:
            raise CertificationError(
                f"image cone parameter M' = {m_prime:.6g} is not below M = {profile.M}")
        err = profile.err(h)
        if err >= 1:
            raise CertificationError(f"err = {err:.6g} >= 1: mesh too coarse")
    return h, profile, geometry, breakdown, constants, err


def _engine(config: SolveConfig, cache: OperatorCache | None, profile,
            geometry, err: float, decide: bool = False) -> ProbeEngine:
    if cache is None:
        cache = OperatorCache(config.alphabet, geometry, profile.q)
    return ProbeEngine(cache, profile, err,
                       check_cone=config.mode == "certified", decide=decide)


def solve_dimension(config: SolveConfig,
                    engine: ProbeEngine | None = None) -> DimensionBracket:
    """Bisect to the bracket (certified) or point estimate of config.

    A given engine supplies its operator cache and its cached probes; it
    must have been built for this config's mesh, s cap, err, cone and mode.
    """
    t0 = time.perf_counter()
    h, profile, geometry, breakdown, constants, err = _setup(config)
    d = config.alphabet.d
    certified = config.mode == "certified"
    # only the certified bisections ask a yes/no question per probe; a point
    # estimate bisects on the converged eigenvalue itself
    if engine is None:
        engine = _engine(config, None, profile, geometry, err, decide=certified)
    elif ((engine.err, engine.profile.s_cap, engine.profile.M, engine.decide,
           engine.cache.geometry.h)
          != (err, profile.s_cap, profile.M, certified, geometry.h)):
        raise ValueError("the probe engine was built for another mesh, "
                         "s cap, err, cone or mode")
    tol = config.resolve_tol()
    s_min = config.s_min
    if config.s_max is not None:
        s_max = config.s_max
    else:
        s_max = min(float(d), profile.s_cap) if certified else float(d)
    if certified:
        s_lo = _bisect(lambda s: engine.probe(s)["lam_lo"] >= 1.0,
                       s_min, s_max, tol)[0]
        s_hi = _bisect(lambda s: engine.probe(s)["lam_hi"] > 1.0,
                       s_min, s_max, tol)[1]
    else:
        a, b = _bisect(lambda s: engine.probe(s)["lam"] >= 1.0,
                       s_min, s_max, tol)
        s_lo = s_hi = 0.5 * (a + b)
    engine.audit_monotonicity()
    probes = [engine.records[k] for k in sorted(engine.records)]
    return DimensionBracket(
        s_lo=s_lo, s_hi=s_hi, mode=config.mode, h=h, n=config.n, d=d,
        alphabet=config.alphabet.describe(), err=err, probes=probes,
        constants=constants, admissibility=breakdown,
        wall_ms=(time.perf_counter() - t0) * 1000.0)


def lambda_bracket(config: SolveConfig, s: float,
                   cache: OperatorCache | None = None) -> tuple[float, float]:
    """One probe: (lam_lo, lam_hi) bracketing the eigenvalue of the scaled
    pair at s, behind the same guards as solve_dimension (so a certified s
    may not exceed s_cap).  The power iteration runs to convergence, so the
    bracket is tight."""
    _, profile, geometry, _, _, err = _setup(replace(config, s_max=s))
    rec = _engine(config, cache, profile, geometry, err).probe(s)
    return rec["lam_lo"], rec["lam_hi"]


def two_step_refinement(config: SolveConfig) -> DimensionBracket:
    """Certified 2D solve in two passes.  Pass 1 bisects to 1e-6 under the
    given s cap; pass 2 bisects to the final tolerance with the cap lowered
    to just above pass 1's upper endpoint, which shrinks err (so it can only
    move s_lo up and s_hi down).

    When the cap does not drop, pass 2 has pass 1's err and cone, so it
    continues pass 1's bisection on pass 1's engine: bisecting the same
    interval to the finer tolerance first visits pass 1's midpoints, all
    cached, and ends where a single pass would.  When the cap drops, pass 2
    probes on a new engine over the same operator cache (the mesh and degree
    do not change)."""
    if config.alphabet.d != 2:
        raise ValueError("two-step refinement applies to 2D systems")
    if config.mode != "certified":
        raise ValueError("two-step refinement is a certified-mode procedure")
    t0 = time.perf_counter()
    first_cfg = replace(config, tol_s=max(config.resolve_tol(), 1e-6))
    _, profile, geometry, _, _, err = _setup(first_cfg)
    engine = _engine(first_cfg, None, profile, geometry, err, decide=True)
    first = solve_dimension(first_cfg, engine)
    s_cap_2 = min(profile.s_cap, first.s_hi + 1e-3)
    second_cfg = config
    if s_cap_2 < profile.s_cap:
        second_cfg = replace(config, s_cap=s_cap_2, s_min=first.s_lo,
                             s_max=s_cap_2)
        _, profile, _, _, _, err = _setup(second_cfg)
        engine = _engine(second_cfg, engine.cache, profile, geometry, err,
                         decide=True)
    second = solve_dimension(second_cfg, engine)
    return replace(second, first_pass=first,
                   wall_ms=(time.perf_counter() - t0) * 1000.0)


def convergence_study(config: SolveConfig, h_list,
                      reference: float | None = None) -> list[dict]:
    """Point-estimate s_h across meshes, with deltas and empirical orders.

    Unless config.tol_s is set, each s_h is bisected down to adjacent
    doubles (the point-estimate default): at fine meshes the deltas are a
    few ulp.

    With a reference value: delta_i = |s_i - ref| and rate_i =
    log2(delta_{i-1}/delta_i).  Without: delta_i = |s_i - s_{i-1}| and the
    same log-ratio of successive deltas (needs >= 3 meshes)."""
    h_list = list(h_list)
    if reference is None and len(h_list) < 3:
        raise ValueError("Richardson-style rates need at least 3 meshes")
    rows = []
    for h in h_list:
        cfg = replace(config, h=float(h), J=None, mode="point-estimate",
                      unsafe_h=True)
        b = solve_dimension(cfg)
        rows.append({"h": float(h), "s_h": b.s_lo, "delta": None, "rate": None,
                     "wall_ms": b.wall_ms})
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
