"""Mesh resolution, bisection against dense-eigensolver oracles, certified
brackets, and convergence studies."""
import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fracdim import solver
from fracdim.assembly import OperatorCache, TransferOperator
from fracdim.bspline import TensorGrid
from fracdim.cli import EXIT_INADMISSIBLE, run
from fracdim.constants import make_profile
from fracdim.maps import make_alphabet_1d, make_alphabet_2d, parse_alphabet
from fracdim.solver import (S_FLOOR, CertificationError,
                            InadmissibleMeshError, MonotonicityError,
                            ProbeEngine, SolveConfig, _bisect,
                            convergence_study, make_geometry,
                            operator_footprint, solve_dimension)
from fracdim.spectral import ConeCertificate, FLOAT_SLACK, scaled_bracket
from oracles import ConvergedProbes, tocsr

A12 = make_alphabet_1d([1, 2])
A2D = make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)])
REF_1D = 0.531280506277205


@contextmanager
def counting_matvecs():
    """Count operator applications inside the block into the yielded list."""
    calls = []
    matmul = TransferOperator.__matmul__

    def counted(op, v):
        calls.append(1)
        return matmul(op, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransferOperator, "__matmul__", counted)
        yield calls


@contextmanager
def recording_operators():
    """Collect every operator L_h(s) built inside the block."""
    ops = []
    matrix = OperatorCache.matrix

    def recorded(cache, s):
        ops.append(matrix(cache, s))
        return ops[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(OperatorCache, "matrix", recorded)
        yield ops


def converging_probes(alphabet, J):
    """Certified probes run to convergence: the (1 -/+ err)-scaled bracket
    of the converged iterate, with no early stop."""
    profile = make_profile(alphabet)
    cache = OperatorCache(alphabet, make_geometry(alphabet.d, J, 2))
    return ConvergedProbes(cache, profile.M, profile.err(1.0 / J))


def dense_rho(cache, s):
    m = tocsr(cache.matrix(s)).toarray()
    return float(np.abs(np.linalg.eigvals(m)).max())


class TestGeometry:
    def test_1d(self):
        g = make_geometry(1, 16, 2)
        assert isinstance(g, TensorGrid) and g.d == 1
        assert g.h == pytest.approx(1.0 / 16)
        # [0, 1] padded by n subintervals past x = 1
        x, = g.axes
        assert (x.domain_lo, x.domain_hi) == (0.0, pytest.approx(1.125))

    def test_2d(self):
        g = make_geometry(2, 8, 2)
        assert isinstance(g, TensorGrid)
        # x padded past 1 only, y padded past both edges of [-1/2, 1/2]
        assert g.axes[0].knots[2] == 0.0
        assert g.axes[0].domain_hi == pytest.approx(1.25)
        assert g.axes[1].knots[2 + 2] == -0.5
        assert g.axes[1].knots[2 + 2 + 8] == pytest.approx(0.5)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_geometry(3, 8, 2)


class TestResolveMesh:
    def test_from_J(self):
        assert SolveConfig(A12, J=50).resolve_mesh() == 50

    def test_from_h_intervals(self):
        assert SolveConfig(A12, h=1.0 / 50).resolve_mesh() == 50

    def test_from_h_nodes(self):
        assert SolveConfig(A12, h=1.0 / 50, mesh="nodes").resolve_mesh() == 49

    def test_h_J_consistency(self):
        assert SolveConfig(A12, h=0.02, J=50).resolve_mesh() == 50
        with pytest.raises(ValueError):
            SolveConfig(A12, h=0.02, J=51).resolve_mesh()

    def test_non_reciprocal_h(self):
        with pytest.raises(ValueError):
            SolveConfig(A12, h=0.03).resolve_mesh()

    def test_nodes_degenerate(self):
        with pytest.raises(ValueError):
            SolveConfig(A12, h=1.0, mesh="nodes").resolve_mesh()

    def test_missing_both(self):
        with pytest.raises(ValueError):
            SolveConfig(A12).resolve_mesh()

    def test_bad_mesh_name(self):
        with pytest.raises(ValueError):
            SolveConfig(A12, J=10, mesh="cells").resolve_mesh()

    @pytest.mark.parametrize("J", [0, -3])
    def test_no_subintervals(self, J):
        # J = 0 reached h = 1.0 / J in _setup as a ZeroDivisionError
        with pytest.raises(ValueError, match="positive number of subintervals"):
            SolveConfig(A12, J=J).resolve_mesh()
        with pytest.raises(ValueError, match="positive number of subintervals"):
            solve_dimension(SolveConfig(A12, J=J))


class TestResolveTol:
    def test_defaults(self):
        assert SolveConfig(A12, J=10, mode="point-estimate").resolve_tol() == 0.0
        assert SolveConfig(A12, J=10).resolve_tol() == 1e-14
        assert SolveConfig(A2D, J=10).resolve_tol() == 1e-10

    def test_explicit(self):
        assert SolveConfig(A12, J=10, tol_s=1e-6).resolve_tol() == 1e-6

    @pytest.mark.parametrize("tol_s", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_refused(self, tol_s):
        # `b - a > nan` is false, so a NaN width ended the bisection at once
        # and returned the search interval's midpoint or ends
        cfg = SolveConfig(A12, J=64, tol_s=tol_s)
        with pytest.raises(ValueError, match="tol_s"):
            cfg.resolve_tol()
        with pytest.raises(ValueError, match="tol_s"):
            solve_dimension(cfg)


class TestPointEstimateOracle:
    def test_1d_matches_dense_bisection(self):
        J = 16
        cfg = SolveConfig(A12, J=J, mode="point-estimate", unsafe_h=True)
        b = solve_dimension(cfg)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        s_oracle = brentq(lambda s: dense_rho(cache, s) - 1.0, 0.3, 0.8,
                          xtol=1e-14)
        assert b.s_lo == b.s_hi
        assert b.s_lo == pytest.approx(s_oracle, abs=1e-10)

    def test_2d_matches_dense_bisection(self):
        J = 8
        cfg = SolveConfig(A2D, J=J, mode="point-estimate", unsafe_h=True)
        b = solve_dimension(cfg)
        cache = OperatorCache(A2D, make_geometry(2, J, 2))
        s_oracle = brentq(lambda s: dense_rho(cache, s) - 1.0, 0.9, 1.4,
                          xtol=1e-13)
        assert b.s_lo == pytest.approx(s_oracle, abs=1e-9)

    def test_estimate_resolves_to_adjacent_doubles(self):
        # the discrete root at 1/3200 nodes is 0.53128050627720421 (an 80-bit
        # rebuild of the same operator); bisecting only to 1e-15 returned the
        # midpoint 0.5312805062772044, 2 ulp above it
        b = solve_dimension(SolveConfig(A12, h=1.0 / 3200, mesh="nodes",
                                        mode="point-estimate"))
        assert b.s_lo == b.s_hi == 0.5312805062772041

    def test_deterministic(self):
        cfg = SolveConfig(A12, J=32, mode="point-estimate", unsafe_h=True)
        assert solve_dimension(cfg).s_lo == solve_dimension(cfg).s_lo


class TestCertified:
    def test_bracket_contains_reference(self):
        # h = 1/64 is admissible for this alphabet (bound ~0.0215)
        cfg = SolveConfig(A12, J=64, tol_s=1e-8)
        b = solve_dimension(cfg)
        assert b.mode == "certified"
        assert b.err == pytest.approx(162.0 / 64 ** 3, rel=1e-12)
        assert b.s_lo <= REF_1D <= b.s_hi
        assert b.width < 5e-3

    def test_bracket_tightens_with_mesh(self):
        w = []
        for J in (64, 128):
            b = solve_dimension(SolveConfig(A12, J=J, tol_s=1e-9))
            assert b.s_lo <= REF_1D <= b.s_hi
            w.append(b.width)
        assert w[1] < w[0] / 4  # err shrinks cubically

    def test_inadmissible_mesh_rejected(self):
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, J=25))
        # certified mode enforces admissibility even with unsafe_h
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, J=25, unsafe_h=True))

    def test_2d_degree_other_than_2_refused(self):
        # the 2D error bounds are third order, i.e. valid for n = 2 only;
        # the refusal comes before the admissibility check
        with pytest.raises(ValueError, match="needs spline degree n = 2"):
            solve_dimension(SolveConfig(A2D, J=30, n=4))

    def test_point_estimate_needs_unsafe_for_coarse(self):
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, J=25, mode="point-estimate"))
        b = solve_dimension(SolveConfig(A12, J=25, mode="point-estimate",
                                        unsafe_h=True))
        assert 0.5 < b.s_lo < 0.56

    def test_record_shape(self):
        b = solve_dimension(SolveConfig(A12, J=64, tol_s=1e-6))
        rec = b.to_record()
        assert list(rec) == ["alphabet", "d", "n", "h", "mode", "s_lo",
                             "s_hi", "err", "probes", "constants",
                             "admissibility", "search", "wall_ms"]
        # J // SEARCH_COARSENING = 16 is below COARSE_J: no coarse search
        assert rec["search"] is None
        assert rec["alphabet"] == "1,2"
        assert rec["constants"]["M"] == 36.0
        assert rec["constants"]["M_prime"] < 36.0
        assert all(p["lam_lo"] <= p["lam"] <= p["lam_hi"] for p in rec["probes"])


class TestEarlyDecision:
    """Probes on a certifiable mesh (h admissible, M' < M) stop power
    iteration once the scaled bracket answers both bisection predicates, in
    either mode; probes on any other mesh run to convergence."""

    @pytest.fixture(scope="class")
    def table2(self, tmp_path_factory):
        # the certified {1,2} solve at h = 1e-5 (nodes), through the CLI,
        # counting operator applications
        out = tmp_path_factory.mktemp("table2") / "out.json"
        with counting_matvecs() as calls:
            assert run(["certify", "--reproduce", "table2",
                        "--out", str(out)]) == 0
        return json.loads(out.read_text()), len(calls)

    def test_table2_endpoints_unchanged(self, table2):
        # within tol_s = 1e-14 of the endpoints a bisection from S_FLOOR
        # found; the search now places the fine probes, so the last bits
        # differ (0.5312805062762808, 0.5312805062781295)
        rec, _ = table2
        assert abs(rec["s_lo"] - 0.5312805062762838) <= 1e-14
        assert abs(rec["s_hi"] - 0.5312805062781312) <= 1e-14
        assert rec["search"]["J_c"] == 99999 // solver.SEARCH_COARSENING

    def test_table2_matvecs(self, table2):
        # running every probe to convergence, with a second product for the
        # bracket, took 913; stopping at the decision takes 133.  No probe
        # lands between s_lo and s_hi (2e-12 apart), so the zone stop leaves
        # the count as it is
        _, matvecs = table2
        assert matvecs < 913 / 2

    def test_records_converged_or_decided(self, table2):
        rec, _ = table2
        assert any(p["decided"] for p in rec["probes"])
        for p in rec["probes"]:
            assert not (p["converged"] and p["decided"])
            if p["decided"]:
                lo_top, hi_bot = scaled_bracket(p["beta"], p["alpha"],
                                                rec["err"])
                assert (p["lam_lo"] >= 1.0 or p["lam_hi"] <= 1.0
                        or lo_top < 1.0 < hi_bot)
            else:
                assert p["converged"]

    def test_zone_stop_matches_converged_bisection(self):
        # {1,2} at J = 64: both bisections, once with probes that stop at
        # the decision and once with every probe run to convergence
        J, tol = 64, 1e-14
        profile = make_profile(A12)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        err = profile.err(1.0 / J)
        ends, matvecs, records = [], [], []
        engine = ProbeEngine(cache, profile, err, certifiable=True)
        converged = ConvergedProbes(cache, profile.M, err)
        for probe, recs in ((engine.probe, engine.records),
                            (converged, converged.records)):
            with counting_matvecs() as calls:
                s_lo = _bisect(lambda s: probe(s)["lam_lo"] >= 1.0,
                               1e-6, 1.0, tol)[0]
                s_hi = _bisect(lambda s: probe(s)["lam_hi"] > 1.0,
                               1e-6, 1.0, tol)[1]
            ends.append((s_lo, s_hi))
            matvecs.append(len(calls))
            records.append(recs)
        assert ends[0] == ends[1]
        assert all(r["member"] for r in records[1].values())
        assert records[0].keys() == records[1].keys()
        assert any(r["decided"] and r["lam_lo"] < 1.0 < r["lam_hi"]
                   for r in records[0].values())
        # the zone stop takes 176; stopping only outside [s_lo, s_hi] took
        # 561, converging took 1425
        assert matvecs[0] <= 250 < matvecs[1]

    def test_audit_passes_on_decided_records(self):
        J = 64
        profile = make_profile(A12)
        engine = ProbeEngine(OperatorCache(A12, make_geometry(1, J, 2)),
                             profile, profile.err(1.0 / J),
                             certifiable=True)
        for s in np.linspace(0.3, 0.8, 11):
            engine.probe(s)
        recs = list(engine.records.values())
        assert all(r["decided"] and not r["converged"] for r in recs)
        engine.audit_monotonicity()

    def test_lambda_bracket_converges(self):
        # far below the dimension even the first iterate decides the probe;
        # a converging probe must still return the converged, tight bracket
        err = make_profile(A12).err(1.0 / 64)
        rec = converging_probes(A12, 64)(0.4)
        lo, hi = rec["lam_lo"], rec["lam_hi"]
        alpha = lo / ((1 - err) * (1 - FLOAT_SLACK))
        beta = hi / ((1 + err) * (1 + FLOAT_SLACK))
        assert lo > 1.0
        # power_iteration's default tolerance is 1e-14
        assert 0.0 <= beta - alpha <= 10 * 1e-14 * alpha

    @pytest.mark.parametrize("alphabet, J", [(A12, 64),
                                             (make_alphabet_1d(range(1, 35)), 100)],
                             ids=["12-J64", "1..34-J100"])
    def test_point_estimate_decides_on_admissible_mesh(self, alphabet, J):
        # a point estimate bisects on lam >= 1 with decided probes, and ends
        # where the same bisection over converged probes ends.  Bisecting to
        # adjacent doubles, the last steps read the last bits of converged
        # eigenvalues, which depend on the warm start ({1,2} moves by 1 ulp)
        tol = 1e-14
        b = solve_dimension(SolveConfig(alphabet, J=J, mode="point-estimate",
                                        tol_s=tol))
        assert any(p["decided"] for p in b.probes)
        assert all(p["decided"] != p["converged"] for p in b.probes)
        probe = ConvergedProbes(OperatorCache(alphabet, make_geometry(1, J, 2)),
                                make_profile(alphabet).M)
        lo, hi = _bisect(lambda s: probe(s)["lam"] >= 1.0, S_FLOOR, 1.0, tol)
        assert b.s_lo == 0.5 * (lo + hi)
        for p in b.probes:
            if p["decided"]:
                assert (p["lam"] >= 1.0) == (probe(p["s"])["lam"] >= 1.0)

    @staticmethod
    def no_iterate_in_cone(monkeypatch):
        def outside(w, geometry, M):
            return ConeCertificate(M=M, d=geometry.d, h=geometry.h,
                                   adjacent_ratio_max=np.inf, member=False)

        monkeypatch.setattr("fracdim.solver.cone_membership", outside)

    def test_point_estimate_checks_cone_on_admissible_mesh(self, monkeypatch):
        self.no_iterate_in_cone(monkeypatch)
        with pytest.raises(CertificationError, match="left the cone"):
            solve_dimension(SolveConfig(A12, J=64, mode="point-estimate"))

    @pytest.mark.parametrize("cfg", [
        SolveConfig(A12, J=25, mode="point-estimate", unsafe_h=True),
        SolveConfig(A12, J=64, mode="point-estimate", M=2.0),
    ], ids=["unsafe-h", "M-override"])
    def test_point_estimate_converges_unchecked_otherwise(self, cfg,
                                                          monkeypatch):
        # at an inadmissible h, or with M' >= M (M = 2 gives M' = 33.2),
        # no iterate is held to the cone and every probe converges
        self.no_iterate_in_cone(monkeypatch)
        b = solve_dimension(cfg)
        assert all(p["converged"] and not p["decided"] for p in b.probes)


class TestOperatorForm:
    """Every probe applies the one stacked G, weighted per probe."""

    def test_certified_solve_never_writes_G(self):
        # at J = 128 a certified solve also probes its J // 4 search mesh,
        # whose operators share their own G
        for mode in ("certified", "point-estimate"):
            with recording_operators() as ops:
                solve_dimension(SolveConfig(A12, J=128, mode=mode))
            meshes = {op.shape[0]: op.G for op in ops}
            assert len(meshes) == (2 if mode == "certified" else 1)
            assert all(op.G is meshes[op.shape[0]] for op in ops)


class TestLambdaBracket:
    """The scaled eigenvalue bracket (lam_lo, lam_hi) of one converged
    certified probe, and the guards a certified solve applies first."""

    def test_straddles_unity_across_dimension(self):
        probe = converging_probes(A12, 64)
        assert probe(0.4)["lam_lo"] > 1.0
        assert probe(0.65)["lam_hi"] < 1.0

    def test_contains_dense_eigenvalue(self):
        s = 0.53
        probe = converging_probes(A12, 64)
        rec = probe(s)
        assert rec["member"]
        rho = dense_rho(probe.cache, s)
        err = 162.0 / 64 ** 3
        assert rec["lam_lo"] <= rho * (1 - err) * (1 + 1e-12)
        assert rec["lam_hi"] >= rho * (1 + err) * (1 - 1e-12)

    def test_certified_ignores_unsafe_h(self):
        # unsafe_h lets only point estimates through an inadmissible mesh
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, J=25, unsafe_h=True))

    def test_image_cone_guard(self):
        # h = 1/64 is admissible, but M = 2 gives M' = 33.2 >= M
        with pytest.raises(CertificationError, match="M' = 33.1"):
            solve_dimension(SolveConfig(A12, J=64, M=2.0))


class TestBisectionEdges:
    """Search floor and ceiling of the three bisections: certified s_lo
    (on lam_lo), certified s_hi (on lam_hi) and the point estimate, each
    asked of the probes as solve_dimension asks it ({1,2} at J = 64)."""

    @staticmethod
    def above(endpoint):
        J = 64
        profile = make_profile(A12)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        if endpoint == "point":
            engine = ProbeEngine(cache, profile, 0.0, certifiable=True)
            return lambda s: engine.probe(s)["lam"] >= 1.0
        engine = ProbeEngine(cache, profile, profile.err(1.0 / J),
                             certifiable=True)
        if endpoint == "s_lo":
            return lambda s: engine.probe(s)["lam_lo"] >= 1.0
        return lambda s: engine.probe(s)["lam_hi"] > 1.0

    @pytest.mark.parametrize("endpoint", ["s_lo", "s_hi", "point"])
    def test_floor_above_dimension_is_returned(self, endpoint):
        assert _bisect(self.above(endpoint), 0.6, 1.0, 1e-8) == (0.6, 0.6)

    # REF_1D lies inside the certified bracket: lam_lo(REF_1D) < 1, so the
    # s_lo bisection passes, and lam_hi(REF_1D) > 1 stops the s_hi one
    @pytest.mark.parametrize("endpoint, ceiling",
                             [("s_lo", 0.5), ("s_hi", REF_1D), ("point", 0.5)])
    def test_ceiling_below_dimension_raises(self, endpoint, ceiling):
        with pytest.raises(ValueError, match="does not straddle"):
            _bisect(self.above(endpoint), S_FLOOR, ceiling, 1e-8)

    @pytest.mark.parametrize("guess", [0.2, 0.55, 0.9])
    @pytest.mark.parametrize("endpoint, ceiling",
                             [("s_lo", 0.5), ("s_hi", REF_1D), ("point", 0.5)])
    def test_guess_keeps_the_edges(self, endpoint, ceiling, guess):
        # from a guess anywhere (clamped to the interval) the floor and the
        # ceiling answer as they do without one
        assert _bisect(self.above(endpoint), 0.6, 1.0, 1e-8, guess) == \
            (0.6, 0.6)
        with pytest.raises(ValueError, match="does not straddle"):
            _bisect(self.above(endpoint), S_FLOOR, ceiling, 1e-8, guess)

    def test_ceiling_above_cap_refused(self):
        # the constants hold only up to s_cap = 0.7, below this set's
        # dimension 0.8368...: the certified search stops at the cap, so
        # it refuses instead of returning a bracket nothing certifies
        cfg = SolveConfig(make_alphabet_1d(range(1, 6)), J=4000, s_cap=0.7)
        with pytest.raises(ValueError, match="does not straddle"):
            solve_dimension(cfg)


class TestFootprint:
    """A mesh whose operator needs more memory than is available is refused
    before anything is built."""

    @pytest.fixture
    def no_builds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator was built")
        monkeypatch.setattr(OperatorCache, "__init__", refuse)

    def test_refused_before_any_build(self, monkeypatch, no_builds):
        # a certified 2D solve would build its cap estimate first
        need = operator_footprint(A2D, make_geometry(2, 500, 2))["total"]
        monkeypatch.setattr(solver, "_mem_available", lambda: need - 1)
        cfg = SolveConfig(alphabet=A2D, J=500, s_cap=1.15, alpha=0.2,
                          beta=0.2)
        with pytest.raises(solver.OversizedMeshError, match="MiB available"):
            solve_dimension(cfg)
        monkeypatch.setattr(solver, "_mem_available", lambda: need)
        with pytest.raises(AssertionError, match="an operator was built"):
            solve_dimension(cfg)

    def test_2400_estimate_and_refusal(self, monkeypatch, no_builds, capsys):
        # J = 2400: the bytes its cache would keep, counted here from N,
        # |E| and K without building it, are most of the estimate
        fp = operator_footprint(A2D, make_geometry(2, 2400, 2))
        rows = (2400 + 6) * (2400 + 8) * 4
        kept = rows * 9 * (8 + 4) + (rows + 1) * 4 + rows * 8
        assert fp["Gs"] + fp["lg"] == kept
        assert kept < fp["total"] < 1.3 * kept
        monkeypatch.setattr(solver, "_mem_available", lambda: 3 * 2**30)
        assert run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                    "--h", "1/2400", "--s-cap", "1.15", "--alpha", "0.2",
                    "--beta", "0.2"]) == EXIT_INADMISSIBLE
        err = capsys.readouterr().err
        assert "mesh too large" in err and "3072 MiB available" in err
        for part in fp:
            assert f"{part:>12}: {fp[part] / 2**20:.1f} MiB" in err

    def test_meminfo(self, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  8000 kB\nMemAvailable:  1024 kB\n")
        assert solver._mem_available(str(meminfo)) == 2**20
        meminfo.write_text("MemAvailable:  many kB\n")
        assert solver._mem_available(str(meminfo)) is None
        assert solver._mem_available(str(tmp_path / "missing")) is None

    def test_unreadable_meminfo_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(solver, "_mem_available", lambda: None)
        b = solve_dimension(SolveConfig(alphabet=A12, J=64,
                                        mode="point-estimate"))
        assert abs(b.s_lo - REF_1D) < 1e-6


class TestGuessedBisection:
    """_bisect from a guess on the monotone predicate s < t: it ends where
    a bisection from the ends does, in about two probes per doubling of the
    guess's distance from t."""

    A, B = 0.125, 0.875

    @staticmethod
    def threshold(t):
        probes = set()

        def above(s):
            probes.add(s)
            return s < t

        return above, probes

    def check(self, t, guess, tol, slack):
        above, probes = self.threshold(t)
        if t <= self.A:
            assert _bisect(above, self.A, self.B, tol, guess) == (self.A,
                                                                  self.A)
        elif t > self.B:
            with pytest.raises(ValueError, match="does not straddle the "
                               "dimension: still below it at s = 0.875$"):
                _bisect(above, self.A, self.B, tol, guess)
        else:
            lo, hi = _bisect(above, self.A, self.B, tol, guess)
            assert lo in probes and hi in probes
            assert lo < t <= hi and hi - lo <= tol
        budget = 2 * math.log2(max(abs(guess - t), tol) / tol) + 4
        assert len(probes) <= budget + slack

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 1.0), x=st.floats(0.0, 1.0),
           p=st.integers(4, 30))
    def test_dyadic_guess_within_budget(self, t, x, p):
        # tol = 2^-p and a guess on the 2^-(p+4) grid keep every widened
        # and bisected point exact, so the count is the algorithm's own
        tol, grid = 2.0 ** -p, 2.0 ** -(p + 4)
        guess = self.A + round(x * (self.B - self.A) / grid) * grid
        self.check(t, guess, tol, slack=0)

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 1.0), guess=st.floats(A, B),
           tol=st.sampled_from([1e-3, 1e-7, 1e-10, 1e-14]))
    def test_any_guess(self, t, guess, tol):
        # the window is 2 ulp short of tol, so its rounding never costs a
        # bisection step
        self.check(t, guess, tol, slack=0)

    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(A, B, exclude_min=True), guess=st.floats(A, B),
           radius=st.floats(0.0, 1.0))
    def test_window_to_adjacent_doubles(self, t, guess, radius):
        # tol = 0 from a window of any radius: the window's two probes, the
        # widening steps while it misses, then bisection down to the spacing
        # of the final pair; one probe over the guessed budget pays for a
        # window end that rounds past t by less than that spacing
        above, probes = self.threshold(t)
        lo, hi = _bisect(above, self.A, self.B, 0.0, guess, radius)
        assert lo in probes and hi in probes
        assert lo < t <= hi and hi == math.nextafter(lo, 1.0)
        ulp = hi - lo
        budget = 2 * math.log2(max(abs(guess - t), radius, ulp) / ulp) + 5
        assert len(probes) <= budget


class TestMonotonicityAudit:
    def test_rising_estimates_raise(self):
        cache = OperatorCache(A12, make_geometry(1, 16, 2))
        profile = make_profile(A12)
        engine = ProbeEngine(cache, profile, 0.0, certifiable=False)
        engine.records = {
            0.5: {"s": 0.5, "lam": 1.0, "alpha": 1.0, "beta": 1.0},
            0.6: {"s": 0.6, "lam": 1.5, "alpha": 1.5, "beta": 1.5},
        }
        with pytest.raises(MonotonicityError):
            engine.audit_monotonicity()

    def test_coarse_probes_audited(self, monkeypatch):
        # a rising record among the search's coarse probes fails the solve
        predict = solver._predict

        def rising(engine, a, b, target, eps):
            s = predict(engine, a, b, target, eps)
            engine.records[2.0] = {"s": 2.0, "lam": 2.0, "alpha": 2.0,
                                   "beta": 2.0}
            return s

        monkeypatch.setattr(solver, "_predict", rising)
        with pytest.raises(MonotonicityError, match="s=2.0"):
            solve_dimension(SolveConfig(A12, J=128, tol_s=1e-9))

    def test_real_probes_pass(self):
        b = solve_dimension(SolveConfig(A12, J=40, mode="point-estimate",
                                        unsafe_h=True))
        lams = [p["lam"] for p in sorted(b.probes, key=lambda p: p["s"])]
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(lams[:-1], lams[1:]))


class TestSearch:
    """A certified solve predicts its endpoints with converged point probes
    on J // SEARCH_COARSENING subintervals and proves them on J; the
    prediction places fine probes but never decides an endpoint."""

    def test_search_then_fine_build(self, monkeypatch):
        # the search is built and probed before the fine cache is built
        events, init, probe = [], OperatorCache.__init__, ProbeEngine.probe

        def built(cache, alphabet, geometry, q=None):
            init(cache, alphabet, geometry, q)
            events.append(("build", cache.N))

        def probed(engine, s, tol=None):
            if not events or events[-1] != ("probe", engine.cache.N):
                events.append(("probe", engine.cache.N))
            return probe(engine, s, tol)

        monkeypatch.setattr(OperatorCache, "__init__", built)
        monkeypatch.setattr(ProbeEngine, "probe", probed)
        b = solve_dimension(SolveConfig(A12, J=128, tol_s=1e-9))
        coarse, fine = (math.prod(make_geometry(1, J, 2).sample_shape)
                        for J in (32, 128))
        assert events == [("build", coarse), ("probe", coarse),
                          ("build", fine), ("probe", fine)]
        assert b.search["J_c"] == 32 and b.search["probes"] > 0
        assert b.search["s_lo"] <= b.search["s_hi"]
        # one converged fine probe at the lower prediction, whose Newton
        # step moves both predictions to within tol_s of the endpoints
        [first] = [p for p in b.probes if p["s"] == b.search["s_lo"]]
        assert first["converged"] and not first["decided"]
        for end in ("s_lo", "s_hi"):
            assert abs(b.search[end] + b.search["shift"]
                       - getattr(b, end)) <= 1e-9

    @pytest.mark.parametrize("wrong", ["floor", "cap"])
    def test_bad_prediction_costs_probes_only(self, wrong, monkeypatch):
        cfg = SolveConfig(A12, J=128, tol_s=1e-9)
        good = solve_dimension(cfg)
        predict = solver._predict

        def wrong_end(engine, a, b, target, eps):
            predict(engine, a, b, target, eps)
            return a if wrong == "floor" else b

        monkeypatch.setattr(solver, "_predict", wrong_end)
        bad = solve_dimension(cfg)
        assert abs(bad.s_lo - good.s_lo) <= 1e-9
        assert abs(bad.s_hi - good.s_hi) <= 1e-9
        assert bad.s_lo <= REF_1D <= bad.s_hi
        assert len(bad.probes) > len(good.probes)
        # a prediction on the floor or the cap takes no Newton step
        assert good.search["shift"] is not None
        assert bad.search["shift"] is None

    def test_wrong_shift_costs_probes_only(self, monkeypatch):
        # a converged lam 1e-5 too high moves both predictions about 8e-6
        # (thousands of tol_s) upward; the bisections still prove the same
        # endpoints with their own decided probes
        cfg = SolveConfig(A12, J=128, tol_s=1e-9)
        good = solve_dimension(cfg)
        probe = ProbeEngine.probe

        def off(engine, s, tol=None):
            rec = probe(engine, s, tol)
            return rec if tol is None else {**rec, "lam": rec["lam"] * 1.00001}

        monkeypatch.setattr(ProbeEngine, "probe", off)
        bad = solve_dimension(cfg)
        assert bad.search["shift"] - good.search["shift"] > 1000 * 1e-9
        assert abs(bad.s_lo - good.s_lo) <= 1e-9
        assert abs(bad.s_hi - good.s_hi) <= 1e-9
        assert bad.s_lo <= REF_1D <= bad.s_hi
        assert len(bad.probes) > len(good.probes)


class TestTwoStepRefinement:
    """A certified 2D solve caps s just above s_hat, where log lam crosses 0
    on the COARSE_J mesh, then searches and proves once at that cap; every
    other solve works at the config's cap.  No solve nests another."""

    @pytest.fixture
    def meshes(self, monkeypatch):
        """("solve", J) for every solve_dimension call and ("build", J) for
        every OperatorCache built, in call order."""
        events, solve, init = [], solver.solve_dimension, OperatorCache.__init__

        def solved(cfg):
            events.append(("solve", cfg.J))
            return solve(cfg)

        def built(cache, alphabet, geometry, q=None):
            events.append(("build", round(1.0 / geometry.h)))
            init(cache, alphabet, geometry, q)

        monkeypatch.setattr(solver, "solve_dimension", solved)
        monkeypatch.setattr(OperatorCache, "__init__", built)
        return events

    def test_one_pass_otherwise(self, meshes):
        b = solver.solve_dimension(SolveConfig(A12, J=64, tol_s=1e-6,
                                               s_cap=0.9))
        assert b.constants["s_cap"] == 0.9
        solver.solve_dimension(SolveConfig(A2D, J=10, mode="point-estimate",
                                           unsafe_h=True, tol_s=1e-6))
        assert meshes == [("solve", 64), ("build", 64),
                          ("solve", 10), ("build", 10)]

    def test_same_cap_one_bisection(self, meshes):
        # the certify-2d case: s_hat plus 1e-3 lies above s_cap = 1.15, so
        # the cap stays.  The search on J // 4 = 125 predicts both endpoints
        # within 1e-9; one converged fine probe at the lower prediction
        # moves both by its Newton step, and each endpoint then takes two
        # decided probes: 5 probes, where bisecting [S_FLOOR, 1.15] took 57
        # and ended at (1.149529368563135, 1.1496249226942479) and the
        # unshifted predictions took 14 and ended at (1.1495293686078023,
        # 1.1496249227192226), within tol_s = 1e-10 of these
        b = solver.solve_dimension(SolveConfig(A2D, J=500, s_cap=1.15,
                                               alpha=0.2, beta=0.2))
        assert meshes == [("solve", 500), ("build", solver.COARSE_J),
                          ("build", 125), ("build", 500)]
        assert (b.s_lo, b.s_hi) == (1.1495293685592338, 1.1496249227206532)
        assert len(b.probes) == 5
        assert max(p["s"] for p in b.probes) <= 1.15
        assert b.constants["s_cap"] == 1.15
        assert "first_pass" not in b.to_record()
        search = b.to_record()["search"]
        assert search["J_c"] == 125 and search["probes"] == 10
        assert abs(search["s_lo"] - b.s_lo) < 1e-9
        assert abs(search["s_hi"] - b.s_hi) < 1e-9
        # the moved predictions lie within tol_s of the endpoints
        assert abs(search["s_lo"] + search["shift"] - b.s_lo) <= 1e-10
        assert abs(search["s_hi"] + search["shift"] - b.s_hi) <= 1e-10

    @pytest.mark.parametrize("spec, J, s_cap", [
        ("(1,0),(1,1),(1,-1),(2,0)", 500, None), ("(2,0),(3,0)", 230, 0.5)])
    def test_cap_from_coarse_crossing(self, spec, J, s_cap, monkeypatch):
        # s_hat and the COARSE_J point estimate each end within 5e-7 of the
        # same coarse root
        alphabet, hats, crossings = parse_alphabet(spec), [], solver._crossings

        def spy(*args):
            out = crossings(*args)
            hats.append(out[0])
            return out

        monkeypatch.setattr(solver, "_crossings", spy)
        constants = solver._setup(SolveConfig(alphabet, J=J, s_cap=s_cap,
                                              alpha=0.2, beta=0.2))[4]
        [(s_hat,)] = hats
        assert constants["s_cap"] == s_hat + 1e-3
        estimate = solve_dimension(SolveConfig(
            alphabet, J=solver.COARSE_J, mode="point-estimate", tol_s=1e-6,
            unsafe_h=True))
        assert abs(s_hat - estimate.s_hi) <= 1e-6

    def test_lower_cap_probes_below_it(self):
        # {(2,0),(3,0)} has dimension 0.3374...: the cap drops from 0.5 to
        # just above the coarse estimate, which shrinks err
        alphabet = parse_alphabet("(2,0),(3,0)")
        b = solve_dimension(SolveConfig(alphabet, J=230, s_cap=0.5,
                                        alpha=0.2, beta=0.2))
        cap = b.constants["s_cap"]
        assert b.s_hi < cap < 0.5
        assert all(p["s"] <= cap for p in b.probes)
        at_half = make_profile(alphabet, s_cap=0.5, alpha=0.2, beta=0.2)
        assert b.err < at_half.err(1.0 / 230)
        # inside, and within 1e-8 of, the bracket at the cap 0.33850 that a
        # fine 1e-6 estimate sets: a lower cap only narrows it
        assert 0 <= b.s_lo - 0.3374058610806828 < 1e-8
        assert 0 <= 0.3374676985929428 - b.s_hi < 1e-8


class TestConvergenceStudy:
    def test_coarsest_table5_mesh_converged(self):
        # with partition of unity up to the domain edges, the {1..100}
        # estimate at 1/25 nodes is already within 1e-6 of the 1/800 one
        alphabet = make_alphabet_1d(list(range(1, 101)))
        s_h = [solve_dimension(SolveConfig(
            alphabet, h=h, mesh="nodes", mode="point-estimate",
            unsafe_h=True)).s_lo for h in (1.0 / 25, 1.0 / 800)]
        assert abs(s_h[0] - s_h[1]) <= 1e-6

    def test_with_reference(self):
        cfg = SolveConfig(A12, J=25, mode="point-estimate")
        rows = convergence_study(cfg, [1.0 / 25, 1.0 / 50, 1.0 / 100],
                                 reference=REF_1D)
        assert [r["h"] for r in rows] == [0.04, 0.02, 0.01]
        deltas = [r["delta"] for r in rows]
        assert deltas[0] > deltas[1] > deltas[2]
        assert rows[1]["rate"] > 2.0 and rows[2]["rate"] > 2.0

    def test_without_reference(self):
        cfg = SolveConfig(A12, J=25, mode="point-estimate")
        rows = convergence_study(cfg, [1.0 / 25, 1.0 / 50, 1.0 / 100])
        assert rows[0]["delta"] is None and rows[0]["rate"] is None
        assert rows[1]["delta"] > rows[2]["delta"]
        assert rows[2]["rate"] is not None

    @pytest.mark.parametrize("nodes", [
        [50, 100, 200, 400, 800, 1600],
        [400, 100, 800, 200, 1600, 50],
    ], ids=["refining", "out-of-order"])
    def test_seeded_rows_match_independent_solves(self, nodes):
        # from the third mesh on a study seeds each bisection with the
        # previous s_h, yet each row is its own mesh's flip point
        cfg = SolveConfig(A12, mode="point-estimate", mesh="nodes")
        rows = convergence_study(cfg, [1.0 / k for k in nodes])
        for i, r in enumerate(rows):
            b = solve_dimension(replace(cfg, h=r["h"], unsafe_h=True))
            assert abs(r["s_h"] - b.s_lo) <= 4 * math.ulp(b.s_lo)
            if i < 2:
                assert r["probes"] == len(b.probes)
            elif nodes == sorted(nodes):
                assert r["probes"] < len(b.probes)

    def test_guess_only_for_point_estimates(self):
        with pytest.raises(ValueError, match="only a point estimate"):
            solve_dimension(SolveConfig(A12, J=64), guess=0.53)

    def test_needs_three_meshes_without_reference(self):
        cfg = SolveConfig(A12, J=25, mode="point-estimate")
        with pytest.raises(ValueError):
            convergence_study(cfg, [1.0 / 25, 1.0 / 50])

    def test_nodes_convention_shifts_mesh(self):
        cfg_i = SolveConfig(A12, mode="point-estimate")
        cfg_n = SolveConfig(A12, mode="point-estimate", mesh="nodes")
        ri = convergence_study(cfg_i, [1.0 / 50], reference=REF_1D)
        rn = convergence_study(cfg_n, [1.0 / 50], reference=REF_1D)
        assert ri[0]["s_h"] != rn[0]["s_h"]
        # nodes convention at nominal 1/50 equals intervals at J = 49
        r49 = solve_dimension(SolveConfig(A12, J=49, mode="point-estimate",
                                          unsafe_h=True))
        assert rn[0]["s_h"] == pytest.approx(r49.s_lo, abs=1e-14)
