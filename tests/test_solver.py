"""Mesh resolution, bisection against dense-eigensolver oracles, certified
brackets, and convergence studies."""
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from fracdim.assembly import OperatorCache, TransferOperator
from fracdim.bspline import TensorGrid
from fracdim.cli import run
from fracdim.constants import make_profile
from fracdim.maps import make_alphabet_1d, make_alphabet_2d, parse_alphabet
from fracdim.solver import (CertificationError, InadmissibleMeshError,
                            MonotonicityError, ProbeEngine, SolveConfig,
                            convergence_study, lambda_bracket, make_geometry,
                            solve_dimension, two_step_refinement)
from fracdim.spectral import FLOAT_SLACK
from oracles import tocsr

A12 = make_alphabet_1d([1, 2])
A2D = make_alphabet_2d([(1, 0), (1, 1), (1, -1), (2, 0)])
REF_1D = 0.531280506277205


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


class TestResolveTol:
    def test_defaults(self):
        assert SolveConfig(A12, J=10, mode="point-estimate").resolve_tol() == 0.0
        assert SolveConfig(A12, J=10).resolve_tol() == 1e-14
        assert SolveConfig(A2D, J=10).resolve_tol() == 1e-10

    def test_explicit(self):
        assert SolveConfig(A12, J=10, tol_s=1e-6).resolve_tol() == 1e-6


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
        with pytest.raises(ValueError, match="needs spline degree n = 2"):
            lambda_bracket(SolveConfig(A2D, J=30, n=4), 1.1)

    def test_point_estimate_needs_unsafe_for_coarse(self):
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, J=25, mode="point-estimate"))
        b = solve_dimension(SolveConfig(A12, J=25, mode="point-estimate",
                                        unsafe_h=True))
        assert 0.5 < b.s_lo < 0.56

    def test_record_shape(self):
        b = solve_dimension(SolveConfig(A12, J=64, tol_s=1e-6))
        rec = b.to_record()
        for key in ("alphabet", "d", "n", "h", "mode", "s_lo", "s_hi", "err",
                    "probes", "constants", "admissibility", "wall_ms"):
            assert key in rec
        assert rec["alphabet"] == "1,2"
        assert rec["constants"]["M"] == 36.0
        assert rec["constants"]["M_prime"] < 36.0
        assert all(p["lam_lo"] <= p["lam"] <= p["lam_hi"] for p in rec["probes"])


class TestEarlyDecision:
    """Certified probes stop power iteration once the scaled bracket
    excludes 1; lambda_bracket and point mode still run to convergence."""

    @pytest.fixture(scope="class")
    def table2(self, tmp_path_factory):
        # the certified {1,2} solve at h = 1e-5 (nodes), through the CLI,
        # counting operator applications
        calls = []
        matmul = TransferOperator.__matmul__

        def counted(op, v):
            calls.append(1)
            return matmul(op, v)

        out = tmp_path_factory.mktemp("table2") / "out.json"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TransferOperator, "__matmul__", counted)
            assert run(["certify", "--reproduce", "table2",
                        "--out", str(out)]) == 0
        return json.loads(out.read_text()), len(calls)

    def test_table2_endpoints_unchanged(self, table2):
        rec, _ = table2
        assert rec["s_lo"] == 0.5312805062762838
        assert rec["s_hi"] == 0.5312805062781312

    def test_table2_matvecs(self, table2):
        # running every probe to convergence, with a second product for the
        # bracket, took 913; stopping at the decision takes 133
        _, matvecs = table2
        assert matvecs < 913 / 2

    def test_records_converged_or_decided(self, table2):
        rec, _ = table2
        assert any(p["decided"] for p in rec["probes"])
        for p in rec["probes"]:
            assert not (p["converged"] and p["decided"])
            if p["decided"]:
                assert p["lam_lo"] >= 1.0 or p["lam_hi"] <= 1.0
            else:
                assert p["converged"]

    def test_audit_passes_on_decided_records(self):
        J = 64
        profile = make_profile(A12)
        engine = ProbeEngine(OperatorCache(A12, make_geometry(1, J, 2)),
                             profile, profile.err(1.0 / J), check_cone=True,
                             decide=True)
        for s in np.linspace(0.3, 0.8, 11):
            engine.probe(s)
        recs = list(engine.records.values())
        assert all(r["decided"] and not r["converged"] for r in recs)
        engine.audit_monotonicity()

    def test_lambda_bracket_converges(self):
        # far below the dimension even the first iterate decides the probe;
        # lambda_bracket must still return the converged, tight bracket
        cfg = SolveConfig(A12, J=64)
        err = make_profile(A12).err(1.0 / 64)
        lo, hi = lambda_bracket(cfg, 0.4)
        alpha = lo / ((1 - err) * (1 - FLOAT_SLACK))
        beta = hi / ((1 + err) * (1 + FLOAT_SLACK))
        assert lo > 1.0
        # power_iteration's default tolerance is 1e-14
        assert 0.0 <= beta - alpha <= 10 * 1e-14 * alpha

    def test_point_mode_converges(self):
        b = solve_dimension(SolveConfig(A12, J=64, mode="point-estimate",
                                        tol_s=1e-8))
        assert all(p["converged"] and not p["decided"] for p in b.probes)


class TestLambdaBracket:
    def test_straddles_unity_across_dimension(self):
        cfg = SolveConfig(A12, J=64)
        lo, hi = lambda_bracket(cfg, 0.4)
        assert lo > 1.0
        lo2, hi2 = lambda_bracket(cfg, 0.65)
        assert hi2 < 1.0

    def test_contains_dense_eigenvalue(self):
        cfg = SolveConfig(A12, J=64)
        s = 0.53
        lo, hi = lambda_bracket(cfg, s)
        cache = OperatorCache(A12, make_geometry(1, 64, 2))
        rho = dense_rho(cache, s)
        err = 162.0 / 64 ** 3
        assert lo <= rho * (1 - err) * (1 + 1e-12)
        assert hi >= rho * (1 + err) * (1 - 1e-12)

    def test_certified_probe_above_cap_refused(self):
        with pytest.raises(ValueError, match="exceeds s_cap"):
            lambda_bracket(SolveConfig(A12, J=64, s_cap=0.7), 0.8)
        lo, hi = lambda_bracket(SolveConfig(A12, J=64, s_cap=0.7,
                                            mode="point-estimate"), 0.8)
        assert lo < 1.0

    def test_certified_ignores_unsafe_h(self):
        # unsafe_h lets only point estimates through an inadmissible mesh
        with pytest.raises(InadmissibleMeshError):
            lambda_bracket(SolveConfig(A12, J=25, unsafe_h=True), 0.53)

    def test_image_cone_guard(self):
        # h = 1/64 is admissible, but M = 2 gives M' = 33.2 >= M
        with pytest.raises(CertificationError, match="M' = 33.1"):
            lambda_bracket(SolveConfig(A12, J=64, M=2.0), 0.53)


class TestBisectionEdges:
    """Search floor and ceiling of the three bisections: certified s_lo
    (on lam_lo), certified s_hi (on lam_hi) and the point estimate."""
    CERTIFIED = SolveConfig(A12, J=64, tol_s=1e-8)
    POINT = SolveConfig(A12, J=64, mode="point-estimate", tol_s=1e-8)

    @pytest.mark.parametrize("endpoint", ["s_lo", "s_hi", "point"])
    def test_floor_above_dimension_is_returned(self, endpoint):
        cfg = self.POINT if endpoint == "point" else self.CERTIFIED
        b = solve_dimension(replace(cfg, s_min=0.6))
        assert getattr(b, "s_hi" if endpoint == "s_hi" else "s_lo") == 0.6

    # REF_1D lies inside the certified bracket: lam_lo(REF_1D) < 1, so the
    # s_lo bisection passes, and lam_hi(REF_1D) > 1 stops the s_hi one
    @pytest.mark.parametrize("endpoint, s_max",
                             [("s_lo", 0.5), ("s_hi", REF_1D), ("point", 0.5)])
    def test_ceiling_below_dimension_raises(self, endpoint, s_max):
        cfg = self.POINT if endpoint == "point" else self.CERTIFIED
        with pytest.raises(ValueError, match="does not straddle"):
            solve_dimension(replace(cfg, s_max=s_max))

    def test_ceiling_above_cap_refused(self):
        # the constants hold only up to s_cap = 0.7, below this set's
        # dimension 0.8368...: probing up to s_max = 1.0 would return a
        # "certified" bracket that nothing certifies
        cfg = SolveConfig(make_alphabet_1d(range(1, 6)), J=4000, s_cap=0.7,
                          s_max=1.0)
        with pytest.raises(ValueError, match="exceeds s_cap"):
            solve_dimension(cfg)
        with pytest.raises(ValueError, match="does not straddle"):
            solve_dimension(replace(cfg, s_max=None))


class TestMonotonicityAudit:
    def test_rising_estimates_raise(self):
        cache = OperatorCache(A12, make_geometry(1, 16, 2))
        profile = make_profile(A12)
        engine = ProbeEngine(cache, profile, 0.0, check_cone=False)
        engine.records = {
            0.5: {"s": 0.5, "lam": 1.0, "alpha": 1.0, "beta": 1.0},
            0.6: {"s": 0.6, "lam": 1.5, "alpha": 1.5, "beta": 1.5},
        }
        with pytest.raises(MonotonicityError):
            engine.audit_monotonicity()

    def test_real_probes_pass(self):
        b = solve_dimension(SolveConfig(A12, J=40, mode="point-estimate",
                                        unsafe_h=True))
        lams = [p["lam"] for p in sorted(b.probes, key=lambda p: p["s"])]
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(lams[:-1], lams[1:]))


class TestTwoStepRefinement:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            two_step_refinement(SolveConfig(A12, J=64))

    def test_rejects_point_estimate(self):
        with pytest.raises(ValueError):
            two_step_refinement(SolveConfig(A2D, J=10, mode="point-estimate"))

    def test_same_cap_continues_first_pass(self):
        # the certify-2d case: pass 1 ends within 1e-3 of s_cap = 1.15, so
        # pass 2 keeps the cap, err and cone and finishes pass 1's bisection
        # on its engine; every pass-1 probe is reused
        b = two_step_refinement(SolveConfig(A2D, J=500, s_cap=1.15,
                                            alpha=0.2, beta=0.2))
        # the values a single solve_dimension pass returns
        assert (b.s_lo, b.s_hi) == (1.149529368563135, 1.1496249226942479)
        final = {p["s"] for p in b.probes}
        assert {p["s"] for p in b.first_pass.probes} <= final
        assert len(final) == 57
        assert max(final) <= 1.15
        assert b.constants["s_cap"] == b.first_pass.constants["s_cap"]

    def test_lower_cap_probes_below_it(self):
        # {(2,0),(3,0)} has dimension 0.3374...: pass 2 lowers the cap from
        # 0.5 to s_hi_1 + 1e-3, which shrinks err and nests the bracket
        b = two_step_refinement(SolveConfig(parse_alphabet("(2,0),(3,0)"),
                                            J=230, s_cap=0.5, alpha=0.2,
                                            beta=0.2))
        first = b.first_pass
        s_cap_2 = b.constants["s_cap"]
        assert s_cap_2 == first.s_hi + 1e-3 < 0.5
        assert b.err < first.err
        assert first.s_lo <= b.s_lo < b.s_hi <= first.s_hi
        assert all(first.s_lo <= p["s"] <= s_cap_2 for p in b.probes)

    def test_solve_refuses_a_mismatched_engine(self):
        cfg = SolveConfig(A12, J=64, tol_s=1e-6)
        profile = make_profile(A12)
        engine = ProbeEngine(OperatorCache(A12, make_geometry(1, 64, 2)),
                             profile, profile.err(1.0 / 64), check_cone=True,
                             decide=True)
        assert solve_dimension(cfg, engine).s_lo < REF_1D
        for other in (replace(cfg, J=80), replace(cfg, s_cap=0.9),
                      replace(cfg, mode="point-estimate")):
            with pytest.raises(ValueError, match="probe engine"):
                solve_dimension(other, engine)


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
