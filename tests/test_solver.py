"""Mesh resolution, bisection against dense-eigensolver oracles, certified
brackets, and convergence studies."""
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fracdim import solver
from fracdim.assembly import (OperatorCache, TransferOperator, kept_points,
                              operator_footprint)
from fracdim.bspline import TensorGrid
from fracdim.cli import EXIT_INADMISSIBLE, run
from fracdim.constants import admissible_h, make_profile
from fracdim.maps import make_alphabet_1d, make_alphabet_2d, parse_alphabet
from fracdim.quasi import make_quasi_interpolant
from fracdim.solver import (S_FLOOR, CertificationError,
                            InadmissibleMeshError, MonotonicityError,
                            ProbeEngine, Rung, SolveConfig, _bisect,
                            convergence_study, make_geometry,
                            solve_dimension)
from fracdim.spectral import ConeCertificate, FLOAT_SLACK, scaled_bracket
from oracles import (ConvergedProbes, chebyshev_dimension_1d,
                     chebyshev_dimension_2d, eval_quasi_interpolant,
                     full_matrix, parameter_interval)

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


@pytest.fixture
def meshes(monkeypatch):
    """("solve", J) for every solver.solve_dimension call and ("build", J)
    for every OperatorCache built, in call order."""
    events, solve, init = [], solver.solve_dimension, OperatorCache.__init__

    def solved(cfg):
        events.append(("solve", round(1 / cfg.h)))
        return solve(cfg)

    def built(cache, alphabet, geometry):
        events.append(("build", round(1.0 / geometry.h)))
        init(cache, alphabet, geometry)

    monkeypatch.setattr(solver, "solve_dimension", solved)
    monkeypatch.setattr(OperatorCache, "__init__", built)
    return events


def dense_rho(cache, s):
    m = full_matrix(cache, s).toarray()
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
    def test_from_h_intervals(self):
        assert SolveConfig(A12, h=1.0 / 50).resolve_mesh() == 50

    def test_from_h_nodes(self):
        assert SolveConfig(A12, h=1.0 / 50, mesh="nodes").resolve_mesh() == 49

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
            SolveConfig(A12, h=1 / 10, mesh="cells").resolve_mesh()

    @pytest.mark.parametrize("h", [0, -3])
    def test_no_subintervals(self, h):
        # a mesh width that is not positive is refused before 1 / h
        with pytest.raises(ValueError, match="is not positive"):
            SolveConfig(A12, h=h).resolve_mesh()
        with pytest.raises(ValueError, match="is not positive"):
            solve_dimension(SolveConfig(A12, h=h))


class TestResolveTol:
    def test_defaults(self):
        assert SolveConfig(A12, h=1 / 10,
                           mode="point-estimate").resolve_tol() == 0.0
        assert SolveConfig(A12, h=1 / 10).resolve_tol() == 1e-14
        assert SolveConfig(A2D, h=1 / 10).resolve_tol() == 1e-10

    def test_explicit(self):
        assert SolveConfig(A12, h=1 / 10, tol_s=1e-6).resolve_tol() == 1e-6

    @pytest.mark.parametrize("tol_s", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_refused(self, tol_s):
        # `b - a > nan` is false, so a NaN width ended the bisection at once
        # and returned the search interval's midpoint or ends
        cfg = SolveConfig(A12, h=1 / 64, tol_s=tol_s)
        with pytest.raises(ValueError, match="tol_s"):
            cfg.resolve_tol()
        with pytest.raises(ValueError, match="tol_s"):
            solve_dimension(cfg)


class TestPointEstimateOracle:
    def test_1d_matches_dense_bisection(self):
        J = 16
        cfg = SolveConfig(A12, h=1 / J, mode="point-estimate", unsafe_h=True)
        b = solve_dimension(cfg)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        s_oracle = brentq(lambda s: dense_rho(cache, s) - 1.0, 0.3, 0.8,
                          xtol=1e-14)
        assert b.s_lo == b.s_hi
        assert b.s_lo == pytest.approx(s_oracle, abs=1e-10)

    def test_2d_matches_dense_bisection(self):
        J = 8
        cfg = SolveConfig(A2D, h=1 / J, mode="point-estimate", unsafe_h=True)
        b = solve_dimension(cfg)
        cache = OperatorCache(A2D, make_geometry(2, J, 2))
        s_oracle = brentq(lambda s: dense_rho(cache, s) - 1.0, 0.9, 1.4,
                          xtol=1e-13)
        assert b.s_lo == pytest.approx(s_oracle, abs=1e-9)

    def test_estimate_ends_at_a_4_ulp_bracket(self):
        # the discrete root at 1/3200 nodes is 0.53128050627720421 (an 80-bit
        # rebuild of the same operator).  Where a converged lam >= 1 flips
        # between adjacent doubles depends on the start vector by up to 14
        # ulp, so the estimate ends where regula falsi on log lam has
        # bracketed its root to 4 ulp: the midpoint of the last bracket,
        # whose ends are the probes next to it.  It reads
        # 0.5312805062772039, 3 ulp below the root, as the flip did
        b = solve_dimension(SolveConfig(A12, h=1.0 / 3200, mesh="nodes",
                                        mode="point-estimate"))
        lo = max(p["s"] for p in b.probes if p["lam"] > 1.0)
        hi = min(p["s"] for p in b.probes if p["lam"] <= 1.0)
        assert lo < hi and hi - lo <= 4 * math.ulp(hi)
        assert b.s_lo == b.s_hi == 0.5 * (lo + hi)
        root = 0.53128050627720421
        assert abs(b.s_lo - root) <= 4 * math.ulp(root)

    @settings(max_examples=40, deadline=None)
    @given(letters=st.lists(st.integers(1, 10), min_size=1, max_size=5,
                            unique=True),
           data=st.data())
    def test_drawn_estimates_hold_dense_root(self, letters, data):
        # J on both sides of the seed mesh: up to 25 the estimate runs
        # regula falsi on [S_FLOOR, 1], above it the ladder's window; a
        # one-letter set (a point) has rho < 1 already at S_FLOOR, and the
        # estimate is 0.  Sixty seeded draws lay within 1e-15
        alphabet = make_alphabet_1d(sorted(letters))
        J = data.draw(st.integers(max(8, alphabet.max_component + 1), 80))
        b = solve_dimension(SolveConfig(alphabet, h=1 / J,
                                        mode="point-estimate", unsafe_h=True))
        cache = OperatorCache(alphabet, make_geometry(1, J, 2))
        if dense_rho(cache, S_FLOOR) <= 1.0:
            root = 0.0
        else:
            root = brentq(lambda s: dense_rho(cache, s) - 1.0, S_FLOOR, 1.0,
                          xtol=1e-16)
        assert b.s_lo == b.s_hi
        assert abs(b.s_lo - root) <= 1e-14

    @pytest.mark.parametrize("J", [16, 128])
    def test_ceiling_below_root_raises(self, J):
        # every product scaled by 4 lifts lam above 1 at s = d (lam(1) is
        # about 0.55 for {1,2}): no window holds the root, nor does
        # [S_FLOOR, d], with or without a ladder below the fine mesh
        matmul = TransferOperator.__matmul__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TransferOperator, "__matmul__",
                       lambda op, v: 4.0 * matmul(op, v))
            with pytest.raises(ValueError, match="does not straddle the "
                               "dimension: still below it at s = 1.0$"):
                solve_dimension(SolveConfig(A12, h=1 / J,
                                            mode="point-estimate",
                                            unsafe_h=True))

    def test_deterministic(self):
        cfg = SolveConfig(A12, h=1 / 32, mode="point-estimate", unsafe_h=True)
        assert solve_dimension(cfg).s_lo == solve_dimension(cfg).s_lo

    @pytest.mark.parametrize("alphabet, J", [(A12, 16), (A2D, 8)],
                             ids=["1d-J16", "2d-J8"])
    def test_uncertifiable_estimate_predicts(self, alphabet, J):
        # every point probe converges, so regula falsi on log lam places
        # the bisection's window at these meshes below the seed's: the two
        # tests above hold these estimates to the dense oracle, in at most
        # 20 probes where bisecting [S_FLOOR, d] took 55
        b = solve_dimension(SolveConfig(alphabet, h=1 / J,
                                        mode="point-estimate", unsafe_h=True))
        assert b.s_lo == b.s_hi
        assert len(b.probes) <= 20
        assert all(p["converged"] for p in b.probes)


class TestCertified:
    def test_bracket_contains_reference(self):
        # h = 1/64 is admissible for this alphabet (bound ~0.0215)
        cfg = SolveConfig(A12, h=1 / 64, tol_s=1e-8)
        b = solve_dimension(cfg)
        assert b.mode == "certified"
        # err is taken at the record's cap, just above s_hat; at the
        # default cap 1 it would be 162 / 64^3
        cap = b.constants["s_cap"]
        assert b.err == make_profile(A12, s_cap=cap).err(1 / 64)
        assert b.err < 162.0 / 64 ** 3
        assert b.s_lo <= REF_1D <= b.s_hi
        assert b.width < 5e-3

    def test_bracket_tightens_with_mesh(self):
        w = []
        for J in (64, 128):
            b = solve_dimension(SolveConfig(A12, h=1 / J, tol_s=1e-9))
            assert b.s_lo <= REF_1D <= b.s_hi
            w.append(b.width)
        assert w[1] < w[0] / 4  # err shrinks cubically

    def test_inadmissible_mesh_rejected(self):
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, h=1 / 25))
        # certified mode enforces admissibility even with unsafe_h
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, h=1 / 25, unsafe_h=True))

    def test_2d_degree_other_than_2_refused(self):
        # the 2D error bounds are third order, i.e. valid for n = 2 only;
        # the refusal comes before the admissibility check
        with pytest.raises(ValueError, match="needs spline degree n = 2"):
            solve_dimension(SolveConfig(A2D, h=1 / 30, n=4))

    def test_unknown_mode_refused(self):
        # "certify", the subcommand's name, ran a point estimate labelled
        # "certify"
        with pytest.raises(ValueError, match="mode must be"):
            solve_dimension(SolveConfig(A12, h=1e-4, mode="certify"))

    def test_point_estimate_needs_unsafe_for_coarse(self):
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, h=1 / 25, mode="point-estimate"))
        b = solve_dimension(SolveConfig(A12, h=1 / 25, mode="point-estimate",
                                        unsafe_h=True))
        assert 0.5 < b.s_lo < 0.56

    @settings(max_examples=60, deadline=None)
    @given(letters=st.lists(st.integers(1, 10), min_size=2, max_size=5,
                            unique=True),
           n=st.sampled_from([2, 4]))
    def test_coarsest_admissible_bracket_holds_oracle(self, letters, n):
        # each alphabet, certified at degree n at its coarsest admissible h
        # (J <= 47 at n = 2, so the fine mesh starts from the seed mesh's
        # predictions; 30-169 at n = 4, where J // 4 may climb above the
        # seed mesh), holds the dimension from Chebyshev collocation, which
        # 24 and 32 nodes agree on
        letters = tuple(sorted(letters))
        alphabet = make_alphabet_1d(letters)

        def coarsest(cap):
            bound = admissible_h(make_profile(alphabet, n, s_cap=cap),
                                 alphabet)["overall"]
            # and more than 2 n^2 - n subintervals to hold letter 1's images
            return max(math.ceil(1 / Fraction(bound)),
                       alphabet.max_component + 1,
                       (2 * n * n - n + 1) * (1 in letters))

        value = chebyshev_dimension_1d(letters)
        assert abs(chebyshev_dimension_1d(letters, 32) - value) <= 1e-13
        b = solve_dimension(SolveConfig(alphabet, n=n, h=1 / coarsest(1.0)))
        assert b.s_lo <= value <= b.s_hi
        # the seed mesh, and with it the cap, does not depend on h: the
        # coarsest mesh admissible at the cap the solve lowers to also
        # certifies, and holds the dimension ({1,2}: 34 subintervals, 47
        # at the cap 1)
        cap = b.constants["s_cap"]
        b = solve_dimension(SolveConfig(alphabet, n=n, h=1 / coarsest(cap)))
        assert b.constants["s_cap"] == cap
        assert b.s_lo <= value <= b.s_hi

    def test_unpadded_mesh_refused(self):
        # {1,3} at degree 4 is admissible at 1/22 by every bound of
        # admissible_h at the cap it lowers to, but letter 1 maps the
        # leftmost midpoint past the padded edge below 29 subintervals: the
        # mesh is refused as inadmissible, not by a failed build
        cfg = SolveConfig(make_alphabet_1d([1, 3]), n=4, h=1 / 22)
        with pytest.raises(InadmissibleMeshError) as exc:
            solve_dimension(cfg)
        assert exc.value.breakdown["padding"] == 1 / 28
        assert exc.value.breakdown["alpha"] > 1 / 22
        assert solve_dimension(replace(cfg, h=1 / 29)).s_lo > 0.45

    def test_record_shape(self):
        b = solve_dimension(SolveConfig(A12, h=1 / 64, tol_s=1e-6))
        rec = b.to_record()
        assert list(rec) == ["alphabet", "d", "n", "h", "mode", "s_lo",
                             "s_hi", "err", "probes", "constants",
                             "admissibility", "search", "wall_ms"]
        # every certified solve predicts from the seed mesh; J //
        # SEARCH_COARSENING = 16 is not finer than it, so no J // 4 level
        assert list(rec["search"]) == ["J_s", "s_hat", "seed_lo", "seed_hi",
                                       "seed_probes", "J_c", "s_lo", "s_hi",
                                       "probes", "shift"]
        assert rec["search"]["J_c"] is None and rec["search"]["probes"] == 0
        assert (rec["search"]["s_lo"], rec["search"]["s_hi"]) == (
            rec["search"]["seed_lo"], rec["search"]["seed_hi"])
        assert rec["alphabet"] == "1,2"
        # K^(2 s_cap) at the cap just above s_hat (36 at the cap 1)
        assert rec["constants"]["M"] == 6.0
        assert rec["constants"]["M_prime"] < 6.0
        assert all(p["lam_lo"] <= p["lam"] <= p["lam_hi"] for p in rec["probes"])


class TestEarlyDecision:
    """Probes on a certified solve's fine mesh (err > 0) stop power
    iteration once the scaled bracket answers both bisection predicates;
    every point probe (err = 0) runs to convergence."""

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
        # the rigor constants at the cap s_hat + 1e-3 narrow err, and with
        # it the bracket, from (0.5312805062762814, 0.5312805062781297) at
        # the cap 1, which lay within tol_s = 1e-14 of the endpoints a
        # bisection from S_FLOOR found (0.5312805062762838,
        # 0.5312805062781312)
        rec, _ = table2
        assert (rec["s_lo"], rec["s_hi"]) == (0.5312805062763736,
                                              0.5312805062780376)
        assert rec["constants"]["s_cap"] == rec["search"]["s_hat"] + 1e-3
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
        # a certified solve searches up to its cap only, so every probe it
        # holds to the cone lies where M holds
        assert max(p["s"] for p in rec["probes"]) <= rec["constants"]["s_cap"]
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
        # {1,2} at J = 64: both bisections, from the midpoint of [1e-6, 1],
        # once with probes that stop at the decision and once with every
        # probe run to convergence
        J, tol, guess = 64, 1e-14, 0.5 * (1e-6 + 1.0)
        profile = make_profile(A12)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        err = profile.err(1.0 / J)
        ends, matvecs, records = [], [], []
        engine = ProbeEngine(cache, profile, err)
        converged = ConvergedProbes(cache, profile.M, err)
        for probe, recs in ((engine.probe, engine.records),
                            (converged, converged.records)):
            with counting_matvecs() as calls:
                s_lo = _bisect(lambda s: probe(s)["lam_lo"] >= 1.0,
                               1e-6, 1.0, tol, guess)[0]
                s_hi = _bisect(lambda s: probe(s)["lam_hi"] > 1.0,
                               1e-6, 1.0, tol, guess)[1]
            ends.append((s_lo, s_hi))
            matvecs.append(len(calls))
            records.append(recs)
        assert ends[0] == ends[1]
        assert all(r["member"] for r in records[1].values())
        assert records[0].keys() == records[1].keys()
        assert any(r["decided"] and r["lam_lo"] < 1.0 < r["lam_hi"]
                   for r in records[0].values())
        # the zone stop takes 225 and converging 1825 (176 and 1425 when
        # both bisected from the ends, where stopping only outside [s_lo,
        # s_hi] took 561)
        assert matvecs[0] <= 250 < matvecs[1]

    def test_audit_passes_on_decided_records(self):
        J = 64
        profile = make_profile(A12)
        engine = ProbeEngine(OperatorCache(A12, make_geometry(1, J, 2)),
                             profile, profile.err(1.0 / J))
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

    @pytest.mark.parametrize("alphabet, J", [
        (A12, 64), (make_alphabet_1d(range(1, 35)), 100), (A12, 128)],
        ids=["12-J64", "1..34-J100", "12-J128"])
    def test_point_estimate_climbs_the_ladder(self, alphabet, J, meshes):
        # above the seed mesh a point estimate climbs the certified ladder:
        # the seed crossing of log lam = 0, J // 4 where that is finer, and
        # one Newton step onto the fine mesh, whose window regula falsi
        # finishes (55 decided probes bisected [S_FLOOR, 1]), every probe
        # converged.  It ends where a bisection over converged probes from
        # the estimate ends, within the few ulp the warm start moves a
        # converged lam near 1
        b = solver.solve_dimension(SolveConfig(alphabet, h=1 / J,
                                               mode="point-estimate"))
        ladder = [solver.COARSE_J] + [J // 4] * (J // 4 > solver.COARSE_J)
        assert meshes == [("solve", J)] + [("build", k) for k in ladder + [J]]
        assert b.search["J_s"] == solver.COARSE_J
        seed = b.search["seed_lo"]
        assert b.search["s_hat"] == seed == b.search["seed_hi"]
        assert len(b.probes) <= 8
        cache = OperatorCache(alphabet, make_geometry(1, J, 2))
        probe = ConvergedProbes(cache, make_profile(alphabet).M)
        lo, hi = _bisect(lambda s: probe(s)["lam"] >= 1.0, S_FLOOR, 1.0, 0.0,
                         b.s_lo)
        assert abs(b.s_lo - 0.5 * (lo + hi)) <= 4 * math.ulp(b.s_lo)
        assert all(p["converged"] and not p["decided"] for p in b.probes)

    @staticmethod
    def no_iterate_in_cone(monkeypatch):
        def outside(w, geometry, M):
            return ConeCertificate(adjacent_ratio_max=np.inf, member=False)

        monkeypatch.setattr("fracdim.solver.cone_membership", outside)

    @pytest.mark.parametrize("cfg, window", [
        (SolveConfig(A12, h=1 / 25, mode="point-estimate", unsafe_h=True),
         None),
        (SolveConfig(A12, h=1 / 64, mode="point-estimate", M=2.0), None),
        (SolveConfig(A12, h=1 / 64, mode="point-estimate"), None),
        (SolveConfig(A12, h=1 / 64, mode="point-estimate", s_cap=1e-300),
         None),
        (SolveConfig(A12, h=1 / 64, mode="point-estimate"), (0.5313, 1.26)),
    ], ids=["unsafe-h", "M-override", "admissible", "cap-1e-300",
            "study-rung"])
    def test_point_estimate_converges_unchecked_otherwise(self, cfg, window,
                                                          monkeypatch):
        # a point estimate proves nothing, so no iterate is held to the cone
        # and every probe converges: at an inadmissible h, with M' >= M (M =
        # 2 gives M' = 33.2), on an admissible mesh, at a cap below every
        # probe (M is derived only up to it; the estimate exited 3, "left
        # the cone at s = 1.0", when each probe was held), and in a study's
        # window.  Each ends where the estimate at the default cap, with no
        # window, ends
        s_h = solve_dimension(replace(cfg, s_cap=None)).s_lo
        self.no_iterate_in_cone(monkeypatch)
        rung = None if window is None else TestConvergenceStudy.rung(*window)
        b = solve_dimension(cfg, rung=rung)
        assert all(p["converged"] and not p["decided"] for p in b.probes)
        assert abs(b.s_lo - s_h) <= 4 * math.ulp(s_h)


class TestOperatorForm:
    """Every probe applies the one stacked G, weighted per probe."""

    def test_certified_solve_never_writes_G(self):
        # at J = 128 a solve in either mode also probes its seed mesh and
        # its J // 4 search mesh, whose operators each share their own G
        for mode in ("certified", "point-estimate"):
            with recording_operators() as ops:
                solve_dimension(SolveConfig(A12, h=1 / 128, mode=mode))
            meshes = {op.shape[0]: op.G for op in ops}
            assert len(meshes) == 3
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
            solve_dimension(SolveConfig(A12, h=1 / 25, unsafe_h=True))

    def test_image_cone_guard(self):
        # h = 1/64 is admissible, but M = 2 gives M' = 4.73 >= M at the
        # cap just above s_hat (33.1 at the cap 1)
        with pytest.raises(CertificationError, match="M' = 4.72"):
            solve_dimension(SolveConfig(A12, h=1 / 64, M=2.0))


class TestBisectionEdges:
    """Search floor and ceiling of _bisect on the predicates of certified
    s_lo (lam_lo), certified s_hi (lam_hi) and a converged point probe
    (lam), each asked of the probes as an engine answers it ({1,2} at J =
    64), and of the solves that end there."""

    @staticmethod
    def above(endpoint):
        J = 64
        profile = make_profile(A12)
        cache = OperatorCache(A12, make_geometry(1, J, 2))
        if endpoint == "point":
            engine = ProbeEngine(cache, profile, 0.0)
            return lambda s: engine.probe(s)["lam"] >= 1.0
        engine = ProbeEngine(cache, profile, profile.err(1.0 / J))
        if endpoint == "s_lo":
            return lambda s: engine.probe(s)["lam_lo"] >= 1.0
        return lambda s: engine.probe(s)["lam_hi"] > 1.0

    # REF_1D lies inside the certified bracket: lam_lo(REF_1D) < 1, so the
    # s_lo bisection passes, and lam_hi(REF_1D) > 1 stops the s_hi one
    @pytest.mark.parametrize("guess", [0.2, 0.55, 0.9])
    @pytest.mark.parametrize("endpoint, ceiling",
                             [("s_lo", 0.5), ("s_hi", REF_1D), ("point", 0.5)])
    def test_guess_keeps_the_edges(self, endpoint, ceiling, guess):
        # from a guess anywhere (clamped to the interval) a floor above the
        # dimension is returned, and a ceiling below it raises
        assert _bisect(self.above(endpoint), 0.6, 1.0, 1e-8, guess) == \
            (0.6, 0.6)
        with pytest.raises(ValueError, match="does not straddle"):
            _bisect(self.above(endpoint), S_FLOOR, ceiling, 1e-8, guess)

    @pytest.mark.parametrize("capped", [True, False],
                             ids=["capped", "given-cap"])
    @pytest.mark.parametrize("spec, J, s_cap", [("5", 64, None),
                                                ("(2,0)", 500, 0.5)])
    def test_floor_proves_no_lower_bound(self, spec, J, s_cap, capped,
                                         monkeypatch):
        # a one-letter limit set is a point, of dimension 0: lam_lo < 1 at
        # S_FLOOR, so 0 is the only lower bound proved (s_lo read S_FLOOR),
        # at the cap just above s_hat and at the given cap alike; a point
        # estimate, whose lam < 1 there, reports 0 by the same rule (it read
        # S_FLOOR)
        if not capped:  # s_hat on the ceiling, so the given cap stays
            crossings = solver._crossings

            def at_ceiling(engine, levels, a, b, eps):
                found, iterates = crossings(engine, levels, a, b, eps)
                return ((b,) if levels == (0.0,) else found), iterates

            monkeypatch.setattr(solver, "_crossings", at_ceiling)
        alphabet = parse_alphabet(spec)
        ab = 0.2 if alphabet.d == 2 else None
        b = solve_dimension(SolveConfig(alphabet, h=1 / J, s_cap=s_cap,
                                        alpha=ab, beta=ab))
        assert (b.constants["s_cap"] < 0.01) == capped
        floor = b.probes[0]
        assert floor["s"] == S_FLOOR and floor["lam_lo"] < 1.0
        assert b.s_lo == 0.0 and b.s_hi >= S_FLOOR
        p = solve_dimension(SolveConfig(alphabet, h=1 / J, s_cap=s_cap,
                                        alpha=ab, beta=ab,
                                        mode="point-estimate"))
        assert [r["s"] for r in p.probes] == [S_FLOOR]
        assert p.probes[0]["lam"] < 1.0 and p.s_lo == p.s_hi == 0.0

    def test_ceiling_above_cap_refused(self):
        # the constants hold only up to s_cap = 0.7, below this set's
        # dimension 0.8368...: the certified search stops at the cap, so
        # it refuses instead of returning a bracket nothing certifies
        cfg = SolveConfig(make_alphabet_1d(range(1, 6)), h=1 / 4000, s_cap=0.7)
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
        need = solver._footprint(A2D, 500, 2)["total"]
        monkeypatch.setattr(solver, "_mem_available", lambda: need - 1)
        cfg = SolveConfig(alphabet=A2D, h=1 / 500, s_cap=1.15, alpha=0.2,
                          beta=0.2)
        with pytest.raises(solver.OversizedMeshError, match="MiB available"):
            solve_dimension(cfg)
        monkeypatch.setattr(solver, "_mem_available", lambda: need)
        with pytest.raises(AssertionError, match="an operator was built"):
            solve_dimension(cfg)

    def test_2400_estimate_and_refusal(self, monkeypatch, no_builds, capsys):
        # J = 2400: the bytes its cache would keep, counted here from N,
        # |E| and K without building it, are most of the estimate less the
        # sample vectors.  The alphabet is closed under e2 -> -e2, so the
        # cache keeps the points of 1204 of the 2408 y rows, and the
        # vectors stay full length.  Each row keeps K = 9 values and n+1 =
        # 3 int32 columns
        fp = solver._footprint(A2D, 2400, 2)
        N = (2400 + 6) * (2400 + 8)
        rows = (2400 + 6) * (2400 + 8) // 2 * 4
        kept = rows * 9 * 8 + rows * 3 * 4 + (rows + 1) * 4 + rows * 8
        assert fp["Gs"] + fp["lg"] == kept
        assert fp["vectors"] == 48 * N
        assert kept < fp["total"] - fp["vectors"] < 1.3 * kept
        # the estimate is about 1419 MiB
        monkeypatch.setattr(solver, "_mem_available", lambda: 2**30)
        assert run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                    "--h", "1/2400", "--s-cap", "1.15", "--alpha", "0.2",
                    "--beta", "0.2"]) == EXIT_INADMISSIBLE
        err = capsys.readouterr().err
        assert "mesh too large" in err and "1024 MiB available" in err
        for part in fp:
            assert f"{part:>12}: {fp[part] / 2**20:.1f} MiB" in err

    @pytest.mark.parametrize("spec", ["primes<50", "(1,0),(1,1),(1,-1),(2,0)",
                                      "(1,0),(1,1),(2,0)"],
                             ids=["1d", "2d-folded", "2d-unfolded"])
    def test_footprint_from_J_is_the_built_meshs(self, spec):
        # the footprint a solve checks before building anything, from J
        # alone, is that of the geometry and cache it would build
        alphabet = parse_alphabet(spec)
        # 20 and 21 y midpoints at n = 2: the odd count keeps a row at y = 0
        for J, n in [(12, 2), (13, 2)] + [(30, 4)] * (alphabet.d == 1):
            grid = make_geometry(alphabet.d, J, n)
            fp = solver._footprint(alphabet, J, n)
            assert fp == operator_footprint(alphabet, grid.sample_shape, n)
            assert (kept_points(alphabet, grid.sample_shape)
                    == OperatorCache(alphabet, grid).kept)

    @staticmethod
    def run_limited(*argv):
        """cli.run(argv) in a child process under a 3 GiB address-space
        limit, so that a regression ends there in a MemoryError (exit 1)
        and allocates nothing here.  The child prints run's seconds."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        return subprocess.run(
            [sys.executable, "-c", "import sys, time; "
             "from fracdim.cli import run; t = time.perf_counter(); "
             "code = run(sys.argv[1:]); print(time.perf_counter() - t); "
             "sys.exit(code)", *argv],
            preexec_fn=limit, capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": str(Path(solver.__file__).parents[1])})

    def test_oversized_mesh_refused_before_its_geometry(self):
        # at h = 1e-9 the geometry alone would take 7.45 GiB, the operator
        # about 190 GiB: the refusal comes first (exit 2)
        proc = self.run_limited("certify", "--alphabet", "1,2", "--h", "1e-9")
        assert proc.returncode == EXIT_INADMISSIBLE, proc.stderr
        assert "mesh too large" in proc.stderr

    @pytest.mark.parametrize("spec", ["primes<10000000000",
                                      "(1..100000,-100000..100000)"])
    def test_oversized_alphabet_refused_before_its_letters(self, spec):
        # over 4e8 and 2e10 letters: the sieve or the pairs alone would
        # outgrow the limit, the largest item's count is refused first
        proc = self.run_limited("estimate", "--alphabet", spec,
                                "--h", "1/100", "--unsafe-h")
        assert proc.returncode == EXIT_INADMISSIBLE, proc.stderr
        assert "mesh too large" in proc.stderr
        assert float(proc.stdout) < 1.0

    def test_meminfo(self, tmp_path):
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:  8000 kB\nMemAvailable:  1024 kB\n")
        assert solver._mem_available(str(meminfo)) == 2**20
        meminfo.write_text("MemAvailable:  many kB\n")
        assert solver._mem_available(str(meminfo)) is None
        assert solver._mem_available(str(tmp_path / "missing")) is None

    def test_unreadable_meminfo_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(solver, "_mem_available", lambda: None)
        b = solve_dimension(SolveConfig(alphabet=A12, h=1 / 64,
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
    @given(t=st.floats(A, B, exclude_min=True), guess=st.floats(A, B))
    def test_window_to_adjacent_doubles(self, t, guess):
        # tol = 0: the window's two probes, the widening steps while it
        # misses, then bisection down to the spacing of the final pair; one
        # probe over the guessed budget pays for a window end that rounds
        # past t by less than that spacing
        above, probes = self.threshold(t)
        lo, hi = _bisect(above, self.A, self.B, 0.0, guess)
        assert lo in probes and hi in probes
        assert lo < t <= hi and hi == math.nextafter(lo, 1.0)
        ulp = hi - lo
        budget = 2 * math.log2(max(abs(guess - t), ulp) / ulp) + 5
        assert len(probes) <= budget


class TestMonotonicityAudit:
    def test_rising_estimates_raise(self):
        cache = OperatorCache(A12, make_geometry(1, 16, 2))
        profile = make_profile(A12)
        engine = ProbeEngine(cache, profile, 0.0)
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
            solve_dimension(SolveConfig(A12, h=1 / 128, tol_s=1e-9))

    def test_real_probes_pass(self):
        b = solve_dimension(SolveConfig(A12, h=1 / 40, mode="point-estimate",
                                        unsafe_h=True))
        lams = [p["lam"] for p in sorted(b.probes, key=lambda p: p["s"])]
        assert all(l2 <= l1 + 1e-12 for l1, l2 in zip(lams[:-1], lams[1:]))


class TestProlongation:
    """_prolong evaluates the coarse quasi-interpolant at the fine
    midpoints: the oracle's Qf inside the coarse parameter region, exact
    for polynomials of degree n everywhere, and a strictly positive start
    for any positive samples."""

    @staticmethod
    def midpoints(grid):
        """The grid's midpoints as x-first arrays, one per axis."""
        return np.meshgrid(*[ks.midpoints for ks in grid.axes],
                           indexing="ij")

    def prolonged(self, f, coarse, fine):
        """f on the coarse midpoints, prolonged, as an x-first array; solver
        vectors run first axis fastest, the transpose of x-first."""
        v = f(*self.midpoints(coarse)).T.ravel()
        out = solver._prolong(v, coarse, fine)
        return out.reshape(fine.sample_shape).T

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_oracle(self, d, n):
        coarse, fine = make_geometry(d, 7, n), make_geometry(d, 29, n)

        def f(x, y=0.0):
            return np.exp(np.sin(3.0 * x) + 0.5 * y)

        got, xs = self.prolonged(f, coarse, fine), self.midpoints(fine)
        inside = np.ones(got.shape, dtype=bool)
        for x, ks in zip(xs, coarse.axes):
            lo, hi = parameter_interval(ks)
            inside &= (lo <= x) & (x <= hi)
        assert 0 < inside.sum() < inside.size
        want = eval_quasi_interpolant(
            make_quasi_interpolant(n), coarse, f(*self.midpoints(coarse)),
            np.stack([x[inside] for x in xs], axis=-1))
        np.testing.assert_allclose(got[inside], want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_reproduces_quadratics(self, d):
        # at every fine midpoint, the few outside the coarse parameter
        # region included: they take the end piece, a quadratic too
        coarse, fine = make_geometry(d, 7, 2), make_geometry(d, 29, 2)

        def f(x, y=0.0):
            return 2.0 + x - x * x + 0.25 * x * y + y * y

        np.testing.assert_allclose(self.prolonged(f, coarse, fine),
                                   f(*self.midpoints(fine)), rtol=1e-13,
                                   atol=0)

    def test_floor_keeps_steep_samples_positive(self):
        # one sample 100 times its neighbours: the -1/8 weights turn the
        # coefficients next to it negative, and Qf with them near the knots;
        # the start takes half the smallest sample there
        coarse, fine = make_geometry(1, 7, 2), make_geometry(1, 29, 2)
        v = np.ones(coarse.sample_shape)
        v[5] = 100.0
        x = fine.axes[0].midpoints
        lo, hi = parameter_interval(coarse.axes[0])
        inside = (lo <= x) & (x <= hi)
        raw = eval_quasi_interpolant(make_quasi_interpolant(2), coarse, v,
                                     x[inside])
        assert raw.min() < 0
        out = solver._prolong(v, coarse, fine)
        np.testing.assert_allclose(out[inside], np.maximum(raw, 0.5),
                                   rtol=1e-13, atol=0)
        assert out.min() == 0.5

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from([1, 2]), n=st.sampled_from([2, 4]),
           J_c=st.integers(1, 6), J=st.integers(1, 30), data=st.data())
    def test_positive_start(self, d, n, J_c, J, data):
        coarse, fine = make_geometry(d, J_c, n), make_geometry(d, J, n)
        size = math.prod(coarse.sample_shape)
        # log samples up to 20 apart: neighbours often differ by far more
        # than a factor of 10
        logs = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=size,
                                  max_size=size))
        out = solver._prolong(np.exp(logs), coarse, fine)
        assert out.shape == (math.prod(fine.sample_shape),)
        assert np.isfinite(out).all() and (out > 0).all()


class TestSearch:
    """A certified solve predicts its endpoints with converged point probes,
    on the seed mesh and then, around the Newton-moved seed crossings, on
    J // SEARCH_COARSENING subintervals, and proves them on J; the
    prediction places fine probes but never decides an endpoint."""

    def test_search_then_fine_build(self, monkeypatch):
        # the seed mesh, then the search mesh, are built and probed before
        # the fine cache is built
        events, init, probe = [], OperatorCache.__init__, ProbeEngine.probe

        def built(cache, alphabet, geometry):
            init(cache, alphabet, geometry)
            events.append(("build", cache.N))

        def probed(engine, s, tol=None):
            if not events or events[-1] != ("probe", engine.cache.N):
                events.append(("probe", engine.cache.N))
            return probe(engine, s, tol)

        monkeypatch.setattr(OperatorCache, "__init__", built)
        monkeypatch.setattr(ProbeEngine, "probe", probed)
        b = solve_dimension(SolveConfig(A12, h=1 / 128, tol_s=1e-9))
        seed, coarse, fine = (math.prod(make_geometry(1, J, 2).sample_shape)
                              for J in (solver.COARSE_J, 32, 128))
        assert events == [("build", seed), ("probe", seed),
                          ("build", coarse), ("probe", coarse),
                          ("build", fine), ("probe", fine)]
        assert b.search["J_s"] == solver.COARSE_J and b.search["J_c"] == 32
        assert b.search["seed_probes"] > 0 and b.search["probes"] > 0
        assert b.constants["s_cap"] == b.search["s_hat"] + 1e-3
        assert b.search["seed_lo"] <= b.search["seed_hi"]
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
        cfg = SolveConfig(A12, h=1 / 128, tol_s=1e-9)
        good = solve_dimension(cfg)
        predict = solver._predict

        def wrong_end(engine, a, b, target, eps):
            found = predict(engine, a, b, target, eps)
            if target == 0.0:  # s_hat, which sets the cap
                return found
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

    @pytest.mark.parametrize("wrong", ["floor", "cap", "off"])
    def test_bad_seed_costs_coarse_probes_only(self, wrong, monkeypatch):
        # seed crossings on the floor, on the cap or 1e-3 high: the J // 4
        # window spans [S_FLOOR, 1] or follows the Newton step of its first
        # probe back, so the J // 4 predictions, and with them the fine
        # probes and endpoints, stay as they were
        cfg = SolveConfig(A12, h=1 / 128, tol_s=1e-9)
        good = solve_dimension(cfg)
        crossings = solver._crossings

        def wrong_seed(engine, levels, a, b, eps):
            found, iterates = crossings(engine, levels, a, b, eps)
            if (round(1.0 / engine.cache.geometry.h) == solver.COARSE_J
                    and levels != (0.0,)):  # not s_hat, which sets the cap
                found = {"floor": (a, a), "cap": (b, b),
                         "off": tuple(g + 1e-3 for g in found)}[wrong]
            return found, iterates

        monkeypatch.setattr(solver, "_crossings", wrong_seed)
        bad = solve_dimension(cfg)
        assert abs(bad.s_lo - good.s_lo) <= 1e-9
        assert abs(bad.s_hi - good.s_hi) <= 1e-9
        assert bad.s_lo <= REF_1D <= bad.s_hi
        assert len(bad.probes) == len(good.probes)
        assert bad.search["probes"] > good.search["probes"]
        for end in ("s_lo", "s_hi"):
            assert abs(bad.search[end] - good.search[end]) <= 1e-9 / 4

    @pytest.mark.parametrize("J, tol_s, bound", [(128, 1e-9, 80),
                                                  (4000, None, 95)])
    def test_search_products_bounded(self, J, tol_s, bound, monkeypatch):
        # started from the seed mesh, moved by the Newton step of its first
        # probe and converged to sigma tol_s / 4, J // 4 = 32 takes 57
        # products (76 from a window widened around the unmoved seed
        # crossings), where Illinois from [S_FLOOR, 1] with every probe
        # converged to POWER_TOL took 227.  At J = 4000 the seed crossings
        # lie 4e-9 apart but 2.2e-8 below the J // 4 ones: the window around
        # the moved ones straddles both at once (70 products; 86 around the
        # unmoved ones with a Newton margin, 112 without it)
        products, matmul = {}, TransferOperator.__matmul__

        def counted(op, v):
            products[op.shape[0]] = products.get(op.shape[0], 0) + 1
            return matmul(op, v)

        monkeypatch.setattr(TransferOperator, "__matmul__", counted)
        solve_dimension(SolveConfig(A12, h=1 / J, tol_s=tol_s))
        coarse = make_geometry(1, J // solver.SEARCH_COARSENING, 2)
        assert products[math.prod(coarse.sample_shape)] <= bound

    def test_degree_4_seed_mesh(self):
        # at n = 4 the 25-mesh cannot hold letter 1's images, so the seed
        # mesh has 2 n^2 - n + 1 = 29 subintervals; the smallest mesh
        # admissible at the cap that mesh sets (29 too; 169 at the cap 1)
        # certifies through it
        seed = solver._seed_engine(A12, make_profile(A12, n=4))
        (s_hat,), _ = solver._crossings(seed, (0.0,), S_FLOOR, 1.0, 1e-6)
        profile = make_profile(A12, n=4, s_cap=s_hat + 1e-3)
        J = math.ceil(1 / Fraction(admissible_h(profile, A12)["overall"]))
        with pytest.raises(InadmissibleMeshError):
            solve_dimension(SolveConfig(A12, h=1 / (J - 1), n=4))
        b = solve_dimension(SolveConfig(A12, h=1 / J, n=4))
        assert b.s_lo <= REF_1D <= b.s_hi
        assert b.constants["s_cap"] == s_hat + 1e-3
        assert J == b.search["J_s"] == 29 and b.search["J_c"] is None
        with pytest.raises(ValueError, match="letter 1"):
            OperatorCache(A12, make_geometry(1, 28, 4))

    @pytest.mark.parametrize("letters, n, J", [([1, 2], 4, 29),
                                               ([5, 10], 2, 25)])
    def test_fine_mesh_on_seed_mesh_built_once(self, letters, n, J,
                                               monkeypatch):
        # where the fine mesh is the seed mesh, its probes take the seed
        # engine's operator instead of building it again
        builds, init = [], OperatorCache.__init__

        def built(cache, alphabet, geometry):
            init(cache, alphabet, geometry)
            builds.append(cache.N)

        monkeypatch.setattr(OperatorCache, "__init__", built)
        b = solve_dimension(SolveConfig(make_alphabet_1d(letters), h=1 / J,
                                        n=n))
        assert b.search["J_s"] == J and b.search["J_c"] is None
        assert len(builds) == 1
        assert b.s_lo <= b.s_hi

    def test_wrong_shift_costs_probes_only(self, monkeypatch):
        # a converged lam 1e-5 too high moves both predictions about 8e-6
        # (thousands of tol_s) upward; the bisections still prove the same
        # endpoints with their own decided probes
        cfg = SolveConfig(A12, h=1 / 128, tol_s=1e-9)
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
    """A certified solve, 1D or 2D, caps s just above s_hat, where log lam
    crosses 0 on the seed mesh, then searches and proves once at that cap;
    a point estimate works at the config's cap.  No solve nests another."""

    def test_one_pass_otherwise(self, meshes):
        # the certified 1D solve lowers the cap 0.9 to just above s_hat, on
        # the seed mesh it then predicts on (J // 4 = 16 being no finer);
        # the point estimate keeps its cap and, its mesh being no finer than
        # the seed mesh, builds its own mesh only
        b = solver.solve_dimension(SolveConfig(A12, h=1 / 64, tol_s=1e-6,
                                               s_cap=0.9))
        assert b.constants["s_cap"] == b.search["s_hat"] + 1e-3 < 0.9
        p = solver.solve_dimension(SolveConfig(A2D, h=1 / 10,
                                               mode="point-estimate",
                                               unsafe_h=True, tol_s=1e-6))
        assert p.constants["s_cap"] == make_profile(A2D).s_cap
        assert p.search is None
        assert meshes == [("solve", 64), ("build", solver.COARSE_J),
                          ("build", 64), ("solve", 10), ("build", 10)]

    @pytest.mark.parametrize("spec, J, s_cap", [
        ("1,2", 64, None), ("1,2", 64, 0.532), ("1,3,5", 50, 0.9),
        ("(2,0),(3,0)", 230, 0.5), ("(2,0),(3,0)", 230, 0.3378)])
    def test_cap_rule_in_every_dimension(self, spec, J, s_cap):
        # one rule in 1D and 2D: the rigor constants hold up to the given
        # cap or just above s_hat, whichever is lower (0.532 and 0.3378 lie
        # between the dimension and s_hat + 1e-3)
        alphabet = parse_alphabet(spec)
        ab = 0.2 if alphabet.d == 2 else None
        b = solve_dimension(SolveConfig(alphabet, h=1 / J, s_cap=s_cap,
                                        alpha=ab, beta=ab, tol_s=1e-8))
        s_hat = b.search["s_hat"]
        assert isinstance(s_hat, float)
        given = make_profile(alphabet, s_cap=s_cap, alpha=ab, beta=ab).s_cap
        assert b.constants["s_cap"] == min(given, s_hat + 1e-3)
        assert (b.constants["s_cap"] == given) == (s_cap in (0.532, 0.3378))
        assert b.s_hi <= b.constants["s_cap"]

    def test_same_cap_one_bisection(self, meshes):
        # the certify-2d case: s_hat plus 1e-3 lies above s_cap = 1.15, so
        # the cap stays.  J // 4 = 125, started from the seed mesh that set
        # the cap and moved by the Newton step of one probe at its lower
        # crossing, predicts both endpoints within 1e-9; one converged fine
        # probe at the lower prediction moves both by its Newton step, and
        # each endpoint then takes two decided probes: 5 probes, where
        # bisecting [S_FLOOR, 1.15] took 57 and ended at
        # (1.149529368563135, 1.1496249226942479), the unshifted predictions
        # took 14 and ended at (1.1495293686078023, 1.1496249227192226), a
        # start linearly interpolated from the coarse mesh ended at
        # (1.1495293685592338, 1.1496249227206532), an unseeded search
        # converged to POWER_TOL at (1.1495293685592622, 1.1496249227206816)
        # and a J // 4 window widened from the seed crossings at
        # (1.1495293685592622, 1.1496249227196629), all within tol_s = 1e-10
        # of these
        b = solver.solve_dimension(SolveConfig(A2D, h=1 / 500, s_cap=1.15,
                                               alpha=0.2, beta=0.2))
        assert meshes == [("solve", 500), ("build", solver.COARSE_J),
                          ("build", 125), ("build", 500)]
        assert (b.s_lo, b.s_hi) == (1.149529368559262, 1.1496249227211934)
        assert b.s_lo <= chebyshev_dimension_2d(A2D.letters) <= b.s_hi
        assert len(b.probes) == 5
        # the quasi-interpolated coarse iterate starts the converged probe
        # (9 iterations; 14 from the linear start) and the coarse ratio the
        # first s_hi probe: 11 fine iterations in all (20 before)
        [newton] = [p for p in b.probes if p["s"] == b.search["s_lo"]]
        assert newton["iterations"] <= 10
        assert sum(p["iterations"] for p in b.probes) <= 12
        assert max(p["s"] for p in b.probes) <= 1.15
        assert b.constants["s_cap"] == 1.15
        assert "first_pass" not in b.to_record()
        search = b.to_record()["search"]
        assert search["J_c"] == 125 and search["probes"] == 6
        assert search["J_s"] == solver.COARSE_J
        assert search["s_hat"] + 1e-3 > 1.15
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
        constants = solver._setup(SolveConfig(alphabet, h=1 / J, s_cap=s_cap,
                                              alpha=0.2, beta=0.2))[4]
        [(s_hat,)] = hats
        assert constants["s_cap"] == s_hat + 1e-3
        estimate = solve_dimension(SolveConfig(
            alphabet, h=1 / solver.COARSE_J, mode="point-estimate", tol_s=1e-6,
            unsafe_h=True))
        assert abs(s_hat - estimate.s_hi) <= 1e-6

    def test_lower_cap_probes_below_it(self):
        # {(2,0),(3,0)} has dimension 0.3374...: the cap drops from 0.5 to
        # just above the coarse estimate, which shrinks err
        alphabet = parse_alphabet("(2,0),(3,0)")
        b = solve_dimension(SolveConfig(alphabet, h=1 / 230, s_cap=0.5,
                                        alpha=0.2, beta=0.2))
        cap = b.constants["s_cap"]
        assert b.s_hi < cap < 0.5
        # no probe above the cap, where M is not derived
        assert max(p["s"] for p in b.probes) <= cap
        at_half = make_profile(alphabet, s_cap=0.5, alpha=0.2, beta=0.2)
        assert b.err < at_half.err(1.0 / 230)
        # inside, and within 1e-8 of, the bracket at the cap 0.33850 that a
        # fine 1e-6 estimate sets: a lower cap only narrows it
        assert 0 <= b.s_lo - 0.3374058610806828 < 1e-8
        assert 0 <= 0.3374676985929428 - b.s_hi < 1e-8
        assert b.s_lo <= chebyshev_dimension_2d(alphabet.letters) <= b.s_hi


class TestConstantsOnce:
    """A profile and its admissible mesh bounds do not depend on h, so
    _setup derives them once per function and inputs; each record still
    gets its own admissibility dict."""

    CFG = SolveConfig(A12, h=1 / 64, mode="point-estimate", unsafe_h=True)

    def test_study_derives_once_and_rows_share_no_dict(self, monkeypatch):
        brackets, calls = [], []
        solve = solver.solve_dimension

        def kept(cfg, **kwargs):
            brackets.append(solve(cfg, **kwargs))
            return brackets[-1]

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(solver, "solve_dimension", kept)
        # fresh wrappers are fresh keys: a patched function is called, never
        # served another's entry
        for name in ("make_profile", "admissible_h"):
            monkeypatch.setattr(solver, name, counted(getattr(solver, name)))
        convergence_study(replace(self.CFG, mesh="nodes"),
                          [1 / 25, 1 / 50, 1 / 100])
        assert calls == ["make_profile", "admissible_h"]
        first = brackets[0].admissibility
        assert first == admissible_h(make_profile(A12), A12)
        assert all(b.admissibility == first for b in brackets)
        assert len({id(b.admissibility) for b in brackets}) == len(brackets)
        first["overall"] = -1.0
        assert solver._setup(self.CFG)[3] == brackets[1].admissibility

    @pytest.mark.parametrize("change", [
        {"n": 4}, {"s_cap": 0.9}, {"alpha": 0.1}, {"beta": 0.1}, {"M": 50.0}])
    def test_any_setting_gives_a_fresh_profile(self, change):
        profile = solver._setup(self.CFG)[1]
        assert solver._setup(self.CFG)[1] is profile  # kept
        other = solver._setup(replace(self.CFG, **change))[1]
        assert other != profile and other == make_profile(A12, **change)


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
        cfg = SolveConfig(A12, h=1 / 25, mode="point-estimate")
        rows = convergence_study(cfg, [1.0 / 25, 1.0 / 50, 1.0 / 100],
                                 reference=REF_1D)
        assert [r["h"] for r in rows] == [0.04, 0.02, 0.01]
        deltas = [r["delta"] for r in rows]
        assert deltas[0] > deltas[1] > deltas[2]
        assert rows[1]["rate"] > 2.0 and rows[2]["rate"] > 2.0

    def test_without_reference(self):
        cfg = SolveConfig(A12, h=1 / 25, mode="point-estimate")
        rows = convergence_study(cfg, [1.0 / 25, 1.0 / 50, 1.0 / 100])
        assert rows[0]["delta"] is None and rows[0]["rate"] is None
        assert rows[1]["delta"] > rows[2]["delta"]
        assert rows[2]["rate"] is not None

    @pytest.mark.parametrize("alphabet, mesh, nodes", [
        (A12, "nodes", [50, 100, 200, 400, 800, 1600]),
        (A12, "nodes", [400, 100, 800, 200, 1600, 50]),
        (A2D, "intervals", [25, 50, 100]),
        (A2D, "intervals", [100, 25, 50]),
    ], ids=["refining", "out-of-order", "2d-folded-refining",
            "2d-folded-out-of-order"])
    def test_seeded_rows_match_independent_solves(self, alphabet, mesh,
                                                  nodes):
        # from the second mesh on a study starts from the previous mesh's
        # rung (its iterate prolonged, coarser or finer, through
        # cache.symmetric on the folded 2D meshes, and its s_h moved by a
        # Newton step), yet each row ends, as a lone solve of its mesh
        # does, at the midpoint of a regula-falsi bracket of log lam at
        # most 4 ulp wide around the same crossing
        cfg = SolveConfig(alphabet, mode="point-estimate", mesh=mesh)
        rows = convergence_study(cfg, [1.0 / k for k in nodes])
        for i, r in enumerate(rows):
            b = solve_dimension(replace(cfg, h=r["h"], unsafe_h=True))
            assert abs(r["s_h"] - b.s_lo) <= 4 * math.ulp(b.s_lo)
            if i == 0:
                assert r["probes"] == len(b.probes)
            else:
                # a lone solve climbs from the seed mesh, a row from the
                # row before: each takes one Newton probe and a window
                assert r["probes"] <= 8

    @staticmethod
    def rung(s, sigma, J=64):
        """A rung of the {1,2} mesh on J subintervals at s, started from
        ones."""
        geometry = make_geometry(1, J, 2)
        return Rung(geometry, np.ones(math.prod(geometry.sample_shape)),
                    (s,), sigma)

    def test_window_that_misses(self):
        # a rung at 0.6 whose slope is far too steep: the Newton step
        # barely moves it, so both ends of the window answer lam < 1 and
        # _predict returns its lower end; the estimate then runs _predict
        # on all of [S_FLOOR, d] and ends at the midpoint of its 4-ulp
        # regula-falsi bracket, as the unseeded solve does
        cfg = SolveConfig(A12, h=1 / 64, mode="point-estimate")
        unseeded = solve_dimension(cfg).s_lo
        missed = solve_dimension(cfg, rung=self.rung(0.6, 1e12)).s_lo
        assert abs(missed - unseeded) <= 4 * math.ulp(unseeded)

    def test_study_probe_budget(self):
        # {1..10} over 25, 50 and 100 nodes: 13 probes on the 24-mesh, no
        # finer than the seed mesh, then 8 on the 49-mesh and 7 on the
        # 99-mesh, each the Newton probe at the previous s_h and its window
        # (76 when the 49-mesh bisected [S_FLOOR, 1] with 55 decided
        # probes, 143 when every estimate bisected)
        cfg = SolveConfig(make_alphabet_1d(range(1, 11)),
                          mode="point-estimate", mesh="nodes")
        rows = convergence_study(cfg, [1 / 25, 1 / 50, 1 / 100])
        assert max(r["probes"] for r in rows[1:]) <= 8
        assert sum(r["probes"] for r in rows) <= 28
        # {1,2} from 50 nodes: the 49-mesh climbs from the seed mesh, and
        # its probes converge and give the 99-mesh a slope for its
        # Newton step: 9, 7, 7, 7, 7 probes (55, 13, 7, 6, 7 when the
        # 49-mesh bisected [S_FLOOR, 1] with decided probes)
        rows = convergence_study(replace(cfg, alphabet=A12),
                                 [1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800])
        assert rows[0]["probes"] <= 9
        assert max(r["probes"] for r in rows[1:]) <= 8

    def test_guess_only_for_point_estimates(self):
        with pytest.raises(ValueError, match="only a point estimate"):
            solve_dimension(SolveConfig(A12, h=1 / 64),
                            rung=self.rung(0.53, 1.26))

    def test_needs_three_meshes_without_reference(self):
        cfg = SolveConfig(A12, h=1 / 25, mode="point-estimate")
        with pytest.raises(ValueError):
            convergence_study(cfg, [1.0 / 25, 1.0 / 50])

    def test_nodes_convention_shifts_mesh(self):
        cfg_i = SolveConfig(A12, mode="point-estimate")
        cfg_n = SolveConfig(A12, mode="point-estimate", mesh="nodes")
        ri = convergence_study(cfg_i, [1.0 / 50], reference=REF_1D)
        rn = convergence_study(cfg_n, [1.0 / 50], reference=REF_1D)
        assert ri[0]["s_h"] != rn[0]["s_h"]
        # nodes convention at nominal 1/50 equals intervals at J = 49
        r49 = solve_dimension(SolveConfig(A12, h=1 / 49, mode="point-estimate",
                                          unsafe_h=True))
        assert rn[0]["s_h"] == pytest.approx(r49.s_lo, abs=1e-14)
