"""End-to-end acceptance suite: published-value reproductions, certified
brackets, constants, oracle equivalence, and the runtime positivity check.

Each test pins the tolerance it claims; the slow runs (certified 2D, fine
meshes) also pin the wall-clock budgets they must meet on a laptop-class box.
"""
import json
import math
import time

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fracdim.assembly import OperatorCache
from fracdim.bspline import TensorGrid, make_uniform_knots
from fracdim.cli import REPRODUCTIONS, run
from fracdim.constants import (bramble_hilbert_constant, err_coefficient_1d,
                               legendre_projection_constants, make_profile,
                               multivariate_error_constant)
from fracdim.maps import make_alphabet_1d, make_alphabet_2d
from fracdim.quasi import make_quasi_interpolant
from fracdim.solver import (InadmissibleMeshError, SolveConfig,
                            convergence_study, make_geometry, solve_dimension)
from fracdim.spectral import cone_membership, power_iteration, spectral_bracket
from oracles import (ConvergedProbes, chebyshev_dimension_2d,
                     eval_quasi_interpolant, full_matrix, local_basis)

REF_12 = 0.531280506277205        # two-letter set {1,2}, independently known
REF_34 = 0.980419625226979        # {1..34} at the finest published mesh
REF_2D4 = 1.149577146906169       # {(1,0),(1,1),(1,-1),(2,0)} at 1/400


def point_estimate(alphabet, h, mesh="intervals"):
    cfg = SolveConfig(alphabet, h=h, mesh=mesh, mode="point-estimate",
                      unsafe_h=True)
    return solve_dimension(cfg).s_lo


def chebyshev_dimension_12(mpmath, nodes=24, dps=30):
    """dim E_{1,2} by Chebyshev collocation of L_s on [0,1] in mpmath.

    Independent of the package: f is represented by its values at `nodes`
    first-kind Chebyshev points and evaluated at the images 1/(x+e) by
    barycentric interpolation; lambda(s) comes from power iteration and the
    root of lambda(s) = 1 from the secant method.  L_s is analytic, so the
    error falls geometrically with `nodes`: 24 nodes agree with 36 nodes at
    40 digits to ~1e-22.
    """
    with mpmath.workdps(dps):
        angles = [(2 * k + 1) * mpmath.pi / (2 * nodes) for k in range(nodes)]
        x = [(1 + mpmath.cos(t)) / 2 for t in angles]
        w = [(-1) ** k * mpmath.sin(t) for k, t in enumerate(angles)]

        def lagrange_row(y):
            c = [wk / (y - xk) for wk, xk in zip(w, x)]
            total = mpmath.fsum(c)
            return [ck / total for ck in c]

        terms = [[(xi + e, lagrange_row(1 / (xi + e))) for e in (1, 2)]
                 for xi in x]

        def lam(s):
            rows = [[mpmath.fsum(xe ** (-2 * s) * ell[j] for xe, ell in row)
                     for j in range(nodes)] for row in terms]
            v = [mpmath.mpf(1)] * nodes
            # |lambda_2 / lambda_1| is about 0.31: 100 steps leave 1e-50
            for _ in range(100):
                v = [mpmath.fdot(r, v) for r in rows]
                top = max(v)
                v = [vi / top for vi in v]
            return top

        return mpmath.findroot(lambda s: lam(s) - 1,
                               (mpmath.mpf("0.53"), mpmath.mpf("0.54")),
                               solver="secant")


@pytest.fixture(scope="module")
def oracle_12():
    """dim E_{1,2} to ~1e-22, computed here rather than typed in: the
    15-digit REF_12 is 1.4e-16 off, 15% of the 9.4e-16 delta at the finest
    mesh of the sweep.  Returned rounded to double."""
    mpmath = pytest.importorskip("mpmath")
    value = chebyshev_dimension_12(mpmath)
    assert abs(value - REF_12) <= 5e-16
    assert REPRODUCTIONS["table3"]["reference"] == float(value)
    return float(value)


@pytest.fixture(scope="module")
def sweep(oracle_12):
    alphabet = make_alphabet_1d([1, 2])
    t0 = time.perf_counter()
    h_list = [1.0 / (25 * 2 ** k) for k in range(8)]  # 1/25 .. 1/3200
    rows = convergence_study(
        SolveConfig(alphabet, mesh="nodes"), h_list, reference=oracle_12)
    return rows, time.perf_counter() - t0


class TestCriterion1TwoLetterSweep:
    """{1,2} point estimates: finest-mesh value, sweep budget, and rates."""

    def test_finest_mesh_value(self, sweep):
        rows, _ = sweep
        assert abs(rows[-1]["s_h"] - 0.531280506277204) <= 2e-12

    def test_sweep_under_two_minutes(self, sweep):
        _, elapsed = sweep
        assert elapsed < 120.0

    def test_empirical_rates_last_four_rows(self, sweep):
        # the published table's delta column is displaced one row from its
        # s_h column; once re-aligned, its rate column coincides with the
        # standard rate_i = log2(delta_{i-1}/delta_i) used here, so the
        # targets below are the published values at rows 1/400..1/1600
        rows, _ = sweep
        rates = [r["rate"] for r in rows[-4:-1]]
        targets = [3.040, 3.521, 3.601]
        for got, want in zip(rates, targets):
            assert abs(got - want) <= 0.5

    def test_finest_row_rate_unresolvable_at_double_precision(self, sweep):
        # The published rate 3.655 at row 1/3200 divides by a delta of
        # 9.4e-16, about 8 ulp of s_h, so an error of one or two ulp in
        # either term moves the rate by tenths.  Two such errors read 4.44:
        # (1) s_h: regula falsi on log lam stopped at a 1e-15 bracket
        #     (about 9 ulp) returns its midpoint 2 ulp (2e-16) above the
        #     discrete root and reads 4.16, so convergence_study stops at a
        #     4-ulp bracket, whose midpoint is the root rounded to double.
        # (2) the reference: the 15-digit REF_12 is 1.4e-16 below the
        #     dimension, so even the exact discrete root reads a rate of 4.17
        #     against it; the sweep measures against oracle_12 instead.
        # With neither error the rate reads 3.98 (about 3.93 for the exact
        # discrete root).
        rows, _ = sweep
        assert abs(rows[-1]["rate"] - 3.655) <= 0.5


class TestCriterion2ThirtyFourLetters:
    def test_finest_mesh_value(self):
        alphabet = make_alphabet_1d(list(range(1, 35)))
        t0 = time.perf_counter()
        s = point_estimate(alphabet, 1.0 / 3200, mesh="nodes")
        elapsed = time.perf_counter() - t0
        assert abs(s - REF_34) <= 5e-12
        assert elapsed < 600.0


class TestCriterion3CertifiedBracket1D:
    def test_h_1e4_bracket(self):
        cfg = SolveConfig(make_alphabet_1d([1, 2]), h=1e-4, mode="certified")
        b = solve_dimension(cfg)
        assert b.s_lo <= REF_12 <= b.s_hi
        assert b.width <= 1e-8

    def test_h_1e5_bracket(self):
        # 1e5-point mesh completes in seconds here, so it is always run
        cfg = SolveConfig(make_alphabet_1d([1, 2]), h=1e-5, mode="certified")
        b = solve_dimension(cfg)
        assert b.s_lo <= REF_12 <= b.s_hi
        assert b.width <= 1e-10


    def test_degree_4_bracket(self, oracle_12, capsys):
        # degree 4 certifies through the CLI as degree 2 does, and its
        # fifth-order err narrows the bracket at the same mesh (3.9e-12
        # against 3.2e-8 at 1/2000)
        widths = {}
        for degree in ("4", "2"):
            assert run(["certify", "--alphabet", "1,2", "--h", "1/2000",
                        "--degree", degree]) == 0
            rec = json.loads(capsys.readouterr().out)
            assert rec["n"] == int(degree)
            assert rec["s_lo"] <= oracle_12 <= rec["s_hi"]
            widths[degree] = rec["s_hi"] - rec["s_lo"]
        assert widths["4"] < widths["2"] / 1000

    @staticmethod
    def check_relations(letters, J=None):
        """Relations that any correct brackets of a 1D limit set keep: its
        certified brackets at the coarsest admissible J (or this one) and
        at 2J, at degree 2 and 4, intersect; adding the letter 10 max E
        cannot lower the dimension, so s_lo(E) <= s_hi(E'), E' at its own
        coarsest J; and the point estimate on the first mesh lies in that
        mesh's bracket."""
        def bracket(L, J, n=2):
            return solve_dimension(SolveConfig(make_alphabet_1d(L), n=n,
                                               h=1 / J))

        def coarsest(L, n=2):
            # 1/J below the bound: the resolution one, 1/max E, is strict
            with pytest.raises(InadmissibleMeshError) as coarse:
                bracket(L, 2, n)
            bound = Fraction(coarse.value.breakdown["overall"])
            return math.floor(1 / bound) + 1

        brackets = []
        for n in (2, 4):
            Jn = J or coarsest(letters, n)
            brackets += [bracket(letters, Jn, n), bracket(letters, 2 * Jn, n)]
        assert (max(b.s_lo for b in brackets)
                <= min(b.s_hi for b in brackets))
        wider = letters + [10 * max(letters)]
        assert brackets[0].s_lo <= bracket(wider, coarsest(wider)).s_hi
        s = point_estimate(make_alphabet_1d(letters), brackets[0].h)
        assert brackets[0].s_lo <= s <= brackets[0].s_hi

    @settings(max_examples=40, deadline=None)
    @given(letters=st.lists(st.integers(1, 400), min_size=3, max_size=40,
                            unique=True))
    def test_drawn_brackets_agree(self, letters):
        # wide draws crowd onto shared columns, so most of their meshes
        # take merged rows
        self.check_relations(sorted(letters))

    def test_merged_brackets_agree(self):
        # primes<500 merges at 1/500, so its relabelled rows are checked
        primes = [p for p in range(2, 500)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        cache = OperatorCache(make_alphabet_1d(primes),
                              make_geometry(1, 500, 2))
        assert cache._merged is not None
        self.check_relations(primes, 500)


class TestCriterion4TwoDimensional:
    ALPHABET = [(1, 0), (1, 1), (1, -1), (2, 0)]

    @staticmethod
    def assert_holds_oracle(rec, letters):
        """The bracket contains the dimension from tensor Chebyshev
        collocation, computed independently of the package."""
        value = chebyshev_dimension_2d(tuple(sorted(letters)))
        assert rec["s_lo"] <= value <= rec["s_hi"]

    @pytest.mark.parametrize("letters", [ALPHABET, [(2, 0), (3, 0)]],
                             ids=["table6", "two-letters"])
    def test_chebyshev_oracle_converges(self, letters):
        # 20^2 and 24^2 nodes agree to 1e-13; the 24^2 value is the one
        # the certified brackets below must hold
        letters = tuple(sorted(letters))
        value = chebyshev_dimension_2d(letters)
        assert abs(chebyshev_dimension_2d(letters, 20) - value) <= 1e-13

    def test_point_estimate_1_400(self):
        t0 = time.perf_counter()
        s = point_estimate(make_alphabet_2d(self.ALPHABET), 1.0 / 400)
        elapsed = time.perf_counter() - t0
        assert abs(s - REF_2D4) <= 1e-9
        assert elapsed < 900.0

    def test_certified_bracket_1_1250(self):
        # relaxed per-alphabet profile: s capped just above the dimension,
        # wider cone slack, admissible down to h < 0.002
        cfg = SolveConfig(make_alphabet_2d(self.ALPHABET), h=1.0 / 1250,
                          mode="certified", s_cap=1.15, alpha=0.2, beta=0.2)
        b = solve_dimension(cfg)
        assert b.s_lo <= 1.1495767
        assert b.s_hi >= 1.1495775
        self.assert_holds_oracle(b.to_record(), self.ALPHABET)

    def test_certified_at_default_cap(self, capsys):
        # the cap drops from the default 1.8572 to just above a coarse
        # estimate before admissibility is checked; at 1.8572 this mesh
        # needs h < 0.000292 (exit 2)
        assert run(["certify", "--alphabet", "(1,0),(1,1),(1,-1),(2,0)",
                    "--h", "1/500", "--alpha", "0.2", "--beta", "0.2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["constants"]["s_cap"] < 1.151
        assert rec["s_lo"] <= 1.1495767 and rec["s_hi"] >= 1.1495775
        self.assert_holds_oracle(rec, self.ALPHABET)

    def test_certified_two_letters_default_cap(self, capsys):
        # {(2,0),(3,0)}: admissible at 1/250 only below the default cap;
        # the bracket holds the 1/400 point estimate 0.33743678...
        assert run(["certify", "--alphabet", "(2,0),(3,0)", "--h", "1/250",
                    "--alpha", "0.2", "--beta", "0.2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["s_lo"] <= 0.33743678 <= rec["s_hi"]
        self.assert_holds_oracle(rec, [(2, 0), (3, 0)])

    @pytest.mark.parametrize("letters, J", [
        ([(1, 0), (1, 1), (2, 0)], 300),
        ([(1, 0), (2, 1)], 250),
        ([(1, 1), (2, 0), (3, -1)], 300),
    ], ids=["three-letters", "two-letters", "three-letters-negative"])
    def test_unfolded_certified_holds_oracle(self, letters, J):
        # none of these alphabets is closed under e2 -> -e2, so every row of
        # the certified ladder's meshes is built (no fold); each bracket
        # holds the Chebyshev value, whose 20^2 and 24^2 nodes agree
        letters = tuple(sorted(letters))
        assert {(e1, -e2) for e1, e2 in letters} != set(letters)
        value = chebyshev_dimension_2d(letters)
        assert abs(chebyshev_dimension_2d(letters, 20) - value) <= 1e-13
        b = solve_dimension(SolveConfig(make_alphabet_2d(letters), h=1 / J,
                                        alpha=0.2, beta=0.2))
        assert b.s_lo <= value <= b.s_hi

    def test_mirror_and_estimate_agree(self):
        # relations that need no oracle: the unfolded (1,0),(2,1) and its
        # mirror e2 -> -e2 have one dimension, so their certified brackets
        # intersect; and on one mesh lambda_lo <= lambda <= lambda_hi, so
        # the point estimate lies in the bracket
        letters = [(1, 0), (2, 1)]
        b, m = (solve_dimension(SolveConfig(make_alphabet_2d(L), h=1 / 300,
                                            alpha=0.2, beta=0.2))
                for L in (letters, [(e1, -e2) for e1, e2 in letters]))
        assert max(b.s_lo, m.s_lo) <= min(b.s_hi, m.s_hi)
        s = point_estimate(make_alphabet_2d(letters), 1 / 300)
        assert b.s_lo <= s <= b.s_hi

    @settings(max_examples=12, deadline=None)
    @given(letters=st.lists(st.tuples(st.integers(1, 3), st.integers(-2, 2)),
                            min_size=2, max_size=4, unique=True))
    def test_drawn_brackets_intersect(self, letters):
        # any two certified brackets of one limit set intersect: a drawn
        # alphabet at its coarsest admissible J and at 2J (at most 600),
        # and an unfolded one and its mirror e2 -> -e2 at that J, whose
        # fine meshes deal their blocks to the cores
        def bracket(L, J):
            return solve_dimension(SolveConfig(make_alphabet_2d(L), h=1 / J,
                                               alpha=0.2, beta=0.2))

        with pytest.raises(InadmissibleMeshError) as coarse:
            bracket(letters, 2)
        J = math.ceil(1 / Fraction(coarse.value.breakdown["overall"]))
        brackets = [bracket(letters, J), bracket(letters, min(2 * J, 600))]
        mirror = [(e1, -e2) for e1, e2 in letters]
        if set(mirror) != set(letters):
            brackets.append(bracket(mirror, J))
        assert (max(b.s_lo for b in brackets)
                <= min(b.s_hi for b in brackets))


class TestCriterion5NineLetterAnomaly:
    """The 9-letter 2D set's published 1/50 row sits ~2.5e-5 above the
    converged value while 1/100 on agree to machine precision, producing a
    one-off giant rate jump; both successive deltas must land within a
    factor 5 of the published ones (the 1/50 anchor is the published value,
    which our scheme does not reproduce -- see the decisions ledger)."""
    PUBLISHED_1_50 = 1.424928094178620

    def test_delta_pattern(self):
        alphabet = make_alphabet_2d(
            [(1, 0), (1, 1), (1, -1), (1, 2), (1, -2),
             (1, 3), (1, -3), (1, 4), (1, -4)])
        s100 = point_estimate(alphabet, 1.0 / 100)
        s200 = point_estimate(alphabet, 1.0 / 200)
        delta1 = abs(self.PUBLISHED_1_50 - s100)
        delta2 = abs(s100 - s200)
        assert 2.5239119490e-5 / 5 <= delta1 <= 2.5239119490e-5 * 5
        assert 1.424850e-9 / 5 <= delta2 <= 1.424850e-9 * 5


class TestCriterion6Constants:
    def test_partition_of_unity(self):
        ks = make_uniform_knots(0.0, 1.0, 37, 2)
        xs = np.random.default_rng(0).uniform(0.0, 1.0, 500)
        _, vals = local_basis(ks, xs)
        assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-13

    def test_polynomial_reproduction(self):
        q = make_quasi_interpolant(2)
        ks = make_uniform_knots(0.0, 1.0, 23, 2)
        xs = np.linspace(0.0, 1.0, 211)
        for poly in (lambda t: np.ones_like(t),
                     lambda t: 3.0 * t - 1.0,
                     lambda t: t * t - 0.25 * t + 2.0):
            samples = poly(ks.midpoints)
            got = eval_quasi_interpolant(q, TensorGrid((ks,)), samples, xs)
            assert np.abs(got - poly(xs)).max() <= 1e-12

    def test_weight_table_exact_rationals(self):
        assert make_quasi_interpolant(2).weights_exact == (
            Fraction(-1, 8), Fraction(5, 4), Fraction(-1, 8))
        assert make_quasi_interpolant(4).weights_exact == (
            Fraction(47, 1152), Fraction(-107, 288), Fraction(319, 192),
            Fraction(-107, 288), Fraction(47, 1152))

    def test_error_coefficient_exact(self):
        assert err_coefficient_1d(1.0, 2) == 162.0

    def test_polynomial_approximation_constants(self):
        assert bramble_hilbert_constant(3, 2, 1) == pytest.approx(
            2.0 * math.sqrt(6.0), rel=1e-12)
        assert bramble_hilbert_constant(3, 2, 0) == pytest.approx(
            math.sqrt(5.0), rel=1e-12)

    def test_projection_constants_quadratic(self):
        c1, c2 = legendre_projection_constants(2)
        assert c1 < 4.427
        assert c2 < 0.114
        assert multivariate_error_constant(2, 2) < 0.62


class TestCriterion7OracleEquivalence:
    """Assembled action vs direct quasi-interpolation of the composed
    operator, scipy splines supplying the independent basis evaluation.
    Samples sit at all J+2n interval midpoints of the padded mesh and spline
    c (of J+n) reads the samples c..c+n."""
    W = np.array([-0.125, 1.25, -0.125])

    @staticmethod
    def _spline(ks, c):
        return BSpline.basis_element(ks.knots[c:c + ks.n + 2],
                                     extrapolate=False)

    def test_1d_direct_evaluation_100_vectors(self):
        alphabet = make_alphabet_1d([1, 2, 3])
        grid = make_geometry(1, 16, 2)
        op = OperatorCache(alphabet, grid).matrix(0.7)
        ks, = grid.axes
        m1, nc = ks.J + 4, ks.J + 2
        x = ks.midpoints
        splines = [self._spline(ks, c) for c in range(nc)]
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.uniform(0.1, 2.0, m1)
            coeff = np.array([self.W @ v[c:c + 3] for c in range(nc)])
            expect = np.zeros(m1)
            for e in alphabet.letters:
                y = 1.0 / (x + e)
                vals = sum(coeff[c] * np.nan_to_num(b(y))
                           for c, b in enumerate(splines))
                expect += (x + e) ** (-1.4) * vals
            assert np.abs(op @ v - expect).max() <= 1e-12

    def test_2d_direct_evaluation_100_vectors(self):
        alphabet = make_alphabet_2d([(1, 0), (2, 0)])
        s = 1.3
        grid = make_geometry(2, 10, 2)
        cache = OperatorCache(alphabet, grid)
        op = cache.matrix(s)
        ksx, ksy = grid.axes
        mx, my = ksx.J + 4, ksy.J + 4
        ncx, ncy = ksx.J + 2, ksy.J + 2
        X, Y = np.meshgrid(ksx.midpoints, ksy.midpoints)
        bx = [self._spline(ksx, c) for c in range(ncx)]
        by = [self._spline(ksy, c) for c in range(ncy)]
        # letter-independent spline tables, reused across vectors
        letter_data = []
        for (e1, e2) in alphabet.letters:
            px, py = X + e1, Y + e2
            r2 = px * px + py * py
            BX = np.array([np.nan_to_num(b(px / r2)) for b in bx])
            BY = np.array([np.nan_to_num(b(py / r2)) for b in by])
            letter_data.append((r2 ** (-s), BX, BY))
        rng = np.random.default_rng(11)
        for _ in range(100):
            # the alphabet is closed under e2 -> -e2: a symmetric v
            v = cache.symmetric(rng.uniform(0.1, 2.0, mx * my))
            Vs = v.reshape(my, mx)
            coeff = np.empty((ncy, ncx))
            for cy in range(ncy):
                for cx in range(ncx):
                    coeff[cy, cx] = \
                        self.W @ Vs[cy:cy + 3, cx:cx + 3] @ self.W
            expect = np.zeros((my, mx))
            for wgt, BX, BY in letter_data:
                expect += wgt * np.einsum("yx,ypq,xpq->pq", coeff, BY, BX)
            assert np.abs(op @ v - expect.ravel()).max() <= 1e-12

    def test_brackets_contain_dense_radii(self):
        slack = 1e-12
        for d, J in ((1, 16), (2, 8)):
            if d == 1:
                alphabet = make_alphabet_1d([1, 2, 3])
                s = 0.8
            else:
                alphabet = make_alphabet_2d([(1, 0), (1, 1), (2, 0)])
                s = 1.2
            geometry = make_geometry(d, J, 2)
            m = full_matrix(OperatorCache(alphabet, geometry), s)
            res = power_iteration(m)
            br = spectral_bracket(m, res.w)
            rho = np.abs(np.linalg.eigvals(m.toarray())).max()
            assert br.alpha - slack <= rho <= br.beta + slack


class TestCriterion8HiddenPositivity:
    """Runtime embodiment of the cone theory: on admissible meshes every
    power iterate stays strictly positive (power_iteration raises on any
    violation) and the converged vector is log-Lipschitz with constant M."""

    def test_1d_m36(self):
        J = 64
        geometry = make_geometry(1, J, 2)
        cache = OperatorCache(make_alphabet_1d([1, 2]), geometry)
        res = power_iteration(cache.matrix(0.5313))
        assert res.w.min() > 0.0
        cert = cone_membership(res.w, geometry, 36.0)
        assert cert.member
        assert cert.adjacent_ratio_max < 36.0

    def test_2d_m787(self):
        J = 2400
        geometry = make_geometry(2, J, 2)
        cache = OperatorCache(make_alphabet_2d([(1, 0)]), geometry)
        res = power_iteration(cache.matrix(1.0), max_iter=400)
        assert res.w.min() > 0.0
        cert = cone_membership(res.w, geometry, 787.0)
        assert cert.member
        assert cert.adjacent_ratio_max < 787.0

    def test_2d_certified_probe_brackets(self):
        # the same mesh as a certified probe iterated to convergence: its
        # iterate in the cone, its (1 +- err)-scaled bracket returned
        J = 2400
        alphabet = make_alphabet_2d([(1, 0)])
        profile = make_profile(alphabet)
        rec = ConvergedProbes(OperatorCache(alphabet, make_geometry(2, J, 2)),
                              profile.M, profile.err(1.0 / J))(1.0)
        assert rec["member"]
        lam_lo, lam_hi = rec["lam_lo"], rec["lam_hi"]
        assert 0.0 < lam_lo <= lam_hi
        assert lam_lo <= 0.381966011250105 <= lam_hi  # 2 - golden ratio
