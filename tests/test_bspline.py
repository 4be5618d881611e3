"""B-spline evaluation against independent oracles and structural properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fracdim.bspline import (KnotSequence, TensorGrid, locate_intervals,
                             make_uniform_knots, uniform_basis)
from oracles import (eval_bspline, eval_bspline_derivative, local_basis,
                     locate_interval, parameter_interval, zero_filled_basis,
                     zero_filled_intervals)


def scipy_bspline(ks: KnotSequence, k: int):
    """Independent oracle: the same basis function via scipy."""
    return BSpline.basis_element(ks.knots[k:k + ks.n + 2], extrapolate=False)


class TestKnots:
    def test_uniform_spacing(self):
        ks = make_uniform_knots(0.0, 1.0, 7, 2)
        assert np.allclose(np.diff(ks.knots), ks.h, rtol=0, atol=1e-16)
        assert ks.num_splines == 9
        assert ks.num_intervals == 11
        assert parameter_interval(ks) == (0.0, 1.0)

    def test_offset_domain(self):
        ks = make_uniform_knots(-0.5, 0.5, 10, 2)
        lo, hi = parameter_interval(ks)
        assert lo == -0.5 and hi == 0.5
        assert ks.knots[0] == pytest.approx(-0.5 - 2 * ks.h, abs=1e-16)

    @pytest.mark.parametrize("J", [7, 25, 125, 500])
    def test_symmetric_domain_negates_exactly(self, J):
        # the y axis of make_geometry(2, J, 2): J + 4 subintervals
        # on [-1/2 - 2h, 1/2 + 2h]; an odd count puts a midpoint at 0
        h = 1.0 / J
        ks = make_uniform_knots(-0.5 - 2 * h, 0.5 + 2 * h, J + 4, 2)
        assert np.array_equal(ks.knots, -ks.knots[::-1])
        assert np.array_equal(ks.midpoints, -ks.midpoints[::-1])
        assert (ks.knots[2], ks.knots[J + 6]) == (ks.domain_lo, ks.domain_hi)
        assert (ks.midpoints == 0.0).sum() == J % 2

    @pytest.mark.parametrize("J", [7, 16, 3200])
    def test_one_sided_domain_knots(self, J):
        # a domain not symmetric about 0 (the 1D and 2D x axes) keeps
        # xi_j = domain_lo + (j - n) h, bit for bit
        h = 1.0 / J
        ks = make_uniform_knots(0.0, 1.0 + 2 * h, J + 2, 2)
        j = np.arange(J + 7, dtype=np.float64)
        assert np.array_equal(ks.knots, 0.0 + (j - 2) * ((1.0 + 2 * h)
                                                         / (J + 2)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_uniform_knots(1.0, 0.0, 4, 2)
        with pytest.raises(ValueError):
            make_uniform_knots(0.0, 1.0, 0, 2)
        with pytest.raises(ValueError):
            make_uniform_knots(0.0, 1.0, 4, -1)


class TestEvaluation:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_scipy(self, n):
        ks = make_uniform_knots(0.0, 1.0, 9, n)
        xs = np.linspace(0.0, 1.0, 161)
        for k in range(ks.num_splines):
            oracle = scipy_bspline(ks, k)
            ours = np.array([eval_bspline(ks, k, x) for x in xs])
            theirs = np.nan_to_num(oracle(xs))
            # scipy uses half-open intervals too; right-end closure can differ
            inner = xs < 1.0
            assert np.abs(ours[inner] - theirs[inner]).max() < 1e-14

    def test_partition_of_unity(self):
        # all splines on the knot vector sum to one inside the parameter interval
        for n in (1, 2, 3, 4):
            ks = make_uniform_knots(0.0, 1.0, 11, n)
            xs = np.linspace(0.0, 1.0, 301)
            total = sum(np.array([eval_bspline(ks, k, x) for x in xs])
                        for k in range(ks.num_splines))
            assert np.abs(total - 1.0).max() <= 1e-13

    def test_local_support(self):
        ks = make_uniform_knots(0.0, 1.0, 8, 2)
        k = 4
        left, right = ks.knots[k], ks.knots[k + ks.n + 1]
        for x in np.linspace(0.0, 1.0, 97):
            v = eval_bspline(ks, k, x)
            if x < left or x > right:
                assert v == 0.0

    def test_nonnegative(self):
        ks = make_uniform_knots(0.0, 1.0, 6, 3)
        for k in range(ks.num_splines):
            for x in np.linspace(0.0, 1.0, 101):
                assert eval_bspline(ks, k, x) >= 0.0

    def test_derivative_matches_scipy(self):
        ks = make_uniform_knots(0.0, 1.0, 9, 2)
        xs = np.linspace(0.01, 0.99, 37)
        for k in range(ks.num_splines):
            oracle = scipy_bspline(ks, k).derivative()
            ours = np.array([eval_bspline_derivative(ks, k, x) for x in xs])
            theirs = np.nan_to_num(oracle(xs))
            assert np.abs(ours - theirs).max() < 1e-11

    def test_out_of_span_raises(self):
        ks = make_uniform_knots(0.0, 1.0, 4, 2)
        with pytest.raises(ValueError):
            eval_bspline(ks, 0, 2.0)
        with pytest.raises(IndexError):
            eval_bspline(ks, 99, 0.5)


class TestLocation:
    def test_locate_interval_consistency(self):
        ks = make_uniform_knots(0.0, 1.0, 13, 2)
        for x in np.linspace(ks.knots[0], ks.knots[-1], 401):
            ell = locate_interval(ks, x)
            assert ks.knots[ell] <= x
            if ell < ks.num_intervals - 1:
                assert x < ks.knots[ell + 1] or x == ks.knots[-1]

    def test_vectorized_matches_scalar(self):
        ks = make_uniform_knots(-0.5, 0.5, 9, 2)
        xs = np.linspace(ks.knots[0], ks.knots[-1], 257)
        ell, t = locate_intervals(ks, xs)
        for x, e, tt in zip(xs, ell, t):
            assert e == locate_interval(ks, x)
            assert tt == pytest.approx((x - ks.knots[e]) / ks.h, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_local_coordinate_in_unit_interval(self, x):
        ks = make_uniform_knots(0.0, 1.0, 7, 2)
        ell, t = locate_intervals(ks, np.array([x]))
        assert 0.0 <= t[0] <= 1.0

    def test_uniform_basis_matches_pointwise(self):
        for n in (1, 2, 3, 4):
            ks = make_uniform_knots(0.0, 1.0, 9, n)
            xs = np.linspace(0.0, 1.0, 101)
            ell, B = local_basis(ks, xs)
            for i, x in enumerate(xs):
                for r in range(n + 1):
                    k = ell[i] - n + r
                    if 0 <= k < ks.num_splines:
                        assert B[i, r] == pytest.approx(eval_bspline(ks, k, x),
                                                        abs=1e-14)
                    else:
                        # window slots outside the basis only occur where the
                        # corresponding spline value would vanish anyway
                        assert B[i, r] == pytest.approx(0.0, abs=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-12, allow_nan=False),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_uniform_basis_partition(self, t, n):
        B = uniform_basis(np.array([t]), n)
        assert B.sum() == pytest.approx(1.0, abs=1e-13)
        assert (B >= -1e-15).all()


class TestBitwiseBuildingBlocks:
    """The structure build's recurrence and interval location give the
    frozen first forms' values bit for bit."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_basis_equals_zero_filled_recurrence(self, n):
        t = np.concatenate([[0.0, np.nextafter(1.0, 0.0), 0.5],
                            np.random.default_rng(n).uniform(0, 1, 4000)])
        got, want = uniform_basis(t, n), zero_filled_basis(t, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo,hi,J,n", [(0.0, 1.0 + 2 / 300, 302, 2),
                                           (-0.5 - 4 / 70, 0.5 + 4 / 70, 78, 4)])
    def test_location_equals_frozen_form(self, lo, hi, J, n):
        # every knot and its two neighbouring doubles, inside the span
        ks = make_uniform_knots(lo, hi, J, n)
        k = ks.knots
        x = np.concatenate([k, np.nextafter(k[1:], -np.inf),
                            np.nextafter(k[:-1], np.inf)])
        (ell, t), (want_ell, want_t) = (locate_intervals(ks, x),
                                        zero_filled_intervals(ks, x))
        # the inputs reach every branch of the verified floor: scaled
        # floors (capped at the last interval) one interval too high (81
        # and 33 of them) and one too low (33 and 20), which the fix-up
        # corrects, and x at the top knot, in the closed last interval
        floor = np.minimum(np.floor((x - k[0]) / ks.h).astype(np.int64),
                           ks.num_intervals - 1)
        assert np.any(floor == want_ell + 1) and np.any(floor == want_ell - 1)
        assert np.any(x == k[-1])
        assert ell.tobytes() == want_ell.tobytes()
        assert t.tobytes() == want_t.tobytes()
        for outside in (np.nextafter(k[0], -np.inf), np.nextafter(k[-1], np.inf)):
            with pytest.raises(ValueError, match="outside knot span"):
                locate_intervals(ks, np.array([0.0, outside]))


class TestTensor:
    def test_mismatched_axes_rejected(self):
        with pytest.raises(ValueError):
            TensorGrid((make_uniform_knots(0.0, 1.0, 5, 2),
                        make_uniform_knots(0.0, 1.0, 6, 2)))
