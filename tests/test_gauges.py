import tracemalloc

import numpy as np
import pytest

import corpus
from kstieltjes import (Gauge, GaugeTooSmallError, OracleFailureError,
                        PiecewiseFunction, TaggedDivision, constant,
                        cousin_partition, is_delta_fine, ks_dFg, ks_Fdg,
                        oracle_integral, polynomial, rs_sum_Fdg, rs_sum_dFg,
                        scaled_identity, step)
from kstieltjes import gauges
from kstieltjes.intervals import Interval
from kstieltjes.norms import sup_norm


def _plan(a, b, forced):
    """The oracle's per-call plan: the forced set of ``forced`` with the ends."""
    return gauges._ForcedSet(np.concatenate([[a, b], forced]))


def _forced_fine_division(a, b, forced, level, max_points):
    """The oracle's builder on the plan of ``forced`` with the ends."""
    return gauges._forced_fine_division(_plan(a, b, forced), level, max_points)


class TestGauge:
    def test_constant_positive(self):
        g = Gauge.constant(0.3)
        assert g(0.5) == 0.3
        with pytest.raises(ValueError):
            Gauge.constant(0.0)

    def test_forcing_shape(self):
        g = Gauge.forcing([0.5], base=1.0)
        assert g(0.5) == 1.0
        assert g(0.25) == 0.125
        assert abs(g(0.9) - 0.2) < 1e-15

    def test_forcing_caps_between_points(self):
        g = Gauge.forcing([0.25, 0.3], base=1.0)
        # at a forced point the gauge is at most half the gap to the next
        assert g(0.25) <= 0.025 + 1e-15
        assert g(0.3) <= 0.025 + 1e-15

    def test_minimum(self):
        g = Gauge.minimum(Gauge.constant(0.5), Gauge.forcing([0.5], base=1.0))
        assert g(0.5) == 0.5
        assert g(0.251) < 0.5

    def test_minimum_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="at least one gauge"):
            Gauge.minimum()

    def test_not_positive_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                Gauge.constant(bad)
            with pytest.raises(ValueError):
                Gauge.forcing([0.5], base=bad)
        for points in ([0.5, np.nan], [np.inf]):
            with pytest.raises(ValueError):
                Gauge.forcing(points)

    def test_forcing_checks_base_before_points(self):
        with pytest.raises(ValueError, match="strictly positive"):
            Gauge.forcing([np.nan], base=0.0)
        with pytest.raises(ValueError, match="finite"):
            Gauge.forcing([np.nan], base=1.0)
        assert Gauge.forcing([], base=0.25)(np.array([0.0, 3.0])).tolist() == [0.25, 0.25]


def _forcing_reference(points, base, t):
    """The forcing gauge at one float ``t``, from its definition."""
    pts = sorted(set(float(p) for p in points))
    dist = min(abs(t - p) for p in pts)
    if dist > 0.0:
        return dist / 2.0
    others = [abs(t - q) for q in pts if q != t]
    return min(base, min(others) / 2.0) if others else base


class TestForcingAgainstPlan:
    def test_plan_gauge_is_the_forcing_gauge(self, rng):
        """The oracle's check gauge, the plan's forced set with the level's
        caps, equals ``Gauge.forcing`` of the same points and the
        definition byte for byte: at the forced points (the ends among
        them), their adjacent floats, random points and points outside."""
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e4, 1e4 + 3.0)):
            for forced in _forced_sets(rng, a, b, 4):
                plan = _plan(a, b, forced)
                p = plan.forced
                ts = np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
                                     rng.uniform(a, b, 40), [a - 1.0, b + 0.5]])
                for level in (0, 3, 9, 16):
                    base = (b - a) * 4.0**-level
                    via_plan = plan.gauge(np.minimum(base, plan.half_nearest))(ts)
                    via_forcing = Gauge.forcing(forced, base=base)(ts)
                    expected = [_forcing_reference(p, base, t) for t in ts.tolist()]
                    assert via_plan.tobytes() == via_forcing.tobytes()
                    assert via_plan.tolist() == expected

    def test_sorted_route_is_the_general_route(self, rng):
        """Sorted 1-d input is evaluated gap by gap; any other input by a
        search per point (a 2-d view of the same points takes that route).
        Both give the same bytes, and the definition's values, on sorted
        and shuffled points, points on forced points (which take their
        caps), adjacent floats, points outside the hull, repeated points,
        one point and no point."""
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e4, 1e4 + 3.0)):
            for forced in _forced_sets(rng, a, b, 4):
                plan = _plan(a, b, forced)
                p = plan.forced
                near = np.concatenate([np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])
                for level in (0, 5, 16):
                    gauge = plan.gauge(np.minimum((b - a) * 4.0**-level, plan.half_nearest))
                    for ts in (np.concatenate([p, near, rng.uniform(a, b, 60),
                                               [a - 1.0, b + 0.5, a - 1e-300]]),
                               np.repeat(p, 3), np.concatenate([near, near]),
                               p[:1], near[-1:], np.array([b + 2.0]), np.empty(0)):
                        ts = np.sort(ts)
                        general = gauge(ts.reshape(1, -1)).reshape(-1)
                        assert gauge(ts).tobytes() == general.tobytes()
                        perm = rng.permutation(ts.size)
                        shuffled = np.empty_like(ts)
                        shuffled[perm] = gauge(ts[perm])
                        assert shuffled.tobytes() == general.tobytes()
                        assert general.tolist() == [
                            _forcing_reference(p, (b - a) * 4.0**-level, t) for t in ts.tolist()]
                        on = np.isin(ts, p)
                        assert (general[on] == plan.gauge(np.minimum(
                            (b - a) * 4.0**-level, plan.half_nearest))(ts[on])).all()

    def test_widened_interval_is_not_fine(self, rng, monkeypatch):
        """Mutation check on the fineness guard: one interval of the
        oracle's division widened, by absorbing its neighbours until it
        reaches the gauge at its tag, fails ``is_delta_fine`` against the
        level's gauge, and a builder whose division comes out so widened
        raises ``OracleFailureError``."""

        def widen(points, tags, j, gauge):
            # interval j keeps its tag and absorbs its right neighbours,
            # or else its left ones, up to the first point out of reach
            tag = tags[j]
            reach = gauge(float(tag))
            right = np.flatnonzero(points - tag >= reach)
            if right.size:
                hi = right[0]
                return (np.concatenate([points[:j + 1], points[hi:]]),
                        np.concatenate([tags[:j + 1], tags[hi:]]))
            left = np.flatnonzero(tag - points >= reach)
            if not left.size:
                return None  # the gauge at this tag reaches past both ends
            lo = left[-1]
            return (np.concatenate([points[:lo + 1], points[j + 1:]]),
                    np.concatenate([tags[:lo], tags[j:]]))

        a, b = -3.5, -1.25
        widened_any = 0
        for forced in _forced_sets(rng, a, b, 6):
            plan = _plan(a, b, forced)
            for level in (2, 6, 11):
                d = gauges._forced_fine_division(plan, level, 1 << 21)
                gauge = _oracle_gauge(a, b, plan.forced, level)
                assert is_delta_fine(d, gauge)
                # both ends, a random interval and both sides of every
                # forced point
                at = d.points.searchsorted(plan.forced)
                picks = {0, d.count - 1, int(rng.integers(d.count))}
                picks |= {int(j) for j in at if j < d.count} | {int(j) - 1 for j in at if j > 0}
                for j in sorted(picks):
                    mutant = widen(d.points, d.tags, j, gauge)
                    if mutant is not None:
                        widened_any += 1
                        assert not is_delta_fine(TaggedDivision(*mutant), gauge)
                j = int(rng.integers(d.count))
                if widen(d.points, d.tags, j, gauge) is None:
                    continue

                def widened(points, tags):
                    return TaggedDivision(*widen(points, tags, j, gauge))

                with monkeypatch.context() as patch:
                    patch.setattr(gauges, "TaggedDivision", widened)
                    with pytest.raises(OracleFailureError, match="not fine"):
                        gauges._forced_fine_division(plan, level, 1 << 21)
        assert widened_any > 50


class TestGaugeFloatTwin:
    """A Python float goes through the same array evaluator as a
    one-element array and comes back as a float with the same value."""

    def test_forced_point_takes_its_cap(self):
        g = Gauge.forcing([0.25, 0.375, 0.875], base=1.0)
        assert g(0.25) == g(np.array([0.25]))[0] == 0.0625
        assert type(g(0.25)) is float
        assert g(0.875) == 0.25
        # outside the hull: half the distance to the nearest end point
        assert g(-0.75) == 0.5 and g(1.5) == 0.3125


def _corpus_gauge(rng):
    """A random constant, dyadic-reachable forcing, or minimum gauge."""
    style = rng.integers(0, 3)
    if style == 0:
        return Gauge.constant(float(rng.uniform(0.05, 2.0)))
    if style == 1:
        points = rng.integers(1, 1024, size=rng.integers(1, 4)) / 1024.0
        return Gauge.forcing(np.unique(points), base=float(rng.uniform(0.1, 1.0)))
    points = rng.integers(1, 256, size=2) / 256.0
    return Gauge.minimum(Gauge.constant(float(rng.uniform(0.1, 1.0))),
                         Gauge.forcing(np.unique(points)))


class TestCousin:
    def test_constant_gauge(self):
        g = Gauge.constant(0.3)
        p = cousin_partition(g, 0.0, 1.0)
        assert is_delta_fine(p, g)
        assert np.all(np.diff(p.points) < 0.3)

    def test_forcing_tags_the_point(self):
        g = Gauge.forcing([0.5], base=1.0)
        p = cousin_partition(g, 0.0, 1.0)
        assert is_delta_fine(p, g)
        for tag, interval in p.items():
            if interval.lo <= 0.5 <= interval.hi:
                assert tag == 0.5

    def test_huge_gauge_single_interval(self):
        p = cousin_partition(Gauge.constant(2.0), 0.0, 1.0)
        assert p.count == 1
        assert p.tags[0] == 0.0
        assert list(p.points) == [0.0, 1.0]

    def test_depth_cap_for_unreachable_point(self):
        # 1/3 is never a bisection point of [0,1]: the forcing gauge there
        # cannot be satisfied and the bisection must give up loudly
        g = Gauge.forcing([1.0 / 3.0], base=1.0)
        with pytest.raises(GaugeTooSmallError):
            cousin_partition(g, 0.0, 1.0)

    def test_gauge_corpus(self, rng):
        """cousin_partition output is fine for every gauge in a randomized
        corpus (constants, dyadic-reachable forcing gauges, minima)."""
        for _ in range(200):
            g = _corpus_gauge(rng)
            p = cousin_partition(g, 0.0, 1.0)
            assert is_delta_fine(p, g)

    def test_non_finite_ends_rejected(self):
        g = Gauge.constant(0.3)
        for a, b in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                cousin_partition(g, a, b)

    def test_empty_or_reversed_ends_rejected(self):
        for a, b in ((0.5, 0.5), (1.0, 0.0)):
            with pytest.raises(ValueError, match="need a < b"):
                cousin_partition(Gauge.constant(0.3), a, b)

    def test_forcing_property_on_corpus(self, rng):
        """Every fine division tags each forced point with itself."""
        for _ in range(60):
            points = np.unique(rng.integers(1, 512, size=rng.integers(1, 5)) / 512.0)
            g = Gauge.forcing(points, base=float(rng.uniform(0.2, 1.0)))
            p = cousin_partition(g, 0.0, 1.0)
            assert is_delta_fine(p, g)
            for tag, interval in p.items():
                for s in points:
                    if interval.lo <= s <= interval.hi:
                        assert tag == s


class TestIsDeltaFine:
    def test_too_wide(self):
        p = TaggedDivision([0.0, 1.0], [0.0])
        assert not is_delta_fine(p, Gauge.constant(0.5))

    def test_centered_tag(self):
        p = TaggedDivision([0.0, 1.0], [0.5])
        assert is_delta_fine(p, Gauge.constant(0.6))
        assert not is_delta_fine(p, Gauge.constant(0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            TaggedDivision([0.0, 1.0], [1.5])
        with pytest.raises(ValueError):
            TaggedDivision([0.0, 0.0, 1.0], [0.0, 0.5])

    def test_nan_tag_rejected(self):
        with pytest.raises(ValueError, match="tags must lie inside"):
            TaggedDivision([0.0, 1.0], [np.nan])
        with pytest.raises(ValueError, match="tags must lie inside"):
            TaggedDivision([0.0, 0.5, 1.0], [0.25, np.nan])

    def test_non_finite_points_rejected(self):
        for points, tags in (([0.0, np.inf], [0.0]), ([-np.inf, 0.0], [0.0]),
                             ([0.0, np.nan], [0.0]), ([np.nan, 0.0, 1.0], [0.0, 0.5])):
            with pytest.raises(ValueError, match="finite"):
                TaggedDivision(points, tags)

    def test_shape_errors(self):
        for points in ([0.0], [], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="at least one subinterval"):
                TaggedDivision(points, [0.0])
        for tags in ([0.25], [0.25, 0.5, 0.75], [[0.25, 0.75]]):
            with pytest.raises(ValueError, match="exactly one tag"):
                TaggedDivision([0.0, 0.5, 1.0], tags)


class TestRsSums:
    def test_telescoping(self, rng):
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=2)
        g = constant((0.0, 1.0), np.array([3.0, -1.0]))
        pts = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)]))
        tags = pts[:-1] + rng.uniform(0, 1, len(pts) - 1) * np.diff(pts)
        p = TaggedDivision(pts, tags)
        assert np.allclose(rs_sum_dFg(F, g, p), [3.0, -1.0], atol=1e-15)

    def test_jump_term_is_exact(self):
        F = step((0.0, 1.0), Interval.closed(0.5, 1.0), np.array([[1.0]]))
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        p = TaggedDivision([0.0, 0.25, 0.75, 1.0], [0.1, 0.5, 0.8])
        assert rs_sum_dFg(F, g, p)[0] == 0.5

    def test_single_interval(self):
        F = scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [2.0])
        p = TaggedDivision([0.0, 1.0], [0.0])
        # [F(b) - F(a)] g(a)
        assert rs_sum_dFg(F, g, p)[0] == 2.0
        # F(a) [g(b) - g(a)]
        assert rs_sum_Fdg(F, g, p)[0] == 0.0

    def test_division_must_span_the_domain(self):
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [2.0])
        for points in ([0.0, 0.5], [0.25, 1.0], [-1.0, 0.5, 1.0], [0.0, 2.0]):
            p = TaggedDivision(points, points[:-1])
            for rs_sum in (rs_sum_dFg, rs_sum_Fdg):
                with pytest.raises(ValueError, match="does not span"):
                    rs_sum(F, g, p)


def _edge_division(rng, a, b, n):
    """``n`` intervals on ``[a, b]``: jittered uniform points, each tag the
    left end, the right end or a random inner point."""
    points = np.linspace(a, b, n + 1)
    points[1:-1] += rng.uniform(-0.25, 0.25, n - 1) * ((b - a) / n)
    u, v = points[:-1], points[1:]
    inner = np.minimum(u + rng.random(n) * (v - u), v)
    return TaggedDivision(points, np.choose(rng.integers(3, size=n), [u, v, inner]))


def _jumping_pair(rng, dim, grid, dense=False):
    """An operator and a vector function on ``grid`` whose node values are
    drawn apart from their pieces, so both jump at every grid point;
    ``dense`` pieces are full cubics, otherwise ``corpus.random_coeffs``."""
    def function(kind):
        vshape = corpus.vshape_of(kind, dim)
        coeffs = [rng.uniform(-1.0, 1.0, size=(4,) + vshape) if dense
                  else corpus.random_coeffs(rng, vshape) for _ in range(grid.size - 1)]
        return PiecewiseFunction(grid, coeffs, rng.uniform(-1.0, 1.0, (grid.size,) + vshape))
    return function("operator"), function("vector")


class TestBlockedSums:
    """The sums difference the values of ``F`` (``dFg``) or ``g`` (``Fdg``)
    a block of ``gauges._BLOCK`` values, ``_BLOCK // size`` intervals of a
    function with ``size`` values per point, at a time."""

    @staticmethod
    def _unblocked(F, g, d):
        f_vals, g_vals = F.eval_many(d.points), g.eval_many(d.points)
        dFg = np.einsum("ijm,jm->i", f_vals[..., 1:] - f_vals[..., :-1], g.eval_many(d.tags))
        Fdg = np.einsum("ijm,jm->i", F.eval_many(d.tags), g_vals[..., 1:] - g_vals[..., :-1])
        return dFg, Fdg

    def test_bits_match_the_unblocked_sums(self, rng):
        """For the differenced function of each sum: levels of one block
        (at most ``B`` intervals), of two (one more, the second block a
        single interval), an exact multiple and many blocks, on three
        domains, with grid points on every block edge and next to it, and
        at random."""
        for dim in (1, 2, 3):
            a, b = [(0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)][dim - 1]
            for which, size in ((0, dim * dim), (1, dim)):
                B = gauges._BLOCK // size
                for n in (B // 3, B, B + 1, 2 * B, 3 * B + 7):
                    d = _edge_division(rng, a, b, n)
                    edges = np.arange(B, n, B)
                    grid = np.unique(np.concatenate([[a, b], rng.uniform(a, b, 5),
                                                     d.points[np.concatenate([edges, edges + 1])]]))
                    F, g = _jumping_pair(rng, dim, grid)
                    rs_sum = (rs_sum_dFg, rs_sum_Fdg)[which]
                    assert rs_sum(F, g, d).tobytes() == self._unblocked(F, g, d)[which].tobytes()

    def test_memory_per_interval(self, rng):
        """A dim-3 sum over n = 2**16 intervals keeps the two ``einsum``
        operands, (d**2 + d) n doubles, and at any time one block of the
        differenced function's values, at most _BLOCK + d**2 doubles; 64 KiB
        covers the grid-sized index arrays.  Differencing all the values
        at once holds them all as well, 21 n doubles in ``dFg`` and 15 n
        in ``Fdg``, over the bound.  Dense cubic pieces evaluate in place."""
        d, n = 3, 2**16
        bound = 8 * ((d * d + d) * n + gauges._BLOCK + d * d) + 64 * 1024
        division = _edge_division(rng, 0.0, 1.0, n)
        F, g = _jumping_pair(rng, d, np.linspace(0.0, 1.0, 9), dense=True)
        for rs_sum in (rs_sum_dFg, rs_sum_Fdg):
            rs_sum(F, g, division)  # the functions' kept tables are built
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rs_sum(F, g, division)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= bound, (rs_sum.__name__, peak, bound)


class TestOracle:
    def test_smooth_pair(self):
        F = scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        assert abs(oracle_integral(F, g, "dFg", 1e-8)[0] - 2.0 / 3.0) < 1e-8

    def test_pure_jump_exact(self):
        F = step((0.0, 1.0), Interval.closed(0.5, 1.0), np.array([[1.0]]))
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        assert oracle_integral(F, g, "dFg", 1e-8)[0] == 0.5

    def test_constant_integrator(self, rng):
        F = scaled_identity((0.0, 1.0), [4.0], dim=1)
        g = corpus.random_piecewise(rng, "vector", 1)
        assert oracle_integral(F, g, "dFg", 1e-8)[0] == 0.0

    def test_forced_tag_orientation_fdg(self):
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        g = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        assert abs(oracle_integral(F, g, "Fdg", 1e-8)[0] - 0.5) < 1e-8

    def test_failure_when_budget_too_small(self):
        F = scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        with pytest.raises(OracleFailureError):
            oracle_integral(F, g, "dFg", tol=1e-13, max_level=6)

    def test_bad_arguments(self):
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        with pytest.raises(ValueError):
            oracle_integral(F, g, "sideways", 1e-8)
        for tol in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                oracle_integral(F, g, "dFg", tol=tol)

    def test_bad_levels_and_budget(self):
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        for kwargs, match in (({"start_level": -1}, "start_level"),
                              ({"start_level": 2.0}, "start_level"),
                              ({"start_level": "3"}, "start_level"),
                              ({"max_level": -1}, "max_level"),
                              ({"max_level": 12.5}, "max_level"),
                              ({"start_level": 5, "max_level": 4}, "below start_level"),
                              ({"max_points": 1}, "max_points"),
                              ({"max_points": float("nan")}, "max_points"),
                              ({"max_points": 2.5}, "max_points"),
                              ({"max_points": np.float64(1e6)}, "max_points"),
                              ({"max_points": True}, "max_points")):
            with pytest.raises(ValueError, match=match):
                oracle_integral(F, g, "dFg", 1e-8, **kwargs)
        # a level whose mesh alone breaks the budget fails before allocating it
        with pytest.raises(OracleFailureError, match="point budget"):
            oracle_integral(F, g, "dFg", 1e-8, start_level=60, max_level=62)
        assert oracle_integral(F, g, "dFg", 1e-8, start_level=0)[0] == pytest.approx(0.5)
        assert oracle_integral(F, g, "dFg", 1e-8, max_points=np.int64(1 << 12))[0] == \
            pytest.approx(0.5)

    def test_bool_levels_rejected(self):
        # bool is an int subclass, but True is no level
        F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        for kwargs, match in (({"start_level": True, "max_level": 12}, "start_level"),
                              ({"start_level": False}, "start_level"),
                              ({"max_level": True, "start_level": 0}, "max_level")):
            with pytest.raises(ValueError, match=match):
                oracle_integral(F, g, "dFg", 1e-8, **kwargs)

    def test_matches_engine_both_orientations(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            assert np.max(np.abs(oracle_integral(F, g, "dFg", 1e-8)
                                 - ks_dFg(F, g).value)) < 1e-8
            assert np.max(np.abs(oracle_integral(F, g, "Fdg", 1e-8)
                                 - ks_Fdg(F, g).value)) < 1e-8


def _rescan_division(a, b, forced, level, gauge, max_points):
    """Reference builder: re-tag and re-test the whole division on every
    pass, splitting each interval that is not fine at its midpoint."""
    pts = np.unique(np.concatenate([np.linspace(a, b, 2**level + 1), forced]))
    if pts.size > max_points:
        raise OracleFailureError("fine division exceeded the point budget")
    for _ in range(200):
        u, v = pts[:-1], pts[1:]
        at_u = np.isin(u, forced)
        at_v = np.isin(v, forced)
        tags = np.where(at_u, u, np.where(at_v, v, 0.5 * (u + v)))
        fine = np.maximum(v - tags, tags - u) < gauge(tags)
        if fine.all():
            return TaggedDivision(pts, tags)
        if pts.size > max_points:
            raise OracleFailureError("fine division exceeded the point budget")
        mids = 0.5 * (u[~fine] + v[~fine])
        refined = np.unique(np.concatenate([pts, mids]))
        if refined.size == pts.size:
            raise OracleFailureError("refinement stalled at float resolution")
        pts = refined
    raise OracleFailureError("fine division did not stabilise")


def _oracle_gauge(a, b, forced, level):
    """The gauge ``oracle_integral`` uses at ``level``."""
    span = b - a
    return Gauge.minimum(Gauge.forcing(forced, base=span * 4.0**-level),
                         Gauge.constant(span * 2.0**-level))


def _rescan_builder(plan, level, max_points):
    """``_rescan_division`` behind the oracle builder's signature, on the
    level's gauge and the plan's forced set, which holds the ends."""
    forced = plan.forced
    a, b = float(forced[0]), float(forced[-1])
    return _rescan_division(a, b, forced, level, _oracle_gauge(a, b, forced, level),
                            max_points)


def _forced_sets(rng, a, b, level):
    """Forced sets for the builder: random, on mesh nodes, at the ends only
    and a cluster with 1e-9 gaps, each with the ends."""
    span = b - a
    nodes = a + span * rng.integers(1, 2**level, size=3) / 2**level if level else []
    cluster = a + span * rng.uniform(0.1, 0.9) + 1e-9 * np.arange(5)
    interior = (rng.uniform(a, b, size=rng.integers(1, 7)), nodes, [], cluster,
                np.concatenate([cluster, rng.uniform(a, b, size=3)]))
    for points in interior:
        # unsorted on purpose: the builder must not rely on order
        yield rng.permutation(np.concatenate([[a, b], points]))


class TestForcedFineDivision:
    def check(self, a, b, forced, level):
        forced = np.asarray(forced, dtype=float)
        division = _forced_fine_division(a, b, forced, level, 1 << 21)
        assert is_delta_fine(division, _oracle_gauge(a, b, np.append(forced, [a, b]), level))
        points = division.points
        assert points[0] == a and points[-1] == b
        # every forced point is a division point and tags both its intervals
        forced = np.unique(forced)
        k = np.searchsorted(points, forced)
        assert np.array_equal(points[k], forced)
        inner = k < division.count
        assert np.array_equal(division.tags[k[inner]], forced[inner])
        assert np.array_equal(division.tags[k[k > 0] - 1], forced[k > 0])
        return division

    def test_random_forced_sets(self, rng):
        for level in range(15):
            for a, b in ((0.0, 1.0), (-2.0, 3.5), (1e4, 1e4 + 0.5)):
                for forced in _forced_sets(rng, a, b, level):
                    self.check(a, b, forced, level)

    def test_forced_points_on_mesh_nodes(self):
        for level in (2, 5, 8):
            self.check(0.0, 1.0, [0.0, 0.25, 0.5, 0.75, 1.0], level)
            self.check(0.0, 1.0, [0.0, 3.0 / 2**level, 1.0], level)

    def test_forced_points_at_the_ends(self):
        for level in (0, 3, 6):
            self.check(0.0, 1.0, [0.0, 1.0], level)
            self.check(-1.0, 1.0, [-1.0, 1.0 / 3.0, 1.0], level)

    def test_forced_cluster_with_tiny_gaps(self):
        cluster = 0.3 + 1e-9 * np.arange(5)
        for level in (3, 6):
            self.check(0.0, 1.0, np.concatenate([[0.0], cluster, [1.0]]), level)

    def test_empty_interior_forced_set(self):
        for level in (0, 4, 9):
            self.check(0.0, 1.0, np.empty(0), level)
            self.check(0.0, 1.0, [0.0, 1.0], level)

    def test_mesh_node_inside_the_innermost_interval_is_dropped(self):
        # at level 3 the mesh node 0.375 lies inside (p - 2**-7, p + 2**-7)
        # for both points; kept at 0.374, it would split the interval tagged
        # by p and leave next to p a midpoint-tagged sliver too wide for the
        # gauge at its tag
        level = 3
        for p in (0.3717279, 0.374):
            forced = np.array([0.0, p, 1.0])
            division = self.check(0.0, 1.0, forced, level)
            assert 0.375 not in division.points
        points = np.insert(division.points, np.searchsorted(division.points, 0.375), 0.375)
        kept = TaggedDivision(points, gauges._forced_tags(points, forced))
        assert not is_delta_fine(kept, _oracle_gauge(0.0, 1.0, forced, level))

    def test_point_budget(self):
        forced = [0.0, 0.3, 1.0]
        with pytest.raises(OracleFailureError, match="point budget"):
            _forced_fine_division(0.0, 1.0, forced, 8, 64)

    def test_point_budget_is_the_division_size(self):
        # the budget bounds the points of the division returned, exactly
        for forced, level in (([0.0, 0.3, 1.0], 3), ([0.0, 0.5, 1.0], 5),
                              ([0.0, 0.25, 0.25 + 1e-9, 1.0], 2)):
            size = _forced_fine_division(0.0, 1.0, forced, level, 1 << 21).points.size
            assert _forced_fine_division(0.0, 1.0, forced, level, size).points.size == size
            with pytest.raises(OracleFailureError, match="point budget"):
                _forced_fine_division(0.0, 1.0, forced, level, size - 1)

    def test_point_budget_counts_the_seed(self):
        # the 2**level + 1 mesh alone breaks the budget: checked before the
        # mesh is allocated, so a level of 60 fails at once
        for level, max_points in ((5, 32), (60, 1 << 21)):
            with pytest.raises(OracleFailureError, match="point budget"):
                _forced_fine_division(0.0, 1.0, np.empty(0), level, max_points)

    def test_both_ends_forced_tags_the_left_end(self):
        points = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        tags = gauges._forced_tags(points, np.array([0.0, 0.25, 1.0]))
        assert tags.tolist() == [0.0, 0.25, 0.625, 1.0]
        tags = gauges._forced_tags(points, np.array([0.5, 0.75]))
        assert tags.tolist() == [0.125, 0.5, 0.5, 0.75]
        assert gauges._forced_tags(points, np.empty(0)).tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_stall_at_float_resolution(self):
        # no point lies strictly between the two adjacent forced floats,
        # so the interval they bound can never be split
        forced = [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0]
        with pytest.raises(OracleFailureError, match="stalled"):
            _forced_fine_division(0.0, 1.0, forced, 3, 1 << 21)

    def test_rescan_reference_is_fine(self, rng):
        # the reference builder the oracle is compared with below
        for level in (0, 3, 6):
            for forced in _forced_sets(rng, 0.0, 1.0, level):
                plan = _plan(0.0, 1.0, forced)
                division = _rescan_builder(plan, level, 1 << 21)
                assert is_delta_fine(division, _oracle_gauge(0.0, 1.0, forced, level))


class TestOracleAgainstRescan:
    def test_oracle_with_rescan_builder(self, rng, monkeypatch):
        """With the re-test-everything bisection swapped in, the oracle
        agrees within 2e-8 and stops at most one level higher per call."""
        pairs = []
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            pairs.append((corpus.random_piecewise(rng, "operator", dim, max_pieces=5,
                                                  max_degree=3, max_jumps=4),
                          corpus.random_piecewise(rng, "vector", dim, max_pieces=5,
                                                  max_degree=3, max_jumps=4)))

        def run(build):
            levels, values = [], []

            def counting(plan, level, max_points):
                # the highest level built is the one the oracle stops at
                levels[-1] = max(levels[-1], level)
                return build(plan, level, max_points)

            monkeypatch.setattr(gauges, "_forced_fine_division", counting)
            for F, g in pairs:
                for orientation in ("dFg", "Fdg"):
                    levels.append(0)
                    values.append(oracle_integral(F, g, orientation, 1e-8))
            return levels, values

        levels, values = run(gauges._forced_fine_division)
        ref_levels, ref_values = run(_rescan_builder)
        for got, expected in zip(values, ref_values):
            assert np.max(np.abs(got - expected)) < 2e-8
        assert all(n <= ref + 1 for n, ref in zip(levels, ref_levels))


def _eager_oracle(F, g, orientation, tol, start_level, max_level, max_points):
    """Reference: the oracle's stopping rule with every level from
    ``start_level`` built and summed in order, as before levels were
    skipped."""
    plan = gauges._ForcedSet(np.concatenate([F.grid, g.grid]))
    rs_sum = gauges.rs_sum_dFg if orientation == "dFg" else gauges.rs_sum_Fdg
    history = []
    for level in range(start_level, max_level + 1):
        history.append(rs_sum(F, g, gauges._forced_fine_division(plan, level, max_points)))
        if len(history) >= 3:
            s0, s1, s2 = history[-3:]
            if (sup_norm(s2 - s1) < tol and sup_norm(s1 - s0) < tol
                    and sup_norm(s2 - s0) < tol):
                return history[-1]
    raise OracleFailureError(
        f"sums did not stabilise to {tol} within {max_level} refinement levels")


def _outcome(oracle, *args):
    """The value's bytes, or the failure's type and message."""
    try:
        return oracle(*args).tobytes()
    except OracleFailureError as exc:
        return type(exc).__name__, str(exc)


class TestOracleAgainstEager:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Levels passed to the builder, one list per oracle call."""
        build, calls = gauges._forced_fine_division, []

        def counting(plan, level, max_points):
            calls[-1].append(level)
            return build(plan, level, max_points)

        monkeypatch.setattr(gauges, "_forced_fine_division", counting)
        return calls

    def compare(self, builds, F, g, *args):
        builds.append([])
        lazy = _outcome(oracle_integral, F, g, *args)
        builds.append([])
        eager = _outcome(_eager_oracle, F, g, *args)
        assert lazy == eager, args
        skipped, every = builds[-2], builds[-1]
        assert len(set(skipped)) == len(skipped)
        if isinstance(lazy, bytes):
            # the three highest levels built are the winner and the two below
            top = max(every)
            assert set(skipped) <= set(every)
            assert sorted(skipped)[-3:] == [top - 2, top - 1, top]
        else:
            # a failure may come from the level above a skipped one
            assert max(skipped) <= max(every) + 1
        return lazy, len(skipped), len(every)

    def pair(self, rng):
        dim = int(rng.integers(1, 4))
        return (corpus.random_piecewise(rng, "operator", dim),
                corpus.random_piecewise(rng, "vector", dim))

    def test_random_pairs_match_the_eager_loop(self, rng, builds):
        lazy_levels = eager_levels = 0
        for _ in range(30):
            F, g = self.pair(rng)
            start = int(rng.integers(0, 5))
            args = (str(rng.choice(["dFg", "Fdg"])), float(rng.choice([1e-4, 1e-8, 1e-11])),
                    start, start + int(rng.integers(0, 14)), int(rng.choice([1 << 12, 1 << 15])))
            _, n_lazy, n_eager = self.compare(builds, F, g, *args)
            lazy_levels += n_lazy
            eager_levels += n_eager
        assert lazy_levels < eager_levels

    def test_named_cases(self, rng, builds):
        F, g = self.pair(rng)
        outcomes = [
            self.compare(builds, F, g, "dFg", 1e-8, 3, 40, 1 << 21)[0],
            # the budget is hit mid-run
            self.compare(builds, F, g, "dFg", 1e-12, 0, 40, 3000)[0],
            self.compare(builds, F, g, "Fdg", 1e-12, 2, 40, 700)[0],
            # max_level runs out
            self.compare(builds, F, g, "dFg", 1e-12, 0, 6, 1 << 21)[0],
            self.compare(builds, F, g, "Fdg", 1e-12, 1, 8, 1 << 21)[0],
            # fewer than three levels
            self.compare(builds, F, g, "dFg", 1e-8, 4, 4, 1 << 21)[0],
            self.compare(builds, F, g, "dFg", 1e-8, 4, 5, 1 << 21)[0],
            self.compare(builds, F, g, "dFg", 1e-8, 60, 60, 1 << 21)[0],
        ]
        assert isinstance(outcomes[0], bytes)
        assert all(out[1] == "fine division exceeded the point budget" for out in outcomes[1:3])
        assert all("did not stabilise" in out[1] for out in outcomes[3:7])

    def test_first_failure_in_level_order(self, rng, monkeypatch):
        """A build failing from level ``L`` on, with a message naming its
        level: on a failure the oracle builds the levels it skipped below,
        so the error is the eager loop's, that of level ``L``."""
        build, failed = gauges._forced_fine_division, 0
        for _ in range(30):
            F, g = self.pair(rng)
            first = int(rng.integers(2, 12))

            def failing(plan, level, max_points):
                if level >= first:
                    raise OracleFailureError(f"level {level} fails")
                return build(plan, level, max_points)

            monkeypatch.setattr(gauges, "_forced_fine_division", failing)
            args = (str(rng.choice(["dFg", "Fdg"])), 1e-12, 0, int(rng.integers(first, 14)),
                    1 << 21)
            expected = _outcome(_eager_oracle, F, g, *args)
            assert _outcome(oracle_integral, F, g, *args) == expected
            failed += expected == ("OracleFailureError", f"level {first} fails")
        assert failed >= 20

    def test_synthetic_sums_match_the_eager_loop(self, rng, monkeypatch):
        """Sums drawn from multiples of 0.6 with ``tol = 1`` make every pattern
        of close and apart pairs common, among them a level close to both
        neighbours that are apart from each other; builds fail from a random
        level on, or never."""
        sums, first, built = [], [0], []

        def build(plan, level, max_points):
            built.append(level)
            if level >= first[0]:
                raise OracleFailureError(f"level {level} fails")
            return level

        monkeypatch.setattr(gauges, "_forced_fine_division", build)
        monkeypatch.setattr(gauges, "rs_sum_dFg", lambda F, g, level: sums[level])
        F, g = self.pair(rng)
        outcomes = set()
        for _ in range(2000):
            sums[:] = 0.6 * rng.integers(0, 5, size=(20, 1))
            start = int(rng.integers(0, 4))
            first[0] = start + int(rng.integers(0, 24))
            args = ("dFg", 1.0, start, start + int(rng.integers(0, 16)), 1 << 21)
            built.clear()
            got = _outcome(oracle_integral, F, g, *args)
            assert len(set(built)) == len(built)
            expected = _outcome(_eager_oracle, F, g, *args)
            assert got == expected, (np.ravel(sums).tolist(), first, args)
            outcomes.add(type(got).__name__ if isinstance(got, bytes) else got[1][:5])
        assert outcomes == {"bytes", "level", "sums "}


#: Division size is not monotone in the level on this layout: four forced
#: points, each with a second one 0.0041 above it.
_DIPPING = np.concatenate([[0.0622, 0.3702, 0.6783, 0.9863],
                           np.array([0.0622, 0.3702, 0.6783, 0.9863]) + 0.0041])


class TestHiddenLevel:
    def test_dipping_layout(self):
        sizes = [_forced_fine_division(0.0, 1.0, _DIPPING, level, 1 << 21).points.size
                 for level in range(11)]
        assert any(hi < lo for lo, hi in zip(sizes, sizes[1:]))
        plan = _plan(0.0, 1.0, _DIPPING)
        assert all(plan.size_bound(level) >= size for level, size in enumerate(sizes))

    def test_bound_covers_random_layouts(self, rng):
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)):
            for level in range(13):
                for forced in _forced_sets(rng, a, b, level):
                    plan = gauges._ForcedSet(forced)
                    try:
                        size = gauges._forced_fine_division(plan, level, 1 << 21).points.size
                    except OracleFailureError:  # a cluster stalls at float resolution
                        continue
                    assert size <= plan.size_bound(level)

    def test_skipped_level_over_budget_fails_as_in_order(self, rng, monkeypatch):
        """A stand-in builder whose level ``hidden`` exceeds the budget
        whenever its bound does, with sums that make the lazy rule skip
        that level: the oracle raises the in-order loop's error when the
        bound is above the budget and returns its value when it is not."""
        F, g = corpus.random_piecewise(rng, "operator", 2), corpus.random_piecewise(rng, "vector", 2)
        plan = gauges._ForcedSet(np.concatenate([F.grid, g.grid]))
        # sums at start..start + 4: the pair (start + 2, start + 1) is apart,
        # so start is skipped, and start + 4 wins with start + 3 and start + 2
        for start in (0, 2, 5):
            hidden, built = start, []
            sums = {start + i: np.array([s]) for i, s in enumerate([0.0, 0.0, 1.0, 1.0, 1.0])}

            def build(plan, level, max_points):
                built.append(level)
                if level == hidden and plan.size_bound(level) > max_points:
                    raise OracleFailureError("fine division exceeded the point budget")
                return level

            monkeypatch.setattr(gauges, "_forced_fine_division", build)
            monkeypatch.setattr(gauges, "rs_sum_dFg", lambda F, g, level: sums[level])
            bound = plan.size_bound(hidden)
            args = ("dFg", 0.5, start, start + 10)
            assert _outcome(oracle_integral, F, g, *args, bound) == sums[start + 4].tobytes()
            assert hidden not in built
            expected = _outcome(_eager_oracle, F, g, *args, bound - 1)
            assert expected == ("OracleFailureError", "fine division exceeded the point budget")
            assert _outcome(oracle_integral, F, g, *args, bound - 1) == expected
