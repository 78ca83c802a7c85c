import numpy as np
import pytest

import corpus
from kstieltjes import (Gauge, GaugeTooSmallError, OracleFailureError,
                        TaggedDivision, constant, cousin_partition,
                        is_delta_fine, ks_dFg, ks_Fdg, oracle_integral,
                        polynomial, rs_sum_Fdg, rs_sum_dFg, scaled_identity,
                        step)
from kstieltjes.gauges import _forced_fine_division
from kstieltjes.intervals import Interval


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
            style = rng.integers(0, 3)
            if style == 0:
                g = Gauge.constant(float(rng.uniform(0.05, 2.0)))
            elif style == 1:
                points = rng.integers(1, 1024, size=rng.integers(1, 4)) / 1024.0
                g = Gauge.forcing(np.unique(points), base=float(rng.uniform(0.1, 1.0)))
            else:
                points = rng.integers(1, 256, size=2) / 256.0
                g = Gauge.minimum(Gauge.constant(float(rng.uniform(0.1, 1.0))),
                                  Gauge.forcing(np.unique(points)))
            p = cousin_partition(g, 0.0, 1.0)
            assert is_delta_fine(p, g)

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
        for tol in (-1.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                oracle_integral(F, g, "dFg", tol=tol)

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


class TestForcedFineDivision:
    def check(self, a, b, forced, level):
        forced = np.asarray(forced, dtype=float)
        gauge = _oracle_gauge(a, b, forced, level)
        division = _forced_fine_division(a, b, forced, level, gauge, 1 << 21)
        reference = _rescan_division(a, b, forced, level, gauge, 1 << 21)
        assert division.points.tobytes() == reference.points.tobytes()
        assert division.tags.tobytes() == reference.tags.tobytes()
        assert is_delta_fine(division, gauge)

    def test_random_forced_sets(self, rng):
        for level in range(11):
            for a, b in ((0.0, 1.0), (-2.0, 3.5)):
                interior = rng.uniform(a, b, size=rng.integers(0, 6))
                # unsorted on purpose: the builder must not rely on order
                forced = rng.permutation(np.concatenate([[a, b], interior]))
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

    def test_point_budget(self):
        forced = [0.0, 0.3, 1.0]
        gauge = _oracle_gauge(0.0, 1.0, forced, 8)
        with pytest.raises(OracleFailureError, match="point budget"):
            _forced_fine_division(0.0, 1.0, forced, 8, gauge, 64)

    def test_point_budget_matches_reference(self):
        # the budget counts the points of the whole division in use, as the
        # reference does: both builders succeed or fail at the same budgets
        forced = [0.0, 0.3, 1.0]
        gauge = _oracle_gauge(0.0, 1.0, forced, 3)
        for max_points in range(8, 160):
            outcomes = []
            for build in (_forced_fine_division, _rescan_division):
                try:
                    outcomes.append(build(0.0, 1.0, forced, 3, gauge, max_points).count)
                except OracleFailureError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], max_points
        assert outcomes[0] != "fine division exceeded the point budget"

    def test_stall_at_float_resolution(self):
        # no point lies strictly between the two adjacent forced floats,
        # so the interval they bound can never be split
        forced = [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0]
        gauge = _oracle_gauge(0.0, 1.0, forced, 3)
        with pytest.raises(OracleFailureError, match="stalled"):
            _forced_fine_division(0.0, 1.0, forced, 3, gauge, 1 << 21)
