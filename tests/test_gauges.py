import numpy as np
import pytest

import corpus
from kstieltjes import (Gauge, GaugeTooSmallError, OracleFailureError,
                        TaggedDivision, constant, cousin_partition,
                        is_delta_fine, ks_dFg, ks_Fdg, oracle_integral,
                        polynomial, rs_sum_Fdg, rs_sum_dFg, scaled_identity,
                        step)
from kstieltjes import gauges
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

    def test_not_positive_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                Gauge.constant(bad)
            with pytest.raises(ValueError):
                Gauge.forcing([0.5], base=bad)
        for points in ([0.5, np.nan], [np.inf]):
            with pytest.raises(ValueError):
                Gauge.forcing(points)


def _float_cases(rng):
    """Factory gauges with float twins, each with floats to call it at: on,
    just beside and near its forced points, at random, at the ends of
    ``[0, 1]`` and ``[-1, 2]``, and outside the hull of the points."""
    six = np.sort(rng.uniform(-1.0, 2.0, size=6))
    cluster = 0.3 + 1e-9 * np.arange(5)
    half = Gauge.forcing([0.5], base=0.3)
    cases = [(Gauge.constant(0.37), []),
             (Gauge.forcing([], base=0.2), []),
             (half, [0.5]),
             (Gauge.forcing(six, base=0.7), six),
             (Gauge.forcing(cluster, base=0.1), cluster),
             (Gauge.minimum(Gauge.forcing(six, base=0.7), Gauge.constant(0.05)), six),
             (Gauge.minimum(Gauge.forcing(cluster, base=0.1), Gauge.constant(1e-3), half),
              np.append(cluster, 0.5))]
    for g, pts in cases:
        pts = np.asarray(pts, dtype=float)
        yield g, np.concatenate([pts, pts + 1e-10, pts - 5e-10, pts + 0.01,
                                 rng.uniform(-3.0, 4.0, size=40),
                                 [0.0, 1.0, -1.0, 2.0, -7.5, 9.0, -0.0]])


class TestGaugeFloatTwin:
    """A Python float goes through the gauge's float twin, which must equal
    the array evaluator bit for bit."""

    def test_matches_array_path(self, rng):
        for g, ts in _float_cases(rng):
            assert g._at_float is not None
            array = g(ts)
            for t, expected in zip(ts.tolist(), array):
                got = g(t)
                assert type(got) is float
                assert np.float64(got).tobytes() == expected.tobytes(), (t, got, expected)

    def test_forced_point_takes_its_cap(self):
        g = Gauge.forcing([0.25, 0.375, 0.875], base=1.0)
        assert g(0.25) == g(np.array([0.25]))[0] == 0.0625
        assert g(0.875) == 0.25
        # outside the hull: half the distance to the nearest end point
        assert g(-0.75) == 0.5 and g(1.5) == 0.3125

    def test_user_gauge_has_no_twin(self):
        calls = []

        def fn(t):
            calls.append(t.shape)
            return np.full(t.shape, 0.5)

        g = Gauge(fn)
        assert g(0.25) == 0.5
        assert calls == [(1,)]
        assert Gauge.minimum(g, Gauge.constant(0.1))._at_float is None

    def test_non_finite_float_takes_array_path(self):
        g = Gauge.minimum(Gauge.forcing([0.5]), Gauge.constant(0.2))
        with np.errstate(invalid="ignore"):  # inf - inf at the sentinels
            for t in (float("nan"), float("inf"), float("-inf")):
                assert np.float64(g(t)).tobytes() == g(np.array([t]))[0].tobytes()


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

    def test_float_twin_matches_array_gauge(self, rng):
        """cousin_partition calls the gauge on Python floats; the same gauge
        without its float twin gives the same division bit for bit."""
        for _ in range(200):
            g = _corpus_gauge(rng)
            p = cousin_partition(g, 0.0, 1.0)
            q = cousin_partition(Gauge(g._fn), 0.0, 1.0)
            assert p.points.tobytes() == q.points.tobytes()
            assert p.tags.tobytes() == q.tags.tobytes()

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


def _frontier_division(a, b, forced, level, gauge, max_points):
    """Reference builder: the frontier bisection with every pass as whole
    arrays, each tag found by two ``searchsorted`` into the forced points."""

    def tags_of(u, v):
        if forced.size == 0:
            return 0.5 * (u + v)
        last = forced.size - 1
        at_u = forced[np.minimum(np.searchsorted(forced, u), last)] == u
        at_v = forced[np.minimum(np.searchsorted(forced, v), last)] == v
        return np.where(at_u, u, np.where(at_v, v, 0.5 * (u + v)))

    forced = np.unique(np.asarray(forced, dtype=float))
    seed = np.unique(np.concatenate([np.linspace(a, b, 2**level + 1), forced]))
    u, v = seed[:-1], seed[1:]
    accepted, n_accepted = [], 0
    for _ in range(200):
        tags = tags_of(u, v)
        fine = np.maximum(v - tags, tags - u) < gauge(tags)
        accepted.append(u[fine])
        n_accepted += accepted[-1].size
        if fine.all():
            points = np.concatenate(accepted + [seed[-1:]])
            points[:-1].sort()
            return TaggedDivision(points, tags_of(points[:-1], points[1:]))
        u, v = u[~fine], v[~fine]
        if n_accepted + u.size + 1 > max_points:
            raise OracleFailureError("fine division exceeded the point budget")
        mids = 0.5 * (u + v)
        split = (u < mids) & (mids < v)
        if not split.any():
            raise OracleFailureError("refinement stalled at float resolution")
        u, v = (np.concatenate([u, mids[split]]),
                np.concatenate([np.where(split, mids, v), v[split]]))
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
        for build in (_rescan_division, _frontier_division):
            reference = build(a, b, forced, level, gauge, 1 << 21)
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

    def test_point_budget_counts_the_seed(self):
        # a constant gauge wider than the domain makes the 33-point seed of
        # level 5 fine at once; its size alone breaks a budget of 8
        for build in (_forced_fine_division, _rescan_division):
            with pytest.raises(OracleFailureError, match="point budget"):
                build(0.0, 1.0, np.empty(0), 5, Gauge.constant(1.0), 8)
            assert build(0.0, 1.0, np.empty(0), 5, Gauge.constant(1.0), 33).count == 32

    def test_both_ends_forced_tags_the_left_end(self):
        forced = np.array([0.0, 0.5, 1.0])
        for build in (_forced_fine_division, _rescan_division, _frontier_division):
            division = build(0.0, 1.0, forced, 0, Gauge.constant(1.0), 8)
            assert division.tags.tolist() == [0.0, 0.5]
        # this gauge admits [0.5, n] only if tagged at its right end n; the
        # interval is too narrow to split, so the first pass and the later
        # ones must both tag it at 0.5 and stall on it
        n = np.nextafter(0.5, 1.0)
        gauge = Gauge(lambda t: np.where(t == 0.5, 1e-17, np.where(t == n, 0.3, 1.0)))
        for build in (_forced_fine_division, _rescan_division, _frontier_division):
            with pytest.raises(OracleFailureError, match="stalled"):
                build(0.0, 1.0, [0.0, 0.5, n, 1.0], 1, gauge, 1 << 21)

    def test_pass_limit(self):
        # the two intervals at the forced point 0 halve once per pass: a base
        # of 2**-198 is reached on the 200th pass, 2**-199 is not
        for j, outcome in ((198, 400), (199, "fine division did not stabilise")):
            gauge = Gauge.forcing([0.0], base=2.0**-j)
            for build in (_forced_fine_division, _rescan_division, _frontier_division):
                try:
                    got = build(-1.0, 1.0, [0.0], 0, gauge, 1 << 21).count
                except OracleFailureError as exc:
                    got = str(exc)
                assert got == outcome, build.__name__

    def test_stall_at_float_resolution(self):
        # no point lies strictly between the two adjacent forced floats,
        # so the interval they bound can never be split
        forced = [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0]
        gauge = _oracle_gauge(0.0, 1.0, forced, 3)
        with pytest.raises(OracleFailureError, match="stalled"):
            _forced_fine_division(0.0, 1.0, forced, 3, gauge, 1 << 21)


class TestFloatReplay:
    def test_oracle_matches_array_frontier(self, rng, monkeypatch):
        """oracle_integral is byte for byte the same with the reference
        builder that runs every pass as whole arrays."""
        pairs = []
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            pairs.append((corpus.random_piecewise(rng, "operator", dim, max_pieces=5,
                                                  max_degree=3, max_jumps=4),
                          corpus.random_piecewise(rng, "vector", dim, max_pieces=5,
                                                  max_degree=3, max_jumps=4)))
        values = [[oracle_integral(F, g, o, 1e-8) for o in ("dFg", "Fdg")]
                  for F, g in pairs]
        monkeypatch.setattr(gauges, "_forced_fine_division", _frontier_division)
        for (F, g), got in zip(pairs, values):
            for o, value in zip(("dFg", "Fdg"), got):
                assert value.tobytes() == oracle_integral(F, g, o, 1e-8).tobytes()
