"""Gauges, fine tagged divisions and Riemann-Stieltjes sums.

A gauge is a strictly positive function ``delta`` on ``[a, b]``; a tagged
division ``{(tau_j, [alpha_{j-1}, alpha_j])}`` is *delta-fine* when every
subinterval satisfies
``[alpha_{j-1}, alpha_j] subset (tau_j - delta(tau_j), tau_j + delta(tau_j))``.
For every gauge a fine tagged division exists, and bisection realises one
constructively: an interval is accepted with tag ``u``, ``v`` or the
midpoint (tried in that order) when its width is below the gauge there,
otherwise it is split at the midpoint.

The *forcing* gauge of a finite point set makes those points unavoidable:
away from the set it is half the distance to the set, and at a point of
the set it is capped by half the gap to the other points.  Any fine
division must then tag each forced point with itself — the property that
makes jump terms of Riemann-Stieltjes sums exact.

``oracle_integral`` estimates the integral purely from such sums over a
shrinking family of gauges, independently of the closed-form engine; the
two are cross-checked on a randomised corpus by the test suite.  Its fine
divisions are built by frontier bisection: starting from a dyadic mesh
that contains the forced points, each pass tests only the intervals that
the previous pass split.  Fineness of an interval depends on its two
endpoints alone, so the division is the same as re-testing every interval
on every pass would give, at a fraction of the gauge evaluations.  Only
the first pass runs on arrays; the narrow frontier it leaves is bisected
on Python floats, through the float twins of the factory gauges, which
round exactly as their array evaluators do.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite
from typing import Callable

import numpy as np

from .errors import GaugeTooSmallError, OracleFailureError
from .integrate import check_pair
from .norms import sup_norm
from .piecewise import PiecewiseFunction
from .intervals import Interval


class Gauge:
    """Positive width-control function, evaluated on scalars or arrays.
    ``at_float``, if given, must equal ``fn`` bit for bit on finite floats;
    a call with a Python float then skips numpy."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray],
                 at_float: Callable[[float], float] | None = None):
        self._fn = fn
        self._at_float = at_float

    def __call__(self, t):
        if self._at_float is not None and type(t) is float and isfinite(t):
            return self._at_float(t)
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        vals = np.asarray(self._fn(arr.reshape(1) if scalar else arr), dtype=float)
        return float(vals[0]) if scalar else vals

    @classmethod
    def constant(cls, delta: float) -> "Gauge":
        delta = float(delta)
        if not delta > 0.0:
            raise ValueError("a gauge must be strictly positive")
        return cls(lambda t: np.full(t.shape, delta), lambda t: delta)

    @classmethod
    def forcing(cls, points, base: float = 1.0) -> "Gauge":
        """Gauge forcing every fine division to tag each of ``points``.

        Off the point set the value is half the distance to the set; at a
        point it is ``base`` capped by half the gap to the nearest other
        point (so that no fine interval can contain two forced points).
        """
        base = float(base)
        if not base > 0.0:
            raise ValueError("a gauge must be strictly positive")
        pts = np.unique(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("forced points must be finite")
        if pts.size == 0:
            return cls.constant(base)
        gaps = np.diff(pts)
        nearest = np.minimum(np.concatenate([[np.inf], gaps]),
                             np.concatenate([gaps, [np.inf]]))
        caps = np.minimum(base, nearest / 2.0)
        # with sentinels, point i has neighbours ends[i] (left) and ends[i + 1]
        ends = np.concatenate([[-np.inf], pts, [np.inf]])
        pts_list, ends_list, caps_list = pts.tolist(), ends.tolist(), caps.tolist()

        def evaluate(t: np.ndarray) -> np.ndarray:
            i = np.searchsorted(pts, t)
            dist = np.minimum(t - ends[i], ends[i + 1] - t)
            out = dist / 2.0
            hit = dist == 0.0
            if np.any(hit):
                out[hit] = caps[i[hit]]
            return out

        def at_float(t: float) -> float:
            i = bisect_left(pts_list, t)
            left, right = t - ends_list[i], ends_list[i + 1] - t
            dist = left if left < right else right
            return caps_list[i] if dist == 0.0 else dist / 2.0

        return cls(evaluate, at_float)

    @classmethod
    def minimum(cls, *gauges: "Gauge") -> "Gauge":
        """Pointwise minimum of gauges (still a gauge)."""
        if not gauges:
            raise ValueError("need at least one gauge")

        def evaluate(t: np.ndarray) -> np.ndarray:
            out = gauges[0]._fn(t)
            for g in gauges[1:]:
                out = np.minimum(out, g._fn(t))
            return out

        twins = [g._at_float for g in gauges]

        def at_float(t: float) -> float:
            out = twins[0](t)
            for twin in twins[1:]:
                value = twin(t)
                out = value if value < out else out
            return out

        return cls(evaluate, None if None in twins else at_float)


class TaggedDivision:
    """Finite tagged division: points ``a = alpha_0 < ... < alpha_m = b``
    with one tag inside each subinterval."""

    def __init__(self, points, tags):
        points = np.asarray(points, dtype=float)
        tags = np.asarray(tags, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a division needs at least one subinterval")
        if not np.all(np.diff(points) > 0):
            raise ValueError("division points must be strictly increasing")
        if tags.shape != (points.size - 1,):
            raise ValueError("need exactly one tag per subinterval")
        if np.any(tags < points[:-1]) or np.any(tags > points[1:]):
            raise ValueError("tags must lie inside their subintervals")
        points.setflags(write=False)
        tags.setflags(write=False)
        self.points = points
        self.tags = tags

    @property
    def count(self) -> int:
        return self.tags.size

    def items(self) -> list[tuple[float, Interval]]:
        return [(float(t), Interval.closed(float(u), float(v)))
                for t, u, v in zip(self.tags, self.points[:-1], self.points[1:])]

    def __repr__(self) -> str:
        return (f"TaggedDivision({self.count} intervals on "
                f"[{self.points[0]}, {self.points[-1]}])")


def is_delta_fine(division: TaggedDivision, gauge: Gauge) -> bool:
    """Whether every subinterval sits strictly inside the open window of
    radius ``gauge(tag)`` around its tag."""
    u, v = division.points[:-1], division.points[1:]
    tags = division.tags
    return bool(np.all(np.maximum(v - tags, tags - u) < gauge(tags)))


def cousin_partition(gauge: Gauge, a: float, b: float,
                     max_depth: int = 60) -> TaggedDivision:
    """A fine tagged division of ``[a, b]`` by recursive bisection.

    An interval ``[u, v]`` is accepted with tag ``u``, ``v`` or the
    midpoint, tried in that order, as soon as ``v - u < gauge(tag)``;
    otherwise it is split at the midpoint.  Termination is guaranteed for
    any positive gauge whose small values bisection can reach; exceeding
    the depth cap raises :class:`GaugeTooSmallError`.
    """
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError("need a < b")
    points = [a]
    tags: list[float] = []

    def descend(u: float, v: float, depth: int):
        if depth > max_depth:
            raise GaugeTooSmallError(
                f"no fine division within depth {max_depth}; the gauge "
                f"shrinks around [{u}, {v}] faster than bisection reaches")
        width = v - u
        for tau in (u, v, 0.5 * (u + v)):
            if width < gauge(tau):
                tags.append(tau)
                points.append(v)
                return
        mid = 0.5 * (u + v)
        descend(u, mid, depth + 1)
        descend(mid, v, depth + 1)

    descend(a, b, 0)
    return TaggedDivision(points, tags)


def rs_sum_dFg(F: PiecewiseFunction, g: PiecewiseFunction,
               division: TaggedDivision) -> np.ndarray:
    """``sum_j [F(alpha_j) - F(alpha_{j-1})] g(tau_j)``."""
    check_pair(F, g)
    _check_spans(F, division)
    f_vals = F.eval_many(division.points)
    increments = f_vals[..., 1:] - f_vals[..., :-1]
    g_tags = g.eval_many(division.tags)
    return np.einsum("ijm,jm->i", increments, g_tags)


def rs_sum_Fdg(F: PiecewiseFunction, g: PiecewiseFunction,
               division: TaggedDivision) -> np.ndarray:
    """``sum_j F(tau_j) [g(alpha_j) - g(alpha_{j-1})]``."""
    check_pair(F, g)
    _check_spans(F, division)
    g_vals = g.eval_many(division.points)
    increments = g_vals[..., 1:] - g_vals[..., :-1]
    f_tags = F.eval_many(division.tags)
    return np.einsum("ijm,jm->i", f_tags, increments)


def _check_spans(f: PiecewiseFunction, division: TaggedDivision):
    if division.points[0] != f.a or division.points[-1] != f.b:
        raise ValueError("division does not span the functions' domain")


def _forced_tags(points: np.ndarray, forced: np.ndarray) -> np.ndarray:
    """Tags of the intervals between consecutive ``points``: a forced left
    end, else a forced right end, else the midpoint.  ``forced`` must be a
    sorted subset of the sorted ``points``."""
    tags = 0.5 * (points[:-1] + points[1:])
    k = np.searchsorted(points, forced)
    right = k[k > 0]
    tags[right - 1] = points[right]
    left = k[k < tags.size]
    tags[left] = points[left]
    return tags


def _forced_fine_division(a: float, b: float, forced: np.ndarray,
                          level: int, gauge: Gauge,
                          max_points: int) -> TaggedDivision:
    """Fine division for the oracle: uniform dyadic seed plus the forced
    points, refined by midpoint splitting until every interval is fine.

    Tags prefer a forced left end, then a forced right end (so jump terms
    are exact), and fall back to the midpoint, whose symmetry gives
    quadratic convergence of the sums on the smooth parts.

    The refinement is a frontier bisection: each pass tests only the
    intervals the previous pass split, sets the fine ones aside and
    replaces every other one by its two halves.  Whether an interval is
    fine depends on its endpoints alone, so this yields the same points
    and tags as re-testing the whole division on every pass, at one gauge
    evaluation per final interval plus one per split.

    The first pass tests the seed as arrays; the few intervals it leaves
    are bisected as Python floats, in the same order, where the arithmetic,
    the comparisons and the gauge's float twin round as the numpy code
    does, so the points equal an all-array bisection's bit for bit.  The
    division in use (the seed included) may not have more than
    ``max_points`` points; a pass in which no interval can be split, or
    more than 200 passes, raise :class:`OracleFailureError`.
    """
    forced = np.unique(np.asarray(forced, dtype=float))
    seed = np.unique(np.concatenate(
        [np.linspace(a, b, 2**level + 1), forced]))
    if seed.size > max_points:
        raise OracleFailureError("fine division exceeded the point budget")
    u, v = seed[:-1], seed[1:]
    tags = _forced_tags(seed, forced)
    fine = np.maximum(v - tags, tags - u) < gauge(tags)
    kept = u[fine]
    frontier = list(zip(u[~fine].tolist(), v[~fine].tolist()))
    forced_set = set(forced.tolist())
    added: list[float] = []
    passes = 1
    while frontier:
        if kept.size + len(added) + len(frontier) + 1 > max_points:
            raise OracleFailureError("fine division exceeded the point budget")
        lefts, rights = [], []
        for lo, hi in frontier:
            mid = 0.5 * (lo + hi)
            if lo < mid < hi:
                lefts.append((lo, mid))
                rights.append((mid, hi))
            else:  # too narrow to split: stays on the frontier as it is
                lefts.append((lo, hi))
        if not rights:
            raise OracleFailureError("refinement stalled at float resolution")
        if passes == 200:
            raise OracleFailureError("fine division did not stabilise")
        passes += 1
        frontier = []
        for lo, hi in lefts + rights:
            tag = (lo if lo in forced_set else hi if hi in forced_set
                   else 0.5 * (lo + hi))
            if max(hi - tag, tag - lo) < gauge(tag):
                added.append(lo)
            else:
                frontier.append((lo, hi))
    points = np.concatenate([kept, added, seed[-1:]])
    points[:-1].sort(kind="stable")
    return TaggedDivision(points, _forced_tags(points, forced))


def oracle_integral(F: PiecewiseFunction, g: PiecewiseFunction,
                    orientation: str = "dFg", tol: float = 1e-8,
                    start_level: int = 3, max_level: int = 40,
                    max_points: int = 1 << 21) -> np.ndarray:
    """Estimate the integral as a limit of Riemann-Stieltjes sums.

    Level ``k`` uses the gauge ``min(forcing gauge of the functions' grid
    points, constant 2**-k (b - a))``; the forcing base shrinks like
    ``4**-k`` so the intervals hugging a forced point contract at the same
    quadratic rate as the midpoint-tagged sums converge on the smooth
    parts.  The first level ``k >= start_level + 2`` whose last three sums
    pairwise differ by less than ``tol`` wins; running past ``max_level``
    raises :class:`OracleFailureError`.

    This estimator shares nothing with the closed-form engine: it sees the
    functions only through pointwise evaluation.
    """
    check_pair(F, g)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if orientation not in ("dFg", "Fdg"):
        raise ValueError(f"unknown orientation {orientation!r}")
    a, b = F.a, F.b
    span = b - a
    forced = np.unique(np.concatenate([F.grid, g.grid]))
    history: list[np.ndarray] = []
    for level in range(start_level, max_level + 1):
        gauge = Gauge.minimum(
            Gauge.forcing(forced, base=span * 4.0**-level),
            Gauge.constant(span * 2.0**-level))
        division = _forced_fine_division(a, b, forced, level, gauge, max_points)
        if orientation == "dFg":
            current = rs_sum_dFg(F, g, division)
        else:
            current = rs_sum_Fdg(F, g, division)
        history.append(current)
        if len(history) >= 3:
            s0, s1, s2 = history[-3:]
            if (sup_norm(s2 - s1) < tol and sup_norm(s1 - s0) < tol
                    and sup_norm(s2 - s0) < tol):
                return current
    raise OracleFailureError(
        f"sums did not stabilise to {tol} within {max_level} refinement levels")
