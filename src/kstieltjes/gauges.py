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
two are cross-checked on a randomised corpus by the test suite.  Its
gauges are known in closed form, so each fine division is written down
directly, with no gauge test while it is built: a uniform dyadic mesh,
the forced points, and points graded geometrically toward each forced
point down to its cap.  One fineness check against the level's gauge
then guards the construction.  A level's sum holds the points, the tags,
the two ``einsum`` operands (``d**2 + d`` doubles per interval for a
dim-``d`` pair) and one block of values (``_increments``).
"""

from __future__ import annotations

from math import frexp, isfinite, prod
from typing import Callable

import numpy as np

from .errors import GaugeTooSmallError, OracleFailureError
from .integrate import check_pair
from .norms import sup_norm
from .piecewise import PiecewiseFunction
from .intervals import Interval


class Gauge:
    """Positive width-control function, evaluated on scalars or arrays."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn = fn

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        vals = np.asarray(self._fn(arr.reshape(1) if scalar else arr), dtype=float)
        return float(vals[0]) if scalar else vals

    @classmethod
    def constant(cls, delta: float) -> "Gauge":
        """The gauge ``delta`` everywhere; its array values are a
        read-only broadcast of the one value."""
        delta = float(delta)
        if not delta > 0.0:
            raise ValueError("a gauge must be strictly positive")
        return cls(lambda t: np.broadcast_to(delta, t.shape))

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
        forced = _ForcedSet(points)
        if forced.forced.size == 0:
            return cls.constant(base)
        return forced.gauge(np.minimum(base, forced.half_nearest))

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

        return cls(evaluate)


class _ForcedSet:
    """What a forcing gauge keeps that does not depend on its base: the
    sorted finite forced points, half of each gap between them, half the
    gap from each point to its nearest neighbour, and the points between
    ``-inf`` and ``inf`` sentinels.  The oracle's set holds both ends of
    the domain and is found once per call; ``_forced_fine_division`` also
    reads the forced point of each graded side from it."""

    def __init__(self, points):
        self.forced = np.unique(np.asarray(points, dtype=float))
        if not np.isfinite(self.forced).all():
            raise ValueError("forced points must be finite")
        self.half_gap = np.diff(self.forced) / 2.0
        self.half_nearest = np.minimum(np.concatenate([[np.inf], self.half_gap]),
                                       np.concatenate([self.half_gap, [np.inf]]))
        # point i has neighbours ends[i] (left) and ends[i + 1]
        self.ends = np.concatenate([[-np.inf], self.forced, [np.inf]])
        # side i is the left side of forced[i + 1], side n + i the right
        # side of forced[i], both in gap i
        self.sides = np.concatenate([self.forced[1:], self.forced[:-1]])

    def size_bound(self, level: int) -> int:
        """An upper bound on the size of the oracle's division at ``level``
        (see ``_forced_fine_division``), from the plan alone: the
        ``2**level + 1`` mesh nodes, the forced points and the graded
        points.  A side has at most as many graded points as the builder's
        ``floor(log2(max r / cap)) + 3`` halvings, and with ``r <= h`` and
        every cap at least the smallest, that is below ``e(h) - e(cap) + 4``
        for binary exponents ``e``."""
        span = float(self.forced[-1]) - float(self.forced[0])
        cap = min(span * 4.0**-level, float(self.half_nearest.min()))
        halvings = frexp(span * 2.0**-level)[1] - frexp(cap)[1] + 4
        return 2**level + 1 + self.forced.size + self.sides.size * halvings

    def gauge(self, caps: np.ndarray) -> Gauge:
        """The forcing gauge that takes ``caps[i]`` at forced point ``i``;
        ``caps`` must not exceed ``half_nearest``."""
        forced, ends = self.forced, self.ends
        lefts, rights = ends[:-1], ends[1:]

        def evaluate(t: np.ndarray) -> np.ndarray:
            # t lies in gap i, between ends[i] and ends[i + 1]
            if t.ndim == 1 and (t[1:] >= t[:-1]).all():
                # sorted: gap i holds the counts[i] points before t[bounds[i]]
                bounds = t.searchsorted(forced, side="right")
                counts = np.empty(bounds.size + 1, dtype=np.intp)
                counts[:-1], counts[-1] = bounds, t.size
                counts[1:] -= bounds
                lo, dist = np.repeat(lefts, counts), np.repeat(rights, counts)
                np.subtract(t, lo, out=lo)
                np.subtract(dist, t, out=dist)
                np.minimum(lo, dist, out=dist)
                hit = (dist == 0.0).nonzero()[0]
                i = bounds.searchsorted(hit, side="right")
            else:
                i = forced.searchsorted(t)
                dist = np.minimum(t - ends[i], ends[i + 1] - t)
                hit = dist == 0.0
                i = i[hit]
            out = np.divide(dist, 2.0, out=dist)
            out[hit] = caps[i]
            return out

        return Gauge(evaluate)


class TaggedDivision:
    """Finite tagged division: points ``a = alpha_0 < ... < alpha_m = b``
    with one tag inside each subinterval."""

    def __init__(self, points, tags):
        points = np.asarray(points, dtype=float)
        tags = np.asarray(tags, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a division needs at least one subinterval")
        if not np.isfinite(points).all():
            raise ValueError("division points must be finite")
        if not (points[1:] > points[:-1]).all():
            raise ValueError("division points must be strictly increasing")
        if tags.shape != (points.size - 1,):
            raise ValueError("need exactly one tag per subinterval")
        inside = points[:-1] <= tags
        inside &= tags <= points[1:]
        if not inside.all():
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
    reach = v - tags
    np.maximum(reach, tags - u, out=reach)
    return bool((reach < gauge(tags)).all())


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
    if not (isfinite(a) and isfinite(b)):
        raise ValueError("the ends of a division must be finite")
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
    return np.einsum("ijm,jm->i", _increments(F, division), g._eval_sorted(division.tags))


def rs_sum_Fdg(F: PiecewiseFunction, g: PiecewiseFunction,
               division: TaggedDivision) -> np.ndarray:
    """``sum_j F(tau_j) [g(alpha_j) - g(alpha_{j-1})]``."""
    check_pair(F, g)
    increments = _increments(g, division)  # first: its block is freed before F's tags
    return np.einsum("ijm,jm->i", F._eval_sorted(division.tags), increments)


#: Values per block: 8,192 intervals of a dim-3 operator, whose block and
#: increments (1.1 MiB) fit a 2 MiB L2 cache.  Blocks of 4,096 to 16,384 such
#: intervals ran a crossval cycle alike, 3% faster than no blocks.  Counting
#: values gives every dimension that footprint; a dim-1 block is 73,728 intervals.
_BLOCK = 9 * 8192


def _increments(f: PiecewiseFunction, division: TaggedDivision) -> np.ndarray:
    """``f(alpha_j) - f(alpha_{j-1})``, one C-contiguous ``vshape + (n,)``
    array.  Once the division spans the domain its sorted points go to
    ``_eval_sorted``, which keeps each point's bits on any slice, a block
    of ``_BLOCK`` values at a time (blocks share an end), never all at once."""
    points, n = division.points, division.count
    if points[0] != f.a or points[-1] != f.b:
        raise ValueError("division does not span the functions' domain")
    step = _BLOCK // prod(f.vshape)
    out = np.empty(f.vshape + (n,))
    for lo in range(0, n, step):
        vals = f._eval_sorted(points[lo:lo + step + 1])
        np.subtract(vals[..., 1:], vals[..., :-1], out=out[..., lo:lo + step])
    return out


def _forced_tags(points: np.ndarray, forced: np.ndarray) -> np.ndarray:
    """Tags of the intervals between consecutive ``points``: a forced left
    end, else a forced right end, else the midpoint.  ``forced`` must be a
    sorted subset of the sorted ``points``."""
    tags = 0.5 * (points[:-1] + points[1:])
    k = points.searchsorted(forced)
    right = k[k > 0]
    tags[right - 1] = points[right]
    left = k[k < tags.size]
    tags[left] = points[left]
    return tags


def _forced_fine_division(plan: _ForcedSet, level: int,
                          max_points: int) -> TaggedDivision:
    """Fine division of ``[a, b]`` for the oracle's gauge at ``level``,
    written down without testing the gauge (Cousin's lemma made
    constructive for this gauge).  ``plan`` holds the forced points, the
    ends ``a`` and ``b`` of the domain first and last among them.

    With ``h = span 2**-level``, ``base = span 4**-level`` and, at each
    forced point ``p``, ``cap(p) = min(base, half the gap to its nearest
    forced neighbour)``, the division holds the ``2**level + 1`` mesh, the
    forced points and, on each side of ``p``, the graded points
    ``p +- r 2**-j`` for ``j = 0..J``: ``r = min(h, half the gap to the
    neighbour on that side)`` and ``J`` is the first ``j`` whose float
    distance to ``p`` is below ``cap(p)``.  Mesh nodes strictly inside an
    innermost interval ``(p - r 2**-J, p + r 2**-J)`` are dropped, so both
    intervals at ``p`` are tagged by ``p`` and fine.  Every other interval
    lies inside a graded interval ``p +- [s, 2s]``, or at least ``h`` away
    from every forced point and at most about ``h`` wide; with its midpoint
    as tag it is fine with a margin of at least 1.5.

    Tags prefer a forced left end, then a forced right end (so jump terms
    are exact), and fall back to the midpoint, whose symmetry gives
    quadratic convergence of the sums on the smooth parts.  A division of
    more than ``max_points`` points, a graded point that rounds onto its
    forced point, or a division that fails the fineness check raise
    :class:`OracleFailureError`.
    """
    if 2**level + 1 > max_points:
        raise OracleFailureError("fine division exceeded the point budget")
    forced = plan.forced
    a, b = float(forced[0]), float(forced[-1])
    span = b - a
    h, base = span * 2.0**-level, span * 4.0**-level
    cap = np.minimum(base, plan.half_nearest)  # as Gauge.forcing rounds it
    # with the ends forced, every graded point is inside (a, b)
    r = np.minimum(h, plan.half_gap)
    # an exact offset is below cap after floor(log2(r / cap)) + 1 halvings;
    # one more covers the rounding of the float distance
    ratio = (r / np.minimum(cap[:-1], cap[1:])).max()
    halvings = 2.0 ** -np.arange(int(np.log2(ratio)) + 3)
    p, c = plan.sides, np.concatenate([cap[1:], cap[:-1]])
    pts = p[:, None] + np.concatenate([-r, r])[:, None] * halvings
    dist = np.abs(pts - p[:, None])
    last = (dist < c[:, None]).argmax(axis=1)
    innermost = pts[np.arange(last.size), last]
    if (innermost == p).any():
        raise OracleFailureError("refinement stalled at float resolution")
    graded = pts[np.arange(halvings.size) <= last[:, None]]
    # the window (lo[i], hi[i]) around forced[i] has its innermost points as ends
    windows = np.concatenate([[a], innermost, [b]])
    lo, hi = windows[:r.size + 1], windows[r.size + 1:]
    # np.linspace(a, b, 2**level + 1) bit for bit: h is its step
    mesh = np.arange(2**level + 1, dtype=float)
    mesh *= h
    mesh += a
    mesh[-1] = b
    # a window (lo, hi) is narrower than 2 base <= h: at most one mesh node
    node = mesh.searchsorted(lo, side="right")
    inside = mesh[node] < hi
    if inside.any():
        mesh = np.delete(mesh, node[inside])
    extra = np.unique(np.concatenate([forced, graded]))
    at = mesh.searchsorted(extra)
    new = mesh[np.minimum(at, mesh.size - 1)] != extra
    count = np.count_nonzero(new)
    if mesh.size + count > max_points:
        raise OracleFailureError("fine division exceeded the point budget")
    slots = at[new] + np.arange(count)  # where np.insert puts them
    points = np.empty(mesh.size + count)
    on_mesh = np.ones(points.size, dtype=bool)
    on_mesh[slots] = False
    points[on_mesh], points[slots] = mesh, extra[new]
    division = TaggedDivision(points, _forced_tags(points, forced))
    gauge = Gauge.minimum(plan.gauge(cap), Gauge.constant(h))
    if not is_delta_fine(division, gauge):
        raise OracleFailureError(f"the division built at level {level} is not fine")
    return division


def oracle_integral(F: PiecewiseFunction, g: PiecewiseFunction,
                    orientation: str = "dFg", tol: float = 1e-8,
                    start_level: int = 3, max_level: int = 40,
                    max_points: int = 1 << 21) -> np.ndarray:
    """Estimate the integral as a limit of Riemann-Stieltjes sums.

    Level ``k`` sums over a division fine for the gauge ``min(forcing
    gauge of the functions' grid points, constant 2**-k (b - a))``, built
    by ``_forced_fine_division``; the forcing base shrinks like
    ``4**-k`` so the intervals hugging a forced point contract at the same
    quadratic rate as the midpoint-tagged sums converge on the smooth
    parts.  The first level ``k >= start_level + 2`` whose last three sums
    pairwise differ by less than ``tol`` wins; running past ``max_level``
    raises :class:`OracleFailureError`.

    A level is built only while the rule can use it, at most once.  From
    ``k = start_level + 2`` on, ``k`` is skipped when the sums at ``k - 1``
    and ``k - 2`` are apart.  Otherwise ``k`` is built and compared with
    its known neighbours first, then with the missing ones, ``k - 1``
    before ``k - 2``, each built only while every sum compared so far is
    close; so ``start_level`` itself may go unbuilt.  Before a value is
    returned, every skipped level whose size bound
    (``_ForcedSet.size_bound``) exceeds ``max_points`` is built, in order,
    since it might fail its budget.  The result or error is that of
    building every level in order.

    This estimator shares nothing with the closed-form engine: it sees the
    functions only through pointwise evaluation.
    """
    check_pair(F, g)
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if orientation not in ("dFg", "Fdg"):
        raise ValueError(f"unknown orientation {orientation!r}")
    for name, value, least in (("start_level", start_level, 0), ("max_level", max_level, 0),
                               ("max_points", max_points, 2)):
        if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and value >= least):
            raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    if max_level < start_level:
        raise ValueError("max_level must not be below start_level")
    plan = _ForcedSet(np.concatenate([F.grid, g.grid]))
    rs_sum = rs_sum_dFg if orientation == "dFg" else rs_sum_Fdg
    sums: dict[int, np.ndarray] = {}

    def build(level: int):
        if level not in sums:
            try:
                division = _forced_fine_division(plan, level, max_points)
            except OracleFailureError:
                # building in order, the lowest failing level fails first
                for lower in range(start_level, level):
                    build(lower)
                raise
            sums[level] = rs_sum(F, g, division)

    def apart(hi: int, lo: int) -> bool:
        return not sup_norm(sums[hi] - sums[lo]) < tol

    for k in range(start_level + 2, max_level + 1):
        if k - 1 in sums and k - 2 in sums and apart(k - 1, k - 2):
            continue
        build(k)
        # known neighbours first: a pair apart stops before a build
        for j in sorted((k - 1, k - 2), key=lambda j: j not in sums):
            build(j)
            if apart(k, j):
                break
        else:
            if not apart(k - 1, k - 2):
                # division size is not monotone in the level: a skipped
                # level whose bound exceeds the budget is built in order
                for level in range(start_level, k):
                    if level not in sums and plan.size_bound(level) > max_points:
                        build(level)
                return sums[k]
    for level in range(start_level, max_level + 1):
        build(level)  # a skipped level may fail
    raise OracleFailureError(
        f"sums did not stabilise to {tol} within {max_level} refinement levels")
