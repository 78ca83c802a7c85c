"""Digest of the library's outputs on fixed random inputs.

For fixed seeds the script draws operator/vector pairs on six domains and
passes them through evaluation, the structural operations (``break_truncate``
included), both engine orientations, interval integrals, variation and the
bounded-convergence harness.  On further pairs it digests suprema over
random regions (kind ``sup_norm``) and variation, interval integrals and
bounds on intervals whose ends are grid points, with every closure pattern
(kind ``grid_ends``), every member's integral in bounded-convergence
runs of all four families (kind ``convergence.members``) and indicator
functions (kind ``step``), and integrals over elementary sets of up to 60
parts (abutting open ends, point parts, parts on ``a``, ``b`` and grid
points, the empty set) and over each of their parts, with their errors
(kind ``elementary``).  It also digests the oracle's fine divisions at
levels 0-16, ``oracle_integral`` on small pairs with its levels, budget and
tolerance varied, both Riemann-Stieltjes sums on the oracle's divisions and
on ``cousin_partition`` divisions (kind ``rs_sum``) and on hand-made
divisions of 2**12 to 2**15 intervals, one more and one fewer, with grid
points at and next to every multiple of 2**12 (kind ``rs_sum.blocks``),
evaluation and both
sums of functions whose pieces are all Horner-safe, with and without a
-0.0 entry, mostly constants and dense linears, or of one degree pattern
(kind ``safe_eval``),
the root finder and the norm helpers on repeated and clustered roots,
monomials up to degree 64, -0.0 entries, linear and constant rows, and
variation and suprema of functions of 10**2 and 10**3 pieces (kind
``roots``), and the forcing, constant and minimum gauges.  It prints
one line per output kind: the number of items and a sha256 over their
bytes.  Two trees that print the same lines computed the
same bits, so a change meant to keep every output bitwise is checked with
one command on each tree:

    python3 tools/output_digest.py                      # this checkout's src/
    python3 tools/output_digest.py --src ../other/src   # another tree's library

The input values are drawn with numpy alone (a node value set to a limit
comes from numpy's ``polyval``), so both trees get the same inputs.  An
output that raises is hashed as its exception's name (that of the oracle,
the gauges and ``break_truncate`` also with its message), so both trees
must fail alike.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 4242)
PAIRS = 20  # operator/vector pairs per domain and seed
DOMAINS = [(0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0), (-7.25, -4.25),
           (1e4, 1e4 + 3.0), (0.5, 4.5)]


def random_coeffs(rng, vshape, top):
    """Dense, dyadic, sparse-monomial (up to degree ``top``) or zero
    coefficients, some entries -0.0."""
    style = rng.integers(4)
    if style == 0:
        c = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 7)),) + vshape)
    elif style == 1:
        c = rng.integers(-24, 25, size=(int(rng.integers(1, 5)),) + vshape) / 16.0
    elif style == 2:
        c = np.zeros((int(rng.integers(2, top + 2)),) + vshape)
        c[-1] = rng.uniform(-1.0, 1.0, size=vshape)
        if rng.random() < 0.5:
            c[int(rng.integers(0, len(c) - 1))] = rng.uniform(-1.0, 1.0, size=vshape)
    else:
        c = np.zeros((int(rng.integers(1, 4)),) + vshape)
    return np.where(rng.random(c.shape) < 0.1, -0.0, c)


def random_function(ks, rng, kind, dim, a, b, grid=None):
    """1-30 pieces, or the pieces of ``grid``; every node value is random
    or one of its limits."""
    vshape = (dim,) if kind == "vector" else (dim, dim)
    top = 64 if max(abs(a), abs(b)) < 100.0 else 16  # keep products finite
    if grid is None:
        grid = np.unique(np.concatenate([[a], rng.uniform(a, b, int(rng.integers(0, 30))), [b]]))
    coeffs = [random_coeffs(rng, vshape, top) for _ in range(grid.size - 1)]
    nodes = rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape)
    for k, t in enumerate(grid.tolist()):
        side = rng.integers(3)
        if side == 1 and k > 0:
            nodes[k] = np.polynomial.polynomial.polyval(t, coeffs[k - 1])
        elif side == 2 and k < grid.size - 1:
            nodes[k] = np.polynomial.polynomial.polyval(t, coeffs[k])
    return ks.PiecewiseFunction(grid, coeffs, nodes)


def random_interval(ks, rng, a, b):
    c, d = np.sort(rng.uniform(a, b, 2))
    if rng.random() < 0.2:
        return ks.Interval.at(c)
    return ks.Interval(c, d, bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def eval_points(rng, f):
    """Unsorted points with grid hits and both ends, one point in every
    piece, and grid points only."""
    a, b = f.a, f.b
    inside = rng.uniform(a, b, int(rng.integers(1, 3 * f.npieces + 2)))
    hits = rng.choice(f.grid, size=int(rng.integers(1, f.grid.size + 1)))
    return [rng.permutation(np.concatenate([inside, inside[:3], hits, [a, b]])),
            rng.uniform(f.grid[:-1], f.grid[1:]),
            rng.permutation(f.grid)]


class Digest:
    def __init__(self):
        self.count = defaultdict(int)
        self.hash = defaultdict(hashlib.sha256)

    def add(self, kind, compute, message=False):
        """Hash every array in ``compute()``'s output, or the name of the
        exception it raises (and its message if ``message``)."""
        try:
            out = compute()
        except Exception as exc:  # the failure itself is the output
            out = f"{type(exc).__name__}: {exc}" if message else type(exc).__name__
        self.count[kind] += 1
        self.hash[kind].update(repr(self._flat(out)).encode())

    def _flat(self, out):
        if isinstance(out, (list, tuple)):
            return [self._flat(x) for x in out]
        if isinstance(out, str):
            return out
        arr = np.asarray(out, dtype=float)
        return (arr.shape, np.ascontiguousarray(arr).tobytes())

    def lines(self):
        return [f"{kind} {self.count[kind]} {self.hash[kind].hexdigest()}"
                for kind in sorted(self.count)]


def fn(f):
    return [f.grid, f.nodes, list(f.coeffs)]


def integral(r):
    return [r.value, r.continuous_contribution, r.jump_contribution]


def variation(v):
    return [v.total, v.continuous_contribution, v.jump_contribution]


def digest_seed(ks, seed, out: Digest):
    rng = np.random.default_rng(seed)
    for a, b in DOMAINS:
        for _ in range(PAIRS):
            dim = int(rng.integers(1, 4))
            F, F2 = (random_function(ks, rng, "operator", dim, a, b) for _ in range(2))
            g, g2 = (random_function(ks, rng, "vector", dim, a, b) for _ in range(2))
            c1, c2 = rng.uniform(-2.0, 2.0, 2)
            out.add("lincomb", lambda: fn(ks.lincomb(c1, F, c2, F2)) + fn(ks.lincomb(c1, g, c2, g2)))
            out.add("ks_dFg", lambda: integral(ks.ks_dFg(F, g)))
            out.add("ks_Fdg", lambda: integral(ks.ks_Fdg(F, g)))
            for f in (F, g):
                for ts in eval_points(rng, f):
                    out.add("eval_many", lambda: f.eval_many(ts))
                for tol in (0.0, 0.3):
                    out.add("jumps", lambda: [[r.t, r.jump_minus, r.jump_plus, r.norm_minus,
                                               r.norm_plus] for r in f.jumps(tol)])
                extra = np.concatenate([rng.uniform(a, b, 5), rng.choice(f.grid, 2)])
                out.add("refine", lambda: fn(f.refine(extra)))
                c, d = np.sort(rng.uniform(a, b, 2))
                out.add("clip", lambda: fn(f.clip(c, d)))
                region = ks.ElementarySet.of(*(random_interval(ks, rng, a, b) for _ in range(3)))
                out.add("restrict", lambda: fn(f.restrict(region)))
                out.add("jordan", lambda: [fn(part) for part in ks.jordan_decompose(f)])
                fb = ks.jordan_decompose(f)[1]
                # every other jump point, then every other grid point (some
                # without a jump, which must fail alike)
                for kept in ([rec.t for rec in fb.jumps()][::2], fb.grid[::2]):
                    out.add("break_truncate", lambda: fn(ks.break_truncate(fb, kept)),
                            message=True)
                out.add("variation", lambda: [variation(ks.var_compact(f, c, d)),
                                              variation(ks.var_elementary(f, region))])
            for _ in range(3):
                interval = random_interval(ks, rng, a, b)
                out.add("interval", lambda: ks.integral_over_interval(F, g, interval))
            F1 = random_function(ks, rng, "operator", 1, a, b)
            center, height = float(rng.uniform(a, b)), float(rng.uniform(0.5, 4.0))
            ns = sorted(rng.choice(np.arange(1, 65), size=4, replace=False).tolist())
            spike = ks.SequenceFamily.spike((a, b), center, height)
            out.add("convergence",
                    lambda: ks.run_bounded_convergence(F1, spike, ns, 0.1).errors)
            if (a, b) == (0.0, 1.0):
                power = ks.SequenceFamily.power()
                out.add("convergence",
                        lambda: ks.run_bounded_convergence(F1, power, ns, 0.1).errors)


def grid_interval(ks, rng, points, a, b):
    """An interval whose ends are drawn from ``points`` (both domain ends
    among them, often taken), with random closures; degenerate and closed
    when both ends coincide."""
    c, d = np.sort(rng.choice(points, 2))
    if rng.random() < 0.25:
        c = a
    if rng.random() < 0.25:
        d = b
    if c == d:
        return ks.Interval.at(c)
    return ks.Interval(c, d, bool(rng.random() < 0.5), bool(rng.random() < 0.5))


def digest_closures(ks, seed, out: Digest):
    """Suprema over random regions, and variation, interval integrals and
    bounds on intervals whose ends are grid points, where each end's
    closure decides which one-sided jumps and node values count."""
    rng = np.random.default_rng([seed, 19])
    for a, b in DOMAINS:
        for _ in range(PAIRS // 2):
            dim = int(rng.integers(1, 4))
            F = random_function(ks, rng, "operator", dim, a, b)
            g = random_function(ks, rng, "vector", dim, a, b)
            points = np.union1d(F.grid, g.grid)
            for f in (F, g):
                out.add("sup_norm", lambda: f.sup_norm())
                for _ in range(3):
                    region = ks.ElementarySet.of(*(random_interval(ks, rng, a, b) for _ in range(3)))
                    out.add("sup_norm", lambda: f.sup_norm(region))
                    ends = ks.ElementarySet.of(*(grid_interval(ks, rng, points, a, b)
                                                 for _ in range(2)))
                    out.add("sup_norm", lambda: f.sup_norm(ends))
            for _ in range(6):
                interval = grid_interval(ks, rng, points, a, b)
                out.add("grid_ends", lambda: [variation(ks.var_interval(F, interval)),
                                              variation(ks.var_interval(g, interval)),
                                              ks.integral_over_interval(F, g, interval),
                                              ks.estimate_bound(F, g, interval)])


def convergence_report(r):
    return [[e.integral for e in r.entries], r.errors, r.integral_limit]


def digest_members(ks, seed, out: Digest):
    """Every member's integral, the errors and the limit integral of
    bounded-convergence runs of all four families against integrators
    with jumps: power and spike (dim 1), truncations of random break
    functions and custom families ``limit + bump / n`` with jumps (dims 1-3)."""
    rng = np.random.default_rng([seed, 23])
    for a, b in DOMAINS:
        for _ in range(PAIRS // 4):
            dim = int(rng.integers(1, 4))
            F1 = random_function(ks, rng, "operator", 1, a, b)
            F = random_function(ks, rng, "operator", dim, a, b)
            ns = sorted(rng.choice(np.arange(1, 65), size=int(rng.integers(1, 9)),
                                   replace=False).tolist())
            center = float(rng.choice([a, b, float(rng.uniform(a, b))]))
            spike = ks.SequenceFamily.spike((a, b), center, float(rng.uniform(-4.0, 4.0)))
            out.add("convergence.members",
                    lambda: convergence_report(ks.run_bounded_convergence(F1, spike, ns, 0.1)))
            if (a, b) == (0.0, 1.0):
                power = ks.SequenceFamily.power()
                out.add("convergence.members",
                        lambda: convergence_report(ks.run_bounded_convergence(F1, power, ns, 0.1)))
            fb = ks.jordan_decompose(random_function(ks, rng, "vector", dim, a, b))[1]
            points = [rec.t for rec in fb.jumps()]
            if points:
                order = rng.permutation(points).tolist()
                kept = sorted(rng.choice(np.arange(1, len(order) + 1),
                                         size=min(len(order), 3), replace=False).tolist())
                family = ks.SequenceFamily.truncation(fb, order)
                out.add("convergence.members",
                        lambda: convergence_report(ks.run_bounded_convergence(F, family, kept, 0.1)))
            limit = random_function(ks, rng, "vector", dim, a, b)
            bump = random_function(ks, rng, "vector", dim, a, b)
            members = [ks.lincomb(1.0, limit, 1.0 / n, bump) for n in range(1, 9)]
            bound = max(f.sup_norm() for f in members + [limit]) + 1.0
            custom = ks.SequenceFamily.custom(members, limit, bound)
            picked = sorted(rng.choice(np.arange(1, 9), size=4, replace=False).tolist())
            out.add("convergence.members",
                    lambda: convergence_report(ks.run_bounded_convergence(F, custom, picked, 0.1)),
                    message=True)


def digest_step(ks, seed, out: Digest):
    """Indicators of random regions (degenerate parts, every closure, parts
    touching ``a`` or ``b`` or on a coarse lattice) times scalar, vector
    and operator values with -0.0 entries, and regions outside the domain."""
    rng = np.random.default_rng([seed, 29])
    for a, b in DOMAINS:
        points = np.concatenate([[a, b], a + (b - a) * np.arange(1, 8) / 8.0])
        for _ in range(PAIRS):
            dim = int(rng.integers(1, 4))
            shape = [(), (dim,), (dim, dim)][int(rng.integers(3))]
            value = np.where(rng.random(shape) < 0.2, -0.0, rng.uniform(-2.0, 2.0, shape))
            parts = [grid_interval(ks, rng, points, a, b) if rng.random() < 0.5
                     else random_interval(ks, rng, a, b) for _ in range(int(rng.integers(1, 4)))]
            region = ks.ElementarySet.of(*parts)
            out.add("step", lambda: fn(ks.step((a, b), region, value)), message=True)
            out.add("step", lambda: fn(ks.step((a, b), parts[0], value)), message=True)
        wide = ks.Interval.closed(a - 1.0, b)
        out.add("step", lambda: fn(ks.step((a, b), wide, 1.0)), message=True)
        out.add("step", lambda: fn(ks.step((a, b), wide, np.nan)), message=True)


def random_region(ks, rng, points):
    """Up to 60 parts cut at sorted draws from ``points``: neighbours
    abut, often at two open ends, and some parts are dropped or shrunk to a
    point (the minimal decomposition merges what touches)."""
    cuts = np.unique(rng.choice(points, int(rng.integers(2, 200)))).tolist()
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        r = rng.random()
        if r < 0.25:
            continue
        if r < 0.4:
            parts.append(ks.Interval.at(lo if rng.random() < 0.5 else hi))
        else:
            parts.append(ks.Interval(lo, hi, bool(rng.random() < 0.3), bool(rng.random() < 0.3)))
    return ks.ElementarySet(ks.ElementarySet.of(*parts).parts[:60])


def digest_elementary(ks, seed, out: Digest):
    """Integrals over elementary sets of 1 to 60 parts cut at grid points
    of both functions, at ``a`` and ``b`` and at random points (abutting
    open ends, point parts), over the empty set and over each part alone;
    then a part outside the domain, a mismatched pair, and both."""
    rng = np.random.default_rng([seed, 31])
    for a, b in DOMAINS:
        for _ in range(PAIRS // 2):
            dim = int(rng.integers(1, 4))
            F = random_function(ks, rng, "operator", dim, a, b)
            g = random_function(ks, rng, "vector", dim, a, b)
            points = np.concatenate([F.grid, g.grid, rng.uniform(a, b, 150), [a, b, a, b]])
            for region in [ks.ElementarySet.empty()] + [
                    random_region(ks, rng, points) for _ in range(3)]:
                out.add("elementary", lambda: integral(ks.integral_over_elementary(F, g, region)))
                out.add("elementary", lambda: [ks.integral_over_interval(F, g, part)
                                               for part in region.parts])
        g2 = random_function(ks, rng, "vector", 2, a, b)
        F3 = random_function(ks, rng, "operator", 3, a, b)
        span = b - a
        for outside in (ks.Interval.closed(a - span, a), ks.Interval(b, b + span, False, True),
                        ks.Interval.at(b + span)):
            region = ks.ElementarySet.of(ks.Interval.closed(a, a + span / 4), outside)
            for G in (g2, random_function(ks, rng, "vector", 3, a, b)):
                out.add("elementary", lambda: integral(ks.integral_over_elementary(F3, G, region)),
                        message=True)


def forced_sets(rng, a, b):
    """Random, clustered (gaps of 1e-9 of the span), on level-4 mesh nodes,
    ends-only and adjacent-float forced sets, unsorted and without the
    ends; the last stalls at float resolution."""
    span = b - a
    cluster = a + span * (rng.uniform(0.1, 0.9) + 1e-9 * np.arange(5))
    p = a + span * rng.uniform(0.1, 0.9)
    return [rng.uniform(a, b, int(rng.integers(1, 8))),
            np.concatenate([cluster, rng.uniform(a, b, 2)]),
            a + span * rng.integers(1, 16, size=3) / 16.0,
            np.empty(0),
            np.array([np.nextafter(p, b), p])]


def small_function(ks, rng, kind, dim, a, b):
    """At most 5 pieces of degree at most 3, some node values jumping."""
    vshape = (dim,) if kind == "vector" else (dim, dim)
    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, int(rng.integers(0, 5))), [b]]))
    coeffs = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)),) + vshape)
              for _ in range(grid.size - 1)]
    nodes = np.array([np.polynomial.polynomial.polyval(t, coeffs[min(k, len(coeffs) - 1)])
                      for k, t in enumerate(grid.tolist())]).reshape((grid.size,) + vshape)
    jumps = rng.random(grid.size) < 0.3
    nodes[jumps] += rng.uniform(-1.0, 1.0, size=(int(jumps.sum()),) + vshape)
    return ks.PiecewiseFunction(grid, coeffs, nodes)


def digest_oracle(ks, seed, out: Digest):
    gauges = ks.gauges
    rng = np.random.default_rng([seed, 13])

    def build(a, b, forced, level):
        if hasattr(gauges, "_ForcedPlan"):  # a per-call plan that keeps the ends apart
            plan = gauges._ForcedPlan(a, b, forced)
        elif hasattr(gauges, "_ForcedSet"):  # the forced set, the ends among its points
            plan = gauges._ForcedSet(np.concatenate([[a, b], forced]))
        else:  # no plan: the builder takes the ends and the points
            return gauges._forced_fine_division(a, b, forced, level, 1 << 21)
        return gauges._forced_fine_division(plan, level, 1 << 21)

    for a, b in DOMAINS:
        for forced in forced_sets(rng, a, b):
            for level in range(17):
                out.add("oracle.division",
                        lambda: [(d := build(a, b, forced, level)).points, d.tags], message=True)
    for a, b in DOMAINS[:4]:
        for _ in range(8):
            dim = int(rng.integers(1, 4))
            F = small_function(ks, rng, "operator", dim, a, b)
            g = small_function(ks, rng, "vector", dim, a, b)
            for orientation in ("dFg", "Fdg"):
                start = int(rng.integers(0, 5))
                kwargs = {"tol": float(rng.choice([1e-4, 1e-8, 1e-11])), "start_level": start,
                          "max_level": start + int(rng.integers(0, 15)),
                          "max_points": int(rng.choice([1 << 10, 1 << 13, 1 << 16]))}
                out.add("oracle", lambda: ks.oracle_integral(F, g, orientation, **kwargs),
                        message=True)
                out.add("oracle", lambda: ks.oracle_integral(F, g, orientation), message=True)


def digest_rs_sum(ks, seed, out: Digest):
    """Both Riemann-Stieltjes sums of a random pair (mixed degree patterns,
    -0.0 entries, monomials up to degree 64) and of a small pair (at most 5
    pieces of degree at most 3) on the oracle's divisions of their grids at
    levels 0-16, and on ``cousin_partition`` divisions for constant gauges
    and the forcing gauges of a dyadic lattice."""
    gauges = ks.gauges
    rng = np.random.default_rng([seed, 37])
    for a, b in DOMAINS:
        dim = int(rng.integers(1, 4))
        pairs = [(random_function(ks, rng, "operator", dim, a, b),
                  random_function(ks, rng, "vector", dim, a, b)),
                 (small_function(ks, rng, "operator", dim, a, b),
                  small_function(ks, rng, "vector", dim, a, b))]
        for F, g in pairs:
            grids = np.concatenate([F.grid, g.grid])
            plan = gauges._ForcedSet(grids)
            divisions = [gauges._forced_fine_division(plan, level, 1 << 21)
                         for level in range(17)]
            span = b - a
            lattice = a + span * np.arange(9) / 8.0  # points bisection reaches
            for gauge in [ks.Gauge.constant(span * 2.0**-k) for k in (0, 3, 6)] + [
                    ks.Gauge.forcing(lattice, span * 4.0**-k) for k in (1, 3)]:
                divisions.append(ks.cousin_partition(gauge, a, b))
            for d in divisions:
                out.add("rs_sum", lambda: [ks.rs_sum_dFg(F, g, d), ks.rs_sum_Fdg(F, g, d)])


def digest_blocks(ks, seed, out: Digest):
    """Both Riemann-Stieltjes sums on hand-made divisions of 2**12 to 2**15
    intervals, one fewer and one more: jittered uniform points, each tag
    the left end, the right end or a random inner point.  The pair's grid
    holds every division point whose index is within one of a multiple of
    2**12, so a block of 2**12 to 2**14 intervals ends on a grid point or
    next to one, where the node values mostly jump."""
    rng = np.random.default_rng([seed, 43])
    for a, b in DOMAINS:
        for n in [2**k + e for k in range(12, 16) for e in (-1, 0, 1)]:
            dim = int(rng.integers(1, 4))
            points = np.linspace(a, b, n + 1)
            points[1:-1] += rng.uniform(-0.25, 0.25, n - 1) * ((b - a) / n)
            u, v = points[:-1], points[1:]
            inner = np.minimum(u + rng.random(n) * (v - u), v)
            tags = np.choose(rng.integers(3, size=n), [u, v, inner])
            d = ks.TaggedDivision(points, tags)
            edges = np.arange(2**12, n, 2**12)
            grid = np.unique(np.concatenate([[a, b], rng.uniform(a, b, 4),
                                             points[np.concatenate([edges - 1, edges, edges + 1])]]))
            F = random_function(ks, rng, "operator", dim, a, b, grid)
            g = random_function(ks, rng, "vector", dim, a, b, grid)
            out.add("rs_sum.blocks", lambda: [ks.rs_sum_dFg(F, g, d), ks.rs_sum_Fdg(F, g, d)])


def safe_coeffs(rng, vshape, style):
    """One piece: dense up to degree 5, a dense linear, a constant or zero
    (style ``"safe"``), mostly constants, dense linears and ``c t`` (style
    ``"flat"``), or ``c t**2`` with -0.0 entries below it (style ``"one"``,
    so that every piece has one degree pattern)."""
    if style == "one":
        c = np.where(rng.random((3,) + vshape) < 0.3, -0.0, 0.0)
        c[2] = rng.uniform(0.5, 1.0, size=vshape)
        return c
    pick = rng.integers(4) if style == "safe" else rng.choice([1, 1, 2, 2, 0, 4])
    if pick == 0:
        return rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 7)),) + vshape)
    if pick == 1:
        return rng.uniform(0.5, 1.0, size=(2,) + vshape) * rng.choice([-1.0, 1.0])
    if pick == 2:
        return rng.uniform(-1.0, 1.0, size=(1,) + vshape)
    if pick == 3:
        return np.zeros((int(rng.integers(1, 4)),) + vshape)
    c = np.zeros((2,) + vshape)
    c[1] = rng.uniform(-1.0, 1.0, size=vshape)
    return c


def safe_function(ks, rng, kind, dim, a, b, style, negative_zero):
    """3-40 pieces of ``safe_coeffs``; with ``negative_zero``, one zero
    entry (a zero piece's, or a dense piece's set to zero) is -0.0."""
    vshape = (dim,) if kind == "vector" else (dim, dim)
    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, int(rng.integers(2, 40))), [b]]))
    coeffs = [safe_coeffs(rng, vshape, style) for _ in range(grid.size - 1)]
    if negative_zero:
        j = int(rng.integers(len(coeffs)))
        coeffs[j] = np.array(coeffs[j])
        coeffs[j].reshape(-1)[int(rng.integers(coeffs[j].size))] = -0.0
    nodes = rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape)
    return ks.PiecewiseFunction(grid, coeffs, nodes)


def digest_safe_eval(ks, seed, out: Digest):
    """Functions whose pieces Horner from the highest degree evaluates with
    their own bits, the same with one -0.0 entry, functions mostly of
    constants and dense linears, and functions of one degree pattern:
    ``eval_many`` at 1-2000 points per piece,
    sorted and shuffled, and both Riemann-Stieltjes sums on the oracle's
    divisions of their grids, from a few points per piece to many."""
    gauges = ks.gauges
    rng = np.random.default_rng([seed, 41])
    for a, b in DOMAINS:
        for style, negative_zero in (("safe", False), ("safe", True), ("flat", False),
                                     ("flat", True), ("one", False)):
            dim = int(rng.integers(1, 4))
            F = safe_function(ks, rng, "operator", dim, a, b, style, negative_zero)
            g = safe_function(ks, rng, "vector", dim, a, b, style, negative_zero)
            for f in (F, g):
                for per_piece in (1, 8, 40, 63, 200, 2000):
                    ts = np.sort(rng.uniform(a, b, per_piece * f.npieces))
                    out.add("safe_eval", lambda: f.eval_many(ts))
                    out.add("safe_eval", lambda: f.eval_many(rng.permutation(ts)))
            plan = gauges._ForcedSet(np.concatenate([F.grid, g.grid]))
            for level in (1, 3, 5, 8, 12):
                d = gauges._forced_fine_division(plan, level, 1 << 21)
                out.add("safe_eval", lambda: [ks.rs_sum_dFg(F, g, d), ks.rs_sum_Fdg(F, g, d)])


def root_rows(rng, a, b):
    """Scalar polynomials with roots in and near ``[a, b]``: ``(t - r)**k``
    for k = 1-6, clusters 1e-9 and 1e-14 of the span apart, monomials
    ``c t**k`` and binomials ``t**k - s`` up to degree 64, rows of degree
    2-8 with -0.0 entries, linear rows and constants (0.0 and -0.0 too)."""
    span, pfr = b - a, np.polynomial.polynomial.polyfromroots
    r = a + span * rng.uniform(0.1, 0.9)
    rows = [pfr([r] * k) for k in range(1, 7)]
    rows += [pfr(r + span * gap * np.arange(4)) for gap in (1e-9, 1e-14)]
    top = 64 if max(abs(a), abs(b)) < 100.0 else 16  # keep powers finite
    for k in (1, 2, 3, 7, 16, 31, 64):
        k = min(k, top)
        mono = np.zeros(k + 1)
        mono[k] = rng.uniform(-2.0, 2.0)
        rows.append(mono)
        binomial = mono.copy()
        binomial[0] = -mono[k] * float(rng.uniform(a, b)) ** k
        rows.append(binomial)
    for deg in range(2, 9):
        c = pfr(rng.uniform(a - span, b + span, deg)) * rng.uniform(-2.0, 2.0)
        rows.append(np.where(rng.random(c.shape) < 0.2, -0.0, c))
    rows += [np.array([-r, 1.0]), np.array([2.0 * r, -2.0]), np.array([0.0, -0.0, 1.5]),
             np.array([0.75]), np.array([0.0]), np.array([-0.0, 0.0])]
    return rows


def digest_roots(ks, seed, out: Digest):
    """``real_roots``, ``max_abs_scalar``, ``sup_norm_on`` and
    ``integral_of_norm`` on ``root_rows`` over each domain, a random
    subinterval and a tight span round a root, vector and operator
    values stacked from those rows; then ``var_compact``,
    ``var_elementary`` and ``sup_norm`` of functions of 10**2 and 10**3
    pieces."""
    poly = ks._poly
    rng = np.random.default_rng([seed, 47])
    for a, b in DOMAINS:
        rows = root_rows(rng, a, b)
        c, d = np.sort(rng.uniform(a, b, 2)).tolist()
        r = float(rng.uniform(a, b))
        spans = [(a, b), (c, d), (r - (b - a) * 1e-6, r + (b - a) * 1e-6)]
        for row in rows:
            for lo, hi in spans:
                out.add("roots", lambda: [poly.real_roots(row, lo, hi),
                                          poly.max_abs_scalar(row, lo, hi),
                                          poly.sup_norm_on(row, lo, hi),
                                          poly.integral_of_norm(row, lo, hi)])
        width = max(len(row) for row in rows)
        padded = np.array([np.pad(row, (0, width - len(row))) for row in rows])
        for dim in (2, 3):
            for shape in ((dim,), (dim, dim)):
                for _ in range(6):
                    pick = rng.choice(len(rows), size=int(np.prod(shape)))
                    signs = rng.choice([-1.0, 1.0], size=len(pick))
                    c = (padded[pick] * signs[:, np.newaxis]).T.reshape((width,) + shape)
                    for lo, hi in spans:
                        out.add("roots", lambda: [poly.sup_norm_on(c, lo, hi),
                                                  poly.integral_of_norm(c, lo, hi)])
        for m in (10**2, 10**3):
            dim = int(rng.integers(1, 4))
            grid = np.unique(np.concatenate([[a, b], rng.uniform(a, b, m - 1)]))
            for kind in ("vector", "operator"):
                if m == 100:
                    f = random_function(ks, rng, kind, dim, a, b, grid)
                else:  # degree at most 3, so that slower trees stay quick
                    vshape = (dim,) if kind == "vector" else (dim, dim)
                    coeffs = [rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)),) + vshape)
                              for _ in range(grid.size - 1)]
                    f = ks.PiecewiseFunction(grid, coeffs, rng.uniform(-1.0, 1.0,
                                                                       (grid.size,) + vshape))
                region = random_region(ks, rng, np.concatenate([grid, rng.uniform(a, b, 150)]))
                c, d = np.sort(rng.uniform(a, b, 2)).tolist()
                out.add("roots", lambda: [variation(ks.var_compact(f, a, b)),
                                          variation(ks.var_compact(f, c, d)),
                                          variation(ks.var_elementary(f, region)),
                                          f.sup_norm(), f.sup_norm(region)])


def digest_gauges(ks, seed, out: Digest):
    """Forcing gauges of the forced sets above, with and without the ends,
    and their minimum with the oracle's constant gauge, at the oracle's
    bases ``span 4**-k`` for k = 0-16; then invalid arguments."""
    Gauge = ks.Gauge
    rng = np.random.default_rng([seed, 17])
    for a, b in DOMAINS:
        span = b - a
        for forced in forced_sets(rng, a, b):
            for points in (forced, np.concatenate([forced, [b, a]])):
                p = np.unique(np.concatenate([points, [a, b]]))
                ts = np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf),
                                     rng.uniform(a, b, 20), [a - span, b + span]])
                for k in range(17):
                    base = span * 4.0**-k
                    out.add("gauge", lambda: Gauge.forcing(points, base)(ts), message=True)
                    out.add("gauge", lambda: Gauge.minimum(
                        Gauge.forcing(points, base), Gauge.constant(span * 2.0**-k))(ts),
                        message=True)
                    out.add("gauge", lambda: Gauge.forcing(points, base)(float(ts[0])),
                            message=True)
    for points, base in (([np.nan], 1.0), ([0.5, np.inf], 1.0), ([0.5], 0.0), ([np.nan], -1.0),
                         ([0.5], np.nan), ([], 0.0), ([], 1.0), ([0.5, 0.5, 0.25], 1.0)):
        out.add("gauge", lambda: Gauge.forcing(points, base)(np.array([0.25, 0.5, 0.75])),
                message=True)
    for delta in (0.0, -1.0, np.nan, np.inf):
        out.add("gauge", lambda: Gauge.constant(delta)(0.5), message=True)
    out.add("gauge", lambda: Gauge.minimum()(0.5), message=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the kstieltjes package to digest")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import kstieltjes as ks
    out = Digest()
    with np.errstate(all="ignore"):
        for seed in SEEDS:
            digest_seed(ks, seed, out)
            digest_closures(ks, seed, out)
            digest_oracle(ks, seed, out)
            digest_gauges(ks, seed, out)
            digest_rs_sum(ks, seed, out)
            digest_safe_eval(ks, seed, out)
            digest_blocks(ks, seed, out)
            digest_members(ks, seed, out)
            digest_step(ks, seed, out)
            digest_elementary(ks, seed, out)
            digest_roots(ks, seed, out)
    print(f"# kstieltjes from {Path(ks.__file__).parent}")
    print("\n".join(out.lines()))


if __name__ == "__main__":
    main()
