from typing import NamedTuple

import numpy as np
import pytest

import corpus
from kstieltjes import (DomainError, ElementarySet, Interval,
                        PiecewiseFunction, break_truncate, constant,
                        jordan_decompose, lincomb, polynomial,
                        scaled_identity, step, var_compact)
from kstieltjes import _poly, gauges
from kstieltjes.norms import norm_of


@pytest.fixture
def chi_half():
    """Indicator of [1/2, 1] on [0, 1] (vector, dim 1)."""
    return step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)


@pytest.fixture
def ramp():
    return polynomial((0.0, 1.0), [0.0, 1.0])


class TestEval:
    def test_indicator_values(self, chi_half):
        assert chi_half(0.5)[0] == 1.0
        assert chi_half(0.25)[0] == 0.0
        assert chi_half(1.0)[0] == 1.0

    def test_square(self):
        f = polynomial((0, 1), [0.0, 0.0, 1.0])
        assert f(0.25)[0] == 0.0625

    def test_node_value_wins(self):
        f = PiecewiseFunction([0.0, 0.5, 1.0],
                              [np.array([[3.0]]), np.array([[3.0]])],
                              [[3.0], [7.0], [3.0]])
        assert f(0.5)[0] == 7.0
        assert f(0.25)[0] == 3.0

    def test_outside_domain(self, ramp):
        with pytest.raises(DomainError):
            ramp(1.5)
        with pytest.raises(DomainError):
            ramp.eval_many(np.array([-0.1, 0.5]))

    def test_eval_many_matches_scalar(self, rng):
        f = corpus.random_piecewise(rng, "operator", 2)
        ts = np.concatenate([rng.uniform(0, 1, 40), f.grid])
        many = f.eval_many(ts)
        for i, t in enumerate(ts):
            assert np.array_equal(many[..., i], f(t))

    @pytest.mark.parametrize("entry", ["eval_many", "__call__", "limit_left",
                                       "limit_right", "jump_at", "refine"])
    def test_nan_is_outside_domain(self, chi_half, entry):
        t = [0.5, np.nan] if entry in ("eval_many", "refine") else np.nan
        with pytest.raises(DomainError):
            getattr(chi_half, entry)(t)


def _step_horner(c, t):
    """Reference ``_poly.polyval`` that allocates two new arrays on every
    Horner step; the library updates one buffer in place."""
    c = np.asarray(c, dtype=float)
    tarr = np.asarray(t, dtype=float)
    scalar = tarr.ndim == 0
    ts = tarr.reshape(1) if scalar else tarr
    vshape = c.shape[1:]
    nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
    if nz.size == 0:
        out = np.zeros(vshape + ts.shape)
    elif nz.size <= 2:
        out = np.zeros(vshape + ts.shape)
        for j in nz:
            out += c[j][..., np.newaxis] * ts**j
    else:
        top = int(nz[-1])
        out = np.zeros(vshape + ts.shape) + c[top][..., np.newaxis]
        for j in range(top - 1, -1, -1):
            out = out * ts + c[j][..., np.newaxis]
    return out[..., 0] if scalar else out


def _masked_eval_many(f, ts):
    """Reference ``eval_many``: one boolean mask per touched piece over all
    points, with masked writes; the library sorts the points once and
    evaluates each piece on one contiguous slice."""
    ts = np.asarray(ts, dtype=float)
    idx = np.searchsorted(f.grid, ts, side="left")
    on_grid = f.grid[np.minimum(idx, f.grid.size - 1)] == ts
    out = np.empty(f.vshape + ts.shape)
    if np.any(on_grid):
        nodes_t = np.moveaxis(f.nodes, 0, -1)
        out[..., on_grid] = nodes_t[..., idx[on_grid]]
    off = ~on_grid
    if np.any(off):
        pidx = idx[off] - 1
        toff = ts[off]
        sub = np.empty(f.vshape + toff.shape)
        for j in np.unique(pidx):
            sel = pidx == j
            sub[..., sel] = _step_horner(f.coeffs[j], toff[sel])
        out[..., off] = sub
    return out


def _random_function(rng, kind, dim, pieces, a, b):
    """Random pieces from ``corpus.random_coeffs`` and a random value at every
    grid point, so nearly every grid point jumps."""
    vshape = (dim,) if kind == "vector" else (dim, dim)
    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, pieces - 1), [b]]))
    coeffs = [corpus.random_coeffs(rng, vshape) for _ in range(grid.size - 1)]
    return PiecewiseFunction(grid, coeffs,
                             rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape))


def _same(got, ref):
    got = np.asarray(got)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _count_routes(monkeypatch) -> list[str]:
    """Record each ``_poly.horner`` call as ``"stacked"`` (points gathered
    as rows, one or more per point) or ``"piece"`` (one piece on its own
    1-d slice of the points)."""
    routes = []
    horner = _poly.horner

    def counted(cols, ts, pattern, out):
        routes.append("stacked" if np.ndim(ts) > 1 else "piece")
        return horner(cols, ts, pattern, out)

    monkeypatch.setattr(_poly, "horner", counted)
    return routes


class TestEvalReference:
    """``eval_many`` and ``polyval`` equal the reference loops byte for byte."""


    def test_eval_many(self, rng, monkeypatch):
        routes = _count_routes(monkeypatch)
        for kind in ("vector", "operator"):
            for dim in (1, 2, 3):
                for pieces in (1, 7, 200):
                    a = float(rng.choice([0.0, -2.5, 1e3]))
                    b = a + float(rng.choice([1.0, 4.0]))
                    f = _random_function(rng, kind, dim, pieces, a, b)
                    inside = rng.uniform(a, b, size=60)
                    hits = rng.choice(f.grid, size=10)
                    # unsorted, with duplicates, grid hits and both ends
                    ts = rng.permutation(np.concatenate(
                        [inside, inside[:6], hits, hits[:3], [a, b, a]]))
                    # sorted input skips the permutation: non-decreasing
                    # with duplicates, ending in an interior grid point,
                    # 2-D, and sorted but for the last element
                    srt = np.sort(ts)
                    to_grid = srt[:np.searchsorted(srt, np.sort(hits)[5], "right")]
                    for pts in (ts, srt, to_grid, srt[:36].reshape(6, 6),
                                np.append(srt, 0.5 * (a + b)), ts[:36].reshape(6, 6),
                                np.array([]), np.array(ts[0]), np.array(hits[0])):
                        _same(f.eval_many(pts), _masked_eval_many(f, pts))
        # 200 pieces hold few points each, 7 pieces many
        assert "stacked" in routes and "piece" in routes
        # -0.0 entries and a degree-64 monomial piece
        for kind in ("vector", "operator"):
            for dim in (1, 2, 3):
                f = _random_function(rng, kind, dim, 40, -2.5, 1.5)
                monomial = np.zeros((65,) + f.vshape)
                monomial[64] = rng.uniform(-1.0, 1.0, size=f.vshape)
                coeffs = list(f.coeffs)
                coeffs[int(rng.integers(len(coeffs)))] = np.where(
                    rng.random(monomial.shape) < 0.3, -0.0, monomial)
                f = PiecewiseFunction(f.grid, coeffs, f.nodes)
                assert np.signbit(f._block[f._block == 0.0]).any()
                # every piece holds exactly one interior point: stacked
                inside = rng.uniform(f.grid[:-1], f.grid[1:])
                del routes[:]
                for pts in (inside, rng.permutation(inside)):
                    _same(f.eval_many(pts), _masked_eval_many(f, pts))
                assert set(routes) == {"stacked"}
                # every point is a grid point: no polynomial is evaluated
                del routes[:]
                on_grid = rng.permutation(np.concatenate([f.grid, f.grid[::3]]))
                for pts in (on_grid, np.sort(on_grid)):
                    _same(f.eval_many(pts), _masked_eval_many(f, pts))
                assert routes == []

    def test_points_outside_the_domain(self, rng, monkeypatch):
        """The domain is checked on the ends of the sorted points, where NaN
        sorts last: NaN anywhere, or a point below ``a`` or above ``b``,
        raises on both routes, in sorted and unsorted input."""
        routes = _count_routes(monkeypatch)
        a, b = -1.0, 3.0
        for pieces, route in ((200, "stacked"), (2, "piece")):
            f = _random_function(rng, "operator", 2, pieces, a, b)
            ts = rng.uniform(a, b, size=60)
            del routes[:]
            f.eval_many(ts)
            assert set(routes) == {route}
            for bad in (np.nan, np.nextafter(a, -np.inf), np.nextafter(b, np.inf),
                        -np.inf, np.inf):
                for at in (0, 30, 60):
                    pts = np.insert(ts, at, bad)
                    for arg in (pts, np.sort(pts), pts.reshape(1, -1)):
                        with pytest.raises(DomainError):
                            f.eval_many(arg)
            for lone in (np.array(np.nan), np.array([np.nan]), np.array([np.nan, np.nan])):
                with pytest.raises(DomainError):
                    f.eval_many(lone)

    def test_polyval(self, rng):
        for _ in range(300):
            vshape = [(), (1,), (3,), (2, 2), (3, 3)][int(rng.integers(5))]
            c = corpus.random_coeffs(rng, vshape)
            ts = rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 40)))
            _same(_poly.polyval(c, ts), _step_horner(c, ts))
            t = float(rng.uniform(-3.0, 3.0))
            _same(_poly.polyval(c, t), _step_horner(c, t))


def _safe_coeffs(rng, vshape):
    """Coefficients every Horner-safe rule admits: dense up to degree 5, a
    dense linear, a constant or zero, never a -0.0."""
    style = rng.integers(4)
    if style == 0:
        return rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 7)),) + vshape)
    if style == 1:
        return rng.uniform(0.5, 1.0, size=(2,) + vshape) * rng.choice([-1.0, 1.0])
    if style == 2:
        return rng.uniform(-1.0, 1.0, size=(1,) + vshape)
    return np.zeros((int(rng.integers(1, 4)),) + vshape)


def _monomial_function(rng, kind, dim, a, b):
    """A mixed random function with one degree-64 monomial piece holding
    -0.0 entries."""
    f = _random_function(rng, kind, dim, 12, a, b)
    monomial = np.zeros((65,) + f.vshape)
    monomial[64] = rng.uniform(-1.0, 1.0, size=f.vshape)
    coeffs = list(f.coeffs)
    coeffs[int(rng.integers(len(coeffs)))] = np.where(
        rng.random(monomial.shape) < 0.3, -0.0, monomial)
    return PiecewiseFunction(f.grid, coeffs, f.nodes)


class TestSortedPoints:
    """``_eval_sorted``, which the Riemann-Stieltjes sums call on a
    division's sorted points and tags and ``eval_many`` calls after its
    checks and sort, equals the reference loops byte for byte."""

    def test_matches_the_reference(self, rng, monkeypatch):
        routes = _count_routes(monkeypatch)
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)):
            for kind in ("vector", "operator"):
                for dim in (1, 2, 3):
                    vshape = (dim,) if kind == "vector" else (dim, dim)
                    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, 5), [b]]))
                    safe = PiecewiseFunction(
                        grid, [_safe_coeffs(rng, vshape) for _ in range(grid.size - 1)],
                        rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape))
                    assert safe._one_pass is not None
                    mixed = _random_function(rng, kind, dim, 6, a, b)
                    monomial = _monomial_function(rng, kind, dim, a, b)
                    assert monomial._one_pass is None
                    for f in (safe, mixed, monomial):
                        # the oracle's divisions of the function's grid
                        plan = gauges._ForcedSet(f.grid)
                        points = []
                        for level in range(17):
                            d = gauges._forced_fine_division(plan, level, 1 << 21)
                            points += [d.points, d.tags]
                        # grid nodes only, repeated; one point per piece;
                        # many random points, some repeated
                        inside = np.sort(rng.uniform(a, b, 300))
                        points += [np.sort(np.concatenate([f.grid, f.grid[::2]])),
                                   rng.uniform(f.grid[:-1], f.grid[1:]),
                                   np.sort(np.concatenate([inside, inside[::7], f.grid])),
                                   np.array([a]), np.array([]), np.array([b, b])]
                        for ts in points:
                            _same(f._eval_sorted(ts), _masked_eval_many(f, ts))
        assert set(routes) == {"piece", "stacked"}

    def test_routes(self, rng, monkeypatch):
        """A Horner-safe function takes one pass from its highest degree for
        few points per piece, decided once, and one pass per piece for many;
        a -0.0 entry of the same value makes it take ``polyval``'s grouped
        stack instead, with the same bits; pieces of one pattern take one
        pass by it."""
        grid = np.linspace(0.0, 1.0, 9)
        coeffs = [_safe_coeffs(rng, (2, 2)) for _ in range(8)]
        coeffs[3] = rng.uniform(-1.0, 1.0, size=(4, 2, 2))
        coeffs[3][1, 0, 0] = 0.0
        f = PiecewiseFunction(grid, coeffs, rng.uniform(-1.0, 1.0, size=(9, 2, 2)))
        few = np.sort(rng.uniform(0.0, 1.0, 40))
        many = np.sort(rng.uniform(0.0, 1.0, 4096))
        seen, decided = [], []
        horner, horner_safe = _poly.horner, _poly.horner_safe

        def counted(cols, ts, pattern, out):
            seen.append(("stacked" if np.ndim(ts) > 1 else "piece", list(pattern)))
            return horner(cols, ts, pattern, out)

        def safe_once(c, pattern):
            decided.append(len(c))
            return horner_safe(c, pattern)

        monkeypatch.setattr(_poly, "horner", counted)
        monkeypatch.setattr(_poly, "horner_safe", safe_once)
        top = max(len(c) for c in coeffs if np.any(c)) - 1
        for _ in range(2):
            _same(f._eval_sorted(few), _masked_eval_many(f, few))
        assert f._one_pass == [3, 0, top]
        assert seen == [("stacked", [3, 0, top])] * 2 and decided == [8]
        del seen[:]
        _same(f._eval_sorted(many), _masked_eval_many(f, many))
        assert [route for route, _ in seen] == ["piece"] * 8
        assert [pattern for _, pattern in seen] == f._pattern.tolist()
        coeffs[3][1, 0, 0] = -0.0
        g = PiecewiseFunction(grid, coeffs, f.nodes)
        assert g._one_pass is None
        del seen[:]
        got = g._eval_sorted(few)
        _same(got, _masked_eval_many(g, few))
        _same(got, f._eval_sorted(few))
        assert len(seen) > 1 and {route for route, _ in seen} == {"stacked"}
        # pieces of one pattern, not Horner-safe: one pass by that pattern
        monomials = np.where(rng.random((8, 3, 2, 2)) < 0.3, -0.0, 0.0)
        monomials[:, 2] = rng.uniform(0.5, 1.0, (8, 2, 2))
        h = PiecewiseFunction(grid, list(monomials), f.nodes)
        assert h._one_pass == [1, 2, 2]
        del seen[:]
        _same(h._eval_sorted(few), _masked_eval_many(h, few))
        assert seen == [("stacked", [1, 2, 2])]


def _mixed_jumps(rng, f):
    """``f`` with each node value kept or set to its left or right limit,
    so some grid points jump on one side only and some not at all."""
    nodes = np.array(f.nodes)
    for k, t in enumerate(f.grid.tolist()):
        side = rng.integers(3)
        if side == 1 and k > 0:
            nodes[k] = _poly.polyval(f.coeffs[k - 1], t)
        elif side == 2 and k < f.npieces:
            nodes[k] = _poly.polyval(f.coeffs[k], t)
    return PiecewiseFunction(f.grid, f.coeffs, nodes)


def _record_rows(f):
    """Reference jump table: ``(t, jump_minus, jump_plus, norm_minus,
    norm_plus)`` at every grid point, from two scalar ``polyval`` and two
    ``norm_of`` calls per point; the library evaluates each piece once at
    both ends and takes all norms in one array pass."""
    rows = []
    for k, t in enumerate(f.grid.tolist()):
        zeros = np.zeros(f.vshape)
        jm = f.nodes[k] - _poly.polyval(f.coeffs[k - 1], t) if k > 0 else zeros
        jp = _poly.polyval(f.coeffs[k], t) - f.nodes[k] if k < f.npieces else zeros
        rows.append((t, jm, jp, norm_of(jm), norm_of(jp)))
    return rows


def _record_jumps(f, tol=0.0):
    return [row for row in _record_rows(f) if row[3] > tol or row[4] > tol]


def _same_record(rec, row):
    t, jm, jp, nm, np_ = row
    _same(np.float64(rec.t), np.float64(t))
    _same(rec.jump_minus, jm)
    _same(rec.jump_plus, jp)
    _same(np.float64(rec.norm_minus), np.float64(nm))
    _same(np.float64(rec.norm_plus), np.float64(np_))


def _same_function(f, grid, coeffs, nodes):
    _same(f.grid, np.asarray(grid))
    _same(f.nodes, np.asarray(nodes))
    assert len(f.coeffs) == len(coeffs)
    for p, q in zip(f.coeffs, coeffs):
        _same(p, np.asarray(q))


def _break_reference(grid, rows, vshape):
    """Break function of the jump rows ``rows`` on ``grid``, summed by
    ``corpus._break_from_jumps``."""
    jm, jp = np.zeros((len(grid),) + vshape), np.zeros((len(grid),) + vshape)
    for t, m_, p_, _, _ in rows:
        k = int(np.searchsorted(grid, t))
        jm[k], jp[k] = m_, p_
    return corpus._break_from_jumps(np.asarray(grid), jm, jp)


def _point_refine(f, points):
    """Reference ``refine``: one ownership search and one scalar
    ``polyval`` per new point, one search per new piece."""
    new_grid = np.unique(np.concatenate([f.grid, np.asarray(points, dtype=float)]))
    old = {float(t): k for k, t in enumerate(f.grid)}
    piece_of = lambda t: int(np.searchsorted(f.grid, t, side="left")) - 1
    nodes = np.empty((new_grid.size,) + f.vshape)
    for k, t in enumerate(new_grid.tolist()):
        nodes[k] = f.nodes[old[t]] if t in old else _poly.polyval(f.coeffs[piece_of(t)], t)
    coeffs = [f.coeffs[piece_of(0.5 * (u + v))] for u, v in zip(new_grid[:-1], new_grid[1:])]
    return new_grid, coeffs, nodes


class TestJumpTableReference:
    """The jump table and everything built from it (``jumps``, ``jump_at``,
    ``jordan_decompose``, ``break_truncate``), and ``refine``, equal the
    per-point reference loops byte for byte."""

    @staticmethod
    def functions(rng):
        for kind in ("vector", "operator"):
            for dim in (1, 2, 3):
                for pieces in (1, 7, 200):
                    for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)):
                        yield _mixed_jumps(rng, _random_function(rng, kind, dim, pieces, a, b))

    def test_jumps_and_jump_at(self, rng):
        for f in self.functions(rng):
            rows = _record_rows(f)
            for tol in (0.0, 0.5):
                got, want = f.jumps(tol), _record_jumps(f, tol)
                assert len(got) == len(want)
                for rec, row in zip(got, want):
                    _same_record(rec, row)
            for k, t in enumerate(f.grid):
                _same_record(f.jump_at(t), rows[k])
            zeros = np.zeros(f.vshape)
            for t in rng.uniform(f.a, f.b, size=3):
                if t not in f.grid:
                    _same_record(f.jump_at(t), (t, zeros, zeros, 0.0, 0.0))

    def test_jordan_and_truncate(self, rng):
        for f in self.functions(rng):
            fc, fb = jordan_decompose(f)
            rows = _record_jumps(f)
            if not rows:
                assert fc is f and not fb.jumps()
                continue
            ref_b = _break_reference(f.grid, rows, f.vshape)
            _same_function(fb, ref_b.grid, ref_b.coeffs, ref_b.nodes)
            fc_coeffs = [np.concatenate([c[:1] - level[:1], c[1:]])
                         for c, level in zip(f.coeffs, ref_b.coeffs)]
            _same_function(fc, f.grid, fc_coeffs, f.nodes - ref_b.nodes)

            every = _record_jumps(fb)
            for kept in (every, [row for row in every if rng.random() < 0.3], []):
                ts = [row[0] for row in kept]
                order = rng.permutation(len(ts))
                grid = np.unique(np.asarray([f.a, f.b] + ts))
                ref = _break_reference(grid, kept, f.vshape)
                got = break_truncate(fb, [ts[i] for i in order])
                _same_function(got, ref.grid, ref.coeffs, ref.nodes)

    def test_refine(self, rng):
        for f in self.functions(rng):
            a, b = f.a, f.b
            lo, hi = f.grid[f.npieces // 2], f.grid[f.npieces // 2 + 1]
            inside = rng.uniform(a, b, size=25)
            # one piece gets a run of points; duplicates, grid hits and
            # both ends are not new
            for pts in (inside, np.concatenate([inside[:5], inside[:5], f.grid[::3], [a, b]]),
                        np.linspace(lo, hi, 9), [0.5 * (a + b)], np.sort(inside)[::-1]):
                _same_function(f.refine(pts), *_point_refine(f, pts))
            assert f.refine(f.grid[::2]) is f
            assert f.refine([]) is f


class TestJumpTableCache:
    @staticmethod
    def jumpy(rng):
        return _mixed_jumps(rng, _random_function(rng, "operator", 2, 7, 0.0, 1.0))

    def test_records_are_read_only(self, rng):
        f = self.jumpy(rng)
        off_grid = 0.5 * (f.grid[1] + f.grid[2])
        records = f.jumps() + [f.jump_at(f.grid[3]), f.jump_at(f.a), f.jump_at(off_grid)]
        for rec in records:
            for arr in (rec.jump_minus, rec.jump_plus):
                with pytest.raises(ValueError):
                    arr[...] = 1.0
        # the cached table is untouched
        for rec, row in zip(f.jumps(), _record_jumps(f)):
            _same_record(rec, row)

    def test_built_lazily_once(self, rng, monkeypatch):
        f0 = self.jumpy(rng)
        calls = []
        polyval = _poly.polyval

        def counting(c, t, *pattern):
            # a batched call passes one degree pattern per stacked piece
            calls.append(len(pattern) == 1 and np.ndim(pattern[0]) == 2 and len(c) == f.npieces)
            return polyval(c, t, *pattern)

        monkeypatch.setattr(_poly, "polyval", counting)
        f = PiecewiseFunction(f0.grid, f0.coeffs, f0.nodes)
        assert calls == []
        f.jumps()
        assert calls == [True]
        f.jumps(tol=0.5)
        f.jump_at(f.grid[2])
        jordan_decompose(f)
        assert calls == [True]

    def test_repeated_calls_agree(self, rng):
        f = self.jumpy(rng)
        first, second = f.jumps(), f.jumps()
        assert len(first) == len(second) > 0
        for r, s in zip(first, second):
            _same_record(r, (s.t, s.jump_minus, s.jump_plus, s.norm_minus, s.norm_plus))


# -- the per-piece loops that columnar storage replaced ------------------------


def _ref_polyval(c, t):
    """Reference ``_poly.polyval``: finds the nonzero degrees on every call,
    where the library reads the degree pattern stored per piece."""
    c = np.asarray(c, dtype=float)
    tarr = np.asarray(t, dtype=float)
    scalar = tarr.ndim == 0
    ts = tarr.reshape(1) if scalar else tarr
    vshape = c.shape[1:]
    nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
    out = np.zeros(vshape + ts.shape)
    if 0 < nz.size <= 2:
        for j in nz:
            out += c[j][..., np.newaxis] * ts**j
    elif nz.size > 2:
        top = int(nz[-1])
        out += c[top][..., np.newaxis]
        for j in range(top - 1, -1, -1):
            out *= ts
            out += c[j][..., np.newaxis]
    return out[..., 0] if scalar else out


class _Ref(NamedTuple):
    """A function as the per-piece reference loops hold it: one coefficient
    array per piece."""

    grid: np.ndarray
    coeffs: list
    nodes: np.ndarray


def _ref_function(grid, coeffs, nodes):
    """Reference constructor: one float copy per piece."""
    return _Ref(np.array(grid, dtype=float), [np.array(c, dtype=float) for c in coeffs],
                np.array(nodes, dtype=float))


def _ref_piece(r, t):
    return int(np.searchsorted(r.grid, t, side="left")) - 1


def _ref_eval_many(r, ts):
    """Reference ``eval_many``: one write per grid point hit and one
    ``polyval`` per piece, into a fresh array that is then copied."""
    ts = np.asarray(ts, dtype=float)
    srt = ts.reshape(-1)
    order = np.argsort(srt, kind="stable")
    srt = srt[order]
    lo = np.searchsorted(srt, r.grid, side="left")
    hi = np.searchsorted(srt, r.grid, side="right")
    vals = np.empty(r.nodes.shape[1:] + srt.shape)
    for k in np.flatnonzero(hi > lo):
        vals[..., lo[k]:hi[k]] = r.nodes[k][..., np.newaxis]
    for j in np.flatnonzero(lo[1:] > hi[:-1]):
        vals[..., hi[j]:lo[j + 1]] = _ref_polyval(r.coeffs[j], srt[hi[j]:lo[j + 1]])
    out = np.empty_like(vals)
    out[..., order] = vals
    return out.reshape(r.nodes.shape[1:] + ts.shape)


def _ref_refine(r, points):
    """Reference ``refine``: one ``polyval`` per run of new points in one
    piece, one coefficient array per new piece."""
    new_grid = np.unique(np.concatenate([r.grid, np.asarray(points, dtype=float)]))
    nodes = np.empty((new_grid.size,) + r.nodes.shape[1:])
    for k, t in enumerate(new_grid.tolist()):
        i = int(np.searchsorted(r.grid, t, side="left"))
        if i < r.grid.size and r.grid[i] == t:
            nodes[k] = r.nodes[i]
        else:
            nodes[k] = _ref_polyval(r.coeffs[i - 1], np.array([t]))[..., 0]
    coeffs = [r.coeffs[_ref_piece(r, 0.5 * (u + v))] for u, v in zip(new_grid[:-1], new_grid[1:])]
    return _Ref(new_grid, coeffs, nodes)


def _ref_clip(r, c, d):
    inner = r.grid[(r.grid > c) & (r.grid < d)]
    new_grid = np.concatenate([[c], inner, [d]])
    coeffs = [r.coeffs[_ref_piece(r, 0.5 * (u + v))] for u, v in zip(new_grid[:-1], new_grid[1:])]
    return _Ref(new_grid, coeffs, np.moveaxis(_ref_eval_many(r, new_grid), -1, 0))


def _ref_restrict(r, region):
    """Reference ``restrict``: one ``contains`` test per piece midpoint."""
    refined = _ref_refine(r, region.endpoints())
    zeros = np.zeros((1,) + r.nodes.shape[1:])
    coeffs = [c if region.contains(0.5 * (u + v)) else zeros
              for u, v, c in zip(refined.grid[:-1], refined.grid[1:], refined.coeffs)]
    nodes = [x if region.contains(t) else np.zeros_like(x)
             for t, x in zip(refined.grid.tolist(), refined.nodes)]
    return _Ref(refined.grid, coeffs, np.array(nodes))


def _ref_lincomb(c1, r1, c2, r2):
    p1, p2 = _ref_refine(r1, r2.grid), _ref_refine(r2, r1.grid)
    coeffs = []
    for p, q in zip(p1.coeffs, p2.coeffs):
        out = np.zeros((max(len(p), len(q)),) + p.shape[1:])
        out[:len(p)] += c1 * p
        out[:len(q)] += c2 * q
        coeffs.append(out)
    return _Ref(p1.grid, coeffs, c1 * p1.nodes + c2 * p2.nodes)


def _ref_mul(r, scalar):
    return _Ref(r.grid, [scalar * c for c in r.coeffs], scalar * r.nodes)


def _ref_jump_rows(r):
    """``(k, jump_minus, jump_plus)`` at every grid point that jumps."""
    zeros = np.zeros(r.nodes.shape[1:])
    rows = []
    for k, t in enumerate(r.grid.tolist()):
        jm = r.nodes[k] - _ref_polyval(r.coeffs[k - 1], t) if k > 0 else zeros
        jp = _ref_polyval(r.coeffs[k], t) - r.nodes[k] if k < len(r.coeffs) else zeros
        if norm_of(jm) > 0.0 or norm_of(jp) > 0.0:
            rows.append((k, jm, jp))
    return rows


def _ref_break(grid, at, rows, vshape):
    """Break function with the jumps ``rows`` at grid indices ``at``, by
    ``corpus._break_from_jumps``' running sum."""
    jm, jp = np.zeros((len(grid),) + vshape), np.zeros((len(grid),) + vshape)
    for k, (_, m_, p_) in zip(at, rows):
        jm[k], jp[k] = m_, p_
    fb = corpus._break_from_jumps(np.asarray(grid), jm, jp)
    return _Ref(fb.grid, [np.array(c) for c in fb.coeffs], np.array(fb.nodes))


def _ref_jordan(r):
    """Reference ``jordan_decompose``: the continuous part's constant term
    adjusted piece by piece."""
    rows = _ref_jump_rows(r)
    fb = _ref_break(r.grid, [k for k, _, _ in rows], rows, r.nodes.shape[1:])
    coeffs = []
    for c, level in zip(r.coeffs, fb.coeffs):
        cc = np.array(c)
        cc[0] = cc[0] - level[0]
        coeffs.append(cc)
    return _Ref(r.grid, coeffs, r.nodes - fb.nodes), fb


def _ref_break_truncate(fb, points):
    keep = set(np.asarray(points, dtype=float).tolist())
    rows = [row for row in _ref_jump_rows(fb) if fb.grid[row[0]] in keep]
    grid = np.unique(np.concatenate([[fb.grid[0], fb.grid[-1]], [fb.grid[k] for k, _, _ in rows]]))
    return _ref_break(grid, np.searchsorted(grid, [fb.grid[k] for k, _, _ in rows]), rows,
                      fb.nodes.shape[1:])


def _same_ref(f, r):
    _same_function(f, r.grid, r.coeffs, r.nodes)


def _columnar_coeffs(rng, vshape):
    """``corpus.random_coeffs`` (dense, sparse, zero, some -0.0 entries),
    or a monomial of degree up to 64 as the power family makes, sometimes
    with a second term."""
    if rng.random() < 0.75:
        return corpus.random_coeffs(rng, vshape)
    k = int(rng.integers(14, 65))
    c = np.zeros((k + 1,) + vshape)
    c[k] = rng.uniform(-1.0, 1.0, size=vshape)
    if rng.random() < 0.5:
        c[int(rng.integers(k))] = rng.uniform(-1.0, 1.0, size=vshape)
    return c


class TestColumnarReference:
    """Construction, evaluation and every structural operation on the
    columnar block equal the per-piece loops they replaced, byte for
    byte."""

    DOMAINS = ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0))

    @classmethod
    def functions(cls, rng):
        """Pairs ``(f, reference)`` of vector and operator functions, dims
        1-3, with 1, 7 and 200 pieces of ragged lengths on each domain;
        nodes kept random or set to a one-sided limit."""
        for kind in ("vector", "operator"):
            for dim in (1, 2, 3):
                vshape = (dim,) if kind == "vector" else (dim, dim)
                for pieces in (1, 7, 200):
                    for a, b in cls.DOMAINS:
                        grid = np.unique(np.concatenate(
                            [[a], rng.uniform(a, b, pieces - 1), [b]]))
                        coeffs = [_columnar_coeffs(rng, vshape) for _ in range(grid.size - 1)]
                        nodes = rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape)
                        for k, t in enumerate(grid.tolist()):
                            side = rng.integers(3)
                            if side == 1 and k > 0:
                                nodes[k] = _ref_polyval(coeffs[k - 1], t)
                            elif side == 2 and k < len(coeffs):
                                nodes[k] = _ref_polyval(coeffs[k], t)
                        yield (PiecewiseFunction(grid, coeffs, nodes),
                               _ref_function(grid, coeffs, nodes))

    def test_constructor(self, rng):
        for f, r in self.functions(rng):
            _same_ref(f, r)
            views = f.coeffs
            assert all(np.shares_memory(c, f._block) for c in views)
            with pytest.raises(ValueError):
                views[0][...] = 1.0
            # built from another function's views, the block is a copy
            g = PiecewiseFunction(f.grid, views, f.nodes)
            _same_ref(g, r)
            assert not np.shares_memory(g.coeffs[0], views[0])

    def test_polyval_by_pattern(self, rng):
        """A stored pattern, one piece at a time or a stack at once, takes
        the reference's branch and operations."""
        for f, r in self.functions(rng):
            ts = rng.uniform(f.a, f.b, size=(f.npieces, 3))
            stacked = _poly.polyval(f._block, ts, f._pattern)
            for j, c in enumerate(r.coeffs):
                _same(stacked[j], _ref_polyval(c, ts[j]))
                _same(_poly.polyval(f._block[j], ts[j], f._pattern[j]), _ref_polyval(c, ts[j]))
                _same(_poly.polyval(f._block[j], ts[j, 0], f._pattern[j]),
                      _ref_polyval(c, ts[j, 0]))

    def test_eval_many(self, rng):
        for f, r in self.functions(rng):
            ts = rng.permutation(np.concatenate(
                [rng.uniform(f.a, f.b, 50), rng.choice(f.grid, 10), [f.a, f.b]]))
            _same(f.eval_many(ts), _ref_eval_many(r, ts))
            _same(f.eval_many(ts[:12].reshape(3, 4)), _ref_eval_many(r, ts[:12].reshape(3, 4)))

    def test_refine_and_clip(self, rng):
        for f, r in self.functions(rng):
            pts = np.concatenate([rng.uniform(f.a, f.b, 25), f.grid[::3]])
            _same_ref(f.refine(pts), _ref_refine(r, pts))
            c, d = np.sort(rng.uniform(f.a, f.b, 2))
            _same_ref(f.clip(c, d), _ref_clip(r, c, d))
            _same_ref(f.clip(f.a, f.b), _ref_clip(r, f.a, f.b))

    def test_clip_outside_or_empty_rejected(self, ramp):
        for c, d in ((-0.5, 0.5), (0.5, 1.5), (0.5, 0.5), (0.75, 0.25)):
            with pytest.raises(DomainError, match="is not a subdomain of"):
                ramp.clip(c, d)

    def test_restrict(self, rng):
        """One ``contains_many`` over the piece midpoints keeps the same
        pieces as one ``contains`` per piece, for sets with open, closed
        and degenerate parts, also at grid points."""
        for f, r in self.functions(rng):
            regions = [corpus.random_elementary(rng, f.a, f.b),
                       ElementarySet.of(Interval.at(float(f.grid[len(f.grid) // 2]))),
                       ElementarySet.of(Interval(float(f.grid[0]), float(f.grid[-1]),
                                                 False, False))]
            for region in regions:
                _same_ref(f.restrict(region), _ref_restrict(r, region))

    def test_lincomb_and_mul(self, rng):
        previous = {}
        for f, r in self.functions(rng):
            key = (f.kind, f.dim, f.a)
            if key in previous:
                g, s = previous[key]
                for c1, c2 in ((1.0, 1.0), (1.0, -1.0), (-0.375, 2.5), (0.0, -0.0)):
                    _same_ref(lincomb(c1, f, c2, g), _ref_lincomb(c1, r, c2, s))
            previous[key] = (f, r)
            for scalar in (2.5, -1.0, -0.0):
                _same_ref(f * scalar, _ref_mul(r, scalar))
            _same_ref(-f, _ref_mul(r, -1.0))

    def test_jordan_and_truncate(self, rng):
        for f, r in self.functions(rng):
            fc, fb = jordan_decompose(f)
            ref_c, ref_b = _ref_jordan(r)
            if not _ref_jump_rows(r):
                assert fc is f
                continue
            _same_ref(fc, ref_c)
            _same_ref(fb, ref_b)
            ts = [rec.t for rec in fb.jumps()]
            for kept in (ts, [t for t in ts if rng.random() < 0.3], []):
                _same_ref(break_truncate(fb, kept), _ref_break_truncate(ref_b, kept))


class TestConstructor:
    @pytest.mark.parametrize("where", ["coeffs", "nodes", "grid"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, where, bad):
        grid = [0.0, 0.5, 1.0]
        coeffs = [np.array([[1.0], [2.0]]), np.array([[3.0]])]
        nodes = [[0.0], [1.0], [2.0]]
        if where == "coeffs":
            coeffs[1] = np.array([[bad]])
        elif where == "nodes":
            nodes[1] = [bad]
        else:
            grid[-1 if bad > 0 else 0] = bad
        with pytest.raises(ValueError):
            PiecewiseFunction(grid, coeffs, nodes)

    def test_nan_coefficient_no_longer_has_zero_variation(self):
        with pytest.raises(ValueError):
            var_compact(PiecewiseFunction([0.0, 1.0], [[[np.nan]]], [[0.0], [1.0]]), 0.0, 1.0)

    def test_infinite_domain_rejected(self):
        with pytest.raises(ValueError):
            constant((0.0, np.inf), 1.0)

    def test_piece_without_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseFunction([0.0, 0.5, 1.0], [np.zeros((0, 1)), [[1.0]]],
                              [[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="at least one coefficient"):
            polynomial((0.0, 1.0), [])
        with pytest.raises(ValueError, match="at least one coefficient"):
            scaled_identity((0.0, 1.0), [], dim=2)

    def test_zero_dimensional_values_rejected(self):
        for make in (lambda: PiecewiseFunction([0, 1], [np.zeros((1, 0))], np.zeros((2, 0))),
                     lambda: scaled_identity((0, 1), [1.0], dim=0),
                     lambda: constant((0, 1), [])):
            with pytest.raises(ValueError, match="dimension"):
                make()

    def test_shape_and_count_errors(self):
        with pytest.raises(ValueError):
            PiecewiseFunction([0.0, 1.0], [[[1.0, 2.0]]], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            PiecewiseFunction([0.0, 0.5, 1.0], [[[1.0]]], [[0.0], [1.0], [2.0]])

    def test_ragged_pieces_pad_with_zeros(self):
        f = PiecewiseFunction([0.0, 0.5, 1.0], [[[1.0], [2.0], [3.0]], [[4.0]]],
                              [[0.0], [1.0], [2.0]])
        assert [c.shape for c in f.coeffs] == [(3, 1), (1, 1)]
        assert f._block.shape == (2, 3, 1)
        assert not np.any(f._block[1, 1:])
        assert f._pattern.tolist()[0] == [3, 0, 2] and f._pattern.tolist()[1][:2] == [1, 0]


class TestLimits:
    def test_indicator_limits(self, chi_half):
        assert chi_half.limit_left(0.5)[0] == 0.0
        assert chi_half.limit_right(0.5)[0] == 1.0

    def test_square_left_limit_at_b(self):
        f = polynomial((0, 1), [0.0, 0.0, 1.0])
        assert f.limit_left(1.0)[0] == 1.0

    def test_limits_outside(self, ramp):
        with pytest.raises(DomainError):
            ramp.limit_left(0.0)
        with pytest.raises(DomainError):
            ramp.limit_right(1.0)

    def test_limits_match_geometric_approach(self, rng):
        """Polynomial continuity: limits agree with evaluation along 10
        geometrically approaching points, to 1e-9."""
        for _ in range(20):
            f = corpus.random_piecewise(rng, "vector", 2)
            for k in range(1, len(f.grid) - 1):
                t = f.grid[k]
                gap = min(t - f.grid[k - 1], f.grid[k + 1] - t)
                eps = min(0.25 * gap, 1e-3) * 10.0 ** -np.arange(10)
                left = f.eval_many(t - eps)
                right = f.eval_many(t + eps)
                # the closest sample pins the limit down to 1e-9
                assert np.max(np.abs(left[..., -1] - f.limit_left(t))) < 1e-9
                assert np.max(np.abs(right[..., -1] - f.limit_right(t))) < 1e-9
                # and the approach is monotone-ish: errors shrink overall
                lerr = np.max(np.abs(left - f.limit_left(t)[:, None]), axis=0)
                assert lerr[-1] <= lerr[0] + 1e-15


class TestJumps:
    def test_indicator_jump(self, chi_half):
        (rec,) = chi_half.jumps()
        assert rec.t == 0.5
        assert rec.jump_minus[0] == 1.0
        assert rec.jump_plus[0] == 0.0

    def test_continuous_has_none(self, ramp):
        assert ramp.jumps() == []

    def test_point_mass_at_left_endpoint(self):
        # value 1 at a=0, zero elsewhere: only a right jump of -1 at a
        f = step((0.0, 1.0), Interval.at(0.0), 1.0)
        (rec,) = f.jumps()
        assert rec.t == 0.0
        assert rec.jump_minus[0] == 0.0  # convention at a
        assert rec.jump_plus[0] == -1.0

    @pytest.mark.parametrize("tol", [np.nan, -1e-300, -1.0])
    def test_tolerance_must_be_nonnegative(self, chi_half, tol):
        """A NaN tolerance would report no jump at all and a negative one
        every grid point, zero jumps included."""
        with pytest.raises(ValueError):
            chi_half.jumps(tol)

    def test_refinement_no_spurious_jumps(self, rng):
        for _ in range(30):
            f = corpus.random_piecewise(rng, "vector", 2)
            g = f.refine(rng.uniform(0, 1, size=3))
            assert [(r.t,) for r in g.jumps()] == [(r.t,) for r in f.jumps()]


class TestJumpAt:
    @staticmethod
    def one_sided(f, t):
        """The jumps from the one-sided limits, endpoint conventions applied."""
        zeros = np.zeros(f.vshape)
        jm = zeros if t == f.a else f(t) - f.limit_left(t)
        jp = zeros if t == f.b else f.limit_right(t) - f(t)
        return jm, jp

    def test_matches_one_sided_limits(self, rng):
        for i in range(40):
            kind = "operator" if i % 2 else "vector"
            a = float(rng.choice([0.0, -3.5, 1e3]))
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)),
                                        domain=(a, a + 2.0))
            off = rng.uniform(f.a, f.b, size=5)
            for t in np.concatenate([f.grid, off]):
                rec = f.jump_at(t)
                jm, jp = self.one_sided(f, float(t))
                assert rec.t == t
                assert np.array_equal(rec.jump_minus, jm)
                assert np.array_equal(rec.jump_plus, jp)

    def test_endpoint_conventions(self):
        f = PiecewiseFunction([0.0, 1.0], [np.array([[1.0]])], [[3.0], [5.0]])
        at_a, at_b = f.jump_at(0.0), f.jump_at(1.0)
        assert at_a.jump_minus[0] == 0.0 and at_a.jump_plus[0] == -2.0
        assert at_b.jump_minus[0] == 4.0 and at_b.jump_plus[0] == 0.0

    def test_outside_domain(self, ramp):
        for t in (-0.1, 1.5):
            with pytest.raises(DomainError):
                ramp.jump_at(t)


class TestJordan:
    def test_pure_step(self, chi_half):
        fc, fb = jordan_decompose(chi_half)
        assert fc.jumps() == []
        ts = np.linspace(0, 1, 101)
        assert np.array_equal(fb.eval_many(ts), chi_half.eval_many(ts))
        assert np.all(fc.eval_many(ts) == 0.0)

    def test_continuous_passthrough(self, ramp):
        fc, fb = jordan_decompose(ramp)
        assert fc is ramp
        assert np.all(fb.eval_many(np.linspace(0, 1, 11)) == 0.0)

    def test_mixed(self, ramp):
        g = step((0.0, 1.0), Interval(0.5, 1.0, False, True), 1.0)
        f = lincomb(1.0, ramp, 1.0, g)
        fc, fb = jordan_decompose(f)
        ts = np.linspace(0, 1, 100)
        assert np.max(np.abs(fc.eval_many(ts) + fb.eval_many(ts) - f.eval_many(ts))) < 1e-15
        (rec,) = fb.jumps()
        (rec_f,) = f.jumps()
        assert rec.t == 0.5 == rec_f.t
        assert rec.jump_plus[0] == rec_f.jump_plus[0] == 1.0
        assert rec.jump_minus[0] == rec_f.jump_minus[0] == 0.0

    def test_random_corpus(self, rng):
        for _ in range(40):
            kind = "operator" if rng.random() < 0.5 else "vector"
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)))
            fc, fb = jordan_decompose(f)
            assert np.all(fb.nodes[0] == 0.0)
            ts = rng.uniform(f.a, f.b, size=1000)
            err = np.max(np.abs(fc.eval_many(ts) + fb.eval_many(ts) - f.eval_many(ts)))
            assert err <= 1e-12
            assert fc.jumps(tol=1e-12) == []
            # jump matching within float noise
            f_j = {r.t: r for r in f.jumps()}
            b_j = {r.t: r for r in fb.jumps()}
            assert set(b_j) == set(f_j)
            for t, rec in f_j.items():
                assert np.max(np.abs(b_j[t].jump_minus - rec.jump_minus)) <= 1e-12
                assert np.max(np.abs(b_j[t].jump_plus - rec.jump_plus)) <= 1e-12

    def test_dyadic_corpus_exact(self, rng):
        """On the dyadic-exact corpus the decomposition identities hold
        bitwise: no tolerance anywhere."""
        for _ in range(40):
            f = corpus.dyadic_piecewise(rng, "vector", int(rng.integers(1, 3)))
            fc, fb = jordan_decompose(f)
            assert fc.jumps() == []
            assert np.all(fb.nodes[0] == 0.0)
            f_j = {r.t: r for r in f.jumps()}
            b_j = {r.t: r for r in fb.jumps()}
            assert set(b_j) == set(f_j)
            for t, rec in f_j.items():
                assert np.array_equal(b_j[t].jump_minus, rec.jump_minus)
                assert np.array_equal(b_j[t].jump_plus, rec.jump_plus)
            # dyadic sample points keep every operation exact, so the
            # recombination identity is bitwise
            ts = np.unique(np.concatenate(
                [rng.integers(0, 4097, size=200) / 4096.0, f.grid]))
            assert np.array_equal(fc.eval_many(ts) + fb.eval_many(ts),
                                  f.eval_many(ts))

    def test_reproducible(self, rng):
        f = corpus.random_piecewise(rng, "vector", 2)
        fc1, fb1 = jordan_decompose(f)
        fc2, fb2 = jordan_decompose(f)
        assert np.array_equal(fb1.nodes, fb2.nodes)
        assert np.array_equal(fc1.nodes, fc2.nodes)


def _jumps_by_index(grid, records, vshape):
    jm = np.zeros((len(grid),) + vshape)
    jp = np.zeros((len(grid),) + vshape)
    for rec in records:
        k = int(np.searchsorted(grid, rec.t))
        jm[k], jp[k] = rec.jump_minus, rec.jump_plus
    return jm, jp


def _assert_same_function(f, g):
    assert np.array_equal(f.grid, g.grid)
    assert np.array_equal(f.nodes, g.nodes)
    assert len(f.coeffs) == len(g.coeffs)
    for p, q in zip(f.coeffs, g.coeffs):
        assert np.array_equal(p, q)


class TestBreakBuilderReference:
    """Both library break functions equal, array for array, the running
    sum that ``corpus._break_from_jumps`` builds from the same jumps."""

    def test_against_corpus_loop(self, rng):
        for i in range(60):
            kind = "operator" if i % 2 else "vector"
            a = float(rng.choice([0.0, -7.25, 1e4]))
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)),
                                        domain=(a, a + 3.0), max_jumps=6)
            records = f.jumps()
            if not records:
                continue
            _, fb = jordan_decompose(f)
            jm, jp = _jumps_by_index(f.grid, records, f.vshape)
            _assert_same_function(fb, corpus._break_from_jumps(f.grid, jm, jp))

            every = fb.jumps()
            for kept in (every, [r for r in every if rng.random() < 0.5]):
                grid = np.unique(np.asarray([f.a, f.b] + [r.t for r in kept]))
                jm, jp = _jumps_by_index(grid, kept, f.vshape)
                _assert_same_function(break_truncate(fb, [r.t for r in kept]),
                                      corpus._break_from_jumps(grid, jm, jp))


class TestBreakTruncate:
    @pytest.fixture
    def three_jumps(self):
        f = step((0.0, 1.0), Interval.closed(0.25, 1.0), 1.0)
        f = lincomb(1.0, f, 1.0, step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0))
        return lincomb(1.0, f, 1.0, step((0.0, 1.0), Interval.closed(0.75, 1.0), 1.0))

    def test_keep_one(self, three_jumps):
        g = break_truncate(three_jumps, [0.25])
        assert [r.t for r in g.jumps()] == [0.25]
        assert g(0.3)[0] == 1.0 and g(0.2)[0] == 0.0

    def test_keep_all_is_identity(self, three_jumps):
        g = break_truncate(three_jumps, [0.25, 0.5, 0.75])
        diff = lincomb(1.0, g, -1.0, three_jumps)
        assert var_compact(diff, 0.0, 1.0).total == 0.0

    def test_dropped_jump_is_the_variation_gap(self, three_jumps):
        g = break_truncate(three_jumps, [0.25, 0.5])
        diff = lincomb(1.0, g, -1.0, three_jumps)
        assert var_compact(diff, 0.0, 1.0).total == 1.0

    def test_rejects_non_break_input(self, ramp):
        with pytest.raises(ValueError):
            break_truncate(ramp, [])

    def test_rejects_unknown_point(self, three_jumps):
        with pytest.raises(ValueError, match="0.3 is not a jump point"):
            break_truncate(three_jumps, [0.3])
        # a grid point without a jump, and the first unknown point is named
        refined = three_jumps.refine([0.3, 0.6])
        with pytest.raises(ValueError, match="0.6 is not a jump point"):
            break_truncate(refined, [0.25, 0.6, 0.3])


class TestRestrict:
    def test_open_interval(self):
        f = constant((0.0, 1.0), 1.0)
        g = f.restrict(ElementarySet.of(Interval.open(0.25, 0.75)))
        assert g(0.5)[0] == 1.0
        assert g(0.25)[0] == 0.0 and g(0.75)[0] == 0.0
        assert g(0.1)[0] == 0.0

    def test_full_domain_identity(self, ramp):
        g = ramp.restrict(ElementarySet.of(Interval.closed(0.0, 1.0)))
        ts = np.linspace(0, 1, 50)
        assert np.array_equal(g.eval_many(ts), ramp.eval_many(ts))

    def test_single_point(self, ramp):
        g = ramp.restrict(ElementarySet.of(Interval.at(0.5)))
        assert g(0.5)[0] == 0.5
        assert g(0.4)[0] == 0.0 and g(0.7)[0] == 0.0

    def test_restriction_jumps_follow_membership(self, rng):
        """At a part endpoint c the jump of the restriction is forced by
        the one-sided limits of f and whether c belongs to the set."""
        f = corpus.random_continuous(rng, "vector", 1)
        e = ElementarySet.of(Interval(0.25, 0.75, False, True))
        g = f.restrict(e)
        recs = {r.t: r for r in g.jumps()}
        # 0.25 not in e: g(0.25)=0, right limit = f(0.25+)
        assert recs[0.25].jump_plus[0] == f.limit_right(0.25)[0]
        # 0.75 in e: g(0.75)=f(0.75), right limit 0
        assert recs[0.75].jump_plus[0] == -f(0.75)[0]

    def test_outside_domain_rejected(self, ramp):
        with pytest.raises(DomainError):
            ramp.restrict(ElementarySet.of(Interval.closed(0.5, 2.0)))


def _sup_norm_reference(f, region):
    """Every grid point the part contains and every piece meeting its
    interior, walked in full."""
    best = 0.0
    for part in region.parts:
        if part.is_degenerate:
            best = max(best, norm_of(f(part.lo)))
            continue
        for k, t in enumerate(f.grid):
            if part.contains(float(t)):
                best = max(best, norm_of(f.nodes[k]))
        for u, v, c in f.piece_spans():
            lo, hi = max(u, part.lo), min(v, part.hi)
            if hi > lo:
                best = max(best, _poly.sup_norm_on(c, lo, hi))
    return best


class TestSupNorm:
    @pytest.fixture
    def ramp_with_nodes(self):
        """``t`` on [0, 1] with node values 5 at 1/2 and 3 at 1."""
        return PiecewiseFunction([0.0, 0.5, 1.0], [[[0.0], [1.0]]] * 2,
                                 [[0.0], [5.0], [3.0]])

    @pytest.mark.parametrize("part, want", [
        (Interval.closed(0.0, 1.0), 5.0),
        (Interval.open(0.5, 1.0), 1.0),
        (Interval(0.25, 0.5, True, False), 0.5),
        (Interval.at(0.5), 5.0),
        (Interval(0.5, 1.0, False, True), 3.0)])
    def test_node_values_count_only_inside(self, ramp_with_nodes, part, want):
        assert ramp_with_nodes.sup_norm(part) == want

    def test_default_is_the_domain(self, ramp_with_nodes):
        assert ramp_with_nodes.sup_norm() == 5.0

    def test_region_outside_the_domain(self, ramp_with_nodes):
        """The first part outside the domain is named, as ``restrict`` and
        the engine name it."""
        region = ElementarySet.of(Interval.closed(0.25, 0.5), Interval.open(0.75, 1.5),
                                  Interval.at(2.0))
        for f in (ramp_with_nodes, ramp_with_nodes.restrict(Interval.closed(0.0, 0.5))):
            with pytest.raises(DomainError, match=r"^\(0\.75,1\.5\) is not inside \[0\.0, 1\.0\]$"):
                f.sup_norm(region)
            with pytest.raises(DomainError, match=r"^\(0\.75,1\.5\) is not inside"):
                f.restrict(region)

    @staticmethod
    def regions(rng, f):
        pts = np.concatenate([f.grid, rng.uniform(f.a, f.b, 6)])
        for _ in range(4):
            parts = []
            for _ in range(int(rng.integers(1, 3))):
                lo, hi = sorted(float(x) for x in rng.choice(pts, 2))
                parts.append(Interval.at(lo) if lo == hi else
                             Interval(lo, hi, bool(rng.random() < 0.5), bool(rng.random() < 0.5)))
            yield ElementarySet.of(*parts)
        yield ElementarySet.of(f.domain)

    def test_matches_full_walk(self, rng):
        for kind in ("vector", "operator"):
            for dim in (1, 2):
                for pieces in (1, 7, 40):
                    for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)):
                        f = _random_function(rng, kind, dim, pieces, a, b)
                        for region in self.regions(rng, f):
                            got, want = f.sup_norm(region), _sup_norm_reference(f, region)
                            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_constant_pieces(self, rng):
        """Constant pieces (one coefficient) take their norms in one pass;
        mixed with non-constant ones, padded constants and break
        functions, the supremum is the per-piece walk's."""
        for kind in ("vector", "operator"):
            for dim in (1, 3):
                vshape = (dim,) if kind == "vector" else (dim, dim)
                for a, b in ((0.0, 1.0), (-3.5, -1.25)):
                    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, 15), [b]]))
                    coeffs = [rng.uniform(-1, 1, (int(rng.choice([1, 1, 3])),) + vshape)
                              for _ in grid[1:]]
                    coeffs[0] = np.concatenate([coeffs[0][:1], np.zeros((2,) + vshape)])
                    mixed = PiecewiseFunction(grid, coeffs,
                                              rng.uniform(-1, 1, (grid.size,) + vshape))
                    fb = jordan_decompose(mixed)[1]
                    for f in (mixed, fb):
                        for region in self.regions(rng, f):
                            got, want = f.sup_norm(region), _sup_norm_reference(f, region)
                            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_spans_match_the_clipped_pieces(self, rng):
        """``_spans`` gives, part by part, the pieces meeting each part's
        interior and their overlaps, as clipping every piece finds them;
        a point meets none."""
        f = _random_function(rng, "vector", 1, 40, -3.5, -1.25)
        pts = np.concatenate([f.grid, rng.uniform(f.a, f.b, 30)])
        for _ in range(60):
            ends = np.sort(rng.choice(pts, (int(rng.integers(1, 4)), 2)), axis=1)
            want = [(k, j, max(u, c), min(v, d)) for k, (c, d) in enumerate(ends.tolist())
                    for j, (u, v, _) in enumerate(f.piece_spans()) if min(v, d) > max(u, c)]
            pieces, part, lo, hi = f._spans(ends[:, 0], ends[:, 1])
            assert list(zip(part.tolist(), pieces.tolist(), lo.tolist(), hi.tolist())) == want


class TestLincomb:
    def test_ramps_sum_to_constant(self, ramp):
        anti = polynomial((0.0, 1.0), [1.0, -1.0])
        s = lincomb(1.0, ramp, 1.0, anti)
        ts = np.linspace(0, 1, 33)
        assert np.max(np.abs(s.eval_many(ts) - 1.0)) == 0.0

    def test_identity_combination(self, ramp, rng):
        f2 = corpus.random_piecewise(rng, "vector", 1)
        s = lincomb(0.0, f2, 1.0, ramp)
        ts = np.linspace(0, 1, 33)
        assert np.array_equal(s.eval_many(ts), ramp.eval_many(ts))

    def test_step_combination(self):
        f1 = step((0.0, 1.0), Interval(0.0, 0. + 0.5, True, False), 1.0)
        f2 = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        s = lincomb(2.0, f1, 3.0, f2)
        assert s(0.25)[0] == 2.0 and s(0.5)[0] == 3.0 and s(0.75)[0] == 3.0
        (rec,) = s.jumps()
        assert rec.t == 0.5 and rec.jump_minus[0] == 1.0

    def test_operators_are_lincomb(self, rng):
        """``f + g`` and ``f - g`` are ``lincomb`` with weights 1 and +-1,
        byte for byte."""
        for _ in range(10):
            f = corpus.random_piecewise(rng, "vector", 2)
            g = corpus.random_piecewise(rng, "vector", 2)
            for got, want in ((f + g, lincomb(1.0, f, 1.0, g)),
                              (f - g, lincomb(1.0, f, -1.0, g))):
                for x, y in ((got.grid, want.grid), (got.nodes, want.nodes),
                             (got._block, want._block)):
                    assert x.tobytes() == y.tobytes()

    def test_mismatches_rejected(self, ramp):
        from kstieltjes import DimensionMismatchError, scaled_identity
        with pytest.raises(DimensionMismatchError):
            lincomb(1.0, ramp, 1.0, polynomial((0.0, 2.0), [0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            lincomb(1.0, ramp, 1.0, scaled_identity((0.0, 1.0), [1.0], dim=1))


class TestDegreeCap:
    def test_cap_liftable(self):
        """There is no degree cap: any piece degree is accepted."""
        c = np.zeros((12, 1))
        c[11, 0] = 1.0
        f = polynomial((0.0, 1.0), c)
        assert f(0.5)[0] == 0.5**11
        g = PiecewiseFunction([0.0, 1.0], [np.zeros((12, 1)) + 1.0], [[0.0], [0.0]])
        assert g.limit_left(1.0)[0] == 12.0


def _same_columns(f, ref):
    """Grid, node values, block, piece lengths and patterns byte for byte."""
    for name in ("grid", "nodes", "_block", "_lens", "_pattern"):
        got, want = getattr(f, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestStepIsConstantRestricted:
    """``step`` builds in one constructor call what
    ``constant(domain, value).restrict(region)`` gives, byte for byte."""

    @staticmethod
    def region(rng, a, b):
        points = np.concatenate([[a, b], a + (b - a) * np.arange(1, 4) / 4.0,
                                 rng.uniform(a, b, 3)])
        parts = []
        for _ in range(int(rng.integers(1, 5))):
            lo, hi = np.sort(rng.choice(points, 2))
            if lo == hi or rng.random() < 0.15:
                parts.append(Interval.at(float(lo)))
            else:
                parts.append(Interval(float(lo), float(hi), bool(rng.random() < 0.5),
                                      bool(rng.random() < 0.5)))
        return ElementarySet.of(*parts) if rng.random() < 0.8 else parts[0]

    def test_random_regions(self, rng):
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0), (-1.0, 0.0)):
            for _ in range(60):
                dim = int(rng.integers(1, 4))
                shape = [(), (dim,), (dim, dim)][int(rng.integers(3))]
                value = np.where(rng.random(shape) < 0.3, -0.0, rng.uniform(-2, 2, shape))
                region = self.region(rng, a, b)
                _same_columns(step((a, b), region, value),
                              constant((a, b), value).restrict(region))

    def test_whole_domain_and_ends(self):
        for region in (Interval.closed(0.0, 1.0), Interval.open(0.0, 1.0), Interval.at(0.0),
                       Interval.at(1.0), ElementarySet.of(), Interval(0.0, 0.5, False, True)):
            for value in (1.0, -0.0, [0.0, -0.0], [[1.0, -0.0], [0.0, 2.0]]):
                _same_columns(step((0.0, 1.0), region, value),
                              constant((0.0, 1.0), value).restrict(region))

    def test_signed_zero_ends(self):
        """Regions of 8 to 12 parts on ``(-1, 1)`` with an end on ``0.0``
        and one on ``-0.0``: past 16 points the sort behind ``np.unique``
        does not keep the first of equal zeros, and ``step`` keeps the
        zero it keeps."""
        rng = np.random.default_rng(20)
        ticks = np.linspace(-1.0, 1.0, 81)
        for _ in range(60):
            count = int(rng.integers(8, 13))
            below = int(rng.integers(1, count))  # the parts below zero, one ending on it
            left = np.sort(rng.choice(ticks[1:40], 2 * below - 1, False))
            right = np.sort(rng.choice(ticks[41:80], 2 * (count - below) - 1, False))
            zeros = [0.0, -0.0] if rng.random() < 0.5 else [-0.0, 0.0]
            ends = np.concatenate([left, zeros, right]).reshape(-1, 2)
            # the parts either side of zero leave it out, so they stay apart
            parts = tuple(Interval(float(lo), float(hi), bool(lo != 0.0 and rng.random() < 0.5),
                                   bool(hi != 0.0 and rng.random() < 0.5)) for lo, hi in ends)
            region = ElementarySet(parts)
            value = float(rng.choice([1.0, -0.0, -2.5]))
            _same_columns(step((-1.0, 1.0), region, value),
                          constant((-1.0, 1.0), value).restrict(region))

    def test_errors_as_constant_then_restrict(self):
        """The value is checked before the region, as ``constant`` runs
        before ``restrict``."""
        outside = Interval.closed(-1.0, 0.5)
        for value, region in ((1.0, outside), (np.nan, outside), (np.nan, Interval.at(0.5)),
                              (np.ones((2, 3)), outside)):
            raised = []
            for build in (step, lambda d, r, v: constant(d, v).restrict(r)):
                with pytest.raises((DomainError, ValueError)) as caught:
                    build((0.0, 1.0), region, value)
                raised.append((type(caught.value), str(caught.value)))
            assert raised[0] == raised[1]
