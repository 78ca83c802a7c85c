import numpy as np
import pytest

import corpus
from kstieltjes import (DomainError, ElementarySet, Interval,
                        PiecewiseFunction, contracting_variation, polynomial,
                        step, var_compact, var_elementary, var_interval)
from kstieltjes import _poly
from kstieltjes.norms import norm_of, row_norms


def hat():
    return PiecewiseFunction([0.0, 0.5, 1.0],
                             [np.array([[0.0], [2.0]]), np.array([[2.0], [-2.0]])],
                             [[0.0], [1.0], [0.0]])


def division_sum(f, points):
    """Independent oracle: the variation sum of a concrete division."""
    points = np.asarray(sorted(points), dtype=float)
    vals = f.eval_many(points)
    diffs = vals[..., 1:] - vals[..., :-1]
    return float(np.sum(np.max(np.abs(diffs.reshape(-1, diffs.shape[-1])), axis=0)))


def brute_force_var(f, c, d, depth=12):
    """Supremum over dyadic divisions of depth ``depth``.  Refining a
    division only increases the sum (triangle inequality), so the finest
    division realises the supremum over all of them."""
    points = np.unique(np.concatenate(
        [np.linspace(c, d, 2**depth + 1), f.grid[(f.grid >= c) & (f.grid <= d)]]))
    return division_sum(f, points)


class TestVarCompact:
    def test_monotone_ramp(self):
        f = polynomial((0, 1), [0.0, 1.0])
        assert var_compact(f, 0, 1).total == 1.0

    def test_indicator(self):
        f = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        r = var_compact(f, 0, 1)
        assert r.total == 1.0
        assert r.jump_contribution == 1.0
        assert r.continuous_contribution == 0.0

    def test_hat_against_brute_force(self):
        r = var_compact(hat(), 0, 1)
        assert r.total == 2.0  # frozen from the dyadic brute-force oracle
        assert abs(r.total - brute_force_var(hat(), 0.0, 1.0)) < 1e-12

    def test_degenerate(self):
        f = polynomial((0, 1), [0.0, 1.0])
        assert var_compact(f, 0.5, 0.5).total == 0.0

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            var_compact(polynomial((0, 1), [0.0, 1.0]), 0.0, 1.5)

    @pytest.mark.parametrize("c, d", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_end_is_outside_domain(self, c, d):
        """A NaN end fails every comparison, so it must not pass as a
        degenerate or in-range interval (a jump of 1 sits at 1/2)."""
        with pytest.raises(DomainError):
            var_compact(step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0), c, d)

    def test_against_brute_force_random(self, rng):
        for _ in range(25):
            f = corpus.random_piecewise(rng, "vector", 2, max_degree=3, max_jumps=0)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            got = var_compact(f, c, d).total
            # the brute force is a lower bound converging at O(2^-depth)
            bf = brute_force_var(f, c, d, depth=11)
            assert bf <= got + 1e-10
            assert got - bf < 2e-3

    def test_operator_norm_against_brute_force(self, rng):
        """Operator-valued variation (row-sum norm) with jumps against a
        dense division sum with straddling points around every grid point:
        the sum is a lower bound approaching the computed value."""
        for _ in range(25):
            f = corpus.random_piecewise(rng, "operator", int(rng.integers(1, 4)),
                                        max_jumps=3)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if d - c < 1e-3:
                continue
            got = var_compact(f, c, d).total
            extra = []
            for t in f.grid:
                if c <= t <= d:
                    extra.append(float(t))
                    for eps in (1e-7, 1e-9, 1e-11):
                        extra.extend(s for s in (t - eps, t + eps) if c <= s <= d)
            pts = np.unique(np.concatenate([np.linspace(c, d, 2**11 + 1), extra]))
            vals = f.eval_many(pts)
            norms = np.max(np.sum(np.abs(vals[..., 1:] - vals[..., :-1]), axis=1),
                           axis=0)
            brute = float(np.sum(norms))
            assert brute <= got + 1e-9
            assert got - brute < 5e-3

    def test_additivity(self, rng):
        for _ in range(500):
            kind = "operator" if rng.random() < 0.4 else "vector"
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)))
            c, d, e = np.sort(rng.uniform(0, 1, size=3))
            whole = var_compact(f, c, e).total
            split = var_compact(f, c, d).total + var_compact(f, d, e).total
            assert abs(whole - split) < 1e-10

    def test_break_function_variation_is_exact_jump_sum(self, rng):
        """For a pure break function the variation is exactly the summed
        jump norms (plus-then-minus accumulation order)."""
        from kstieltjes import norm_of
        for _ in range(50):
            f = corpus.dyadic_break_function(rng, "vector", 2)
            recs = f.jumps()
            plus = sum(norm_of(r.jump_plus) for r in recs if r.t < f.b)
            minus = sum(norm_of(r.jump_minus) for r in recs if r.t > f.a)
            r = var_compact(f, f.a, f.b)
            assert r.continuous_contribution == 0.0
            assert r.total == plus + minus


class TestVarInterval:
    def test_outside_the_domain_rejected(self):
        f = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        for interval in (Interval.closed(-0.5, 0.5), Interval(0.5, 1.5, False, True)):
            with pytest.raises(DomainError, match="is not inside"):
                var_interval(f, interval)

    def test_indicator_halfopen_excludes_jump(self):
        f = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        assert var_interval(f, Interval(0.0, 0.5, True, False)).total == 0.0
        # brute force with points strictly below 1/2 sees a constant
        pts = np.linspace(0.0, 0.5, 257)[:-1]
        assert division_sum(f, pts) == 0.0

    def test_relating_identity_at_jump(self):
        f = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        left_closed = var_interval(f, Interval.closed(0.0, 0.5)).total
        half_open = var_interval(f, Interval(0.0, 0.5, True, False)).total
        jump_minus = 1.0
        assert left_closed == 1.0
        assert left_closed == half_open + jump_minus

    def test_continuous_all_variants_agree(self):
        f = polynomial((0, 1), [0.0, 0.0, 1.0])
        values = {var_interval(f, Interval(0, 1, lc, hc)).total
                  for lc in (True, False) for hc in (True, False)}
        assert len({round(v, 12) for v in values}) == 1
        assert abs(values.pop() - 1.0) < 1e-12

    def test_relating_identities_random(self, rng):
        """All three openness-removal identities, 500 random functions."""
        from kstieltjes import norm_of
        for _ in range(500):
            kind = "operator" if rng.random() < 0.4 else "vector"
            f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)))
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if c == d:
                continue
            compact = var_compact(f, c, d).total
            jp_c = norm_of(f.limit_right(c) - f(c))
            jm_d = norm_of(f(d) - f.limit_left(d))
            assert abs(compact - var_interval(f, Interval(c, d, True, False)).total
                       - jm_d) < 1e-10
            assert abs(compact - var_interval(f, Interval(c, d, False, True)).total
                       - jp_c) < 1e-10
            assert abs(compact - var_interval(f, Interval.open(c, d)).total
                       - jp_c - jm_d) < 1e-10

    def test_monotone_in_the_interval(self, rng):
        for _ in range(200):
            f = corpus.random_piecewise(rng, "vector", 2)
            p = np.sort(rng.uniform(0, 1, size=4))
            inner = Interval(p[1], p[2], bool(rng.random() < 0.5), bool(rng.random() < 0.5))
            outer = Interval(p[0], p[3], True, True)
            assert (var_interval(f, inner).total
                    <= var_interval(f, outer).total + 1e-10)

    def test_sampled_divisions_stay_below(self, rng):
        """Any sampled generalized division of J gives a sum below the
        computed variation: the definition is a supremum."""
        for _ in range(200):
            f = corpus.random_piecewise(rng, "vector", 2)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if d - c < 1e-6:
                continue
            interval = Interval(c, d, bool(rng.random() < 0.5), bool(rng.random() < 0.5))
            pts = rng.uniform(c, d, size=40)
            pts = pts[[p in interval for p in pts]]
            if interval.lo_closed:
                pts = np.append(pts, c)
            if interval.hi_closed:
                pts = np.append(pts, d)
            if len(pts) < 2:
                continue
            assert division_sum(f, np.unique(pts)) <= var_interval(f, interval).total + 1e-10


class TestVarElementary:
    def test_empty_set(self):
        f = polynomial((0, 1), [0.0, 1.0])
        assert var_elementary(f, ElementarySet.empty()).total == 0.0

    def test_hat_two_parts(self):
        e = ElementarySet.of(Interval.closed(0, 0.25), Interval.closed(0.5, 0.75))
        r = var_elementary(hat(), e)
        assert abs(r.total - 1.0) < 1e-12
        assert abs(brute_force_var(hat(), 0.0, 0.25)
                   + brute_force_var(hat(), 0.5, 0.75) - r.total) < 1e-12

    def test_ramp_two_parts_bounded_by_whole(self):
        f = polynomial((0, 1), [0.0, 1.0])
        e = ElementarySet.of(Interval.closed(0, 0.25), Interval.closed(0.75, 1.0))
        r = var_elementary(f, e)
        assert abs(r.total - 0.5) < 1e-15
        assert r.total <= var_compact(f, 0, 1).total

    def test_finitely_additive_for_continuous(self, rng):
        for _ in range(120):
            f = corpus.random_continuous(rng, "vector", int(rng.integers(1, 3)))
            points = np.sort(rng.uniform(f.a, f.b, size=4))
            e1 = ElementarySet.of(Interval(points[0], points[1], True, False))
            e2 = ElementarySet.of(Interval(points[2], points[3], True, True))
            union = e1 | e2
            lhs = var_elementary(f, union).total
            rhs = var_elementary(f, e1).total + var_elementary(f, e2).total
            assert abs(lhs - rhs) < 1e-10
            assert lhs <= var_compact(f, f.a, f.b).total + 1e-10


class TestContracting:
    def test_ramp_shrinking_right(self):
        f = polynomial((0, 1), [0.0, 1.0])
        sets = [ElementarySet.of(Interval.open(0.0, 1.0 / n)) for n in range(1, 6)]
        vs = contracting_variation(f, sets)
        assert vs == [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_constant_all_zero(self):
        from kstieltjes import constant
        f = constant((0.0, 1.0), 3.0)
        sets = [ElementarySet.of(Interval.open(0.0, 1.0 / n)) for n in range(1, 5)]
        assert contracting_variation(f, sets) == [0.0, 0.0, 0.0, 0.0]

    def test_hat_pinched_at_peak(self):
        sets = [ElementarySet.of(Interval.closed(0.5 - 1 / (4 * n), 0.5 + 1 / (4 * n)))
                for n in range(1, 8)]
        vs = contracting_variation(hat(), sets)
        for n, v in enumerate(vs, start=1):
            assert abs(v - 1.0 / n) < 1e-12

    def test_rejects_jumpy_function(self):
        f = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        with pytest.raises(ValueError):
            contracting_variation(f, [ElementarySet.of(Interval.closed(0, 1))])

    def test_rejects_non_contracting(self):
        f = polynomial((0, 1), [0.0, 1.0])
        sets = [ElementarySet.of(Interval.closed(0.0, 0.25)),
                ElementarySet.of(Interval.closed(0.0, 0.5))]
        with pytest.raises(ValueError):
            contracting_variation(f, sets)


class TestVariationResultInvariant:
    def test_split_sums_to_total(self, rng):
        for _ in range(200):
            f = corpus.random_piecewise(rng, "operator", 2)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            r = var_compact(f, c, d)
            assert r.total >= 0.0
            assert r.continuous_contribution >= 0.0
            assert r.jump_contribution >= 0.0
            assert abs(r.total - r.continuous_contribution - r.jump_contribution) < 1e-12


# -- the closure rule at grid points, against the per-record references ------

def _ref_jump_part(f, c, d, include_lo, include_hi):
    """Jump norms summed record by record: ``jump_plus`` over ``[c, d)``
    or ``(c, d)``, ``jump_minus`` over ``(c, d]`` or ``(c, d)``."""
    plus = minus = 0.0
    for rec in f.jumps():
        if (c <= rec.t < d) if include_lo else (c < rec.t < d):
            plus += rec.norm_plus
        if (c < rec.t <= d) if include_hi else (c < rec.t < d):
            minus += rec.norm_minus
    return plus + minus


def _spans_within(f, c, d):
    """Each piece that meets ``(c, d)``, in grid order, with ``(lo, hi)``
    its overlap: one call per piece for the references below."""
    for u, v, coeffs in f.piece_spans():
        lo, hi = max(u, c), min(v, d)
        if hi > lo:
            yield lo, hi, coeffs


def _ref_var_interval(f, part):
    if part.is_degenerate:
        return [0.0, 0.0, 0.0]
    cont = 0.0
    for lo, hi, coeffs in _spans_within(f, part.lo, part.hi):
        cont += _poly.integral_of_norm(_poly.polyder(coeffs), lo, hi)
    jump = _ref_jump_part(f, part.lo, part.hi, part.lo_closed, part.hi_closed)
    return [cont + jump, cont, jump]


def _ref_sup_norm(f, region):
    """The node rows of each part found by two ``searchsorted`` calls with
    the sides its closures pick."""
    best = 0.0
    for part in region.parts:
        if part.is_degenerate:
            best = max(best, norm_of(f(part.lo)))
            continue
        k0 = np.searchsorted(f.grid, part.lo, "left" if part.lo_closed else "right")
        k1 = np.searchsorted(f.grid, part.hi, "right" if part.hi_closed else "left")
        if k1 > k0:
            best = max(best, float(np.max(row_norms(f.nodes[k0:k1]))))
        for lo, hi, c in _spans_within(f, part.lo, part.hi):
            best = max(best, _poly.sup_norm_on(c, lo, hi))
    return best


def _ref_clip(f, c, d):
    """The inner grid points found by a boolean mask."""
    keep = (f.grid > c) & (f.grid < d)
    grid = np.concatenate([[c], f.grid[keep], [d]])
    owner = f._pieces_of(0.5 * (grid[:-1] + grid[1:]))
    ends = np.moveaxis(f.eval_many([c, d]), -1, 0)
    return PiecewiseFunction(grid, [f.coeffs[j] for j in owner.tolist()],
                             np.concatenate([ends[:1], f.nodes[keep], ends[1:]]))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestClosureRuleAtGridPoints:
    """Parts whose ends are grid points, where each end's closure decides
    which one-sided jumps and node values count: every closure pattern,
    degenerate parts and parts ending at ``a`` or ``b``, bit for bit
    against the per-record loop and the two-``searchsorted`` rows."""

    def _functions(self, rng):
        for domain in ((0.0, 1.0), (-3.5, -1.25)):
            for kind in ("vector", "operator"):
                made = 0
                while made < 3:
                    f = corpus.random_piecewise(rng, kind, int(rng.integers(1, 4)), domain,
                                                max_pieces=5, max_jumps=6)
                    if f.jumps():
                        made += 1
                        yield f

    def _parts(self, f):
        ends = f.grid.tolist()
        for i, c in enumerate(ends):
            for d in ends[i:]:
                if c == d:
                    yield Interval.at(c)
                    continue
                for lo_closed in (True, False):
                    for hi_closed in (True, False):
                        yield Interval(c, d, lo_closed, hi_closed)

    def test_var_interval(self, rng):
        for f in self._functions(rng):
            for part in self._parts(f):
                r = var_interval(f, part)
                got = [r.total, r.continuous_contribution, r.jump_contribution]
                assert _bits(got) == _bits(_ref_var_interval(f, part)), part

    def test_sup_norm(self, rng):
        for f in self._functions(rng):
            parts = list(self._parts(f))
            for part in parts:
                assert _bits(f.sup_norm(part)) == _bits(_ref_sup_norm(f, ElementarySet.of(part)))
            for _ in range(10):
                i, j = rng.choice(len(parts), 2)
                region = ElementarySet.of(parts[i], parts[j])
                assert _bits(f.sup_norm(region)) == _bits(_ref_sup_norm(f, region))

    def test_clip(self, rng):
        for f in self._functions(rng):
            ends = f.grid.tolist()
            for i, c in enumerate(ends):
                for d in ends[i + 1:]:
                    got, ref = f.clip(c, d), _ref_clip(f, c, d)
                    assert _bits(got.grid) == _bits(ref.grid)
                    assert _bits(got.nodes) == _bits(ref.nodes)
                    assert all(_bits(p) == _bits(q) for p, q in zip(got.coeffs, ref.coeffs))
