import numpy as np
import pytest

import corpus
from kstieltjes import (DimensionMismatchError, DomainError, ElementarySet,
                        IntegralResult, Interval, PiecewiseFunction, constant,
                        estimate_bound, estimate_bound_elementary,
                        integral_over_elementary, integral_over_interval,
                        integral_over_point, ks_Fdg, ks_dFg, lincomb, polynomial,
                        saks_identity_report, scaled_identity, step, sup_norm)
from kstieltjes import _poly
from kstieltjes.integrate import _interval_result


def chi_op(lo=0.5, hi=1.0):
    return step((0.0, 1.0), Interval.closed(lo, hi), np.array([[1.0]]))


@pytest.fixture
def t_id():
    return scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)


@pytest.fixture
def t_vec():
    return polynomial((0.0, 1.0), [0.0, 1.0])


class TestEngine:
    def test_linear_integrator_constant_integrand(self):
        for dim in (1, 2, 3):
            F = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=dim)
            g = constant((0.0, 1.0), np.ones(dim))
            assert np.allclose(ks_dFg(F, g).value, np.ones(dim), atol=0, rtol=0)

    def test_pure_jump(self, t_vec):
        res = ks_dFg(chi_op(), t_vec)
        assert res.value[0] == 0.5
        assert res.continuous_contribution[0] == 0.0
        assert res.jump_contribution[0] == 0.5

    def test_polynomial_pair(self, t_vec):
        F = scaled_identity((0.0, 1.0), [0.0, 0.0, 1.0], dim=1)
        assert abs(ks_dFg(F, t_vec).value[0] - 2.0 / 3.0) < 1e-15

    def test_other_orientation(self, t_id, t_vec):
        identity = scaled_identity((0.0, 1.0), [1.0], dim=1)
        assert ks_Fdg(identity, t_vec).value[0] == 1.0
        chi_g = step((0.0, 1.0), Interval.closed(0.5, 1.0), 1.0)
        assert ks_Fdg(t_id, chi_g).value[0] == 0.5
        assert ks_Fdg(t_id, t_vec).value[0] == 0.5

    def test_mismatches(self, t_id, t_vec):
        with pytest.raises(DimensionMismatchError):
            ks_dFg(scaled_identity((0, 1), [1.0], dim=2), t_vec)
        with pytest.raises(DimensionMismatchError):
            ks_dFg(t_id, polynomial((0.0, 2.0), [0.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            ks_dFg(t_vec, t_vec)

    def test_split_invariant(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            r = ks_dFg(F, g)
            assert np.max(np.abs(r.value - r.continuous_contribution
                                 - r.jump_contribution)) < 1e-12


class TestPoint:
    def test_continuous_integrator_vanishes(self, t_id, t_vec, rng):
        for tau in rng.uniform(0, 1, size=10):
            assert integral_over_point(t_id, t_vec, tau)[0] == 0.0

    def test_interior_jump(self):
        g = polynomial((0.0, 1.0), [1.0, 1.0])
        assert integral_over_point(chi_op(), g, 0.5)[0] == 1.5

    def test_right_endpoint(self, t_vec):
        # F with a left jump of 2 at b: F = 0 then 2 at t=1; g(1) = 3
        F = step((0.0, 1.0), Interval.at(1.0), np.array([[2.0]]))
        g = constant((0.0, 1.0), 3.0)
        assert integral_over_point(F, g, 1.0)[0] == 6.0
        # must agree with the engine on the restricted integrand
        engine = ks_dFg(F, g.restrict(ElementarySet.of(Interval.at(1.0)))).value
        assert engine[0] == 6.0

    def test_outside(self, t_id, t_vec):
        with pytest.raises(DomainError):
            integral_over_point(t_id, t_vec, 1.5)


class TestInterval:
    def test_open_excludes_jump(self):
        one = constant((0.0, 1.0), 1.0)
        assert integral_over_interval(chi_op(), one, Interval.open(0.5, 1.0))[0] == 0.0

    def test_halfopen_includes_jump(self):
        one = constant((0.0, 1.0), 1.0)
        assert integral_over_interval(chi_op(), one, Interval(0.5, 1.0, True, False))[0] == 1.0

    def test_continuous_integrator_ignores_openness(self, t_id):
        one = constant((0.0, 1.0), 1.0)
        vals = [integral_over_interval(t_id, one, Interval(0.0, 1.0, lc, hc))[0]
                for lc in (True, False) for hc in (True, False)]
        assert vals == [1.0, 1.0, 1.0, 1.0]

    def test_equals_restrict_route(self, rng):
        patterns = [(True, True), (True, False), (False, True), (False, False)]
        for i in range(200):
            dim = int(rng.integers(1, 4))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if d - c < 1e-9:
                continue
            lc, hc = patterns[i % 4]
            interval = Interval(c, d, lc, hc)
            direct = integral_over_interval(F, g, interval)
            via_restrict = ks_dFg(F, g.restrict(ElementarySet.of(interval))).value
            assert np.max(np.abs(direct - via_restrict)) < 1e-10


class TestIntervalAtDomainEndpoints:
    @pytest.fixture
    def jump_at_a(self):
        """F(0) = 5 but F = 7 on (0, 1]: a right jump of 2 at a."""
        return ks_helper_jump_at_a()

    def test_open_at_a_removes_the_endpoint_jump(self, jump_at_a):
        g = constant((0.0, 1.0), 3.0)
        full = integral_over_interval(jump_at_a, g, Interval.closed(0.0, 0.6))
        open_at_a = integral_over_interval(jump_at_a, g, Interval(0.0, 0.6, False, True))
        assert full[0] == 6.0  # jump 2 times g(0) = 3
        assert open_at_a[0] == 0.0
        # both agree with the indicator route
        e = ElementarySet.of(Interval(0.0, 0.6, False, True))
        assert ks_dFg(jump_at_a, g.restrict(e)).value[0] == 0.0

    def test_point_at_a(self, jump_at_a):
        g = constant((0.0, 1.0), 3.0)
        assert integral_over_point(jump_at_a, g, 0.0)[0] == 6.0


def ks_helper_jump_at_a():
    import kstieltjes
    f = kstieltjes.constant((0.0, 1.0), np.array([[7.0]]))
    nodes = np.array(f.nodes)
    nodes[0] = np.array([[5.0]])
    return kstieltjes.PiecewiseFunction(f.grid, f.coeffs, nodes)


class TestElementary:
    def test_empty_and_zero(self, t_id, t_vec):
        assert integral_over_elementary(t_id, t_vec, ElementarySet.empty()).value[0] == 0.0
        zero = constant((0.0, 1.0), 0.0)
        e = ElementarySet.of(Interval.closed(0.25, 0.75))
        assert integral_over_elementary(t_id, zero, e).value[0] == 0.0

    def test_two_parts(self, t_id):
        one = constant((0.0, 1.0), 1.0)
        e = ElementarySet.of(Interval.closed(0.0, 0.25), Interval.closed(0.5, 0.75))
        assert integral_over_elementary(t_id, one, e).value[0] == 0.5

    def test_jump_captured_when_in_set(self, t_vec):
        e = ElementarySet.of(Interval.closed(0.0, 0.5))
        assert integral_over_elementary(chi_op(), t_vec, e).value[0] == 0.5

    def test_value_of_integrand_off_set_is_irrelevant(self, rng):
        """Functions agreeing on E integrate identically over E."""
        for _ in range(50):
            dim = int(rng.integers(1, 3))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            h = corpus.random_piecewise(rng, "vector", dim)
            e = corpus.random_elementary(rng)
            g_on_e = lincomb(1.0, g.restrict(e), 1.0,
                             h.restrict(ElementarySet.of(Interval.closed(0, 1)) - e))
            a_val = integral_over_elementary(F, g, e).value
            b_val = integral_over_elementary(F, g_on_e, e).value
            assert np.max(np.abs(a_val - b_val)) < 1e-10

    def test_linearity(self, rng):
        for _ in range(250):
            dim = int(rng.integers(1, 4))
            F = corpus.random_piecewise(rng, "operator", dim)
            g1 = corpus.random_piecewise(rng, "vector", dim)
            g2 = corpus.random_piecewise(rng, "vector", dim)
            c1, c2 = rng.uniform(-2, 2, size=2)
            e = corpus.random_elementary(rng)
            lhs = integral_over_elementary(F, lincomb(c1, g1, c2, g2), e).value
            rhs = (c1 * integral_over_elementary(F, g1, e).value
                   + c2 * integral_over_elementary(F, g2, e).value)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_linearity_in_the_integrator(self, rng):
        for _ in range(250):
            dim = int(rng.integers(1, 4))
            F1 = corpus.random_piecewise(rng, "operator", dim)
            F2 = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            c1, c2 = rng.uniform(-2, 2, size=2)
            e = corpus.random_elementary(rng)
            lhs = integral_over_elementary(lincomb(c1, F1, c2, F2), g, e).value
            rhs = (c1 * integral_over_elementary(F1, g, e).value
                   + c2 * integral_over_elementary(F2, g, e).value)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_additivity_disjoint(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            p = np.sort(rng.uniform(0, 1, size=4))
            e1 = ElementarySet.of(Interval(p[0], p[1], True, False))
            e2 = ElementarySet.of(Interval(p[2], p[3], False, True))
            lhs = integral_over_elementary(F, g, e1 | e2).value
            rhs = (integral_over_elementary(F, g, e1).value
                   + integral_over_elementary(F, g, e2).value)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_inclusion_exclusion(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            e1 = corpus.random_elementary(rng)
            e2 = corpus.random_elementary(rng)
            lhs = integral_over_elementary(F, g, e1 | e2).value
            rhs = (integral_over_elementary(F, g, e1).value
                   + integral_over_elementary(F, g, e2).value
                   - integral_over_elementary(F, g, e1 & e2).value)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_subset_closure(self, rng):
        for _ in range(60):
            F = corpus.random_piecewise(rng, "operator", 1)
            g = corpus.random_piecewise(rng, "vector", 1)
            e = corpus.random_elementary(rng)
            t = corpus.random_elementary(rng) & e
            assert t.issubset(e)
            integral_over_elementary(F, g, t)  # must evaluate without error


class TestEstimates:
    def test_continuous_case(self, t_id):
        one = constant((0.0, 1.0), 1.0)
        assert estimate_bound(t_id, one, Interval.open(0.0, 1.0)) == 1.0

    def test_jump_case(self):
        g = polynomial((0.0, 1.0), [1.0, 1.0])
        got = estimate_bound(chi_op(), g, Interval(0.5, 1.0, True, False))
        assert got == 1.5  # var over [1/2,1) is 0; the closed end adds 1 * |g(1/2)|

    def test_elementary_bound(self, t_id):
        one = constant((0.0, 1.0), 1.0)
        e = ElementarySet.of(Interval.closed(0.0, 0.25), Interval.closed(0.5, 0.75))
        assert estimate_bound_elementary(t_id, one, e) == 0.5

    def test_never_violated_random(self, rng):
        patterns = [(True, True), (True, False), (False, True), (False, False)]
        for i in range(300):
            dim = int(rng.integers(1, 4))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if d - c < 1e-9:
                continue
            lc, hc = patterns[i % 4]
            interval = Interval(c, d, lc, hc)
            value = integral_over_interval(F, g, interval)
            assert sup_norm(value) <= estimate_bound(F, g, interval) + 1e-10

    def test_elementary_bound_continuous_random(self, rng):
        for _ in range(150):
            dim = int(rng.integers(1, 3))
            F = corpus.random_continuous(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            e = corpus.random_elementary(rng)
            value = integral_over_elementary(F, g, e).value
            assert sup_norm(value) <= estimate_bound_elementary(F, g, e) + 1e-10


class TestSaks:
    def test_continuous(self, t_id, t_vec):
        r = saks_identity_report(t_id, t_vec, 0.25, 0.75)
        assert r.at_lower[0] == 0.0 and r.at_upper[0] == 0.0

    def test_left_jump(self):
        one = constant((0.0, 1.0), 1.0)
        r = saks_identity_report(chi_op(), one, 0.5, 1.0)
        assert r.at_lower[0] == 1.0
        assert r.at_upper[0] == 0.0  # convention at b

    def test_down_step(self):
        F = step((0.0, 1.0), Interval.closed(0.0, 0.5), np.array([[1.0]]))
        one = constant((0.0, 1.0), 1.0)
        r = saks_identity_report(F, one, 0.0, 0.5)
        assert r.at_lower[0] == 0.0  # convention at a
        assert r.at_upper[0] == -1.0

    def test_corrections_close_the_gap(self, rng):
        """integral over [c,d] = integral from c to d + the two reported
        corrections."""
        for _ in range(100):
            dim = int(rng.integers(1, 3))
            F = corpus.random_piecewise(rng, "operator", dim)
            g = corpus.random_piecewise(rng, "vector", dim)
            c, d = np.sort(rng.uniform(0, 1, size=2))
            if d - c < 1e-9:
                continue
            r = saks_identity_report(F, g, c, d)
            closed = integral_over_interval(F, g, Interval.closed(c, d))
            plain = ks_dFg(F.clip(c, d), g.clip(c, d)).value
            assert np.max(np.abs(closed - plain - r.at_lower - r.at_upper)) < 1e-10


# -- the per-piece engine that the block kernel replaced -------------------


def _ref_polyder(c):
    if c.shape[0] <= 1:
        return np.zeros((1,) + c.shape[1:])
    mult = np.arange(1, c.shape[0], dtype=float)
    return c[1:] * mult.reshape((-1,) + (1,) * (c.ndim - 1))


def _ref_defint(c, lo, hi):
    nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
    out = np.zeros(c.shape[1:])
    if nz.size == 0 or lo == hi:
        return out
    powers = nz + 1.0
    weights = (hi**powers - lo**powers) / powers
    for j, w in zip(nz, weights):
        out = out + c[j] * w
    return out


def _ref_matvec_conv(ca, cx):
    ka, kx = ca.shape[0], cx.shape[0]
    out = np.zeros((ka + kx - 1, cx.shape[1]))
    for i in range(ka):
        if not np.any(ca[i]):
            continue
        out[i:i + kx] += np.einsum('ij,dj->di', ca[i], cx)
    return out


def _ref_merged_pieces(f, g):
    grid = np.unique(np.concatenate([f.grid, g.grid]))
    mids = 0.5 * (grid[:-1] + grid[1:])
    for u, v, i, j in zip(grid[:-1].tolist(), grid[1:].tolist(),
                          f._pieces_of(mids).tolist(), g._pieces_of(mids).tolist()):
        yield u, v, f.coeffs[i], g.coeffs[j]


def _ref_ks(F, g, orientation):
    """The per-merged-piece loop and the per-record jump loop."""
    cont = np.zeros(g.vshape)
    for u, v, cF, cg in _ref_merged_pieces(F, g):
        if orientation == "dFg":
            prod = _ref_matvec_conv(_ref_polyder(cF), cg)
        else:
            prod = _ref_matvec_conv(cF, _ref_polyder(cg))
        cont = cont + _ref_defint(prod, u, v)
    jump = np.zeros(g.vshape)
    if orientation == "dFg":
        for rec in F.jumps():
            jump = jump + rec.jump_full @ g(rec.t)
    else:
        for rec in g.jumps():
            jump = jump + F(rec.t) @ rec.jump_full
    return IntegralResult(cont + jump, cont, jump)


def _ref_interval(F, g, interval):
    """The whole-domain loop on both functions clipped to the interval,
    plus the endpoint corrections."""
    if interval.is_degenerate:
        point_value = integral_over_point(F, g, interval.lo)
        return IntegralResult(point_value, np.zeros(g.vshape), point_value)
    c, d = interval.lo, interval.hi
    base = _ref_ks(F.clip(c, d), g.clip(c, d), "dFg")
    corr = np.zeros(g.vshape)
    if interval.lo_closed:
        corr = corr + F.jump_at(c).jump_minus @ g(c)
    else:
        corr = corr - F.jump_at(c).jump_plus @ g(c)
    if interval.hi_closed:
        corr = corr + F.jump_at(d).jump_plus @ g(d)
    else:
        corr = corr - F.jump_at(d).jump_minus @ g(d)
    jump = base.jump_contribution + corr
    return IntegralResult(base.continuous_contribution + jump, base.continuous_contribution, jump)


def _ref_elementary(F, g, region):
    result = IntegralResult(np.zeros(g.vshape), np.zeros(g.vshape), np.zeros(g.vshape))
    for part in region.parts:
        result = result + _ref_interval(F, g, part)
    return result


def _same_result(got, ref):
    for name in ("value", "continuous_contribution", "jump_contribution"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _engine_coeffs(rng, vshape, top):
    """Dense, sparse, zero, dyadic or high monomial coefficients with
    zeroed degrees and some -0.0 entries."""
    style = rng.integers(5)
    if style == 0:
        c = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 7)),) + vshape)
        c[rng.random(c.shape[0]) < 0.3] = 0.0
    elif style == 1:
        c = np.zeros((int(rng.integers(2, 14)),) + vshape)
        c[-1] = rng.uniform(-1.0, 1.0, size=vshape)
        c[int(rng.integers(0, c.shape[0]))] = rng.uniform(-1.0, 1.0, size=vshape)
    elif style == 2:
        c = np.zeros((int(rng.integers(1, 4)),) + vshape)
    elif style == 3:
        c = np.zeros((int(rng.integers(top // 2, top + 1)) + 1,) + vshape)
        c[-1] = rng.uniform(-1.0, 1.0, size=vshape)
    else:
        c = rng.integers(-8, 9, size=(int(rng.integers(1, 5)),) + vshape) / 8.0
    return np.where(rng.random(c.shape) < 0.1, -0.0, c)


def _engine_function(rng, kind, dim, a, b, pieces, top):
    """Ragged random pieces; each node random (a jump, also at ``a`` and
    ``b``) or a one-sided limit."""
    vshape = (dim,) if kind == "vector" else (dim, dim)
    grid = np.unique(np.concatenate([[a], rng.uniform(a, b, pieces - 1), [b]]))
    coeffs = [_engine_coeffs(rng, vshape, top) for _ in range(grid.size - 1)]
    nodes = rng.uniform(-1.0, 1.0, size=(grid.size,) + vshape)
    f = PiecewiseFunction(grid, coeffs, nodes)
    for k, t in enumerate(grid.tolist()):
        side = rng.integers(4)
        if side == 1 and k > 0:
            nodes[k] = f.limit_left(t)
        elif side == 2 and k < grid.size - 1:
            nodes[k] = f.limit_right(t)
    return PiecewiseFunction(grid, coeffs, nodes)


class TestEngineReference:
    """The block kernel gives the per-piece engine's bits: both
    orientations, every interval integral and elementary-set integral."""

    DOMAINS = ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0), (-7.25, -4.25),
               (1e4, 1e4 + 3.0), (0.5, 4.5))

    @classmethod
    def pairs(cls, rng):
        """Operator/vector pairs, dims 1-3, 1 to 60 pieces, on each domain;
        monomials up to degree 64 where the products' powers stay finite."""
        for a, b in cls.DOMAINS:
            top = 64 if max(abs(a), abs(b)) < 10.0 else 16
            for dim in (1, 2, 3):
                for pieces in (1, 2, int(rng.integers(3, 20)), 60):
                    yield (_engine_function(rng, "operator", dim, a, b, pieces, top),
                           _engine_function(rng, "vector", dim, a, b,
                                            int(rng.integers(1, 61)), top))

    def test_both_orientations(self, rng):
        for F, g in self.pairs(rng):
            _same_result(ks_dFg(F, g), _ref_ks(F, g, "dFg"))
            _same_result(ks_Fdg(F, g), _ref_ks(F, g, "Fdg"))

    def test_intervals(self, rng):
        """All four openness cases, with ends inside pieces, on either
        grid, at the domain ends, and degenerate."""
        for F, g in self.pairs(rng):
            a, b = F.a, F.b
            ends = [float(x) for x in rng.uniform(a, b, 2)] + [
                float(rng.choice(F.grid)), float(rng.choice(g.grid)), a, b]
            for _ in range(2):
                c, d = sorted(rng.choice(ends, 2, replace=False).tolist())
                for lc in (True, False):
                    for hc in (True, False):
                        if c == d and not (lc and hc):
                            continue
                        interval = Interval(c, d, lc, hc)
                        ref = _ref_interval(F, g, interval)
                        _same_result(_interval_result(F, g, interval), ref)
                        assert integral_over_interval(F, g, interval).tobytes() == ref.value.tobytes()

    def test_elementary(self, rng):
        for F, g in self.pairs(rng):
            pts = np.sort(rng.choice(np.concatenate(
                [F.grid, g.grid, rng.uniform(F.a, F.b, 6)]), 6, replace=False))
            parts = [Interval(float(pts[2 * k]), float(pts[2 * k + 1]),
                              bool(rng.random() < 0.5), bool(rng.random() < 0.5))
                     for k in range(3) if pts[2 * k] < pts[2 * k + 1]]
            region = ElementarySet.of(*parts, Interval.at(float(pts[2])))
            _same_result(integral_over_elementary(F, g, region), _ref_elementary(F, g, region))

    def test_jump_values_are_contiguous(self, rng):
        """A stacked matmul over a strided view of ``eval_many`` adds in
        another order than one ``@`` per jump point for dims 2 and 3: many
        jumps and dense values, both orientations."""
        for dim in (2, 3):
            for _ in range(20):
                F = _engine_function(rng, "operator", dim, 0.0, 1.0, 40, 8)
                g = _engine_function(rng, "vector", dim, 0.0, 1.0, 40, 8)
                _same_result(ks_dFg(F, g), _ref_ks(F, g, "dFg"))
                _same_result(ks_Fdg(F, g), _ref_ks(F, g, "Fdg"))

    def test_weights_take_an_array_of_powers(self, rng):
        """``u**2.0`` with a scalar exponent is ``u*u``, which is not
        ``u**powers`` bit for bit: the degree-1 and degree-2 weights of
        linear and quadratic products on many pieces."""
        for a, b in self.DOMAINS:
            grid = np.unique(np.concatenate([[a], rng.uniform(a, b, 199), [b]]))
            F = PiecewiseFunction(grid, [rng.uniform(-1, 1, (2, 1, 1)) for _ in grid[1:]],
                                  rng.uniform(-1, 1, (grid.size, 1, 1)))
            g = PiecewiseFunction(grid, [rng.uniform(-1, 1, (3, 1)) for _ in grid[1:]],
                                  rng.uniform(-1, 1, (grid.size, 1)))
            _same_result(ks_dFg(F, g), _ref_ks(F, g, "dFg"))
            _same_result(ks_Fdg(F, g), _ref_ks(F, g, "Fdg"))

    def test_sums_start_from_zero(self):
        """A lone -0.0 term sums to 0.0, as ``zeros + term`` does: a jump
        applied to -0.0 in either orientation, and -0.0 coefficients
        integrated."""
        negzero = PiecewiseFunction([0.0, 1.0], [[[-0.0]]], [[-0.0], [-0.0]])
        neg_op = scaled_identity((0.0, 1.0), [-0.0], dim=1)
        jump_op = PiecewiseFunction([0.0, 0.5, 1.0], [[[[0.0]]], [[[1.0]]]],
                                    [[[0.0]], [[0.0]], [[1.0]]])
        jump_vec = PiecewiseFunction([0.0, 0.5, 1.0], [[[0.0]], [[1.0]]],
                                     [[0.0], [0.0], [1.0]])
        for res, ref in ((ks_dFg(jump_op, negzero), _ref_ks(jump_op, negzero, "dFg")),
                         (ks_Fdg(neg_op, jump_vec), _ref_ks(neg_op, jump_vec, "Fdg"))):
            _same_result(res, ref)
            assert not np.signbit(res.jump_contribution).any()
        block = np.full((3, 2, 2), -0.0)
        assert _poly.defint(block, np.zeros(3), np.ones(3)).tobytes() == np.zeros((3, 2)).tobytes()
        assert _poly.defint(block[0], 0.0, 1.0).tobytes() == _ref_defint(block[0], 0.0, 1.0).tobytes()

    def test_stacked_defint_is_rowwise(self, rng):
        """``defint`` of a stack gives every row the bits of the scalar
        loop over that row alone: ragged, sparse, zero and high-degree rows
        with -0.0 entries, on each domain."""
        for a, b in self.DOMAINS:
            for vshape in ((1,), (3,), (2, 2)):
                rows = [_engine_coeffs(rng, vshape, 16) for _ in range(30)]
                block = np.zeros((30, max(map(len, rows))) + vshape)
                for i, c in enumerate(rows):
                    block[i, :len(c)] = c
                pts = np.sort(rng.uniform(a, b, 31))
                stacked = _poly.defint(block, pts[:-1], pts[1:])
                for i, c in enumerate(rows):
                    assert stacked[i].tobytes() == _poly.defint(c, pts[i], pts[i + 1]).tobytes()

    def test_pair_checked_for_every_range(self):
        """The kernel checks the pair whatever the range: an interval
        integral over functions on different domains is refused, as the
        point integral and the whole-domain integral are."""
        F = scaled_identity((0.0, 1.0), [0.0, 1.0])
        g = polynomial((0.0, 2.0), [0.0, 1.0])
        for interval in (Interval.closed(0.2, 0.5), Interval.at(0.5)):
            with pytest.raises(DimensionMismatchError):
                integral_over_interval(F, g, interval)

    def test_padded_degrees_do_not_overflow(self):
        """A degree-60 piece pads the block, so the linear piece reaching
        1e6 has degrees whose powers overflow; they must get weight 0, not
        ``0 * inf``."""
        F = PiecewiseFunction([0.0, 1.0, 1e6],
                              [np.eye(61)[60][:, None, None], [[[0.0]], [[1.0]]]],
                              [[[0.0]], [[1.0]], [[1e6 + 1.0]]])
        g = PiecewiseFunction([0.0, 1.0, 1e6],
                              [np.eye(61)[60][:, None], [[2.0], [-1.0]]],
                              [[0.0], [1.0], [-1e6]])
        for res, ref in ((ks_dFg(F, g), _ref_ks(F, g, "dFg")),
                         (ks_Fdg(F, g), _ref_ks(F, g, "Fdg")),
                         (_interval_result(F, g, Interval(0.5, 2e5, False, True)),
                          _ref_interval(F, g, Interval(0.5, 2e5, False, True)))):
            assert np.isfinite(res.value).all()
            _same_result(res, ref)
