import dataclasses

import numpy as np
import pytest

import corpus
from kstieltjes import _poly
from kstieltjes import (DimensionMismatchError, DomainError, HypothesisViolationError,
                        Interval, PiecewiseFunction,
                        SequenceFamily, break_truncate, constant, ks_dFg, lincomb,
                        polynomial, realize, run_bounded_convergence, scaled_identity,
                        step, sup_norm, verify_break_limit)
from kstieltjes.convergence import _members
from kstieltjes.norms import norm_of
from kstieltjes.piecewise import _jump_tables


@pytest.fixture
def t_id():
    return scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)


def jumpy_integrator():
    """t * I plus jumps at 1/4 and 1/2 (and a left jump at 1)."""
    base = scaled_identity((0.0, 1.0), [0.0, 1.0], dim=1)
    s1 = step((0.0, 1.0), Interval.closed(0.25, 1.0), np.array([[0.5]]))
    s2 = step((0.0, 1.0), Interval.at(1.0), np.array([[2.0]]))
    return lincomb(1.0, lincomb(1.0, base, 1.0, s1), 1.0, s2)


class TestRealize:
    def test_power(self):
        g = realize(SequenceFamily.power(), 2)
        assert g(0.5)[0] == 0.25
        assert g(1.0)[0] == 1.0

    def test_spike(self):
        g = realize(SequenceFamily.spike((0.0, 1.0), 0.0, 1.0), 4)
        assert g(0.2)[0] == 1.0
        assert g(0.25)[0] == 1.0
        assert g(0.3)[0] == 0.0

    def test_truncation(self):
        fb = corpus.dyadic_break_function(np.random.default_rng(7), "vector", 1, n_jumps=3)
        fam = SequenceFamily.truncation(fb)
        g2 = realize(fam, 2)
        assert [r.t for r in g2.jumps()] == list(fam.jump_order[:2])

    def test_truncation_order_with_an_unknown_jump(self):
        fb = corpus.dyadic_break_function(np.random.default_rng(7), "vector", 1, n_jumps=3)
        points = [r.t for r in fb.jumps()]
        with pytest.raises(ValueError, match=r"^0\.3 is not a jump of the break function$"):
            SequenceFamily.truncation(fb, points[:1] + [0.3])

    def test_bad_inputs(self):
        fam = SequenceFamily.power()
        with pytest.raises(ValueError):
            realize(fam, 0)
        with pytest.raises(ValueError):
            SequenceFamily.spike((0.0, 1.0), 2.0, 1.0)

    def test_spike_center_outside_the_domain(self):
        """``step`` rejects the spike's point: a center off the domain with
        ``DomainError``, a non-finite one as an invalid interval."""
        for center in (2.0, -1e-300, np.nextafter(1.0, 2.0)):
            with pytest.raises(DomainError, match=r"is not inside \[0\.0, 1\.0\]"):
                SequenceFamily.spike((0.0, 1.0), center, 1.0)
        for center in (np.nan, np.inf):
            with pytest.raises(ValueError, match="interval endpoints must be finite"):
                SequenceFamily.spike((0.0, 1.0), center, 1.0)

    def test_bool_rejected(self):
        # as in run_bounded_convergence: True is no index, though an int subclass
        for fam in (SequenceFamily.power(), SequenceFamily.spike((0.0, 1.0), 0.0, 1.0)):
            for n in (True, False):
                with pytest.raises(ValueError, match="positive integer"):
                    realize(fam, n)


class TestRunBoundedConvergence:
    def test_power_against_ramp_closed_form(self, t_id):
        ns = [2**k for k in range(11)]
        report = run_bounded_convergence(t_id, SequenceFamily.power(), ns, 1e-3)
        for entry in report.entries:
            assert abs(entry.error - 1.0 / (entry.n + 1)) < 1e-12
        assert report.passed
        assert np.all(np.diff(report.errors) < 0)

    def test_pure_jump_integrator_sees_no_error(self):
        # integrator 0 on [0,1), 1 at t=1: every power integrates to 1
        F = step((0.0, 1.0), Interval.at(1.0), np.array([[1.0]]))
        report = run_bounded_convergence(F, SequenceFamily.power(), [1, 2, 4, 8], 1e-9)
        assert report.integral_limit[0] == 1.0
        for entry in report.entries:
            assert entry.integral[0] == 1.0 and entry.error == 0.0
        assert report.passed

    def test_spike_errors_shrink_like_1_over_n(self, t_id):
        fam = SequenceFamily.spike((0.0, 1.0), 0.0, 5.0)
        report = run_bounded_convergence(t_id, fam, [1, 2, 4, 8], 10.0)
        assert report.errors == [5.0, 2.5, 1.25, 0.625]
        assert report.integral_limit[0] == 0.0

    def test_truncation_reaches_zero(self, rng):
        F = jumpy_integrator()
        fb = corpus.dyadic_break_function(rng, "vector", 1, n_jumps=3)
        fam = SequenceFamily.truncation(fb)
        report = run_bounded_convergence(F, fam, [1, 2, 3], 1e-12)
        assert report.errors[-1] == 0.0
        assert report.passed

    @pytest.mark.parametrize("ns", [[1.5, 2], [True, 2], [np.float64(2.0)], [0, 1], []])
    def test_ns_must_be_positive_integers(self, t_id, ns):
        with pytest.raises(ValueError, match="positive integers"):
            run_bounded_convergence(t_id, SequenceFamily.power(), ns, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_or_threshold_rejected(self, t_id, bad):
        # `actual > nan` is always False: a NaN bound would pass any member
        power = SequenceFamily.power()
        members = [realize(power, n) for n in (1, 2, 4)]
        for family in (dataclasses.replace(power, bound=bad),
                       SequenceFamily.custom(members, power.limit, bound=bad)):
            with pytest.raises(ValueError, match="uniform bound must be finite"):
                run_bounded_convergence(t_id, family, [1, 2, 4], 0.5)
        with pytest.raises(ValueError, match="threshold must be finite"):
            run_bounded_convergence(t_id, power, [1, 2, 4], bad)

    def test_numpy_integer_ns_accepted(self, t_id):
        report = run_bounded_convergence(t_id, SequenceFamily.power(), np.array([2, 1]), 0.6)
        assert [entry.n for entry in report.entries] == [1, 2]
        assert report.errors == [0.5, 1.0 / 3.0]

    def test_bound_violation_rejected_before_integration(self, t_id, monkeypatch):
        spike = SequenceFamily.spike((0.0, 1.0), 0.0, 5.0)
        members = [realize(spike, n) for n in (1, 2, 3)]
        lying = SequenceFamily.custom(members, spike.limit, bound=1.0)
        calls = []
        import kstieltjes.convergence as conv
        for name in ("ks_dFg", "_engine"):
            real = getattr(conv, name)
            monkeypatch.setattr(conv, name,
                                lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(HypothesisViolationError):
            run_bounded_convergence(t_id, lying, [1, 2, 3], 1.0)
        assert calls == []  # rejected before any integral was computed

    def test_divergent_family_rejected(self, t_id):
        zero = constant((0.0, 1.0), 0.0)
        grow = step((0.0, 1.0), Interval.closed(0.25, 0.75), 1.0)
        fam = SequenceFamily.custom([zero, grow, grow], zero, bound=2.0)
        with pytest.raises(HypothesisViolationError):
            run_bounded_convergence(t_id, fam, [1, 2, 3], 1.0)

    def test_continuous_integrator_drives_integrals_to_zero(self, rng):
        """With a continuous integrator and integrands converging
        pointwise to zero, the integrals themselves vanish."""
        F = corpus.random_continuous(rng, "operator", 1)
        a, b = F.a, F.b
        zero = constant((a, b), 0.0)
        members = [step((a, b), Interval(a, a + (b - a) / (n + 1), False, True), 2.0)
                   for n in range(1, 40)]
        fam = SequenceFamily.custom(members, zero, bound=2.0)
        report = run_bounded_convergence(F, fam, [1, 10, 39], 1.0)
        assert report.errors[-1] < report.errors[0] + 1e-12
        assert report.integral_limit[0] == 0.0


def _per_member(F, family, ns):
    """The harness as a loop: one ``ks_dFg`` call per member and one for
    the limit."""
    limit = ks_dFg(F, family.limit).value
    values = [ks_dFg(F, realize(family, n)).value for n in sorted(ns)]
    return limit, values, [sup_norm(v - limit) for v in values]


class TestOneEnginePass:
    """All members and the limit are integrated in one engine pass, with
    the bits of a ``ks_dFg`` call per member."""

    def families(self, rng, dim, a, b):
        if dim == 1:
            yield SequenceFamily.spike((a, b), float(rng.uniform(a, b)), float(rng.uniform(-4, 4)))
            yield SequenceFamily.spike((a, b), a, 2.5)
            yield SequenceFamily.spike((a, b), b, -1.0)
            if (a, b) == (0.0, 1.0):
                yield SequenceFamily.power()
        fb = corpus.random_break_function(rng, "vector", dim, (a, b), n_jumps=5)
        yield SequenceFamily.truncation(fb)
        yield SequenceFamily.truncation(fb, rng.permutation([r.t for r in fb.jumps()]).tolist())
        limit = corpus.random_piecewise(rng, "vector", dim, domain=(a, b))
        bump = corpus.random_piecewise(rng, "vector", dim, domain=(a, b), max_degree=6)
        members = [lincomb(1.0, limit, 1.0 / n, bump) for n in range(1, 9)]
        scale = max(abs(a), abs(b)) ** -64.0  # a degree-64 member at most 1 in norm
        members[3] = lincomb(1.0, limit, 1.0 / 4, polynomial((a, b), np.eye(65)[64][:, None]
                                                             * np.full(dim, scale)))
        yield SequenceFamily.custom(members, limit, 1e3)

    def test_matches_a_per_member_loop(self, rng):
        runs = 0
        for a, b in ((0.0, 1.0), (-3.5, -1.25), (0.5, 1.5)):
            for dim in (1, 2, 3):
                for F in (corpus.random_piecewise(rng, "operator", dim, domain=(a, b)),
                          corpus.random_continuous(rng, "operator", dim, (a, b))):
                    for family in self.families(rng, dim, a, b):
                        n_max = len(family.jump_order) if family.kind == "truncation" else 8
                        ns = rng.choice(np.arange(1, n_max + 1), size=min(n_max, 4),
                                        replace=False).tolist()
                        try:
                            report = run_bounded_convergence(F, family, ns, 0.1)
                        except HypothesisViolationError:
                            continue
                        limit, values, errors = _per_member(F, family, ns)
                        assert report.integral_limit.tobytes() == limit.tobytes()
                        assert [e.integral.tobytes() for e in report.entries] == \
                            [v.tobytes() for v in values]
                        assert np.array(report.errors).tobytes() == np.array(errors).tobytes()
                        runs += 1
        assert runs >= 40

    def test_one_engine_call_per_run(self, t_id, monkeypatch):
        import kstieltjes.convergence as conv
        calls, real = [], conv._engine
        monkeypatch.setattr(conv, "_engine",
                            lambda F, gs, *a: calls.append(len(gs)) or real(F, gs, *a))
        run_bounded_convergence(t_id, SequenceFamily.power(), [1, 2, 4, 8, 16], 0.1)
        assert calls == [6]


def _same_columns(f, ref):
    """Grid, node values, block, piece lengths and patterns byte for byte."""
    for name in ("grid", "nodes", "_block", "_lens", "_pattern"):
        got, want = getattr(f, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert f._pattern.tobytes() == _poly.degree_patterns(f._block).tobytes()


def _truncated(fb, points):
    """``break_truncate`` as a loop: the kept jumps and the domain's ends
    make the grid, and the value runs over the steps in grid order."""
    points = [float(t) for t in points]
    grid = sorted({fb.a, fb.b} | set(points))
    jm, jp = np.zeros((len(grid),) + fb.vshape), np.zeros((len(grid),) + fb.vshape)
    for k, t in enumerate(grid):
        if t in points:
            rec = fb.jump_at(t)
            jm[k], jp[k] = rec.jump_minus, rec.jump_plus
    running, nodes, pieces = np.zeros(fb.vshape), [], []
    for k in range(len(grid)):
        running = running + jm[k]
        nodes.append(running)
        running = running + jp[k]
        pieces.append(running[np.newaxis])
    return PiecewiseFunction(grid, pieces[:-1], nodes)


class TestMemberStack:
    """A run realises its members together, takes their sup norms in one
    pass and builds their jump tables in one stack: each member is what
    its public builder gives, byte for byte."""

    def test_power_members_are_polynomials(self):
        ns = [1, 2, 3, 5, 17, 64, 200]
        for n, g in zip(ns, _members(SequenceFamily.power(), ns)):
            _same_columns(g, polynomial((0.0, 1.0), np.eye(n + 1)[n][:, np.newaxis]))
            _same_columns(realize(SequenceFamily.power(), n), g)

    def test_spike_members_are_steps(self, rng):
        ns = [1, 2, 3, 4, 7, 10, 64, 1000]
        cases = [((0.0, 1.0), 0.0, 5.0), ((0.0, 1.0), 1.0, -1.0), ((0.0, 1.0), 0.75, 2.5),
                 ((0.0, 1.0), -0.0, 1.0), ((-1.0, 0.0), -0.0, 2.0), ((-1.0, 0.0), -0.5, -0.0),
                 ((-3.5, -1.25), -3.5, 0.5), ((1e17, 1e17 + 1e3), 1e17 + 512.0, 3.0)]
        cases += [((a, b), float(rng.uniform(a, b)), float(rng.uniform(-4, 4)))
                  for a, b in ((0.0, 1.0), (-3.5, -1.25), (0.5, 1.5)) for _ in range(5)]
        for domain, c, height in cases:
            family = SequenceFamily.spike(domain, c, height)
            for n, g in zip(ns, _members(family, ns)):
                hi = min(c + 1.0 / n, domain[1])
                support = Interval.at(c) if hi == c else Interval.closed(c, hi)
                _same_columns(g, step(domain, support, height))
                _same_columns(realize(family, n), g)

    def test_truncation_members_are_break_truncations(self, rng):
        for a, b in ((0.0, 1.0), (-3.5, -1.25)):
            for dim in (1, 2):
                fb = corpus.random_break_function(rng, "vector", dim, (a, b), n_jumps=6)
                points = [r.t for r in fb.jumps()]
                for order in (points, rng.permutation(points).tolist(),
                              points[:2] + points[:3] + points[::-1]):
                    family = SequenceFamily.truncation(fb, order)
                    ns = sorted(set(rng.integers(1, len(order) + 3, size=4).tolist()))
                    for n, g in zip(ns, _members(family, ns)):
                        _same_columns(g, _truncated(fb, order[:n]))
                        _same_columns(break_truncate(fb, order[:n]), g)
                        _same_columns(realize(family, n), g)

    def test_jump_tables_match_the_one_sided_limits(self, rng):
        """Stacked tables of functions with -0.0 coefficients on negative
        domains hold the jumps taken from ``limit_left``/``limit_right``."""
        for a, b in ((-3.5, -1.25), (-1.0, 0.0), (0.0, 1.0)):
            for shape in ((1,), (2,), (2, 2)):
                fs = []
                for _ in range(5):
                    grid = np.unique(np.concatenate([[a, b], rng.uniform(a, b, 3)]))
                    coeffs = [corpus.random_coeffs(rng, shape) for _ in range(len(grid) - 1)]
                    nodes = np.where(rng.random((len(grid),) + shape) < 0.2, -0.0,
                                     rng.uniform(-1.0, 1.0, (len(grid),) + shape))
                    fs.append(PiecewiseFunction(grid, coeffs, nodes))
                _jump_tables(fs)
                for f in fs:
                    minus, plus, norm_minus, norm_plus = f._table
                    for k, t in enumerate(f.grid.tolist()):
                        want_minus = f.nodes[k] - f.limit_left(t) if k else np.zeros(shape)
                        want_plus = (f.limit_right(t) - f.nodes[k] if k < f.npieces
                                     else np.zeros(shape))
                        assert minus[k].tobytes() == want_minus.tobytes()
                        assert plus[k].tobytes() == want_plus.tobytes()
                        assert norm_minus[k] == norm_of(want_minus)
                        assert norm_plus[k] == norm_of(want_plus)

    def test_first_member_above_the_bound_is_reported(self, t_id, monkeypatch):
        """The 2nd and 4th members break the bound: the 2nd is reported,
        before the pointwise check or any integral."""
        import kstieltjes.convergence as conv
        ok, over = constant((0.0, 1.0), 1.0), step((0.0, 1.0), Interval.closed(0.5, 1.0), 3.0)
        family = SequenceFamily.custom([ok, over, ok, 2.0 * over], constant((0.0, 1.0), 1.0),
                                       bound=2.0)
        calls = []
        for name in ("_check_pointwise", "_engine"):
            monkeypatch.setattr(conv, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(HypothesisViolationError, match=r"member n=2 has sup norm 3\.0 "):
            run_bounded_convergence(t_id, family, [4, 3, 2, 1], 1.0)
        assert calls == []

    def test_custom_members_are_checked_first(self, t_id, monkeypatch):
        """A custom member off the limit's domain, or of another dimension,
        is refused as a mismatched pair before any hypothesis check."""
        import kstieltjes.convergence as conv
        limit = constant((0.0, 1.0), 0.0)
        calls = []
        for name in ("_sup_norms", "_check_pointwise", "_engine"):
            monkeypatch.setattr(conv, name, lambda *a, name=name: calls.append(name))
        for odd, message in ((constant((0.0, 2.0), 0.5), "different domains"),
                             (constant((0.0, 1.0), [0.5, 0.5]), "dimension mismatch: 1 vs 2")):
            family = SequenceFamily.custom([constant((0.0, 1.0), 1.0), odd], limit, bound=2.0)
            with pytest.raises(DimensionMismatchError, match=message):
                run_bounded_convergence(t_id, family, [1, 2], 1.0)
        assert calls == []

    def test_realize_errors_come_first(self, t_id):
        members = [constant((0.0, 1.0), 5.0)] * 2
        family = SequenceFamily.custom(members, constant((0.0, 1.0), 0.0), bound=1.0)
        with pytest.raises(ValueError, match="only 2 members"):
            run_bounded_convergence(t_id, family, [1, 2, 3], 1.0)


class TestVerifyBreakLimit:
    def test_continuous_gives_zero(self, rng):
        F = corpus.random_continuous(rng, "operator", 2)
        g = corpus.random_piecewise(rng, "vector", 2, domain=(F.a, F.b))
        engine, total = verify_break_limit(F, g)
        assert np.all(engine == 0.0) and np.all(total == 0.0)

    def test_two_jump_hand_sum(self):
        F = jumpy_integrator()
        # overwrite: jumps 0.5 at 1/4 and 2 at 1;  g(t) = t
        g = polynomial((0.0, 1.0), [0.0, 1.0])
        engine, total = verify_break_limit(F, g)
        expected = 0.5 * 0.25 + 2.0 * 1.0
        assert abs(total[0] - expected) < 1e-15
        assert np.max(np.abs(engine - total)) < 1e-12

    def test_zero_integrand(self):
        F = jumpy_integrator()
        g = constant((0.0, 1.0), 0.0)
        engine, total = verify_break_limit(F, g)
        assert engine[0] == 0.0 and total[0] == 0.0

    def test_matches_the_record_loop(self, rng):
        """The direct sum has the bits of a loop over the jump records,
        added in turn from zero."""
        for domain in ((0.0, 1.0), (-3.5, -1.25), (1e3, 1e3 + 2.0)):
            for _ in range(20):
                dim = int(rng.integers(1, 4))
                F = corpus.random_piecewise(rng, "operator", dim, domain=domain, max_pieces=8)
                g = corpus.random_piecewise(rng, "vector", dim, domain=domain)
                total = np.zeros(g.vshape)
                for rec in F.jumps():
                    total = total + rec.jump_full @ g(rec.t)
                assert verify_break_limit(F, g)[1].tobytes() == total.tobytes()

    def test_random_break_functions(self, rng):
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            F = corpus.random_break_function(rng, "operator", dim,
                                             n_jumps=int(rng.integers(1, 5)))
            g = corpus.random_piecewise(rng, "vector", dim)
            engine, total = verify_break_limit(F, g)
            assert np.max(np.abs(engine - total)) < 1e-12
