import dataclasses

import numpy as np
import pytest

import corpus
from kstieltjes import (HypothesisViolationError, Interval, SequenceFamily,
                        constant, lincomb, polynomial, realize,
                        run_bounded_convergence, scaled_identity, step,
                        verify_break_limit)


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

    def test_bad_inputs(self):
        fam = SequenceFamily.power()
        with pytest.raises(ValueError):
            realize(fam, 0)
        with pytest.raises(ValueError):
            SequenceFamily.spike((0.0, 1.0), 2.0, 1.0)

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
        real_engine = conv.ks_dFg
        monkeypatch.setattr(conv, "ks_dFg",
                            lambda *a, **k: calls.append(1) or real_engine(*a, **k))
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

    def test_random_break_functions(self, rng):
        for _ in range(60):
            dim = int(rng.integers(1, 4))
            F = corpus.random_break_function(rng, "operator", dim,
                                             n_jumps=int(rng.integers(1, 5)))
            g = corpus.random_piecewise(rng, "vector", dim)
            engine, total = verify_break_limit(F, g)
            assert np.max(np.abs(engine - total)) < 1e-12
