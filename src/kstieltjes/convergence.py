"""Bounded-convergence experiment harness.

The bounded convergence theorem says: if the integrator has bounded
variation, the integrands ``g_n`` converge pointwise to ``g`` and are
uniformly bounded in the sup norm, then the integrals converge to the
integral of the limit.  The harness realises concrete sequences, verifies
the two hypotheses as far as finite data allows, computes every integral
through the closed-form engine and reports the error curve.  The limit and
all realised members are integrated in one kernel pass, each with the bits
of an integral of its own.

Built-in families:

``power``
    ``g_n(t) = t**n`` on ``[0, 1]``,
    converging pointwise to the indicator of ``{1}`` with bound 1.  The
    canonical non-uniform example: against the integrator ``t * I`` the
    errors are exactly ``1 / (n + 1)``.
``spike``
    ``g_n = K χ_{[c, c + 1/n]}`` (clipped to the domain), converging to
    ``K χ_{[c]}`` with bound ``K``.
``truncation``
    partial-jump truncations of a break function, converging to the break
    function itself; here the hypotheses hold exactly and the error
    reaches zero at finite ``n``.

Hypothesis checking is strict: a family whose realisation violates the
declared uniform bound is rejected with
:class:`~kstieltjes.errors.HypothesisViolationError` before any integral
is computed.  Pointwise convergence is checked on a fixed 210-point sample
grid (Chebyshev-distributed points plus every jump location involved) as a
necessary condition — finite data cannot prove it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import HypothesisViolationError
from ._poly import running_sum
from .integrate import _engine, check_pair, ks_dFg
from .intervals import Interval
from .piecewise import (PiecewiseFunction, break_truncate, jordan_decompose,
                        polynomial, step)

#: Size of the deterministic sample grid for the pointwise check.
SAMPLE_GRID_SIZE = 210


@dataclass(frozen=True)
class SequenceFamily:
    """A realisable sequence of integrands with a declared pointwise limit
    and uniform bound."""

    kind: str
    limit: PiecewiseFunction
    bound: float
    center: float | None = None
    height: float | None = None
    break_function: PiecewiseFunction | None = None
    jump_order: tuple[float, ...] | None = None
    members: tuple[PiecewiseFunction, ...] | None = None

    @classmethod
    def power(cls) -> "SequenceFamily":
        """``t**n`` on ``[0, 1]``; limit 0 on ``[0, 1)`` with value 1 at 1."""
        limit = step((0.0, 1.0), Interval.at(1.0), 1.0)
        return cls(kind="power", limit=limit, bound=1.0)

    @classmethod
    def spike(cls, domain, center: float, height: float) -> "SequenceFamily":
        """``height * χ_{[center, center + 1/n]}``, shrinking onto the point."""
        limit = step(domain, Interval.at(center), height)
        if not limit.domain.contains(center):
            raise ValueError("spike center must lie in the domain")
        return cls(kind="spike", limit=limit, bound=abs(height),
                   center=float(center), height=float(height))

    @classmethod
    def truncation(cls, break_function: PiecewiseFunction,
                   jump_order: Sequence[float] | None = None) -> "SequenceFamily":
        """Partial-sum truncations of a break function, in the given jump
        enumeration order (default: increasing location)."""
        rows = break_function._jump_rows()
        points = break_function.grid[rows].tolist()
        if jump_order is None:
            order = tuple(points)
        else:
            order = tuple(float(t) for t in jump_order)
            known = set(points)
            for t in order:
                if t not in known:
                    raise ValueError(f"{t} is not a jump of the break function")
        table = break_function._jump_table()
        # in record order from 0.0, as a loop over the records adds them
        bound = float(running_sum(table.norm_minus[rows] + table.norm_plus[rows]))
        # partial sums can round a hair above the exact tail bound
        bound = bound * (1.0 + 1e-12)
        return cls(kind="truncation", limit=break_function, bound=bound,
                   break_function=break_function, jump_order=order)

    @classmethod
    def custom(cls, members: Sequence[PiecewiseFunction],
               limit: PiecewiseFunction, bound: float) -> "SequenceFamily":
        """Explicit list of members; ``realize(family, n)`` returns the
        ``n``-th (1-based)."""
        return cls(kind="custom", limit=limit, bound=float(bound),
                   members=tuple(members))


def realize(family: SequenceFamily, n: int) -> PiecewiseFunction:
    """The concrete ``n``-th member of the family (an integer ``n >= 1``)."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
        raise ValueError("n must be a positive integer")
    if family.kind == "power":
        coeffs = np.zeros((n + 1, 1))
        coeffs[n, 0] = 1.0
        return polynomial((0.0, 1.0), coeffs)
    if family.kind == "spike":
        a, b = family.limit.a, family.limit.b
        hi = min(family.center + 1.0 / n, b)
        support = Interval.at(family.center) if hi == family.center \
            else Interval.closed(family.center, hi)
        return step((a, b), support, family.height)
    if family.kind == "truncation":
        kept = family.jump_order[:n]
        return break_truncate(family.break_function, kept)
    if family.kind == "custom":
        if n > len(family.members):
            raise ValueError(f"custom family has only {len(family.members)} members")
        return family.members[n - 1]
    raise ValueError(f"unknown family kind {family.kind!r}")


@dataclass(frozen=True)
class ConvergenceEntry:
    n: int
    integral: np.ndarray
    error: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n integrals and distances to the limit integral."""

    entries: tuple[ConvergenceEntry, ...]
    integral_limit: np.ndarray
    threshold: float
    passed: bool = field(default=False)

    @property
    def errors(self) -> list[float]:
        return [e.error for e in self.entries]


def _sample_grid(a: float, b: float, jump_points: Sequence[float]) -> np.ndarray:
    special = np.asarray(sorted(set(jump_points)), dtype=float)
    n_cheb = max(SAMPLE_GRID_SIZE - special.size, 2)
    theta = np.pi * np.arange(n_cheb) / (n_cheb - 1)
    cheb = a + (b - a) * 0.5 * (1.0 - np.cos(theta))
    return np.unique(np.concatenate([cheb, special]))


def _check_pointwise(realized: list[tuple[int, PiecewiseFunction]],
                     limit: PiecewiseFunction):
    """Necessary-condition check for pointwise convergence on the sample
    grid: at every sample point the error at the largest n must not exceed
    the error at the smallest n (or must already be negligible)."""
    jumps = limit.grid[limit._jump_rows()].tolist()
    for _, g in realized:
        jumps.extend(g.grid[g._jump_rows()].tolist())
    ts = _sample_grid(limit.a, limit.b, jumps)
    lim_vals = limit.eval_many(ts)
    first_err = np.max(np.abs(realized[0][1].eval_many(ts) - lim_vals), axis=0)
    final_err = np.max(np.abs(realized[-1][1].eval_many(ts) - lim_vals), axis=0)
    bad = (final_err > first_err + 1e-12) & (final_err > 1e-9)
    if np.any(bad):
        t = float(ts[np.argmax(bad)])
        raise HypothesisViolationError(
            f"no sign of pointwise convergence at sample point t={t}: "
            f"error grew from {float(first_err[np.argmax(bad)])} to "
            f"{float(final_err[np.argmax(bad)])}")


def run_bounded_convergence(F: PiecewiseFunction, family: SequenceFamily,
                            ns: Sequence[int], threshold: float) -> ConvergenceReport:
    """Integrate every family member against ``d[F]`` and compare with the
    integral of the limit.

    The uniform-bound and pointwise-convergence hypotheses are verified
    first; a violation raises :class:`HypothesisViolationError` before any
    integral is computed, since the theorem being exercised would not
    apply.  ``passed`` reflects the error at the largest ``n``.  Every
    entry of ``ns`` must be a positive ``int`` or ``np.integer`` (not a
    ``bool``), and ``threshold`` and the family's bound must be finite,
    or ``ValueError`` is raised.
    """
    check_pair(F, family.limit)
    ns = list(ns)
    # int() would truncate 1.5 to 1 and count True as 1
    if not ns or not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                         and n >= 1 for n in ns):
        raise ValueError(f"ns must be positive integers, got {ns!r}")
    ns = sorted(int(n) for n in ns)
    # a NaN or infinite bound or threshold makes its comparison vacuous
    for name, value in (("threshold", threshold), ("uniform bound", family.bound)):
        if not np.isfinite(value):
            raise ValueError(f"the {name} must be finite, got {value!r}")
    realized = [(n, realize(family, n)) for n in ns]
    for n, g_n in realized:
        actual = g_n.sup_norm()
        if actual > family.bound:
            raise HypothesisViolationError(
                f"member n={n} has sup norm {actual} above the declared "
                f"uniform bound {family.bound}")
    _check_pointwise(realized, family.limit)
    limit, *members = _engine(F, [family.limit] + [g_n for _, g_n in realized],
                              "dFg", [F.domain])
    integral_limit = limit.value
    values = [result.value for result in members]
    # row by row what sup_norm(value - integral_limit) gives: a max is exact
    errors = np.abs(np.stack(values) - integral_limit).max(axis=1).tolist()
    entries = [ConvergenceEntry(n, value, error)
               for (n, _), value, error in zip(realized, values, errors)]
    return ConvergenceReport(entries=tuple(entries),
                             integral_limit=integral_limit,
                             threshold=float(threshold),
                             passed=bool(entries[-1].error < threshold))


def verify_break_limit(F: PiecewiseFunction,
                       g: PiecewiseFunction) -> tuple[np.ndarray, np.ndarray]:
    """Integrate against the break part of ``F`` two ways.

    Returns the engine value of ``integral d[F_break] g`` next to the
    direct sum ``sum over discontinuities t of [F(t+) - F(t-)] g(t)``;
    the two must agree, which is the finite-scale content of the pure-jump
    integration lemma.
    """
    check_pair(F, g)
    _, f_break = jordan_decompose(F)
    engine_value = ks_dFg(f_break, g).value
    total = np.zeros(g.vshape)
    for rec in F.jumps():
        total = total + rec.jump_full @ g(rec.t)
    return engine_value, total
