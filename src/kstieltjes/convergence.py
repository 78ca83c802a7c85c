"""Bounded-convergence experiment harness.

The bounded convergence theorem says: if the integrator has bounded
variation, the integrands ``g_n`` converge pointwise to ``g`` and are
uniformly bounded in the sup norm, then the integrals converge to the
integral of the limit.  The harness realises concrete sequences, verifies
the two hypotheses as far as finite data allows, computes every integral
through the closed-form engine and reports the error curve.  The members,
of the limit's domain and value shape, are one stack from end to end: built
together by the stacked builders behind ``step`` and ``break_truncate``,
their sup norms taken in one pass, their jump tables built in one
``polyval`` and, with the limit, their integrals computed in one kernel
pass, each with the bits of a member handled on its own.

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
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _poly
from .errors import HypothesisViolationError
from .integrate import _engine, check_pair, ks_dFg
from .intervals import Interval
from .piecewise import (PiecewiseFunction, _break_truncations, _Columns, _jump_tables,
                        _steps, _sup_norms, jordan_decompose, step)

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
        return cls(kind="spike", limit=limit, bound=abs(height),
                   center=float(center), height=float(height))

    @classmethod
    def truncation(cls, break_function: PiecewiseFunction,
                   jump_order: Sequence[float] | None = None) -> "SequenceFamily":
        """Partial-sum truncations of a break function, in the given jump
        enumeration order (default: increasing location)."""
        rows = break_function._jump_rows()
        points = break_function.grid[rows].tolist()
        order = tuple(points) if jump_order is None else tuple(map(float, jump_order))
        known = set(points)
        for t in order:
            if t not in known:
                raise ValueError(f"{t} is not a jump of the break function")
        table = break_function._jump_table()
        # in record order from 0.0, as a loop over the records adds them
        bound = float(_poly.running_sum(table.norm_minus[rows] + table.norm_plus[rows]))
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
    return _members(family, [int(n)])[0]


def _members(family: SequenceFamily, ns: list[int]) -> list[PiecewiseFunction]:
    """The members ``ns`` (sorted positive ints) of the family, built
    together: each one byte for byte what its public builder gives,
    ``polynomial``, ``step`` or ``break_truncate``, and handed to the
    constructor with its degree patterns."""
    if family.kind == "power":
        return _powers(ns)
    if family.kind == "spike":
        return _spikes(family, ns)
    if family.kind == "truncation":
        return _break_truncations(family.break_function, family.jump_order, ns)
    if family.kind == "custom":
        if ns[-1] > len(family.members):
            raise ValueError(f"custom family has only {len(family.members)} members")
        return [family.members[n - 1] for n in ns]
    raise ValueError(f"unknown family kind {family.kind!r}")


def _powers(ns: list[int]) -> list[PiecewiseFunction]:
    """``polynomial((0, 1), e_n)`` for every ``n``: one piece whose only
    nonzero coefficient is a 1 at degree ``n``, so its node values are
    exactly 0 and 1.  The blocks are consecutive slices of one buffer."""
    ends = np.cumsum([0] + [n + 1 for n in ns])
    buffer = np.zeros(ends[-1])
    buffer[ends[1:] - 1] = 1.0
    grid, nodes = np.array([0.0, 1.0]), np.array([[0.0], [1.0]])
    return [PiecewiseFunction(grid, _Columns(buffer[start:stop].reshape(1, -1, 1),
                                             np.array([n + 1]),
                                             np.array([[1, n, n]], dtype=np.intp)), nodes)
            for n, start, stop in zip(ns, ends[:-1].tolist(), ends[1:].tolist())]


def _spikes(family: SequenceFamily, ns: list[int]) -> list[PiecewiseFunction]:
    """``step(domain, [c, min(c + 1/n, b)], K)`` for every ``n`` (the point
    ``c`` where the interval collapses): one closed part per member, inside
    the domain as the limit's point ``c`` is."""
    his = np.minimum(family.center + 1.0 / np.array(ns, dtype=float), family.limit.b)
    parts = np.stack(np.broadcast_arrays(family.center, his, 1.0, 1.0), axis=1)
    return _steps(family.limit.a, family.limit.b, parts[:, np.newaxis],
                  np.atleast_1d(np.asarray(family.height, dtype=float)))


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


@lru_cache(maxsize=16)
def _chebyshev(a: float, b: float, n: int) -> np.ndarray:
    """``n`` Chebyshev points on ``[a, b]``, ends included; kept read-only."""
    cheb = a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))
    cheb.setflags(write=False)
    return cheb


def _sample_grid(a: float, b: float, jump_points: Sequence[float]) -> np.ndarray:
    special = np.asarray(sorted(set(jump_points)), dtype=float)
    cheb = _chebyshev(a, b, max(SAMPLE_GRID_SIZE - special.size, 2))
    return np.unique(np.concatenate([cheb, special]))


def _check_pointwise(members: list[PiecewiseFunction], limit: PiecewiseFunction):
    """Necessary-condition check for pointwise convergence on the sample
    grid: at every sample point the error at the largest n must not exceed
    the error at the smallest n (or must already be negligible).  The jump
    tables of the limit and every member are built in one stack."""
    fs = [limit] + members
    _jump_tables(fs)
    grids, minus, plus = (np.concatenate(columns) for columns in
                          zip(*((f.grid, f._table.norm_minus, f._table.norm_plus) for f in fs)))
    jumps = grids[(minus > 0.0) | (plus > 0.0)].tolist()
    ts = _sample_grid(limit.a, limit.b, jumps)
    lim_vals = limit.eval_many(ts)
    first_err = np.max(np.abs(members[0].eval_many(ts) - lim_vals), axis=0)
    final_err = np.max(np.abs(members[-1].eval_many(ts) - lim_vals), axis=0)
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
    or ``ValueError`` is raised.  A custom member unfit for ``F`` raises
    ``DimensionMismatchError`` before the hypothesis checks.
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
    members = _members(family, ns)
    if family.kind == "custom":  # built-in members share the limit's domain and shape
        for member in members:
            check_pair(F, member)
    for n, actual in zip(ns, _sup_norms(members)):
        if actual > family.bound:
            raise HypothesisViolationError(
                f"member n={n} has sup norm {actual} above the declared "
                f"uniform bound {family.bound}")
    _check_pointwise(members, family.limit)
    limit, *results = _engine(F, [family.limit] + members, "dFg", [F.domain])
    integral_limit = limit.value
    values = [result.value for result in results]
    # row by row what sup_norm(value - integral_limit) gives: a max is exact
    errors = np.abs(np.stack(values) - integral_limit).max(axis=1).tolist()
    entries = [ConvergenceEntry(n, value, error)
               for n, value, error in zip(ns, values, errors)]
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
    rows, table = F._jump_rows(), F._jump_table()
    # contiguous values, one matmul per jump as the engine's, added in turn
    vals = np.ascontiguousarray(g.eval_many(F.grid[rows]).T)[..., np.newaxis]
    return engine_value, _poly.running_sum(((table.minus[rows] + table.plus[rows]) @ vals)[..., 0])
