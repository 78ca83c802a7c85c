"""Closed-form Kurzweil-Stieltjes integration for representable functions.

One kernel evaluates ``integral d[F] g`` and ``integral F d[g]`` over the
parts of an elementary set (one interval, or the domain) as whole-array
expressions.  The merged grid of ``F``, ``g`` and the part ends splits the
parts into pieces on which both functions are single polynomials:

* the continuous part is the exact integral over each piece of the
  product with the orientation's factor differentiated (``F'(t) g~(t)``
  or ``F~(t) g'(t)``; isolated node values do not matter against a
  continuous factor), one block expression for all pieces;
* the break part applies the jumps of the differentiated function to the
  other function's values, one stacked ``matmul``.  On a part from ``c``
  to ``d`` the kernel takes both jumps inside, the right jump at ``c`` and
  the left jump at ``d``; the closure rule then corrects each end: a
  closed end adds its outer jump and an open end takes away its inner
  one, so a point part gets its full jump.

Each part sums its pieces' terms in sequence from zero, its kernel's jump
terms likewise plus its two closure terms, and the parts add in order from
zero: the result equals a loop over the parts and pieces bit for bit.  The
terms of a sequence of integrands are added apart, so a bounded-convergence
run integrates the limit and its members in one pass.  Both orientations
return vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _poly
from .errors import DimensionMismatchError, DomainError
from .intervals import ElementarySet, Interval
from .norms import norm_of
from .piecewise import PiecewiseFunction, _joined, _parts_table, _stacked
from .variation import var_elementary, var_interval


@dataclass(frozen=True)
class IntegralResult:
    """Integral value together with its continuous/jump split."""

    value: np.ndarray
    continuous_contribution: np.ndarray
    jump_contribution: np.ndarray

    def __add__(self, other: "IntegralResult") -> "IntegralResult":
        cont = self.continuous_contribution + other.continuous_contribution
        jump = self.jump_contribution + other.jump_contribution
        return IntegralResult(cont + jump, cont, jump)


@dataclass(frozen=True)
class SaksCorrections:
    """The two side corrections relating the integral over ``[c, d]`` to
    the integral from ``c`` to ``d``: the integrator's left jump at ``c``
    and right jump at ``d`` applied to the integrand there (no
    Lebesgue-Stieltjes integral is computed)."""

    at_lower: np.ndarray
    at_upper: np.ndarray


def check_pair(f_op: PiecewiseFunction, g_vec: PiecewiseFunction):
    """Validate an (operator, vector) pair sharing domain and dimension."""
    if f_op.kind != "operator":
        raise DimensionMismatchError("integrator/integrand in operator position must be operator valued")
    if g_vec.kind != "vector":
        raise DimensionMismatchError("function in vector position must be vector valued")
    if f_op.dim != g_vec.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f_op.dim} vs {g_vec.dim}")
    if f_op.a != g_vec.a or f_op.b != g_vec.b:
        raise DimensionMismatchError("functions live on different domains")


# The (left, right) jump weights of a part's three end terms, by its closure code
# ``lo_closed + 2 hi_closed`` (7 for a point): the kernel's at ``hi`` where the next
# part starts, then the closure rule's at ``lo`` and ``hi``.
_END_WEIGHTS = np.array([[[1, 0], [0, -1], [-1, 0]], [[1, 0], [1, 0], [-1, 0]],
                         [[1, 0], [0, -1], [0, 1]], [[1, 0], [1, 0], [0, 1]]]
                        + [[[0, 0]] * 3] * 3 + [[[0, 0], [1, 1], [0, 0]]], float).transpose(1, 0, 2)


def _closure_jumps(H: PiecewiseFunction, bounds: np.ndarray):
    """The jumps of ``H`` over the parts ``bounds`` (a ``_parts_table``), or
    ``None`` if none counts: their points and values, the number of kernel
    terms on each part and where the ``(3, parts)`` end terms are (``None``
    for none, as over the domain, where ``a`` and ``b`` have no outer
    jump).  Kernel
    terms come first, in grid order: on each part both jumps inside, ``0.0
    +`` the right jump at ``lo`` and the left jump ``+ 0.0`` at ``hi``,
    unless the next part starts at ``hi``: that one is an end term."""
    minus, plus, norm_minus, norm_plus = H._jump_table()
    lo, hi, lo_closed, hi_closed = bounds.T
    span = H._grid_slice(lo[0], hi[-1])
    t = H.grid[span]
    part = lo.searchsorted(t, "right") - 1  # the last part starting at or before t
    left, right = t > lo[part], t < hi[part]
    at = ((left & (t <= hi[part]) & (norm_minus[span] > 0.0))
          | (right & (norm_plus[span] > 0.0))).nonzero()[0]
    rows, live, axes = span.start + at, None, (-1,) + (1,) * len(H.vshape)
    jump = (np.where(left[at].reshape(axes), minus[rows], 0.0)
            + np.where(right[at].reshape(axes), plus[rows], 0.0))
    if not (lo.size == 1 and lo_closed[0] and hi_closed[0] and lo[0] == H.a and hi[0] == H.b):
        ends = H.grid.searchsorted(bounds[:, 1::-1].T)  # at hi, then lo
        on = H.grid[ends] == bounds[:, 1::-1].T
        live = np.zeros(3 * lo.size, dtype=bool)  # no end on the grid, no end term
        if on.any():
            ends, on = ends[[0, 1, 0]].ravel(), on[[0, 1, 0], :, np.newaxis]
            weights = _END_WEIGHTS[:, (lo_closed + 2 * hi_closed + 4 * (lo == hi)).astype(int)] * on
            weights[0] *= np.append(hi[:-1] == lo[1:], False)[:, np.newaxis]
            wl, wr = weights.reshape(-1, 2).T
            live = wl * norm_minus[ends] + wr * norm_plus[ends] != 0.0
            ends, wl, wr = ends[live], wl[live].reshape(axes), wr[live].reshape(axes)
            rows = np.concatenate([rows, ends])
            jump = np.concatenate([jump, np.where(wl, wl * minus[ends], 0.0)
                                   + np.where(wr, wr * plus[ends], 0.0)])
    return (H.grid[rows], jump, np.bincount(part[at], minlength=lo.size).tolist(), live
            ) if rows.size else None


def _engine(F: PiecewiseFunction, gs, orientation: str, parts) -> list[IntegralResult]:
    """``integral d[F] g`` (``"dFg"``) or ``integral F d[g]`` (``"Fdg"``)
    over the sorted disjoint intervals ``parts`` for every integrand ``g``
    of the sequence ``gs``, each bit for bit the loop over the parts and
    pieces (see the module docstring).  The merged pieces of every pair go
    through one block expression, their rows of ``g`` zero-padded to the
    longest; the integrator's jumps are shared by all integrands."""
    for g in gs:
        check_pair(F, g)
    n, vshape, P = len(gs), gs[0].vshape, len(parts)
    if not parts:
        return [IntegralResult(np.zeros(vshape), np.zeros(vshape), np.zeros(vshape)) for _ in gs]
    bounds = _parts_table(parts, F.a, F.b)
    cuts = bounds[:, :2].ravel()
    head = np.concatenate([cuts, F.grid[F._grid_slice(cuts[0], cuts[-1])]])
    los, his, mids, rows = [], [], [], []
    for g in gs:
        pts = np.concatenate([head, g.grid[g._grid_slice(cuts[0], cuts[-1])]])
        pts.sort()
        grid = pts[np.concatenate([[True], pts[1:] > pts[:-1]])]
        los.append(grid[:-1])
        his.append(grid[1:])
        mids.append(0.5 * (grid[:-1] + grid[1:]))
        rows.append(g._block[g._pieces_of(mids[-1])])
    counts = [len(lo) for lo in los]
    lo, hi, mids = _joined(los), _joined(his), _joined(mids)
    cg = _stacked(rows)
    if P > 1:  # drop the pieces between parts, group the rest by integrand and part
        slot = cuts.searchsorted(mids, "right") - 1
        inside = slot % 2 == 0
        group = (np.repeat(np.arange(n), counts) * P + slot // 2)[inside]
        lo, hi, mids, cg = lo[inside], hi[inside], mids[inside], cg[inside]
        counts = np.bincount(group, minlength=n * P)
    cF, dFg = F._block[F._pieces_of(mids)], orientation == "dFg"
    prod = (_poly.matvec_conv(_poly.polyder(cF, axis=1), cg) if dFg
            else _poly.matvec_conv(cF, _poly.polyder(cg, axis=1)))
    conts = _poly.running_sum(_poly.defint(prod, lo, hi), lengths=counts).reshape((n, P) + vshape)
    kernel, lengths, edge = [], [], None
    shared = _closure_jumps(F, bounds) if dFg else None
    for i, g in enumerate(gs):
        table = shared if dFg else _closure_jumps(g, bounds)
        if not table:
            lengths.append([0] * P)
            continue
        t, jump, counts, live = table
        # contiguous values: a stacked matmul over a strided view sums in
        # another order than one matmul per point
        vals = (g if dFg else F).eval_many(t)
        vals = np.ascontiguousarray(vals.transpose((-1,) + tuple(range(vals.ndim - 1))))
        terms = (jump @ vals[..., np.newaxis] if dFg else vals @ jump[..., np.newaxis])[..., 0]
        kernel.append(terms[:sum(counts)])
        lengths.append(counts)
        if live is not None:
            edge = np.zeros((n, 3 * P) + vshape) if edge is None else edge
            edge[i, live] = terms[sum(counts):]
    jumps = (_poly.running_sum(_joined(kernel), lengths=_joined(lengths)).reshape((n, P) + vshape)
             if kernel else np.zeros((n, P) + vshape))
    if edge is not None:  # each part's kernel sum, its end terms added last
        edge = edge.reshape((n, 3, P) + vshape)
        jumps = jumps + edge[:, 0] + ((0.0 + edge[:, 1]) + edge[:, 2])
    # the parts in order, both contributions side by side
    conts, jumps = (np.split(_poly.running_sum(np.concatenate([conts, jumps], -1), axis=1), 2, -1)
                    if P > 1 else (conts[:, 0], jumps[:, 0]))
    return list(map(IntegralResult, conts + jumps, conts, jumps))


def ks_dFg(F: PiecewiseFunction, g: PiecewiseFunction) -> IntegralResult:
    """``integral_a^b d[F] g`` for an operator integrator and vector
    integrand on a common domain."""
    return _engine(F, [g], "dFg", [F.domain])[0]


def ks_Fdg(F: PiecewiseFunction, g: PiecewiseFunction) -> IntegralResult:
    """``integral_a^b F d[g]``: the operator applied to the increments of
    ``g``.  Returns a vector like the other orientation."""
    return _engine(F, [g], "Fdg", [F.domain])[0]


def integral_over_point(F: PiecewiseFunction, g: PiecewiseFunction,
                        t: float) -> np.ndarray:
    """Integral of ``g`` against ``d[F]`` over the degenerate interval at
    ``t``: the full jump of ``F`` there (one-sided at the domain
    endpoints) applied to ``g(t)``."""
    check_pair(F, g)
    t = float(t)
    if t < F.a or t > F.b:
        raise DomainError(f"{t} outside the domain [{F.a}, {F.b}]")
    return F.jump_at(t).jump_full @ g(t)


def integral_over_interval(F: PiecewiseFunction, g: PiecewiseFunction,
                           interval: Interval) -> np.ndarray:
    """Integral of ``g`` against ``d[F]`` over an arbitrary subinterval:
    the kernel over it with its closure rule (see the module docstring),
    or :func:`integral_over_point` for a degenerate one.  Raises
    ``DimensionMismatchError`` for a mismatched pair, for every interval,
    before ``DomainError`` for an interval outside the domain."""
    if interval.is_degenerate:
        return integral_over_point(F, g, interval.lo)
    return _engine(F, [g], "dFg", [interval])[0].value


def integral_over_elementary(F: PiecewiseFunction, g: PiecewiseFunction,
                             region: ElementarySet) -> IntegralResult:
    """Integral over an elementary set: the sum of the interval integrals
    over its parts, in one kernel pass.  Raises ``DimensionMismatchError``
    for a mismatched pair before ``DomainError``, which names the first
    part outside the domain."""
    return _engine(F, [g], "dFg", region.parts)[0]


def estimate_bound(F: PiecewiseFunction, g: PiecewiseFunction,
                   interval: Interval) -> float:
    """A priori bound on ``||integral over the interval||``: the variation
    of ``F`` over it times the supremum of ``||g||`` there, plus
    ``||jump_minus of F at c|| ||g(c)||`` if the lower end is closed and
    ``||jump_plus of F at d|| ||g(d)||`` if the upper end is closed."""
    check_pair(F, g)  # var_interval refuses an interval outside the domain
    bound = var_interval(F, interval).total * g.sup_norm(interval)
    if interval.lo_closed:
        bound += F.jump_at(interval.lo).norm_minus * norm_of(g(interval.lo))
    if interval.hi_closed:
        bound += F.jump_at(interval.hi).norm_plus * norm_of(g(interval.hi))
    return bound


def estimate_bound_elementary(F: PiecewiseFunction, g: PiecewiseFunction,
                              region: ElementarySet) -> float:
    """Bound ``var(F, E) * sup_E ||g||`` for the elementary-set integral,
    valid when the integrator is continuous (its jumps would otherwise
    need the per-part endpoint corrections)."""
    check_pair(F, g)
    return var_elementary(F, region).total * g.sup_norm(region)


def saks_identity_report(F: PiecewiseFunction, g: PiecewiseFunction,
                         c: float, d: float) -> SaksCorrections:
    """Report the two endpoint corrections relating the integral over
    ``[c, d]`` to the integral from ``c`` to ``d``."""
    check_pair(F, g)
    c, d = float(c), float(d)
    if c < F.a or d > F.b or c > d:
        raise DomainError(f"[{c}, {d}] is not a subinterval of [{F.a}, {F.b}]")
    return SaksCorrections(at_lower=F.jump_at(c).jump_minus @ g(c),
                           at_upper=F.jump_at(d).jump_plus @ g(d))
