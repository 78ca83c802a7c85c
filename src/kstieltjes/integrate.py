"""Closed-form Kurzweil-Stieltjes integration for representable functions.

One kernel evaluates ``integral d[F] g`` and ``integral F d[g]`` over
``[c, d]`` as whole-array expressions.  The merged grid of ``F`` and
``g``, cut to ``[c, d]``, splits it into pieces on which both functions
are single polynomials:

* the continuous part is the exact integral over each piece of the
  product with the orientation's factor differentiated (``F'(t) g~(t)``
  or ``F~(t) g'(t)``; isolated node values do not matter against a
  continuous factor), one block expression for all pieces;
* the break part applies each jump ``H(t+) - H(t-)`` of the
  differentiated function ``H`` to the other function's value there, one
  stacked ``matmul`` for all jumps; at ``c`` only the right jump counts
  and at ``d`` only the left one, so the full jump at ``a`` is the right
  jump and at ``b`` the left jump.

Each part adds its per-piece or per-jump terms in sequence from zero, so
the result equals a loop over the pieces bit for bit.  The kernel takes a
sequence of integrands against one integrator: the merged pieces of every
pair go through the one block expression, and each integrand's terms are
added apart, so a bounded-convergence run integrates the limit and all its
members in one pass, each with the bits of a call of its own.  Integrals over
arbitrary intervals add to the kernel over ``[c, d]`` the jump corrections
dictated by which endpoints the interval contains; integrals over
elementary sets sum those over the minimal decomposition.  Both routes —
corrections versus multiplying the integrand by the indicator and
integrating over the whole domain — agree, and the test suite checks the
equality.  Both orientations return vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _poly
from .errors import DimensionMismatchError, DomainError
from .intervals import ElementarySet, Interval
from .norms import norm_of
from .piecewise import PiecewiseFunction
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
    the integral from ``c`` to ``d``: the left jump of the integrator at
    ``c`` and its right jump at ``d``, each applied to the integrand value
    there.  Recorded for documentation; no Lebesgue-Stieltjes integral is
    computed."""

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


def _jumps_within(H: PiecewiseFunction, c: float, d: float):
    """The points where ``H`` clipped to ``[c, d]`` jumps, and its jump
    there from ``H``'s table: both sides inside, ``0.0 +`` the right jump
    at ``c`` and the left jump ``+ 0.0`` at ``d``; ``None`` if it has no
    jump."""
    minus, plus, norm_minus, norm_plus = H._jump_table()
    rows = H._grid_slice(c, d)
    t = H.grid[rows]
    left, right = t > c, t < d
    at = ((left & (norm_minus[rows] > 0.0)) | (right & (norm_plus[rows] > 0.0))).nonzero()[0]
    if not at.size:
        return None
    axes = (-1,) + (1,) * len(H.vshape)
    return t[at], (np.where(left[at].reshape(axes), minus[rows][at], 0.0)
                   + np.where(right[at].reshape(axes), plus[rows][at], 0.0))


def _joined(arrays: list) -> np.ndarray:
    """``np.concatenate(arrays)``, or the one array itself."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _engine(F: PiecewiseFunction, gs, orientation: str,
            c: float, d: float) -> list[IntegralResult]:
    """``integral d[F] g`` (``"dFg"``) or ``integral F d[g]`` (``"Fdg"``)
    from ``c`` to ``d`` for every integrand ``g`` of the sequence ``gs``,
    each bit for bit what the per-piece loop gives on ``F`` and ``g``
    clipped to ``[c, d]`` (see the module docstring).  The merged pieces of
    every pair go through one block expression, their rows of ``g``
    zero-padded to the longest."""
    for g in gs:
        check_pair(F, g)
    dFg = orientation == "dFg"
    head = np.concatenate([[c, d], F.grid[F._grid_slice(c, d)]])
    los, his, mids, rows = [], [], [], []
    for g in gs:
        pts = np.concatenate([head, g.grid[g._grid_slice(c, d)]])
        pts.sort()
        grid = pts[np.concatenate([[True], pts[1:] > pts[:-1]])]
        los.append(grid[:-1])
        his.append(grid[1:])
        mids.append(0.5 * (grid[:-1] + grid[1:]))
        rows.append(g._block[g._pieces_of(mids[-1])])
    counts = [len(lo) for lo in los]
    lo, hi, mids = _joined(los), _joined(his), _joined(mids)
    widths = [r.shape[1] for r in rows]
    if min(widths) == max(widths):
        cg = _joined(rows)
    else:
        cg = np.zeros((lo.size, max(widths)) + gs[0].vshape)
        for start, r in zip(np.cumsum([0] + counts).tolist(), rows):
            cg[start:start + len(r), :r.shape[1]] = r
    cF = F._block[F._pieces_of(mids)]
    if dFg:
        prod = _poly.matvec_conv(_poly.polyder(cF, axis=1), cg)
    else:
        prod = _poly.matvec_conv(cF, _poly.polyder(cg, axis=1))
    conts = _poly.running_sum(_poly.defint(prod, lo, hi), lengths=counts)
    jumps = np.zeros(conts.shape)
    shared = _jumps_within(F, c, d) if dFg else None
    for i, g in enumerate(gs):
        within = shared if dFg else _jumps_within(g, c, d)
        if within:
            t, full = within
            # contiguous values: a stacked matmul over a strided view sums in
            # another order than one matmul per point
            vals = np.ascontiguousarray(np.moveaxis((g if dFg else F).eval_many(t), -1, 0))
            terms = full @ vals[..., np.newaxis] if dFg else vals @ full[..., np.newaxis]
            jumps[i] = _poly.running_sum(terms[..., 0])
    return list(map(IntegralResult, conts + jumps, conts, jumps))


def ks_dFg(F: PiecewiseFunction, g: PiecewiseFunction) -> IntegralResult:
    """``integral_a^b d[F] g`` for an operator integrator and vector
    integrand on a common domain."""
    return _engine(F, [g], "dFg", F.a, F.b)[0]


def ks_Fdg(F: PiecewiseFunction, g: PiecewiseFunction) -> IntegralResult:
    """``integral_a^b F d[g]``: the operator applied to the increments of
    ``g``.  Returns a vector like the other orientation."""
    return _engine(F, [g], "Fdg", F.a, F.b)[0]


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


def _interval_result(F: PiecewiseFunction, g: PiecewiseFunction,
                     interval: Interval) -> IntegralResult:
    if interval.lo < F.a or interval.hi > F.b:
        raise DomainError(f"{interval} is not inside [{F.a}, {F.b}]")
    if interval.is_degenerate:
        point_value = integral_over_point(F, g, interval.lo)
        return IntegralResult(value=point_value,
                              continuous_contribution=np.zeros(g.vshape),
                              jump_contribution=point_value)
    c, d = interval.lo, interval.hi
    base = _engine(F, [g], "dFg", c, d)[0]
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
    return IntegralResult(base.continuous_contribution + jump,
                          base.continuous_contribution, jump)


def integral_over_interval(F: PiecewiseFunction, g: PiecewiseFunction,
                           interval: Interval) -> np.ndarray:
    """Integral of ``g`` against ``d[F]`` over an arbitrary subinterval.

    Computed as the plain integral from ``c`` to ``d`` (the kernel over
    ``[c, d]``) plus the jump corrections selected by the interval's
    openness: a closed lower end adds the left jump of ``F`` at ``c``
    applied to ``g(c)``, an open lower end subtracts the right jump there,
    and symmetrically at ``d``.  Equals integrating ``g`` times the
    interval's indicator over the whole domain.

    Raises ``DimensionMismatchError`` if ``F`` and ``g`` live on different
    domains, for every interval (API change: a non-degenerate interval
    used to be integrated on the functions clipped to it).
    """
    return _interval_result(F, g, interval).value


def integral_over_elementary(F: PiecewiseFunction, g: PiecewiseFunction,
                             region: ElementarySet) -> IntegralResult:
    """Integral over an elementary set: the sum of the interval integrals
    over the minimal decomposition."""
    check_pair(F, g)
    result = IntegralResult(np.zeros(g.vshape), np.zeros(g.vshape),
                            np.zeros(g.vshape))
    for part in region.parts:
        result = result + _interval_result(F, g, part)
    return result


def estimate_bound(F: PiecewiseFunction, g: PiecewiseFunction,
                   interval: Interval) -> float:
    """A priori bound on ``||integral over the interval||``.

    The bound is the variation of ``F`` over the interval times the
    supremum of ``||g||`` there, plus ``||jump_minus of F at c|| ||g(c)||``
    when the lower end is closed and ``||jump_plus of F at d|| ||g(d)||``
    when the upper end is closed.  Open ends contribute no correction.
    """
    check_pair(F, g)
    if interval.lo < F.a or interval.hi > F.b:
        raise DomainError(f"{interval} is not inside [{F.a}, {F.b}]")
    bound = var_interval(F, interval).total * g.sup_norm(interval)
    if interval.lo_closed:
        bound += F.jump_at(interval.lo).norm_minus * norm_of(g(interval.lo))
    if interval.hi_closed:
        bound += F.jump_at(interval.hi).norm_plus * norm_of(g(interval.hi))
    return bound


def estimate_bound_elementary(F: PiecewiseFunction, g: PiecewiseFunction,
                              region: ElementarySet) -> float:
    """Bound ``var(F, E) * sup_E ||g||`` for the elementary-set integral.

    Valid as an estimate when the integrator is continuous (its jumps
    would otherwise need the per-part endpoint corrections).
    """
    check_pair(F, g)
    if region.is_empty:
        return 0.0
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
