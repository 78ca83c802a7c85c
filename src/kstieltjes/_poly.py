"""Polynomial helpers with array-valued coefficients.

Coefficient layout throughout the library: ``c[j]`` multiplies ``t**j``,
so the leading axis of a coefficient array is the degree axis.  Trailing
axes carry the value shape: ``()`` for scalars, ``(n,)`` for vectors and
``(n, n)`` for operators.

Everything here is closed form: definite integrals go through the
antiderivative.  The norm of a polynomial's value (the max norm of a
vector, the max-row-sum norm of an operator) is piecewise polynomial, and
one kernel, ``_norm_pieces``, splits an interval at polynomial roots into
segments on each of which it is a single scalar polynomial.
``integral_of_norm`` and ``sup_norm_on`` are two reductions over those
segments: the sum of ``defint`` and the largest ``max_abs_scalar``.  The
only inexactness is floating-point rounding plus root placement, which the
callers' tolerances absorb.
"""

from __future__ import annotations

import numpy as np

from .norms import norm_of

#: Relative tolerance used to merge nearby root candidates.
_ROOT_MERGE = 1e-13


def degree_patterns(block: np.ndarray) -> np.ndarray:
    """Degree pattern of each coefficient array in a stack ``(n, K, ...)``:
    row ``i`` is ``(count, low, top)``, the number of nonzero degrees of
    ``block[i]`` and the lowest and highest of them (meaningless when
    ``count`` is 0).  ``polyval`` branches on nothing else."""
    nonzero = (block != 0.0).reshape(block.shape[:2] + (-1,)).any(axis=2)
    pattern = np.empty((len(block), 3), dtype=np.intp)
    pattern[:, 0] = nonzero.sum(axis=1)
    pattern[:, 1] = nonzero.argmax(axis=1)
    pattern[:, 2] = nonzero.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
    return pattern


def _horner(cols, ts, pattern, out):
    """Write ``sum cols[j] ts**j`` into ``out`` with the operations that
    ``pattern`` selects; ``cols[j]`` and ``ts`` broadcast against ``out``.
    ``0.0 + x`` starts the sum as adding into zeros would, so a -0.0 comes
    out as 0.0."""
    count, low, top = pattern
    if count == 0:
        out[...] = 0.0
    elif count <= 2:
        np.add(0.0, cols[low] * ts**low, out=out)
        if count == 2:
            out += cols[top] * ts**top
    else:
        np.add(0.0, cols[top], out=out)
        for j in range(top - 1, -1, -1):
            out *= ts
            out += cols[j]


def polyval(c: np.ndarray, t, pattern=None) -> np.ndarray:
    """Evaluate the polynomial ``sum c[j] t**j`` at ``t``.

    ``t`` may be a scalar or a 1-d array; the result has shape
    ``c.shape[1:] + t.shape``.  Sparse high-degree coefficient arrays
    (single monomials, as produced by the power family) take a fast path
    that avoids Horner over the zero coefficients.

    The branch taken depends only on the degree pattern of ``c`` (see
    ``degree_patterns``), which is found here unless ``pattern`` passes it
    in, so scalar and vectorised evaluation of the same piece are bitwise
    consistent.

    With ``pattern`` an ``(n, 3)`` array of degree patterns, ``c`` is a
    stack ``(n, K, *vshape)`` of coefficient arrays and ``t`` has shape
    ``(n, p)``: array ``i`` is evaluated at ``t[i]`` and the result has
    shape ``(n, *vshape, p)``.  Arrays that share a pattern are evaluated
    together, by the same operations as one at a time.
    """
    c = np.asarray(c, dtype=float)
    if pattern is None:
        nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
        pattern = (nz.size, nz[0], nz[-1]) if nz.size else (0, 0, 0)
    elif np.ndim(pattern) == 2:
        return _polyval_stack(c, np.asarray(t, dtype=float), pattern)
    tarr = np.asarray(t, dtype=float)
    scalar = tarr.ndim == 0
    ts = tarr.reshape(1) if scalar else tarr
    out = np.empty(c.shape[1:] + ts.shape)
    _horner(c[..., np.newaxis], ts, pattern, out)
    return out[..., 0] if scalar else out


def _polyval_stack(c: np.ndarray, t: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """``polyval`` of a stack: one ``_horner`` pass per pattern group."""
    n, p = t.shape
    ts = t.reshape((n,) + (1,) * (c.ndim - 2) + (p,))
    out = np.empty((n,) + c.shape[2:] + (p,))
    if (pattern == pattern[0]).all():  # one piece, or pieces of one pattern
        _horner(c.swapaxes(0, 1)[..., np.newaxis], ts, pattern[0], out)
        return out
    count, low, top = pattern.T
    # Horner depends on the top degree alone, the sparse path on both degrees
    width = c.shape[1] + 1
    key = (np.minimum(count, 3) * width + np.where(count > 2, 0, low)) * width + top
    # sorted by group, each group is one slice of the stack
    order = np.argsort(key, kind="stable")
    starts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    cols = c[order].swapaxes(0, 1)[..., np.newaxis]
    ts = ts[order]
    for lo, hi in zip([0] + starts, starts + [n]):
        _horner(cols[:, lo:hi], ts[lo:hi], pattern[order[lo]], out[lo:hi])
    out[order] = out.copy()
    return out


def polyder(c: np.ndarray, axis: int = 0) -> np.ndarray:
    """Coefficients of the derivative polynomial; ``axis`` is the degree
    axis, 0 or 1 for a stack ``(n, K, *vshape)``."""
    c = np.asarray(c, dtype=float)
    k = c.shape[axis]
    if k <= 1:
        return np.zeros(c.shape[:axis] + (1,) + c.shape[axis + 1:])
    mult = np.arange(1.0, k).reshape((-1,) + (1,) * (c.ndim - axis - 1))
    return (c[:, 1:] if axis else c[1:]) * mult


def running_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """``0.0 + terms[0] + terms[1] + ...`` along ``axis``, added in turn as
    a loop from 0.0 does, so a ±0 term leaves the sum as it was.
    ``cumsum`` adds in turn from ``terms[0]``: its sum has the loop's bits
    except a -0.0 where every term is -0.0, which the final ``+ 0.0``
    makes 0.0."""
    return terms.cumsum(axis=axis).take(-1, axis=axis) + 0.0


def defint(c: np.ndarray, lo, hi) -> np.ndarray:
    """Definite integral of the polynomial over ``[lo, hi]``.

    Computed as ``sum c[j] (hi**(j+1) - lo**(j+1)) / (j+1)`` over the
    nonzero coefficients, in increasing degree order.

    With ``lo < hi`` arrays ``(n,)``, row ``i`` of a stack
    ``(n, K, *vshape)`` is integrated over ``[lo[i], hi[i]]`` by the same
    operations as on its own: a degree that is zero in the row adds a ±0
    term, weighted by 0 rather than by a power that may overflow.
    """
    c = np.asarray(c, dtype=float)
    if getattr(lo, "ndim", 0) == 0:
        nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
        out = np.zeros(c.shape[1:])
        if nz.size == 0 or lo == hi:
            return out
        powers = nz + 1.0
        weights = (hi**powers - lo**powers) / powers
        for j, w in zip(nz, weights):
            out = out + c[j] * w
        return out
    present = c.any(axis=tuple(range(2, c.ndim)))
    rows, degrees = present.nonzero()
    # an array of powers, as the sum over one row's degrees takes them
    powers = degrees + 1.0
    weights = np.zeros(present.shape)
    weights[rows, degrees] = (hi[rows]**powers - lo[rows]**powers) / powers
    return running_sum(c * weights.reshape(weights.shape + (1,) * (c.ndim - 2)), axis=1)


def is_zero_poly(c: np.ndarray) -> bool:
    return not np.any(np.asarray(c))


def real_roots(c: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of a scalar polynomial strictly inside ``(lo, hi)``.

    Roots are found from the companion matrix, polished with a few Newton
    steps and deduplicated.  The zero polynomial reports no roots (callers
    must special-case it; for segment splitting that is what is wanted).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    nz = np.flatnonzero(c)
    if nz.size == 0 or nz[-1] == 0:
        return []
    c = c[:nz[-1] + 1]
    # Factor out t**k so monomial-heavy polynomials stay cheap and
    # well conditioned.
    k0 = int(nz[0])
    found = []
    if k0 > 0 and lo < 0.0 < hi:
        found.append(0.0)
    rem = c[k0:]
    if rem.shape[0] == 2:
        cands = [-rem[0] / rem[1]]
    elif rem.shape[0] > 2:
        scale = np.max(np.abs(rem))
        roots = np.polynomial.polynomial.polyroots(rem / scale)
        cands = [float(r.real) for r in np.atleast_1d(roots)
                 if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real))]
    else:
        cands = []
    if cands:
        der = polyder(rem)
        span = hi - lo
        for x in cands:
            px = float(polyval(rem, x))
            for _ in range(6):
                dpx = float(polyval(der, x))
                if dpx == 0.0:
                    break
                step = px / dpx
                if abs(step) > span:
                    break
                nx = x - step
                if abs(step) < 1e-15 * (1.0 + abs(nx)):
                    x = nx
                    break
                # At a multiple root p and p' are both rounding noise and
                # their ratio can throw x off the root: undo such a step.
                npx = float(polyval(rem, nx))
                if abs(npx) > abs(px):
                    break
                x, px = nx, npx
            if lo < x < hi:
                found.append(x)
    found.sort()
    merged: list[float] = []
    for x in found:
        if not merged or x - merged[-1] > _ROOT_MERGE * (1.0 + abs(x)):
            merged.append(x)
    return merged


def _segments(lo: float, hi: float, cuts: list[float]):
    pts = [lo] + [x for x in sorted(set(cuts)) if lo < x < hi] + [hi]
    for u, v in zip(pts[:-1], pts[1:]):
        if v > u:
            yield u, v


def _norm_pieces(c: np.ndarray, lo: float, hi: float):
    """Yield ``(u, v, q)`` covering ``[lo, hi]`` in order, where the scalar
    polynomial ``q`` equals ``||p(t)||`` on ``[u, v]``.

    Scalars and vectors are treated as one-column operators: the max norm
    of a column is its max-row-sum norm, so one path serves all shapes.
    The interval is first cut where an entry changes sign, so that every
    row sum of ``|c|`` is a polynomial there, and then where the largest
    row sum changes hands; ``q`` is the winning row sum.
    """
    c = np.asarray(c, dtype=float)
    ops = c.reshape((c.shape[0],) + (c.shape[1:2] or (1,)) + (-1,))
    cuts = [x for entry in ops.reshape(c.shape[0], -1).T
            for x in real_roots(entry, lo, hi)]
    for u, v in _segments(lo, hi, cuts):
        signs = np.where(polyval(ops, 0.5 * (u + v)) >= 0.0, 1.0, -1.0)
        rows = np.sum(ops * signs, axis=2).T
        inner = [x for i in range(len(rows)) for j in range(i + 1, len(rows))
                 for x in real_roots(rows[i] - rows[j], u, v)]
        for uu, vv in _segments(u, v, inner):
            mid = 0.5 * (uu + vv)
            yield uu, vv, rows[int(np.argmax([float(polyval(r, mid)) for r in rows]))]


def max_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """Maximum of ``|p(t)|`` on ``[lo, hi]`` for a scalar polynomial."""
    cands = [lo, hi] + real_roots(polyder(c), lo, hi)
    return max(abs(float(polyval(c, x))) for x in cands)


def integral_of_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """``integral of |p(t)| dt`` for a scalar polynomial."""
    return integral_of_norm(c, lo, hi)


def sup_norm_on(c: np.ndarray, lo: float, hi: float) -> float:
    """Supremum of the norm of an array-valued polynomial on ``[lo, hi]``.

    Vector values use the max norm, operator values the induced
    max-row-sum norm: the largest ``max_abs_scalar`` of the norm pieces.
    A single entry is its own norm piece up to sign, so it skips the
    kernel: ``max_abs_scalar`` over ``[lo, hi]`` gives the same bits.
    """
    if lo == hi or len(c) == 1:  # a point, or a constant
        return float(norm_of(polyval(c, lo)))
    entries = np.asarray(c, dtype=float).reshape(len(c), -1)
    if entries.shape[1] == 1:  # one entry: its absolute value is the norm
        return max_abs_scalar(entries[:, 0], lo, hi)
    return max((max_abs_scalar(q, u, v) for u, v, q in _norm_pieces(c, lo, hi)),
               default=0.0)


def integral_of_norm(c: np.ndarray, lo: float, hi: float) -> float:
    """Exact ``integral of ||p(t)|| dt`` over ``[lo, hi]``: the sum of
    ``defint`` over the norm pieces."""
    if hi <= lo or is_zero_poly(c):
        return 0.0
    total = 0.0
    for u, v, q in _norm_pieces(c, lo, hi):
        total += float(defint(q, u, v))
    return total


def matvec_conv(ca: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Coefficients of ``t -> A(t) x(t)`` for operator ``A`` and vector
    ``x``, piece by piece: ``ca`` is a stack ``(p, ka, n, n)``, ``cx`` a
    stack ``(p, kx, n)`` and the result has shape ``(p, ka + kx - 1, n)``.
    A degree of ``A`` that is zero in every piece is skipped, so monomial
    factors stay cheap; in some pieces only, it adds ±0 to sums started
    from 0.0, which keeps them.
    """
    ka, kx = ca.shape[1], cx.shape[1]
    out = np.zeros((len(ca), ka + kx - 1, cx.shape[2]))
    for i in ca.any(axis=(0, 2, 3)).nonzero()[0].tolist():
        out[:, i:i + kx] += np.einsum("pij,pdj->pdi", ca[:, i], cx)
    return out
