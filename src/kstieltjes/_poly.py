"""Polynomial helpers with array-valued coefficients.

Coefficient layout throughout the library: ``c[j]`` multiplies ``t**j``,
so the leading axis of a coefficient array is the degree axis.  Trailing
axes carry the value shape: ``()`` for scalars, ``(n,)`` for vectors and
``(n, n)`` for operators.

Everything here is closed form: definite integrals go through the
antiderivative.  The norm of a polynomial's value (the max norm of a
vector, the max-row-sum norm of an operator) is piecewise polynomial:
``_norm_pieces`` splits the spans of a stack of polynomials where it is
one scalar polynomial, with the roots of all of them from one stacked
finder, ``_roots`` (one ``eigvals`` per degree, Newton as array passes).
The public helpers are the one-polynomial cases.  The only inexactness is
rounding plus root placement, which the callers' tolerances absorb.
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


def horner(cols, ts, pattern, out):
    """Write ``sum cols[j] ts**j`` into ``out`` with the operations that
    ``pattern``, ``(count, low, top)`` as Python ints, selects; ``cols[j]``
    and ``ts`` broadcast against ``out``.
    ``0.0 + x`` starts the sum as adding into zeros would, so a -0.0 comes
    out as 0.0.  Two terms are summed as ``0.0 + low + top``, written top
    first, since addition commutes; ``t**0`` and ``t**1`` are not taken,
    as the products by them are exact."""
    count, low, top = pattern
    if count == 0:
        out[...] = 0.0
    elif count <= 2:
        term = cols[low] if low == 0 else cols[low] * (ts if low == 1 else ts**low)
        if count == 2:
            np.multiply(cols[top], ts if top == 1 else ts**top, out=out)
            out += 0.0 + term
        else:
            np.add(0.0, term, out=out)
    else:
        np.add(0.0, cols[top], out=out)
        for j in range(top - 1, -1, -1):
            out *= ts
            out += cols[j]


def polyval(c: np.ndarray, t, pattern=None, safe=None) -> np.ndarray:
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
    together, by the same operations as one at a time; so are the arrays
    whose own operations Horner from the stack's highest degree repeats
    bit for bit (see ``_polyval_stack``); ``safe`` may give their ``horner_safe``.
    """
    c = np.asarray(c, dtype=float)
    if pattern is None:
        nz = np.flatnonzero(c.reshape(c.shape[0], -1).any(axis=1))
        pattern = (nz.size, int(nz[0]), int(nz[-1])) if nz.size else (0, 0, 0)
    elif np.ndim(pattern) == 2:
        return _polyval_stack(c, np.asarray(t, dtype=float), pattern, safe)
    else:
        pattern = np.asarray(pattern).tolist()
    tarr = np.asarray(t, dtype=float)
    scalar = tarr.ndim == 0
    ts = tarr.reshape(1) if scalar else tarr
    out = np.empty(c.shape[1:] + ts.shape)
    horner(c[..., np.newaxis], ts, pattern, out)
    return out[..., 0] if scalar else out


def horner_safe(c: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Which rows of a stack ``c`` ``(n, K, ...)`` with degree patterns
    ``pattern`` Horner from any higher top degree evaluates with the row's
    own bits.  It does when the leading +0.0 coefficients leave +0.0 at
    every step: rows of more than two degrees, zero rows, constants and
    dense linears, if they hold no -0.0 (which the row's own first step,
    0.0 + c, would have made 0.0)."""
    count, top = pattern[:, 0], pattern[:, 2]
    safe = (count > 2) | (count == 0) | ((top <= 1) & (count == top + 1))
    safe &= ~((c == 0.0) & np.signbit(c)).reshape(len(c), -1).any(axis=1)
    return safe


def _polyval_stack(c: np.ndarray, t: np.ndarray, pattern: np.ndarray, safe) -> np.ndarray:
    """``polyval`` of a stack: one ``horner`` pass per group of rows that
    take the same operations; ``safe`` is the rows' ``horner_safe`` or None."""
    n, p = t.shape
    ts = t.reshape((n,) + (1,) * (c.ndim - 2) + (p,))
    out = np.empty((n,) + c.shape[2:] + (p,))
    if not n:
        return out
    if (pattern == pattern[0]).all():  # one piece, or pieces of one pattern
        horner(c.swapaxes(0, 1)[..., np.newaxis], ts, pattern[0].tolist(), out)
        return out
    count, low, top = pattern.T
    safe = horner_safe(c, pattern) if safe is None else safe
    from_top = [3, 0, int(np.max(top, where=safe & (count > 0), initial=0))]
    if safe.all():
        horner(c.swapaxes(0, 1)[..., np.newaxis], ts, from_top, out)
        return out
    # Horner depends on the top degree alone, the sparse path on both degrees
    width = c.shape[1] + 1
    key = (np.minimum(count, 3) * width + np.where(count > 2, 0, low)) * width + top
    key[safe] = -1
    # sorted by group, each group is one slice of the stack
    order = np.argsort(key, kind="stable")
    starts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
    cols = c[order].swapaxes(0, 1)[..., np.newaxis]
    ts = ts[order]
    for lo, hi in zip([0] + starts, starts + [n]):
        row = order[lo]
        horner(cols[:, lo:hi], ts[lo:hi], from_top if safe[row] else pattern[row].tolist(),
               out[lo:hi])
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


def running_sum(terms: np.ndarray, axis: int = 0, lengths=None) -> np.ndarray:
    """``0.0 + terms[0] + terms[1] + ...`` along ``axis``, added in turn as
    a loop from 0.0 does, so a ±0 term leaves the sum as it was.
    ``cumsum`` adds in turn from ``terms[0]``: its sum has the loop's bits
    except a -0.0 where every term is -0.0, which the final ``+ 0.0``
    makes 0.0.  An empty axis sums to 0.0.

    With ``lengths``, the leading axis holds consecutive groups of those
    lengths and row ``i`` of the result sums group ``i``: the groups are
    laid out zero-padded as rows of one ``(groups, longest)`` block and
    summed along the row, where a padding 0.0 leaves each sum as it was."""
    if lengths is not None:
        longest = max(lengths)
        if min(lengths) == longest:  # nothing to pad
            padded = terms.reshape((len(lengths), longest) + terms.shape[1:])
        else:
            padded = np.zeros((len(lengths), longest) + terms.shape[1:])
            # row-major order of the mask is the order of the groups' terms
            padded[np.arange(longest) < np.array(lengths)[:, np.newaxis]] = terms
        return running_sum(padded, axis=1)
    if not terms.shape[axis]:
        return terms.sum(axis=axis)
    return terms.cumsum(axis=axis).take(-1, axis=axis) + 0.0


def defint(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Definite integral of each polynomial of a stack ``(n, K, *vshape)``:
    row ``i`` over ``[lo[i], hi[i]]``, for ``lo < hi`` arrays ``(n,)``.

    Computed as ``sum c[j] (hi**(j+1) - lo**(j+1)) / (j+1)`` over the
    nonzero coefficients, in increasing degree order from 0.0.  A degree
    that is zero in a row adds a ±0 term there, weighted by 0 rather than
    by a power that may overflow, so each row gets the bits of the loop
    over its own nonzero coefficients.
    """
    c = np.asarray(c, dtype=float)
    present = c.any(axis=tuple(range(2, c.ndim)))
    rows, degrees = present.nonzero()
    # an array of powers, as the sum over one row's degrees takes them
    powers = degrees + 1.0
    weights = np.zeros(present.shape)
    weights[rows, degrees] = (hi[rows]**powers - lo[rows]**powers) / powers
    return running_sum(c * weights.reshape(weights.shape + (1,) * (c.ndim - 2)), axis=1)


def _roots(c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Real roots of each scalar polynomial of a stack ``c`` ``(n, K)``,
    row ``i``'s strictly inside ``(lo[i], hi[i])``, row by row ascending,
    and the row of each.  A row is trimmed and ``t**k`` factored out (0 is
    then a root); a linear rest has its root in closed form, the others
    ``polyroots``' eigenvalues, one ``eigvals`` per degree.  Candidates get
    up to six Newton steps and merge within ``_ROOT_MERGE``; a zero row has
    none.  Each root has the bits its row alone gets."""
    n, K = c.shape
    nonzero = c != 0.0
    low, top = nonzero.argmax(axis=1), K - 1 - nonzero[:, ::-1].argmax(axis=1)
    degree = np.where(nonzero.any(axis=1), top - low, 0)
    zero = np.flatnonzero((top > 0) & (low > 0) & (lo < 0.0) & (0.0 < hi))
    cols = np.arange(degree.max(initial=1) + 1)
    rem = np.where(cols <= degree[:, np.newaxis],  # c[i, low[i]:top[i] + 1], padded
                   c[np.arange(n)[:, np.newaxis], np.minimum(low[:, np.newaxis] + cols, K - 1)], 0.0)
    rows = [np.flatnonzero(degree == 1)]
    xs = [-rem[rows[0], 0] / rem[rows[0], 1]]
    for d in np.unique(degree[degree > 1]).tolist():
        own = np.flatnonzero(degree == d)
        unit = rem[own, :d + 1] / np.abs(rem[own, :d + 1]).max(axis=1, keepdims=True)
        companion = np.zeros((len(own), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] = 0.0 - unit[:, :-1] / unit[:, -1:]
        w = np.sort(np.linalg.eigvals(companion), axis=-1)
        real = np.abs(w.imag) <= 1e-8 * (1.0 + np.abs(w.real))
        xs.append(w.real[real])
        rows.append(np.repeat(own, real.sum(axis=1)))
    x, row = np.concatenate(xs), np.concatenate(rows)
    if len(x):
        x = _newton(rem[row], x, (hi - lo)[row])
    inside = (lo[row] < x) & (x < hi[row])
    # zero roots first: of equal roots a stable sort keeps the first, as the list did
    x, row = np.concatenate([np.zeros(len(zero)), x[inside]]), np.concatenate([zero, row[inside]])
    order = np.lexsort((x, row))
    x, row = x[order], row[order]
    keep, near = np.ones(len(x), dtype=bool), np.zeros(len(x), dtype=bool)
    near[1:] = (row[1:] == row[:-1]) & ~(x[1:] - x[:-1] > _ROOT_MERGE * (1.0 + np.abs(x[1:])))
    for k in np.flatnonzero(near).tolist():  # compare with the last root kept
        j = k - 1 - np.argmax(keep[k - 1::-1])
        keep[k] = x[k] - x[j] > _ROOT_MERGE * (1.0 + abs(x[k]))
    return x[keep], row[keep]


def _newton(p: np.ndarray, x: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Up to six Newton steps on each polynomial of a stack ``p`` from
    ``x``, stopping at a zero derivative, a step longer than ``span``,
    after a converged step, or before a step that raises ``|p|`` (at a
    multiple root p and p' are rounding noise and can throw x off)."""
    x, der = x.copy(), polyder(p, axis=1)
    pattern, der_pattern = degree_patterns(p), degree_patterns(der)
    px = polyval(p, x[:, np.newaxis], pattern)[:, 0]
    live = np.arange(len(x))
    for _ in range(6):
        dpx = polyval(der[live], x[live, np.newaxis], der_pattern[live])[:, 0]
        live, step = live[dpx != 0.0], px[live][dpx != 0.0] / dpx[dpx != 0.0]
        live, step = live[~(np.abs(step) > span[live])], step[~(np.abs(step) > span[live])]
        nx = x[live] - step
        done = np.abs(step) < 1e-15 * (1.0 + np.abs(nx))
        x[live[done]] = nx[done]
        live, nx = live[~done], nx[~done]
        npx = polyval(p[live], nx[:, np.newaxis], pattern[live])[:, 0]
        better = ~(np.abs(npx) > np.abs(px[live]))
        live = live[better]
        x[live], px[live] = nx[better], npx[better]
    return x


def _one(lo, hi):
    return np.array([lo], dtype=float), np.array([hi], dtype=float)


def real_roots(c: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of a scalar polynomial strictly inside ``(lo, hi)``."""
    return _roots(np.asarray(c, dtype=float).reshape(1, -1), *_one(lo, hi))[0].tolist()


def _cut(lo: np.ndarray, hi: np.ndarray, x: np.ndarray, row: np.ndarray):
    """Segments ``(u, v, row)`` of the spans ``[lo[i], hi[i]]`` cut at the
    points ``x`` inside them, row by row in order; equal cuts count once."""
    pts = np.concatenate([lo, x, hi])
    owner = np.concatenate([np.arange(len(lo)), row, np.arange(len(lo))])
    order = np.lexsort((pts, owner))
    pts, owner = pts[order], owner[order]
    fresh = np.concatenate([[True], (owner[1:] != owner[:-1]) | (pts[1:] != pts[:-1])])
    pts, owner = pts[fresh], owner[fresh]
    inner = np.flatnonzero(owner[1:] == owner[:-1])
    return pts[inner], pts[inner + 1], owner[inner]


def _norm_pieces(c: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(u, v, q, row)``: the scalar polynomial ``q[k]`` is ``||c[row[k]](t)||``
    on ``[u[k], v[k]]``, for a stack ``c`` ``(n, K, *vshape)`` over the spans
    ``[lo[i], hi[i]]``, row by row in order.  Scalars and vectors are
    one-column operators (a column's max norm is its max-row-sum norm).
    Spans are cut where an entry changes sign, so that each row sum of
    ``|c|`` is a polynomial, then where the largest row sum, ``q``, changes
    hands: two ``_roots`` calls in all."""
    n, K = c.shape[:2]
    ops = c.reshape((n, K) + (c.shape[2:3] or (1,)) + (-1,))
    size, nrows = ops.shape[2] * ops.shape[3], ops.shape[2]
    x, row = _roots(ops.reshape(n, K, size).transpose(0, 2, 1).reshape(-1, K),
                    np.repeat(lo, size), np.repeat(hi, size))
    u, v, seg = _cut(lo, hi, x, row // size)
    mid = 0.5 * (u + v)
    signs = polyval(ops[seg], mid[:, np.newaxis], degree_patterns(ops)[seg]) >= 0.0
    rows = np.sum(ops[seg] * np.where(signs, 1.0, -1.0)[:, np.newaxis, ..., 0],
                  axis=3).transpose(0, 2, 1)
    sub = np.arange(len(u))
    if nrows > 1:
        i, j = np.triu_indices(nrows, 1)
        x, row = _roots((rows[:, i] - rows[:, j]).reshape(-1, K),
                        np.repeat(u, len(i)), np.repeat(v, len(i)))
        u, v, sub = _cut(u, v, x, row // len(i))
        mid = 0.5 * (u + v)
    cands = rows[sub].reshape(-1, K)
    vals = polyval(cands, np.repeat(mid, nrows)[:, np.newaxis], degree_patterns(cands))
    return u, v, rows[sub, vals.reshape(-1, nrows).argmax(axis=1)], seg[sub]


def _max_abs(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Largest ``|p(t)|`` on ``[lo[i], hi[i]]`` for each scalar ``p`` of a
    stack ``c`` ``(n, K)``: at the ends and the derivative's roots."""
    x, row = _roots(polyder(c, axis=1), lo, hi)
    rows = np.concatenate([np.arange(len(c)), np.arange(len(c)), row])
    vals = polyval(c[rows], np.concatenate([lo, hi, x])[:, np.newaxis], degree_patterns(c)[rows])
    best = np.full(len(c), -np.inf)
    np.maximum.at(best, rows, np.abs(vals[:, 0]))
    return best


def max_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """Maximum of ``|p(t)|`` on ``[lo, hi]`` for a scalar polynomial."""
    return float(_max_abs(np.asarray(c, dtype=float).reshape(1, -1), *_one(lo, hi))[0])


def integral_of_abs_scalar(c: np.ndarray, lo: float, hi: float) -> float:
    """``integral of |p(t)| dt`` for a scalar polynomial."""
    return integral_of_norm(c, lo, hi)


def _sup_norms_on(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``sup_norm_on`` of each polynomial of a stack ``c`` over
    ``lo[i] < hi[i]``.  A single entry is its own norm piece up to sign:
    ``_max_abs`` over the whole span gives the kernel's bits."""
    n, K = c.shape[:2]
    if c[0].size == K:
        return _max_abs(c.reshape(n, K), lo, hi)
    u, v, q, row = _norm_pieces(c, lo, hi)
    return np.maximum.reduceat(_max_abs(q, u, v), np.searchsorted(row, np.arange(n)))


def sup_norm_on(c: np.ndarray, lo: float, hi: float) -> float:
    """Supremum of the norm of an array-valued polynomial on ``[lo, hi]``:
    the max norm of vectors, the max-row-sum norm of operators."""
    if lo == hi or len(c) == 1:  # a point, or a constant
        return float(norm_of(polyval(c, lo)))
    return float(_sup_norms_on(np.asarray(c, dtype=float)[np.newaxis], *_one(lo, hi))[0])


def integral_of_norms(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``integral_of_norm`` of each nonzero polynomial of a stack ``c`` over
    ``lo[i] < hi[i]``: ``defint`` over its norm pieces, added from 0.0."""
    u, v, q, row = _norm_pieces(c, lo, hi)
    return running_sum(defint(q, u, v), lengths=np.bincount(row, minlength=len(c)).tolist())


def integral_of_norm(c: np.ndarray, lo: float, hi: float) -> float:
    """Exact ``integral of ||p(t)|| dt`` over ``[lo, hi]``."""
    if hi <= lo or not np.any(c):
        return 0.0
    return float(integral_of_norms(np.asarray(c, dtype=float)[np.newaxis], *_one(lo, hi))[0])


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
