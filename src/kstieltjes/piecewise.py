"""Piecewise-polynomial representation of regulated functions.

A :class:`PiecewiseFunction` is a grid ``a = t_0 < ... < t_m = b``, one
polynomial per open piece ``(t_{k-1}, t_k)``, and an explicit value at
every grid point.  Node values are authoritative: they may disagree with
the neighbouring polynomials, which is how jumps are encoded.  One-sided
limits therefore exist everywhere (polynomials extend continuously to the
closures of their pieces), the function is regulated by construction, and
its discontinuity set is a subset of the grid, hence finite.

Values live in R^n (``kind='vector'``) or in the n-by-n matrices
(``kind='operator'``).  All instances are immutable; operations return new
objects and may be freely shared between threads.

The coefficients are stored column-wise: one read-only, zero-padded block
``(m, K, *vshape)`` whose row ``j`` holds piece ``j``'s polynomial, with
each piece's length and degree pattern beside it.  ``coeffs`` views the
block piece by piece; the structural operations index the block whole.

Grid refinement inserts node values equal to the polynomial value, through
the same evaluation path used by the one-sided limits, so refinement never
manufactures spurious jumps: the inserted node and the limits are bitwise
identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _poly
from .errors import DimensionMismatchError, DomainError
from .intervals import ElementarySet, Interval
from .norms import row_norms


@dataclass(frozen=True)
class JumpRecord:
    """One-sided jumps of a function at a single point.

    ``jump_minus`` is ``f(t) - f(t-)`` and ``jump_plus`` is
    ``f(t+) - f(t)``; by convention the left jump at ``a`` and the right
    jump at ``b`` are zero.  ``jump_full`` is ``f(t+) - f(t-)`` (with the
    same endpoint conventions), the quantity that drives pure-jump
    integrals.  ``norm_minus`` and ``norm_plus`` are the norms of the two
    one-sided jumps.  The arrays are read-only; at a grid point they are
    views of the function's cached jump table.
    """

    t: float
    jump_minus: np.ndarray
    jump_plus: np.ndarray
    norm_minus: float
    norm_plus: float

    @property
    def jump_full(self) -> np.ndarray:
        return self.jump_minus + self.jump_plus


class _Columns(NamedTuple):
    """A zero-padded coefficient block ``(m, K, *vshape)``, the length of
    each piece's polynomial and, when the caller has them, the pieces'
    degree patterns (``_poly.degree_patterns(block)``), handed to the
    constructor as they are."""

    block: np.ndarray
    lens: np.ndarray
    pattern: np.ndarray | None = None


def _pad(coeffs, m: int, vshape) -> _Columns:
    """``m`` per-piece coefficient arrays, zero-padded into one block."""
    coeffs = list(coeffs)
    lens = [len(c) for c in coeffs]
    if len(lens) != m:
        raise ValueError("need exactly one polynomial per open piece")
    if min(lens) < 1:
        raise ValueError("every piece needs at least one coefficient")
    flat = np.concatenate(coeffs, dtype=float)
    if flat.shape[1:] != vshape:
        raise ValueError("piece coefficients must share the node value shape")
    lens = np.array(lens)
    block = np.zeros((m, lens.max()) + vshape)
    # row-major order of the mask is the order of the concatenated pieces
    block[np.arange(block.shape[1]) < lens[:, np.newaxis]] = flat
    return _Columns(block, lens)


class _JumpTable(NamedTuple):
    """Both one-sided jumps at every grid point, ``(m+1, *vshape)`` each,
    with their norms; row ``k`` belongs to grid point ``t_k``."""

    minus: np.ndarray
    plus: np.ndarray
    norm_minus: np.ndarray
    norm_plus: np.ndarray


def _domain_pair(domain) -> tuple[float, float]:
    if isinstance(domain, Interval):
        if not (domain.lo_closed and domain.hi_closed):
            raise ValueError("function domains are compact intervals")
        a, b = domain.lo, domain.hi
    else:
        a, b = domain
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"domain must satisfy a < b, got [{a}, {b}]")
    return a, b


def _parts_table(parts: Sequence[Interval], a: float, b: float) -> np.ndarray:
    """The sorted disjoint intervals ``parts`` as a ``(P, 4)`` table of
    ``(lo, hi, lo_closed, hi_closed)`` rows; raises ``DomainError`` naming
    the first part not inside ``[a, b]``."""
    table = np.array([(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in parts]).reshape(-1, 4)
    if parts and (table[0, 0] < a or table[-1, 1] > b):  # the parts are sorted
        part = next(p for p in parts if p.lo < a or p.hi > b)
        raise DomainError(f"{part} is not inside [{a}, {b}]")
    return table


class PiecewiseFunction:
    """Regulated function on a compact interval, piecewise polynomial."""

    def __init__(self, grid, coeffs: Sequence, node_values):
        grid = np.array(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid needs at least the two domain endpoints")
        if not (grid[1:] > grid[:-1]).all():
            raise ValueError("grid must be strictly increasing")
        nodes = np.array(node_values, dtype=float)
        if nodes.shape[0] != grid.size:
            raise ValueError("one node value per grid point required")
        vshape = nodes.shape[1:]
        if len(vshape) == 1:
            kind = "vector"
        elif len(vshape) == 2 and vshape[0] == vshape[1]:
            kind = "operator"
        else:
            raise ValueError(f"value shape {vshape} is neither a vector nor a square matrix")
        if vshape[0] < 1:
            raise ValueError("values need dimension at least 1")
        block, lens, pattern = (coeffs if isinstance(coeffs, _Columns)
                                else _pad(coeffs, grid.size - 1, vshape))
        if not (np.isfinite(grid).all() and np.isfinite(nodes).all()
                and np.isfinite(block).all()):
            raise ValueError("grid, node values and coefficients must be finite")
        for arr in (grid, nodes, block, lens):
            arr.setflags(write=False)
        self.grid = grid
        self.nodes = nodes
        self.kind = kind
        self.dim = int(vshape[0])
        self._block, self._lens = block, lens
        self._pattern = _poly.degree_patterns(block) if pattern is None else pattern
        self._views: tuple[np.ndarray, ...] | None = None
        self._table: _JumpTable | None = None

    # -- basic queries -------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.grid[0])

    @property
    def b(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def domain(self) -> Interval:
        return Interval.closed(self.a, self.b)

    @property
    def vshape(self) -> tuple[int, ...]:
        return self.nodes.shape[1:]

    @property
    def npieces(self) -> int:
        return self.grid.size - 1

    @property
    def coeffs(self) -> tuple[np.ndarray, ...]:
        """Each piece's coefficients, ``block[j, :len_j]``, as read-only
        views of the block."""
        views = self._views
        if views is None:
            views = self._views = tuple(
                self._block[j, :n] for j, n in enumerate(self._lens.tolist()))
        return views

    def piece_spans(self):
        """Yield ``(u, v, coefficients)`` for each open piece ``(u, v)``."""
        for j, c in enumerate(self.coeffs):
            yield float(self.grid[j]), float(self.grid[j + 1]), c

    def _spans(self, lo: np.ndarray, hi: np.ndarray):
        """The pieces that meet the interior of each part ``[lo[k], hi[k]]``
        (none for a point), part by part in grid order, as arrays: each
        piece, its part and their overlap ``(u, v)``."""
        grid = self.grid
        start = grid.searchsorted(lo, "right") - 1
        pieces, part = _ranges(start, np.where(lo == hi, start, grid.searchsorted(hi, "left")))
        return (pieces, part, np.maximum(grid[pieces], lo[part]),
                np.minimum(grid[pieces + 1], hi[part]))

    def __repr__(self) -> str:
        return (f"PiecewiseFunction({self.kind}, dim={self.dim}, "
                f"domain=[{self.a}, {self.b}], pieces={self.npieces})")

    def _check_inside(self, t: float):
        if not (self.a <= t <= self.b):
            raise DomainError(f"t={t} outside the domain [{self.a}, {self.b}]")

    def _pieces_of(self, ts) -> np.ndarray:
        """Index of the piece whose open interval contains each of ``ts``."""
        return self.grid.searchsorted(ts) - 1

    def _rows(self, owner: np.ndarray) -> _Columns:
        """The coefficient rows ``owner`` of the block, with their lengths
        and degree patterns."""
        return _Columns(self._block[owner], self._lens[owner], self._pattern[owner])

    def _polyval(self, j: int, t) -> np.ndarray:
        """Piece ``j``'s polynomial at ``t``, by its stored degree pattern."""
        return _poly.polyval(self._block[j], t, self._pattern[j])

    @cached_property
    def _one_pass(self) -> list | None:
        """The ``_poly.horner`` pattern that gives every piece its own bits
        in one stacked pass: the pieces' common pattern, or Horner from
        their highest degree when every piece is Horner-safe
        (``_poly.horner_safe``); ``None`` otherwise.  Found on first use and
        kept."""
        pattern = self._pattern
        if (pattern == pattern[0]).all():
            return pattern[0].tolist()
        if not self._safe.all():
            return None
        count, _, top = pattern.T
        return [3, 0, int(np.max(top, where=count > 0, initial=0))]

    @cached_property
    def _safe(self) -> np.ndarray:
        """Each piece's ``_poly.horner_safe``, found on first use and kept."""
        return _poly.horner_safe(self._block, self._pattern)

    # -- evaluation ------------------------------------------------------

    def __call__(self, t: float) -> np.ndarray:
        """Value at ``t``: the node value on the grid, the piece polynomial
        elsewhere."""
        t = float(t)
        self._check_inside(t)
        i = int(np.searchsorted(self.grid, t, side="left"))
        if i < self.grid.size and self.grid[i] == t:
            return self.nodes[i]
        return self._polyval(i - 1, t)

    def eval_many(self, ts) -> np.ndarray:
        """Vectorised evaluation; returns shape ``vshape + ts.shape``."""
        ts = np.asarray(ts, dtype=float)
        srt = ts.reshape(-1)
        order = None
        if not (srt[1:] >= srt[:-1]).all():
            order = np.argsort(srt, kind="stable")
            srt = srt[order]
        if srt.size and not (srt[0] >= self.a and srt[-1] <= self.b):  # NaN sorts last
            raise DomainError("evaluation points outside the domain")
        vals = self._eval_sorted(srt)
        if order is not None:
            out = np.empty_like(vals)
            out[..., order] = vals
            vals = out
        return vals.reshape(self.vshape + ts.shape)

    def _eval_sorted(self, srt: np.ndarray) -> np.ndarray:
        """Values at the sorted 1-d points ``srt``, all inside the domain,
        shape ``vshape + srt.shape``.  Every route gives each point the bits
        of its own piece's ``polyval``."""
        # grid point k owns srt[lo[k]:hi[k]], piece j owns srt[hi[j]:lo[j + 1]]
        lo = srt.searchsorted(self.grid, side="left")
        hi = srt.searchsorted(self.grid, side="right")
        touched = (lo[1:] > hi[:-1]).nonzero()[0]
        vals = np.empty(self.vshape + srt.shape)
        if touched.size**2 > srt.size:
            # more touched pieces than points per piece: write every grid hit
            # at once and evaluate each interior point as its own row; with
            # many points per piece the loop's contiguous slices are cheaper
            # than the gather
            at = self.grid.searchsorted(srt, side="right") - 1
            on = self.grid[at] == srt
            last = tuple(range(1, vals.ndim)) + (0,)  # the point axis last
            vals[..., on] = self.nodes[at[on]].transpose(last)
            j, off = at[~on], srt[~on]
            one = self._one_pass
            if one is None:  # one stacked polyval, grouped by pattern
                rows = _poly.polyval(self._block[j], off[:, np.newaxis], self._pattern[j],
                                     self._safe[j])[..., 0]
            else:
                rows = np.empty(off.shape + self.vshape)
                _poly.horner(self._block[j, :one[2] + 1].swapaxes(0, 1),
                             off.reshape((-1,) + (1,) * len(self.vshape)), one, rows)
            vals[..., ~on] = rows.transpose(last)
            return vals
        hits = (hi > lo).nonzero()[0].tolist()
        lo, hi = lo.tolist(), hi.tolist()  # Python ints slice faster
        for k in hits:
            vals[..., lo[k]:hi[k]] = self.nodes[k][..., np.newaxis]
        for j, pattern in zip(touched.tolist(), self._pattern[touched].tolist()):
            span = slice(hi[j], lo[j + 1])
            _poly.horner(self._block[j][..., np.newaxis], srt[span], pattern, vals[..., span])
        return vals

    def limit_right(self, t: float) -> np.ndarray:
        """One-sided limit ``f(t+)``; defined for ``t`` in ``[a, b)``."""
        t = float(t)
        self._check_inside(t)
        if t == self.b:
            raise DomainError("no right limit at the right endpoint")
        i = int(np.searchsorted(self.grid, t, side="left"))
        if self.grid[i] == t:
            return self._polyval(i, t)
        return self._polyval(i - 1, t)

    def limit_left(self, t: float) -> np.ndarray:
        """One-sided limit ``f(t-)``; defined for ``t`` in ``(a, b]``."""
        t = float(t)
        self._check_inside(t)
        if t == self.a:
            raise DomainError("no left limit at the left endpoint")
        i = int(np.searchsorted(self.grid, t, side="left"))
        return self._polyval(i - 1, t)

    # -- jumps -------------------------------------------------------------

    def _jump_table(self) -> _JumpTable:
        """The jump table, built on first use by ``jumps()`` (so a trace
        times it there) and kept: the function is immutable, so rebuilding
        it in a race is harmless."""
        if self._table is None:
            self.jumps(np.inf)
        return self._table

    def _jump_rows(self, tol: float = 0.0) -> np.ndarray:
        """The rows of the jump table with a one-sided jump norm above
        ``tol``."""
        table = self._jump_table()
        return np.flatnonzero((table.norm_minus > tol) | (table.norm_plus > tol))

    def _grid_slice(self, lo: float, hi: float, lo_closed: bool = True,
                    hi_closed: bool = True) -> slice:
        """The grid points in the interval from ``lo`` to ``hi`` with the
        given closures, as a slice of grid (and jump-table) rows."""
        return slice(int(self.grid.searchsorted(lo, "left" if lo_closed else "right")),
                     int(self.grid.searchsorted(hi, "right" if hi_closed else "left")))

    def _records(self, rows: np.ndarray) -> list[JumpRecord]:
        """Records that view the jump-table rows ``rows``."""
        minus, plus, norm_minus, norm_plus = self._jump_table()
        return [JumpRecord(t, minus[k], plus[k], nm, np_) for t, k, nm, np_ in
                zip(self.grid[rows].tolist(), rows.tolist(),
                    norm_minus[rows].tolist(), norm_plus[rows].tolist())]

    def jump_at(self, t: float) -> JumpRecord:
        """One-sided jumps at any ``t`` in the domain: zero off the grid,
        where the function is a polynomial on both sides."""
        t = float(t)
        self._check_inside(t)
        i = int(np.searchsorted(self.grid, t, side="left"))
        if self.grid[i] == t:
            return self._records(np.array([i]))[0]
        zeros = np.zeros(self.vshape)
        zeros.setflags(write=False)
        return JumpRecord(t, zeros, zeros, 0.0, 0.0)

    def jumps(self, tol: float = 0.0) -> list[JumpRecord]:
        """Jump records, in grid order, at every grid point with a
        one-sided jump whose norm exceeds ``tol >= 0`` (default: exactly
        nonzero).  The left jump at ``a`` and the right jump at ``b`` are
        zero by convention.

        The jump table behind the records is built here on first use, by
        ``_jump_tables`` for this one function."""
        if not tol >= 0:
            raise ValueError(f"jump tolerance must be >= 0, got {tol}")
        if self._table is None:
            _jump_tables([self])
        return self._records(self._jump_rows(tol))

    # -- structural operations ----------------------------------------------

    def refine(self, points: Iterable[float]) -> "PiecewiseFunction":
        """Insert grid points; new node values equal the polynomial value,
        so the function is unchanged pointwise."""
        extra = np.fromiter(points, dtype=float)
        outside = ~((extra >= self.a) & (extra <= self.b))  # NaN is outside too
        if outside.any():
            p = float(extra[np.argmax(outside)])
            raise DomainError(f"refinement point {p} outside the domain")
        new_grid = np.unique(np.concatenate([self.grid, extra]))
        if new_grid.size == self.grid.size:
            return self
        # new_grid[i] is old grid point idx[i], or lies inside piece idx[i] - 1
        idx = np.searchsorted(self.grid, new_grid, side="left")
        old = self.grid[np.minimum(idx, self.npieces)] == new_grid
        nodes = np.empty(new_grid.shape + self.vshape)
        nodes[old] = self.nodes[idx[old]]
        host = idx[~old] - 1
        nodes[~old] = _poly.polyval(self._block[host], new_grid[~old, np.newaxis],
                                    self._pattern[host])[..., 0]
        owner = self._pieces_of(0.5 * (new_grid[:-1] + new_grid[1:]))
        return PiecewiseFunction(new_grid, self._rows(owner), nodes)

    def clip(self, c: float, d: float) -> "PiecewiseFunction":
        """The function restricted to the subdomain ``[c, d]`` (values kept
        as they are; this is a domain restriction, not multiplication by an
        indicator)."""
        c, d = float(c), float(d)
        if c < self.a or d > self.b or not c < d:
            raise DomainError(f"[{c}, {d}] is not a subdomain of [{self.a}, {self.b}]")
        keep = self._grid_slice(c, d, False, False)
        new_grid = np.concatenate([[c], self.grid[keep], [d]])
        owner = self._pieces_of(0.5 * (new_grid[:-1] + new_grid[1:]))
        # inner points keep their node values: only the new ends are evaluated
        ends = self.eval_many([c, d])
        ends = ends.transpose((-1,) + tuple(range(ends.ndim - 1)))
        return PiecewiseFunction(new_grid, self._rows(owner),
                                 np.concatenate([ends[:1], self.nodes[keep], ends[1:]]))

    def restrict(self, region: ElementarySet | Interval) -> "PiecewiseFunction":
        """Multiply by the indicator of ``region``: equal to this function
        on the region, zero off it, with endpoint openness honoured."""
        if isinstance(region, Interval):
            region = ElementarySet.of(region)
        _parts_table(region.parts, self.a, self.b)
        refined = self.refine(region.endpoints())
        grid, axes = refined.grid, (1,) * len(self.vshape)
        # a kept piece keeps its polynomial, a dropped one becomes the constant 0
        kept = region.contains_many(0.5 * (grid[:-1] + grid[1:]))
        block = np.where(kept.reshape((-1, 1) + axes), refined._block, 0.0)
        lens = np.where(kept, refined._lens, 1)
        # the pattern degree_patterns gives a zero row of this block
        pattern = np.where(kept[:, np.newaxis], refined._pattern, [0, 0, block.shape[1] - 1])
        nodes = np.where(region.contains_many(grid).reshape((-1,) + axes), refined.nodes, 0.0)
        return PiecewiseFunction(grid, _Columns(block, lens, pattern), nodes)

    # -- suprema ---------------------------------------------------------

    def sup_norm(self, region: ElementarySet | Interval | None = None) -> float:
        """Supremum of the pointwise norm over ``region`` (default: the
        whole domain).

        Node values count only at points belonging to the region, while the
        polynomial closures of the pieces meeting the region's interior
        always count — that is exactly the supremum over a set that may
        exclude its endpoints.  ``_sup_norms`` takes it for this one
        function.
        """
        return _sup_norms([self], region)[0]

    # -- arithmetic sugar ---------------------------------------------------

    def __add__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return lincomb(1.0, self, 1.0, other)

    def __sub__(self, other: "PiecewiseFunction") -> "PiecewiseFunction":
        return lincomb(1.0, self, -1.0, other)

    def __mul__(self, scalar: float) -> "PiecewiseFunction":
        return PiecewiseFunction(self.grid, _Columns(scalar * self._block, self._lens),
                                 scalar * self.nodes)

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseFunction":
        return self * -1.0


# -- function stacks -----------------------------------------------------------
#
# Kernels over a sequence of functions of one value shape laid end to end,
# as a bounded-convergence run's members are; a method on one function is
# the one-function case.


def _joined(arrays: list) -> np.ndarray:
    """``np.concatenate(arrays)``, or the one array itself."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stacked(blocks: list) -> np.ndarray:
    """Coefficient blocks one after another, zero-padded to the widest."""
    if len(blocks) == 1:
        return blocks[0]
    out = np.zeros((sum(len(b) for b in blocks), max(b.shape[1] for b in blocks))
                   + blocks[0].shape[2:])
    start = 0
    for b in blocks:
        out[start:start + len(b), :b.shape[1]] = b
        start += len(b)
    return out


def _ranges(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integers of the ranges ``[start[k], stop[k])`` in turn (empty
    where ``stop[k] <= start[k]``), and the ``k`` of each."""
    if len(start) == 1:  # one range: no offsets to spread
        count = max(stop[0] - start[0], 0)
        return np.arange(start[0], start[0] + count), np.zeros(count, dtype=int)
    counts = np.maximum(stop - start, 0)
    owner = np.repeat(np.arange(len(counts)), counts)
    return np.arange(len(owner)) + (start - np.cumsum(counts) + counts)[owner], owner


def _jump_tables(fs):
    """Build and keep the jump table of every function of ``fs``.

    Every piece of every function is evaluated at both of its ends in one
    ``polyval`` of the stacked blocks, which applies each row's own pattern
    operations, the one-sided limits' operations: every row equals the
    jumps taken from ``limit_left``/``limit_right`` bit for bit.  The
    norms are taken row by row, in one ``row_norms``."""
    sizes = [f.grid.size for f in fs]
    grid, nodes = _joined([f.grid for f in fs]), _joined([f.nodes for f in fs])
    block = _stacked([f._block for f in fs])
    if len(fs) == 1:
        lo, hi = slice(None, -1), slice(1, None)
    else:  # piece q of the stack lies between grid rows lo[q] and lo[q] + 1
        lo = np.arange(len(block)) + np.repeat(np.arange(len(fs)), np.subtract(sizes, 1))
        hi = lo + 1
    # ends[q] holds piece q's values at its left and right end
    ends = _poly.polyval(block, np.stack([grid[lo], grid[hi]], axis=1),
                         _joined([f._pattern for f in fs]))
    both = np.zeros((2,) + nodes.shape)
    both[0, hi] = nodes[hi] - ends[..., 1]
    both[1, lo] = ends[..., 0] - nodes[lo]
    norms = row_norms(both.reshape((-1,) + nodes.shape[1:])).reshape(2, -1)
    both.setflags(write=False)
    norms.setflags(write=False)
    start = 0
    for f, size in zip(fs, sizes):
        f._table = _JumpTable(*(column[start:start + size]
                                for column in (both[0], both[1], norms[0], norms[1])))
        start += size


def _sup_norms(fs, region: ElementarySet | Interval | None = None) -> list[float]:
    """``f.sup_norm(region)`` for every function of ``fs``, which share a
    domain and a value shape (``None``: the domain).

    One ``row_norms`` pass takes, for all functions and parts at once, the
    node values in the region, the values at its points off the grid and
    the constant pieces meeting its interior; one ``_sup_norms_on`` takes
    every other piece meeting a part's interior, on their overlap.  A max
    is exact, so each function gets the bits of a max taken part by part.
    """
    if region is not None:
        parts = region.parts if isinstance(region, ElementarySet) else [region]
        table = _parts_table(parts, fs[0].a, fs[0].b).T
        ends, (lo, hi), (lo_closed, hi_closed) = table[:2], table[:2], table[2:] == 1.0
        point = lo == hi
    zero = np.zeros((1,) + fs[0].vshape)  # the supremum over nothing
    values, firsts, curved, size = [], [], [], 0
    for i, f in enumerate(fs):
        grid, own = f.grid, [zero]
        if region is None:
            rows, pieces, u, v = slice(None), np.arange(f.npieces), grid[:-1], grid[1:]
        else:
            (lo_left, hi_left), (lo_right, hi_right) = (grid.searchsorted(ends, side)
                                                        for side in ("left", "right"))
            rows = _ranges(np.where(lo_closed, lo_left, lo_right),
                           np.where(hi_closed, hi_right, hi_left))[0]
            pieces, _, u, v = f._spans(lo, hi)
            off = point & (lo_left == lo_right)  # a point off the grid: its piece's value
            if off.any():
                j = lo_right[off] - 1
                own.append(_poly.polyval(f._block[j], lo[off, np.newaxis], f._pattern[j])[..., 0])
        flat = f._lens[pieces] == 1
        # a constant piece's norm is its coefficient's, as sup_norm_on finds it
        own += [f.nodes[rows], f._block[pieces[flat], 0]]
        firsts.append(size)
        size += sum(map(len, own))
        values += own
        curved.append((f._block[pieces[~flat]], u[~flat], v[~flat], np.full(len(u) - flat.sum(), i)))
    best = np.maximum.reduceat(row_norms(np.concatenate(values)), firsts)
    blocks, us, vs, owner = zip(*curved)
    block = _stacked(list(blocks))
    if len(block):
        np.maximum.at(best, _joined(owner), _poly._sup_norms_on(block, _joined(us), _joined(vs)))
    return best.tolist()


# -- factories ---------------------------------------------------------------


def _one_piece(c: np.ndarray) -> _Columns:
    """The block of a single piece with coefficients ``c``."""
    if len(c) < 1:
        raise ValueError("every piece needs at least one coefficient")
    return _Columns(np.array(c[np.newaxis], dtype=float), np.array([len(c)]))


def _lift_coeffs(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim == 1:
        c = c[:, np.newaxis]
    return c


def polynomial(domain, coeffs) -> PiecewiseFunction:
    """Single-piece polynomial function.  ``coeffs[j]`` multiplies ``t**j``
    and may be scalar (lifted to a 1-vector), vector or matrix valued."""
    a, b = _domain_pair(domain)
    c = _lift_coeffs(coeffs)
    piece = _one_piece(c)
    nodes = np.stack([_poly.polyval(c, a), _poly.polyval(c, b)])
    return PiecewiseFunction([a, b], piece, nodes)


def constant(domain, value) -> PiecewiseFunction:
    a, b = _domain_pair(domain)
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return PiecewiseFunction([a, b], _one_piece(value[np.newaxis]), np.stack([value, value]))


def zero_function(domain, kind: str = "vector", dim: int = 1) -> PiecewiseFunction:
    vshape = (dim,) if kind == "vector" else (dim, dim)
    a, b = _domain_pair(domain)
    return PiecewiseFunction([a, b], _one_piece(np.zeros((1,) + vshape)),
                             np.zeros((2,) + vshape))


def step(domain, region: ElementarySet | Interval, value=1.0) -> PiecewiseFunction:
    """``value`` times the indicator of ``region``, zero elsewhere: the
    one-region case of ``_steps``, byte for byte
    ``constant(domain, value).restrict(region)``, with its errors."""
    a, b = _domain_pair(domain)
    value = np.atleast_1d(np.asarray(value, dtype=float))
    try:
        table = _parts_table(region.parts if isinstance(region, ElementarySet) else [region], a, b)
    except DomainError:
        constant((a, b), value)  # the value is checked first, as constant() does
        raise
    return _steps(a, b, table[np.newaxis], value)[0]


def _steps(a: float, b: float, parts: np.ndarray, value: np.ndarray) -> list[PiecewiseFunction]:
    """``value`` times the indicator of each region of ``parts``, an
    ``(n, P, 4)`` stack of ``_parts_table`` rows inside ``[a, b]``, zero
    elsewhere: each byte for byte ``constant((a, b), value).restrict(region)``,
    whose refinement evaluates the constant as ``value + 0.0`` at the
    region's inner endpoints.  The grids are built end to end."""
    n, axes = len(parts), (1,) * value.ndim
    # np.unique of each row [a, b, lo, hi, ...]: the default sort, which
    # orders equal ±0 as np.unique's does, and the first of equal points
    ends = np.concatenate([np.full((n, 2), [a, b]), parts[..., :2].reshape(n, -1)], 1)
    ends.sort(axis=1)
    new = np.concatenate([np.ones((n, 1), dtype=bool), ends[:, 1:] != ends[:, :-1]], 1)
    # region.contains_many at the points of each row, then at their
    # midpoints, where one after a repeat is that of the piece it ends
    t = np.concatenate([ends, 0.5 * (ends[:, :-1] + ends[:, 1:])], 1)[..., np.newaxis]
    lo, hi, lo_closed, hi_closed = parts.transpose(2, 0, 1)[:, :, np.newaxis]
    inside = ((lo < t) & (t < hi) | (t == lo) & (lo_closed == 1.0)
              | (t == hi) & (hi_closed == 1.0)).any(axis=2)
    width = ends.shape[1]
    grid, sizes, kept = ends[new], new.sum(axis=1), inside[:, width:][new[:, 1:]]
    nodes = np.where(((grid == a) | (grid == b)).reshape((-1,) + axes), value, value + 0.0)
    nodes = np.where(inside[:, :width][new].reshape((-1,) + axes), nodes, 0.0)
    block = np.where(kept.reshape((-1, 1) + axes), value, 0.0)
    pattern = np.zeros((len(block), 3), dtype=np.intp)  # as degree_patterns finds it
    pattern[:, 0] = kept & (value != 0.0).any()
    return [PiecewiseFunction(grid[stop - m:stop],
                              _Columns(block[cut - m + 1:cut], np.ones(m - 1, dtype=int),
                                       pattern[cut - m + 1:cut]), nodes[stop - m:stop])
            for m, stop, cut in zip(sizes.tolist(), np.cumsum(sizes).tolist(),
                                    np.cumsum(sizes - 1).tolist())]


def scaled_identity(domain, scalar_coeffs, dim: int = 1) -> PiecewiseFunction:
    """Operator-valued polynomial ``p(t) I`` from scalar coefficients."""
    sc = np.asarray(scalar_coeffs, dtype=float).reshape(-1)
    coeffs = sc[:, np.newaxis, np.newaxis] * np.eye(dim)
    return polynomial(domain, coeffs)


# -- linear-space operations ---------------------------------------------------


def lincomb(c1: float, f1: PiecewiseFunction,
            c2: float, f2: PiecewiseFunction) -> PiecewiseFunction:
    """Pointwise ``c1 f1 + c2 f2`` on the merged grid."""
    if f1.kind != f2.kind or f1.dim != f2.dim:
        raise DimensionMismatchError(
            f"cannot combine {f1.kind}/dim {f1.dim} with {f2.kind}/dim {f2.dim}")
    if f1.a != f2.a or f1.b != f2.b:
        raise DimensionMismatchError("functions live on different domains")
    r1 = f1.refine(f2.grid)
    r2 = f2.refine(f1.grid)
    p, q = r1._block, r2._block
    block = np.zeros((p.shape[0], max(p.shape[1], q.shape[1])) + r1.vshape)
    block[:, :p.shape[1]] += c1 * p
    block[:, :q.shape[1]] += c2 * q
    nodes = c1 * r1.nodes + c2 * r2.nodes
    return PiecewiseFunction(r1.grid, _Columns(block, np.maximum(r1._lens, r2._lens)), nodes)


def _break_functions(grids, member, at, jump_minus, jump_plus) -> list[PiecewiseFunction]:
    """The break functions on ``grids``, where function ``member[i]`` has
    the jumps ``jump_minus[i]`` and ``jump_plus[i]`` at its grid point
    ``at[i]`` (the other grid points carry none): at ``t`` each sums the
    right jumps before ``t`` and the left jumps up to ``t``, so it vanishes
    at ``a`` and is constant on every open piece."""
    sizes, vshape = [grid.size for grid in grids], jump_minus.shape[1:]
    steps = np.zeros((len(grids), max(sizes), 2) + vshape)
    steps[member, at, 0] = jump_minus
    steps[member, at, 1] = jump_plus
    # cumsum adds strictly in sequence (left jump at t_0, right jump at t_0,
    # left jump at t_1, ...), so every value is the running loop's float
    # sum; the zeros that pad a shorter grid's row come after its sums
    running = np.cumsum(steps.reshape((len(grids), -1) + vshape), axis=1)
    pieces = running[:, 1::2, np.newaxis]
    pattern = _poly.degree_patterns(pieces.reshape((-1, 1) + vshape)).reshape(len(grids), -1, 3)
    return [PiecewiseFunction(grid, _Columns(pieces[i, :m - 1], np.ones(m - 1, dtype=int),
                                             pattern[i, :m - 1]), running[i, 0:2 * m:2])
            for i, (grid, m) in enumerate(zip(grids, sizes))]


def jordan_decompose(f: PiecewiseFunction) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """Split ``f`` into a continuous part and a break part, ``f = f_c + f_b``.

    The break part accumulates the right jump of every discontinuity
    strictly before ``t`` and the left jump of every discontinuity up to
    ``t``, normalised to vanish at ``a`` (which pins down the additive
    constant the decomposition is otherwise only unique up to).  Both
    one-sided jumps of ``f_b`` agree with those of ``f`` at every point,
    so the other summand is continuous.
    """
    rows = f._jump_rows()
    if not rows.size:
        return f, zero_function((f.a, f.b), f.kind, f.dim)
    table = f._jump_table()
    fb, = _break_functions([f.grid], np.zeros_like(rows), rows, table.minus[rows],
                           table.plus[rows])
    block = np.array(f._block)
    block[:, 0] = block[:, 0] - fb._block[:, 0]
    fc = PiecewiseFunction(f.grid, _Columns(block, f._lens), f.nodes - fb.nodes)
    return fc, fb


def _require_break_function(f: PiecewiseFunction):
    if np.any(f._block[:, 1:]):
        raise ValueError("not a break function: a piece is non-constant")
    if np.any(f.nodes[0]):
        raise ValueError("not a break function: value at the left endpoint is nonzero")


def break_truncate(f_b: PiecewiseFunction, jump_points: Iterable[float]) -> PiecewiseFunction:
    """Break function carrying only the jumps of ``f_b`` at ``jump_points``.

    Truncating a break function to finitely many of its jumps is the
    canonical approximation scheme: the variation of the difference is the
    summed norm of the dropped jumps.
    """
    return _break_truncations(f_b, jump_points)[0]


def _break_truncations(f_b: PiecewiseFunction, jump_points: Iterable[float],
                       ns=None) -> list[PiecewiseFunction]:
    """``break_truncate(f_b, jump_points[:n])`` for every ``n`` of the
    sorted ``ns`` (default: one, with every point), built together."""
    _require_break_function(f_b)
    order = np.fromiter(jump_points, dtype=float)
    ns = [order.size] if ns is None else ns
    order = order[:ns[-1]]
    table = f_b._jump_table()
    at = np.minimum(f_b.grid.searchsorted(order), f_b.npieces)  # NaN sorts last
    found = (f_b.grid[at] == order) & ((table.norm_minus[at] > 0.0) | (table.norm_plus[at] > 0.0))
    if not found.all():
        p = float(order[np.argmin(found)])
        raise ValueError(f"{p} is not a jump point of the break function")
    # first[k]: the place of grid point k in the order, the first if repeated
    first = np.full(f_b.grid.size, order.size)
    np.minimum.at(first, at, np.arange(order.size))
    kept = first < np.array(ns)[:, np.newaxis]  # truncation i keeps order[:ns[i]]
    on = kept.copy()
    on[:, [0, -1]] = True  # its grid: the kept jumps and the domain's ends
    member, k = kept.nonzero()
    return _break_functions([f_b.grid[row] for row in on], member,
                            (np.cumsum(on, axis=1) - 1)[member, k],
                            table.minus[k], table.plus[k])


def restrict(f: PiecewiseFunction, region: ElementarySet | Interval) -> PiecewiseFunction:
    """Module-level alias of :meth:`PiecewiseFunction.restrict`."""
    return f.restrict(region)
