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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _poly
from .errors import DimensionMismatchError, DomainError
from .intervals import ElementarySet, Interval
from .norms import norm_of, row_norms


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
    """A zero-padded coefficient block ``(m, K, *vshape)`` and the length
    of each piece's polynomial, handed to the constructor as they are."""

    block: np.ndarray
    lens: np.ndarray


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
        block, lens = (coeffs if isinstance(coeffs, _Columns)
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
        self._pattern = _poly.degree_patterns(block)
        self._views: tuple[np.ndarray, ...] | None = None
        self._table: _JumpTable | None = None

    # -- basic queries -------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.grid[0])

    @property
    def b(self) -> float:
        return float(self.grid[-1])

    @property
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

    def spans_within(self, c: float, d: float):
        """Yield ``(lo, hi, coefficients)`` for each piece that meets
        ``(c, d)``, in grid order, with ``(lo, hi)`` its overlap."""
        j0, j1 = np.searchsorted(self.grid, [c, d])
        for j in range(max(int(j0) - 1, 0), int(j1)):
            lo, hi = max(float(self.grid[j]), c), min(float(self.grid[j + 1]), d)
            if hi > lo:
                yield lo, hi, self.coeffs[j]

    def __repr__(self) -> str:
        return (f"PiecewiseFunction({self.kind}, dim={self.dim}, "
                f"domain=[{self.a}, {self.b}], pieces={self.npieces})")

    def _check_inside(self, t: float):
        if not (self.a <= t <= self.b):
            raise DomainError(f"t={t} outside the domain [{self.a}, {self.b}]")

    def _pieces_of(self, ts) -> np.ndarray:
        """Index of the piece whose open interval contains each of ``ts``."""
        return self.grid.searchsorted(ts) - 1

    def _polyval(self, j: int, t) -> np.ndarray:
        """Piece ``j``'s polynomial at ``t``, by its stored degree pattern."""
        return _poly.polyval(self._block[j], t, self._pattern[j])

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
        if ts.size and not (ts.min() >= self.a and ts.max() <= self.b):  # NaN fails too
            raise DomainError("evaluation points outside the domain")
        srt = ts.reshape(-1)
        order = None
        if not np.all(srt[1:] >= srt[:-1]):
            order = np.argsort(srt, kind="stable")
            srt = srt[order]
        # grid point k owns srt[lo[k]:hi[k]], piece j owns srt[hi[j]:lo[j + 1]]
        lo = np.searchsorted(srt, self.grid, side="left")
        hi = np.searchsorted(srt, self.grid, side="right")
        vals = np.empty(self.vshape + srt.shape)
        for k in np.flatnonzero(hi > lo):
            vals[..., lo[k]:hi[k]] = self.nodes[k][..., np.newaxis]
        for j in np.flatnonzero(lo[1:] > hi[:-1]):
            vals[..., hi[j]:lo[j + 1]] = self._polyval(j, srt[hi[j]:lo[j + 1]])
        if order is not None:
            out = np.empty_like(vals)
            out[..., order] = vals
            vals = out
        return vals.reshape(self.vshape + ts.shape)

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
        """The jump table, built on first use and kept: the function is
        immutable, so rebuilding it in a race is harmless.  Every piece's
        polynomial is evaluated at both of its ends in one ``polyval`` of
        the block, by the same operations as the one-sided limits, so every
        row equals the jumps taken from ``limit_left``/``limit_right`` bit
        for bit."""
        table = self._table
        if table is None:
            # ends[j] holds piece j's values at its left and right end
            ends = _poly.polyval(self._block, np.stack([self.grid[:-1], self.grid[1:]], axis=1),
                                 self._pattern)
            both = np.zeros((2,) + self.nodes.shape)
            both[0, 1:] = self.nodes[1:] - ends[..., 1]
            both[1, :-1] = ends[..., 0] - self.nodes[:-1]
            norms = row_norms(both.reshape((-1,) + self.vshape)).reshape(2, -1)
            both.setflags(write=False)
            norms.setflags(write=False)
            table = self._table = _JumpTable(both[0], both[1], norms[0], norms[1])
        return table

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
        zero by convention."""
        if not tol >= 0:
            raise ValueError(f"jump tolerance must be >= 0, got {tol}")
        table = self._jump_table()
        return self._records(np.flatnonzero((table.norm_minus > tol) | (table.norm_plus > tol)))

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
        return PiecewiseFunction(new_grid, _Columns(self._block[owner], self._lens[owner]), nodes)

    def clip(self, c: float, d: float) -> "PiecewiseFunction":
        """The function restricted to the subdomain ``[c, d]`` (values kept
        as they are; this is a domain restriction, not multiplication by an
        indicator)."""
        c, d = float(c), float(d)
        if c < self.a or d > self.b or not c < d:
            raise DomainError(f"[{c}, {d}] is not a subdomain of [{self.a}, {self.b}]")
        inner = self.grid[(self.grid > c) & (self.grid < d)]
        new_grid = np.concatenate([[c], inner, [d]])
        owner = self._pieces_of(0.5 * (new_grid[:-1] + new_grid[1:]))
        return PiecewiseFunction(new_grid, _Columns(self._block[owner], self._lens[owner]),
                                 np.moveaxis(self.eval_many(new_grid), -1, 0))

    def restrict(self, region: ElementarySet | Interval) -> "PiecewiseFunction":
        """Multiply by the indicator of ``region``: equal to this function
        on the region, zero off it, with endpoint openness honoured."""
        if isinstance(region, Interval):
            region = ElementarySet.of(region)
        for part in region.parts:
            if part.lo < self.a or part.hi > self.b:
                raise DomainError(f"part {part} is not inside [{self.a}, {self.b}]")
        refined = self.refine(region.endpoints())
        grid, axes = refined.grid, (1,) * len(self.vshape)
        # a kept piece keeps its polynomial, a dropped one becomes the constant 0
        kept = region.contains_many(0.5 * (grid[:-1] + grid[1:]))
        block = np.where(kept.reshape((-1, 1) + axes), refined._block, 0.0)
        lens = np.where(kept, refined._lens, 1)
        nodes = np.where(region.contains_many(grid).reshape((-1,) + axes), refined.nodes, 0.0)
        return PiecewiseFunction(grid, _Columns(block, lens), nodes)

    # -- suprema ---------------------------------------------------------

    def sup_norm(self, region: ElementarySet | Interval | None = None) -> float:
        """Supremum of the pointwise norm over ``region`` (default: the
        whole domain).

        Node values count only at points belonging to the region, while the
        polynomial closures of the pieces meeting the region's interior
        always count — that is exactly the supremum over a set that may
        exclude its endpoints.
        """
        if region is None:
            region = self.domain
        if isinstance(region, Interval):
            region = ElementarySet.of(region)
        best = 0.0
        for part in region.parts:
            if part.lo < self.a or part.hi > self.b:
                raise DomainError(f"part {part} is not inside [{self.a}, {self.b}]")
            if part.is_degenerate:
                best = max(best, norm_of(self(part.lo)))
                continue
            k0 = np.searchsorted(self.grid, part.lo, "left" if part.lo_closed else "right")
            k1 = np.searchsorted(self.grid, part.hi, "right" if part.hi_closed else "left")
            if k1 > k0:
                best = max(best, float(np.max(row_norms(self.nodes[k0:k1]))))
            for lo, hi, c in self.spans_within(part.lo, part.hi):
                best = max(best, _poly.sup_norm_on(c, lo, hi))
        return best

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
    nodes = np.stack([_poly.polyval(c, a), _poly.polyval(c, b)])
    return PiecewiseFunction([a, b], _one_piece(c), nodes)


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
    """``value`` times the indicator of ``region``, zero elsewhere."""
    return constant(domain, value).restrict(region)


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


def _break_function(grid, at, jump_minus, jump_plus) -> PiecewiseFunction:
    """The break function on ``grid`` with the jumps ``jump_minus[i]`` and
    ``jump_plus[i]`` at grid point ``at[i]`` (the other grid points carry
    none): at ``t`` it sums the right jumps before ``t`` and the left jumps
    up to ``t``, so it vanishes at ``a`` and is constant on every open
    piece."""
    grid = np.asarray(grid, dtype=float)
    steps = np.zeros((grid.size, 2) + jump_minus.shape[1:])
    steps[at, 0] = jump_minus
    steps[at, 1] = jump_plus
    # cumsum adds strictly in sequence (left jump at t_0, right jump at t_0,
    # left jump at t_1, ...), so every value is the running loop's float sum
    running = np.cumsum(steps.reshape((-1,) + jump_minus.shape[1:]), axis=0)
    return PiecewiseFunction(grid, _Columns(running[1:-1:2, np.newaxis],
                                            np.ones(grid.size - 1, dtype=int)),
                             running[0::2])


def jordan_decompose(f: PiecewiseFunction) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """Split ``f`` into a continuous part and a break part, ``f = f_c + f_b``.

    The break part accumulates the right jump of every discontinuity
    strictly before ``t`` and the left jump of every discontinuity up to
    ``t``, normalised to vanish at ``a`` (which pins down the additive
    constant the decomposition is otherwise only unique up to).  Both
    one-sided jumps of ``f_b`` agree with those of ``f`` at every point,
    so the other summand is continuous.
    """
    records = f.jumps()
    if not records:
        return f, zero_function((f.a, f.b), f.kind, f.dim)
    table = f._jump_table()
    at = np.searchsorted(f.grid, [rec.t for rec in records])
    fb = _break_function(f.grid, at, table.minus[at], table.plus[at])
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
    _require_break_function(f_b)
    points = np.fromiter(jump_points, dtype=float)
    found = np.isin(points, [rec.t for rec in f_b.jumps()])
    if not found.all():
        p = float(points[np.argmin(found)])
        raise ValueError(f"{p} is not a jump point of the break function")
    kept = np.searchsorted(f_b.grid, points)
    grid = np.unique(np.concatenate([[f_b.a, f_b.b], f_b.grid[kept]]))
    table = f_b._jump_table()
    return _break_function(grid, np.searchsorted(grid, f_b.grid[kept]),
                           table.minus[kept], table.plus[kept])


def restrict(f: PiecewiseFunction, region: ElementarySet | Interval) -> PiecewiseFunction:
    """Module-level alias of :meth:`PiecewiseFunction.restrict`."""
    return f.restrict(region)
