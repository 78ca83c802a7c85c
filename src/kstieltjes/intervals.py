"""Bounded intervals with independent endpoint openness, and elementary sets.

An elementary set is a finite union of bounded intervals, stored in its
*minimal decomposition*: parts are pairwise disjoint, sorted, and no two of
them merge into a single interval (so ``[0, 1)`` followed by ``[1, 2]`` is
forbidden; it must be stored as ``[0, 2]``).  The minimal decomposition is
unique, which makes equality of elementary sets structural.

Set algebra is implemented on *cuts*: the point ``t`` is identified with
the pair ``(t, 0)``, a left endpoint maps to ``(lo, 0)`` when closed and
``(lo, 1)`` when open, and a right endpoint maps to the exclusive cut
``(hi, 1)`` when closed and ``(hi, 0)`` when open.  Every interval becomes
a half-open interval ``[start, end)`` in the lexicographic cut order, where
union, intersection, difference and the merge test ("touching" means
``end == start``) are ordinary sweep operations.  Endpoint comparisons are
exact; minimality is a topological notion, not a tolerance-based one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

Cut = tuple[float, int]


@dataclass(frozen=True)
class Interval:
    """A nonempty bounded interval ``[lo, hi]`` with endpoint closures.

    Degenerate intervals (``lo == hi``) must be closed on both sides.
    The empty set is not representable; use ``ElementarySet.empty()``.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (abs(self.lo) < np.inf and abs(self.hi) < np.inf):  # NaN fails too
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")

    # -- constructors ------------------------------------------------

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def at(cls, point: float) -> "Interval":
        """The degenerate interval containing a single point."""
        return cls(point, point, True, True)

    @classmethod
    def _from_cuts(cls, start: Cut, end: Cut) -> "Interval":
        return cls(start[0], end[0], start[1] == 0, end[1] == 1)

    # -- queries -----------------------------------------------------

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def start_cut(self) -> Cut:
        return (self.lo, 0 if self.lo_closed else 1)

    @property
    def end_cut(self) -> Cut:
        return (self.hi, 1 if self.hi_closed else 0)

    def contains(self, t: float) -> bool:
        return self.start_cut <= (t, 0) < self.end_cut

    __contains__ = contains

    def issubset(self, other: "Interval") -> bool:
        return (other.start_cut <= self.start_cut
                and self.end_cut <= other.end_cut)

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, True, True)

    def __str__(self) -> str:
        if self.is_degenerate:
            return f"[{self.lo!r}]"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo!r},{self.hi!r}{right}"


def _merge_cut_runs(runs: list[tuple[Cut, Cut]]) -> list[tuple[Cut, Cut]]:
    """Sweep-merge half-open cut runs; touching runs coalesce."""
    runs = sorted(runs)
    merged: list[tuple[Cut, Cut]] = []
    for s, e in runs:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


@dataclass(frozen=True)
class ElementarySet:
    """A finite union of intervals in minimal decomposition form."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        prev_end: Cut | None = None
        for part in self.parts:
            if prev_end is not None and part.start_cut <= prev_end:
                raise ValueError(
                    "parts must be disjoint, sorted and non-mergeable; "
                    "build sets with minimal_decomposition()")
            prev_end = part.end_cut

    @classmethod
    def empty(cls) -> "ElementarySet":
        return cls(())

    @classmethod
    def of(cls, *intervals: Interval) -> "ElementarySet":
        return minimal_decomposition(intervals)

    # -- queries -----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def contains(self, t: float) -> bool:
        return any(part.contains(t) for part in self.parts)

    __contains__ = contains

    def contains_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an array of points."""
        ts = np.asarray(ts, dtype=float)
        hit = np.zeros(ts.shape, dtype=bool)
        for part in self.parts:
            inside = (ts > part.lo) & (ts < part.hi)
            if part.lo_closed:
                inside |= ts == part.lo
            if part.hi_closed:
                inside |= ts == part.hi
            hit |= inside
        return hit

    def endpoints(self) -> list[float]:
        out: list[float] = []
        for part in self.parts:
            out.append(part.lo)
            out.append(part.hi)
        return out

    def issubset(self, other: "ElementarySet") -> bool:
        return elementary_diff(self, other).is_empty

    def __or__(self, other: "ElementarySet") -> "ElementarySet":
        return elementary_union(self, other)

    def __and__(self, other: "ElementarySet") -> "ElementarySet":
        return elementary_intersect(self, other)

    def __sub__(self, other: "ElementarySet") -> "ElementarySet":
        return elementary_diff(self, other)

    def __str__(self) -> str:
        return ",".join(str(part) for part in self.parts)


def minimal_decomposition(intervals: Iterable[Interval]) -> ElementarySet:
    """Minimal decomposition of the union of ``intervals``.

    The result covers exactly the union of the inputs, and no two of its
    parts merge into an interval.  Two intervals merge exactly when they
    overlap or touch with complementary closures — e.g. ``[0, 1)`` with
    ``[1, 2]`` merges, ``(0, 1)`` with ``(1, 2)`` does not (the point 1 is
    missing).  An empty input yields the empty set.
    """
    runs = [(iv.start_cut, iv.end_cut) for iv in intervals]
    merged = _merge_cut_runs(runs)
    return ElementarySet(tuple(Interval._from_cuts(s, e) for s, e in merged))


def elementary_union(e1: ElementarySet, e2: ElementarySet) -> ElementarySet:
    return minimal_decomposition(list(e1.parts) + list(e2.parts))


def elementary_intersect(e1: ElementarySet, e2: ElementarySet) -> ElementarySet:
    runs = []
    for p in e1.parts:
        for q in e2.parts:
            s = max(p.start_cut, q.start_cut)
            e = min(p.end_cut, q.end_cut)
            if s < e:
                runs.append((s, e))
    return ElementarySet(tuple(Interval._from_cuts(s, e)
                               for s, e in _merge_cut_runs(runs)))


def elementary_diff(e1: ElementarySet, e2: ElementarySet) -> ElementarySet:
    """Set difference ``e1 minus e2`` with exact endpoint semantics."""
    out_runs: list[tuple[Cut, Cut]] = []
    sub = _merge_cut_runs([(q.start_cut, q.end_cut) for q in e2.parts])
    for p in e1.parts:
        cursor = p.start_cut
        end = p.end_cut
        for s, e in sub:
            if e <= cursor:
                continue
            if s >= end:
                break
            if s > cursor:
                out_runs.append((cursor, s))
            cursor = max(cursor, e)
            if cursor >= end:
                break
        if cursor < end:
            out_runs.append((cursor, end))
    return ElementarySet(tuple(Interval._from_cuts(s, e)
                               for s, e in _merge_cut_runs(out_runs)))


def indicator(e: ElementarySet, t: float) -> int:
    """Characteristic function of ``e``: 1 if ``t`` belongs to the set."""
    return 1 if e.contains(t) else 0
