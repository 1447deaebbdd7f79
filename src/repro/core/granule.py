"""Granules and interval-set algebra.

The paper's unit of work is the *granule* — "distinct computational
granules of the same parallel computational phase".  PAX described
computations as "large, contiguous collections of granules" that are
"split apart as necessary to produce conveniently sized tasks for workers
and then merged back into single descriptions when the work was
completed".  That makes a half-open integer interval the natural unit
(:class:`GranuleRange`), and a sorted run of disjoint intervals
(:class:`GranuleSet`) the natural bookkeeping structure for
completed-granule tracking, enablement checks and merge-on-completion.

A :class:`GranuleSet` stores its intervals as one flat tuple of *bounds*
``(s0, e0, s1, e1, ...)`` plus its cardinality.  The canonical invariant
is that the bounds strictly increase: ranges are sorted, non-empty,
disjoint and non-adjacent, so equal sets have equal bounds.  Every
operation builds canonical bounds directly — union is a linear
two-pointer merge, intersection and difference walk the operand with
fewer ranges and ``bisect`` into the other, all with single-range fast
paths — so only the public constructor from arbitrary ranges ever
sorts.  ``len`` is O(1), membership is a ``bisect``, and
:attr:`GranuleSet.ranges` builds its :class:`GranuleRange` objects on
demand without keeping them.  :class:`GranuleSet` is a value type — every
operation returns a new set (or an operand unchanged).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

__all__ = ["GranuleRange", "GranuleSet"]


@dataclass(frozen=True, slots=True, order=True)
class GranuleRange:
    """A half-open range ``[start, stop)`` of granule indices."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.stop < self.start:
            raise ValueError(f"range stops before it starts: [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, granule: int) -> bool:
        return self.start <= granule < self.stop

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    @property
    def empty(self) -> bool:
        return self.stop == self.start

    def overlaps(self, other: "GranuleRange") -> bool:
        """True when the ranges share at least one granule."""
        return self.start < other.stop and other.start < self.stop

    def adjacent(self, other: "GranuleRange") -> bool:
        """True when the ranges abut exactly (mergeable without overlap)."""
        return self.stop == other.start or other.stop == self.start

    def intersection(self, other: "GranuleRange") -> "GranuleRange":
        """The common sub-range (possibly empty, anchored at overlap start)."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if hi < lo:
            return GranuleRange(lo, lo)
        return GranuleRange(lo, hi)

    def split_at(self, point: int) -> tuple["GranuleRange", "GranuleRange"]:
        """Split into ``[start, point)`` and ``[point, stop)``.

        ``point`` must lie inside ``[start, stop]``.
        """
        if not (self.start <= point <= self.stop):
            raise ValueError(f"split point {point} outside [{self.start}, {self.stop}]")
        return GranuleRange(self.start, point), GranuleRange(point, self.stop)

    def take(self, n: int) -> tuple["GranuleRange", "GranuleRange"]:
        """Split off the first ``n`` granules (clamped to the range size)."""
        n = max(0, min(n, len(self)))
        return self.split_at(self.start + n)

    def __repr__(self) -> str:
        return f"[{self.start},{self.stop})"


class GranuleSet:
    """An immutable set of granule indices stored as flat range bounds.

    ``bounds`` is the strictly increasing tuple ``(s0, e0, s1, e1, ...)``
    of the half-open ranges ``[s0, e0), [s1, e1), ...``; the cardinality
    is computed once, when the set is built.  Union costs O(ranges of
    both operands); intersection, difference and subset tests cost
    O(ranges of the smaller operand · log ranges of the larger) Python
    steps plus C-level tuple copies — independent of the number of
    granules either way.

    Examples
    --------
    >>> s = GranuleSet.from_ranges([(0, 5), (10, 12)])
    >>> len(s)
    7
    >>> 11 in s
    True
    >>> s.bounds
    (0, 5, 10, 12)
    >>> (s | GranuleSet.from_ranges([(5, 10)])).ranges
    ([0,15),)
    """

    __slots__ = ("_b", "_n")

    def __init__(self, ranges: Iterable[GranuleRange] = ()) -> None:
        self._b: tuple[int, ...] = self._normalize((r.start, r.stop) for r in ranges)
        self._n: int = _count(self._b)

    # ------------------------------------------------------------------ builders
    @staticmethod
    def _normalize(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Canonical bounds of arbitrary ``(start, stop)`` pairs.

        The one place that sorts: only the public constructors from
        arbitrary ranges or ids come through here.
        """
        spans: list[tuple[int, int]] = []
        for s, e in pairs:
            if e < s:
                raise ValueError(f"range stops before it starts: [{s}, {e})")
            if s < e:
                spans.append((s, e))
        return _merge_sorted(sorted(spans))

    @staticmethod
    def _from_bounds(bounds: tuple[int, ...], n: int) -> "GranuleSet":
        """Wrap ``bounds`` already canonical (strictly increasing, even
        length) whose ranges hold ``n`` granules; nothing is checked."""
        out = object.__new__(GranuleSet)
        out._b = bounds
        out._n = n
        return out

    @staticmethod
    def _from_edges(edges, n: int) -> "GranuleSet":
        """Wrap the range edges ``s0, e0, s1, e1, ...`` — a list or 1-d
        integer array that strictly increases — of ranges holding ``n``
        granules; nothing is checked.  The array builders in
        :mod:`repro.core.mapping` hand their results over through this."""
        if isinstance(edges, np.ndarray):
            edges = edges.tolist()
        return _make(tuple(edges), n)

    @classmethod
    def from_sorted_ids(cls, ids) -> "GranuleSet":
        """Build from a strictly increasing integer array in one pass.

        ``ids`` is anything :func:`numpy.asarray` accepts (typically the
        output of :func:`numpy.unique`).  Consecutive runs collapse into
        single ranges without a sort; ids that do not strictly increase
        raise :class:`ValueError`.
        """
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size == 0:
            return _EMPTY
        steps = np.diff(arr)
        if steps.size and steps.min() <= 0:
            raise ValueError("from_sorted_ids needs strictly increasing ids")
        breaks = np.flatnonzero(steps != 1)
        bounds = np.empty(2 * breaks.size + 2, dtype=np.int64)
        bounds[0] = arr[0]
        bounds[1:-1:2] = arr[breaks] + 1
        bounds[2::2] = arr[breaks + 1]
        bounds[-1] = arr[-1] + 1
        return _make(tuple(bounds.tolist()), int(arr.size))

    @classmethod
    def from_ranges(cls, pairs: Iterable[tuple[int, int]]) -> "GranuleSet":
        """Build from ``(start, stop)`` pairs (overlap/adjacency merged)."""
        bounds = cls._normalize(pairs)
        return _make(bounds, _count(bounds))

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "GranuleSet":
        """Build from individual granule indices (any order, repeats allowed)."""
        return cls.from_ranges((i, i + 1) for i in ids)

    @classmethod
    def empty(cls) -> "GranuleSet":
        return _EMPTY

    @classmethod
    def universe(cls, n: int) -> "GranuleSet":
        """The full granule set ``[0, n)`` of an ``n``-granule phase."""
        if n > 0:
            return _make((0, n), n)
        if n < 0:
            raise ValueError(f"range stops before it starts: [0, {n})")
        return _EMPTY

    # ------------------------------------------------------------------ queries
    @property
    def bounds(self) -> tuple[int, ...]:
        """The flat canonical bounds ``(s0, e0, s1, e1, ...)``."""
        return self._b

    def spans(self) -> Iterator[tuple[int, int]]:
        """The ``(start, stop)`` pair of every range, in order."""
        b = self._b
        return zip(b[::2], b[1::2])

    @property
    def ranges(self) -> tuple[GranuleRange, ...]:
        """The ranges as :class:`GranuleRange` objects, built on each call."""
        b = self._b
        return tuple(map(GranuleRange, b[::2], b[1::2]))

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return bool(self._b)

    def __contains__(self, granule: int) -> bool:
        # an odd number of bounds at or below the granule puts it inside a range
        return bisect_right(self._b, granule) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        b = self._b
        return chain.from_iterable(map(range, b[::2], b[1::2]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GranuleSet):
            return NotImplemented
        return self._b == other._b

    def __hash__(self) -> int:
        return hash(self._b)

    def min(self) -> int:
        """Smallest granule index; raises on an empty set."""
        if not self._b:
            raise ValueError("empty granule set has no minimum")
        return self._b[0]

    def max(self) -> int:
        """Largest granule index; raises on an empty set."""
        if not self._b:
            raise ValueError("empty granule set has no maximum")
        return self._b[-1] - 1

    # ------------------------------------------------------------------ algebra
    def __or__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        if not a:
            return other
        if not b:
            return self
        if a[-1] <= b[0]:
            # appending after the last range, the completion-tracking shape
            return _make(a + b if a[-1] < b[0] else a[:-1] + b[1:], self._n + other._n)
        if b[-1] <= a[0]:
            return _make(b + a if b[-1] < a[0] else b[:-1] + a[1:], self._n + other._n)
        if len(a) == 2 == len(b):
            # two single ranges that overlap or touch
            lo = a[0] if a[0] < b[0] else b[0]
            hi = a[1] if a[1] > b[1] else b[1]
            return _make((lo, hi), hi - lo)
        out = _union(a, b)
        return _make(out, _count(out))

    @classmethod
    def union_all(cls, sets: Iterable["GranuleSet"]) -> "GranuleSet":
        """Union of many sets in one pass.

        Operands already in order (each starting at or after the previous
        one's end, as the fired groups of a front-to-back composite map
        are) are concatenated; otherwise ``heapq.merge`` interleaves their
        ranges in one O(N log k) sweep, which beats folding with ``|``.
        """
        parts = [s for s in sets if s._b]
        if not parts:
            return _EMPTY
        if len(parts) == 1:
            return parts[0]
        out: list[int] = []
        n = 0
        for s in parts:
            b = s._b
            if not out or b[0] > out[-1]:
                out.extend(b)
            elif b[0] == out[-1]:
                out.pop()
                out.extend(b[1:])
            else:
                break
            n += s._n
        else:
            return _make(tuple(out), n)
        bounds = _merge_sorted(heapq.merge(*(p.spans() for p in parts)))
        return _make(bounds, _count(bounds))

    def __and__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        if not a or not b or a[-1] <= b[0] or b[-1] <= a[0]:
            return _EMPTY
        if len(b) == 2 and b[0] <= a[0] and a[-1] <= b[1]:
            return self
        if len(a) == 2 and a[0] <= b[0] and b[-1] <= a[1]:
            return other
        if len(a) == 2 == len(b):
            lo = a[0] if a[0] > b[0] else b[0]
            hi = a[1] if a[1] < b[1] else b[1]
            return _make((lo, hi), hi - lo)
        out = _intersect(a, b)
        return _make(out, _count(out))

    def __sub__(self, other: "GranuleSet") -> "GranuleSet":
        a, b = self._b, other._b
        if not a or not b or a[-1] <= b[0] or b[-1] <= a[0]:
            return self
        # what is left of ``a`` lies in the gaps of ``b`` within a's extent
        gaps = _gaps(b, a[0], a[-1])
        out = gaps if len(a) == 2 else _intersect(a, gaps)
        return _make(out, _count(out))

    def issubset(self, other: "GranuleSet") -> bool:
        """True when every granule of ``self`` is in ``other``."""
        a, b = self._b, other._b
        if not a:
            return True
        if self._n > other._n or a[0] < b[0] or a[-1] > b[-1]:
            return False
        return len(b) == 2 or not (self - other)

    def isdisjoint(self, other: "GranuleSet") -> bool:
        """True when the sets share no granule."""
        return not (self & other)

    def complement(self, n: int) -> "GranuleSet":
        """Granules of ``[0, n)`` *not* in this set."""
        return GranuleSet.universe(n) - self

    # ------------------------------------------------------------------ misc
    def take(self, n: int) -> tuple["GranuleSet", "GranuleSet"]:
        """Split off the ``n`` smallest granules: ``(head, rest)``."""
        if n <= 0:
            return _EMPTY, self
        if n >= self._n:
            return self, _EMPTY
        b = self._b
        rem = n
        for i in range(0, len(b), 2):
            rem -= b[i + 1] - b[i]
            if rem <= 0:
                break
        # range i holds the cut; rem is how far before its stop (<= 0)
        if rem == 0:
            head, rest = b[: i + 2], b[i + 2 :]
        else:
            cut = b[i + 1] + rem
            head, rest = b[: i + 1] + (cut,), (cut,) + b[i + 1 :]
        return _make(head, n), _make(rest, self._n - n)

    def __repr__(self) -> str:
        b = self._b
        return "GranuleSet(" + ",".join(map("[{},{})".format, b[::2], b[1::2])) + ")"


_make = GranuleSet._from_bounds


def _count(bounds: tuple[int, ...]) -> int:
    """Granules covered by canonical ``bounds``."""
    return sum(bounds[1::2]) - sum(bounds[::2])


_EMPTY = _make((), 0)


def _merge_sorted(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Canonical bounds of non-empty ``(start, stop)`` pairs sorted by start."""
    out: list[int] = []
    for s, e in pairs:
        if out and s <= out[-1]:
            if e > out[-1]:
                out[-1] = e
        else:
            out.append(s)
            out.append(e)
    return tuple(out)


def _gaps(b: tuple[int, ...], lo: int, hi: int) -> tuple[int, ...]:
    """Bounds of ``[lo, hi)`` minus the canonical ``b``.

    ``b``'s bounds inside the window, read with the roles of starts and
    stops swapped, are the gaps; ``lo`` and ``hi`` close the first and
    last gap unless they fall inside one of ``b``'s ranges.
    """
    i = bisect_right(b, lo)
    j = bisect_left(b, hi, i)
    out = b[i:j]
    if not i & 1:
        out = (lo,) + out
    if not j & 1:
        out += (hi,)
    return out


def _intersect(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Bounds of the intersection of two canonical bound tuples.

    Walks the operand with fewer ranges and clips the other to each of
    its ranges by ``bisect``; ranges of the walked operand are separated
    by gaps, so the clipped pieces come out canonical.
    """
    if len(a) > len(b):
        a, b = b, a
    out: list[int] = []
    j = 0
    for k in range(0, len(a), 2):
        s, e = a[k], a[k + 1]
        i = bisect_right(b, s, j)
        j = bisect_left(b, e, i)
        if i & 1:
            out.append(s)
        out.extend(b[i:j])
        if j & 1:
            out.append(e)
    return tuple(out)


def _union(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Bounds of the union of two canonical bound tuples.

    A two-pointer merge by range start that keeps the range being grown
    in locals and emits it once the next start lies beyond it.
    """
    out: list[int] = []
    na, nb = len(a), len(b)
    if a[0] <= b[0]:
        lo, hi, i, j = a[0], a[1], 2, 0
    else:
        lo, hi, i, j = b[0], b[1], 0, 2
    while i < na and j < nb:
        if a[i] <= b[j]:
            s, e = a[i], a[i + 1]
            i += 2
        else:
            s, e = b[j], b[j + 1]
            j += 2
        if s > hi:
            out += (lo, hi)
            lo, hi = s, e
        elif e > hi:
            hi = e
    rest, k = (a, i) if i < na else (b, j)
    # the rest of one operand: absorb what the current range reaches, copy the tail
    n = len(rest)
    while k < n and rest[k] <= hi:
        if rest[k + 1] > hi:
            hi = rest[k + 1]
        k += 2
    out += (lo, hi)
    out += rest[k:]
    return tuple(out)
