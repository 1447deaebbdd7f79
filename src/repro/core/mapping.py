"""The enablement-mapping taxonomy of Jones (1986).

An *enablement mapping* relates completed granules of the current phase to
granules of the succeeding phase that may now be computed correctly.  The
paper observes five forms in PAX/CASPER and foresees one more:

===================  =========================================  ==========
Kind                 Fortran shape (paper)                      PAX/CASPER
===================  =========================================  ==========
universal            ``B(I)=A(I)`` then ``D(I)=C(I)``           6/22 phases
identity (direct)    ``B(I)=A(I)`` then ``C(I)=B(I)``           9/22 phases
null                 serial actions between phases              4/22 phases
reverse indirect     ``B(I) += A(IMAP(J,I))``                   2/22 phases
forward indirect     ``B(IMAP(I))=A(IMAP(I))`` then             1/22 phases
                     ``C(I)=B(I)``
seam (foreseen)      checkerboard neighbour stencil             future work
===================  =========================================  ==========

Every mapping answers two questions:

``enabled_by(completed)``
    which successor granules are enabled once ``completed`` predecessor
    granules have finished — the *forward* direction used on each
    completion event;
``required_for(successors)``
    which predecessor granules must complete to enable the given successor
    granules — the *reverse* direction used to build composite granule
    maps and to elevate the priority of enabling granules.

Both are pure set-to-set functions on :class:`~repro.core.granule.GranuleSet`.
"""

from __future__ import annotations

import enum
from typing import Mapping

import numpy as np

from repro.core.granule import GranuleSet

__all__ = [
    "MappingKind",
    "EnablementMapping",
    "UniversalMapping",
    "IdentityMapping",
    "NullMapping",
    "ReverseIndirectMapping",
    "ForwardIndirectMapping",
    "SeamMapping",
]


class MappingKind(enum.Enum):
    """The taxonomy labels, with the paper's names."""

    UNIVERSAL = "universal"
    IDENTITY = "identity"
    NULL = "null"
    REVERSE_INDIRECT = "reverse_indirect"
    FORWARD_INDIRECT = "forward_indirect"
    SEAM = "seam"

    @property
    def overlappable(self) -> bool:
        """Whether any overlap is possible at all (only NULL forbids it)."""
        return self is not MappingKind.NULL

    @property
    def easily_overlapped(self) -> bool:
        """The paper's "simple and plausible steps" set: universal + identity."""
        return self in (MappingKind.UNIVERSAL, MappingKind.IDENTITY)

    @property
    def indirect(self) -> bool:
        """Mappings that need a composite granule map from the executive."""
        return self in (MappingKind.REVERSE_INDIRECT, MappingKind.FORWARD_INDIRECT)


class EnablementMapping:
    """Base class: a set-to-set relation between phase granule spaces."""

    kind: MappingKind

    def enabled_by(
        self,
        completed: GranuleSet,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
    ) -> GranuleSet:
        """Successor granules enabled once ``completed`` have finished."""
        raise NotImplementedError

    def required_for(
        self,
        successors: GranuleSet,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
    ) -> GranuleSet:
        """Predecessor granules whose completion enables ``successors``."""
        raise NotImplementedError

    def newly_enabled(
        self,
        before: GranuleSet,
        after: GranuleSet,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
    ) -> GranuleSet:
        """Successor granules enabled by ``after`` but not by ``before``."""
        return self.enabled_by(after, n_pred, n_succ, maps) - self.enabled_by(
            before, n_pred, n_succ, maps
        )

    def required_for_many(
        self,
        groups: list[GranuleSet],
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
    ) -> list[GranuleSet]:
        """``required_for`` of every group in one call.

        Composite-map generation asks this question once per subset group;
        the indirect mappings override it with a single vectorized pass
        over the concrete map instead of per-group scans (the map array is
        validated once, not ``len(groups)`` times).  The base
        implementation is the per-group loop.
        """
        return [self.required_for(g, n_pred, n_succ, maps) for g in groups]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniversalMapping(EnablementMapping):
    """Any successor granule is enabled by any set — including the null set.

    The two phases share no information; they can be entirely overlapped.
    "This represents what might be called a universal mapping function
    wherein any granule of the second computational phase is enabled by
    any granule or set of granules (including the null set) of the first."
    """

    kind = MappingKind.UNIVERSAL

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        return GranuleSet.universe(n_succ)

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        return GranuleSet.empty()


class IdentityMapping(EnablementMapping):
    """Completion of predecessor granule *i* enables successor granule *i*.

    The paper's "identity mapping function (I = I)" observed for
    ``B(I)=A(I)`` followed by ``C(I)=B(I)``.  Granule spaces may differ in
    size; indices outside the smaller space behave like universal
    enablement (there is no producing/consuming partner to wait for).
    """

    kind = MappingKind.IDENTITY

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        within = completed & GranuleSet.universe(min(n_pred, n_succ))
        if n_succ > n_pred:
            # successor granules with no predecessor partner are free
            within = within | GranuleSet.from_ranges([(n_pred, n_succ)])
        return within

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        return successors & GranuleSet.universe(n_pred)


class NullMapping(EnablementMapping):
    """No overlap is possible.

    "In all cases the cause was not that such an overlapping did not exist
    between the parallel computations but was, in fact, that serial
    actions and decisions had to occur between the phases."  The optional
    ``serial_cost`` is the duration of that inter-phase serial action,
    charged to the executive between the phases.
    """

    kind = MappingKind.NULL

    def __init__(self, serial_cost: float = 0.0) -> None:
        if serial_cost < 0:
            raise ValueError(f"negative serial cost {serial_cost}")
        self.serial_cost = serial_cost

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        if len(completed & GranuleSet.universe(n_pred)) >= n_pred:
            return GranuleSet.universe(n_succ)
        return GranuleSet.empty()

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        if successors:
            return GranuleSet.universe(n_pred)
        return GranuleSet.empty()

    def __repr__(self) -> str:
        return f"NullMapping(serial_cost={self.serial_cost})"


class ReverseIndirectMapping(EnablementMapping):
    """Successor granule *i* requires predecessor granules ``IMAP[:, i]``.

    Models ``B(I) = B(I) + A(IMAP(J, I))``: "knowing that a particular
    first phase granule is complete does not directly identify any
    distinct second phase granule as computable; however, a reverse
    mapping from desired second phase granule to required first phase
    granules is possible."

    Parameters
    ----------
    map_name:
        Key of the concrete map in the ``maps`` mapping.  The array must
        have shape ``(fan_in, n_succ)`` (or ``(n_succ,)`` when
        ``fan_in == 1``), entries in ``[0, n_pred)``.
    fan_in:
        Number of predecessor granules each successor granule consumes.
    """

    kind = MappingKind.REVERSE_INDIRECT

    def __init__(self, map_name: str = "IMAP", fan_in: int = 1) -> None:
        if fan_in < 1:
            raise ValueError(f"fan_in must be >= 1, got {fan_in}")
        self.map_name = map_name
        self.fan_in = fan_in

    def _map(self, maps: Mapping[str, np.ndarray] | None, n_succ: int) -> np.ndarray:
        if maps is None or self.map_name not in maps:
            raise KeyError(
                f"reverse indirect mapping needs concrete map {self.map_name!r}; "
                "the executive must generate it at or after first-phase initiation"
            )
        arr = np.asarray(maps[self.map_name])
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.shape != (self.fan_in, n_succ):
            raise ValueError(
                f"map {self.map_name!r} has shape {arr.shape}, expected ({self.fan_in}, {n_succ})"
            )
        return arr

    def _completed_mask(self, completed: GranuleSet, n_pred: int) -> np.ndarray:
        mask = np.zeros(n_pred, dtype=bool)
        for lo, hi in completed.spans():
            mask[max(0, lo) : min(n_pred, hi)] = True
        return mask

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        arr = self._map(maps, n_succ)
        done = self._completed_mask(completed, n_pred)
        enabled = done[arr].all(axis=0)
        return _mask_to_set(enabled)

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        arr = self._map(maps, n_succ)
        idx = np.fromiter(successors, dtype=np.intp, count=len(successors))
        if idx.size == 0:
            return GranuleSet.empty()
        needed = np.unique(arr[:, idx])
        return GranuleSet.from_sorted_ids(needed)

    def required_for_many(self, groups, n_pred, n_succ, maps=None) -> list[GranuleSet]:
        arr = self._map(maps, n_succ)
        idx, gids = _group_index_arrays(groups)
        if idx.size == 0:
            return [GranuleSet.empty() for _ in groups]
        keys = np.unique(gids[np.newaxis, :] * np.int64(n_pred) + arr[:, idx])
        return _sets_from_group_keys(keys, len(groups), n_pred)

    def __repr__(self) -> str:
        return f"ReverseIndirectMapping(map_name={self.map_name!r}, fan_in={self.fan_in})"


class ForwardIndirectMapping(EnablementMapping):
    """Predecessor granule *g* produces successor granules ``FMAP[:, g]``.

    Models ``B(IMAP(I)) = A(IMAP(I))`` followed by ``C(I) = B(I)``:
    "the identification of a particular granule in the first phase can be
    directly mapped to an enabled granule in the successor phase".

    Successor granules outside the image of the map have no producer in
    the first phase and are enabled from the outset.  Successor granules
    touched by several predecessor granules (duplicate map entries) need
    *all* their producers to complete.

    Parameters
    ----------
    map_name:
        Key of the concrete forward map: shape ``(n_pred,)`` when
        ``fan_out == 1``, else ``(fan_out, n_pred)``; entries in
        ``[0, n_succ)``.
    fan_out:
        Successor granules each predecessor granule touches (a fan-in
        read on the predecessor side becomes a fan-out obligation here).
    """

    kind = MappingKind.FORWARD_INDIRECT

    def __init__(self, map_name: str = "FMAP", fan_out: int = 1) -> None:
        if fan_out < 1:
            raise ValueError(f"fan_out must be >= 1, got {fan_out}")
        self.map_name = map_name
        self.fan_out = fan_out

    def _map(self, maps: Mapping[str, np.ndarray] | None, n_pred: int) -> np.ndarray:
        if maps is None or self.map_name not in maps:
            raise KeyError(f"forward indirect mapping needs concrete map {self.map_name!r}")
        arr = np.asarray(maps[self.map_name])
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.shape != (self.fan_out, n_pred):
            raise ValueError(
                f"map {self.map_name!r} has shape {np.asarray(maps[self.map_name]).shape}, "
                f"expected ({self.fan_out}, {n_pred}) or ({n_pred},) for fan_out=1"
            )
        return arr

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        arr = self._map(maps, n_pred)
        done = np.zeros(n_pred, dtype=bool)
        for lo, hi in completed.spans():
            done[max(0, lo) : min(n_pred, hi)] = True
        # successor granule i is blocked while any incomplete predecessor maps to it
        blocked = np.zeros(n_succ, dtype=bool)
        pending_targets = arr[:, ~done].ravel()
        blocked[pending_targets[pending_targets < n_succ]] = True
        return _mask_to_set(~blocked)

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        arr = self._map(maps, n_pred)
        wanted = np.zeros(n_succ, dtype=bool)
        for lo, hi in successors.spans():
            wanted[max(0, lo) : min(n_succ, hi)] = True
        touches_wanted = (wanted[np.clip(arr, 0, n_succ - 1)] & (arr < n_succ)).any(axis=0)
        return GranuleSet.from_sorted_ids(np.nonzero(touches_wanted)[0])

    def required_for_many(self, groups, n_pred, n_succ, maps=None) -> list[GranuleSet]:
        arr = self._map(maps, n_pred)
        group_of = np.full(n_succ, -1, dtype=np.int64)
        for gi, g in enumerate(groups):
            for lo, hi in g.spans():
                group_of[max(0, lo) : min(n_succ, hi)] = gi
        # a predecessor belongs to every group one of its targets lands in
        hit = group_of[np.clip(arr, 0, n_succ - 1)]
        hit = np.where(arr < n_succ, hit, -1)
        pred_idx = np.broadcast_to(np.arange(n_pred, dtype=np.int64), hit.shape)
        mask = hit >= 0
        keys = np.unique(hit[mask] * np.int64(n_pred) + pred_idx[mask])
        return _sets_from_group_keys(keys, len(groups), n_pred)

    def __repr__(self) -> str:
        return f"ForwardIndirectMapping(map_name={self.map_name!r}, fan_out={self.fan_out})"


class SeamMapping(EnablementMapping):
    """Stencil-neighbour enablement — the paper's foreseen "seam mapping".

    "A seam mapping problem (such as would be appropriate for the
    checkerboard approach to the successive over-relaxation problem) can
    be foreseen."  Successor granule *i* requires predecessor granules
    ``i + o`` for each stencil offset ``o`` (clamped to the predecessor
    space).  With offsets ``(-1, 0, 1)`` this is the 1-D red/black seam;
    2-D grids flatten their neighbour structure into offsets of ``±1`` and
    ``±row_stride``.
    """

    kind = MappingKind.SEAM

    def __init__(self, offsets: tuple[int, ...] = (-1, 0, 1)) -> None:
        if not offsets:
            raise ValueError("seam mapping needs at least one stencil offset")
        self.offsets = tuple(sorted(set(int(o) for o in offsets)))

    @classmethod
    def grid(
        cls, blocks_x: int, neighborhood: str = "von_neumann"
    ) -> "SeamMapping":
        """Seam offsets for a row-major 2-D block decomposition.

        Granule ``i`` names block ``(i // blocks_x, i % blocks_x)`` of a
        block grid with ``blocks_x`` columns.  ``von_neumann`` couples the
        four edge neighbours (offsets ``±1, ±blocks_x``); ``moore`` adds
        the diagonals (``±blocks_x ± 1``) for 9-point stencils.

        Note that offsets ``±1`` wrap across block-row boundaries in the
        flattened numbering — a conservative over-approximation (the
        wrapped block completes in the same wave as the true neighbour),
        so enablement is safe, merely up to one block stricter at row
        edges.
        """
        if blocks_x < 1:
            raise ValueError(f"blocks_x must be >= 1, got {blocks_x}")
        if neighborhood == "von_neumann":
            offsets = (-blocks_x, -1, 0, 1, blocks_x)
        elif neighborhood == "moore":
            offsets = (
                -blocks_x - 1, -blocks_x, -blocks_x + 1,
                -1, 0, 1,
                blocks_x - 1, blocks_x, blocks_x + 1,
            )
        else:
            raise ValueError(f"unknown neighborhood {neighborhood!r}")
        return cls(offsets)

    def enabled_by(self, completed, n_pred, n_succ, maps=None) -> GranuleSet:
        done = np.zeros(n_pred, dtype=bool)
        for lo, hi in completed.spans():
            done[max(0, lo) : min(n_pred, hi)] = True
        enabled = np.ones(n_succ, dtype=bool)
        idx = np.arange(n_succ)
        for o in self.offsets:
            nb = idx + o
            valid = (nb >= 0) & (nb < n_pred)
            need = np.zeros(n_succ, dtype=bool)
            need[valid] = ~done[nb[valid]]
            enabled &= ~need
        return _mask_to_set(enabled)

    def required_for(self, successors, n_pred, n_succ, maps=None) -> GranuleSet:
        out: set[int] = set()
        for i in successors:
            for o in self.offsets:
                j = i + o
                if 0 <= j < n_pred:
                    out.add(j)
        return GranuleSet.from_ids(out)

    def required_for_many(self, groups, n_pred, n_succ, maps=None) -> list[GranuleSet]:
        idx, gids = _group_index_arrays(groups)
        if idx.size == 0:
            return [GranuleSet.empty() for _ in groups]
        parts: list[np.ndarray] = []
        for o in self.offsets:
            nb = idx + o
            valid = (nb >= 0) & (nb < n_pred)
            parts.append(gids[valid] * np.int64(n_pred) + nb[valid])
        keys = np.unique(np.concatenate(parts))
        return _sets_from_group_keys(keys, len(groups), n_pred)

    def __repr__(self) -> str:
        return f"SeamMapping(offsets={self.offsets})"


def _mask_to_set(mask: np.ndarray) -> GranuleSet:
    """Convert a boolean granule mask to a :class:`GranuleSet` of ranges.

    The mask's rising and falling edges are the set's bounds, in order.
    """
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return GranuleSet._from_edges(edges, int(np.count_nonzero(mask)))


def _group_index_arrays(groups: list[GranuleSet]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten subset groups to parallel (granule index, group id) arrays.

    All groups' bounds go to numpy at once and every range expands in
    one vectorized pass: a granule's index is its range's start plus its
    offset within the range.
    """
    flat: list[int] = []
    n_ranges: list[int] = []
    for g in groups:
        flat.extend(g.bounds)
        n_ranges.append(len(g.bounds) // 2)
    bounds = np.asarray(flat, dtype=np.int64)
    starts = bounds[0::2]
    lens = bounds[1::2] - starts
    first = np.cumsum(lens) - lens  # position of each range's first granule
    offsets = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(first, lens)
    idx = np.repeat(starts, lens) + offsets
    gids = np.repeat(np.repeat(np.arange(len(groups), dtype=np.int64), n_ranges), lens)
    return idx, gids


def _sets_from_group_keys(keys: np.ndarray, n_groups: int, n_pred: int) -> list[GranuleSet]:
    """Split sorted-unique ``gid * n_pred + pred`` keys into per-group sets.

    One numpy pass finds maximal runs of consecutive predecessors within a
    group (breaking runs at group boundaries, which can also differ by one
    in key space) and lays their bounds out flat in key order, so each
    group's canonical bounds are one slice of that list and its
    cardinality is its key count.
    """
    if keys.size == 0:
        return [GranuleSet.empty() for _ in range(n_groups)]
    gids = keys // n_pred
    preds = keys - gids * n_pred
    breaks = np.flatnonzero((np.diff(keys) != 1) | (np.diff(gids) != 0))
    start_idx = np.concatenate(([0], breaks + 1))
    stop_idx = np.concatenate((breaks, [keys.size - 1]))
    bounds = np.empty(2 * start_idx.size, dtype=np.int64)
    bounds[0::2] = preds[start_idx]
    bounds[1::2] = preds[stop_idx] + 1
    flat = bounds.tolist()
    cuts = (2 * np.searchsorted(gids[start_idx], np.arange(n_groups + 1))).tolist()
    sizes = np.bincount(gids, minlength=n_groups).tolist()
    return [
        GranuleSet._from_edges(flat[cuts[g] : cuts[g + 1]], sizes[g])
        for g in range(n_groups)
    ]
