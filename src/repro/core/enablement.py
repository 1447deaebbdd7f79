"""Composite granule maps and enablement counters.

For the indirect mappings the paper prescribes exactly this machinery:

    "Once the values of the information selection map … have been
    determined, it is a simple matter to produce a composite map of first
    phase granules that must be completed in order to enable a particular
    second phase granule."

    "during completion processing, a status bit … can be checked and, if
    it is set, an enablement counter decremented.  When the enablement
    counter reaches zero, it can be taken as a signal that the
    successor-phase granules are computable."

    "It would seem appropriate to identify a subset group of
    successor-phase granules that are to be the subject of the enablement
    operation so as to avoid solving an unnecessarily large enablement
    problem."

:class:`CompositeGranuleMap` is the executive-built table from successor
subset groups to required predecessor granule sets;
:class:`EnablementCounter` is the per-group countdown;
:class:`EnablementEngine` drives either the counter machinery (indirect
mappings) or direct incremental evaluation (universal / identity / seam)
during completion processing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.granule import GranuleSet
from repro.core.mapping import EnablementMapping, _group_index_arrays

__all__ = [
    "EnablementCounter",
    "CompositeGroup",
    "CompositeGranuleMap",
    "CompositeMapCache",
    "EnablementEngine",
    "maps_fingerprint",
]


def maps_fingerprint(maps: Mapping[str, np.ndarray] | None):
    """A stable, cheap identity key for a set of concrete selection maps.

    Two map collections with the same fingerprint hold element-identical
    arrays, so composite-map work keyed on the fingerprint can be reused
    across runs (see :class:`CompositeMapCache`).  Stores that already
    know their identity (e.g. :class:`repro.sweep.shm.SharedMapStore`
    attachments, whose arrays are immutable shared segments) expose a
    ``fingerprint()`` method and skip the content hash entirely.
    """
    if maps is None:
        return None
    fp = getattr(maps, "fingerprint", None)
    if callable(fp):
        return fp()
    items = []
    for name in sorted(maps):
        arr = np.asarray(maps[name])
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        items.append((name, arr.shape, str(arr.dtype), zlib.crc32(arr)))
    return tuple(items)


class EnablementCounter:
    """Countdown over a required predecessor granule set.

    The successor work it guards becomes computable when every required
    granule has completed — "it is enabled not by the completion of any
    one such granule but by the completion of all the identified
    granules."
    """

    def __init__(self, required: GranuleSet) -> None:
        self._remaining = required
        self._required = required
        self.fired = len(required) == 0

    @property
    def required(self) -> GranuleSet:
        """The full original requirement."""
        return self._required

    @property
    def remaining(self) -> GranuleSet:
        """Required granules not yet completed."""
        return self._remaining

    @property
    def count(self) -> int:
        """The enablement counter value (granules still outstanding)."""
        return len(self._remaining)

    def on_complete(self, done: GranuleSet) -> bool:
        """Credit completed granules; True exactly when the counter hits zero."""
        if self.fired:
            return False
        self._remaining = self._remaining - done
        if not self._remaining:
            self.fired = True
            return True
        return False


@dataclass(frozen=True, slots=True)
class CompositeGroup:
    """One composite-map entry: a successor subset and its requirement."""

    successors: GranuleSet
    required: GranuleSet


class CompositeGranuleMap:
    """Executive-generated table: successor subset group -> required set.

    Parameters
    ----------
    groups:
        The composite entries.  Successor subsets must be disjoint.

    Notes
    -----
    Generation cost matters: on the paper's UNIVAC test bed "executive
    computation was done at the direct expense of worker computation …
    extensive composite granule map generation could be self defeating."
    :meth:`build_cost` quantifies it so the simulator can charge the
    executive.
    """

    def __init__(self, groups: list[CompositeGroup]) -> None:
        covered = GranuleSet.union_all(g.successors for g in groups)
        # the union loses granules exactly when two groups share one
        if len(covered) != sum(len(g.successors) for g in groups):
            raise ValueError("composite map successor groups must be disjoint")
        self.groups = list(groups)
        self.covered = covered
        # build provenance, set by build(); None for hand-assembled maps
        self._build_args: tuple | None = None
        #: groups recomputed by the last build (== len(groups) for a cold
        #: build; the rebuild win is visible as reused = total - rebuilt)
        self.rebuilt_groups: int = len(groups)

    @staticmethod
    def _chunk(space: GranuleSet, group_size: int) -> list[GranuleSet]:
        """Partition a successor space into subset groups of ``group_size``.

        Deterministic front-to-back chunking: two spaces that agree on a
        granule prefix produce identical leading chunks, which is what
        makes the target-only rebuild reuse effective.
        """
        subsets: list[GranuleSet] = []
        rest = space
        while rest:
            head, rest = rest.take(group_size)
            subsets.append(head)
        return subsets

    @classmethod
    def build(
        cls,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
        reuse: "CompositeGranuleMap | None" = None,
    ) -> "CompositeGranuleMap":
        """Build the composite map via the mapping's reverse direction.

        ``group_size`` granules per subset group trades table size against
        enablement latency (bigger groups fire later but cost less to
        build and check).  ``target`` restricts generation to a subset of
        the successor space — the paper's "subset group … to avoid
        solving an unnecessarily large enablement problem".

        ``reuse`` is a previously built map for the *same* ``(mapping,
        n_pred, n_succ, maps, group_size)``: any subset group whose
        successor set already appears there keeps its computed requirement
        and only the remainder goes through ``required_for_many`` — the
        incremental path behind :meth:`rebuild_targets`.  The caller is
        responsible for the sameness precondition (:class:`CompositeMapCache`
        enforces it with :func:`maps_fingerprint`).
        """
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        space = target if target is not None else GranuleSet.universe(n_succ)
        subsets = cls._chunk(space, group_size)
        cached: dict[GranuleSet, GranuleSet] = {}
        if reuse is not None:
            cached = {g.successors: g.required for g in reuse.groups}
        missing = [s for s in subsets if s not in cached] if cached else subsets
        # one bulk reverse-mapping pass instead of a required_for call
        # (with its per-call map validation) per subset group; its answers
        # come back in ``missing`` order, which is ``subsets`` order
        fresh = iter(mapping.required_for_many(missing, n_pred, n_succ, maps))
        groups = [
            CompositeGroup(
                successors=s, required=cached[s] if cached and s in cached else next(fresh)
            )
            for s in subsets
        ]
        out = cls(groups)
        out._build_args = (mapping, n_pred, n_succ, maps, group_size)
        out.rebuilt_groups = len(missing)
        return out

    def rebuild_targets(self, target: GranuleSet | None) -> "CompositeGranuleMap":
        """Rebuild this map for a different successor ``target`` set.

        Adjacent parameter-grid points often differ *only* in the targeted
        successor subset (the ``target_fraction`` axis): the mapping, the
        concrete selection maps and the group size are all unchanged, so
        every subset group shared between the old and new partition keeps
        its requirement and only the target-dependent suffix is recomputed.
        Only available on maps produced by :meth:`build` (hand-assembled
        maps carry no provenance to rebuild from).
        """
        if self._build_args is None:
            raise ValueError(
                "rebuild_targets needs a map produced by CompositeGranuleMap.build"
            )
        mapping, n_pred, n_succ, maps, group_size = self._build_args
        return CompositeGranuleMap.build(
            mapping, n_pred, n_succ, maps, group_size=group_size, target=target, reuse=self
        )

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def total_required(self) -> int:
        """Sum of requirement sizes — the map-generation workload measure."""
        return sum(len(g.required) for g in self.groups)

    def build_cost(self, cost_per_entry: float) -> float:
        """Executive time to generate this map."""
        if cost_per_entry < 0:
            raise ValueError(f"negative cost_per_entry {cost_per_entry}")
        return cost_per_entry * self.total_required()

    def required_union(self) -> GranuleSet:
        """All predecessor granules that enable anything in the map.

        The control strategy elevates these in the waiting queue: "they
        should be split into individual descriptions and placed in the
        waiting computation queue in such a manner as to elevate their
        computational priority."
        """
        return GranuleSet.union_all(g.required for g in self.groups)


class CompositeMapCache:
    """Process-local memo of built composite maps, keyed by link identity.

    A parameter-grid sweep runs many executive simulations in the same
    worker process; adjacent grid points frequently share the mapping, the
    concrete selection maps and the group size and differ only in the
    targeted successor subset (the ``target_fraction`` axis).  This cache
    recognizes that case — identity is ``(mapping repr, n_pred, n_succ,
    group_size,`` :func:`maps_fingerprint` ``)`` — and answers it with
    :meth:`CompositeGranuleMap.rebuild_targets`, recomputing only the
    target-dependent suffix instead of the whole table.

    The cache never changes results: a hit rebuilds through the same
    ``required_for_many`` reverse mapping a cold build would run, group by
    group, so the produced map is element-identical (the Hypothesis
    differential tests pin this).  ``hits`` / ``misses`` /
    ``groups_reused`` expose the win for telemetry and benchmarks.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._entries: dict[tuple, CompositeGranuleMap] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.groups_reused = 0

    def build(
        self,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
    ) -> CompositeGranuleMap:
        """Drop-in for :meth:`CompositeGranuleMap.build` with reuse."""
        key = (repr(mapping), n_pred, n_succ, group_size, maps_fingerprint(maps))
        prev = self._entries.get(key)
        if prev is not None:
            out = prev.rebuild_targets(target)
            self.hits += 1
            self.groups_reused += len(out.groups) - out.rebuilt_groups
        else:
            out = CompositeGranuleMap.build(
                mapping, n_pred, n_succ, maps, group_size=group_size, target=target
            )
            self.misses += 1
            while len(self._entries) >= self._max_entries:
                self._entries.pop(next(iter(self._entries)))
        self._entries[key] = out
        return out


class EnablementEngine:
    """Per-link enablement tracker driven by completion processing.

    Two operating modes, chosen from the mapping kind:

    * **direct** — universal, identity, seam, null: evaluate the forward
      mapping incrementally on each completion;
    * **counter** — reverse / forward indirect: build a
      :class:`CompositeGranuleMap` (costed separately by the executive)
      and decrement :class:`EnablementCounter` instances.

    ``notify(delta)`` returns the successor granules that have *just*
    become enabled, never repeating earlier answers.

    The counter mode has two notify implementations, pinned
    element-identical by a differential property test:

    * ``indexed=True`` (the default) — counter values live in one int64
      array and a whole completion delta is credited with a single
      ``np.bincount`` over a CSR inverted index, no per-group Python
      loop until something actually fires;
    * ``indexed=False`` — scan every counter per completion (the
      reference).

    In indexed mode the per-group :class:`EnablementCounter` objects keep
    their ``required`` set and have ``fired`` synced when a group fires,
    but their ``remaining`` sets are **not** maintained — the
    authoritative countdown is the array.
    """

    def __init__(
        self,
        mapping: EnablementMapping,
        n_pred: int,
        n_succ: int,
        maps: Mapping[str, np.ndarray] | None = None,
        group_size: int = 1,
        target: GranuleSet | None = None,
        indexed: bool = True,
        composite_cache: CompositeMapCache | None = None,
    ) -> None:
        self.mapping = mapping
        self.n_pred = n_pred
        self.n_succ = n_succ
        self.maps = maps
        self.completed = GranuleSet.empty()
        self._enabled = GranuleSet.empty()
        self.composite: CompositeGranuleMap | None = None
        self._counters: list[tuple[GranuleSet, EnablementCounter]] = []
        self._deferred: GranuleSet = GranuleSet.empty()
        # universes are immutable; recomputing them per pending/notify call
        # was a measurable constant drag on completion processing
        self._pred_universe = GranuleSet.universe(n_pred)
        self._succ_universe = GranuleSet.universe(n_succ)
        # CSR inverted index: predecessor granule -> counter groups it
        # credits.  None means "scan every group" (reference behaviour,
        # kept for differential tests and benchmarks).
        self._index_offsets: np.ndarray | None = None
        self._index_gids: np.ndarray | None = None
        # vectorized counter state: outstanding-credit count and fired flag
        # per composite group, None unless the indexed path is active
        self._counts: np.ndarray | None = None
        self._group_fired: np.ndarray | None = None

        if mapping.kind.indirect:
            build = composite_cache.build if composite_cache is not None else CompositeGranuleMap.build
            self.composite = build(
                mapping, n_pred, n_succ, maps, group_size=group_size, target=target
            )
            for g in self.composite.groups:
                self._counters.append((g.successors, EnablementCounter(g.required)))
            # successor granules outside the targeted subset wait for phase end
            self._deferred = self._succ_universe - self.composite.covered
            # groups with empty requirements are enabled immediately
            initially = [succ for succ, counter in self._counters if counter.fired]
            if initially:
                self._enabled = GranuleSet.union_all(initially)
            if indexed:
                self._build_index()
                self._counts = np.array(
                    [counter.count for _, counter in self._counters], dtype=np.int64
                )
                self._group_fired = np.array(
                    [counter.fired for _, counter in self._counters], dtype=bool
                )
        else:
            self._enabled = mapping.enabled_by(self.completed, n_pred, n_succ, maps)

    def _build_index(self) -> None:
        """Invert the composite map: predecessor granule -> group ids.

        The paper's completion processing checks "a status bit" per
        completed granule; the CSR layout here is that status check —
        ``notify(delta)`` touches only the groups ``delta`` credits
        instead of scanning every enablement counter.
        """
        # every (pred granule, group id) pair the requirements name
        preds, entry_gids = _group_index_arrays(
            [counter.required for _, counter in self._counters]
        )
        order = np.argsort(preds, kind="stable")
        sorted_preds = preds[order]
        self._index_gids = entry_gids[order]
        self._index_offsets = np.searchsorted(
            sorted_preds, np.arange(self.n_pred + 1, dtype=np.int64)
        )

    @property
    def enabled(self) -> GranuleSet:
        """Every successor granule enabled so far."""
        return self._enabled

    @property
    def pending(self) -> GranuleSet:
        """Successor granules not yet enabled."""
        return self._succ_universe - self._enabled

    def initially_enabled(self) -> GranuleSet:
        """Successor granules enabled before any completion (universal etc.)."""
        return self._enabled

    def notify(self, delta: GranuleSet) -> GranuleSet:
        """Process completion of ``delta`` predecessor granules.

        Returns the *newly* enabled successor granules.
        """
        if not delta:
            return GranuleSet.empty()
        fresh = delta - self.completed
        if not fresh:
            # a replayed/duplicate completion (retried task, crash
            # re-execution) must be a strict no-op: counters were already
            # credited and nothing new can fire — ``completed`` is
            # unchanged, so the deferred release below cannot trigger
            return GranuleSet.empty()
        self.completed = self.completed | delta
        newly = GranuleSet.empty()
        if self._counters:
            if self._counts is not None:
                newly = self._notify_vectorized(fresh)
            else:
                fired = [
                    succ for succ, counter in self._counters if counter.on_complete(fresh)
                ]
                if fired:
                    newly = GranuleSet.union_all(fired)
            if self._deferred and len(self.completed) >= self.n_pred:
                newly = newly | self._deferred
                self._deferred = GranuleSet.empty()
        else:
            now_enabled = self.mapping.enabled_by(self.completed, self.n_pred, self.n_succ, self.maps)
            newly = now_enabled - self._enabled
        self._enabled = self._enabled | newly
        return newly

    def _notify_vectorized(self, fresh: GranuleSet) -> GranuleSet:
        """Credit ``fresh`` completions in bulk through the inverted index.

        The index enumerates each ``(predecessor granule, group)`` pair
        exactly once and ``fresh`` is disjoint from everything already
        credited, so one ``np.bincount`` over the index slices for the
        fresh ranges yields ``|fresh ∩ required|`` per group — the whole
        delta lands in a single vectorized subtraction.
        """
        offsets, gids = self._index_offsets, self._index_gids
        counts, fired_mask = self._counts, self._group_fired
        assert offsets is not None and gids is not None
        assert counts is not None and fired_mask is not None
        parts: list[np.ndarray] = []
        for start, stop in fresh.spans():
            lo = offsets[min(max(start, 0), self.n_pred)]
            hi = offsets[min(max(stop, 0), self.n_pred)]
            if hi > lo:
                parts.append(gids[lo:hi])
        if not parts:
            return GranuleSet.empty()
        touched = np.concatenate(parts) if len(parts) > 1 else parts[0]
        counts -= np.bincount(touched, minlength=len(counts))
        newly_fired = np.nonzero((counts <= 0) & ~fired_mask)[0]
        if newly_fired.size == 0:
            return GranuleSet.empty()
        fired_mask[newly_fired] = True
        fired: list[GranuleSet] = []
        for gi in newly_fired:
            succ, counter = self._counters[gi]
            counter.fired = True
            fired.append(succ)
        return GranuleSet.union_all(fired)

    def complete_all(self) -> GranuleSet:
        """Force phase completion; returns whatever was still pending."""
        remaining = self._pred_universe - self.completed
        newly = self.notify(remaining) if remaining else GranuleSet.empty()
        # Even with every predecessor complete, counters for targeted groups
        # have fired; anything left in the successor space is now free.
        leftover = self._succ_universe - self._enabled
        self._enabled = self._succ_universe
        return newly | leftover
