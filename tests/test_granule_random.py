"""Seeded randomized differential tests for GranuleSet algebra.

Every operator is checked against the obvious ``set[int]`` model over
random interval soups, including the adjacency-merge edges the
two-pointer ``__or__`` and ``union_all`` fast paths must preserve
(``[0,2) | [2,4)`` is the single range ``[0,4)``, never two touching
ranges).  The canonical-form invariant — sorted, disjoint, non-adjacent,
non-empty ranges — is re-asserted after every operation because every
operation builds its result's bounds directly through ``_from_bounds``,
which checks nothing.  The tests at the end pin the flat-bounds layout:
the cached cardinality, single-range operands, hashing and pickling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.granule import GranuleSet

UNIVERSE = 120


def random_set(rng: np.random.Generator) -> GranuleSet:
    """A random interval soup; from_ranges normalizes overlaps for us."""
    n_ranges = int(rng.integers(0, 8))
    pairs = []
    for _ in range(n_ranges):
        start = int(rng.integers(0, UNIVERSE))
        stop = start + int(rng.integers(0, 12))
        pairs.append((start, stop))
    return GranuleSet.from_ranges(pairs)


def assert_canonical(s: GranuleSet) -> None:
    """The class invariant: sorted, disjoint, non-adjacent, non-empty."""
    ranges = s.ranges
    for r in ranges:
        assert r.start < r.stop
    for a, b in zip(ranges, ranges[1:]):
        assert a.stop < b.start  # `<` (not `<=`): adjacent runs must merge


def assert_matches_model(s: GranuleSet, model: set[int]) -> None:
    assert_canonical(s)
    assert set(s) == model
    assert len(s) == len(model)


@pytest.mark.parametrize("seed", range(40))
def test_binary_algebra_matches_set_model(seed):
    rng = np.random.default_rng(seed)
    a, b = random_set(rng), random_set(rng)
    ma, mb = set(a), set(b)

    assert_matches_model(a | b, ma | mb)
    assert_matches_model(a & b, ma & mb)
    assert_matches_model(a - b, ma - mb)
    assert a.issubset(b) == ma.issubset(mb)
    assert a.isdisjoint(b) == ma.isdisjoint(mb)
    assert (a == b) == (ma == mb)


@pytest.mark.parametrize("seed", range(40))
def test_take_matches_model(seed):
    rng = np.random.default_rng(seed + 1000)
    a = random_set(rng)
    model = sorted(a)
    n = int(rng.integers(0, len(model) + 3))
    taken, rest = a.take(n)
    assert_matches_model(taken, set(model[:n]))
    assert_matches_model(rest, set(model[n:]))
    assert_matches_model(taken | rest, set(model))
    assert taken.isdisjoint(rest)


@pytest.mark.parametrize("seed", range(40))
def test_union_all_matches_fold_and_model(seed):
    rng = np.random.default_rng(seed + 2000)
    sets = [random_set(rng) for _ in range(int(rng.integers(0, 10)))]
    bulk = GranuleSet.union_all(sets)

    folded = GranuleSet.empty()
    model: set[int] = set()
    for s in sets:
        folded = folded | s
        model |= set(s)
    assert bulk == folded
    assert_matches_model(bulk, model)


@pytest.mark.parametrize("seed", range(40))
def test_from_sorted_ids_matches_model(seed):
    rng = np.random.default_rng(seed + 3000)
    ids = np.unique(rng.integers(0, UNIVERSE, size=int(rng.integers(0, 60))))
    s = GranuleSet.from_sorted_ids(ids)
    assert_matches_model(s, set(int(i) for i in ids))
    assert s == GranuleSet.from_ids(int(i) for i in ids)


def test_adjacency_merge_edges():
    # touching ranges merge into one through every construction path
    a = GranuleSet.from_ranges([(0, 2)])
    b = GranuleSet.from_ranges([(2, 4)])
    assert (a | b).ranges == GranuleSet.from_ranges([(0, 4)]).ranges
    assert len((a | b).ranges) == 1

    chain = [GranuleSet.from_ranges([(i, i + 1)]) for i in range(10)]
    merged = GranuleSet.union_all(chain)
    assert merged.ranges == GranuleSet.from_ranges([(0, 10)]).ranges

    contiguous = GranuleSet.from_sorted_ids(np.arange(7))
    assert len(contiguous.ranges) == 1

    # interleaved evens then odds: fold must collapse to one range
    evens = GranuleSet.from_ids(range(0, 20, 2))
    odds = GranuleSet.from_ids(range(1, 20, 2))
    assert len((evens | odds).ranges) == 1
    assert len(GranuleSet.union_all([evens, odds]).ranges) == 1


def test_union_all_trivial_cases():
    assert GranuleSet.union_all([]) == GranuleSet.empty()
    one = GranuleSet.from_ranges([(3, 7)])
    assert GranuleSet.union_all([one]) == one
    assert GranuleSet.union_all([GranuleSet.empty(), one, GranuleSet.empty()]) == one


# ------------------------------------------------------------ flat-bounds layout
def recount(s: GranuleSet) -> int:
    """Cardinality summed from the bounds, independent of the cached one."""
    return sum(stop - start for start, stop in s.spans())


def assert_consistent(s: GranuleSet, model: set[int]) -> None:
    """Canonical, matches the model, and the cached ``len`` is exact."""
    assert_matches_model(s, model)
    assert len(s) == recount(s) == len(model)
    bounds = s.bounds
    assert list(bounds) == [x for r in s.ranges for x in (r.start, r.stop)]
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))


def random_single(rng: np.random.Generator) -> GranuleSet:
    """One contiguous range, sometimes empty."""
    start = int(rng.integers(0, UNIVERSE))
    return GranuleSet.from_ranges([(start, start + int(rng.integers(0, 40)))])


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("shape", ["single-soup", "soup-single", "single-single"])
def test_single_range_operands_on_both_sides(seed, shape):
    rng = np.random.default_rng(seed + 4000)
    left, right = shape.split("-")
    pick = {"single": random_single, "soup": random_set}
    a, b = pick[left](rng), pick[right](rng)
    ma, mb = set(a), set(b)
    assert_consistent(a | b, ma | mb)
    assert_consistent(a & b, ma & mb)
    assert_consistent(a - b, ma - mb)
    assert a.issubset(b) == ma.issubset(mb)
    assert a.isdisjoint(b) == ma.isdisjoint(mb)


@pytest.mark.parametrize("seed", range(40))
def test_cached_len_matches_recount_after_every_operation(seed):
    rng = np.random.default_rng(seed + 5000)
    a, b = random_set(rng), random_single(rng)
    ma, mb = set(a), set(b)
    assert_consistent(a, ma)
    assert_consistent(b, mb)
    assert_consistent(a | b, ma | mb)
    assert_consistent(a & b, ma & mb)
    assert_consistent(a - b, ma - mb)
    assert_consistent(b - a, mb - ma)
    assert_consistent(a.complement(UNIVERSE), set(range(UNIVERSE)) - ma)
    assert_consistent(GranuleSet.union_all([a, b, a]), ma | mb)
    ids = np.unique(rng.integers(0, UNIVERSE, size=int(rng.integers(0, 60))))
    assert_consistent(GranuleSet.from_sorted_ids(ids), set(ids.tolist()))
    for k in (0, len(a) // 2, len(a)):
        head, rest = a.take(k)
        assert len(head) == recount(head) and len(rest) == recount(rest)


@pytest.mark.parametrize("seed", range(20))
def test_take_at_every_k(seed):
    rng = np.random.default_rng(seed + 6000)
    a = random_set(rng) if seed % 2 else random_single(rng)
    model = sorted(a)
    for k in range(len(model) + 2):
        head, rest = a.take(k)
        assert_consistent(head, set(model[:k]))
        assert_consistent(rest, set(model[k:]))


@pytest.mark.parametrize("seed", range(20))
def test_equal_sets_hash_equal_and_work_as_dict_keys(seed):
    rng = np.random.default_rng(seed + 7000)
    a = random_set(rng)
    # the same set reached by different construction paths
    twins = [
        GranuleSet.from_ids(sorted(a, reverse=True)),
        GranuleSet.from_sorted_ids(np.fromiter(a, dtype=np.int64, count=len(a))),
        GranuleSet.union_all([a.take(len(a) // 2)[1], a.take(len(a) // 2)[0]]),
        (a | a) & a,
    ]
    table = {a: "value"}
    for t in twins:
        assert t == a and hash(t) == hash(a)
        assert table[t] == "value"
    assert len({a, *twins}) == 1


@pytest.mark.parametrize("seed", range(20))
def test_pickle_round_trip_and_sorted_ids_equal_ranges(seed):
    import pickle

    rng = np.random.default_rng(seed + 8000)
    a = random_set(rng)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and len(back) == len(a) and hash(back) == hash(a)
    ids = np.fromiter(a, dtype=np.int64, count=len(a))
    assert GranuleSet.from_sorted_ids(ids) == GranuleSet.from_ranges(a.spans())


@pytest.mark.parametrize("ids", [[3, 1, 2], [1, 1, 2], [0, 2, 2], [5, 4]])
def test_from_sorted_ids_rejects_ids_that_do_not_strictly_increase(ids):
    with pytest.raises(ValueError):
        GranuleSet.from_sorted_ids(ids)
