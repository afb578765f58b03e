"""The ordered index: a sorted run read beside a sorted record of writes.

``OrderedIndex`` (``repro.index.ordered``) backs the primary index, every
complete secondary index and the TRS-Tree's outlier buffer.  The property
here checks it against a dict-of-lists model: after every step of any
interleaving of ``insert`` / ``insert_many`` / ``delete`` — deletes of
missing pairs included, which raise and leave the index untouched — every
read entry point answers like the model, values and dtype, and the
index's structure check passes.  The unit tests pin single probes, loads,
deletes and accounting, the fold rule (a write folds once the record
would pass a quarter of the run; a read never folds and never writes),
concurrent readers of a record, and what a load retains.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.errors import KeyNotFoundError, StorageError
from repro.index import ordered
from repro.index.base import Index, KeyRange
from repro.index.ordered import OrderedIndex
from repro.segments import (
    offsets_from_counts,
    run_indices,
    segmented_unique,
    sorted_unique,
    split_segments,
)
from repro.storage.memory import btree_bytes

from reference import trs_lookup_scan

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def build(pairs) -> OrderedIndex:
    """An index loaded from ``pairs`` by one ``insert_many``."""
    pairs = list(pairs)
    index = OrderedIndex()
    index.insert_many([key for key, _ in pairs], [tid for _, tid in pairs])
    return index


def grown(pairs) -> OrderedIndex:
    """An index grown from ``pairs`` one batch of one at a time."""
    index = OrderedIndex()
    for key, tid in pairs:
        index.insert_many([key], [tid])
    return index


class FoldCounter:
    """Counts the folds of every ordered index."""

    def __init__(self, monkeypatch) -> None:
        self.folds = 0
        fold = OrderedIndex._fold

        def counting_fold(index, *args):
            self.folds += 1
            return fold(index, *args)

        monkeypatch.setattr(OrderedIndex, "_fold", counting_fold)


def recorded(index: OrderedIndex) -> int:
    """Entries of the record: the insert run and the dead positions."""
    return index._state.inserts.keys.size + index._state.dead.size


# ---------------------------------------------------------------------------
# The property: every read entry point against a dict-of-lists model

# Few distinct keys and tids, so duplicate keys and duplicate (key, tid)
# pairs are the norm; the outer keys lie outside the seeded key range.
KEYS = st.integers(min_value=-3, max_value=12).map(float)
SEED_KEYS = st.integers(min_value=0, max_value=9).map(float)
# Physical pointers are ints, logical ones primary-key values, which may be
# fractional: one arriving among int tids promotes the index to float64.
TIDS = st.one_of(st.integers(min_value=0, max_value=5),
                 st.integers(min_value=0, max_value=5).map(lambda n: n + 0.5))
INT_TIDS = st.integers(min_value=0, max_value=5)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS, TIDS),
        st.tuples(st.just("insert_many"),
                  st.lists(st.tuples(KEYS, TIDS), max_size=40)),
        # A live pair, by position; or any pair, often a missing one.
        st.tuples(st.just("delete_live"), st.integers(min_value=0)),
        st.tuples(st.just("delete"), KEYS, TIDS),
        # Half-open; drawn in either order, so often empty.
        st.tuples(st.just("delete_range"), KEYS, KEYS),
    ),
    max_size=40,
)

PROBE_RANGES = [KeyRange(2.0, 5.0), KeyRange(-10.0, 20.0), KeyRange(4.0, 4.0),
                KeyRange(-3.0, -1.0), KeyRange(10.5, 30.0), KeyRange(6.5, 6.6)]
PROBE_KEYS = np.asarray([4.0, -2.0, 4.0, 11.0, 6.5, 0.0, 9.0])
PROBE_KEY_OFFSETS = np.asarray([0, 2, 2, 5, 7], dtype=np.int64)


class Model:
    """Key -> tids in write order; a delete removes the first occurrence."""

    def __init__(self) -> None:
        self.entries: dict[float, list] = {}
        self.float_tids = False

    def insert(self, key: float, tid) -> None:
        self.entries.setdefault(key, []).append(tid)
        self.float_tids |= isinstance(tid, float)

    def delete(self, key: float, tid) -> bool:
        tids = self.entries.get(key, [])
        if tid not in tids:
            return False
        tids.remove(tid)
        if not tids:
            del self.entries[key]
        return True

    def delete_range(self, low: float, high: float) -> None:
        for key in [key for key in self.entries if low <= key < high]:
            del self.entries[key]

    def pairs(self) -> list[tuple[float, object]]:
        return [(key, tid) for key in sorted(self.entries)
                for tid in self.entries[key]]

    def under(self, low: float, high: float) -> list:
        return sorted(tid for key, tid in self.pairs() if low <= key <= high)


def check_every_read_entry_point(index: OrderedIndex, model: Model) -> None:
    """Values as multisets per key (a range's answer is the run's entries,
    then the insert run's), key order of ``items``, dtype, segment
    boundaries, read-only slices, and the index's structure check."""
    index.check_invariants()
    dtype = np.float64 if model.float_tids else np.int64
    items = list(index.items())
    assert [key for key, _ in items] == [key for key, _ in model.pairs()]
    assert sorted(items) == sorted(model.pairs())
    assert index.num_entries == len(items)
    for key_range in PROBE_RANGES:
        got = index.range_search_array(key_range)
        assert got.dtype == dtype
        assert got.flags.writeable is False
        assert sorted(got.tolist()) == model.under(key_range.low,
                                                   key_range.high)
        assert index.range_search(key_range) == got.tolist()
    values, offsets = index.range_search_segmented(PROBE_RANGES)
    assert values.dtype == dtype
    assert [segment.tolist() for segment in split_segments(values, offsets)] \
        == [index.range_search(key_range) for key_range in PROBE_RANGES]
    assert index.range_search_many_array(PROBE_RANGES).tolist() \
        == values.tolist()
    per_key, key_offsets = index.search_many_segmented(
        PROBE_KEYS, np.arange(PROBE_KEYS.size + 1))
    for key, segment in zip(PROBE_KEYS.tolist(),
                            split_segments(per_key, key_offsets)):
        assert sorted(segment.tolist()) == sorted(model.entries.get(key, []))
        assert index.search(key) == segment.tolist()
    flat = index.search_many(PROBE_KEYS)
    assert flat.dtype == dtype and flat.tolist() == per_key.tolist()
    values, offsets = index.search_many_segmented(PROBE_KEYS,
                                                  PROBE_KEY_OFFSETS)
    assert values.tolist() == flat.tolist()
    assert offsets.tolist() == key_offsets[PROBE_KEY_OFFSETS].tolist()


def record_kind(index: OrderedIndex) -> str:
    """What the index's record holds: nothing, inserts, dead marks, both."""
    state = index._state
    return {(False, False): "folded", (True, False): "inserts",
            (False, True): "dead", (True, True): "both"}[
        (bool(state.inserts.keys.size), bool(state.dead.size))]


def test_every_read_entry_point_follows_any_interleaving_of_writes():
    """Derandomised interleavings; across them, reads meet every kind of
    record the writes leave — inserts, dead positions, and both at once —
    and writes fold the record themselves."""
    met: set[str] = set()

    @settings(SETTINGS, derandomize=True, database=None)
    # Emptied after a float tid and loaded with ints: stays float64.
    @example(populated=False, seed=[],
             steps=[("insert", 0.0, 0.5), ("delete_live", 0),
                    ("insert_many", [(0.0, 0)])])
    @given(populated=st.booleans(),
           seed=st.lists(st.tuples(SEED_KEYS, INT_TIDS), max_size=20),
           steps=STEPS)
    def run(populated, seed, steps):
        # A populated index keeps small records; a tiny one folds on
        # nearly every write.
        if populated:
            seed = seed + [(float(i % 10), i % 4) for i in range(120)]
        index, model = build(seed), Model()
        for key, tid in seed:
            model.insert(key, tid)
        check_every_read_entry_point(index, model)
        for step in steps:
            kind = step[0]
            if kind == "insert":
                index.insert_many([step[1]], [step[2]])
                model.insert(step[1], step[2])
            elif kind == "insert_many":
                index.insert_many([key for key, _ in step[1]],
                                  [tid for _, tid in step[1]])
                for key, tid in step[1]:
                    model.insert(key, tid)
            elif kind == "delete_range":
                index.delete_range(step[1], step[2])
                model.delete_range(step[1], step[2])
            else:
                pairs = model.pairs()
                if kind == "delete_live":
                    if not pairs:
                        continue
                    pair = pairs[step[1] % len(pairs)]
                else:
                    pair = step[1:]
                if pair in pairs:
                    index.delete_many([pair[0]], [pair[1]])
                    model.delete(*pair)
                else:
                    state = index._state
                    storage = state.storage.copy()
                    with pytest.raises(KeyNotFoundError):
                        index.delete_many([pair[0]], [pair[1]])
                    assert index._state is state
                    assert np.array_equal(state.storage, storage)
            met.add(record_kind(index))
            check_every_read_entry_point(index, model)

    run()
    assert met == {"folded", "inserts", "dead", "both"}


# ---------------------------------------------------------------------------
# The fold rule


def test_a_write_folds_once_the_record_passes_a_quarter_of_the_run(
        monkeypatch):
    index = build((float(key), key) for key in range(100))
    counter = FoldCounter(monkeypatch)
    for number in range(25):            # 4 x 25 is not more than 100
        index.insert_many([200.0 + number], [number])
    assert counter.folds == 0 and index._state.run.keys.size == 100
    index.insert_many([300.0], [0])              # 4 x 26 is
    assert counter.folds == 1 and not recorded(index)
    assert index._state.run.keys.size == 126
    for key in range(31):               # 4 x 31 is not more than 126
        index.delete_many([float(key)], [key])
    assert counter.folds == 1
    index.delete_many([31.0], [31])
    assert counter.folds == 2 and index._state.run.keys.size == 94


def test_a_batch_past_a_quarter_of_the_run_folds_at_once(monkeypatch):
    index = build((float(key), key) for key in range(100))
    counter = FoldCounter(monkeypatch)
    index.insert_many(np.arange(200.0, 225.0), np.arange(25))
    assert counter.folds == 0 and recorded(index) == 25
    index.insert_many([300.0, 301.0], [0, 1])
    assert counter.folds == 1 and not recorded(index)
    run = index._state.run
    assert run.keys.size == 127 and run.num_keys == 127


def test_deleting_a_pending_insert_shrinks_the_record(monkeypatch):
    """A delete that finds its entry in the insert run takes it out there:
    the record shrinks, and no dead mark is left behind."""
    index = build((float(key), key) for key in range(100))
    counter = FoldCounter(monkeypatch)
    index.insert_many([7.0, 7.0, 50.5], [1_000, 7, 1_001])
    index.delete_many([7.0, 7.0, 50.5], [7, 7, 1_001])
    state = index._state
    assert state.dead.tolist() == [7]
    assert state.inserts.keys.tolist() == [7.0]
    assert state.inserts.tids.tolist() == [1_000]
    assert index.search(7.0) == [1_000] and index.search(50.5) == []
    assert counter.folds == 0
    index.check_invariants()


@pytest.mark.parametrize("pending", [False, True])
def test_a_delete_batch_takes_each_listing_once(pending):
    """A pair listed ``k`` times in one batch needs ``k`` stored entries:
    the batch is checked whole (run and record alike), and a pair listed
    once more than it is stored rejects all of it."""
    index = build([(1.0, 1), (1.0, 1), (1.0, 2), (2.0, 3)] * 10)
    if pending:
        index.insert_many([3.0, 3.0], [4, 4])
    else:
        index = build([(1.0, 1), (1.0, 1), (1.0, 2), (2.0, 3),
                       (3.0, 4), (3.0, 4)])
    assert index.holds_many([3.0, 1.0, 3.0, 3.0, 9.0, 1.0],
                            [4, 2, 4, 4, 4, 3]).tolist() == [
        True, True, True, False, False, False]
    before = sorted(index.items())
    with pytest.raises(KeyNotFoundError):
        index.delete_many([3.0, 3.0, 2.0, 3.0], [4, 4, 3, 4])
    assert sorted(index.items()) == before
    index.delete_many([3.0, 2.0, 3.0], [4, 3, 4])
    assert index.search(3.0) == [] and index.search(2.0) == [3] * (
        9 if pending else 0)


def test_a_missing_delete_raises_without_folding(monkeypatch):
    index = build([(1.0, 1), (2.0, 2), (2.0, 3)] * 10)
    index.insert_many([5.0], [50])
    index.delete_many([2.0], [3])
    counter = FoldCounter(monkeypatch)
    state = index._state
    storage = state.storage.copy()
    for key, tid in [(9.0, 1), (2.0, 1), (5.0, 51), (2.5, 2)]:
        with pytest.raises(KeyNotFoundError):
            index.delete_many([key], [tid])
    assert counter.folds == 0
    assert index._state is state and np.array_equal(state.storage, storage)
    # A pair still pending is present: insert-then-delete nets to nothing.
    index.delete_many([5.0], [50])
    with pytest.raises(KeyNotFoundError):
        index.delete_many([5.0], [50])
    assert index.search(5.0) == [] and index.num_entries == 29


def test_a_load_adopts_its_sorted_run(monkeypatch):
    """``insert_many`` into an empty index is the load: the batch, sorted
    stably, is the run, and nothing is recorded."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 5_000, 10_000).astype(np.float64)
    index = build(zip(keys.tolist(), range(10_000)))
    counter = FoldCounter(monkeypatch)
    order = np.argsort(keys, kind="stable")
    assert not recorded(index)
    assert index._state.run.keys.tolist() == keys[order].tolist()
    assert index._state.run.tids.tolist() == order.tolist()
    ranges = [KeyRange(float(low), float(low + 7))
              for low in range(0, 5_000, 97)]
    index.range_search_segmented(ranges)
    assert counter.folds == 0


TID_FORMS = {
    "int64": lambda numbers: np.asarray(numbers, dtype=np.int64),
    "int32": lambda numbers: np.asarray(numbers, dtype=np.int32),
    "fractional_float": lambda numbers: np.asarray(numbers) + 0.5,
    "python_ints": list,
}


@pytest.mark.parametrize("tid_form", sorted(TID_FORMS))
@SETTINGS
@given(pairs=st.lists(st.tuples(KEYS, INT_TIDS), min_size=1, max_size=60))
def test_a_load_types_tids_like_single_inserts(tid_form, pairs):
    """Ints are held as int64, floats as float64, however they arrive."""
    tids = TID_FORMS[tid_form]([tid for _, tid in pairs])
    loaded = OrderedIndex()
    loaded.insert_many(np.asarray([key for key, _ in pairs]), tids)
    one_by_one = grown(zip([key for key, _ in pairs], tids))
    assert loaded._state.storage.dtype == one_by_one._state.storage.dtype \
        == (np.float64 if tid_form == "fractional_float" else np.int64)
    assert sorted(loaded.items()) == sorted(one_by_one.items())


# Keys collide with a loaded key, or with each other, now and then.
SPARSE_KEYS = st.integers(min_value=0, max_value=80).map(float)
DISTINCT_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), SPARSE_KEYS),
        st.tuples(st.just("insert_many"), st.lists(SPARSE_KEYS, max_size=4)),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("probe")),
    ),
    max_size=40,
)


@SETTINGS
@given(loaded=st.integers(min_value=0, max_value=40), steps=DISTINCT_STEPS)
def test_distinct_key_count_follows_any_interleaving(loaded, steps):
    """The counts the primary-index point path rests on (every key of a
    run owns one entry when they equal its entries) are kept by the
    splices and the folds: after inserts and deletes in any order each
    run's count is its distinct keys (the structure check), and point
    probes answer by them correctly either way."""
    index = OrderedIndex()
    live = [(2.0 * number, number) for number in range(loaded)]
    if live:
        index.insert_many([key for key, _ in live], [tid for _, tid in live])
    tids = iter(range(loaded, 10_000))
    probe_keys = np.arange(-1.0, 82.0)
    for step in steps + [("probe",)]:
        kind = step[0]
        if kind == "insert":
            live.append((step[1], next(tids)))
            index.insert_many([live[-1][0]], [live[-1][1]])
        elif kind == "insert_many":
            pairs = [(key, next(tids)) for key in step[1]]
            index.insert_many([key for key, _ in pairs],
                              [tid for _, tid in pairs])
            live.extend(pairs)
        elif kind == "delete":
            if live:
                key, tid = live.pop(step[1] % len(live))
                index.delete_many([key], [tid])
        else:
            index.check_invariants()
            assert index.search_many(probe_keys).tolist() == [
                tid for probe in probe_keys.tolist()
                for key, tid in sorted(live, key=lambda pair: pair[0])
                if key == probe]


class TrsOwner:
    """The TRS-Tree's outlier index: every write lands in it.

    Eight leaves over [0, 9] (a kink on a child bound, off the piecewise
    candidates' knots, forces the root to split into exactly linear
    children), no outlier at build; written hosts lie far off every band.
    """

    FAR_HOST = -1e9

    def __init__(self) -> None:
        targets = np.linspace(0.0, 9.0, 400)
        self.tree = TRSTree(TRSTreeConfig(min_split_size=8))
        self.tree.build(targets, 100.0 * np.abs(targets - 3.375),
                        np.arange(400))
        assert self.tree.num_leaves == 8 and self.tree.num_outliers == 0

    def insert_many(self, keys, tids):
        self.tree.insert_many(keys, np.full(len(keys), self.FAR_HOST), tids)

    def delete(self, key, tid):
        before = self.tree.num_outliers
        self.tree.delete_many([key], [self.FAR_HOST], [tid])
        assert self.tree.num_outliers == before - 1

    def check(self):
        tree = self.tree
        tree.check_invariants()
        batch = tree.lookup_many(PROBE_RANGES)
        for position, key_range in enumerate(PROBE_RANGES):
            got = batch.outliers_for(position).tolist()
            assert got == tree.lookup(key_range).outlier_tids.tolist()
            assert sorted(got) == sorted(
                trs_lookup_scan(tree, key_range).outlier_tids)


@SETTINGS
@given(seed=st.lists(st.tuples(SEED_KEYS, INT_TIDS), max_size=20),
       steps=st.lists(st.tuples(st.booleans(), st.integers(min_value=0),
                                st.lists(st.tuples(KEYS, INT_TIDS),
                                         max_size=6)),
                      max_size=20))
def test_trs_outliers_follow_any_interleaving(seed, steps):
    """The TRS-Tree's scalar and batched lookups agree with a leaf scan on
    outliers filed, removed (present or not) and filed again."""
    owner = TrsOwner()
    live = list(seed)
    if live:
        owner.insert_many([key for key, _ in live], [tid for _, tid in live])
    owner.check()
    for delete, position, pairs in steps:
        if delete and live:
            owner.delete(*live.pop(position % len(live)))
        elif pairs:
            owner.insert_many([key for key, _ in pairs],
                              [tid for _, tid in pairs])
            live.extend(pairs)
        owner.check()


class IndexOwner:
    def __init__(self) -> None:
        self.index = OrderedIndex()

    def insert_many(self, keys, tids):
        self.index.insert_many(keys, tids)

    def delete_many(self, keys, tids):
        self.index.delete_many(keys, tids)


class TrsDeleter(TrsOwner):
    def delete_many(self, keys, tids):
        self.tree.delete_many(keys, np.full(len(keys), self.FAR_HOST), tids)
        assert self.tree.num_outliers == 20_000 - len(keys)


@pytest.mark.parametrize("make_owner", [IndexOwner, TrsDeleter])
def test_a_delete_search_under_heavily_duplicated_keys_is_bounded(
        make_owner, monkeypatch):
    # A low-cardinality index: 20,000 entries under 4 keys, every tid twice.
    # Expanding a key's run once per listing would gather 2,000 x 5,000
    # positions; once per listed key it is the run's size at most, and the
    # TRS-Tree's delete searches twice (which listings it holds, then the
    # delete itself).
    entries, deletes = 20_000, 2_000
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 4, entries).astype(np.float64)
    tids = np.arange(entries) // 2
    owner = make_owner()
    owner.insert_many(keys, tids)
    doomed = rng.choice(entries, deletes, replace=False)

    gathered = []

    def counting_run_indices(starts, stops):
        indices, offsets = run_indices(starts, stops)
        gathered.append(indices.size)
        return indices, offsets

    with monkeypatch.context() as patch:
        patch.setattr(ordered, "run_indices", counting_run_indices)
        owner.delete_many(keys[doomed], tids[doomed])
    assert gathered and sum(gathered) <= 2 * entries


def test_a_read_never_writes(monkeypatch):
    """Every read entry point, on an index holding pending inserts, dead
    positions or both, leaves every attribute of the index — and every
    part of its state — the same object, the tid storage unchanged, and
    folds nothing."""
    counter = FoldCounter(monkeypatch)
    ranges = [KeyRange(2.0, 30.0), KeyRange(-5.0, 1.0), KeyRange(7.0, 7.0)]
    for inserts, deletes in [(True, False), (False, True), (True, True)]:
        index = build((float(key % 40), key) for key in range(200))
        if inserts:
            index.insert_many([3.0, 7.0, 7.0, 55.0], [900, 901, 902, 903])
        if deletes:
            index.delete_many([7.0, 8.0, 3.0], [7, 8, 3])
        attributes = dict(vars(index))
        state = tuple(index._state)
        parts = [array for part in state for array in (
            part if isinstance(part, tuple) else (part,))]
        storage = index._state.storage.copy()
        reads = [
            lambda: index.range_search_array(ranges[0]),
            lambda: index.range_search(ranges[1]),
            lambda: index.range_search_many_array(ranges),
            lambda: index.range_search_segmented(ranges),
            lambda: index.search(7.0),
            lambda: index.search_many([7.0, 3.0, 99.0]),
            lambda: index.search_many_segmented(
                np.array([7.0, 3.0, 8.0]), np.array([0, 2, 3])),
            lambda: index.holds_many([7.0, 3.0], [901, 3]),
            lambda: list(index.items()),
            lambda: index.num_entries,
            lambda: index.memory_bytes(),
        ]
        for read in reads:
            read()
            assert vars(index).keys() == attributes.keys()
            assert all(vars(index)[name] is value
                       for name, value in attributes.items())
            assert all(now is then for now, then in zip(
                [array for part in index._state for array in (
                    part if isinstance(part, tuple) else (part,))], parts))
            assert np.array_equal(index._state.storage, storage)
        assert record_kind(index) == {(True, False): "inserts",
                                      (False, True): "dead",
                                      (True, True): "both"}[inserts, deletes]
    assert counter.folds == 0


def test_concurrent_readers_answer_from_the_record(monkeypatch):
    """More reader threads than cores read one index holding inserts and
    dead positions, batches beside single probes: every one gets the
    model's answers, and nothing folds."""
    index = build((float(key), key) for key in range(4_000))
    counter = FoldCounter(monkeypatch)
    ranges = [KeyRange(float(low), float(low + 40))
              for low in range(0, 3_960, 97)]
    failures: list[BaseException] = []

    def reader(barrier: threading.Barrier, expected: list[list],
               single: bool) -> None:
        try:
            barrier.wait(timeout=30.0)
            if single:
                got = [sorted(index.range_search_array(key_range).tolist())
                       for key_range in ranges]
            else:
                values, offsets = index.range_search_segmented(ranges)
                got = [sorted(segment.tolist())
                       for segment in split_segments(values, offsets)]
            assert got == expected
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    live = [(float(key), key) for key in range(4_000)]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_number in range(12):
            base = 10_000 + 50 * round_number
            batch = list(zip(np.arange(0, 4_000, 160, dtype=np.float64).tolist(),
                             range(base, base + 25)))
            index.insert_many([key for key, _ in batch],
                              [tid for _, tid in batch])
            index.delete_many([float(round_number)], [round_number])
            live = [pair for pair in live + batch
                    if pair != (float(round_number), round_number)]
            expected = [sorted(tid for key, tid in live
                               if key_range.contains(key))
                        for key_range in ranges]
            assert record_kind(index) == "both" and counter.folds == 0
            # Even rounds race batches against single probes; odd rounds
            # read by single probes alone.
            barrier = threading.Barrier(8)
            threads = [threading.Thread(
                target=reader,
                args=(barrier, expected, number % 2 or round_number % 2))
                for number in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            assert counter.folds == 0
    finally:
        sys.setswitchinterval(previous_interval)
    assert failures == []


@pytest.mark.parametrize("tid_dtype", [np.int64, np.float64])
def test_a_load_retains_only_its_two_arrays(tid_dtype):
    """No per-entry objects: loading 100k keys (and reading them) keeps at
    most 1.25x the bytes of the key and tid arrays."""
    rng = np.random.default_rng(1)
    keys = rng.random(100_000)
    tids = np.arange(100_000, dtype=tid_dtype)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = OrderedIndex()
        index.insert_many(keys, tids)
        index.range_search_segmented([KeyRange(0.25, 0.5)])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert index.num_entries == 100_000
    assert retained <= 1.25 * (keys.nbytes + tids.nbytes)


# ---------------------------------------------------------------------------
# Unit behaviours


class TestInsertSearch:
    def test_point_search_finds_inserted_keys(self):
        index = grown((float(i), i * 10) for i in range(100))
        assert index.search(42.0) == [420]
        assert index.search(999.0) == []
        assert index.num_entries == 100

    def test_point_search_finds_loaded_keys(self):
        index = build((float(i), i * 10) for i in range(100))
        assert index.search(42.0) == [420]
        assert index.search(999.0) == []
        assert index.num_entries == 100

    def test_duplicate_keys_accumulate(self):
        index = grown([(1.0, 7), (1.0, 8)])
        assert index.search(1.0) == [7, 8]
        assert index.num_entries == 2

    def test_duplicate_loaded_keys_accumulate(self):
        index = build([(1.0, 7), (1.0, 8), (2.0, 9)])
        assert index.search(1.0) == [7, 8]

    def test_search_many_batches_point_probes(self):
        index = build([(1.0, 10), (1.0, 11), (3.0, 30), (9.0, 90)])
        assert index.search_many([1.0, 9.0, 555.0]).tolist() == [10, 11, 90]

    def test_insert_keeps_order(self):
        index = build([(1.0, 1), (5.0, 5)])
        index.insert_many([3.0], [3])
        assert index.range_search(KeyRange(0.0, 10.0)) == [1, 3, 5]

    def test_a_float_tid_makes_the_tids_float64_for_good(self):
        index = build([(1.0, 1), (2.0, 2)])
        assert index.search_many([1.0]).dtype == np.int64
        index.insert_many([3.0], [3.5])
        assert index.search_many([1.0, 3.0]).tolist() == [1.0, 3.5]
        index.delete_many([3.0], [3.5])
        index.insert_many([4.0], [4])
        assert index.search_many([1.0, 4.0]).dtype == np.float64

    def test_probes_of_an_empty_index(self):
        index = OrderedIndex()
        assert index.search_many([]).size == 0
        assert index.search_many([1.0]).size == 0
        values, offsets = index.search_many_segmented(
            np.array([1.0, 2.0]), np.array([0, 1, 2]))
        assert values.size == 0 and offsets.tolist() == [0, 0, 0]
        values, offsets = index.range_search_segmented([KeyRange(0.0, 1.0)])
        assert values.size == 0 and offsets.tolist() == [0, 0]
        assert list(index.items()) == [] and index.num_entries == 0

    def test_insert_fractional_logical_pointer(self):
        index = build([(0.0, 1)])
        index.insert_many([1.0], [2.5])
        assert index.search(1.0) == [2.5]
        assert index.search_many([0.0, 1.0]).dtype == np.float64


class TestRangeSearch:
    def test_inclusive_bounds(self):
        index = grown((float(i), i) for i in range(50))
        assert index.range_search(KeyRange(10.0, 20.0)) == list(range(10, 21))

    def test_range_outside_domain_is_empty(self):
        index = grown((float(i), i) for i in range(10))
        assert index.range_search(KeyRange(100.0, 200.0)) == []

    def test_range_search_array_is_a_read_only_slice(self):
        index = build((float(i), i) for i in range(50))
        result = index.range_search_array(KeyRange(10.0, 20.0))
        assert isinstance(result, np.ndarray)
        assert result.tolist() == list(range(10, 21))
        assert result.base is not None and not result.flags.writeable

    def test_range_search_array_matches_brute_force(self):
        rng = np.random.default_rng(3)
        keys = rng.uniform(0, 100, size=300)
        index = grown((float(key), int(key * 7)) for key in keys)
        probe = KeyRange(25.0, 75.0)
        result = index.range_search_array(probe)
        expected = sorted(int(key * 7) for key in keys
                          if probe.contains(float(key)))
        assert sorted(result.tolist()) == expected
        assert index.range_search(probe) == result.tolist()

    def test_range_search_array_empty(self):
        index = grown([(1.0, 1)])
        result = index.range_search_array(KeyRange(100.0, 200.0))
        assert isinstance(result, np.ndarray) and result.size == 0

    def test_range_search_many_array_unions_ranges(self):
        index = grown((float(i), i) for i in range(30))
        result = index.range_search_many_array([KeyRange(0, 2),
                                                KeyRange(10, 12)])
        assert result.tolist() == [0, 1, 2, 10, 11, 12]

    def test_range_search_segmented_keeps_range_boundaries(self):
        index = build((float(i), i) for i in range(30))
        values, offsets = index.range_search_segmented(
            [KeyRange(10, 12), KeyRange(50, 60), KeyRange(0, 1)])
        assert values.tolist() == [10, 11, 12, 0, 1]
        assert offsets.tolist() == [0, 3, 3, 5]
        values, offsets = index.range_search_segmented([])
        assert values.size == 0 and offsets.tolist() == [0]


class TestDelete:
    def test_delete_removes_single_pair(self):
        index = grown([(1.0, 1), (1.0, 2)])
        index.delete_many([1.0], [1])
        assert index.search(1.0) == [2]
        assert index.num_entries == 1

    def test_delete_removes_single_loaded_pair(self):
        index = build([(1.0, 1), (1.0, 2)])
        index.delete_many([1.0], [1])
        assert index.search(1.0) == [2]
        assert index.num_entries == 1

    def test_delete_missing_key_raises(self):
        with pytest.raises(KeyNotFoundError):
            OrderedIndex().delete_many([5.0], [1])

    def test_delete_missing_tid_raises(self):
        index = grown([(5.0, 1)])
        with pytest.raises(KeyNotFoundError):
            index.delete_many([5.0], [99])

    def test_delete_missing_from_a_load_raises(self):
        index = build([(1.0, 1)])
        with pytest.raises(KeyNotFoundError):
            index.delete_many([2.0], [1])
        with pytest.raises(KeyNotFoundError):
            index.delete_many([1.0], [99])

    def test_insert_then_delete_subset(self):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 200, 300).tolist()
        index = grown((float(key), i) for i, key in enumerate(keys))
        doomed = set(rng.choice(300, 120, replace=False).tolist())
        for i in doomed:
            index.delete_many([float(keys[i])], [i])
        assert sorted(index.range_search(KeyRange(-1.0, 1_000.0))) == sorted(
            set(range(300)) - doomed)


class TestLoad:
    """``insert_many`` into an empty index is the load."""

    def test_load_matches_single_inserts(self):
        rng = np.random.default_rng(0)
        keys = rng.uniform(0, 1000, size=500)
        loaded = build(zip(keys.tolist(), range(500)))
        one_by_one = grown(zip(keys.tolist(), range(500)))
        assert list(loaded.items()) == list(one_by_one.items())
        assert loaded.num_entries == one_by_one.num_entries

    def test_load_of_nothing(self):
        index = build([])
        assert index.num_entries == 0
        assert index.search(1.0) == []
        assert index.range_search(KeyRange(0.0, 10.0)) == []

    def test_load_rejects_mismatched_lengths(self):
        with pytest.raises(StorageError):
            OrderedIndex().insert_many(np.asarray([1.0, 2.0]), np.asarray([1]))

    def test_batch_into_populated_index_keeps_its_entries(self):
        """Only an empty index adopts a batch; a populated one records it,
        so no batch can drop what the index already holds."""
        index = grown([(1.0, 1)])
        index.insert_many([2.0], [2])
        assert list(index.items()) == [(1.0, 1), (2.0, 2)]

    def test_second_batch_merges_into_the_loaded_index(self):
        index = build([(1.0, 1), (2.0, 2)])
        index.insert_many([3.0, 0.5], [3, 0])
        assert list(index.items()) == [(0.5, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_items_are_sorted(self):
        index = build((float(i % 7), i) for i in range(50))
        keys = [key for key, _ in index.items()]
        assert keys == sorted(keys) and len(keys) == 50


class TestMemoryAndStats:
    def test_memory_is_the_b_tree_over_the_entries(self):
        assert OrderedIndex().memory_bytes() == btree_bytes(0, 32)
        index = grown((float(i), i) for i in range(1000))
        assert index.memory_bytes() == btree_bytes(1000, 32)
        index.delete_many([3.0], [3])
        assert index.memory_bytes() == btree_bytes(999, 32)

    def test_base_batch_forms_build_on_the_array_primitives(self):
        """The Index base class derives the multi-range forms and the list
        conveniences from ``range_search_array`` / ``search_many`` alone."""

        class MinimalIndex(OrderedIndex):
            range_search_segmented = Index.range_search_segmented
            search_many_segmented = Index.search_many_segmented

        index = MinimalIndex()
        for i in range(10):
            index.insert_many([float(i)], [i])
        ranges = [KeyRange(2.0, 4.0), KeyRange(50.0, 60.0), KeyRange(8.0, 9.0)]
        assert index.range_search_many_array(ranges).tolist() == [2, 3, 4, 8, 9]
        values, offsets = index.range_search_segmented(ranges)
        assert values.tolist() == [2, 3, 4, 8, 9]
        assert offsets.tolist() == [0, 3, 3, 5]
        values, offsets = index.search_many_segmented(
            np.array([1.0, 77.0, 3.0]), np.array([0, 2, 3]))
        assert values.tolist() == [1, 3] and offsets.tolist() == [0, 1, 2]
        assert index.range_search(KeyRange(2.0, 4.0)) == [2, 3, 4]
        assert index.search(5.0) == [5] and index.search(50.0) == []
        empty = index.range_search_many_array([KeyRange(50.0, 60.0)])
        assert isinstance(empty, np.ndarray) and empty.size == 0


class TestAgainstAMultimap:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 10_000)),
                    max_size=300))
    def test_matches_reference_dict(self, pairs):
        """Point and range probes agree with a brute-force multimap."""
        index = grown((float(key), value) for key, value in pairs)
        reference: dict[float, list[int]] = {}
        for key, value in pairs:
            reference.setdefault(float(key), []).append(value)
        for key in list(reference)[:20]:
            assert sorted(index.search(key)) == sorted(reference[key])
        expected = sorted(value for key, values in reference.items()
                          if 100 <= key <= 300 for value in values)
        assert sorted(index.range_search(KeyRange(100, 300))) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 200), st.integers(0, 10_000)),
                    max_size=200),
           st.tuples(st.integers(-10, 210), st.integers(0, 100)))
    def test_load_and_single_inserts_agree_on_ranges(self, pairs, bounds):
        loaded = build((float(key), value) for key, value in pairs)
        one_by_one = grown((float(key), value) for key, value in pairs)
        low, width = bounds
        probe = KeyRange(float(low), float(low + width))
        assert sorted(loaded.range_search(probe)) == \
            sorted(one_by_one.range_search(probe))


# ---------------------------------------------------------------------------
# The dedup primitive the delete fold rests on


def reference_unique(values, offsets):
    parts = [np.unique(segment) for segment in split_segments(values, offsets)]
    counts = np.asarray([part.size for part in parts], dtype=np.int64)
    flat = np.concatenate(parts) if parts else values[:0]
    return flat, offsets_from_counts(counts)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@SETTINGS
@given(segments=st.lists(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=30),
    max_size=8))
def test_sort_based_dedup_matches_numpy_unique(dtype, segments):
    # Floats cannot fold into a composite int64 key and take the lexsort
    # fallback; halves keep them off the integers.
    scale = 0.5 if dtype is np.float64 else 1
    arrays = [np.asarray(segment, dtype=dtype) * scale for segment in segments]
    values = (np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype))
    offsets = offsets_from_counts(
        np.asarray([len(segment) for segment in segments], dtype=np.int64))
    got_values, got_offsets = segmented_unique(values.copy(), offsets)
    want_values, want_offsets = reference_unique(values, offsets)
    assert got_values.dtype == values.dtype
    assert got_values.tolist() == want_values.tolist()
    assert got_offsets.tolist() == want_offsets.tolist()
    flat = sorted_unique(values.copy())
    assert flat.dtype == values.dtype
    assert flat.tolist() == np.unique(values).tolist()
