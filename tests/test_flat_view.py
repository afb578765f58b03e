"""The write-maintained flat view equals a view rebuilt from scratch.

``BPlusTree`` and ``TRSTree`` (for its tree-wide outlier buffer) answer
probes from an array copy of their entries that mutators keep current by
recording deltas (``repro.index.flat_view``).  The property here: after
*every* step of an arbitrary interleaving of writes, the folded ``(keys,
tids, num_keys)`` equals a from-scratch flatten of the owner — values and
dtypes — and the batched probes equal the scalar walks.  A load hands its
sorted run over as the view, bit-identical to that flatten too, and costs
the next batch neither a flatten nor a fold.  Plus the sort-based dedup
primitives against ``np.unique``, and concurrent readers folding one record.
"""

from __future__ import annotations

import bisect
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.index import flat_view
from repro.index.base import KeyRange
from repro.index.bptree import BPlusTree
from repro.index.flat_view import FlatArrays, FlatView, flatten
from repro.segments import (
    offsets_from_counts,
    run_indices,
    segmented_unique,
    sorted_unique,
    split_segments,
)

from reference import trs_lookup_scan

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Few distinct keys and tids, so duplicate keys and duplicate (key, tid)
# pairs are the norm; the outer keys lie outside the seeded key range.
KEYS = st.integers(min_value=-3, max_value=12).map(float)
SEED_KEYS = st.integers(min_value=0, max_value=9).map(float)
TID_NUMBERS = st.integers(min_value=0, max_value=5)
# An int numpy can only hold as an object: the fold must give up on it.
OBJECT_TID = 2 ** 70

# Every step is (write, read the view afterwards?): the writes between two
# reads share one pending window, so windows mix inserts and deletes.
STEPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("insert"), KEYS, TID_NUMBERS),
            st.tuples(st.just("insert_many"),
                      st.lists(st.tuples(KEYS, TID_NUMBERS), max_size=6)),
            # Deletes name a live pair by position; "delete_newest" after
            # an insert is insert-then-delete of one pair in one window, and
            # "delete_twin" removes one more entry of the pair deleted last.
            st.tuples(st.just("delete"), st.integers(min_value=0)),
            st.tuples(st.just("delete_newest")),
            st.tuples(st.just("delete_twin")),
        ),
        st.booleans(),
    ),
    max_size=40,
)

PROBE_RANGES = [KeyRange(2.0, 5.0), KeyRange(-10.0, 20.0), KeyRange(4.0, 4.0),
                KeyRange(-3.0, -1.0), KeyRange(10.5, 30.0), KeyRange(6.5, 6.6)]
PROBE_KEYS = np.asarray([4.0, -2.0, 4.0, 11.0, 6.5, 0.0, 9.0])
PROBE_KEY_OFFSETS = np.asarray([0, 2, 2, 5, 7], dtype=np.int64)


class TreeOwner:
    """The B+-tree side of the property: write, snapshot, probe both ways."""

    def __init__(self) -> None:
        self.owner = BPlusTree(node_capacity=4)

    def insert(self, key, tid):
        self.owner.insert(key, tid)

    def insert_many(self, keys, tids):
        self.owner.insert_many(keys, tids)

    def delete(self, key, tid):
        self.owner.delete(key, tid)

    def view(self):
        return self.owner._flattened()

    def snapshot(self):
        return self.owner._leaf_level()

    def check_probes(self):
        tree = self.owner
        values, offsets = tree.range_search_segmented(PROBE_RANGES)
        assert [segment.tolist() for segment in split_segments(values, offsets)] \
            == [tree.range_search(key_range) for key_range in PROBE_RANGES]
        values, offsets = tree.search_many_segmented(PROBE_KEYS,
                                                     PROBE_KEY_OFFSETS)
        expected = [
            [tid for key in PROBE_KEYS[start:stop] for tid in tree.search(key)]
            for start, stop in zip(PROBE_KEY_OFFSETS[:-1],
                                   PROBE_KEY_OFFSETS[1:])
        ]
        assert [segment.tolist() for segment in split_segments(values, offsets)] \
            == expected


class TrsOwner:
    """The TRS-Tree side: every write lands in the tree's outlier buffer.

    Eight leaves over [0, 9] (a kink on a child bound, off the piecewise
    candidates' knots, forces the root to split into exactly linear
    children), no outlier at build; written hosts lie far off every band.
    Keys below 0 and above 9 are clamped into the edge leaves.
    """

    FAR_HOST = -1e9

    def __init__(self) -> None:
        targets = np.linspace(0.0, 9.0, 400)
        self.owner = TRSTree(TRSTreeConfig(min_split_size=8))
        self.owner.build(targets, 100.0 * np.abs(targets - 3.375),
                         np.arange(400))
        assert self.owner.num_leaves == 8 and self.owner.num_outliers == 0

    def insert(self, key, tid):
        self.owner.insert(key, self.FAR_HOST, tid)

    def insert_many(self, keys, tids):
        self.owner.insert_many(keys, np.full(len(keys), self.FAR_HOST), tids)

    def delete(self, key, tid):
        before = self.owner.num_outliers
        self.owner.delete(key, self.FAR_HOST, tid)
        assert self.owner.num_outliers == before - 1

    def view(self):
        return self.owner._outlier_view()

    def snapshot(self):
        return self.owner._outliers.buckets()

    def check_probes(self):
        tree = self.owner
        tree.check_invariants()
        batch = tree.lookup_many(PROBE_RANGES)
        for position, key_range in enumerate(PROBE_RANGES):
            got = batch.outliers_for(position).tolist()
            assert got == tree.lookup(key_range).outlier_tids.tolist()
            assert sorted(got, key=repr) == sorted(
                trs_lookup_scan(tree, key_range).outlier_tids, key=repr)


def assert_same_arrays(got: FlatArrays, want: FlatArrays) -> None:
    """Bit-identical views: values, dtypes and the distinct-key count."""
    for name in ("keys", "tids"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tolist() == getattr(want, name).tolist(), \
            name
    assert got.num_keys == want.num_keys


def assert_view_matches_rebuild(subject) -> None:
    folded = subject.view()
    assert_same_arrays(folded, flatten(*subject.snapshot()))
    assert folded.num_keys == len(set(folded.keys.tolist()))
    subject.check_probes()


@pytest.mark.parametrize("make_subject", [TreeOwner, TrsOwner])
@SETTINGS
@given(populated=st.booleans(),
       seed=st.lists(st.tuples(SEED_KEYS, TID_NUMBERS), max_size=20),
       steps=STEPS, float_tids=st.booleans(), view_live=st.booleans(),
       object_at=st.none() | st.integers(min_value=0, max_value=40))
def test_maintained_view_equals_rebuilt_view(make_subject, populated, seed,
                                             steps, float_tids, view_live,
                                             object_at):
    as_tid = float if float_tids else int
    subject = make_subject()
    # A populated owner folds (the record stays a small share of it); an
    # empty or tiny one exercises the give-up-and-rebuild side.
    if populated:
        seed = seed + [(float(i % 10), i % 4) for i in range(120)]
    live: list[tuple[float, object]] = [(key, as_tid(tid)) for key, tid in seed]
    if live:
        subject.insert_many([key for key, _ in live],
                            [tid for _, tid in live])
    if view_live:
        assert_view_matches_rebuild(subject)
    deleted_last = None
    for number, (step, read) in enumerate(steps):
        kind = step[0]
        if number == object_at and not float_tids:
            # Arrives among int tids; the float family stays pure float64.
            subject.insert(4.0, OBJECT_TID)
            live.append((4.0, OBJECT_TID))
        if kind == "insert":
            pair = (step[1], as_tid(step[2]))
            subject.insert(*pair)
            live.append(pair)
        elif kind == "insert_many":
            pairs = [(key, as_tid(tid)) for key, tid in step[1]]
            subject.insert_many([key for key, _ in pairs],
                                [tid for _, tid in pairs])
            live.extend(pairs)
        elif kind == "delete_twin":
            if deleted_last in live:
                live.remove(deleted_last)
                subject.delete(*deleted_last)
        elif live:
            position = -1 if kind == "delete_newest" else step[1] % len(live)
            deleted_last = live.pop(position)
            subject.delete(*deleted_last)
        if read:
            assert_view_matches_rebuild(subject)
    assert_view_matches_rebuild(subject)


def test_fold_is_taken_and_gives_up_as_documented(monkeypatch):
    tree = BPlusTree()
    tree.insert_many(np.arange(100, dtype=np.float64), np.arange(100))
    arrays = tree._flattened()
    # A few writes are folded into new arrays, without a leaf walk.
    tree.insert(3.0, 500)
    tree.delete(7.0, 7)
    with monkeypatch.context() as patch:
        patch.setattr(tree, "_leaf_level", None)  # a rebuild would call it
        folded = tree._flattened()
    assert folded is not arrays
    assert folded.tids.tolist() == [0, 1, 2, 3, 500, 4, 5, 6] + list(range(8, 100))
    assert folded.keys.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0] \
        + [float(key) for key in range(8, 100)]
    assert folded.num_keys == 99
    # Writes beyond a quarter of the entries drop the view on the write path.
    for tid in range(30):
        tree.insert(200.0 + tid, tid)
    assert tree._flat_view._arrays is None
    assert not tree._flat_view._added_keys
    # A tid the int64 arrays cannot hold takes the rebuild, dtype and all.
    tree._flattened()
    tree.insert(1.0, 0.5)
    assert tree._flattened().tids.dtype == np.float64
    assert tree.range_search_segmented([KeyRange(1.0, 1.0)])[0].tolist() \
        == [1.0, 0.5]


@pytest.mark.parametrize("make_subject", [TreeOwner, TrsOwner])
def test_fold_of_deletes_under_heavily_duplicated_keys_is_bounded(
        make_subject, monkeypatch):
    # A low-cardinality index: 20,000 entries under 4 keys, every tid twice.
    # Expanding a key's run once per delete would gather 2,000 x 5,000
    # positions; once per deleted key it is the view's size at most.
    entries, deletes = 20_000, 2_000
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 4, entries).astype(np.float64).tolist()
    tids = (np.arange(entries) // 2).tolist()
    subject = make_subject()
    subject.insert_many(keys, tids)
    subject.view()
    for index in rng.choice(entries, deletes, replace=False).tolist():
        subject.delete(keys[index], tids[index])

    gathered = []

    def counting_run_indices(starts, stops):
        indices, offsets = run_indices(starts, stops)
        gathered.append(indices.size)
        return indices, offsets

    with monkeypatch.context() as patch:
        patch.setattr(flat_view, "run_indices", counting_run_indices)
        patch.setattr(flat_view, "flatten", None)  # a rebuild would call it
        subject.view()
    assert gathered and sum(gathered) <= entries + deletes
    assert_view_matches_rebuild(subject)


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


def test_concurrent_readers_fold_one_record_once():
    """More reader threads than cores race to fold the same pending record:
    batches, which fold at once, beside single probes, which walk the tree
    until their charges have paid for the fold and then fold too."""
    tree = BPlusTree()
    tree.insert_many(np.arange(4_000, dtype=np.float64), np.arange(4_000))
    tree._flattened()
    ranges = [KeyRange(float(low), float(low + 40))
              for low in range(0, 3_960, 97)]
    failures: list[BaseException] = []

    def reader(barrier: threading.Barrier, expected: list[list],
               single: bool) -> None:
        try:
            barrier.wait(timeout=30.0)
            if single:
                got = [tree.range_search_array(key_range).tolist()
                       for key_range in ranges]
            else:
                values, offsets = tree.range_search_segmented(ranges)
                got = [segment.tolist()
                       for segment in split_segments(values, offsets)]
            assert got == expected
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_number in range(20):
            base = 10_000 + 100 * round_number
            tree.insert_many(np.arange(0, 4_000, 80, dtype=np.float64),
                             np.arange(base, base + 50))
            tree.delete(float(round_number), round_number)
            # The leaf walk itself: it neither reads nor charges the view.
            expected = [tree._range_tids(key_range.low, key_range.high)
                        for key_range in ranges]
            assert view_state(tree) == "stale"
            # Even rounds race batches against single probes; odd rounds
            # leave the fold to the single probes alone.
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
            assert view_state(tree) == "current"
    finally:
        sys.setswitchinterval(previous_interval)
    assert failures == []


# ------------------------------------------------------------------------
# Every read entry point of the B+-tree, in every state of its view

def view_state(tree: BPlusTree) -> str:
    view = tree._flat_view
    if view._arrays is None:
        return "absent"
    return "stale" if view._added_keys or view._removed_keys else "current"


def tid_array(tids: list) -> np.ndarray:
    """What a scalar walk that collected ``tids`` returns."""
    return np.asarray(tids) if tids else np.empty(0, dtype=np.int64)


def assert_same(got: np.ndarray, want: np.ndarray, what) -> None:
    assert got.dtype == want.dtype, what
    assert got.tolist() == want.tolist(), what


def check_every_read_entry_point(tree: BPlusTree) -> set[str]:
    """Single and segmented probes against a walk of ``items()``: values,
    per-key insertion order and dtype.  Single probes go first — they meet
    the view as the writes left it, the segmented ones fold it — and once
    more after.  Returns the view states the single probes met."""
    pairs = list(tree.items())
    points = tid_array([tid for probe in PROBE_KEYS.tolist()
                        for key, tid in pairs if key == probe])
    in_range = {key_range: tid_array([tid for key, tid in pairs
                                      if key_range.low <= key <= key_range.high])
                for key_range in PROBE_RANGES}
    met = set()

    def single_probes():
        met.add(view_state(tree))
        assert_same(tree.search_many(PROBE_KEYS), points, "search_many")
        assert tree.search_many([]).dtype == np.int64
        for key_range, want in in_range.items():
            state = view_state(tree)
            met.add(state)
            got = tree.range_search_array(key_range)
            assert_same(got, want, key_range)
            if state == "current" and got.size:
                # A slice of index storage: nobody may sort it in place.
                assert got.flags.writeable is False
                assert got.base is not None

    single_probes()
    whole = np.asarray([0, PROBE_KEYS.size], dtype=np.int64)
    for _ in range(2):          # absent (maybe) and then certainly live
        got, offsets = tree.search_many_segmented(PROBE_KEYS, whole)
        assert_same(got, points, "search_many_segmented")
        assert offsets.tolist() == [0, points.size]
        for key_range, want in in_range.items():
            got, offsets = tree.range_search_segmented([key_range])
            assert_same(got, want, key_range)
            assert offsets.tolist() == [0, want.size]
        tree._flattened()
    assert view_state(tree) == "current"
    single_probes()
    return met


READ_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS, TID_NUMBERS),
        st.tuples(st.just("insert_many"),
                  st.lists(st.tuples(KEYS, TID_NUMBERS), max_size=6)),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("forget")),       # the view gave up: absent
        st.tuples(st.just("probe")),
    ),
    max_size=30,
)


def test_every_read_entry_point_in_every_view_state():
    """Derandomised interleavings of writes, give-ups and probes; the
    single probes must have met the view absent, current and stale."""
    met: set[str] = set()

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeded=st.booleans(), float_tids=st.booleans(), steps=READ_STEPS)
    def run(seeded, float_tids, steps):
        # Logical tids are fractional floats, physical ones ints.  A seeded
        # tree is big enough that a single probe cannot pay for a fold on
        # its own (it meets stale views); an empty one starts from nothing.
        as_tid = (lambda number: number + 0.5) if float_tids else int
        tree = BPlusTree(node_capacity=4)
        live: list[tuple[float, object]] = []
        met.update(check_every_read_entry_point(tree))
        if seeded:
            live = [(float(i % 10), as_tid(i % 4)) for i in range(400)]
            tree.insert_many([key for key, _ in live],
                             [tid for _, tid in live])
            # A load hands over a current view; "absent" is reached through
            # the empty tree, "forget" and the view giving up.
            assert view_state(tree) == "current"
        for step in steps + [("probe",)]:
            kind = step[0]
            if kind == "insert":
                live.append((step[1], as_tid(step[2])))
                tree.insert(*live[-1])
            elif kind == "insert_many":
                pairs = [(key, as_tid(tid)) for key, tid in step[1]]
                tree.insert_many([key for key, _ in pairs],
                                 [tid for _, tid in pairs])
                live.extend(pairs)
            elif kind == "delete":
                if live:
                    tree.delete(*live.pop(step[1] % len(live)))
            elif kind == "forget":
                tree._flat_view.drop()
            else:
                met.update(check_every_read_entry_point(tree))
        assert sorted(tree.items()) == sorted(live)

    run()
    assert met == {"absent", "current", "stale"}


class FoldCounter:
    """Counts the O(n) work a tree's view does: folds and cold flattens."""

    def __init__(self, monkeypatch, tree: BPlusTree) -> None:
        self.folds = self.flattens = 0
        folded, leaf_level = FlatView._folded, tree._leaf_level

        def counting_folded(view):
            self.folds += view is tree._flat_view
            return folded(view)

        def counting_leaf_level():
            self.flattens += 1
            return leaf_level()

        monkeypatch.setattr(FlatView, "_folded", counting_folded)
        monkeypatch.setattr(tree, "_leaf_level", counting_leaf_level)

    @property
    def total(self) -> int:
        return self.folds + self.flattens


def test_no_single_read_pays_for_another_callers_write(monkeypatch):
    """insert -> search_many([k]) -> range_search_array(r), 1,000 times on a
    50,000-entry tree whose view is current: folding on every probe after
    every write would be 2,000 O(n) folds; the debt rule allows a handful,
    and every answer is exact."""
    entries, rounds = 50_000, 1_000
    tree = BPlusTree()
    tree.insert_many(np.arange(entries, dtype=np.float64), np.arange(entries))
    tree._flattened()
    counter = FoldCounter(monkeypatch, tree)
    model = [(float(i), i) for i in range(entries)]      # sorted by key
    rng = np.random.default_rng(5)
    states = set()
    for number, spot in enumerate(rng.integers(10, entries - 10, rounds)):
        key, tid = float(spot) + 0.5, entries + number
        tree.insert(key, tid)
        bisect.insort(model, (key, tid))
        states.add(view_state(tree))
        assert tree.search_many([key, float(spot), -1.0]).tolist() \
            == [tid for k, tid in model[bisect.bisect_left(model, (key,)):
                                        bisect.bisect_left(model, (key + 0.1,))]
                ] + [int(spot)]
        low, high = key - 3.0, key + 3.0
        assert tree.range_search_array(KeyRange(low, high)).tolist() \
            == [tid for _, tid in model[bisect.bisect_left(model, (low,)):
                                        bisect.bisect_left(model, (high + 0.1,))]]
    assert states == {"stale"}
    assert 1 <= counter.total <= 10, (counter.folds, counter.flattens)
    # A batch right after a write still folds at once.
    tree.insert(0.5, -1)
    before = counter.folds
    values, _ = tree.range_search_segmented([KeyRange(0.0, 1.0)])
    assert values.tolist() == [0, -1, 1]
    assert counter.folds == before + 1 and counter.flattens == 0
    assert view_state(tree) == "current"


def test_debt_starts_over_once_the_view_is_current(monkeypatch):
    """A view that a write-only phase made give up is not re-flattened by
    the next small batch: the batches pay their way to a flatten, and the
    scalar work charged before one build paid for that build, not for every
    later one."""
    entries = 4_000
    tree = BPlusTree()
    tree.insert_many(np.arange(entries, dtype=np.float64), np.arange(entries))
    assert view_state(tree) == "current"
    counter = FoldCounter(monkeypatch, tree)
    batch = [KeyRange(10.0, 12.0), KeyRange(500.0, 501.0)]
    written = iter(range(entries))

    def give_up() -> None:
        """A write-only phase of per-row inserts, until the view drops."""
        for number in written:
            tree.insert(float(entries + number), number)
            if view_state(tree) == "absent":
                break
        assert view_state(tree) == "absent" and counter.total == 0

    def batches_until_flatten(limit: int = 1_000) -> int:
        for issued in range(1, limit + 1):
            values, offsets = tree.range_search_segmented(batch)
            assert values.tolist() == [10, 11, 12, 500, 501]
            assert offsets.tolist() == [0, 3, 5]
            if counter.flattens:
                counter.flattens = 0
                return issued
        raise AssertionError(f"no flatten after {limit} batches")

    give_up()
    first = batches_until_flatten()
    assert first > 10 and view_state(tree) == "current"
    give_up()
    # The batches after it pay their way to the second build like the
    # first time (the tree grew by a quarter, so a little longer).
    again = batches_until_flatten()
    assert first <= again <= 2 * first
    assert counter.folds == 0 and view_state(tree) == "current"
    tree.range_search_segmented(batch)
    assert counter.total == 0


def test_a_loaded_tree_starts_with_a_current_view(monkeypatch):
    """``insert_many`` into an empty tree hands its sorted run over as the
    view: the first batch neither flattens nor folds, and the batch after
    one more ``insert_many`` folds exactly once."""
    entries = 10_000
    rng = np.random.default_rng(3)
    tree = BPlusTree()
    tree.insert_many(rng.integers(0, entries // 2, entries).astype(np.float64),
                     np.arange(entries))
    counter = FoldCounter(monkeypatch, tree)
    ranges = [KeyRange(float(low), float(low + 7))
              for low in range(0, entries // 2, 97)]

    def batch_equals_leaf_walks() -> None:
        values, offsets = tree.range_search_segmented(ranges)
        assert [segment.tolist() for segment in split_segments(values, offsets)] \
            == [tree._range_tids(key_range.low, key_range.high)
                for key_range in ranges]

    batch_equals_leaf_walks()
    assert (counter.folds, counter.flattens) == (0, 0)
    tree.insert_many(rng.integers(0, entries // 2, 500).astype(np.float64),
                     np.arange(entries, entries + 500))
    batch_equals_leaf_walks()
    assert (counter.folds, counter.flattens) == (1, 0)


TID_FORMS = {
    "int64": lambda numbers: np.asarray(numbers, dtype=np.int64),
    "int32": lambda numbers: np.asarray(numbers, dtype=np.int32),
    "fractional_float": lambda numbers: np.asarray(numbers) + 0.5,
    "python_ints": list,
}


@pytest.mark.parametrize("tid_form", sorted(TID_FORMS))
@SETTINGS
@given(pairs=st.lists(st.tuples(KEYS, TID_NUMBERS), min_size=1, max_size=60))
def test_a_load_adopts_exactly_what_a_flatten_builds(tid_form, pairs):
    tree = BPlusTree(node_capacity=4)
    tree.insert_many(np.asarray([key for key, _ in pairs]),
                     TID_FORMS[tid_form]([tid for _, tid in pairs]))
    assert view_state(tree) == "current"
    assert_same_arrays(tree._flat_view._arrays, flatten(*tree._leaf_level()))


# Keys collide with a loaded key, or with each other, now and then.
SPARSE_KEYS = st.integers(min_value=0, max_value=80).map(float)
DISTINCT_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), SPARSE_KEYS),
        st.tuples(st.just("insert_many"), st.lists(SPARSE_KEYS, max_size=4)),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("forget")),
        st.tuples(st.just("probe")),
    ),
    max_size=40,
)


@SETTINGS
@given(loaded=st.integers(min_value=0, max_value=40), steps=DISTINCT_STEPS)
def test_distinct_key_count_follows_any_interleaving(loaded, steps):
    """The count the primary-index point path rests on (every key owns one
    entry when it equals the entries) is kept by the folds: after inserts,
    deletes and give-ups in any order it is the live distinct keys, and
    point probes answer by it correctly either way."""
    tree = BPlusTree(node_capacity=4)
    live = [(2.0 * number, number) for number in range(loaded)]
    if live:
        tree.insert_many([key for key, _ in live], [tid for _, tid in live])
    tids = iter(range(loaded, 10_000))
    probe_keys = np.arange(-1.0, 82.0)
    for step in steps + [("probe",)]:
        kind = step[0]
        if kind == "insert":
            live.append((step[1], next(tids)))
            tree.insert(*live[-1])
        elif kind == "insert_many":
            pairs = [(key, next(tids)) for key in step[1]]
            tree.insert_many([key for key, _ in pairs],
                             [tid for _, tid in pairs])
            live.extend(pairs)
        elif kind == "delete":
            if live:
                tree.delete(*live.pop(step[1] % len(live)))
        elif kind == "forget":
            tree._flat_view.drop()
        else:
            view = tree._flattened()
            assert view.num_keys == len({key for key, _ in live})
            assert tree.search_many(probe_keys).tolist() == [
                tid for probe in probe_keys.tolist()
                for key, tid in sorted(live, key=lambda pair: pair[0])
                if key == probe]
