"""Fixture tests: every lint rule fires on a violation and stays quiet
on the closest legitimate variant (the near-miss)."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import Module, analyze_modules
from repro.analysis.rules import (
    BroadExceptRationale,
    DurabilityOrdering,
    EpochDiscipline,
    HotPathPurity,
    ResultCacheDiscipline,
    ShardingProtocolHygiene,
)


def findings_for(source: str, rule, path: str = "fixture.py"):
    module = Module.from_source(textwrap.dedent(source), path)
    return analyze_modules([module], rules=[rule])


class TestDurabilityOrdering:
    RULE = DurabilityOrdering

    def test_fires_on_apply_before_log(self):
        findings = findings_for("""
            class Database:
                def delete_many(self, table_name, locations):
                    entry = self.catalog.table_entry(table_name)
                    batch = entry.table.validate_locations(locations)
                    entry.table.delete_many(batch)
                    self._durability.log_delete_many(table_name,
                                                     batch.slots)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP002"]
        assert "'delete_many'" in findings[0].message

    @pytest.mark.parametrize("apply", [
        "entry.table.delete_many(batch)",
        "entry.table.update_many(batch)",
        "mechanism.update_many(old, new, slots)",
    ])
    def test_fires_on_a_batch_applied_before_log(self, apply):
        findings = findings_for(f"""
            class Database:
                def update_many(self, table_name, locations, columns):
                    entry = self.catalog.table_entry(table_name)
                    batch = entry.table.validate_update_many(locations,
                                                             columns)
                    slots = batch.slots
                    {apply}
                    self._durability.log_update_many(table_name, slots,
                                                     columns)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP002"]
        assert apply.split(".")[-1].split("(")[0] in findings[0].message

    def test_fires_on_log_without_validation(self):
        findings = findings_for("""
            class Database:
                def insert_many(self, table_name, columns):
                    self._durability.log_insert_many(table_name, columns)
                    batch = self.table.validate_insert_many(columns)
                    return self.table.insert_many(batch)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP002"]
        assert "without validating" in findings[0].message

    def test_quiet_on_validate_log_apply(self):
        findings = findings_for("""
            class Database:
                def insert_many(self, table_name, columns):
                    table = self.catalog.table_entry(table_name).table
                    batch = table.validate_insert_many(columns)
                    self._durability.log_insert_many(table_name, columns)
                    return table.insert_many(batch)
        """, self.RULE())
        assert findings == []

    def test_quiet_on_raise_guard_as_validation(self):
        findings = findings_for("""
            class Database:
                def create_table(self, schema):
                    if schema.name in self.catalog:
                        raise ValueError("exists")
                    self._durability.log_create_table(schema)
                    self.catalog.add_table(schema.name)
        """, self.RULE())
        assert findings == []

    def test_quiet_without_logging(self):
        findings = findings_for("""
            class Database:
                def insert_many(self, table_name, columns):
                    batch = self.table.validate_insert_many(columns)
                    return self.table.insert_many(batch)
        """, self.RULE())
        assert findings == []


class TestEpochDiscipline:
    RULE = EpochDiscipline

    def test_fires_on_unlocked_catalog_access(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def table(self, name):
                    return self.catalog.table_entry(name).table
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP003"]
        assert "outside the epoch protocol" in findings[0].message

    def test_quiet_under_read_side(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def table(self, name):
                    with self.epochs.read():
                        return self.catalog.table_entry(name).table
        """, self.RULE())
        assert findings == []

    def test_fires_on_mutation_under_read(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def sneaky(self, name):
                    with self.epochs.read():
                        self.catalog.bump_data_epoch(name)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP003"]
        assert "shared (read) side" in findings[0].message

    @pytest.mark.parametrize("mutation", [
        "entry.table.delete_many(locations)",
        "entry.primary_index.delete_many(keys, locations)",
        "entry.table.update_many(locations, columns)",
    ])
    def test_fires_on_a_batch_mutation_under_read(self, mutation):
        findings = findings_for(f"""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def sneaky(self, name, locations, keys, columns):
                    with self.epochs.read():
                        entry = self.catalog.table_entry(name)
                        {mutation}
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP003"]
        assert "shared (read) side" in findings[0].message

    def test_quiet_on_mutation_under_write(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def bump(self, name):
                    with self.epochs.write():
                        self.catalog.bump_data_epoch(name)
        """, self.RULE())
        assert findings == []

    def test_fires_on_reorganize_under_read(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def maintain(self, mechanism):
                    with self.epochs.read():
                        return mechanism.reorganize()
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP003"]
        assert "'reorganize'" in findings[0].message

    def test_quiet_on_reorganize_under_write(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def maintain(self, mechanism):
                    with self.epochs.write():
                        return mechanism.reorganize()
        """, self.RULE())
        assert findings == []

    def test_fires_on_static_upgrade(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def upgrade(self, name):
                    with self.epochs.read():
                        with self.epochs.write():
                            self.catalog.bump_data_epoch(name)
        """, self.RULE())
        rules = [f.rule for f in findings]
        assert "REP003" in rules
        assert any("upgrade" in f.message for f in findings)

    def test_private_helpers_may_rely_on_caller_lock(self):
        findings = findings_for("""
            class Database:
                def __init__(self):
                    self.epochs = EpochManager()

                def _helper(self, name):
                    return self.catalog.table_entry(name)
        """, self.RULE())
        assert findings == []

    def test_quiet_on_classes_without_epochs(self):
        findings = findings_for("""
            class ShardedDatabase:
                def __init__(self):
                    self.shards = []

                def table(self, name):
                    return self.catalog.table_entry(name).table
        """, self.RULE())
        assert findings == []


class TestHotPathPurity:
    RULE = HotPathPurity

    def test_fires_in_marked_module(self):
        findings = findings_for("""
            # repro: hot-module
            def concat(arrays):
                out = []
                for array in arrays:
                    out.extend(array.tolist())
                return out
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP004"]

    def test_fires_on_tolist_loop_in_index_many_method(self):
        findings = findings_for("""
            class Index:
                def search_many(self, keys):
                    out = []
                    for key in keys.tolist():
                        out.append(self.search(key))
                    return out
        """, self.RULE(), path="src/repro/index/fake.py")
        assert [f.rule for f in findings] == ["REP004"]

    def test_quiet_on_scalar_methods_in_index_modules(self):
        findings = findings_for("""
            class Index:
                def search(self, key):
                    for node in self._path_to(key):
                        pass
        """, self.RULE(), path="src/repro/index/fake.py")
        assert findings == []

    def test_quiet_on_comprehensions(self):
        # A single C-level comprehension is the materialisation boundary,
        # not a per-element pipeline.
        findings = findings_for("""
            # repro: hot-module
            def split(values, offsets):
                return [values[offsets[i]:offsets[i + 1]]
                        for i in range(offsets.size - 1)]
        """, self.RULE())
        assert findings == []

    def test_fires_on_key_range_rebuild_in_core_many_method(self):
        # A batch's bounds are arrays; a comprehension turning them back
        # into one KeyRange per range is the round-trip the rule keeps out.
        findings = findings_for("""
            class HermitIndex:
                def candidate_tids_many(self, ranges, breakdown):
                    batch = self.trs_tree.lookup_many(ranges)
                    host_ranges = [KeyRange(low, high) for low, high in
                                   zip(batch.host_lows.tolist(),
                                       batch.host_highs.tolist())]
                    return self.host_index.range_search_segmented(host_ranges)
        """, self.RULE(), path="src/repro/core/fake.py")
        assert [f.rule for f in findings] == ["REP004"]
        assert "KeyRange" in findings[0].message

    def test_quiet_on_key_ranges_passed_through(self):
        findings = findings_for("""
            class HermitIndex:
                def candidate_tids_many(self, ranges, breakdown):
                    batch = self.trs_tree.lookup_many(ranges)
                    return self.host_index.range_search_segmented(
                        KeyRanges(batch.host_lows, batch.host_highs))
        """, self.RULE(), path="src/repro/core/fake.py")
        assert findings == []

    @pytest.mark.parametrize("path, source", [
        ("src/repro/storage/fake.py", """
            class Table:
                def insert_many(self, rows):
                    start, count = self._append(rows)
                    return [RowLocation(slot)
                            for slot in range(start, start + count)]
        """),
        ("src/repro/engine/fake.py", """
            class Database:
                def insert_many(self, table_name, columns):
                    table = self.catalog.table_entry(table_name).table
                    batch = table.validate_insert_many(columns)
                    return [int(loc) for loc in table.insert_many(batch)]
        """),
    ])
    def test_fires_on_per_row_objects_in_load_path(self, path, source):
        # A batch's slots are one int64 array from the append to the index
        # builds; one object per row is the round-trip the rule keeps out.
        findings = findings_for(source, self.RULE(), path=path)
        assert [f.rule for f in findings] == ["REP004"]
        assert "per-element" in findings[0].message

    def test_quiet_on_slot_arrays_in_load_path(self):
        findings = findings_for("""
            class Database:
                def insert_many(self, table_name, columns):
                    table = self.catalog.table_entry(table_name).table
                    batch = table.validate_insert_many(columns)
                    slots = table.insert_many(batch)
                    self._index_many(batch.columns, slots)
                    return slots.tolist()
        """, self.RULE(), path="src/repro/engine/fake.py")
        assert findings == []

    def test_quiet_outside_hot_scope(self):
        findings = findings_for("""
            def report(rows):
                for row in rows.tolist():
                    print(row)
        """, self.RULE(), path="src/repro/bench/fake.py")
        assert findings == []

    def test_suppression_with_rationale_accepted(self):
        findings = findings_for("""
            class Index:
                def search_many(self, keys):
                    out = []
                    # repro: ignore[REP004] -- documented scalar fallback
                    for key in keys.tolist():
                        out.append(self.search(key))
                    return out
        """, self.RULE(), path="src/repro/index/fake.py")
        assert findings == []


class TestShardingProtocolHygiene:
    RULE = ShardingProtocolHygiene

    DISPATCHER = """
        def dispatch_command(database, command, payload):
            if command == "insert_many":
                return database.insert_many(*payload)
            if command == "fetch":
                return database.table(payload[0]).fetch(payload[1])
            raise ValueError(command)

        def shard_worker_main(connection):
            while True:
                command, payload = connection.recv()
                if command == "close":
                    break
    """

    def _modules(self, router_source: str):
        dispatcher = Module.from_source(
            textwrap.dedent(self.DISPATCHER),
            "src/repro/sharding/worker.py",
        )
        router = Module.from_source(
            textwrap.dedent(router_source),
            "src/repro/sharding/sharded.py",
        )
        return [dispatcher, router]

    def test_fires_on_unregistered_command(self):
        findings = analyze_modules(
            self._modules("""
                class Router:
                    def go(self):
                        self._broadcast("compact", None)
            """),
            rules=[self.RULE()],
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert "'compact'" in findings[0].message

    def test_fires_on_unregistered_command_posted(self):
        findings = analyze_modules(
            self._modules("""
                class Router:
                    def go(self):
                        self._post([0, 1], "compact", None)
            """),
            rules=[self.RULE()],
        )
        assert [f.rule for f in findings] == ["REP005"]
        assert "'compact'" in findings[0].message

    def test_quiet_on_registered_commands(self):
        findings = analyze_modules(
            self._modules("""
                class Router:
                    def go(self, shard):
                        self._broadcast("insert_many", None)
                        self._post([1], "insert_many", None)
                        self._call(0, "fetch", (1, 2))
                        shard.send(("close", None))
            """),
            rules=[self.RULE()],
        )
        assert findings == []

    def test_reply_envelope_is_exempt(self):
        findings = analyze_modules(
            self._modules("""
                class Worker:
                    def reply(self, connection, result):
                        connection.send(("ok", result))
                        connection.send(("error", result))
            """),
            rules=[self.RULE()],
        )
        assert findings == []

    def test_quiet_without_visible_dispatcher(self):
        # A lone router file can't be judged: no dispatcher in view.
        router = Module.from_source(
            textwrap.dedent("""
                class Router:
                    def go(self):
                        self._broadcast("compact", None)
            """),
            "src/repro/sharding/sharded.py",
        )
        assert analyze_modules([router], rules=[self.RULE()]) == []

    def test_non_sharding_sends_out_of_scope(self):
        module = Module.from_source(
            'def notify(queue):\n    queue.send("anything")\n',
            "src/repro/serving/fake.py",
        )
        dispatcher = Module.from_source(
            textwrap.dedent(self.DISPATCHER),
            "src/repro/sharding/worker.py",
        )
        assert analyze_modules([dispatcher, module],
                               rules=[self.RULE()]) == []


class TestBroadExceptRationale:
    RULE = BroadExceptRationale

    def test_fires_on_bare_except(self):
        findings = findings_for("""
            try:
                risky()
            except:
                pass
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP006"]

    def test_fires_on_except_exception(self):
        findings = findings_for("""
            try:
                risky()
            except Exception as error:
                log(error)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP006"]

    def test_fires_on_noqa_without_rationale(self):
        findings = findings_for("""
            try:
                risky()
            except Exception:  # noqa: BLE001
                pass
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP006"]

    def test_quiet_with_noqa_rationale(self):
        findings = findings_for("""
            try:
                risky()
            except BaseException as error:  # noqa: BLE001 - ship to router
                send(error)
        """, self.RULE())
        assert findings == []

    def test_quiet_on_narrow_handlers(self):
        findings = findings_for("""
            try:
                risky()
            except (ValueError, OSError):
                pass
        """, self.RULE())
        assert findings == []

    def test_repro_suppression_also_accepted(self):
        findings = findings_for("""
            try:
                risky()
            except Exception:  # repro: ignore[REP006] -- fixture boundary
                pass
        """, self.RULE())
        assert findings == []


class TestResultCacheDiscipline:
    RULE = ResultCacheDiscipline

    SCOPE_INIT = """
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._hits = 0
    """

    def test_fires_on_unlocked_mutator(self):
        findings = findings_for("""
            class Cache:
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._hits = 0

                def record(self, key, value):
                    self._entries[key] = value
                    self._hits += 1
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP007"]
        assert "Cache.record" in findings[0].message
        assert "_entries" in findings[0].message

    def test_quiet_when_lock_held(self):
        findings = findings_for("""
            class Cache:
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._hits = 0

                def record(self, key, value):
                    with self._lock:
                        self._entries[key] = value
                        self._hits += 1
        """, self.RULE())
        assert findings == []

    def test_quiet_under_epoch_write_side(self):
        findings = findings_for("""
            class Cache:
                def __init__(self, epochs):
                    import threading
                    self.epochs = epochs
                    self._lock = threading.Lock()
                    self._entries = {}

                def rebuild(self):
                    with self.epochs.write():
                        self._entries.clear()
        """, self.RULE())
        assert findings == []

    def test_quiet_on_locked_suffixed_helper(self):
        # The _locked suffix is the contract "caller already holds the
        # lock" — the helper itself is exempt.
        findings = findings_for("""
            class Cache:
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}

                def _remove_locked(self, key):
                    del self._entries[key]
        """, self.RULE())
        assert findings == []

    def test_fires_on_container_method_mutation(self):
        findings = findings_for("""
            class Cache:
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._seen = set()

                def note(self, key):
                    self._seen.add(key)
        """, self.RULE())
        assert [f.rule for f in findings] == ["REP007"]
        assert "_seen" in findings[0].message

    def test_quiet_without_lock_in_scope(self):
        # A class owning entries but no lock is out of scope.
        findings = findings_for("""
            class Tree:
                def __init__(self):
                    self._entries = {}

                def add(self, key, value):
                    self._entries[key] = value
        """, self.RULE())
        assert findings == []

    def test_quiet_on_readers(self):
        findings = findings_for("""
            class Cache:
                def __init__(self):
                    import threading
                    self._lock = threading.Lock()
                    self._entries = {}

                def lookup(self, key):
                    return self._entries.get(key)
        """, self.RULE())
        assert findings == []
