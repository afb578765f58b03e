"""One oracle for the whole engine: a state machine against a NumPy model.

``EngineMachine`` drives one deployment of the engine with random writes,
maintenance and reads.  The oracle is ``reference.ModelTable``: the live
rows as NumPy columns, sharing no code with storage, indexes, planner or
executor, so every answer is one mask over the model.  After every step the
machine runs ``Database.check_invariants()`` on every engine instance of the
deployment — every live tuple is behind its leaf's ε-band or in the outlier
buffer, and the host and primary indexes hold exactly the live tids — and
compares each stored table with its model.

The lattice:

* **mechanism** — Hermit, B+-tree and Correlation Map are three tables of
  one database (``TABLES``); every rule picks its table;
* **entry point** — ``execute`` or ``execute_many`` is a rule argument
  (``query_with`` and ``query_with_many`` are their own rule where a
  ``Database`` is in front);
* **pointer scheme × deployment** — the test cells: plain, result-cached,
  durable (with ``checkpoint()`` and crash + ``recover()`` rules), served
  through ``Server``, sharded inline and sharded over processes.

Writes cover inserts (NULL and out-of-domain targets and NULL hosts
included), deletes and updates (primary-key moves across shards, NaN
targets and hosts), each batched or row by row — a shard router takes
deletes and updates row by row only — and rejected writes, which must
change nothing.  Reads cover ranges, point probes on stored values, float edge
bounds, conjunctions over two columns, conjunctions merging to one column,
unsatisfiable ones and batches spanning tables.  Maintenance is the
engine's own ``reorganize()``, in every cell.  ``TestInjectedDefects``
pins that the machine catches four planted bugs.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

import repro.sharding.sharded as sharded_module
from repro.cache.result_cache import ResultCacheConfig
from repro.core.config import TRSTreeConfig
from repro.core.trs_tree import TRSTree
from repro.durability import DurabilityConfig, FsyncPolicy
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import recover
from repro.engine.catalog import Catalog, IndexMethod
from repro.engine.database import Database
from repro.engine.query import QueryRequest, RangePredicate
from repro.errors import ReproError
from repro.serving import Server
from repro.sharding import LOCATION_STRIDE, ShardedDatabase
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema

from reference import ModelTable, assert_locations, assert_table_matches

TABLES = ("hermit", "btree", "cm")
INDEXES = {
    "hermit": {"method": IndexMethod.HERMIT, "host_column": "host"},
    "btree": {"method": IndexMethod.BTREE},
    "cm": {"method": IndexMethod.CORRELATION_MAP, "host_column": "host",
           "cm_target_bucket_width": 25.0, "cm_host_bucket_width": 50.0},
}
TRS = TRSTreeConfig(min_split_size=8)
ROWS = 60                       # initial rows per table, pks 0 .. ROWS - 1
BOUNDARY = ROWS / 2 - 0.5       # the two shards' primary-key split
INF = float("inf")
ULP = 512.25
OFF_BAND = 700.0                # host offset that makes a row an outlier
HISTORY = 32                    # requests re-asked after every step

# Target values: the build domain is [0, 1000); the rest are edge cases.
SPECIAL_TARGETS = (float("nan"), -5_000.0, 25_000.0, 0.0, -0.0, ULP,
                   float(np.nextafter(ULP, INF)))
target_values = st.one_of(st.floats(-100.0, 1_100.0, allow_nan=False, width=64),
                    st.sampled_from(SPECIAL_TARGETS))
bounds = st.one_of(st.floats(-150.0, 1_150.0, allow_nan=False, width=64),
                   st.sampled_from((-INF, INF, 0.0, -0.0, ULP,
                                    float(np.nextafter(ULP, INF)),
                                    -1e300, 1e300)))
spans = st.tuples(bounds, bounds).map(lambda pair: tuple(sorted(pair)))
tables = st.sampled_from(TABLES)
picks = st.integers(min_value=0, max_value=10 ** 6)
# On the correlation band, off it, or a NULL host.
host_placements = st.sampled_from((True, False, None))
# (target, host placement, lands on the low-key shard?)
new_rows = st.tuples(target_values, host_placements, st.booleans())
SHAPES = ("range", "point", "target_and_host", "same_column", "pk",
          "unsatisfiable")
request_specs = st.tuples(tables, st.sampled_from(SHAPES), spans, spans)
entry_points = st.sampled_from(("execute", "execute_many"))
REJECTED = ("bad_value", "bad_value_moving", "unknown_column", "dead_row",
            "bad_insert")
DEPLOYMENTS = ("plain", "cached", "durable", "served", "sharded_inline",
               "sharded_process")


def schema_of(table: str):
    return numeric_schema(table, ["pk", "host", "target"], primary_key="pk")


def host_for(target: float, on_band: bool | None) -> float:
    """The host value of a target: on the correlation band, off it, or NULL
    (``on_band`` None).  NULL targets get a fixed host."""
    if on_band is None:
        return float("nan")
    if np.isnan(target):
        return 5.0
    return 2.0 * target + 10.0 + (0.0 if on_band else OFF_BAND)


class Deployment:
    """One way of running the engine, behind the surface the machine drives.

    ``engine`` takes the writes (a ``Database`` or ``ShardedDatabase``);
    reads go through ``execute`` / ``execute_many``, which the served
    deployment routes through its ``Server``.
    """

    def __init__(self, kind: str, scheme: PointerScheme) -> None:
        self.kind = kind
        self.scheme = scheme
        self.server = None
        self.directory = None
        if kind.startswith("sharded"):
            self.engine = ShardedDatabase(
                num_shards=2, mode=kind.removeprefix("sharded_"),
                pointer_scheme=scheme, trs_config=TRS)
            return
        durability = None
        if kind == "durable":
            self.directory = tempfile.mkdtemp(prefix="engine-oracle-")
            durability = self.durability()
        self.engine = Database(
            pointer_scheme=scheme, trs_config=TRS, durability=durability,
            result_cache=(ResultCacheConfig(admission=False)
                          if kind == "cached" else None))
        if kind == "served":
            self.server = Server(self.engine)

    @property
    def sharded(self) -> bool:
        return isinstance(self.engine, ShardedDatabase)

    def durability(self) -> DurabilityConfig:
        return DurabilityConfig(directory=self.directory,
                                fsync=FsyncPolicy.OFF,
                                checkpoint_interval_records=None)

    def databases(self) -> list[Database]:
        """The engine instances this process can reach directly."""
        if self.kind == "sharded_inline":
            return [shard.database for shard in self.engine._shards]
        return [] if self.sharded else [self.engine]

    def create_table(self, name: str) -> None:
        schema = schema_of(name)
        if self.sharded:
            self.engine.create_table(schema, [BOUNDARY])
        else:
            self.engine.create_table(schema)
        self.engine.create_index("idx_host", name, "host")
        self.engine.create_index("idx_target", name, "target",
                                 **INDEXES[name])

    def update(self, table: str, location: int, changes: dict) -> int:
        moved = self.engine.update(table, location, changes)
        return location if moved is None else moved

    def execute(self, request: QueryRequest):
        if self.server is not None:
            return self.server.query(request, timeout=30.0)
        return self.engine.execute(request)

    def execute_many(self, requests: list[QueryRequest]) -> list:
        if self.server is not None:
            futures = [self.server.submit(request) for request in requests]
            return [future.result(timeout=30.0) for future in futures]
        return self.engine.execute_many(requests)

    def check_invariants(self) -> None:
        if self.kind == "sharded_process":
            self.engine._broadcast("check_invariants", None)
        for database in self.databases():
            database.check_invariants()

    def crash_and_recover(self) -> None:
        # The WAL writes every record through to the file as it is
        # appended, so closing the handle leaves on disk exactly what a
        # process killed after its last acknowledged write leaves.
        self.engine.close()
        self.engine = recover(self.durability(), pointer_scheme=self.scheme,
                              trs_config=TRS)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.engine.close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class EngineMachine(RuleBasedStateMachine):
    """The engine against its model; the cell is set by a subclass."""

    KIND = "plain"
    SCHEME = PointerScheme.PHYSICAL

    def __init__(self) -> None:
        super().__init__()
        self.deployment = Deployment(self.KIND, self.SCHEME)
        self.models: dict[str, ModelTable] = {}
        # Next unused primary key below and above the shard boundary, and
        # the next local slot per (table, shard).
        self.next_low, self.next_high = -1.0, float(ROWS)
        self.next_slot: dict[tuple[str, int], int] = {}
        self.history: list[QueryRequest] = []
        rng = np.random.default_rng(5)
        for name in TABLES:
            self.deployment.create_table(name)
            self.models[name] = ModelTable(schema_of(name))
            target = rng.uniform(0.0, 1_000.0, ROWS)
            draw = rng.random(ROWS)
            host = np.where(draw > 0.1, 2.0 * target + 10.0,
                            2.0 * target + 10.0 + OFF_BAND)
            self.insert_rows(name, {
                "pk": np.arange(ROWS, dtype=np.float64),
                "host": np.where(draw < 0.03, np.nan, host),
                "target": target,
            }, batched=True)

    def teardown(self) -> None:
        self.deployment.close()

    # ------------------------------------------------------------- helpers

    @property
    def engine(self):
        return self.deployment.engine

    def fresh_pk(self, low_shard: bool) -> float:
        if low_shard:
            self.next_low -= 1.0
            return self.next_low + 1.0
        self.next_high += 1.0
        return self.next_high - 1.0

    def place(self, table: str, pk: float) -> int:
        """The location the engine gives a new row with primary key ``pk``:
        the next slot of its shard, globalised."""
        shard = int(self.deployment.sharded and pk > BOUNDARY)
        slot = self.next_slot.get((table, shard), 0)
        self.next_slot[table, shard] = slot + 1
        return shard * LOCATION_STRIDE + slot

    def insert_rows(self, table: str, columns: dict, batched: bool) -> None:
        expected = [self.place(table, pk) for pk in columns["pk"]]
        if batched:
            assert list(self.engine.insert_many(table, columns)) == expected
            self.models[table].insert_many(columns, expected)
            return
        for number, location in enumerate(expected):
            row = {name: values[number] for name, values in columns.items()}
            assert self.engine.insert(table, row) == location
            self.models[table].insert_many(
                {name: [value] for name, value in row.items()}, [location])

    def pick(self, table: str, pick: int) -> int | None:
        live = self.models[table].live_locations()
        return int(live[pick % live.size]) if live.size else None

    def request(self, spec) -> QueryRequest:
        table, shape, (low, high), (other_low, other_high) = spec
        target = RangePredicate("target", low, high)
        if shape == "point":
            stored = self.models[table].values("target")
            stored = stored[~np.isnan(stored)]
            value = (float(stored[hash(low) % stored.size]) if stored.size
                     else low)
            predicates = [RangePredicate("target", value, value)]
        elif shape == "target_and_host":
            predicates = [target, RangePredicate(
                "host", 2.0 * other_low + 10.0, 2.0 * other_high + 10.0)]
        elif shape == "same_column":
            predicates = [target, RangePredicate("target", other_low,
                                                 other_high)]
        elif shape == "pk":
            predicates = [target, RangePredicate("pk", other_low / 5.0,
                                                 other_high / 5.0)]
        elif shape == "unsatisfiable":
            predicates = [RangePredicate("target", 10.0, 20.0),
                          RangePredicate("target", 30.0, 40.0)]
        else:
            predicates = [target]
        return QueryRequest.of(table, predicates)

    # --------------------------------------------------------------- writes

    @rule(table=tables, rows=st.lists(new_rows, min_size=1, max_size=6),
          batched=st.booleans())
    def insert(self, table, rows, batched):
        columns: dict = {"pk": [], "host": [], "target": []}
        for target, on_band, low_shard in rows:
            columns["pk"].append(self.fresh_pk(low_shard))
            columns["host"].append(host_for(target, on_band))
            columns["target"].append(target)
        self.insert_rows(table, columns, batched)

    def picked(self, table: str, picks: list[int]) -> list[int]:
        """The distinct live locations ``picks`` name, in pick order."""
        locations = [self.pick(table, pick) for pick in picks]
        return list(dict.fromkeys(location for location in locations
                                  if location is not None))

    def batches(self, batched: bool) -> bool:
        """Whether a delete or update goes as one batch: asked for, and on
        an engine with the batch primitives (a shard router routes rows)."""
        return batched and not self.deployment.sharded

    @rule(table=tables, picks=st.lists(picks, min_size=1, max_size=4),
          batched=st.booleans())
    def delete(self, table, picks, batched):
        locations = self.picked(table, picks)
        if self.batches(batched):
            self.engine.delete_many(table, locations)
        else:
            for location in locations:
                self.engine.delete(table, location)
        for location in locations:
            self.models[table].delete(location)

    @rule(table=tables,
          change=st.sampled_from(("target", "host", "both", "pk")),
          rows=st.lists(st.tuples(picks, target_values, host_placements,
                                  st.booleans()), min_size=1, max_size=4),
          batched=st.booleans())
    def update(self, table, change, rows, batched):
        updates = {}    # location -> its changes, one entry per location
        for pick, value, on_band, low_shard in rows:
            location = self.pick(table, pick)
            if location is None or location in updates:
                continue
            changes: dict = {}
            if change in ("target", "both"):
                changes["target"] = value
            if change in ("host", "both"):
                changes["host"] = host_for(value, on_band)
            if change == "pk":
                changes["pk"] = self.fresh_pk(low_shard)
            updates[location] = changes
        if updates and self.batches(batched):
            columns = {name: [changes[name] for changes in updates.values()]
                       for name in next(iter(updates.values()))}
            self.engine.update_many(table, list(updates), columns)
            self.models[table].update_many(list(updates), columns)
            return
        for location, changes in updates.items():
            expected = location
            if "pk" in changes and self.deployment.sharded:
                pk = changes["pk"]
                if location // LOCATION_STRIDE != int(pk > BOUNDARY):
                    expected = self.place(table, pk)    # moves shard
            assert self.deployment.update(table, location, changes) == expected
            self.models[table].update(location, changes, expected)

    @rule(table=tables, pick=picks, kind=st.sampled_from(REJECTED),
          low_shard=st.booleans())
    def rejected_write(self, table, pick, kind, low_shard):
        """A write the engine must refuse, leaving every layer unchanged."""
        location = self.pick(table, pick)
        model = self.models[table]
        with pytest.raises(ReproError):
            if kind == "bad_insert" or location is None:
                self.engine.insert(table, {"pk": self.fresh_pk(low_shard),
                                           "host": 1.0, "target": "x"})
            elif kind == "dead_row":
                dead = model.locations[~model.live]
                self.engine.delete(table, int(dead[pick % dead.size])
                                   if dead.size else LOCATION_STRIDE - 1)
            elif kind == "unknown_column":
                self.engine.update(table, location, {"no_such_column": 1.0})
            else:
                changes = {"target": "not-a-number"}
                if kind == "bad_value_moving":
                    changes["pk"] = self.fresh_pk(low_shard)
                self.engine.update(table, location, changes)

    # ---------------------------------------------------------- maintenance

    @rule()
    def reorganize(self):
        self.engine.reorganize()

    @precondition(lambda self: self.deployment.kind == "durable")
    @rule()
    def checkpoint(self):
        self.engine.checkpoint()

    @precondition(lambda self: self.deployment.kind == "durable")
    @rule()
    def crash_and_recover(self):
        self.deployment.crash_and_recover()

    # ---------------------------------------------------------------- reads

    @rule(specs=st.lists(request_specs, min_size=1, max_size=6),
          entry=entry_points)
    def read(self, specs, entry):
        requests = [self.request(spec) for spec in specs]
        self.history = (self.history + requests)[-HISTORY:]
        self.ask(requests, entry)

    def ask(self, requests: list[QueryRequest], entry: str) -> None:
        if entry == "execute":
            results = [self.deployment.execute(request)
                       for request in requests]
        else:
            results = self.deployment.execute_many(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert_locations(result, self.models[request.table].scan(
                request.query.predicates))

    @precondition(lambda self: not self.deployment.sharded)
    @rule(table=tables, column=st.sampled_from(("target", "host")),
          batch=st.lists(spans, min_size=1, max_size=6))
    def query_with(self, table, column, batch):
        """The forced-index reads, one at a time and as one batch, answer
        like every planned one."""
        index = f"idx_{column}"
        predicates = [RangePredicate(column, *span) for span in batch]
        singles = [self.engine.query_with(table, index, predicate)
                   for predicate in predicates]
        batched = self.engine.query_with_many(table, index, predicates)
        assert len(batched) == len(predicates)
        for predicate, single, member in zip(predicates, singles, batched):
            expected = self.models[table].scan([predicate])
            for result in (single, member):
                assert result.used_index == index
                assert_locations(result, expected)

    # ------------------------------------------------------------ invariant

    @invariant()
    def engine_matches_model(self):
        self.deployment.check_invariants()
        # The last HISTORY requests read, after whatever ran since: a result
        # cache must not answer them from before a write.
        self.ask(self.history, "execute_many")
        for name, model in self.models.items():
            if self.deployment.sharded:
                assert self.engine.num_rows(name) == model.num_rows
            else:
                assert_table_matches(self.engine.table(name), model)


def machine(kind: str, scheme: PointerScheme) -> type[EngineMachine]:
    return type(f"EngineMachine_{kind}_{scheme.value}", (EngineMachine,),
                {"KIND": kind, "SCHEME": scheme})


MARKS = {"durable": pytest.mark.fault_injection,
         "served": pytest.mark.serving,
         "sharded_process": pytest.mark.sharding}
SETTINGS = settings(max_examples=10, stateful_step_count=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("scheme", list(PointerScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=MARKS.get(kind, ())) for kind in DEPLOYMENTS])
def test_engine_matches_model(kind, scheme):
    run_state_machine_as_test(machine(kind, scheme), settings=SETTINGS)


# ------------------------------------------------------ injected defects

def uncovered_pair_without_outlier(monkeypatch) -> None:
    def arrive(self, targets, hosts, tids, charged=None):
        targets = np.asarray(targets, dtype=np.float64)
        targets = targets[~np.isnan(targets)]
        np.add.at(self._table.num_model_covered,
                  self._table.interior.searchsorted(targets, "right"), 1)
    monkeypatch.setattr(TRSTree, "_arrive", arrive)


def skipped_data_epoch_bump(monkeypatch) -> None:
    monkeypatch.setattr(Catalog, "bump_data_epoch",
                        lambda self, table_name: None)


def shard_location_off_by_one(monkeypatch) -> None:
    interleave = sharded_module.interleave_segments

    def off_by_one(values, offsets, more_values, more_offsets):
        return interleave(values, offsets, more_values + 1, more_offsets)
    monkeypatch.setattr(sharded_module, "interleave_segments", off_by_one)


def dropped_wal_update(monkeypatch) -> None:
    monkeypatch.setattr(DurabilityManager, "log_update_many",
                        lambda self, table_name, locations, columns: 0)


DEFECTS = {
    "uncovered_pair_without_outlier": ("plain", uncovered_pair_without_outlier),
    "skipped_data_epoch_bump": ("cached", skipped_data_epoch_bump),
    "shard_location_off_by_one": ("sharded_inline", shard_location_off_by_one),
    "dropped_wal_update": ("durable", dropped_wal_update),
}
# Derandomised whatever the profile, and no shrinking: the test only asks
# whether the machine fails.
DEFECT_SETTINGS = settings(SETTINGS, max_examples=20, derandomize=True,
                           database=None,
                           phases=[Phase.explicit, Phase.generate])


class TestInjectedDefects:
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_machine_catches(self, monkeypatch, defect):
        kind, inject = DEFECTS[defect]
        inject(monkeypatch)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(machine(kind, PointerScheme.PHYSICAL),
                                      settings=DEFECT_SETTINGS)
