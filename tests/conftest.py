"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# CI runs the property suites as `pytest --hypothesis-profile ci`: every run
# draws the same examples (a hash of the test seeds the generator) and no
# example database is read or written, so tier-1 cannot go red on one machine
# only because its local `.hypothesis/` remembers a failure.  Examples worth
# keeping are pinned with `@example` next to the property (docs/ci.md).
# The suites' own `settings(...)` objects are created at import, after the
# profile is loaded, and inherit what they do not set themselves.
settings.register_profile("ci", derandomize=True, database=None,
                          deadline=None, print_blob=True)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "bench_smoke: tiny-scale run of a benchmark hot path, kept in tier-1 "
        "so the vectorized lookup path cannot silently regress to the scalar "
        "fallback (deselect with '-m \"not bench_smoke\"')",
    )
    config.addinivalue_line(
        "markers",
        "fault_injection: crash/torn-write/fsync-failure recovery tests "
        "driven by the durability fault harness, and the durable cells of "
        "the engine state machine; CI runs them as a dedicated step "
        "(select with '-m fault_injection')",
    )
    config.addinivalue_line(
        "markers",
        "sharding: tests of the sharded execution tier (process "
        "transport, routing, locations) and the process-shard cells of "
        "the engine state machine; CI runs them as a dedicated step "
        "(select with '-m sharding')",
    )
    config.addinivalue_line(
        "markers",
        "serving: concurrency tests for the coalescing serving front end "
        "(epoch protocol, writer-interleaving stress, the result cache) "
        "and the served cells of the engine state machine; CI runs them "
        "as a dedicated step (select with '-m serving')",
    )
    config.addinivalue_line(
        "markers",
        "epoch_discipline: race-detection tests seeding epoch-protocol "
        "violations (shared-side writes, upgrade attempts, lock-order "
        "inversions) and asserting EpochManager(debug=True) catches each "
        "one; CI runs them in the analysis job (select with "
        "'-m epoch_discipline')",
    )

from repro.engine.catalog import IndexMethod
from repro.engine.database import Database
from repro.storage.identifiers import PointerScheme
from repro.storage.schema import numeric_schema
from repro.storage.table import Table
from repro.workloads.synthetic import generate_synthetic, load_synthetic


@pytest.fixture
def small_table() -> Table:
    """A four-column numeric table with 200 rows of linearly correlated data."""
    schema = numeric_schema("demo", ["pk", "host", "target", "payload"],
                            primary_key="pk")
    table = Table(schema)
    rng = np.random.default_rng(0)
    target = rng.uniform(0.0, 1000.0, size=200)
    table.insert_many(table.validate_insert_many({
        "pk": np.arange(200, dtype=np.float64),
        "host": 3.0 * target + 5.0,
        "target": target,
        "payload": rng.uniform(size=200),
    }))
    return table


@pytest.fixture
def linear_dataset():
    """A small Synthetic-Linear dataset with 2% noise."""
    return generate_synthetic(3000, "linear", noise_fraction=0.02, seed=1)


@pytest.fixture
def sigmoid_dataset():
    """A small Synthetic-Sigmoid dataset with 2% noise."""
    return generate_synthetic(3000, "sigmoid", noise_fraction=0.02, seed=2)


def build_synthetic_database(dataset, pointer_scheme=PointerScheme.PHYSICAL,
                             index_method=IndexMethod.HERMIT):
    """Create a Database with the Synthetic table and an index on colC."""
    database = Database(pointer_scheme=pointer_scheme)
    table_name = load_synthetic(database, dataset)
    database.create_index("idx_colC", table_name, "colC", method=index_method,
                          host_column="colB" if index_method is IndexMethod.HERMIT
                          else None)
    return database, table_name


@pytest.fixture
def linear_database(linear_dataset):
    """Database with the Synthetic-Linear table and a Hermit index on colC."""
    return build_synthetic_database(linear_dataset)


@pytest.fixture
def sigmoid_database(sigmoid_dataset):
    """Database with the Synthetic-Sigmoid table and a Hermit index on colC."""
    return build_synthetic_database(sigmoid_dataset)
