"""Correlation Maps (CM) — the appendix comparator.

CM (Kimura et al., VLDB 2009) also exploits a column correlation to avoid a
complete secondary index, but with a bucketised map instead of regression
models: the target and host domains are each divided into fixed-width buckets,
and the structure stores, for every target bucket, the set of host buckets
that contain at least one co-occurring value.  A lookup expands the predicate
to whole target buckets, unions the mapped host buckets into host ranges,
probes the host index and validates against the base table — so, like Hermit,
CM returns exact results but pays validation for its false positives.

The paper's appendix highlights two CM weaknesses that this implementation
deliberately preserves: (1) there is no outlier handling, so sparse noise
inflates the bucket mapping (every noisy tuple drags a host bucket into its
target bucket's set), and (2) deletions cannot cheaply shrink the mapping
(removing a pair might orphan a bucket link only discoverable by rescanning),
so deletes leave the mapping untouched — still correct, just less precise.

A row whose host is NULL (NaN) has no host bucket and is not in the host
index, so no bucket link can reach it: such rows are filed in a small
:class:`~repro.index.ordered.OrderedIndex` keyed by target value, which
every lookup probes beside the host index.
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import chain

import numpy as np

from repro.core.hermit import regroup_host_probes
from repro.core.lookup import LookupBreakdown, SecondaryMechanism
from repro.errors import ConfigurationError
from repro.index.base import Index, KeyRange, KeyRanges
from repro.index.ordered import OrderedIndex
from repro.segments import interleave_segments
from repro.storage.identifiers import PointerScheme
from repro.storage.memory import (
    KEY_BYTES,
    NODE_HEADER_BYTES,
    POINTER_BYTES,
    hash_table_bytes,
)
from repro.storage.table import Table


class CorrelationMap(SecondaryMechanism):
    """A CM-style bucketised secondary access method on ``target_column``.

    Args:
        table: The base table.
        target_column: Column the queries filter on.
        host_column: Correlated column with an existing complete index.
        host_index: The complete index on ``host_column``.
        target_bucket_width: Width (in value units) of the target buckets —
            the paper's "bucket size in target column" (CM-16, CM-64, ...).
        host_bucket_width: Width of the host buckets.
        primary_index: Primary index, required for logical pointers.
        pointer_scheme: Tuple-identifier scheme of the host index entries.
    """

    def __init__(
            self, table: Table, target_column: str, host_column: str,
            host_index: Index, target_bucket_width: float,
            host_bucket_width: float, primary_index: Index | None = None,
            pointer_scheme: PointerScheme = PointerScheme.PHYSICAL) -> None:
        if target_bucket_width <= 0 or host_bucket_width <= 0:
            raise ConfigurationError("bucket widths must be positive")
        super().__init__(table, target_column, primary_index, pointer_scheme)
        self.host_column = host_column
        self.host_index = host_index
        self.target_bucket_width = float(target_bucket_width)
        self.host_bucket_width = float(host_bucket_width)
        self._mapping: dict[int, set[int]] = defaultdict(set)
        # Rows with a NULL host and a non-NULL target: target -> tid.
        self._null_hosts = OrderedIndex()

    # ----------------------------------------------------------- construction

    def build(self) -> None:
        """Populate the bucket mapping from the current table contents."""
        slots, targets, hosts = self.table.project([self.target_column,
                                                    self.host_column])
        self._mapping.clear()
        self._null_hosts = OrderedIndex()
        self._file(targets, hosts, self._tids_for_slots(slots))

    # --------------------------------------------------- candidate generation

    def candidate_tids(self, key_range: KeyRange,
                       breakdown: LookupBreakdown) -> np.ndarray:
        """Candidate tids: bucket expansion plus host probes, no dedup pass.

        ``_host_ranges_for`` unions its buckets into *disjoint* closed host
        ranges and a complete host index stores each row once, so a tid
        cannot appear twice across one query's probes — rows that share a
        host value are distinct entries, not duplicates.  The array may be
        a read-only view of host-index storage.  NULL-host rows are not in
        the host index, so adding them cannot duplicate a tid either.
        """
        started = time.perf_counter()
        host_ranges = self._host_ranges_for(key_range)
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        tids = self.host_index.range_search_many_array(host_ranges)
        null_hosts = self._null_hosts.range_search_array(key_range)
        if null_hosts.size:
            tids = np.concatenate([tids, null_hosts])
        breakdown.host_index_seconds += time.perf_counter() - started
        return tids

    def candidate_tids_many(self, ranges: KeyRanges,
                            breakdown: LookupBreakdown,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Segmented batch variant of :meth:`candidate_tids`.

        Bucket expansion stays per query (a Python dict walk per target
        bucket; ROADMAP item 8), but the host probes of the whole batch
        collapse into one ``range_search_segmented`` call over the
        flattened host ranges, regrouped per query.  Duplicate-free for the
        same reason as :meth:`candidate_tids`.  Returns a
        ``(values, offsets)`` segmented array.
        """
        started = time.perf_counter()
        host_ranges_per_query = [self._host_ranges_for(key_range)
                                 for key_range in ranges]
        host_ranges = KeyRanges.of(chain.from_iterable(host_ranges_per_query))
        breakdown.trs_seconds += time.perf_counter() - started

        started = time.perf_counter()
        values, offsets = self.host_index.range_search_segmented(host_ranges)
        values, offsets = regroup_host_probes(
            values, offsets, list(map(len, host_ranges_per_query)))
        null_values, null_offsets = self._null_hosts.range_search_segmented(
            ranges)
        if null_values.size:
            values, offsets = interleave_segments(values, offsets,
                                                  null_values, null_offsets)
        breakdown.host_index_seconds += time.perf_counter() - started
        return values, offsets

    # Assumed host-side candidate inflation of the bucket mapping: every
    # covered target bucket drags in whole host buckets, which typically
    # over-fetches more than Hermit's regression ranges do — this is what
    # ranks CM after Hermit under default statistics, exactly like the
    # pre-planner executor's fixed preference order.
    DEFAULT_HOST_INFLATION = 2.0

    def estimate_candidates(self, key_range: KeyRange, stats) -> float:
        """Estimated candidate count after bucket expansion.

        The predicate is first widened to whole target buckets (CM answers
        bucket-aligned queries only), then the exact-match estimate for the
        widened range is inflated by the assumed host-bucket over-fetch.
        """
        first = float(np.floor(key_range.low / self.target_bucket_width))
        last = float(np.floor(key_range.high / self.target_bucket_width))
        expanded = KeyRange(first * self.target_bucket_width,
                            (last + 1.0) * self.target_bucket_width)
        exact = stats.row_count * stats.selectivity(expanded)
        return min(float(stats.row_count),
                   exact * self.DEFAULT_HOST_INFLATION)

    def _host_ranges_for(self, predicate: KeyRange) -> list[KeyRange]:
        # Bucket bounds stay floats until the span is known to be small:
        # an infinite bound has no int(), and a wide finite range spans
        # more buckets than anyone can walk.  A span at least as long as
        # the mapping (NaN for [inf, inf] included) filters the buckets
        # the mapping holds instead.
        first = float(np.floor(predicate.low / self.target_bucket_width))
        last = float(np.floor(predicate.high / self.target_bucket_width))
        mapping = self._mapping
        if last - first < len(mapping):
            target_buckets = range(int(first), int(last) + 1)
        else:
            target_buckets = [bucket for bucket in mapping
                              if first <= bucket <= last]
        host_buckets: set[int] = set()
        for target_bucket in target_buckets:
            host_buckets.update(mapping.get(target_bucket, ()))
        ranges = [
            KeyRange(bucket * self.host_bucket_width,
                     (bucket + 1) * self.host_bucket_width)
            for bucket in host_buckets
        ]
        return KeyRange.union(ranges)

    # ------------------------------------------------------------ maintenance

    def insert_many(self, columns: dict, locations) -> None:
        """Extend the mapping for newly inserted rows (see :meth:`_file`)."""
        self._file(np.asarray(columns[self.target_column], dtype=np.float64),
                   np.asarray(columns[self.host_column], dtype=np.float64),
                   self._tids_for_batch(columns, locations))

    def _file(self, targets: np.ndarray, hosts: np.ndarray,
              tids: np.ndarray) -> None:
        """Link every row with both values known; file NULL-host rows.

        A NULL (NaN) target, matched by no predicate, links nothing; a
        NULL host files the row under its target.

        Both bucket arrays are computed in one vectorized pass and only the
        *distinct* (target bucket, host bucket) pairs touch the mapping —
        a bulk insert of correlated rows typically collapses to a handful
        of set adds.
        """
        known = ~np.isnan(targets)
        null_host = known & np.isnan(hosts)
        if null_host.any():
            self._null_hosts.insert_many(targets[null_host],
                                         tids[null_host])
            known &= ~null_host
        if not known.all():
            targets, hosts = targets[known], hosts[known]
        if targets.size == 0:
            return
        target_buckets = np.floor(targets / self.target_bucket_width)
        host_buckets = np.floor(hosts / self.host_bucket_width)
        links = np.unique(
            np.stack([target_buckets, host_buckets], axis=1), axis=0
        ).astype(np.int64)
        for target_bucket, host_bucket in links.tolist():
            self._mapping[target_bucket].add(host_bucket)

    def delete_many(self, columns: dict, locations) -> None:
        """Deletion keeps the mapping unchanged (documented CM limitation);
        NULL-host rows leave the NULL-host index.

        An update (:meth:`update_many`) is this plus :meth:`insert_many`:
        the mapping is extended for the new values, and a NULL-host row's
        entry moves.
        """
        targets = np.asarray(columns[self.target_column], dtype=np.float64)
        null_host = ~np.isnan(targets) & np.isnan(
            np.asarray(columns[self.host_column], dtype=np.float64))
        self._null_hosts.delete_many(
            targets[null_host],
            self._tids_for_batch(columns, locations)[null_host])

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the map never misses (for tests).

        Every live row with a non-NULL target is either linked — its host
        bucket is in its target bucket's set — or has a NULL host and is in
        the NULL-host index under its target and tid, which holds nothing
        else.
        """
        slots, targets, hosts = self.table.project([self.target_column,
                                                    self.host_column])
        tids = self._tids_for_slots(slots)
        known = ~np.isnan(targets)
        null_host = known & np.isnan(hosts)
        linked = known & ~null_host
        target_buckets = np.floor(targets[linked] / self.target_bucket_width)
        host_buckets = np.floor(hosts[linked] / self.host_bucket_width)
        for target_bucket, host_bucket in zip(
                target_buckets.astype(np.int64).tolist(),
                host_buckets.astype(np.int64).tolist()):
            if host_bucket not in self._mapping.get(target_bucket, ()):
                raise AssertionError(
                    f"CM invariant broken: host bucket {host_bucket} is not "
                    f"linked to target bucket {target_bucket}")
        if sorted(self._null_hosts.items()) != sorted(zip(
                targets[null_host].tolist(), tids[null_host].tolist())):
            raise AssertionError("CM invariant broken: the NULL-host index "
                                 "does not hold exactly the NULL-host rows")

    # ------------------------------------------------------------- accounting

    @property
    def num_bucket_links(self) -> int:
        """Number of (target bucket → host bucket) links stored."""
        return sum(len(buckets) for buckets in self._mapping.values())

    def memory_bytes(self) -> int:
        """Analytic size: one hash entry per bucket link plus per-bucket
        headers, and a packed key/tid pair per NULL-host row."""
        links = self.num_bucket_links
        buckets = len(self._mapping)
        return (hash_table_bytes(links) + buckets * NODE_HEADER_BYTES
                + self._null_hosts.num_entries * (KEY_BYTES + POINTER_BYTES))
