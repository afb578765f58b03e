"""LRU buffer pool over the simulated disk manager.

Mirrors the PostgreSQL setup in the paper's Section 7.8: the benchmark
"reconfigured the buffer pool size to ensure that the B+-tree is fully cached
in memory", so the pool here is sized generously by default but still counts
hits and misses so experiments can reason about page traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import BufferPoolError
from repro.storage.disk import DiskManager
from repro.storage.pages import SlottedPage


@dataclass
class BufferPoolStatistics:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of page requests served from the pool."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class _Frame:
    __slots__ = ("page", "pin_count", "dirty")

    def __init__(self, page: SlottedPage) -> None:
        self.page = page
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """A pin-counted LRU buffer pool.

    Args:
        disk: The backing disk manager.
        capacity: Maximum number of resident pages.
    """

    def __init__(self, disk: DiskManager, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise BufferPoolError("buffer pool capacity must be positive")
        self.disk = disk
        self.capacity = capacity
        self.stats = BufferPoolStatistics()
        self._frames: OrderedDict[int, _Frame] = OrderedDict()

    def new_page(self, capacity: int) -> SlottedPage:
        """Allocate a new page on disk and pin it in the pool."""
        page = self.disk.allocate_page(capacity)
        frame = _Frame(page)
        frame.pin_count = 1
        frame.dirty = True
        self._admit(page.page_id, frame)
        return page

    def fetch_page(self, page_id: int) -> SlottedPage:
        """Return a pinned page, reading it from disk on a miss."""
        if page_id in self._frames:
            self.stats.hits += 1
            frame = self._frames[page_id]
            self._frames.move_to_end(page_id)
        else:
            self.stats.misses += 1
            frame = _Frame(self.disk.read_page(page_id))
            self._admit(page_id, frame)
        frame.pin_count += 1
        return frame.page

    def unpin_page(self, page_id: int, dirty: bool = False) -> None:
        """Release one pin on ``page_id``; mark dirty if it was modified."""
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pin_count -= 1
        frame.dirty = frame.dirty or dirty

    def flush_page(self, page_id: int) -> None:
        """Write a dirty page back to disk."""
        frame = self._frames.get(page_id)
        if frame is None:
            return
        if frame.dirty:
            self.disk.write_page(frame.page)
            frame.dirty = False

    def flush_all(self) -> None:
        """Write all dirty resident pages back to disk."""
        for page_id in list(self._frames):
            self.flush_page(page_id)

    # ---------------------------------------------------------------- private

    def _admit(self, page_id: int, frame: _Frame) -> None:
        if len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_id] = frame
        self._frames.move_to_end(page_id)

    def _evict_one(self) -> None:
        for victim_id, victim in self._frames.items():
            if victim.pin_count == 0:
                if victim.dirty:
                    self.disk.write_page(victim.page)
                del self._frames[victim_id]
                self.stats.evictions += 1
                return
        raise BufferPoolError("all buffer pool frames are pinned")
