"""Set-associative cache model (presence + timing).

A deliberate and documented simplification (DESIGN.md): caches track *which
lines are present and dirty* but hold no data — architectural data always
comes from the backing :class:`~repro.mem.backing.SparseMemory` plus the
core's store queue.  This is exactly the fidelity cache side channels need
(flush+reload and prime+probe only observe line presence and latency) while
keeping coherence trivially correct.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .replacement import make_replacement


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }


@dataclass(frozen=True)
class CacheGeometry:
    """Size parameters of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 3
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ConfigError(
                f"{self.name}: {self.size_bytes}B/{self.assoc}way/"
                f"{self.line_bytes}B gives non-power-of-two set count {sets}"
            )
        return sets


class _CacheSet:
    """The ways of one set, built on the set's first fill."""

    __slots__ = ("ways", "tags", "dirty", "repl")

    def __init__(self, assoc: int, repl_state: object):
        # Presence index {tag: way}: the per-access way search is one dict
        # probe instead of an associativity-wide scan.
        self.ways: dict[int, int] = {}
        self.tags: list[int | None] = [None] * assoc  # None: invalid way
        self.dirty = [False] * assoc
        self.repl = repl_state


class Cache:
    """One level of set-associative cache.

    Sets exist only once filled: a probe of an untouched set is one dict
    lookup, so building a cache costs the same whatever its set count.
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.line_bits = geometry.line_bytes.bit_length() - 1
        if (1 << self.line_bits) != geometry.line_bytes:
            raise ConfigError(f"line size {geometry.line_bytes} not a power of two")
        # num_sets is a power of two (CacheGeometry enforces it), so the
        # set/tag split is a mask + shift.
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self._sets: dict[int, _CacheSet] = {}
        self._repl = make_replacement(geometry.replacement, geometry.assoc)
        self.stats = CacheStats()

    # ----------------------------------------------------------- addressing
    def line_of(self, address: int) -> int:
        return address >> self.line_bits

    def _find(self, line: int) -> tuple[_CacheSet | None, int | None]:
        cache_set = self._sets.get(line & self._set_mask)
        if cache_set is None:
            return None, None
        return cache_set, cache_set.ways.get(line >> self._set_bits)

    # -------------------------------------------------------------- queries
    def contains(self, address: int) -> bool:
        """Presence probe with NO side effects (attack receivers use this)."""
        return self._find(self.line_of(address))[1] is not None

    # -------------------------------------------------------------- accesses
    def access(self, address: int, is_write: bool) -> bool:
        """Look up the line; updates recency and stats.  True on hit."""
        line = address >> self.line_bits
        cache_set = self._sets.get(line & self._set_mask)
        way = None if cache_set is None else cache_set.ways.get(line >> self._set_bits)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        self._repl.on_access(cache_set.repl, way)
        if is_write:
            cache_set.dirty[way] = True
        return True

    def fill(self, address: int, dirty: bool = False) -> int | None:
        """Install the line; returns the evicted line number (or None).

        Takes the lowest invalid way, else the policy's victim.  Counts a
        writeback when the victim was dirty.
        """
        line = self.line_of(address)
        set_index = line & self._set_mask
        tag = line >> self._set_bits
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = _CacheSet(
                self.geometry.assoc, self._repl.new_set()
            )
        way = cache_set.ways.get(tag)
        if way is not None:
            # Already present (e.g. race between demand fill and prefetch).
            self._repl.on_access(cache_set.repl, way)
            if dirty:
                cache_set.dirty[way] = True
            return None
        tags = cache_set.tags
        evicted: int | None = None
        if len(cache_set.ways) < len(tags):
            way = tags.index(None)
        else:
            way = self._repl.victim(cache_set.repl)
            self.stats.evictions += 1
            if cache_set.dirty[way]:
                self.stats.writebacks += 1
            victim_tag = tags[way]
            evicted = victim_tag * self.num_sets + set_index
            del cache_set.ways[victim_tag]
        tags[way] = tag
        cache_set.dirty[way] = dirty
        cache_set.ways[tag] = way
        self._repl.on_fill(cache_set.repl, way)
        return evicted

    def invalidate(self, address: int) -> bool:
        """Drop the line if present; True if it was present."""
        cache_set, way = self._find(self.line_of(address))
        if way is None:
            return False
        if cache_set.dirty[way]:
            self.stats.writebacks += 1
        del cache_set.ways[cache_set.tags[way]]
        cache_set.tags[way] = None
        cache_set.dirty[way] = False
        self.stats.flushes += 1
        return True

    # ------------------------------------------------------------- utilities
    def resident_lines(self) -> set[int]:
        """All resident line numbers (test/debug aid)."""
        return {
            tag * self.num_sets + set_index
            for set_index, cache_set in self._sets.items()
            for tag in cache_set.ways
        }
