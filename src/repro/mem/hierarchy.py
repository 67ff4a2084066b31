"""Three-level cache hierarchy + DRAM, the load/store timing path.

L1D -> L2 -> LLC -> DRAM, non-inclusive, write-allocate/write-back, with L1
MSHRs bounding memory-level parallelism and an optional prefetcher training
on demand loads.  Presence-only caches (see :mod:`repro.mem.cache`): data
correctness lives in the backing memory, this module answers *when*.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import Cache, CacheGeometry
from .dram import DramModel
from .mshr import MshrFile
from .prefetch import Prefetcher, make_prefetcher


@dataclass(frozen=True)
class MemHierarchyConfig:
    """Geometry of the whole memory system (Table 1 rows).

    The defaults are a *scaled-down* hierarchy (1/2 the usual sizes at each
    level) matching SPEClite's scaled-down footprints — the standard
    reduced-configuration methodology, so the suite exercises the same
    miss-rate regimes SPEC exercises on full-size caches.
    """

    l1i: CacheGeometry = CacheGeometry("l1i", 16 * 1024, 4, hit_latency=1)
    l1d: CacheGeometry = CacheGeometry("l1d", 16 * 1024, 4, hit_latency=3)
    l2: CacheGeometry = CacheGeometry("l2", 128 * 1024, 8, hit_latency=12)
    llc: CacheGeometry = CacheGeometry("llc", 1024 * 1024, 16, hit_latency=30)
    dram_latency: int = 120
    dram_cycles_per_access: int = 4
    mshr_entries: int = 16
    prefetcher: str = "none"
    prefetch_degree: int = 1


class MemoryHierarchy:
    """The data-side memory system of one core."""

    def __init__(self, config: MemHierarchyConfig | None = None):
        self.config = config or MemHierarchyConfig()
        self.l1i = Cache(self.config.l1i)
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.llc = Cache(self.config.llc)
        self.dram = DramModel(
            latency=self.config.dram_latency,
            cycles_per_access=self.config.dram_cycles_per_access,
        )
        self.mshrs = MshrFile(self.config.mshr_entries)
        name = self.config.prefetcher
        options = {} if name == "none" else {"degree": self.config.prefetch_degree}
        if name == "next_line":
            options["line_bytes"] = self.config.l1d.line_bytes
        self.prefetcher: Prefetcher = make_prefetcher(name, **options)

    # ------------------------------------------------------------ demand path
    def load(self, address: int, cycle: int, pc: int = 0) -> int:
        """Demand load; returns the data-ready cycle."""
        ready = self._access(address, cycle, is_write=False)
        for target in self.prefetcher.observe(pc, address):
            self._prefetch_fill(target)
        return ready

    def fetch(self, address: int, cycle: int) -> int:
        """Instruction fetch; returns the cycle the line is available.

        Hits are free (the front end overlaps the L1I hit latency); misses
        walk the shared L2/LLC/DRAM path and fill the L1I.
        """
        if self.l1i.access(address, is_write=False):
            return cycle
        ready = self._fill_path(address, cycle)
        self.l1i.fill(address)
        return ready

    def store(self, address: int, cycle: int) -> int:
        """Committed store (write-allocate); returns completion cycle.

        Store latency is mostly hidden by the store buffer; callers treat
        the returned cycle as the L1 port occupancy, not a stall.
        """
        if self.l1d.access(address, is_write=True):
            return cycle + self.config.l1d.hit_latency
        # Write-allocate: bring the line in through the hierarchy.
        ready = self._fill_path(address, cycle)
        self.l1d.fill(address, dirty=True)
        return ready

    def _access(self, address: int, cycle: int, is_write: bool) -> int:
        if self.l1d.access(address, is_write=is_write):
            return cycle + self.config.l1d.hit_latency
        line = self.l1d.line_of(address)
        merged = self.mshrs.lookup(line, cycle)
        if merged is not None:
            self.mshrs.stats.merges += 1
            return merged
        fill_ready = self._fill_path(address, cycle)
        ready = self.mshrs.allocate(line, cycle, fill_ready - cycle)
        self.l1d.fill(address, dirty=is_write)
        return ready

    def _fill_path(self, address: int, cycle: int) -> int:
        """Latency below L1: L2 -> LLC -> DRAM, filling on the way back."""
        if self.l2.access(address, is_write=False):
            return cycle + self.config.l2.hit_latency
        if self.llc.access(address, is_write=False):
            self.l2.fill(address)
            return cycle + self.config.llc.hit_latency
        ready = self.dram.access(address, cycle + self.config.llc.hit_latency)
        self.llc.fill(address)
        self.l2.fill(address)
        return ready

    def _prefetch_fill(self, address: int) -> None:
        """Timing-free prefetch into L2/LLC."""
        if not self.l2.contains(address):
            self.llc.fill(address)
            self.l2.fill(address)

    # --------------------------------------------------------------- queries
    def peek_l1_hit(self, address: int) -> bool:
        """Would this load hit in L1?  No side effects (Delay-on-Miss gate)."""
        return self.l1d.contains(address)

    def probe_level(self, address: int) -> str | None:
        """Highest level holding the line (attack receivers / tests)."""
        if self.l1d.contains(address):
            return "l1d"
        if self.l2.contains(address):
            return "l2"
        if self.llc.contains(address):
            return "llc"
        return None

    # -------------------------------------------------------------- mutation
    def flush_address(self, address: int) -> None:
        """clflush semantics: evict the line from every level."""
        self.l1d.invalidate(address)
        self.l2.invalidate(address)
        self.llc.invalidate(address)

    def warm_line(self, address: int) -> None:
        """Test/attack-harness helper: install a line everywhere."""
        self.llc.fill(address)
        self.l2.fill(address)
        self.l1d.fill(address)

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict[str, dict[str, float]]:
        return {
            "l1i": self.l1i.stats.as_dict(),
            "l1d": self.l1d.stats.as_dict(),
            "l2": self.l2.stats.as_dict(),
            "llc": self.llc.stats.as_dict(),
            "dram": {
                "requests": self.dram.stats.requests,
                "row_hits": self.dram.stats.row_hits,
                "queue_cycles": self.dram.stats.queue_cycles,
            },
            "mshr": {
                "allocations": self.mshrs.stats.allocations,
                "merges": self.mshrs.stats.merges,
                "full_stall_cycles": self.mshrs.stats.full_stall_cycles,
            },
        }
