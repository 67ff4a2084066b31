"""Backing memory, caches, MSHRs, DRAM, hierarchy."""

import dataclasses
import hashlib
import random
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.mem import (
    Cache,
    CacheGeometry,
    DramModel,
    MemHierarchyConfig,
    MemoryHierarchy,
    MshrFile,
    SparseMemory,
)


# ------------------------------------------------------------ SparseMemory
def test_sparse_memory_roundtrip():
    mem = SparseMemory()
    mem.write_int(0x1000, 0xDEADBEEF, 4)
    assert mem.read_int(0x1000, 4) == 0xDEADBEEF


def test_sparse_memory_cross_page():
    mem = SparseMemory()
    mem.write_bytes(0x0FFE, b"\x01\x02\x03\x04")
    assert mem.read_bytes(0x0FFE, 4) == b"\x01\x02\x03\x04"


def test_sparse_memory_signed_read():
    mem = SparseMemory()
    mem.write_int(0x100, -5, 8)
    assert mem.read_int(0x100, 8, signed=True) == -5
    assert mem.read_int(0x100, 8) == (1 << 64) - 5


def test_sparse_memory_default_zero():
    mem = SparseMemory()
    assert mem.read_int(0x123456, 8) == 0


def test_sparse_memory_copy_is_deep():
    mem = SparseMemory()
    mem.write_int(0x10, 42, 8)
    clone = mem.copy()
    clone.write_int(0x10, 43, 8)
    assert mem.read_int(0x10, 8) == 42
    assert not mem.equal_contents(clone)


# -------------------------------------------------------------------- Cache
def small_cache(assoc=2, sets=4, repl="lru"):
    return Cache(CacheGeometry("t", assoc * sets * 64, assoc, 64, 1, repl))


def test_cache_miss_then_hit():
    cache = small_cache()
    assert cache.access(0x1000, False) is False
    cache.fill(0x1000)
    assert cache.access(0x1000, False) is True
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_cache_lru_eviction_order():
    cache = small_cache(assoc=2, sets=1)
    cache.fill(0 * 64)
    cache.fill(1 * 64)
    cache.access(0 * 64, False)      # touch line 0 -> line 1 becomes LRU
    evicted = cache.fill(2 * 64)
    assert evicted == 1
    assert cache.contains(0 * 64)
    assert not cache.contains(1 * 64)


def test_cache_contains_has_no_side_effects():
    cache = small_cache()
    cache.fill(0x40)
    hits, misses = cache.stats.hits, cache.stats.misses
    cache.contains(0x40)
    cache.contains(0x9999)
    assert (cache.stats.hits, cache.stats.misses) == (hits, misses)


def test_cache_invalidate_and_writeback_counting():
    cache = small_cache()
    cache.fill(0x80, dirty=True)
    assert cache.invalidate(0x80) is True
    assert cache.stats.writebacks == 1
    assert cache.invalidate(0x80) is False


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheGeometry("bad", 48 * 1024, 7).num_sets


def test_tree_plru_cache_works():
    cache = small_cache(assoc=4, sets=2, repl="tree_plru")
    for i in range(8):
        cache.fill(i * 64 * 2)  # same set (stride = sets*line)
    assert len(cache.resident_lines()) <= 8


# Pinned digests of seeded access traces.  Every returned value, evicted
# line, the final resident set and the stats feed the digest, so any change
# in which way a fill takes or which line a policy evicts shows up here.
# The values were captured from the eager per-set arrays this model
# replaced; no benchmark digest covers tree_plru or random.
CACHE_TRACE_DIGESTS = {
    "lru": "16f6657d78e93147",
    "tree_plru": "4d353d8ae4bfbc50",
    "random": "f0c3a7be0e854b06",
}
HIERARCHY_TRACE_DIGESTS = {
    "lru": "432d19a69a0ed639",
    "tree_plru": "a0388e9be9ce3f28",
    "random": "9adbb7851f1250d2",
}


def _digest(log) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


def _cache_trace(repl: str) -> str:
    # 8 sets x 4 ways = 32 lines of capacity against 96 distinct lines.
    cache = small_cache(assoc=4, sets=8, repl=repl)
    rng = random.Random(f"cache-trace:{repl}")
    log = []
    for _ in range(5000):
        address = rng.randrange(96) * 64 + rng.randrange(64)
        op = rng.randrange(10)
        if op < 4:
            log.append(("access", cache.access(address, rng.random() < 0.3)))
        elif op < 8:
            log.append(("fill", cache.fill(address, dirty=rng.random() < 0.3)))
        elif op < 9:
            log.append(("invalidate", cache.invalidate(address)))
        else:
            log.append(("contains", cache.contains(address)))
    log.append(sorted(cache.resident_lines()))
    log.append(dataclasses.asdict(cache.stats))
    return _digest(log)


def _hierarchy_trace(repl: str) -> str:
    base = MemHierarchyConfig()
    config = MemHierarchyConfig(**{
        level: dataclasses.replace(getattr(base, level), replacement=repl)
        for level in ("l1i", "l1d", "l2", "llc")
    })
    hier = MemoryHierarchy(config)
    rng = random.Random(f"hierarchy-trace:{repl}")
    log = []
    cycle = 0
    for _ in range(5000):
        # Lines s + k*1024 share set s at every level: 48 tags in 8 sets
        # overflow the 16-way LLC as well as the L1s and the L2.
        address = (rng.randrange(8) + rng.randrange(48) * 1024) * 64
        op = rng.randrange(10)
        if op < 5:
            log.append(("load", hier.load(address, cycle, pc=rng.randrange(4))))
        elif op < 7:
            log.append(("store", hier.store(address, cycle)))
        elif op < 9:
            log.append(("fetch", hier.fetch(address, cycle)))
        else:
            hier.flush_address(address)
        log.append(hier.probe_level(address))
        cycle += rng.randrange(1, 40)
    for level in ("l1i", "l1d", "l2", "llc"):
        cache = getattr(hier, level)
        log.append((level, sorted(cache.resident_lines()), cache.stats.flushes))
    log.append(hier.stats())
    return _digest(log)


@pytest.mark.parametrize("repl", sorted(CACHE_TRACE_DIGESTS))
def test_cache_trace_pinned(repl):
    assert _cache_trace(repl) == CACHE_TRACE_DIGESTS[repl]


@pytest.mark.parametrize("repl", sorted(HIERARCHY_TRACE_DIGESTS))
def test_hierarchy_trace_pinned(repl):
    assert _hierarchy_trace(repl) == HIERARCHY_TRACE_DIGESTS[repl]


# --------------------------------------------------------------------- MSHR
def test_mshr_merge_same_line():
    mshrs = MshrFile(4)
    first = mshrs.allocate(10, cycle=0, fill_latency=100)
    merged = mshrs.lookup(10, cycle=5)
    assert merged == first


def test_mshr_full_delays_start():
    mshrs = MshrFile(2)
    mshrs.allocate(1, 0, 100)
    mshrs.allocate(2, 0, 100)
    ready = mshrs.allocate(3, 0, 100)
    assert ready == 200  # waits for a slot at cycle 100, then 100 latency
    assert mshrs.stats.full_stall_cycles == 100


def test_mshr_outstanding_counts():
    mshrs = MshrFile(8)
    mshrs.allocate(1, 0, 50)
    mshrs.allocate(2, 0, 60)
    assert mshrs.outstanding(10) == 2
    assert mshrs.outstanding(55) == 1
    assert mshrs.outstanding(100) == 0


# --------------------------------------------------------------------- DRAM
def test_dram_row_hit_discount():
    dram = DramModel(latency=100, cycles_per_access=4, row_hit_discount=40)
    first = dram.access(0x0, 0)
    second = dram.access(0x40, 100)  # same row
    assert first == 100
    assert second == 100 + 60
    assert dram.stats.row_hits == 1


def test_dram_channel_queueing():
    dram = DramModel(latency=100, cycles_per_access=10)
    dram.access(0x0, 0)
    # second request issued same cycle queues behind channel occupancy
    second = dram.access(0x100000, 0)
    assert second > 100
    assert dram.stats.queue_cycles > 0


# ---------------------------------------------------------------- Hierarchy
def test_hierarchy_miss_costs_more_than_hit():
    hier = MemoryHierarchy()
    cold = hier.load(0x5000, cycle=0)
    warm = hier.load(0x5000, cycle=cold)
    assert cold - 0 > hier.config.l2.hit_latency
    assert warm - cold == hier.config.l1d.hit_latency


def test_hierarchy_l2_faster_than_dram():
    hier = MemoryHierarchy()
    hier.load(0x5000, 0)          # warm everything
    hier.l1d.invalidate(0x5000)   # now resident only in L2/LLC
    l2_hit = hier.load(0x5000, 1000) - 1000
    dram_cold = hier.load(0xABCDE000, 2000) - 2000
    assert l2_hit < dram_cold


def test_hierarchy_flush_address():
    hier = MemoryHierarchy()
    hier.load(0x6000, 0)
    assert hier.probe_level(0x6000) == "l1d"
    hier.flush_address(0x6000)
    assert hier.probe_level(0x6000) is None


def test_hierarchy_peek_does_not_perturb():
    hier = MemoryHierarchy()
    hier.load(0x7000, 0)
    before = hier.l1d.stats.accesses
    assert hier.peek_l1_hit(0x7000) is True
    assert hier.peek_l1_hit(0x11110000) is False
    assert hier.l1d.stats.accesses == before


def test_hierarchy_stride_prefetcher_reduces_misses():
    base_cfg = MemHierarchyConfig()
    pf_cfg = MemHierarchyConfig(prefetcher="stride", prefetch_degree=4)
    plain, pref = MemoryHierarchy(base_cfg), MemoryHierarchy(pf_cfg)
    t0 = t1 = 0
    for i in range(256):
        addr = 0x20000 + i * 64
        t0 = plain.load(addr, t0, pc=0x1000)
        t1 = pref.load(addr, t1, pc=0x1000)
    assert pref.l2.stats.misses + pref.l1d.stats.misses < (
        plain.l2.stats.misses + plain.l1d.stats.misses
    )


def test_hierarchy_construction_independent_of_set_count():
    # A 64 MiB LLC has 65,536 sets; none may cost anything until filled.
    config = MemHierarchyConfig(
        llc=CacheGeometry("llc", 64 * 1024 * 1024, 16, hit_latency=30)
    )
    tracemalloc.start()
    try:
        hier = MemoryHierarchy(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert hier.llc.num_sets == 65536


def test_hierarchy_warm_line():
    hier = MemoryHierarchy()
    hier.warm_line(0x8000)
    assert hier.peek_l1_hit(0x8000)
