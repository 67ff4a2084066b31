"""The per-process build cache (:mod:`repro.workloads.build_cache`).

Every fuzz program is assembled, analysed, scanned and repaired once per
process, and the second secret fill is patched into the first fill's
image.  These tests pin what that must not change: the programs callers
get, the campaign report, and the bound.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.adversarial import CampaignConfig, repair, run_campaign
from repro.adversarial.repair import repair_program
from repro.adversarial.synth import (
    VARIANTS,
    secret_fill,
    synth_source,
    synthesize_item,
)
from repro.analysis import scanner
from repro.asm import assemble
from repro.asm.assembler import Assembler
from repro.compiler.rewriter import ProgramRewriter
from repro.harness import ParallelRunner
from repro.secure import make_policy
from repro.uarch import CoreConfig, OooCore, decoded
from repro.workloads import build_workload
from repro.workloads.build_cache import BUILD_CACHE, BuildCache, SecretFill

FILLS = (0x41, 0xC3)


def _image(program):
    return (
        [(i, i.source_line, i.label) for i in program.instructions],
        program.data,
        program.symbols,
        program.secret_ranges,
        program.entry,
        program.text_base,
        program.data_base,
        program.slh_mask,
    )


def _count_calls(monkeypatch, attr, *owners):
    """Count calls of ``attr`` wherever ``owners`` bind it."""
    calls = []
    original = getattr(owners[0], attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, attr, counting)
    return calls


# ------------------------------------------------------------ (b) fills
@pytest.mark.parametrize("index", range(len(VARIANTS)))
def test_patched_fill_equals_direct_assembly(index):
    """Every skeleton and mutation, 20 seeds: the second fill's program,
    patched into the first fill's image, is the one assembly gives."""
    for seed in range(20):
        spec = synthesize_item(seed, index)
        cache = BuildCache()
        first, second = (
            cache.program(synth_source(spec, f), spec.workload_name(f),
                          secret_fill(spec, f))
            for f in FILLS
        )
        assert cache.info()["misses"] == 1  # one build for both fills
        for fill, program in zip(FILLS, (first, second)):
            direct = assemble(synth_source(spec, fill))
            assert _image(program) == _image(direct)
            assert program.source == synth_source(spec, fill)
            assert program.name == spec.workload_name(fill)


@pytest.mark.parametrize("index", range(len(VARIANTS)))
def test_cached_repair_equals_direct_repair(index):
    """The second fill's repaired source comes from the first fill's
    repair; it must equal repairing the second fill's program."""
    for seed in range(4):
        spec = synthesize_item(seed, index)
        cache = BuildCache()
        for fill in FILLS:
            source = synth_source(spec, fill)
            cached = cache.repair(source, spec.name, secret_fill(spec, fill))
            direct = repair_program(assemble(source, name=spec.name))
            assert cached.source == direct.source
            assert cached.to_dict() == direct.to_dict()
            assert _image(cached.program) == _image(direct.program)
        assert cache.info()["misses"] == 1


def test_fill_outside_a_secret_range_is_refused():
    source = ".data\nslot:\n    .dword 7\n.text\n    halt\n"
    with pytest.raises(ValueError, match="not inside a .secret range"):
        BuildCache().program(source, fill=SecretFill("slot", 7))
    with pytest.raises(ValueError, match="no single"):
        BuildCache().program(source, fill=SecretFill("slot", 8))


# ----------------------------------------------------------- (c) bound
def test_lru_never_exceeds_its_bound():
    cache = BuildCache(max_programs=3, max_results=2)
    for index in range(10):
        source = f".text\n    li a0, {index}\n    halt\n"
        cache.scan(source)
        cache.program(source)
        info = cache.info()
        assert info["programs"] <= 3
        assert info["results"] <= 2
    assert cache.info()["programs"] == 3
    # The most recent entry survives; the oldest was evicted.
    hits = cache.hits
    cache.program(".text\n    li a0, 9\n    halt\n")
    assert cache.hits == hits + 1
    misses = cache.misses
    cache.program(".text\n    li a0, 0\n    halt\n")
    assert cache.misses == misses + 1


def test_threads_share_one_cache_within_its_bound():
    """The service runs simulations on a thread beside its event loop, so
    the cache is used from several threads at once."""
    cache = BuildCache(max_programs=4, max_results=3)
    specs = [synthesize_item(77, index) for index in range(8)]
    expected = {spec.name: _image(assemble(synth_source(spec, 0xC3)))
                for spec in specs}
    errors = []

    def worker(offset):
        try:
            for step in range(24):
                spec = specs[(offset + step) % len(specs)]
                for fill in FILLS:
                    source = synth_source(spec, fill)
                    program = cache.program(source, spec.name,
                                            secret_fill(spec, fill))
                    cache.scan(source, spec.name, secret_fill(spec, fill))
                    if fill == 0xC3 and _image(program) != expected[spec.name]:
                        errors.append(spec.name)
                info = cache.info()
                if info["programs"] > 4 or info["results"] > 3:
                    errors.append(info)
        except Exception as exc:  # reported below, never lost in a thread
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


# ----------------------------------------------------------- (d) shells
def test_handed_out_programs_cannot_change_the_next_callers():
    cache = BuildCache()
    spec = synthesize_item(5, 0)
    source, fill = synth_source(spec, 0x41), secret_fill(spec, 0x41)
    first = cache.program(source, "first", fill)
    analysis = first.analysis
    assert analysis is not None

    first.name = "renamed"
    first.analysis = None
    first.symbols["extra"] = 0
    first.instructions.pop()
    first.secret_ranges.clear()
    first.data = b""

    second = cache.program(source, "second", fill)
    assert second.name == "second"
    assert second.analysis is analysis
    assert "extra" not in second.symbols
    assert _image(second) == _image(assemble(source))
    # Scans and repairs hand out copies too.
    report = cache.scan(source, "a", fill)
    report.findings.clear()
    assert cache.scan(source, "b", fill).findings
    assert cache.scan(source, "b", fill).program == "b"


# ----------------------------------------------------- (a) one build each
def test_campaign_assembles_each_text_once(monkeypatch):
    """A 32-program campaign with repair assembles each fill-independent
    text once, plus one assembly per repair rewrite; scans likewise."""
    config = CampaignConfig.resolve(
        seed=20240808, count=32, policies=("none", "levioso"),
        fills=FILLS, repair=True,
    )
    BUILD_CACHE.clear()
    assembles = _count_calls(monkeypatch, "assemble", Assembler)
    rewrites = _count_calls(monkeypatch, "rewrite", ProgramRewriter)
    scans = _count_calls(monkeypatch, "scan_program", scanner, repair)
    report = run_campaign(config, ParallelRunner(scale="test", jobs=1))
    assert report["gates"]["passed"]

    texts = set()
    for index in range(config.count):
        spec = synthesize_item(config.seed, index)
        for fill in FILLS:
            slot = secret_fill(spec, fill)
            source = synth_source(spec, fill)
            texts.add(slot.blank(source) if slot else source)
    assert len(texts) == config.count
    assert rewrites
    assert len(assembles) <= len(texts) + len(rewrites)
    assert len(scans) <= len(texts) + len(rewrites)


def test_campaign_report_unchanged_without_sharing(monkeypatch):
    """With both bounds at 0 every call builds afresh, as before the
    cache: the report must be byte-for-byte the same."""
    config = CampaignConfig.resolve(
        seed=3, count=16, policies=("none", "fence"), fills=FILLS,
        repair=True,
    )
    BUILD_CACHE.clear()
    shared = run_campaign(config, ParallelRunner(scale="test", jobs=1))
    BUILD_CACHE.clear()
    monkeypatch.setattr(BUILD_CACHE._programs, "bound", 0)
    monkeypatch.setattr(BUILD_CACHE._results, "bound", 0)
    fresh = run_campaign(config, ParallelRunner(scale="test", jobs=1))
    assert BUILD_CACHE.info()["programs"] == 0
    assert shared == fresh


# ------------------------------------------------------------- work pin
def test_campaign_work_counts_are_pinned():
    """One fixed campaign's work, counted exactly: simulations, fill-twin
    copies and builds.  Unlike wall time these do not move with host
    noise, so a change that does more (or less) work shows here; such a
    change updates the pin and says why, as with the digests."""
    config = CampaignConfig.resolve(
        192, count=16, policies=("none", "fence", "levioso"),
        fills=(0x41, 0xC3), repair=True,
    )
    BUILD_CACHE.clear()
    runner = ParallelRunner(scale="test", jobs=1)
    report = run_campaign(config, runner)
    assert report["gates"]["passed"]
    assert (runner.simulations, runner.copies) == (72, 60)
    assert BUILD_CACHE.info()["misses"] == 16


# ------------------------------------------------------ decode once per text
def test_one_decode_per_text_across_policies_and_fills(monkeypatch):
    decodes = _count_calls(monkeypatch, "decode_program", decoded)
    config = CoreConfig(alu_latency=3)  # a latency profile no other test uses
    for fill in FILLS:
        program = build_workload(f"fuzz/s4242/i3/f{fill:02x}", "test").assemble()
        for policy in ("none", "fence", "levioso"):
            OooCore(program, config=config, policy=make_policy(policy))
    assert len(decodes) == 1
    # A program assembled outside the cache (no analysis yet) too.
    program = assemble(synth_source(synthesize_item(4242, 5), 0x41))
    assert program.analysis is None
    for policy in ("none", "fence"):
        OooCore(program, config=config, policy=make_policy(policy))
    assert len(decodes) == 2
