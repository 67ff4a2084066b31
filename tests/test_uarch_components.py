"""Core configuration, stats, and pipeline-mechanics unit tests."""

import pytest

from repro.asm import assemble
from repro.errors import ConfigError, TimeoutError_
from repro.secure import make_policy
from repro.uarch import CoreConfig, CoreStats, OooCore


# --------------------------------------------------------------------- config
def test_config_validation():
    with pytest.raises(ConfigError):
        CoreConfig(fetch_width=0)
    with pytest.raises(ConfigError):
        CoreConfig(rob_size=16, iq_size=64)


def test_config_overrides_copy():
    base = CoreConfig()
    wide = base.with_overrides(issue_width=8)
    assert wide.issue_width == 8
    assert base.issue_width == 4
    assert wide.rob_size == base.rob_size


def test_config_table_rows_cover_key_parameters():
    labels = [name for name, _ in CoreConfig().table_rows()]
    assert "Branch predictor" in labels
    assert "DRAM" in labels


# ---------------------------------------------------------------------- stats
def test_stats_derived_metrics():
    stats = CoreStats(cycles=100, committed=250, branch_mispredicts=5)
    assert stats.ipc == 2.5
    assert stats.cpi == 0.4
    assert stats.mpki == 20.0
    empty = CoreStats()
    assert empty.ipc == 0.0
    assert empty.mpki == 0.0
    assert empty.mean_gate_delay == 0.0


def test_stats_as_dict_round_trip():
    stats = CoreStats(cycles=10, committed=20, loads_gated=2, load_gate_cycles=9)
    d = stats.as_dict()
    assert d["cycles"] == 10
    assert d["loads_gated"] == 2
    assert d["mean_gate_delay"] == 4.5


# ------------------------------------------------------------------ mechanics
def test_max_cycles_timeout():
    program = assemble("""
    .text
    spin:
        j spin
    """)
    core = OooCore(program)
    with pytest.raises(TimeoutError_):
        core.run(max_cycles=2000)


def test_occupancy_counters_return_to_zero():
    program = assemble("""
    .data
    buf: .zero 64
    .text
        la t0, buf
        li t1, 5
        sd t1, 0(t0)
        ld t2, 0(t0)
        beqz t2, skip
        addi t2, t2, 1
    skip:
        halt
    """)
    core = OooCore(program)
    core.run()
    assert core.iq_count == 0
    assert core.lq_count == 0
    assert core.sq_count == 0
    assert not core.store_queue
    assert not core.pending_loads
    assert not core.pending_ctrl
    assert not core.unresolved_ctrl


def test_step_is_externally_drivable():
    program = assemble(".text\n  li a0, 1\n  halt\n")
    core = OooCore(program)
    for _ in range(200):
        if core._done:
            break
        core.step()
    assert core._done
    assert core.arf[10] == 1


def test_record_trace_off_by_default():
    program = assemble(".text\n  li a0, 1\n  halt\n")
    result = OooCore(program).run()
    assert result.committed_pcs == []


def test_fetch_queue_bounded():
    # A long straight-line program must never exceed the fetch queue bound.
    body = "\n".join("    addi a0, a0, 1" for _ in range(100))
    program = assemble(f".text\n{body}\n    halt\n")
    config = CoreConfig(fetch_queue_size=8)
    core = OooCore(program, config=config)
    max_seen = 0
    while not core._done:
        core.step()
        max_seen = max(max_seen, len(core.fetch_queue))
    assert max_seen <= 8
    assert core.arf[10] == 100


def test_policy_object_reuse_is_rejected_gracefully():
    """Two cores sharing one policy object share its stats; document that
    the harness always builds a fresh policy per run."""
    program = assemble(".text\n  li a0, 1\n  halt\n")
    policy = make_policy("fence")
    OooCore(program, policy=policy).run()
    checks_first = policy.stats.gate_checks
    OooCore(program, policy=policy).run()
    assert policy.stats.gate_checks >= checks_first  # accumulates, by design


def test_dispatch_respects_small_rob():
    # A cold (DRAM-latency) load at the ROB head blocks commit while the
    # front end keeps dispatching independent work: an 8-entry ROB must fill.
    body = "\n".join("    addi a0, a0, 1" for _ in range(30))
    program = assemble(f"""
    .data
    cold: .dword 12
    .text
        la t0, cold
        ld t1, 0(t0)
{body}
        add a0, a0, t1
        halt
    """)
    config = CoreConfig(rob_size=8, iq_size=8, lq_size=4, sq_size=4)
    result = OooCore(program, config=config).run()
    assert result.regs[10] == 42
    assert result.stats.rob_full_stalls > 0


def test_image_cache_stays_bounded_under_config_sweeps():
    """A sweep over more latency profiles than the decoded-image LRU holds
    must not grow it past its cap, and the newest entry must survive (LRU
    evicts from the cold end)."""
    import dataclasses

    from repro.uarch.decoded import decoded_image, image_cache_info
    from repro.workloads import build_workload

    program = build_workload("gather", "test").assemble()
    image_max = image_cache_info()["max_entries"]
    sweep = image_max + 10
    for alu_latency in range(1, sweep + 1):
        config = dataclasses.replace(CoreConfig(), alu_latency=alu_latency)
        newest = decoded_image(program, config)
    # The cap was actually exercised (the sweep overflowed it).
    assert image_cache_info()["entries"] == image_max
    # The hottest (most recent) profile is still cached: re-requesting it
    # returns the same image instead of decoding again.
    config = dataclasses.replace(CoreConfig(), alu_latency=sweep)
    assert decoded_image(program, config) is newest
