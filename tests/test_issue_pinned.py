"""Pinned simulated behaviour of the issue stage.

The cycle-skip equivalence suite (``tests/test_event_horizon.py``)
compares the fast path against a reference that runs the *same* issue
stage, so a change to ``OooCore._issue`` itself is invisible to it.
These tests pin the simulated outcome directly:

* one SHA-256 over ``stats_dict()`` + architectural registers for the
  14 SPEClite workloads x 7 policies (the memoised stepped reference
  runs, shared with the equivalence suite — no extra simulations);
* one SHA-256 over the fence-bearing adversarial programs
  ``fuzz/s7/i{0..15}/f{41,c3}`` x 7 policies;
* exact ``memdep_blocked_cycles`` / ``load_gate_cycles`` / ``cycles``
  for small hand-written programs that exercise each corner of the
  fence-ordered retry: mem ports exhausted by older loads, a fence
  squashed on a mispredicted path, two fences in flight, a ``cflush``
  behind a fence, and the ``dom`` / ``nda`` gates.

A digest that moves means simulated behaviour moved: that belongs in a
correctness change that says why, never in a speed change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.asm import assemble
from repro.secure import make_policy
from repro.uarch import CoreConfig, OooCore
from repro.workloads import WORKLOAD_NAMES, build_workload

from .test_event_horizon import POLICIES, reference_run

SUITE_DIGEST = "9a85c2a1a809329b82d8b071fb9cda9d2d874e1567e1e341062a264853480c5f"
FUZZ_DIGEST = "35666e81326f33a8e205905a6ee466b7753da252dc883e98d8d0ceee2d3f4743"

FUZZ_NAMES = tuple(
    f"fuzz/s7/i{index}/f{fill}" for index in range(16) for fill in ("41", "c3")
)


def _digest(runs) -> str:
    """SHA-256 over (name, policy, stats_dict, regs) in the given order."""
    h = hashlib.sha256()
    for name, policy_name, stats, regs in runs:
        record = [name, policy_name, stats, list(regs)]
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def _run(program, policy_name, config=None):
    core = OooCore(program, config=config, policy=make_policy(policy_name))
    return core.run(max_cycles=2_000_000)


def test_suite_stats_digest_is_pinned():
    runs = []
    for name in WORKLOAD_NAMES:
        for policy_name in POLICIES:
            _, regs, stats = reference_run(name, policy_name)
            runs.append((name, policy_name, stats, regs))
    assert _digest(runs) == SUITE_DIGEST


def test_fence_bearing_fuzz_stats_digest_is_pinned():
    runs = []
    for name in FUZZ_NAMES:
        program = build_workload(name).assemble()
        for policy_name in POLICIES:
            result = _run(program, policy_name)
            runs.append((name, policy_name, result.stats_dict(), result.regs))
    assert _digest(runs) == FUZZ_DIGEST


# -- fence-ordered retry corners --------------------------------------------
# Each program starts on a cold miss so the fences wait at the ROB head
# while younger memory ops pile up behind them.  Expected values were
# recorded from the per-op retry loop and must not move.

#: A store whose address waits on the cold miss blocks four older loads
#: (memory disambiguation); when it resolves they all retry in one pass
#: and use up the mem ports, so the loads behind the fence are not
#: attempted (or counted) in that pass.
PORTS_SOURCE = """
.data
slow: .dword 0
.align 6
arr: .dword 1, 2, 3, 4, 5, 6, 7, 8
.align 6
buf: .dword 0, 0
.text
    la s0, slow
    la s1, arr
    la s2, buf
    ld t0, 0(s0)
    add t1, s2, t0
    sd s1, 0(t1)
    ld a0, 0(s1)
    ld a1, 8(s1)
    ld a2, 16(s1)
    ld a3, 24(s1)
    fence
    ld a4, 32(s1)
    ld a5, 40(s1)
    ld a6, 48(s1)
    halt
"""

#: The branch waits only on a short multiply chain and is predicted
#: not-taken, so it resolves while the older fence still waits on the
#: cold miss: the wrong-path fence (with loads parked behind it) is
#: squashed and the older fence stays in flight.
SQUASH_SOURCE = """
.data
slow: .dword 0
.align 6
arr: .dword 1, 2, 3, 4, 5, 6, 7, 8
.text
    la s0, slow
    la s1, arr
    ld t5, 0(s0)
    fence
    li t0, 1
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    mul t0, t0, t0
    addi t0, t0, -1
    beqz t0, skip
    fence
    ld a0, 0(s1)
    ld a1, 8(s1)
    ld a2, 16(s1)
skip:
    ld a3, 24(s1)
    ld a4, 32(s1)
    halt
"""

#: Two fences in flight at once, loads between and behind them.
TWO_FENCES_SOURCE = """
.data
slow: .dword 0
.align 6
arr: .dword 1, 2, 3, 4, 5, 6, 7, 8
.text
    la s0, slow
    la s1, arr
    ld t0, 0(s0)
    fence
    ld a0, 0(s1)
    ld a1, 8(s1)
    fence
    ld a2, 16(s1)
    ld a3, 24(s1)
    add a4, a0, a3
    halt
"""

#: A cflush parked behind a fence, then a load of the flushed line.
CFLUSH_SOURCE = """
.data
slow: .dword 0
.align 6
arr: .dword 1, 2, 3, 4, 5, 6, 7, 8
.text
    la s0, slow
    la s1, arr
    ld a0, 0(s1)
    ld t0, 0(s0)
    fence
    cflush 0(s1)
    ld a1, 0(s1)
    halt
"""

#: The fuzz gadget shape: ``cflush; fence; ld; b...`` bounds-check
#: training loop with a probe load in the branch shadow, so the policy
#: gate and the fence ordering both apply.
GADGET_SOURCE = """
.data
arr: .dword 0, 1, 2, 3, 4, 5, 6, 7
.align 6
bound: .dword 6
.align 6
probe: .zero 4096
.text
    la s0, arr
    la s1, bound
    la s2, probe
    li s3, 0
    li s4, 8
    li a0, 0
loop:
    slli t0, s3, 3
    add t0, s0, t0
    ld t1, 0(t0)
    cflush 0(s1)
    fence
    ld t2, 0(s1)
    bgeu t1, t2, skip
    slli t3, t1, 6
    add t3, s2, t3
    ld t4, 0(t3)
    add a0, a0, t4
skip:
    addi s3, s3, 1
    bne s3, s4, loop
    halt
"""


@pytest.mark.parametrize(
    "source, policy_name, mem_ports, expected",
    [
        # expected: (memdep_blocked_cycles, load_gate_cycles, cycles)
        (PORTS_SOURCE, "none", 2, (35, 0, 431)),
        (PORTS_SOURCE, "none", 1, (36, 0, 432)),
        (SQUASH_SOURCE, "none", 2, (20, 0, 421)),
        (TWO_FENCES_SOURCE, "none", 2, (17, 0, 427)),
        (TWO_FENCES_SOURCE, "none", 1, (14, 0, 428)),
        (CFLUSH_SOURCE, "none", 2, (6, 0, 421)),
        (GADGET_SOURCE, "dom", 2, (1858, 74, 1929)),
        (GADGET_SOURCE, "dom", 1, (1664, 71, 1930)),
        (GADGET_SOURCE, "nda", 2, (961, 0, 1275)),
        (GADGET_SOURCE, "nda", 1, (940, 0, 1275)),
        (GADGET_SOURCE, "fence", 2, (1790, 151, 1929)),
        (GADGET_SOURCE, "levioso", 2, (1130, 52, 1929)),
    ],
    ids=[
        "ports-exhausted", "ports-exhausted-1port",
        "squashed-fence",
        "two-fences", "two-fences-1port",
        "cflush-behind-fence",
        "gadget-dom", "gadget-dom-1port",
        "gadget-nda", "gadget-nda-1port",
        "gadget-fence", "gadget-levioso",
    ],
)
def test_fence_ordered_retry_counts(source, policy_name, mem_ports, expected):
    program = assemble(source)
    result = _run(program, policy_name, CoreConfig(mem_ports=mem_ports))
    s = result.stats
    assert (
        s.memdep_blocked_cycles, s.load_gate_cycles, s.cycles
    ) == expected


def test_squashed_fence_scenario_really_mispredicts():
    """Guard for the squash corner: the wrong path must exist."""
    result = _run(assemble(SQUASH_SOURCE), "none")
    assert result.stats.branch_mispredicts == 1
    assert result.stats.squashed_insts == 3
