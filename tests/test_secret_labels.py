"""Secret labels and the fill-independence proof (DESIGN.md §15).

Every case states the proof's verdict on the first fill and checks it
against a real simulation of the second: a proven pair must produce
equal records, and each unproven case here is one where the second fill
really does differ.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adversarial import secret_filled
from repro.asm import assemble
from repro.harness import GridPoint
from repro.harness.cache import ResultCache
from repro.harness.lockstep import BatchRecords, simulate_batch
from repro.harness.runner import RunRecord
from repro.secure import make_policy
from repro.uarch import OooCore
from repro.workloads import Workload
from repro.workloads.build_cache import SecretFill

FILLS = (0x41, 0xC3)

_DATA = """
.data
.secret k
key:
    .dword 0
.public
.align 6
slot:
    .dword 0
.align 6
cold:
    .dword 1
.align 6
probe:
    .zero 16384
.text
"""

#: The key is stored to a public slot and reloaded after the store has
#: drained (the fence waits for it), so the reload reads memory: the
#: label reaches the transmit address through the shadow set.
SHADOW = _DATA + """
    la t0, key
    ld t1, 0(t0)
    la t2, slot
    sd t1, 0(t2)
    fence
    ld t3, 0(t2)
    andi t3, t3, 0xff
    slli t3, t3, 6
    la t4, probe
    add t4, t4, t3
    ld t5, 0(t4)
    halt
"""

#: As SHADOW, but the reload is forwarded from the store while a cold
#: load holds the head of the ROB, so the store is still in flight.
FORWARD = _DATA + """
    la t0, key
    ld t1, 0(t0)
    la s2, cold
    cflush 0(s2)
    fence
    ld s3, 0(s2)
    ld s3, 0(s3)
    la t2, slot
    sd t1, 0(t2)
    ld t3, 0(t2)
    andi t3, t3, 0xff
    slli t3, t3, 6
    la t4, probe
    add t4, t4, t3
    ld t5, 0(t4)
    halt
"""

#: The key only ever reaches a register nothing reads.
DEAD = _DATA + """
    la t0, key
    ld t1, 0(t0)
    add s4, s4, t1
    la t2, slot
    ld t3, 0(t2)
    halt
"""

#: A slow, always-taken branch that a cold predictor calls not-taken:
#: its wrong path transmits the key.  ``{warm}`` may warm one probe line.
WRONG_PATH = _DATA + """
    la t0, key
    ld s11, 0(t0)
    la s1, probe
{warm}
    la s2, cold
    cflush 0(s2)
    fence
    ld t1, 0(s2)
    bnez t1, after
    andi t2, s11, 0xff
    slli t3, t2, 6
    add t4, s1, t3
    lb t5, 0(t4)
after:
    halt
"""


def _run(program, fill, policy):
    core = OooCore(secret_filled(program, fill), policy=make_policy(policy),
                   record_observations=True)
    result = core.run()
    record = ResultCache.serialize(RunRecord.from_result("case", policy, result))
    return core, result, record


def _pair(source, policy, fills=FILLS):
    """(proof on the first fill, both records, both results)."""
    program = assemble(source, name="case")
    first, r1, rec1 = _run(program, fills[0], policy)
    _, r2, rec2 = _run(program, fills[1], policy)
    return first.fill_independent(), (rec1, rec2), (r1, r2)


def test_label_through_the_shadow_set_is_not_proven():
    proven, (a, b), (r1, _) = _pair(SHADOW, "none")
    assert r1.stats.loads_forwarded == 0  # the reload read memory
    assert not proven
    assert a["obs_digest"] != b["obs_digest"]


def test_label_through_forwarding_is_not_proven():
    proven, (a, b), (r1, _) = _pair(FORWARD, "none")
    assert r1.stats.loads_forwarded == 1  # the reload took the store's data
    assert not proven
    assert a["obs_digest"] != b["obs_digest"]


def test_unlabelled_store_clears_the_shadow_bytes():
    # Overwriting the slot with a public value before the reload makes
    # the transmit address public again.
    source = SHADOW.replace("    fence\n", "    fence\n    sd zero, 0(t2)\n"
                            "    fence\n")
    proven, (a, b), _ = _pair(source, "none")
    assert proven
    assert a == b


@pytest.mark.parametrize("policy", ["none", "fence", "levioso"])
def test_secret_in_a_dead_register_is_proven(policy):
    proven, (a, b), (r1, r2) = _pair(DEAD, policy)
    assert proven
    assert r1.regs != r2.regs  # the architectural state does differ
    assert a == b


@pytest.mark.parametrize(
    "policy,want", [("none", False), ("fence", True), ("levioso", True)]
)
def test_wrong_path_dependent_load(policy, want):
    proven, (a, b), _ = _pair(WRONG_PATH.format(warm=""), policy)
    assert proven is want
    if want:
        assert a == b
    else:
        assert a["obs_digest"] != b["obs_digest"]


def test_dom_gate_reads_a_labelled_address():
    # One probe line is warm.  Under the cold fill the speculative
    # transmit misses and dom holds it at the gate until it is squashed,
    # so it never reaches memory; under the warm fill it hits and issues.
    # The address decided the gate, so it is a sink there.
    warm = "    addi t6, s1, {}\n    ld t6, 0(t6)".format(0x41 * 64)
    proven, (a, b), (r1, r2) = _pair(WRONG_PATH.format(warm=warm), "dom",
                                     fills=(0xC3, 0x41))
    assert r1.stats.loads_gated == 1 and r2.stats.loads_gated == 0
    assert not proven
    assert a["obs_digest"] != b["obs_digest"]


def _twin_workloads(source, check_reg):
    return {
        f"case/f{fill:02x}": Workload(
            name=f"case/f{fill:02x}",
            source=source.replace("key:\n    .dword 0",
                                  f"key:\n    .dword {fill}"),
            description="fill twin", category="adversarial",
            check_reg=check_reg, check_value=0,
            secret_fill=SecretFill("key", fill),
        )
        for fill in FILLS
    }


@pytest.mark.parametrize("labelled,copied", [(True, 0), (False, 1)])
def test_labelled_check_register_blocks_the_copy(monkeypatch, labelled,
                                                 copied):
    # a0 is 0 under both fills, but derived from the key when labelled.
    body = "    andi a0, t1, 0\n" if labelled else "    li a0, 0\n"
    source = _DATA + "    la t0, key\n    ld t1, 0(t0)\n" + body + "    halt\n"
    workloads = _twin_workloads(source, check_reg=10)
    monkeypatch.setattr("repro.workloads.build_workload",
                        lambda name, scale="ref": workloads[name])
    keys = tuple(workloads)
    points = tuple(GridPoint(name, "none", observe=True) for name in keys)
    records = simulate_batch(("test", points, None, keys))
    assert len(records.copied) == copied
    a, b = (ResultCache.serialize(records[key]) for key in keys)
    assert (a.pop("workload"), b.pop("workload")) == keys
    assert a == b


def test_batch_records_keep_their_copies_through_pickle():
    records = BatchRecords({"a": 1, "b": 2}, copied={"b"})
    back = pickle.loads(pickle.dumps(records))
    assert back == records and back.copied == {"b"}
