"""Memory-bound SPEClite workloads.

Each generator builds the assembly source *and* computes the expected result
with a Python mirror of the same algorithm, so every simulator run
self-checks (see :class:`~repro.workloads.spec.Workload`).
"""

from __future__ import annotations

import random

from .spec import Workload

_MASK64 = (1 << 64) - 1


def _dwords(values: list[int]) -> str:
    """Emit a .dword block, 8 values per line."""
    lines = []
    for i in range(0, len(values), 8):
        chunk = ", ".join(str(v) for v in values[i : i + 8])
        lines.append(f"    .dword {chunk}")
    return "\n".join(lines)


def pointer_chase(nodes: int = 512, iters: int = 1500, seed: int = 11) -> Workload:
    """mcf-like: three alternating random pointer chases.

    Three independent chains walk one shuffled permutation from different
    start points, giving the memory-level parallelism real pointer codes
    have.  Defenses that delay speculative (tainted-address) loads collapse
    that MLP; Levioso releases each chase as soon as the quick loop branch
    resolves.
    """
    rng = random.Random(seed)
    order = list(range(nodes))
    rng.shuffle(order)
    nxt = [0] * nodes
    for i in range(nodes):
        nxt[order[i]] = order[(i + 1) % nodes]

    starts = (0, nodes // 3, (2 * nodes) // 3)
    cur = list(starts)
    acc = 0
    odd = 0
    for _ in range(iters):
        for c in range(3):
            cur[c] = nxt[cur[c]]
            acc = (acc + cur[c]) & _MASK64
        if cur[0] & 1:  # traversals test node data (mcf's arc checks)
            odd += 1
    acc = (acc + odd) & _MASK64

    source = f"""
.data
next_table:
{_dwords(nxt)}
globals:
    .dword next_table
.text
    # Compiled-code prologue: pointers live in memory (tainted), while hot
    # loop bounds and induction variables are register-allocated, exactly as
    # a compiler would emit (see suite.py, "why these twelve").
    la gp, globals
    ld s0, 0(gp)        # &next_table
    li s4, {iters}
    li s1, {starts[0]}  # chain A
    li s5, {starts[1]}  # chain B
    li s6, {starts[2]}  # chain C
    li s2, 0            # accumulator
    li s3, 0            # i
    li s7, 0            # odd-node counter
loop:
    slli t0, s1, 3
    add t0, s0, t0
    ld s1, 0(t0)        # chase A: tainted address
    add s2, s2, s1
    andi t3, s1, 1      # data-dependent test on the chased node
    beqz t3, pc_even
    addi s7, s7, 1
pc_even:
    slli t1, s5, 3
    add t1, s0, t1
    ld s5, 0(t1)        # chase B (independent of A)
    add s2, s2, s5
    slli t2, s6, 3
    add t2, s0, t2
    ld s6, 0(t2)        # chase C
    add s2, s2, s6
    addi s3, s3, 1
    bne s3, s4, loop
    add a0, s2, s7
    halt
"""
    return Workload(
        name="pchase",
        source=source,
        description="three alternating pointer chases (MLP-sensitive)",
        category="memory",
        check_reg=10,
        check_value=acc,
    )


def stream_sum(n: int = 2048, seed: int = 12) -> Workload:
    """libquantum-like: sequential read-modify-write streaming."""
    rng = random.Random(seed)
    data = [rng.randrange(1 << 32) for _ in range(n)]
    acc = 0
    for v in data:
        if v & 0x80:  # data-dependent fixup branch (quantum-gate test)
            acc = (acc ^ v) & _MASK64
        acc = (acc + v) & _MASK64

    source = f"""
.data
in_array:
{_dwords(data)}
out_array:
    .zero {n * 8}
globals:
    .dword in_array, out_array
.text
    la gp, globals
    ld s0, 0(gp)        # &in_array
    ld s1, 8(gp)        # &out_array
    li s4, {n}
    li s2, 0            # acc
    li s3, 0            # i
loop:
    slli t0, s3, 3
    add t1, s0, t0
    ld t2, 0(t1)        # induction-indexed: untainted address
    andi t4, t2, 0x80
    beqz t4, no_fixup   # data-dependent branch on the streamed value
    xor s2, s2, t2
no_fixup:
    add s2, s2, t2
    add t3, s1, t0
    sd s2, 0(t3)        # streaming store
    addi s3, s3, 1
    bne s3, s4, loop
    mv a0, s2
    halt
"""
    return Workload(
        name="stream",
        source=source,
        description="sequential streaming sum with prefix-sum stores",
        category="memory",
        check_reg=10,
        check_value=acc,
    )


def gather(n: int = 1200, table_size: int = 256, seed: int = 13) -> Workload:
    """hash-join-like: slow data-dependent branch + control-independent gather.

    The ``beq`` condition comes from a strided (cache-missing) load, so it
    resolves late; the gather below it sits *past its reconvergence point*
    and is data-independent of it.  Conservative comprehensive policies stall
    the (tainted-address) gather behind the slow branch; Levioso does not.
    This is the workload shape where the paper's mechanism shines.
    """
    rng = random.Random(seed)
    stride_words = 8   # 64 B apart -> each cond load touches a new line
    cond_lines = 128   # working set: 8 KiB of condition lines (L1-thrashing)
    cond = [rng.randrange(1, 100) for _ in range(cond_lines * stride_words)]
    idx = [rng.randrange(table_size) for _ in range(n)]
    table = [rng.randrange(1 << 20) for _ in range(table_size)]

    acc = 0
    rare = 0
    for i in range(n):
        if cond[(i % cond_lines) * stride_words] == 0:  # never true
            rare += 1
        acc = (acc + table[idx[i]]) & _MASK64

    source = f"""
.data
cond_array:
{_dwords(cond)}
idx_array:
{_dwords(idx)}
lut:
{_dwords(table)}
globals:
    .dword cond_array, idx_array, lut
.text
    la gp, globals
    ld s0, 0(gp)        # &cond_array
    ld s1, 8(gp)        # &idx_array
    ld s2, 16(gp)       # &lut
    li s5, {n}
    li s3, 0            # acc
    li s4, 0            # i
    li s6, 0            # rare counter
loop:
    andi t6, s4, {cond_lines - 1}
    slli t0, t6, {3 + stride_words.bit_length() - 1}
    add t0, s0, t0
    ld t1, 0(t0)        # strided load: L1-missing, feeds the branch
    beqz t1, rare_path  # slow-resolving branch, never taken
cont:
    slli t2, s4, 3
    add t2, s1, t2
    ld t3, 0(t2)        # streaming index load (untainted address)
    slli t4, t3, 3
    add t4, s2, t4
    ld t5, 0(t4)        # gather: tainted address, control-independent
    add s3, s3, t5
    addi s4, s4, 1
    bne s4, s5, loop
    mv a0, s3
    halt
rare_path:
    addi s6, s6, 1
    j cont
"""
    return Workload(
        name="gather",
        source=source,
        description="slow branch + control-independent table gather",
        category="memory",
        check_reg=10,
        check_value=acc,
    )


def histogram(n: int = 1500, buckets: int = 64, seed: int = 14) -> Workload:
    """Histogram build: loads/stores whose addresses derive from loaded data."""
    rng = random.Random(seed)
    data = [rng.randrange(1 << 16) for _ in range(n)]
    hist = [0] * buckets
    for v in data:
        if v & 7:  # filtering branch on the loaded value
            hist[v % buckets] += 1
    checksum = 0
    for i, count in enumerate(hist):
        checksum = (checksum + count * (i + 1)) & _MASK64

    source = f"""
.data
data_array:
{_dwords(data)}
hist:
    .zero {buckets * 8}
globals:
    .dword data_array, hist
.text
    la gp, globals
    ld s0, 0(gp)        # &data_array
    ld s1, 8(gp)        # &hist
    li s3, {n}
    li s2, 0            # i
loop:
    slli t0, s2, 3
    add t0, s0, t0
    ld t1, 0(t0)        # value (untainted address)
    andi t4, t1, 7
    beqz t4, hskip      # filter: bin update is control-dependent on data
    andi t2, t1, {buckets - 1}
    slli t2, t2, 3
    add t2, s1, t2
    ld t3, 0(t2)        # bin read: tainted address
    addi t3, t3, 1
    sd t3, 0(t2)        # bin write
hskip:
    addi s2, s2, 1
    bne s2, s3, loop
    # checksum pass: acc += hist[i] * (i+1)
    li s2, 0
    li s4, 0            # acc
    li s3, {buckets}
chk:
    slli t0, s2, 3
    add t0, s1, t0
    ld t1, 0(t0)
    addi t2, s2, 1
    mul t3, t1, t2
    add s4, s4, t3
    addi s2, s2, 1
    bne s2, s3, chk
    mv a0, s4
    halt
"""
    return Workload(
        name="histogram",
        source=source,
        description="histogram build with loaded-data-indexed bins",
        category="memory",
        check_reg=10,
        check_value=checksum,
    )
