"""Seeded gadget synthesizer: Spectre-shaped programs from skeletons.

Each corpus item is generated from one of three gadget skeletons — the
same shapes as the hand-written :mod:`repro.attacks` gadgets — with
randomized register assignment, bounds, training lengths, secret
placement (data-section padding), and benign decoy code (straight-line
ALU blocks and never-taken branch diamonds).  A fixed variant schedule
alternates *intended-leaky* programs with *known-clean mutants* — the
scanner's false-positive bait:

====== ============ =====================================================
class  mutation     why it is clean
====== ============ =====================================================
v1     fenced       fence between the bounds check and the gadget: the
                    speculation window is drained before the transmit
v1     no-secret    the "secret" is ordinary public data (no ``.secret``)
v1     const-index  the gadget index is a constant in-bounds value — no
                    attacker steering, the accessed line is public
v1-ct  safe-use     the key is loaded (constant-time style) but only ever
                    used in register arithmetic; the dead gadget
                    transmits a public register
v2     fenced       the landing pad opens with a fence: an injected
                    transient entry drains before the pad's loads issue
====== ============ =====================================================

Everything is derived from ``random.Random(f"{seed}:{index}")``, so a
corpus item is reproducible from its *name* alone —
``fuzz/s<seed>/i<index>/f<fillhex>[/repaired]`` — and any worker process
can rebuild the exact workload without a corpus file (the fuzz campaign
fans out through the ordinary grid runner and run cache).  The secret
byte is the *fill*: the differential oracle runs each program twice with
two fills and diffs the observation traces.  Clean mutants are built to
be fill-*independent* (the no-secret stand-in is a fixed constant), so
their two traces are identical by construction unless something leaks.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from ..attacks.channel import PROBE_SLOTS, PROBE_STRIDE
from ..workloads.build_cache import BUILD_CACHE, SecretFill
from ..workloads.spec import Workload

#: Registers the synthesizer may allocate (ABI names; zero/ra/sp/gp/tp
#: excluded — ``ra`` is the jalr link register, the rest are special).
REG_POOL = tuple(
    [f"s{i}" for i in range(12)]
    + [f"a{i}" for i in range(8)]
    + [f"t{i}" for i in range(7)]
)

#: (skeleton, intent, mutation) schedule; item ``index`` uses entry
#: ``index % len(VARIANTS)``, so any prefix of the schedule is balanced:
#: 3 leaky : 5 clean per 8 items (count=32 ⇒ 12 leaky, 20 clean).
VARIANTS: tuple[tuple[str, str, str | None], ...] = (
    ("v1", "leaky", None),
    ("v1-ct", "leaky", None),
    ("v2", "leaky", None),
    ("v1", "clean", "fenced"),
    ("v1", "clean", "no-secret"),
    ("v1-ct", "clean", "safe-use"),
    ("v2", "clean", "fenced"),
    ("v1", "clean", "const-index"),
)

#: Fill byte for clean-mutant stand-in "secrets": fixed, never the fill,
#: so a mutant's architectural behaviour cannot depend on the oracle run.
PUBLIC_STAND_IN = 0x11

_NAME_RE = re.compile(
    r"^fuzz/s(?P<seed>\d+)/i(?P<index>\d+)/f(?P<fill>[0-9a-f]{2})"
    r"(?P<repaired>/repaired)?$"
)


@dataclass(frozen=True)
class SynthSpec:
    """One synthesized corpus item (all randomness already resolved)."""

    seed: int
    index: int
    skeleton: str            # v1 / v1-ct / v2
    intent: str              # leaky / clean
    mutation: str | None     # clean-mutant kind, None for leaky
    regs: tuple[str, ...]    # role -> register assignment (skeleton order)
    bound: int               # v1 array length (dwords)
    train_rounds: int
    secret_pad: int          # data padding before the secret (placement)
    work_ops: int            # v1-ct register-work chain length
    decoys: tuple[tuple[str, int, int], ...]  # (kind, const1, const2)

    @property
    def name(self) -> str:
        return f"fuzz/s{self.seed}/i{self.index}"

    def workload_name(self, fill: int, repaired: bool = False) -> str:
        suffix = "/repaired" if repaired else ""
        return f"{self.name}/f{fill:02x}{suffix}"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "skeleton": self.skeleton,
            "intent": self.intent,
            "mutation": self.mutation,
            "bound": self.bound,
            "train_rounds": self.train_rounds,
            "secret_pad": self.secret_pad,
        }


def synthesize_item(seed: int, index: int) -> SynthSpec:
    """Resolve all randomness for corpus item ``(seed, index)``."""
    rng = random.Random(f"{seed}:{index}")
    skeleton, intent, mutation = VARIANTS[index % len(VARIANTS)]
    regs = tuple(rng.sample(REG_POOL, 18))
    decoys = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("alu", "diamond"))
        decoys.append((kind, rng.randint(1, 63), rng.randint(1, 63)))
    return SynthSpec(
        seed=seed,
        index=index,
        skeleton=skeleton,
        intent=intent,
        mutation=mutation,
        regs=regs,
        bound=rng.choice((8, 16, 32)),
        train_rounds=rng.randint(6, 20),
        secret_pad=rng.choice((0, 8, 16)),
        work_ops=rng.randint(1, 4),
        decoys=tuple(decoys),
    )


def synthesize_corpus(seed: int, count: int) -> list[SynthSpec]:
    return [synthesize_item(seed, i) for i in range(count)]


# ------------------------------------------------------------- source emission
def _decoy_block(spec: SynthSpec, slot: int, d1: str, d2: str) -> str:
    """One benign decoy at insertion slot ``slot`` (pure ALU — decoys must
    never create secrecy, so they contain no loads)."""
    if slot >= len(spec.decoys):
        return ""
    kind, c1, c2 = spec.decoys[slot]
    if kind == "alu":
        return (
            f"    addi {d1}, {d1}, {c1}\n"
            f"    xori {d2}, {d1}, {c2}\n"
        )
    # Never-taken branch diamond: the dead arm is register-only work, and
    # its control-dependence region spans only itself — it cannot widen
    # any window covering a real transmitter.
    label = f"dec{spec.index}_{slot}"
    return (
        f"    li {d1}, {c1}\n"
        f"    beqz {d1}, {label}\n"
        f"    j {label}_done\n"
        f"{label}:\n"
        f"    addi {d2}, {d1}, {c2}\n"
        f"{label}_done:\n"
    )


def _v1_source(spec: SynthSpec, fill: int) -> str:
    (arr, prb, seq, bnd, i, n, idx, t0, t1, gad, sec, shf, adr, dst,
     wrm, _sp1, d1, d2) = spec.regs
    bound = spec.bound
    oob = bound * 8 + spec.secret_pad
    no_secret = spec.mutation == "no-secret"
    const_index = spec.mutation == "const-index"
    secret_value = PUBLIC_STAND_IN if no_secret else fill
    secret_directive = "" if no_secret else f".secret synth{spec.index}\n"

    if const_index:
        idxs = [(spec.train_rounds + 1) % bound * 8]  # unused, layout only
        fetch_idx = f"    li {idx}, {(3 % bound) * 8}\n"
    else:
        idxs = [(j % bound) * 8 for j in range(spec.train_rounds)] + [oob]
        fetch_idx = (
            f"    slli {t0}, {i}, 3\n"
            f"    add {t0}, {seq}, {t0}\n"
            f"    ld {idx}, 0({t0})\n"
        )
    rounds = 1 if const_index else len(idxs)
    idx_words = ", ".join(str(v) for v in idxs)
    gadget_fence = "    fence\n" if spec.mutation == "fenced" else ""
    pad = f"    .zero {spec.secret_pad}\n" if spec.secret_pad else ""

    return f"""\
.data
array:
    .zero {bound * 8}
{pad}{secret_directive}secret:
    .dword {secret_value}
.public
warm_neighbor:
    .dword 0
.align 6
probe:
    .zero {PROBE_SLOTS * PROBE_STRIDE}
.align 6
bound:
    .dword {bound * 8}
.align 6
idx_seq:
    .dword {idx_words}
.text
    la {arr}, array
    la {prb}, probe
    la {seq}, idx_seq
    la {bnd}, bound
    la {wrm}, warm_neighbor
    ld {t1}, 0({wrm})
{_decoy_block(spec, 0, d1, d2)}\
    li {i}, 0
    li {n}, {rounds}
loop:
{fetch_idx}\
{_decoy_block(spec, 1, d1, d2)}\
    cflush 0({bnd})
    fence
    ld {t1}, 0({bnd})
    bgeu {idx}, {t1}, skip
{gadget_fence}\
    add {gad}, {arr}, {idx}
    lbu {sec}, 0({gad})
    slli {shf}, {sec}, 6
    add {adr}, {prb}, {shf}
    lb {dst}, 0({adr})
skip:
    addi {i}, {i}, 1
    bne {i}, {n}, loop
    halt
"""


def _v1_ct_source(spec: SynthSpec, fill: int) -> str:
    (kad, key, wrk, prb, cnd, cv, g1, g2, g3, g4,
     pub, _s1, d1, d2, *_rest) = spec.regs
    safe_use = spec.mutation == "safe-use"
    work = ""
    for j in range(spec.work_ops):
        work += f"    xori {wrk}, {wrk}, {17 + j}\n"
    transmit_reg = pub if safe_use else key
    return f"""\
.data
.secret synth{spec.index}
key:
    .dword {fill}
.public
{"" if not spec.secret_pad else f"    .zero {spec.secret_pad}"}
.align 6
probe:
    .zero {PROBE_SLOTS * PROBE_STRIDE}
.align 6
cond:
    .dword 1
.text
    la {kad}, key
    ld {key}, 0({kad})
    li {wrk}, 0
    xor {wrk}, {wrk}, {key}
{work}\
    li {pub}, 5
{_decoy_block(spec, 0, d1, d2)}\
    la {prb}, probe
    la {cnd}, cond
    cflush 0({cnd})
    fence
    ld {cv}, 0({cnd})
    bnez {cv}, after
    andi {g1}, {transmit_reg}, 0xff
    slli {g2}, {g1}, 6
    add {g3}, {prb}, {g2}
    lb {g4}, 0({g3})
after:
{_decoy_block(spec, 1, d1, d2)}\
    halt
"""


def _v2_source(spec: SynthSpec, fill: int) -> str:
    (prb, ctab, vtab, t0, tga, vad, vp, val, tgt, i, n,
     g1, g2, g3, g4, wrm, d1, d2) = spec.regs
    rounds = spec.train_rounds + 1
    target_syms = ", ".join(["stub"] * spec.train_rounds + ["benign"])
    value_syms = ", ".join(["public_zero"] * spec.train_rounds + ["key"])
    stub_fence = "    fence\n" if spec.mutation == "fenced" else ""
    pad = f"    .zero {spec.secret_pad}\n" if spec.secret_pad else ""
    return f"""\
.text
    la {prb}, probe
    la {ctab}, call_targets
    la {vtab}, value_ptrs
    la {wrm}, key_warm
    ld {val}, 0({wrm})
{_decoy_block(spec, 0, d1, d2)}\
    li {i}, 0
    li {n}, {rounds}
loop:
    slli {t0}, {i}, 3
    add {tga}, {ctab}, {t0}
    cflush 0({tga})
    fence
{_decoy_block(spec, 1, d1, d2)}\
    add {vad}, {vtab}, {t0}
    ld {vp}, 0({vad})
    ld {val}, 0({vp})
    ld {tgt}, 0({tga})
    jalr ra, {tgt}, 0
    addi {i}, {i}, 1
    bne {i}, {n}, loop
    halt

stub:
{stub_fence}\
    andi {g1}, {val}, 0xff
    slli {g2}, {g1}, 6
    add {g3}, {prb}, {g2}
    lb {g4}, 0({g3})
    ret
benign:
    ret

.data
{pad}.secret synth{spec.index}
key:
    .dword {fill}
.public
key_warm:
    .dword 0
.align 6
public_zero:
    .dword 0
.align 6
probe:
    .zero {PROBE_SLOTS * PROBE_STRIDE}
.align 6
call_targets:
    .dword {target_syms}
value_ptrs:
    .dword {value_syms}
"""


_EMITTERS = {"v1": _v1_source, "v1-ct": _v1_ct_source, "v2": _v2_source}

#: Data label of the ``.dword`` each skeleton writes its fill into.
_FILL_LABELS = {"v1": "secret", "v1-ct": "key", "v2": "key"}


def synth_source(spec: SynthSpec, fill: int) -> str:
    """Assembly source of one corpus item with ``fill`` as the secret byte."""
    if not 1 <= fill <= 255:
        raise ValueError("fill byte must be in 1..255 (slot 0 is noise)")
    return _EMITTERS[spec.skeleton](spec, fill)


def secret_fill(spec: SynthSpec, fill: int) -> SecretFill | None:
    """Where :func:`synth_source` puts ``fill`` (None: the source ignores it)."""
    if spec.mutation == "no-secret":
        return None
    return SecretFill(_FILL_LABELS[spec.skeleton], fill)


# ------------------------------------------------------------ workload bridge
def parse_fuzz_name(name: str) -> tuple[int, int, int, bool]:
    """Decode ``fuzz/s<seed>/i<index>/f<fillhex>[/repaired]``."""
    match = _NAME_RE.match(name)
    if match is None:
        raise KeyError(
            f"malformed fuzz workload name {name!r} "
            "(want fuzz/s<seed>/i<index>/f<fillhex>[/repaired])"
        )
    return (
        int(match.group("seed")),
        int(match.group("index")),
        int(match.group("fill"), 16),
        match.group("repaired") is not None,
    )


def build_fuzz_workload(name: str) -> Workload:
    """Rebuild a synthesized workload from its self-describing name.

    Repaired variants take the (deterministic) repair loop's output for
    the synthesized program, so any worker reconstructs the exact repaired
    binary without shipping sources between processes; the build cache
    runs that loop once per item and process, for both fills.
    """
    seed, index, fill, repaired = parse_fuzz_name(name)
    spec = synthesize_item(seed, index)
    source = synth_source(spec, fill)
    slot = secret_fill(spec, fill)
    if repaired:
        source = BUILD_CACHE.repair(source, name, slot).source
    return Workload(
        name=name,
        source=source,
        description=(
            f"synthesized {spec.skeleton} ({spec.intent}"
            f"{', ' + spec.mutation if spec.mutation else ''})"
            f"{' after repair' if repaired else ''}"
        ),
        category="adversarial",
        secret_fill=slot,
    )
