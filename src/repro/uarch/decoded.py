"""Pre-decoded program images: per-instruction decode done once per program.

The out-of-order front end used to re-derive, for every fetched
:class:`~repro.uarch.dyninst.DynInst`, facts that are static per program:
the control-flow kind of the instruction (plain / branch / jal / jalr /
halt), its reconvergence PC from the compiler pass, and the functional-unit
port and latency it will occupy at issue.  A :class:`DecodedProgram` bakes
all of that into one flat ``pc -> DecodedInst`` table built once.

Images are **content-addressed** (sha-256 over the instruction stream plus
the latency-relevant config fields — the same fingerprint discipline as the
persistent run cache in :mod:`repro.harness.cache`) and memoized per
process, so a grid of many (policy, config) points over the same workload —
serial or inside a pool worker — decodes each program exactly once.
Decoding never depends on the policy or on ``use_compiler_info``: the core
masks reconvergence PCs itself when modeling metadata-free binaries, which
keeps one image shareable across both arms of the compiler ablation.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..compiler.pass_manager import ensure_analysis
from ..isa import Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..asm.program import Program
    from .config import CoreConfig

# Control-flow kinds, dispatched on by the fetch stage (int compares beat
# enum identity chains on the hot path).
K_SEQ = 0
K_BRANCH = 1
K_JAL = 2
K_JALR = 3
K_HALT = 4

# Scheduling classes consulted by the issue stage (``sched``): plain ALU-class
# work / serialized (rdcycle, fence) / memory / policy-gated control.
S_PLAIN = 0
S_SERIALIZE = 1
S_MEM = 2
S_CTRL = 3

# Commit classes (``cc``): what the retirement stage must do beyond the
# common register writeback.
C_PLAIN = 0
C_STORE = 1
C_LOAD = 2
C_CFLUSH = 3
C_BRANCH = 4
C_FENCE = 5
C_HALT = 6

_PORT_INDEX = {"alu": 0, "mul": 1, "div": 2}


class DecodedInst:
    """Static per-instruction facts, materialized once per program."""

    __slots__ = (
        "inst", "opcode", "pc", "kind", "fallthrough",
        "port", "latency", "reconv_pc", "is_return",
        # Pre-resolved scheduler facts: one attribute read on the hot path
        # instead of an Opcode attribute chain / string compare.
        "sched", "port_i", "cc", "dest", "asize", "is_ctrl", "true_load",
        "rs1n", "rs2n",
        # Specialized per-PC ops, attached lazily by repro.uarch.specialize:
        # execute (xop), effective address (aop), load extension (ext).
        "xop", "aop", "ext",
    )

    def __init__(self, inst, kind: int, port: str, latency: int,
                 reconv_pc: int | None):
        self.inst = inst
        opcode = inst.opcode
        self.opcode = opcode
        self.pc = inst.pc
        self.kind = kind
        self.fallthrough = inst.fallthrough
        self.port = port
        self.latency = latency
        self.reconv_pc = reconv_pc
        self.is_return = (
            kind == K_JALR and inst.rs1 == 1 and inst.rd == 0
        )
        is_branch = opcode.is_branch
        is_jalr = opcode is Opcode.JALR
        if opcode in (Opcode.RDCYCLE, Opcode.FENCE):
            self.sched = S_SERIALIZE
        elif opcode.is_mem:
            self.sched = S_MEM
        elif is_branch or is_jalr:
            self.sched = S_CTRL
        else:
            self.sched = S_PLAIN
        self.port_i = _PORT_INDEX[port]
        if opcode is Opcode.HALT:
            self.cc = C_HALT
        elif opcode.is_store:
            self.cc = C_STORE
        elif opcode is Opcode.CFLUSH:
            self.cc = C_CFLUSH
        elif opcode.is_load:
            self.cc = C_LOAD
        elif is_branch:
            self.cc = C_BRANCH
        elif opcode is Opcode.FENCE:
            self.cc = C_FENCE
        else:
            self.cc = C_PLAIN
        self.dest = inst._dest
        # Renamable operand register numbers (-1 = no renamed read): lets
        # the dispatch stage rename without opcode attribute chains.
        self.rs1n = inst.rs1 if (opcode.reads_rs1 and inst.rs1 != 0) else -1
        self.rs2n = inst.rs2 if (opcode.reads_rs2 and inst.rs2 != 0) else -1
        self.asize = opcode.access_size if opcode.is_mem else 0
        self.is_ctrl = is_branch or is_jalr
        self.true_load = opcode.is_load and opcode is not Opcode.CFLUSH
        self.xop = None
        self.aop = None
        self.ext = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedInst({self.inst.text()}, kind={self.kind})"


class DecodedProgram:
    """The complete pre-decoded image of one program."""

    __slots__ = ("by_pc", "entry", "fingerprint", "spec_token")

    def __init__(self, by_pc: dict[int, DecodedInst], entry: int,
                 fingerprint: str):
        self.by_pc = by_pc
        self.entry = entry
        self.fingerprint = fingerprint
        # Set (to the fingerprint) once specialized ops are attached, so
        # sibling plans for other policies skip recompilation.
        self.spec_token = None

    def __len__(self) -> int:
        return len(self.by_pc)


def program_fingerprint(program: "Program") -> str:
    """Content hash of the instruction stream (memoized on the program).

    Covers everything decode reads from the program text: opcode + operands
    + layout of every instruction, the text base and the entry point.  The
    (possibly attached) analysis is deliberately *not* part of this hash —
    it is mixed into the image-cache key separately, because it can be
    replaced on a program after the fingerprint was memoized.
    """
    fp = getattr(program, "_content_fp", None)
    if fp is not None:
        return fp
    h = hashlib.sha256()
    h.update(f"{program.text_base}:{program.entry}|".encode())
    for inst in program.instructions:
        h.update(
            f"{inst.opcode.code}:{inst.rd}:{inst.rs1}:{inst.rs2}:"
            f"{inst.imm}:{inst.pc};".encode()
        )
    fp = h.hexdigest()
    program._content_fp = fp
    return fp


def _analysis_digest(program: "Program") -> str:
    """Digest of the attached analysis' reconvergence map."""
    h = hashlib.sha256()
    for pc, reconv in sorted(program.analysis.reconv_pc.items()):
        h.update(f"{pc}:{reconv};".encode())
    return h.hexdigest()


def _fu_of(opcode: Opcode, config: "CoreConfig") -> tuple[str, int]:
    """Functional-unit port and latency for one opcode (issue-stage view)."""
    if opcode in (Opcode.MUL, Opcode.MULH):
        return "mul", config.mul_latency
    if opcode in (Opcode.DIV, Opcode.REM):
        return "div", config.div_latency
    if opcode.is_branch or opcode is Opcode.JALR:
        return "alu", config.branch_latency
    return "alu", config.alu_latency


def decode_program(program: "Program", config: "CoreConfig") -> DecodedProgram:
    """Build a fresh image (no cache); prefer :func:`decoded_image`."""
    analysis = ensure_analysis(program)
    reconv_of = analysis.reconv_pc
    by_pc: dict[int, DecodedInst] = {}
    for inst in program.instructions:
        opcode = inst.opcode
        if opcode.is_branch:
            kind = K_BRANCH
        elif opcode is Opcode.JAL:
            kind = K_JAL
        elif opcode is Opcode.JALR:
            kind = K_JALR
        elif opcode is Opcode.HALT:
            kind = K_HALT
        else:
            kind = K_SEQ
        port, latency = _fu_of(opcode, config)
        by_pc[inst.pc] = DecodedInst(
            inst, kind, port, latency, reconv_of.get(inst.pc)
        )
    return DecodedProgram(by_pc, program.entry, program_fingerprint(program))


#: Process-level image cache: (program fingerprint, latency profile) -> image.
_IMAGE_CACHE: "OrderedDict[tuple, DecodedProgram]" = OrderedDict()
_IMAGE_CACHE_MAX = 64


def decoded_image(program: "Program", config: "CoreConfig") -> DecodedProgram:
    """The shared pre-decoded image for ``program`` under ``config``.

    Keyed by content, not identity: rebuilding the same workload for
    another grid point (or for each policy of a sweep) hits the cache.
    """
    # Attach the analysis before keying on it: a fresh program would key
    # on '' first and on the real digest from then on, decoding twice.
    ensure_analysis(program)
    key = (
        program_fingerprint(program),
        _analysis_digest(program),
        config.alu_latency, config.branch_latency,
        config.mul_latency, config.div_latency,
    )
    image = _IMAGE_CACHE.get(key)
    if image is None:
        image = decode_program(program, config)
        _IMAGE_CACHE[key] = image
        if len(_IMAGE_CACHE) > _IMAGE_CACHE_MAX:
            _IMAGE_CACHE.popitem(last=False)
    else:
        _IMAGE_CACHE.move_to_end(key)
    return image


def image_cache_info() -> dict[str, int]:
    """Diagnostics for the profiling harness."""
    return {"entries": len(_IMAGE_CACHE), "max_entries": _IMAGE_CACHE_MAX}
