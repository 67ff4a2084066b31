"""Region-specialized execute/address/extend functions, exec-compiled per PC.

The interpreted execute path (:meth:`~repro.uarch.core.OooCore._execute_alu`
and the address/sign-extension arithmetic in ``_try_issue_mem``) re-derives,
for every executed :class:`~repro.uarch.dyninst.DynInst`, facts that are
constants at that instruction's PC: the opcode dispatch through
``semantics._ALU_OPS``/``_BRANCH_OPS``, the immediate, the branch target and
fallthrough, the link-register value, and the load access size/signedness.

This module ``exec``-compiles one tiny function per static instruction with
all of those folded in as literals, and hangs them off the shared
:class:`~repro.uarch.decoded.DecodedInst` records (slots ``xop``/``aop``/
``ext``):

* ``xop(dyn, a, b)`` — the execute op: writes ``dyn.result`` (ALU/JAL) or
  the branch/JALR resolution fields (``actual_taken``/``actual_target``/
  ``mispredicted``), bit-for-bit equal to what the interpreted path via
  :mod:`repro.functional.semantics` produces;
* ``aop(base)`` — the effective-address op for loads/stores/cflush, with
  the immediate folded;
* ``ext(raw)`` — the load sign/zero-extension with size and signedness
  folded (``OooCore._extend`` specialized to one opcode).

Plans are cached in an LRU keyed like the decoded-image cache — program
fingerprint plus the latency-relevant config fields — extended with the
policy name (the plan also records whether the policy overrides
``defers_wakeup``, which lets the specialized core skip that virtual call
per load completion).  The generated ops themselves are policy-independent
and are built once per :class:`DecodedProgram` instance.

``REPRO_NO_SPECIALIZE=1`` forces the interpreted reference path, mirroring
``REPRO_NO_CYCLE_SKIP``; the equivalence suite
(``tests/test_specialize.py``) compares the two arm-for-arm over every
workload and policy.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..functional.semantics import _div, _rem
from ..isa import INSTRUCTION_BYTES, WORD_MASK, Opcode
from ..secure.policy import SpeculationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..secure.policy import SpeculationPolicy as _Policy
    from .config import CoreConfig
    from .decoded import DecodedProgram

_M = WORD_MASK
_H = 1 << 63
_T = 1 << 64

#: Branch predicates as (needs_signed, expression-template) pairs.
_BRANCH_PREDS: dict[Opcode, tuple[bool, str]] = {
    Opcode.BEQ: (False, "a == b"),
    Opcode.BNE: (False, "a != b"),
    Opcode.BLT: (True, "sa < sb"),
    Opcode.BGE: (True, "sa >= sb"),
    Opcode.BLTU: (False, "a < b"),
    Opcode.BGEU: (False, "a >= b"),
}

#: Sign-extension constants per signed sub-64-bit load: (sign bit, span).
_SIGNED_LOADS = {
    Opcode.LB: (1 << 7, 1 << 8),
    Opcode.LH: (1 << 15, 1 << 16),
    Opcode.LW: (1 << 31, 1 << 32),
}


def _signed_lines(var: str, out: str) -> list[str]:
    """Statements converting unsigned ``var`` to signed ``out`` (exact
    replica of :func:`repro.isa.to_signed`, mask included)."""
    return [
        f"    {out} = {var} & {_M}",
        f"    {out} = {out} - {_T} if {out} >= {_H} else {out}",
    ]


def _alu_lines(opcode: Opcode, imm: int, pc: int) -> list[str] | None:
    """Body statements computing ``dyn.result`` for one ALU-class PC."""
    immu = imm & _M
    sh = imm & 63
    if opcode is Opcode.ADD:
        return [f"    dyn.result = (a + b) & {_M}"]
    if opcode is Opcode.SUB:
        return [f"    dyn.result = (a - b) & {_M}"]
    if opcode is Opcode.AND:
        return ["    dyn.result = a & b"]
    if opcode is Opcode.OR:
        return ["    dyn.result = a | b"]
    if opcode is Opcode.XOR:
        return ["    dyn.result = a ^ b"]
    if opcode is Opcode.SLL:
        return [f"    dyn.result = (a << (b & 63)) & {_M}"]
    if opcode is Opcode.SRL:
        return ["    dyn.result = a >> (b & 63)"]
    if opcode is Opcode.SRA:
        return _signed_lines("a", "sa") + [
            f"    dyn.result = (sa >> (b & 63)) & {_M}"
        ]
    if opcode is Opcode.SLT:
        return (
            _signed_lines("a", "sa")
            + _signed_lines("b", "sb")
            + ["    dyn.result = 1 if sa < sb else 0"]
        )
    if opcode is Opcode.SLTU:
        return ["    dyn.result = 1 if a < b else 0"]
    if opcode is Opcode.MUL:
        return [f"    dyn.result = (a * b) & {_M}"]
    if opcode is Opcode.MULH:
        return (
            _signed_lines("a", "sa")
            + _signed_lines("b", "sb")
            + [f"    dyn.result = ((sa * sb) >> 64) & {_M}"]
        )
    if opcode is Opcode.DIV:
        return ["    dyn.result = _div(a, b, 0, 0)"]
    if opcode is Opcode.REM:
        return ["    dyn.result = _rem(a, b, 0, 0)"]
    if opcode is Opcode.ADDI:
        return [f"    dyn.result = (a + {imm}) & {_M}"]
    if opcode is Opcode.ANDI:
        return [f"    dyn.result = a & {immu}"]
    if opcode is Opcode.ORI:
        return [f"    dyn.result = a | {immu}"]
    if opcode is Opcode.XORI:
        return [f"    dyn.result = a ^ {immu}"]
    if opcode is Opcode.SLLI:
        return [f"    dyn.result = (a << {sh}) & {_M}"]
    if opcode is Opcode.SRLI:
        return [f"    dyn.result = a >> {sh}"]
    if opcode is Opcode.SRAI:
        return _signed_lines("a", "sa") + [
            f"    dyn.result = (sa >> {sh}) & {_M}"
        ]
    if opcode is Opcode.SLTI:
        return _signed_lines("a", "sa") + [
            f"    dyn.result = 1 if sa < {imm} else 0"
        ]
    if opcode is Opcode.LI:
        return [f"    dyn.result = {immu}"]
    if opcode is Opcode.NOP:
        return ["    dyn.result = 0"]
    if opcode is Opcode.JAL:
        # The core computes the link value as inst.pc + INSTRUCTION_BYTES.
        return [f"    dyn.result = {pc + INSTRUCTION_BYTES}"]
    return None  # mem / system / branch: not an ALU xop


def _emit_ops_source(image: "DecodedProgram") -> tuple[str, dict[int, tuple]]:
    """Generated module source plus pc -> (xop name, aop name, ext name)."""
    lines: list[str] = []
    names: dict[int, tuple] = {}
    addr_fns: dict[int, str] = {}   # imm -> shared address-fn name
    ext_fns: dict[Opcode, str] = {}  # load opcode -> shared extend-fn name
    n = 0
    for pc, dec in image.by_pc.items():
        inst = dec.inst
        opcode = dec.opcode
        xop_name = aop_name = ext_name = None
        if opcode.is_mem:
            imm = inst.imm
            aop_name = addr_fns.get(imm)
            if aop_name is None:
                aop_name = addr_fns[imm] = f"_addr_{len(addr_fns)}"
                lines.append(f"def {aop_name}(base):")
                lines.append(f"    return (base + {imm}) & {_M}")
            if opcode.is_load and opcode is not Opcode.CFLUSH:
                ext_name = ext_fns.get(opcode)
                if ext_name is None:
                    ext_name = ext_fns[opcode] = f"_ext_{opcode.mnemonic}"
                    lines.append(f"def {ext_name}(raw):")
                    signed = _SIGNED_LOADS.get(opcode)
                    if signed is not None:
                        bit, span = signed
                        lines.append(
                            f"    return (raw - {span} if raw & {bit} "
                            f"else raw) & {_M}"
                        )
                    else:
                        lines.append(f"    return raw & {_M}")
        elif opcode.is_branch:
            needs_signed, pred = _BRANCH_PREDS[opcode]
            xop_name = f"_x_{n}"
            n += 1
            lines.append(f"def {xop_name}(dyn, a, b):")
            if needs_signed:
                lines += _signed_lines("a", "sa") + _signed_lines("b", "sb")
            lines.append(f"    t = {pred}")
            lines.append("    dyn.actual_taken = t")
            lines.append(
                f"    dyn.actual_target = {inst.branch_target} if t "
                f"else {dec.fallthrough}"
            )
            lines.append("    dyn.mispredicted = t != dyn.predicted_taken")
        elif opcode is Opcode.JALR:
            xop_name = f"_x_{n}"
            n += 1
            lines.append(f"def {xop_name}(dyn, a, b):")
            lines.append(f"    t = (a + {inst.imm}) & {_M}")
            lines.append("    dyn.actual_target = t")
            lines.append(f"    dyn.result = {pc + INSTRUCTION_BYTES}")
            lines.append("    if dyn.predicted_target is not None:")
            lines.append("        dyn.mispredicted = t != dyn.predicted_target")
        else:
            body = _alu_lines(opcode, inst.imm, pc)
            if body is not None:  # HALT/RDCYCLE/FENCE never reach execute
                xop_name = f"_x_{n}"
                n += 1
                lines.append(f"def {xop_name}(dyn, a, b):")
                lines += body
        if xop_name or aop_name or ext_name:
            names[pc] = (xop_name, aop_name, ext_name)
    return "\n".join(lines), names


def _attach_ops(image: "DecodedProgram") -> int:
    """Compile and attach the per-PC ops to ``image``; returns fn count."""
    source, names = _emit_ops_source(image)
    namespace: dict = {"_div": _div, "_rem": _rem}
    exec(  # noqa: S102 - generated from the trusted decoded image only
        compile(source, f"<specialized:{image.fingerprint[:12]}>", "exec"),
        namespace,
    )
    by_pc = image.by_pc
    for pc, (xop_name, aop_name, ext_name) in names.items():
        dec = by_pc[pc]
        if xop_name is not None:
            dec.xop = namespace[xop_name]
        if aop_name is not None:
            dec.aop = namespace[aop_name]
        if ext_name is not None:
            dec.ext = namespace[ext_name]
    return sum(
        1 for name in namespace if name.startswith(("_x_", "_addr_", "_ext_"))
    )


class SpecializedProgram:
    """One cached specialization plan: compiled ops + policy-level facts."""

    __slots__ = ("key", "fn_count", "codegen_ns", "skip_defer_wakeup", "hits")

    def __init__(self, key: tuple, fn_count: int, codegen_ns: int,
                 skip_defer_wakeup: bool):
        self.key = key
        self.fn_count = fn_count
        self.codegen_ns = codegen_ns
        self.skip_defer_wakeup = skip_defer_wakeup
        self.hits = 0


#: Plan cache: (program fp, latency profile, policy name) -> plan.  Keyed
#: like the decoded-image LRU (:data:`repro.uarch.decoded._IMAGE_CACHE`)
#: plus the policy name.
_SPEC_CACHE: "OrderedDict[tuple, SpecializedProgram]" = OrderedDict()
_SPEC_CACHE_MAX = 128

#: Cumulative diagnostics for the profiling harness (process lifetime).
_STATS = {"hits": 0, "misses": 0, "codegen_ns": 0, "fn_count": 0}


def specialize_enabled() -> bool:
    """Process-level default for the ``specialize`` core knob."""
    return os.environ.get("REPRO_NO_SPECIALIZE") != "1"


def specialized_image(
    image: "DecodedProgram", config: "CoreConfig", policy: "_Policy"
) -> SpecializedProgram:
    """The specialization plan for ``image`` under ``config``/``policy``.

    Idempotent per image: the exec-compiled ops are attached to the
    (shared) :class:`DecodedInst` records exactly once; cache hits for a
    *fresh* image object of the same content (:func:`decode_program`)
    re-attach by recompiling, which keeps plans content-addressed rather
    than identity-addressed.
    """
    key = (
        image.fingerprint,
        config.alu_latency, config.branch_latency,
        config.mul_latency, config.div_latency,
        policy.name,
    )
    plan = _SPEC_CACHE.get(key)
    if plan is None:
        _STATS["misses"] += 1
        start = time.perf_counter_ns()
        if image.spec_token is None:
            fn_count = _attach_ops(image)
            image.spec_token = image.fingerprint
        else:
            fn_count = 0  # ops already attached by a sibling plan
        codegen_ns = time.perf_counter_ns() - start
        _STATS["codegen_ns"] += codegen_ns
        _STATS["fn_count"] += fn_count
        plan = SpecializedProgram(
            key, fn_count, codegen_ns,
            skip_defer_wakeup=(
                type(policy).defers_wakeup is SpeculationPolicy.defers_wakeup
            ),
        )
        _SPEC_CACHE[key] = plan
        if len(_SPEC_CACHE) > _SPEC_CACHE_MAX:
            _SPEC_CACHE.popitem(last=False)
    else:
        _STATS["hits"] += 1
        plan.hits += 1
        _SPEC_CACHE.move_to_end(key)
        if image.spec_token is None:
            start = time.perf_counter_ns()
            _STATS["fn_count"] += _attach_ops(image)
            _STATS["codegen_ns"] += time.perf_counter_ns() - start
            image.spec_token = image.fingerprint
    return plan


def spec_cache_info() -> dict[str, int | float]:
    """Diagnostics for the profiling harness (cache + codegen cost)."""
    return {
        "entries": len(_SPEC_CACHE),
        "max_entries": _SPEC_CACHE_MAX,
        "hits": _STATS["hits"],
        "misses": _STATS["misses"],
        "generated_functions": _STATS["fn_count"],
        "codegen_ms": _STATS["codegen_ns"] / 1e6,
    }
