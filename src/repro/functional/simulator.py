"""Functional (architectural) simulator — the golden model.

Executes one instruction per step with no timing.  Used for:

* validating workloads while developing them,
* differential testing of the out-of-order core (identical architectural
  results required under every security policy),
* fast production of committed-path instruction traces for compiler
  statistics (e.g. Fig. 1's dynamic dependency measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.program import Program
from ..errors import SimulationTimeout
from ..isa import Instruction, Opcode
from . import semantics
from .state import ArchState

DEFAULT_MAX_INSTRUCTIONS = 5_000_000


@dataclass
class TraceEntry:
    """One retired instruction, as recorded by the tracing mode."""

    pc: int
    opcode: Opcode
    rd_value: int | None = None
    mem_address: int | None = None
    taken: bool | None = None


@dataclass
class FunctionalResult:
    """Outcome of a functional run."""

    state: ArchState
    instructions: int
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def regs(self) -> tuple[int, ...]:
        return self.state.snapshot_regs()


class FunctionalSimulator:
    """In-order, 1-instruction-per-step architectural simulator."""

    def __init__(self, program: Program, trace: bool = False):
        self.program = program
        self.state = ArchState.boot(program)
        self.trace_enabled = trace
        self.trace: list[TraceEntry] = []
        self.instruction_count = 0

    # ----------------------------------------------------------------- stepping
    def step(self) -> TraceEntry | None:
        """Execute one instruction; returns its trace entry (always built).

        Returns None when already halted.
        """
        state = self.state
        if state.halted:
            return None
        inst = self.program.inst_at(state.pc)
        entry = self._execute(inst)
        self.instruction_count += 1
        if self.trace_enabled:
            self.trace.append(entry)
        return entry

    def _execute(self, inst: Instruction) -> TraceEntry:
        state = self.state
        op = inst.opcode
        entry = TraceEntry(pc=inst.pc, opcode=op)

        if op is Opcode.HALT:
            state.halted = True
            return entry
        if op is Opcode.FENCE or op is Opcode.NOP:
            state.pc = inst.fallthrough
            return entry
        if op is Opcode.RDCYCLE:
            # Architecturally a monotonic counter; the functional model
            # exposes retired-instruction count.
            state.write_reg(inst.rd, self.instruction_count)
            entry.rd_value = state.read_reg(inst.rd)
            state.pc = inst.fallthrough
            return entry

        a = state.read_reg(inst.rs1)
        b = state.read_reg(inst.rs2)

        if op is Opcode.CFLUSH:
            # Cache-line flush: architecturally a no-op.
            entry.mem_address = semantics.effective_address(a, inst.imm)
            state.pc = inst.fallthrough
            return entry

        if op.is_load:
            address = semantics.effective_address(a, inst.imm)
            size = op.access_size
            value = state.memory.read_int(
                address, size, signed=semantics.load_is_signed(op)
            )
            state.write_reg(inst.rd, value)
            entry.mem_address = address
            entry.rd_value = state.read_reg(inst.rd)
            state.pc = inst.fallthrough
            return entry

        if op.is_store:
            address = semantics.effective_address(a, inst.imm)
            state.memory.write_int(address, b, op.access_size)
            entry.mem_address = address
            state.pc = inst.fallthrough
            return entry

        if op.is_branch:
            taken = semantics.branch_taken(op, a, b)
            entry.taken = taken
            state.pc = inst.branch_target if taken else inst.fallthrough
            return entry

        if op is Opcode.JAL:
            state.write_reg(inst.rd, inst.pc + 4)
            entry.rd_value = state.read_reg(inst.rd)
            entry.taken = True
            state.pc = inst.imm
            return entry

        if op is Opcode.JALR:
            target = semantics.effective_address(a, inst.imm)
            state.write_reg(inst.rd, inst.pc + 4)
            entry.rd_value = state.read_reg(inst.rd)
            entry.taken = True
            state.pc = target
            return entry

        # Plain ALU op
        value = semantics.alu_result(op, a, b, inst.imm, inst.pc)
        state.write_reg(inst.rd, value)
        entry.rd_value = state.read_reg(inst.rd)
        state.pc = inst.fallthrough
        return entry

    # ---------------------------------------------------------------- running
    def run(self, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> FunctionalResult:
        """Run until HALT or the instruction budget is exhausted."""
        while not self.state.halted:
            if self.instruction_count >= max_instructions:
                raise SimulationTimeout(
                    f"functional run exceeded {max_instructions} instructions "
                    f"(pc={self.state.pc:#x})"
                )
            self.step()
        return FunctionalResult(
            state=self.state,
            instructions=self.instruction_count,
            trace=self.trace,
        )


def run_program(
    program: Program,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    trace: bool = False,
) -> FunctionalResult:
    """One-shot functional execution of a program."""
    return FunctionalSimulator(program, trace=trace).run(max_instructions)
