"""Event-based energy model (McPAT-flavoured, heavily simplified).

Energy is accumulated from the event counters the core and memory system
already collect — no extra simulation cost.  Per-event energies are in
arbitrary "units" (roughly pJ-shaped ratios: a DRAM access is ~3 orders of
magnitude above an ALU op); the *relative* energy of two policies on the
same workload is the meaningful output, matching how secure-speculation
papers report energy overhead.

The security machinery itself is charged too: every policy gate evaluation
costs a (small) CAM-style check, and Levioso's dependency-matrix update is
charged per dispatched instruction — so the model can answer "does the
defense pay for itself in EDP".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.hierarchy import MemoryHierarchy
from .stats import CoreStats


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies (arbitrary units) and static power."""

    fetch_per_inst: float = 1.0
    rename_per_inst: float = 1.2
    rob_per_inst: float = 0.8
    issue_wakeup: float = 1.5
    regfile_per_inst: float = 1.0
    alu_op: float = 1.0
    mul_op: float = 3.0
    div_op: float = 8.0
    agu_op: float = 0.8
    predictor_access: float = 0.6
    l1_access: float = 5.0
    l2_access: float = 15.0
    llc_access: float = 40.0
    dram_access: float = 1000.0
    squash_per_inst: float = 1.0       # recovery bookkeeping
    gate_check: float = 0.1            # policy CAM lookup
    dep_matrix_update: float = 0.15    # Levioso per-dispatch metadata write
    static_per_cycle: float = 4.0      # leakage for the whole core


@dataclass
class EnergyBreakdown:
    """Energy by component for one run."""

    frontend: float = 0.0
    window: float = 0.0      # rename/ROB/IQ/regfile
    execute: float = 0.0
    memory: float = 0.0
    speculation_waste: float = 0.0  # energy spent on squashed instructions
    security: float = 0.0           # gate checks + dependency tracking
    static: float = 0.0

    @property
    def dynamic(self) -> float:
        return (
            self.frontend + self.window + self.execute + self.memory
            + self.speculation_waste + self.security
        )

    @property
    def total(self) -> float:
        return self.dynamic + self.static

    def as_dict(self) -> dict[str, float]:
        return {
            "frontend": self.frontend,
            "window": self.window,
            "execute": self.execute,
            "memory": self.memory,
            "speculation_waste": self.speculation_waste,
            "security": self.security,
            "static": self.static,
            "dynamic": self.dynamic,
            "total": self.total,
        }


def estimate_energy(
    stats: CoreStats,
    hierarchy: MemoryHierarchy | dict,
    gate_checks: int = 0,
    tracks_dependencies: bool = False,
    params: EnergyParams | None = None,
) -> EnergyBreakdown:
    """Estimate the energy of one finished run from its counters.

    ``hierarchy`` may be a live :class:`MemoryHierarchy` or the dict its
    ``stats()`` returns (what cached run records carry).
    """
    p = params or EnergyParams()
    breakdown = EnergyBreakdown()

    fetched = stats.fetched
    committed = stats.committed
    squashed = stats.squashed_insts

    breakdown.frontend = fetched * (p.fetch_per_inst + p.predictor_access)
    # Window structures touched by everything that dispatched.
    dispatched = committed + squashed
    breakdown.window = dispatched * (
        p.rename_per_inst + p.rob_per_inst + p.issue_wakeup + p.regfile_per_inst
    )
    # Execution mix: approximate with committed counts (squashed covered by
    # speculation_waste at ALU cost).
    loads = stats.committed_loads
    stores = stats.committed_stores
    alu_like = max(committed - loads - stores, 0)
    breakdown.execute = (
        alu_like * p.alu_op + (loads + stores) * p.agu_op
    )
    breakdown.speculation_waste = squashed * (p.alu_op + p.squash_per_inst)

    mem = hierarchy if isinstance(hierarchy, dict) else hierarchy.stats()
    breakdown.memory = (
        (mem["l1i"]["hits"] + mem["l1i"]["misses"]) * p.l1_access
        + (mem["l1d"]["hits"] + mem["l1d"]["misses"]) * p.l1_access
        + (mem["l2"]["hits"] + mem["l2"]["misses"]) * p.l2_access
        + (mem["llc"]["hits"] + mem["llc"]["misses"]) * p.llc_access
        + mem["dram"]["requests"] * p.dram_access
    )

    breakdown.security = gate_checks * p.gate_check
    if tracks_dependencies:
        breakdown.security += dispatched * p.dep_matrix_update

    breakdown.static = stats.cycles * p.static_per_cycle
    return breakdown


def energy_delay_product(breakdown: EnergyBreakdown, cycles: int) -> float:
    """EDP in (energy units x cycles)."""
    return breakdown.total * cycles
