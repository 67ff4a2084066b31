"""Per-run statistics of the out-of-order core."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CoreStats:
    """Event counters filled in by :class:`~repro.uarch.core.OooCore`."""

    cycles: int = 0
    committed: int = 0
    committed_loads: int = 0
    committed_stores: int = 0
    committed_branches: int = 0
    fetched: int = 0
    squashed_insts: int = 0

    branch_mispredicts: int = 0
    jalr_mispredicts: int = 0
    branch_resolutions: int = 0
    fetch_stall_cycles: int = 0
    rob_full_stalls: int = 0
    iq_full_stalls: int = 0
    lsq_full_stalls: int = 0

    loads_issued: int = 0
    loads_forwarded: int = 0
    # Motivation counters (Fig. 1): sampled at every real-load issue,
    # regardless of policy - how many loads a conservative defense would
    # have to restrict vs how many Levioso truly must.
    loads_speculative_at_issue: int = 0
    loads_true_dep_at_issue: int = 0
    # The *_cycles gate counters count denied attempts, not elapsed
    # cycles: a blocked instruction is re-evaluated only on cycles with a
    # retry event (a completion, commit, squash or cache fill), once per
    # such issue pass, so a long quiet wait counts once.
    loads_gated: int = 0          # distinct loads blocked by the policy
    load_gate_cycles: int = 0     # denied policy re-evaluations of loads
    branches_gated: int = 0       # distinct branches blocked by the policy
    branch_gate_cycles: int = 0   # denied policy re-evaluations of branches
    # Failed memory-ordering attempts: blocked behind an older in-flight
    # fence or an older store (unknown address / partial overlap).  Can
    # exceed ``cycles``: every blocked op counts once per issue pass.
    memdep_blocked_cycles: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.committed if self.committed else 0.0

    @property
    def mpki(self) -> float:
        """Branch mispredicts per kilo-instruction."""
        if not self.committed:
            return 0.0
        return 1000.0 * (self.branch_mispredicts + self.jalr_mispredicts) / self.committed

    @property
    def gated_loads_pki(self) -> float:
        """Policy-delayed loads per kilo-instruction (Fig. 3)."""
        if not self.committed:
            return 0.0
        return 1000.0 * self.loads_gated / self.committed

    @property
    def mean_gate_delay(self) -> float:
        """Denied policy re-evaluations per gated load (Fig. 3's "delay").

        Not cycles waited: see the note on ``load_gate_cycles``."""
        if not self.loads_gated:
            return 0.0
        return self.load_gate_cycles / self.loads_gated

    def as_dict(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "mpki": self.mpki,
            "branch_mispredicts": self.branch_mispredicts,
            "jalr_mispredicts": self.jalr_mispredicts,
            "squashed_insts": self.squashed_insts,
            "loads_issued": self.loads_issued,
            "loads_forwarded": self.loads_forwarded,
            "loads_gated": self.loads_gated,
            "load_gate_cycles": self.load_gate_cycles,
            "branches_gated": self.branches_gated,
            "branch_gate_cycles": self.branch_gate_cycles,
            "gated_loads_pki": self.gated_loads_pki,
            "mean_gate_delay": self.mean_gate_delay,
        }
