"""Baseline secure-speculation policies.

These are the designs Levioso is compared against (DESIGN.md, experiment
index).  Ordered by decreasing conservatism:

* :class:`NoProtection` — the unsafe reference core.
* :class:`FencePolicy` — delay every load until it is non-speculative
  (no older unresolved branch or indirect jump); the classic
  "fence-after-every-branch" comprehensive defense and our "~51%" baseline.
* :class:`DelayOnMissPolicy` — speculative loads may proceed when they hit
  in the L1; misses wait for non-speculation (Sakalis et al. style).
* :class:`SttPolicy` — Speculative Taint Tracking: delay transmitters whose
  *address* descends from a speculatively-loaded value that has not reached
  its visibility point.  Protects speculative secrets only.
* :class:`CttPolicy` — comprehensive taint tracking (SPT-flavoured): any
  loaded value is a potential secret forever (covers non-speculatively
  loaded secrets, i.e. constant-time code), so a load with a memory-derived
  address must wait until it is non-speculative.  Our "~43%" baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .policy import SpeculationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.core import OooCore
    from ..uarch.dyninst import DynInst


class NoProtection(SpeculationPolicy):
    """Unsafe baseline: every load issues as soon as it is ready."""

    name = "none"
    uses_taint_roots = False

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        return True


class FencePolicy(SpeculationPolicy):
    """Delay *every* speculative transmitter until non-speculative.

    Models the no-taint-hardware conservative design point: with no way to
    tell secret-derived operands apart, every speculative load must wait and
    every speculative branch resolution (a fetch-visible channel) must wait.
    Its gate set is a superset of :class:`CttPolicy`'s, so ``fence >= ctt``
    holds structurally, mirroring the paper's 51% vs 43% baseline pair.
    """

    name = "fence"
    uses_taint_roots = False
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = True

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        return not core.has_unresolved_ctrl_older_than(dyn.seq)

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        return not core.has_unresolved_ctrl_older_than(dyn.seq)


class DelayOnMissPolicy(SpeculationPolicy):
    """Speculative L1 hits proceed; speculative misses wait.

    Protects the cache-presence channel this simulator's receivers observe
    (a hit does not change which lines are resident).  Recency-channel
    caveats are discussed in DESIGN.md.
    """

    name = "dom"
    uses_taint_roots = False
    reads_address = True  # peek_l1_hit(dyn.mem_address)
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = True

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        if not core.has_unresolved_ctrl_older_than(dyn.seq):
            return True
        address = dyn.mem_address
        if address is None:
            return False
        return core.hierarchy.peek_l1_hit(address)

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        # No taint hardware: like fence, speculative resolution waits.
        return not core.has_unresolved_ctrl_older_than(dyn.seq)


class NdaPolicy(SpeculationPolicy):
    """NDA-style propagation blocking (Weisse et al., MICRO'19 flavour).

    Speculative loads *execute* freely, but their results are withheld from
    dependents until the load becomes non-speculative — the transmit
    instruction of a Spectre gadget can never even compute its address.
    Protects speculatively accessed secrets only: values already in the
    architectural state (constant-time keys) propagate freely.
    """

    name = "nda"
    uses_taint_roots = False
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = False

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        return True  # access is unrestricted; propagation is the gate

    def defers_wakeup(self, dyn: "DynInst", core: "OooCore") -> bool:
        return core.has_unresolved_ctrl_older_than(dyn.seq)

    def may_propagate(self, dyn: "DynInst", core: "OooCore") -> bool:
        return not core.has_unresolved_ctrl_older_than(dyn.seq)


class SttPolicy(SpeculationPolicy):
    """Speculative Taint Tracking (speculative secrets only).

    A transmitter is delayed while its address lineage contains a load that
    is still speculative (in flight and younger than an unresolved control
    instruction).  Once every root reaches its visibility point the taint
    expires and the transmitter proceeds — even if itself speculative.
    """

    name = "stt"
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = False

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        if not core.has_unresolved_ctrl_older_than(dyn.seq):
            return True
        return not any(core.is_load_root_unsafe(root) for root in dyn.addr_roots())

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        if not core.has_unresolved_ctrl_older_than(dyn.seq):
            return True
        return not any(
            core.is_load_root_unsafe(root) for root in dyn.operand_roots()
        )


class CttPolicy(SpeculationPolicy):
    """Comprehensive taint tracking — the conservative-hardware baseline.

    Every loaded value is treated as a potential secret (this is what
    protecting constant-time code requires), so the taint is structural and
    never expires: a speculative transmitter with a memory-derived address
    waits until **all** older control instructions resolve.  Levioso keeps
    this guarantee but shrinks "all older" to "truly depended-on".
    """

    name = "ctt"
    uses_taint_roots = False
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = True

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        if not dyn.addr_tainted():
            return True
        return not core.has_unresolved_ctrl_older_than(dyn.seq)

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        if not dyn.operand_tainted():
            return True
        return not core.has_unresolved_ctrl_older_than(dyn.seq)
