"""Deterministic event-horizon cycle skipping for the out-of-order core.

The cycle loop in :meth:`~repro.uarch.core.OooCore.run` historically ticked
:meth:`step` once per simulated cycle, even when every pipeline structure
was provably idle — the dominant cost on memory-bound workloads, where a
single DRAM miss stalls the machine for ~120 cycles at a time.

This module decides, from the core's scheduler state, whether the *current*
cycle can possibly change anything.  A cycle is **quiet** when:

* no retry event is pending (``_retry_event`` — policy/memdep-gated loads,
  gated branches and NDA-deferred values are only re-evaluated after one),
* the ready heap is empty (nothing can issue),
* no completion is due (``completions[0][0] > cycle``),
* the ROB head is not completed (nothing can commit or NDA-release),
* no serialized instruction (rdcycle/fence) sits at the ROB head,
* dispatch would only bump a structural-stall counter (or the fetch-queue
  head is still in the front-end pipe), and
* fetch is stalled (halt / wild PC / jalr wait / L1I refill) or the fetch
  queue is full.

Quiet state is *stable*: nothing in it changes until the earliest of the
pending-completion heap head (which also carries every MSHR/DRAM return and
policy-gate release, since gates are re-evaluated on completion events), the
fetch-queue head leaving the front-end pipe, or the L1I refill timer.  So
the engine warps ``_cycle`` straight to that horizon and bulk-credits the
per-cycle stall counters (fetch stalls and ROB/IQ/LSQ dispatch stalls) the
stepped loop would have incremented — making the warped run **bit-identical**
to the stepped one, including `SimulationTimeout`/watchdog behavior (the
warp clamps at both boundaries so the guard checks fire at the same cycle
with the same counters).

The proof obligation "no event can fire inside a skipped interval" is
enforced by ``tests/test_event_horizon.py`` (suite-wide equivalence plus a
hypothesis property over random configurations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..isa import Opcode
from .dyninst import Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import OooCore

#: Mirrors ``core._WATCHDOG_CYCLES`` (imported there; kept here to avoid a
#: circular import at module load).
WATCHDOG_CYCLES = 100_000


class WarpStats:
    """Diagnostics of the event-horizon engine (not part of CoreStats).

    Deliberately kept off :class:`~repro.uarch.stats.CoreStats`: simulated
    results must be bit-identical with the engine on or off, so anything
    that differs between the two modes lives here instead.
    """

    __slots__ = ("warps", "cycles_skipped", "reasons")

    def __init__(self) -> None:
        self.warps = 0
        self.cycles_skipped = 0
        #: horizon source -> count: what bounded each warp.
        self.reasons: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {
            "warps": self.warps,
            "cycles_skipped": self.cycles_skipped,
            "reasons": dict(self.reasons),
        }


def warp_to_horizon(core: "OooCore", limit: int) -> int:
    """Skip ahead if the current cycle is quiet; returns cycles skipped.

    Returns 0 when the cycle may make progress — the caller must run a
    normal :meth:`step`.  Otherwise ``core._cycle`` has been advanced to
    the event horizon and the per-cycle stall statistics credited exactly
    as the stepped loop would have.
    """
    if core._retry_event or core.ready:
        return 0
    cycle = core._cycle
    # Never warp past the run-loop guards: the cycle-limit check and the
    # no-commit watchdog must fire at exactly the cycle the stepped loop
    # would have fired them.
    horizon = limit
    reason = "limit"
    watchdog = core._last_commit_cycle + WATCHDOG_CYCLES + 1
    if watchdog < horizon:
        horizon = watchdog
        reason = "watchdog"

    completions = core.completions
    if completions:
        due = completions[0][0]
        if due <= cycle:
            return 0  # a completion (or lazy-deleted entry) fires now
        if due < horizon:
            horizon = due
            reason = "completion"

    rob = core.rob
    if rob:
        head = rob[0]
        if head.stage is Stage.COMPLETED:
            return 0  # commit (or NDA head-release) can make progress
        serialize_wait = core.serialize_wait
        if serialize_wait:
            for dyn in serialize_wait:
                if dyn is head:
                    return 0  # rdcycle/fence at the head issues this cycle

    cfg = core.config
    dispatch_stall = 0  # 0 none, 1 rob-full, 2 iq-full, 3 lsq-full
    fetch_queue = core.fetch_queue
    if fetch_queue:
        head = fetch_queue[0]
        ripe_at = head.fetch_cycle + cfg.frontend_latency
        if ripe_at > cycle:
            if ripe_at < horizon:
                horizon = ripe_at
                reason = "frontend"
        else:
            # The head is dispatchable: replicate _dispatch's first-blocked
            # decision.  Any structural stall is stable during quiet cycles
            # (occupancies only change on events) and counts one stat per
            # cycle; anything else means dispatch would make progress.
            opcode = head.opcode
            if len(rob) >= cfg.rob_size:
                dispatch_stall = 1
            elif opcode is not Opcode.HALT and core.iq_count >= cfg.iq_size:
                dispatch_stall = 2
            elif opcode.is_load and core.lq_count >= cfg.lq_size:
                dispatch_stall = 3
            elif opcode.is_store and core.sq_count >= cfg.sq_size:
                dispatch_stall = 3
            else:
                return 0

    fetch_blocked = (
        core.halt_fetched
        or core.fetch_wild
        or core.fetch_stalled_on is not None
    )
    if not fetch_blocked:
        resume = core._fetch_resume_cycle
        if cycle < resume:
            # Blocked solely by the L1I refill timer, which expires on its
            # own: it bounds the horizon.
            fetch_blocked = True
            if resume < horizon:
                horizon = resume
                reason = "icache"
        elif len(fetch_queue) < cfg.fetch_queue_size:
            return 0  # fetch would make progress

    skipped = horizon - cycle
    if skipped <= 0:
        return 0

    stats = core.stats
    if fetch_blocked:
        stats.fetch_stall_cycles += skipped
    if dispatch_stall == 1:
        stats.rob_full_stalls += skipped
    elif dispatch_stall == 2:
        stats.iq_full_stalls += skipped
    elif dispatch_stall == 3:
        stats.lsq_full_stalls += skipped
    core._cycle = horizon

    warp_stats = core.warp_stats
    warp_stats.warps += 1
    warp_stats.cycles_skipped += skipped
    warp_stats.reasons[reason] = warp_stats.reasons.get(reason, 0) + 1
    return skipped
