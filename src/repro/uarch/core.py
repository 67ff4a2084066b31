"""The out-of-order superscalar core.

A cycle-level model with the structural mechanisms that secure-speculation
overheads come from: a ROB-bounded window, wakeup/select issue, a load/store
queue with forwarding and conservative memory disambiguation, branch
prediction with full squash recovery, a three-level cache hierarchy — and a
pluggable :class:`~repro.secure.policy.SpeculationPolicy` consulted before
any transmitter (load/cflush) is allowed to access the memory system.

Speculation is *real*: wrong-path instructions execute, touch the caches,
and are squashed — which is exactly what the Spectre attack evaluation
observes and the defenses must prevent from transmitting.

Stage order within a cycle: completions (incl. branch resolution/squash) ->
commit -> issue -> dispatch -> fetch.  A producer completing at cycle C can
wake a consumer that issues at C (1-cycle back-to-back bypass).

Every run also carries a *secret label* per value (DESIGN.md §15): a run in
which no labelled value reached a sink (a memory address, a branch or
``jalr`` operand) is *fill-independent* — rerunning it with other bytes in
its ``.secret`` ranges repeats it exactly, which lets the differential
oracle simulate one fill of a pair instead of two.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from ..asm.program import STACK_TOP, Program
from ..branch import BranchTargetBuffer, ReturnAddressStack, make_predictor
from ..errors import SimulationError, SimulationTimeout
from ..functional import semantics
from ..isa import INSTRUCTION_BYTES, NUM_REGS, Opcode, to_unsigned
from ..mem.backing import SparseMemory
from ..mem.hierarchy import MemoryHierarchy
from ..secure.baselines import NoProtection
from ..secure.policy import SpeculationPolicy
from .config import CoreConfig
from .decoded import (
    C_BRANCH,
    C_CFLUSH,
    C_HALT,
    C_LOAD,
    C_STORE,
    K_BRANCH,
    K_JAL,
    K_JALR,
    K_SEQ,
    S_MEM,
    S_SERIALIZE,
    decoded_image,
)
from .specialize import specialize_enabled, specialized_image
from .dyninst import EMPTY, Checkpoint, DynInst, Stage
from .horizon import WATCHDOG_CYCLES as _WATCHDOG_CYCLES
from .horizon import WarpStats, warp_to_horizon
from .stats import CoreStats
from .trace import ObservationTrace

EMPTY_DEPS: frozenset[int] = frozenset()

#: Sort/bisect key of the seq-ordered pending lists.
_SEQ = attrgetter("seq")


@dataclass
class SimResult:
    """Outcome of one out-of-order run."""

    stats: CoreStats
    regs: tuple[int, ...]
    memory: SparseMemory
    policy_name: str
    committed_pcs: list[int] = field(default_factory=list)
    hierarchy: MemoryHierarchy | None = None
    observations: ObservationTrace | None = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def stats_dict(self) -> dict:
        """Machine-readable run summary (core + memory counters)."""
        out = {"policy": self.policy_name}
        out.update(self.stats.as_dict())
        if self.hierarchy is not None:
            out["memory"] = self.hierarchy.stats()
        return out


class OooCore:
    """One out-of-order core executing one program under one policy."""

    def __init__(
        self,
        program: Program,
        config: CoreConfig | None = None,
        policy: SpeculationPolicy | None = None,
        record_trace: bool = False,
        record_pipeline: bool = False,
        record_observations: bool = False,
        use_compiler_info: bool = True,
        cycle_skip: bool | None = None,
        specialize: bool | None = None,
    ):
        self.program = program
        self.config = config or CoreConfig()
        self.policy = policy or NoProtection()
        self.record_trace = record_trace
        self.record_pipeline = record_pipeline
        # Observation-trace capture for the differential leakage oracle:
        # bit-invisible (append-only side channel out of the simulation),
        # so observed and unobserved runs take identical simulated cycles.
        self.observations = ObservationTrace() if record_observations else None
        self.retired: list[DynInst] = []

        # Pre-decoded program image: per-instruction decode (control-flow
        # kind, FU port/latency, reconvergence PC from the compiler pass —
        # Levioso's software half) happens once per program, content-
        # addressed and shared across cores and grid points, instead of
        # per fetched DynInst.  `use_compiler_info=False` models shipping
        # no metadata; it is masked at fetch rather than baked into the
        # image so both arms of the compiler ablation share one decode.
        self._decoded = decoded_image(program, self.config)
        self._use_compiler_info = use_compiler_info

        # Performance-mode knob, default on and required to be
        # *bit-invisible*: simulated results are identical with it off
        # (REPRO_NO_CYCLE_SKIP=1 forces the reference path, which is what
        # the equivalence suite compares against).
        if cycle_skip is None:
            cycle_skip = os.environ.get("REPRO_NO_CYCLE_SKIP") != "1"
        self._cycle_skip = cycle_skip
        # Region specialization: per-PC execute/address/extend functions,
        # exec-compiled once per (image, latency profile) and attached to
        # the shared DecodedInst records (.specialize).  Bit-invisible by
        # contract (REPRO_NO_SPECIALIZE=1 forces the interpreted path).
        if specialize is None:
            specialize = specialize_enabled()
        self._specialize = specialize
        # ``_execute`` holds the plain function (called with the core): a
        # bound method stored on the core would be a reference cycle, and
        # every finished core would then wait for a full garbage collection.
        if specialize:
            spec = specialized_image(self._decoded, self.config, self.policy)
            self._execute = OooCore._execute_alu_spec
            # The base policy's defers_wakeup is a constant False with no
            # side effects; skip the per-load-completion virtual call
            # unless the policy actually overrides it (NDA does).
            self._defers_wakeup = (
                None if spec.skip_defer_wakeup else self.policy.defers_wakeup
            )
        else:
            self._execute = OooCore._execute_alu
            self._defers_wakeup = self.policy.defers_wakeup
        # STT-style expiring taint roots are consulted only by policies
        # declaring uses_taint_roots; for the rest, root sets are provably
        # unread and lineage finalization skips building them.  Derived
        # from the policy alone, so both execution modes agree.
        self._track_roots = bool(self.policy.uses_taint_roots)
        # Grid-point label threaded into SimulationTimeout by lockstep
        # batches so a multi-point worker failure names the guilty point.
        self.point_label: str | None = None
        self.warp_stats = WarpStats()

        # Architectural state
        self.arf = [0] * NUM_REGS
        self.arf[2] = STACK_TOP  # sp
        self.arf_taint = [False] * NUM_REGS
        self.arf_secret = [False] * NUM_REGS
        # Secret labels (DESIGN.md §15).  Labels start at the bytes of the
        # .secret ranges, so without any the byte checks are skipped.
        # ``_shadow`` holds the bytes labelled stores wrote since;
        # ``secret_escaped`` records that a labelled value reached a sink.
        self._secret_spans = tuple(
            (r.start, r.end) for r in program.secret_ranges)
        self._shadow: set[int] = set()
        self.secret_escaped = False
        self.memory = SparseMemory()
        self.memory.load_image(program.data_base, program.data)

        # Front end
        self.fetch_pc = program.entry
        self.predictor = make_predictor(self.config.predictor)
        self.btb = BranchTargetBuffer(self.config.btb_entries)
        self.ras = ReturnAddressStack(self.config.ras_depth)
        self.fetch_queue: deque[DynInst] = deque()
        self.fetch_stalled_on: DynInst | None = None  # unpredicted jalr
        self.fetch_wild = False                        # ran off the text segment
        self.halt_fetched = False
        # (branch_seq, reconv_pc, call_depth) per open control region.
        self.active_regions: list[tuple] = []
        # Calls minus returns fetched so far: a region closes only when its
        # reconvergence PC is fetched at the depth where it opened, so a
        # recursive callee's copy of the join leaves the caller's open.
        self._call_depth = 0
        # Cached frozenset of live region seqs; None = recompute.  Region
        # entries are immutable once created (only the list membership
        # changes), so the cache is invalidated exactly where the list is.
        self._live_deps: frozenset[int] | None = EMPTY_DEPS
        # Reconvergence PCs of the live regions: the fetch loop probes this
        # set once per PC instead of scanning the region list (almost no PC
        # closes a region).  Exact at close sites (a PC leaves once no live
        # entry carries it; entries opened at another call depth can still
        # hold it); rebuilt wholesale where regions are filtered by seq (loop
        # iterations can carry duplicate reconvergence PCs).
        self._reconv_live: set[int] = set()
        self._fetch_resume_cycle = 0          # L1I miss stall
        self._last_fetch_line: int | None = None

        # Back end
        self.rename_map: list[DynInst | None] = [None] * NUM_REGS
        self.rob: deque[DynInst] = deque()
        self.store_queue: deque[DynInst] = deque()
        self.iq_count = 0
        self.lq_count = 0
        self.sq_count = 0
        self.ready: list[tuple[int, DynInst]] = []      # (seq, dyn) heap
        self.pending_loads: list[DynInst] = []          # blocked mem ops (seq order)
        self.pending_ctrl: list[DynInst] = []           # policy-gated branches
        self.serialize_wait: list[DynInst] = []         # rdcycle/fence
        self.deferred_values: list[DynInst] = []        # NDA-deferred loads
        self.completions: list[tuple[int, int, DynInst]] = []
        self.unresolved_ctrl: set[int] = set()
        self.inflight_loads: dict[int, DynInst] = {}
        # Seqs of dispatched, uncommitted fences in seq order: dispatch
        # appends, commit pops the left end, a squash pops the right end,
        # so ``[0]`` is always the oldest fence in flight.
        self.inflight_fences: deque[int] = deque()

        self.hierarchy = MemoryHierarchy(self.config.mem)
        self._line_bits = self.hierarchy.l1i.line_bits
        self.stats = CoreStats()
        self.committed_pcs: list[int] = []

        self._next_seq = 0
        self._cycle = 0
        self._done = False
        self._last_commit_cycle = 0
        # Gate-retry events: pending (policy/memdep-blocked) instructions are
        # re-evaluated only when something that can change a gate decision
        # happened (completion, commit, squash, a cache fill) — gate
        # predicates are pure functions of that state, so skipping quiet
        # cycles is safe and makes long stalls cheap to simulate.  The
        # event-horizon engine (.horizon) relies on exactly this invariant
        # to warp over quiet stretches entirely.
        self._retry_event = True
        # Min-heap over unresolved branch seqs with lazy deletion: resolved/
        # squashed seqs stay in the heap until they surface at the top, so
        # the oldest-unresolved query is O(log n) amortized instead of a
        # full scan of the unresolved set.
        self._unresolved_heap: list[int] = []

    # ------------------------------------------------------------------ API
    @property
    def cycle(self) -> int:
        return self._cycle

    def run(self, max_cycles: int | None = None) -> SimResult:
        """Run to HALT; returns the result bundle."""
        limit = max_cycles or self.config.max_cycles
        self.advance(limit)
        return self._result()

    def advance(self, limit: int) -> bool:
        """Advance until HALT (returns True) or ``limit`` (raises).

        The run loop behind :meth:`run`.  The benchmark's tracer wraps
        it and reads the True to record each halted core's warp counters.
        """
        cycle_skip = self._cycle_skip
        while not self._done:
            cycle = self._cycle
            if cycle >= limit:
                head = self.rob[0] if self.rob else None
                raise SimulationTimeout(
                    f"OoO run exceeded {limit} cycles "
                    f"(committed {self.stats.committed}, fetch pc "
                    f"{self.fetch_pc:#x}, rob head {head})",
                    limit=limit,
                    committed=self.stats.committed,
                    pc=self.fetch_pc,
                    point=self.point_label,
                )
            if cycle - self._last_commit_cycle > _WATCHDOG_CYCLES:
                raise SimulationError(
                    f"no commit for {_WATCHDOG_CYCLES} cycles at cycle "
                    f"{cycle}: likely scheduler deadlock "
                    f"(rob head: {self.rob[0] if self.rob else None})"
                )
            # Event-horizon engine: when this cycle is provably quiet, warp
            # straight to the next cycle anything can change, then re-check
            # the limit/watchdog guards at the warped cycle (the warp clamps
            # at both, so they fire exactly as in the stepped run).  The
            # retry/ready pre-check is inlined so busy cycles pay two
            # attribute reads instead of a call.
            if (
                cycle_skip
                and not self._retry_event
                and not self.ready
                and warp_to_horizon(self, limit)
            ):
                continue
            self.step()
        return True

    def _result(self) -> SimResult:
        """The result bundle for a finished (halted) core."""
        self.stats.cycles = self._cycle
        return SimResult(
            stats=self.stats,
            regs=tuple(self.arf),
            memory=self.memory,
            policy_name=self.policy.name,
            committed_pcs=self.committed_pcs,
            hierarchy=self.hierarchy,
            observations=self.observations,
        )

    def fill_independent(self, check_reg: int | None = None) -> bool:
        """Would a run that differs only in ``.secret`` bytes repeat this one?

        True when no labelled value reached a sink and, given a self-check
        register, that register is unlabelled at halt: the other run then
        has the same cycles, counters, observations and check value
        (DESIGN.md §15).  Meaningful once the core has halted.
        """
        if self.secret_escaped:
            return False
        return check_reg is None or not self.arf_secret[check_reg]

    def step(self) -> None:
        """Advance one cycle."""
        cycle = self._cycle
        # The stage calls' own early-return guards are replicated inline:
        # they have no side effects, and skipping the call entirely keeps
        # idle stages off the per-cycle hot path.
        completions = self.completions
        if completions and completions[0][0] <= cycle:
            self._process_completions(cycle)
        rob = self.rob
        if rob and rob[0].stage is Stage.COMPLETED:
            self._commit(cycle)
        if not self._done:
            if self._retry_event or self.ready or self.serialize_wait:
                self._issue(cycle)
            if self.fetch_queue:
                self._dispatch(cycle)
            if (
                self.halt_fetched
                or self.fetch_wild
                or self.fetch_stalled_on is not None
                or cycle < self._fetch_resume_cycle
            ):
                self.stats.fetch_stall_cycles += 1
            else:
                self._fetch(cycle)
        self._cycle = cycle + 1

    # ----------------------------------------------------- policy interface
    def has_unresolved_ctrl_older_than(self, seq: int) -> bool:
        """Any in-flight unresolved branch/indirect-jump older than ``seq``?"""
        unresolved = self.unresolved_ctrl
        if not unresolved:
            return False
        heap = self._unresolved_heap
        while heap[0] not in unresolved:  # lazy-delete resolved/squashed seqs
            heapq.heappop(heap)
        return heap[0] < seq

    def any_unresolved(self, deps: frozenset[int]) -> bool:
        """Is any of these branch seqs still unresolved?"""
        if not deps:
            return False
        unresolved = self.unresolved_ctrl
        if not unresolved:
            return False
        if len(deps) < len(unresolved):
            for d in deps:
                if d in unresolved:
                    return True
            return False
        for u in unresolved:
            if u in deps:
                return True
        return False

    def is_load_root_unsafe(self, root_seq: int) -> bool:
        """STT visibility: root load still in flight and still speculative."""
        if root_seq not in self.inflight_loads:
            return False  # committed (visible) or squashed (consumer dies too)
        return self.has_unresolved_ctrl_older_than(root_seq)

    # ---------------------------------------------------------------- fetch
    def _fetch(self, cycle: int) -> None:
        if (
            self.halt_fetched
            or self.fetch_wild
            or self.fetch_stalled_on is not None
            or cycle < self._fetch_resume_cycle
        ):
            self.stats.fetch_stall_cycles += 1
            return
        fetch_queue = self.fetch_queue
        fq_cap = self.config.fetch_queue_size
        if len(fetch_queue) >= fq_cap:
            return
        by_pc = self._decoded.by_pc
        line_bits = self._line_bits
        budget = self.config.fetch_width
        use_compiler_info = self._use_compiler_info
        stats = self.stats
        reconv_live = self._reconv_live
        predictor = self.predictor
        hfetch = self.hierarchy.fetch
        # pc and the last-fetched line live in locals for the whole packet;
        # the finally block is the single write-back point for every exit.
        pc = self.fetch_pc
        last_line = self._last_fetch_line
        try:
            while budget > 0 and len(fetch_queue) < fq_cap:
                dec = by_pc.get(pc)
                if dec is None:
                    self.fetch_wild = True  # wrong path off the text segment
                    return

                line = pc >> line_bits
                if line != last_line:
                    ready = hfetch(pc, cycle)
                    last_line = line
                    if ready > cycle:
                        # L1I miss: the packet ends; resume when the line
                        # fills.
                        self._fetch_resume_cycle = ready
                        return
                seq = self._next_seq
                self._next_seq = seq + 1
                dyn = DynInst(seq=seq, inst=dec.inst, fetch_cycle=cycle, dec=dec)
                stats.fetched += 1
                budget -= 1

                # Reconvergence tracker: reaching a branch's reconvergence
                # PC at the call depth where the branch was fetched ends its
                # control region (a closed region can never reopen, so it
                # leaves the live list); then tag with the remaining ones.
                regions = self.active_regions
                if regions:
                    if pc in reconv_live:
                        depth = self._call_depth
                        kept = [entry for entry in regions
                                if entry[1] != pc or entry[2] != depth]
                        if len(kept) != len(regions):
                            self.active_regions = regions = kept
                            self._live_deps = None
                            for entry in kept:
                                if entry[1] == pc:
                                    break
                            else:
                                reconv_live.discard(pc)
                    if regions:
                        deps = self._live_deps
                        if deps is None:
                            deps = self._live_deps = frozenset(
                                r[0] for r in regions
                            )
                        dyn.control_deps = deps

                fetch_queue.append(dyn)
                kind = dec.kind

                if kind == K_SEQ:
                    pc = dec.fallthrough
                    continue

                inst = dec.inst
                if kind == K_BRANCH:
                    taken, ctx = predictor.predict(pc)
                    dyn.predicted_taken = taken
                    target = inst.branch_target if taken else dec.fallthrough
                    dyn.predicted_target = target
                    dyn.predictor_context = ctx
                    dyn.checkpoint = self._front_checkpoint(dyn)
                    predictor.on_speculative_branch(pc, taken)
                    reconv = dec.reconv_pc if use_compiler_info else None
                    if reconv is not None:
                        reconv_live.add(reconv)
                    self.active_regions.append(
                        (dyn.seq, reconv, self._call_depth))
                    self._live_deps = None
                    pc = target
                    if taken:
                        return  # taken branches end the fetch packet
                    continue

                if kind == K_JAL:
                    if inst.rd != 0:
                        self.ras.push(dec.fallthrough)
                        self._call_depth += 1
                    pc = inst.imm
                    return  # taken control ends the packet

                if kind == K_JALR:
                    if dec.is_return:  # jalr x0, ra, 0
                        predicted = self.ras.pop()
                        self._call_depth -= 1
                    else:
                        predicted = self.btb.lookup(pc)
                    if inst.rd != 0:
                        self.ras.push(dec.fallthrough)  # indirect call
                        self._call_depth += 1
                    if predicted is None:
                        self.fetch_stalled_on = dyn
                        return
                    dyn.predicted_target = predicted
                    dyn.checkpoint = self._front_checkpoint(dyn)
                    self.active_regions.append(
                        (dyn.seq, None, self._call_depth))
                    self._live_deps = None
                    pc = predicted
                    return

                # K_HALT
                self.halt_fetched = True
                return
        finally:
            self.fetch_pc = pc
            self._last_fetch_line = last_line

    def _front_checkpoint(self, dyn: DynInst) -> Checkpoint:
        """Front-end snapshot; the rename map is added at dispatch."""
        # Copy-on-write region snapshot: checkpoints vastly outnumber
        # restores (every fetched branch/jalr vs only mispredicts), so the
        # snapshot stores a reference to the live list plus its current
        # length and the rare restore path materializes the copy.  Sound
        # because entries are never mutated in place and every removal
        # rebinds a freshly built list — the captured prefix is immutable.
        # Slot stores through __new__ skip the dataclass keyword plumbing
        # (one checkpoint per fetched branch/jalr makes this hot).
        ckpt = Checkpoint.__new__(Checkpoint)
        ckpt.rename_map = []
        ckpt.ras = self.ras.checkpoint()
        ckpt.call_depth = self._call_depth
        ckpt.history = self.predictor.history_checkpoint()
        regions = self.active_regions
        ckpt.regions = regions
        ckpt.regions_len = len(regions)
        ckpt.fetch_pc_after = dyn.inst.fallthrough
        return ckpt

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, cycle: int) -> None:
        fetch_queue = self.fetch_queue
        if not fetch_queue:
            return
        cfg = self.config
        stats = self.stats
        rob = self.rob
        frontend_latency = cfg.frontend_latency
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        width = cfg.dispatch_width
        # Occupancy counters live in locals for the loop; written back below.
        iq_count = self.iq_count
        lq_count = self.lq_count
        sq_count = self.sq_count
        rename_map = self.rename_map
        arf = self.arf
        arf_taint = self.arf_taint
        arf_secret = self.arf_secret
        while width > 0 and fetch_queue:
            dyn = fetch_queue[0]

            if dyn.fetch_cycle + frontend_latency > cycle:
                break
            if len(rob) >= rob_size:
                stats.rob_full_stalls += 1
                break
            opcode = dyn.opcode
            is_load = opcode.is_load
            is_store = opcode.is_store
            if opcode is not Opcode.HALT and iq_count >= iq_size:
                stats.iq_full_stalls += 1
                break
            if is_load and lq_count >= lq_size:
                stats.lsq_full_stalls += 1
                break
            if is_store and sq_count >= sq_size:
                stats.lsq_full_stalls += 1
                break

            fetch_queue.popleft()
            width -= 1
            dyn.stage = Stage.DISPATCHED
            dyn.dispatch_cycle = cycle
            # Rename, inlined: producer links from the map, else ARF value +
            # taint capture.
            dec = dyn.dec
            rs = dec.rs1n
            if rs >= 0:
                producer = rename_map[rs]
                if producer is not None:
                    dyn.src1_producer = producer
                    if not producer.propagated:
                        dyn.waiting_on += 1
                        producer.consumers.append(dyn)
                else:
                    dyn.src1_value = arf[rs]
                    dyn.src1_arf_tainted = arf_taint[rs]
                    dyn.src1_arf_secret = arf_secret[rs]
            rs = dec.rs2n
            if rs >= 0:
                producer = rename_map[rs]
                if producer is not None:
                    dyn.src2_producer = producer
                    if not producer.propagated:
                        dyn.waiting_on += 1
                        producer.consumers.append(dyn)
                else:
                    dyn.src2_value = arf[rs]
                    dyn.src2_arf_tainted = arf_taint[rs]
                    dyn.src2_arf_secret = arf_secret[rs]
            dest = dec.dest
            if dest is not None:
                rename_map[dest] = dyn
            rob.append(dyn)

            if dyn.checkpoint is not None:
                dyn.checkpoint.rename_map = list(rename_map)
            if dyn.inst.is_branch or (
                opcode is Opcode.JALR and dyn.predicted_target is not None
            ):
                self.unresolved_ctrl.add(dyn.seq)
                heapq.heappush(self._unresolved_heap, dyn.seq)

            if opcode is Opcode.HALT:
                dyn.stage = Stage.COMPLETED
                dyn.complete_cycle = cycle
                dyn.propagated = True
                continue

            iq_count += 1
            if opcode is Opcode.FENCE:
                self.inflight_fences.append(dyn.seq)
            if is_load:
                lq_count += 1
                self.inflight_loads[dyn.seq] = dyn
            elif is_store:
                sq_count += 1
                self.store_queue.append(dyn)
            if dyn.waiting_on == 0:
                heapq.heappush(self.ready, (dyn.seq, dyn))
        self.iq_count = iq_count
        self.lq_count = lq_count
        self.sq_count = sq_count

    # ----------------------------------------------------------------- issue
    def _issue(self, cycle: int) -> None:
        retry = self._retry_event
        self._retry_event = False
        if not retry and not self.ready and not self.serialize_wait:
            return  # nothing schedulable this cycle (pending work is
            # event-driven: it is only re-examined after a retry event)

        cfg = self.config
        budget = cfg.issue_width
        alu_ports = cfg.alu_ports
        mul_ports = cfg.mul_ports
        div_ports = cfg.div_ports
        mem_ports = cfg.mem_ports

        # Release NDA-deferred values whose loads became safe.
        if self.deferred_values and retry:
            still_deferred: list[DynInst] = []
            for dyn in self.deferred_values:
                if dyn.squashed:
                    continue
                if self.policy.may_propagate(dyn, self):
                    self._propagate(dyn)
                else:
                    still_deferred.append(dyn)
            self.deferred_values = still_deferred

        # Retry policy/memdep-blocked memory ops first (oldest first).
        pending = self.pending_loads
        if pending and retry:
            # Fence-ordered tail, counted in bulk: every op younger than
            # the oldest in-flight fence would fail the ordering check in
            # _try_issue_mem and only bump memdep_blocked_cycles.  That is
            # exact because the fence deque cannot change inside one issue
            # pass (only commit and squash shrink it), a failed ordering
            # check consumes no budget or port, each pending op already
            # computed its address on its first attempt (the address
            # precedes the check), and _squash_after has already dropped
            # squashed ops from this list.  So only the head is attempted.
            fences = self.inflight_fences
            split = (
                bisect_right(pending, fences[0], key=_SEQ)
                if fences else len(pending)
            )
            tail = len(pending) - split
            if split:
                still_blocked: list[DynInst] = []
                for i in range(split):
                    dyn = pending[i]
                    if budget <= 0 or mem_ports <= 0:
                        still_blocked.append(dyn)
                        self._retry_event = True  # resource block: retry next cycle
                        continue
                    issued = self._try_issue_mem(dyn, cycle)
                    if issued:
                        budget -= 1
                        mem_ports -= 1
                    else:
                        still_blocked.append(dyn)
                pending[:split] = still_blocked
            if tail:
                if budget > 0 and mem_ports > 0:
                    self.stats.memdep_blocked_cycles += tail
                else:
                    self._retry_event = True  # resource block: retry next cycle

        # Retry policy-gated control instructions (oldest first).
        if self.pending_ctrl and retry:
            self.pending_ctrl.sort(key=_SEQ)
            still_gated: list[DynInst] = []
            for dyn in self.pending_ctrl:
                if dyn.squashed:
                    continue
                if budget <= 0 or alu_ports <= 0:
                    still_gated.append(dyn)
                    self._retry_event = True  # resource block: retry next cycle
                    continue
                pstats = self.policy.stats
                pstats.gate_checks += 1
                if self.policy.may_issue_branch(dyn, self):
                    self._execute(self, dyn, cycle,
                                  self.config.branch_latency)
                    budget -= 1
                    alu_ports -= 1
                else:
                    pstats.gate_denials += 1
                    self._note_branch_gated(dyn, cycle)
                    still_gated.append(dyn)
            self.pending_ctrl = still_gated

        # Serialized instructions (rdcycle/fence) wait for ROB head.
        if self.serialize_wait:
            remaining: list[DynInst] = []
            for dyn in self.serialize_wait:
                if dyn.squashed:
                    continue
                if (
                    budget > 0
                    and alu_ports > 0
                    and self.rob
                    and self.rob[0] is dyn
                ):
                    self._schedule(dyn, cycle, cfg.alu_latency)
                    dyn.result = cycle
                    budget -= 1
                    alu_ports -= 1
                else:
                    remaining.append(dyn)
            self.serialize_wait = remaining

        overflow: list[tuple[int, DynInst]] = []
        ready = self.ready
        heappop = heapq.heappop
        execute = self._execute
        while budget > 0 and ready:
            dyn = heappop(ready)[1]
            if dyn.squashed or dyn.stage is not Stage.DISPATCHED:
                continue
            dec = dyn.dec  # scheduling class / FU port pre-resolved at decode
            sched = dec.sched

            if sched:
                if sched == S_SERIALIZE:  # rdcycle / fence
                    if self.rob and self.rob[0] is dyn and alu_ports > 0:
                        self._schedule(dyn, cycle, cfg.alu_latency)
                        dyn.result = cycle
                        budget -= 1
                        alu_ports -= 1
                    else:
                        self.serialize_wait.append(dyn)
                    continue

                if sched == S_MEM:
                    if mem_ports <= 0:
                        overflow.append((dyn.seq, dyn))
                        continue
                    issued = self._try_issue_mem(dyn, cycle)
                    if issued:
                        budget -= 1
                        mem_ports -= 1
                    else:
                        insort(self.pending_loads, dyn, key=_SEQ)
                    continue

                # S_CTRL: policy-gated branch/jalr, then the ALU port below.
                pstats = self.policy.stats
                pstats.gate_checks += 1
                if not self.policy.may_issue_branch(dyn, self):
                    pstats.gate_denials += 1
                    self._note_branch_gated(dyn, cycle)
                    self.pending_ctrl.append(dyn)
                    continue

            port_i = dec.port_i
            if port_i == 0:
                if alu_ports <= 0:
                    overflow.append((dyn.seq, dyn))
                    continue
                alu_ports -= 1
            elif port_i == 1:
                if mul_ports <= 0:
                    overflow.append((dyn.seq, dyn))
                    continue
                mul_ports -= 1
            else:  # div
                if div_ports <= 0:
                    overflow.append((dyn.seq, dyn))
                    continue
                div_ports -= 1
            budget -= 1
            execute(self, dyn, cycle, dec.latency)

        for entry in overflow:
            heapq.heappush(ready, entry)

    def _note_branch_gated(self, dyn: DynInst, cycle: int) -> None:
        if dyn.first_gated_cycle < 0:
            dyn.first_gated_cycle = cycle
            self.stats.branches_gated += 1
            self.policy.stats.branches_gated += 1
        dyn.gated_cycles += 1
        self.stats.branch_gate_cycles += 1
        self.policy.stats.branch_gate_cycles += 1

    def _execute_alu(self, dyn: DynInst, cycle: int, latency: int) -> None:
        inst = dyn.inst
        opcode = inst.opcode
        a = dyn.value_of_src1()
        b = dyn.value_of_src2()
        if opcode.is_branch:
            dyn.actual_taken = semantics.branch_taken(opcode, a, b)
            dyn.actual_target = (
                inst.branch_target if dyn.actual_taken else inst.fallthrough
            )
            dyn.mispredicted = dyn.actual_taken != dyn.predicted_taken
        elif opcode is Opcode.JALR:
            dyn.actual_target = semantics.effective_address(a, inst.imm)
            dyn.result = inst.pc + INSTRUCTION_BYTES
            if dyn.predicted_target is not None:
                dyn.mispredicted = dyn.actual_target != dyn.predicted_target
        elif opcode is Opcode.JAL:
            dyn.result = inst.pc + INSTRUCTION_BYTES
        else:
            dyn.result = semantics.alu_result(opcode, a, b, inst.imm, inst.pc)
        self._schedule(dyn, cycle, latency)

    def _execute_alu_spec(self, dyn: DynInst, cycle: int, latency: int) -> None:
        """Specialized execute: one pre-compiled op per PC (see
        :mod:`repro.uarch.specialize`), bit-identical to
        :meth:`_execute_alu` by the equivalence suite's contract.  The
        operand reads and the schedule call are inlined — this runs once
        per executed ALU/branch/jump instruction."""
        p = dyn.src1_producer
        a = p.result if p is not None else dyn.src1_value
        p = dyn.src2_producer
        b = p.result if p is not None else dyn.src2_value
        dyn.dec.xop(dyn, a, b)
        # _complete_at, inlined (hot: once per executed ALU instruction).
        if dyn.stage is Stage.DISPATCHED:
            self.iq_count -= 1
        dyn.stage = Stage.ISSUED
        dyn.issue_cycle = self._cycle
        heapq.heappush(self.completions, (cycle + latency, dyn.seq, dyn))

    # ------------------------------------------------------------ memory ops
    def _try_issue_mem(self, dyn: DynInst, cycle: int) -> bool:
        """Attempt to issue a load/store/cflush; False leaves it pending."""
        inst = dyn.inst
        opcode = inst.opcode
        if dyn.mem_address is None:
            if self._specialize:
                dyn.mem_address = dyn.dec.aop(dyn.value_of_src1())
            else:
                dyn.mem_address = semantics.effective_address(
                    dyn.value_of_src1(), inst.imm
                )
        p = dyn.src1_producer
        address_secret = (p.out_secret if p is not None
                          else dyn.src1_arf_secret)

        if opcode.is_store:
            # Sink: the address drives disambiguation for younger loads.
            if address_secret:
                self.secret_escaped = True
            p = dyn.src2_producer
            dyn.store_data = p.result if p is not None else dyn.src2_value
            if dyn.stage is Stage.DISPATCHED:
                self.iq_count -= 1
            dyn.stage = Stage.ISSUED
            dyn.issue_cycle = self._cycle
            heapq.heappush(
                self.completions,
                (cycle + self.config.agu_latency, dyn.seq, dyn),
            )
            return True

        # Memory ordering: an older in-flight fence blocks younger memory ops.
        fences = self.inflight_fences
        if fences and fences[0] < dyn.seq:
            self.stats.memdep_blocked_cycles += 1
            return False

        # Loads and cflush are transmitters: consult the policy (the
        # checked_may_issue_load wrapper's bookkeeping is inlined — this
        # runs once per load issue attempt).  The address is a sink where
        # it first matters: at the gate for a policy that reads it there,
        # else once the gate let it through to disambiguation and memory.
        policy = self.policy
        if address_secret and policy.reads_address:
            self.secret_escaped = True
        pstats = policy.stats
        pstats.gate_checks += 1
        if not policy.may_issue_load(dyn, self):
            pstats.gate_denials += 1
            if dyn.first_gated_cycle < 0:
                dyn.first_gated_cycle = cycle
                self.stats.loads_gated += 1
                pstats.loads_gated += 1
            dyn.gated_cycles += 1
            self.stats.load_gate_cycles += 1
            pstats.gate_cycles += 1
            return False
        if address_secret:
            self.secret_escaped = True

        if opcode is Opcode.CFLUSH:
            # clflush semantics: the line leaves the hierarchy at execute
            # (speculative flushes do perturb the caches, as on real parts).
            self.hierarchy.flush_address(dyn.mem_address)
            if self.observations is not None:
                self.observations.record(
                    "fl", inst.pc, dyn.mem_address, cycle, dyn.seq
                )
            self._schedule(dyn, cycle, self.config.agu_latency + 1)
            return True

        # Memory disambiguation against older stores (conservative).
        size = opcode.access_size
        address = dyn.mem_address
        forwarding_store: DynInst | None = None
        for store in reversed(self.store_queue):
            if store.seq > dyn.seq or store.squashed:
                continue
            if store.stage not in (Stage.COMPLETED, Stage.COMMITTED):
                # Older store address unknown: wait (no memdep speculation).
                self.stats.memdep_blocked_cycles += 1
                return False
            s_addr = store.mem_address
            s_size = store.opcode.access_size
            if s_addr + s_size <= address or address + size <= s_addr:
                continue  # no overlap
            if s_addr <= address and address + size <= s_addr + s_size:
                forwarding_store = store
                break
            # Partial overlap: wait until the store drains at commit.
            self.stats.memdep_blocked_cycles += 1
            return False

        self.stats.loads_issued += 1
        if self.has_unresolved_ctrl_older_than(dyn.seq):
            self.stats.loads_speculative_at_issue += 1
            if dyn.addr_tainted() and self.any_unresolved(dyn.addr_deps()):
                self.stats.loads_true_dep_at_issue += 1
        if self.observations is not None:
            # The address reaches the memory system here — transient or not.
            self.observations.record("ld", inst.pc, address, cycle, dyn.seq)
        if forwarding_store is not None:
            self.stats.loads_forwarded += 1
            dyn.forwarded_from = forwarding_store
            shift = (dyn.mem_address - forwarding_store.mem_address) * 8
            raw = (forwarding_store.store_data >> shift) & ((1 << (size * 8)) - 1)
            if self._specialize:
                dyn.result = dyn.dec.ext(raw)
            else:
                dyn.result = self._extend(raw, size, opcode)
            if dyn.stage is Stage.DISPATCHED:
                self.iq_count -= 1
            dyn.stage = Stage.ISSUED
            dyn.issue_cycle = self._cycle
            heapq.heappush(
                self.completions,
                (cycle + self.config.store_forward_latency, dyn.seq, dyn),
            )
            return True

        self._retry_event = True  # a fill may unblock Delay-on-Miss loads
        ready = self.hierarchy.load(
            address, cycle + self.config.agu_latency, pc=inst.pc
        )
        if self._secret_spans:
            dyn.out_secret = self._bytes_labelled(address, size)
        raw = self.memory.read_int(address, size)
        if self._specialize:
            dyn.result = dyn.dec.ext(raw)
        else:
            dyn.result = self._extend(raw, size, opcode)
        if dyn.stage is Stage.DISPATCHED:
            self.iq_count -= 1
        dyn.stage = Stage.ISSUED
        dyn.issue_cycle = self._cycle
        heapq.heappush(self.completions, (ready, dyn.seq, dyn))
        return True

    def _bytes_labelled(self, address: int, size: int) -> bool:
        """Do the bytes ``[address, address + size)`` carry the label?"""
        end = address + size
        for start, stop in self._secret_spans:
            if address < stop and start < end:
                return True
        shadow = self._shadow
        if shadow:
            for byte in range(address, end):
                if byte in shadow:
                    return True
        return False

    @staticmethod
    def _extend(raw: int, size: int, opcode: Opcode) -> int:
        if semantics.load_is_signed(opcode) and size < 8:
            sign_bit = 1 << (size * 8 - 1)
            if raw & sign_bit:
                raw -= 1 << (size * 8)
        return to_unsigned(raw)

    # ------------------------------------------------------------ scheduling
    def _schedule(self, dyn: DynInst, cycle: int, latency: int) -> None:
        self._complete_at(dyn, cycle + latency)

    def _complete_at(self, dyn: DynInst, when: int) -> None:
        if dyn.stage is Stage.DISPATCHED:
            self.iq_count -= 1  # leaves the issue queue
        dyn.stage = Stage.ISSUED
        dyn.issue_cycle = self._cycle
        heapq.heappush(self.completions, (when, dyn.seq, dyn))

    def _process_completions(self, cycle: int) -> None:
        completions = self.completions
        if not completions or completions[0][0] > cycle:
            return
        heappop = heapq.heappop
        unresolved = self.unresolved_ctrl
        inflight_loads = self.inflight_loads
        track_roots = self._track_roots
        # None when the policy provably never defers (base implementation
        # is a side-effect-free constant False — see __init__).
        defers_wakeup = self._defers_wakeup
        # Same-cycle completions are processed as one batch: wakeups are
        # collected and inserted into the ready heap once at the end, and
        # the retry event is raised once.  (seq, dyn) keys are unique, so
        # pop order — hence issue order — is independent of how the heap
        # was built and the batch is bit-identical to per-item pushes.
        newly_ready: list[tuple[int, DynInst]] = []
        wake = newly_ready.append
        progress = False
        while completions and completions[0][0] <= cycle:
            dyn = heappop(completions)[2]
            if dyn.squashed:
                continue
            progress = True
            dyn.stage = Stage.COMPLETED
            dyn.complete_cycle = cycle
            dec = dyn.dec
            # Lineage fast path: an instruction with ARF-only operands, no
            # control region, and no load semantics finalizes to the empty
            # sets (taint is just the captured ARF bits) — the common case
            # on straight-line code, worth skipping the full method for.
            if (
                dyn.src1_producer is None
                and dyn.src2_producer is None
                and not dyn.control_deps
                and not dec.true_load
            ):
                dyn.out_deps = EMPTY
                dyn.out_roots = EMPTY
                dyn.out_tainted = (
                    dyn.src1_arf_tainted or dyn.src2_arf_tainted
                )
                dyn.out_secret = dyn.src1_arf_secret or dyn.src2_arf_secret
            else:
                dyn.finalize_lineage(unresolved, inflight_loads, track_roots)
            if (
                defers_wakeup is not None
                and dec.true_load
                and defers_wakeup(dyn, self)
            ):
                self.deferred_values.append(dyn)  # NDA: value withheld
            else:
                dyn.propagated = True
                for consumer in dyn.consumers:
                    if consumer.squashed:
                        continue
                    w = consumer.waiting_on - 1
                    consumer.waiting_on = w
                    if w == 0 and consumer.stage is Stage.DISPATCHED:
                        wake((consumer.seq, consumer))
            if dec.is_ctrl:
                self._resolve_control(dyn, cycle)
        if progress:
            self._retry_event = True
        if newly_ready:
            ready = self.ready
            if ready:
                heappush = heapq.heappush
                for entry in newly_ready:
                    heappush(ready, entry)
            else:
                # A sorted list satisfies the heap invariant wholesale.
                newly_ready.sort()
                self.ready = newly_ready

    def _propagate(self, dyn: DynInst) -> None:
        """Make a completed value visible to dependents (wakeup)."""
        dyn.propagated = True
        for consumer in dyn.consumers:
            if consumer.squashed:
                continue
            consumer.waiting_on -= 1
            if consumer.waiting_on == 0 and consumer.stage is Stage.DISPATCHED:
                heapq.heappush(self.ready, (consumer.seq, consumer))
        self._retry_event = True

    # ---------------------------------------------------- control resolution
    def _resolve_control(self, dyn: DynInst, cycle: int) -> None:
        # Sink: a branch's operands pick its direction and a jalr's its
        # target (the lineage was finalized just before this call).
        if dyn.out_secret:
            self.secret_escaped = True
        self.unresolved_ctrl.discard(dyn.seq)
        # A resolved branch creates no control dependence: retire its
        # tracker region so younger fetches stop inheriting it (and the
        # region list stays bounded by the unresolved window).
        if self.active_regions:
            regions = [r for r in self.active_regions if r[0] != dyn.seq]
            self.active_regions = regions
            self._reconv_live = {r[1] for r in regions if r[1] is not None}
            self._live_deps = None
        inst = dyn.inst
        if inst.is_branch:
            self.stats.branch_resolutions += 1
            if self.observations is not None:
                self.observations.record(
                    "br", inst.pc, int(bool(dyn.actual_taken)), cycle, dyn.seq
                )
            self.predictor.update(inst.pc, dyn.actual_taken, dyn.predictor_context)
            if dyn.mispredicted:
                self.stats.branch_mispredicts += 1
                self._squash_after(dyn, cycle)
            return
        # JALR
        if self.observations is not None:
            self.observations.record(
                "jr", inst.pc, dyn.actual_target, cycle, dyn.seq
            )
        self.btb.update(inst.pc, dyn.actual_target)
        if dyn.predicted_target is None:
            # Fetch stalled on this jalr; resume at the resolved target.
            if self.fetch_stalled_on is dyn:
                self.fetch_stalled_on = None
                self.fetch_pc = dyn.actual_target
            return
        if dyn.mispredicted:
            self.stats.jalr_mispredicts += 1
            self._squash_after(dyn, cycle)

    def _squash_after(self, dyn: DynInst, cycle: int) -> None:
        """Squash everything younger than ``dyn`` and redirect fetch."""
        boundary = dyn.seq
        # The ROB is seq-ordered, so the squashed suffix pops off the tail:
        # O(#squashed) work, and the occupancy counters are maintained
        # incrementally per squashed entry (they were consistent with the
        # full window before the squash) instead of rescanning the survivors.
        rob = self.rob
        observations = self.observations
        squashed_n = 0
        stale_ready = False
        stale_comp = False
        while rob and rob[-1].seq > boundary:
            entry = rob.pop()
            entry.squashed = True
            if observations is not None:
                observations.squashed.add(entry.seq)
            stage = entry.stage
            entry.stage = Stage.SQUASHED
            entry.drop_links()
            squashed_n += 1
            opcode = entry.opcode
            if stage is Stage.DISPATCHED and opcode is not Opcode.HALT:
                self.iq_count -= 1
                if entry.waiting_on == 0:
                    stale_ready = True  # may sit in the ready heap
            elif stage is Stage.ISSUED:
                stale_comp = True  # sits in the completions heap
            if opcode.is_load:
                self.lq_count -= 1
                self.inflight_loads.pop(entry.seq, None)
            elif opcode.is_store:
                self.sq_count -= 1
            self.unresolved_ctrl.discard(entry.seq)
        self.stats.squashed_insts += squashed_n
        fences = self.inflight_fences
        while fences and fences[-1] > boundary:
            fences.pop()

        # Scrub squashed entries out of the scheduler heaps instead of
        # leaving them for lazy deletion.  Pop order depends only on the
        # (unique) keys, never on the internal array layout, so filtering
        # and re-heapifying is bit-identical to lazily skipping them.
        # (Only entries that were DISPATCHED-and-ready or ISSUED can be in
        # a heap, so the scans run only when the pop loop saw one.)
        ready = self.ready
        if stale_ready and ready:
            alive = [e for e in ready if not e[1].squashed]
            if len(alive) != len(ready):
                heapq.heapify(alive)
                self.ready = alive
        completions = self.completions
        if stale_comp and completions:
            alive_c = [e for e in completions if not e[2].squashed]
            if len(alive_c) != len(completions):
                heapq.heapify(alive_c)
                self.completions = alive_c

        store_queue = self.store_queue
        while store_queue and store_queue[-1].seq > boundary:
            store_queue.pop()
        if self.pending_loads:
            self.pending_loads = [
                p for p in self.pending_loads if p.seq <= boundary
            ]
        if self.pending_ctrl:
            self.pending_ctrl = [
                p for p in self.pending_ctrl if p.seq <= boundary
            ]
        if self.deferred_values:
            self.deferred_values = [
                d for d in self.deferred_values if d.seq <= boundary
            ]
        if self.serialize_wait:
            self.serialize_wait = [
                s for s in self.serialize_wait if s.seq <= boundary
            ]

        fetch_queue = self.fetch_queue
        if fetch_queue:
            for entry in fetch_queue:
                entry.squashed = True
                entry.stage = Stage.SQUASHED
            fetch_queue.clear()

        checkpoint = dyn.checkpoint
        if checkpoint is None:
            raise SimulationError(
                f"mispredicted {dyn} carries no checkpoint"
            )
        self.rename_map = list(checkpoint.rename_map)
        # Drop producers that have left the window from the restored map.
        # Squashed ones are a defensive sweep (a snapshot taken at the
        # branch's dispatch can only reference older instructions).
        # Committed ones are nulled because a committed producer is
        # indistinguishable from reading the ARF: the snapshot maps each
        # register to its youngest older-than-branch writer, so by commit
        # order that writer's result/taint is exactly what the ARF holds,
        # and its already-pruned lineage sets only ever contained seqs that
        # resolved/retired before it committed (inert in every membership
        # query).
        for i, producer in enumerate(self.rename_map):
            if producer is not None and (
                producer.squashed or producer.stage is Stage.COMMITTED
            ):
                self.rename_map[i] = None
        self.ras.restore(checkpoint.ras)
        self._call_depth = checkpoint.call_depth
        self.predictor.history_restore(checkpoint.history)
        if dyn.inst.is_branch:
            self.predictor.on_speculative_branch(dyn.pc, bool(dyn.actual_taken))
        # Restore only regions whose branches are still unresolved: branches
        # that resolved after the checkpoint was taken were already retired
        # from the tracker and must not be resurrected.  (The snapshot is
        # copy-on-write: the first ``regions_len`` entries of the captured
        # list reference are the state at capture time.)
        unresolved = self.unresolved_ctrl
        regions = [
            r
            for r in checkpoint.regions[: checkpoint.regions_len]
            if r[0] in unresolved
        ]
        self.active_regions = regions
        self._reconv_live = {r[1] for r in regions if r[1] is not None}
        self._live_deps = None

        self.fetch_pc = dyn.actual_target
        self.fetch_wild = False
        self.halt_fetched = False
        self.fetch_stalled_on = None
        self._last_fetch_line = None
        self._retry_event = True

    # ----------------------------------------------------------------- commit
    def _commit(self, cycle: int) -> None:
        width = self.config.commit_width
        rob = self.rob
        stats = self.stats
        arf = self.arf
        arf_taint = self.arf_taint
        arf_secret = self.arf_secret
        rename_map = self.rename_map
        observations = self.observations
        record_trace = self.record_trace
        record_pipeline = self.record_pipeline
        # Retirement bookkeeping is batched: the committed counters, the
        # watchdog timestamp, and the retry event are written once per
        # commit packet instead of once per instruction.
        committed_n = 0
        while width > 0 and rob:
            dyn = rob[0]
            if dyn.stage is not Stage.COMPLETED:
                break
            if not dyn.propagated:
                # NDA-deferred value reaching the head: it is non-speculative
                # now, so the policy must agree to release it.
                if self.policy.may_propagate(dyn, self):
                    self._propagate(dyn)
                    self.deferred_values = [
                        d for d in self.deferred_values if d is not dyn
                    ]
                else:
                    break
            rob.popleft()
            width -= 1
            dyn.stage = Stage.COMMITTED
            dyn.commit_cycle = cycle
            committed_n += 1
            if record_trace:
                self.committed_pcs.append(dyn.pc)
            if record_pipeline:
                self.retired.append(dyn)

            dec = dyn.dec
            cc = dec.cc
            if cc:
                if cc == C_HALT:
                    self._done = True
                    break
                if cc == C_STORE:
                    address = dyn.mem_address
                    self.memory.write_int(address, dyn.store_data, dec.asize)
                    if self._secret_spans:
                        written = range(address, address + dec.asize)
                        if dyn.out_secret:
                            self._shadow.update(written)
                        elif self._shadow:
                            self._shadow.difference_update(written)
                    self.hierarchy.store(address, cycle)
                    if observations is not None:
                        observations.record("st", dyn.pc, address, cycle,
                                            dyn.seq)
                    store_queue = self.store_queue
                    if store_queue[0] is dyn:  # stores commit in order
                        store_queue.popleft()
                    else:  # pragma: no cover - defensive
                        store_queue.remove(dyn)
                    self.sq_count -= 1
                    stats.committed_stores += 1
                elif cc == C_LOAD:
                    stats.committed_loads += 1
                    self.inflight_loads.pop(dyn.seq, None)
                    self.lq_count -= 1
                elif cc == C_CFLUSH:
                    self.hierarchy.flush_address(dyn.mem_address)
                    self.inflight_loads.pop(dyn.seq, None)
                    self.lq_count -= 1
                elif cc == C_BRANCH:
                    stats.committed_branches += 1
                else:  # C_FENCE: commit is in order, so it is the oldest
                    self.inflight_fences.popleft()

            dest = dec.dest
            if dest is not None:
                arf[dest] = dyn.result
                arf_taint[dest] = dyn.out_tainted
                arf_secret[dest] = dyn.out_secret
                if rename_map[dest] is dyn:
                    rename_map[dest] = None
            dyn.drop_links()
        if committed_n:
            stats.committed += committed_n
            self._last_commit_cycle = cycle
            self._retry_event = True
