"""Dynamic-instruction records and speculation-lineage tracking.

Each in-flight instruction carries two kinds of security lineage, finalized
when the instruction *completes* (so consumers — which cannot issue before
their producers complete — always observe final sets):

* ``out_deps`` — true branch dependencies of the produced value: the
  instruction's own control dependencies (from the front-end reconvergence
  tracker) plus the dependencies of every operand producer, plus, for
  forwarded loads, the forwarding store's data lineage.  This is what the
  Levioso hardware consults.
* ``out_roots`` / ``out_tainted`` — taint lineage: ``out_roots`` holds the
  in-flight load seqs the value descends from (STT's expiring taint);
  ``out_tainted`` says the value descends from *any* loaded data, a
  persistent property carried across commit by the core's architectural
  taint bits (comprehensive policies' structural taint).
* ``out_secret`` — the secret label: the value descends from a byte of a
  ``.secret`` range, directly or through memory a labelled store wrote.
  It rides along ``out_tainted`` through rename, forwarding and the ARF
  bits, and feeds only the core's fill-independence proof (DESIGN.md
  §15); no policy reads it, so it never changes timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..isa import Instruction, Opcode

EMPTY: frozenset[int] = frozenset()


class Stage(enum.Enum):
    FETCHED = "fetched"
    DISPATCHED = "dispatched"
    ISSUED = "issued"
    COMPLETED = "completed"
    COMMITTED = "committed"
    SQUASHED = "squashed"


@dataclass(slots=True)
class Checkpoint:
    """Front-end + rename state captured at a speculation source."""

    rename_map: list  # list[DynInst | None] per arch reg
    ras: tuple[int, ...]
    call_depth: int  # the front end's call depth, as ``ras`` is captured
    history: int
    # Copy-on-write region snapshot: a *reference* to the live region list
    # plus its length at capture time.  Entries are never mutated in place
    # and the live list only ever grows by append while it stays the
    # current binding (every removal rebinds a freshly built list), so the
    # first ``regions_len`` entries of ``regions`` are immutable — the
    # restore path materializes its own copy from that prefix.
    regions: list  # list of (branch_seq, reconv_pc, call_depth)
    regions_len: int
    fetch_pc_after: int  # where fetch would go if the prediction was wrong


@dataclass(slots=True)
class DynInst:
    """One in-flight dynamic instruction.

    Slotted: the core allocates one of these per fetched instruction and
    never reuses it for another, so the per-instance ``__dict__`` would be
    the single largest allocation on the simulator's hot path.
    ``opcode``/``pc`` are materialized at construction instead of chaining
    through ``self.inst`` on every scheduler query.
    """

    seq: int
    inst: Instruction
    fetch_cycle: int
    stage: Stage = Stage.FETCHED
    # Pre-decoded static facts (a repro.uarch.decoded.DecodedInst); None for
    # unit-test DynInsts built outside a core's fetch stage.
    dec: object = None

    # Materialized from ``inst`` in __post_init__ (hot-path shorthand).
    opcode: Opcode = field(init=False)
    pc: int = field(init=False)

    # Prediction state (control-flow instructions)
    predicted_taken: bool = False
    predicted_target: int | None = None
    predictor_context: object = None
    checkpoint: Checkpoint | None = None
    actual_taken: bool | None = None
    actual_target: int | None = None
    mispredicted: bool = False

    # Renamed operands: producer DynInsts (None = value from the ARF)
    src1_producer: Optional["DynInst"] = None
    src2_producer: Optional["DynInst"] = None
    src1_value: int = 0          # ARF value captured at rename when no producer
    src2_value: int = 0
    src1_arf_tainted: bool = False
    src2_arf_tainted: bool = False
    src1_arf_secret: bool = False
    src2_arf_secret: bool = False

    # Control lineage assigned by the front-end reconvergence tracker.
    control_deps: frozenset[int] = EMPTY

    # Finalized output lineage (valid once stage >= COMPLETED).
    out_deps: frozenset[int] = EMPTY
    out_roots: frozenset[int] = EMPTY
    out_tainted: bool = False
    # Secret label.  A load sets it at issue from the bytes it reads; at
    # completion it is finalized like the other lineage.
    out_secret: bool = False

    # Execution results
    result: int = 0
    mem_address: int | None = None
    store_data: int = 0
    forwarded_from: Optional["DynInst"] = None

    # Timing
    dispatch_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1
    first_gated_cycle: int = -1
    gated_cycles: int = 0

    # Scheduler bookkeeping
    waiting_on: int = 0
    consumers: list = field(default_factory=list)
    squashed: bool = False
    propagated: bool = False  # value visible to dependents (NDA defers this)

    def __post_init__(self) -> None:
        self.opcode = self.inst.opcode
        self.pc = self.inst.pc

    def drop_links(self) -> None:
        """Forget every link to another record once this one left the window.

        Called at commit and at squash, after which nothing reads them.
        Kept, a retired record would hold its producers alive, and they
        theirs, along a whole dependence chain; producer/consumer pairs
        would also stay tied in cycles that only the garbage collector
        frees.
        """
        self.src1_producer = self.src2_producer = None
        self.forwarded_from = None
        self.checkpoint = None
        self.consumers.clear()

    # ------------------------------------------------------------- operands
    def value_of_src1(self) -> int:
        if self.src1_producer is not None:
            return self.src1_producer.result
        return self.src1_value

    def value_of_src2(self) -> int:
        if self.src2_producer is not None:
            return self.src2_producer.result
        return self.src2_value

    # ----------------------------------------------------- lineage queries
    def _producer_sets(
        self, producer: Optional["DynInst"], arf_tainted: bool
    ) -> tuple[frozenset[int], frozenset[int], bool]:
        if producer is not None:
            return producer.out_deps, producer.out_roots, producer.out_tainted
        return EMPTY, EMPTY, arf_tainted

    def addr_deps(self) -> frozenset[int]:
        """True branch dependencies of the *address* of this memory op."""
        deps, _, _ = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        if deps:
            return self.control_deps | deps
        return self.control_deps

    def addr_roots(self) -> frozenset[int]:
        """STT taint roots in the address lineage."""
        _, roots, _ = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        return roots

    def addr_tainted(self) -> bool:
        """Is the address derived from any loaded data (structural taint)?"""
        _, _, tainted = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        return tainted

    def operand_roots(self) -> frozenset[int]:
        """STT taint roots across both operands (branch-gate query)."""
        _, r1, _ = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        _, r2, _ = self._producer_sets(self.src2_producer, self.src2_arf_tainted)
        return r1 | r2

    def operand_tainted(self) -> bool:
        """Does either operand descend from loaded data?"""
        _, _, t1 = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        _, _, t2 = self._producer_sets(self.src2_producer, self.src2_arf_tainted)
        return t1 or t2

    def input_deps(self) -> frozenset[int]:
        """Control deps + both operands' dependency lineages."""
        deps = set(self.control_deps)
        d1, _, _ = self._producer_sets(self.src1_producer, self.src1_arf_tainted)
        d2, _, _ = self._producer_sets(self.src2_producer, self.src2_arf_tainted)
        deps.update(d1)
        deps.update(d2)
        return frozenset(deps)

    def finalize_lineage(
        self,
        unresolved: "set[int] | frozenset[int] | None" = None,
        inflight_loads: "dict | None" = None,
        track_roots: bool = True,
    ) -> None:
        """Compute the output lineage at completion time.

        Loads produce memory data: structurally tainted, rooted at the load
        itself, and — when forwarded — additionally carrying the forwarding
        store's data lineage.

        When the core passes its ``unresolved`` branch set and
        ``inflight_loads`` map, already-resolved branch seqs and
        already-visible load roots are pruned: a resolved seq can never
        become unresolved again (seqs are unique), so pruning cannot change
        any future gate decision — but it keeps lineage sets bounded by the
        in-flight window instead of growing along dependence chains.

        ``track_roots=False`` (policies with ``uses_taint_roots`` unset)
        skips seeding ``out_roots`` at loads; with every producer's root
        set empty, root sets then stay empty along the whole chain, so
        per-completion set construction disappears for policies that never
        read them.

        The secret label of a load is that of the bytes it read (set at
        issue) or, when forwarded, that of the forwarding store's data;
        its address label does not enter it, because a labelled address
        has already reached a sink.
        """
        op = self.opcode
        p1 = self.src1_producer
        p2 = self.src2_producer
        if p1 is not None:
            d1, r1, t1 = p1.out_deps, p1.out_roots, p1.out_tainted
            s1 = p1.out_secret
        else:
            d1, r1, t1 = EMPTY, EMPTY, self.src1_arf_tainted
            s1 = self.src1_arf_secret
        if p2 is not None:
            d2, r2, t2 = p2.out_deps, p2.out_roots, p2.out_tainted
            s2 = p2.out_secret
        else:
            d2, r2, t2 = EMPTY, EMPTY, self.src2_arf_tainted
            s2 = self.src2_arf_secret
        deps = self.control_deps
        if d1 or d2:
            deps = deps | d1 | d2
        roots = r1 | r2 if (r1 or r2) else EMPTY
        tainted = t1 or t2
        secret = s1 or s2

        if op.is_load and op is not Opcode.CFLUSH:
            tainted = True
            secret = self.out_secret
            if track_roots:
                roots = roots | frozenset((self.seq,))
            if self.forwarded_from is not None:
                store = self.forwarded_from
                deps = deps | store.out_deps
                secret = store.out_secret
                if store.out_roots:
                    roots = roots | store.out_roots
        if unresolved is not None and deps:
            deps = frozenset(deps & unresolved)
        if inflight_loads is not None and roots:
            roots = frozenset(r for r in roots if r in inflight_loads)
        self.out_deps = deps
        self.out_roots = roots
        self.out_tainted = tainted
        self.out_secret = secret

    # ------------------------------------------------------------ shorthand
    @property
    def is_speculation_source(self) -> bool:
        """Does this instruction open a speculative window when predicted?"""
        return self.inst.is_branch or self.opcode is Opcode.JALR

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynInst(seq={self.seq}, {self.inst.text()}, {self.stage.value})"
