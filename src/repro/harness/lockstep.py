"""Lockstep grid vectorization: N grid points, one process, one image.

The experiment grid re-runs the same workloads under many policies, so
consecutive grid points repeat all per-run setup — workload build,
assembly, decoded-image lookup, specialization-cache warmup, memory-image
construction — that is identical across the policy axis.  This module
runs a *batch* of points sharing one program in a single worker process,
interleaving their cores in fixed-size cycle slices:

* setup amortizes: every core shares the same assembled program (from
  the per-process build cache, :mod:`repro.workloads.build_cache`) and
  the same content-addressed :class:`~repro.uarch.decoded.DecodedProgram`
  (and its attached specialized ops) from the process-level caches;
* scheduling stays deterministic: cores are advanced round-robin in
  batch order with a fixed ``slice_cycles`` quantum, and each core's
  simulation is completely independent state-wise, so results are
  bit-identical to running the points one at a time (the never-diverge
  property in ``tests/test_lockstep.py``);
* failures stay attributable: each core carries its run key as
  ``point_label``, which :class:`~repro.errors.SimulationTimeout` copies
  into its ``point`` attribute, so a timeout inside an 8-point batch
  names the guilty grid point.

Only the grid planner (``ParallelRunner.prefetch``) batches; the
service runs every flight as one supervised point.  ``REPRO_NO_LOCKSTEP=1``
turns the planner's batching off (one point per worker task).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.core import OooCore, SimResult

#: Cycle quantum per core per round-robin turn.  Large enough that the
#: per-slice Python overhead (one ``advance`` call) is noise, small
#: enough that a hung member is detected within the batch timeout.
DEFAULT_SLICE = 4096

#: Upper bound on points per batch: keeps worst-case batch wall time (and
#: the blast radius of one member's failure, which fails the whole batch)
#: bounded, while capturing nearly all of the setup amortization.
LOCKSTEP_MAX = 8


def lockstep_enabled() -> bool:
    """Process-level default for lockstep batching."""
    return os.environ.get("REPRO_NO_LOCKSTEP") != "1"


def run_lockstep(
    entries: "list[tuple[str, OooCore, int]]",
    slice_cycles: int = DEFAULT_SLICE,
) -> "dict[str, SimResult]":
    """Advance ``(label, core, limit)`` entries round-robin to completion.

    Each core is advanced in ``slice_cycles`` quanta until it halts (its
    result is collected) or raises.  Exceptions propagate immediately and
    fail the batch; the cores are independent, so the members completed
    before the failure are *not* wasted in the retry path only because
    the supervisor re-runs the batch as singles (see the harness).
    """
    results: "dict[str, SimResult]" = {}
    active = list(entries)
    while active:
        still: list = []
        for label, core, limit in active:
            stop = core.cycle + slice_cycles
            if stop > limit:
                stop = limit
            if core.advance(limit, stop):
                results[label] = core._result()
            else:
                still.append((label, core, limit))
        active = still
    return results


def simulate_batch(args: tuple) -> dict:
    """Top-level pool-worker entrypoint for one lockstep batch.

    ``args`` is ``(scale, points, default_config, keys)`` — the batched
    twin of :func:`repro.harness.resilience.simulate_point`, returning
    ``{run key: slim RunRecord}`` for every member.  Behaviour per member
    is identical to the single-point path: the worker-site fault hook
    fires per key, and every result is self-checked before it is
    returned.  Any member failure raises and fails the whole batch.
    """
    from ..faults import maybe_fault
    from ..secure import make_policy
    from ..uarch.config import CoreConfig
    from ..uarch.core import OooCore
    from ..workloads import build_workload
    from .runner import RunRecord

    scale, points, default_config, keys = args
    default_config = default_config or CoreConfig()
    for key in keys:
        maybe_fault("worker", key)

    workloads: dict[str, object] = {}
    entries = []
    members = []
    for key, point in zip(keys, points):
        workload = workloads.get(point.workload)
        if workload is None:
            workload = build_workload(point.workload, scale)
            workloads[point.workload] = workload
        cfg = point.config or default_config
        core = OooCore(
            workload.assemble(),
            config=cfg,
            policy=make_policy(point.policy),
            use_compiler_info=point.use_compiler_info,
            record_observations=getattr(point, "observe", False),
        )
        core.point_label = key
        entries.append((key, core, cfg.max_cycles))
        members.append((key, point, workload))

    results = run_lockstep(entries)

    records: dict[str, dict] = {}
    for key, point, workload in members:
        result = results[key]
        if not workload.validate(result.regs):
            raise SimulationError(
                f"{point.workload} under {point.policy}: self-check failed "
                f"(a0={result.regs[10]:#x}, want {workload.check_value:#x})"
            )
        records[key] = RunRecord.from_result(
            point.workload, point.policy, result,
            mitigation=getattr(workload, "mitigation", None),
        ).slim()
    return records


def simulate_work(args: tuple):
    """Dispatch a supervised work item to the right worker entrypoint.

    Batch items carry four fields (``keys`` last); single points carry
    the classic three.  Keeping one picklable entrypoint lets the
    supervisor (and its retry/rebuild machinery) stay shape-agnostic.
    """
    if len(args) == 4:
        return simulate_batch(args)
    from .resilience import simulate_point

    return simulate_point(args)
