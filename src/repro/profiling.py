"""Simulator profiling harness: cProfile + per-stage cycle attribution.

Perf work on the simulator should be guided by measurements, not folklore.
:func:`profile_run` executes one (workload, policy) run under
:mod:`cProfile` and returns a machine-readable report combining two views:

* **wall-clock attribution** — the top functions by cumulative/total time,
  straight from the profiler (where does the *host* spend its time), and
* **simulated-cycle attribution** — the core's per-stage stall counters
  plus the event-horizon engine's warp diagnostics (where does the *guest*
  spend its cycles, and how many of them the engine never had to step).

Exposed on the CLI as ``repro profile`` (see :mod:`repro.cli`); CI runs it
with ``--json`` so the harness cannot bit-rot.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from .secure import make_policy
from .uarch import CoreConfig, OooCore
from .uarch.decoded import image_cache_info

SORT_KEYS = ("cumtime", "tottime", "ncalls")

def profile_run(
    program,
    policy_name: str = "none",
    config: CoreConfig | None = None,
    *,
    sort: str = "cumtime",
    top: int = 25,
    max_cycles: int | None = None,
    cycle_skip: bool | None = None,
) -> dict:
    """Profile one simulator run; returns the combined report as a dict."""
    if sort not in SORT_KEYS:
        raise ValueError(f"sort must be one of {SORT_KEYS}, got {sort!r}")
    core = OooCore(
        program,
        config=config,
        policy=make_policy(policy_name),
        cycle_skip=cycle_skip,
    )
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = core.run(max_cycles=max_cycles)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler, stream=io.StringIO())
    top_functions = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():
        filename, line, name = func
        top_functions.append(
            {
                "function": name,
                "file": filename,
                "line": line,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": tt,
                "cumtime": ct,
            }
        )
    top_functions.sort(key=lambda row: row[sort], reverse=True)
    del top_functions[top:]

    s = result.stats
    warp = core.warp_stats
    simulated = s.cycles
    stepped = simulated - warp.cycles_skipped
    report = {
        "workload": program.name,
        "policy": result.policy_name,
        "sort": sort,
        "run": {
            "cycles": simulated,
            "committed": s.committed,
            "ipc": s.ipc,
            "wall_seconds": wall,
            "inst_per_sec": s.committed / wall if wall > 0 else 0.0,
            "cycles_per_sec": simulated / wall if wall > 0 else 0.0,
        },
        "cycle_attribution": {
            # Guest-side view: which stall condition each cycle sat in.
            # Buckets overlap (a cycle can stall fetch and dispatch at
            # once), so they are attribution hints, not a partition.
            "simulated_cycles": simulated,
            "stepped_cycles": stepped,
            "fetch_stall_cycles": s.fetch_stall_cycles,
            "rob_full_stalls": s.rob_full_stalls,
            "iq_full_stalls": s.iq_full_stalls,
            "lsq_full_stalls": s.lsq_full_stalls,
            "load_gate_cycles": s.load_gate_cycles,
            "branch_gate_cycles": s.branch_gate_cycles,
            "memdep_blocked_cycles": s.memdep_blocked_cycles,
        },
        "event_horizon": {
            **warp.as_dict(),
            "skip_fraction": warp.cycles_skipped / simulated if simulated else 0.0,
        },
        "decode_cache": image_cache_info(),
        "top_functions": top_functions,
    }
    return report


def render_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    run = report["run"]
    attr = report["cycle_attribution"]
    horizon = report["event_horizon"]
    lines = [
        f"workload {report['workload']}  policy {report['policy']}",
        f"  {run['cycles']} cycles, {run['committed']} committed "
        f"(IPC {run['ipc']:.3f}) in {run['wall_seconds']:.3f}s "
        f"-> {run['inst_per_sec']:,.0f} inst/s",
        f"  event horizon: {horizon['cycles_skipped']} of "
        f"{attr['simulated_cycles']} cycles skipped "
        f"({100 * horizon['skip_fraction']:.1f}%) in {horizon['warps']} warps"
        + (
            "  [" + ", ".join(
                f"{k}:{v}" for k, v in sorted(horizon["reasons"].items())
            ) + "]"
            if horizon["reasons"]
            else ""
        ),
        "  cycle attribution (overlapping buckets):",
    ]
    for key in (
        "fetch_stall_cycles",
        "rob_full_stalls",
        "iq_full_stalls",
        "lsq_full_stalls",
        "load_gate_cycles",
        "branch_gate_cycles",
        "memdep_blocked_cycles",
    ):
        value = attr[key]
        if value:
            lines.append(f"    {key:<24} {value}")
    lines.append("")
    lines.append(
        f"  top functions by {report['sort']} "
        f"(ncalls / tottime / cumtime):"
    )
    for row in report["top_functions"]:
        where = f"{row['file']}:{row['line']}" if row["line"] else row["file"]
        lines.append(
            f"    {row['ncalls']:>10}  {row['tottime']:8.3f}s "
            f"{row['cumtime']:8.3f}s  {row['function']}  ({where})"
        )
    return "\n".join(lines)
