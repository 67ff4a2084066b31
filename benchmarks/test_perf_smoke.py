"""Simulator-throughput smoke benchmark.

Measures wall-clock and instructions-simulated-per-second of the cycle
loop (``OooCore.run`` under the levioso policy) on three profile-diverse
workloads, and records the numbers in ``BENCH_perf.json`` at the repo root.

Baselines live in ``benchmarks/baseline_perf.json`` (seed-commit inst/s,
golden cycle counts, and machine-normalization notes) instead of being
hard-coded here.  ``BENCH_perf.json`` keeps the latest run's fields at the
top level for backward compatibility and appends every run to an
append-only ``history`` list, so the file records a trajectory across PRs
rather than overwriting a single snapshot.

Two optional gates (both off by default so noisy shared runners cannot
flake the suite):

* ``REPRO_PERF_GATE=1`` — absolute: geomean speedup vs the seed baselines
  must be >= 2.5x.  Only meaningful on hardware comparable to the
  reference machine.
* ``REPRO_PERF_RELATIVE_GATE=1`` — relative: the calibration-normalized
  geomean must not drop more than 20% below the previous history entry.
  This is the CI gate — it compares the machine to itself via the
  calibration loop, so absolute machine speed cancels out.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.secure import make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_perf.json"
BASELINE = pathlib.Path(__file__).resolve().parent / "baseline_perf.json"

WORKLOADS = ("gather", "branchy", "treewalk")
POLICY = "levioso"
ROUNDS = 5  # best-of-N wall-clock (noisy shared runners: more draws)
HISTORY_CAP = 50  # oldest entries beyond this are dropped

#: Geomean speedup vs seed required when the absolute gate is armed.
ABSOLUTE_TARGET = 2.5
#: Fraction of the previous normalized geomean that must be retained when
#: the relative gate is armed (i.e. fail on a >20% regression).
RELATIVE_FLOOR = 0.8

_CALIBRATION_ITERS = 200_000

#: Fast-path feature flags recorded with every entry.  Each is on unless
#: its REPRO_NO_* kill switch is set, mirroring the runtime defaults in
#: repro.uarch.core / repro.uarch.specialize.
_FEATURE_FLAGS = {
    "cycle_skip": "REPRO_NO_CYCLE_SKIP",
    "specialize": "REPRO_NO_SPECIALIZE",
}

#: Flag set for history entries that predate feature recording: those
#: runs had cycle skipping and the dyninst pool but not specialization
#: or lockstep batching (which landed with the recording itself).
_LEGACY_FEATURES = {
    "cycle_skip": True,
    "dyn_pool": True,
    "specialize": False,
    "lockstep": False,
}


def _feature_flags() -> dict:
    """The fast-path feature set this process would simulate with."""
    return {
        name: os.environ.get(env) != "1"
        for name, env in _FEATURE_FLAGS.items()
    }


def _load_baseline() -> dict:
    return json.loads(BASELINE.read_text())


def _calibration_score() -> float:
    """Machine-speed proxy: iterations/sec of a fixed integer loop.

    Pure Python, allocation-free, single-core — the same resource profile
    as the simulator's hot loop, so dividing a run's inst/s by this score
    cancels most machine-speed differences between history entries.
    """
    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_ITERS):
            acc += i ^ (acc >> 3)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, _CALIBRATION_ITERS / elapsed)
    return best


def _measure(name: str, seed_ips: dict) -> dict:
    workload = build_workload(name, "test")
    program = workload.assemble()
    best = float("inf")
    committed = cycles = 0
    for _ in range(ROUNDS):
        core = OooCore(program, policy=make_policy(POLICY))
        start = time.perf_counter()
        result = core.run()
        elapsed = time.perf_counter() - start
        assert workload.validate(result.regs), f"{name}: self-check failed"
        committed = result.stats.committed
        cycles = result.stats.cycles
        best = min(best, elapsed)
    ips = committed / best if best > 0 else 0.0
    return {
        "workload": name,
        "policy": POLICY,
        "cycles": cycles,
        "committed": committed,
        "wall_seconds": round(best, 4),
        "inst_per_sec": round(ips, 1),
        "seed_inst_per_sec": seed_ips[name],
        "speedup_vs_seed": round(ips / seed_ips[name], 3),
    }


def _load_history() -> list[dict]:
    """Previous runs, oldest first; tolerates the pre-history file shape."""
    if not OUTPUT.exists():
        return []
    try:
        previous = json.loads(OUTPUT.read_text())
    except (OSError, ValueError):
        return []
    history = previous.get("history")
    if not isinstance(history, list):
        if "runs" in previous:
            # Legacy single-snapshot file: its top level becomes the first
            # history entry so the trajectory keeps the pre-history data
            # point.
            history = [{k: v for k, v in previous.items() if k != "history"}]
        else:
            return []
    for entry in history:
        entry.setdefault("features", dict(_LEGACY_FEATURES))
    return history


def _normalized(entry: dict) -> float | None:
    """Calibration-normalized geomean speedup; None for legacy entries."""
    geomean = entry.get("geomean_speedup_vs_seed")
    calibration = entry.get("calibration_score")
    if not geomean or not calibration:
        return None
    return geomean / calibration


def test_perf_smoke():
    baseline = _load_baseline()
    seed_ips = baseline["seed_inst_per_sec"]
    expected_cycles = baseline["expected_cycles"]

    rows = [_measure(name, seed_ips) for name in WORKLOADS]
    for row in rows:
        assert row["cycles"] == expected_cycles[row["workload"]], (
            f"{row['workload']}: cycle count drifted "
            f"({row['cycles']} != {expected_cycles[row['workload']]}) — "
            "an optimization changed simulated timing"
        )
    product = 1.0
    for row in rows:
        product *= row["speedup_vs_seed"]
    geomean = product ** (1.0 / len(rows))

    entry = {
        "policy": POLICY,
        "scale": "test",
        "rounds": ROUNDS,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "calibration_score": round(_calibration_score(), 1),
        "geomean_speedup_vs_seed": round(geomean, 3),
        "features": _feature_flags(),
        "runs": rows,
    }
    history = _load_history()
    previous = history[-1] if history else None
    history.append(entry)
    del history[:-HISTORY_CAP]
    # Latest run stays at the top level (backward compat with consumers of
    # the pre-history shape); the trajectory lives under "history".
    payload = dict(entry)
    payload["history"] = history
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    summary = ", ".join(
        f"{r['workload']} {r['inst_per_sec']:.0f} inst/s "
        f"({r['speedup_vs_seed']:.2f}x)"
        for r in rows
    )
    print(f"\nperf smoke: {summary}; geomean {geomean:.2f}x -> {OUTPUT.name}")

    if os.environ.get("REPRO_PERF_GATE"):
        assert geomean >= ABSOLUTE_TARGET, (
            f"cycle-loop speedup regressed: geomean {geomean:.2f}x < "
            f"{ABSOLUTE_TARGET}x target vs seed ({entry})"
        )
    if os.environ.get("REPRO_PERF_RELATIVE_GATE") and previous is not None:
        current_norm = _normalized(entry)
        previous_norm = _normalized(previous)
        if current_norm is not None and previous_norm is not None:
            ratio = current_norm / previous_norm
            print(
                f"relative perf gate: normalized geomean ratio "
                f"{ratio:.3f} vs previous entry (floor {RELATIVE_FLOOR})"
            )
            assert ratio >= RELATIVE_FLOOR, (
                f"relative perf regression: calibration-normalized geomean "
                f"dropped to {ratio:.2f}x of the previous history entry "
                f"(floor {RELATIVE_FLOOR}); previous={previous}, current={entry}"
            )
        else:
            print(
                "relative perf gate: previous entry predates calibration "
                "scores; skipping comparison"
            )
