"""Shared helpers: percentiles, the simulated-model digest, memory, records.

Kept free of ``repro`` imports so the set-up clock in ``run.py`` can start
before the simulator is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource

#: Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Counters of one simulated point that the model digest covers.
DIGEST_FIELDS = ("cycles", "committed", "loads_gated", "load_gate_cycles")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(1, math.ceil(q * n))


def tail_is_resolved(n: int, q: float) -> bool:
    """True when the ``q`` percentile of ``n`` samples has ``MIN_BEYOND`` above it."""
    return samples_beyond(n, q) >= MIN_BEYOND


def point_counters(record) -> dict:
    """Every simulated counter of one run record that the digest covers."""
    mem = record.mem_stats or {}
    out = {name: getattr(record, name) for name in DIGEST_FIELDS}
    out["l1d_misses"] = mem.get("l1d", {}).get("misses", 0)
    out["l2_misses"] = mem.get("l2", {}).get("misses", 0)
    return out


def model_digest(points: dict) -> str:
    """SHA-256 over ``{point label: counters}``, order-independent."""
    text = json.dumps(points, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
