"""Miss-status holding registers: outstanding-miss tracking and merging.

Bounds the memory-level parallelism of the L1 data cache.  A second access
to a line that is already in flight *merges* (it completes when the first
fill arrives); when every register is busy a new miss must wait for the
earliest completion, which is how MSHR pressure turns into stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MshrStats:
    allocations: int = 0
    merges: int = 0
    full_stall_cycles: int = 0


class MshrFile:
    """Outstanding misses keyed by line number."""

    def __init__(self, entries: int = 16):
        self.entries = entries
        self._pending: dict[int, int] = {}  # line -> fill-complete cycle
        self.stats = MshrStats()

    def _prune(self, cycle: int) -> None:
        if len(self._pending) > 2 * self.entries:
            self._pending = {
                line: ready for line, ready in self._pending.items() if ready > cycle
            }

    def outstanding(self, cycle: int) -> int:
        return sum(1 for ready in self._pending.values() if ready > cycle)

    def lookup(self, line: int, cycle: int) -> int | None:
        """If the line is already in flight, its completion cycle."""
        ready = self._pending.get(line)
        if ready is not None and ready > cycle:
            return ready
        return None

    def allocate(self, line: int, cycle: int, fill_latency: int) -> int:
        """Start a miss; returns its completion cycle.

        Merges with an in-flight miss to the same line.  When all registers
        are busy the miss starts only when the earliest one retires.
        """
        self._prune(cycle)
        merged = self.lookup(line, cycle)
        if merged is not None:
            self.stats.merges += 1
            return merged
        start = cycle
        busy = sorted(r for r in self._pending.values() if r > cycle)
        if len(busy) >= self.entries:
            # Wait for enough registers to free up.
            start = busy[len(busy) - self.entries]
            self.stats.full_stall_cycles += start - cycle
        ready = start + fill_latency
        self._pending[line] = ready
        self.stats.allocations += 1
        return ready
