"""Bounded priority admission queue for simulation flights.

Backpressure lives here: the queue admits at most ``depth`` *flights*
(coalesced jobs ride along for free — attaching to an in-flight key
consumes no capacity, which is exactly why coalescing helps under
load).  A full queue raises :class:`QueueFull`, which the HTTP layer
translates into ``429 Too Many Requests`` with a ``Retry-After`` hint
derived from the observed service rate.

Ordering is (priority, arrival seq): lower priority numbers run sooner,
ties are FIFO.  A flight's priority can be *raised* after enqueue (a
high-priority job coalescing onto it); that is handled lazy-deletion
style — :meth:`AdmissionQueue.reprioritize` pushes a fresh heap entry
at the new priority and :meth:`AdmissionQueue.pop` discards entries for
flights already handed out, so a raised flight really does jump the
line instead of waiting for its stale entry to surface.  The structure
itself is not thread-safe — the daemon touches it only from its event
loop; unit tests exercise it directly.
"""

from __future__ import annotations

import heapq

from ..errors import ReproError
from .jobs import Flight


class QueueFull(ReproError):
    """Admission control rejected a submission (the 429 path).

    ``retry_after`` is the server's estimate, in seconds, of when
    capacity will exist again; clients should treat it as a hint.
    """

    def __init__(self, depth: int, retry_after: float):
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"job queue full ({depth} flight(s) queued); "
            f"retry after {retry_after:.1f}s"
        )


class AdmissionQueue:
    """Bounded priority queue of :class:`Flight` objects.

    Flights are keyed by their run-cache content key; at most one queued
    flight per key (the daemon coalesces duplicates before pushing).
    """

    def __init__(self, depth: int = 64):
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self._heap: list[tuple[int, int, Flight]] = []
        self._queued: set[str] = set()   # keys currently waiting
        self.admitted = 0
        self.rejected = 0

    def __len__(self) -> int:
        # Heap entries over-count after a reprioritize; the key set is
        # the number of flights actually waiting.
        return len(self._queued)

    @property
    def full(self) -> bool:
        return len(self._queued) >= self.depth

    def has_room_for(self, new_flights: int) -> bool:
        """Whether a batch creating ``new_flights`` flights fits (all-or-
        nothing batch admission: a batch is never half-accepted)."""
        return len(self._queued) + new_flights <= self.depth

    def push(self, flight: Flight, retry_after: float = 1.0) -> None:
        if self.full:
            self.rejected += 1
            raise QueueFull(self.depth, retry_after)
        heapq.heappush(self._heap, (flight.priority, flight.seq, flight))
        self._queued.add(flight.key)
        self.admitted += 1

    def reprioritize(self, flight: Flight) -> None:
        """Re-place a still-queued flight whose priority was raised.

        No-op for flights already popped (in-flight or resolved) — their
        execution order is no longer the queue's business.  The old heap
        entry stays behind as garbage and is discarded by :meth:`pop`.
        """
        if flight.key in self._queued:
            heapq.heappush(self._heap, (flight.priority, flight.seq, flight))

    def pop(self) -> Flight | None:
        """Highest-priority flight, or ``None`` when empty.

        Skips lazy-deletion garbage: duplicate entries for a flight that
        already left the queue, and stale entries for a flight whose
        priority was raised without a :meth:`reprioritize` (those are
        re-pushed in the right place rather than served early... or
        late).
        """
        while self._heap:
            priority, seq, flight = heapq.heappop(self._heap)
            if flight.key not in self._queued:
                continue  # duplicate entry of an already-popped flight
            if flight.priority < priority:
                heapq.heappush(self._heap,
                               (flight.priority, flight.seq, flight))
                continue
            self._queued.discard(flight.key)
            return flight
        return None

    def flights(self) -> list[Flight]:
        """Queued flights, best-first, one entry per flight."""
        seen: set[str] = set()
        out: list[Flight] = []
        for _, _, flight in sorted(self._heap, key=lambda e: e[:2]):
            if flight.key in self._queued and flight.key not in seen:
                seen.add(flight.key)
                out.append(flight)
        return out
