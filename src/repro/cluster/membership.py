"""Fleet membership: who is in the cluster and how sure we are.

Heartbeat-based failure detection with an intermediate *suspect* state,
mirroring the two-threshold design of SWIM-style detectors but kept
deliberately centralized (the coordinator is the only observer — no
gossip needed at this fleet size):

``ALIVE``    heartbeating inside ``suspect_after``
``SUSPECT``  one missed beat past ``suspect_after`` — still routable
             (new flights may land on it) but flagged in gauges; real
             fleets page on suspects long before deads
``DEAD``     silent past ``node_timeout`` — unroutable, and every
             in-flight job assigned to it is failed over
``LEFT``     deregistered through the drain path — unroutable, but
             *not* failed over eagerly (the departing worker finishes
             its accepted jobs during its drain window)

A dead or left node that heartbeats again is *resurrected*: same id,
``generation + 1``.  The generation bump lets the coordinator discard
stale state tied to the previous incarnation (e.g. a poll loop that
slept through death and rebirth must not mistake the new process for
the one that owned its job).

The clock is injectable for deterministic tests; production uses
``time.monotonic``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable

ALIVE, SUSPECT, DEAD, LEFT = "alive", "suspect", "dead", "left"


@dataclasses.dataclass
class Node:
    """One worker daemon as the coordinator sees it."""

    node_id: str
    url: str
    state: str = ALIVE
    static: bool = False       # from --nodes/$REPRO_CLUSTER_NODES (probed,
    #                            not heartbeating)
    generation: int = 0        # bumps on resurrection
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    heartbeats: int = 0
    load: dict[str, Any] = dataclasses.field(default_factory=dict)
    death_reason: str | None = None  # why it was last declared dead

    def describe(self, now: float) -> dict:
        return {
            "id": self.node_id,
            "url": self.url,
            "state": self.state,
            "static": self.static,
            "generation": self.generation,
            "heartbeats": self.heartbeats,
            "age": round(now - self.registered_at, 3),
            "silent_for": round(now - self.last_heartbeat, 3),
            "load": self.load,
            "death_reason": self.death_reason,
        }


class Membership:
    """The coordinator's node table + the ALIVE/SUSPECT/DEAD/LEFT machine.

    Pure bookkeeping: :meth:`sweep` *reports* transitions and the
    coordinator acts on them (ring updates, failover) — keeping policy
    out of this class makes the state machine unit-testable with a fake
    clock.
    """

    def __init__(self, heartbeat_interval: float = 1.0,
                 node_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        self.heartbeat_interval = heartbeat_interval
        # Suspect after ~2 missed beats, dead after node_timeout; keep
        # the thresholds ordered even with odd configurations.
        self.node_timeout = max(node_timeout, heartbeat_interval * 2)
        self.suspect_after = min(
            max(heartbeat_interval * 2.5, 0.1), self.node_timeout * 0.75)
        self.clock = clock
        self.nodes: dict[str, Node] = {}

    # ------------------------------------------------------------- queries
    def get(self, node_id: str) -> Node | None:
        return self.nodes.get(node_id)

    def routable(self) -> list[Node]:
        """Nodes new flights may be sent to (alive or merely suspect)."""
        return [n for n in self.nodes.values()
                if n.state in (ALIVE, SUSPECT)]

    def counts(self) -> dict[str, int]:
        out = {ALIVE: 0, SUSPECT: 0, DEAD: 0, LEFT: 0}
        for node in self.nodes.values():
            out[node.state] += 1
        return out

    def describe(self) -> list[dict]:
        now = self.clock()
        return [node.describe(now)
                for node in sorted(self.nodes.values(),
                                   key=lambda n: n.node_id)]

    # --------------------------------------------------------- transitions
    def register(self, node_id: str, url: str, static: bool = False) -> Node:
        """Join (or rejoin) the fleet.  Rejoining a dead/left id is a
        resurrection: the generation bumps so stale per-incarnation
        state can be recognized and discarded."""
        now = self.clock()
        node = self.nodes.get(node_id)
        if node is None:
            node = Node(node_id=node_id, url=url, static=static,
                        registered_at=now, last_heartbeat=now)
            self.nodes[node_id] = node
            return node
        if node.state in (DEAD, LEFT):
            node.generation += 1
            node.registered_at = now
            node.death_reason = None
        node.url = url
        node.static = static or node.static
        node.state = ALIVE
        node.last_heartbeat = now
        return node

    def heartbeat(self, node_id: str,
                  load: dict[str, Any] | None = None) -> Node | None:
        """Record a beat; None for an unknown id (the caller answers 404
        so the worker re-registers).  A beat from a dead/left node is a
        resurrection via :meth:`register`."""
        node = self.nodes.get(node_id)
        if node is None:
            return None
        if node.state in (DEAD, LEFT):
            self.register(node_id, node.url, static=node.static)
        node.state = ALIVE
        node.last_heartbeat = self.clock()
        node.heartbeats += 1
        if load is not None:
            node.load = load
        return node

    def deregister(self, node_id: str) -> Node | None:
        """Drain-aware departure: unroutable, but not failed over."""
        node = self.nodes.get(node_id)
        if node is not None and node.state != DEAD:
            node.state = LEFT
        return node

    def mark_dead(self, node_id: str, reason: str | None = None
                  ) -> Node | None:
        """Direct declaration (connection refused beats the sweep to it).
        Returns the node iff this call performed the ALIVE/SUSPECT→DEAD
        transition — the caller owes a failover exactly then."""
        node = self.nodes.get(node_id)
        if node is None or node.state in (DEAD, LEFT):
            return None
        node.state = DEAD
        node.death_reason = reason
        return node

    def sweep(self) -> list[Node]:
        """Apply the timeout thresholds; returns the *newly dead* nodes
        (suspect flips happen silently — they only move gauges)."""
        now = self.clock()
        died: list[Node] = []
        for node in self.nodes.values():
            if node.state not in (ALIVE, SUSPECT):
                continue
            silent = now - node.last_heartbeat
            if silent >= self.node_timeout:
                node.state = DEAD
                node.death_reason = "heartbeat timeout"
                died.append(node)
            elif silent >= self.suspect_after:
                node.state = SUSPECT
        return died
