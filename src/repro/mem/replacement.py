"""Cache replacement policies.

Policies manage per-set recency metadata; the cache asks them which way of
a full set to victimize on a fill.  All policies are deterministic (the
"random" policy is a seeded xorshift) so simulations reproduce exactly.
"""

from __future__ import annotations

import abc


class ReplacementPolicy(abc.ABC):
    """Recency metadata for sets of ``num_ways`` ways.

    The cache keeps one state object per set, made by :meth:`new_set` on the
    set's first fill, and hands it back on every call.  The cache fills the
    lowest invalid way itself, so :meth:`victim` is only asked about a full
    set.
    """

    def __init__(self, num_ways: int):
        self.num_ways = num_ways

    def new_set(self) -> object:
        """Fresh per-set state (default: stateless)."""
        return None

    def on_access(self, state, way: int) -> None:
        """A hit touched this way (default: nothing to update)."""

    @abc.abstractmethod
    def victim(self, state) -> int:
        """Choose a way to evict from a full set."""

    def on_fill(self, state, way: int) -> None:
        """A fill installed into this way (default: treat as access)."""
        self.on_access(state, way)


class LruPolicy(ReplacementPolicy):
    """True LRU via per-set recency stamps from one shared clock."""

    def __init__(self, num_ways: int):
        super().__init__(num_ways)
        self._clock = 0

    def new_set(self) -> list[int]:
        return [0] * self.num_ways

    def on_access(self, stamps: list[int], way: int) -> None:
        self._clock += 1
        stamps[way] = self._clock

    def victim(self, stamps: list[int]) -> int:
        return stamps.index(min(stamps))


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (binary decision tree per set); ways must be 2^k."""

    def __init__(self, num_ways: int):
        super().__init__(num_ways)
        if num_ways & (num_ways - 1):
            raise ValueError("tree PLRU requires power-of-two associativity")

    def new_set(self) -> list[bool]:
        return [False] * max(1, self.num_ways - 1)

    def on_access(self, bits: list[bool], way: int) -> None:
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            went_right = way >= mid
            bits[node] = not went_right  # point away from the accessed half
            node = 2 * node + (2 if went_right else 1)
            if went_right:
                low = mid
            else:
                high = mid

    def victim(self, bits: list[bool]) -> int:
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            go_right = bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low = mid
            else:
                high = mid
        return low


class SeededRandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift64)."""

    def __init__(self, num_ways: int, seed: int = 0x9E3779B9):
        super().__init__(num_ways)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def victim(self, state: None) -> int:
        return self._next() % self.num_ways


POLICIES = {
    "lru": LruPolicy,
    "tree_plru": TreePlruPolicy,
    "random": SeededRandomPolicy,
}


def make_replacement(name: str, num_ways: int) -> ReplacementPolicy:
    if name not in POLICIES:
        raise ValueError(f"unknown replacement policy {name!r}")
    return POLICIES[name](num_ways)
