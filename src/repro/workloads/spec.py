"""Workload specification record."""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.program import Program
from .build_cache import BUILD_CACHE, SecretFill


@dataclass(frozen=True)
class Workload:
    """One SPEClite workload: named assembly source + expectations.

    ``check_reg``/``check_value`` define a self-check: after execution the
    given architectural register must hold the given value, so every harness
    run re-validates correctness for free.
    """

    name: str
    source: str
    description: str
    category: str  # memory / control / compute
    check_reg: int | None = None
    check_value: int | None = None
    # Mitigation-pass tag (``<pass>@v<version>``) when this workload is the
    # software-hardened variant of another; part of the cache fingerprint so
    # results from different pass generations are never conflated.
    mitigation: str | None = None
    # Where the source holds its secret fill byte (synthesized fuzz items),
    # so every fill of one item shares one build; not part of the cache
    # fingerprint, which covers the source itself.
    secret_fill: SecretFill | None = None

    def assemble(self) -> Program:
        """This workload's program, from the per-process build cache."""
        return BUILD_CACHE.program(self.source, self.name, self.secret_fill)

    def validate(self, regs: tuple[int, ...]) -> bool:
        if self.check_reg is None:
            return True
        return regs[self.check_reg] == self.check_value
