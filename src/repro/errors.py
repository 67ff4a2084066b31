"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing Python
built-in errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IsaError(ReproError):
    """Invalid use of the ISA layer (bad register, opcode, operand)."""


class EncodingError(IsaError):
    """An instruction cannot be encoded/decoded (field overflow, bad word)."""


class AssemblerError(ReproError):
    """Syntax or semantic error in assembly source.

    Carries the source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class LinkError(ReproError):
    """An undefined or duplicate symbol was referenced at assembly time."""


class SimulationError(ReproError):
    """The simulated machine reached an illegal state (bad PC, fault)."""


class MemoryFault(SimulationError):
    """Access to unmapped or misaligned memory."""

    def __init__(self, address: int, reason: str = "unmapped"):
        self.address = address
        super().__init__(f"memory fault at {address:#x}: {reason}")


class SimulationTimeout(SimulationError):
    """The simulation exceeded its instruction or cycle budget.

    Carries structured triage context so hung-workload reports (and the
    harness ``--timeout`` resilience path) can say *where* the run was
    stuck, not just that it was: the cycle ``limit`` that was hit, the
    ``committed`` instruction count at that point, the current fetch
    ``pc``, and — when raised inside a lockstep batch — the ``point``
    label of the grid point whose core hit the limit, so a multi-point
    worker failure is attributed to the right run key.  All are optional
    keywords — the rendered message is the only required state, which
    keeps the exception picklable across worker processes on the default
    (args-based) reduce path.
    """

    def __init__(
        self,
        message: str,
        *,
        limit: int | None = None,
        committed: int | None = None,
        pc: int | None = None,
        point: str | None = None,
    ):
        self.limit = limit
        self.committed = committed
        self.pc = pc
        self.point = point
        super().__init__(message)


#: Deprecated alias of :class:`SimulationTimeout`; kept so existing callers
#: (and pickled exceptions from old worker processes) keep resolving.
TimeoutError_ = SimulationTimeout


class AnalysisError(ReproError):
    """A compiler/CFG analysis was asked something it cannot answer."""


class ConfigError(ReproError):
    """Inconsistent or out-of-range microarchitecture configuration."""


class PolicyError(ReproError):
    """A security policy was configured or used incorrectly."""


class HarnessError(ReproError):
    """The experiment harness failed operationally.

    Raised for supervisor-level problems — grid points that exhausted
    their retry budget, a worker pool that could not be kept alive — as
    opposed to errors *inside* a simulation (those are
    :class:`SimulationError`).
    """


class CacheCorruptionError(HarnessError):
    """A persistent cache entry failed an integrity check.

    Covers truncated or non-JSON files, checksum mismatches, and
    version-salt mismatches.  :meth:`ResultCache.get` never lets this
    escape (corrupt entries are quarantined and reported as misses); it
    surfaces from ``repro cache verify`` and strict loads.
    """


class InjectedFault(ReproError):
    """An artificial failure raised by the fault-injection plan.

    Only ever raised when a :class:`repro.faults.FaultPlan` is active
    (chaos tests / ``repro chaos``); production runs never see it.
    """
