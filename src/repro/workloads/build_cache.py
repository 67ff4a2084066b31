"""Per-process build cache: each program text is built once.

Levioso's compiler pass runs once per binary; the harness should not
rebuild that binary at every call site either.  A fuzz campaign asks for
the same program many times — for the scan, the repair, the run key of
every grid point and every lockstep batch — under different *names*
(``fuzz/s192/i3`` in the campaign, ``…/f41`` and ``…/f41/repaired`` in
the runner) and with two secret *fills*.  This cache keys on content
instead:

* **Key.**  The program's source text with its secret fill blanked out
  (:class:`SecretFill`).  The two fills of one fuzz item share one key.
* **Value.**  The assembled :class:`~repro.asm.program.Program` with its
  Levioso analysis attached and its decode fingerprint memoized; and, on
  first request, its scanner report and its repair outcome.  The repair
  outcome is kept as the repaired *text* and counters, not as a program;
  the repaired program is itself an entry.
* **Fills.**  Another fill's program is the cached image with the 8 bytes
  that ``.dword <fill>`` writes patched in.  Nothing else in a fuzz
  item's image depends on the fill (``tests/test_build_cache.py`` checks
  every skeleton and mutation), and the slot lies inside a ``.secret``
  range, which the scanner never reads values from — so the scan and the
  repair are shared across fills too.
* **Shells.**  Every caller gets its own ``Program`` (own name, source,
  data and containers; shared instructions and analysis), so renaming a
  program or attaching another analysis to it never reaches the next
  caller.
* **Bound.**  Two LRUs: :data:`MAX_PROGRAMS` programs (~25 KB each for a
  fuzz item, mostly the probe array in its data image) and
  :data:`MAX_RESULTS` scan/repair results (~1-2 KB each).  Results
  outlive their program, so a program rebuilt after eviction is not
  re-scanned or re-repaired.

There is no switch to turn it off: building is deterministic, so a
cached build equals a fresh one, and the tests and the benchmark digests
show it.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..asm.assembler import assemble
from ..asm.program import Program
from ..compiler.pass_manager import ensure_analysis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversarial.repair import RepairOutcome
    from ..analysis.scanner import ScanReport

#: Programs kept.  A 64-program fuzz campaign touches 64 base texts,
#: then ~24 repaired ones; 64 hold the base texts through the oracle phase.
MAX_PROGRAMS = 64

#: Scan reports and repair outcomes kept (they are small).
MAX_RESULTS = 256

_BLANK = "<fill>"


@dataclass(frozen=True)
class SecretFill:
    """The one ``.dword`` of a source that holds its secret fill byte.

    Synthesized fuzz items write the fill as ``<label>:`` followed by
    ``    .dword <value>`` inside a ``.secret`` range; the rest of their
    source does not depend on it.
    """

    label: str
    value: int

    def _line(self, value: object) -> str:
        return f"\n{self.label}:\n    .dword {value}\n"

    def blank(self, source: str) -> str:
        """``source`` with this fill's value replaced by a placeholder."""
        line = self._line(self.value)
        if source.count(line) != 1:
            raise ValueError(
                f"source has no single {self.label!r} fill dword "
                f"holding {self.value}"
            )
        return source.replace(line, self._line(_BLANK))

    def apply(self, blank: str) -> str:
        """Inverse of :meth:`blank`: put this fill's value back in."""
        return blank.replace(self._line(_BLANK), self._line(self.value))

    def patch(self, program: Program) -> bytes:
        """``program``'s data image with this fill's 8 bytes written."""
        offset = program.symbols[self.label] - program.data_base
        return (program.data[:offset] + self.value.to_bytes(8, "little")
                + program.data[offset + 8:])


def build_key(source: str, fill: SecretFill | None) -> str:
    """The cache key of ``source``: its text with the fill blanked out.

    Two sources with one key build the same program up to the bytes of
    the fill slot, which lie in a ``.secret`` range.
    """
    return fill.blank(source) if fill is not None else source


class _LRU:
    """A bounded map that forgets its least recently used key."""

    def __init__(self, bound: int):
        self.bound = bound
        self.items: OrderedDict = OrderedDict()

    def get(self, key: str):
        value = self.items.get(key)
        if value is not None:
            self.items.move_to_end(key)
        return value

    def put(self, key: str, value) -> None:
        self.items[key] = value
        self.items.move_to_end(key)
        while len(self.items) > self.bound:
            self.items.popitem(last=False)


class BuildCache:
    """Bounded, content-addressed map from program text to its builds."""

    def __init__(self, max_programs: int = MAX_PROGRAMS,
                 max_results: int = MAX_RESULTS):
        # key -> (program with analysis, the fill its data holds)
        self._programs = _LRU(max_programs)
        # key -> {"scan": ScanReport, "repair": (blanked source, fields)}
        self._results = _LRU(max_results)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        with self._lock:
            self._programs.items.clear()
            self._results.items.clear()
            self.hits = self.misses = 0

    def info(self) -> dict[str, int]:
        # Under the lock: a put briefly holds one entry over the bound.
        with self._lock:
            return {"programs": len(self._programs.items),
                    "max_programs": self._programs.bound,
                    "results": len(self._results.items),
                    "max_results": self._results.bound,
                    "hits": self.hits, "misses": self.misses}

    # ------------------------------------------------------------ entries
    def _store(self, key: str, program: Program,
               fill: SecretFill | None) -> None:
        from ..uarch.decoded import program_fingerprint

        if fill is not None:
            slot = program.address_of(fill.label)
            if not any(r.start <= slot and slot + 8 <= r.end
                       for r in program.secret_ranges):
                raise ValueError(
                    f"fill slot {fill.label!r} is not inside a .secret range"
                )
        ensure_analysis(program)
        program_fingerprint(program)  # memoized on the program, copied to shells
        with self._lock:
            self._programs.put(key, (program, fill))

    def _result(self, key: str) -> dict:
        with self._lock:
            results = self._results.get(key)
            if results is None:
                results = {}
                self._results.put(key, results)
            return results

    # ------------------------------------------------------------- builds
    def program(self, source: str, name: str = "program",
                fill: SecretFill | None = None) -> Program:
        """The assembled program of ``source``, analysis attached."""
        key = build_key(source, fill)
        with self._lock:
            entry = self._programs.get(key)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
        if entry is None:
            entry = (assemble(source), fill)
            self._store(key, *entry)
        base, base_fill = entry   # never handed out; callers get shells
        shell = copy.copy(base)
        shell.name = name
        shell.source = source
        shell.instructions = list(base.instructions)
        shell.symbols = dict(base.symbols)
        shell.secret_ranges = list(base.secret_ranges)
        if fill is not None and fill != base_fill:
            shell.data = fill.patch(base)
        return shell

    def scan(self, source: str, name: str = "program",
             fill: SecretFill | None = None) -> "ScanReport":
        """The scanner report of ``source``'s program."""
        from ..analysis.scanner import scan_program

        results = self._result(build_key(source, fill))
        report = results.get("scan")
        if report is None:
            report = results["scan"] = scan_program(
                self.program(source, name, fill))
        return dataclasses.replace(
            report, program=name, findings=list(report.findings))

    def repair(self, source: str, name: str = "program",
               fill: SecretFill | None = None) -> "RepairOutcome":
        """:func:`~repro.adversarial.repair.repair_program` (``load``
        strategy) of ``source``'s program; the repaired program is cached
        as an entry of its own."""
        from ..adversarial import repair as repair_mod

        results = self._result(build_key(source, fill))
        if "repair" not in results:
            outcome = repair_mod.repair_program(
                self.program(source, name, fill), report=results.get("scan"))
            blank = build_key(outcome.source, fill)
            if outcome.source != source:
                self._store(blank, outcome.program, fill)
            fields = {f.name: getattr(outcome, f.name)
                      for f in dataclasses.fields(outcome)
                      if f.name not in ("program", "source")}
            results["repair"] = (blank, fields)
        blank, fields = results["repair"]
        repaired = fill.apply(blank) if fill is not None else blank
        return repair_mod.RepairOutcome(
            program=self.program(repaired, name, fill),
            source=repaired,
            **{**fields, "steps": [dict(step) for step in fields["steps"]]},
        )


#: The process-wide cache behind :meth:`Workload.assemble` and the fuzz
#: campaign's scan and repair.
BUILD_CACHE = BuildCache()
