"""In-memory span tracer wrapped around the simulator's public entry points.

The program itself carries no spans: :func:`install` replaces each traced
function at every place it is looked up (the defining module and every
``repro`` module that imported the name) and each traced method on its
class, with a wrapper that records ``(name, start, end, parent, run)``.
Spans stay in memory and are written out by :meth:`Tracer.dump`.

Per-layer figures are derived from the spans: a layer's self time is the
summed duration of its spans minus the part covered by their child spans.
The tracer's own cost is the span count times :func:`span_cost_s`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

#: (span name, module, attribute, class or None).  Functions are patched
#: wherever they are bound; methods on their class.
TRACE_POINTS = (
    ("uarch.core.init", "repro.uarch.core", "__init__", "OooCore"),
    ("uarch.core.advance", "repro.uarch.core", "advance", "OooCore"),
    ("uarch.decoded.image", "repro.uarch.decoded", "decoded_image", None),
    ("uarch.decoded.decode", "repro.uarch.decoded", "decode_program", None),
    ("uarch.specialize.image", "repro.uarch.specialize", "specialized_image", None),
    ("mem.hierarchy_init", "repro.mem.hierarchy", "__init__", "MemoryHierarchy"),
    ("asm.assemble", "repro.asm.assembler", "assemble", None),
    ("compiler.levioso_pass", "repro.compiler.pass_manager", "run_levioso_pass", None),
    ("compiler.insert_fences", "repro.compiler.pass_manager", "insert_fences", None),
    ("compiler.rewrite", "repro.compiler.rewriter", "rewrite", "ProgramRewriter"),
    ("analysis.scan", "repro.analysis.scanner", "scan_program", None),
    ("adversarial.synth_item", "repro.adversarial.synth", "synthesize_item", None),
    ("adversarial.synth_source", "repro.adversarial.synth", "synth_source", None),
    ("adversarial.repair", "repro.adversarial.repair", "repair_program", None),
    ("harness.run_key", "repro.harness.runner", "run_key_for", "ExperimentRunner"),
    ("harness.prefetch", "repro.harness.parallel", "prefetch", "ParallelRunner"),
    ("harness.lockstep", "repro.harness.lockstep", "run_lockstep", None),
    ("service.http", "repro.service.client", "_request", "ServiceClient"),
)


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, run)
        self.run_id = "traced"
        self.core_ends: list[tuple] = []  # (run, cycles, skipped) per halted core
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._next_id = 0

    # ------------------------------------------------------------ recording
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (span_id, name, start, end, parent, tracer.run_id))

        return traced

    def _wrap_advance(self, fn):
        """``OooCore.advance`` also reports each halted core's warp counters."""
        traced = self._wrap("uarch.core.advance", fn)
        tracer = self

        @functools.wraps(fn)
        def advance(core, *args, **kwargs):
            halted = traced(core, *args, **kwargs)
            if halted:
                with tracer._lock:
                    tracer.core_ends.append((tracer.run_id, core.cycle,
                                             core.warp_stats.cycles_skipped))
            return halted

        return advance

    # ------------------------------------------------------------- patching
    def install(self) -> "Tracer":
        """Patch every entry point; modules imported later bind the wrappers."""
        for name, module_name, attr, cls_name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                wrapped = (self._wrap_advance(original)
                           if name == "uarch.core.advance"
                           else self._wrap(name, original))
                self._set(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, binding, wrapped)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self, run_id: str) -> None:
        with self._lock:
            self.run_id = run_id

    # ------------------------------------------------------------- analysis
    def self_times(self, run_id: str) -> dict[str, float]:
        """Span name -> summed self seconds over the spans of ``run_id``."""
        spans = [s for s in self.spans if s[5] == run_id]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for span_id, name, start, end, _, _ in spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            out[name] = out.get(name, 0.0) + own
        return out

    def skipped_frac(self, run_id: str) -> float:
        """Share of simulated cycles the event-horizon engine warped over."""
        ends = [(c, s) for run, c, s in self.core_ends if run == run_id]
        cycles = sum(c for c, _ in ends)
        return sum(s for _, s in ends) / cycles if cycles else 0.0

    def counts(self, run_id: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            if span[5] == run_id:
                out[span[1]] = out.get(span[1], 0) + 1
        return out

    def durations(self, run_id: str, name: str) -> list[float]:
        return [end - start for _, n, start, end, _, run in self.spans
                if run == run_id and n == name]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, run in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run,
                }) + "\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Host seconds one span adds to a call, measured in this process.

    Times a traced no-op against the bare no-op, ``calls`` calls each, and
    returns the median difference per call over ``repeats`` rounds.
    """
    def noop():
        return None

    samples = []
    for _ in range(repeats):
        traced = Tracer()._wrap("span-cost", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        samples.append((time.perf_counter() - start - bare) / calls)
    return max(statistics.median(samples), 0.0)
