"""Tests of the benchmark's own logic: percentiles, seeds, digests, spans,
and the fast-path ablation on a one-workload grid slice.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    MIN_BEYOND,
    model_digest,
    percentile,
    samples_beyond,
    tail_is_resolved,
)
from run import KILL_SWITCHES, ablation  # noqa: E402
from tracing import Tracer, span_cost_s  # noqa: E402
from workloads import (  # noqa: E402
    SERVICE_MIN_JOBS,
    Grid,
    fuzz_plan,
    service_plan,
)


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert percentile(values, 0.5) == 100
    assert percentile(values, 0.95) == 190
    assert percentile(reversed(values), 0.95) == 190
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


@pytest.mark.parametrize("n,resolved", [(199, False), (200, True), (400, True)])
def test_p95_needs_ten_samples_beyond(n, resolved):
    assert tail_is_resolved(n, 0.95) is resolved
    assert (samples_beyond(n, 0.95) >= MIN_BEYOND) is resolved
    values = list(range(n))
    cut = percentile(values, 0.95)
    assert sum(v > cut for v in values) == samples_beyond(n, 0.95)


def test_service_plan_is_a_function_of_the_seed():
    assert service_plan(3, 20) == service_plan(3, 20)
    assert service_plan(3, 20)[0] != service_plan(4, 20)[0]


def test_service_plan_split_and_disjoint_clients():
    clients, expected = service_plan(5, 20)
    keys = [set(p for batch in batches for p in batch) for batches in clients]
    assert not keys[0] & keys[1]
    jobs = sum(len(b) for batches in clients for b in batches)
    assert jobs >= SERVICE_MIN_JOBS
    assert jobs == sum(expected.values())
    # Replaying the batches against a set of completed keys reproduces the
    # split: first sight simulates, a later one in the batch coalesces,
    # and a key completed by an earlier batch is a cache hit.
    split = {"simulations": 0, "coalesced": 0, "cache_hits": 0}
    for batches in clients:
        done: set = set()
        for batch in batches:
            opened: set = set()
            for point in batch:
                if point in done:
                    split["cache_hits"] += 1
                elif point in opened:
                    split["coalesced"] += 1
                else:
                    split["simulations"] += 1
                    opened.add(point)
            done |= opened
    assert split == expected


def test_fuzz_plan_is_deterministic_and_disjoint_across_seeds():
    assert fuzz_plan(2, 20) == fuzz_plan(2, 20)
    assert not set(fuzz_plan(2, 20)) & set(fuzz_plan(3, 20))
    assert len(fuzz_plan(2, 1)) == 1


def test_model_digest_ignores_point_order():
    a = {"x|none": {"cycles": 1}, "y|fence": {"cycles": 2}}
    b = dict(reversed(list(a.items())))
    assert model_digest(a) == model_digest(b)
    assert model_digest(a) != model_digest({"x|none": {"cycles": 3}})


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        (0, "outer", 0.0, 10.0, None, "r"),
        (1, "inner", 2.0, 5.0, 0, "r"),
        (2, "inner", 6.0, 7.0, 0, "r"),
        (3, "outer", 0.0, 99.0, None, "other"),
    ]
    assert tracer.self_times("r") == {"outer": 6.0, "inner": 4.0}
    assert tracer.counts("r") == {"outer": 1, "inner": 2}


def test_span_cost_is_small_and_not_negative():
    cost = span_cost_s(calls=2000, repeats=3)
    assert 0.0 <= cost < 1e-3


def test_ablation_runs_every_kill_switch_and_checks_counters():
    grid = Grid(0, 1, workloads=("crc",), policies=("none", "levioso"))
    grid.setup()
    phase = grid.timed()
    tracer = Tracer().install()
    try:
        lines: list[str] = []
        out = ablation(tracer, phase, lines, grid)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.notes
    for switch in KILL_SWITCHES:
        key = switch.removeprefix("REPRO_NO_").lower()
        assert out[f"ablation.no_{key}.ns_per_inst"] > 0
    assert lines[-1].endswith("True")
    # A pass whose counters differ from the reference phase is a failure.
    phase.points["crc|none"] = dict(phase.points["crc|none"], cycles=-1)
    tracer = Tracer().install()
    try:
        ablation(tracer, phase, [], grid)
    finally:
        tracer.uninstall()
    assert phase.failed > 0
