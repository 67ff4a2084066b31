"""The retired specialization layer: its stub and the modes that remain.

:mod:`repro.uarch.specialize` keeps only the two names the benchmark
harness binds, and they must report that no plan exists.  With the
specialized execute path gone, the core's remaining run modes — cycle
skip on or off, observation and pipeline recording on or off — must
still time out identically.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationTimeout
from repro.secure import make_policy
from repro.uarch import OooCore
from repro.uarch.specialize import spec_cache_info, specialized_image
from repro.workloads import build_workload


def test_stub_reports_no_plan():
    program = build_workload("gather", "test").assemble()
    assert specialized_image(program) is None
    assert spec_cache_info() == {"misses": 0}


def test_timeout_is_bit_identical_across_modes():
    """Every mode hits the limit at the same point with the same message;
    outside a lockstep batch the point attribution stays None."""
    program = build_workload("treewalk", "test").assemble()
    limit = 500
    errors = []
    for kwargs in (
        {},
        {"cycle_skip": False},
        {"record_observations": True},
        {"cycle_skip": False, "record_pipeline": True},
    ):
        core = OooCore(program, policy=make_policy("levioso"), **kwargs)
        with pytest.raises(SimulationTimeout) as exc_info:
            core.run(max_cycles=limit)
        errors.append(exc_info.value)
    ref_err = errors[0]
    for err in errors:
        assert str(err) == str(ref_err)
        assert err.limit == limit
        assert err.committed == ref_err.committed
        assert err.pc == ref_err.pc
        assert err.point is None
