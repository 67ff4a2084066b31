"""Per-table/figure experiment modules (see DESIGN.md experiment index).

Each registry entry offers ``run()`` (regenerate the table), ``check(result)``
(the shape claims it must meet; an empty list means all hold) and, when its
simulation grid is known up front, ``grid()`` (the points to prefetch in
parallel).  The registry order is the order of EXPERIMENTS.md's record.
"""

from . import (
    ablation_compiler,
    ablation_mask,
    ablation_scope,
    energy,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    hw_vs_sw,
    table1,
    table2,
)
from .base import ExperimentResult

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig4b": fig4.branch_latency,
    "fig5": fig5,
    "ablationA": ablation_compiler,
    "ablationB": ablation_scope,
    "ablationC": ablation_mask,
    "energy": energy,
    "swcmp": hw_vs_sw,
}

__all__ = ["EXPERIMENTS", "ExperimentResult"]
