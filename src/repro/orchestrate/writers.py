"""Pure renderers used by orchestrated jobs to materialise artifacts."""

from __future__ import annotations

from repro.experiments.render import render_figure, render_table

__all__ = ["join_figures", "render_subblock"]


def join_figures(inputs: dict) -> str:
    """All input figures rendered in name order, blank-line separated."""
    return "\n\n".join(
        render_figure(inputs[name]) for name in sorted(inputs))


def render_subblock(rows) -> str:
    """The titled Section-4 sub-block table."""
    table = render_table(
        ["P", "b1", "b2", "prime util", "prime conflicts",
         "direct conflicts"],
        [[r.leading_dimension, r.b1, r.b2, r.prime_utilization,
          r.prime_conflicts, r.direct_conflicts] for r in rows],
    )
    return "Sub-block study (C = 127 prime vs 128 direct)\n" + table
