"""One-command reproduction report.

``write_report`` regenerates the paper's figures, runs the claim checks,
the sub-block study and (optionally) the slower simulation-backed
experiments, and writes a self-contained Markdown report — the same
content EXPERIMENTS.md is built from, reproducible by any user via
``python -m repro report``.

Every section renderer accepts precomputed results, so the orchestrated
``report`` job (see :mod:`repro.orchestrate.jobs`) assembles the report
from its dependencies' cached outputs via :func:`report_from_inputs`
instead of recomputing each figure inline.
"""

from __future__ import annotations

import io

from repro.experiments.checks import check_figure
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.render import render_figure, render_table
from repro.experiments.subblock_study import subblock_study

__all__ = ["build_report", "report_from_inputs", "write_report"]

_FIGURE_ORDER = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                 "fig10", "fig11a", "fig11b"]


def _figures_section(out: io.StringIO, figures) -> tuple[int, int]:
    passed = total = 0
    for figure_id in _FIGURE_ORDER:
        result = figures[figure_id]
        out.write(f"## {figure_id}\n\n```\n{render_figure(result)}\n```\n\n")
        out.write("| claim | verdict | measured |\n|---|---|---|\n")
        for check in check_figure(result):
            total += 1
            passed += check.passed
            verdict = "PASS" if check.passed else "FAIL"
            out.write(f"| {check.claim} | {verdict} | {check.detail} |\n")
        out.write("\n")
    return passed, total


def _subblock_section(out: io.StringIO, rows) -> None:
    out.write("## Sub-block study (Section 4)\n\n```\n")
    out.write(render_table(
        ["P", "b1", "b2", "prime util", "prime conflicts",
         "direct conflicts"],
        [[r.leading_dimension, r.b1, r.b2, r.prime_utilization,
          r.prime_conflicts, r.direct_conflicts] for r in rows],
    ))
    out.write("\n```\n\n")


def _extension_section(out: io.StringIO, extensions) -> None:
    out.write("## Extension figures (the paper's prose arguments, "
              "plotted)\n\n")
    for figure_id in sorted(extensions):
        out.write(f"```\n{render_figure(extensions[figure_id])}\n```\n\n")


def _validation_section(out: io.StringIO, points) -> None:
    from repro.experiments.validation import render_validation

    out.write("## Analytical model vs cycle-level simulation\n\n```\n")
    out.write(render_validation(points))
    out.write("\n```\n\n")


def _assemble(figures, subblock_rows, extensions, validation) -> str:
    out = io.StringIO()
    out.write("# Reproduction report — prime-mapped cache (Yang & Wu, "
              "ISCA 1992)\n\n")
    passed, total = _figures_section(out, figures)
    _subblock_section(out, subblock_rows)
    _extension_section(out, extensions)
    if validation is not None:
        _validation_section(out, validation)
    out.write(f"**Paper claims reproduced: {passed}/{total}**\n")
    return out.getvalue()


def build_report(*, include_simulation: bool = False, seeds: int = 3) -> str:
    """Assemble the report text, computing every section inline.

    Args:
        include_simulation: also run the (slow) machine-simulation
            cross-validation grid.
        seeds: seeds for the simulation grid.
    """
    from repro.experiments.extension_figures import ALL_EXTENSION_FIGURES

    validation = None
    if include_simulation:
        from repro.experiments.validation import validation_grid

        validation = validation_grid(t_m_values=(8, 16), blocks=(512, 2048),
                                     seeds=seeds)
    return _assemble(
        {figure_id: ALL_FIGURES[figure_id]() for figure_id in _FIGURE_ORDER},
        subblock_study(),
        {figure_id: fn() for figure_id, fn
         in ALL_EXTENSION_FIGURES.items()},
        validation,
    )


def report_from_inputs(inputs: dict) -> str:
    """Assemble the report from orchestrated dependency results.

    ``inputs`` is keyed by job name: the nine ``figN`` analytical
    figures, the four ``ext-*`` extension figures, ``subblock``, and
    optionally ``validation`` (scheduled by ``repro report --simulate``).
    """
    return _assemble(
        {figure_id: inputs[figure_id] for figure_id in _FIGURE_ORDER},
        inputs["subblock"],
        {name: result for name, result in inputs.items()
         if name.startswith("ext-")},
        inputs.get("validation"),
    )


def write_report(path, *, include_simulation: bool = False,
                 seeds: int = 3) -> str:
    """Build the report and write it to ``path``; returns the text."""
    text = build_report(include_simulation=include_simulation, seeds=seeds)
    with open(path, "w") as handle:
        handle.write(text)
    return text
