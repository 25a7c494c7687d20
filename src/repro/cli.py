"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [fig4 fig7 ...]`` — regenerate evaluation figures and check
  the paper's claims about each; ``--simulated [--seeds N] [--workers N]``
  prints fig7/fig8 measured on the cycle-level machines instead (the
  ``fig7-simulated``/``fig8-simulated`` registry jobs).
* ``check [fig4 ...]`` — figure-claim checks only (no rendering); exits
  nonzero if any claim fails.
* ``verify [--quick|--deep]`` — differential verification: oracle
  sweeps, golden-baseline diff, mutation self-check (see
  ``docs/verification.md``); exits nonzero on any mismatch.
* ``design CAPACITY_BYTES`` — size a prime-mapped cache for a budget and
  itemise the added hardware (the Section-2.3 cost claim, with numbers).
* ``compare`` — replay a strided sweep through the cache organisations.
* ``subblock P`` — conflict-free blocking for a matrix leading dimension.
* ``blocking`` — blocking-factor search: utilisation and full-cache
  penalty per mapping.
* ``optimize`` — design-space search over the vectorised analytical
  surrogate: constraint filtering, Pareto-front extraction, and
  simulator verification of the top picks (see ``docs/optimizer.md``).
* ``validate`` — analytical-vs-simulation cross-check (the
  ``validation`` registry job).
* ``fit TRACE`` — estimate VCM parameters from a saved trace file.
* ``report OUTPUT.md`` — write a full reproduction report (assembled
  from the orchestrated result cache).
* ``sweep [NAMES ...]`` — run the full experiment graph through the
  content-addressed result cache, regenerating ``results/`` and checking
  every job's claims (see ``docs/orchestration.md``).
* ``serve`` — long-lived HTTP/JSON daemon answering job/sweep/VCM/trace
  queries from the result cache, coalescing duplicate in-flight
  requests (see ``docs/serving.md``).

``python -m repro --dump-md`` prints the whole CLI reference as
Markdown (``docs/cli.md`` is generated from it).
"""

from __future__ import annotations

import argparse

__all__ = ["main", "build_parser", "dump_markdown"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prime-mapped cache (Yang & Wu, ISCA 1992) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("ids", nargs="*", help="figure ids (default: all)")
    figures.add_argument("--simulated", action="store_true",
                         help="measure fig7/fig8 on the cycle-level machines "
                              "instead of the analytical closed forms (the "
                              "fig7-simulated/fig8-simulated jobs)")
    figures.add_argument("--seeds", type=int, default=None,
                         help="seeds per simulated point (with --simulated; "
                              "default: the registry job's)")
    figures.add_argument("--workers", type=int, default=None,
                         help="process-pool width for the simulated jobs "
                              "(with --simulated; default: min(4, CPUs); "
                              "1 runs inline)")
    figures.add_argument("--base-seed", type=int, default=None,
                         help="base seed the per-sample seeds derive from "
                              "(with --simulated; default: the registry "
                              "job's)")

    check = sub.add_parser(
        "check", help="figure-claim checks only (also reports the active "
                      "kernel backend)")
    check.add_argument("ids", nargs="*", help="figure ids (default: all)")

    verify = sub.add_parser(
        "verify", help="differential verification (oracles, golden "
                       "baselines, mutation self-check)")
    depth = verify.add_mutually_exclusive_group()
    depth.add_argument("--quick", action="store_true",
                       help="CI-sized sweep (default)")
    depth.add_argument("--deep", action="store_true",
                       help="scheduled-tier sweep (several times larger)")
    verify.add_argument("--seed", type=int, default=0,
                        help="base seed for the oracle case grids")
    verify.add_argument("--bless", action="store_true",
                        help="recompute and rewrite the golden baselines "
                             "under results/golden/, then exit")
    verify.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report as JSON (CI artifact)")
    verify.add_argument("--mutate", metavar="NAME", default=None,
                        help="inject one catalogued fault during the "
                             "oracle sweep (exits nonzero when caught); "
                             "see repro.verify.mutations.MUTATIONS")
    verify.add_argument("--no-selfcheck", action="store_true",
                        help="skip the mutation self-check layer")
    verify.add_argument("--no-golden", action="store_true",
                        help="skip the golden-baseline diff")
    _add_backend_flag(verify)

    design = sub.add_parser("design", help="size a prime-mapped cache")
    design.add_argument("capacity_bytes", type=int)
    design.add_argument("--line-size", type=int, default=8)
    design.add_argument("--address-bits", type=int, default=32)
    design.add_argument("--start-registers", type=int, default=2)

    compare = sub.add_parser("compare", help="replay a strided sweep")
    compare.add_argument("--stride", type=int, default=8)
    compare.add_argument("--length", type=int, default=4096)
    compare.add_argument("--sweeps", type=int, default=2)
    compare.add_argument("--c", type=int, default=13,
                         help="Mersenne exponent (prime cache 2^c - 1 lines)")
    compare.add_argument("--t-m", type=int, default=32)
    _add_backend_flag(compare)

    subblock = sub.add_parser("subblock", help="conflict-free blocking")
    subblock.add_argument("leading_dimension", type=int)
    subblock.add_argument("--c", type=int, default=13)

    blocking = sub.add_parser("blocking", help="blocking-factor search")
    blocking.add_argument("--t-m", type=int, default=32)
    blocking.add_argument("--banks", type=int, default=64)

    optimize = sub.add_parser(
        "optimize", help="design-space search over the analytical surrogate")
    optimize.add_argument("--mappings", nargs="+", default=None,
                          choices=("direct", "prime", "assoc", "hashed",
                                   "bicameral"),
                          help="cache organisations to sweep (default: all "
                               "modeled; hashed/bicameral are simulator-only "
                               "and need --allow-unmodeled)")
    optimize.add_argument("--allow-unmodeled", action="store_true",
                          help="skip (with a warning) mappings the surrogate "
                               "cannot score instead of erroring out")
    optimize.add_argument("--max-area", type=int, default=10000,
                          metavar="WORDS",
                          help="area budget: cache_lines * line_size words")
    optimize.add_argument("--max-banks", type=int, default=64,
                          help="bank budget (memory system cost cap)")
    optimize.add_argument("--max-tm", type=int, default=None,
                          metavar="CYCLES",
                          help="memory-latency budget: keep designs with "
                               "t_m <= this")
    optimize.add_argument("--min-bandwidth", type=float, default=None,
                          metavar="FRACTION",
                          help="minimum expected effective bank bandwidth "
                               "(0..1)")
    optimize.add_argument("--p-ds", type=float, default=0.1,
                          help="workload mix: fraction of double-stream "
                               "operations")
    optimize.add_argument("--p-stride1", type=float, default=0.25,
                          help="workload mix: probability of stride-1 "
                               "streams")
    optimize.add_argument("--top-k", type=int, default=8,
                          help="Pareto picks to report")
    optimize.add_argument("--verify-k", type=int, default=3,
                          help="front picks to re-score on the cycle-level "
                               "machines (0 skips simulation)")
    optimize.add_argument("--seeds", type=int, default=2,
                          help="simulation seeds per verified point")
    optimize.add_argument("--cache-dir", default=None,
                          help="result-cache directory (default: "
                               "$REPRO_CACHE_DIR or ~/.cache/repro)")
    optimize.add_argument("--json", action="store_true",
                          help="print the search + verification as JSON")

    validate = sub.add_parser("validate", help="analytics vs simulation")
    validate.add_argument("--seeds", type=int, default=None,
                          help="seeds per grid point (default: the "
                               "registry job's)")

    fit = sub.add_parser("fit", help="fit VCM parameters to a trace file")
    fit.add_argument("trace_file", help="trace written by Trace.save()")
    fit.add_argument("--t-m", type=int, default=32)
    fit.add_argument("--banks", type=int, default=64)
    fit.add_argument("--min-run", type=int, default=4)

    report = sub.add_parser("report", help="write a full reproduction report")
    report.add_argument("output", help="path of the Markdown report to write")
    report.add_argument("--simulate", action="store_true",
                        help="include the (slow) simulation cross-check")
    report.add_argument("--seeds", type=int, default=3)
    report.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")

    sweep = sub.add_parser(
        "sweep", help="run the experiment graph through the result cache")
    sweep.add_argument("names", nargs="*",
                       help="job names (default: the full figure set; "
                            "see --list)")
    sweep.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="process-pool width (default: min(4, CPUs); "
                            "1 runs inline)")
    sweep.add_argument("--force", action="store_true",
                       help="re-execute every job even on a warm cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    sweep.add_argument("--json", action="store_true",
                       help="print the run summary as JSON")
    sweep.add_argument("--status", action="store_true",
                       help="show per-job cache status without executing")
    sweep.add_argument("--list", action="store_true",
                       help="list every registered job and exit")
    sweep.add_argument("--smoke", action="store_true",
                       help="CI smoke: run the smoke selection twice "
                            "(cold then warm) in a temporary cache at the "
                            "--jobs width and assert the warm pass is "
                            ">=10x faster")
    sweep.add_argument("--log", metavar="PATH", default=None,
                       help="append structured JSONL run events to PATH")
    sweep.add_argument("--no-artifacts", action="store_true",
                       help="skip materialising results/ artifacts")
    _add_backend_flag(sweep)

    serve = sub.add_parser(
        "serve", help="run the cache-simulation HTTP/JSON service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: loopback)")
    serve.add_argument("--port", type=int, default=8023,
                       help="TCP port (0 picks a free port)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="cold-job worker count "
                            "(default: min(4, CPUs))")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro)")
    _add_backend_flag(serve)

    return parser


def _add_backend_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--backend", default=None, choices=("scalar", "compiled"),
        help="kernel backend for replay/timing engines (default: "
             "$REPRO_BACKEND or compiled; scalar runs the per-access "
             "reference state machines)")


def _apply_backend(args) -> None:
    """Make ``--backend`` the process default (and the workers', via env)."""
    if getattr(args, "backend", None) is None:
        return
    import os

    from repro import kernels

    kernels.set_default_backend(args.backend)
    # worker pools (sweep/serve jobs) inherit the choice through the env
    os.environ["REPRO_BACKEND"] = args.backend


_MD_PROLOGUE = """\
# CLI reference

`python -m repro <command>` (or `repro <command>` with the package
installed).  **Generated** by `python -m repro --dump-md` — edit the
argparse tree in `src/repro/cli.py`, then regenerate:

```sh
PYTHONPATH=src python -m repro --dump-md > docs/cli.md
```
"""


def dump_markdown() -> str:
    """Render the whole argparse tree as the ``docs/cli.md`` reference."""
    parser = build_parser()
    lines = [_MD_PROLOGUE]
    # the subparsers action holds every command parser, in add order
    sub = next(a for a in parser._subparsers._group_actions
               if isinstance(a, argparse._SubParsersAction))
    help_by_command = {a.dest: a.help for a in sub._choices_actions}
    for name, command in sub.choices.items():
        lines.append(f"\n## `repro {name}`\n")
        lines.append(f"{help_by_command.get(name, '')}\n")
        lines.append(f"```\nusage: {command.format_usage()[len('usage: '):].strip()}\n```\n")
        rows = [(", ".join(a.option_strings) if a.option_strings
                 else (a.metavar or a.dest),
                 a.help or "")
                for a in command._actions
                if not isinstance(a, argparse._HelpAction)]
        if rows:
            lines.append("| argument | description |\n|---|---|")
            for arg, help_text in rows:
                lines.append(f"| `{arg}` | {help_text} |")
            lines.append("")
    return "\n".join(lines)


def _cmd_figures(args) -> int:
    from repro.experiments import ALL_FIGURES, check_figure, render_figure

    if args.simulated:
        simulated = ("fig7", "fig8")
        wanted = args.ids or list(simulated)
        unknown = [w for w in wanted if w not in simulated]
        if unknown:
            print(f"unknown simulated figures {unknown}; "
                  f"choose from {list(simulated)}")
            return 2
        names = [f"{figure_id}-simulated" for figure_id in wanted]
        override = {"seeds": args.seeds, "base_seed": args.base_seed}
        try:
            jobs = _registry({name: override for name in names})
        except ValueError as error:
            print(f"cannot run the simulated figures: {error}")
            return 2
        summary = _run_jobs(jobs, names, workers=_pool_width(args.workers))
        if not summary.ok:
            return 1
        for name in names:
            print(render_figure(summary.results[name]))
            print()
        return 0

    wanted = args.ids or sorted(ALL_FIGURES)
    unknown = [w for w in wanted if w not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures {unknown}; choose from {sorted(ALL_FIGURES)}")
        return 2
    failures = 0
    for figure_id in wanted:
        result = ALL_FIGURES[figure_id]()
        print(render_figure(result))
        for check in check_figure(result):
            verdict = "PASS" if check.passed else "FAIL"
            failures += not check.passed
            print(f"  [{verdict}] {check.claim}  ({check.detail})")
        print()
    return 1 if failures else 0


def _backend_banner() -> str:
    """One line describing the kernel configuration, for ``repro check``."""
    from repro import kernels

    info = kernels.backend_info()
    if info["compiled_provider"] == "cext":
        compiled = info["compiled_detail"]
    else:
        compiled = "fallback: pure-Python reference (no C compiler)"
    return (f"kernel backend: {info['default_backend']} "
            f"(compiled provider: {compiled})")


def _cmd_check(args) -> int:
    from repro.experiments import ALL_FIGURES, check_figure

    print(_backend_banner())
    wanted = args.ids or sorted(ALL_FIGURES)
    unknown = [w for w in wanted if w not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures {unknown}; choose from {sorted(ALL_FIGURES)}")
        return 2
    failures = 0
    for figure_id in wanted:
        for check in check_figure(ALL_FIGURES[figure_id]()):
            verdict = "PASS" if check.passed else "FAIL"
            failures += not check.passed
            print(f"{figure_id}: [{verdict}] {check.claim}  ({check.detail})")
    print(f"{'FAILED' if failures else 'ok'}: {failures} claim(s) failing")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    from pathlib import Path

    from repro.verify import bless, run_verification
    from repro.verify.mutations import MUTATIONS

    _apply_backend(args)
    if args.bless:
        for path in bless():
            print(f"blessed {path}")
        return 0

    mode = "deep" if args.deep else "quick"
    if args.mutate is not None:
        if args.mutate not in MUTATIONS:
            print(f"unknown mutation {args.mutate!r}; choose from "
                  f"{sorted(MUTATIONS)}")
            return 2
        # with a fault deliberately active, golden drift and the
        # self-check would only restate it — run the oracle sweep alone
        with MUTATIONS[args.mutate].active():
            report = run_verification(mode, seed=args.seed,
                                      golden=False, selfcheck=False)
    else:
        report = run_verification(
            mode, seed=args.seed,
            golden=not args.no_golden,
            selfcheck=not args.no_selfcheck)
    print(report.render())
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def _cmd_design(args) -> int:
    from repro.core import hardware_cost, propose_design

    design = propose_design(args.capacity_bytes, args.line_size,
                            args.address_bits)
    cost = hardware_cost(design, start_registers=args.start_registers)
    print(f"prime-mapped cache for a {args.capacity_bytes}-byte budget:")
    print(f"  c = {design.c}  ->  {design.lines} lines of "
          f"{design.line_size_bytes} bytes = {design.capacity_bytes} bytes")
    print(f"  capacity given up vs 2^c lines: "
          f"{design.capacity_loss_vs_pow2:.4%}")
    print(f"  stored tag width: {design.tag_bits} bits "
          f"(includes 1 alias-disambiguation bit)")
    path = design.critical_path
    print(f"  index datapath delay {path.index_path_delay} vs address adder "
          f"{path.memory_path_delay} gate levels "
          f"(slack {path.slack}: claim "
          f"{'holds' if path.no_critical_path_extension else 'NEEDS WIDER LOOKAHEAD'})")
    print("  added hardware:")
    print(f"    end-around-carry adder: ~{cost.adder_gates} gates")
    print(f"    operand multiplexors:   ~{cost.mux_gates} gates")
    print(f"    registers:              {cost.register_bits} bits")
    print(f"    extra tag bits:         {cost.extra_tag_bits_total} "
          f"(1 per line)")
    return 0


def _cmd_compare(args) -> int:
    from repro.cache import (
        DirectMappedCache,
        FullyAssociativeCache,
        PrimeMappedCache,
    )
    from repro.trace import replay, strided

    _apply_backend(args)
    trace = strided(0, args.stride, args.length, sweeps=args.sweeps)
    lines = 1 << args.c
    contenders = [
        DirectMappedCache(num_lines=lines),
        PrimeMappedCache(c=args.c),
        FullyAssociativeCache(num_lines=lines),
    ]
    print(f"stride {args.stride}, {args.length} elements, "
          f"{args.sweeps} sweeps, t_m={args.t_m}:")
    if args.length > lines - 1:
        print(f"  note: the vector ({args.length} lines) exceeds the cache "
              f"(~{lines} lines); capacity misses will dominate every "
              f"organisation")
    for cache in contenders:
        result = replay(trace, cache, t_m=args.t_m)
        print(f"  {result.label:48s} hit {result.hit_ratio:6.1%}  "
              f"conflicts {result.stats.conflict_misses:6d}  "
              f"stalls {result.stall_cycles:10.0f}")
    return 0


def _cmd_subblock(args) -> int:
    from repro.analytical.subblock import (
        count_subblock_conflicts,
        max_conflict_free_block,
    )

    lines = (1 << args.c) - 1
    choice = max_conflict_free_block(args.leading_dimension, lines)
    if choice.b1 == 0:
        print(f"P = {args.leading_dimension} is a multiple of {lines}: no "
              f"multi-column conflict-free block at c={args.c}")
        return 1
    conflicts = count_subblock_conflicts(
        args.leading_dimension, choice.b1, choice.b2, lines
    )
    print(f"P = {args.leading_dimension}, prime cache {lines} lines:")
    print(f"  conflict-free block {choice.b1} x {choice.b2} "
          f"(utilisation {choice.utilization:.1%}, enumerated collisions "
          f"{conflicts})")
    return 0


def _cmd_blocking(args) -> int:
    from repro.analytical import MachineConfig
    from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
    from repro.analytical.optimize import (
        full_cache_penalty,
        optimal_blocking_factor,
    )

    config = MachineConfig(num_banks=args.banks, memory_access_time=args.t_m,
                           cache_lines=8192)
    for label, model in (
        ("direct 8192", DirectMappedModel(config)),
        ("prime 8191", PrimeMappedModel(config.with_(cache_lines=8191))),
    ):
        choice = optimal_blocking_factor(model)
        penalty = full_cache_penalty(model)
        print(f"{label}: best B = {choice.blocking_factor} "
              f"({choice.cache_utilization:.1%} of the cache, "
              f"{choice.cycles_per_result:.2f} cycles/result); "
              f"blocking at the full cache costs {penalty:.2f}x the optimum")
    return 0


def _cmd_optimize(args) -> int:
    import json as json_module

    from repro.experiments.optimizer import render_optimize

    jobs = _registry({
        "optimize-search": {
            "max_area_words": args.max_area, "max_banks": args.max_banks,
            "max_t_m": args.max_tm, "min_bandwidth": args.min_bandwidth,
            "p_ds": args.p_ds, "p_stride1": args.p_stride1,
            "top_k": args.top_k, "allow_unmodeled": args.allow_unmodeled,
            "mappings": tuple(args.mappings) if args.mappings else None},
        "optimize-verify": {"top_k": args.verify_k, "seeds": args.seeds},
    })
    names = (["optimize-search", "optimize-verify"] if args.verify_k > 0
             else ["optimize-search"])
    summary = _run_jobs(jobs, names, cache_dir=args.cache_dir)
    if not summary.ok:
        return 1
    search = summary.results["optimize-search"]
    verification = summary.results.get("optimize-verify")
    if args.json:
        print(json_module.dumps(
            {"search": search, "verification": verification}, indent=2))
    else:
        print(render_optimize(search, verification))
    return 0 if verification is None or verification["ok"] else 1


def _cmd_fit(args) -> int:
    from repro.analytical import MachineConfig
    from repro.analytical.cc import DirectMappedModel, PrimeMappedModel
    from repro.analytical.fit import estimate_vcm
    from repro.trace.records import Trace

    trace = Trace.load(args.trace_file)
    try:
        fitted = estimate_vcm(trace, min_run_length=args.min_run)
    except ValueError as error:
        print(f"cannot fit: {error}")
        return 1
    print(f"{trace!r}")
    print(f"fitted {fitted.vcm.describe()}")
    print(f"  vector runs: {fitted.runs}, mean length "
          f"{fitted.mean_run_length:.1f}")
    top = sorted(fitted.stride_histogram.items(), key=lambda kv: -kv[1])[:6]
    print("  stride histogram (top):",
          ", ".join(f"{s}x{n}" for s, n in top))
    cfg = MachineConfig(num_banks=args.banks, memory_access_time=args.t_m,
                        cache_lines=8192)
    direct = DirectMappedModel(cfg).cycles_per_result(fitted.vcm)
    prime = PrimeMappedModel(
        cfg.with_(cache_lines=8191)).cycles_per_result(fitted.vcm)
    print(f"  model prediction at t_m={args.t_m}: direct {direct:.2f} "
          f"cycles/result, prime {prime:.2f} ({direct / prime:.2f}x)")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.experiments.report import report_from_inputs
    from repro.orchestrate import RESULTS_DIR

    jobs = _registry({"validation": {"seeds": args.seeds}})
    # the validation grid is not part of the committed report artifact,
    # so the --simulate variant is assembled from the cached inputs
    # instead of running the "report" job
    names = ([*jobs["report"].deps, "validation"] if args.simulate
             else ["report"])
    summary = _run_jobs(jobs, names, cache_dir=args.cache_dir,
                        results_dir=RESULTS_DIR)
    if not summary.ok:
        return 1
    text = (report_from_inputs(summary.results) if args.simulate
            else summary.results["report"])
    Path(args.output).write_text(text)
    tail = text.strip().splitlines()[-1]
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    print(tail)
    return 0 if "claims reproduced" in tail and "FAIL" not in text else 1


def _cmd_validate(args) -> int:
    from repro.experiments.validation import render_validation

    jobs = _registry({"validation": {"seeds": args.seeds}})
    summary = _run_jobs(jobs, ["validation"])
    if not summary.ok:
        return 1
    print(render_validation(summary.results["validation"]))
    return 0


def _registry(overrides: dict | None = None) -> dict:
    """The job registry with ``{job: {param: value}}`` overrides applied
    (a ``None`` value keeps the registry's).  An overridden job caches
    under its own key and has no artifact, so a variant never rewrites
    a file under ``results/``; an overridden simulated figure derives
    its own point jobs."""
    from dataclasses import replace

    from repro.orchestrate import all_jobs, with_points

    jobs = all_jobs()
    for name, params in (overrides or {}).items():
        job = jobs[name]
        merged = {**job.params, **{key: value for key, value in params.items()
                                   if value is not None}}
        if merged != job.params:
            jobs.update((variant.name, variant) for variant in with_points(
                replace(job, params=merged, artifact=None, render=None)))
    return jobs


def _run_jobs(jobs: dict, names, *, workers: int = 1,
              cache_dir: str | None = None, results_dir=None):
    """Run ``names`` of ``jobs`` through the result cache; prints the
    error of every job that failed."""
    from repro.orchestrate import ResultStore, Runner

    store = ResultStore(cache_dir) if cache_dir else ResultStore()
    summary = Runner(jobs.values(), store=store, workers=workers,
                     results_dir=results_dir).run(names)
    for outcome in summary.outcomes:
        if outcome.error:
            print(f"{outcome.name}: {outcome.error}")
    return summary


def _pool_width(requested: int | None) -> int:
    """A ``--jobs``/``--workers`` value, ``min(4, CPUs)`` when not given."""
    import os

    return requested if requested is not None else min(4, os.cpu_count() or 1)


def _sweep_smoke(args) -> int:
    """Cold-then-warm smoke pass CI runs; asserts the cache pays off."""
    import json as json_module
    import tempfile

    from repro.orchestrate import (
        RESULTS_DIR,
        ResultStore,
        Runner,
        all_jobs,
        smoke_sweep,
    )

    names = list(smoke_sweep())
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        cache_dir = args.cache_dir or tmp

        def run_once():
            # RESULTS_DIR so smoke jobs that declare an artifact (the
            # zoo smoke) leave it behind for CI upload
            runner = Runner(all_jobs().values(),
                            store=ResultStore(cache_dir),
                            workers=_pool_width(args.jobs),
                            results_dir=RESULTS_DIR, log_path=args.log)
            return runner.run(names)

        cold = run_once()
        warm = run_once()
    speedup = cold.elapsed_s / max(warm.elapsed_s, 1e-9)
    ok = (cold.ok and warm.ok
          and warm.count("hit") == len(names)
          and speedup >= 10.0)
    if args.json:
        print(json_module.dumps({
            "cold_s": cold.elapsed_s, "warm_s": warm.elapsed_s,
            "speedup": speedup, "jobs": names, "ok": ok,
        }, indent=2))
    else:
        print(f"smoke sweep over {names}:")
        print(f"  cold: {cold.elapsed_s:8.2f}s  "
              f"({cold.count('ran')} ran, {cold.count('hit')} hit)")
        print(f"  warm: {warm.elapsed_s:8.2f}s  "
              f"({warm.count('ran')} ran, {warm.count('hit')} hit)")
        print(f"  speedup {speedup:.1f}x (required >= 10x): "
              f"{'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    import json as json_module

    from repro.orchestrate import (
        RESULTS_DIR,
        ResultStore,
        Runner,
        all_jobs,
        default_sweep,
    )

    _apply_backend(args)
    jobs = all_jobs()
    if args.list:
        for name, job in jobs.items():
            artifact = f"  -> results/{job.artifact}" if job.artifact else ""
            print(f"{name:24s} {job.fn}{artifact}")
        return 0
    if args.smoke:
        return _sweep_smoke(args)

    names = list(args.names) if args.names else list(default_sweep())
    unknown = [n for n in names if n not in jobs]
    if unknown:
        print(f"unknown jobs {unknown}; see 'repro sweep --list'")
        return 2

    store = ResultStore(args.cache_dir) if args.cache_dir else ResultStore()
    runner = Runner(
        jobs.values(), store=store, workers=_pool_width(args.jobs),
        force=args.force,
        results_dir=None if args.no_artifacts else RESULTS_DIR,
        log_path=args.log)

    if args.status:
        rows = runner.status(names)
        if args.json:
            print(json_module.dumps(rows, indent=2))
        else:
            for row in rows:
                state = "cached" if row["cached"] else "missing"
                extra = (f"  ({row['elapsed_s']:.2f}s to compute)"
                         if row.get("elapsed_s") is not None else "")
                print(f"{row['name']:24s} {state:8s} "
                      f"{row['key'][:12]}{extra}")
            cached = sum(r["cached"] for r in rows)
            print(f"{cached}/{len(rows)} cached")
        return 0

    summary = runner.run(names)

    # claim checks: every job that ran or hit, dependencies included,
    # must still show its claims, cached or not
    from repro.experiments.checks import check_job

    claims = [check for name, result in summary.results.items()
              for check in check_job(name, result)]
    claim_total = len(claims)
    claim_failures = sum(not check.passed for check in claims)

    if args.json:
        payload = summary.to_dict()
        payload["claims"] = {"checked": claim_total,
                             "failed": claim_failures}
        print(json_module.dumps(payload, indent=2))
    else:
        for outcome in summary.outcomes:
            line = (f"{outcome.name:24s} {outcome.status:8s} "
                    f"{outcome.elapsed_s:8.2f}s")
            if outcome.error:
                line += f"  {outcome.error}"
            print(line)
        print(f"run {summary.run_id}: {summary.count('hit')} hit, "
              f"{summary.count('ran')} ran, {summary.count('failed')} "
              f"failed, {summary.count('skipped')} skipped in "
              f"{summary.elapsed_s:.2f}s")
        for check in claims:
            if not check.passed:
                print(f"{check.figure_id}: [FAIL] {check.claim}  "
                      f"({check.detail})")
        if claim_total:
            verdict = "ok" if not claim_failures else "FAILED"
            print(f"claims: {claim_total - claim_failures}/{claim_total} "
                  f"pass ({verdict})")
    return 0 if summary.ok and not claim_failures else 1


def _cmd_serve(args) -> int:
    from repro.orchestrate import ResultStore
    from repro.serve import ServeApp, run_app

    _apply_backend(args)
    store = ResultStore(args.cache_dir) if args.cache_dir else ResultStore()
    app = ServeApp(host=args.host, port=args.port, store=store,
                   workers=_pool_width(args.workers))
    run_app(app)
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "design": _cmd_design,
    "compare": _cmd_compare,
    "subblock": _cmd_subblock,
    "blocking": _cmd_blocking,
    "optimize": _cmd_optimize,
    "fit": _cmd_fit,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
}


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--dump-md" in argv:
        print(dump_markdown())
        return 0
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
