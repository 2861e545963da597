"""Command-line interface: regenerate paper artifacts and inspect workloads.

Usage::

    python -m repro fig6                 # any of fig6 fig7 fig8 fig9
    python -m repro table5 --budget 60000    # table5 table6 table7
    python -m repro workloads            # list the SPEC95 analogs
    python -m repro run compress --cache align --blocks 2
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .core.engine_mode import ENGINE_MODES
from .icache.geometry import CacheGeometry
from .runtime.executor import n_jobs
from .runtime.resilience import SweepError
from .workloads import SPEC95, get_workload, load_fetch_input, load_trace

#: Commands that regenerate one paper artifact; each names the module of
#: ``repro.experiments`` holding its ``run_<name>`` and
#: ``format_<name>``, imported only when the command runs.
_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9", "table5", "table6")

_CACHES = {
    "normal": CacheGeometry.normal,
    "extend": CacheGeometry.extended,
    "align": CacheGeometry.self_aligned,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Multiple Branch and Block "
                    "Prediction' (HPCA 1997)",
        epilog="Runtime environment: REPRO_ENGINE=scalar|fast selects "
               "the fetch-engine implementation (default: fast, "
               "bit-identical to scalar); REPRO_PROFILE=1 prints per-cell phase timings to "
               "stderr. See docs/performance.md for the full knob "
               "table.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sweep_options(p) -> None:
        """Resilient-runtime options shared by every sweep command."""
        p.add_argument("--engine", choices=ENGINE_MODES, default=None,
                       help="fetch-engine implementation: 'fast' "
                            "(vectorized kernels, the default) or "
                            "'scalar' (reference loops); both produce "
                            "identical statistics (default: "
                            "REPRO_ENGINE or fast)")
        p.add_argument("--jobs", type=str, default=None,
                       help="worker processes for the sweep "
                            "(int or 'auto'; default: REPRO_JOBS "
                            "or serial)")
        p.add_argument("--retries", type=str, default=None,
                       help="retry budget per sweep cell "
                            "(default: REPRO_RETRIES or 2)")
        p.add_argument("--cell-timeout", type=str, default=None,
                       help="per-cell deadline in seconds for parallel "
                            "sweeps (default: REPRO_CELL_TIMEOUT or "
                            "none)")
        p.add_argument("--resume", dest="resume", action="store_true",
                       default=None,
                       help="resume an interrupted sweep from its "
                            "journal (default)")
        p.add_argument("--no-resume", dest="resume",
                       action="store_false",
                       help="ignore any existing sweep journal and "
                            "recompute every cell")

    for name in (*_EXPERIMENTS, "table7"):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        if name != "table7":
            p.add_argument("--budget", type=int, default=None,
                           help="instructions per workload "
                                "(default: REPRO_TRACE_LEN or 120000)")
            add_sweep_options(p)

    sub.add_parser("workloads", help="list the SPEC95-analog workloads")

    p = sub.add_parser("report", help="regenerate every paper artifact "
                                      "into one markdown file")
    p.add_argument("--budget", type=int, default=None)
    add_sweep_options(p)
    p.add_argument("--output", default="report.md")

    p = sub.add_parser("run", help="run one workload through a fetch "
                                   "engine")
    p.add_argument("workload", choices=SPEC95)
    p.add_argument("--engine", choices=ENGINE_MODES, default=None,
                   help="fetch-engine implementation (default: "
                        "REPRO_ENGINE or fast)")
    p.add_argument("--budget", type=int, default=120_000)
    p.add_argument("--cache", choices=sorted(_CACHES), default="align")
    p.add_argument("--blocks", type=int, default=2,
                   help="blocks fetched per cycle (1, 2, or more)")
    p.add_argument("--history", type=int, default=10)
    p.add_argument("--select-tables", type=int, default=8)
    p.add_argument("--selection", choices=("single", "double"),
                   default="single")
    p.add_argument("--target", choices=("nls", "btb"), default="nls",
                   help="target array implementation")
    p.add_argument("--target-entries", type=int, default=256)
    return parser


def _apply_runtime(args) -> None:
    """Propagate sweep flags to their environment variables, validated.

    The runtime reads the environment, so setting it here makes one flag
    govern every sweep the command triggers, including those in worker
    warm-up.  Every knob — flag-set or inherited from the environment —
    is validated eagerly so a typo fails (exit 2) before any simulation.
    """
    import os

    from .core import engine_mode
    from .cpu import tracer_mode
    from .runtime import faults, profile, resilience
    from .runtime.executor import JOBS_ENV

    if getattr(args, "engine", None) is not None:
        os.environ[engine_mode.ENGINE_ENV] = args.engine
    if getattr(args, "jobs", None) is not None:
        os.environ[JOBS_ENV] = args.jobs
    if getattr(args, "retries", None) is not None:
        os.environ[resilience.RETRIES_ENV] = args.retries
    if getattr(args, "cell_timeout", None) is not None:
        os.environ[resilience.TIMEOUT_ENV] = args.cell_timeout
    if getattr(args, "resume", None) is not None:
        os.environ[resilience.RESUME_ENV] = "1" if args.resume else "0"

    engine_mode.engine_mode()
    tracer_mode()
    profile.enabled()
    n_jobs()
    resilience.retry_limit()
    resilience.cell_timeout()
    resilience.resume_enabled()
    faults.validate()


def _emit_sweep_reports() -> None:
    """Print a summary for every sweep that degraded (to stderr)."""
    from .runtime import resilience

    for report in resilience.drain_reports():
        if not report.clean:
            print(report.summary(), file=sys.stderr)


def _cmd_experiment(name: str, budget) -> None:
    module = importlib.import_module(f".experiments.{name}", __package__)
    runner = getattr(module, f"run_{name}")
    rows = runner(budget=budget) if budget else runner()
    print(getattr(module, f"format_{name}")(rows))


def _cmd_workloads() -> None:
    for name in SPEC95:
        w = get_workload(name)
        print(f"{name:10s} [{w.suite:3s}] {w.description}")


def _cmd_run(args) -> None:
    from .core.config import EngineConfig
    from .core.dual import DualBlockEngine
    from .core.multi import MultiBlockEngine
    from .core.single import SingleBlockEngine
    from .trace.stats import trace_stats

    geometry = _CACHES[args.cache](8)
    config = EngineConfig(geometry=geometry,
                          history_length=args.history,
                          n_select_tables=args.select_tables,
                          selection=args.selection,
                          target_kind=args.target,
                          target_entries=args.target_entries)
    trace = load_trace(args.workload, args.budget)
    print(trace_stats(trace))
    fetch_input = load_fetch_input(args.workload, geometry, args.budget)
    if args.blocks == 1:
        engine = SingleBlockEngine(config)
    elif args.blocks == 2:
        engine = DualBlockEngine(config)
    else:
        engine = MultiBlockEngine(config, args.blocks)
    print()
    print(engine.run(fetch_input).summary())


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "table7":
            from .experiments.table7 import format_table7, run_table7

            print(format_table7(run_table7()))
        elif args.command in _EXPERIMENTS:
            _apply_runtime(args)
            _cmd_experiment(args.command, args.budget)
        elif args.command == "workloads":
            _cmd_workloads()
        elif args.command == "report":
            from .experiments.report import write_report

            _apply_runtime(args)
            path = write_report(args.output, budget=args.budget,
                                verbose=True)
            print(f"wrote {path}")
        elif args.command == "run":
            _apply_runtime(args)
            _cmd_run(args)
    except BrokenPipeError:
        return 0  # output piped into a pager that closed early
    except SweepError as exc:
        # Cells were dropped after every recovery path: report what
        # degraded and exit non-zero.  Completed cells stay journaled,
        # so rerunning the same command resumes instead of restarting.
        _emit_sweep_reports()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_sweep_reports()
    return 0


if __name__ == "__main__":
    sys.exit(main())
