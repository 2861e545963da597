"""Command-line drivers for the prediction service.

Usage::

    python -m repro.serve traffic --seed 5 --requests 2000
    python -m repro.serve chaos --seed 5 --requests 10000 --output c.json
    python -m repro.serve listen --port 8371

``traffic`` measures cache hit-rate and tail latency under a seeded
arrival/skew model; ``chaos`` runs the fault-injected campaign and
exits 1 unless every completed response was bit-exact and every failure
typed; ``listen`` exposes the JSON-lines TCP frontend.  All three take
the same five service settings (``--queue``, ``--batch``,
``--deadline``, ``--breaker-threshold``, ``--breaker-cooldown``); a bad
one exits 2 naming the flag, like the main CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import chaos as chaos_mod
from . import net
from .service import (
    DEFAULT_BATCH_LIMIT,
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_QUEUE_LIMIT,
    PredictionService,
)
from .traffic import (
    ARRIVALS,
    PATTERNS,
    TrafficModel,
    build_universe,
    request_stream,
    run_traffic,
)

#: The service's own defaults, for ``traffic`` and ``listen``.
SERVICE_DEFAULTS: Dict[str, Any] = {
    "queue_limit": DEFAULT_QUEUE_LIMIT, "batch_limit": DEFAULT_BATCH_LIMIT,
    "deadline": None, "breaker_threshold": DEFAULT_BREAKER_THRESHOLD,
    "breaker_cooldown": DEFAULT_BREAKER_COOLDOWN}


def _add_settings(p: argparse.ArgumentParser,
                  defaults: Dict[str, Any]) -> None:
    """The five service settings, one flag per constructor argument.

    No validation here: ``PredictionService`` checks them all.
    """
    p.add_argument("--queue", dest="queue_limit", type=int, metavar="N",
                   default=defaults["queue_limit"],
                   help="admission queue bound (default: %(default)s)")
    p.add_argument("--batch", dest="batch_limit", type=int, metavar="N",
                   default=defaults["batch_limit"],
                   help="max requests per batch (default: %(default)s)")
    p.add_argument("--deadline", type=float, metavar="SECONDS",
                   default=defaults["deadline"],
                   help="default per-request deadline (default: "
                        "%(default)s)")
    p.add_argument("--breaker-threshold", type=int, metavar="N",
                   default=defaults["breaker_threshold"],
                   help="consecutive failures that trip a workload "
                        "family's breaker (default: %(default)s)")
    p.add_argument("--breaker-cooldown", type=float, metavar="SECONDS",
                   default=defaults["breaker_cooldown"],
                   help="seconds an open breaker waits before a probe "
                        "(default: %(default)s)")


def _settings(args: argparse.Namespace) -> Dict[str, Any]:
    return {name: getattr(args, name) for name in SERVICE_DEFAULTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Fault-hardened prediction service: traffic and "
                    "chaos drivers, TCP frontend.",
        epilog="Every subcommand takes the service settings --queue, "
               "--batch, --deadline, --breaker-threshold and "
               "--breaker-cooldown (see docs/robustness.md); "
               "REPRO_FAULT_SPEC injects deterministic service-level "
               "faults.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=5)
        p.add_argument("--requests", type=int, default=2000)
        p.add_argument("--universe", type=int, default=40,
                       help="distinct requests in the sampled universe")
        p.add_argument("--budget", type=int, default=3000,
                       help="instructions per workload trace")
        p.add_argument("--jobs", type=int, default=2,
                       help="fast-rung worker processes, kept for "
                            "the service's lifetime")

    p = sub.add_parser("traffic", help="measure hit-rate and latency "
                                       "under a seeded traffic model")
    add_common(p)
    _add_settings(p, SERVICE_DEFAULTS)
    p.add_argument("--pattern", choices=PATTERNS, default="zipfian")
    p.add_argument("--arrival", choices=ARRIVALS, default="steady")
    p.add_argument("--burst", type=int, default=32)

    p = sub.add_parser("chaos", help="fault-injected campaign asserting "
                                     "bit-exact or typed outcomes")
    add_common(p)
    _add_settings(p, chaos_mod.CAMPAIGN_SETTINGS)
    p.add_argument("--output", type=Path, default=None,
                   help="write the machine-readable campaign summary "
                        "(JSON) here (default: no file)")

    p = sub.add_parser("listen", help="run the JSON-lines TCP frontend")
    p.add_argument("--host", default=net.DEFAULT_HOST)
    p.add_argument("--port", type=int, default=net.DEFAULT_PORT)
    _add_settings(p, SERVICE_DEFAULTS)
    return parser


def _cmd_traffic(args: argparse.Namespace) -> int:
    model = TrafficModel(pattern=args.pattern, arrival=args.arrival,
                         burst=args.burst)
    universe = build_universe(args.seed, args.universe,
                              budget=args.budget)
    indexes = request_stream(model, len(universe), args.requests,
                             args.seed)

    async def _run() -> "object":
        async with PredictionService(jobs=args.jobs,
                                     **_settings(args)) as service:
            summary, _ = await run_traffic(service, universe, indexes,
                                           model)
            return {"traffic": summary.to_dict(),
                    "service": service.summary()}

    print(json.dumps(asyncio.run(_run()), indent=2, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    result = chaos_mod.run_chaos(
        seed=args.seed, n_requests=args.requests,
        universe_size=args.universe, budget=args.budget,
        jobs=args.jobs, output=args.output, **_settings(args))
    print(json.dumps({
        "passed": result.passed,
        "n_served_checked": result.n_served_checked,
        "mismatches": len(result.mismatches),
        "untyped_failures": len(result.untyped_failures),
        "traffic": result.traffic,
        "output": None if args.output is None else str(args.output),
    }, indent=2, sort_keys=True))
    if not result.passed:
        where = ("rerun with --output" if args.output is None
                 else f"in {args.output}")
        print("chaos campaign FAILED: see mismatches/untyped_failures "
              f"{where}", file=sys.stderr)
        return 1
    return 0


def _cmd_listen(args: argparse.Namespace) -> int:
    try:
        asyncio.run(net.serve_forever(args.host, args.port,
                                      **_settings(args)))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "traffic":
            return _cmd_traffic(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        return _cmd_listen(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
