"""Command-line drivers for the prediction service.

Usage::

    python -m repro.serve traffic --seed 5 --requests 2000
    python -m repro.serve chaos --seed 5 --requests 10000
    python -m repro.serve listen --port 8371

``traffic`` measures cache hit-rate and tail latency under a seeded
arrival/skew model; ``chaos`` runs the fault-injected campaign and
exits 1 unless every completed response was bit-exact and every failure
typed; ``listen`` exposes the JSON-lines TCP frontend.  Bad
configuration exits 2, like the main CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import chaos as chaos_mod
from . import config as serve_config
from . import net
from .service import PredictionService
from .traffic import (
    ARRIVALS,
    PATTERNS,
    TrafficModel,
    build_universe,
    request_stream,
    run_traffic,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Fault-hardened prediction service: traffic and "
                    "chaos drivers, TCP frontend.",
        epilog="Configuration: REPRO_SERVE_QUEUE, REPRO_SERVE_BATCH, "
               "REPRO_SERVE_DEADLINE, REPRO_SERVE_BREAKER_THRESHOLD, "
               "REPRO_SERVE_BREAKER_COOLDOWN (see docs/robustness.md); "
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
        p.add_argument("--queue", type=int, default=None,
                       help="admission queue bound (default: "
                            "REPRO_SERVE_QUEUE)")
        p.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")

    p = sub.add_parser("traffic", help="measure hit-rate and latency "
                                       "under a seeded traffic model")
    add_common(p)
    p.add_argument("--pattern", choices=PATTERNS, default="zipfian")
    p.add_argument("--arrival", choices=ARRIVALS, default="steady")
    p.add_argument("--burst", type=int, default=32)

    p = sub.add_parser("chaos", help="fault-injected campaign asserting "
                                     "bit-exact or typed outcomes")
    add_common(p)
    p.add_argument("--output", type=Path,
                   default=chaos_mod.DEFAULT_OUTPUT,
                   help="machine-readable campaign summary (JSON)")

    p = sub.add_parser("listen", help="run the JSON-lines TCP frontend")
    p.add_argument("--host", default=net.DEFAULT_HOST)
    p.add_argument("--port", type=int, default=net.DEFAULT_PORT)
    return parser


def _cmd_traffic(args: argparse.Namespace) -> int:
    model = TrafficModel(pattern=args.pattern, arrival=args.arrival,
                         burst=args.burst)
    universe = build_universe(args.seed, args.universe,
                              budget=args.budget)
    indexes = request_stream(model, len(universe), args.requests,
                             args.seed)

    async def _run() -> "object":
        async with PredictionService(queue_limit=args.queue,
                                     jobs=args.jobs,
                                     deadline=args.deadline) as service:
            summary, _ = await run_traffic(service, universe, indexes,
                                           model, deadline=args.deadline)
            return {"traffic": summary.to_dict(),
                    "service": service.summary()}

    print(json.dumps(asyncio.run(_run()), indent=2, sort_keys=True))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    result = chaos_mod.run_chaos(
        seed=args.seed, n_requests=args.requests,
        universe_size=args.universe, budget=args.budget,
        jobs=args.jobs, output=args.output,
        **({"queue_limit": args.queue} if args.queue is not None else {}),
        **({"deadline": args.deadline} if args.deadline is not None
           else {}))
    print(json.dumps({
        "passed": result.passed,
        "n_served_checked": result.n_served_checked,
        "mismatches": len(result.mismatches),
        "untyped_failures": len(result.untyped_failures),
        "traffic": result.traffic,
        "output": str(args.output),
    }, indent=2, sort_keys=True))
    if not result.passed:
        print("chaos campaign FAILED: see mismatches/untyped_failures "
              f"in {args.output}", file=sys.stderr)
        return 1
    return 0


def _cmd_listen(args: argparse.Namespace) -> int:
    print(f"repro.serve listening on {args.host}:{args.port} "
          f"(JSON lines; ^C stops)", file=sys.stderr)
    try:
        asyncio.run(net.serve_forever(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        serve_config.validate()
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
