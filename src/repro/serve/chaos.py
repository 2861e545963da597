"""Service-level chaos campaigns with a bit-exact oracle.

The campaign is the tentpole invariant made executable: drive a seeded
traffic stream through the service while injecting worker crashes,
hangs past the deadline, cached-result corruption, and queue-overload
bursts — then prove that

* every response the service *did* complete is bit-exact to the
  fault-free batch answer (payload digests against an oracle computed
  before any fault is armed), and
* every non-served outcome is a *typed* failure or shed — never a
  silent wrong answer, never an anonymous error.

The fault plan derives from the same seed as the traffic, so a failing
campaign replays exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..runtime import faults, resilience
from .requests import (
    SERVED,
    ServeRequest,
    ServeResponse,
    payload_digest,
    stats_payload,
)
from .service import PredictionService, check_settings
from .traffic import (
    TrafficModel,
    build_universe,
    request_stream,
    run_traffic,
)

#: Digest-prefix length used in generated fault directives.
_PREFIX = 12

#: The campaign's service settings (and the ``repro.serve chaos`` flag
#: defaults): a short queue and breaker so the bursts shed and the
#: faults trip breakers, and a deadline the injected hang overruns.
CAMPAIGN_SETTINGS: Dict[str, Any] = {
    "queue_limit": 12, "batch_limit": 24, "deadline": 8.0,
    "breaker_threshold": 3, "breaker_cooldown": 0.5}


@dataclass(frozen=True)
class ChaosPlan:
    """The seeded fault plan: which requests get which faults."""

    spec: str                       #: composed REPRO_FAULT_SPEC
    crashes: Tuple[str, ...]        #: worker dies mid-request, once
    hangs: Tuple[str, ...]          #: worker wedges past the deadline
    soft_fails: Tuple[str, ...]     #: fast rung fails once → scalar rung
    hard_fails: Tuple[str, ...]     #: every rung fails → typed failure
    corrupt_entries: Tuple[str, ...]  #: cached payload reads corrupt once

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def plan_chaos(universe: Sequence[ServeRequest], indexes: np.ndarray,
               seed: int, n_crash: int = 2, n_hang: int = 1,
               n_soft: int = 2, n_hard: int = 1, n_corrupt: int = 2,
               ) -> ChaosPlan:
    """Assign faults to requests that actually appear in the stream."""
    appearing: List[str] = []
    seen: Dict[int, bool] = {}
    for raw in indexes:
        idx = int(raw)
        if idx not in seen:
            seen[idx] = True
            appearing.append(universe[idx].digest())
    rng = np.random.default_rng([seed, 2])
    order = [appearing[int(i)] for i in rng.permutation(len(appearing))]

    def take(n: int) -> Tuple[str, ...]:
        taken = tuple(d[:_PREFIX] for d in order[:n])
        del order[:n]
        return taken

    crashes = take(n_crash)
    hangs = take(n_hang)
    soft_fails = take(n_soft)
    hard_fails = take(n_hard)
    corrupt_entries = take(n_corrupt)
    parts = (
        [f"crash:request={d}" for d in crashes]
        + [f"hang:request={d}" for d in hangs]
        + [f"fail:request={d}" for d in soft_fails]
        # times=9 outlives every rung: the fast attempt, the executor
        # retries, and the scalar rescue all keep faulting, so the
        # request must surface as a typed failure.
        + [f"fail:request={d},times=9" for d in hard_fails]
        + [f"corrupt:entry={d}" for d in corrupt_entries]
    )
    return ChaosPlan(spec=";".join(parts), crashes=crashes, hangs=hangs,
                     soft_fails=soft_fails, hard_fails=hard_fails,
                     corrupt_entries=corrupt_entries)


@dataclass
class ChaosResult:
    """Everything a campaign measured, judged, and asserted."""

    seed: int
    n_requests: int
    n_universe: int
    plan: Dict[str, Any]
    traffic: Dict[str, Any]
    service: Dict[str, Any]
    n_served_checked: int
    mismatches: List[Dict[str, Any]]
    untyped_failures: List[Dict[str, Any]]
    unaccounted: int        #: positions with neither response nor shed
    passed: bool
    elapsed_s: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path


def _judge(responses: Sequence[Optional[ServeResponse]],
           oracle: Dict[str, str],
           ) -> Tuple[int, List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Check bit-exactness of served answers and typedness of the rest."""
    n_checked = 0
    mismatches: List[Dict[str, Any]] = []
    untyped: List[Dict[str, Any]] = []
    for pos, response in enumerate(responses):
        if response is None:
            continue  # admission shed: typed via ServiceOverload
        if response.status == SERVED:
            n_checked += 1
            expected = oracle.get(response.request_digest)
            actual = response.payload_digest
            consistent = (response.payload is not None
                          and payload_digest(response.payload) == actual)
            if expected != actual or not consistent:
                mismatches.append({
                    "position": pos,
                    "request_digest": response.request_digest,
                    "rung": response.rung,
                    "expected": expected,
                    "actual": actual,
                    "self_consistent": consistent,
                })
        elif not response.error_type:
            untyped.append({
                "position": pos,
                "request_digest": response.request_digest,
                "status": response.status,
            })
    return n_checked, mismatches, untyped


def run_chaos(seed: int = 5, n_requests: int = 10_000,
              universe_size: int = 40, budget: int = 3000,
              model: Optional[TrafficModel] = None, jobs: int = 2,
              output: Optional[Path] = None,
              **settings: Any) -> ChaosResult:
    """One full campaign: oracle, faults, traffic, judgement, summary.

    The summary is written to ``output`` as JSON; ``None`` writes no
    file.

    ``settings`` override :data:`CAMPAIGN_SETTINGS` (``queue_limit``,
    ``batch_limit``, ``deadline``, ``breaker_threshold``,
    ``breaker_cooldown``); they are checked before the oracle runs.
    """
    settings = {**CAMPAIGN_SETTINGS, **settings}
    check_settings(**settings)
    start = time.monotonic()
    model = model if model is not None else TrafficModel(
        pattern="zipfian", arrival="bursty", burst=96)
    with resilience.scoped_environ({faults.FAULTS_ENV: None}):
        universe = build_universe(seed, universe_size, budget=budget)
        indexes = request_stream(model, len(universe), n_requests, seed)
        # The fault-free oracle, computed before any fault is armed.
        # This also warms the disk cache (traces, segmentations,
        # compiled arrays), so sweep workers start hot.
        oracle = {request.digest():
                  payload_digest(stats_payload(request.run()))
                  for request in universe}
    plan = plan_chaos(universe, indexes, seed)

    async def _campaign() -> Tuple[Any, Any,
                                   List[Optional[ServeResponse]]]:
        async with PredictionService(jobs=jobs, **settings) as service:
            summary, responses = await run_traffic(
                service, universe, indexes, model)
            return service.summary(), summary, responses

    import asyncio

    with resilience.scoped_environ({faults.FAULTS_ENV: plan.spec}):
        faults.reset()
        service_summary, traffic_summary, responses = \
            asyncio.run(_campaign())

    n_checked, mismatches, untyped = _judge(responses, oracle)
    result = ChaosResult(
        seed=seed, n_requests=n_requests, n_universe=len(universe),
        plan=plan.to_dict(), traffic=traffic_summary.to_dict(),
        service=service_summary, n_served_checked=n_checked,
        mismatches=mismatches, untyped_failures=untyped,
        unaccounted=0,
        passed=(not mismatches and not untyped and n_checked > 0),
        elapsed_s=time.monotonic() - start)
    if output is not None:
        result.write(output)
    return result
