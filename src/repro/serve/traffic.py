"""Seeded traffic generation for the prediction service.

Production request streams are skewed and lumpy, and both properties
are exactly what the service's caching and admission control exist for.
This module models them deterministically (after the cxl-fabric-sim
workload patterns): a *key-skew* model picks which request of a fixed
universe arrives next (uniform / Zipfian / hotspot / sequential), and
an *arrival* model shapes concurrency (steady one-at-a-time, or bursty
gathers that slam the admission queue).  Everything derives from one
integer seed via ``numpy.random.default_rng``, so a campaign replays
bit-identically.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..icache.geometry import GEOMETRY_KINDS
from .requests import (
    RUNG_CACHED,
    RUNG_FAST,
    RUNG_SCALAR,
    SERVED,
    RequestError,
    ServeRequest,
    ServeResponse,
    ServiceOverload,
)
from .service import PredictionService

PATTERNS: Tuple[str, ...] = ("uniform", "zipfian", "hotspot",
                             "sequential")
ARRIVALS: Tuple[str, ...] = ("steady", "bursty")

#: Workloads the default universe samples: cheap at small budgets, and
#: including ``kmp``, whose statistics are analytically checkable.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("kmp", "compress", "go", "li",
                                      "swim", "tomcatv")

_ENGINES: Tuple[str, ...] = ("single", "dual", "multi", "two_ahead")


@dataclass(frozen=True)
class TrafficModel:
    """One traffic recipe: key skew plus arrival shape."""

    pattern: str = "zipfian"
    arrival: str = "steady"
    zipf_s: float = 1.2        #: Zipf exponent (higher = more skew)
    hot_fraction: float = 0.9  #: probability mass on the hot set
    hot_keys: int = 4          #: size of the hotspot's hot set
    burst: int = 32            #: concurrent submissions per burst
    gap_s: float = 0.0         #: pause between bursts

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, "
                             f"got {self.pattern!r}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"arrival must be one of {ARRIVALS}, "
                             f"got {self.arrival!r}")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if self.hot_keys < 1:
            raise ValueError("hot_keys must be >= 1")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.gap_s < 0:
            raise ValueError("gap_s must not be negative")


def build_universe(seed: int, n_cells: int, budget: int = 3000,
                   workloads: Optional[Sequence[str]] = None,
                   ) -> List[ServeRequest]:
    """Seeded universe of distinct, valid prediction requests.

    Samples (workload, engine, geometry, config) combinations and keeps
    only those the engines accept, so every universe member is
    servable; invalid combinations are simply re-rolled.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    rng = np.random.default_rng(seed)
    names = list(workloads if workloads is not None else DEFAULT_WORKLOADS)
    universe: List[ServeRequest] = []
    seen: Dict[str, bool] = {}
    attempts_left = 200 * n_cells
    while len(universe) < n_cells:
        attempts_left -= 1
        if attempts_left < 0:
            raise ValueError(
                f"could not sample {n_cells} distinct valid requests "
                f"(got {len(universe)}); widen the workload list")
        engine = _ENGINES[int(rng.integers(len(_ENGINES)))]
        request = ServeRequest(
            workload=names[int(rng.integers(len(names)))],
            engine=engine,
            geometry_kind=GEOMETRY_KINDS[
                int(rng.integers(len(GEOMETRY_KINDS)))],
            block_width=int(rng.choice(np.array([4, 8]))),
            budget=budget,
            n_blocks=int(rng.integers(3, 5)) if engine == "multi" else 2,
            config={
                "history_length": int(rng.integers(4, 13)),
                "n_select_tables": int(rng.choice(np.array([1, 4, 8]))),
                "near_block": bool(rng.integers(2)),
            },
        )
        try:
            request.validate()
        except RequestError:
            continue
        digest = request.digest()
        if digest in seen:
            continue
        seen[digest] = True
        universe.append(request)
    return universe


def key_weights(model: TrafficModel, n: int) -> Optional[np.ndarray]:
    """Per-key selection probabilities, or None for unweighted models."""
    if model.pattern == "zipfian":
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** -model.zipf_s
        return weights / weights.sum()
    if model.pattern == "hotspot":
        hot = min(model.hot_keys, n)
        weights = np.full(n, (1.0 - model.hot_fraction) / max(1, n - hot),
                          dtype=np.float64)
        if hot == n:
            weights[:] = 0.0
        weights[:hot] = model.hot_fraction / hot
        return weights / weights.sum()
    return None


def request_stream(model: TrafficModel, n_universe: int,
                   n_requests: int, seed: int) -> np.ndarray:
    """Seeded index stream into the universe (dtype int64)."""
    if n_universe < 1:
        raise ValueError("n_universe must be >= 1")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    rng = np.random.default_rng([seed, 1])
    if model.pattern == "sequential":
        return (np.arange(n_requests) % n_universe).astype(np.int64)
    weights = key_weights(model, n_universe)
    if weights is None:
        return rng.integers(0, n_universe, n_requests, dtype=np.int64)
    return rng.choice(n_universe, size=n_requests, p=weights,
                      ).astype(np.int64)


@dataclass
class TrafficSummary:
    """Measured outcome of one traffic run."""

    n_requests: int
    n_universe: int
    served: int
    served_fast: int
    served_scalar: int
    served_cached: int
    deduped: int
    failed: Dict[str, int]
    shed_overload: int
    shed_other: int
    hit_rate: float            #: cached serves / all serves
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_max_s: float
    elapsed_s: float
    requests_per_s: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def summarize(responses: Sequence[Optional[ServeResponse]],
              n_overloads: int, n_universe: int, elapsed_s: float,
              ) -> TrafficSummary:
    """Aggregate a run's responses (None = overload-shed) into a summary."""
    served = [r for r in responses if r is not None and r.status == SERVED]
    failed: Dict[str, int] = {}
    shed_other = 0
    for response in responses:
        if response is None or response.status == SERVED:
            continue
        if response.status == "shed":
            shed_other += 1
        else:
            key = response.error_type or "Exception"
            failed[key] = failed.get(key, 0) + 1
    latencies = np.array([r.latency_s for r in served], dtype=np.float64)
    if latencies.size == 0:
        latencies = np.zeros(1, dtype=np.float64)
    n_cached = sum(1 for r in served if r.rung == RUNG_CACHED)
    return TrafficSummary(
        n_requests=len(responses),
        n_universe=n_universe,
        served=len(served),
        served_fast=sum(1 for r in served if r.rung == RUNG_FAST),
        served_scalar=sum(1 for r in served if r.rung == RUNG_SCALAR),
        served_cached=n_cached,
        deduped=sum(1 for r in served if r.deduped),
        failed=dict(sorted(failed.items())),
        shed_overload=n_overloads,
        shed_other=shed_other,
        hit_rate=(n_cached / len(served)) if served else 0.0,
        latency_p50_s=float(np.percentile(latencies, 50)),
        latency_p95_s=float(np.percentile(latencies, 95)),
        latency_p99_s=float(np.percentile(latencies, 99)),
        latency_max_s=float(latencies.max()),
        elapsed_s=elapsed_s,
        requests_per_s=(len(responses) / elapsed_s
                        if elapsed_s > 0 else 0.0),
    )


async def run_traffic(service: PredictionService,
                      universe: Sequence[ServeRequest],
                      indexes: np.ndarray, model: TrafficModel,
                      ) -> Tuple[TrafficSummary,
                                 List[Optional[ServeResponse]]]:
    """Drive a request stream through a running service.

    Every request runs under the service's default deadline.  Returns
    the summary plus the per-position responses (None where the
    admission queue shed the request with :class:`ServiceOverload` —
    still a typed outcome, counted as ``shed_overload``).
    """
    responses: List[Optional[ServeResponse]] = [None] * len(indexes)
    overloads = 0

    async def one(pos: int) -> None:
        nonlocal overloads
        try:
            responses[pos] = await service.submit(
                universe[int(indexes[pos])])
        except ServiceOverload:
            overloads += 1

    start = time.monotonic()
    if model.arrival == "bursty":
        pos = 0
        while pos < len(indexes):
            width = min(model.burst, len(indexes) - pos)
            await asyncio.gather(*(one(pos + j) for j in range(width)))
            pos += width
            if model.gap_s:
                await asyncio.sleep(model.gap_s)
    else:
        for pos in range(len(indexes)):
            await one(pos)
    elapsed = time.monotonic() - start
    return (summarize(responses, overloads, len(universe), elapsed),
            responses)
