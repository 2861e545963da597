"""The three workloads: seeded inputs, setup, the timed work and the
output check.

Each workload follows the same steps:

* ``__init__`` turns the seed into inputs (configurations, an analog
  order, or a request universe and index stream);
* ``setup`` does everything the timed work needs in place beforehand;
* ``run_once`` is one repetition of the fixed work, split into parts
  (a configuration, an analog, the request stream) whose wall and CPU
  time it returns; ``reset`` restores the starting state between
  repetitions;
* ``collect`` and ``check`` compare every output of every repetition
  with the scalar reference engines, after all timing is done.

Inputs depend on the seed only; the program receives nothing else.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

#: One configuration per (engine, target array, selection) of the
#: paper's space; multi-block engines model NLS arrays only.  Every seed
#: draws one configuration per stratum, so runs at different seeds do
#: comparable work.
STRATA: Tuple[Tuple[str, str, str], ...] = (
    ("single", "nls", "single"), ("single", "btb", "single"),
    ("dual", "nls", "single"), ("dual", "nls", "double"),
    ("dual", "btb", "single"), ("dual", "btb", "double"),
    ("multi", "nls", "single"), ("multi", "nls", "double"),
)
GEOMETRIES = ("normal", "extend", "align")

#: Concurrent closed-loop callers against the service (its default
#: batch limit, so a full batch can form).
SERVE_CALLERS = 32

#: One timed part of a repetition: wall-clock start and end, and the CPU
#: seconds this process and the children it waited for spent in it.
Part = Tuple[float, float, float]


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children, in seconds.

    Unlike wall-clock time it leaves out the time the host gave this
    virtual machine's processors to other guests (steal).
    """
    kids = os.times()
    return time.process_time() + kids.children_user + kids.children_system


@contextmanager
def timed_part(parts: List[Part]):
    """Record the wall and CPU time of the enclosed work as one part."""
    start, cpu = time.perf_counter(), cpu_seconds()
    yield
    parts.append((start, time.perf_counter(), cpu_seconds() - cpu))


@dataclass(frozen=True)
class Size:
    """Work sizes.  ``full`` is the benchmark; ``tiny`` is for its tests."""

    sweep_budget: int
    capture_budget: int
    serve_universe: int
    serve_requests: int
    serve_budget: int


SIZES = {
    "full": Size(sweep_budget=120_000, capture_budget=200_000,
                 serve_universe=300, serve_requests=5_000,
                 serve_budget=3_000),
    "tiny": Size(sweep_budget=2_000, capture_budget=3_000,
                 serve_universe=12, serve_requests=400, serve_budget=1_000),
}


def _engine_request(engine: str, target: str, selection: str,
                    geometry: str, near_block: bool, n_blocks: int,
                    rng: np.random.Generator):
    """Engine configuration of one stratum with seeded history and select
    tables, as a request template (analog and budget come per cell)."""
    from repro.serve import ServeRequest

    config = {"history_length": int(rng.integers(6, 13)),
              "target_kind": target, "near_block": near_block}
    if engine != "single":
        config["selection"] = selection
        config["n_select_tables"] = int(rng.integers(1, 9))
    return ServeRequest(workload="", engine=engine, geometry_kind=geometry,
                        n_blocks=n_blocks, config=config)


def engine_factory(request):
    """Picklable ``config -> engine`` callable for a request's engine."""
    from repro.core.dual import DualBlockEngine
    from repro.core.multi import MultiBlockEngine
    from repro.core.single import SingleBlockEngine

    if request.engine == "single":
        return SingleBlockEngine
    if request.engine == "multi":
        return functools.partial(MultiBlockEngine,
                                 n_blocks_per_cycle=request.n_blocks)
    return DualBlockEngine


def cell_key(template, analog: str, budget: int) -> str:
    """Reference key of one (configuration, analog, budget) cell."""
    return replace(template, workload=analog, budget=budget).canonical_json()


class Workload:
    name = ""

    def __init__(self, seed: int, units: int, size: Size,
                 cache_dir: Path) -> None:
        self.seed = seed
        self.units = units
        self.size = size
        self.cache_dir = cache_dir
        #: (reference key, payload) per output of the program
        self.outputs: List[Tuple[str, dict]] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def prepare(self) -> None:
        """Fill caches once, before any measured process starts."""

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the starting state between repetitions (untimed)."""

    def teardown(self) -> None:
        """Stop what setup started."""

    def run_once(self) -> List[Part]:
        raise NotImplementedError

    def collect(self) -> None:
        raise NotImplementedError

    def metrics(self, wall_s: float) -> Dict[str, float]:
        raise NotImplementedError

    def reference_keys(self) -> List[str]:
        return [key for key, _ in self.outputs]

    def check(self, refs: Dict[str, dict]) -> None:
        """Count every output that differs from its reference as failed."""
        from repro.serve import payload_digest

        expected = {k: payload_digest(v) for k, v in refs.items()}
        for key, payload in self.outputs:
            if payload_digest(payload) != expected[key]:
                self.failed += 1
                self.notes.append(f"output differs from reference: {key}")


class SweepWarm(Workload):
    """A seeded design-space sweep over all 18 analogs, warm cache."""

    name = "sweep-warm"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rng = np.random.default_rng([self.seed, 11])
        self.configs = []
        for _ in range(self.units):
            # The knobs that change an engine's cost are balanced within
            # each unit, so every seed does comparable work: geometries
            # rotate from a seeded offset, near-block is on for half the
            # strata, and the two multi-block strata get 3 and 4 blocks.
            offset = int(rng.integers(len(GEOMETRIES)))
            near = rng.permutation([True, False] * (len(STRATA) // 2))
            blocks = iter(rng.permutation([3, 4]))
            for i, stratum in enumerate(STRATA):
                n_blocks = int(next(blocks)) if stratum[0] == "multi" else 2
                self.configs.append(_engine_request(
                    *stratum, GEOMETRIES[(offset + i) % len(GEOMETRIES)],
                    bool(near[i]), n_blocks, rng))
        self.results: List[tuple] = []

    def _load_all(self) -> None:
        """Load every fetch input and compiled array a sweep can use, so
        the work does not depend on which geometries the seed drew."""
        import repro.workloads
        from repro.core import kernels
        from repro.serve import ServeRequest
        from repro.workloads import SPEC95

        budget = self.size.sweep_budget
        for kind in GEOMETRIES:
            geometry = ServeRequest(workload="",
                                    geometry_kind=kind).geometry()
            for analog in SPEC95:
                fetch_input = repro.workloads.load_fetch_input(
                    analog, geometry, budget)
                for near_block in (False, True):
                    kernels.compile_fetch_input(fetch_input, near_block)

    def prepare(self) -> None:
        self._load_all()

    def setup(self) -> None:
        import repro.experiments.common  # noqa: F401

        # A journal left by a killed run would resume cells and make this
        # run look faster; start without one (collect() checks too).
        shutil.rmtree(self.cache_dir / "journal", ignore_errors=True)
        self._load_all()

    def run_once(self) -> List[Part]:
        from repro.experiments import common
        from repro.runtime.executor import SuiteSpec

        budget = self.size.sweep_budget
        parts: List[Part] = []
        for i, template in enumerate(self.configs):
            specs = [SuiteSpec(suite=suite, config=template.engine_config(),
                               budget=budget,
                               engine_factory=engine_factory(template))
                     for suite in ("int", "fp")]
            with timed_part(parts):
                aggregates = common.run_suite_batch(
                    specs, label=f"perfbench-{self.seed}-{i}")
            self.results.append((template, aggregates))
        return parts

    def collect(self) -> None:
        from repro.runtime import resilience
        from repro.serve import stats_payload

        budget = self.size.sweep_budget
        self.instructions = 0
        for template, aggregates in self.results:
            for aggregate in aggregates:
                for analog, stats in aggregate.per_program.items():
                    self.outputs.append((cell_key(template, analog, budget),
                                         stats_payload(stats)))
                    self.instructions += stats.n_instructions
        self.attempted = 18 * len(self.results)
        self.failed += self.attempted - len(self.outputs)
        for report in resilience.drain_reports():
            if report.resumed_cells:
                self.failed += len(report.resumed_cells)
                self.notes.append(f"resumed cells: {report.summary()}")

    def metrics(self, wall_s: float) -> Dict[str, float]:
        per_run = self.instructions * len(self.configs) / len(self.results)
        return {"sim_minstr_per_s": per_run / wall_s / 1e6}


class CaptureCold(Workload):
    """First run after a checkout: capture, segment, compile, one engine."""

    name = "capture-cold"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.workloads import SPEC95

        rng = np.random.default_rng([self.seed, 12])
        self.order = [SPEC95[int(i)] for i in rng.permutation(len(SPEC95))]
        # The seed draws history and select tables.  Geometry, target
        # array, selection and near-block stay at the paper's dual-block
        # baseline on its best cache: they change how many blocks are
        # segmented and compiled and what the engine costs, and this
        # workload measures capture, not the engine.
        self.template = _engine_request("dual", "nls", "single", "align",
                                        False, 2, rng)
        self.results: List[tuple] = []

    def setup(self) -> None:
        # The modules the work imports up front; lazy imports stay in it.
        import repro.core.dual  # noqa: F401
        import repro.core.kernels  # noqa: F401
        import repro.workloads  # noqa: F401

        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def reset(self) -> None:
        import repro.workloads

        repro.workloads.clear_caches()  # cold again: memory and disk

    def run_once(self) -> List[Part]:
        import repro.workloads
        from repro.core import kernels
        from repro.core.dual import DualBlockEngine

        config = self.template.engine_config()
        budget = self.size.capture_budget
        parts: List[Part] = []
        for unit in range(self.units):
            if unit:
                self.reset()
            for analog in self.order:
                with timed_part(parts):
                    fetch_input = repro.workloads.load_fetch_input(
                        analog, config.geometry, budget)
                    kernels.compile_fetch_input(fetch_input,
                                                config.near_block)
                    stats = DualBlockEngine(config).run(fetch_input)
                self.results.append(
                    (analog, fetch_input.trace.n_instructions, stats))
        return parts

    def collect(self) -> None:
        from repro.serve import stats_payload

        budget = self.size.capture_budget
        self.traced = 0
        for analog, traced, stats in self.results:
            self.outputs.append((cell_key(self.template, analog, budget),
                                 stats_payload(stats)))
            self.traced += traced
        self.attempted = len(self.results)

    def metrics(self, wall_s: float) -> Dict[str, float]:
        per_run = self.traced * len(self.order) * self.units \
            / len(self.results)
        return {"trace_minstr_per_s": per_run / wall_s / 1e6}


@dataclass
class ServeRep:
    """One repetition of the request stream against a fresh service."""

    window: Tuple[float, float]
    responses: list
    latency: List[float]
    submitted_at: List[float]


class ServeZipf(Workload):
    """32 closed-loop callers against an in-process PredictionService."""

    name = "serve-zipf"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.serve.traffic import (TrafficModel, build_universe,
                                         request_stream)

        size = self.size
        self.universe = build_universe(self.seed, size.serve_universe,
                                       budget=size.serve_budget)
        self.stream = request_stream(
            TrafficModel(pattern="zipfian"), len(self.universe),
            size.serve_requests * self.units, self.seed)
        self.reps: List[ServeRep] = []
        self.served: List[Tuple[int, object]] = []

    def prepare(self) -> None:
        import repro.workloads

        for request in self.universe:
            repro.workloads.load_fetch_input(
                request.workload, request.geometry(), request.budget)

    def setup(self) -> None:
        from repro.serve import PredictionService

        self.loop = asyncio.new_event_loop()
        self.service = PredictionService()  # its defaults; store empty
        self.loop.run_until_complete(self.service.start())

    def teardown(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()

    def reset(self) -> None:
        self.teardown()
        self.setup()

    def run_once(self) -> List[Part]:
        parts: List[Part] = []
        with timed_part(parts):
            rep = self.loop.run_until_complete(self._drive())
        self.reps.append(rep)
        return parts

    async def _drive(self) -> ServeRep:
        n = len(self.stream)
        rep = ServeRep((0.0, 0.0), [None] * n, [0.0] * n, [0.0] * n)
        positions = iter(range(n))
        service, universe, stream = self.service, self.universe, self.stream

        async def caller() -> None:
            for pos in positions:
                request = universe[int(stream[pos])]
                start = time.perf_counter()
                rep.submitted_at[pos] = start
                response = await service.submit(request)
                rep.latency[pos] = time.perf_counter() - start
                rep.responses[pos] = response

        start = time.perf_counter()
        await asyncio.gather(*(caller() for _ in range(SERVE_CALLERS)))
        rep.window = (start, time.perf_counter())
        return rep

    def collect(self) -> None:
        self.attempted = len(self.stream) * len(self.reps)
        for rep in self.reps:
            for pos, response in enumerate(rep.responses):
                if response is None or not response.ok:
                    self.failed += 1
                    reason = getattr(response, "error_type", "no response")
                    self.notes.append(f"request {pos} not served: {reason}")
                else:
                    self.served.append((pos, response))

    def reference_keys(self) -> List[str]:
        return [self.universe[int(i)].canonical_json()
                for i in dict.fromkeys(self.stream.tolist())]

    def check(self, refs: Dict[str, dict]) -> None:
        from repro.serve import payload_digest

        expected = {k: payload_digest(v) for k, v in refs.items()}
        for pos, response in self.served:
            key = self.universe[int(self.stream[pos])].canonical_json()
            if response.payload_digest != expected[key]:
                self.failed += 1
                self.notes.append(f"request {pos}: payload digest differs")

    def latencies_ms(self) -> List[float]:
        return [1e3 * v for rep in self.reps for v in rep.latency]

    def metrics(self, wall_s: float) -> Dict[str, float]:
        from common import percentile

        ms = self.latencies_ms()
        return {"requests_per_s": len(self.stream) / wall_s,
                "latency_p50_ms": percentile(ms, 50),
                "latency_p99_ms": percentile(ms, 99)}

    def layers(self, spans) -> Dict[str, float]:
        """Per-layer numbers the responses carry (traced run)."""
        from common import median
        from repro.serve.requests import RUNG_CACHED, RUNG_FAST, RUNG_SCALAR

        by_rung: Dict[str, List[float]] = {}
        waits: List[float] = []
        deduped = 0
        for rep in self.reps:
            lo, hi = rep.window
            batch_start: Dict[str, float] = {}
            for span in spans:
                if (span.name == "runtime.resilience.batch" and span.ident
                        and lo <= span.start <= hi):
                    for digest in span.ident.split(","):
                        batch_start.setdefault(digest, span.start)
            for pos, r in enumerate(rep.responses):
                if r is None or not r.ok:
                    continue
                by_rung.setdefault(r.rung, []).append(1e3 * rep.latency[pos])
                deduped += r.deduped
                if (r.rung == RUNG_FAST and not r.deduped
                        and r.request_digest in batch_start):
                    waits.append(1e3 * (batch_start[r.request_digest]
                                        - rep.submitted_at[pos]))
        return {
            "serve.latency_p50_ms.cached":
                median(by_rung.get(RUNG_CACHED, [])),
            "serve.latency_p50_ms.fast": median(by_rung.get(RUNG_FAST, [])),
            "serve.queue_wait_ms.p50": median(waits),
            "serve.rung.fast": len(by_rung.get(RUNG_FAST, [])),
            "serve.rung.cached": len(by_rung.get(RUNG_CACHED, [])),
            "serve.rung.scalar": len(by_rung.get(RUNG_SCALAR, [])),
            "serve.deduped": deduped,
        }


WORKLOAD_CLASSES = {cls.name: cls for cls in (SweepWarm, CaptureCold,
                                               ServeZipf)}
