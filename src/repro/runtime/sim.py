"""Deterministic discrete-event simulation of the shard scheduler.

The scheduler of :mod:`repro.runtime.shard` is recovery logic, and
recovery logic exercised only by real processes is recovery logic
tested by luck: crashes land where the OS scheduler puts them, hangs
need wall-clock timeouts, and a failure seen once in CI may never
reproduce.  This module is the simulator-of-the-simulator: it drives
the *real* :class:`~repro.runtime.shard.ShardScheduler` — the same
class the process driver uses, byte for byte — through its injected
clock boundary, replacing workers with a seeded model (per-cell costs,
per-worker speeds, per-attempt crash/hang fates) and time with a
virtual clock advanced event by event.

Everything is derived from ``SimSpec.seed`` through string-seeded
``random.Random`` instances (stable across processes and
``PYTHONHASHSEED``), so a simulation is a pure function of its spec:
same spec, same event log, every time.  That turns scheduling
*invariants* into fast assertions (:func:`verify_invariants`):

* every cell completes exactly once (none lost, none duplicated), or is
  properly failed after its retry budget;
* steals only ever take from the longest queue, and only when the
  thief's home shards are empty — checked against the queue-depth
  snapshot recorded at each steal, not against trust;
* per-cell attempts never exceed ``retries + 1``;
* on fault-free uniform-speed runs, makespan stays within the greedy
  list-scheduling bound of twice the lower bound
  (:func:`makespan_lower_bound`).

Event traces serialize to JSON (:func:`save_trace`) and replay
bit-exact (:func:`replay_trace`), giving CI a replayable corpus: a
failing schedule uploads as an artifact and re-runs anywhere.

``python -m repro.runtime.sim --seeds N`` runs the seeded invariant
battery (crash, hang, straggler and steady scenarios per seed, each
simulated twice to prove determinism); ``--replay <trace.json>``
re-simulates a saved trace and diffs the event logs.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from . import shard
from .resilience import FAILED, CellOutcome

#: Trace schema version; readers refuse versions they do not understand.
TRACE_FORMAT = 1

COST_MODELS = ("uniform", "skewed", "bimodal")
SPEED_MODELS = ("uniform", "mixed")

#: Fixed backoff for simulated retries — deliberately *not* the
#: patchable constants of :mod:`repro.runtime.resilience`, so committed
#: traces stay stable when tests zero the real backoff.
_SIM_BACKOFF_BASE = 0.05
_SIM_BACKOFF_CAP = 2.0

#: Greedy list scheduling (work stealing never idles a worker while any
#: queue is non-empty) stays within ``sum/m + max <= 2x`` the lower
#: bound on uniform-speed fault-free runs.
MAKESPAN_FACTOR = 2.0


def _sim_backoff(attempts_done: int) -> float:
    return min(_SIM_BACKOFF_CAP, _SIM_BACKOFF_BASE * (2 ** attempts_done))


class SimSpecError(ValueError):
    """A simulation spec is internally inconsistent."""


@dataclass(frozen=True)
class SimSpec:
    """Everything that determines one simulated schedule.

    ``crash_rate`` / ``hang_rate`` are per-*attempt* probabilities: a
    crashed attempt dies partway through its cell, a hung attempt never
    finishes (so ``hang_rate > 0`` requires a ``timeout`` for the
    deadline kill to rescue it).  ``respawn_delay`` is the virtual time
    a killed worker takes to come back.
    """

    seed: int
    n_cells: int
    n_shards: int
    n_workers: int
    cost_model: str = "uniform"
    speed_model: str = "uniform"
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    retries: int = 2
    timeout: Optional[float] = None
    respawn_delay: float = 0.25

    def validate(self) -> None:
        if self.n_cells < 1:
            raise SimSpecError("n_cells must be >= 1")
        if self.n_shards < 1:
            raise SimSpecError("n_shards must be >= 1")
        if self.n_workers < 1:
            raise SimSpecError("n_workers must be >= 1")
        if self.cost_model not in COST_MODELS:
            raise SimSpecError(f"unknown cost model {self.cost_model!r}")
        if self.speed_model not in SPEED_MODELS:
            raise SimSpecError(
                f"unknown speed model {self.speed_model!r}")
        if not 0.0 <= self.crash_rate < 1.0:
            raise SimSpecError("crash_rate must be in [0, 1)")
        if not 0.0 <= self.hang_rate < 1.0:
            raise SimSpecError("hang_rate must be in [0, 1)")
        if self.crash_rate + self.hang_rate >= 1.0:
            raise SimSpecError("crash_rate + hang_rate must be < 1")
        if self.retries < 0:
            raise SimSpecError("retries must not be negative")
        if self.timeout is not None and self.timeout <= 0:
            raise SimSpecError("timeout must be positive")
        if self.hang_rate > 0 and self.timeout is None:
            raise SimSpecError(
                "hang_rate > 0 requires a timeout: a hung worker with "
                "no deadline would stall the schedule forever")
        if self.respawn_delay < 0:
            raise SimSpecError("respawn_delay must not be negative")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimSpec":
        known = set(cls.__dataclass_fields__)
        extra = sorted(set(data) - known)
        if extra:
            raise SimSpecError(f"unknown spec fields: {extra}")
        spec = cls(**data)
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# Seeded model derivations (pure functions of the spec)
# ----------------------------------------------------------------------

def cell_costs(spec: SimSpec) -> List[float]:
    """Per-cell virtual cost, derived from the seed."""
    rng = random.Random(f"{spec.seed}:costs")
    if spec.cost_model == "uniform":
        return [1.0] * spec.n_cells
    if spec.cost_model == "bimodal":
        return [8.0 if rng.random() < 0.1 else 1.0
                for _ in range(spec.n_cells)]
    # skewed: heavy-tailed cell costs, capped so one monster cell cannot
    # make the virtual schedule astronomically long.
    return [round(min(20.0, 0.25 + rng.paretovariate(1.3)), 6)
            for _ in range(spec.n_cells)]


def worker_speeds(spec: SimSpec) -> List[float]:
    """Per-worker speed factor (cells take ``cost / speed`` time)."""
    rng = random.Random(f"{spec.seed}:speeds")
    if spec.speed_model == "uniform":
        return [1.0] * spec.n_workers
    return [round(0.5 + 1.5 * rng.random(), 6)
            for _ in range(spec.n_workers)]


def attempt_fate(spec: SimSpec, cell: int, attempt: int,
                 worker: int) -> Tuple[str, float]:
    """Fate of one attempt: ``('ok'|'crash'|'hang', crash_fraction)``.

    Keyed by ``(seed, cell, attempt, worker)`` so fates are stable under
    schedule perturbations that keep an attempt on the same worker, and
    independent draws otherwise.
    """
    rng = random.Random(f"{spec.seed}:fate:{cell}:{attempt}:{worker}")
    draw = rng.random()
    if draw < spec.crash_rate:
        return "crash", rng.uniform(0.1, 0.9)
    if draw < spec.crash_rate + spec.hang_rate:
        return "hang", 0.0
    return "ok", 0.0


def makespan_lower_bound(spec: SimSpec) -> float:
    """Classic two-sided bound: total work / capacity vs. longest cell."""
    costs = cell_costs(spec)
    speeds = worker_speeds(spec)
    return max(sum(costs) / sum(speeds), max(costs) / max(speeds))


# ----------------------------------------------------------------------
# Events and results
# ----------------------------------------------------------------------

#: Event kinds, in the order they can occur for one assignment.
EVENT_KINDS = ("assign", "done", "crash", "timeout", "fail", "respawn")


@dataclass(frozen=True)
class SimEvent:
    """One scheduling event at one virtual instant."""

    kind: str
    time: float
    worker: int
    cell: int
    shard: int
    attempt: int
    stolen: bool

    def row(self) -> List[Any]:
        return [self.kind, self.time, self.worker, self.cell,
                self.shard, self.attempt, self.stolen]

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "SimEvent":
        kind, time, worker, cell, shard_id, attempt, stolen = row
        return cls(kind=str(kind), time=float(time), worker=int(worker),
                   cell=int(cell), shard=int(shard_id),
                   attempt=int(attempt), stolen=bool(stolen))


@dataclass
class SimResult:
    """Everything one simulation produced."""

    spec: SimSpec
    plan: shard.ShardPlan
    events: List[SimEvent]
    outcomes: List[CellOutcome]
    results: List[Any]
    steals: List[shard.StealRecord]
    completions: List[int]      #: per-cell completion count
    makespan: float
    interrupted: bool = False   #: stopped at ``stop_at`` mid-schedule

    @property
    def completed(self) -> List[int]:
        return [i for i, n in enumerate(self.completions) if n > 0]

    @property
    def failed(self) -> List[int]:
        return [i for i, o in enumerate(self.outcomes)
                if o.status == FAILED]

    def event_rows(self) -> List[List[Any]]:
        return [event.row() for event in self.events]


class _VirtualClock:
    """Monotone virtual time, advanced only by the event loop."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = t


def _default_result(index: int) -> Tuple[str, int]:
    return ("cell", index)


# ----------------------------------------------------------------------
# The simulation loop
# ----------------------------------------------------------------------

def simulate(spec: SimSpec, cells: Optional[Sequence] = None,
             execute: Optional[Callable[[Any], Any]] = None,
             done: Sequence[int] = (),
             stop_at: Optional[float] = None) -> SimResult:
    """Run one virtual schedule of the real scheduler under ``spec``.

    ``cells`` (default ``range(n_cells)``) feed the partitioner and, at
    each completion event, the optional ``execute`` callback — which is
    how :mod:`repro.qa` runs *real* sweep cells under simulated
    schedules.  ``done`` pre-marks cells as resumed from a previous run
    (the sweep journal, virtually); ``stop_at`` interrupts the
    schedule at a virtual instant, modelling a mid-sweep kill.
    """
    spec.validate()
    if cells is None:
        cells = list(range(spec.n_cells))
    if len(cells) != spec.n_cells:
        raise SimSpecError(
            f"got {len(cells)} cells for a spec with "
            f"n_cells={spec.n_cells}")
    costs = cell_costs(spec)
    speeds = worker_speeds(spec)
    plan = shard.partition(cells, spec.n_shards, costs=costs)
    outcomes = [CellOutcome(i) for i in range(spec.n_cells)]
    done_set = set(done)
    for index in done_set:
        outcomes[index].resumed = True
    pending = [i for i in range(spec.n_cells) if i not in done_set]
    clock = _VirtualClock()
    scheduler = shard.ShardScheduler(plan, pending, spec.n_workers,
                                     spec.retries, clock=clock.now,
                                     outcomes=outcomes,
                                     backoff=_sim_backoff)

    heap: List[Tuple[float, int, str, int]] = []
    seq = 0
    events: List[SimEvent] = []
    busy: Dict[int, shard.Assignment] = {}
    alive = [True] * spec.n_workers
    results: List[Any] = [None] * spec.n_cells
    completions = [0] * spec.n_cells
    interrupted = False

    def push(at: float, kind: str, worker: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (at, seq, kind, worker))
        seq += 1

    def emit(kind: str, assignment: shard.Assignment) -> None:
        events.append(SimEvent(
            kind=kind, time=clock.now(), worker=assignment.worker,
            cell=assignment.cell, shard=assignment.shard,
            attempt=assignment.attempt, stolen=assignment.stolen))

    def fill() -> None:
        for worker in range(spec.n_workers):
            if not alive[worker] or worker in busy:
                continue
            assignment = scheduler.acquire(worker)
            if assignment is None:
                continue
            busy[worker] = assignment
            emit("assign", assignment)
            fate, fraction = attempt_fate(spec, assignment.cell,
                                          assignment.attempt, worker)
            duration = costs[assignment.cell] / speeds[worker]
            if fate == "crash":
                push(clock.now() + duration * fraction, "crash", worker)
            elif fate == "hang":
                push(clock.now() + float(spec.timeout or 0.0),
                     "timeout", worker)
            elif spec.timeout is not None and duration > spec.timeout:
                # A cell genuinely slower than the deadline is killed at
                # the deadline, exactly like the real driver would.
                push(clock.now() + spec.timeout, "timeout", worker)
            else:
                push(clock.now() + duration, "done", worker)

    while True:
        fill()
        if scheduler.finished:
            break
        if not heap:
            ready_at = scheduler.next_ready_at()
            if ready_at is None:
                break  # wedged — verify_invariants will name the cells
            clock.advance_to(ready_at)
            continue
        at, _, kind, worker = heapq.heappop(heap)
        if stop_at is not None and at > stop_at:
            interrupted = True
            break
        clock.advance_to(at)
        if kind == "respawn":
            alive[worker] = True
            events.append(SimEvent(kind="respawn", time=at,
                                   worker=worker, cell=-1, shard=-1,
                                   attempt=0, stolen=False))
            continue
        assignment = busy.pop(worker)
        if kind == "done":
            scheduler.complete(worker)
            outcomes[assignment.cell].finish()
            completions[assignment.cell] += 1
            value = (execute(cells[assignment.cell])
                     if execute is not None
                     else _default_result(assignment.cell))
            results[assignment.cell] = value
            emit("done", assignment)
        else:  # crash | timeout: the worker is killed and respawned
            emit(kind, assignment)
            error = ("worker crashed mid-cell" if kind == "crash"
                     else f"cell exceeded {spec.timeout}s deadline")
            verdict = scheduler.fail(worker, error,
                                     timed_out=(kind == "timeout"))
            if verdict == shard.GAVE_UP:
                emit("fail", assignment)
            alive[worker] = False
            push(at + spec.respawn_delay, "respawn", worker)

    return SimResult(spec=spec, plan=plan, events=events,
                     outcomes=outcomes, results=results,
                     steals=list(scheduler.steals),
                     completions=completions, makespan=clock.now(),
                     interrupted=interrupted)


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------

def verify_invariants(result: SimResult) -> List[str]:
    """Scheduling-invariant violations in ``result`` (empty = clean)."""
    problems: List[str] = []
    spec = result.spec
    for index, outcome in enumerate(result.outcomes):
        n = result.completions[index]
        if outcome.resumed:
            if n != 0:
                problems.append(
                    f"cell {index} resumed from the journal yet "
                    f"re-executed {n} time(s)")
            continue
        if outcome.status == FAILED:
            if n != 0:
                problems.append(
                    f"cell {index} marked failed after {n} completion(s)")
            continue
        if n == 0 and not result.interrupted:
            problems.append(f"cell {index} lost: never completed")
        elif n > 1:
            problems.append(f"cell {index} duplicated: "
                            f"completed {n} times")
        if outcome.attempts > spec.retries + 1:
            problems.append(
                f"cell {index} ran {outcome.attempts} attempts "
                f"(budget {spec.retries + 1})")
    for record in result.steals:
        deepest = max(record.depths)
        if record.depths[record.shard] != deepest or deepest == 0:
            problems.append(
                f"steal of cell {record.cell} took from shard "
                f"{record.shard} (depth {record.depths[record.shard]}) "
                f"with queues {record.depths}: not the longest")
        homes = shard.home_shards(record.worker % spec.n_workers,
                                  result.plan.n_shards, spec.n_workers)
        busy_homes = [s for s in homes if record.depths[s] > 0]
        if busy_homes:
            problems.append(
                f"worker {record.worker} stole cell {record.cell} "
                f"while its home shard(s) {busy_homes} still had work")
    return problems


def check_resume_equivalence(spec: SimSpec, resume_shards: int,
                             cells: Optional[Sequence] = None,
                             execute: Optional[Callable] = None,
                             ) -> Optional[str]:
    """Kill a schedule mid-flight, resume with a *different* shard
    count, and require the merged results to match an uninterrupted run
    bit for bit.  Returns ``None`` on equivalence, else a reason.
    """
    full = simulate(spec, cells=cells, execute=execute)
    if full.failed:
        return None  # permanent failures make merge comparison moot
    partial = simulate(spec, cells=cells, execute=execute,
                       stop_at=full.makespan / 2)
    resumed_spec = dataclasses.replace(spec, n_shards=resume_shards)
    resumed = simulate(resumed_spec, cells=cells, execute=execute,
                       done=partial.completed)
    problems = verify_invariants(resumed)
    if problems:
        return f"resumed schedule violated invariants: {problems[0]}"
    merged = [partial.results[i] if partial.completions[i] else
              resumed.results[i] for i in range(spec.n_cells)]
    if merged != full.results:
        bad = next(i for i in range(spec.n_cells)
                   if merged[i] != full.results[i])
        return (f"cell {bad} merged differently after resume: "
                f"{merged[bad]!r} != {full.results[bad]!r}")
    return None


# ----------------------------------------------------------------------
# Replayable event traces
# ----------------------------------------------------------------------

def trace_payload(result: SimResult) -> Dict[str, Any]:
    """JSON document for one simulation's event trace."""
    return {
        "format": TRACE_FORMAT,
        "spec": result.spec.to_dict(),
        "events": result.event_rows(),
        "makespan": result.makespan,
        "n_steals": len(result.steals),
        "completed": result.completed,
        "failed": result.failed,
    }


def save_trace(result: SimResult, path: Union[str, Path]) -> Path:
    """Write one trace as pretty JSON; returns the path written."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trace_payload(result), indent=2,
                              sort_keys=True) + "\n", encoding="ascii")
    return out


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate one trace document."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(data, dict):
        raise SimSpecError(f"{path}: trace must be a JSON object")
    version = data.get("format")
    if version != TRACE_FORMAT:
        raise SimSpecError(
            f"{path}: unsupported trace format {version!r} "
            f"(this build reads format {TRACE_FORMAT})")
    data["spec"] = SimSpec.from_dict(dict(data.get("spec", {})))
    return data


def replay_trace(path: Union[str, Path]) -> Optional[str]:
    """Re-simulate a saved trace; ``None`` when it reproduces exactly."""
    data = load_trace(path)
    result = simulate(data["spec"])
    fresh = result.event_rows()
    saved = [SimEvent.from_row(row).row() for row in data["events"]]
    if fresh != saved:
        limit = min(len(fresh), len(saved))
        where = next((i for i in range(limit) if fresh[i] != saved[i]),
                     limit)
        return (f"event log diverged at event {where}: re-simulation "
                f"{fresh[where] if where < len(fresh) else '<end>'} vs "
                f"trace {saved[where] if where < len(saved) else '<end>'}")
    if result.makespan != data.get("makespan"):
        return (f"makespan diverged: re-simulation {result.makespan} "
                f"vs trace {data.get('makespan')}")
    return None


# ----------------------------------------------------------------------
# The seeded invariant battery (CI entry point)
# ----------------------------------------------------------------------

#: Scenario matrix every battery seed runs: steady-state, stragglers,
#: crash storms, and hangs rescued by deadline kills.
SCENARIOS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("steady", dict(n_cells=24, n_shards=4, n_workers=4)),
    ("skewed", dict(n_cells=32, n_shards=4, n_workers=3,
                    cost_model="skewed")),
    ("crashy", dict(n_cells=20, n_shards=4, n_workers=4,
                    crash_rate=0.25, retries=5)),
    ("hangy", dict(n_cells=16, n_shards=3, n_workers=4,
                   hang_rate=0.2, timeout=3.0, retries=5,
                   speed_model="mixed")),
)


def run_battery(seeds: int,
                traces_dir: Optional[Union[str, Path]] = None,
                log: Optional[Callable[[str], None]] = None,
                ) -> List[Tuple[str, int, str]]:
    """Run the invariant battery; returns ``(scenario, seed, problem)``
    violations (empty = clean).  Failing schedules are saved under
    ``traces_dir`` for replay.
    """
    say = log or (lambda _msg: None)
    violations: List[Tuple[str, int, str]] = []

    def flag(name: str, seed: int, problem: str,
             result: SimResult) -> None:
        violations.append((name, seed, problem))
        say(f"FAIL {name} seed {seed}: {problem}")
        if traces_dir is not None:
            path = Path(traces_dir) / f"sim-{name}-seed{seed}.json"
            save_trace(result, path)
            say(f"  trace written: {path}")

    for seed in range(seeds):
        for name, params in SCENARIOS:
            spec = SimSpec(seed=seed, **params)
            result = simulate(spec)
            for problem in verify_invariants(result):
                flag(name, seed, problem, result)
            rerun = simulate(spec)
            if rerun.event_rows() != result.event_rows():
                flag(name, seed,
                     "nondeterministic: two simulations of the same "
                     "spec produced different event logs", result)
            if name == "steady":
                bound = MAKESPAN_FACTOR * makespan_lower_bound(spec)
                if result.makespan > bound + 1e-9:
                    flag(name, seed,
                         f"makespan {result.makespan:.3f} exceeds "
                         f"{MAKESPAN_FACTOR}x lower bound "
                         f"{bound:.3f}", result)
            if name == "skewed":
                reason = check_resume_equivalence(
                    spec, resume_shards=spec.n_shards + 1)
                if reason is not None:
                    flag(name, seed, f"resume: {reason}", result)
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: seeded invariant battery, or single-trace replay."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.runtime.sim",
        description="Discrete-event testbed for the shard scheduler")
    parser.add_argument("--seeds", type=int, default=50,
                        help="seeds to sweep through the scenario "
                             "battery (default 50)")
    parser.add_argument("--traces", default=None, metavar="DIR",
                        help="directory for failing-schedule trace "
                             "artifacts")
    parser.add_argument("--replay", default=None, metavar="TRACE",
                        help="re-simulate one saved trace and diff "
                             "its event log instead of running the "
                             "battery")
    args = parser.parse_args(argv)

    if args.replay is not None:
        reason = replay_trace(args.replay)
        if reason is None:
            print(f"{args.replay}: replays bit-exact")
            return 0
        print(f"{args.replay}: {reason}")
        return 1

    violations = run_battery(args.seeds, traces_dir=args.traces,
                             log=print)
    n_runs = args.seeds * len(SCENARIOS)
    if violations:
        print(f"{len(violations)} invariant violation(s) across "
              f"{n_runs} simulated schedules")
        return 1
    print(f"{n_runs} simulated schedules ({args.seeds} seeds x "
          f"{len(SCENARIOS)} scenarios, each run twice): all "
          f"invariants hold")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
