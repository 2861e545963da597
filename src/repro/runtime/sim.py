"""Deterministic discrete-event simulation of the shard scheduler.

The scheduler of :mod:`repro.runtime.shard` is recovery logic, and
recovery logic exercised only by real processes is recovery logic
tested by luck: crashes land where the OS scheduler puts them, hangs
need wall-clock timeouts, and a failure seen once in CI may never
reproduce.  This module is the simulator-of-the-simulator: it runs
:func:`repro.runtime.shard.drive`, the dispatch loop of every real
sweep (retries, deadline kills, respawn budget and serial degrade
included), on seeded workers instead of processes (per-cell costs,
per-worker speeds, per-attempt crash/hang fates, a respawn delay) and
a virtual clock advanced event by event.  A degraded schedule finishes
on the real in-process worker, where a crash or hang fate raises.

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
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from . import shard
from .faults import FaultInjected
from .resilience import FAILED, CellOutcome, SweepReport

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
EVENT_KINDS = ("assign", "done", "error", "crash", "timeout", "fail",
               "respawn", "degrade")


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


class _Stopped(Exception):
    """The schedule reached its ``stop_at`` instant."""


class _SimWorkers:
    """The spec's seeded workers on a virtual clock, a drive() set.

    A cell takes ``cost / speed`` under its attempt's fate: a crash
    dies partway through, a hang never ends and is left to the
    deadline, and a killed worker is back after ``respawn_delay``.
    Time ``now`` only moves forward; moving past ``stop_at`` stops the
    schedule.
    """

    def __init__(self, spec: SimSpec, costs: List[float],
                 run: Callable[[int], Any], emit: Callable,
                 stop_at: Optional[float]) -> None:
        self.spec, self.costs, self.run, self.emit = spec, costs, run, emit
        self.size, self.deadline = spec.n_workers, spec.timeout
        self.speeds = worker_speeds(spec)
        self.now, self.stop_at = 0.0, stop_at
        self.down: set = set()
        #: worker -> (at, seq, kind, cell): its one pending event, where
        #: seq breaks ties in the order the events were set.
        self._next: Dict[int, Tuple[float, int, str, int]] = {}
        self._seq = 0

    def reach(self, at: float) -> None:
        if self.stop_at is not None and at > self.stop_at:
            raise _Stopped
        self.now = max(self.now, at)

    def _set(self, worker: int, at: float, kind: str, cell: int) -> None:
        self._seq += 1
        self._next[worker] = (at, self._seq, kind, cell)

    def start(self, worker: int, assignment: shard.Assignment) -> bool:
        fate, fraction = attempt_fate(self.spec, assignment.cell,
                                      assignment.attempt, worker)
        duration = self.costs[assignment.cell] / self.speeds[worker]
        if fate == "ok":
            self._set(worker, self.now + duration, "done",
                      assignment.cell)
        elif fate == "crash":
            self._set(worker, self.now + duration * fraction,
                      "crash", assignment.cell)
        return True  # a hang sets nothing: only the deadline ends it

    def wait(self, until: Optional[float]) -> List[Tuple[int, str, Any]]:
        if self._next:
            worker = min(self._next, key=self._next.__getitem__)
            at, _, kind, cell = self._next[worker]
            if until is None or at <= until:
                self.reach(at)
                del self._next[worker]
                if kind == "respawn":
                    self.down.discard(worker)
                    self.emit("respawn", None, worker)
                    return []
                return [(worker, kind, self.run(cell) if kind == "done"
                         else "worker crashed mid-cell")]
        self.reach(until)
        return []

    def kill(self, worker: int) -> None:
        self.down.add(worker)
        self._set(worker, self.now + self.spec.respawn_delay,
                  "respawn", -1)


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
    plan = shard.partition(cells, spec.n_shards, costs=costs)
    outcomes = [CellOutcome(i) for i in range(spec.n_cells)]
    done_set = set(done)
    for index in done_set:
        outcomes[index].resumed = True
    pending = [i for i in range(spec.n_cells) if i not in done_set]
    events: List[SimEvent] = []
    results: List[Any] = [None] * spec.n_cells
    completions = [0] * spec.n_cells

    def emit(kind: str, a: Optional[shard.Assignment],
             worker: int = -1) -> None:
        row = ((a.worker, a.cell, a.shard, a.attempt, a.stolen) if a
               else (worker, -1, -1, 0, False))
        events.append(SimEvent(kind, workers.now, *row))

    def run(index: int) -> Any:
        return (execute(cells[index]) if execute is not None
                else ("cell", index))

    def run_in_process(assignment: shard.Assignment) -> Any:
        # The serial finisher, at unit speed: a crash or hang fate
        # raises at once, as an injected fault does in-process.
        if attempt_fate(spec, assignment.cell, assignment.attempt,
                        0)[0] != "ok":
            raise FaultInjected(f"injected fault: cell {assignment.cell}")
        workers.reach(workers.now + costs[assignment.cell])
        return run(assignment.cell)

    def record(index: int, _value: Any) -> None:
        completions[index] += 1

    workers = _SimWorkers(spec, costs, run, emit, stop_at)
    scheduler = shard.ShardScheduler(plan, pending, spec.n_workers,
                                     spec.retries,
                                     clock=lambda: workers.now,
                                     outcomes=outcomes,
                                     backoff=_sim_backoff)
    report = SweepReport(label=None, n_cells=spec.n_cells,
                         jobs=spec.n_workers, outcomes=outcomes)
    try:
        shard.drive(scheduler, workers,
                    shard.InProcessWorker(run_in_process), report,
                    results, record, emit, sleep=workers.reach)
        interrupted = False
    except _Stopped:
        interrupted = True
    return SimResult(spec=spec, plan=plan, events=events,
                     outcomes=outcomes, results=results,
                     steals=list(scheduler.steals),
                     completions=completions, makespan=workers.now,
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
