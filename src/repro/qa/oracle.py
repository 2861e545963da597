"""The differential oracle: scalar vs fast, stats and state bit-exact.

One :func:`check_case` call runs a :class:`~repro.qa.cases.QACase`
through its engine twice — once with ``REPRO_ENGINE=scalar`` (the
reference loops) and once with ``REPRO_ENGINE=fast`` (the SoA kernels)
— on *fresh* engines, replaying the same :class:`FetchInput` ``repeats``
times on each so warm-table behaviour is covered too.  The verdict is
strict equality of:

* every per-run :class:`~repro.core.stats.FetchStats` (including the
  delivery timeline when recorded),
* the complete final predictor state (:func:`repro.qa.state.engine_state`),
* the recovery log, when the case tracks recovery.

An exception raised by either mode is itself a verdict: the oracle
captures it and reports the case as failing (a crash that only one mode
hits *is* a divergence).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional

from ..core.engine_mode import ENGINE_ENV
from ..cpu.tracer_switch import TRACER_ENV
from ..runtime.resilience import scoped_environ
from .cases import QACase, case_engine
from .state import describe_diff, engine_state, stats_snapshot

__all__ = ["ModeRun", "OracleVerdict", "engine_mode_env",
           "tracer_mode_env", "run_mode", "check_case",
           "check_tracer_parity"]


def engine_mode_env(mode: str) -> ContextManager[None]:
    """Temporarily pin ``REPRO_ENGINE`` to ``mode``."""
    return scoped_environ({ENGINE_ENV: mode})


def tracer_mode_env(mode: str) -> ContextManager[None]:
    """Temporarily pin ``REPRO_TRACER`` to ``mode``."""
    return scoped_environ({TRACER_ENV: mode})


@dataclass
class ModeRun:
    """Everything one engine mode produced for a case."""

    mode: str
    stats: List[Any] = field(default_factory=list)
    state: Optional[Dict[str, Any]] = None
    recovery_log: Optional[List[Any]] = None
    error: Optional[str] = None

    @property
    def crashed(self) -> bool:
        return self.error is not None


@dataclass
class OracleVerdict:
    """Outcome of one differential check."""

    case: QACase
    passed: bool
    reason: Optional[str] = None
    scalar: Optional[ModeRun] = None
    fast: Optional[ModeRun] = None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.case.label()}"
        if self.reason:
            text += f": {self.reason}"
        return text


def run_mode(case: QACase, mode: str) -> ModeRun:
    """Run ``case`` on a fresh engine under one ``REPRO_ENGINE`` mode."""
    run = ModeRun(mode=mode)
    try:
        with engine_mode_env(mode):
            engine = case_engine(case)
            fetch_input = case.fetch_input()
            for _ in range(case.repeats):
                if case.record_timeline:
                    stats = engine.run(fetch_input, record_timeline=True)
                else:
                    stats = engine.run(fetch_input)
                run.stats.append(stats)
            run.state = engine_state(engine)
            if case.track_recovery:
                run.recovery_log = list(engine.recovery_log)
    except Exception:
        run.error = traceback.format_exc(limit=8)
    return run


def _compare_runs(verdict: OracleVerdict, reference: ModeRun,
                  candidate: ModeRun) -> bool:
    """Fold a reference/candidate comparison into ``verdict``.

    Returns False (and marks the verdict failed) on the first
    divergence; crash handling mirrors the scalar-vs-fast contract.
    """
    who = candidate.mode
    if reference.crashed and candidate.crashed:
        ref_last = reference.error.strip().splitlines()[-1] \
            if reference.error else ""
        cand_last = candidate.error.strip().splitlines()[-1] \
            if candidate.error else ""
        if ref_last != cand_last:
            verdict.passed = False
            verdict.reason = (f"modes crashed differently: "
                              f"{reference.mode} {ref_last!r} vs "
                              f"{who} {cand_last!r}")
            return False
        return True
    if reference.crashed or candidate.crashed:
        crashed = reference if reference.crashed else candidate
        verdict.passed = False
        verdict.reason = (f"{crashed.mode} mode crashed: "
                          + (crashed.error or "").strip()
                          .splitlines()[-1])
        return False

    for i, (s, f) in enumerate(zip(reference.stats, candidate.stats)):
        if s != f:
            verdict.passed = False
            diff = describe_diff(stats_snapshot(s), stats_snapshot(f),
                                 label=f"{who} stats[{i}]")
            verdict.reason = diff or f"{who} stats[{i}] differ"
            return False

    state_diff = describe_diff(reference.state, candidate.state,
                               label=f"{who} state")
    if state_diff is not None:
        verdict.passed = False
        verdict.reason = state_diff
        return False

    if verdict.case.track_recovery \
            and reference.recovery_log != candidate.recovery_log:
        verdict.passed = False
        verdict.reason = describe_diff(reference.recovery_log,
                                       candidate.recovery_log,
                                       label=f"{who} recovery_log") \
            or f"{who} recovery logs differ"
        return False
    return True


def check_case(case: QACase) -> OracleVerdict:
    """Differential verdict for one case (never raises for a finding)."""
    scalar = run_mode(case, "scalar")
    fast = run_mode(case, "fast")
    verdict = OracleVerdict(case=case, passed=True, scalar=scalar,
                            fast=fast)

    # Both modes rejecting/crashing identically is not a parity break;
    # it usually means the generator produced a config the engine
    # legitimately refuses.  Crash handling (including the both-crashed
    # traceback comparison) lives in _compare_runs.
    _compare_runs(verdict, scalar, fast)
    return verdict


# ----------------------------------------------------------------------
# Trace-capture parity: scalar interpreter vs tiered fast tracer
# ----------------------------------------------------------------------

def _capture(case: QACase, program) -> Dict[str, Any]:
    """One capture of ``case``'s program under the ambient tracer."""
    from ..cpu import capture_machine

    machine = capture_machine(program)
    result = machine.run(max_instructions=case.budget)
    return {"machine": machine, "result": result}


def check_tracer_parity(case: QACase) -> Optional[str]:
    """Bit-exact capture parity for ``case``'s program, or a reason.

    Runs the case's synthetic workload through both ``REPRO_TRACER``
    modes and compares the full observable outcome: every trace record
    (pc, kind, direction, target), the run counters, and the
    architectural end state (all 32 registers and the data memory).  A crash that only
    one mode hits is itself a finding; identical faults pass.
    """
    import numpy as np

    from .generators import build_family_program

    program = build_family_program(case.family, case.params)
    runs: Dict[str, Any] = {}
    errors: Dict[str, str] = {}
    for mode in ("scalar", "fast"):
        with tracer_mode_env(mode):
            try:
                runs[mode] = _capture(case, program)
            except Exception as exc:
                errors[mode] = f"{type(exc).__name__}: {exc}"
    if errors:
        if set(errors) == {"scalar", "fast"}:
            if errors["scalar"] != errors["fast"]:
                return (f"tracers crashed differently: scalar "
                        f"{errors['scalar']!r} vs fast "
                        f"{errors['fast']!r}")
            return None
        mode, message = next(iter(errors.items()))
        return f"{mode} tracer crashed alone: {message}"

    scalar, fast = runs["scalar"], runs["fast"]
    s_res, f_res = scalar["result"], fast["result"]
    for field_name in ("instructions", "halted"):
        a = getattr(s_res, field_name)
        b = getattr(f_res, field_name)
        if a != b:
            return f"RunResult.{field_name}: scalar {a} vs fast {b}"
    s_tr, f_tr = s_res.trace, f_res.trace
    if (s_tr.entry_pc, s_tr.n_instructions, s_tr.truncated) \
            != (f_tr.entry_pc, f_tr.n_instructions, f_tr.truncated):
        return (f"trace header differs: scalar "
                f"({s_tr.entry_pc}, {s_tr.n_instructions}, "
                f"{s_tr.truncated}) vs fast ({f_tr.entry_pc}, "
                f"{f_tr.n_instructions}, {f_tr.truncated})")
    for field_name in ("pc", "kind", "taken", "target"):
        a = getattr(s_tr, field_name)
        b = getattr(f_tr, field_name)
        if not np.array_equal(np.asarray(a), np.asarray(b)):
            first = int(np.flatnonzero(
                np.asarray(a) != np.asarray(b))[0])
            return (f"trace.{field_name} diverges at record {first}: "
                    f"scalar {a[first]} vs fast {b[first]}")

    s_m, f_m = scalar["machine"], fast["machine"]
    if s_m.regs != f_m.regs:
        bad = next(i for i in range(32)
                   if s_m.regs[i] != f_m.regs[i])
        return (f"register r{bad} differs: scalar {s_m.regs[bad]} "
                f"vs fast {f_m.regs[bad]}")
    if s_m.mem != f_m.mem:
        addr = next(i for i, (a, b) in enumerate(zip(s_m.mem, f_m.mem))
                    if a != b)
        return (f"mem[{addr}] differs: scalar {s_m.mem[addr]} "
                f"vs fast {f_m.mem[addr]}")
    return None
