"""Workload abstraction and registration.

A workload is a program in the tiny ISA standing in for one SPEC95 benchmark
(the paper's input set, which we cannot run without SPARC binaries and
Shade).  Each analog is a *real program* — hashing, searching, interpreting,
stencil sweeps — chosen so its dynamic control flow has the character of the
benchmark it replaces: integer codes are irregular and data-dependent,
floating-point codes are dominated by long counted loops.

Workloads are registered by module import (see :mod:`repro.workloads`); the
registry caches built programs and executed traces per process so parameter
sweeps do not re-run the interpreter.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..isa.program import Program, StaticCode
from ..trace.record import Trace

SUITE_INT = "int"
SUITE_FP = "fp"
#: Non-SPEC workloads: registered (and covered by every parity suite)
#: but outside the paper's Figure 9 program lists.
SUITE_EXTRA = "extra"

_SUITES = (SUITE_INT, SUITE_FP, SUITE_EXTRA)

#: Bound on the in-memory trace cache, LRU like the fetch-input cache of
#: :mod:`repro.workloads.registry`.  A long-lived service worker sees
#: every (workload, budget) its callers ask for, so an unbounded cache
#: would grow for as long as the service runs; an evicted trace reloads
#: from the persistent disk cache.
TRACE_CACHE_MAX = 64

@dataclass(frozen=True)
class Workload:
    """One registered benchmark analog.

    Attributes:
        name: the SPEC95 program this stands in for (e.g. ``compress``).
        suite: ``"int"`` (SPECint95) or ``"fp"`` (SPECfp95).
        description: one line on what the analog computes and why its
            control flow matches the original's character.
        builder: zero-argument callable producing the program.
    """

    name: str
    suite: str
    description: str
    builder: Callable[[], Program]

    def build(self) -> Program:
        """Assemble the workload program (uncached)."""
        program = self.builder()
        return program


class WorkloadRegistry:
    """Name -> workload mapping with program/trace caches."""

    def __init__(self) -> None:
        self._workloads: Dict[str, Workload] = {}
        self._programs: Dict[str, Program] = {}
        self._static: Dict[str, StaticCode] = {}
        self._traces: "OrderedDict[Tuple[str, int], Trace]" = \
            OrderedDict()
        self._digests: Dict[str, str] = {}

    def register(self, name: str, suite: str,
                 description: str) -> Callable:
        """Decorator registering a builder function as a workload."""
        if suite not in _SUITES:
            raise ValueError(f"unknown suite: {suite!r}")

        def wrap(builder: Callable[[], Program]) -> Callable[[], Program]:
            """Register ``builder`` under the decorator's name."""
            if name in self._workloads:
                raise ValueError(f"duplicate workload: {name!r}")
            self._workloads[name] = Workload(name, suite, description,
                                             builder)
            return builder

        return wrap

    def get(self, name: str) -> Workload:
        """Look up a workload, raising KeyError with the known names."""
        try:
            return self._workloads[name]
        except KeyError:
            known = ", ".join(sorted(self._workloads))
            raise KeyError(f"unknown workload {name!r}; known: {known}") \
                from None

    def names(self, suite: Optional[str] = None) -> List[str]:
        """Registered workload names, optionally filtered by suite."""
        return sorted(n for n, w in self._workloads.items()
                      if suite is None or w.suite == suite)

    def program(self, name: str) -> Program:
        """Build (and cache) the workload's program."""
        if name not in self._programs:
            self._programs[name] = self.get(name).build()
        return self._programs[name]

    def static_code(self, name: str) -> StaticCode:
        """The program's static code map, built once and shared.

        Every (analog, geometry) fetch input of one program holds this
        same object, so its arrays are frozen read-only: no consumer
        may mutate them.
        """
        if name not in self._static:
            static = self.program(name).static_code()
            static.kind.setflags(write=False)
            static.direct_target.setflags(write=False)
            self._static[name] = static
        return self._static[name]

    def digest(self, name: str) -> str:
        """Content hash of the workload's assembled program.

        Keys the persistent cache: editing an analog's code changes its
        digest and silently invalidates every cached artifact.
        """
        if name not in self._digests:
            from ..runtime import cache as disk_cache

            self._digests[name] = disk_cache.program_digest(
                self.program(name))
        return self._digests[name]

    def trace(self, name: str, max_instructions: int) -> Trace:
        """Execute (and cache) the workload's trace.

        Capture goes through the tracer selected by ``REPRO_TRACER``
        (:func:`repro.cpu.capture_machine`).  Traces are memoised per
        process and, unless disabled via ``REPRO_CACHE_DIR``, persisted
        by :mod:`repro.runtime.cache` so repeated invocations — including
        parallel sweep workers — skip the interpreter entirely.  Entries
        are keyed by the program digest, so a rebuilt workload recaptures
        instead of being served a stale trace.  The in-memory layer is
        LRU-bounded at :data:`TRACE_CACHE_MAX`.
        """
        from ..runtime import cache as disk_cache, profile

        key = (name, max_instructions)
        if key in self._traces:
            self._traces.move_to_end(key)
        else:
            with profile.phase("trace"):
                trace = disk_cache.load_trace(name, max_instructions,
                                              self.digest(name))
                if trace is None:
                    from ..cpu import capture_machine

                    program = self.program(name)
                    trace = capture_machine(program).run(
                        max_instructions=max_instructions).trace
                    disk_cache.store_trace(trace, name, max_instructions,
                                           self.digest(name))
                self._traces[key] = trace
            while len(self._traces) > TRACE_CACHE_MAX:
                self._traces.popitem(last=False)
        return self._traces[key]

    def clear_caches(self) -> None:
        """Drop cached programs, static maps, traces and digests (tests)."""
        self._programs.clear()
        self._static.clear()
        self._traces.clear()
        self._digests.clear()


#: The process-wide registry the workload modules register into.
REGISTRY = WorkloadRegistry()
