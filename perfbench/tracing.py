"""In-memory spans around the program's layers, for the traced run only.

The benchmark never edits the program.  In a traced run it replaces a
handful of public functions and methods with thin wrappers, from its own
files, that record a :class:`Span` (name, start, end, parent, and the
cell, analog or request id) around each call; :meth:`Tracer.uninstall`
puts the originals back.  Spans stay in memory until the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover.  Per-layer times are sums of self times, so the layers of
one run add up to the time the top-level spans cover, with nothing
counted twice.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import median

#: Every engine/target pair the engines accept (multi is NLS-only).
ENGINE_TARGETS = (("single", "nls"), ("single", "btb"), ("dual", "nls"),
                  ("dual", "btb"), ("multi", "nls"))

#: Spans of the sweep loop that wrap whole timed parts (on sweep-warm a
#: part is exactly one ``run_suite_batch`` call, which runs its cells
#: through ``run_resilient``), so that coverage counting them is 1 by
#: construction; :func:`inner_coverage` leaves them out.
WRAPPER_SPANS = ("runtime.run_suite_batch", "runtime.resilience.batch")


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1                 #: index into the span list, -1 = root
    ident: str = ""                  #: cell, analog, request or batch id
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _io_counters() -> Tuple[int, int]:
    """Bytes this process has read and written (Linux ``/proc``)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            fields = dict(line.split(b":") for line in fh.read().splitlines())
        return int(fields[b"rchar"]), int(fields[b"wchar"])
    except (OSError, KeyError, ValueError):
        return 0, 0


class Tracer:
    """Records spans; installs and removes the layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ident: Optional[str] = None) -> int:
        """Open a span; without an ``ident`` it inherits its parent's."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if ident is None:
            ident = self.spans[parent].ident if parent >= 0 else ""
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               ident=ident))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span

    def call(self, name: str, fn: Callable, args, kwargs,
             ident: Optional[str] = None,
             after: Optional[Callable] = None, io: bool = False):
        """Run ``fn`` inside a span; ``after(span, result)`` adds attrs."""
        index = self.begin(name, ident)
        before = _io_counters() if io else None
        try:
            result = fn(*args, **kwargs)
        finally:
            span = self.end(index)
            if before is not None:
                read, written = _io_counters()
                span.attrs["bytes_read"] = read - before[0]
                span.attrs["bytes_written"] = written - before[1]
        if after is not None:
            after(span, result)
        return result

    # -- patching -------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def wrap(self, owner: object, attr: str, name, ident=None, after=None,
             io: bool = False) -> None:
        """Wrap ``owner.attr``; ``name``/``ident`` may be callables of the
        call's arguments."""
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                span_name = name(*args, **kwargs) if callable(name) else name
                span_id = ident(*args, **kwargs) if ident else None
                return tracer.call(span_name, original, args, kwargs,
                                   span_id, after, io)
            wrapper.__wrapped__ = original
            return wrapper

        self.patch(owner, attr, factory)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach."""
    import repro.cpu
    import repro.experiments.common as common
    import repro.runtime.cache as cache
    import repro.runtime.resilience as resilience
    import repro.workloads
    import repro.workloads.registry as registry
    from repro.core import kernels
    from repro.core.dual import DualBlockEngine
    from repro.core.multi import MultiBlockEngine
    from repro.core.single import SingleBlockEngine
    from repro.serve.requests import ServeRequest, execute_request_cell
    from repro.serve.store import ResultStore
    from repro.workloads.base import Workload

    tracer.wrap(repro.workloads, "load_fetch_input",
                "workloads.load_fetch_input",
                ident=lambda name, *a, **k: name)
    tracer.wrap(Workload, "build", "workloads.assemble",
                ident=lambda self: self.name)
    tracer.wrap(registry, "segment_blocks", "trace.segment",
                after=lambda span, blocks: span.attrs.update(
                    blocks=blocks.n_blocks))

    def count_hit(span, result):
        span.attrs["hit"] = result is not None

    for attr in ("load_trace", "load_blocks", "load_compiled"):
        tracer.wrap(cache, attr, "runtime.cache.load", after=count_hit,
                    io=True)
    for attr in ("store_trace", "store_blocks", "store_compiled"):
        tracer.wrap(cache, attr, "runtime.cache.store", io=True)
    tracer.wrap(kernels, "compile_fetch_input", "core.kernels.compile")

    def capture_factory(original):
        def capture_machine(program):
            machine = original(program)
            run = machine.run

            def traced_run(*args, **kwargs):
                return tracer.call(
                    "cpu.capture", run, args, kwargs,
                    after=lambda span, result: span.attrs.update(
                        instructions=result.trace.n_instructions))
            machine.run = traced_run
            return machine
        return capture_machine

    tracer.patch(repro.cpu, "capture_machine", capture_factory)

    for engine, cls in (("single", SingleBlockEngine),
                        ("dual", DualBlockEngine),
                        ("multi", MultiBlockEngine)):
        tracer.wrap(cls, "run",
                    lambda self, *a, _e=engine, **k:
                    f"core.engine.{_e}.{self.config.target_kind}",
                    after=lambda span, stats: span.attrs.update(
                        instructions=stats.n_instructions))

    tracer.wrap(common, "run_suite_batch", "runtime.run_suite_batch",
                ident=lambda specs, label=None: label or "")

    def batch_ident(fn, cells, *args, **kwargs) -> str:
        # A service batch names its requests, for queue-wait accounting.
        if fn is not execute_request_cell:
            return ""
        return ",".join(ServeRequest.from_dict(data).digest()
                        for data, _ in cells)

    def batch_attrs(span, sweep):
        span.attrs.update(cells=sweep.report.n_cells,
                          respawns=sweep.report.pool_respawns,
                          serve=bool(span.ident))

    tracer.wrap(resilience, "run_resilient", "runtime.resilience.batch",
                ident=batch_ident, after=batch_attrs)
    tracer.wrap(ResultStore, "get", "serve.store.get",
                ident=lambda self, digest, *a, **k: digest, after=count_hit)
    tracer.wrap(ResultStore, "put", "serve.store.put",
                ident=lambda self, digest, *a, **k: digest)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def union_length(intervals: Sequence[Tuple[float, float]],
                 lo: float = float("-inf"),
                 hi: float = float("inf")) -> float:
    """Total length covered by ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children(spans: Sequence[Span]) -> List[List[int]]:
    kids: List[List[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    kids = children(spans)
    out = []
    for i, span in enumerate(spans):
        covered = union_length([(spans[k].start, spans[k].end)
                                for k in kids[i]], span.start, span.end)
        out.append(span.duration - covered)
    return out


def descendants_covered(spans: Sequence[Span], index: int,
                        keep: Callable[[Span], bool]) -> float:
    """Time inside span ``index`` covered by descendants ``keep`` accepts
    (the topmost accepted span on each path)."""
    kids = children(spans)
    found: List[Tuple[float, float]] = []
    todo = list(kids[index])
    while todo:
        k = todo.pop()
        if keep(spans[k]):
            found.append((spans[k].start, spans[k].end))
        else:
            todo.extend(kids[k])
    parent = spans[index]
    return union_length(found, parent.start, parent.end)


def timed_coverage(spans: Sequence[Span],
                   windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the timed windows the spans cover.

    Equal to the sum of the self times inside the windows over their
    length, for properly nested spans.
    """
    length = sum(b - a for a, b in windows)
    if length <= 0:
        return 0.0
    intervals = [(s.start, s.end) for s in spans]
    return sum(union_length(intervals, a, b) for a, b in windows) / length


def inner_coverage(spans: Sequence[Span],
                   windows: Sequence[Tuple[float, float]]) -> float:
    """Share of the timed windows covered by spans below the wrappers:
    how much of the time the layers inside the sweep loop explain."""
    return timed_coverage([s for s in spans if s.name not in WRAPPER_SPANS],
                          windows)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(spans: Sequence[Span],
                  suites: Dict[str, str]) -> Dict[str, float]:
    """Per-layer numbers of one traced run, from its spans.

    Times are sums of self times (seconds).  ``suites`` maps an analog
    name to ``int`` or ``fp`` for the capture split.
    """
    selfs = self_times(spans)

    def total(name: str, where=lambda s: True) -> float:
        return sum(t for s, t in zip(spans, selfs)
                   if s.name == name and where(s))

    def attr(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    out: Dict[str, float] = {
        "workloads.assemble_s": total("workloads.assemble"),
        "workloads.load_fetch_input_s":
            total("workloads.load_fetch_input"),
    }
    capture_s = total("cpu.capture")
    out["cpu.capture_s"] = capture_s
    for suite in ("int", "fp"):
        out[f"cpu.capture_s.{suite}"] = total(
            "cpu.capture", lambda s, _x=suite: suites.get(s.ident) == _x)
    out["cpu.minstr_per_s"] = rate(attr("cpu.capture", "instructions") / 1e6,
                                   capture_s)
    segment_s = total("trace.segment")
    blocks = attr("trace.segment", "blocks")
    out.update({"trace.segment_s": segment_s, "trace.blocks": blocks,
                "trace.blocks_per_s": rate(blocks, segment_s)})
    out["runtime.cache.store_s"] = total("runtime.cache.store")
    out["runtime.cache.bytes_written"] = attr("runtime.cache.store",
                                              "bytes_written")
    loads = [s for s in spans if s.name == "runtime.cache.load"]
    out["runtime.cache.load_s"] = total("runtime.cache.load")
    out["runtime.cache.bytes_read"] = attr("runtime.cache.load",
                                           "bytes_read")
    out["runtime.cache.hit_share"] = rate(
        sum(1 for s in loads if s.attrs.get("hit")), len(loads))
    out["core.kernels.compile_s"] = total("core.kernels.compile")
    for engine, target in ENGINE_TARGETS:
        name = f"core.engine.{engine}.{target}"
        seconds = total(name)
        out[f"core.engine_s.{engine}.{target}"] = seconds
        out[f"core.engine_minstr_per_s.{engine}.{target}"] = rate(
            attr(name, "instructions") / 1e6, seconds)

    def cell_work(span: Span) -> bool:
        return (span.name.startswith("core.engine.")
                or span.name == "workloads.load_fetch_input")

    out["runtime.sweep_overhead_s"] = sum(
        s.duration - descendants_covered(spans, i, cell_work)
        for i, s in enumerate(spans) if s.name == "runtime.run_suite_batch")
    batches = [s for s in spans if s.name == "runtime.resilience.batch"
               and s.attrs.get("serve")]
    out["runtime.resilience.batches"] = len(batches)
    out["runtime.resilience.batch_s.p50"] = median(
        [s.duration for s in batches])
    out["runtime.resilience.pool_respawns"] = sum(
        s.attrs.get("respawns", 0) for s in batches)
    out["serve.batch_size_mean"] = rate(
        sum(s.attrs.get("cells", 0) for s in batches), len(batches))
    gets = [s for s in spans if s.name == "serve.store.get"]
    out["serve.store.hit_share"] = rate(
        sum(1 for s in gets if s.attrs.get("hit")), len(gets))
    return out
