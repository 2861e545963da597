"""Typed request/response model for the prediction service.

A :class:`ServeRequest` is one prediction-sweep cell — (workload,
geometry, predictor configuration) — expressed entirely in JSON-safe
scalars, exactly like :class:`repro.qa.cases.QACase`: it round-trips
through JSON, has a stable content digest (the service's cache key and
single-flight identity), and rebuilds the simulated objects on demand.

A :class:`ServeResponse` is the service's *only* way to answer: every
completed request carries the canonical statistics payload plus its
digest (so chaos campaigns can compare it bit-for-bit against a
fault-free oracle), and every non-served outcome carries a typed
``error_type`` — the service never returns an untyped failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.config import EngineConfig
from ..core.dual import DualBlockEngine
from ..core.multi import MultiBlockEngine
from ..core.single import SingleBlockEngine
from ..core.stats import FetchStats
from ..core.two_ahead import TwoBlockAheadEngine
from ..icache.geometry import CacheGeometry
from ..runtime import faults

#: Engines a request may name, matching :data:`repro.qa.cases.ENGINE_KINDS`.
ENGINE_KINDS: Tuple[str, ...] = ("single", "dual", "multi", "two_ahead")

#: Cache geometries by CLI name.
GEOMETRY_KINDS: Tuple[str, ...] = ("normal", "extend", "align")

#: Response statuses.
SERVED = "served"
FAILED = "failed"
SHED = "shed"

#: Degradation-ladder rungs, in order of preference.
RUNG_FAST = "fast"
RUNG_SCALAR = "scalar"
RUNG_CACHED = "cached"
RUNG_SHED = "shed"


#: The exact value types a request's ``config`` may hold.  Exact, not
#: ``isinstance``: an ``int`` subclass would encode like an ``int`` but
#: could rebuild a different config, and the digest must pin the request.
_CONFIG_TYPES = (bool, int, float, str, type(None))


class RequestError(ValueError):
    """A request that cannot be decoded, validated, or rebuilt."""


class ServiceOverload(RuntimeError):
    """Typed admission rejection: the bounded queue is full.

    Carries a ``retry_after`` hint (seconds) derived from the queue
    depth and the service's moving estimate of per-request service time,
    so well-behaved clients can back off instead of hammering.
    """

    def __init__(self, retry_after: float, queue_depth: int) -> None:
        self.retry_after = retry_after
        self.queue_depth = queue_depth
        super().__init__(
            f"admission queue full ({queue_depth} requests waiting); "
            f"retry after {retry_after:.2f}s")


@dataclass(frozen=True)
class ServeRequest:
    """One prediction request: a (workload, geometry, config) cell.

    Construction checks every field's type exactly (a ``bool`` is no
    ``int`` size), so equal canonical JSON means an equal request.

    Attributes:
        workload: registered workload name (SPEC95 analogs plus the
            analytic ``kmp`` family).
        engine: one of :data:`ENGINE_KINDS`.
        geometry_kind: ``normal`` / ``extend`` / ``align``.
        block_width: fetch-block width the geometry is built for.
        budget: dynamic-instruction budget for the workload trace.
        n_blocks: blocks per cycle (``multi`` engine only).
        config: keyword overrides applied on top of the default
            :class:`EngineConfig`: ``str`` keys, and values whose type
            is exactly ``bool``, ``int``, ``float``, ``str`` or ``None``
            (anything else is a :class:`RequestError`).
    """

    workload: str
    engine: str = "dual"
    geometry_kind: str = "align"
    block_width: int = 8
    budget: int = 4000
    n_blocks: int = 2
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.workload) is not str:
            raise RequestError(f"workload must be a str: {self.workload!r}")
        for name in ("block_width", "budget", "n_blocks"):
            if type(getattr(self, name)) is not int:
                raise RequestError(
                    f"{name} must be an int: {getattr(self, name)!r}")
        if self.engine not in ENGINE_KINDS:
            raise RequestError(f"unknown engine kind: {self.engine!r}")
        if self.geometry_kind not in GEOMETRY_KINDS:
            raise RequestError(
                f"unknown geometry kind: {self.geometry_kind!r}")
        if self.budget < 100:
            raise RequestError("budget must be >= 100 instructions")
        if self.n_blocks < 1:
            raise RequestError("n_blocks must be >= 1")
        if not isinstance(self.config, dict):
            raise RequestError("config must be a dict of overrides")
        for key, value in self.config.items():
            if type(key) is not str or type(value) not in _CONFIG_TYPES:
                raise RequestError(
                    f"config must map str keys to bool, int, float, str "
                    f"or None; got {key!r}: {value!r}")

    # ------------------------------------------------------------------
    # Construction of the simulated objects
    # ------------------------------------------------------------------

    def geometry(self) -> CacheGeometry:
        """The cache geometry this request runs under."""
        if self.geometry_kind == "extend":
            return CacheGeometry.extended(self.block_width)
        if self.geometry_kind == "align":
            return CacheGeometry.self_aligned(self.block_width)
        return CacheGeometry.normal(self.block_width)

    def engine_config(self) -> EngineConfig:
        """Build the :class:`EngineConfig`, validating the overrides."""
        try:
            return replace(EngineConfig(geometry=self.geometry()),
                           **dict(self.config))
        except (TypeError, ValueError) as exc:
            raise RequestError(f"invalid engine config: {exc}") from exc

    def build_engine(self) -> Any:
        """Construct a fresh engine of the requested kind."""
        config = self.engine_config()
        try:
            if self.engine == "single":
                return SingleBlockEngine(config)
            if self.engine == "dual":
                return DualBlockEngine(config)
            if self.engine == "multi":
                return MultiBlockEngine(config, self.n_blocks)
            return TwoBlockAheadEngine(config)
        except ValueError as exc:
            raise RequestError(
                f"engine rejected the config: {exc}") from exc

    def validate(self) -> None:
        """Raise :class:`RequestError` unless this request can run."""
        from ..workloads import workload_names

        if self.workload not in workload_names():
            raise RequestError(f"unknown workload: {self.workload!r}")
        self.build_engine()

    def run(self) -> FetchStats:
        """Execute the request (trace + segmentation come from cache)."""
        from ..workloads import load_fetch_input

        fetch_input = load_fetch_input(self.workload, self.geometry(),
                                       self.budget)
        stats: FetchStats = self.build_engine().run(fetch_input)
        return stats

    # ------------------------------------------------------------------
    # JSON round-trip and content identity
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar dictionary in field order.

        Equal to ``dataclasses.asdict(self)``: the config holds only
        scalars, so a shallow copy is a full one.
        """
        return {"workload": self.workload, "engine": self.engine,
                "geometry_kind": self.geometry_kind,
                "block_width": self.block_width, "budget": self.budget,
                "n_blocks": self.n_blocks, "config": dict(self.config)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeRequest":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {name for name in cls.__dataclass_fields__}
        extra = sorted(set(data) - known)
        if extra:
            raise RequestError(f"unknown request fields: {extra}")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise RequestError(f"malformed request: {exc}") from exc

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self, length: int = 16) -> str:
        """Stable content digest: the service's cache and dedup key."""
        sha = hashlib.sha256(self.canonical_json().encode("ascii"))
        return sha.hexdigest()[:length]

    def label(self) -> str:
        """Short human-readable identity for logs."""
        blocks = f"x{self.n_blocks}" if self.engine == "multi" else ""
        return (f"{self.workload}/{self.engine}{blocks}"
                f"/{self.geometry_kind}-B{self.block_width}"
                f"/{self.digest(8)}")


# ----------------------------------------------------------------------
# Canonical result payloads
# ----------------------------------------------------------------------

def stats_payload(stats: FetchStats) -> Dict[str, Any]:
    """Canonical JSON-safe encoding of a :class:`FetchStats`.

    Event maps are keyed by the :class:`PenaltyKind` value strings and
    emitted in sorted order, so two bit-identical runs always produce
    byte-identical canonical JSON — the property the chaos oracle and
    the result store's checksums both rest on.
    """
    counts = {kind.value: int(n) for kind, n in stats.event_counts.items()}
    cycles = {kind.value: int(n) for kind, n in stats.event_cycles.items()}
    timeline = (None if stats.timeline is None
                else [int(n) for n in stats.timeline])
    return {
        "n_blocks": int(stats.n_blocks),
        "n_instructions": int(stats.n_instructions),
        "n_branches": int(stats.n_branches),
        "n_cond": int(stats.n_cond),
        "base_cycles": int(stats.base_cycles),
        "event_counts": dict(sorted(counts.items())),
        "event_cycles": dict(sorted(cycles.items())),
        "timeline": timeline,
    }


def payload_json(payload: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding of a result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical payload encoding (full hex digest)."""
    return hashlib.sha256(payload_json(payload).encode("ascii")).hexdigest()


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

@dataclass
class ServeResponse:
    """The service's answer to one request — always typed.

    ``status`` is ``served`` (payload present, bit-exact), ``failed``
    (typed ``error_type`` + message), or ``shed`` (load-shedding or an
    open circuit breaker refused the work; ``retry_after`` hints when
    to come back).  ``rung`` records which step of the degradation
    ladder produced a served answer: ``fast`` (vectorized engine in a
    worker), ``scalar`` (reference engine in-process), or ``cached``
    (content-addressed result store).
    """

    request_digest: str
    workload: str
    status: str
    rung: str = ""
    cache_hit: bool = False
    deduped: bool = False
    attempts: int = 0
    error_type: str = ""
    error: str = ""
    retry_after: float = 0.0
    latency_s: float = 0.0
    payload: Optional[Dict[str, Any]] = None
    payload_digest: str = ""

    @property
    def ok(self) -> bool:
        """True when the request was served with a payload."""
        return self.status == SERVED

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary (for the TCP frontend and drivers)."""
        return asdict(self)


# ----------------------------------------------------------------------
# The worker-side cell body
# ----------------------------------------------------------------------

def execute_request_cell(cell: Tuple[Dict[str, Any], int],
                         ) -> Dict[str, Any]:
    """Run one request inside a sweep worker (picklable, top-level).

    The cell carries the request as a plain dictionary plus the
    service-level attempt number the batch starts at, so ``fail``
    request faults gate on service attempts exactly like cell faults
    gate on executor attempts.  Any exception becomes a typed failure
    payload — never a resilience-level retry, which is reserved for
    the crash/hang/timeout recovery paths.
    """
    data, attempt_base = cell
    request = ServeRequest.from_dict(data)
    try:
        faults.apply_request_faults(request.digest(), request.workload,
                                    attempt_base, hard=False)
        payload = stats_payload(request.run())
    except Exception as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc)}
    return {"ok": True, "payload": payload}
