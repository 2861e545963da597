"""Replayable fuzz cases: a JSON-serializable recipe for one oracle run.

A :class:`QACase` pins everything the differential oracle needs to
reproduce a run exactly: the engine under test (and its extra
constructor knobs), the cache geometry, the full
:class:`~repro.core.config.EngineConfig`, and the synthetic workload —
named by a *family* plus integer parameters, never by an opaque trace
dump.  Because every field is a small scalar, cases round-trip through
JSON, diff cleanly in a regression corpus, and shrink by simple field
rewrites (see :mod:`repro.qa.shrink`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping, Tuple

from ..core.config import EngineConfig, FetchInput
from ..icache.geometry import (GEOMETRY_FACTORIES, GEOMETRY_KINDS,
                              CacheGeometry)

#: Engines the oracle can drive, in campaign rotation order.
ENGINE_KINDS: Tuple[str, ...] = ("single", "dual", "multi", "two_ahead")

#: Current artifact schema version (bump on incompatible changes).
CASE_FORMAT = 1


class CaseError(ValueError):
    """Raised when a case (or artifact) cannot be decoded or rebuilt."""


@dataclass(frozen=True)
class QACase:
    """One differential-fuzzing case.

    Attributes:
        engine: one of :data:`ENGINE_KINDS`.
        geometry_kind: ``normal`` / ``extend`` / ``align`` (the CLI's
            cache names).
        block_width: fetch-block width the geometry is built for.
        family: workload family name in
            :data:`repro.qa.generators.FAMILIES`.
        params: integer parameters of the family builder.
        budget: dynamic-instruction budget for the interpreter run.
        repeats: how many times the oracle replays the same input on one
            warm engine (warm-table coverage).
        config: keyword overrides applied on top of the default
            :class:`EngineConfig` (JSON-safe scalars only).
        n_blocks: blocks per cycle (``multi`` engine only).
        serialization_penalty: extra per-pair cycle (``two_ahead`` only).
        track_recovery: record BBR entries (``single`` only; exercises
            the fast engine's documented scalar fallback).
        record_timeline: record the delivery timeline (``dual`` only;
            also a scalar-fallback path).
    """

    engine: str
    geometry_kind: str = "normal"
    block_width: int = 8
    family: str = "synthetic"
    params: Dict[str, int] = field(default_factory=dict)
    budget: int = 4000
    repeats: int = 1
    config: Dict[str, Any] = field(default_factory=dict)
    n_blocks: int = 2
    serialization_penalty: int = 0
    track_recovery: bool = False
    record_timeline: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise CaseError(f"unknown engine kind: {self.engine!r}")
        if self.geometry_kind not in GEOMETRY_KINDS:
            raise CaseError(f"unknown geometry kind: {self.geometry_kind!r}")
        if self.budget < 100:
            raise CaseError("budget must be >= 100 instructions")
        if self.repeats < 1:
            raise CaseError("repeats must be >= 1")
        if self.n_blocks < 1:
            raise CaseError("n_blocks must be >= 1")

    # ------------------------------------------------------------------
    # Construction of the simulated objects
    # ------------------------------------------------------------------

    def geometry(self) -> CacheGeometry:
        """The cache geometry this case runs under."""
        return GEOMETRY_FACTORIES[self.geometry_kind](self.block_width)

    def engine_config(self) -> EngineConfig:
        """Build the :class:`EngineConfig`, validating the overrides."""
        overrides = dict(self.config)
        if self.track_recovery:
            overrides["track_recovery"] = True
        try:
            return replace(EngineConfig(geometry=self.geometry()),
                           **overrides)
        except (TypeError, ValueError) as exc:
            raise CaseError(f"invalid engine config: {exc}") from exc

    def fetch_input(self) -> FetchInput:
        """Generate the workload and bundle it for the fetch engines."""
        from .generators import build_family_program

        program = build_family_program(self.family, self.params)
        return FetchInput.from_program(program, self.geometry(),
                                       max_instructions=self.budget)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-scalar dictionary (stable key order via dataclass)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QACase":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f for f in cls.__dataclass_fields__}
        extra = sorted(set(data) - known)
        if extra:
            raise CaseError(f"unknown case fields: {extra}")
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise CaseError(f"malformed case: {exc}") from exc

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self, length: int = 12) -> str:
        """Stable content digest used for corpus file names."""
        sha = hashlib.sha256(self.canonical_json().encode("ascii"))
        return sha.hexdigest()[:length]

    def label(self) -> str:
        """Short human-readable identity for logs."""
        extras = []
        if self.engine == "multi":
            extras.append(f"x{self.n_blocks}")
        if self.engine == "two_ahead" and self.serialization_penalty:
            extras.append(f"ser{self.serialization_penalty}")
        if self.track_recovery:
            extras.append("recovery")
        if self.record_timeline:
            extras.append("timeline")
        suffix = ("[" + ",".join(extras) + "]") if extras else ""
        return (f"{self.engine}{suffix}/{self.geometry_kind}"
                f"-B{self.block_width}/{self.family}/{self.digest(8)}")


def case_engine(case: QACase) -> Any:
    """Construct a fresh engine for ``case`` (any of the four kinds)."""
    from ..core.dual import DualBlockEngine
    from ..core.multi import MultiBlockEngine
    from ..core.single import SingleBlockEngine
    from ..core.two_ahead import TwoBlockAheadEngine

    config = case.engine_config()
    try:
        if case.engine == "single":
            return SingleBlockEngine(config)
        if case.engine == "dual":
            return DualBlockEngine(config)
        if case.engine == "multi":
            return MultiBlockEngine(config, case.n_blocks)
        return TwoBlockAheadEngine(
            config, serialization_penalty=case.serialization_penalty)
    except ValueError as exc:
        raise CaseError(f"engine rejected the config: {exc}") from exc


def load_case(data: Mapping[str, Any]) -> QACase:
    """Decode a case from an artifact payload, checking the format tag."""
    if "case" in data:
        version = data.get("format")
        if version != CASE_FORMAT:
            raise CaseError(
                f"unsupported artifact format {version!r} "
                f"(this build reads format {CASE_FORMAT})")
        inner = data["case"]
        if not isinstance(inner, Mapping):
            raise CaseError("artifact 'case' field must be an object")
        return QACase.from_dict(inner)
    return QACase.from_dict(data)


def is_valid_case(case: QACase) -> bool:
    """True when the engine accepts the case's configuration."""
    try:
        case.engine_config()
        case_engine(case)
    except CaseError:
        return False
    return True
