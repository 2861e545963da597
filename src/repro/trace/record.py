"""Dynamic trace representation.

A trace is the *correct-path* instruction stream of one program run.  Because
instructions between control transfers are sequential, only control-flow
records are stored explicitly: each record is ``(pc, kind, taken, target)``
for a conditional branch (taken or not), jump, call, return, indirect jump,
or the final HALT.  Straight-line instructions are implied by PC arithmetic,
which keeps traces compact and block segmentation fast.

This mirrors what the paper's fetch mechanisms can observe through Shade:
dynamic PCs, branch types, directions and targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Mapping, Tuple, Union

import numpy as np

from ..isa.kinds import InstrKind

#: Version stamp of the trace-capture pipeline, embedded in every saved
#: trace.  Version 1 is the unstamped scalar-era format;
#: version 2 introduced the compiled fast tracer.  Loading an artifact
#: with a different version raises :class:`ValueError` — the cache
#: layer translates that into quarantine-and-recompute, so a stale
#: capture can never be served as current.
CAPTURE_VERSION = 2


@dataclass
class Trace:
    """A compressed correct-path trace.

    Attributes:
        entry_pc: address of the first executed instruction.
        n_instructions: total executed instructions (including the final
            HALT record).
        pc: ``int64`` array of control-record addresses, in execution order.
        kind: ``uint8`` array of :class:`InstrKind` values per record.
        taken: ``bool`` array; conditional branches may be False, every
            other transfer kind is True, HALT is False.
        target: ``int64`` array; the address control went to when taken
            (unused for not-taken records).
        truncated: True when the run hit an instruction budget rather than
            executing HALT (a HALT record is synthesised either way so the
            trace is always well terminated).
        name: optional workload name.
    """

    entry_pc: int
    n_instructions: int
    pc: np.ndarray
    kind: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    truncated: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.pc)
        if not (len(self.kind) == len(self.taken) == len(self.target) == n):
            raise ValueError("trace arrays must have equal length")
        if n == 0:
            raise ValueError("a trace must contain at least the HALT record")
        if int(self.kind[-1]) != int(InstrKind.HALT):
            raise ValueError("trace must end with a HALT record")

    def __len__(self) -> int:
        return len(self.pc)

    @property
    def n_records(self) -> int:
        """Number of explicit control records (including HALT)."""
        return len(self.pc)

    @property
    def n_branches(self) -> int:
        """Executed control-transfer instructions (HALT excluded)."""
        return len(self.pc) - 1

    @property
    def cond_mask(self) -> np.ndarray:
        """Boolean mask over records selecting conditional branches."""
        return self.kind == int(InstrKind.COND)

    @property
    def n_cond(self) -> int:
        """Number of executed conditional branches."""
        return int(np.count_nonzero(self.cond_mask))

    def records(self) -> Iterator[Tuple[int, int, bool, int]]:
        """Iterate ``(pc, kind, taken, target)`` tuples in execution order."""
        pcs = self.pc
        kinds = self.kind
        takens = self.taken
        targets = self.target
        for i in range(len(pcs)):
            yield int(pcs[i]), int(kinds[i]), bool(takens[i]), int(targets[i])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The named arrays :meth:`save` and the runtime cache store.

        The capture-version stamp is one of them, so an artifact of a
        different capture pipeline is never read back as current.
        """
        return {
            "capture_version": np.int64(CAPTURE_VERSION),
            "entry_pc": np.int64(self.entry_pc),
            "n_instructions": np.int64(self.n_instructions),
            "pc": self.pc,
            "kind": self.kind,
            "taken": self.taken,
            "target": self.target,
            "truncated": np.bool_(self.truncated),
            "name": np.str_(self.name),
        }

    @classmethod
    def from_arrays(cls, data: Mapping[str, np.ndarray]) -> "Trace":
        """Rebuild a trace from :meth:`arrays` at any stored width.

        Every array is cast (and so copied) to its in-memory dtype.
        Raises :class:`ValueError` when the arrays were captured by a
        different pipeline version (including unstamped scalar-era
        artifacts) — callers treat that exactly like corruption.
        """
        version = (int(data["capture_version"])
                   if "capture_version" in data else 1)
        if version != CAPTURE_VERSION:
            raise ValueError(
                f"capture version {version}, expected {CAPTURE_VERSION}")
        return cls(
            entry_pc=int(data["entry_pc"]),
            n_instructions=int(data["n_instructions"]),
            pc=data["pc"].astype(np.int64),
            kind=data["kind"].astype(np.uint8),
            taken=data["taken"].astype(bool),
            target=data["target"].astype(np.int64),
            truncated=bool(data["truncated"]),
            name=str(data["name"]),
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` as one uncompressed container of
        NPY records (:func:`repro.runtime.cache.write_records`).

        Integer arrays are stored at their narrowest lossless width
        (:func:`repro.runtime.cache.narrow`); :meth:`load` casts them
        back.
        """
        from ..runtime.cache import save_narrow

        save_narrow(Path(path), **self.arrays())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written by :meth:`save`, in one read.

        Raises :class:`ValueError` when the file is not a record
        container or was captured by a different pipeline version —
        callers treat that exactly like corruption.
        """
        from ..runtime.cache import read_records

        return cls.from_arrays(read_records(Path(path).read_bytes()))

    @classmethod
    def from_lists(cls, entry_pc, n_instructions, pc, kind, taken, target,
                   truncated=False, name="") -> "Trace":
        """Build a trace from Python lists of full records."""
        return cls(
            entry_pc=int(entry_pc),
            n_instructions=int(n_instructions),
            pc=np.asarray(pc, dtype=np.int64),
            kind=np.asarray(kind, dtype=np.uint8),
            taken=np.asarray(taken, dtype=bool),
            target=np.asarray(target, dtype=np.int64),
            truncated=truncated,
            name=name,
        )
