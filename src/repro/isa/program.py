"""Assembled program container and its static code map.

A :class:`Program` owns the instruction list plus the *static code map* — the
per-address classification and direct-target arrays that the paper's Block
Instruction Type (BIT) machinery is built from.  The fetch engines read the
static map (never the trace) to model BIT information, because BIT describes
what is physically in a cache line, including branches beyond the block exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .instructions import Instruction
from .kinds import OP_KINDS, InstrKind


@dataclass
class StaticCode:
    """Per-address static classification of a program's text segment.

    Attributes:
        kind: ``uint8`` array, ``kind[pc]`` is the :class:`InstrKind` value.
        direct_target: ``int64`` array; absolute target for direct branches
            and jumps, ``-1`` where the target is indirect or absent.
    """

    kind: np.ndarray
    direct_target: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)

    def __post_init__(self) -> None:
        if len(self.kind) != len(self.direct_target):
            raise ValueError("kind and direct_target lengths differ")


@dataclass
class Program:
    """An assembled program ready for execution.

    Attributes:
        instructions: the text segment; address ``i`` holds
            ``instructions[i]``.
        entry: entry-point instruction address.
        data_size: words of data memory the program expects.
        labels: label name -> instruction address (for debugging/tests).
        name: optional human-readable name.
    """

    instructions: List[Instruction]
    entry: int = 0
    data_size: int = 4096
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def static_code(self) -> StaticCode:
        """Build the static code map used by BIT modelling."""
        kinds = [OP_KINDS[inst.op] for inst in self.instructions]
        target = [inst.imm if kind is InstrKind.COND
                  or kind is InstrKind.JUMP
                  or (kind is InstrKind.CALL and inst.is_direct_jump)
                  else -1
                  for kind, inst in zip(kinds, self.instructions)]
        return StaticCode(kind=np.array(kinds, dtype=np.uint8),
                          direct_target=np.array(target, dtype=np.int64))

    def disassemble(self, start: int = 0, count: int = None) -> str:
        """Return a printable listing (address, label, instruction)."""
        if count is None:
            count = len(self.instructions) - start
        addr_to_label = {addr: name for name, addr in self.labels.items()}
        lines = []
        for pc in range(start, min(start + count, len(self.instructions))):
            label = addr_to_label.get(pc)
            if label is not None:
                lines.append(f"{label}:")
            lines.append(f"  {pc:6d}  {self.instructions[pc]}")
        return "\n".join(lines)
