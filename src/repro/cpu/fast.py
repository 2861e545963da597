"""FastMachine: the compiled trace-capture driver.

Drop-in replacement for :class:`repro.cpu.machine.Machine` behind the
``REPRO_TRACER=fast`` knob.  It is a :class:`Machine` with a faster
dispatch: same architectural state (register list, data memory list,
instruction counter), same record lists, same :meth:`Machine.run` and
trace assembly.  Execution runs on two tiers:

1. **Generated superblocks** (:mod:`repro.cpu.codegen`) — the whole hot
   path: straight-line runs, calls and loop bodies.  Compiled lazily
   per entry PC once it has been dispatched :data:`SUPERBLOCK_WARMUP`
   times (until then its basic block steps on the reference
   interpreter's loop, :meth:`Machine.step`), so indirect jumps to
   arbitrary addresses just materialise new superblocks, and entry PCs
   reached only a few times never compile.
2. **The reference interpreter's loop** for the final stretch before
   the instruction budget, so truncation lands on exactly the same
   instruction as the interpreter.

The dispatch invariant: superblocks are only entered while the executed
count is below ``soft = max_instructions - SUPERBLOCK_CAP``, and one
superblock call consumes at most ``SUPERBLOCK_CAP`` instructions, so
the interpreter loop always takes over strictly before the budget and
replicates the final records and synthetic-HALT truncation bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .codegen import SUPERBLOCK_CAP, SUPERBLOCK_WARMUP, compile_superblock
from .machine import Machine
from ..isa.program import Program


class FastMachine(Machine):
    """Executes one program with the compiled fast tracer.

    Overrides only the dispatch of :class:`~repro.cpu.machine.Machine`;
    ``regs``/``mem`` inspection and ``run`` are the interpreter's.
    """

    def __init__(self, program: Program) -> None:
        super().__init__(program)
        self._hlt: List[int] = [0]
        self._fns: Dict[int, Callable[[], int]] = {}
        self._ns = {
            "R": self.regs,
            "mem": self.mem,
            "ap": self._rec_pc.append,
            "at": self._rec_taken.append,
            "ag": self._rec_target.append,
            "ctr": self.ctr,
            "hlt": self._hlt,
        }

    def _execute(self, pc: int, max_instructions: int) -> Tuple[int, bool]:
        ctr = self.ctr
        hlt = self._hlt
        hlt[0] = 0
        fns = self._fns
        warm: Dict[int, int] = {}
        soft = max_instructions - SUPERBLOCK_CAP

        while ctr[0] < soft:
            fn = fns.get(pc)
            if fn is None:
                seen = warm.get(pc, 0)
                if seen < SUPERBLOCK_WARMUP:
                    warm[pc] = seen + 1
                    pc, halted = self.step(pc, max_instructions,
                                           one_block=True)
                    if halted:
                        return pc, True
                    continue
                fn = fns[pc] = compile_superblock(self.cp, pc, self._ns)
            pc = fn()
            if hlt[0]:
                return pc, True
        return self.step(pc, max_instructions)
