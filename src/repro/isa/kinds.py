"""Dynamic instruction classification shared by the tracer and predictors.

The fetch-prediction hardware in the paper distinguishes instructions by how
they can redirect the PC (Table 1).  :class:`InstrKind` is that taxonomy; it
is used both for the *static* per-address code map (what the BIT table would
be built from) and for the *dynamic* trace records.
"""

from __future__ import annotations

import enum
from typing import Dict

from .opcodes import Op


class InstrKind(enum.IntEnum):
    """Control-flow classification of one instruction."""

    NONBRANCH = 0
    COND = 1      #: conditional branch
    JUMP = 2      #: direct unconditional jump
    CALL = 3      #: direct or indirect call (pushes a return address)
    RETURN = 4    #: return through the link register
    INDIRECT = 5  #: indirect jump that is not a call or return
    HALT = 6      #: end of program (terminates the trace)


#: Kinds that transfer control when "taken".  Conditional branches transfer
#: only when taken; the others always do.
TRANSFER_KINDS = frozenset(
    {InstrKind.COND, InstrKind.JUMP, InstrKind.CALL,
     InstrKind.RETURN, InstrKind.INDIRECT}
)

#: Kinds whose target comes from a register (unknown at assembly time).
INDIRECT_KINDS = frozenset({InstrKind.RETURN, InstrKind.INDIRECT})


#: Opcode -> :class:`InstrKind` of every control-transfer opcode.
#: ``JALR`` is a call (it writes the link register), ``RET`` a return,
#: ``JR`` a generic indirect jump.
_CONTROL_KINDS = {
    Op.BEQ: InstrKind.COND, Op.BNE: InstrKind.COND,
    Op.BLT: InstrKind.COND, Op.BGE: InstrKind.COND,
    Op.BLE: InstrKind.COND, Op.BGT: InstrKind.COND,
    Op.J: InstrKind.JUMP,
    Op.JAL: InstrKind.CALL, Op.JALR: InstrKind.CALL,
    Op.RET: InstrKind.RETURN,
    Op.JR: InstrKind.INDIRECT,
    Op.HALT: InstrKind.HALT,
}

#: Opcode -> :class:`InstrKind` of every opcode, built once from
#: :class:`Op`; the tracers and the static code map index it per
#: instruction.
OP_KINDS: Dict[Op, InstrKind] = {
    op: _CONTROL_KINDS.get(op, InstrKind.NONBRANCH) for op in Op}


def classify_op(op: Op) -> InstrKind:
    """Map an opcode to its :class:`InstrKind` (see :data:`OP_KINDS`)."""
    return OP_KINDS[op]
