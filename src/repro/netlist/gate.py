"""The cell library: gate types, arities and bit-parallel evaluation.

Two tiers of cells, mirroring the paper's Section III-A:

* *basic* gates — AND, OR, XOR, INV (plus the inverted/buffered forms),
  n-ary where associativity allows;
* *complex* standard cells — AOI/OAI and a 2:1 MUX — which appear after
  synthesis and technology mapping (Table III) and exercise the
  extended algebraic models.

Evaluation is bit-parallel: every net value is a Python integer whose
bits carry independent simulation vectors, so a single pass over the
netlist simulates up to thousands of input patterns.  ``mask`` bounds
the vector width (needed to implement NOT on unbounded ints).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


class GateType(enum.Enum):
    """Every cell the netlist substrate understands."""

    CONST0 = "CONST0"
    CONST1 = "CONST1"
    BUF = "BUF"
    INV = "INV"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    NAND = "NAND"
    NOR = "NOR"
    XNOR = "XNOR"
    #: AND-OR-Invert: ``!(a*b + c)``
    AOI21 = "AOI21"
    #: AND-OR-Invert: ``!(a*b + c*d)``
    AOI22 = "AOI22"
    #: OR-AND-Invert: ``!((a+b) * c)``
    OAI21 = "OAI21"
    #: OR-AND-Invert: ``!((a+b) * (c+d))``
    OAI22 = "OAI22"
    #: 2:1 multiplexer: inputs ``(sel, d1, d0)`` -> ``sel ? d1 : d0``
    MUX2 = "MUX2"


#: Cell name -> type, for readers (a dict lookup, not an enum call).
GATE_TYPES = {gtype.value: gtype for gtype in GateType}


#: Gate types with a fixed number of inputs; ``None`` means n-ary (>= 2).
_FIXED_ARITY = {
    GateType.CONST0: 0,
    GateType.CONST1: 0,
    GateType.BUF: 1,
    GateType.INV: 1,
    GateType.AOI21: 3,
    GateType.AOI22: 4,
    GateType.OAI21: 3,
    GateType.OAI22: 4,
    GateType.MUX2: 3,
}

#: Gate types whose inputs are order-insensitive (used by strashing).
COMMUTATIVE_TYPES = frozenset(
    {
        GateType.AND,
        GateType.OR,
        GateType.XOR,
        GateType.NAND,
        GateType.NOR,
        GateType.XNOR,
    }
)


def gate_arity(gtype: GateType) -> Optional[int]:
    """Fixed arity of a gate type, or ``None`` for n-ary gates."""
    return _FIXED_ARITY.get(gtype)


@dataclass(frozen=True)
class Gate:
    """One netlist cell: ``output = gtype(inputs)``.

    Immutable so gates can live in sets and be shared between netlist
    copies.
    """

    output: str
    gtype: GateType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        fixed = gate_arity(self.gtype)
        if fixed is not None:
            if len(self.inputs) != fixed:
                raise ValueError(
                    f"{self.gtype.value} gate {self.output!r} needs "
                    f"{fixed} inputs, got {len(self.inputs)}"
                )
        elif len(self.inputs) < 2:
            raise ValueError(
                f"{self.gtype.value} gate {self.output!r} needs >= 2 "
                f"inputs, got {len(self.inputs)}"
            )

    def __str__(self) -> str:
        return f"{self.output} = {self.gtype.value}({', '.join(self.inputs)})"


def evaluate_gate(
    gtype: GateType, values: Sequence[int], mask: int = 1
) -> int:
    """Bit-parallel evaluation of one gate.

    ``values`` are the input net values (bit vectors packed in ints),
    ``mask`` selects the active vector lanes.

    >>> evaluate_gate(GateType.AOI21, [0b11, 0b01, 0b00], mask=0b11)
    2
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    if gtype is GateType.BUF:
        return values[0] & mask
    if gtype is GateType.INV:
        return ~values[0] & mask
    if gtype is GateType.AND:
        acc = mask
        for value in values:
            acc &= value
        return acc
    if gtype is GateType.NAND:
        acc = mask
        for value in values:
            acc &= value
        return ~acc & mask
    if gtype is GateType.OR:
        acc = 0
        for value in values:
            acc |= value
        return acc & mask
    if gtype is GateType.NOR:
        acc = 0
        for value in values:
            acc |= value
        return ~acc & mask
    if gtype is GateType.XOR:
        acc = 0
        for value in values:
            acc ^= value
        return acc & mask
    if gtype is GateType.XNOR:
        acc = 0
        for value in values:
            acc ^= value
        return ~acc & mask
    if gtype is GateType.AOI21:
        a, b, c = values
        return ~((a & b) | c) & mask
    if gtype is GateType.AOI22:
        a, b, c, d = values
        return ~((a & b) | (c & d)) & mask
    if gtype is GateType.OAI21:
        a, b, c = values
        return ~((a | b) & c) & mask
    if gtype is GateType.OAI22:
        a, b, c, d = values
        return ~((a | b) & (c | d)) & mask
    if gtype is GateType.MUX2:
        sel, d1, d0 = values
        return ((sel & d1) | (~sel & d0)) & mask
    raise ValueError(f"unknown gate type {gtype}")
