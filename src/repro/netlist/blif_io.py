"""BLIF (Berkeley Logic Interchange Format) subset.

Covers the combinational core of BLIF: ``.model``, ``.inputs``,
``.outputs``, ``.names`` with single-output covers, ``.end``.  This is
the interchange format ABC uses, so the synthesized-multiplier
experiments (Table III) can export/import circuits the same way the
paper's flow did.

Writing maps each gate to a canonical SOP cover.  Reading recognises
any single-output cover and classifies it back onto the cell library by
truth-table matching (covers up to 6 inputs); unrecognised functions
are rejected rather than silently mangled.
"""

from __future__ import annotations

import os
from itertools import product as _iter_product
from typing import Dict, List, Sequence, TextIO, Tuple, Union

from repro.ioutil import atomic_write_text
from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import Netlist, NetlistError, ParsedNetlist

PathOrFile = Union[str, os.PathLike, TextIO]


class BlifFormatError(NetlistError):
    """Malformed BLIF input or unsupported construct."""


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def _gate_cover(gate: Gate) -> List[str]:
    """SOP cover lines (inputs pattern + ' 1') for one gate."""
    n = len(gate.inputs)
    gtype = gate.gtype
    if gtype is GateType.CONST0:
        return []
    if gtype is GateType.CONST1:
        return ["1"]
    if gtype is GateType.BUF:
        return ["1 1"]
    if gtype is GateType.INV:
        return ["0 1"]
    if gtype is GateType.AND:
        return ["1" * n + " 1"]
    if gtype is GateType.NAND:
        return ["".join("0" if j == i else "-" for j in range(n)) + " 1"
                for i in range(n)]
    if gtype is GateType.OR:
        return ["".join("1" if j == i else "-" for j in range(n)) + " 1"
                for i in range(n)]
    if gtype is GateType.NOR:
        return ["0" * n + " 1"]
    # XOR/XNOR/AOI/OAI/MUX: enumerate minterms (arity is small).
    lines = []
    for bits in _iter_product((0, 1), repeat=n):
        value = evaluate_gate(gtype, list(bits), mask=1)
        if value:
            lines.append("".join(str(b) for b in bits) + " 1")
    return lines


def format_blif(netlist: Netlist) -> str:
    """Render a netlist as BLIF text."""
    lines = [f".model {netlist.name}"]
    lines.append(".inputs " + " ".join(netlist.inputs))
    lines.append(".outputs " + " ".join(netlist.outputs))
    for gate in netlist.topological_order():
        signals = " ".join(list(gate.inputs) + [gate.output])
        lines.append(f".names {signals}")
        lines.extend(_gate_cover(gate))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_blif(netlist: Netlist, target: PathOrFile) -> None:
    """Write BLIF to a path (atomically) or open file."""
    text = format_blif(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def _minterm_masks(width: int) -> Dict[str, int]:
    """Every cover-row pattern over ``width`` inputs -> the truth-table
    rows it covers, as a ``2**width``-bit mask (row ``r`` gives input
    ``k`` the value of bit ``k`` of ``r``)."""
    full = (1 << (1 << width)) - 1
    masks = {"": full}
    for k in range(width):
        ones = sum(1 << row for row in range(1 << width) if (row >> k) & 1)
        masks = {
            pattern + char: mask & literal
            for pattern, mask in masks.items()
            for char, literal in (("0", full ^ ones), ("1", ones), ("-", full))
        }
    return masks


def _cell_tables(width: int) -> Dict[int, GateType]:
    """Truth table -> library cell over ``width`` inputs (where two
    cells share a table, the first in :class:`GateType` order wins)."""
    full = (1 << (1 << width)) - 1
    literals = [
        _MINTERMS["-" * k + "1" + "-" * (width - 1 - k)]
        for k in range(width)
    ]
    tables: Dict[int, GateType] = {}
    for gtype in GateType:
        fixed = gate_arity(gtype)
        if fixed == width or (fixed is None and width >= 2):
            tables.setdefault(evaluate_gate(gtype, literals, full), gtype)
    return tables


#: Largest cover the reader classifies.
_MAX_COVER_INPUTS = 6
#: Cover-row pattern (``0``/``1``/``-``, 0 to 6 inputs) -> the truth-table
#: rows it covers; 1,093 entries, built once at import.
_MINTERMS: Dict[str, int] = {}
for _width in range(_MAX_COVER_INPUTS + 1):
    _MINTERMS.update(_minterm_masks(_width))
#: Arity -> {truth table: cell} (arity 0 holds the constants), built
#: once at import.
_CELLS = {
    width: _cell_tables(width) for width in range(_MAX_COVER_INPUTS + 1)
}


def _classify_gate(
    signals: Sequence[str], lineno: int, cover: Sequence[Tuple[int, str]]
) -> Gate:
    """The library cell a ``.names`` block implements.

    ``signals`` are the ``.names`` operands (inputs, then the output)
    on line ``lineno``; ``cover`` holds ``(line, row)`` pairs.  The
    rows' minterm masks OR into a truth table, looked up in
    :data:`_CELLS`; unrecognised functions are rejected.
    """
    inputs, output = tuple(signals[:-1]), signals[-1]
    n = len(inputs)
    if n > _MAX_COVER_INPUTS:
        raise BlifFormatError(
            f"line {lineno}: cover with {n} inputs is not classifiable"
        )
    table = 0
    for row_line, row in cover:
        tokens = row.split()
        if tokens[-1] != "1":
            raise BlifFormatError(
                f"line {row_line}: only on-set covers are supported"
            )
        pattern = "".join(tokens[:-1])
        if len(pattern) != n:
            raise BlifFormatError(
                f"line {row_line}: cover row {row!r} does not match "
                f"{n} inputs"
            )
        mask = _MINTERMS.get(pattern)
        if mask is None:
            raise BlifFormatError(
                f"line {row_line}: cover row {row!r} may only use "
                "'0', '1' and '-'"
            )
        table |= mask
    gtype = _CELLS[n].get(table)
    if gtype is None:
        raise BlifFormatError(
            f"line {lineno}: cover over {inputs} does not match any "
            "library cell"
        )
    return Gate(output, gtype, inputs)


def parse_blif(text: str) -> Netlist:
    """Parse BLIF text into a :class:`Netlist`.

    One pass over the lines; every error is a :class:`BlifFormatError`
    that starts with ``line N:`` (a continued line counts from its
    first physical line).
    """
    parsed = ParsedNetlist("blif")
    gates, gate_lines = parsed.gates, parsed.gate_lines
    lines = text.splitlines()
    lines.append(".end")  # closes a trailing .names block
    names: List[str] = []
    names_line = 0
    cover: List[Tuple[int, str]] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        lineno = index
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        while line.endswith("\\"):
            line = line[:-1]
            if index < len(lines) - 1:  # never into the sentinel
                line += " " + lines[index].split("#", 1)[0].strip()
                index += 1
        if not line:
            continue
        if line[0] != ".":
            if not names:
                raise BlifFormatError(
                    f"line {lineno}: cover row outside .names: {line!r}"
                )
            cover.append((lineno, line))
            continue
        if names:
            gates.append(_classify_gate(names, names_line, cover))
            gate_lines.append(names_line)
            names, cover = [], []
        parts = line.split()
        directive = parts[0]
        if directive == ".names":
            if len(parts) < 2:
                raise BlifFormatError(
                    f"line {lineno}: bad .names line {line!r}"
                )
            names, names_line = parts[1:], lineno
        elif directive == ".inputs" or directive == ".outputs":
            decls = parsed.inputs if directive == ".inputs" else parsed.outputs
            for net in parts[1:]:
                decls.setdefault(net, lineno)
        elif directive == ".model":
            parsed.name = parts[1] if len(parts) > 1 else "blif"
        elif directive != ".end":
            raise BlifFormatError(
                f"line {lineno}: unsupported directive {directive!r}"
            )
    return parsed.build(BlifFormatError)


def read_blif(source: PathOrFile) -> Netlist:
    """Read BLIF from a path or open file."""
    if hasattr(source, "read"):
        return parse_blif(source.read())
    with open(source, "r", encoding="utf-8") as handle:
        return parse_blif(handle.read())
