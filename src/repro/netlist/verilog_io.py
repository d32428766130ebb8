"""Structural Verilog writer and reader (gate-primitive subset).

The writer emits one module using Verilog's built-in gate primitives
(``and``, ``or``, ``xor``, ``nand``, ``nor``, ``xnor``, ``not``,
``buf``) plus ``assign`` statements for the complex cells (AOI/OAI/MUX)
— the dialect any EDA tool accepts.

The reader parses the same subset back: module header, ``input`` /
``output`` / ``wire`` declarations, primitive instantiations, and the
specific ``assign`` shapes the writer produces.  It is not a general
Verilog front end; anything else raises :class:`VerilogFormatError`.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, TextIO, Tuple, Union

from repro.ioutil import atomic_write_text
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist, NetlistError, ParsedNetlist

PathOrFile = Union[str, os.PathLike, TextIO]


class VerilogFormatError(NetlistError):
    """Malformed or unsupported Verilog input."""


_PRIMITIVE_OF = {
    GateType.AND: "and",
    GateType.OR: "or",
    GateType.XOR: "xor",
    GateType.NAND: "nand",
    GateType.NOR: "nor",
    GateType.XNOR: "xnor",
    GateType.INV: "not",
    GateType.BUF: "buf",
}

_TYPE_OF_PRIMITIVE = {v: k for k, v in _PRIMITIVE_OF.items()}


def _escape(net: str) -> str:
    """Escape net names that are not plain Verilog identifiers."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", net):
        return net
    return f"\\{net} "


def format_verilog(netlist: Netlist) -> str:
    """Render a netlist as a structural Verilog module."""
    ports = netlist.inputs + netlist.outputs
    lines = [f"module {netlist.name} ({', '.join(_escape(p) for p in ports)});"]
    for net in netlist.inputs:
        lines.append(f"  input {_escape(net)};")
    for net in netlist.outputs:
        lines.append(f"  output {_escape(net)};")
    port_set = set(ports)
    wires = sorted(
        gate.output for gate in netlist.gates if gate.output not in port_set
    )
    for net in wires:
        lines.append(f"  wire {_escape(net)};")
    for idx, gate in enumerate(netlist.topological_order()):
        out = _escape(gate.output)
        ins = [_escape(net) for net in gate.inputs]
        primitive = _PRIMITIVE_OF.get(gate.gtype)
        if primitive is not None:
            args = ", ".join([out] + ins)
            lines.append(f"  {primitive} g{idx} ({args});")
        elif gate.gtype is GateType.CONST0:
            lines.append(f"  assign {out} = 1'b0;")
        elif gate.gtype is GateType.CONST1:
            lines.append(f"  assign {out} = 1'b1;")
        elif gate.gtype is GateType.AOI21:
            a, b, c = ins
            lines.append(f"  assign {out} = ~(({a} & {b}) | {c});")
        elif gate.gtype is GateType.AOI22:
            a, b, c, d = ins
            lines.append(f"  assign {out} = ~(({a} & {b}) | ({c} & {d}));")
        elif gate.gtype is GateType.OAI21:
            a, b, c = ins
            lines.append(f"  assign {out} = ~(({a} | {b}) & {c});")
        elif gate.gtype is GateType.OAI22:
            a, b, c, d = ins
            lines.append(f"  assign {out} = ~(({a} | {b}) & ({c} | {d}));")
        elif gate.gtype is GateType.MUX2:
            s, d1, d0 = ins
            lines.append(f"  assign {out} = {s} ? {d1} : {d0};")
        else:
            raise VerilogFormatError(f"cannot emit gate type {gate.gtype}")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(netlist: Netlist, target: PathOrFile) -> None:
    """Write structural Verilog to a path (atomically) or open file."""
    text = format_verilog(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

_ASSIGN_PATTERNS: List[Tuple[GateType, re.Pattern]] = [
    (GateType.AOI22,
     re.compile(r"~\(\((\S+) & (\S+)\) \| \((\S+) & (\S+)\)\)")),
    (GateType.AOI21, re.compile(r"~\(\((\S+) & (\S+)\) \| (\S+)\)")),
    (GateType.OAI22,
     re.compile(r"~\(\((\S+) \| (\S+)\) & \((\S+) \| (\S+)\)\)")),
    (GateType.OAI21, re.compile(r"~\(\((\S+) \| (\S+)\) & (\S+)\)")),
    (GateType.MUX2, re.compile(r"(\S+) \? (\S+) : (\S+)")),
]


#: Comments; a block comment keeps its newlines so line numbers hold.
_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", flags=re.S)
_HEADER = re.compile(r"module\s+(\S+)\s*\((.*?)\)\s*;", flags=re.S)
#: A primitive instance: ``and g0 (z, a, b)`` -> ("and", "z, a, b").
_INSTANCE = re.compile(
    r"(%s)\s+\S+\s*\((.*)\)\Z" % "|".join(_TYPE_OF_PRIMITIVE), flags=re.S
)
_ASSIGN = re.compile(r"assign\s+(\S+)\s*=\s*(.*)", flags=re.S)


def _unescape(token: str) -> str:
    token = token.strip()
    if token.startswith("\\"):
        return token[1:].strip()
    return token


def parse_verilog(text: str) -> Netlist:
    """Parse the writer's structural-Verilog subset.

    One pass over the ``;``-separated statements; every error is a
    :class:`VerilogFormatError` that starts with ``line N:``, the line
    the statement starts on.
    """
    if "/" in text:
        text = _COMMENT.sub(lambda match: "\n" * match[0].count("\n"), text)
    header = _HEADER.search(text)
    if not header:
        start = text.find("module")
        lineno = text.count("\n", 0, start) + 1 if start >= 0 else 1
        raise VerilogFormatError(f"line {lineno}: no module header found")
    end = text.find("endmodule", header.end())
    if end < 0:
        lineno = text.count("\n", 0, header.start()) + 1
        raise VerilogFormatError(f"line {lineno}: missing endmodule")
    parsed = ParsedNetlist(header[1])
    line = text.count("\n", 0, header.end()) + 1
    for chunk in text[header.end() : end].split(";"):
        statement = chunk.lstrip()
        lineno = line + chunk.count("\n", 0, len(chunk) - len(statement))
        line += chunk.count("\n")
        statement = statement.rstrip()
        if not statement:
            continue
        if statement[:4] == "wire" and statement[4:5].isspace():
            continue  # a wire declaration adds nothing the gates do not
        try:
            gate = _statement_gate(statement, parsed, lineno)
        except ValueError as error:
            raise VerilogFormatError(f"line {lineno}: {error}") from error
        if gate is not None:
            parsed.gates.append(gate)
            parsed.gate_lines.append(lineno)
    return parsed.build(VerilogFormatError)


def _statement_gate(
    statement: str, parsed: ParsedNetlist, lineno: int
) -> Optional[Gate]:
    """The gate a statement instantiates, or ``None`` for a declaration
    (recorded in ``parsed``)."""
    instance = _INSTANCE.match(statement)
    if instance is not None:
        operands = instance[2]
        strip = _unescape if "\\" in operands else str.strip
        args = tuple(map(strip, operands.split(",")))
        return Gate(args[0], _TYPE_OF_PRIMITIVE[instance[1]], args[1:])
    keyword = statement.split(None, 1)[0]
    if keyword in ("input", "output"):
        decls = parsed.inputs if keyword == "input" else parsed.outputs
        for token in statement[len(keyword) :].split(","):
            net = _unescape(token)
            if net:
                decls.setdefault(net, lineno)
        return None
    if keyword == "assign":
        match = _ASSIGN.match(statement)
        if not match:
            raise VerilogFormatError(f"bad assign: {statement!r}")
        return _parse_assign(_unescape(match[1]), match[2].strip())
    if keyword in _TYPE_OF_PRIMITIVE:
        raise VerilogFormatError(f"bad instantiation: {statement!r}")
    raise VerilogFormatError(f"unsupported statement: {statement!r}")


def _parse_assign(target: str, rhs: str) -> Gate:
    if rhs == "1'b0":
        return Gate(target, GateType.CONST0, ())
    if rhs == "1'b1":
        return Gate(target, GateType.CONST1, ())
    for gtype, pattern in _ASSIGN_PATTERNS:
        match = pattern.fullmatch(rhs)
        if match:
            inputs = tuple(_unescape(g) for g in match.groups())
            return Gate(target, gtype, inputs)
    raise VerilogFormatError(f"unsupported assign expression: {rhs!r}")


def read_verilog(source: PathOrFile) -> Netlist:
    """Read structural Verilog from a path or open file."""
    if hasattr(source, "read"):
        return parse_verilog(source.read())
    with open(source, "r", encoding="utf-8") as handle:
        return parse_verilog(handle.read())
