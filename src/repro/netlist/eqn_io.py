"""The equations netlist format (``.eqn``).

This is the working format of the reproduction — one gate equation per
line, in exactly the granularity the paper counts in its "# eqns"
columns.  It is trivially diffable and easy to generate from other
tools.

Grammar::

    # comment                          (also //)
    INPUT  a0 a1 b0 b1
    OUTPUT z0 z1
    n1 = AND(a0, b0)
    n2 = XOR(n1, n3)
    z0 = INV(n2)

Gate names are the :class:`~repro.netlist.gate.GateType` values;
declarations may repeat and may appear anywhere before use.
"""

from __future__ import annotations

import io
import os
from typing import List, TextIO, Union

from repro.ioutil import atomic_write_text
from repro.netlist.gate import GATE_TYPES, Gate
from repro.netlist.netlist import Netlist, NetlistError, ParsedNetlist

PathOrFile = Union[str, os.PathLike, TextIO]


class EqnFormatError(NetlistError):
    """Malformed ``.eqn`` input."""


def format_eqn(netlist: Netlist) -> str:
    """Render a netlist to the equations format.

    Gates are written in topological order, so the output doubles as a
    valid evaluation schedule.
    """
    out = io.StringIO()
    out.write(f"# netlist {netlist.name}\n")
    out.write(f"# gates {len(netlist)}\n")
    _write_decl(out, "INPUT", netlist.inputs)
    _write_decl(out, "OUTPUT", netlist.outputs)
    for gate in netlist.topological_order():
        args = ", ".join(gate.inputs)
        out.write(f"{gate.output} = {gate.gtype.value}({args})\n")
    return out.getvalue()


def _write_decl(out: TextIO, keyword: str, names: List[str]) -> None:
    """Write INPUT/OUTPUT declarations, wrapped to readable width."""
    for start in range(0, len(names), 16):
        chunk = " ".join(names[start : start + 16])
        if chunk:
            out.write(f"{keyword} {chunk}\n")


def parse_eqn(text: str, name: str = "netlist") -> Netlist:
    """Parse equations-format text into a :class:`Netlist`.

    One pass over the lines; every error is an :class:`EqnFormatError`
    that starts with ``line N:``.

    >>> net = parse_eqn('''
    ... INPUT a b
    ... OUTPUT z
    ... z = XOR(a, b)
    ... ''')
    >>> net.simulate({"a": 1, "b": 0})
    {'z': 1}
    """
    parsed = ParsedNetlist(name)
    inputs, outputs = parsed.inputs, parsed.outputs
    gates, gate_lines = parsed.gates, parsed.gate_lines
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line or "//" in line:
            line = line.split("#", 1)[0].split("//", 1)[0]
        # Declarations start with I/O, possibly after indentation.
        if line[:1] in "IiOo" or line[:1].isspace():
            line = line.strip()
            if not line:
                continue
            keyword = line.split(None, 1)[0].upper()
            if keyword in ("INPUT", "OUTPUT"):
                decls = inputs if keyword == "INPUT" else outputs
                for net in line[len(keyword):].replace(",", " ").split():
                    decls.setdefault(net, lineno)
                continue
        lhs, equals, rhs = line.partition("=")
        lhs, rhs = lhs.strip(), rhs.strip()
        if not equals:
            raise EqnFormatError(f"line {lineno}: expected '=' in {line!r}")
        if not lhs or " " in lhs:
            raise EqnFormatError(f"line {lineno}: bad output net {lhs!r}")
        open_paren = rhs.find("(")
        if open_paren < 0 or not rhs.endswith(")"):
            raise EqnFormatError(
                f"line {lineno}: expected GATE(...) in {rhs!r}"
            )
        type_name = rhs[:open_paren].strip().upper()
        gtype = GATE_TYPES.get(type_name)
        if gtype is None:
            raise EqnFormatError(
                f"line {lineno}: unknown gate type {type_name!r}"
            )
        args = tuple(map(str.strip, rhs[open_paren + 1 : -1].split(",")))
        if "" in args:
            args = tuple(arg for arg in args if arg)
        try:
            gates.append(Gate(lhs, gtype, args))
        except ValueError as exc:
            raise EqnFormatError(f"line {lineno}: {exc}") from exc
        gate_lines.append(lineno)
    return parsed.build(EqnFormatError)


def write_eqn(netlist: Netlist, target: PathOrFile) -> None:
    """Write the equations format to a path (atomically) or open file."""
    text = format_eqn(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


def read_eqn(source: PathOrFile, name: str | None = None) -> Netlist:
    """Read the equations format from a path or open file."""
    if hasattr(source, "read"):
        text = source.read()
        return parse_eqn(text, name or "netlist")
    with open(source, "r", encoding="utf-8") as handle:
        text = handle.read()
    default = os.path.splitext(os.path.basename(os.fspath(source)))[0]
    return parse_eqn(text, name or default)
