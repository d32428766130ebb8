"""One entry point for reading a netlist in any supported format.

:func:`read_netlist` (a file) and :func:`parse_netlist` (text) pick the
reader by format name — ``eqn``, ``blif`` or ``v``, inferred from the
file suffix when not given — and run it inside a ``parse`` span with
``format``, ``gates`` and ``bytes`` attributes.  The CLI, the batch
runner, ECO and the HTTP API all read netlists through them.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro import telemetry as _telemetry
from repro.netlist.blif_io import parse_blif, read_blif
from repro.netlist.eqn_io import parse_eqn, read_eqn
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.verilog_io import parse_verilog, read_verilog

PathLike = Union[str, os.PathLike]

#: Format name -> file reader / text parser.
_READERS = {"eqn": read_eqn, "blif": read_blif, "v": read_verilog}
_PARSERS = {"eqn": parse_eqn, "blif": parse_blif, "v": parse_verilog}
#: The format names, which are also the file suffixes.
FORMATS = tuple(sorted(_READERS))


def netlist_format(path: PathLike) -> Optional[str]:
    """The format a file's suffix names, or ``None``."""
    fmt = os.path.splitext(os.fspath(path))[1][1:]
    return fmt if fmt in _READERS else None


def read_netlist(path: PathLike, fmt: Optional[str] = None) -> Netlist:
    """Read a netlist file; ``fmt`` defaults to the one its suffix names.

    A reader error is re-raised as the same type, its message prefixed
    with the file name (``FILE: line N: ...``).
    """
    fmt = fmt or netlist_format(path)
    if fmt not in _READERS:
        raise NetlistError(f"{os.fspath(path)}: unknown netlist format")
    with _telemetry.current().span("parse", format=fmt) as span:
        try:
            netlist = _READERS[fmt](path)
        except NetlistError as error:
            raise type(error)(f"{os.fspath(path)}: {error}") from error
        span.annotate(gates=len(netlist), bytes=os.path.getsize(path))
    return netlist


def parse_netlist(text: str, fmt: str) -> Netlist:
    """Parse netlist text in format ``fmt``."""
    if fmt not in _PARSERS:
        raise NetlistError(f"unknown netlist format {fmt!r}")
    with _telemetry.current().span("parse", format=fmt) as span:
        netlist = _PARSERS[fmt](text)
        span.annotate(gates=len(netlist), bytes=len(text.encode("utf-8")))
    return netlist
