"""Netlist readers: bit-identical output, the BLIF cell table, typed
line-numbered errors on hostile input, and the ``parse`` span."""

import hashlib
import itertools

import pytest

from repro import telemetry
from repro.cli import main
from repro.fieldmath.irreducible import find_irreducible_pentanomials
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.blif_io import BlifFormatError, format_blif, parse_blif
from repro.netlist.eqn_io import EqnFormatError, format_eqn, parse_eqn
from repro.netlist.formats import FORMATS, parse_netlist, read_netlist
from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.verilog_io import (
    VerilogFormatError,
    format_verilog,
    parse_verilog,
)
from repro.synth.pipeline import synthesize

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "interleaved-lsb": lambda modulus: generate_interleaved(
        modulus, msb_first=False
    ),
    "digit-serial": generate_digit_serial,
}
CODECS = {
    "eqn": (format_eqn, parse_eqn),
    "blif": (format_blif, parse_blif),
    "v": (format_verilog, parse_verilog),
}


def _form(netlist, form):
    if form == "flat":
        return netlist
    return synthesize(netlist, use_xor_cells=form == "syn")


def _update_digest(digest, netlist):
    """Ports, gates in insertion order, then the topological order."""
    digest.update(("I" + " ".join(netlist.inputs)).encode())
    digest.update(("O" + " ".join(netlist.outputs)).encode())
    for tag, gates in (("G", netlist.gates), ("T", netlist.topological_order())):
        digest.update(tag.encode())
        for gate in gates:
            digest.update(
                f"{gate.output}={gate.gtype.value}"
                f"({','.join(gate.inputs)});".encode()
            )


#: Digest of the parsed m=4..8 netlists (first irreducible pentanomial
#: of each degree) per generator and form, recorded with the
#: per-gate readers and the deque-based Kahn order these replaced.  All
#: three formats parse to the same digest.
GOLDEN = {
    ("digit-serial", "flat"): (
        "a11b51fb49186ec1399d5ce2de98b979c6e1e85eae8accb5d8c0061cbee4ab2f"
    ),
    ("digit-serial", "nand"): (
        "7d60c80cd76f680033bbf9d555a6a72335848d1e888ee7ada9057510fc5e75d8"
    ),
    ("digit-serial", "syn"): (
        "e6a03fa1851f9a021f908f6265187995afa37ff5c382a6b30cf27de38217b25e"
    ),
    ("interleaved", "flat"): (
        "7b17014e2b9639c1a71e64e215df18d378276d1185ce9e1e56eccbf09f31c48d"
    ),
    ("interleaved", "nand"): (
        "a83083168f2371ec02344f777310e880b9ecf14542b3f6bcc399956f011074b4"
    ),
    ("interleaved", "syn"): (
        "7b8fbb27a09fe90c0b1374273c890ace6045d12e28cbda6e1a26a06677e7138f"
    ),
    ("interleaved-lsb", "flat"): (
        "fef35a9fba35a95502f16ea2db7d88077d61ba4506facf990a4b91ab0504e763"
    ),
    ("interleaved-lsb", "nand"): (
        "e6b9e6dd83794e26e7e0753d6544a6bd9433bc62a09fdad872e2a2c3a8f51b6e"
    ),
    ("interleaved-lsb", "syn"): (
        "3a64b079a77abc713dddc216cd2cec39fc7aad005ce916012ea37064bc8f2d25"
    ),
    ("karatsuba", "flat"): (
        "6fa661c9af1dbef7006cede5f7c627da50c07d78d386ff6091d9a66d92241863"
    ),
    ("karatsuba", "nand"): (
        "c731b69ae9e9c53375ae9691d0fad69967403ba2ad5cf16b335e90411c48e7c4"
    ),
    ("karatsuba", "syn"): (
        "9868362aee07c8133acc382ed39e82abd1c2e95153a161fcc67a12ec0e70e22e"
    ),
    ("mastrovito", "flat"): (
        "5ab9aa4c98932247d4f5501d03c3bc66ebef67cb08c0ee69d134318cf7919e06"
    ),
    ("mastrovito", "nand"): (
        "c867db9ad64961ed27792d1379ca63b40dff76336faecb1355f38b0550f84009"
    ),
    ("mastrovito", "syn"): (
        "8449357abbaf04bfa65babeccbe30dbb49c57c5e34dfc8ecdca5c9954750c4eb"
    ),
    ("montgomery", "flat"): (
        "1532d76ac214593a7ebf08be37006ecd6307c5dc325f857ee15f023603bcc63a"
    ),
    ("montgomery", "nand"): (
        "11f1e8a3f75ba39a96cc268e546755ec95a41369c1ddd5f45ee62941a03ad748"
    ),
    ("montgomery", "syn"): (
        "d796ecf0cc42b519feff20e821615b88ae420ec682afcc0042802d5394d1a4c9"
    ),
    ("schoolbook", "flat"): (
        "161d1518763360a9abfd4be4c8912450df482928aeab0d833737a17289189af8"
    ),
    ("schoolbook", "nand"): (
        "2ea0970da14801a2b84343532f04137e6735cb16fb65991c569fad3f4165ec76"
    ),
    ("schoolbook", "syn"): (
        "bfa6204ee8225d2b773e52def93eaf4da45c94d20785905828ad2e3d2c288336"
    ),
}
#: The same digest for the NAND-mapped Mastrovito at m=32.
GOLDEN_NAND32 = (
    "b5968ec5ae811685e63aebb725ba0cf2bbf9145b0dbec3c60689a0f5aeec61f7"
)


class TestBitIdentical:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name,form", sorted(GOLDEN))
    def test_zoo_matches_golden(self, name, form, fmt):
        write, parse = CODECS[fmt]
        digest = hashlib.sha256()
        for m in range(4, 9):
            modulus = find_irreducible_pentanomials(m, limit=1)[0]
            netlist = _form(GENERATORS[name](modulus), form)
            _update_digest(digest, parse(write(netlist)))
        assert digest.hexdigest() == GOLDEN[name, form]

    def test_nand_mastrovito_32_matches_golden(self):
        modulus = find_irreducible_pentanomials(32, limit=1)[0]
        netlist = synthesize(generate_mastrovito(modulus), use_xor_cells=False)
        for fmt, (write, parse) in CODECS.items():
            digest = hashlib.sha256()
            _update_digest(digest, parse(write(netlist)))
            assert digest.hexdigest() == GOLDEN_NAND32, fmt

    def test_kahn_order_is_fifo_from_insertion_order(self):
        """Sources in insertion order first, then each gate as soon as
        its last driver is dequeued (not the insertion order)."""
        net = Netlist("fifo", inputs=["a", "b"], outputs=["y", "w"])
        net.add_gates(
            [
                Gate("t", GateType.AND, ("a", "b")),
                Gate("y", GateType.XOR, ("t", "t")),
                Gate("u", GateType.OR, ("a", "b")),
                Gate("w", GateType.NAND, ("y", "u")),
            ]
        )
        assert [g.output for g in net.topological_order()] == [
            "t", "u", "y", "w",
        ]


def _cell_arities():
    for gtype in GateType:
        fixed = gate_arity(gtype)
        if fixed is None:
            for width in range(2, 7):
                yield gtype, width
        elif fixed:
            yield gtype, fixed


def _blif_names(gtype, width, rows):
    names = [f"i{k}" for k in range(width)]
    return (
        f".model cell\n.inputs {' '.join(names)}\n.outputs y\n"
        f".names {' '.join(names)} y\n" + "".join(f"{r} 1\n" for r in rows)
        + ".end\n"
    )


class TestBlifCellTable:
    @pytest.mark.parametrize(
        "gtype,width", list(_cell_arities()),
        ids=lambda v: getattr(v, "value", v),
    )
    def test_every_cell_classifies_from_its_minterms(self, gtype, width):
        """A minterm cover (not the writer's compact one) of every cell
        at every arity comes back as that cell."""
        rows = [
            "".join(map(str, bits))
            for bits in itertools.product((0, 1), repeat=width)
            if evaluate_gate(gtype, list(bits), mask=1)
        ]
        netlist = parse_blif(_blif_names(gtype, width, rows))
        (gate,) = netlist.gates
        assert gate.gtype is gtype
        assert gate.inputs == tuple(f"i{k}" for k in range(width))

    @pytest.mark.parametrize(
        "gtype,width", list(_cell_arities()),
        ids=lambda v: getattr(v, "value", v),
    )
    def test_writer_cover_round_trips(self, gtype, width):
        net = Netlist("cell", inputs=[f"i{k}" for k in range(width)])
        net.add_output("y")
        net.add_gate(Gate("y", gtype, tuple(net.inputs)))
        (gate,) = parse_blif(format_blif(net)).gates
        assert gate.gtype is gtype

    def test_constants(self):
        text = ".model c\n.outputs y n\n.names y\n1\n.names n\n.end\n"
        gates = {g.output: g.gtype for g in parse_blif(text).gates}
        assert gates == {"y": GateType.CONST1, "n": GateType.CONST0}

    @pytest.mark.parametrize(
        "rows",
        [["110", "001"], ["1-1", "011"], ["--"], ["1---1-", "0----0"]],
    )
    def test_non_library_cover_rejected(self, rows):
        text = _blif_names(None, len(rows[0]), rows)
        with pytest.raises(BlifFormatError, match=r"^line 4: .*library cell"):
            parse_blif(text)


#: (format, text, line the error must name, message fragment)
HOSTILE = [
    # -- bad cover characters / wrong arity / unknown cell ------------
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names a b z\n1x 1\n.end\n",
     5, "only use"),
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names a b z\n12 1\n.end\n",
     5, "only use"),
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names a b z\n1 1\n.end\n",
     5, "does not match 2 inputs"),
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names a b z\n11 0\n",
     5, "on-set"),
    ("eqn", "INPUT a b\nOUTPUT z\nz = AND(a)\n", 3, "needs >= 2 inputs"),
    ("eqn", "INPUT a b\nOUTPUT z\n\nz = INV(a, b)\n", 4, "needs 1 inputs"),
    ("v", "module t (a, z);\n  input a;\n  output z;\n  and g0 (z, a);\n"
     "endmodule\n", 4, "needs >= 2 inputs"),
    ("v", "module t (a, z);\n  input a;\n  output z;\n  not g0 ();\n"
     "endmodule\n", 4, "needs 1 inputs"),
    ("eqn", "INPUT a b\nOUTPUT z\nz = FROB(a, b)\n", 3, "unknown gate type"),
    ("blif", ".model t\n.inputs a b c\n.outputs z\n.names a b c z\n110 1\n"
     "001 1\n.end\n", 4, "library cell"),
    ("blif", ".model t\n.inputs a b c d e f g\n.outputs z\n"
     ".names a b c d e f g z\n1111111 1\n.end\n", 4, "not classifiable"),
    ("v", "module t (a, b, z);\n  input a, b;\n  output z;\n"
     "  frob g0 (z, a, b);\nendmodule\n", 4, "unsupported statement"),
    ("v", "module t (a, z);\n  input a;\n  output z;\n"
     "  assign z = a + a;\nendmodule\n", 4, "unsupported assign"),
    # -- structure: double driver, undriven, cycle, driven input ------
    ("eqn", "INPUT a b\nOUTPUT z\nz = AND(a, b)\nz = OR(a, b)\n",
     4, "multiple drivers"),
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names a b z\n11 1\n"
     ".names a b z\n1- 1\n-1 1\n.end\n", 6, "multiple drivers"),
    ("v", "module t (a, b, z);\n  input a, b;\n  output z;\n"
     "  and g0 (z, a, b);\n  or g1 (z, a, b);\nendmodule\n",
     5, "multiple drivers"),
    ("eqn", "INPUT a\nOUTPUT z\nz = AND(a, ghost)\n", 3, "undriven net"),
    ("blif", ".model t\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n"
     ".end\n", 4, "undriven net"),
    ("v", "module t (a, z);\n  input a;\n  output z;\n"
     "  and g0 (z, a, ghost);\nendmodule\n", 4, "undriven net"),
    ("eqn", "INPUT a\nOUTPUT z\n\nOUTPUT y\nz = INV(a)\n", 4,
     "primary output 'y' is undriven"),
    ("blif", ".model t\n.inputs a\n.outputs z y\n.names a z\n0 1\n.end\n",
     3, "primary output 'y' is undriven"),
    ("eqn", "INPUT a\nOUTPUT z\nx = AND(a, z)\nz = INV(x)\n", 3,
     "combinational cycle"),
    ("blif", ".model t\n.inputs a\n.outputs z\n.names a z x\n11 1\n"
     ".names x z\n0 1\n.end\n", 4, "combinational cycle"),
    ("v", "module t (a, z);\n  input a;\n  output z;\n  wire x;\n"
     "  and g0 (x, a, z);\n  not g1 (z, x);\nendmodule\n", 5,
     "combinational cycle"),
    ("eqn", "INPUT a b\nOUTPUT z\nz = AND(a, b)\na = INV(b)\n", 4,
     "primary input 'a' cannot be driven"),
    ("eqn", "OUTPUT z\nz = INV(a)\na = INV(b)\nINPUT a b\n", 3,
     "primary input 'a' cannot be driven"),
    ("blif", ".model t\n.inputs a b\n.outputs z\n.names b a\n0 1\n"
     ".names a z\n1 1\n.end\n", 4, "primary input 'a' cannot be driven"),
    ("v", "module t (a, b, z);\n  input a, b;\n  output z;\n"
     "  not g0 (a, b);\n  buf g1 (z, a);\nendmodule\n", 4,
     "primary input 'a' cannot be driven"),
    # -- truncated statements -----------------------------------------
    ("blif", ".model t\n.inputs a\n.outputs z\n.names\n", 4, "bad .names"),
    ("blif", "# header\n11 1\n", 2, "outside .names"),
    ("blif", ".model t\n.inputs a\n.outputs z\n.latch a z\n", 4,
     "unsupported directive"),
    ("eqn", "INPUT a\nOUTPUT z\nz = AND(a, a\n", 3, "expected GATE"),
    ("eqn", "INPUT a\nOUTPUT z\nz AND(a, a)\n", 3, "expected '='"),
    ("v", "// design\nmodule t (a, z\n  input a;\n", 2, "no module header"),
    ("v", "\n\nmodule t (a, z);\n  input a;\n  output z;\n", 3,
     "missing endmodule"),
    ("v", "module t (a, z);\n/* two\nlines */ input a;\n  output z;\n"
     "  not g0 (z a);\nendmodule\n", 5, "needs 1 inputs"),
]

ERRORS = {"eqn": EqnFormatError, "blif": BlifFormatError, "v": VerilogFormatError}


class TestHostileInputs:
    @pytest.mark.parametrize(
        "fmt,text,line,fragment", HOSTILE,
        ids=[f"{case[0]}-{case[3]}-{i}" for i, case in enumerate(HOSTILE)],
    )
    def test_typed_error_with_line(self, fmt, text, line, fragment):
        with pytest.raises(ERRORS[fmt]) as excinfo:
            CODECS[fmt][1](text)
        message = str(excinfo.value)
        assert message.startswith(f"line {line}: "), message
        assert fragment in message, message

    def test_typed_errors_are_netlist_errors(self):
        for error in ERRORS.values():
            assert issubclass(error, NetlistError)

    def test_continued_line_counts_from_its_first_line(self):
        text = ".model t\n.inputs a \\\nb\n.outputs z\n.names a b z\n1x 1\n"
        with pytest.raises(BlifFormatError, match=r"^line 6: "):
            parse_blif(text)


class TestReadNetlist:
    def test_parse_span_attributes(self, tmp_path):
        netlist = generate_mastrovito(0b10011)
        registry = telemetry.Telemetry()
        sink = telemetry.MemorySink()
        registry.add_sink(sink)
        with telemetry.use(registry):
            for fmt in FORMATS:
                path = tmp_path / f"m4.{fmt}"
                write = CODECS[fmt][0]
                path.write_text(write(netlist), encoding="utf-8")
                assert len(read_netlist(path)) == len(netlist)
                parse_netlist(path.read_text(encoding="utf-8"), fmt)
        spans = [e for e in sink.events if e.get("name") == "parse"]
        assert [s["attrs"]["format"] for s in spans] == [
            fmt for fmt in FORMATS for _ in range(2)
        ]
        for span in spans:
            assert span["attrs"]["gates"] == len(netlist)
            assert span["attrs"]["bytes"] > 0

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.eqn"
        path.write_text("INPUT a\nOUTPUT z\nz = FROB(a, a)\n")
        with pytest.raises(EqnFormatError, match=r"bad\.eqn: line 3: "):
            read_netlist(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(NetlistError, match="unknown netlist format"):
            read_netlist(tmp_path / "x.vhd")
        with pytest.raises(NetlistError, match="unknown netlist format"):
            parse_netlist("", "vhd")


class TestCliErrors:
    @pytest.mark.parametrize(
        "command", [["extract"], ["audit"], ["diagnose"], ["synth"], ["eco"]]
    )
    def test_malformed_netlist_exits_2_with_one_line(
        self, command, tmp_path, capsys
    ):
        bad = tmp_path / "bad.blif"
        bad.write_text(
            ".model t\n.inputs a b\n.outputs z\n.names a b z\n1x 1\n.end\n"
        )
        good = tmp_path / "good.eqn"
        good.write_text(format_eqn(generate_mastrovito(0b10011)))
        argv = command + [str(bad)]
        if command == ["synth"]:
            argv += ["-o", str(tmp_path / "out.eqn")]
        if command == ["eco"]:
            argv = ["eco", str(good), str(bad), "--cache-dir",
                    str(tmp_path / "cache")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {bad}: line 5: cover row '1x 1' may only use "
            "'0', '1' and '-'"
        ]
