"""Differential tests: the cut-based ``aig`` engine against the
reference oracle.

The engine contract (:mod:`repro.engine`) requires bit-identical
*results* — canonical expressions, extracted P(x), member bits,
verdicts, and failure modes — from every backend.  This suite drives
the ``aig`` engine across the full generator zoo in both flat and
synthesized/technology-mapped forms (mapped netlists are the case this
backend exists for), across faulty mutants, random netlists over the
full cell library, and the structural failure modes."""

import hashlib

import pytest

from repro.engine.aig import _FLAT_BOUND, _PAIR_BUDGET, _CompiledAig
from repro.extract.diagnose import diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.irreducible import find_irreducible_pentanomials
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.normal_basis import generate_massey_omura
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite,
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


def assert_extractions_identical(netlist):
    """Both engines agree on every observable extraction result."""
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    aig = extract_irreducible_polynomial(netlist, engine="aig")
    assert aig.modulus == reference.modulus
    assert aig.member_bits == reference.member_bits
    assert aig.irreducible == reference.irreducible
    for bit in range(reference.m):
        assert aig.expression_of(bit) == reference.expression_of(bit)


class TestGeneratorZoo:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flat(self, name):
        assert_extractions_identical(GENERATORS[name](0b1011011))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_synthesized(self, name):
        assert_extractions_identical(synthesize(GENERATORS[name](0b100101)))

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_nand_mapped(self, name):
        """The harshest form — the case this backend exists for."""
        assert_extractions_identical(
            synthesize(GENERATORS[name](0b100101), use_xor_cells=False)
        )

    def test_unmapped_pipeline_output(self):
        assert_extractions_identical(
            synthesize(generate_mastrovito(0b1011011), map_cells=False)
        )


class TestRandomNetlists:
    @pytest.mark.parametrize("seed", range(60))
    def test_per_cone_identity_and_error_parity(self, seed):
        """Expression-identical where the oracle succeeds, and the
        same structural failure where it raises."""
        netlist = generate_random_netlist(seed)
        for output in netlist.outputs:
            try:
                expected, _ = backward_rewrite(
                    netlist, output, engine="reference"
                )
            except BackwardRewriteError:
                with pytest.raises(BackwardRewriteError):
                    backward_rewrite(netlist, output, engine="aig")
                continue
            actual, _ = backward_rewrite(netlist, output, engine="aig")
            assert actual == expected


class TestVerdictsAndFaults:
    def test_clean_multiplier(self):
        diagnosis = diagnose(generate_mastrovito(0b10011), engine="aig")
        assert diagnosis.verdict.value == "verified-multiplier"

    @pytest.mark.parametrize("seed", range(6))
    def test_fault_verdicts_match(self, seed):
        mutant, _ = random_fault(generate_mastrovito(0b10011), seed=seed)
        assert (
            diagnose(mutant, engine="aig").verdict
            is diagnose(mutant, engine="reference").verdict
        )

    def test_normal_basis_rejected(self):
        """The Theorem-3 negative case is backend-independent."""
        netlist = generate_massey_omura(0b1011)
        assert (
            diagnose(netlist, engine="aig").verdict
            is diagnose(netlist, engine="reference").verdict
        )


class TestFailureModes:
    def test_incomplete_cone_raises(self):
        netlist = Netlist("t", inputs=["a0"], outputs=["z0"])
        netlist.add_gate(Gate("z0", GateType.AND, ("a0", "floating")))
        with pytest.raises(BackwardRewriteError):
            backward_rewrite(netlist, "z0", engine="aig")

    def test_unknown_output_raises(self):
        netlist = generate_mastrovito(0b1011)
        with pytest.raises(BackwardRewriteError):
            backward_rewrite(netlist, "nonexistent", engine="aig")

    def test_term_limit_is_memory_out(self):
        with pytest.raises(TermLimitExceeded):
            extract_irreducible_polynomial(
                generate_mastrovito(0b100011011),
                engine="aig",
                term_limit=2,
            )

    def test_rewriting_a_primary_input(self):
        netlist = generate_mastrovito(0b1011)
        poly, _ = backward_rewrite(netlist, "a0", engine="aig")
        assert str(poly) == "a0"


def node_anfs(compiled):
    """Exact PI-space ANF of every AIG node, as a set of packed masks.

    An independent oracle for :attr:`_CompiledAig.flats`: each node is
    simulated over all leaf assignments (bit ``t`` of a node's value
    is its output on minterm ``t``, leaf bit ``j`` = variable ``j``),
    then the truth table goes through a Möbius transform.  No
    polynomial product is involved.
    """
    aig = compiled.aig
    n_vars = len(compiled.leaf_bits)
    size = 1 << n_vars
    full = (1 << size) - 1
    values = [0] * len(aig)
    for node, bit in compiled.leaf_bits.items():
        values[node] = sum(
            1 << minterm for minterm in range(size) if minterm >> bit & 1
        )
    for node in range(1, len(aig)):
        if aig.is_leaf(node):
            continue
        f0, f1 = aig.fanins(node)
        v0 = values[f0 >> 1] ^ (full if f0 & 1 else 0)
        v1 = values[f1 >> 1] ^ (full if f1 & 1 else 0)
        values[node] = v0 & v1 if aig.is_and(node) else v0 ^ v1
    # Möbius transform on the integer truth table: for each variable,
    # XOR every minterm with the variable clear into its partner.
    low_halves = []
    for position in range(n_vars):
        stride = 1 << position
        block = (1 << stride) - 1
        starts = range(0, size, 2 * stride)
        low_halves.append((stride, sum(block << s for s in starts)))
    anfs = {}
    for node, table in enumerate(values):
        for stride, low in low_halves:
            table ^= (table & low) << stride
        anfs[node] = {mask for mask in range(size) if table >> mask & 1}
    return anfs


def skipped_cut_searches(compiled):
    """AND nodes whose flattening skipped the cut search: both fanins
    flat, pair within budget, and the exact product over the bound."""
    aig, flats = compiled.aig, compiled.flats
    skipped = []
    for node in range(1, len(aig)):
        if not aig.is_and(node) or node in flats:
            continue
        p0, p1 = (flats.get(lit >> 1) for lit in aig.fanins(node))
        if p0 is not None and p1 is not None:
            if len(p0) * len(p1) <= _PAIR_BUDGET:
                skipped.append(node)
    return skipped


def flats_digest(flats):
    """Order-independent sha256 of a compiled program's flat table."""
    digest = hashlib.sha256()
    for node, poly in sorted(flats.items()):
        digest.update(f"{node}:{','.join(map(str, sorted(poly)))};".encode())
    return digest.hexdigest()


#: ``flats_digest`` of compiled NAND-mapped multipliers over the first
#: irreducible pentanomial of degree m, recorded before the
#: oversize-product cut-search skip went in: any change to what the
#: compile produces fails here.  The Karatsuba m=16 program is one of
#: the few where a cut search succeeds, so it pins that path too.
GOLDEN_FLATS = {
    ("mastrovito", 16): (
        "788c07c658d8932c7f7f4295ad341b8bdcf65b11cef5171e2fd1a1a9568fb25d"
    ),
    ("mastrovito", 32): (
        "0a3bbfeda0888b3d123ce07c4181d139e139bd196530607e6bfbf0ac52c6050d"
    ),
    ("karatsuba", 16): (
        "7ef11b6c0d846a33e099b9ed0690fa37855a9784c489b7c72564c594bc16f336"
    ),
}


class TestCompiledProgram:
    @pytest.mark.parametrize("form", ["flat", "syn", "nand"])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flats_match_exact_anf(self, name, form):
        """Every flattened node is its exact PI-space ANF, and every
        node whose cut search was skipped really is over the bound."""
        for modulus in (0b10011, 0b100101):
            netlist = GENERATORS[name](modulus)
            if form != "flat":
                netlist = synthesize(netlist, use_xor_cells=form == "syn")
            compiled = _CompiledAig(netlist)
            anfs = node_anfs(compiled)
            for node, poly in compiled.flats.items():
                assert set(poly) == anfs[node], node
            for node in skipped_cut_searches(compiled):
                assert len(anfs[node]) > _FLAT_BOUND, node

    def test_skip_fires_on_a_mapped_multiplier(self):
        """The NAND-mapped m=5 Montgomery has oversize products, so the
        skip check above is not vacuous."""
        netlist = synthesize(
            generate_montgomery(0b100101), use_xor_cells=False
        )
        assert skipped_cut_searches(_CompiledAig(netlist))

    @pytest.mark.parametrize("name,m", sorted(GOLDEN_FLATS))
    def test_golden_flats(self, name, m):
        modulus = find_irreducible_pentanomials(m, limit=1)[0]
        netlist = synthesize(GENERATORS[name](modulus), use_xor_cells=False)
        compiled = _CompiledAig(netlist)
        assert flats_digest(compiled.flats) == GOLDEN_FLATS[name, m]


class TestTrace:
    def test_trace_records_cut_steps(self):
        netlist = synthesize(
            generate_mastrovito(0b10011), use_xor_cells=False
        )
        _, stats = backward_rewrite(
            netlist, "z0", engine="aig", trace=True
        )
        assert len(stats.trace) == stats.iterations
        for step in stats.trace:
            assert "=" in step.gate


class TestCacheInvalidation:
    def test_compiled_netlist_tracks_mutation(self):
        """Appending gates after a rewrite must recompile, like the
        bitpack engine's weak cache does."""
        netlist = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        netlist.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
        first, _ = backward_rewrite(netlist, "z0", engine="aig")
        netlist.add_gate(Gate("extra", GateType.XOR, ("a0", "b0")))
        netlist.add_output("extra")
        second, _ = backward_rewrite(netlist, "extra", engine="aig")
        reference, _ = backward_rewrite(netlist, "extra", engine="reference")
        assert second == reference
        assert str(first) == "a0*b0"
