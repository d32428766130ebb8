"""Tests for the diagnosis decision tree."""

import pytest

from repro import telemetry
from repro.extract.diagnose import Verdict, _find_counterexample, diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.fieldmath.gf2m import GF2m
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault, stuck_at
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.naming import value_assignment
from repro.gen.normal_basis import generate_massey_omura
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.build import NetlistBuilder
from repro.netlist.gate import GateType
from repro.netlist.netlist import Netlist
from tests.conftest import bit_assignment, corrupt_output, exhaustive_pairs


class TestCleanMultipliers:
    @pytest.mark.parametrize(
        "generator",
        [
            generate_mastrovito,
            generate_montgomery,
            generate_karatsuba,
            generate_interleaved,
        ],
        ids=["mastrovito", "montgomery", "karatsuba", "interleaved"],
    )
    def test_verified(self, generator):
        diagnosis = diagnose(generator(0b10011))
        assert diagnosis.verdict is Verdict.VERIFIED_MULTIPLIER
        assert diagnosis.is_clean
        assert diagnosis.extraction.modulus == 0b10011
        assert diagnosis.counterexample is None

    def test_render_mentions_polynomial(self):
        report = diagnose(generate_mastrovito(0b1011)).render()
        assert "x^3 + x + 1" in report
        assert "verified-multiplier" in report


class TestMalformedNetlists:
    def test_wrong_ports(self):
        builder = NetlistBuilder("odd", inputs=["p", "q"])
        out = builder.and2("p", "q")
        builder.set_outputs([out])
        diagnosis = diagnose(builder.finish())
        assert diagnosis.verdict is Verdict.MALFORMED_PORTS
        assert not diagnosis.is_clean

    def test_memory_out(self):
        netlist = generate_montgomery(0b10011)
        diagnosis = diagnose(netlist, term_limit=3)
        assert diagnosis.verdict is Verdict.MEMORY_OUT
        assert "memory-out" in diagnosis.reason


class TestWrongBasis:
    def test_normal_basis_flagged(self):
        """A Massey-Omura multiplier is a correct field multiplier but
        not in polynomial basis; diagnosis must reject it either at
        the irreducibility gate or at golden-model verification."""
        diagnosis = diagnose(generate_massey_omura(0b10011))
        assert diagnosis.verdict in (
            Verdict.REDUCIBLE_POLYNOMIAL,
            Verdict.NOT_EQUIVALENT,
        )
        assert not diagnosis.is_clean


class TestBuggyMultipliers:
    def test_observable_faults_never_verify(self):
        lean = generate_mastrovito(0b10011)
        caught = 0
        observable = 0
        for seed in range(10):
            buggy, _ = random_fault(lean, seed=seed)
            changed = any(
                buggy.simulate(bit_assignment(4, a, b))
                != lean.simulate(bit_assignment(4, a, b))
                for a, b in exhaustive_pairs(4)
            )
            if not changed:
                continue  # structurally injected but functionally benign
            observable += 1
            if not diagnose(buggy).is_clean:
                caught += 1
        assert observable > 0
        assert caught == observable

    def test_counterexample_is_concrete(self):
        lean = generate_mastrovito(0b10011)
        # Tie a reduction XOR to zero: P_m membership often survives,
        # forcing the NOT_EQUIVALENT path with a counterexample.
        for gate in lean.gates:
            buggy, _ = stuck_at(lean, gate.output, 0)
            diagnosis = diagnose(buggy)
            if diagnosis.verdict is Verdict.NOT_EQUIVALENT:
                assert diagnosis.counterexample is not None
                # The counterexample must actually demonstrate the bug.
                assert (
                    buggy.simulate(diagnosis.counterexample)
                    != lean.simulate(diagnosis.counterexample)
                )
                return
        pytest.skip("no stuck-at fault hit the NOT_EQUIVALENT path")

    def test_counterexample_can_be_disabled(self):
        lean = generate_mastrovito(0b10011)
        for gate in lean.gates:
            buggy, _ = stuck_at(lean, gate.output, 0)
            diagnosis = diagnose(buggy, find_counterexample=False)
            if diagnosis.verdict is Verdict.NOT_EQUIVALENT:
                assert diagnosis.counterexample is None
                return
        pytest.skip("no stuck-at fault hit the NOT_EQUIVALENT path")


class TestRewriteFailure:
    def test_incomplete_cone(self):
        """An output fed by an undriven internal net cannot rewrite."""
        netlist = Netlist(
            "broken", inputs=["a0", "b0"], outputs=["z0"]
        )
        from repro.netlist.gate import Gate, GateType

        netlist.add_gate(
            Gate("z0", GateType.AND, ("a0", "dangling"))
        )
        diagnosis = diagnose(netlist)
        assert diagnosis.verdict is Verdict.REWRITE_FAILED


def scalar_counterexample(netlist, result, max_values=64):
    """Pair-by-pair reference for the counterexample search: one
    single-lane simulation per operand pair, a-major grid order."""
    m = result.m
    field = GF2m(result.modulus, check_irreducible=False)
    a_nets = [f"a{i}" for i in range(m)]
    b_nets = [f"b{i}" for i in range(m)]
    bound = min(1 << m, max_values)
    for a_value in range(bound):
        for b_value in range(bound):
            assignment = dict(value_assignment(a_nets, a_value))
            assignment.update(value_assignment(b_nets, b_value))
            values = netlist.simulate(assignment)
            got = sum(values[f"z{i}"] << i for i in range(m))
            if got != field.mul(a_value, b_value):
                return assignment
    return None


ZOO = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "digit-serial": generate_digit_serial,
}


class TestCounterexampleSearch:
    """The packed search must answer exactly what the pair-by-pair
    scan answers: the first failing pair of the grid, or None."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("generator", sorted(ZOO))
    def test_matches_scalar_scan_on_fault_mutants(self, generator, m):
        netlist = ZOO[generator](default_irreducible(m))
        result = extract_irreducible_polynomial(netlist)
        for seed in range(3):
            mutant, fault = random_fault(netlist, seed=seed)
            assert _find_counterexample(mutant, result) == (
                scalar_counterexample(mutant, result)
            ), fault

    def test_matches_scalar_scan_on_correct_netlist(self):
        netlist = generate_mastrovito(default_irreducible(5))
        result = extract_irreducible_polynomial(netlist)
        assert scalar_counterexample(netlist, result) is None
        assert _find_counterexample(netlist, result) is None

    @staticmethod
    def _hard_mutant():
        """m=8 Mastrovito wrong only when A >= 128 or B >= 128, which
        the default 64x64 grid never reaches."""
        netlist = generate_mastrovito(default_irreducible(8))
        result = extract_irreducible_polynomial(netlist)
        return corrupt_output(netlist, "z0", GateType.OR, "a7", "b7"), result

    def test_hard_mutant_is_one_pass(self, monkeypatch):
        mutant, result = self._hard_mutant()
        calls = []
        simulate = Netlist.simulate

        def counting(self, assignment, width=1):
            calls.append(width)
            return simulate(self, assignment, width)

        monkeypatch.setattr(Netlist, "simulate", counting)
        assert _find_counterexample(mutant, result) is None
        assert calls == [64 * 64]

    def test_first_failing_pair_in_grid_order(self):
        mutant, result = self._hard_mutant()
        # The a-major 256x256 grid first fails at (a=0, b=128).
        found = _find_counterexample(mutant, result, max_values=256)
        expected = value_assignment([f"a{i}" for i in range(8)], 0)
        expected.update(value_assignment([f"b{i}" for i in range(8)], 128))
        assert found == expected

    def test_diagnose_spans(self):
        registry = telemetry.Telemetry()
        sink = telemetry.MemorySink()
        registry.add_sink(sink)
        lean = generate_mastrovito(0b10011)
        buggy = corrupt_output(lean, "z1", GateType.AND, "a3", "b2")
        with telemetry.use(registry):
            diagnosis = diagnose(buggy)
        assert diagnosis.verdict is Verdict.NOT_EQUIVALENT
        spans = {
            event["name"]: event
            for event in sink.events
            if event.get("type") == "span"
        }
        outer, search = spans["diagnose"], spans["diagnose.counterexample"]
        assert search["parent_id"] == outer["span_id"]
        assert outer["attrs"]["verdict"] == "not-equivalent"
        assert search["attrs"] == {"pairs": 256, "passes": 1, "found": True}
