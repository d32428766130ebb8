"""Tests for golden-model verification."""

import random

import pytest

from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import verify_multiplier
from repro.fieldmath.gf2m import GF2m
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.faults import random_fault
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from tests.conftest import bit_assignment, corrupt_output, output_value


class TestHappyPath:
    @pytest.mark.parametrize("modulus", [0b111, 0b1011, 0b10011, 0x11B])
    def test_correct_multiplier_verifies(self, modulus):
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result)
        assert report.equivalent
        assert report.irreducible
        assert report.simulation_ok
        assert report.failing_bits == []
        assert "EQUIVALENT" in str(report)

    def test_montgomery_verifies(self):
        netlist = generate_montgomery(0b10011)
        result = extract_irreducible_polynomial(netlist)
        assert verify_multiplier(netlist, result).equivalent


class TestBugDetection:
    def _buggy_multiplier(self) -> Netlist:
        """A Mastrovito multiplier with one XOR swapped for OR."""
        netlist = generate_mastrovito(0b10011)
        buggy = Netlist(netlist.name, inputs=netlist.inputs)
        flipped = False
        for gate in netlist.topological_order():
            if not flipped and gate.gtype is GateType.XOR and (
                gate.output == "z2"
            ):
                buggy.add_gate(Gate(gate.output, GateType.OR, gate.inputs))
                flipped = True
            else:
                buggy.add_gate(gate)
        for net in netlist.outputs:
            buggy.add_output(net)
        assert flipped
        return buggy

    def test_gate_bug_caught(self):
        buggy = self._buggy_multiplier()
        result = extract_irreducible_polynomial(buggy)
        report = verify_multiplier(buggy, result)
        assert not report.equivalent
        assert 2 in report.failing_bits
        assert "NOT EQUIVALENT" in str(report)

    def test_simulation_cross_check_agrees_with_algebra(self):
        """On a buggy circuit both checks must fail (no false greens)."""
        buggy = self._buggy_multiplier()
        result = extract_irreducible_polynomial(buggy)
        report = verify_multiplier(buggy, result)
        algebra_says_bad = not all(report.algebraic.values())
        sim_says_bad = report.simulation_ok is False
        assert algebra_says_bad and sim_says_bad

    def test_skip_simulation(self):
        netlist = generate_mastrovito(0b111)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(netlist, result, simulate=False)
        assert report.simulation_ok is None
        assert report.equivalent  # algebra alone suffices


class TestRandomisedLarge:
    def test_large_m_uses_random_vectors(self):
        from repro.fieldmath.irreducible import default_irreducible

        modulus = default_irreducible(10)
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        report = verify_multiplier(
            netlist, result, max_exhaustive_m=6, random_vectors=64
        )
        assert report.equivalent
        # 64 random + 4 corner vectors
        assert report.simulation_vectors == 68


def scalar_simulation_check(
    netlist, modulus, m, max_exhaustive_m=6, random_vectors=512, seed=2017
):
    """Pair-by-pair reference for the simulation cross-check: the same
    operand pairs in the same order, one single-lane simulation each;
    returns ``(simulation_ok, simulation_vectors)``."""
    field = GF2m(modulus, check_irreducible=False)
    if m <= max_exhaustive_m:
        pairs = [(a, b) for a in range(1 << m) for b in range(1 << m)]
    else:
        rng = random.Random(seed)
        top = (1 << m) - 1
        pairs = [
            (rng.randint(0, top), rng.randint(0, top))
            for _ in range(random_vectors)
        ]
        pairs.extend([(0, 0), (1, 1), (top, top), (1, top)])
    for index, (a, b) in enumerate(pairs):
        outputs = netlist.simulate(bit_assignment(m, a, b))
        if output_value(outputs, m) != field.mul(a, b):
            return False, index + 1
    return True, len(pairs)


class TestSimulationParity:
    """The packed simulation check reports exactly what a pair-by-pair
    check over the same pairs reports."""

    @pytest.mark.parametrize("m", [4, 5, 6, 9])
    @pytest.mark.parametrize(
        "generator", [generate_mastrovito, generate_montgomery,
                      generate_schoolbook],
    )
    def test_matches_scalar_check(self, generator, m):
        modulus = default_irreducible(m)
        netlist = generator(modulus)
        result = extract_irreducible_polynomial(netlist)
        candidates = [netlist] + [
            random_fault(netlist, seed=seed)[0] for seed in range(3)
        ]
        for candidate in candidates:
            report = verify_multiplier(
                candidate, result, random_vectors=64
            )
            expected = scalar_simulation_check(
                candidate, modulus, m, random_vectors=64
            )
            assert (
                report.simulation_ok, report.simulation_vectors
            ) == expected

    def test_failure_past_the_first_pass(self):
        """m=7 exhaustive is 16,384 pairs in four 4,096-lane passes; a
        bug needing a5 and b6 first shows at (a=32, b=64), pair
        32*128 + 64 = 4160, lane 64 of the second pass."""
        modulus = default_irreducible(7)
        netlist = generate_mastrovito(modulus)
        result = extract_irreducible_polynomial(netlist)
        clean = verify_multiplier(netlist, result, max_exhaustive_m=7)
        assert clean.equivalent
        assert clean.simulation_vectors == 1 << 14

        buggy = corrupt_output(netlist, "z3", GateType.AND, "a5", "b6")
        report = verify_multiplier(buggy, result, max_exhaustive_m=7)
        assert not report.equivalent
        assert report.simulation_ok is False
        assert report.simulation_vectors == 32 * 128 + 64 + 1
