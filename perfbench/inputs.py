"""Seeded inputs for the benchmark workloads, each with its known answer.

Every netlist is written to disk in one of the three formats the CLI
reads, and carries the answer fixed when it was generated: for a clean
netlist the P(x) it was built from, for a fault-injected mutant the
verdict and the P(x) that Algorithm 2 recovers from it, for an ECO edit
"equivalent" (the edit is an absorption identity).  Answers never come
from an engine: they come from bit-parallel simulation against
:func:`golden_outputs`, a GF(2^m) model that shares no code with the
program, and from :func:`algorithm2_modulus`, which reads Algorithm 2's
membership test off four simulations per product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.cli import _GENERATORS, _WRITERS
from repro.fieldmath.bitpoly import bitpoly_parse, bitpoly_str
from repro.fieldmath.irreducible import find_irreducible_pentanomials
from repro.gen.faults import random_fault
from repro.netlist.netlist import Netlist
from repro.synth.pipeline import synthesize

#: The paper's m=64 field polynomial, used by the NAND-mapped workloads.
P64 = bitpoly_parse("x^64+x^21+x^19+x^4+1")

GENERATORS = (
    "mastrovito",
    "montgomery",
    "schoolbook",
    "karatsuba",
    "interleaved",
    "digit-serial",
)
FORMS = ("flat", "syn", "nand")
FORMATS = ("eqn", "blif", "v")


@dataclass
class Item:
    """One generated netlist file and its known answer: for a clean
    netlist the P(x) it was built from, for a mutant the P(x)
    Algorithm 2 recovers from it (see :func:`algorithm2_modulus`)."""

    path: Path
    m: int
    modulus: int
    clean: bool
    generator: str
    form: str
    gates: int
    #: The diagnosis verdict it must get.
    verdict: str = "verified-multiplier"
    #: Set for mutants: what the fault changed.
    fault: str = ""

    @property
    def fmt(self) -> str:
        return self.path.suffix.lstrip(".")

    @property
    def polynomial(self) -> str:
        return bitpoly_str(self.modulus)


@dataclass
class Edit:
    """A function-preserving single-cone ECO edit of a baseline."""

    path: Path
    cone: str
    gate: str


def gf_mul(a: int, b: int, modulus: int) -> int:
    """Golden ``a*b mod modulus`` over GF(2) (carry-less, then reduce)."""
    m = modulus.bit_length() - 1
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    for bit in range(product.bit_length() - 1, m - 1, -1):
        if product >> bit & 1:
            product ^= modulus << (bit - m)
    return product


def operand_lanes(m: int, rng: random.Random, count: int = 512):
    """Bit-parallel operands: ``(a_lanes, b_lanes, width)`` where bit
    ``L`` of ``a_lanes[i]`` is bit ``i`` of lane ``L``'s operand A.
    Every pair when m <= 8, otherwise ``count`` random pairs."""
    if m > 8:
        pairs = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(count)]
        a_lanes = [sum((a >> i & 1) << k for k, (a, _) in enumerate(pairs)) for i in range(m)]
        b_lanes = [sum((b >> i & 1) << k for k, (_, b) in enumerate(pairs)) for i in range(m)]
        return a_lanes, b_lanes, count
    size = 1 << m  # lane L = a * size + b
    block = (1 << size) - 1
    repeat = sum(1 << (k * size) for k in range(size))
    a_lanes = [
        sum(block << (a * size) for a in range(size) if a >> i & 1)
        for i in range(m)
    ]
    b_lanes = [
        sum(1 << b for b in range(size) if b >> i & 1) * repeat
        for i in range(m)
    ]
    return a_lanes, b_lanes, size * size


def golden_outputs(modulus: int, a_lanes, b_lanes):
    """Lane-packed ``z = a*b mod P`` from the bilinear form:
    ``z_k`` is the XOR of ``a_i & b_j`` over every ``(i, j)`` whose
    reduced ``x^(i+j)`` has bit ``k``."""
    m = modulus.bit_length() - 1
    z = [0] * m
    for i in range(m):
        for j in range(m):
            product = a_lanes[i] & b_lanes[j]
            reduced = gf_mul(1 << i, 1 << j, modulus)
            for k in range(m):
                if reduced >> k & 1:
                    z[k] ^= product
    return z


def failing_lanes(netlist: Netlist, modulus: int, lanes) -> int:
    """Mask of the lanes the netlist gets wrong, by one bit-parallel
    simulation against :func:`golden_outputs`."""
    a_lanes, b_lanes, width = lanes
    m = modulus.bit_length() - 1
    assignment = {f"a{i}": a_lanes[i] for i in range(m)}
    assignment.update({f"b{i}": b_lanes[i] for i in range(m)})
    values = netlist.simulate(assignment, width=width)
    wrong = 0
    for k, expected in enumerate(golden_outputs(modulus, a_lanes, b_lanes)):
        wrong |= values[f"z{k}"] ^ expected
    return wrong


def field_polynomials(m: int, count: int = 4) -> List[int]:
    """The first ``count`` irreducible pentanomials of degree ``m``
    (one weight class, so the choice barely moves the netlist size)."""
    return find_irreducible_pentanomials(m, limit=count)


def build(generator: str, modulus: int, form: str) -> Netlist:
    netlist = _GENERATORS[generator](modulus)
    if form == "syn":
        netlist = synthesize(netlist)
    elif form == "nand":
        netlist = synthesize(netlist, use_xor_cells=False)
    return netlist


def write(netlist: Netlist, path: Path) -> None:
    _WRITERS[path.suffix.lstrip(".")](netlist, str(path))


def _item(netlist, path, modulus, generator, form, clean=True, fault=""):
    write(netlist, path)
    return Item(
        path=path,
        m=modulus.bit_length() - 1,
        modulus=modulus,
        clean=clean,
        generator=generator,
        form=form,
        gates=len(netlist),
        fault=fault,
    )


def nand_mastrovito(workdir: Path, m: int, name: str):
    """The NAND-mapped Mastrovito of the one-shot and ECO workloads,
    ``(item, netlist)``: the paper's P(x) at m=64, else the first
    irreducible pentanomial of degree ``m``."""
    modulus = P64 if m == 64 else field_polynomials(m)[0]
    netlist = build("mastrovito", modulus, "nand")
    path = workdir / f"{name}.eqn"
    return _item(netlist, path, modulus, "mastrovito", "nand"), netlist


def _structure(generator: str, modulus: int, form: str) -> tuple:
    # Structural hashing turns a NAND-mapped netlist back into its
    # synthesized form, so those two share a fingerprint.
    return generator, modulus, form == "flat"


def _fresh_modulus(rng, m, generator, form, used, count=4) -> int:
    """A P(x) of degree ``m`` giving a structure not in ``used``."""
    choices = field_polynomials(m, count)
    rng.shuffle(choices)
    for modulus in choices:
        key = _structure(generator, modulus, form)
        if key not in used:
            used.add(key)
            return modulus
    raise ValueError(f"no unused P(x) of degree {m} for {generator}/{form}")


def algorithm2_modulus(netlist: Netlist, m: int) -> int:
    """The P(x) Algorithm 2 recovers, by simulation alone: ``x^m`` plus
    ``x^k`` for each output ``z_k`` whose algebraic normal form holds
    every product ``a_i*b_(m-i)``.  The coefficient of ``a_i*b_j`` is
    the XOR of the output over the four corners of the ``(a_i, b_j)``
    subcube with every other input 0."""
    pairs = [(i, m - i) for i in range(1, m)]
    assignment = {f"{port}{i}": 0 for port in "ab" for i in range(m)}
    for index, (i, j) in enumerate(pairs):
        lane = 1 + 3 * index  # lanes: a_i alone, b_j alone, both
        assignment[f"a{i}"] |= 0b101 << lane
        assignment[f"b{j}"] |= 0b110 << lane
    values = netlist.simulate(assignment, width=1 + 3 * len(pairs))
    modulus = 1 << m
    for k in range(m):
        z = values[f"z{k}"]
        if all(
            (z ^ z >> lane ^ z >> lane + 1 ^ z >> lane + 2) & 1
            for lane in range(1, 1 + 3 * len(pairs), 3)
        ):
            modulus |= 1 << k
    return modulus


def irreducible(poly: int) -> bool:
    """Trial division by every polynomial up to half the degree."""
    degree = poly.bit_length() - 1
    for divisor in range(2, 1 << (degree // 2 + 1)):
        rest = poly
        shift = divisor.bit_length() - 1
        while rest.bit_length() > shift:
            rest ^= divisor << (rest.bit_length() - 1 - shift)
        if rest == 0:
            return False
    return degree > 0


#: Operand pairs of m=8 as lane masks of :func:`operand_lanes` (lane =
#: A * 256 + B): A <= 1 with B < 64, and both A and B below 64.
SMALL_A = sum(((1 << 64) - 1) << (a * 256) for a in range(2))
LOW_AB = sum(((1 << 64) - 1) << (a * 256) for a in range(64))


def mutant_answer(mutant: Netlist, modulus: int, lanes):
    """``(verdict, recovered P(x), class)`` of an m=8 mutant, or None
    when the fault is benign.  ``hard``: not equivalent, but only on
    operands with A or B at least 64; ``easy``: reducible P(x), or
    wrong on a pair with A <= 1 and B < 64.  Faults of either class
    cost the diagnosis about the same on every draw, so the seed does
    not move the fleet's cost."""
    recovered = algorithm2_modulus(mutant, 8)
    if not irreducible(recovered):
        wrong = failing_lanes(mutant, modulus, lanes)
        return ("reducible-polynomial", recovered, "easy") if wrong else None
    wrong = failing_lanes(mutant, recovered, lanes)
    if not wrong:
        return None
    if wrong & SMALL_A:
        kind = "easy"
    elif not wrong & LOW_AB:
        kind = "hard"
    else:
        kind = "other"
    return "not-equivalent", recovered, kind


def fleet(workdir: Path, seed: int, clean_specs, mutant_specs) -> List[Item]:
    """The triage fleet: one clean netlist per ``(generator, form, m,
    format)`` of ``clean_specs`` and one m=8 mutant per ``(generator,
    form, format, fault class)`` of ``mutant_specs``.  The seed picks
    each P(x) (no two netlists share a structure) and each fault; the
    fleet's shape is fixed, so its cost does not depend on the seed."""
    rng = random.Random(seed)
    items: List[Item] = []
    used: set = set()
    for index, (generator, form, m, fmt) in enumerate(clean_specs):
        modulus = _fresh_modulus(rng, m, generator, form, used)
        path = workdir / f"c{index:02d}_{generator}_{form}_m{m}.{fmt}"
        items.append(
            _item(build(generator, modulus, form), path, modulus, generator, form)
        )
    lanes = operand_lanes(8, rng)
    for index, (generator, form, fmt, wanted) in enumerate(mutant_specs):
        modulus = rng.choice(field_polynomials(8))
        good = build(generator, modulus, form)
        for _ in range(1000):
            mutant, fault = random_fault(good, seed=rng.randrange(1 << 30))
            answer = mutant_answer(mutant, modulus, lanes)
            if answer is not None and answer[2] == wanted:
                break
        else:
            raise ValueError(f"no {wanted} fault in {generator}/{form}")
        verdict, recovered, _ = answer
        path = workdir / f"f{index:02d}_{generator}_{form}_m8.{fmt}"
        item = _item(mutant, path, recovered, generator, form, False, f"{wanted}: {fault}")
        item.verdict = verdict
        items.append(item)
    return items


def _cone_owners(netlist: Netlist) -> Dict[str, int]:
    """Bitmask of the outputs whose cone contains each net."""
    index = {net: i for i, net in enumerate(netlist.outputs)}
    owners: Dict[str, int] = {}
    for gate in reversed(netlist.topological_order()):
        mask = owners.get(gate.output, 0)
        if gate.output in index:
            mask |= 1 << index[gate.output]
        owners[gate.output] = mask
        for net in gate.inputs:
            owners[net] = owners.get(net, 0) | mask
    return owners


def eco_edits(base: Netlist, item: Item, seed: int, cones: List[str]) -> List[Edit]:
    """One edited copy of the baseline file per output in ``cones``,
    each with one gate ``y`` of that output's cone alone rewritten as
    ``y & (y | s)`` for a primary input ``s`` of the same cone (the
    seed picks ``y`` and ``s``).  Absorption keeps the
    function, and structural hashing keeps the extra logic, so exactly
    that cone's digest changes.  The edits are made on the baseline's
    ``.eqn`` text, one gate line each."""
    rng = random.Random(seed)
    outputs = base.outputs
    owners = _cone_owners(base)
    text = item.path.read_text(encoding="utf-8")
    edits: List[Edit] = []
    for number, cone in enumerate(cones):
        bit = 1 << outputs.index(cone)
        target = rng.choice(
            [
                gate
                for gate in base.gates
                if owners[gate.output] == bit and gate.output not in outputs
            ]
        )
        select = rng.choice(
            [net for net in base.inputs if owners.get(net, 0) & bit]
        )
        line = f"{target.output} = {target.gtype.value}({', '.join(target.inputs)})\n"
        kept, either = f"{target.output}_eco", f"{target.output}_eco_or"
        replacement = (
            f"{kept} = {target.gtype.value}({', '.join(target.inputs)})\n"
            f"{either} = OR({kept}, {select})\n"
            f"{target.output} = AND({kept}, {either})\n"
        )
        assert text.count(line) == 1, line
        path = item.path.with_name(f"edit{number:02d}_{cone}.eqn")
        path.write_text(text.replace(line, replacement), encoding="utf-8")
        edits.append(Edit(path=path, cone=cone, gate=target.output))
    return edits


def serve_mix(workdir: Path, seed: int, cached_specs, fresh_specs):
    """Netlists the server is warmed with and netlists it has never
    seen, one per ``(generator, form, m, format)`` spec; the seed picks
    each P(x), and no two netlists share a structure, so every fresh
    netlist is a cache miss."""
    rng = random.Random(seed)
    used: set = set()
    groups = []
    for prefix, specs in (("s", cached_specs), ("n", fresh_specs)):
        group: List[Item] = []
        for index, (generator, form, m, fmt) in enumerate(specs):
            modulus = _fresh_modulus(rng, m, generator, form, used, count=16)
            path = workdir / f"{prefix}{index:02d}_{generator}_{form}_m{m}.{fmt}"
            group.append(
                _item(build(generator, modulus, form), path, modulus, generator, form)
            )
        groups.append(group)
    return groups[0], groups[1]
