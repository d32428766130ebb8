"""Algorithm 1 — backward rewriting of one output bit in GF(2^m).

Starting from ``F0 = z_i`` (the output-bit slice of the output
signature), the engine walks the gates of the output's fan-in cone in
*reverse* topological order and substitutes each gate's output variable
by its algebraic model (Eq. 1).  Monomials with even coefficients are
cancelled at every step — structural in our set-of-monomials
representation — so after the last substitution the polynomial mentions
only primary inputs and is the unique GF(2) function of the output bit
(Theorem 1).

Theorem 2 (parallelizability) is what justifies restricting rewriting
to the cone: cancellations never cross output-bit boundaries, so
rewriting ``z_i`` never needs gates outside its own cone, regardless of
logic sharing between cones.

The engine reports the statistics the paper's evaluation uses: number
of rewriting iterations, peak intermediate term count (the memory
driver in Tables I/II), runtime, and — for Figure 3 — an optional
step-by-step trace with the eliminated monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.gf2.monomial import Monomial, monomial_str
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.gate_models import gate_model


class BackwardRewriteError(RuntimeError):
    """Rewriting failed structurally (e.g. non-input variable left)."""


class TermLimitExceeded(BackwardRewriteError):
    """The intermediate expression outgrew the configured budget.

    This models the paper's "MO" (memory-out) entry: the GF(2^409)
    Montgomery multiplier exceeded 32 GB during extraction (Table II).
    """

    def __init__(self, output: str, terms: int, limit: int):
        super().__init__(
            f"rewriting {output!r} reached {terms} terms "
            f"(limit {limit}) — memory-out"
        )
        self.output = output
        self.terms = terms
        self.limit = limit

    def __reduce__(self):
        # Exceptions cross process boundaries when a pool worker hits the
        # term limit; without this, unpickling calls the constructor with
        # the formatted message only and the pool deadlocks.
        return (TermLimitExceeded, (self.output, self.terms, self.limit))


@dataclass
class TraceStep:
    """One Figure-3 row: the gate rewritten and the expression after."""

    gate: str
    expression: str
    eliminated: str


@dataclass
class RewriteStats:
    """Metrics of one output bit's rewriting run."""

    output: str
    iterations: int = 0
    cone_gates: int = 0
    peak_terms: int = 0
    final_terms: int = 0
    eliminated_monomials: int = 0
    runtime_s: float = 0.0
    trace: List[TraceStep] = field(default_factory=list)


def backward_rewrite(
    netlist: Netlist,
    output: str,
    trace: bool = False,
    term_limit: Optional[int] = None,
    engine: str = "reference",
    telemetry=None,
) -> Tuple[Gf2Poly, RewriteStats]:
    """Extract the canonical GF(2) expression of one output bit.

    Returns the polynomial over primary inputs plus rewriting
    statistics.  ``trace=True`` records a Figure-3 style step log
    (keep cones tiny when tracing).  ``term_limit`` aborts with
    :class:`TermLimitExceeded` when the intermediate expression
    explodes, modelling the paper's memory-out condition.  ``engine``
    selects the execution backend (see :mod:`repro.engine`); every
    backend returns identical results (a compiling backend uses the
    program its ``prepare(netlist, cache)`` left ready).
    ``telemetry`` selects the :class:`repro.telemetry.Telemetry`
    registry the run's spans land in (default: the active one);
    ``runtime_s`` is the cone span's wall time.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> net = generate_mastrovito(0b111)       # GF(2^2), x^2+x+1
    >>> poly, stats = backward_rewrite(net, "z1")
    >>> str(poly)
    'a0*b1 + a1*b0 + a1*b1'
    >>> poly == backward_rewrite(net, "z1", engine="bitpack")[0]
    True
    """
    tel = _telemetry.resolve(telemetry)
    if engine not in (None, "reference"):
        from repro.engine import get_engine

        with _telemetry.use(tel):
            return get_engine(engine).rewrite(
                netlist,
                output,
                trace=trace,
                term_limit=term_limit,
            )
    with tel.span("cone", engine="reference", output=output) as span:
        stats = RewriteStats(output=output)

        cone = netlist.cone_gates(output)
        stats.cone_gates = len(cone)
        primary_inputs = set(netlist.inputs)

        # F0 = z_i : a single one-variable monomial.
        current: Set[Monomial] = {frozenset({output})}
        stats.peak_terms = 1

        for gate in reversed(cone):
            variable = gate.output
            affected = [mono for mono in current if variable in mono]
            if not affected:
                # The gate drives no remaining variable; Algorithm 1
                # line 4 skips gates whose output is absent from F_i.
                continue
            model = gate_model(gate)
            eliminated = 0
            for mono in affected:
                current.discard(mono)
            for mono in affected:
                stripped = mono - {variable}
                for replacement in model:
                    product = stripped | replacement
                    if product in current:
                        current.discard(product)
                        eliminated += 2  # both copies cancelled mod 2
                    else:
                        current.add(product)
            stats.iterations += 1
            stats.eliminated_monomials += eliminated
            if len(current) > stats.peak_terms:
                stats.peak_terms = len(current)
                if term_limit is not None and stats.peak_terms > term_limit:
                    raise TermLimitExceeded(
                        output, stats.peak_terms, term_limit
                    )
            if trace:
                stats.trace.append(
                    TraceStep(
                        gate=str(gate),
                        expression=str(Gf2Poly.from_monomials(current)),
                        eliminated=f"{eliminated} monomials cancelled",
                    )
                )

        leftovers = {
            name
            for mono in current
            for name in mono
            if name not in primary_inputs
        }
        if leftovers:
            raise BackwardRewriteError(
                f"rewriting {output!r} left non-input variables "
                f"{sorted(leftovers)[:5]} — netlist is not a complete "
                "combinational cone"
            )

        stats.final_terms = len(current)
        span.annotate(
            iterations=stats.iterations, peak_terms=stats.peak_terms
        )
        stats.runtime_s = span.elapsed()
        return Gf2Poly.from_monomials(current), stats


def backward_rewrite_all(
    netlist: Netlist,
    outputs: Optional[List[str]] = None,
    term_limit: Optional[int] = None,
    engine: str = "reference",
) -> Dict[str, Tuple[Gf2Poly, RewriteStats]]:
    """Sequentially rewrite several output bits (see also ``parallel``)."""
    chosen = list(outputs) if outputs is not None else list(netlist.outputs)
    return {
        output: backward_rewrite(
            netlist, output, term_limit=term_limit, engine=engine
        )
        for output in chosen
    }


def backward_rewrite_multi(
    netlist: Netlist,
    outputs: Optional[List[str]] = None,
    term_limit: Optional[int] = None,
    engine: str = "reference",
    telemetry=None,
) -> Dict[str, Tuple[Gf2Poly, RewriteStats]]:
    """Multi-root Algorithm 1: every requested cone in one engine call.

    This is the decoded face of the engines' multi-root entry point
    (:meth:`repro.engine.base.Engine.rewrite_cones`): a backend with a
    fused substitution sweep (the numpy ``vector`` engine) rewrites
    all cones in one amortized pass over the shared gate DAG, while
    every other backend runs the same per-bit loop
    :func:`backward_rewrite` would — results are bit-identical either
    way (Theorem 1), only statistics and wall-clock differ.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> net = generate_mastrovito(0b1011)
    >>> polys = backward_rewrite_multi(net, ["z0", "z1"])
    >>> str(polys["z0"][0])
    'a0*b0 + a1*b2 + a2*b1'
    """
    from repro.engine import get_engine

    chosen = list(outputs) if outputs is not None else list(netlist.outputs)
    with _telemetry.use(_telemetry.resolve(telemetry)):
        cones = get_engine(engine).rewrite_cones(
            netlist, chosen, term_limit=term_limit
        )
    return {
        output: (cone.decode(), stats)
        for output, (cone, stats) in cones.items()
    }


def format_trace(stats: RewriteStats) -> str:
    """Render a recorded trace like Figure 3 of the paper."""
    lines = [f"backward rewriting of {stats.output}:"]
    for idx, step in enumerate(stats.trace):
        lines.append(f"  step {idx + 1}: rewrite {step.gate}")
        lines.append(f"    F = {step.expression}   ({step.eliminated})")
    lines.append(
        f"  done: {stats.iterations} iterations, "
        f"peak {stats.peak_terms} terms, final {stats.final_terms} terms"
    )
    return "\n".join(lines)
