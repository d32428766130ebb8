"""Bit-packed backward rewriting — monomials as ``int`` bitmasks.

The hot loop of Algorithm 1 is "strip the gate-output variable from a
monomial, union in a model monomial, toggle the result mod 2".  With
the signals of one output cone interned to bit indices
(:mod:`repro.engine.interning`) those operations become single int
instructions::

    stripped = mono & ~var_bit          # strip the rewritten variable
    product  = stripped | model_mask    # monomial multiplication
    set.add/discard(product)            # mod-2 cancellation

A polynomial is a ``set[int]``; hashing an ``int`` is word-sized work
instead of the per-element string hashing of ``frozenset[str]``, and no
container is allocated per monomial.

Compilation (once per netlist, cached weakly)
---------------------------------------------
Primary inputs receive the *global* low bit indices ``0..P-1``, so a
fully-rewritten monomial — a product of primary inputs — is a small
integer whose packing is shared by every cone.  A forward pass then
**flattens** cheap fanout-free regions: a gate whose inputs are all
flat (primary inputs or previously flattened nets) and whose packed
polynomial stays below a size bound is replaced by that polynomial —
exact mod-2 algebra, so XOR trees fold into C-level symmetric
differences of mask sets.  Flattened nets never become rewriting
variables; the remaining **opaque** gates get their models precompiled
as ``(pi_mask, opaque_names)`` monomial pairs, i.e. the flat part is
already a bitmask and only the few opaque signals need per-cone
interning.

Rewriting (per output bit)
--------------------------
Opaque signals are interned per cone *above* the global input region —
cone-local indices keep masks narrow (a global numbering would turn
every int operation into a kilobyte memcpy).  Two structures remove
the reference path's per-gate linear scans:

* a **worklist** (max-heap of topological positions) visits only
  opaque gates whose output variable is *live* in the expression — the
  reference engine walks the whole structural cone, and extracting
  that cone already costs a full pass over the netlist per output bit;
* a lazy **occurrence index** (``variable bit → monomials that gained
  it``) yields each gate's affected monomials via one C-level set
  intersection — the reference engine rescans every monomial of the
  expression for every gate.

The engine produces bit-identical *results* (canonical expressions,
P(x), member bits, failure modes) to the reference backend — enforced
by the differential test suite — but takes algebraically equivalent
shortcuts, so per-step statistics (iterations, peak terms, eliminated
monomials, cone gate counts) legitimately differ: flattened regions
are substituted in one step, and ``term_limit`` bounds this engine's
own intermediate representation rather than the reference engine's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.engine.base import CompilingEngine, ConeExpression, cone_span
from repro.engine.interning import SignalInterner
from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    RewriteStats,
    TermLimitExceeded,
    TraceStep,
)
from repro.rewrite.gate_models import gate_model

#: Largest packed polynomial a fanout-free net may flatten to.
_FLAT_BOUND = 48
#: Largest packed polynomial a *shared* (fanout > 1) net may flatten
#: to — bigger ones would be duplicated into every consumer.
_FLAT_SHARED_BOUND = 4
#: Abort threshold for expanding flat inputs inside one model monomial.
_EXPAND_BOUND = 2048


class PackedExpression(ConeExpression):
    """A canonical expression as a set of interned bitmasks."""

    __slots__ = ("masks", "interner")

    def __init__(self, masks: Set[int], interner: SignalInterner):
        self.masks = masks
        self.interner = interner

    def decode(self) -> Gf2Poly:
        unpack = self.interner.unpack
        return Gf2Poly.from_monomials({unpack(mask) for mask in self.masks})

    def term_count(self) -> int:
        return len(self.masks)

    def contains_products(self, products: Iterable[Monomial]) -> bool:
        """Out-field membership directly on the packed set.

        A product mentioning a signal this cone never saw cannot occur
        in the expression, so an un-packable monomial is simply absent.
        """
        try_pack = self.interner.try_pack
        masks = self.masks
        for mono in products:
            mask = try_pack(mono)
            if mask is None or mask not in masks:
                return False
        return True

    def equals_poly(self, poly: Gf2Poly) -> bool:
        """Equality against a reference polynomial, without decoding."""
        monomials = poly.monomials
        if len(self.masks) != len(monomials):
            return False
        try_pack = self.interner.try_pack
        masks = self.masks
        for mono in monomials:
            mask = try_pack(mono)
            if mask is None or mask not in masks:
                return False
        return True


def _flat_product(
    polys: List[Set[int]], bound: int
) -> Optional[Set[int]]:
    """Mod-2 product of packed polynomials; ``None`` past ``bound``."""
    if not polys:
        return {0}
    acc = polys[0]
    for poly in polys[1:]:
        counts: Dict[int, int] = {}
        for lhs in acc:
            for rhs in poly:
                mask = lhs | rhs
                counts[mask] = counts.get(mask, 0) ^ 1
        acc = {mask for mask, parity in counts.items() if parity}
        if len(acc) > bound:
            return None
    return acc


def _flat_eval(
    model, flats: Dict[str, Set[int]], bound: int
) -> Optional[Set[int]]:
    """Packed polynomial of a gate whose inputs are all flat.

    ``None`` when a bound is exceeded — or when an input is not flat
    (the ``KeyError`` doubles as the eligibility check).
    """
    total: Set[int] = set()
    try:
        for mono in model:
            if len(mono) == 1:
                product = flats[next(iter(mono))]
            else:
                product = _flat_product(
                    [flats[name] for name in mono], bound
                )
                if product is None:
                    return None
            total = total.symmetric_difference(product)
            if len(total) > bound:
                return None
    except KeyError:
        return None
    return total


class _CompiledNetlist:
    """One netlist, flattened and model-compiled for mask rewriting."""

    __slots__ = (
        "pi_index",
        "pi_names",
        "pi_ones",
        "models",
        "flats",
        "n_gates",
    )

    def __init__(self, netlist: Netlist):
        order = netlist.topological_order()
        outputs = set(netlist.outputs)
        fanout: Dict[str, int] = {}
        for gate in order:
            for name in gate.inputs:
                fanout[name] = fanout.get(name, 0) + 1

        self.pi_names: List[str] = list(netlist.inputs)
        self.pi_index: Dict[str, int] = {
            name: index for index, name in enumerate(self.pi_names)
        }
        pi_count = len(self.pi_names)
        self.pi_ones = (1 << pi_count) - 1
        self.n_gates = len(order)

        name_models = [gate_model(gate) for gate in order]
        demoted: Set[str] = set()
        while True:
            flats = self._flatten(
                order, name_models, outputs, fanout, demoted
            )
            models, offender = self._compile_models(
                order, name_models, flats
            )
            if offender is None:
                break
            demoted.add(offender)
        #: Per topological position: the opaque gate's model as
        #: ``(pi_mask, opaque_names)`` monomials, or ``None`` for a
        #: flattened gate (its output never becomes a variable).
        self.models = models
        #: Packed PI-space polynomial of every flat net (primary
        #: inputs included) — the ready answer when a flattened net is
        #: itself rewritten.
        self.flats = flats

    def _flatten(
        self,
        order,
        name_models,
        outputs: Set[str],
        fanout: Dict[str, int],
        demoted: Set[str],
    ) -> Dict[str, Set[int]]:
        """Forward pass: pack cheap fanout-free regions into PI space."""
        flats: Dict[str, Set[int]] = {
            name: {1 << index} for name, index in self.pi_index.items()
        }
        for gate, model in zip(order, name_models):
            net = gate.output
            if net in outputs or net in demoted:
                continue
            poly = _flat_eval(model, flats, _FLAT_BOUND)
            if poly is None:
                continue
            if fanout.get(net, 0) != 1 and len(poly) > _FLAT_SHARED_BOUND:
                continue
            flats[net] = poly
        return flats

    def _compile_models(self, order, name_models, flats: Dict[str, Set[int]]):
        """Expand flat inputs inside every opaque gate's model.

        Returns ``(models, None)`` on success, or ``(None, name)``
        naming a flat net to demote when an expansion explodes.
        """
        models: List[Optional[Tuple[Tuple[int, Tuple[str, ...]], ...]]] = []
        for gate, name_model in zip(order, name_models):
            if gate.output in flats:
                models.append(None)
                continue
            counts: Dict[Tuple[int, Tuple[str, ...]], int] = {}
            for mono in name_model:
                flat_polys: List[Set[int]] = []
                opaque: List[str] = []
                for name in mono:
                    poly = flats.get(name)
                    if poly is None:
                        opaque.append(name)
                    else:
                        flat_polys.append(poly)
                product = _flat_product(flat_polys, _EXPAND_BOUND)
                if product is None:
                    biggest = max(flat_polys, key=len)
                    for name in mono:
                        if flats.get(name) is biggest:
                            return None, name
                    return None, next(  # pragma: no cover - defensive
                        name for name in mono if name in flats
                    )
                key_names = tuple(sorted(opaque))
                for mask in product:
                    key = (mask, key_names)
                    counts[key] = counts.get(key, 0) ^ 1
            models.append(
                tuple(key for key, parity in counts.items() if parity)
            )
        return models, None


class BitpackEngine(CompilingEngine):
    """Backward rewriting over interned bitmask monomials."""

    name = "bitpack"
    #: Bump on any change to :class:`_CompiledNetlist`'s layout.
    compile_schema = 1

    def _compile(self, netlist: Netlist) -> _CompiledNetlist:
        return _CompiledNetlist(netlist)

    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
    ) -> Tuple[PackedExpression, RewriteStats]:
        with cone_span(self, output) as span:
            expression, stats = self._rewrite_cone_impl(
                netlist, output, trace, term_limit
            )
            span.annotate(
                iterations=stats.iterations, peak_terms=stats.peak_terms
            )
            stats.runtime_s = span.elapsed()
            return expression, stats

    def _rewrite_cone_impl(
        self,
        netlist: Netlist,
        output: str,
        trace: bool,
        term_limit: Optional[int],
    ) -> Tuple[PackedExpression, RewriteStats]:
        stats = RewriteStats(output=output)

        compiled = self._compiled_for(netlist)
        models = compiled.models
        position_of = netlist.topological_positions()
        position_get = position_of.get

        flat_poly = compiled.flats.get(output)
        if flat_poly is not None:
            # The requested net was flattened (a primary input or a
            # folded fanout-free region): its packed PI-space
            # polynomial is already the canonical answer.
            interner = SignalInterner.adopt(
                dict(compiled.pi_index), list(compiled.pi_names)
            )
            masks = set(flat_poly)
            stats.final_terms = len(masks)
            stats.peak_terms = max(1, len(masks))
            if term_limit is not None and stats.peak_terms > term_limit:
                raise TermLimitExceeded(
                    output, stats.peak_terms, term_limit
                )
            return PackedExpression(masks, interner), stats

        # Cone-local interning tables, pre-seeded with the global
        # primary-input region; opaque signals intern above it.  The
        # tables are raw dict/list locals for the hot loop and become a
        # SignalInterner for the result.
        sig_index: Dict[str, int] = dict(compiled.pi_index)
        sig_names: List[str] = list(compiled.pi_names)
        index_get = sig_index.get

        # occurs[i]: monomials that contain live tracked variable i.
        # The index is *lazy*: entries are added when a monomial gains
        # bit i but never removed when one is cancelled — at pop time a
        # C-level set intersection against `current` filters the stale
        # entries, which is far cheaper than eager maintenance on every
        # cancellation.  pending: max-heap (negated topological
        # positions) of tracked variables awaiting substitution; each
        # variable is pushed exactly once, when interned, and positions
        # pop in strictly decreasing order (a gate model only mentions
        # earlier signals), so no variable re-occurs after its
        # substitution.
        occurs: Dict[int, Set[int]] = {}
        pending: List[Tuple[int, int]] = []
        tracked_mask = 0

        # F0 = z_i : the single-variable monomial of the output bit.
        out_index = index_get(output)
        if out_index is None:
            out_index = len(sig_names)
            sig_index[output] = out_index
            sig_names.append(output)
        out_mask = 1 << out_index
        current: Set[int] = {out_mask}
        out_position = position_get(output)
        if out_position is not None:
            tracked_mask = out_mask
            occurs[out_index] = {out_mask}
            heappush(pending, (-out_position, out_index))

        iterations = 0
        touched = 0
        eliminated_total = 0
        peak_terms = 1

        current_add = current.add
        current_remove = current.remove
        current_intersection = current.intersection
        occurs_pop = occurs.pop

        while pending:
            neg_position, var_index = heappop(pending)
            touched += 1
            affected = current_intersection(occurs_pop(var_index))
            if not affected:
                # The variable occurred and then cancelled away before
                # its driver was reached (Algorithm 1 line 4 skip).
                continue
            keep = ~(1 << var_index)

            # Pack the gate model: the flat part is precompiled, only
            # opaque signals need the cone-local index (interning on
            # first sight; newly tracked variables enter the worklist).
            model: List[int] = []
            for pi_mask, opaque_names in models[-neg_position]:
                mask = pi_mask
                for name in opaque_names:
                    index = index_get(name)
                    if index is None:
                        index = len(sig_names)
                        sig_index[name] = index
                        sig_names.append(name)
                        gate_position = position_get(name)
                        if gate_position is not None:
                            tracked_mask |= 1 << index
                            occurs[index] = set()
                            heappush(pending, (-gate_position, index))
                    mask |= 1 << index
                model.append(mask)

            # Substitute.  Products never contain the variable being
            # eliminated while every affected monomial does, so removal
            # and product toggling cannot collide and run in one pass.
            eliminated = 0
            for mono in affected:
                current_remove(mono)
                stripped = mono & keep
                for replacement in model:
                    product = stripped | replacement
                    if product in current:
                        current_remove(product)
                        eliminated += 2  # both copies cancelled mod 2
                    else:
                        current_add(product)
                        rest = product & tracked_mask
                        while rest:
                            low = rest & -rest
                            occurs[low.bit_length() - 1].add(product)
                            rest ^= low
            iterations += 1
            eliminated_total += eliminated
            if len(current) > peak_terms:
                peak_terms = len(current)
                if term_limit is not None and peak_terms > term_limit:
                    stats.iterations = iterations
                    stats.cone_gates = touched
                    stats.eliminated_monomials = eliminated_total
                    stats.peak_terms = peak_terms
                    raise TermLimitExceeded(output, peak_terms, term_limit)
            if trace:
                interner = SignalInterner(list(sig_names))
                decoded = Gf2Poly.from_monomials(
                    {interner.unpack(mono) for mono in current}
                )
                gate = netlist.topological_order()[-neg_position]
                stats.trace.append(
                    TraceStep(
                        gate=str(gate),
                        expression=str(decoded),
                        eliminated=f"{eliminated} monomials cancelled",
                    )
                )

        interner = SignalInterner.adopt(sig_index, sig_names)

        residue = 0
        for mono in current:
            residue |= mono
        residue &= ~compiled.pi_ones
        if residue:
            # Inputs declared after compilation still count as inputs.
            declared_inputs = set(netlist.inputs)
            leftovers = [
                name
                for name in interner.names_of(residue)
                if name not in declared_inputs
            ]
            if leftovers:
                raise BackwardRewriteError(
                    f"rewriting {output!r} left non-input variables "
                    f"{sorted(leftovers)[:5]} — netlist is not a complete "
                    "combinational cone"
                )

        stats.iterations = iterations
        stats.cone_gates = touched
        stats.eliminated_monomials = eliminated_total
        stats.peak_terms = peak_terms
        stats.final_terms = len(current)
        return PackedExpression(current, interner), stats
