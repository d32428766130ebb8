"""Benchmark-owned spans around the public calls of each program layer.

:func:`install` wraps each layer's public functions in place —
in their defining module and wherever another loaded module or reader
table holds a reference — so a program run in this process records one
span per call.  Spans stay in memory (one stack per thread) and
:meth:`Tracer.dump` writes them as JSON when the process is done.
:func:`summarize` turns the spans of a workload into per-layer self
times and counts.

Nothing here edits the program: the wrappers call the original
functions with the original arguments.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1]["name"] if stack else None

    def begin(self, name: str, **attrs: Any) -> Dict[str, Any]:
        stack = self._stack()
        with self._lock:
            self._ids += 1
            span_id = self._ids
        span = {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def reset(self) -> None:
        """Forget every span (a forked child starts its own record)."""
        self.spans = []
        self._local = threading.local()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


TRACER = Tracer()


def _traced(layer: str, func: Callable, after=None, reentrant=False):
    """Wrap ``func`` in a ``layer`` span; ``after(span, result, args)``
    records counts once the call returned.  A non-reentrant layer
    called from inside its own span runs unwrapped, so recursion and
    engines calling their base class do not nest spans of one name."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not reentrant and TRACER.current() == layer:
            return func(*args, **kwargs)
        span = TRACER.begin(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            TRACER.end(span)
        if after is not None:
            after(span, result, args, kwargs)
        return result

    return wrapper


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    """Point every loaded ``repro`` module global (and reader-table
    value) that still holds ``original`` at ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def _patch_function(module, attr: str, layer: str, after=None) -> None:
    original = getattr(module, attr)
    wrapped = _traced(layer, original, after)
    setattr(module, attr, wrapped)
    _replace_everywhere(original, wrapped)


def _patch_method(cls, attr: str, layer: str, after=None, wrap=None) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        inner = _traced(layer, original.__func__, after)
        setattr(cls, attr, classmethod(inner))
        return
    setattr(cls, attr, (wrap or _traced)(layer, original, after))


# -- counters recorded after a call returns -------------------------------

def _gates(span, result, args, kwargs):
    span["attrs"]["gates"] = len(result)


def _nodes(span, result, args, kwargs):
    span["attrs"]["nodes"] = len(result)


def _rewrite_one(span, result, args, kwargs):
    stats = result[1]
    span["attrs"].update(
        engine=args[0].name,
        iterations=stats.iterations,
        peak_terms=stats.peak_terms,
    )


def _rewrite_many(span, result, args, kwargs):
    stats = [entry[1] for entry in result.values()]
    span["attrs"].update(
        engine=args[0].name,
        iterations=sum(s.iterations for s in stats),
        peak_terms=max((s.peak_terms for s in stats), default=0),
    )


def _compile(span, result, args, kwargs):
    span["attrs"]["engine"] = args[0].name
    _PROGRAMS.append((args[0], args[1]))


def _verify(span, result, args, kwargs):
    span["attrs"]["vectors"] = result.simulation_vectors


def _diagnose(span, result, args, kwargs):
    span["attrs"].update(
        verdict=result.verdict.value,
        cex_found=result.counterexample is not None,
    )


def _cache_get(kind=None):
    def after(span, result, args, kwargs):
        span["attrs"].update(
            kind=kind or args[1], hit=result is not None
        )

    return after


def _cache_put(kind=None):
    def after(span, result, args, kwargs):
        span["attrs"]["kind"] = kind or args[1]

    return after


def _diff(span, result, args, kwargs):
    span["attrs"]["dirty"] = len(result.touched)


#: (engine, netlist) pairs compiled in this process; their serialized
#: program sizes are measured once, at dump time.
_PROGRAMS: List[tuple] = []


def _rewrite_with_compile(layer, original, after):
    """Engine rewrite entry: run the engine's public ``prepare`` first,
    so the one-time compile lands in its own ``engine.compile`` span
    instead of hiding inside the first cone (``prepare`` is idempotent:
    the rewrite then finds the compiled program ready)."""
    traced = _traced(layer, original, after)

    @functools.wraps(original)
    def wrapper(self, netlist, *args, **kwargs):
        if TRACER.current() != layer and hasattr(self, "_compiled"):
            self.prepare(netlist)
        return traced(self, netlist, *args, **kwargs)

    return wrapper


def install() -> None:
    """Wrap every layer's public calls (idempotent per process)."""
    if getattr(install, "done", False):
        return
    install.done = True
    import importlib

    import repro.cli  # noqa: F401 - load the modules that hold references

    def module(name):
        return importlib.import_module(f"repro.{name}")

    aig_module, aig_engine = module("aig.aig"), module("engine.aig")
    base, bitpack = module("engine.base"), module("engine.bitpack")
    reference, vector = module("engine.reference"), module("engine.vector")
    diagnose, extractor = module("extract.diagnose"), module("extract.extractor")
    verify = module("extract.verify")
    eqn_io, blif_io = module("netlist.eqn_io"), module("netlist.blif_io")
    verilog_io = module("netlist.verilog_io")
    Netlist = module("netlist.netlist").Netlist
    api, cache, eco = module("service.api"), module("service.cache"), module("service.eco")
    fingerprint, runner = module("service.fingerprint"), module("service.runner")
    module("rewrite.parallel")
    module("service.jobs")

    for reader, names in (
        (eqn_io, ("read_eqn", "parse_eqn")),
        (blif_io, ("read_blif", "parse_blif")),
        (verilog_io, ("read_verilog", "parse_verilog")),
    ):
        for name in names:
            _patch_function(reader, name, "netlist.parse", _gates)
    _patch_method(aig_module.Aig, "from_netlist", "aig.strash", _nodes)
    for name in ("fingerprint_with_cones", "fingerprint_netlist", "cone_fingerprints"):
        _patch_function(fingerprint, name, "fingerprint")
    _patch_method(base.CompilingEngine, "prepare", "engine.compile", _compile)
    for cls in (
        reference.ReferenceEngine,
        bitpack.BitpackEngine,
        aig_engine.AigEngine,
        vector.VectorEngine,
    ):
        _patch_method(
            cls, "rewrite_cone", "engine.rewrite", _rewrite_one,
            wrap=_rewrite_with_compile,
        )
    for cls in (base.Engine, vector.VectorEngine):
        _patch_method(
            cls, "rewrite_cones", "engine.rewrite", _rewrite_many,
            wrap=_rewrite_with_compile,
        )
    _patch_function(extractor, "result_from_run", "extract.algorithm2")
    _patch_function(verify, "verify_multiplier", "extract.verify", _verify)
    _patch_function(diagnose, "diagnose", "extract.diagnose", _diagnose)
    Netlist.simulate = _traced("netlist.simulate", Netlist.simulate, reentrant=True)
    ResultCache = cache.ResultCache
    _patch_method(ResultCache, "get", "cache.get", _cache_get())
    _patch_method(ResultCache, "put", "cache.put", _cache_put())
    for attr, kind in (
        ("get_compiled", "compiled"),
        ("get_cone", "cone"),
        ("get_extraction_summary", "summary"),
        ("file_fingerprint", "file"),
    ):
        _patch_method(ResultCache, attr, "cache.get", _cache_get(kind))
    for attr, kind in (
        ("put_compiled", "compiled"),
        ("put_cone", "cone"),
        ("remember_file", "file"),
    ):
        _patch_method(ResultCache, attr, "cache.put", _cache_put(kind))
    _patch_function(eco, "fingerprint_file", "eco.fingerprint_file")
    _patch_function(eco, "diff_cones", "eco.diff", _diff)
    _patch_function(runner, "_process_netlist", "runner.netlist")
    _patch_function(api, "_run_pipeline", "jobs.pipeline")
    original_handler = api._make_handler

    def make_handler(server):
        handler = original_handler(server)
        for method, layer in (("do_GET", "api.get"), ("do_POST", "api.post")):
            setattr(handler, method, _traced(layer, getattr(handler, method)))
        return handler

    api._make_handler = make_handler


def program_sizes() -> None:
    """Record each compiled program's serialized size as a span."""
    seen = set()
    for engine, netlist in _PROGRAMS:
        key = (engine.name, id(netlist))
        compiled = engine._compiled.get(netlist)
        if key in seen or compiled is None:
            continue
        seen.add(key)
        span = TRACER.begin("tracer.program_size")
        size = len(engine.serialize_compiled(netlist, compiled))
        TRACER.end(span)
        span["attrs"].update(engine=engine.name, bytes=size)


# -- aggregation ------------------------------------------------------------

def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: Dict[tuple, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + (
                span["end"] - span["start"]
            )
    return {
        (span["pid"], span["id"]): (span["end"] - span["start"])
        - child_time.get((span["pid"], span["id"]), 0.0)
        for span in spans
    }


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer self time, call count and counters of a span list.

    ``netlist.simulate`` spans fold into their parent: called from
    ``extract.verify`` they are verify time, called straight from
    ``extract.diagnose`` they are its counterexample search (and each
    such call is one counterexample attempt).
    """
    by_id = {(s["pid"], s["id"]): s for s in spans}
    selfs = self_times(spans)
    layers: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {
        "gates_parsed": 0, "aig_nodes": 0, "rewrite_iterations": 0,
        "rewrite_peak_terms": 0, "verify_vectors": 0, "cex_found": 0,
        "cex_attempts": 0, "cache_gets": 0,
        "cache_hits": 0, "eco_dirty_cones": 0,
        "fingerprint_calls": 0,
    }
    compile_by_engine: Dict[str, float] = {}
    rewrite_by_engine: Dict[str, float] = {}
    program_bytes: Dict[str, int] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        name, attrs = span["name"], span["attrs"]
        own = selfs[key]
        if name == "netlist.simulate":
            parent = by_id.get((span["pid"], span["parent"]))
            name = parent["name"] if parent is not None else "unattributed"
            if name == "extract.diagnose":
                counts["cex_attempts"] += 1
        if name == "tracer.program_size":
            program_bytes[attrs["engine"]] = max(
                program_bytes.get(attrs["engine"], 0), attrs["bytes"]
            )
            continue
        entry = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += span["name"] == name
        if name == "netlist.parse" and "gates" in attrs:
            counts["gates_parsed"] += attrs["gates"]
        elif name == "aig.strash":
            counts["aig_nodes"] += attrs.get("nodes", 0)
        elif name == "engine.rewrite":
            counts["rewrite_iterations"] += attrs.get("iterations", 0)
            counts["rewrite_peak_terms"] = max(
                counts["rewrite_peak_terms"], attrs.get("peak_terms", 0)
            )
            engine = attrs.get("engine", "?")
            rewrite_by_engine[engine] = rewrite_by_engine.get(engine, 0.0) + own
        elif name == "engine.compile":
            engine = attrs.get("engine", "?")
            compile_by_engine[engine] = compile_by_engine.get(engine, 0.0) + own
        elif name == "extract.verify" and span["name"] == name:
            counts["verify_vectors"] += attrs.get("vectors", 0)
        elif name == "extract.diagnose" and span["name"] == name:
            counts["cex_found"] += bool(attrs.get("cex_found"))
        elif name == "cache.get":
            counts["cache_gets"] += 1
            counts["cache_hits"] += bool(attrs.get("hit"))
        elif name == "eco.diff":
            counts["eco_dirty_cones"] += attrs.get("dirty", 0)
        elif name == "fingerprint":
            counts["fingerprint_calls"] += 1
    return {
        "layers": layers,
        "counts": counts,
        "compile_by_engine": compile_by_engine,
        "rewrite_by_engine": rewrite_by_engine,
        "program_bytes": program_bytes,
    }


def self_s(layers: Dict[str, Dict[str, float]], name: str) -> float:
    """Self time of layer ``name`` in a :func:`summarize` table."""
    return layers.get(name, {}).get("self_s", 0.0)


def load(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return []
