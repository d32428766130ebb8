"""End-to-end benchmark of the repro user paths, with per-layer timing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --selfcheck      # reduced size
    python3 perfbench/run.py --workload serve-mix --capacity  # jobs/s

Run from the root of a source checkout (the program is ``src/repro``).
Workloads:

``oneshot-nand32``
    one fresh ``repro audit --engine E FILE`` per engine variant
    (reference, bitpack, aig, vector, vector --fused) on a NAND-mapped
    m=32 Mastrovito multiplier; no cache.
``fleet-triage``
    ``repro batch --mode diagnose --workers 2`` over 44 seeded netlists
    (six generators, three forms, three formats, m 8-40, a quarter of
    them m=8 fault-injected mutants): once on an empty cache, then
    again on the warm one.
``eco-nand64``
    the m=64 NAND-mapped Mastrovito is verified in set-up; then six
    seeded function-preserving single-cone edits are each re-audited
    with ``repro eco --engine vector BASE EDITED``, and repeated once.
``serve-mix``
    a ``repro serve`` subprocess with a warmed cache takes open-loop
    audit traffic at a fixed rate, half of its measured capacity
    (``--capacity``): mostly cached m=16-32 netlists, a seeded tenth
    never seen before.

Set-up (input generation plus cache warm-up) runs three to nine times
(more for the cheaper ones) and ``setup_s`` is its median.  ``--trace 0`` then measures the whole
passes that fit in ``--seconds`` (at least one) and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer metrics (see ``layers.py``).  Lines starting with ``#`` carry the workload's named
figures, the per-layer table, the inputs and the host; the last line is
the JSON result.  A copy of everything goes to
``.perfbench_results/<workload>-s<seed>-t<trace>.json``.

Every answer is checked against the one fixed when the input was
generated (P(x), clean or mutant, equivalent after an ECO edit); a
wrong answer, a failed exit, an error record or an HTTP error counts
as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s.mean": "s",
}
PER_LAYER = {
    "netlist.parse_s": "s",
    "netlist.gates_per_s": "1/s",
    "aig.strash_s": "s",
    "aig.nodes": "count",
    "engine.rewrite_s": "s",
    "rewrite.iterations": "count",
    "rewrite.peak_terms": "count",
    "extract.algorithm2_s": "s",
    "verify.s": "s",
    "verify.vectors": "count",
    "python.import_s": "s",
    "unattributed_s": "s",
    "telemetry.overhead_frac": "frac",
    "engine.program_kb": "kB",
    "fingerprint.calls": "count",
    "cache.hit_ratio": "frac",
    "cache.bytes_written": "B",
    "diagnose.cex_found": "count",
    "diagnose.cex_attempts": "count",
    "eco.dirty_cones": "count",
    "eco.cones_reused": "count",
    "api.refused": "count",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_record() -> Dict[str, Any]:
    """The host a result was measured on, so a host change is not
    mistaken for a regression."""
    from repro.engine import engine_availability
    from repro.telemetry import Telemetry
    from repro.telemetry.analyze import run_calibration

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "engines": engine_availability(),
        "calibration_s": run_calibration(Telemetry()),
        "machine": platform.machine(),
    }


#: Units of the named figures that are not seconds.
FIGURE_UNITS = {"api.refused": "count", "eco.cones_reused": "count"}
#: Samples reported as a median and a high percentile with at least
#: ten samples beyond it, instead of a median alone.
PERCENTILES = {"netlist_s": 0.75, "serve_s": 0.9, "lateness_s": 0.9}


def named_figures(detail: Dict[str, List[float]]) -> Dict[str, Any]:
    """The workload's named figures (its own metric names) with
    units: medians, plus the high percentile of per-netlist and
    per-request samples; counts are summed."""
    figures: Dict[str, Any] = {}
    for name, values in sorted(detail.items()):
        unit = FIGURE_UNITS.get(name, "s")
        if unit == "count":
            figures[name] = {"value": float(sum(values)), "unit": unit}
            continue
        figures[f"{name}.p50"] = {"value": _quantile(values, 0.5), "unit": unit}
        if name in PERCENTILES:
            q = PERCENTILES[name]
            figures[f"{name}.p{round(q * 100)}"] = {
                "value": _quantile(values, q), "unit": unit,
            }
        figures[f"{name}.samples"] = {"value": float(len(values)), "unit": "count"}
    return figures


def layer_metrics(workload, base, traced, import_s) -> Dict[str, Any]:
    """Per-layer metrics and the full layer table of a traced pass."""
    import layers
    from workloads import FLEET_WORKERS

    spans: List[Dict[str, Any]] = []
    mains: List[Dict[str, Any]] = []
    unattributed = 0.0
    traced_total = 0.0
    for proc in traced.procs:
        own = layers.load(str(proc.spans))
        children = []
        for extra in proc.spans.parent.glob(proc.spans.name + ".*"):
            children.extend(layers.load(str(extra)))
        spans.extend(own + children)
        main = layers.summarize(own)["layers"]
        mains.append(main)
        worker = layers.summarize(children)["layers"]
        covered = sum(
            entry["self_s"] for name, entry in main.items()
            if name not in ("cli", "tracer.program_size", "api.get")
        ) + sum(
            entry["self_s"] for name, entry in worker.items()
        ) / FLEET_WORKERS
        wall = workload.path_wall(traced, proc) - layers.self_s(main, "tracer.program_size")
        unattributed += wall - covered - (import_s if workload.imports_on_path else 0.0)
        traced_total += wall
    base_total = sum(workload.path_wall(base, proc) for proc in base.procs)
    summary = layers.summarize(spans)
    table = summary["layers"]
    counts = summary["counts"]

    def self_s(name: str) -> float:
        return layers.self_s(table, name)

    parse_s = self_s("netlist.parse")
    gets = counts["cache_gets"]
    metrics = {
        "netlist.parse_s": parse_s,
        "netlist.gates_per_s": counts["gates_parsed"] / parse_s if parse_s else 0.0,
        "aig.strash_s": self_s("aig.strash"),
        "aig.nodes": counts["aig_nodes"],
        "engine.rewrite_s": self_s("engine.rewrite"),
        "rewrite.iterations": counts["rewrite_iterations"],
        "rewrite.peak_terms": counts["rewrite_peak_terms"],
        "extract.algorithm2_s": self_s("extract.algorithm2"),
        "verify.s": self_s("extract.verify"),
        "verify.vectors": counts["verify_vectors"],
        "python.import_s": import_s,
        "unattributed_s": unattributed,
        "telemetry.overhead_frac": traced_total / base_total - 1 if base_total else 0.0,
        "engine.program_kb": sum(summary["program_bytes"].values()) / 1024,
        "fingerprint.calls": counts["fingerprint_calls"],
        "cache.hit_ratio": counts["cache_hits"] / gets if gets else 0.0,
        "cache.bytes_written": traced.extra.get("cache_bytes", 0),
        "diagnose.cex_found": counts["cex_found"],
        "diagnose.cex_attempts": counts["cex_attempts"],
        "eco.dirty_cones": counts["eco_dirty_cones"],
        "eco.cones_reused": sum(traced.detail.get("eco.cones_reused", [])),
        "api.refused": sum(traced.detail.get("api.refused", [])),
    }
    named = {
        f"{name}.self_s": entry["self_s"] for name, entry in sorted(table.items())
    }
    named.update(
        {f"engine.compile_s.{e}": s for e, s in summary["compile_by_engine"].items()}
    )
    named.update(
        {f"engine.rewrite_s.{e}": s for e, s in summary["rewrite_by_engine"].items()}
    )
    named.update(
        {f"engine.program_kb.{e}": b / 1024 for e, b in summary["program_bytes"].items()}
    )
    named.update(
        {
            "fingerprint.s": self_s("fingerprint"),
            "diagnose.s": self_s("extract.diagnose"),
            "cache.get_s": self_s("cache.get"),
            "cache.put_s": self_s("cache.put"),
            "eco.diff_s": self_s("eco.diff") + self_s("eco.fingerprint_file"),
        }
    )
    named.update(workload.layer_extras(traced, mains, import_s))
    named["traced_wall_s"] = traced_total
    named["untraced_wall_s"] = base_total
    return {"metrics": metrics, "table": named, "calls": {
        name: entry["calls"] for name, entry in table.items()
    }}


def run(args) -> Dict[str, Any]:
    import workloads

    size = workloads.SMALL if args.selfcheck else workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(ROOT, workdir, size)
    workload = workloads.WORKLOADS[args.workload](ctx, args.seconds)
    result: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
    try:
        setups = []
        for _ in range(1 if args.selfcheck else workload.setup_repeats):
            started = time.perf_counter()
            workload.setup(args.seed)
            setups.append(time.perf_counter() - started)
        result["inputs"] = {"seed": args.seed, **workload.summary}
        if not args.trace:
            obs = workloads.Observed()
            workload.measure(obs, traced=False, seconds=args.seconds)
            metrics = {
                "setup_s": _median(setups),
                "peak_rss_mb": max(obs.rss_kb, getattr(workload, "setup_rss_kb", 0)) / 1024,
                "op_s.mean": statistics.fmean(obs.op_s) if obs.op_s else 0.0,
            }
            result["op_s"] = obs.op_s
            units = END_TO_END
            result["figures"] = named_figures(obs.detail)
        else:
            import_s = ctx.import_probe()
            base = workloads.Observed()
            workload.measure(base, traced=False)
            obs = workloads.Observed()
            workload.measure(obs, traced=True)
            obs.attempted += base.attempted
            obs.failed += base.failed
            obs.problems += base.problems
            layered = layer_metrics(workload, base, obs, import_s)
            metrics = layered["metrics"]
            units = PER_LAYER
            result["figures"] = named_figures(obs.detail)
            result["layers"] = layered["table"]
            result["calls"] = layered["calls"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result["setup_s"] = setups
    result["problems"] = obs.problems[:20]
    result["json"] = {
        "correct": obs.failed == 0,
        "attempted": obs.attempted,
        "failed": obs.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result


def capacity(args) -> Dict[str, Any]:
    """The serve-mix server's capacity on this seed's mix; the fixed
    ``serve_rate`` is set to about half of it."""
    import workloads

    size = workloads.SMALL if args.selfcheck else workloads.FULL
    workdir = ROOT / ".perfbench_work" / f"capacity-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        serve = workloads.Serve(workloads.Context(ROOT, workdir, size), args.seconds)
        figures = serve.capacity(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": args.seed, "rate_per_s": size["serve_rate"], **figures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="reduced sizes (m <= 16, a few netlists, one set-up)",
    )
    parser.add_argument(
        "--capacity", action="store_true",
        help="print the serve-mix server's jobs/s on the mix instead",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an error, so set-up servers are stopped and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.capacity:
            if args.workload != "serve-mix":
                parser.error("--capacity measures serve-mix")
            print(json.dumps(capacity(args)))
            return 0
        result = run(args)
    except workloads.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result["host"] = host_record()
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
    for section in ("inputs", "figures", "layers", "calls", "host"):
        if section in result:
            print(f"# {section}: {json.dumps(result[section], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"# FAILED: {problem[:300]}")
    print(json.dumps(result["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
