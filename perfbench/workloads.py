"""The four workloads: set-up, measured passes and known-answer checks.

Every operation is a real user path: a fresh ``repro`` subprocess per
CLI call, or an HTTP request to a ``repro serve`` subprocess.  A pass
with ``traced=True`` runs the same calls through ``traced.py``, which
records the layer spans of :mod:`layers` in each subprocess.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import inputs
import layers

HERE = Path(__file__).resolve().parent

def _fleet_specs(sizes):
    """Clean fleet entries ``(generator, form, m, format)``: every
    (generator, form) pair in turn, formats rotated independently."""
    combos = [(g, f) for g in inputs.GENERATORS for f in inputs.FORMS]
    return [
        (*combos[i % len(combos)], m, inputs.FORMATS[(i + i // 3) % 3])
        for i, m in enumerate(sizes)
    ]


#: Sizes of the full benchmark and of the reduced self-check mode.
FULL = {
    "oneshot_m": 32,
    "fleet_clean": _fleet_specs([
        40, 16, 12, 32, 24, 8, 40, 12, 16, 32, 8, 24, 40, 16, 12, 32, 24, 8,
        24, 12, 16, 40, 8, 12, 32, 16, 8, 24, 12, 16, 32, 8, 16,
    ]),
    "fleet_mutants": [
        ("mastrovito", "nand", "eqn", "easy"),
        ("montgomery", "syn", "blif", "easy"),
        ("schoolbook", "flat", "v", "easy"),
        ("karatsuba", "nand", "eqn", "easy"),
        ("interleaved", "syn", "blif", "easy"),
        ("digit-serial", "flat", "v", "easy"),
        ("mastrovito", "syn", "eqn", "easy"),
        ("karatsuba", "flat", "blif", "easy"),
        ("schoolbook", "syn", "v", "hard"),
        ("interleaved", "nand", "eqn", "hard"),
        ("montgomery", "flat", "blif", "hard"),
    ],
    "eco_m": 64,
    "eco_cones": ["z3", "z14", "z25", "z36", "z47", "z58"],
    "serve_cached": [
        ("mastrovito", "flat", 24, "eqn"),
        ("montgomery", "syn", 16, "blif"),
        ("schoolbook", "nand", 16, "v"),
        ("karatsuba", "flat", 32, "blif"),
        ("interleaved", "syn", 20, "v"),
        ("digit-serial", "nand", 20, "eqn"),
        ("mastrovito", "syn", 16, "v"),
        ("montgomery", "flat", 24, "eqn"),
        ("schoolbook", "syn", 20, "blif"),
    ],
    "serve_fresh_m": [12, 16],
    # Jobs/s the warmed server completes on this mix, from
    # ``run.py --workload serve-mix --capacity`` (seeds 1 and 2, 2-core
    # x86_64 VM): 10.9-11.2/s, both saturated and closed loop, since the
    # one sender's POSTs, which parse every netlist, are the bottleneck.
    # The open-loop rate is half of that.
    "serve_capacity_per_s": 11.0,
    "serve_rate": 5.5,
    "serve_min_requests": 104,
    "serve_fresh_share": 0.1,
}
SMALL = {
    "oneshot_m": 8,
    "fleet_clean": _fleet_specs([8, 12, 16, 8, 12, 16]),
    "fleet_mutants": [
        ("mastrovito", "syn", "eqn", "easy"),
        ("schoolbook", "flat", "v", "hard"),
    ],
    "eco_m": 12,
    "eco_cones": ["z2", "z9"],
    "serve_cached": [
        ("mastrovito", "flat", 8, "eqn"),
        ("montgomery", "syn", 12, "blif"),
        ("schoolbook", "nand", 12, "v"),
    ],
    "serve_fresh_m": [8],
    "serve_rate": 8.0,
    "serve_min_requests": 12,
    "serve_fresh_share": 0.25,
}

ENGINE_VARIANTS = (
    ("reference", ["--engine", "reference"]),
    ("bitpack", ["--engine", "bitpack"]),
    ("aig", ["--engine", "aig"]),
    ("vector", ["--engine", "vector"]),
    ("vector-fused", ["--engine", "vector", "--fused"]),
)
#: ``repro eco`` runs a compiling engine, so a dirty cone is compiled
#: as a cone-restricted sub-netlist.
ECO_ENGINE = ["--engine", "vector"]
FLEET_WORKERS = 2
SERVE_THREADS = 2
#: Generator/form of the never-seen serve netlists, in turn.
FRESH_COMBOS = [(g, f) for f in inputs.FORMS for g in inputs.GENERATORS]
#: Poll interval for queued HTTP jobs; a miss's latency is read at
#: the first poll after it finished.
POLL_S = 0.005


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


@dataclass
class Proc:
    rc: int
    out: str
    wall: float
    rss_kb: int
    spans: Optional[Path] = None
    label: str = ""


@dataclass
class Observed:
    """What one measured phase saw."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Wall of every user operation (the ``op_s`` metrics).
    op_s: List[float] = field(default_factory=list)
    #: Samples of the workload's named figures (audit_s.<engine>,
    #: fleet_cold_s, eco_edit_s, serve_s, ...).
    detail: Dict[str, List[float]] = field(default_factory=dict)
    rss_kb: int = 0
    #: Subprocess operations with their span files (traced passes).
    procs: List[Proc] = field(default_factory=list)
    #: Workload tallies: campaign record walls, cache bytes written,
    #: the serve window.
    extra: Dict[str, Any] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.detail.setdefault(name, []).append(value)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class Context:
    """Paths, environment and the subprocess runner of one run."""

    def __init__(self, root: Path, workdir: Path, size: Dict[str, Any]):
        self.workdir = workdir
        self.size = size
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(workdir / "tmp")
        self.env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
        self.env["REPRO_SWEEP_SPILL_DIR"] = str(workdir / "tmp")
        self.env.pop("REPRO_SWEEP_MAX_BYTES", None)
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)
        self._span_files = 0

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def copy_dir(self, source: Path, name: str) -> Path:
        """A fresh copy of ``source`` (a cache) under the work dir."""
        path = self.workdir / name
        if path.exists():
            shutil.rmtree(path)
        shutil.copytree(source, path)
        return path

    def command(self, args: List[str], traced: bool) -> tuple:
        if not traced:
            return [sys.executable, "-m", "repro.cli", *args], None
        self._span_files += 1
        spans = self.workdir / f"spans-{self._span_files}.json"
        return [sys.executable, str(HERE / "traced.py"), str(spans), *args], spans

    def cli(self, args: List[str], traced: bool = False, timeout: float = 170.0) -> Proc:
        """Run ``repro ARGS`` to completion; wall, output and max RSS."""
        command, spans = self.command(args, traced)
        out_path = self.workdir / "tmp" / "cli.out"
        with open(out_path, "w+", encoding="utf-8") as out:
            started = time.perf_counter()
            process = subprocess.Popen(
                command, stdout=out, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.workdir,
            )
            timer = threading.Timer(timeout, process.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:  # interrupted: never leave it running
                process.kill()
                process.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            process.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            text = out.read()
        return Proc(process.returncode, text, wall, usage.ru_maxrss, spans)

    def import_probe(self, repeats: int = 3) -> float:
        """Median wall of a fresh ``import repro.cli`` process."""
        walls = []
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                env=self.env, cwd=self.workdir, check=True,
            )
            walls.append(time.perf_counter() - started)
        return sorted(walls)[len(walls) // 2]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    """Set-up, measured passes and checks of one workload."""

    name = ""

    def __init__(self, ctx: Context, seconds: float):
        self.ctx = ctx
        self.seconds = seconds

    def close(self) -> None:
        """Stop anything the workload left running."""

    #: Nominal length of one pass of the full-size workload; a run of
    #: ``seconds`` measures ``round(seconds / pass_s)`` whole passes
    #: (at least one), so the same ``seconds`` always measures the same
    #: operations, however fast the host is.
    pass_s = 10.0

    def passes(self, seconds: Optional[float]) -> range:
        if seconds is None:
            return range(1)
        return range(max(1, round(seconds / self.pass_s)))

    #: Set-ups per run, ``setup_s`` being their median: more for the
    #: workloads whose set-up takes well under two seconds, which
    #: scatter most from run to run.
    setup_repeats = 3

    #: Whether each operation starts a fresh interpreter, so the
    #: import probe lies on its path.
    imports_on_path = True

    def path_wall(self, obs: "Observed", proc: Proc) -> float:
        """Wall of the user operations behind ``proc``."""
        return proc.wall

    def layer_extras(self, traced: "Observed", mains: List[Dict[str, Any]],
                     import_s: float) -> Dict[str, float]:
        """Workload-specific rows of the layer table; ``mains`` holds
        the layer summary of each traced process, in ``traced.procs``
        order."""
        return {}


def _field(text: str, label: str) -> Optional[str]:
    match = re.search(rf"^\s*{re.escape(label)}\s*:\s*(.+?)\s*$", text, re.M)
    return match.group(1) if match else None


# -- oneshot ------------------------------------------------------------------

class Oneshot(Workload):
    """``repro audit --engine E FILE`` per engine variant, no cache."""

    name = "oneshot"
    pass_s = 16.0
    setup_repeats = 9

    def setup(self, seed: int) -> None:
        work = self.ctx.fresh_dir("oneshot")
        self.item, _ = inputs.nand_mastrovito(work, self.ctx.size["oneshot_m"], "oneshot")
        self.summary = {
            "netlists": 1, "gates": self.item.gates, "m": self.item.m,
            "formats": ["eqn"], "polynomial": self.item.polynomial,
        }

    def measure(self, obs: Observed, traced: bool, seconds: Optional[float] = None) -> None:
        for _ in self.passes(seconds):
            for label, flags in ENGINE_VARIANTS:
                proc = self.ctx.cli(["audit", *flags, str(self.item.path)], traced)
                proc.label = label
                obs.procs.append(proc)
                obs.rss_kb = max(obs.rss_kb, proc.rss_kb)
                ok = (
                    proc.rc == 0
                    and _field(proc.out, "extracted P(x)") == self.item.polynomial
                    and (_field(proc.out, "verification") or "").startswith("EQUIVALENT")
                )
                if obs.check(ok, f"audit {label}: rc={proc.rc} {proc.out[-300:]}"):
                    obs.op_s.append(proc.wall)
                    obs.add(f"audit_s.{label}", proc.wall)

    #: Parts of the per-engine audit split and the layer behind each.
    AUDIT_PARTS = (
        ("parse", "netlist.parse"),
        ("strash", "aig.strash"),
        ("compile", "engine.compile"),
        ("rewrite", "engine.rewrite"),
        ("algorithm2", "extract.algorithm2"),
        ("verify", "extract.verify"),
    )

    def layer_extras(self, traced, mains, import_s):
        """How each engine's audit wall divides among the layers."""
        table = {}
        for proc, own in zip(traced.procs, mains):
            parts = {part: layers.self_s(own, layer) for part, layer in self.AUDIT_PARTS}
            parts["import"] = import_s
            wall = proc.wall - layers.self_s(own, "tracer.program_size")
            parts["unattributed"] = wall - sum(parts.values())
            parts["wall"] = wall
            for part, value in parts.items():
                table[f"audit.{proc.label}.{part}_s"] = value
        return table


# -- fleet-triage -------------------------------------------------------------

class Fleet(Workload):
    """``repro batch --mode diagnose --workers 2``: cold, then warm."""

    name = "fleet"
    pass_s = 12.0
    setup_repeats = 5

    def setup(self, seed: int) -> None:
        work = self.ctx.fresh_dir("fleet")
        self.items = inputs.fleet(
            work, seed, self.ctx.size["fleet_clean"], self.ctx.size["fleet_mutants"]
        )
        self.dir = work
        self.by_path = {str(item.path): item for item in self.items}
        self.summary = {
            "netlists": len(self.items),
            "mutants": sum(not item.clean for item in self.items),
            "gates": sum(item.gates for item in self.items),
            "m": sorted({item.m for item in self.items}),
            "formats": sorted({item.fmt for item in self.items}),
            "faults": [item.fault for item in self.items if not item.clean],
        }

    def _campaign(self, obs, cache, report, traced, warm):
        proc = self.ctx.cli(
            ["batch", str(self.dir), "--mode", "diagnose", "--workers",
             str(FLEET_WORKERS), "--cache-dir", str(cache), "-o", str(report)],
            traced,
        )
        obs.procs.append(proc)
        obs.rss_kb = max(obs.rss_kb, proc.rss_kb)
        expected_rc = 1 if any(not item.clean for item in self.items) else 0
        obs.check(proc.rc == expected_rc, f"batch rc={proc.rc}: {proc.out[-300:]}")
        records = [
            json.loads(line)
            for line in report.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ] if report.exists() else []
        seen = set()
        for record in records:
            item = self.by_path.get(record["path"])
            seen.add(record["path"])
            ok = (
                item is not None
                and record["status"] == "ok"
                and record.get("verdict") == item.verdict
                and record.get("polynomial") == item.polynomial
                and record.get("cache") == ("hit" if warm else "miss")
            )
            obs.check(ok, f"record {record.get('netlist')}: {record}")
        for path in set(self.by_path) - seen:
            obs.check(False, f"no record for {path}")
        return proc, records

    def measure(self, obs: Observed, traced: bool, seconds: Optional[float] = None) -> None:
        for done in self.passes(seconds):
            cache = self.ctx.fresh_dir(f"fleet-cache-{traced}-{done}")
            cold, records = self._campaign(obs, cache, cache / "cold.jsonl", traced, False)
            warm, _ = self._campaign(obs, cache, cache / "warm.jsonl", traced, True)
            obs.add("fleet_cold_s", cold.wall)
            obs.add("fleet_warm_s", warm.wall)
            # An operation is one netlist through a whole campaign, cold
            # or warm, timed from outside: process start, the runner and
            # record persistence count, not only the in-worker wall.
            obs.op_s.append(cold.wall / len(self.items))
            obs.op_s.append(warm.wall / len(self.items))
            walls = [record["wall_time_s"] for record in records]
            for wall in walls:
                obs.add("netlist_s", wall)
            obs.extra.setdefault("record_walls", []).append(sum(walls))
            obs.extra["cache_bytes"] = obs.extra.get("cache_bytes", 0) + dir_bytes(cache)

    def layer_extras(self, traced, mains, import_s):
        """Runner overhead: campaign walls beyond the records' share
        of the workers."""
        records = sum(traced.extra.get("record_walls", []))
        campaign = sum(traced.detail.get("fleet_cold_s", [])) + sum(
            traced.detail.get("fleet_warm_s", [])
        )
        return {
            "runner.overhead_s": campaign - records / FLEET_WORKERS,
            "runner.worker_busy_frac": (
                records / (FLEET_WORKERS * campaign) if campaign else 0.0
            ),
        }


# -- eco ----------------------------------------------------------------------

class Eco(Workload):
    """``repro eco BASE EDITED`` per never-seen single-cone edit, then
    the same call again (the repeat path)."""

    name = "eco"
    pass_s = 14.0

    def setup(self, seed: int) -> None:
        work = self.ctx.fresh_dir("eco")
        m = self.ctx.size["eco_m"]
        self.item, base = inputs.nand_mastrovito(work, m, "base")
        self.edits = inputs.eco_edits(base, self.item, seed, self.ctx.size["eco_cones"])
        self.cache = work / "cache"
        proc = self.ctx.cli(
            ["eco", *ECO_ENGINE, str(self.item.path), str(self.item.path),
             "--cache-dir", str(self.cache)]
        )
        self.setup_rss_kb = proc.rss_kb
        if not self._verdict_ok(proc, dirty=0):
            raise BenchError(f"baseline verification failed: {proc.out[-500:]}")
        self.summary = {
            "netlists": 1 + len(self.edits), "gates": self.item.gates, "m": m,
            "formats": ["eqn"], "edits": [f"{e.cone}:{e.gate}" for e in self.edits],
        }

    def _verdict_ok(self, proc: Proc, dirty: int) -> bool:
        cones = _field(proc.out, "cones") or ""
        expected = (
            f"{dirty}/{self.item.m} cones dirty" if dirty
            else f"identical: all {self.item.m} cones clean"
        )
        return (
            proc.rc == 0
            and cones.startswith(expected)
            and _field(proc.out, "P(x)") == self.item.polynomial
            and _field(proc.out, "verdict") == "equivalent"
        )

    def measure(self, obs: Observed, traced: bool, seconds: Optional[float] = None) -> None:
        for done in self.passes(seconds):
            # A fresh copy of the verified baseline's cache, so every
            # edit of the pass is one the cache has never seen.
            cache = self.ctx.copy_dir(self.cache, f"eco-cache-{traced}-{done}")
            before = dir_bytes(cache)
            for edit in self.edits:
                for key in ("eco_edit_s", "eco_repeat_s"):
                    proc = self.ctx.cli(
                        ["eco", *ECO_ENGINE, str(self.item.path), str(edit.path),
                         "--cache-dir", str(cache)],
                        traced,
                    )
                    obs.procs.append(proc)
                    obs.rss_kb = max(obs.rss_kb, proc.rss_kb)
                    if obs.check(
                        self._verdict_ok(proc, dirty=1),
                        f"eco {edit.cone} ({key}): rc={proc.rc} {proc.out[-400:]}",
                    ):
                        obs.add(key, proc.wall)
                        obs.op_s.append(proc.wall)
                        reused = re.search(r"reused\s*:\s*(\d+)", proc.out)
                        obs.add("eco.cones_reused", int(reused.group(1)))
            obs.extra["cache_bytes"] = obs.extra.get("cache_bytes", 0) + (
                dir_bytes(cache) - before
            )


# -- serve-mix ----------------------------------------------------------------

class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, ctx: Context, cache: Path, traced: bool):
        command, self.spans = ctx.command(
            ["serve", "--port", "0", "--cache-dir", str(cache),
             "--worker-threads", str(SERVE_THREADS)],
            traced,
        )
        env = dict(ctx.env, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, cwd=ctx.workdir, text=True,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)/", line)
        if match is None:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.rss_kb = 0

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then reap it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        timer = threading.Timer(30.0, self.process.kill)
        timer.start()
        try:
            _, _, usage = os.wait4(self.process.pid, 0)
            self.rss_kb = usage.ru_maxrss
        except ChildProcessError:
            pass
        finally:
            timer.cancel()
            self.process.stdout.close()


def _request(conn, method, path, body=None):
    conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"{}")


class Serve(Workload):
    """Open-loop audit traffic against ``repro serve``: one sender
    connection on a fixed schedule, one connection polling queued jobs."""

    name = "serve"

    server: Optional[Server] = None

    def setup(self, seed: int) -> None:
        self.close()
        size = self.ctx.size
        work = self.ctx.fresh_dir("serve")
        count = max(int(size["serve_rate"] * self.seconds), size["serve_min_requests"])
        fresh_count = round(count * size["serve_fresh_share"])
        sizes = size["serve_fresh_m"]
        fresh_specs = [
            (*FRESH_COMBOS[i % len(FRESH_COMBOS)], sizes[i % len(sizes)],
             inputs.FORMATS[i % len(inputs.FORMATS)])
            for i in range(fresh_count)
        ]
        cached, fresh = inputs.serve_mix(work, seed, size["serve_cached"], fresh_specs)
        self.cached, self.fresh = cached, fresh
        self.payloads = {
            str(item.path): json.dumps(
                {"netlist": item.path.read_text(encoding="utf-8"),
                 "format": item.fmt, "mode": "audit"}
            ).encode("utf-8")
            for item in cached + fresh
        }
        # The schedule: request i is due at i / rate.  Every cached
        # netlist is re-submitted equally often; the seed shuffles the
        # order and places the fresh netlists.
        rng = random.Random(seed)
        picks = [cached[i % len(cached)] for i in range(count - fresh_count)]
        rng.shuffle(picks)
        slots = set(rng.sample(range(count), fresh_count))
        fresh_iter, cached_iter = iter(fresh), iter(picks)
        self.schedule = [
            (i / size["serve_rate"],
             next(fresh_iter) if i in slots else next(cached_iter))
            for i in range(count)
        ]
        self.cache = work / "cache"
        self.server = Server(self.ctx, self.cache, traced=False)
        warm = Observed()
        self._traffic(self.server, [(0.0, item) for item in cached], warm, closed=True)
        if warm.failed:
            raise BenchError(f"cache warm-up failed: {warm.problems[:3]}")
        self.summary = {
            "netlists": len(cached) + len(fresh), "cached": len(cached),
            "fresh": len(fresh), "requests": count,
            "rate_per_s": size["serve_rate"],
            "capacity_per_s": size.get("serve_capacity_per_s"),
            "gates": sum(item.gates for item in cached + fresh),
            "m": sorted({item.m for item in cached + fresh}),
            "formats": sorted({item.fmt for item in cached + fresh}),
        }

    def _expected(self, item, result) -> bool:
        return (
            result.get("kind") == "audit"
            and result.get("polynomial") == item.polynomial
            and result.get("equivalent") is True
        )

    def _traffic(self, server, schedule, obs, closed=False):
        """Send ``schedule`` (due offsets); record latency from due time
        to job done.  ``closed`` waits for each job before the next."""
        pending: List[tuple] = []
        lock = threading.Lock()
        finished = threading.Event()
        results: List[tuple] = []
        errors: List[BaseException] = []

        def poll():
            conn = server.connect()
            try:
                while True:
                    with lock:
                        batch = list(pending)
                    if not batch and finished.is_set():
                        break
                    for entry in batch:
                        due, item, job_id, accepted = entry
                        status, view = _request(conn, "GET", f"/v1/jobs/{job_id}")
                        if status == 200 and view.get("status") in ("queued", "running"):
                            continue
                        with lock:
                            pending.remove(entry)
                            results.append(
                                (due, item, status, view, time.perf_counter(), accepted)
                            )
                    time.sleep(POLL_S)
            except (OSError, http.client.HTTPException, ValueError) as error:
                errors.append(error)  # reported by the sender below
            finally:
                conn.close()

        poller = threading.Thread(target=poll)
        poller.start()
        conn = server.connect()
        origin = time.perf_counter()
        lateness = []
        try:
            for offset, item in schedule:
                due = origin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                lateness.append(sent - due)
                status, view = _request(conn, "POST", "/v1/jobs", self.payloads[str(item.path)])
                accepted = time.perf_counter()
                obs.add("api.accept_s", accepted - sent)
                if status == 202:
                    with lock:
                        pending.append((due, item, view.get("job_id"), accepted))
                    if closed:
                        while pending and poller.is_alive():
                            time.sleep(POLL_S)
                        origin = time.perf_counter() - offset
                else:
                    with lock:
                        results.append((due, item, status, view, accepted, None))
        finally:
            finished.set()
            poller.join()
            conn.close()
        if errors:
            raise BenchError(f"polling jobs failed: {errors[0]!r}")
        for due, item, status, view, done, accepted in results:
            ok = status in (200, 202) and view.get("status") == "done" and self._expected(
                item, view.get("result") or {}
            )
            if status >= 400:
                obs.add("api.refused", 1.0)
            if obs.check(ok, f"job {item.path.name}: HTTP {status} {view}"):
                obs.op_s.append(done - due)
                obs.add("serve_s", done - due)
                if accepted is not None:
                    obs.add("api.job_s", done - accepted)
        for late in lateness:
            obs.add("lateness_s", late)

    def measure(self, obs: Observed, traced: bool, seconds: Optional[float] = None) -> None:
        """One pass of the schedule.  Untraced passes run on the
        server warmed in set-up (the first one keeps a copy of its warm
        cache); a traced pass starts a traced server on that copy."""
        if traced:
            cache = self.ctx.copy_dir(self.warm_copy, "serve-cache-traced")
            server = Server(self.ctx, cache, traced=True)
        else:
            if self.server is None:
                raise BenchError("serve-mix measures once per set-up")
            server, cache = self.server, self.cache
            self.warm_copy = self.ctx.copy_dir(self.cache, "serve-cache-warm")
        before = dir_bytes(cache)
        started = time.perf_counter()
        try:
            self._traffic(server, self.schedule, obs)
        finally:
            obs.extra["window_s"] = time.perf_counter() - started
            server.stop()
            if server is self.server:
                self.server = None
        obs.rss_kb = max(obs.rss_kb, server.rss_kb)
        obs.extra["cache_bytes"] = dir_bytes(cache) - before
        obs.procs.append(Proc(0, "", obs.extra["window_s"], server.rss_kb, server.spans))

    #: The server is started once; requests do not import anything.
    imports_on_path = False

    def path_wall(self, obs, proc):
        """Summed request latency: the server idles between requests."""
        return sum(obs.op_s)

    def layer_extras(self, traced, mains, import_s):
        return {
            name: statistics.median(traced.detail[name])
            for name in ("api.accept_s", "api.job_s") if traced.detail.get(name)
        }

    def capacity(self, seed: int) -> Dict[str, float]:
        """Jobs per second the warmed server completes on this mix, each
        on a fresh set-up: the whole schedule sent back to back by the
        one sender (saturated), and one job at a time (closed loop)."""
        figures = {}
        for name, closed in (("saturated_per_s", False), ("closed_loop_per_s", True)):
            self.setup(seed)
            burst = [(0.0, item) for _, item in self.schedule]
            obs = Observed()
            started = time.perf_counter()
            try:
                self._traffic(self.server, burst, obs, closed=closed)
            finally:
                self.close()
            if obs.failed:
                raise BenchError(f"capacity run failed: {obs.problems[:3]}")
            figures[name] = len(burst) / (time.perf_counter() - started)
        return figures

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {
    "oneshot-nand32": Oneshot,
    "fleet-triage": Fleet,
    "eco-nand64": Eco,
    "serve-mix": Serve,
}
