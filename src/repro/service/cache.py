"""Content-addressed, schema-versioned on-disk result cache.

Every artifact the pipeline produces — an
:class:`~repro.extract.extractor.ExtractionResult`, a
:class:`~repro.extract.verify.VerificationReport`, a
:class:`~repro.extract.diagnose.Diagnosis` — is a pure function of the
netlist *structure* (extraction results are engine-independent by the
differential contract of :mod:`repro.engine`), so the cache keys
everything by the strash-invariant
:func:`~repro.service.fingerprint.fingerprint_netlist` and nothing
else.  A netlist audited once is audited forever: re-running a
campaign over the same designs is pure cache traffic, and a synthesized
or gate-reordered copy of a known netlist hits the same entry.

Layout (every file written atomically)::

    $REPRO_CACHE_DIR/                   default: ~/.cache/repro
      v1/                               CACHE_SCHEMA_VERSION
        extraction/<aa>/<fingerprint>.json
        extraction/<aa>/<fingerprint>.sum  (Algorithm-2 verdict sidecar)
        verification/<aa>/<fingerprint>.json
        diagnosis/<aa>/<fingerprint>.json
        squarer/<aa>/<fingerprint>.json
        cone/<aa>/<cone digest>.json       (per-output-cone results)
        compiled/<aa>/<fingerprint>.<engine>.s<N>.bin
                                           (compiled engine programs)
        files/<aa>/<path digest>.json      (file -> fingerprint memo)
        quarantine/<kind>.<file name>      (undecodable entries)
        jobs/<fingerprint>.jsonl           (checkpoints; repro.service.jobs)

where ``<aa>`` is a two-hex-digit shard of the key digest (so no
directory grows unboundedly).  JSON entries carry the schema version
and their kind inline; a schema bump changes the directory, so stale
entries are never *misread* — they are simply invisible until
``clear()`` reclaims them.

Every kind is read by one code path and written by another
(:meth:`ResultCache._read` / :meth:`ResultCache._write`); what differs
between kinds — the key→path rule, JSON or opaque bytes, and whether
an I/O error is a miss or is raised — is one row of ``_TIERS``.

The artifact population (the ``.json`` results and ``.bin`` programs;
not the sidecars, file memos or checkpoints) is bounded by an optional
entry budget (``REPRO_CACHE_MAX_ENTRIES`` or the ``max_entries``
constructor argument) and an optional size-in-bytes budget
(``REPRO_CACHE_MAX_BYTES`` / ``max_bytes``): every write past either
budget evicts the oldest-mtime entries (:meth:`ResultCache.prune`,
also exposed as ``repro cache prune``), and the session's
hit/miss/evict counters appear in ``repro cache stats``.  Every
counter bump also mirrors into the active :mod:`repro.telemetry`
registry (``cache.hit`` / ``cache.miss`` / ``cache.put`` /
``cache.evict`` / ``cache.compile_hit`` / ``cache.compile_miss`` /
``cache.cone_hit`` / ``cache.cone_miss`` / ``cache.corrupt``), which
is what the HTTP API's ``GET /metrics`` endpoint scrapes.

Compiled programs
-----------------
Besides the JSON artifacts, the cache stores the **compiled programs**
of the rewriting engines — the pickled per-netlist structures a
compiling backend (bitpack, aig, vector) builds before its first
rewrite.  Entries are keyed by ``(fingerprint, engine compile key,
engine compile schema)``: a schema bump changes the file name, so
stale layouts are never loaded, and the engine layer additionally
validates an exact-netlist token inside the payload (see
:class:`repro.engine.base.CompilingEngine`).  They are pickles: treat
the cache directory with the trust you would give any local build
cache.

Decoded polynomials are stored as sorted lists of sorted variable
lists (the canonical set-of-monomials form), so cached expressions are
engine-neutral and byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

from repro import chaos as _chaos
from repro import telemetry as _telemetry
from repro.extract.diagnose import Diagnosis, Verdict
from repro.extract.extractor import ExtractionResult
from repro.extract.verify import VerificationReport
from repro.gf2.polynomial import Gf2Poly
from repro.ioutil import atomic_write_bytes
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats
from repro.rewrite.parallel import ExtractionRun, LazyExpressions
from repro.service.fingerprint import (
    FINGERPRINT_SCHEMA,
    fingerprint_netlist,
    fingerprint_with_cones,
)

#: Bump on any change to the serialized artifact layout.
CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the number of artifact entries kept
#: on disk; oldest-mtime entries are evicted past it (0/unset = keep
#: everything).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Environment variable bounding the total artifact bytes kept on
#: disk; oldest-mtime entries are evicted past it (0/unset = keep
#: everything).
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: The JSON artifact kinds the cache stores.
KINDS = ("extraction", "verification", "diagnosis", "squarer")

#: Binary compiled-program entries (see the module docstring).
COMPILED_KIND = "compiled"

#: Per-output-cone results, keyed by cone digest (not netlist
#: fingerprint — the whole point is that a cone entry survives edits
#: to the *rest* of the netlist).
CONE_KIND = "cone"


def _path_digest(path: Union[str, os.PathLike]) -> str:
    """Key of a file's fingerprint memo: its absolute path, hashed."""
    return hashlib.sha256(
        os.fsdecode(os.path.abspath(path)).encode("utf-8")
    ).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------------
# JSON codec for the artifact kinds
# ----------------------------------------------------------------------

def poly_to_json(poly: Gf2Poly) -> List[List[str]]:
    return sorted(sorted(mono) for mono in poly.monomials)


def poly_from_json(data: List[List[str]]) -> Gf2Poly:
    return Gf2Poly.from_monomials(
        frozenset(frozenset(mono) for mono in data)
    )


def stats_to_json(stats: RewriteStats) -> Dict[str, Any]:
    return {
        "output": stats.output,
        "iterations": stats.iterations,
        "cone_gates": stats.cone_gates,
        "peak_terms": stats.peak_terms,
        "final_terms": stats.final_terms,
        "eliminated_monomials": stats.eliminated_monomials,
        "runtime_s": stats.runtime_s,
    }


def stats_from_json(data: Dict[str, Any]) -> RewriteStats:
    return RewriteStats(**data)


def encode_extraction_run(run: ExtractionRun) -> Dict[str, Any]:
    """Engine-neutral JSON form of a run (expressions fully decoded)."""
    return {
        "netlist_name": run.netlist_name,
        "jobs": run.jobs,
        "wall_time_s": run.wall_time_s,
        "cpu_time_s": run.cpu_time_s,
        "peak_terms": run.peak_terms,
        "peak_memory_bytes": run.peak_memory_bytes,
        "engine": run.engine,
        "expressions": {
            output: poly_to_json(run.expressions[output])
            for output in sorted(run.expressions)
        },
        "stats": {
            output: stats_to_json(stats)
            for output, stats in sorted(run.stats.items())
        },
        "cache_provenance": {
            output: run.cache_provenance[output]
            for output in sorted(run.cache_provenance)
        },
    }


class _JsonCones(Mapping):
    """Output → ``ReferenceExpression``, decoded from entry JSON on
    first access — a cache hit that only needs P(x)/verdict metadata
    never rebuilds a single polynomial."""

    __slots__ = ("_raw", "_cache")

    def __init__(self, raw: Dict[str, Any]):
        self._raw = raw
        self._cache: Dict[str, Any] = {}

    def __getitem__(self, key: str):
        from repro.engine.reference import ReferenceExpression

        cone = self._cache.get(key)
        if cone is None:
            cone = ReferenceExpression(poly_from_json(self._raw[key]))
            self._cache[key] = cone
        return cone

    def __iter__(self):
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def decode_extraction_run(data: Dict[str, Any]) -> ExtractionRun:
    cones = _JsonCones(data["expressions"])
    return ExtractionRun(
        netlist_name=data["netlist_name"],
        expressions=LazyExpressions(cones),
        stats={
            output: stats_from_json(stats)
            for output, stats in data["stats"].items()
        },
        jobs=data["jobs"],
        wall_time_s=data["wall_time_s"],
        cpu_time_s=data["cpu_time_s"],
        peak_terms=data["peak_terms"],
        peak_memory_bytes=data.get("peak_memory_bytes"),
        engine=data["engine"],
        cones=cones,
        cache_provenance=dict(data.get("cache_provenance", {})),
    )


def encode_extraction_result(result: ExtractionResult) -> Dict[str, Any]:
    return {
        "modulus": result.modulus,
        "m": result.m,
        "irreducible": result.irreducible,
        "member_bits": list(result.member_bits),
        "total_time_s": result.total_time_s,
        "run": encode_extraction_run(result.run),
    }


def decode_extraction_result(data: Dict[str, Any]) -> ExtractionResult:
    return ExtractionResult(
        modulus=data["modulus"],
        m=data["m"],
        irreducible=data["irreducible"],
        member_bits=list(data["member_bits"]),
        run=decode_extraction_run(data["run"]),
        total_time_s=data["total_time_s"],
    )


def encode_verification_report(report: VerificationReport) -> Dict[str, Any]:
    return {
        "modulus": report.modulus,
        "algebraic": {
            str(bit): bool(ok) for bit, ok in sorted(report.algebraic.items())
        },
        "irreducible": report.irreducible,
        "simulation_ok": report.simulation_ok,
        "simulation_vectors": report.simulation_vectors,
        "runtime_s": report.runtime_s,
    }


def decode_verification_report(data: Dict[str, Any]) -> VerificationReport:
    return VerificationReport(
        modulus=data["modulus"],
        algebraic={int(bit): ok for bit, ok in data["algebraic"].items()},
        irreducible=data["irreducible"],
        simulation_ok=data["simulation_ok"],
        simulation_vectors=data["simulation_vectors"],
        runtime_s=data["runtime_s"],
    )


def encode_diagnosis(diagnosis: Diagnosis) -> Dict[str, Any]:
    return {
        "verdict": diagnosis.verdict.value,
        "netlist_name": diagnosis.netlist_name,
        "extraction": (
            encode_extraction_result(diagnosis.extraction)
            if diagnosis.extraction is not None
            else None
        ),
        "verification": (
            encode_verification_report(diagnosis.verification)
            if diagnosis.verification is not None
            else None
        ),
        "counterexample": diagnosis.counterexample,
        "reason": diagnosis.reason,
        "runtime_s": diagnosis.runtime_s,
    }


def decode_diagnosis(data: Dict[str, Any]) -> Diagnosis:
    return Diagnosis(
        verdict=Verdict(data["verdict"]),
        netlist_name=data["netlist_name"],
        extraction=(
            decode_extraction_result(data["extraction"])
            if data["extraction"] is not None
            else None
        ),
        verification=(
            decode_verification_report(data["verification"])
            if data["verification"] is not None
            else None
        ),
        counterexample=data["counterexample"],
        reason=data["reason"],
        runtime_s=data["runtime_s"],
    )


def encode_squarer_result(result) -> Dict[str, Any]:
    return {
        "modulus": result.modulus,
        "m": result.m,
        "observed_columns": list(result.observed_columns),
        "irreducible": result.irreducible,
        "verified": result.verified,
        "total_time_s": result.total_time_s,
    }


def decode_squarer_result(data: Dict[str, Any]):
    from repro.extract.squarer import SquarerExtractionResult

    return SquarerExtractionResult(
        modulus=data["modulus"],
        m=data["m"],
        observed_columns=list(data["observed_columns"]),
        irreducible=data["irreducible"],
        verified=data["verified"],
        total_time_s=data["total_time_s"],
    )


_ENCODERS = {
    "extraction": encode_extraction_result,
    "verification": encode_verification_report,
    "diagnosis": encode_diagnosis,
    "squarer": encode_squarer_result,
}
_DECODERS = {
    "extraction": decode_extraction_result,
    "verification": decode_verification_report,
    "diagnosis": decode_diagnosis,
    "squarer": decode_squarer_result,
}


@dataclass(frozen=True)
class _Tier:
    """What sets one kind of stored file apart from the others.

    ``schema`` is the version a JSON file must carry (``None``: opaque
    bytes, no schema).  ``envelope`` files wrap their payload in a
    header (schema, kind, ``key_field``, creation time), pass the
    ``cache.get``/``cache.put`` chaos sites and count ``cache.put``.
    A ``lenient`` kind is an optimization consulted inside a larger
    job: an I/O error reading it is a miss and one writing it is
    dropped, where a strict kind raises (retryable by the supervision
    layer).  ``counter`` names the session counters
    (``cache.<counter>hit`` / ``cache.<counter>miss``) of a budgeted
    artifact; ``None`` marks a side record that is neither counted,
    budgeted nor walked by :meth:`ResultCache.stats`/``prune``.
    """

    directory: str
    suffix: str = ".json"
    schema: Optional[int] = CACHE_SCHEMA_VERSION
    envelope: bool = True
    lenient: bool = False
    counter: Optional[str] = ""
    key_field: str = "fingerprint"


#: Every kind of file the cache keeps.  Paths are uniform:
#: ``v<N>/<directory>/<aa>/<key><variant><suffix>``, where the
#: variant names a compiled program's engine and compile schema.
_TIERS: Dict[str, _Tier] = {
    **{kind: _Tier(kind) for kind in KINDS},
    CONE_KIND: _Tier(
        CONE_KIND, lenient=True, counter="cone_", key_field="cone"
    ),
    COMPILED_KIND: _Tier(
        COMPILED_KIND,
        suffix=".bin",
        schema=None,
        envelope=False,
        lenient=True,
        counter="compile_",
    ),
    # Algorithm 2's verdict alone, beside the extraction entry.
    "summary": _Tier(
        "extraction", suffix=".sum", envelope=False, lenient=True,
        counter=None,
    ),
    # (absolute path digest) -> stat-validated netlist fingerprint.
    "file": _Tier(
        "files", schema=FINGERPRINT_SCHEMA, envelope=False, lenient=True,
        counter=None,
    ),
}


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Hit/miss/evict counters (this instance) + on-disk totals."""

    root: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: Dict[str, int] = field(default_factory=dict)
    disk_bytes: int = 0
    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None
    compile_hits: int = 0
    compile_misses: int = 0
    cone_hits: int = 0
    cone_misses: int = 0
    corrupt: int = 0
    quarantined: int = 0

    @property
    def total_entries(self) -> int:
        return sum(self.entries.values())

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def __str__(self) -> str:
        per_kind = ", ".join(
            f"{kind}:{count}" for kind, count in sorted(self.entries.items())
        ) or "empty"
        budgets = []
        if self.max_entries:
            budgets.append(f"max {self.max_entries}")
        if self.max_bytes:
            budgets.append(f"max {self.max_bytes / 1024:.0f} KiB")
        budget = f" ({', '.join(budgets)})" if budgets else ""
        return (
            f"cache at {self.root}: {self.total_entries} entries{budget} "
            f"[{per_kind}], {self.disk_bytes / 1024:.1f} KiB, "
            f"session hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} ({self.hit_rate:.0%} hit rate), "
            f"compiled hits={self.compile_hits} "
            f"misses={self.compile_misses}, "
            f"cone hits={self.cone_hits} misses={self.cone_misses}, "
            f"corrupt={self.corrupt} "
            f"({self.quarantined} quarantined on disk)"
        )


class ResultCache:
    """Content-addressed store for every artifact of the pipeline.

    Keys are netlist fingerprints (cone digests for the cone tier); a
    :class:`~repro.netlist.netlist.Netlist` is accepted anywhere a key
    is and fingerprinted on the fly.
    Concurrent writers are safe: entries are immutable by construction
    (same key ⟹ same payload) and every write is an atomic replace.

    >>> import tempfile
    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> from repro.extract.extractor import extract_irreducible_polynomial
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> net = generate_mastrovito(0b10011)
    >>> cache.get_extraction(net) is None
    True
    >>> cache.put_extraction(net, extract_irreducible_polynomial(net))
    >>> cache.get_extraction(net).polynomial_str
    'x^4 + x + 1'
    """

    def __init__(
        self,
        root: Optional[Union[str, os.PathLike]] = None,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version_dir = self.root / f"v{CACHE_SCHEMA_VERSION}"
        #: This session's lookup outcomes, by telemetry counter name.
        self._tallies: Counter = Counter()
        self.evictions = 0
        self.corrupt = 0
        if max_entries is None:
            max_entries = self._int_env(CACHE_MAX_ENTRIES_ENV)
        if max_bytes is None:
            max_bytes = self._int_env(CACHE_MAX_BYTES_ENV)
        #: Artifact-entry budget; ``None``/``0`` disables eviction.
        self.max_entries = max_entries or None
        #: Artifact-bytes budget; ``None``/``0`` disables eviction.
        self.max_bytes = max_bytes or None
        #: Approximate on-disk artifact count/bytes, seeded by the
        #: first budgeted write and corrected by every :meth:`prune`
        #: scan — so a long fill pays one directory walk per eviction
        #: batch, not one per write.  Concurrent writers can make them
        #: drift low, which only delays eviction until the next scan.
        self._entry_estimate: Optional[int] = None
        self._bytes_estimate: Optional[int] = None
        #: netlist -> (gate count, fingerprint, cone digests or None).
        self._fingerprint_memo: WeakKeyDictionary = WeakKeyDictionary()

    hits = property(lambda self: self._tallies["cache.hit"])
    misses = property(lambda self: self._tallies["cache.miss"])
    compile_hits = property(lambda self: self._tallies["cache.compile_hit"])
    compile_misses = property(
        lambda self: self._tallies["cache.compile_miss"]
    )
    cone_hits = property(lambda self: self._tallies["cache.cone_hit"])
    cone_misses = property(lambda self: self._tallies["cache.cone_miss"])

    @staticmethod
    def _int_env(variable: str) -> Optional[int]:
        env = os.environ.get(variable)
        if not env:
            return None
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{variable}={env!r} is not an integer"
            ) from None

    # -- key handling ---------------------------------------------------

    def fingerprint(self, key: Union[str, Netlist]) -> str:
        """Normalise a key: pass fingerprints through, hash netlists.

        Netlist fingerprints are memoized weakly (guarded by gate
        count, like the engines' compiled-program caches), so one
        request that consults several kinds hashes the netlist once.
        """
        if isinstance(key, Netlist):
            memo = self._netlist_memo(key)
            if memo is not None:
                return memo[1]
            fingerprint = fingerprint_netlist(key)
            self.remember_fingerprint(key, fingerprint)
            return fingerprint
        return key

    def cone_digests(self, netlist: Netlist) -> Dict[str, str]:
        """Per-output-cone digests of ``netlist``
        (:func:`~repro.service.fingerprint.cone_fingerprints`), kept
        in the same weak memo as its fingerprint: a netlist whose
        caller already ran ``fingerprint_with_cones`` is never lowered
        again, and one that is new here is lowered once for both."""
        memo = self._netlist_memo(netlist)
        if memo is not None and memo[2] is not None:
            return memo[2]
        fingerprint, cones = fingerprint_with_cones(netlist)
        self.remember_fingerprint(netlist, fingerprint, cones)
        return cones

    def remember_fingerprint(
        self,
        netlist: Netlist,
        fingerprint: str,
        cones: Optional[Dict[str, str]] = None,
    ) -> None:
        """Seed the weak memo with an externally known fingerprint
        (e.g. from the stat-validated file memo) and, optionally, the
        cone digests computed with it, so keyed accesses on this
        netlist object never re-hash or re-lower it."""
        self._fingerprint_memo[netlist] = (len(netlist), fingerprint, cones)

    def _netlist_memo(self, netlist: Netlist) -> Optional[tuple]:
        """The memo entry ``(gate count, fingerprint, cone digests or
        None)`` while the netlist's gate count still matches it."""
        memo = self._fingerprint_memo.get(netlist)
        if memo is None or memo[0] != len(netlist):
            return None
        return memo

    def _path(
        self, kind: str, key: Union[str, Netlist], variant: str = ""
    ) -> Path:
        """Where a ``kind`` file for ``key`` lives (see ``_TIERS``)."""
        tier = _TIERS[kind]
        fingerprint = self.fingerprint(key)
        shard = fingerprint.rsplit("-", 1)[-1][:2]
        return (
            self.version_dir
            / tier.directory
            / shard
            / f"{fingerprint}{variant}{tier.suffix}"
        )

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")

    def path_for(self, kind: str, key: Union[str, Netlist]) -> Path:
        self._check_kind(kind)
        return self._path(kind, key)

    def jobs_dir(self) -> Path:
        """Directory for extraction checkpoints (repro.service.jobs)."""
        return self.version_dir / "jobs"

    # -- the one read path and the one write path -----------------------

    def _read(self, kind: str, path: Path) -> Optional[Any]:
        """Open and decode one stored file.

        Returns the JSON document (the raw bytes of a schema-less
        kind), or ``None`` when the file is absent, unreadable by a
        lenient kind, undecodable or of another schema.  An
        undecodable file is quarantined: left in place it would be a
        *permanent* miss for its key.
        """
        tier = _TIERS[kind]
        try:
            if tier.envelope:
                # Chaos site: a transient read failure is retryable by
                # the supervision layer, unlike the corrupt-entry path
                # below, which is a deterministic fact about the disk.
                _chaos.get_chaos().io_error(where=f"cache.get {kind}")
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            if tier.lenient:
                return None
            raise
        if tier.schema is None:
            return data
        try:
            document = json.loads(data)
        except ValueError:
            self._quarantine_corrupt(kind, path)
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != tier.schema
        ):
            return None
        return document

    def _lookup(
        self, kind: str, key: Union[str, Netlist], variant: str = ""
    ) -> Optional[Any]:
        """:meth:`_read` an artifact, counted as a hit or miss; returns
        its decoded payload.

        Every lookup — hit or miss — lands in the ``cache.lookup``
        latency histogram: the distribution (not the average) is what
        tells a shared-cache deployment when the store's disk or
        fingerprint path degrades.
        """
        started = time.perf_counter()
        try:
            tier = _TIERS[kind]
            found = self._read(kind, self._path(kind, key, variant))
            outcome = "miss" if found is None else "hit"
            self._tally(f"cache.{tier.counter}{outcome}")
            if found is None or not tier.envelope:
                return found
            decode = _DECODERS.get(kind)
            return decode(found["payload"]) if decode else found["payload"]
        finally:
            _telemetry.current().observe(
                "cache.lookup", time.perf_counter() - started
            )

    def _tally(self, counter: str, amount: int = 1) -> None:
        self._tallies[counter] += amount
        _telemetry.current().counter(counter, amount)

    def _write(
        self,
        kind: str,
        key: Union[str, Netlist],
        value: Any,
        variant: str = "",
    ) -> Path:
        """Encode and atomically store one file; returns its path.

        An envelope kind's payload is encoded and wrapped in its
        header; a budgeted kind updates the eviction estimates.  A
        lenient kind's failed write is dropped: it is written per bit
        or per file inside a larger job, which losing one cache entry
        must not abort (and force a retry of).
        """
        tier = _TIERS[kind]
        key = self.fingerprint(key)  # once: strash+hash is O(n)
        path = self._path(kind, key, variant)
        budgeted = tier.counter is not None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            replaced = self._size_before_write(path) if budgeted else None
            if tier.schema is None:
                data = value
            elif tier.envelope:
                encode = _ENCODERS.get(kind)
                entry = {
                    "schema": tier.schema,
                    "kind": kind,
                    tier.key_field: key,
                    "created_unix": time.time(),
                    "payload": encode(value) if encode else value,
                }
                chaos = _chaos.get_chaos()
                chaos.io_error(where=f"cache.put {kind}")
                data = json.dumps(entry, indent=1, sort_keys=True)
                # Chaos site: deterministically mangled payloads
                # exercise the quarantine on the next read of this key.
                data = chaos.corrupt(data.encode("utf-8"), key=f"{kind}:{key}")
            else:
                data = json.dumps(value, sort_keys=True).encode("utf-8")
            atomic_write_bytes(path, data)
        except OSError:
            if tier.lenient:
                return path
            raise
        if tier.envelope:
            _telemetry.current().counter("cache.put")
        if budgeted:
            self._after_budgeted_write(path, replaced)
        return path

    def _size_before_write(self, path: Path) -> Optional[int]:
        """Size of the entry a write is about to replace (None = new).

        Only consulted when a budget is active; an overwrite (re-put
        of the same key, a re-stored compiled program) must not count
        as a new entry or its replaced bytes stay in the estimate.
        """
        if self.max_entries is None and self.max_bytes is None:
            return None
        try:
            return path.stat().st_size
        except OSError:
            return None

    def _after_budgeted_write(
        self, path: Path, replaced: Optional[int] = None
    ) -> None:
        """Update the entry/byte estimates; prune when a budget trips."""
        if self.max_entries is None and self.max_bytes is None:
            return
        if self._entry_estimate is None:
            self.prune()  # first budgeted write: scan once to seed
            return
        if replaced is None:
            self._entry_estimate += 1
        try:
            self._bytes_estimate = (
                (self._bytes_estimate or 0)
                + path.stat().st_size
                - (replaced or 0)
            )
        except OSError:  # pragma: no cover - concurrently evicted
            pass
        if (
            self.max_entries is not None
            and self._entry_estimate > self.max_entries
        ) or (
            self.max_bytes is not None
            and (self._bytes_estimate or 0) > self.max_bytes
        ):
            self.prune()

    def quarantine_dir(self) -> Path:
        """Where corrupted entries are moved for post-mortem."""
        return self.version_dir / "quarantine"

    def _quarantine_corrupt(self, kind: str, path: Path) -> None:
        """Move an undecodable file out of the artifact tree, so the
        next lookup is a clean miss (and the recompute lands
        normally) while the bytes stay available for diagnosis."""
        target = self.quarantine_dir() / f"{kind}.{path.name}"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:  # can't move it — dropping it still unwedges the key
                path.unlink()
            except OSError:  # pragma: no cover - raced/unwritable
                return
        self.corrupt += 1
        _telemetry.current().counter("cache.corrupt")

    # -- netlist-level JSON artifacts -------------------------------------

    def get(self, kind: str, key: Union[str, Netlist]) -> Optional[Any]:
        """Load and decode an artifact; None (and a miss) if absent."""
        self._check_kind(kind)
        return self._lookup(kind, key)

    def put(self, kind: str, key: Union[str, Netlist], artifact: Any) -> Path:
        """Encode and atomically store an artifact; returns its path."""
        self._check_kind(kind)
        return self._write(kind, key, artifact)

    def get_raw(self, kind: str, key: Union[str, Netlist]) -> Optional[Dict]:
        """The raw JSON entry (for the HTTP API's ``full`` view)."""
        return self._read(kind, self.path_for(kind, key))

    def get_extraction(self, key) -> Optional[ExtractionResult]:
        return self.get("extraction", key)

    def put_extraction(self, key, result: ExtractionResult) -> None:
        self.put("extraction", key, result)
        # Sidecar: Algorithm 2's verdict alone, so the ECO warm path
        # can re-report P(x) without parsing the full per-bit
        # expression payload (which dominates the entry at large m).
        # Keyed by content fingerprint it can never go stale; an
        # evicted main entry may strand a (tiny) sidecar, which is why
        # readers must pair it with their own freshness evidence.
        self._write(
            "summary",
            key,
            {
                "schema": CACHE_SCHEMA_VERSION,
                "modulus": result.modulus,
                "m": result.m,
                "irreducible": result.irreducible,
                "member_bits": list(result.member_bits),
            },
        )

    def get_extraction_summary(self, key) -> Optional[Dict[str, Any]]:
        """The verdict sidecar of a stored extraction, or None.

        Milliseconds where :meth:`get_extraction` is tenths of a
        second: no expressions, just ``modulus``/``m``/``irreducible``/
        ``member_bits``.  Because eviction can strand a sidecar after
        its main entry is gone, treat a hit as authoritative only
        alongside independent evidence the result is still servable
        (the ECO path requires every cone entry to be present).
        """
        return self._read("summary", self._path("summary", key))

    def get_verification(self, key) -> Optional[VerificationReport]:
        return self.get("verification", key)

    def put_verification(self, key, report: VerificationReport) -> None:
        self.put("verification", key, report)

    def get_diagnosis(self, key) -> Optional[Diagnosis]:
        return self.get("diagnosis", key)

    def put_diagnosis(self, key, diagnosis: Diagnosis) -> None:
        self.put("diagnosis", key, diagnosis)

    def get_squarer(self, key):
        return self.get("squarer", key)

    def put_squarer(self, key, result) -> None:
        self.put("squarer", key, result)

    # -- compiled engine programs ---------------------------------------
    #
    # The engine compile key and its compile schema are part of the
    # file name, so a schema bump retires that engine's programs
    # without touching any other entry.  Payloads are opaque bytes;
    # deserialization and exact-netlist validation belong to the
    # engine layer (repro.engine.base.CompilingEngine).

    def compiled_path_for(
        self, key: Union[str, Netlist], engine: str, schema: Optional[int]
    ) -> Path:
        return self._path(COMPILED_KIND, key, f".{engine}.s{schema}")

    def get_compiled(
        self, key: Union[str, Netlist], engine: str, schema: Optional[int]
    ) -> Optional[bytes]:
        """The stored compiled-program payload, or ``None`` (a miss)."""
        return self._lookup(COMPILED_KIND, key, f".{engine}.s{schema}")

    def note_compile_rejected(self) -> None:
        """Reclassify the last compiled read as a miss.

        The engine layer validates the payload (exact-netlist token,
        unpickling) *after* :meth:`get_compiled` returned it; a
        rejected program forced a full recompile, and the stats must
        say so or a token-mismatch churn looks like a 100% hit rate.
        """
        self._tally("cache.compile_hit", -1)
        self._tally("cache.compile_miss")

    def put_compiled(
        self,
        key: Union[str, Netlist],
        engine: str,
        schema: Optional[int],
        payload: bytes,
    ) -> Path:
        """Atomically store one engine's compiled program."""
        return self._write(
            COMPILED_KIND, key, payload, f".{engine}.s{schema}"
        )

    # -- per-output-cone results ----------------------------------------
    #
    # Theorem 1 of the paper makes each output bit's canonical
    # expression unique and backend-independent, so a cone result is
    # engine-neutral: it is keyed only by the cone digest
    # (repro.service.fingerprint.cone_fingerprints — a Merkle hash of
    # the output's transitive fan-in), and any engine may serve or
    # store it.  Engine identity and compile schema are *recorded* in
    # the payload as provenance.

    def cone_path_for(self, digest: str) -> Path:
        """Location of one output cone's cached result."""
        return self._path(CONE_KIND, digest)

    def get_cone(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached cone payload, or ``None`` (a miss).

        The payload is the raw JSON dict: ``output``, ``expression``
        (``poly_to_json`` form), ``stats`` (``stats_to_json`` form),
        plus ``engine``/``compile_schema`` provenance.  Decoding to a
        backend expression belongs to the extraction driver.
        """
        return self._lookup(CONE_KIND, digest)

    def put_cone(
        self,
        digest: str,
        output: str,
        expression: Gf2Poly,
        stats: RewriteStats,
        engine: Optional[str] = None,
        compile_schema: Optional[int] = None,
    ) -> Path:
        """Atomically store one output cone's result (best-effort)."""
        return self._write(
            CONE_KIND,
            digest,
            {
                "output": output,
                "expression": poly_to_json(expression),
                "stats": stats_to_json(stats),
                "engine": engine,
                "compile_schema": compile_schema,
            },
        )

    # -- file fingerprint memo ------------------------------------------
    #
    # Fingerprinting is content-addressed, but campaigns address
    # netlists by *file*; re-parsing and re-strashing a file whose
    # bytes have not changed just to recompute a known fingerprint
    # would dominate warm reruns.  The memo maps (absolute path,
    # mtime_ns, size) -> fingerprint, so a warm hit never opens the
    # netlist at all.  Any stat change invalidates the memo entry and
    # falls back to a full fingerprint.

    def _file_memo_path(self, path: Union[str, os.PathLike]) -> Path:
        return self._path("file", _path_digest(path))

    def file_fingerprint(
        self, path: Union[str, os.PathLike]
    ) -> Optional[Dict[str, Any]]:
        """The memoized ``{"fingerprint", "gates"}`` (plus ``"cones"``
        when recorded — see :meth:`remember_file`) for an unchanged
        file, or None when unseen/stale/unreadable.  A memo of another
        ``FINGERPRINT_SCHEMA`` is stale: its fingerprint was computed
        under the old canonical form and would stop structurally
        identical designs from deduplicating."""
        try:
            stat = os.stat(path)
        except OSError:
            return None
        memo = self._read("file", self._file_memo_path(path))
        if (
            memo is None
            or memo.get("mtime_ns") != stat.st_mtime_ns
            or memo.get("size") != stat.st_size
        ):
            return None
        return memo

    def remember_file(
        self,
        path: Union[str, os.PathLike],
        fingerprint: str,
        gates: Optional[int] = None,
        stat: Optional[os.stat_result] = None,
        cones: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record a file's fingerprint against its stat.

        Pass the ``stat`` taken *before* reading the file; statting
        here, after the parse, would memoize the old content's
        fingerprint against the stat of a concurrent overwrite.

        ``cones`` optionally records the per-output-cone digests
        (:func:`repro.service.fingerprint.cone_fingerprints`) so a
        repeated ECO diff against an unchanged file skips the strash
        entirely — the memo hit already carries every cone digest.
        """
        if stat is None:
            try:
                stat = os.stat(path)
            except OSError:
                return
        memo = {
            "path": os.fsdecode(os.path.abspath(path)),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "schema": FINGERPRINT_SCHEMA,
            "fingerprint": fingerprint,
            "gates": gates,
        }
        if cones is not None:
            memo["cones"] = cones
        self._write("file", _path_digest(path), memo)

    # -- stats / maintenance --------------------------------------------

    def _artifact_files(self) -> Iterator[Tuple[str, Path]]:
        """Every budgeted artifact file as ``(kind, path)``.  Side
        records (verdict sidecars, file memos) and job checkpoints are
        deliberately excluded: tiny, and rebuilding them costs a
        re-parse, not a re-extraction."""
        for kind, tier in _TIERS.items():
            kind_dir = self.version_dir / tier.directory
            if tier.counter is not None and kind_dir.is_dir():
                for path in kind_dir.rglob(f"*{tier.suffix}"):
                    yield kind, path

    def stats(self) -> CacheStats:
        """Session hit/miss counters plus an on-disk census."""
        entries: Dict[str, int] = {
            kind: 0
            for kind, tier in _TIERS.items()
            if tier.counter is not None
        }
        disk_bytes = 0
        for kind, path in self._artifact_files():
            entries[kind] += 1
            try:
                disk_bytes += path.stat().st_size
            except OSError:  # pragma: no cover - concurrently evicted
                continue
        return CacheStats(
            root=str(self.root),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            entries=entries,
            disk_bytes=disk_bytes,
            max_entries=self.max_entries,
            max_bytes=self.max_bytes,
            compile_hits=self.compile_hits,
            compile_misses=self.compile_misses,
            cone_hits=self.cone_hits,
            cone_misses=self.cone_misses,
            corrupt=self.corrupt,
            quarantined=sum(
                1 for p in self.quarantine_dir().glob("*") if p.is_file()
            ),
        )

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict oldest-mtime artifact entries beyond the budgets.

        ``max_entries`` / ``max_bytes`` default to the instance
        budgets (set via the constructor, ``REPRO_CACHE_MAX_ENTRIES``
        or ``REPRO_CACHE_MAX_BYTES``); passing either explicitly
        prunes to any size, including ``0`` (drop all artifact
        entries).  Compiled-program blobs count and are evicted like
        any other artifact; file-fingerprint memos and job checkpoints
        are not counted and not evicted.  Returns the eviction count.
        """
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_entries is None and max_bytes is None:
            return 0
        aged: List[Tuple[int, int, Path]] = []
        for _, path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another writer
            aged.append((stat.st_mtime_ns, stat.st_size, path))
        aged.sort(key=lambda item: (item[0], item[2]))
        kept_count = len(aged)
        kept_bytes = sum(size for _, size, _ in aged)
        removed = 0
        for _, size, path in aged:
            over_entries = (
                max_entries is not None and kept_count > max_entries
            )
            over_bytes = max_bytes is not None and kept_bytes > max_bytes
            if not (over_entries or over_bytes):
                break
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass  # concurrently evicted; budget-wise it is gone
            kept_count -= 1
            kept_bytes -= size
        self.evictions += removed
        if removed:
            _telemetry.current().counter("cache.evict", removed)
        self._entry_estimate = kept_count
        self._bytes_estimate = kept_bytes
        return removed

    def clear(self) -> int:
        """Delete every entry (all schema versions); returns the count."""
        removed = 0
        if self.root.is_dir():
            for version_dir in self.root.glob("v*"):
                if version_dir.is_dir():
                    removed += sum(
                        1
                        for p in version_dir.rglob("*")
                        if p.is_file() and p.suffix in (".json", ".bin")
                    )
                    shutil.rmtree(version_dir)
        return removed

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r})"
