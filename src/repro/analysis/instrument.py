"""Runtime and peak-memory instrumentation for the benchmarks.

The paper reports wall-clock runtime and peak resident memory per
extraction, and so do the harnesses: wall/CPU time plus the process's
peak resident set size.

:func:`measure` is a thin veneer over a telemetry span
(:mod:`repro.telemetry`), which reads the peak from the kernel's RSS
high-water mark at span exit.  Reading it costs nothing while the
measured call runs, so the runtime columns are not inflated by an
allocation tracer.  The mark is process-wide and never falls: it
includes everything the process did before the call, and a nested
measurement reports the same figure as the one around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.telemetry import Telemetry, resolve


@dataclass
class Measurement:
    """One measured call: value, times, and process peak RSS."""

    value: Any
    wall_s: float
    cpu_s: float
    peak_bytes: Optional[int]

    @property
    def peak_mb(self) -> Optional[float]:
        if self.peak_bytes is None:
            return None
        return self.peak_bytes / (1024 * 1024)

    def memory_str(self) -> str:
        """Render like the paper's Mem column (MB / GB)."""
        if self.peak_bytes is None:
            return "n/a"
        mb = self.peak_bytes / (1024 * 1024)
        if mb >= 1024:
            return f"{mb / 1024:.1f} GB"
        return f"{mb:.1f} MB"


def measure(
    func: Callable[[], Any],
    track_memory: bool = True,
    telemetry: Optional[Telemetry] = None,
    label: str = "measure",
) -> Measurement:
    """Run ``func`` once, recording wall time, CPU time and peak RSS.

    The call runs inside a ``label`` span of the active telemetry
    registry (or the one passed explicitly), so benchmark timings land
    in the same trace as the engine phases they contain.

    >>> measurement = measure(lambda: sum(range(1000)))
    >>> measurement.value
    499500
    >>> measurement.wall_s >= 0
    True
    """
    with resolve(telemetry).span(label, memory=track_memory) as span:
        value = func()
    return Measurement(
        value=value,
        wall_s=span.wall_s,
        cpu_s=span.cpu_s,
        peak_bytes=span.peak_bytes,
    )
