"""Array-module shim: one fused sweep, numpy or cupy underneath.

The vector engine's fused sweep is written against the array API
surface numpy and cupy share (``zeros``/``lexsort``/``bincount``/
``repeat``/``searchsorted``/broadcast ``|``); what differs between the
two is *around* the kernels — where buffers live, how bytes move to
and from the host, and which dtypes exist.  An :class:`ArrayBackend`
packages exactly those differences:

* ``xp`` — the array module itself (``numpy`` or ``cupy``); every
  kernel call in the sweep goes through it;
* ``asarray``/``to_host`` — the host↔device boundary.  The sweep calls
  ``to_host`` exactly once, at the decode boundary, so device results
  stay on the device for the whole substitution loop;
* ``supports_byte_keys`` — whether the backend can build the
  big-endian ``S{8*words}`` byte-string sort keys the incremental
  merge path uses.  cupy has no fixed-width byte dtype, so the device
  backend always takes the full lexsort (numpy's merge crossover is a
  host-side micro-optimisation anyway — the GPU's radix sort is the
  fast path there);
* ``device_bytes`` — live device-pool usage, for the
  ``sweep.device_bytes`` gauge (host RSS cannot see cupy's device
  allocations, so telemetry asks the backend).

Availability is reported as a *reason string* (``None`` means usable):
the registry surfaces it verbatim, so ``--engine cuda`` on a host
without cupy fails with "cupy is not installed", not "unknown engine".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

try:  # pragma: no cover - exercised via the no-numpy subprocess test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Reason the numpy backend is unusable, or ``None`` when it is.
NUMPY_MISSING = (
    "numpy is not installed; use engine='aig' or 'bitpack' instead"
)


class ArrayBackend:
    """One array module plus its host/device boundary behaviour."""

    __slots__ = (
        "name",
        "xp",
        "is_device",
        "supports_byte_keys",
        "_to_host",
        "_device_bytes",
    )

    def __init__(
        self,
        name: str,
        xp: Any,
        *,
        is_device: bool = False,
        supports_byte_keys: bool = True,
        to_host: Optional[Callable[[Any], Any]] = None,
        device_bytes: Optional[Callable[[], int]] = None,
    ) -> None:
        self.name = name
        self.xp = xp
        self.is_device = is_device
        self.supports_byte_keys = supports_byte_keys
        self._to_host = to_host
        self._device_bytes = device_bytes

    def asarray(self, array: Any) -> Any:
        """A backend-native array sharing the host array's contents."""
        return self.xp.asarray(array)

    def to_host(self, array: Any) -> Any:
        """A host (numpy) array with the given array's contents."""
        if self._to_host is None:
            return array
        return self._to_host(array)

    def device_bytes(self) -> Optional[int]:
        """Live device-memory usage, or ``None`` on host backends."""
        if self._device_bytes is None:
            return None
        return self._device_bytes()

    def __repr__(self) -> str:
        return f"ArrayBackend(name={self.name!r})"


def numpy_unavailable_reason() -> Optional[str]:
    """Why the host backend is unusable (``None`` when numpy exists)."""
    return None if _np is not None else NUMPY_MISSING


def numpy_backend() -> ArrayBackend:
    """The host backend (raises ``RuntimeError`` without numpy)."""
    if _np is None:
        raise RuntimeError(NUMPY_MISSING)
    return ArrayBackend("numpy", _np)


#: Memoized cupy probe result: ``(probed, reason)``.  A failed import
#: is not negatively cached by python, so without the memo every
#: ``available_engines()`` call would rescan ``sys.path``.
_CUPY_PROBE: "tuple[bool, Optional[str]]" = (False, None)


def cuda_unavailable_reason() -> Optional[str]:
    """Why the ``cuda`` backend is unusable (``None`` when it works).

    Distinguishes the three actionable failure modes: numpy itself is
    missing (cupy interoperates through it), cupy is not installed,
    and cupy imports but sees no CUDA device.
    """
    global _CUPY_PROBE
    probed, reason = _CUPY_PROBE
    if probed:
        return reason
    reason = _probe_cupy()
    _CUPY_PROBE = (True, reason)
    return reason


def _probe_cupy() -> Optional[str]:
    if _np is None:
        return NUMPY_MISSING
    try:
        import cupy  # noqa: F401
    except ImportError:
        return "cupy is not installed (e.g. pip install cupy-cuda12x)"
    except Exception as error:  # pragma: no cover - broken installs
        return f"cupy failed to import: {error}"
    try:
        count = cupy.cuda.runtime.getDeviceCount()
    except Exception as error:  # pragma: no cover - driver issues
        return f"no usable CUDA runtime: {error}"
    if count < 1:  # pragma: no cover - needs a GPU-less cupy install
        return "cupy imported but no CUDA device is visible"
    return None


def cupy_backend() -> ArrayBackend:  # pragma: no cover - needs a GPU
    """The device backend (raises ``RuntimeError`` with the reason)."""
    reason = cuda_unavailable_reason()
    if reason is not None:
        raise RuntimeError(reason)
    import cupy

    pool = cupy.get_default_memory_pool()
    return ArrayBackend(
        "cupy",
        cupy,
        is_device=True,
        supports_byte_keys=False,
        to_host=cupy.asnumpy,
        device_bytes=pool.used_bytes,
    )
