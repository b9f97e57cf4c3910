"""Swappable bitset kernels for the counting hot path.

Four interchangeable backends implement the word-parallel
intersect-and-count operations at the heart of every engine:

* ``"native"`` — the ``bigint`` ops plus a compiled C walker that runs
  whole target-k root walks (build and pivot recursion) per call; the
  default when a C compiler works here, built on first use (see
  :mod:`repro.kernels.native`);
* ``"bigint"`` — Python arbitrary-precision ints as bitsets (the
  reference semantics, and the pure-Python oracle);
* ``"wordarray"`` — NumPy uint64 word arrays with vectorized ``&`` and
  hardware popcount, fused single-row kernels plus the tier-2 batched
  frontier kernels (``pivot_select_sweep`` / ``expand_children``);
* ``"numba"`` — opt-in nopython JIT compilation of the same frontier
  kernels (the ``[jit]`` extra); when numba is not importable,
  resolving it falls back to ``wordarray`` with a warning.

Select a backend per run via ``PivotScaleConfig(kernel=...)``, the CLI
``--kernel`` flag, the ``REPRO_KERNEL`` environment variable, or any
engine's ``kernel=`` parameter.  The differential suite
(``tests/test_differential.py``) holds the backends to byte-identical
counts and counters; ``benchmarks/bench_kernels.py`` records the
throughput gap.
"""

from __future__ import annotations

import os
import warnings

from repro.errors import CountingError, KernelUnavailableError
from repro.kernels.base import BitsetKernel, PivotChoice
from repro.kernels.bigint import BigIntKernel
from repro.kernels.jit import NumbaKernel, numba_unavailable_reason
from repro.kernels.native import NativeKernel, native_unavailable_reason
from repro.kernels.wordarray import WordArrayKernel

KERNELS: dict[str, type[BitsetKernel]] = {
    "bigint": BigIntKernel,
    "wordarray": WordArrayKernel,
    "numba": NumbaKernel,
    "native": NativeKernel,
}
"""Registry of kernel backends, keyed by CLI/config name.

Every registered name is *valid configuration*; optional backends
(``numba``, ``native``) may still be unavailable at runtime — see
:func:`kernel_availability` and the fallback in :func:`resolve_kernel`.
"""

DEFAULT_KERNEL = "native"

#: Where an unavailable optional backend falls back to.
_FALLBACK = {"numba": "wordarray", "native": "bigint"}

#: Environment override for the default backend (used by the CI
#: ``kernels-numba`` and ``oracle`` jobs to re-run whole suites on
#: another backend without touching every call site).
KERNEL_ENV = "REPRO_KERNEL"


def kernel_availability() -> dict[str, str | None]:
    """Per-backend availability: ``None`` when the backend can run,
    else a human-readable reason it cannot."""
    return {
        "bigint": None,
        "wordarray": None,
        "numba": numba_unavailable_reason(),
        "native": native_unavailable_reason(),
    }


def available_kernels() -> list[str]:
    """Registered backend names that can actually run here, sorted."""
    return sorted(
        name for name, why in kernel_availability().items() if why is None
    )


def default_kernel_name() -> str:
    """The backend name ``resolve_kernel(None)`` resolves to: the
    ``REPRO_KERNEL`` override if set, else :data:`DEFAULT_KERNEL`, or
    ``bigint`` when the default cannot run here."""
    name = os.environ.get(KERNEL_ENV)
    if name:
        return name
    if native_unavailable_reason() is not None:
        return _FALLBACK[DEFAULT_KERNEL]
    return DEFAULT_KERNEL


def resolve_kernel(kernel: str | BitsetKernel | None = None) -> BitsetKernel:
    """Return a kernel *instance* for a name, instance, or ``None``.

    Backends may hold preallocated scratch buffers, so a fresh instance
    is created per call — do not share one across threads.

    ``None`` resolves through :func:`default_kernel_name`.  An unknown
    name raises :class:`~repro.errors.CountingError` listing the
    registered backends; a *registered but unavailable* optional
    backend named explicitly (numba without the ``[jit]`` extra,
    native without a working C compiler) falls back — numba to
    ``wordarray``, native to ``bigint`` — with a
    :class:`RuntimeWarning` naming the reason, so configs written for
    other hosts still run everywhere.

    This is also the observability seam: when metrics collection is on
    (:func:`repro.obs.enabled`), the resolved backend is wrapped in a
    call-counting :class:`~repro.obs.InstrumentedKernel`; when it is
    off — the default — the raw backend is returned and the hot path
    pays nothing.
    """
    from repro import obs  # function-local: obs imports kernels.base

    if kernel is None:
        kernel = default_kernel_name()
    if isinstance(kernel, BitsetKernel):
        return obs.instrument_kernel(kernel)
    try:
        cls = KERNELS[kernel]
    except KeyError:
        raise CountingError(
            f"unknown kernel {kernel!r}; registered backends: "
            f"{sorted(KERNELS)} (available here: {available_kernels()})"
        ) from None
    try:
        instance = cls()
    except KernelUnavailableError as exc:
        fallback = _FALLBACK[kernel]
        warnings.warn(
            f"{exc} — falling back to {fallback!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        instance = KERNELS[fallback]()
    return obs.instrument_kernel(instance)


__all__ = [
    "BitsetKernel",
    "PivotChoice",
    "BigIntKernel",
    "WordArrayKernel",
    "NumbaKernel",
    "NativeKernel",
    "KERNELS",
    "DEFAULT_KERNEL",
    "KERNEL_ENV",
    "default_kernel_name",
    "kernel_availability",
    "available_kernels",
    "resolve_kernel",
]
