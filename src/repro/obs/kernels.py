"""Kernel-call instrumentation — exact fused-op counts per backend.

Wraps a :class:`~repro.kernels.BitsetKernel` and counts every API-level
call (``intersect``, ``intersect_count``, ``count_rows``,
``pivot_select``, ``intersect_count_sweep``, ``alloc_rows``) into
``kernel_calls_total{kernel=..., op=...}`` registry counters.  Counts
are taken at the kernel *contract* boundary, not inside backends, so
the big-int and word-array backends — which do wildly different work
per call — report bit-identical call counts on the same DAG: every
engine query runs one scalar recursion whatever the backend, and the
invariant suite (``tests/test_obs.py``) holds them to it.  The
``native`` backend's root walks never call the per-node ops; the
wrapper publishes, from each walk's exact tallies, the calls the
scalar recursion would have made for it.

The wrapper exists only while observability is enabled:
:func:`repro.kernels.resolve_kernel` consults
:func:`repro.obs.instrument_kernel` and returns the raw backend when
metrics are off, so the disabled hot path pays nothing — the same
install-only-when-wanted pattern as
:class:`~repro.runtime.faults.FaultyKernel`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice

__all__ = ["InstrumentedKernel"]


class InstrumentedKernel(BitsetKernel):
    """Count every kernel API call into a metrics registry.

    ``name`` mirrors the wrapped backend so structure/engine logic
    (degradation's ``kernel.name == "bigint"`` checks, result fields)
    cannot tell an instrumented kernel from a bare one.
    """

    def __init__(self, inner: BitsetKernel, registry) -> None:
        self.inner = inner
        self.name = inner.name
        c = registry.counter
        k = inner.name
        self._c_alloc = c("kernel_calls_total", kernel=k, op="alloc_rows")
        self._c_set = c("kernel_calls_total", kernel=k, op="set_row")
        self._c_load = c("kernel_calls_total", kernel=k, op="load_rows")
        self._c_int = c("kernel_calls_total", kernel=k, op="intersect")
        self._c_ic = c("kernel_calls_total", kernel=k, op="intersect_count")
        self._c_cr = c("kernel_calls_total", kernel=k, op="count_rows")
        self._c_ps = c("kernel_calls_total", kernel=k, op="pivot_select")
        self._c_sweep = c(
            "kernel_calls_total", kernel=k, op="intersect_count_sweep"
        )

    @property
    def walks_roots(self) -> bool:
        return self.inner.walks_roots

    # ---------------------------------------------------------- storage
    def alloc_rows(self, d: int) -> Any:
        self._c_alloc.inc()
        return self.inner.alloc_rows(d)

    def set_row(self, rows: Any, i: int, bits: np.ndarray) -> None:
        self._c_set.inc()
        self.inner.set_row(rows, i, bits)

    def load_rows(
        self, rows: Any, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        self._c_load.inc()
        self.inner.load_rows(rows, indptr, indices)

    def row_int(self, rows: Any, i: int) -> int:
        return self.inner.row_int(rows, i)

    def num_rows(self, rows: Any) -> int:
        return self.inner.num_rows(rows)

    def row_accessor(self, rows: Any):
        return self.inner.row_accessor(rows)

    # ----------------------------------------------------- fused kernels
    def intersect(self, rows: Any, i: int, mask: int) -> int:
        self._c_int.inc()
        return self.inner.intersect(rows, i, mask)

    def intersect_count(self, rows: Any, i: int, mask: int) -> tuple[int, int]:
        self._c_ic.inc()
        return self.inner.intersect_count(rows, i, mask)

    def count_rows(self, rows: Any, mask: int) -> Sequence[int]:
        self._c_cr.inc()
        return self.inner.count_rows(rows, mask)

    def intersect_count_sweep(self, rows: Any, mask: int):
        self._c_sweep.inc()
        return self.inner.intersect_count_sweep(rows, mask)

    def pivot_select(self, rows: Any, P: int, pc: int) -> PivotChoice:
        self._c_ps.inc()
        return self.inner.pivot_select(rows, P, pc)

    # ------------------------------------------------------ root walks
    def walk_roots_k(self, graph, dag, roots, k, early_termination=True):
        """Forward a native root walk and publish the calls the scalar
        spine would have made for it.  Overflowed roots are left out:
        the engine recounts them through this wrapper."""
        walk = self.inner.walk_roots_k(graph, dag, roots, k,
                                       early_termination)
        self._publish_walk(walk, ~walk.overflow)
        return walk

    def collect_roots(self, graph, dag, roots, members=True):
        """Forward a native leaf collection and publish the calls the
        scalar spine would have made for it."""
        got = self.inner.collect_roots(graph, dag, roots, members)
        self._publish_walk(got, np.ones(len(got.stats), dtype=bool))
        return got

    def _publish_walk(self, walk, ok: np.ndarray) -> None:
        """Count the scalar spine's calls for the ``ok`` roots of a
        native walk, from its exact tallies: one ``alloc_rows`` per
        built root (plus ``load_rows`` when it is non-empty), one
        ``pivot_select`` per interior node and one ``intersect_count``
        per branch vertex."""
        built = walk.built & ok
        interior = (walk.column("calls") - walk.column("leaves")
                    - walk.column("early"))
        self._c_alloc.inc(int(np.count_nonzero(built)))
        self._c_load.inc(
            int(np.count_nonzero(built & (walk.column("d") > 0)))
        )
        self._c_ps.inc(int(interior[ok].sum()))
        self._c_ic.inc(int(walk.column("branch")[ok].sum()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InstrumentedKernel {self.inner!r}>"
