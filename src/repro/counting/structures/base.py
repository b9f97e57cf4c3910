"""Shared machinery for the three subgraph structures.

Building the first-level induced subgraph (Alg. 1 line 5) is identical
for every structure: take the root's DAG out-neighborhood ``out`` (the
subgraph's vertex set), and for each member intersect its *undirected*
neighbor list with ``out`` — the paper symmetrizes the first level
(Sec. V-A) — producing one bitset row per member over local ids
``[0, d)``.  Local id ``i`` is the position of ``out[i]`` in the sorted
out-neighbor array.

Rows are stored by a swappable :class:`~repro.kernels.BitsetKernel`
backend (big-int masks or NumPy word arrays); the ``build_words``
charge is representation-independent, so the perf model cannot tell
backends apart.  Structures differ only in :meth:`RootContext.row` —
how a row is reached during the recursion — and in the modeled
per-thread memory footprint.
"""

from __future__ import annotations

import abc
from typing import Any, Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels import BitsetKernel, resolve_kernel

__all__ = ["SubgraphStructure", "RootContext", "build_local_rows"]

_POW2 = [1 << i for i in range(64)]


def build_local_rows(
    g: CSRGraph, out: np.ndarray, kernel: BitsetKernel | None = None
) -> tuple[Any, float]:
    """Bitset adjacency rows of the subgraph induced by ``out`` on the
    undirected graph ``g``, in ``kernel``'s native storage (big-int
    list for the default ``bigint`` backend).

    Returns ``(rows, build_words)`` where ``build_words`` charges one
    unit per neighbor-list entry scanned during the intersection — the
    real induction work the paper attributes to lines 5/14.
    """
    if kernel is None:
        kernel = resolve_kernel("bigint")
    d = int(out.size)
    rows = kernel.alloc_rows(d)
    if d == 0:
        return rows, 0.0
    # Gather every member's whole neighbor list in one pass (pure
    # indptr arithmetic — no per-row Python loop), intersect with
    # ``out`` via a single batched searchsorted, then hand the hits to
    # the kernel as one CSR-shaped ``load_rows`` call.
    starts = g.indptr[out]
    lens = g.indptr[out + 1] - starts
    total = int(lens.sum())
    build_words = float(total)
    row_counts = np.zeros(d, dtype=np.int64)
    sel = np.zeros(0, dtype=np.int64)
    if total:
        off = np.cumsum(lens) - lens
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(off, lens)
            + np.repeat(starts, lens)
        )
        nbrs_all = g.indices[pos]
        idx = np.searchsorted(out, nbrs_all)
        idx_clipped = np.minimum(idx, d - 1)
        hit = out[idx_clipped] == nbrs_all
        row_of = np.repeat(np.arange(d, dtype=np.int64), lens)
        sel = idx_clipped[hit]
        row_counts = np.bincount(row_of[hit], minlength=d)
    indptr = np.zeros(d + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    kernel.load_rows(rows, indptr, sel)
    return rows, build_words


class RootContext:
    """One root vertex's induced subgraph, ready for the recursion.

    Attributes
    ----------
    d:
        Subgraph size (the root's DAG out-degree).
    out:
        Sorted global ids of the subgraph's vertices; local id ``i``
        names ``out[i]``.
    row:
        Callable ``local id -> big-int bitset row``; the
        structure-specific index path (the compat view every consumer
        can fall back to).
    lookup_weight:
        Cost charged per :attr:`row` access (dense/remap 1.0, hash 1.2).
    memory_bytes:
        Modeled per-thread footprint of this structure while the root
        is being processed (feeds the LLC model).
    build_words:
        Work spent on the first-level induction (plus remap where
        applicable).
    kernel:
        The bitset backend that owns :attr:`rows`.
    rows:
        Backend-native row storage for the fused kernels
        (``intersect_count`` / ``pivot_select``); rows are stored in
        local-id order.  Valid until the owning structure's next
        ``build`` call.
    """

    __slots__ = (
        "d",
        "out",
        "row",
        "lookup_weight",
        "memory_bytes",
        "build_words",
        "kernel",
        "rows",
    )

    def __init__(
        self,
        d: int,
        out: np.ndarray,
        row: Callable[[int], int],
        lookup_weight: float,
        memory_bytes: int,
        build_words: float,
        kernel: BitsetKernel | None = None,
        rows: Any = None,
    ) -> None:
        self.d = d
        self.out = out
        self.row = row
        self.lookup_weight = lookup_weight
        self.memory_bytes = memory_bytes
        self.build_words = build_words
        self.kernel = kernel if kernel is not None else resolve_kernel("bigint")
        self.rows = rows


class SubgraphStructure(abc.ABC):
    """Factory for per-root contexts over a (graph, DAG) pair.

    Instances are meant to be reused across roots — the paper's
    allocation-reuse discipline (Sec. V-B); the dense structure in
    particular allocates its ``|V|``-sized index once, and word-array
    kernels reuse their row buffers the same way.

    Parameters
    ----------
    kernel:
        Bitset backend name or instance (default ``"bigint"``); owns
        the row storage every built context exposes as ``ctx.rows``.
    """

    #: registry name ("dense" / "sparse" / "remap")
    name: str = "base"
    #: cost per index access, relative to a direct array load
    lookup_weight: float = 1.0

    def __init__(
        self,
        graph: CSRGraph,
        dag: CSRGraph,
        kernel: str | BitsetKernel | None = None,
    ) -> None:
        if graph.directed or not dag.directed:
            raise ValueError("expected (undirected graph, DAG) pair")
        if graph.num_vertices != dag.num_vertices:
            raise ValueError("graph and DAG vertex counts differ")
        self.graph = graph
        self.dag = dag
        self.kernel = resolve_kernel(kernel)
        #: prefix sums of undirected degree over the DAG's adjacency
        #: entries (built on the first :meth:`estimate_many`)
        self._degree_sums: np.ndarray | None = None

    @abc.abstractmethod
    def build(self, v: int) -> RootContext:
        """Induce the first-level subgraph for root ``v``."""

    def charges(self, d, words):
        """``(build_words, memory_bytes)`` charged for building a root
        of out-degree ``d`` whose first-level induction scanned
        ``words`` neighbor entries; elementwise when both are arrays.

        :meth:`build` charges exactly this, so :meth:`estimate` can
        predict a build without doing it.  Returns ``None`` when the
        structure cannot predict its build charge exactly.
        """
        return None

    def estimate(self, v: int) -> tuple[int, float, int] | None:
        """Predict ``(d, build_words, memory_bytes)`` of ``build(v)``
        *without* building.

        Engines use this for degree-based candidate pruning (Lonkar &
        Beamer's communication-reducing trick): a root whose
        out-degree already rules out any k-clique is charged exactly
        the counters a real build would have produced and then skipped
        before ``alloc_rows``.  Returns ``None`` when the structure
        cannot predict its build charge exactly — pruning is then
        disabled so counters stay backend- and path-invariant.
        """
        out = self.dag.neighbors(v)
        d = int(out.size)
        words = float(np.sum(self.graph.degrees[out])) if d else 0.0
        charged = self.charges(d, words)
        return None if charged is None else (d, *charged)

    def estimate_many(
        self, roots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """:meth:`estimate` over an int64 array of roots at once, as
        ``(d, build_words, memory_bytes)`` arrays holding exactly the
        values the per-root call returns (``None`` likewise)."""
        if self._degree_sums is None:
            sums = np.zeros(self.dag.indices.size + 1, dtype=np.int64)
            np.cumsum(self.graph.degrees[self.dag.indices], out=sums[1:])
            self._degree_sums = sums
        lo = self.dag.indptr[roots]
        hi = self.dag.indptr[roots + 1]
        d = hi - lo
        words = (self._degree_sums[hi] - self._degree_sums[lo]).astype(
            np.float64
        )
        charged = self.charges(d, words)
        return None if charged is None else (d, *charged)

    def bitset_bytes(self, d: int) -> int:
        """Footprint of the ``d x d`` bitset adjacency itself."""
        words = (d + 63) >> 6
        return d * words * 8
