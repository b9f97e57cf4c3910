"""The SCT (succinct clique tree) pivot recursion — paper Algorithm 1.

For each root vertex ``v`` of the DAG, the engine builds the induced
subgraph over ``v``'s out-neighborhood (symmetrized, per Sec. V-A) and
explores it with Bron-Kerbosch-style pivoting: at every node it picks
the pivot ``p`` maximizing ``|N(p) ∩ P|``, recurses once on ``N(p) ∩ P``
with ``p`` recorded as *optional* (a pivot), and once per non-neighbor
``w`` of ``p`` with ``w`` recorded as *required* (held).  Each leaf
therefore encodes the clique family ``{H ∪ S : S ⊆ Π}`` exactly once,
and contributes ``C(|Π|, k - |H|)`` k-cliques — the reason Pivoter's
cost is independent of ``k``.

Candidate sets are Python big-int bitsets passed down the recursion
(playing the role of the C++ reversible subgraph mutations, see
DESIGN.md); adjacency rows live in a swappable
:mod:`repro.kernels` backend.  The fused ``pivot_select`` and
``intersect_count`` kernels do the work of the paper's word-parallel
set operations — as big-int ``&`` / ``int.bit_count()`` on the default
``bigint`` backend, as vectorized NumPy word-array passes on the
``wordarray`` backend — with identical counts and identical
:class:`~repro.counting.counters.Counters` either way.  On the
``native`` backend a target-k root is not driven node by node at all:
batches of roots go to the compiled walker
(:meth:`~repro.kernels.native.NativeKernel.walk_roots_k`), which builds
and walks each one in C and returns the same counts and tallies.

Implementation subtleties carried over from Sec. V-A:

* early exit when the held set alone reaches ``k`` (one k-clique
  remains in the subtree: the held set itself);
* early termination when ``|H| + |Π| + |P| < k`` (target too far);
* the all-k variant reuses the same tree and charges a whole binomial
  row per leaf.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.counting.binomial import binomial, binomial_row
from repro.counting.counters import Counters
from repro.counting.structures import STRUCTURES, SubgraphStructure
from repro.errors import (
    CheckpointError,
    CountingError,
    KernelFaultError,
    MemoryBudgetExceededError,
)
from repro.graph.csr import CSRGraph
from repro.kernels import BitsetKernel
from repro.ordering.base import Ordering
from repro.ordering.directionalize import directionalize
from repro.runtime.checkpoint import graph_fingerprint
from repro.runtime.controller import RunController

__all__ = [
    "SCTEngine",
    "CountResult",
    "RootBatchResult",
    "count_kcliques",
    "count_all_sizes",
]

#: Roots per native walker call when many roots go to the walker at
#: once.  Per-call overhead is tens of microseconds, amortized at this
#: size; larger batches only grow the per-root result arrays, and on
#: the 100k-root ingest workload 65,536-root batches raised peak RSS by
#: ~5% (malloc keeps the freed multi-megabyte temporaries).
_NATIVE_BATCH = 1 << 12


def _fold_acc(ctr: Counters, acc: list, lookup_weight: float) -> None:
    """Fold one root's hot-path tallies into ``ctr``.

    The recursions count in a plain list (fast item ops) laid out as
    ``[calls, leaves, early exits, scanned vertices, branch vertices,
    max depth, edge work]`` and fold it into the dataclass once per
    root.  Work is charged *edge-granularly* (one unit per adjacency
    entry a set operation touches), the cost the paper's array-based
    implementation actually pays — this is what makes counting work
    sensitive to the ordering's subgraph sizes (Table II / Table III).
    """
    ctr.function_calls += acc[0]
    ctr.leaves += acc[1]
    ctr.early_terminations += acc[2]
    ctr.index_lookups += (acc[3] + acc[4]) * lookup_weight
    ctr.set_op_words += acc[6] + acc[3] + acc[4]
    ctr.max_depth = max(ctr.max_depth, acc[5])


def _fold_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right —
    the order a per-root ``Counters.merge`` loop adds in, so float
    totals stay bit-identical to it (``np.sum`` would add pairwise)."""
    if values.size == 0:
        return start
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def _fold_walk(totals: Counters, walk, words: np.ndarray,
               memory: np.ndarray, lookup_weight: float) -> np.ndarray:
    """Fold a native walk's per-root tallies into ``totals``, as a
    per-root ``Counters.merge`` loop would (float fields added in root
    order), charging each root ``words`` build words and ``memory``
    bytes; returns each root's work units."""
    col = walk.column
    scan_branch = col("scan") + col("branch")
    set_op = (col("edge") + scan_branch).astype(np.float64)
    lookups = scan_branch * lookup_weight
    totals.function_calls += int(col("calls").sum())
    totals.leaves += int(col("leaves").sum())
    totals.set_op_words = _fold_sum(totals.set_op_words, set_op)
    totals.index_lookups = _fold_sum(totals.index_lookups, lookups)
    totals.subgraph_builds += int(set_op.size)
    totals.build_words = _fold_sum(totals.build_words, words)
    totals.early_terminations += int(col("early").sum())
    if set_op.size:
        totals.max_depth = max(totals.max_depth, int(col("depth").max()))
        totals.peak_subgraph_bytes = max(
            totals.peak_subgraph_bytes, int(memory.max())
        )
    return set_op + lookups + words


@dataclass
class CountResult:
    """Outcome of one counting run.

    Attributes
    ----------
    count:
        Number of k-cliques (exact Python int) for target-k runs;
        ``None`` for all-k runs.
    all_counts:
        For all-k runs, ``all_counts[s]`` is the number of s-cliques,
        ``s = 0 .. max clique size`` (trailing zeros trimmed).
    k:
        The target clique size (``None`` for all-k).
    counters:
        Aggregated instrumentation for the whole run.
    per_root_work:
        Work units per root vertex — the task sizes the parallel
        scheduler model distributes across threads.
    per_root_memory:
        Modeled per-root subgraph footprint in bytes (peak drives the
        cache model).
    structure:
        Name of the subgraph structure used.
    kernel:
        Name of the bitset-kernel backend used (the backend the run
        *finished* on — see ``degraded_from``).
    approximate:
        True when budget exhaustion degraded the run to sampling:
        ``count`` / ``all_counts`` then mix exact per-root counts with
        an unbiased estimate for the remaining roots and are floats.
    degraded_from:
        What the run degraded away from, or ``None`` for a clean run:
        a kernel name (mid-run wordarray→bigint fallback) and/or
        ``"exact"`` (budget exhaustion → sampling), comma-joined when
        both happened.
    """

    count: int | float | None
    all_counts: list[int] | list[float] | None
    k: int | None
    counters: Counters
    per_root_work: np.ndarray
    per_root_memory: np.ndarray
    structure: str
    kernel: str = "bigint"
    approximate: bool = False
    degraded_from: str | None = None

    @property
    def max_clique_size(self) -> int:
        """Largest clique size observed (all-k runs only)."""
        if self.all_counts is None:
            raise CountingError("max_clique_size requires an all-k run")
        return len(self.all_counts) - 1


@dataclass
class RootBatchResult:
    """Outcome of counting one batch of root vertices — the parallel
    runtime's chunk result (see :meth:`SCTEngine.count_roots`).

    ``per_root_work`` / ``per_root_memory`` are aligned with ``roots``
    (entry ``i`` belongs to ``roots[i]``), not indexed by vertex id, so
    a chunk result stays compact regardless of which roots it covers.
    For target-k batches ``count`` holds the partial total and
    ``all_counts`` is ``None``; for all-k batches ``all_counts`` is an
    *untrimmed* row of the caller-specified length (parents fold rows
    from many chunks and trim once at the end), and ``count`` is 0.
    """

    roots: list[int]
    count: int
    all_counts: list[int] | None
    counters: Counters
    per_root_work: list[float]
    per_root_memory: list[float]
    degraded_from: str | None = None


class SCTEngine:
    """Pivoting clique counter over a (graph, ordering-or-DAG) pair.

    Parameters
    ----------
    graph:
        The undirected input graph.
    ordering:
        An :class:`~repro.ordering.base.Ordering`, a rank array, or an
        already-directionalized DAG.
    structure:
        Subgraph structure name (``"remap"`` default) or an instance.
    kernel:
        Bitset-kernel backend name or instance (``"bigint"`` default,
        ``"wordarray"`` for the NumPy fast path).  Ignored when
        ``structure`` is an already-built instance (the instance's
        kernel wins).
    """

    def __init__(
        self,
        graph: CSRGraph,
        ordering: Ordering | np.ndarray | CSRGraph,
        structure: str | SubgraphStructure = "remap",
        kernel: str | BitsetKernel | None = None,
    ) -> None:
        if graph.directed:
            raise CountingError("input graph must be undirected")
        if isinstance(ordering, CSRGraph):
            if not ordering.directed:
                raise CountingError("pass a DAG or an ordering, not a 2nd graph")
            dag = ordering
        else:
            dag = directionalize(graph, ordering)
        self.graph = graph
        self.dag = dag
        if isinstance(structure, SubgraphStructure):
            self.structure = structure
        else:
            try:
                self.structure = STRUCTURES[structure](graph, dag, kernel=kernel)
            except KeyError:
                raise CountingError(
                    f"unknown structure {structure!r}; "
                    f"expected one of {sorted(STRUCTURES)}"
                ) from None
        self.kernel = self.structure.kernel

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def count(
        self,
        k: int,
        *,
        early_termination: bool = True,
        controller: RunController | None = None,
    ) -> CountResult:
        """Count k-cliques exactly.

        ``early_termination`` toggles the Sec. V-A reach prune
        (``|H| + |Π| + |P| < k``); disabling it reproduces the ablation
        in ``benchmarks/bench_ablation.py``.  Counts are identical
        either way — only the tree size changes.

        ``controller`` attaches a :class:`~repro.runtime.RunController`
        for budgets, checkpoint/resume, and fault handling, checked at
        root-vertex granularity.
        """
        if k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        return self._run(
            k=k, early_termination=early_termination, controller=controller
        )

    def count_all(
        self,
        max_k: int | None = None,
        *,
        controller: RunController | None = None,
    ) -> CountResult:
        """Count cliques of *every* size up to ``max_k`` (default: all).

        This is the "modest amount of additional work" variant the
        paper describes in Sec. V-A: the same tree, with a binomial
        row instead of a single coefficient per leaf.
        """
        return self._run(k=None, max_k=max_k, controller=controller)

    def forest(
        self,
        *,
        controller: RunController | None = None,
        members: bool = True,
        cache: bool = True,
    ):
        """Build (or fetch from the in-process cache) the materialized
        :class:`~repro.counting.forest.SCTForest` for this engine's
        (graph, DAG, structure, kernel).

        One full pivot traversal up front; every subsequent
        ``count(k)`` / ``count_all`` / ``per_vertex`` / ``per_edge`` /
        ``sample_cliques`` query is an array fold over the recorded
        leaves — the fast path when a graph is queried more than once.
        """
        from repro.counting.forest import get_forest

        return get_forest(
            self.graph,
            self.dag,
            self.structure.name,
            self.kernel.name,
            controller=controller,
            members=members,
            cache=cache,
        )

    def count_root(self, v: int, k: int) -> int:
        """Exact k-clique count of the cliques rooted at ``v`` — the
        per-root task unit (used by the root-sampling degradation
        estimator)."""
        return self._count_root_k(v, k, Counters())

    def count_root_all(self, v: int, max_k: int | None = None) -> list[int]:
        """Per-size clique counts rooted at ``v`` (all-k task unit)."""
        length, cap = self._allk_shape(max_k)
        return self._count_root_all(v, cap, length, Counters())

    def count_roots(
        self,
        roots,
        k: int | None = None,
        *,
        max_k: int | None = None,
        controller: RunController | None = None,
        early_termination: bool = True,
    ) -> RootBatchResult:
        """Count the cliques rooted at each vertex in ``roots`` — the
        public batch entry point the parallel workers run per chunk.

        Unlike the throwaway :meth:`count_root`, this path honors the
        full per-root cooperation protocol: obs spans/metrics, budget
        ticks, memory watermarks, and the kernel-fault degradation rung
        (``wordarray`` → ``bigint`` mid-batch when ``controller.degrade``
        is set).  ``k=None`` produces the all-k row (untrimmed, of the
        :meth:`_allk_shape` length for ``max_k``) so chunk rows from
        different workers fold elementwise.

        An already-:meth:`~repro.runtime.RunController.begin`-started
        controller is used as-is (the parent began the run; workers and
        the fold loop just meter against it); a fresh controller is
        begun here with a batch descriptor and no snapshot provider —
        checkpointing a batch is the *caller's* job, since only the
        caller knows how chunks map onto the whole run.
        """
        roots = [int(v) for v in roots]
        if k is not None and k < 1:
            raise CountingError(f"clique size k must be >= 1, got {k}")
        n = self.graph.num_vertices
        for v in roots:
            if not 0 <= v < n:
                raise CountingError(f"root vertex {v} out of range [0, {n})")
        ctl = controller
        totals = Counters()
        per_root_work: list[float] = []
        per_root_memory: list[float] = []
        all_counts: list[int] | None = None
        length = cap = 0
        if k is None:
            length, cap = self._allk_shape(max_k)
            all_counts = [0] * length
        total = 0
        done = 0
        degraded_from: str | None = None

        if ctl is not None and not ctl.started:
            ctl.begin(self._descriptor(k, max_k) | {"batch": True})

        def run_root(v: int) -> tuple[Counters, int, list[int] | None]:
            ctr = Counters()
            if k is None:
                return ctr, 0, self._count_root_all(v, cap, length, ctr)
            return ctr, self._count_root_k(v, k, ctr, early_termination), None

        try:
            with obs.span(
                "sct.count_roots",
                roots=len(roots),
                **self._span_attrs(k, max_k),
            ), obs.phase("counting"):
                if ctl is None and k is not None and self._walks_natively():
                    work = np.empty(len(roots), dtype=np.float64)
                    memory = np.empty(len(roots), dtype=np.float64)
                    total = self._walk_roots(
                        np.asarray(roots, dtype=np.int64), k,
                        early_termination, totals, work, memory,
                    )
                    per_root_work = work.tolist()
                    per_root_memory = memory.tolist()
                    obs.note_memory(totals.peak_subgraph_bytes)
                    done = len(roots)
                else:
                    for v in roots:
                        if ctl is None:
                            ctr, delta, local = run_root(v)
                        else:
                            try:
                                ctl.tick()
                                ctr, delta, local = run_root(v)
                            except MemoryError as exc:
                                raise MemoryBudgetExceededError(
                                    f"allocation failure at root {v}",
                                    spent=ctl.spent_snapshot(),
                                ) from exc
                            except KernelFaultError:
                                if (
                                    not ctl.degrade
                                    or self.kernel.name == "bigint"
                                ):
                                    raise
                                fallen = self._fallback_to_bigint()
                                obs.degradation(
                                    "kernel_fallback", engine="sct", root=v,
                                    from_kernel=fallen,
                                )
                                if degraded_from is None:
                                    degraded_from = fallen
                                ctr, delta, local = run_root(v)
                            ctl.charge_nodes(ctr.function_calls)
                            ctl.note_memory(ctr.peak_subgraph_bytes)
                        if local is not None:
                            for s in range(length):
                                if local[s]:
                                    all_counts[s] += local[s]
                        else:
                            total += delta
                        per_root_work.append(ctr.work)
                        per_root_memory.append(float(ctr.peak_subgraph_bytes))
                        totals.merge(ctr)
                        obs.note_memory(ctr.peak_subgraph_bytes)
                        done += 1
                        if ctl is not None:
                            ctl.complete_root(v)
        finally:
            obs.record_run(
                totals, engine="sct", structure=self.structure.name,
                kernel=self.kernel.name, roots=done,
            )

        return RootBatchResult(
            roots=roots,
            count=total,
            all_counts=all_counts,
            counters=totals,
            per_root_work=per_root_work,
            per_root_memory=per_root_memory,
            degraded_from=degraded_from,
        )

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _allk_shape(self, max_k: int | None) -> tuple[int, int]:
        """(length of the counts row, exclusive size cap) for all-k.

        Largest possible clique = max out-degree + 1 (root + subgraph).
        """
        size_cap = self.dag.max_degree + 2
        if max_k is not None:
            size_cap = min(size_cap, max_k + 1)
        length = max(size_cap, 2)
        cap = length if max_k is None else max_k + 1
        return length, cap

    def _descriptor(self, k: int | None, max_k: int | None) -> dict:
        """Checkpoint identity: resuming against anything else fails."""
        return {
            "engine": "sct",
            "k": k,
            "max_k": max_k,
            "structure": self.structure.name,
            "kernel": self.kernel.name,
            "graph_fingerprint": graph_fingerprint(self.graph),
            "dag_fingerprint": graph_fingerprint(self.dag),
        }

    def _span_attrs(self, k: int | None, max_k: int | None) -> dict:
        """Trace attributes for one run span (fingerprint only computed
        when a tracer will actually record it)."""
        attrs = {
            "engine": "sct",
            "structure": self.structure.name,
            "kernel": self.kernel.name,
        }
        if k is not None:
            attrs["k"] = k
        if max_k is not None:
            attrs["max_k"] = max_k
        if obs.get_tracer().enabled:
            attrs["graph"] = graph_fingerprint(self.graph)
        return attrs

    def _fallback_to_bigint(self) -> str:
        """Kernel-fault rung of the degradation ladder: rebuild the
        structure on the ``bigint`` reference backend.  Returns the
        name of the backend abandoned.  Counters are backend-invariant,
        so the re-verified root and every later root are bit-identical
        to an unfaulted run."""
        old = self.kernel.name
        self.structure = type(self.structure)(
            self.graph, self.dag, kernel="bigint"
        )
        self.kernel = self.structure.kernel
        return old

    def _run(
        self,
        k: int | None,
        max_k: int | None = None,
        early_termination: bool = True,
        controller: RunController | None = None,
    ) -> CountResult:
        ctl = controller
        n = self.graph.num_vertices
        totals = Counters()
        per_root_work = np.zeros(n, dtype=np.float64)
        per_root_memory = np.zeros(n, dtype=np.float64)
        all_counts: list[int] | None = None
        length = cap = 0
        if k is None:
            length, cap = self._allk_shape(max_k)
            all_counts = [0] * length
        total = 0
        start = 0
        done = 0
        degraded_from: str | None = None

        if ctl is not None:
            # Zero-argument state provider: invoked only at actual save
            # points, always at a root boundary (roots fold atomically,
            # so the snapshot is consistent by construction).
            def snapshot() -> dict:
                return {
                    "next_root": done,
                    "total": total,
                    "all_counts": (
                        None if all_counts is None else list(all_counts)
                    ),
                    "counters": totals.as_dict(),
                    "per_root_work": per_root_work[:done].tolist(),
                    "per_root_memory": per_root_memory[:done].tolist(),
                    "degraded_from": degraded_from,
                }

            state = ctl.begin(self._descriptor(k, max_k), snapshot)
            if state is not None:
                start = done = int(state["next_root"])
                total = state["total"]
                if all_counts is not None:
                    stored = state.get("all_counts")
                    if stored is None or len(stored) != length:
                        raise CheckpointError(
                            "checkpoint all_counts row does not match "
                            "this run's clique-size cap"
                        )
                    all_counts = [int(c) for c in stored]
                totals = Counters.from_dict(state["counters"])
                per_root_work[:start] = state["per_root_work"]
                per_root_memory[:start] = state["per_root_memory"]
                degraded_from = state.get("degraded_from")

        def run_root(v: int) -> tuple[Counters, int, list[int] | None]:
            ctr = Counters()
            if k is None:
                return ctr, 0, self._count_root_all(v, cap, length, ctr)
            return ctr, self._count_root_k(v, k, ctr, early_termination), None

        # Span + metrics wrap the whole root loop; the `finally` still
        # publishes partial totals when a budget abort unwinds mid-run.
        try:
            with obs.span(
                "sct.count" if k is not None else "sct.count_all",
                **self._span_attrs(k, max_k),
            ), obs.phase("counting"), (
                ctl.guard() if ctl is not None else nullcontext()
            ):
                if ctl is None and k is not None and self._walks_natively():
                    total = self._walk_roots(
                        np.arange(start, n, dtype=np.int64), k,
                        early_termination, totals,
                        per_root_work[start:], per_root_memory[start:],
                    )
                    obs.note_memory(totals.peak_subgraph_bytes)
                    done = n
                else:
                    for v in range(start, n):
                        if ctl is None:
                            ctr, delta, local = run_root(v)
                        else:
                            # Budget/fault checks all happen BEFORE the root
                            # is folded into the totals: a root is all-in or
                            # not-at-all, which keeps checkpoints consistent.
                            try:
                                ctl.tick()
                                ctr, delta, local = run_root(v)
                            except MemoryError as exc:
                                raise MemoryBudgetExceededError(
                                    f"allocation failure at root {v}",
                                    spent=ctl.spent_snapshot(),
                                ) from exc
                            except KernelFaultError:
                                if (
                                    not ctl.degrade
                                    or self.kernel.name == "bigint"
                                ):
                                    raise
                                fallen = self._fallback_to_bigint()
                                obs.degradation(
                                    "kernel_fallback", engine="sct", root=v,
                                    from_kernel=fallen,
                                )
                                if degraded_from is None:
                                    degraded_from = fallen
                                ctr, delta, local = run_root(v)
                            ctl.charge_nodes(ctr.function_calls)
                            ctl.note_memory(ctr.peak_subgraph_bytes)
                        if local is not None:
                            for s in range(length):
                                if local[s]:
                                    all_counts[s] += local[s]
                        else:
                            total += delta
                        per_root_work[v] = ctr.work
                        per_root_memory[v] = ctr.peak_subgraph_bytes
                        totals.merge(ctr)
                        obs.note_memory(ctr.peak_subgraph_bytes)
                        done = v + 1
                        if ctl is not None:
                            ctl.complete_root(v)
        finally:
            obs.record_run(
                totals, engine="sct", structure=self.structure.name,
                kernel=self.kernel.name, roots=done - start,
            )

        if all_counts is not None:
            while len(all_counts) > 1 and all_counts[-1] == 0:
                all_counts.pop()
        return CountResult(
            count=None if k is None else total,
            all_counts=all_counts,
            k=k,
            counters=totals,
            per_root_work=per_root_work,
            per_root_memory=per_root_memory,
            structure=self.structure.name,
            kernel=self.kernel.name,
            degraded_from=degraded_from,
        )

    # ------------------------------------------------------------------
    # per-root recursions
    # ------------------------------------------------------------------
    def _walks_natively(self) -> bool:
        """Whether target-k roots go to the kernel's native walker: it
        needs the walker, and a structure whose build charge it can
        predict (the walker builds in C; the charge is computed)."""
        return (
            self.kernel.walks_roots
            and self.structure.charges(0, 0.0) is not None
        )

    def _walk_roots(
        self,
        roots: np.ndarray,
        k: int,
        early_termination: bool,
        totals: Counters,
        work: np.ndarray,
        memory: np.ndarray,
    ) -> int:
        """Count the k-cliques rooted at ``roots`` (int64) with the
        kernel's native walker; returns their total.

        Each root's counters are those :meth:`_count_root_k` charges,
        folded into ``totals`` in root order with the same float
        summation order as the per-root loop; ``work`` and ``memory``
        receive each root's work units and footprint, aligned with
        ``roots``.  A root whose count does not fit in 128 bits is
        recounted by :meth:`_count_root_k`.
        """
        total = 0
        for lo in range(0, roots.size, _NATIVE_BATCH):
            batch = roots[lo:lo + _NATIVE_BATCH]
            hi = lo + batch.size
            _, words, mem = self.structure.estimate_many(batch)
            walk = self.kernel.walk_roots_k(
                self.graph, self.dag, batch, k, early_termination
            )
            work[lo:hi] = _fold_walk(
                totals, walk, words, mem, self.structure.lookup_weight
            )
            memory[lo:hi] = mem
            total += walk.total()
            for i in np.flatnonzero(walk.overflow):
                total += self._count_root_k(
                    int(batch[i]), k, Counters(), early_termination
                )
        return total

    def _count_root_k(
        self, v: int, k: int, ctr: Counters, early_termination: bool = True
    ) -> int:
        est = None
        if early_termination and k > 1:
            # Degree-based candidate pruning (Lonkar & Beamer): when the
            # out-degree already caps the largest possible clique below
            # k, skip the build entirely — but charge *exactly* the
            # counters the built-and-immediately-terminated root would
            # have produced, so work totals stay path-invariant.
            est = self.structure.estimate(v)
            if est is not None:
                d_est, est_words, est_bytes = est
                if d_est > 0 and 1 + d_est < k:
                    ctr.subgraph_builds += 1
                    ctr.build_words += est_words
                    ctr.peak_subgraph_bytes = max(
                        ctr.peak_subgraph_bytes, est_bytes
                    )
                    ctr.function_calls += 1
                    ctr.early_terminations += 1
                    return 0
        result = None
        if self._walks_natively():
            walk = self.kernel.walk_roots_k(
                self.graph, self.dag, np.array([v], dtype=np.int64), k,
                early_termination,
            )
            # A count past 128 bits (None) is redone by the Python walker.
            result, acc = walk.root(0)
        if result is not None:
            _, build_words, memory = est or self.structure.estimate(v)
            lw = self.structure.lookup_weight
        else:
            ctx = self.structure.build(v)
            build_words, memory = ctx.build_words, ctx.memory_bytes
            lw = ctx.lookup_weight
            acc = [0, 0, 0, 0, 0, 0, 0]
            rec = self._make_rec_k(ctx, k, acc, early_termination)
            result = rec((1 << ctx.d) - 1, ctx.d, 1, 0)
        ctr.subgraph_builds += 1
        ctr.build_words += build_words
        ctr.peak_subgraph_bytes = max(ctr.peak_subgraph_bytes, memory)
        _fold_acc(ctr, acc, lw)
        return result

    def _make_rec_k(self, ctx, k: int, acc: list, early_termination: bool):
        """The scalar (per-node, big-int-mask) target-k recursion,
        built as a closure over one root's context."""
        rows = ctx.rows
        kern = ctx.kernel
        pivot_select = kern.pivot_select
        intersect_count = kern.intersect_count
        binom = binomial

        def rec(P: int, pc: int, held: int, pivots: int) -> int:
            acc[0] += 1
            if held == k:
                # Exactly one k-clique remains below: the held set.
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                return 1
            if pc == 0:
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                return binom(pivots, k - held)
            if early_termination and held + pivots + pc < k:
                acc[2] += 1
                return 0
            # Pivot selection: one fused scan over the candidates' rows.
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            total = rec(best_row, best_cnt, held, pivots + 1)
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                child, cc = intersect_count(rows, low.bit_length() - 1, P)
                edge_sum += cc
                total += rec(child, cc, held1, pivots)
                P ^= low
                cand ^= low
            acc[6] += edge_sum
            return total

        return rec

    def _count_root_all(
        self, v: int, cap: int, length: int, ctr: Counters
    ) -> list[int]:
        """Per-size counts for one root, as a fresh ``length``-long row.

        Writing into a local row (folded by the caller *after* budget
        checks pass) keeps the shared distribution consistent if the
        controller aborts the run on this root.
        """
        counts = [0] * length
        ctx = self.structure.build(v)
        ctr.subgraph_builds += 1
        ctr.build_words += ctx.build_words
        ctr.peak_subgraph_bytes = max(ctr.peak_subgraph_bytes, ctx.memory_bytes)
        acc = [0, 0, 0, 0, 0, 0, 0]
        rec = self._make_rec_all(ctx, cap, counts, acc)
        rec((1 << ctx.d) - 1, ctx.d, 1, 0)
        _fold_acc(ctr, acc, ctx.lookup_weight)
        return counts

    def _make_rec_all(self, ctx, cap: int, counts: list, acc: list):
        """The scalar all-k recursion closure (see
        :meth:`_make_rec_k`)."""
        rows = ctx.rows
        kern = ctx.kernel
        pivot_select = kern.pivot_select
        intersect_count = kern.intersect_count

        def rec(P: int, pc: int, held: int, pivots: int) -> None:
            acc[0] += 1
            if held >= cap:
                acc[2] += 1
                return
            if pc == 0:
                acc[1] += 1
                depth = held + pivots
                if depth > acc[5]:
                    acc[5] = depth
                brow = binomial_row(pivots)
                hi = min(held + pivots + 1, cap)
                for s in range(held, hi):
                    counts[s] += brow[s - held]
                return
            acc[3] += pc
            best, best_row, best_cnt, edge_sum = pivot_select(rows, P, pc)
            rec(best_row, best_cnt, held, pivots + 1)
            P &= ~(1 << best)
            cand = P & ~best_row
            acc[4] += cand.bit_count()
            held1 = held + 1
            while cand:
                low = cand & -cand
                child, cc = intersect_count(rows, low.bit_length() - 1, P)
                edge_sum += cc
                rec(child, cc, held1, pivots)
                P ^= low
                cand ^= low
            acc[6] += edge_sum

        return rec


# ----------------------------------------------------------------------
# convenience wrappers
# ----------------------------------------------------------------------
def count_kcliques(
    graph: CSRGraph,
    k: int,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    kernel: str | BitsetKernel | None = None,
    controller: "RunController | None" = None,
) -> CountResult:
    """Count k-cliques of ``graph`` under ``ordering`` — one-shot API."""
    return SCTEngine(graph, ordering, structure, kernel=kernel).count(
        k, controller=controller
    )


def count_all_sizes(
    graph: CSRGraph,
    ordering: Ordering | np.ndarray | CSRGraph,
    structure: str = "remap",
    max_k: int | None = None,
    kernel: str | BitsetKernel | None = None,
    controller: "RunController | None" = None,
) -> CountResult:
    """Count cliques of every size (Fig. 1's distribution) — one-shot."""
    return SCTEngine(graph, ordering, structure, kernel=kernel).count_all(
        max_k=max_k, controller=controller
    )
