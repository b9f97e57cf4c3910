"""The four benchmark workloads.

Each workload is a single-process closed loop: one operation at a time,
no extra threads or processes.  Its seed picks every input (analog
relabelling, the ingest graph, the edit stream); the program sees only
the generated inputs.  A workload

* ``build()``s its graphs (timed, repeatedly, as set-up),
* ``prepare()``s what the benchmark needs but does not time (files,
  edit streams, reference counts),
* runs ``run_pass(ledger, tally)``: the timed operations, each checked
  against a reference outside its timed region.

With a disabled :class:`~ledger.Ledger` a pass calls the public API
(``count_cliques``, ``SCTForest.apply_edits`` ...).  With an enabled
one it calls the same layers one public function at a time, under
spans, and interposes timers on the per-root structure calls and on the
edit pipeline.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import PivotScaleConfig, count_cliques, obs
from repro.counting import dynamic
from repro.counting.counters import Counters
from repro.counting.forest import collect_root_leaves, get_forest
from repro.counting.pervertex import per_vertex_counts
from repro.counting.sct import CountResult, SCTEngine
from repro.counting.structures import STRUCTURES
from repro.datasets import get_spec
from repro.graph import CSRGraph, from_edge_array
from repro.graph.generators import (
    chung_lu,
    overlay,
    planted_cliques,
    power_law_degrees,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs import MetricsRegistry
from repro.ordering import (
    compute_ordering,
    core_ordering,
    directionalize,
    select_ordering,
)
from repro.parallel.simulate import simulate_counting, simulate_ordering
from repro.perfmodel.cost import CostModel

from ledger import Ledger

__all__ = [
    "Tally",
    "CountSweep",
    "IngestSparse",
    "ForestStream",
    "WORKLOADS",
    "make_workload",
    "reference_counts",
    "traced_count",
]

#: Roots per ``SCTEngine.count_roots`` call in the traced run.
ROOT_CHUNK = 256

#: The seven analogs of the Table V sweep (LiveJournal has its own
#: workload) and its clique sizes.
TABLE5_ANALOGS = ("dblp", "skitter", "baidu", "wikitalk", "orkut",
                  "webedu", "friendster")
TABLE5_KS = (6, 9, 13)


def reference_counts() -> dict[str, dict[int, int]]:
    """Committed k-clique counts of the analogs (relabel-invariant)."""
    path = Path(__file__).with_name("reference_counts.json")
    raw = json.loads(path.read_text(encoding="utf-8"))
    return {name: {int(k): int(c) for k, c in ks.items()}
            for name, ks in raw.items()}


def relabelled(g: CSRGraph, rng: np.random.Generator) -> CSRGraph:
    """``g`` with vertex ids permuted by ``rng``."""
    perm = rng.permutation(g.num_vertices)
    return from_edge_array(perm[g.edge_array()], num_vertices=g.num_vertices)


@contextmanager
def untallied() -> Iterator[None]:
    """Run replay probes with metrics off, so they add no counts."""
    prev = obs.set_registry(MetricsRegistry(enabled=False))
    try:
        yield
    finally:
        obs.set_registry(prev)


@dataclass
class Tally:
    """Operations attempted and failed, and per-kind latency samples."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Exact facts a traced pass learns outside the registry.
    facts: dict[str, float] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def fact_max(self, name: str, value: float) -> None:
        self.facts[name] = max(self.facts.get(name, 0), value)

    def fact_add(self, name: str, value: float) -> None:
        self.facts[name] = self.facts.get(name, 0) + value

    def attempt(self, led: Ledger, label: str, fn: Callable[[], object],
                expect: object) -> object:
        """Time ``fn`` as one operation; count it failed if it raises
        or returns something other than ``expect``."""
        self.attempted += 1
        try:
            with led.operation():
                got = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{label}: raised {exc!r}")
            return None
        if got != expect:
            self.fail(f"{label}: got {got!r}, expected {expect!r}")
        return got


# ----------------------------------------------------------------------
# the count pipeline, one layer at a time
# ----------------------------------------------------------------------
def traced_count(led: Ledger, g: CSRGraph, k: int, cfg: PivotScaleConfig,
                 tally: Tally) -> int:
    """``count_cliques(g, k, cfg)`` for a serial run without budgets,
    as the sequence of public layer calls it makes, under spans.

    The SCT layer runs as ``SCTEngine.count_roots`` over root chunks;
    the engine's structure has its ``estimate`` and ``build`` timed per
    root, so recursion time is ``count_roots`` minus both.
    """
    eff = cfg.effective_num_vertices
    with led.span("ordering.heuristic"):
        decision = select_ordering(g, cfg.heuristic,
                                   effective_num_vertices=eff)
    with led.span("ordering.order"):
        ordering = compute_ordering(g, decision, cfg.heuristic)
    with led.span("ordering.directionalize"):
        dag = directionalize(g, ordering)
    tally.fact_max("dag_max_out_degree", dag.max_degree)
    engine = SCTEngine(g, dag, structure=cfg.structure, kernel=cfg.kernel)
    n = g.num_vertices
    total = 0
    counters = Counters()
    work = np.zeros(n, dtype=np.float64)
    memory = np.zeros(n, dtype=np.float64)

    def pruned(est) -> float:  # the engine's degree-pruning rule
        return float(est is not None and est[0] > 0 and 1 + est[0] < k)

    st = engine.structure
    with led.interpose(st, "estimate", "structures.estimate",
                       aggregate=True, weigh=pruned), \
            led.interpose(st, "build", "structures.build", aggregate=True,
                          weigh=lambda ctx: ctx.build_words):
        for lo in range(0, n, ROOT_CHUNK):
            hi = min(n, lo + ROOT_CHUNK)
            with led.span("sct.count_roots"):
                batch = engine.count_roots(range(lo, hi), k)
            total += batch.count
            counters.merge(batch.counters)
            work[lo:hi] = batch.per_root_work
            memory[lo:hi] = batch.per_root_memory

    counting = CountResult(
        count=total, all_counts=None, k=k, counters=counters,
        per_root_work=work, per_root_memory=memory,
        structure=engine.structure.name, kernel=engine.kernel.name,
    )
    eff_nv = eff or float(n)
    work_scale = eff_nv / max(1.0, float(n))
    with led.span("perfmodel.simulate"):
        simulate_counting(
            counting, threads=cfg.threads, machine=cfg.machine,
            scheduler=cfg.scheduler, effective_num_vertices=eff_nv,
            max_out_degree=dag.max_degree, work_scale=work_scale,
        )
        simulate_ordering(ordering.cost, threads=cfg.threads,
                          machine=cfg.machine, work_scale=work_scale)
        hub_work = float(2 * g.max_degree + n / cfg.threads)
        CostModel(cfg.machine).estimate_rounds(
            (hub_work,), 0.0, threads=cfg.threads
        )
    return total


def _count(led: Ledger, g: CSRGraph, k: int, cfg: PivotScaleConfig,
           tally: Tally) -> int:
    if led.enabled:
        return traced_count(led, g, k, cfg, tally)
    return count_cliques(g, k, cfg).count


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class CountSweep:
    """``count_cliques`` over (analog, k) cases, ids permuted by the
    seed, each count checked against the committed reference."""

    def __init__(self, name: str, cases: Sequence[tuple[str, int]],
                 seed: int, *, references=None):
        self.name = name
        self.cases = list(cases)
        self.seed = seed
        self.analogs = list(dict.fromkeys(ds for ds, _ in self.cases))
        self.references = references or reference_counts()
        self.configs = {
            ds: PivotScaleConfig(
                effective_num_vertices=get_spec(ds).effective_num_vertices
            )
            for ds in self.analogs
        }
        self.graphs: dict[str, CSRGraph] = {}

    def build(self) -> None:
        self.graphs = {
            ds: relabelled(get_spec(ds).builder(),
                           np.random.default_rng([self.seed, i]))
            for i, ds in enumerate(self.analogs)
        }

    def prepare(self, workdir: Path) -> None:
        pass

    def run_pass(self, led: Ledger, tally: Tally) -> None:
        for ds, k in self.cases:
            g, cfg = self.graphs[ds], self.configs[ds]
            tally.attempt(
                led, f"{ds} k={k}",
                lambda: _count(led, g, k, cfg, tally),
                self.references[ds][k],
            )


class IngestSparse:
    """``read_edge_list`` of a seeded power-law graph with planted
    cliques, then ``count_cliques`` at ``k``; checked against a count of
    the in-memory graph the file was written from."""

    #: Power-law exponent of the Chung-Lu expected degrees.
    EXPONENT = 2.3

    def __init__(self, seed: int, *, n: int = 100_000,
                 min_degree: float = 2.45,
                 cliques: Sequence[int] = (12,) * 10 + (9,) * 20,
                 k: int = 8, name: str = "ingest_sparse"):
        self.name = name
        self.seed = seed
        self.n, self.min_degree = n, min_degree
        self.cliques = list(cliques)
        self.k = k
        self.config = PivotScaleConfig()
        self.graph: CSRGraph | None = None
        self.path: Path | None = None
        self.expect: int | None = None
        self.file_mb = 0.0

    def build(self) -> None:
        n = self.n
        w = power_law_degrees(n, self.EXPONENT, self.min_degree,
                              seed=self.seed)
        background = chung_lu(w, seed=self.seed + 1).edge_array()
        # Plant into a bounded pool: the planter's per-clique set
        # difference is linear in the pool size.
        pool = np.arange(min(n, 20_000), dtype=np.int64)
        planted = planted_cliques(n, self.cliques, seed=self.seed + 2,
                                  overlap=0.1, pool=pool)
        self.graph = overlay(n, background, planted)

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{self.name}-seed{self.seed}.txt"
        write_edge_list(self.graph, self.path)
        self.file_mb = self.path.stat().st_size / 1e6
        self.expect = count_cliques(self.graph, self.k, self.config).count

    def _op(self, led: Ledger, tally: Tally) -> int:
        with led.span("graph.read") as read:
            g = read_edge_list(self.path)
        tally.sample("read", read.duration)
        return _count(led, g, self.k, self.config, tally)

    def run_pass(self, led: Ledger, tally: Tally) -> None:
        tally.attempt(led, f"ingest k={self.k}",
                      lambda: self._op(led, tally), self.expect)


class ForestStream:
    """An ``SCTForest`` on an analog, then a seeded stream of edit
    batches, each followed by one read (``count`` + ``per_vertex``).

    Every pass rebuilds the forest and replays the same stream.  The
    first pass checks the forest against a fresh ``count_cliques`` and
    a fresh ``per_vertex_counts`` of ``forest.graph`` at a few points;
    later passes must reproduce the first pass's answers batch by
    batch.  All checks run outside the timed operations.
    """

    #: Edits per batch, and the clique size every read asks for.
    INSERTS = 2
    DELETES = 2
    K = 6

    def __init__(self, seed: int, *, analog: str = "skitter",
                 batches: int = 200, checks: int = 4,
                 name: str = "forest_stream"):
        self.name = name
        self.seed = seed
        self.analog = analog
        self.num_batches = batches
        self.check_at = set(np.linspace(0, batches, checks).astype(int))
        self.graph: CSRGraph | None = None
        self.stream: list[list[tuple[str, int, int]]] = []
        self.answers: list[tuple[int, int]] | None = None

    def build(self) -> None:
        self.graph = relabelled(get_spec(self.analog).builder(),
                                np.random.default_rng([self.seed, 0]))

    def prepare(self, workdir: Path) -> None:
        """Draw the edit stream: uniform random non-edges to insert,
        uniform random present edges to delete."""
        rng = np.random.default_rng([self.seed, 1])
        n = self.graph.num_vertices
        edges = [(int(u), int(v)) for u, v in self.graph.edge_array()]
        present = set(edges)
        self.stream = []
        for _ in range(self.num_batches):
            batch = []
            for _ in range(self.INSERTS):
                while True:
                    u, v = sorted(int(x) for x in rng.integers(0, n, 2))
                    if u != v and (u, v) not in present:
                        break
                present.add((u, v))
                edges.append((u, v))
                batch.append(("+", u, v))
            for _ in range(self.DELETES):
                i = int(rng.integers(len(edges)))
                e = edges[i]
                edges[i] = edges[-1]
                edges.pop()
                present.discard(e)
                batch.append(("-",) + e)
            self.stream.append(batch)

    def _answer(self, forest) -> tuple[int, int]:
        return forest.count(self.K), hash(tuple(forest.per_vertex(self.K)))

    def _check(self, forest, i: int, got: tuple[int, int],
               answers: list, tally: Tally) -> None:
        if self.answers is not None:
            if got != self.answers[i]:
                tally.fail(f"batch {i}: answer differs from first pass")
            return
        answers.append(got)
        if i not in self.check_at:
            return
        g = forest.graph
        fresh = count_cliques(g, self.K).count
        if got[0] != fresh:
            tally.fail(f"batch {i}: count {got[0]} != fresh {fresh}")
        pv = per_vertex_counts(g, self.K, core_ordering(g))
        if got[1] != hash(tuple(pv)):
            tally.fail(f"batch {i}: per_vertex differs from fresh")

    def _recompute_probe(self, led: Ledger, forest, dirty) -> None:
        """Replay the dirty roots' recursion through the public
        ``collect_root_leaves``: the recompute share of an apply."""
        d = forest.descriptor
        with untallied(), led.span("dynamic.recompute"):
            struct = STRUCTURES[d["structure"]](forest.graph, forest.dag,
                                                kernel=d["kernel"])
            for v in dirty:
                collect_root_leaves(struct, int(v), Counters(),
                                    record_members=forest.has_members)

    def run_pass(self, led: Ledger, tally: Tally) -> None:
        answers: list[tuple[int, int]] = []
        n_ops = 1 + len(self.stream)
        tally.attempted += n_ops
        done = 0
        try:
            with led.operation():
                with led.span("ordering.order"):
                    ordering = core_ordering(self.graph)
                with led.span("forest.build") as build:
                    forest = get_forest(self.graph, ordering, cache=False)
            tally.sample("build", build.duration)
            tally.fact_max("dag_max_out_degree", forest.dag.max_degree)
            tally.facts["forest_leaves"] = forest.num_leaves
            tally.facts["forest_nbytes"] = forest.nbytes
            done = 1
            self._check(forest, 0, self._answer(forest), answers, tally)
            with ExitStack() as stack:
                for fn in ("normalize_edits", "edit_graph", "dirty_roots"):
                    stack.enter_context(led.interpose(
                        dynamic, fn, "dynamic." + fn.replace("_edits", "")
                    ))
                for i, batch in enumerate(self.stream, 1):
                    with led.operation():
                        with led.span("dynamic.apply") as apply:
                            report = forest.apply_edits(batch)
                        with led.span("forest.query") as query:
                            got = self._answer(forest)
                    done += 1
                    tally.sample("batch", apply.duration)
                    tally.sample("query", query.duration)
                    tally.fact_add("roots_dirty", report.dirty_roots.size)
                    tally.fact_add("root_slots", forest.num_vertices)
                    if led.enabled:
                        self._recompute_probe(led, forest,
                                              report.dirty_roots)
                    self._check(forest, i, got, answers, tally)
        except Exception as exc:  # the rest of the stream is lost
            tally.failed += n_ops - done
            tally.errors.append(f"{self.name} op {done}: raised {exc!r}")
            return
        if self.answers is None:
            self.answers = answers


def _lj_deep(seed: int) -> CountSweep:
    return CountSweep("lj_deep", [("livejournal", 8)], seed)


def _table5_sweep(seed: int) -> CountSweep:
    return CountSweep(
        "table5_sweep", [(ds, k) for ds in TABLE5_ANALOGS for k in TABLE5_KS],
        seed,
    )


WORKLOADS: dict[str, Callable[[int], object]] = {
    "lj_deep": _lj_deep,
    "table5_sweep": _table5_sweep,
    "ingest_sparse": lambda seed: IngestSparse(seed),
    "forest_stream": lambda seed: ForestStream(seed),
}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)
