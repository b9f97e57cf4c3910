"""End-to-end PivotScale benchmark with a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lj_deep --seed 1 --seconds 20 --trace 0

Workloads: ``lj_deep``, ``table5_sweep``, ``ingest_sparse`` and
``forest_stream`` (see ``perfbench/README.md``).  The run imports
``repro`` from ``src/``, sets up the workload's graphs three times
(``setup_s`` is the median), then repeats timed passes until
``--seconds`` have elapsed; ``solve_s`` is the median pass.  Every
operation is checked against a reference outside its timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones (spans around each layer's public
calls plus exact counters read through ``repro.obs.collecting()``),
reports the per-layer metrics, and writes the spans to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from ledger import Ledger, PassTimes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-up repetitions; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A reported tail percentile leaves at least this many samples beyond.
MIN_BEYOND = 10

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Percentile:
    q: int
    value: float
    n: int


def percentile(samples, q: float = 95, min_beyond: int = MIN_BEYOND
               ) -> Percentile:
    """Nearest-rank percentile of ``samples``, at ``q`` or at the highest
    lower percentile that leaves ``min_beyond`` samples beyond it (never
    below the median), with the sample count."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    q_eff = max(50, min(int(q), math.floor(100 * (n - min_beyond) / n)))
    rank = max(1, math.ceil(q_eff / 100 * n))
    return Percentile(q_eff, xs[rank - 1], n)


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class TracedPass:
    solve: float
    times: PassTimes
    counts: dict
    facts: dict


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    import_s: list[float]
    build_s: list[float]
    solves: list[float] = field(default_factory=list)
    traced: list[TracedPass] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    file_mb: float = 0.0
    peak_rss_mb: float = 0.0


def registry_counts(reg) -> dict[str, float]:
    """The exact work counters a traced pass reads from ``repro.obs``."""
    out = {
        name: reg.total(metric)
        for name, metric in (
            ("sct.nodes", "engine_nodes_visited_total"),
            ("sct.leaves", "engine_leaves_total"),
            ("sct.early_exits", "engine_early_exits_total"),
            ("sct.set_op_words", "engine_set_op_words_total"),
            ("ordering.rounds", "ordering_rounds_total"),
            ("dynamic.edits_applied", "forest_edits_applied_total"),
            ("dynamic.edits_skipped", "forest_edits_skipped_total"),
        )
    }
    out["kernels.pivot_select_calls"] = 0
    out["kernels.intersect_count_calls"] = 0
    out["sct.peak_subgraph_bytes"] = 0
    for m in reg.collect():
        labels = dict(m.labels)
        if m.name == "kernel_calls_total":
            key = f"kernels.{labels.get('op')}_calls"
            if key in out:
                out[key] += m.value
        elif m.name == "engine_peak_subgraph_bytes":
            out["sct.peak_subgraph_bytes"] = max(
                out["sct.peak_subgraph_bytes"], m.value
            )
    return out


def measure(workload, seconds: float, trace: bool, *,
            import_s: list[float], build_s: list[float],
            out: Path | None = OUT) -> Result:
    """Run timed passes of ``workload`` for ``seconds`` (at least one;
    with ``trace`` at least one untraced and one traced, alternating).
    A traced run writes its spans under ``out``."""
    from repro import obs

    from workloads import Tally

    res = Result(workload.name, getattr(workload, "seed", 0), trace,
                 import_s, build_s)
    led_off = Ledger(enabled=False)
    led_on = Ledger(enabled=True)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        led = led_on if traced else led_off
        tally = Tally()
        first, before = len(led.spans), led.op_seconds
        if traced:
            with obs.collecting() as reg:
                workload.run_pass(led, tally)
            counts = registry_counts(reg)
        else:
            workload.run_pass(led, tally)
        solve = led.op_seconds - before
        if traced:
            res.traced.append(TracedPass(solve, led.times(first), counts,
                                         dict(tally.facts)))
        else:
            res.solves.append(solve)
        res.attempted += tally.attempted
        res.failed += tally.failed
        res.errors.extend(tally.errors)
        for kind, xs in tally.samples.items():
            res.samples.setdefault(kind, []).extend(xs)
        i += 1
        if time.perf_counter() >= deadline and (not trace or i >= 2):
            break
    res.file_mb = getattr(workload, "file_mb", 0.0)
    res.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if trace:
        res.errors.extend(
            f"traced pass {i}: exact counters differ from the first"
            for i, p in enumerate(res.traced[1:], 1)
            if p.counts != res.traced[0].counts
        )
        if out is not None:
            led_on.write(out / f"trace-{res.workload}-seed{res.seed}.jsonl")
    return res


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``, in its order."""
    return [(m["name"], m["unit"]) for m in benchmark_json()[kind]]


#: Span names whose self time the ledger table reports, in pipeline order.
LAYER_SPANS = (
    "graph.read", "ordering.heuristic", "ordering.order",
    "ordering.directionalize", "structures.estimate", "structures.build",
    "sct.count_roots", "perfmodel.simulate", "forest.build",
    "dynamic.apply", "dynamic.normalize", "dynamic.edit_graph",
    "dynamic.dirty_roots", "forest.query", "op",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(res: Result) -> dict[str, float]:
    return {
        "setup_s": median(res.import_s) + median(res.build_s),
        "solve_s": median(res.solves),
        "peak_rss_mb": res.peak_rss_mb,
        "ok_frac": _ratio(res.attempted - res.failed, res.attempted),
    }


def _pass_layers(p: TracedPass) -> dict[str, float]:
    """Per-layer timings of one traced pass (medians are taken over
    passes)."""
    t = p.times

    def self_s(name):
        return t.self_s.get(name, 0.0)

    def total_s(name):
        return t.total_s.get(name, 0.0)

    return {
        "graph.read_s": total_s("graph.read"),
        "ordering.heuristic_s": total_s("ordering.heuristic"),
        "ordering.order_s": total_s("ordering.order"),
        "ordering.directionalize_s": total_s("ordering.directionalize"),
        "structures.estimate_s": total_s("structures.estimate"),
        "structures.build_s": total_s("structures.build"),
        "sct.count_roots_s": total_s("sct.count_roots"),
        "sct.recursion_s": self_s("sct.count_roots"),
        "perfmodel.simulate_s": total_s("perfmodel.simulate"),
        "forest.build_s": total_s("forest.build"),
        "forest.query_s": total_s("forest.query"),
        "dynamic.apply_s": total_s("dynamic.apply"),
        "dynamic.normalize_s": total_s("dynamic.normalize"),
        "dynamic.edit_graph_s": total_s("dynamic.edit_graph"),
        "dynamic.dirty_roots_s": total_s("dynamic.dirty_roots"),
        "dynamic.recompute_s": total_s("dynamic.recompute"),
        "trace.solve_s": p.solve,
        "trace.unaccounted_s": self_s("op"),
    }


def per_layer(res: Result) -> dict[str, float]:
    timed = [_pass_layers(p) for p in res.traced]
    out = {name: median([d[name] for d in timed]) for name in timed[0]}
    first = res.traced[0]
    t, c, f = first.times, first.counts, first.facts
    out.update(c)
    nodes = c["sct.nodes"]
    built_words = t.work.get("structures.build", 0.0)
    batch = res.samples.get("batch", [])
    query = res.samples.get("query", [])
    out.update({
        "setup.import_s": median(res.import_s),
        "datasets.build_s": median(res.build_s),
        "graph.read_mb_per_s": _ratio(res.file_mb, out["graph.read_s"]),
        "ordering.dag_max_out_degree": f.get("dag_max_out_degree", 0),
        "structures.builds": t.calls.get("structures.build", 0),
        "structures.roots_pruned": t.work.get("structures.estimate", 0.0),
        "structures.build_words": built_words,
        "structures.ns_per_build_word":
            _ratio(out["structures.build_s"] * 1e9, built_words),
        "sct.leaf_ratio": _ratio(c["sct.leaves"], nodes),
        "sct.ns_per_node": _ratio(out["sct.recursion_s"] * 1e9, nodes),
        "forest.leaves": f.get("forest_leaves", 0),
        "forest.nbytes": f.get("forest_nbytes", 0),
        "forest.query_p50_ms": median(query) * 1e3,
        "dynamic.roots_dirty": f.get("roots_dirty", 0),
        "dynamic.dirty_share":
            _ratio(f.get("roots_dirty", 0), f.get("root_slots", 0)),
        "dynamic.batch_p50_ms": median(batch) * 1e3,
        "dynamic.batch_p95_ms":
            percentile(batch, 95).value * 1e3 if batch else 0.0,
        "dynamic.batches": len(batch),
        "trace.overhead_frac":
            _ratio(median([p.solve for p in res.traced]),
                   median(res.solves)) - 1.0,
        "trace.passes": len(res.traced),
    })
    return out


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def render(res: Result, metrics: dict[str, float],
           names: list[tuple[str, str]]) -> str:
    from repro.bench.harness import Table

    counts = {
        "setup_s": len(res.build_s), "solve_s": len(res.solves),
        "setup.import_s": len(res.import_s),
        "datasets.build_s": len(res.build_s),
    }
    mode = "traced" if res.trace else "untraced"
    table = Table(
        f"{res.workload} seed={res.seed} ({mode})",
        ["metric", "value", "unit", "samples"],
    )
    for name, unit in names:
        table.add(name, f"{metrics[name]:.6g}", unit,
                  counts.get(name, len(res.traced) if res.trace else ""))
    for kind, xs in sorted(res.samples.items()):
        line = f"{kind} latency: p50 {median(xs) * 1e3:.3f} ms"
        tail = percentile(xs, 95)
        if tail.q > 50:
            line += f", p{tail.q} {tail.value * 1e3:.3f} ms"
        table.note(f"{line} over {len(xs)} samples")
    table.note("solve samples (s): "
               + " ".join(f"{x:.3f}" for x in res.solves))
    if res.trace:
        solve = median([p.solve for p in res.traced])
        for name in LAYER_SPANS:
            own = median([p.times.self_s.get(name, 0.0)
                          for p in res.traced])
            if own:
                label = "unaccounted" if name == "op" else name
                table.note(f"self time {label}: {own:.4f} s "
                           f"({100 * _ratio(own, solve):.1f}% of traced "
                           "solve)")
    for err in res.errors[:10]:
        table.note(f"FAILED {err}")
    return table.render()


def summarize(res: Result) -> tuple[dict, str]:
    """The result line (metrics of the run's mode) and its table."""
    if res.trace:
        metrics, names = per_layer(res), declared("per_layer")
    else:
        metrics, names = end_to_end(res), declared("end_to_end")
    if set(metrics) != {name for name, _ in names}:
        raise ValueError("computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {n for n, _ in names})}")
    summary = {
        "correct": res.failed == 0 and not res.errors,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names
        },
    }
    return summary, render(res, metrics, names)


def import_samples(src: Path, extra: int) -> list[float]:
    """``import repro`` times of ``extra`` fresh interpreters."""
    out = []
    for _ in range(extra):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark_json()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the set-up's import share)

    imports = [time.perf_counter() - t0]
    imports += import_samples(SRC, SETUP_REPEATS - 1)

    from repro.bench.harness import time_samples

    from workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    builds = time_samples(workload.build, number=1, repeats=SETUP_REPEATS)
    workload.prepare(OUT)
    res = measure(workload, args.seconds, bool(args.trace),
                  import_s=imports, build_s=builds)
    summary, table = summarize(res)
    print(table)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
