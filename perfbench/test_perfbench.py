"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from ledger import Ledger  # noqa: E402
from workloads import (  # noqa: E402
    CountSweep,
    ForestStream,
    IngestSparse,
    reference_counts,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def tiny(kind: str, seed: int = 3):
    if kind == "sweep":
        return CountSweep("tiny_sweep", [("dblp", 6), ("wikitalk", 6)], seed)
    if kind == "ingest":
        return IngestSparse(seed, n=3000, min_degree=2.0,
                            cliques=(8,) * 3 + (6,) * 5, k=5,
                            name="tiny_ingest")
    return ForestStream(seed, analog="dblp", batches=3, checks=2,
                        name="tiny_forest")


def measure(workload, trace: bool, tmp_path: Path) -> run.Result:
    workload.build()
    workload.prepare(tmp_path)
    return run.measure(workload, 0, trace, import_s=[0.1], build_s=[0.2],
                       out=tmp_path)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", ["sweep", "ingest", "forest"])
def test_metric_names_match_benchmark_json(kind, trace, tmp_path):
    summary, table = run.summarize(measure(tiny(kind), trace, tmp_path))
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    for name, entry in summary["metrics"].items():
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], (int, float))
    assert summary["correct"], table
    assert summary["failed"] == 0 and summary["attempted"] >= 1


def test_traced_run_writes_spans_and_accounts_for_solve(tmp_path):
    res = measure(tiny("sweep"), True, tmp_path)
    lines = (tmp_path / "trace-tiny_sweep-seed3.jsonl").read_text().split("\n")
    spans = [json.loads(line) for line in lines if line]
    assert {"id", "op", "name", "parent", "start", "end"} <= set(spans[0])
    names = {s["name"] for s in spans}
    assert {"op", "ordering.order", "sct.count_roots", "structures.estimate",
            "perfmodel.simulate"} <= names
    layers = run.per_layer(res)
    assert layers["sct.nodes"] > 0 and layers["kernels.pivot_select_calls"] > 0
    # Self times plus the unaccounted remainder add up to the traced solve.
    p = res.traced[0]
    assert sum(p.times.self_s.values()) == pytest.approx(p.solve, rel=1e-6)


def test_wrong_reference_count_fails(tmp_path):
    refs = reference_counts()
    refs["dblp"] = {6: refs["dblp"][6] + 1}
    res = measure(CountSweep("tiny_sweep", [("dblp", 6)], 3,
                             references=refs), False, tmp_path)
    summary, table = run.summarize(res)
    assert summary["failed"] == 1 and not summary["correct"]
    failed_frac = summary["failed"] / summary["attempted"]
    assert failed_frac > 0
    assert summary["metrics"]["ok_frac"]["value"] == 1 - failed_frac
    assert "FAILED" in table


def test_exact_counters_repeat_with_one_seed(tmp_path):
    a = measure(tiny("sweep", seed=5), True, tmp_path).traced[0].counts
    b = measure(tiny("sweep", seed=5), True, tmp_path).traced[0].counts
    assert a == b


def test_percentile_reports_its_percentile_and_sample_count():
    assert run.percentile(range(1, 201), 95) == run.Percentile(95, 190, 200)
    # 50 samples cannot leave 10 beyond p95: the helper says it fell to p80.
    assert run.percentile(range(1, 51), 95) == run.Percentile(80, 40, 50)
    assert run.percentile([3, 1, 2], 95) == run.Percentile(50, 2, 3)
    with pytest.raises(ValueError):
        run.percentile([], 95)


def test_ledger_self_time_and_aggregates():
    led = Ledger()

    class Layer:
        def work(self, x):
            return x

    layer = Layer()
    with led.operation():
        with led.span("outer"):
            with led.interpose(layer, "work", "inner", aggregate=True,
                               weigh=float):
                for x in (1, 2, 3):
                    layer.work(x)
    assert "work" not in vars(layer)  # the interposer is removed
    t = led.times()
    assert t.calls["inner"] == 3 and t.work["inner"] == 6.0
    assert t.self_s["outer"] == pytest.approx(
        t.total_s["outer"] - t.total_s["inner"])
    assert sum(t.self_s.values()) == pytest.approx(t.total_s["op"])
    assert led.op_seconds == pytest.approx(t.total_s["op"])
