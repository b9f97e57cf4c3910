"""Run-to-run spread of the benchmark, and comparison of two run sets.

Run the benchmark once per seed, one process at a time, and report for
each end-to-end metric the median and the distance between the first
and third quartile as a share of the median, against the metric's
``bound`` in ``BENCHMARK.json``::

    python3 perfbench/steady.py --workloads lj_deep,forest_stream \\
        --seeds 1-10 --save .perfbench/a.json

Compare two saved sets (the parent's and a change's, or two sets of
the same code) metric by metric — the median ratio against the bound,
plus the run store's statistical regression test::

    python3 perfbench/steady.py --compare .perfbench/a.json .perfbench/b.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def report_spreads(runs: dict[str, list[dict]]) -> bool:
    """Print the spreads; True when each is below a third of its bound
    (``setup_s`` exempt, as the acceptance rule has it)."""
    steady = True
    for wl, results in runs.items():
        bad = [r for r in results if not r["correct"]]
        print(f"== {wl}: {len(results)} runs, {len(bad)} incorrect ==")
        steady &= not bad
        for m in _bench()["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = spread(vals)
            ok = m["name"] == "setup_s" or sp < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:<12} median {med:.6g}  spread {sp:.4f}  "
                  f"bound {m['bound']}  {'ok' if ok else 'WIDE'}")
    return steady


def compare(path_a: str, path_b: str) -> bool:
    """Second set's median against the first's, within each bound."""
    from repro.bench.platform.stat_tests import detect_regression

    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    agree = True
    for wl in a:
        if wl not in b:
            continue
        print(f"== {wl} ==")
        for m in _bench()["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[wl]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[wl]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb / ma - 1) if m["better"] == "lower" else (1 - mb / ma)
            ok = worse <= m["bound"]
            agree &= ok
            line = (f"  {m['name']:<12} {ma:.6g} -> {mb:.6g}  "
                    f"worse by {worse:+.4f} (bound {m['bound']})  "
                    f"{'ok' if ok else 'WORSE'}")
            if m["better"] == "lower":
                line += "  | " + detect_regression(
                    va, vb, metric=m["name"]).describe()
            print(line)
    return agree


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", default=None, help="write the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)

    if args.compare:
        return 0 if compare(*args.compare) else 1
    bench = _bench()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs: dict[str, list[dict]] = {}
    for wl in names:
        for seed in _seeds(args.seeds):
            runs.setdefault(wl, []).append(
                run_once(wl, seed, seconds)
            )
            print(f"{wl} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in
                              runs[wl][-1]["metrics"].items()),
                  flush=True)
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n",
                                   encoding="utf-8")
    return 0 if report_spreads(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
