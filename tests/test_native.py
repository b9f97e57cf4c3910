"""The ``native`` backend: the compiled root walker against the
pure-Python ``bigint`` oracle, its 128-bit overflow rule, its build
cache, and every runtime that drives it.

The contract is bit-identity: counts, every
:class:`~repro.counting.counters.Counters` field, ``per_root_work`` and
``per_root_memory`` equal the ``bigint`` run's exactly, whether roots
go to the walker in one call (no controller), one call per root (with
a controller) or one call per batch (``count_roots``, the parallel and
shard runtimes).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PivotScaleConfig, count_cliques
from repro.cli import build_parser
from repro.counting import count_kcliques
from repro.counting.dynamic import _collect_batch
from repro.counting.sct import SCTEngine
from repro.counting.structures import STRUCTURES as STRUCTURE_TYPES
from repro.errors import (
    KernelUnavailableError,
    NodeBudgetExceededError,
    RunInterrupted,
)
from repro.graph import from_edge_array
from repro.graph.generators import (
    complete_graph,
    erdos_renyi,
    overlay,
    planted_cliques,
)
from repro.kernels import (
    KERNEL_ENV,
    KERNELS,
    kernel_availability,
    native,
    resolve_kernel,
)
from repro.ordering import core_ordering
from repro.ordering.directionalize import directionalize
from repro.runtime import Budget, FaultPlan, FaultSpec, RunController

from tests.corpus import GRAPHS, IDS, ordering

STRUCTURES = ("dense", "sparse", "remap")

needs_native = pytest.mark.skipif(
    kernel_availability()["native"] is not None,
    reason=f"native backend unavailable: {kernel_availability()['native']}",
)


def _assert_identical(a, b):
    assert a.count == b.count
    assert a.counters.as_dict() == b.counters.as_dict()
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)


def _pair(g, k, o, **kw):
    return (count_kcliques(g, k, o, kernel="bigint", **kw),
            count_kcliques(g, k, o, kernel="native", **kw))


def _multiword_graph():
    """Planted cliques of 70-100 vertices in a sparse background, so
    roots have subgraphs wider than one 64-bit word."""
    n = 240
    cliques = planted_cliques(n, [100, 80, 70], seed=3, overlap=0.2)
    return overlay(n, erdos_renyi(n, 0.04, seed=4), cliques)


# ----------------------------------------------------------------------
# differential: native == bigint
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_corpus_bit_identical(name, g):
    o = ordering(name, g)
    for structure in STRUCTURES:
        for k in (1, 2, 3, 4, 6):
            for et in (True, False):
                ref = SCTEngine(g, o, structure, kernel="bigint").count(
                    k, early_termination=et
                )
                got = SCTEngine(g, o, structure, kernel="native").count(
                    k, early_termination=et
                )
                _assert_identical(got, ref)
                assert got.kernel == "native"


@needs_native
@pytest.mark.parametrize("structure", STRUCTURES)
def test_multiword_subgraphs_bit_identical(structure):
    g = _multiword_graph()
    dag = directionalize(g, core_ordering(g))
    assert dag.max_degree > 64
    for k in (3, 5, 9):
        ref = SCTEngine(g, dag, structure, kernel="bigint").count(k)
        got = SCTEngine(g, dag, structure, kernel="native").count(k)
        _assert_identical(got, ref)


@needs_native
@pytest.mark.parametrize("name,g", GRAPHS[::3], ids=IDS[::3])
def test_count_roots_shuffled_subsets(name, g):
    o = ordering(name, g)
    rng = np.random.default_rng(len(name))
    n = g.num_vertices
    for structure in STRUCTURES:
        ref_engine = SCTEngine(g, o, structure, kernel="bigint")
        engine = SCTEngine(g, o, structure, kernel="native")
        for _ in range(3):
            roots = rng.permutation(n)[: rng.integers(0, n + 1)]
            for k in (3, 5):
                ref = ref_engine.count_roots(roots, k)
                got = engine.count_roots(roots, k)
                assert got.roots == ref.roots
                assert got.count == ref.count
                assert got.counters.as_dict() == ref.counters.as_dict()
                assert got.per_root_work == ref.per_root_work
                assert got.per_root_memory == ref.per_root_memory


@needs_native
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(1, 90),
    p=st.floats(0.0, 0.9),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 8),
    structure=st.sampled_from(STRUCTURES),
    et=st.booleans(),
)
def test_property_random_graphs(n, p, seed, k, structure, et):
    g = erdos_renyi(n, p if n < 40 else p / 3, seed=seed)
    o = core_ordering(g)
    ref = SCTEngine(g, o, structure, kernel="bigint").count(
        k, early_termination=et
    )
    got = SCTEngine(g, o, structure, kernel="native").count(
        k, early_termination=et
    )
    _assert_identical(got, ref)


# ----------------------------------------------------------------------
# overflow: 128-bit counts, Python recount beyond
# ----------------------------------------------------------------------
def _walk(g, k):
    dag = directionalize(g, core_ordering(g))
    roots = np.arange(g.num_vertices, dtype=np.int64)
    return native.NativeKernel().walk_roots_k(g, dag, roots, k)


@needs_native
def test_count_beyond_128_bits_recounts_in_python():
    g = complete_graph(140)
    assert math.comb(140, 70) >= 1 << 128
    walk = _walk(g, 70)
    assert walk.overflow.any() and not walk.overflow.all()
    ref, got = _pair(g, 70, core_ordering(g))
    assert got.count == ref.count == math.comb(140, 70)
    _assert_identical(got, ref)


@needs_native
def test_count_crossing_64_bits_stays_native():
    edges = complete_graph(70).edge_array()
    g = from_edge_array(edges[1:], num_vertices=70)  # K_70 minus one edge
    k = 35
    walk = _walk(g, k)
    assert not walk.overflow.any()
    assert walk.column("count_hi").max() > 0  # a count exceeds 2^64
    expect = math.comb(70, k) - math.comb(68, k - 2)
    ref, got = _pair(g, k, core_ordering(g))
    assert got.count == ref.count == expect
    _assert_identical(got, ref)


@needs_native
def test_overflow_roots_keep_kernel_call_parity():
    from repro import obs

    g = complete_graph(140)
    o = core_ordering(g)
    calls = {}
    for kernel in ("bigint", "native"):
        with obs.collecting() as reg:
            count_kcliques(g, 70, o, kernel=kernel)
        calls[kernel] = {
            (dict(m.labels)["op"]): m.value
            for m in reg.collect()
            if m.name == "kernel_calls_total"
            and dict(m.labels)["kernel"] == kernel
        }
    assert calls["native"] == calls["bigint"]


# ----------------------------------------------------------------------
# leaf collection: collect_roots == the Python forest walker
# ----------------------------------------------------------------------
def _assert_same_collection(g, dag, structure, roots, members):
    """``collect_roots`` (through the dynamic recompute's batch call)
    equals ``_collect_root`` run root by root on ``bigint``: leaves,
    member ids, per-root work and memory, and every counter."""
    ref = _collect_batch(STRUCTURE_TYPES[structure](g, dag, kernel="bigint"),
                         roots, members)
    got = _collect_batch(STRUCTURE_TYPES[structure](g, dag, kernel="native"),
                         roots, members)
    for want, have in zip(ref[0], got[0]):
        if want is None:
            assert have is None
        else:
            assert have.dtype == want.dtype
            assert np.array_equal(have, want)
    assert np.array_equal(got[1], ref[1])
    assert np.array_equal(got[2], ref[2])
    assert got[3].as_dict() == ref[3].as_dict()


@needs_native
@pytest.mark.parametrize("name,g", GRAPHS, ids=IDS)
def test_collect_roots_matches_python_walker(name, g):
    dag = directionalize(g, ordering(name, g))
    roots = np.arange(g.num_vertices, dtype=np.int64)
    for structure in STRUCTURES:
        for members in (True, False):
            _assert_same_collection(g, dag, structure, roots, members)


@needs_native
@pytest.mark.parametrize("members", [True, False])
@pytest.mark.parametrize("structure", STRUCTURES)
def test_collect_roots_multiword_and_shuffled(structure, members):
    g = _multiword_graph()
    dag = directionalize(g, core_ordering(g))
    wide = np.flatnonzero(dag.degrees > 64)
    assert wide.size
    roots = np.random.default_rng(5).permutation(g.num_vertices)
    _assert_same_collection(g, dag, structure, roots, members)
    leaves = resolve_kernel("native").collect_roots(g, dag, wide, members)
    assert leaves.column("early").sum() == 0
    assert leaves.held_n.size == leaves.column("leaves").sum()


@needs_native
def test_collect_roots_publishes_scalar_kernel_calls():
    """Under observation, a native recompute reports the kernel calls
    the Python walker makes for the same roots."""
    from repro import obs
    from repro.counting.forest import build_forest

    g = _multiword_graph()
    o = core_ordering(g)
    batch = [("+", 0, 200), ("-", *map(int, g.edge_array()[5]))]
    calls = {}
    for kernel in ("bigint", "native"):
        forest = build_forest(g, o, kernel=kernel)
        with obs.collecting() as reg:
            forest.apply_edits(batch)
        calls[kernel] = {
            dict(m.labels)["op"]: m.value
            for m in reg.collect()
            if m.name == "kernel_calls_total"
            and dict(m.labels)["kernel"] == kernel
        }
    assert calls["bigint"]["pivot_select"] > 0
    assert calls["native"] == calls["bigint"]


# ----------------------------------------------------------------------
# build cache
# ----------------------------------------------------------------------
@pytest.fixture
def no_compiler(monkeypatch):
    monkeypatch.setattr(native, "LIBRARY",
                        native.NativeLibrary(compiler=lambda: None))
    monkeypatch.delenv(KERNEL_ENV, raising=False)


def test_no_compiler_falls_back_to_bigint(no_compiler):
    assert "no C compiler" in kernel_availability()["native"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel(None).name == "bigint"
        g = GRAPHS[5][1]
        r = count_cliques(g, 4, PivotScaleConfig())
    assert r.counting.kernel == "bigint"
    with pytest.warns(RuntimeWarning, match="falling back to 'bigint'"):
        assert resolve_kernel("native").name == "bigint"


@pytest.mark.skipif(native.find_compiler() is None,
                    reason="needs a C compiler to fail")
def test_compile_error_reports_reason(tmp_path):
    bad = tmp_path / "broken.c"
    bad.write_text("int sct_num_cols(void) { return }\n")
    lib = native.NativeLibrary(source=bad, cache=lambda: [tmp_path / "c"])
    reason = lib.reason()
    assert reason is not None and "failed" in reason
    assert lib.reason() == reason  # probed once
    assert list((tmp_path / "c").iterdir()) == []  # no temp files left
    with pytest.raises(KernelUnavailableError, match="failed"):
        lib.get()


@needs_native
def test_truncated_cached_library_is_rebuilt(tmp_path):
    native.NativeLibrary(cache=lambda: [tmp_path]).get()
    (so,) = tmp_path.glob("*.so")
    size = so.stat().st_size
    # Tear the file as a crashed writer would leave it: a new, short
    # inode.  (Truncating in place would pull pages out from under the
    # copy this process has mapped.)
    torn = tmp_path / "torn"
    torn.write_bytes(so.read_bytes()[: size // 3])
    torn.replace(so)
    lib = native.NativeLibrary(cache=lambda: [tmp_path])
    assert lib.reason() is None
    assert so.stat().st_size == size
    g = GRAPHS[9][1]
    o = ordering(GRAPHS[9][0], g)
    engine = SCTEngine(g, o, kernel=native.NativeKernel(library=lib))
    assert engine.count(4).count == count_kcliques(
        g, 4, o, kernel="bigint"
    ).count


def _first_use(folder: str) -> int:
    lib = native.NativeLibrary(cache=lambda: [Path(folder)])
    g = complete_graph(12)
    engine = SCTEngine(g, core_ordering(g),
                       kernel=native.NativeKernel(library=lib))
    return engine.count(5).count


@needs_native
def test_concurrent_first_use_from_spawn_pool(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(3) as pool:
        counts = pool.map(_first_use, [str(tmp_path)] * 3)
    assert counts == [math.comb(12, 5)] * 3
    names = sorted(p.suffix for p in tmp_path.iterdir())
    assert names == [".sha256", ".so"]


def test_import_starts_no_subprocess():
    code = (
        "import subprocess\n"
        "def refuse(*a, **k):\n"
        "    raise AssertionError('subprocess started at import')\n"
        "subprocess.Popen = refuse\n"
        "import repro, repro.kernels, repro.cli\n"
        "from repro.kernels import native\n"
        "assert not native.LIBRARY.probed\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# config / CLI kernel selection
# ----------------------------------------------------------------------
def test_repro_kernel_env_reaches_config_driven_count(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "bigint")
    g = GRAPHS[3][1]
    r = count_cliques(g, 4, PivotScaleConfig())
    assert r.counting.kernel == "bigint"
    monkeypatch.setenv(KERNEL_ENV, "wordarray")
    assert count_cliques(g, 4, PivotScaleConfig()).counting.kernel == (
        "wordarray"
    )


def test_cli_kernel_flags_default_to_resolution():
    parser = build_parser()
    for argv in (["count", "--dataset", "dblp", "-k", "4"],
                 ["dist", "--dataset", "dblp"],
                 ["stream", "--dataset", "dblp", "--edits", "e.txt"]):
        assert parser.parse_args(argv).kernel is None
        for name in KERNELS:
            assert parser.parse_args(argv + ["--kernel", name]).kernel == name


# ----------------------------------------------------------------------
# controllers and runtimes
# ----------------------------------------------------------------------
@pytest.fixture
def g():
    return erdos_renyi(60, 0.3, seed=11)


@needs_native
@pytest.mark.parametrize("at_op", [1, 17, 45])
def test_kill_and_resume_bit_identical(tmp_path, g, at_op):
    o = core_ordering(g)
    base = SCTEngine(g, o, kernel="bigint").count(5)
    path = tmp_path / "ck.json"
    ctl = RunController(checkpoint_path=path, checkpoint_every=4,
                        faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)))
    with pytest.raises(RunInterrupted):
        SCTEngine(g, o, kernel="native").count(5, controller=ctl)
    resumed = SCTEngine(g, o, kernel="native").count(
        5, controller=RunController(checkpoint_path=path, resume=True)
    )
    _assert_identical(resumed, base)


@needs_native
def test_node_budget_spent_matches_bigint(g):
    o = core_ordering(g)
    spent = {}
    for kernel in ("bigint", "native"):
        ctl = RunController(Budget(max_nodes=400))
        with pytest.raises(NodeBudgetExceededError):
            SCTEngine(g, o, kernel=kernel).count(5, controller=ctl)
        s = ctl.spent
        spent[kernel] = (s.nodes, s.roots_done, s.peak_memory_bytes)
    assert spent["native"] == spent["bigint"]


@needs_native
def test_process_pool_and_shards_match_bigint(tmp_path, g):
    from repro.parallel import ParallelRuntime, count_kcliques_processes
    from repro.shard import count_sharded

    dag = directionalize(g, core_ordering(g))
    with ParallelRuntime(2, start_method="spawn") as rt:
        pooled = {
            kernel: count_kcliques_processes(
                g, 5, dag, processes=2, kernel=kernel, runtime=rt
            )
            for kernel in ("bigint", "native")
        }
    # Chunks fold in completion order, so float counter totals may
    # differ in the last ulp between any two pool runs; the rest is
    # exact.
    a, b = pooled["native"], pooled["bigint"]
    assert a.count == b.count and a.kernel == "native"
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)
    for key, value in b.counters.as_dict().items():
        assert a.counters.as_dict()[key] == pytest.approx(value, rel=1e-12)
    sharded = {
        kernel: count_sharded(
            g, dag, k=5, kernel=kernel, shard_mb=2048 / (1 << 20),
            spill_dir=tmp_path / kernel,
        )
        for kernel in ("bigint", "native")
    }
    _assert_identical(sharded["native"], sharded["bigint"])
    assert sharded["native"].count == pooled["bigint"].count
