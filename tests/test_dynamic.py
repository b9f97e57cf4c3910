"""Incremental-forest differential edit-sequence suite.

The contract under test: :meth:`SCTForest.apply_edits` patched in
place must be **bit-identical** to a from-scratch rebuild under the
same vertex order — every leaf array, the per-root work/memory model
vectors, the descriptor fingerprints, and every query answered from
them (count_all / per-vertex / per-edge) — over the committed
versioned edit streams of the shared 40-graph corpus, on both
always-available kernel backends.  480 randomized batches (40 graphs
x 2 kernels x 6 batches, mixed sizes with duplicates, no-ops, growth
and one empty batch per stream) ride through that assertion.

On top of the differential net: Hypothesis properties (insert-then-
delete round-trip, order-insensitivity for dirty-disjoint batches,
empty batch is a no-op on arrays and counters), the stale-cache
regressions (in-process LRU re-keying after edits; fingerprints under
forced graph mutation), controller budgets/checkpoint-resume at
dirty-root granularity, kernel-fault degradation, policy selection,
config plumbing, the ``stream`` CLI, and persistence after edits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PivotScaleConfig
from repro.counting import brute_force_count
from repro.counting.dynamic import (
    EditReport,
    _edit_dag,
    apply_edits,
    dag_rank,
    dirty_roots,
    edit_graph,
    edits_digest,
    extend_rank,
    iter_batches,
    normalize_edits,
    parse_edit_line,
    read_edit_file,
)
from repro.counting.forest import (
    SCTForest,
    build_forest,
    clear_forest_cache,
    get_forest,
    load_forest,
)
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    CountingError,
    RunInterrupted,
)
from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.kernels import kernel_availability
from repro.ordering import core_ordering
from repro.ordering.directionalize import directionalize
from repro.runtime import FaultPlan, FaultSpec, RunController
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import graph_fingerprint

from tests.corpus import (
    EDIT_STREAM_VERSION,
    GRAPHS,
    IDS,
    edit_stream,
    edit_stream_digest,
)
from tests.corpus import ordering as corpus_ordering

# The two always-available backends, plus the compiled one where it
# builds.
NATIVE = kernel_availability()["native"] is None
BACKENDS = ("bigint", "wordarray") + (("native",) if NATIVE else ())
needs_native = pytest.mark.skipif(not NATIVE,
                                  reason="native backend unavailable")


def _assert_same_forest(a: SCTForest, b: SCTForest) -> None:
    """Bit-identical *state*: arrays, model vectors, descriptor.

    ``counters`` are deliberately excluded — the patched forest's
    counters are cumulative instrumentation (build + every
    recomputation), not a pure function of the final graph.
    """
    assert a.num_vertices == b.num_vertices
    assert a.num_leaves == b.num_leaves
    assert np.array_equal(a.held_n, b.held_n)
    assert np.array_equal(a.pivot_n, b.pivot_n)
    assert np.array_equal(a.roots, b.roots)
    assert np.array_equal(a.held_off, b.held_off)
    assert np.array_equal(a.pivot_off, b.pivot_off)
    assert a.has_members == b.has_members
    if a.has_members:
        assert np.array_equal(a.held_members, b.held_members)
        assert np.array_equal(a.pivot_members, b.pivot_members)
    assert np.array_equal(a.per_root_work, b.per_root_work)
    assert np.array_equal(a.per_root_memory, b.per_root_memory)
    assert a.descriptor == b.descriptor


@pytest.fixture
def g():
    return erdos_renyi(26, 0.22, seed=77)


# ----------------------------------------------------------------------
# The differential net: committed streams, corpus-wide, both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", BACKENDS)
@pytest.mark.parametrize("name,graph", GRAPHS, ids=IDS)
def test_apply_edits_bit_identical_to_rebuild(name, graph, kernel):
    forest = SCTForest.build(graph, corpus_ordering(name, graph),
                             "remap", kernel)
    for batch in edit_stream(name, graph):
        report = forest.apply_edits(batch)
        rebuilt = SCTForest.build(report.graph, forest.rank,
                                  "remap", kernel)
        _assert_same_forest(forest, rebuilt)
        assert forest.count_all() == rebuilt.count_all()
    # Ground the final state absolutely, not just against the rebuild.
    final = forest.graph
    if kernel == "bigint":
        for k in (3, 4):
            assert forest.count(k) == brute_force_count(final, k)
    rebuilt = SCTForest.build(final, forest.rank, "remap", kernel)
    assert forest.per_vertex(4) == rebuilt.per_vertex(4)
    assert forest.per_edge(3) == rebuilt.per_edge(3)


def test_edit_stream_fixtures_are_pinned():
    """The committed streams are versioned: regenerating them must be
    byte-for-byte stable across processes and platforms.  If this
    fails you changed the generator — bump EDIT_STREAM_VERSION and add
    a new seed instead of mutating version 1."""
    assert EDIT_STREAM_VERSION == 1
    pinned = {
        "rmat-s4-0": "518181bb",
        "rmat-s5-1": "5a597b48",
        "chunglu-n20-0": "30b86090",
        "planted-n18-0": "b516bfc4",
    }
    by_name = dict(GRAPHS)
    for name, want in pinned.items():
        got = edit_stream_digest(name, by_name[name])
        assert got == want, (name, got)
    # Structural guarantees every stream must carry.
    for name, graph in GRAPHS[:8]:
        stream = edit_stream(name, graph)
        assert len(stream) == 6
        assert any(len(b) == 0 for b in stream)
        assert stream == edit_stream(name, graph)


# ----------------------------------------------------------------------
# Hypothesis properties
# ----------------------------------------------------------------------
def _hyp_graph():
    return erdos_renyi(18, 0.25, seed=5)


_HYP_G = _hyp_graph()
_HYP_BASE = SCTForest.build(_HYP_G, core_ordering(_HYP_G), "remap",
                            "bigint")
_ABSENT = [
    (u, v)
    for u in range(_HYP_G.num_vertices)
    for v in range(u + 1, _HYP_G.num_vertices)
    if not _HYP_G.has_edge(u, v)
]
_PRESENT = [tuple(map(int, e)) for e in _HYP_G.edge_array()]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(_ABSENT), min_size=1, max_size=5,
                unique=True))
def test_insert_delete_round_trips_to_original(pairs):
    forest = _HYP_BASE.copy()
    fp0 = forest.descriptor["graph_fingerprint"]
    forest.apply_edits([("+", u, v) for u, v in pairs])
    assert forest.descriptor["graph_fingerprint"] != fp0
    forest.apply_edits([("-", u, v) for u, v in pairs])
    assert forest.descriptor["graph_fingerprint"] == fp0
    _assert_same_forest(forest, _HYP_BASE)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(_ABSENT),
    st.sampled_from(_PRESENT),
)
def test_dirty_disjoint_batches_commute(add_pair, del_pair):
    """Two batches whose dirty-root sets are disjoint land on the same
    forest in either application order."""
    e1 = [("+", *add_pair)]
    e2 = [("-", *del_pair)]
    rank = _HYP_BASE.rank
    g1 = edit_graph(_HYP_G, [add_pair])
    d1 = set(dirty_roots(_HYP_G, g1, rank, [add_pair]).tolist())
    g2 = edit_graph(_HYP_G, [], [del_pair])
    d2 = set(dirty_roots(_HYP_G, g2, rank, [], [del_pair]).tolist())
    if d1 & d2:
        return  # only the root-disjoint case promises commutation
    ab = _HYP_BASE.copy()
    ab.apply_edits(e1)
    ab.apply_edits(e2)
    ba = _HYP_BASE.copy()
    ba.apply_edits(e2)
    ba.apply_edits(e1)
    _assert_same_forest(ab, ba)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(_PRESENT), min_size=0, max_size=4))
def test_noop_batches_leave_arrays_and_counters_alone(pairs):
    """An empty batch — or one whose records are all already satisfied
    (inserting present edges) — changes nothing: arrays, counters,
    descriptor, cumulative-edit budget."""
    forest = _HYP_BASE.copy()
    held = forest.held_n.copy()
    counters = forest.counters.as_dict()
    descriptor = dict(forest.descriptor)
    report = forest.apply_edits([("+", u, v) for u, v in pairs])
    assert report.applied == 0
    assert report.skipped == len(pairs)
    assert report.roots_recomputed == 0
    assert np.array_equal(forest.held_n, held)
    assert forest.counters.as_dict() == counters
    assert forest.descriptor == descriptor
    assert forest._edits_since_reorder == 0


# ----------------------------------------------------------------------
# Splices against the rebuilds they replace
# ----------------------------------------------------------------------
def _rebuilt_edit_graph(graph, adds, dels=(), num_vertices=None):
    """The edge-list rebuild ``edit_graph`` splices instead of: drop
    the deleted keys from the edge array, append the inserts, and
    rebuild through ``from_edge_array``."""
    n = graph.num_vertices
    if adds:
        n = max(n, max(max(u, v) for u, v in adds) + 1)
    if num_vertices is not None:
        n = num_vertices
    pairs = graph.edge_array()
    if dels:
        keys = pairs[:, 0].astype(np.int64) * n + pairs[:, 1]
        drop = np.array([u * n + v for u, v in dels], dtype=np.int64)
        missing = ~np.isin(drop, keys)
        if missing.any():
            bad = [dels[i] for i in np.flatnonzero(missing)]
            raise CountingError(f"cannot delete absent edges {bad}")
        pairs = pairs[~np.isin(keys, drop)]
    if adds:
        extra = np.asarray(adds, dtype=np.int64).reshape(-1, 2)
        pairs = np.concatenate((pairs, extra), axis=0)
    return from_edge_array(pairs, num_vertices=n)


def _set_dirty_roots(old, new, rank, adds, dels):
    """The per-edit set-union form of the dirty-root rule."""
    dirty = set(range(old.num_vertices, new.num_vertices))
    for u, v in list(adds) + list(dels):
        for g in (old, new):
            for w in (u, v):
                if w < g.num_vertices:
                    nbrs = g.neighbors(w)
                    dirty.update(int(r) for r in nbrs[rank[nbrs] < rank[w]])
    return sorted(dirty)


_HYP_N = _HYP_G.num_vertices
_hyp_ids = st.integers(0, _HYP_N + 3)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CountingError as exc:
        return ("raised", str(exc))


@settings(max_examples=80, deadline=None)
@given(
    adds=st.lists(st.tuples(_hyp_ids, _hyp_ids), max_size=6),
    dels=st.lists(st.sampled_from(_PRESENT), max_size=4),
    strays=st.lists(st.tuples(st.integers(0, _HYP_N), _hyp_ids),
                    max_size=2),
    extra=st.integers(0, 2),
)
def test_spliced_edit_graph_matches_rebuild(adds, dels, strays, extra):
    """Raw ``edit_graph`` input — repeats, self loops, present inserts,
    re-inserted deletes, vertex growth, absent or reversed deletes —
    gives the rebuild's exact CSR or its exact error."""
    dels = dels + strays
    grow = _HYP_N + 4 + extra
    for num_vertices in (None, grow):
        want = _outcome(_rebuilt_edit_graph, _HYP_G, adds, dels,
                        num_vertices)
        got = _outcome(edit_graph, _HYP_G, adds, dels, num_vertices)
        assert got == want
        if isinstance(got, CSRGraph):
            assert got.fingerprint() == want.fingerprint()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from("+-"), _hyp_ids, _hyp_ids).filter(
        lambda e: e[1] != e[2]
    ),
    min_size=1, max_size=8,
))
def test_spliced_dag_and_dirty_roots_match_rebuild(edits):
    """The post-edit DAG spliced from the bound one equals
    ``directionalize`` of the edited graph, and the vectorized dirty
    set equals the per-edit set union."""
    rank = _HYP_BASE.rank
    adds, dels, _ = normalize_edits(_HYP_G, edits)
    new = edit_graph(_HYP_G, adds, dels)
    new_rank = extend_rank(rank, new.num_vertices)
    spliced = _edit_dag(_HYP_BASE.dag, new_rank, adds, dels)
    assert spliced.fingerprint() == directionalize(new, new_rank).fingerprint()
    dirty = dirty_roots(_HYP_G, new, new_rank, adds, dels)
    assert dirty.dtype == np.int64
    assert dirty.tolist() == _set_dirty_roots(_HYP_G, new, new_rank,
                                              adds, dels)


def test_bound_dag_is_spliced_unbound_is_rebuilt(tmp_path, g, monkeypatch):
    """A forest bound by its build splices its DAG; one loaded from
    ``.npz`` (no bound DAG) falls back to ``directionalize``."""
    import repro.counting.dynamic as dynamic

    calls = []
    real = dynamic.directionalize
    monkeypatch.setattr(dynamic, "directionalize",
                        lambda *a: calls.append(a) or real(*a))
    o = core_ordering(g)
    forest = build_forest(g, o)
    forest.apply_edits([("+", 0, 9), ("-", *map(int, g.edge_array()[0]))])
    assert calls == []
    path = tmp_path / "f.npz"
    build_forest(g, o).save(path)
    loaded = load_forest(path)
    loaded.apply_edits([("+", 0, 9)], graph=g, ordering=o)
    assert len(calls) == 1
    assert forest.dag == directionalize(forest.graph, forest.rank)


@needs_native
@pytest.mark.parametrize("members", [True, False])
@pytest.mark.parametrize("name,graph", GRAPHS, ids=IDS)
def test_native_apply_edits_matches_bigint(name, graph, members):
    """The compiled recompute patches the same forest as the Python
    walker, counters and reports included."""
    o = corpus_ordering(name, graph)
    forests = {
        kernel: SCTForest.build(graph, o, "remap", kernel, members=members)
        for kernel in ("bigint", "native")
    }
    for batch in edit_stream(name, graph):
        reports = {k: f.apply_edits(batch) for k, f in forests.items()}
        nat, ref = forests["native"], forests["bigint"]
        assert nat.descriptor == {**ref.descriptor, "kernel": "native"}
        _assert_same_forest(nat, SCTForest.build(
            reports["native"].graph, nat.rank, "remap", "native",
            members=members,
        ))
        assert np.array_equal(nat.held_n, ref.held_n)
        assert np.array_equal(nat.roots, ref.roots)
        if members:
            assert np.array_equal(nat.held_members, ref.held_members)
            assert np.array_equal(nat.pivot_members, ref.pivot_members)
        assert np.array_equal(nat.per_root_work, ref.per_root_work)
        assert np.array_equal(nat.per_root_memory, ref.per_root_memory)
        assert nat.counters.as_dict() == ref.counters.as_dict()
        assert (reports["native"].counters.as_dict()
                == reports["bigint"].counters.as_dict())
        assert np.array_equal(reports["native"].dirty_roots,
                              reports["bigint"].dirty_roots)


# ----------------------------------------------------------------------
# Edit model unit coverage
# ----------------------------------------------------------------------
def test_normalize_edits_last_op_wins_and_skips(g):
    u, v = map(int, g.edge_array()[0])
    au, av = next(
        (a, b)
        for a in range(g.num_vertices)
        for b in range(a + 1, g.num_vertices)
        if not g.has_edge(a, b)
    )
    adds, dels, skipped = normalize_edits(
        g,
        [
            ("+", au, av), ("+", av, au),      # dup, unordered
            ("-", u, v), ("+", u, v),          # cancels to present no-op
            ("+", u, v),                       # inserting present edge
            ("-", au + 100, av),               # deleting beyond |V|
        ],
    )
    assert adds == [(au, av)]
    assert dels == []
    assert skipped == 5


def test_normalize_rejects_malformed_edits(g):
    with pytest.raises(CountingError):
        normalize_edits(g, [("*", 0, 1)])
    with pytest.raises(CountingError):
        normalize_edits(g, [("+", 3, 3)])
    with pytest.raises(CountingError):
        normalize_edits(g, [("+", -1, 2)])
    with pytest.raises(CountingError):
        normalize_edits(g, [("+", 1)])


def test_edit_graph_grows_and_refuses_bad_deletes(g):
    n = g.num_vertices
    grown = edit_graph(g, [(n + 1, 0)])
    assert grown.num_vertices == n + 2
    assert grown.has_edge(n + 1, 0) and grown.degree(n) == 0
    absent = next(
        (a, b)
        for a in range(g.num_vertices)
        for b in range(a + 1, g.num_vertices)
        if not g.has_edge(a, b)
    )
    with pytest.raises(CountingError):
        edit_graph(g, [], [absent])
    with pytest.raises(CountingError):
        edit_graph(directionalize(g, core_ordering(g)), [(0, 5)])


def test_extend_rank_appends_new_vertices_in_id_order():
    rank = np.array([2, 0, 1])
    out = extend_rank(rank, 5)
    assert out.tolist() == [2, 0, 1, 3, 4]
    assert extend_rank(rank, 3) is rank or np.array_equal(
        extend_rank(rank, 3), rank
    )
    with pytest.raises(CountingError):
        extend_rank(rank, 2)


def test_dag_rank_reproduces_the_dag(g):
    o = core_ordering(g)
    dag = directionalize(g, o)
    rank = dag_rank(dag)
    assert directionalize(g, rank) == dag


def test_dirty_roots_covers_growth_and_both_sides(g):
    rank = np.asarray(core_ordering(g).rank)
    n = g.num_vertices
    new = edit_graph(g, [(n, 0)])
    dirty = dirty_roots(g, new, extend_rank(rank, n + 1), [(n, 0)])
    assert n in dirty.tolist()  # grown vertex always dirty
    # The lower-ranked endpoint of a deleted edge is dirty even though
    # the edge is gone from the new graph.
    u, v = map(int, g.edge_array()[0])
    gone = edit_graph(g, [], [(u, v)])
    dirty = dirty_roots(g, gone, rank, [], [(u, v)])
    low = u if rank[u] < rank[v] else v
    assert low in dirty.tolist()


def test_edits_digest_is_order_stable():
    a = edits_digest([(0, 1), (2, 3)], [(4, 5)])
    assert a == edits_digest([(0, 1), (2, 3)], [(4, 5)])
    assert a != edits_digest([(0, 1)], [(4, 5)])


def test_iter_batches_shapes():
    edits = [("+", 0, i) for i in range(1, 8)]
    assert [len(b) for b in iter_batches(edits, 3)] == [3, 3, 1]
    assert [len(b) for b in iter_batches(edits, None)] == [7]
    assert list(iter_batches([], 3)) == []
    with pytest.raises(CountingError):
        list(iter_batches(edits, 0))


# ----------------------------------------------------------------------
# Regression: the cache can never serve a stale forest
# ----------------------------------------------------------------------
def test_cache_rekeyed_after_edits(g):
    """apply_edits patches the cached object in place; the pre-edit
    graph must get a fresh build afterwards, and the post-edit graph
    must be served the patched object."""
    clear_forest_cache()
    o = core_ordering(g)
    forest = get_forest(g, o, "remap", "bigint")
    baseline = forest.count_all()
    report = forest.apply_edits([("+", 0, 1), ("+", 0, 2), ("+", 1, 2)])
    assert report.applied >= 1
    served = get_forest(g, o, "remap", "bigint")
    assert served is not forest
    assert served.count_all() == baseline
    again = get_forest(report.graph, forest.rank, "remap", "bigint")
    assert again is forest
    clear_forest_cache()


def test_mutated_graph_never_served_stale_fingerprint():
    """Fingerprints are memoized on the write-locked arrays; a forced
    in-place mutation (the only way to mutate a CSRGraph) must change
    the fingerprint and therefore the cache key."""
    # 4-cycle: 0-1-2-3-0
    g1 = from_edge_array(np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
    fp1 = g1.fingerprint()
    assert fp1 == graph_fingerprint(g1)
    assert g1.fingerprint() == fp1  # memo hit, same value
    clear_forest_cache()
    forest = get_forest(g1, core_ordering(g1), "remap", "bigint")
    assert forest.count(2) == 4
    # Degree-preserving in-place relabel: 4-cycle -> the other 4-cycle
    # (0-2-1-3-0).  Same indptr, every row still sorted and symmetric.
    g1.indices.setflags(write=True)
    g1.indices[:] = [2, 3, 2, 3, 0, 1, 0, 1]
    assert g1.fingerprint() != fp1  # writeable guard drops the memo
    served = get_forest(g1, core_ordering(g1), "remap", "bigint")
    assert served is not forest
    assert served.count(2) == 4
    g1.indices.setflags(write=False)
    clear_forest_cache()


def test_fingerprint_memo_matches_checkpoint_fingerprint(g):
    dag = directionalize(g, core_ordering(g))
    for graph in (g, dag):
        assert graph.fingerprint() == graph_fingerprint(graph)
    # Memoized second call returns the identical string object.
    assert g.fingerprint() is g.fingerprint()


def test_saved_forest_refuses_pre_edit_graph(tmp_path, g):
    forest = build_forest(g, core_ordering(g))
    forest.apply_edits([("+", 0, 1), ("+", 1, 3), ("+", 0, 3)])
    path = tmp_path / "edited.npz"
    forest.save(path)
    loaded = load_forest(path, forest.graph)
    assert loaded.count_all() == forest.count_all()
    with pytest.raises(CheckpointError):
        load_forest(path, g)  # stale: the pre-edit graph


# ----------------------------------------------------------------------
# Controller cooperation at dirty-root granularity
# ----------------------------------------------------------------------
_BIG_BATCH = [("+", i, (i + 5) % 26) for i in range(20)]


def test_budget_abort_is_all_or_nothing(tmp_path, g):
    forest = build_forest(g, core_ordering(g))
    before_arrays = forest.held_n.copy()
    before_desc = dict(forest.descriptor)
    ctl = RunController(Budget(max_nodes=1),
                        checkpoint_path=tmp_path / "ck.json",
                        checkpoint_every=1)
    with pytest.raises(BudgetExceededError):
        forest.apply_edits(_BIG_BATCH, controller=ctl)
    assert np.array_equal(forest.held_n, before_arrays)
    assert forest.descriptor == before_desc
    assert forest._edits_since_reorder == 0


@pytest.mark.parametrize("at_op", [1, 3])
def test_interrupted_edit_batch_resumes_bit_identical(tmp_path, g, at_op):
    path = tmp_path / "edits.ckpt"
    forest = build_forest(g, core_ordering(g))
    oracle = forest.copy()
    ctl = RunController(
        checkpoint_path=path,
        faults=FaultPlan(FaultSpec("interrupt", at_op=at_op)),
    )
    with pytest.raises(RunInterrupted):
        forest.apply_edits(_BIG_BATCH, controller=ctl)
    report = forest.apply_edits(
        _BIG_BATCH,
        controller=RunController(checkpoint_path=path, resume=True),
    )
    assert report.roots_recomputed == report.dirty_roots.size
    direct = oracle.apply_edits(_BIG_BATCH)
    assert direct.applied == report.applied
    _assert_same_forest(forest, oracle)
    rebuilt = SCTForest.build(report.graph, forest.rank, "remap",
                              forest.descriptor["kernel"])
    _assert_same_forest(forest, rebuilt)


def test_kernel_fault_falls_back_to_bigint(g):
    forest = build_forest(g, core_ordering(g), kernel="wordarray")
    ctl = RunController(
        degrade=True, faults=FaultPlan(FaultSpec("kernel", at_op=2))
    )
    report = forest.apply_edits(_BIG_BATCH[:8], controller=ctl)
    assert forest.descriptor["kernel"] == "bigint"
    assert forest.degraded_from == "wordarray"
    rebuilt = SCTForest.build(report.graph, forest.rank, "remap", "bigint")
    assert forest.count_all() == rebuilt.count_all()
    assert np.array_equal(forest.held_n, rebuilt.held_n)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def test_reorder_policy_matches_fresh_core_build(g):
    forest = build_forest(g, core_ordering(g))
    batch = [("+", 0, 9), ("+", 2, 11)]
    report = forest.apply_edits(batch, policy="reorder")
    assert report.reordered
    assert report.roots_recomputed == report.graph.num_vertices
    fresh = SCTForest.build(report.graph, core_ordering(report.graph),
                            "remap", "bigint")
    assert np.array_equal(forest.held_n, fresh.held_n)
    assert forest.count_all() == fresh.count_all()
    assert forest._edits_since_reorder == 0


def test_auto_policy_flips_at_the_ratio(g):
    forest = build_forest(g, core_ordering(g))
    small = forest.apply_edits([("+", 0, 9)], policy="auto")
    assert small.policy == "patch" and not small.reordered
    edges = [tuple(map(int, e)) for e in forest.graph.edge_array()]
    big = [("-", u, v) for u, v in edges[: len(edges) // 2]]
    flipped = forest.apply_edits(big, policy="auto", reorder_ratio=0.25)
    assert flipped.policy == "reorder" and flipped.reordered


def test_unknown_policy_rejected(g):
    forest = build_forest(g, core_ordering(g))
    with pytest.raises(CountingError):
        forest.apply_edits([("+", 0, 9)], policy="bogus")
    with pytest.raises(CountingError):
        forest.apply_edits([("+", 0, 9)], reorder_ratio=0.0)


def test_loaded_forest_needs_explicit_inputs(tmp_path, g):
    o = core_ordering(g)
    built = build_forest(g, o)
    path = tmp_path / "f.npz"
    built.save(path)
    loaded = load_forest(path)
    with pytest.raises(CountingError):
        loaded.apply_edits([("+", 0, 9)])
    report = loaded.apply_edits([("+", 0, 9)], graph=g, ordering=o)
    assert report.applied in (0, 1)
    rebuilt = SCTForest.build(report.graph, loaded.rank, "remap",
                              loaded.descriptor["kernel"])
    _assert_same_forest(loaded, rebuilt)


def test_edits_against_wrong_graph_refused(g):
    forest = build_forest(g, core_ordering(g))
    other = erdos_renyi(26, 0.22, seed=78)
    with pytest.raises(CountingError):
        forest.apply_edits([("+", 0, 9)], graph=other,
                           ordering=core_ordering(other))


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_edit_counters_recorded(g):
    from repro import obs

    forest = build_forest(g, core_ordering(g))
    with obs.collecting() as reg:
        report = forest.apply_edits([("+", 0, 9), ("+", 2, 11)])
        applied = reg.value("forest_edits_applied_total")
        dirty = reg.value("forest_roots_dirty_total")
        recomputed = reg.value("forest_roots_recomputed_total")
    assert applied == report.applied
    assert dirty == report.dirty_roots.size
    assert recomputed == report.roots_recomputed


def test_disabled_obs_costs_nothing_extra(g):
    from repro import obs

    assert not obs.get_registry().enabled
    forest = build_forest(g, core_ordering(g))
    forest.apply_edits([("+", 0, 9)])  # must not raise, must not record
    assert not obs.get_registry().enabled


# ----------------------------------------------------------------------
# Config + CLI plumbing
# ----------------------------------------------------------------------
def test_config_dynamic_knobs():
    assert PivotScaleConfig(dynamic="patch").dynamic == "patch"
    assert PivotScaleConfig().dynamic is None
    with pytest.raises(CountingError):
        PivotScaleConfig(dynamic="bogus")
    with pytest.raises(CountingError):
        PivotScaleConfig(reorder_ratio=0.0)


def test_edit_file_parsing(tmp_path):
    path = tmp_path / "edits.txt"
    path.write_text(
        "# comment\n"
        "+ 0 1\n"
        "\n"
        "- 2 3   # trailing comment\n"
        "+ 4 5\n"
    )
    assert read_edit_file(path) == [("+", 0, 1), ("-", 2, 3), ("+", 4, 5)]
    assert parse_edit_line("   ") is None
    with pytest.raises(CountingError):
        parse_edit_line("~ 1 2", 7)
    with pytest.raises(CountingError):
        parse_edit_line("+ one 2", 7)
    with pytest.raises(CountingError):
        parse_edit_line("+ 1", 7)


def test_cli_stream_counts_each_batch(tmp_path, capsys):
    from repro.cli import main

    g = erdos_renyi(20, 0.2, seed=3)
    el = tmp_path / "g.el"
    el.write_text(
        "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
    )
    edits = tmp_path / "edits.txt"
    edits.write_text("+ 0 1\n+ 0 2\n+ 1 2\n- 0 1\n")
    rc = main([
        "stream", "--edge-list", str(el), "--edits", str(edits),
        "-k", "3", "--batch-size", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("3-cliques:") == 3  # initial + 2 batches
    assert "batch 1:" in out and "batch 2:" in out
    assert "dirty" in out
    # The final reported count matches a from-scratch ground truth.
    final = edit_graph(g, [(0, 2), (1, 2)], [(0, 1)] if g.has_edge(0, 1)
                       else [])
    want = brute_force_count(final, 3)
    assert f"3-cliques: {want:,}" in out.splitlines()[-1]


def test_report_dataclass_shape(g):
    forest = build_forest(g, core_ordering(g))
    report = forest.apply_edits([])
    assert isinstance(report, EditReport)
    assert report.applied == 0 and report.policy == "patch"
    assert report.leaves_before == report.leaves_after == forest.num_leaves
