"""Cross-engine differential suite — the kernel layer's correctness net.

Forty seeded random graphs (R-MAT, Chung-Lu, planted-clique overlays)
are counted by every engine {SCT, Pivoter baseline, Arb-Count
enumeration} over every subgraph structure {dense, sparse, remap} and
every bitset-kernel backend registered *and runnable here* (bigint,
wordarray, and native where a C compiler works — an unavailable
optional backend is a skip, not a failure), for target-k
and all-k runs.  Every combination must return *exactly* the same
counts, anchored to the brute-force reference at k = 3 and 4; and the
instrumentation :class:`~repro.counting.counters.Counters` must be
bit-identical across backends, because the performance model may never
be able to tell which backend produced a run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.counting import (
    count_all_sizes,
    count_kcliques,
    count_kcliques_enumeration,
)
from repro.counting.pivoter import run_pivoter
from repro.kernels import KERNELS, available_kernels

from tests.corpus import GRAPHS as _GRAPHS
from tests.corpus import IDS as _IDS
from tests.corpus import ordering as _ordering
from tests.corpus import truth as _truth

STRUCTURES_ALL = ("dense", "sparse", "remap")
#: Every *runnable* registered backend auto-enrolls; see
#: test_registry_covers_backends for the check that nothing silently
#: drops out of the registry itself.
BACKENDS = tuple(available_kernels())


def test_registry_covers_backends():
    assert set(BACKENDS) <= set(KERNELS)
    assert {"bigint", "wordarray"} <= set(BACKENDS)
    assert "native" in KERNELS  # registered even when it cannot build


def test_suite_shape():
    assert len(_GRAPHS) == 40
    # The suite must exercise both sub-word and multi-word subgraphs.
    assert any(g.num_vertices > 16 for _, g in _GRAPHS)
    assert all(g.num_vertices <= 32 for _, g in _GRAPHS)


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_sct_all_structures_all_backends(name, g):
    o = _ordering(name, g)
    for k in (3, 4):
        expect = _truth(name, g, k)
        for structure in STRUCTURES_ALL:
            for backend in BACKENDS:
                r = count_kcliques(g, k, o, structure=structure,
                                   kernel=backend)
                assert r.count == expect, (
                    f"{name}: SCT {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )
                assert r.kernel == backend
                assert r.structure == structure


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_arbcount_all_structures_all_backends(name, g):
    o = _ordering(name, g)
    for k, structures in ((3, ("remap",)), (4, STRUCTURES_ALL)):
        expect = _truth(name, g, k)
        for structure in structures:
            for backend in BACKENDS:
                r = count_kcliques_enumeration(g, k, o, structure=structure,
                                               kernel=backend)
                assert r.count == expect, (
                    f"{name}: arbcount {structure}/{backend} k={k} "
                    f"got {r.count}, brute force {expect}"
                )


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_pivoter_baseline_both_backends(name, g):
    expect = _truth(name, g, 4)
    for backend in BACKENDS:
        run = run_pivoter(g, 4, kernel=backend)
        assert run.result.count == expect, f"{name}: pivoter/{backend}"
        assert run.result.structure == "dense"


@pytest.mark.parametrize("name,g", _GRAPHS, ids=_IDS)
def test_all_k_identical_across_combos(name, g):
    o = _ordering(name, g)
    reference = None
    for structure in STRUCTURES_ALL:
        for backend in BACKENDS:
            counts = count_all_sizes(g, o, structure=structure,
                                     kernel=backend).all_counts
            if reference is None:
                reference = counts
            else:
                assert counts == reference, (
                    f"{name}: all-k {structure}/{backend} diverged"
                )
    # Anchors: vertices, edges, and the brute-forced sizes.
    assert reference[1] == g.num_vertices
    assert reference[2] == g.num_edges
    for k in (3, 4):
        got = reference[k] if k < len(reference) else 0
        assert got == _truth(name, g, k)
    # Target-k and all-k must agree at every counted size.
    for k in range(1, len(reference)):
        assert reference[k] == count_kcliques(g, k, o).count


# ----------------------------------------------------------------------
# Counters consistency: the perf model must be backend-invariant
# (identical lookups, build_words, set-op words, tree shape).
# ----------------------------------------------------------------------
_COUNTER_GRAPHS = _GRAPHS[::5]  # every fifth graph, all three families


@pytest.mark.parametrize("name,g", _COUNTER_GRAPHS,
                         ids=[n for n, _ in _COUNTER_GRAPHS])
@pytest.mark.parametrize("structure", STRUCTURES_ALL)
def test_counters_backend_invariant(name, g, structure):
    o = _ordering(name, g)

    def runs(backend):
        return (
            count_kcliques(g, 4, o, structure=structure, kernel=backend),
            count_all_sizes(g, o, structure=structure, kernel=backend),
            count_kcliques_enumeration(g, 4, o, structure=structure,
                                       kernel=backend),
        )

    for ref, other in zip(runs("bigint"), runs("wordarray")):
        assert ref.counters.as_dict() == other.counters.as_dict(), (
            f"{name}/{structure}: counters differ between backends "
            f"(k={ref.k})"
        )
        assert np.array_equal(ref.per_root_work, other.per_root_work)
        assert np.array_equal(ref.per_root_memory, other.per_root_memory)
