"""Schedulers: conservation, balance, and the paper's sweep behavior."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParallelModelError
from repro.parallel.sched import (
    Assignment,
    CyclicScheduler,
    DynamicScheduler,
    StaticScheduler,
)

SCHEDULERS = [StaticScheduler, CyclicScheduler, DynamicScheduler]


@pytest.fixture
def skewed_work():
    """Power-law task sizes like real per-root counting work."""
    rng = np.random.default_rng(0)
    return rng.pareto(1.5, size=500) + 0.1


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_work_conservation(cls, skewed_work):
    a = cls().assign(skewed_work, 8)
    assert a.total == pytest.approx(skewed_work.sum())


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_makespan_at_least_mean(cls, skewed_work):
    a = cls().assign(skewed_work, 8)
    assert a.makespan >= skewed_work.sum() / 8 - 1e-9


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_single_thread_gets_everything(cls, skewed_work):
    a = cls().assign(skewed_work, 1)
    assert a.makespan == pytest.approx(skewed_work.sum())
    assert a.cv == 0.0


@pytest.mark.parametrize("cls", SCHEDULERS)
def test_more_threads_than_tasks(cls):
    a = cls().assign(np.array([1.0, 2.0]), 8)
    assert a.total == pytest.approx(3.0)
    assert a.makespan >= 2.0


def test_dynamic_beats_static_on_skew(skewed_work):
    d = DynamicScheduler().assign(skewed_work, 16)
    s = StaticScheduler().assign(skewed_work, 16)
    assert d.makespan <= s.makespan + 1e-9


def test_dynamic_near_perfect_balance(skewed_work):
    a = DynamicScheduler().assign(skewed_work, 16)
    # Greedy list scheduling: makespan <= mean + max task.
    assert a.makespan <= skewed_work.sum() / 16 + skewed_work.max() + 1e-9


def test_dynamic_cv_small_on_mild_skew():
    """The paper measures thread-time CV 0.03 at 64 threads."""
    rng = np.random.default_rng(1)
    work = rng.lognormal(0.0, 1.0, size=5000)
    a = DynamicScheduler().assign(work, 64)
    assert a.cv < 0.05


def test_cyclic_declusters_adjacent_hubs():
    work = np.zeros(100)
    work[:10] = 100.0  # hubs clustered at the front
    static = StaticScheduler().assign(work, 10)
    cyclic = CyclicScheduler().assign(work, 10)
    assert cyclic.makespan < static.makespan


def test_chunked_dynamic():
    work = np.ones(100)
    a = DynamicScheduler(chunk=10).assign(work, 4)
    assert a.total == pytest.approx(100.0)
    assert a.makespan <= 30.0


def test_assignment_properties():
    a = Assignment(loads=np.array([3.0, 1.0]))
    assert a.makespan == 3.0
    assert a.cv == pytest.approx(0.5)
    assert a.efficiency == pytest.approx(4.0 / 6.0)
    empty = Assignment(loads=np.array([]))
    assert empty.makespan == 0.0
    assert empty.cv == 0.0 and empty.efficiency == 1.0


def test_validation():
    with pytest.raises(ParallelModelError):
        StaticScheduler(chunk=0)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.array([1.0]), 0)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.array([-1.0]), 2)
    with pytest.raises(ParallelModelError):
        StaticScheduler().assign(np.ones((2, 2)), 2)


def test_empty_work():
    for cls in SCHEDULERS:
        a = cls().assign(np.array([]), 4)
        assert a.makespan == 0.0


# ------------------------------------------------- loop-form references
def _reference_dynamic(work, threads, chunk):
    """The per-chunk heappop/heappush loop the dynamic scheduler models."""
    heap = [(0.0, t) for t in range(threads)]
    heapq.heapify(heap)
    loads = np.zeros(threads, dtype=np.float64)
    for i in range(0, work.size, chunk):
        w = float(work[i : i + chunk].sum())
        load, t = heapq.heappop(heap)
        loads[t] = load + w
        heapq.heappush(heap, (loads[t], t))
    return loads


def _reference_cyclic(work, threads, chunk):
    """Chunks dealt round-robin, one slice sum at a time."""
    loads = np.zeros(threads, dtype=np.float64)
    for j, i in enumerate(range(0, work.size, chunk)):
        loads[j % threads] += work[i : i + chunk].sum()
    return loads


class _ReferenceDynamic(DynamicScheduler):
    def assign(self, work, threads):
        work = self._check(work, threads)
        return Assignment(loads=_reference_dynamic(work, threads, self.chunk))


_WORK = st.one_of(
    # Skewed real-valued work with exact zeros mixed in.
    st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), max_size=5000),
    # Small integers: many tied loads, so the thread-id tie-break decides.
    st.lists(st.integers(0, 3).map(float), max_size=5000),
)


@settings(max_examples=150, deadline=None)
@given(work=_WORK, threads=st.integers(1, 128), chunk=st.integers(1, 20))
def test_loads_bit_identical_to_loop_reference(work, threads, chunk):
    work = np.asarray(work, dtype=np.float64)
    for cls, ref in ((DynamicScheduler, _reference_dynamic),
                     (CyclicScheduler, _reference_cyclic)):
        loads = cls(chunk=chunk).assign(work, threads).loads
        expect = ref(work, threads, chunk)
        assert np.array_equal(loads, expect)
        assert loads.tobytes() == expect.tobytes()  # signs of zero too


@pytest.mark.parametrize("chunk", [8, 9, 128, 129, 300])
def test_chunk_sums_match_slice_sums(chunk):
    """Chunks past numpy's 8-way unrolled and 128-element pairwise
    blocks, with a ragged tail, still sum exactly as a slice does."""
    rng = np.random.default_rng(chunk)
    work = rng.lognormal(0.0, 3.0, size=7 * chunk + 5)
    sums = DynamicScheduler(chunk=chunk)._chunk_sums(work)
    expect = [work[i : i + chunk].sum() for i in range(0, work.size, chunk)]
    assert sums.tobytes() == np.asarray(expect).tobytes()


#: Modeled 64-thread counting seconds and thread-load CV of the default
#: (dynamic) scheduler, as the loop-form scheduler produced them.
PINNED_PHASES = [
    ("dblp", 6, 0.0011055007391960019, 0.4436827931631038),
    ("skitter", 6, 0.010700168800324964, 0.01714671860381186),
    ("orkut", 8, 0.0812273268585389, 0.01395338791757464),
]


@pytest.mark.parametrize("name, k, seconds, cv", PINNED_PHASES)
def test_counting_phase_pinned_on_analogs(name, k, seconds, cv):
    from repro.core import PivotScaleConfig, count_cliques
    from repro.datasets import get_spec, load

    g = load(name)
    eff = get_spec(name).effective_num_vertices
    phase = count_cliques(
        g, k, PivotScaleConfig(effective_num_vertices=eff)
    ).counting_phase
    ref = count_cliques(
        g, k, PivotScaleConfig(effective_num_vertices=eff,
                               scheduler=_ReferenceDynamic())
    ).counting_phase
    assert (phase.seconds, phase.cv) == (ref.seconds, ref.cv)
    assert phase.seconds == pytest.approx(seconds, rel=1e-12)
    assert phase.cv == pytest.approx(cv, rel=1e-12)
