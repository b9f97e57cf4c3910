"""Property-based tests: every backend == big-int semantics.

The big-int backend is the semantic oracle; every operation of every
registered backend must round-trip against it bit-for-bit — including
the pivot argmax tie-breaks and the perfect-pivot early exit that make
the engines' :class:`~repro.counting.counters.Counters`
backend-invariant.  Widths deliberately straddle the 64-bit word
boundary (empty rows, 1-bit rows, 63/64/65, multi-word).

Backends enroll through :func:`repro.kernels.available_kernels`, so
``native`` is exercised exactly when a C compiler works here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PivotScaleConfig
from repro.errors import CountingError
from repro.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    BigIntKernel,
    WordArrayKernel,
    available_kernels,
    kernel_availability,
    resolve_kernel,
)

WIDTHS = [0, 1, 2, 7, 63, 64, 65, 100, 128, 130, 200]

#: Every backend that can actually run here; the differential suite
#: uses the same roster.
AVAILABLE = tuple(available_kernels())
#: Backends checked against the big-int oracle.
OTHERS = tuple(n for n in AVAILABLE if n != "bigint")


def _kern(name):
    return KERNELS[name]()


def _all_kernels():
    return [_kern(name) for name in AVAILABLE]


# ------------------------------------------------------------ strategies
@st.composite
def rows_and_mask(draw):
    """(d, row masks without self-bits, a candidate mask)."""
    d = draw(st.sampled_from([1, 2, 5, 17, 63, 64, 65, 90, 130]))
    masks = [
        draw(st.integers(min_value=0, max_value=(1 << d) - 1)) & ~(1 << i)
        for i in range(d)
    ]
    P = draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    return d, masks, P


def _pair(d, masks, other="wordarray"):
    bi, ot = BigIntKernel(), _kern(other)
    return (bi, bi.rows_from_ints(masks, d)), (ot, ot.rows_from_ints(masks, d))


# ------------------------------------------------------------ registry
def test_registry_and_resolve(monkeypatch):
    # Neutralize any ambient backend override (the CI oracle job runs
    # suites under REPRO_KERNEL=bigint).
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert set(KERNELS) == {"bigint", "wordarray", "native"}
    assert DEFAULT_KERNEL == "native"
    for name in AVAILABLE:
        cls = KERNELS[name]
        assert cls.name == name
        assert resolve_kernel(name).name == name
    inst = WordArrayKernel()
    assert resolve_kernel(inst) is inst
    # The default is native where it can run, else quietly bigint.
    assert resolve_kernel(None).name == (
        "native" if "native" in AVAILABLE else "bigint"
    )
    with pytest.raises(CountingError, match="registered backends"):
        resolve_kernel("avx512")
    # The unknown-kernel error names both the registry and what can
    # actually run here, so a typo is diagnosable from the message.
    with pytest.raises(CountingError, match="available here"):
        resolve_kernel("avx512")


def test_env_var_overrides_default(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "wordarray")
    assert resolve_kernel(None).name == "wordarray"
    default = DEFAULT_KERNEL if DEFAULT_KERNEL in AVAILABLE else "bigint"
    monkeypatch.setenv(KERNEL_ENV, "")
    assert resolve_kernel(None).name == default
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert resolve_kernel(None).name == default


def test_availability_reports_why():
    avail = kernel_availability()
    assert set(avail) == set(KERNELS)
    assert avail["bigint"] is None
    assert avail["wordarray"] is None
    assert set(AVAILABLE) == {n for n, why in avail.items() if why is None}


def test_numba_is_an_unknown_kernel(capsys):
    # "numba" is not a registered backend: every entry point rejects
    # it with its unknown-kernel error.
    from repro.cli import main

    with pytest.raises(CountingError, match="unknown kernel 'numba'"):
        resolve_kernel("numba")
    with pytest.raises(CountingError, match="unknown kernel 'numba'"):
        PivotScaleConfig(kernel="numba")
    with pytest.raises(SystemExit) as ei:
        main(["count", "--dataset", "skitter", "-k", "4",
              "--kernel", "numba"])
    assert ei.value.code == 2
    assert "invalid choice: 'numba'" in capsys.readouterr().err


def test_resolve_returns_fresh_instances():
    # Backends hold scratch buffers; sharing instances across engines
    # would alias row storage.
    assert resolve_kernel("wordarray") is not resolve_kernel("wordarray")


# ------------------------------------------------------------ round-trips
@pytest.mark.parametrize("d", WIDTHS)
def test_row_int_round_trip(d):
    rng = np.random.default_rng(d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        assert kern.num_rows(rows) == d
        for i in range(d):
            assert kern.row_int(rows, i) == masks[i]
            assert kern.row_accessor(rows)(i) == masks[i]


@pytest.mark.parametrize("d", WIDTHS)
def test_load_rows_matches_set_row(d):
    # The bulk CSR loader must land the exact rows the per-row path
    # does — including rebuilding any cached mirrors.
    rng = np.random.default_rng(1000 + d)
    masks = [
        int(rng.integers(0, 2**63)) % (1 << d) & ~(1 << i) if d else 0
        for i in range(d)
    ]
    bits = [np.flatnonzero([(m >> b) & 1 for b in range(d)]) for m in masks]
    indptr = np.zeros(d + 1, dtype=np.int64)
    if d:
        indptr[1:] = np.cumsum([len(b) for b in bits])
    indices = (
        np.concatenate(bits).astype(np.int64)
        if d and indptr[-1]
        else np.zeros(0, dtype=np.int64)
    )
    for kern in _all_kernels():
        rows = kern.alloc_rows(d)
        kern.load_rows(rows, indptr, indices)
        for i in range(d):
            assert kern.row_int(rows, i) == masks[i]
        # Loading over dirty storage must fully overwrite, not OR in.
        if d:
            kern.set_row(rows, 0, np.arange(d, dtype=np.int64))
            kern.load_rows(rows, indptr, indices)
            assert kern.row_int(rows, 0) == masks[0]


@pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
def test_empty_rows(d):
    for kern in _all_kernels():
        rows = kern.alloc_rows(d)
        for i in range(d):
            assert kern.row_int(rows, i) == 0
        assert list(kern.count_rows(rows, (1 << d) - 1)) == [0] * d
        # set then clear a row
        kern.set_row(rows, 0, np.array([d - 1], dtype=np.int64))
        assert kern.row_int(rows, 0) == 1 << (d - 1)
        kern.set_row(rows, 0, np.array([], dtype=np.int64))
        assert kern.row_int(rows, 0) == 0


def test_zero_width_rows():
    for kern in _all_kernels():
        rows = kern.alloc_rows(0)
        assert kern.num_rows(rows) == 0
        assert list(kern.count_rows(rows, 0)) == []


# ------------------------------------------------------------ op parity
@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_intersect_ops_match_bigint(other, data):
    d, masks, P = data
    (bi, rb), (ot, rw) = _pair(d, masks, other)
    assert list(bi.count_rows(rb, P)) == list(ot.count_rows(rw, P))
    for i in range(d):
        expect = masks[i] & P
        assert bi.intersect(rb, i, P) == expect
        assert ot.intersect(rw, i, P) == expect
        assert bi.intersect_count(rb, i, P) == (expect, expect.bit_count())
        assert ot.intersect_count(rw, i, P) == (expect, expect.bit_count())


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=60, deadline=None)
@given(data=rows_and_mask())
def test_intersect_count_sweep_matches_bigint(other, data):
    d, masks, P = data
    (bi, rb), (ot, rw) = _pair(d, masks, other)
    expect = [(m & P, (m & P).bit_count()) for m in masks]
    assert list(bi.intersect_count_sweep(rb, P)) == expect
    assert list(ot.intersect_count_sweep(rw, P)) == expect


@pytest.mark.parametrize("other", OTHERS)
@settings(max_examples=120, deadline=None)
@given(data=rows_and_mask())
def test_pivot_select_matches_bigint(other, data):
    d, masks, P = data
    pc = P.bit_count()
    if pc == 0:
        return
    (bi, rb), (ot, rw) = _pair(d, masks, other)
    assert bi.pivot_select(rb, P, pc) == ot.pivot_select(rw, P, pc)


def test_pivot_select_tie_break_is_lowest_id():
    # Two candidates with identical counts: the scalar scan keeps the
    # first maximum (ascending local id); the vectorized argmax must
    # break the tie identically.
    d = 70  # crosses a word boundary
    full = (1 << d) - 1
    masks = [full & ~(1 << i) for i in range(d)]  # complete graph K_d
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, full, d)
        assert best == 0  # every vertex ties; lowest id wins
        assert best_cnt == d - 1  # perfect pivot
        assert best_row == full & ~1
        assert edge_sum == d - 1  # scan stops at the first (perfect) row


def test_pivot_select_perfect_pivot_early_exit_accounting():
    # Row 2 is the first perfect pivot; the scan must charge rows 0-2
    # only, on both backends.
    d = 66
    sub = (1 << 5) - 1  # P = {0..4}
    masks = [0] * d
    masks[0] = 0b00010  # |row0 ∩ P| = 1
    masks[1] = 0b00101  # |row1 ∩ P| = 2
    masks[2] = 0b11011  # |row2 ∩ P| = 4 == pc-1 -> stop
    masks[3] = sub & ~(1 << 3)  # would also be perfect, never scanned
    masks[4] = 1 << 65  # out-of-P high word, never scanned
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, sub, 5)
        assert best == 2
        assert best_cnt == 4
        assert best_row == masks[2]
        assert edge_sum == 1 + 2 + 4


def test_pivot_select_respects_mask_outside_bits():
    # Bits of a row outside P must not leak into counts or best_row.
    d = 130
    masks = [((1 << d) - 1) & ~(1 << i) for i in range(d)]
    P = (1 << 3) | (1 << 64) | (1 << 129)
    for kern in _all_kernels():
        rows = kern.rows_from_ints(masks, d)
        best, best_row, best_cnt, edge_sum = kern.pivot_select(rows, P, 3)
        assert best == 3
        assert best_cnt == 2  # the other two candidates
        assert best_row == P & ~(1 << 3)


# ------------------------------------------------------------ buffers
def test_wordarray_buffer_reuse_does_not_corrupt_new_roots():
    # The word-array backend reuses one preallocated buffer across
    # alloc_rows calls; a later (smaller) allocation must start zeroed.
    kern = WordArrayKernel()
    big = kern.alloc_rows(130)
    for i in range(130):
        kern.set_row(big, i, np.arange(i + 1, dtype=np.int64))
    small = kern.alloc_rows(70)
    for i in range(70):
        assert kern.row_int(small, i) == 0
