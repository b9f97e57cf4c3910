"""NumPy uint64 word-array backend — vectorized intersect/popcount.

Rows live in one preallocated ``(d, words)`` uint64 matrix (``words =
ceil(d / 64)``), reused across roots per the paper's allocation-reuse
discipline (Sec. V-B).  The fused kernels do the paper's word-parallel
work with single NumPy passes instead of a Python-level scan:

* ``count_rows`` / ``pivot_select`` — broadcast ``rows & P`` over the
  whole candidate set at once, then popcount every word in one pass —
  the ``np.bitwise_count`` ufunc where available (NumPy >= 2.0), else a
  256-entry byte lookup table (one fancy-index + one reduction);
* ``pivot_select`` *emulates* the scalar scan's early exit: it finds
  the first perfect pivot in ascending local-id order and charges
  ``edge_sum`` only for the rows a scalar scan would have touched, so
  :class:`~repro.counting.counters.Counters` stay backend-invariant.

Masks cross the API boundary as Python big-ints (the recursion's
currency); conversions are single C-level ``int.to_bytes`` /
``int.from_bytes`` calls per kernel invocation, and single-row kernels
run in CPython big-int arithmetic over a cached mirror of the rows.
Word layout is little-endian, matching ``int.to_bytes(..., "little")``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import BitsetKernel, PivotChoice

__all__ = ["WordArrayKernel"]

#: popcount of every byte value — the byte-LUT fallback popcount.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: hardware popcount ufunc

    def _popcount_words(block: np.ndarray) -> np.ndarray:
        """Per-word popcount (uint8, same shape) of a uint64 block."""
        return np.bitwise_count(block)

else:  # pragma: no cover - exercised only on NumPy 1.x

    def _popcount_words(block: np.ndarray) -> np.ndarray:
        return _POPCOUNT8[block.view(np.uint8)].reshape(
            block.shape + (8,)
        ).sum(axis=-1, dtype=np.uint8)


def _popcount_rows(inter: np.ndarray) -> np.ndarray:
    """Per-row popcount of a (m, words) uint64 block."""
    return _popcount_words(inter).sum(axis=1, dtype=np.int64)


#: Below this candidate count, single-mask ``pivot_select`` runs the
#: scalar big-int scan: the NumPy path's fixed cost (mask unpack,
#: gather, argmax) only amortizes once the scan touches ~100 rows
#: (measured crossover at word counts 1-4 on 1-core x86).
_PIVOT_SCALAR_PC = 96


class _WordRows:
    """One root's adjacency rows as a (d, words) uint64 matrix view.

    ``ints`` mirrors each row as a Python big-int, filled by
    ``set_row``/``load_rows``: single-row kernels (``intersect_count``
    dominates the scalar branch loop) then run entirely in CPython
    big-int arithmetic with zero per-call ``tobytes`` conversion, while
    the batch kernels keep vectorizing over ``mat``.
    """

    __slots__ = ("mat", "d", "words", "nbytes_row", "ints")

    def __init__(self, mat: np.ndarray, d: int, words: int) -> None:
        self.mat = mat
        self.d = d
        self.words = words
        self.nbytes_row = words * 8
        self.ints: list[int] = [0] * d


class WordArrayKernel(BitsetKernel):
    """Word-array kernels (the NumPy fast path)."""

    name = "wordarray"

    def __init__(self) -> None:
        self._buf = np.zeros(0, dtype=np.uint64)

    # ------------------------------------------------------------------
    # row storage
    # ------------------------------------------------------------------
    def alloc_rows(self, d: int) -> _WordRows:
        words = max(1, (d + 63) >> 6)
        need = d * words
        if self._buf.size < need:
            self._buf = np.zeros(max(need, 2 * self._buf.size), dtype=np.uint64)
        mat = self._buf[:need].reshape(d, words)
        mat.fill(0)
        return _WordRows(mat, d, words)

    def set_row(self, rows: _WordRows, i: int, bits: np.ndarray) -> None:
        if len(bits) == 0:
            rows.mat[i].fill(0)
            rows.ints[i] = 0
            return
        flags = np.zeros(rows.words * 64, dtype=np.uint8)
        flags[bits] = 1
        packed = np.packbits(flags, bitorder="little")
        rows.mat[i] = packed.view(np.uint64)
        rows.ints[i] = int.from_bytes(packed.tobytes(), "little")

    def load_rows(
        self, rows: _WordRows, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        # One flat scatter + one packbits for the whole subgraph,
        # replacing d per-row zero/scatter/pack round-trips.
        d, width = rows.d, rows.words * 64
        if d == 0:
            return
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        lens = np.diff(indptr)
        flags = np.zeros(d * width, dtype=np.uint8)
        if indices.size:
            row_of = np.repeat(np.arange(d, dtype=np.int64), lens)
            flags[row_of * width + indices] = 1
        packed = np.packbits(flags.reshape(d, width), axis=1,
                             bitorder="little")
        rows.mat[:] = packed.view(np.uint64)
        nb = rows.nbytes_row
        blob = packed.tobytes()
        rows.ints = [
            int.from_bytes(blob[i * nb:(i + 1) * nb], "little")
            for i in range(d)
        ]

    def row_int(self, rows: _WordRows, i: int) -> int:
        return rows.ints[i]

    def num_rows(self, rows: _WordRows) -> int:
        return rows.d

    # ------------------------------------------------------------------
    # big-int mask unpacking
    # ------------------------------------------------------------------
    @staticmethod
    def _mask_words(rows: _WordRows, mask: int) -> np.ndarray:
        """``mask`` as a ``(words,)`` uint64 array."""
        return np.frombuffer(
            mask.to_bytes(rows.nbytes_row, "little"), dtype=np.uint64
        )

    @staticmethod
    def _mask_bits(rows: _WordRows, mask: int) -> np.ndarray:
        """Set-bit positions of ``mask``, ascending."""
        raw = np.frombuffer(
            mask.to_bytes(rows.nbytes_row, "little"), dtype=np.uint8
        )
        return np.flatnonzero(np.unpackbits(raw, bitorder="little"))

    # ------------------------------------------------------------------
    # fused kernels
    # ------------------------------------------------------------------
    def intersect(self, rows: _WordRows, i: int, mask: int) -> int:
        # Single-row ops: NumPy's per-call overhead (~us) swamps the
        # work on one row, so route through CPython big-int arithmetic
        # over the cached big-int mirror of the row.
        return rows.ints[i] & mask

    def intersect_count(
        self, rows: _WordRows, i: int, mask: int
    ) -> tuple[int, int]:
        r = rows.ints[i] & mask
        return r, r.bit_count()

    def row_accessor(self, rows: _WordRows):
        return rows.ints.__getitem__

    def count_rows(self, rows: _WordRows, mask: int) -> np.ndarray:
        if rows.d == 0:
            return np.zeros(0, dtype=np.int64)
        inter = rows.mat & self._mask_words(rows, mask)
        return _popcount_rows(inter)

    def intersect_count_sweep(
        self, rows: _WordRows, mask: int
    ) -> list[tuple[int, int]]:
        # Batched single-mask pass over the cached big-int rows: the
        # masks must be produced per row regardless, and at realistic
        # row widths a NumPy popcount pass measures *slower* than
        # scalar ``int.bit_count`` (it duplicates the ``&`` over the
        # matrix), so the win comes from dropping the per-row call
        # dispatch of the reference sweep, not from vectorizing.
        return [(r := row & mask, r.bit_count()) for row in rows.ints]

    def pivot_select(self, rows: _WordRows, P: int, pc: int) -> PivotChoice:
        if pc < _PIVOT_SCALAR_PC:
            # Small scans (most of the tree's nodes live here) stay in
            # CPython big-int arithmetic — NumPy's fixed dispatch
            # overhead dominates below the crossover.
            return self._pivot_scan_int(rows.ints, P, pc)
        Pw = self._mask_words(rows, P)
        cand = self._mask_bits(rows, P)
        inter = rows.mat[cand] & Pw
        cnts = _popcount_rows(inter)
        # Emulate the scalar scan: stop at the first perfect pivot,
        # first-occurrence tie-break otherwise (np.argmax is exactly
        # that), and charge only the rows a scalar scan would touch.
        perfect = np.flatnonzero(cnts == pc - 1)
        if perfect.size:
            pos = int(perfect[0])
            best_cnt = pc - 1
            edge_sum = int(cnts[: pos + 1].sum())
        else:
            pos = int(np.argmax(cnts))
            best_cnt = int(cnts[pos])
            edge_sum = int(cnts.sum())
        best_row = int.from_bytes(inter[pos].tobytes(), "little")
        return int(cand[pos]), best_row, best_cnt, edge_sum

    def _pivot_scan_int(self, ints: list[int], P: int, pc: int) -> PivotChoice:
        """The scalar big-int scan over the cached row mirror — the
        small-scan fast path (CPython beats NumPy dispatch here)."""
        best = -1
        best_cnt = -1
        best_row = 0
        edge_sum = 0
        scan = P
        while scan:
            low = scan & -scan
            r = ints[low.bit_length() - 1] & P
            c = r.bit_count()
            edge_sum += c
            if c > best_cnt:
                best_cnt = c
                best = low.bit_length() - 1
                best_row = r
                if c == pc - 1:
                    break  # perfect pivot: adjacent to all others
            scan ^= low
        return best, best_row, best_cnt, edge_sum
