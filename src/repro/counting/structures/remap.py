"""Remapped subgraph structure — PivotScale's default (Fig. 4C).

Global vertex ids are remapped to the compact range ``[0, d(v))`` once,
when the first-level subgraph is built; all deeper recursion levels
reuse the local ids.  The index becomes a ``d``-sized direct array:
dense-structure access speed with sparse-structure memory.  The hash
cost is paid "only once rather than for every graph operation"
(Sec. V-B) — we charge that one remap pass in ``build_words``.
"""

from __future__ import annotations

from repro.counting.structures.base import (
    RootContext,
    SubgraphStructure,
    build_local_rows,
)

__all__ = ["RemapStructure"]


class RemapStructure(SubgraphStructure):
    """First-level-remapped subgraph (PivotScale (remap))."""

    name = "remap"
    lookup_weight = 1.0

    def charges(self, d, words):
        # The one-time remap pass: one (modeled) hash insertion per
        # member; afterwards rows are indexed by local id directly.
        return words + 1.2 * d, 8 * d + self.bitset_bytes(d)

    def build(self, v: int) -> RootContext:
        out = self.dag.neighbors(v)
        d = int(out.size)
        kernel = self.kernel
        rows, build_words = build_local_rows(self.graph, out, kernel)
        build_words, memory = self.charges(d, build_words)
        return RootContext(
            d=d,
            out=out,
            row=kernel.row_accessor(rows),
            lookup_weight=self.lookup_weight,
            memory_bytes=memory,
            build_words=build_words,
            kernel=kernel,
            rows=rows,
        )
