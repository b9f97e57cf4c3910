"""Graph traversal utilities: BFS and connected components.

Supporting substrate for dataset validation (the analogs should be
dominated by one giant component like their originals) and for users
composing PivotScale with standard graph analytics.  Both kernels are
level-synchronous and vectorized — the frontier expansion gathers whole
neighbor ranges per step, the same style as the GAP reference code the
paper starts from.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import sorted_unique
from repro.graph.csr import CSRGraph

__all__ = ["bfs_distances", "connected_components", "largest_component"]


def bfs_distances(g: CSRGraph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (-1 = unreachable)."""
    n = g.num_vertices
    if not 0 <= source < n:
        raise GraphFormatError(f"source {source} out of range [0, {n})")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        # Gather all neighbors of the frontier in one shot.
        starts = g.indptr[frontier]
        ends = g.indptr[frontier + 1]
        total = int((ends - starts).sum())
        if total == 0:
            break
        nbrs = np.concatenate(
            [g.indices[s:e] for s, e in zip(starts, ends)]
        )
        fresh = sorted_unique(nbrs[dist[nbrs] < 0])
        dist[fresh] = level
        frontier = fresh
    return dist


def connected_components(g: CSRGraph) -> np.ndarray:
    """Component label per vertex (labels are 0..c-1 by discovery)."""
    n = g.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    current = 0
    for v in range(n):
        if labels[v] >= 0:
            continue
        # BFS flood fill from v.
        labels[v] = current
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            nbrs = np.concatenate(
                [g.neighbors(int(u)) for u in frontier]
            ) if frontier.size else np.empty(0, dtype=np.int64)
            fresh = sorted_unique(nbrs[labels[nbrs] < 0]) if nbrs.size else nbrs
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels


def largest_component(g: CSRGraph) -> np.ndarray:
    """Vertex ids of the largest connected component (sorted)."""
    if g.num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    labels = connected_components(g)
    counts = np.bincount(labels)
    return np.flatnonzero(labels == int(np.argmax(counts)))
