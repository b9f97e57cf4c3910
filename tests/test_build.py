"""Edge-array/adjacency builders: normalization and error handling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GraphFormatError
from repro.graph.build import (
    from_adjacency,
    from_edge_array,
    from_edge_list,
    induced_subgraph,
    sorted_unique,
)
from repro.graph.generators import complete_graph


def test_self_loops_dropped():
    g = from_edge_array(np.array([[0, 0], [0, 1], [2, 2]]))
    assert g.num_edges == 1
    assert not g.has_edge(2, 2)


def test_duplicate_edges_collapse():
    g = from_edge_array(np.array([[0, 1], [1, 0], [0, 1], [0, 1]]))
    assert g.num_edges == 1


def test_symmetrization():
    g = from_edge_array(np.array([[0, 1]]))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_num_vertices_override():
    g = from_edge_array(np.array([[0, 1]]), num_vertices=10)
    assert g.num_vertices == 10
    assert g.degree(9) == 0


def test_num_vertices_too_small_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_array(np.array([[0, 5]]), num_vertices=3)


def test_negative_ids_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_array(np.array([[-1, 2]]))


def test_bad_shape_rejected():
    with pytest.raises(GraphFormatError):
        from_edge_array(np.array([[0, 1, 2]]))


def test_empty_edge_array():
    g = from_edge_array(np.empty((0, 2), dtype=np.int64))
    assert g.num_vertices == 0
    g = from_edge_array(np.empty((0, 2), dtype=np.int64), num_vertices=4)
    assert g.num_vertices == 4


def test_from_edge_list_empty():
    g = from_edge_list([], num_vertices=3)
    assert g.num_vertices == 3 and g.num_edges == 0


def test_from_adjacency_one_direction_suffices():
    g = from_adjacency([[1, 2], [], []])
    assert g.has_edge(1, 0) and g.has_edge(2, 0)
    assert g.num_vertices == 3


def test_from_adjacency_matches_edge_list():
    a = from_adjacency([[1], [2], [0]])
    b = from_edge_list([(0, 1), (1, 2), (2, 0)])
    assert a == b


def test_induced_subgraph_complete():
    g = complete_graph(6)
    sub = induced_subgraph(g, np.array([1, 3, 5]))
    assert sub.num_vertices == 3
    assert sub.num_edges == 3  # K3


def test_induced_subgraph_relabeling_order():
    g = from_edge_list([(0, 1), (1, 2), (2, 3)])
    sub = induced_subgraph(g, np.array([2, 1]))
    # vertex 2 -> 0, vertex 1 -> 1; edge (1,2) survives as (1,0).
    assert sub.num_vertices == 2
    assert sub.has_edge(0, 1)


def test_induced_subgraph_duplicates_rejected():
    g = complete_graph(4)
    with pytest.raises(GraphFormatError):
        induced_subgraph(g, np.array([0, 0, 1]))


def test_induced_subgraph_empty_selection():
    g = complete_graph(4)
    sub = induced_subgraph(g, np.array([], dtype=np.int64))
    assert sub.num_vertices == 0


@settings(max_examples=200, deadline=None)
@given(a=hnp.arrays(
    dtype=st.sampled_from([np.int64, np.int32, np.uint8]),
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
    elements=st.integers(0, 30),
))
def test_sorted_unique_matches_np_unique(a):
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)
