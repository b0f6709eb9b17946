"""Tests for the heterogeneous graph container."""

import numpy as np
import pytest

from repro.graph.hetero_graph import HeteroGraph, RELATION_TYPES, relation_type_index


def test_relation_type_index_covers_all_pairs():
    assert relation_type_index(True, True) == 0
    assert relation_type_index(True, False) == 1
    assert relation_type_index(False, True) == 2
    assert relation_type_index(False, False) == 3
    assert len(RELATION_TYPES) == 4


def test_graph_shapes_and_degrees(random_graph_factory):
    graph = random_graph_factory(num_nodes=10, num_edges=20)
    assert graph.num_nodes == 10
    assert graph.num_edges == 20
    assert graph.node_feature_dim == 6
    assert graph.edge_feature_dim == 4
    assert graph.in_degrees().sum() == 20
    assert graph.out_degrees().sum() == 20


def test_graph_validation_rejects_inconsistencies():
    with pytest.raises(ValueError):
        HeteroGraph(
            node_features=np.zeros((2, 3)),
            edge_index=np.array([[0], [1]]),
            edge_features=np.zeros((2, 4)),  # two rows but one edge
            edge_types=np.array([0]),
            metadata=np.zeros(3),
            node_is_arithmetic=np.array([True, False]),
        )
    with pytest.raises(ValueError):
        HeteroGraph(
            node_features=np.zeros((2, 3)),
            edge_index=np.array([[0], [5]]),  # node 5 does not exist
            edge_features=np.zeros((1, 4)),
            edge_types=np.array([0]),
            metadata=np.zeros(3),
            node_is_arithmetic=np.array([True, False]),
        )


def test_undirected_doubles_edges_and_fixes_relations(random_graph_factory):
    graph = random_graph_factory(num_nodes=6, num_edges=9)
    symmetric = graph.undirected()
    assert symmetric.num_edges == 18
    # Reverse edges have relation types consistent with swapped endpoints.
    for position in range(9):
        src, dst = graph.edge_index[:, position]
        reverse_type = symmetric.edge_types[9 + position]
        assert reverse_type == relation_type_index(
            bool(graph.node_is_arithmetic[dst]), bool(graph.node_is_arithmetic[src])
        )


def test_without_edge_features_zeroes_only_edges(random_graph_factory):
    graph = random_graph_factory()
    stripped = graph.without_edge_features()
    assert np.allclose(stripped.edge_features, 0.0)
    assert np.allclose(stripped.node_features, graph.node_features)


def test_homogeneous_collapses_relations(random_graph_factory):
    graph = random_graph_factory()
    assert set(np.unique(graph.homogeneous().edge_types)) == {0}


def test_batching_offsets_and_metadata(random_graph_factory):
    graphs = [random_graph_factory(num_nodes=4 + i, seed=i) for i in range(3)]
    batch = HeteroGraph.batch_graphs(graphs)
    assert batch.num_graphs == 3
    assert batch.num_nodes == sum(g.num_nodes for g in graphs)
    assert batch.num_edges == sum(g.num_edges for g in graphs)
    assert batch.metadata.shape == (3, graphs[0].metadata_dim)
    # The batch vector assigns each node to its graph.
    counts = np.bincount(batch.batch)
    assert list(counts) == [g.num_nodes for g in graphs]
    # Edges stay within their graph after offsetting.
    boundaries = np.cumsum([0] + [g.num_nodes for g in graphs])
    for position in range(batch.num_edges):
        src, dst = batch.edge_index[:, position]
        graph_of_src = np.searchsorted(boundaries, src, side="right") - 1
        graph_of_dst = np.searchsorted(boundaries, dst, side="right") - 1
        assert graph_of_src == graph_of_dst


def test_batching_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        HeteroGraph.batch_graphs([])


def test_edges_of_type_mask(random_graph_factory):
    graph = random_graph_factory(num_edges=30)
    total = sum(graph.edges_of_type(r).sum() for r in range(4))
    assert total == graph.num_edges


def test_unbatch_inverts_batching(random_graph_factory):
    graphs = [random_graph_factory(num_nodes=5 + i, num_edges=9, seed=i) for i in range(3)]
    merged = HeteroGraph.batch_graphs(graphs)
    restored = merged.unbatch()
    assert len(restored) == len(graphs)
    for original, back in zip(graphs, restored):
        assert np.array_equal(original.node_features, back.node_features)
        assert np.array_equal(original.edge_index, back.edge_index)
        assert np.array_equal(original.edge_features, back.edge_features)
        assert np.array_equal(original.edge_types, back.edge_types)
        assert np.array_equal(
            original.metadata.reshape(-1), back.metadata.reshape(-1)
        )
