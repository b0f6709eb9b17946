"""Tests for the GNN models: HEC-GNN, baselines, configs and forward passes."""

import numpy as np
import pytest

from repro.gnn.base import GraphBatch, num_relations, segment_mean
from repro.gnn.baseline_convs import GCNModel, GINEModel, GraphConvModel, GraphSAGEModel
from repro.gnn.config import GNNConfig
from repro.gnn.hecgnn import HECGNN
from repro.graph.hetero_graph import HeteroGraph
from repro.nn.losses import mape_loss
from repro.nn.tensor import Tensor, no_grad

MODEL_CLASSES = [HECGNN, GCNModel, GraphSAGEModel, GraphConvModel, GINEModel]


def test_gnn_config_validation_and_variants():
    with pytest.raises(ValueError):
        GNNConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        GNNConfig(dropout=1.5)
    config = GNNConfig()
    assert not config.without_edge_features().use_edge_features
    assert not config.without_directionality().directed
    assert not config.without_heterogeneity().heterogeneous
    assert not config.without_metadata().use_metadata
    unopt = config.unoptimised()
    assert not (unopt.use_edge_features or unopt.directed or unopt.heterogeneous or unopt.use_metadata)
    assert GNNConfig.paper().hidden_dim == 128


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_forward_output_shape(model_class, random_graph_factory):
    config = GNNConfig(hidden_dim=8, num_layers=2, dropout=0.0)
    model = model_class(6, 4, 5, config)
    single = model(random_graph_factory(seed=1))
    assert single.shape == (1,)
    batch = HeteroGraph.batch_graphs([random_graph_factory(seed=i) for i in range(4)])
    assert model(batch).shape == (4,)


@pytest.mark.parametrize("model_class", MODEL_CLASSES)
def test_backward_produces_gradients(model_class, random_graph_factory):
    config = GNNConfig(hidden_dim=8, num_layers=2, dropout=0.0)
    model = model_class(6, 4, 5, config)
    graph = HeteroGraph.batch_graphs([random_graph_factory(seed=i) for i in range(3)])
    loss = mape_loss(model(graph), np.array([0.4, 0.5, 0.6]))
    loss.backward()
    grads = [p.grad for p in model.parameters()]
    assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


def test_hecgnn_conv_uses_edge_features(random_graph_factory):
    graph = random_graph_factory(seed=0)
    config = GNNConfig(hidden_dim=8, num_layers=1, dropout=0.0)
    model = HECGNN(6, 4, 5, config)
    base = model(graph).numpy()
    # Zeroing the edge features must change an edge-centric model's output.
    altered = model(graph.without_edge_features()).numpy()
    assert not np.allclose(base, altered)


def test_hecgnn_without_edge_features_ignores_them(random_graph_factory):
    graph = random_graph_factory(seed=0)
    config = GNNConfig(hidden_dim=8, num_layers=1, dropout=0.0).without_edge_features()
    model = HECGNN(6, 4, 5, config)
    assert np.allclose(
        model(graph).numpy(), model(graph.without_edge_features()).numpy()
    )


def test_hecgnn_relation_weights_follow_heterogeneity():
    heterogeneous = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1))
    homogeneous = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1, heterogeneous=False))
    assert len(heterogeneous.convs[0].relation_weights) == 4
    assert len(homogeneous.convs[0].relation_weights) == 1
    assert heterogeneous.relation_names == ("A->A", "A->N", "N->A", "N->N")
    assert homogeneous.relation_names == ("all",)


@pytest.mark.parametrize("heterogeneous", [True, False])
def test_hecgnn_conv_is_equation_4_5(heterogeneous, random_graph_factory):
    """One layer equals a direct transcription of Eq. (4)/(5):
    ``h_v = relu(W_V h_v + b + sum_r sum_{u in N_v^r} W_r W_E e_uv)``, on a
    graph whose relation 2 has no edges, and the inference forward equals
    the autograd-recording one bit for bit."""
    base = random_graph_factory(num_nodes=9, num_edges=40, seed=8)
    graph = HeteroGraph(
        node_features=base.node_features,
        edge_index=base.edge_index,
        edge_features=base.edge_features,
        edge_types=np.where(base.edge_types == 2, 3, base.edge_types),
        metadata=base.metadata,
        node_is_arithmetic=base.node_is_arithmetic,
    )
    config = GNNConfig(
        hidden_dim=8, num_layers=1, dropout=0.0, heterogeneous=heterogeneous
    )
    conv = HECGNN(6, 4, 5, config).convs[0]
    conv.bias.data = np.random.default_rng(1).standard_normal(8)
    prepared = graph if heterogeneous else graph.homogeneous()
    batch = GraphBatch.from_graph(prepared, num_relations(config))
    if heterogeneous:
        assert batch.relation_edge_ids(2, 4).size == 0

    relations = graph.edge_types if heterogeneous else np.zeros(graph.num_edges)
    messages = graph.edge_features @ conv.edge_weight.data
    aggregated = np.zeros((graph.num_nodes, 8))
    for relation, weight in enumerate(conv.relation_weights):
        mask = relations == relation
        np.add.at(aggregated, graph.edge_index[1][mask], messages[mask] @ weight.data)
    expected = np.maximum(
        graph.node_features @ conv.node_weight.data + conv.bias.data + aggregated, 0.0
    )

    recorded = conv(batch.node_features, batch)
    assert recorded.requires_grad
    np.testing.assert_allclose(recorded.numpy(), expected, rtol=1e-12)
    with no_grad():
        inference = conv(batch.node_features, batch)
    assert inference.numpy().tobytes() == recorded.numpy().tobytes()


def test_metadata_branch_toggle(random_graph_factory):
    graph = random_graph_factory(seed=2)
    with_metadata = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1, dropout=0.0))
    without_metadata = HECGNN(
        6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1, dropout=0.0, use_metadata=False)
    )
    assert with_metadata.metadata_mlp is not None
    assert without_metadata.metadata_mlp is None
    # Changing the metadata changes the output only for the metadata-aware model.
    altered = HeteroGraph(
        node_features=graph.node_features,
        edge_index=graph.edge_index,
        edge_features=graph.edge_features,
        edge_types=graph.edge_types,
        metadata=graph.metadata * 10.0,
        node_is_arithmetic=graph.node_is_arithmetic,
    )
    assert not np.allclose(
        with_metadata(graph).numpy(), with_metadata(altered).numpy()
    )
    assert np.allclose(
        without_metadata(graph).numpy(), without_metadata(altered).numpy()
    )


def test_undirected_preparation(random_graph_factory):
    graph = random_graph_factory(seed=3)
    model = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1, directed=False))
    prepared = model.prepare_graph(graph)
    assert prepared.num_edges == 2 * graph.num_edges


def test_predict_is_deterministic_in_eval_mode(random_graph_factory):
    graph = random_graph_factory(seed=4)
    model = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=2, dropout=0.3))
    first = model.predict([graph])
    second = model.predict([graph])
    assert np.allclose(first, second)


def test_graph_batch_wrapper(random_graph_factory):
    graph = random_graph_factory(seed=5)
    batch = GraphBatch.from_graph(graph)
    assert batch.num_nodes == graph.num_nodes
    assert batch.metadata.shape == (1, graph.metadata_dim)


def test_segment_mean_helper():
    values = Tensor(np.array([[2.0], [4.0], [6.0]]))
    index = np.array([0, 0, 1])
    means = segment_mean(values, index, 3)
    assert np.allclose(means.data, [[3.0], [6.0], [0.0]])


def test_empty_edge_graph_still_works():
    graph = HeteroGraph(
        node_features=np.random.default_rng(0).random((4, 6)),
        edge_index=np.zeros((2, 0)),
        edge_features=np.zeros((0, 4)),
        edge_types=np.zeros(0),
        metadata=np.ones(5),
        node_is_arithmetic=np.array([True, False, True, False]),
    )
    for model_class in MODEL_CLASSES:
        model = model_class(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=1, dropout=0.0))
        assert model(graph).shape == (1,)


def test_graph_batch_relation_ids_are_memoised(random_graph_factory):
    graph = random_graph_factory(num_nodes=8, num_edges=20, seed=3)
    batch = GraphBatch.from_graph(graph)
    ids_first = batch.relation_edge_ids(1, 4)
    ids_second = batch.relation_edge_ids(1, 4)
    assert ids_first is ids_second
    assert np.array_equal(ids_first, np.nonzero(graph.edge_types == 1)[0])
    # A single-relation view covers every edge.
    assert np.array_equal(batch.relation_edge_ids(0, 1), np.arange(graph.num_edges))


def test_gnn_predict_batch_size_argument(random_graph_factory):
    graphs = [random_graph_factory(num_nodes=6 + i, num_edges=12, seed=i) for i in range(7)]
    net = HECGNN(6, 4, 5, GNNConfig(hidden_dim=8, num_layers=2))
    loop = net.predict(graphs)
    batched = net.predict(graphs, batch_size=3)
    assert np.allclose(loop, batched, atol=1e-8)
    with pytest.raises(ValueError):
        net.predict(graphs, batch_size=0)
