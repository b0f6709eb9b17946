"""Shared GNN architecture: convolution stack, pooling, metadata branch, head.

Fig. 3 of the paper: graph data pass through three HEC-GNN convolution layers;
node embeddings from *every* layer are sum-pooled into the graph embedding
(a skip-connection-style readout, Eq. 6); global HLS metadata are embedded by
a one-layer MLP; the two embeddings are concatenated and a two-layer MLP
produces the power estimate (Eq. 7).  The baseline GNN models reuse exactly
this skeleton and only substitute their own convolution, so the comparison in
Table I isolates the aggregation scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import active_backend
from repro.gnn.config import GNNConfig
from repro.graph.hetero_graph import RELATION_TYPES, HeteroGraph
from repro.nn.layers import Dropout, Linear, MLP, Module, ReLU, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import spawn_rng


@dataclass
class GraphBatch:
    """Numpy views of a batched :class:`HeteroGraph` plus tensor wrappers.

    The batch memoises the per-relation edge ids and destinations: graph
    structure is immutable during inference, so the arrays computed by the
    first convolution layer of the first model are reused by every later
    layer — and, when a prepared batch is shared across ensemble members
    (see :meth:`PowerGNN.predict_prepared`), by every member.
    """

    node_features: Tensor
    edge_features: Tensor
    edge_index: np.ndarray
    edge_types: np.ndarray
    batch: np.ndarray
    metadata: Tensor
    num_nodes: int
    num_graphs: int
    _relation_edge_ids: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    _relation_destinations: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @staticmethod
    def from_graph(
        graph: HeteroGraph, num_relations: int | None = None
    ) -> "GraphBatch":
        """Wrap a (possibly packed) graph; optionally precompute bookkeeping.

        With ``num_relations`` given, the per-relation edge ids and
        destinations are materialised eagerly, so the returned batch can be
        shared across threads or serialised structurally without lazy-init
        races.
        """
        metadata = graph.metadata
        if metadata.ndim == 1:
            metadata = metadata.reshape(1, -1)
        batch = GraphBatch(
            node_features=Tensor(graph.node_features),
            edge_features=Tensor(graph.edge_features),
            edge_index=graph.edge_index,
            edge_types=graph.edge_types,
            batch=np.ascontiguousarray(graph.batch, dtype=np.int64),
            metadata=Tensor(metadata),
            num_nodes=graph.num_nodes,
            num_graphs=graph.num_graphs,
        )
        if num_relations is not None:
            batch.precompute(num_relations)
        return batch

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def relation_edge_ids(self, relation: int, num_relations: int) -> np.ndarray:
        """Edge ids of one relation type, memoised for the batch's lifetime."""
        key = (relation, num_relations)
        ids = self._relation_edge_ids.get(key)
        if ids is None:
            if num_relations == 1:
                ids = np.arange(self.num_edges, dtype=np.int64)
            else:
                ids = np.nonzero(self.edge_types == relation)[0]
            self._relation_edge_ids[key] = ids
        return ids

    def relation_destinations(self, relation: int, num_relations: int) -> np.ndarray:
        """Destination node ids of one relation's edges, memoised like the ids.

        Every convolution layer of every ensemble member scatter-adds into
        the same destinations, so the gather runs once per batch.
        """
        key = (relation, num_relations)
        destinations = self._relation_destinations.get(key)
        if destinations is None:
            edge_ids = self.relation_edge_ids(relation, num_relations)
            if edge_ids.size == self.num_edges:
                destinations = np.ascontiguousarray(self.edge_index[1], dtype=np.int64)
            else:
                destinations = self.edge_index[1][edge_ids].astype(np.int64, copy=False)
            self._relation_destinations[key] = destinations
        return destinations

    def precompute(self, num_relations: int) -> "GraphBatch":
        """Eagerly materialise all relation bookkeeping (thread-safe reads).

        After this, every lazily-memoised structure is populated, so
        concurrent readers only ever *read* the memo dicts.
        """
        for relation in range(num_relations):
            self.relation_edge_ids(relation, num_relations)
            self.relation_destinations(relation, num_relations)
        return self


class PowerGNN(Module):
    """Common skeleton of every power-estimation GNN."""

    def __init__(
        self,
        node_feature_dim: int,
        edge_feature_dim: int,
        metadata_dim: int,
        config: GNNConfig | None = None,
    ) -> None:
        super().__init__()
        self.config = config or GNNConfig()
        self.node_feature_dim = node_feature_dim
        self.edge_feature_dim = edge_feature_dim
        self.metadata_dim = metadata_dim
        rng = spawn_rng(self.config.seed, "model", type(self).__name__)
        self._rng = rng

        hidden = self.config.hidden_dim
        self.convs: list[Module] = []
        in_dim = node_feature_dim
        for layer in range(self.config.num_layers):
            self.convs.append(self.make_conv(in_dim, hidden, rng, layer))
            in_dim = hidden
        self.dropout = Dropout(self.config.dropout, rng)

        if self.config.use_metadata:
            # One fully connected layer followed by ReLU (Fig. 3).
            self.metadata_mlp: Module | None = Sequential(
                Linear(metadata_dim, hidden, rng, name="metadata"), ReLU()
            )
            head_in = hidden * 2
        else:
            self.metadata_mlp = None
            head_in = hidden
        # Two fully connected layers with ReLU in between (Eq. 7).
        self.head = MLP([head_in, hidden, 1], rng, name="head")
        # Damp the initial output scale: sum pooling over dozens of nodes makes
        # untrained predictions orders of magnitude larger than the power
        # targets (watts), which slows early MAPE optimisation considerably.
        final_linear = [m for m in self.head.modules() if isinstance(m, Linear)][-1]
        final_linear.weight.data = final_linear.weight.data * 0.02

    # ------------------------------------------------------------------ hooks

    def make_conv(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, layer_index: int
    ) -> Module:  # pragma: no cover - interface
        """Build one convolution layer; implemented by each model."""
        raise NotImplementedError

    # ---------------------------------------------------------------- forward

    def prepare_graph(self, graph: HeteroGraph) -> HeteroGraph:
        """Apply config-driven graph transformations (ablation switches)."""
        prepared = graph
        if not self.config.directed:
            prepared = prepared.undirected()
        if not self.config.heterogeneous:
            prepared = prepared.homogeneous()
        return prepared

    def forward(self, graph: HeteroGraph) -> Tensor:
        """Predict power for each graph in the (possibly batched) input."""
        return self.forward_batch(
            GraphBatch.from_graph(
                self.prepare_graph(graph), num_relations(self.config)
            )
        )

    def forward_batch(self, batch: GraphBatch) -> Tensor:
        """Forward pass on an already prepared :class:`GraphBatch`.

        Callers that reuse one batch across several models (ensemble members
        share identical graph transforms) can build it once with
        :meth:`prepare_graph` + :meth:`GraphBatch.from_graph` and amortise the
        batching and relation-bookkeeping cost.
        """
        embeddings = batch.node_features
        pooled_layers: list[Tensor] = []
        for conv in self.convs:
            embeddings = conv(embeddings, batch)
            embeddings = self.dropout(embeddings)
            pooled_layers.append(embeddings.segment_sum(batch.batch, batch.num_graphs))
        # Eq. 6: sum the pooled embeddings of every convolution layer.
        graph_embedding = pooled_layers[0]
        for pooled in pooled_layers[1:]:
            graph_embedding = graph_embedding + pooled

        if self.metadata_mlp is not None:
            metadata_embedding = self.metadata_mlp(batch.metadata)
            holistic = graph_embedding.concat(metadata_embedding, axis=1)
        else:
            holistic = graph_embedding
        prediction = self.head(holistic)
        return prediction.reshape(-1)

    # ---------------------------------------------------------------- predict

    def predict(
        self, graphs: list[HeteroGraph], batch_size: int | None = None
    ) -> np.ndarray:
        """Inference helper: predictions for a list of graphs, without autograd.

        With ``batch_size=None`` every graph runs through its own forward pass
        (the historical per-sample loop).  With a batch size, graphs are packed
        into block-diagonal mega-graphs of up to ``batch_size`` members and the
        whole pack runs one vectorised forward pass, which is substantially
        faster for small graphs while producing identical predictions.
        """
        self.eval()
        backend = active_backend()
        outputs = []
        with no_grad():
            if batch_size is None:
                for graph in graphs:
                    with backend.forward_scope():
                        outputs.append(self.forward(graph).numpy().reshape(-1))
            else:
                if batch_size < 1:
                    raise ValueError("batch_size must be >= 1")
                for start in range(0, len(graphs), batch_size):
                    packed = HeteroGraph.pack(graphs[start : start + batch_size])
                    batch = GraphBatch.from_graph(self.prepare_graph(packed))
                    with backend.forward_scope():
                        outputs.append(self.forward_batch(batch).numpy().reshape(-1))
        self.train()
        return np.concatenate(outputs) if outputs else np.zeros(0)

    def predict_prepared(self, batch: GraphBatch) -> np.ndarray:
        """Predictions for an already prepared batch (no autograd, eval mode).

        Runs inside one forward scope, so the pass counts once in the
        kernel tally.
        """
        self.eval()
        with no_grad(), active_backend().forward_scope():
            predictions = self.forward_batch(batch).numpy().reshape(-1)
        self.train()
        return predictions


def segment_mean(values: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregation helper shared by GraphSAGE.

    At inference (no gradient required through ``values``) the whole mean
    runs as the backend's fused ``segment_mean`` kernel; under autograd it
    composes the recorded segment-sum with a backend ``bincount`` for the
    occurrence counts (same integral counts as the historical ``np.add.at``
    accumulation, computed in one C pass).  Both spellings are the same
    arithmetic, so the results are bitwise-identical.
    """
    backend = active_backend()
    if not values.requires_grad:
        return Tensor(backend.segment_mean(values.data, index, num_segments))
    sums = values.segment_sum(index, num_segments)
    counts = backend.bincount(index, minlength=num_segments).astype(np.float64)
    counts[counts == 0] = 1.0
    return sums * Tensor((1.0 / counts).reshape(-1, 1))


def num_relations(config: GNNConfig) -> int:
    return len(RELATION_TYPES) if config.heterogeneous else 1
