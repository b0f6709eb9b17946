"""HEC-GNN: the heterogeneous edge-centric convolution of the paper.

Eq. (4)/(5):

.. math::

    h_v^{(k)} = \\sigma\\Big( W_V^{(k)} h_v^{(k-1)}
        + \\sum_{r \\in R} \\sum_{u \\in N_v^r} W_r^{(k)} W_E^{(k)} e_{u,v,r} \\Big)

The aggregation is *edge-centric*: messages are built from the edge feature
vectors (which carry the switching activities α of Eq. 1), projected first by
a global edge weight ``W_E`` (fitting the common ``V²·f`` term) and then by a
relation-specific weight ``W_r`` (fitting the relation-specific interconnect
capacitance ``C_r``), and summed into the sink node — a learned analogue of
``P_dyn = Σ α_i C_i V² f``.

Ablation switches (Table II) are honoured here:

* ``use_edge_features=False`` falls back to aggregating the *source node
  embeddings* through the same weights (node-centric aggregation),
* ``heterogeneous=False`` uses a single relation weight,
* ``directed=False`` is handled by the base class, which symmetrises the graph.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.base import GraphBatch, PowerGNN, num_relations
from repro.gnn.config import GNNConfig
from repro.graph.hetero_graph import RELATION_TYPES
from repro.nn.init import glorot_uniform, zeros_init
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor


class HECGNNConv(Module):
    """One heterogeneous edge-centric convolution layer."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        edge_dim: int,
        rng: np.random.Generator,
        config: GNNConfig,
        name: str = "hec",
    ) -> None:
        super().__init__()
        self.config = config
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.edge_dim = edge_dim
        # W_V: update of the node's own embedding from the previous layer.
        self.node_weight = Parameter(glorot_uniform(in_dim, out_dim, rng), name=f"{name}.W_V")
        self.bias = Parameter(zeros_init(out_dim), name=f"{name}.bias")
        # W_E: global edge projection shared by all relation types.
        message_in = edge_dim if config.use_edge_features else in_dim
        self.edge_weight = Parameter(
            glorot_uniform(max(message_in, 1), out_dim, rng), name=f"{name}.W_E"
        )
        # W_r: one weight matrix per relation type (or a single one).
        self.relation_weights = [
            Parameter(glorot_uniform(out_dim, out_dim, rng), name=f"{name}.W_r{r}")
            for r in range(num_relations(config))
        ]

    def forward(self, node_embeddings: Tensor, batch: GraphBatch) -> Tensor:
        # Fused affine kernel at inference (see repro.backend).
        updated = node_embeddings.linear(self.node_weight, self.bias)
        if batch.edge_index.shape[1] == 0:
            return updated.relu()

        if self.config.use_edge_features and self.edge_dim > 0:
            messages = batch.edge_features @ self.edge_weight
        else:
            source = node_embeddings.gather_rows(batch.edge_index[0])
            messages = source @ self.edge_weight

        # One projection + scatter per relation type, for training and
        # inference alike; the batch memoises each relation's edge ids and
        # destinations, so every layer and ensemble member reuses them.
        relations = num_relations(self.config)
        aggregated: Tensor | None = None
        for relation in range(relations):
            edge_ids = batch.relation_edge_ids(relation, relations)
            if edge_ids.size == 0:
                continue
            if edge_ids.size == batch.num_edges:
                relation_messages = messages @ self.relation_weights[relation]
            else:
                relation_messages = (
                    messages.gather_rows(edge_ids) @ self.relation_weights[relation]
                )
            destinations = batch.relation_destinations(relation, relations)
            summed = relation_messages.segment_sum(destinations, batch.num_nodes)
            aggregated = summed if aggregated is None else aggregated + summed

        if aggregated is not None:
            # Fused add+ReLU: the update/aggregation sum feeds straight into
            # the activation, so inference runs it as one kernel.
            return updated.add_relu(aggregated)
        return updated.relu()


class HECGNN(PowerGNN):
    """The full HEC-GNN power model (Fig. 3)."""

    def make_conv(
        self, in_dim: int, out_dim: int, rng: np.random.Generator, layer_index: int
    ) -> Module:
        return HECGNNConv(
            in_dim,
            out_dim,
            self.edge_feature_dim,
            rng,
            self.config,
            name=f"hec{layer_index}",
        )

    @property
    def relation_names(self) -> tuple[str, ...]:
        """The relation vocabulary this model distinguishes."""
        return RELATION_TYPES if self.config.heterogeneous else ("all",)
