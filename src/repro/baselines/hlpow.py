"""HL-Pow baseline: per-operation-type activity histograms + GBDT.

HL-Pow aligns features across designs by "encoding the activities of each type
of HLS operations into a histogram individually, concatenating histograms as
overall design features, and then training models to infer power".  Here the
histograms are computed from the constructed power graph: for every operation
type (opcode / buffer kind), the activation rates of the nodes of that type
are binned into a fixed-width histogram; the HLS report metadata (resources,
latency, clock and scaling factors) is appended, matching HL-Pow's use of
design-level features.  Crucially — and this is the paper's point — the
feature vector carries *no interconnect structure*: edges and their switching
activities are invisible to HL-Pow, which the paper gives as the reason it
trails PowerGear on dynamic power (12.67% vs 8.81% in its Table I).  This
simulated substrate does not reproduce that gap at the default benchmark
scale: there HL-Pow's dynamic-power error (6.09%) is slightly below
PowerGear's (6.15%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.gbdt import GBDTConfig, GradientBoostingRegressor, tune_gbdt
from repro.graph.dataset import GraphSample
from repro.graph.features import NODE_NUMERIC_FEATURES, NODE_TYPE_CATEGORIES, OPCODE_VOCABULARY
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class HLPowConfig:
    """Feature and training configuration of the HL-Pow reproduction."""

    histogram_bins: int = 8
    activation_rate_cap: float = 2.0
    tune_hyperparameters: bool = True
    validation_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be >= 2")
        if self.activation_rate_cap <= 0:
            raise ValueError("activation_rate_cap must be positive")


_NUM_ONEHOT = len(NODE_TYPE_CATEGORIES) + len(OPCODE_VOCABULARY)
_ACTIVATION_COLUMN = _NUM_ONEHOT + NODE_NUMERIC_FEATURES.index("activation_rate")
_SWITCHING_COLUMN = _NUM_ONEHOT + NODE_NUMERIC_FEATURES.index("overall_switching")


def hlpow_features(sample: GraphSample, config: HLPowConfig | None = None) -> np.ndarray:
    """HL-Pow feature vector of one design point.

    The node features of the (unscaled) power graph are used to recover, for
    every opcode, the activation rates of its nodes; one histogram per opcode
    is built and all histograms are concatenated, followed by the design-level
    metadata from the HLS report.
    """
    config = config or HLPowConfig()
    graph = sample.graph
    node_features = graph.node_features
    bins = np.linspace(0.0, config.activation_rate_cap, config.histogram_bins + 1)

    histograms: list[np.ndarray] = []
    opcode_block = node_features[:, len(NODE_TYPE_CATEGORIES) : _NUM_ONEHOT]
    activation = np.clip(node_features[:, _ACTIVATION_COLUMN], 0.0, config.activation_rate_cap)
    for opcode_index in range(len(OPCODE_VOCABULARY)):
        mask = opcode_block[:, opcode_index] > 0.5
        if mask.any():
            histogram, _ = np.histogram(activation[mask], bins=bins)
        else:
            histogram = np.zeros(config.histogram_bins)
        histograms.append(histogram.astype(float))

    metadata = np.asarray(graph.metadata, dtype=float).reshape(-1)
    switching_total = float(node_features[:, _SWITCHING_COLUMN].sum())
    extras = np.array([graph.num_nodes, switching_total, sample.latency_cycles], dtype=float)
    return np.concatenate([np.concatenate(histograms), metadata, np.log1p(extras)])


class HLPowModel:
    """The HL-Pow power model: histogram features regressed by a GBDT."""

    def __init__(self, config: HLPowConfig | None = None) -> None:
        self.config = config or HLPowConfig()
        self.model: GradientBoostingRegressor | None = None
        self.selected_config: GBDTConfig | None = None

    def featurise(self, samples: list[GraphSample]) -> np.ndarray:
        return np.stack([hlpow_features(sample, self.config) for sample in samples])

    def fit(self, samples: list[GraphSample], target: str = "dynamic") -> "HLPowModel":
        if len(samples) < 4:
            raise ValueError("HL-Pow needs at least four training samples")
        features = self.featurise(samples)
        targets = np.array([s.target(target) for s in samples])

        if self.config.tune_hyperparameters and len(samples) >= 10:
            rng = new_rng(self.config.seed)
            order = rng.permutation(len(samples))
            cut = max(1, int(round(len(samples) * self.config.validation_fraction)))
            valid_ids, train_ids = order[:cut], order[cut:]
            self.model, self.selected_config = tune_gbdt(
                features[train_ids],
                targets[train_ids],
                features[valid_ids],
                targets[valid_ids],
            )
            # Refit the selected configuration on the full training set.
            self.model = GradientBoostingRegressor(self.selected_config).fit(features, targets)
        else:
            self.selected_config = GBDTConfig()
            self.model = GradientBoostingRegressor(self.selected_config).fit(features, targets)
        return self

    def predict(self, samples: list[GraphSample]) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("HL-Pow model has not been fitted")
        return np.maximum(self.model.predict(self.featurise(samples)), 1e-9)
