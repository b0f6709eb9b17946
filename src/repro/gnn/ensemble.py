"""Ensemble learning strategy of the paper.

Section III-B: "we perform 10-fold cross-validation together with three
different random seeds to generate different training and validation sets for
model generation, and average all the output of trained models to get the
final prediction results."  :class:`EnsembleRegressor` implements exactly that
scheme on top of any :class:`~repro.gnn.base.PowerGNN` subclass, with the fold
and seed counts configurable (the benchmark defaults use fewer members so the
full leave-one-out sweep stays fast; ``EnsembleConfig.paper()`` restores the
published setting).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.gnn.base import GraphBatch, PowerGNN, num_relations
from repro.gnn.config import GNNConfig
from repro.gnn.trainer import Trainer, TrainingConfig
from repro.graph.dataset import GraphDataset, GraphSample
from repro.graph.hetero_graph import HeteroGraph


@dataclass(frozen=True)
class EnsembleConfig:
    """Cross-validation folds and seeds of the ensemble."""

    folds: int = 3
    seeds: tuple[int, ...] = (0, 1)

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("the ensemble needs at least two folds")
        if not self.seeds:
            raise ValueError("the ensemble needs at least one seed")

    @staticmethod
    def paper() -> "EnsembleConfig":
        return EnsembleConfig(folds=10, seeds=(0, 1, 2))

    @property
    def num_members(self) -> int:
        return self.folds * len(self.seeds)


@dataclass
class EnsembleMember:
    """One trained (fold, seed) member of the ensemble."""

    model: PowerGNN
    fold: int
    seed: int
    validation_error: float


#: Backwards-compatible alias (the class used to be module-private).
_EnsembleMember = EnsembleMember


def stack_member_predictions(models, batch: GraphBatch) -> np.ndarray:
    """Stacked per-model predictions for one prepared batch, in list order.

    The single shard unit of batched ensemble prediction: the serial
    :meth:`EnsembleRegressor.predict_members` runs it over all members, and
    each pooled-forward worker (:func:`repro.runtime.pool.run_forward_task`)
    runs it over its contiguous member slice — so concatenating shard stacks
    in member order rebuilds the serial stack bit for bit *by shared code*,
    not by parallel maintenance.
    """
    return np.stack([model.predict_prepared(batch) for model in models])


class EnsembleRegressor:
    """K-fold x seeds ensemble over a GNN model family."""

    def __init__(
        self,
        model_factory: Callable[[GNNConfig], PowerGNN],
        model_config: GNNConfig,
        training_config: TrainingConfig,
        ensemble_config: EnsembleConfig | None = None,
    ) -> None:
        self.model_factory = model_factory
        self.model_config = model_config
        self.training_config = training_config
        self.ensemble_config = ensemble_config or EnsembleConfig()
        self.members: list[EnsembleMember] = []

    # ------------------------------------------------------------------ fitting

    def fit(self, samples: list[GraphSample]) -> "EnsembleRegressor":
        """Train every (fold, seed) member on its own training/validation split."""
        if len(samples) < self.ensemble_config.folds:
            raise ValueError("not enough samples for the requested number of folds")
        dataset = GraphDataset(list(samples))
        self.members = []
        for seed in self.ensemble_config.seeds:
            folds = dataset.kfold_indices(self.ensemble_config.folds, seed=seed)
            for fold_index, (train_ids, valid_ids) in enumerate(folds):
                member_model_config = replace(self.model_config, seed=seed * 1009 + fold_index)
                member_training_config = replace(
                    self.training_config,
                    seed=seed * 1009 + fold_index,
                    validation_fraction=0.0,
                )
                model = self.model_factory(member_model_config)
                trainer = Trainer(member_training_config)
                train_samples = [dataset[i] for i in train_ids]
                valid_samples = [dataset[i] for i in valid_ids]
                trainer.fit(model, train_samples, validation_samples=valid_samples)
                validation_error = trainer.evaluate(model, valid_samples)
                self.members.append(
                    EnsembleMember(
                        model=model,
                        fold=fold_index,
                        seed=seed,
                        validation_error=validation_error,
                    )
                )
        return self

    # ---------------------------------------------------------------- predicting

    def predict(self, samples: list[GraphSample]) -> np.ndarray:
        """Average the member predictions (the paper's final prediction)."""
        if not self.members:
            raise RuntimeError("the ensemble has not been fitted")
        graphs = [s.graph for s in samples]
        predictions = np.stack([member.model.predict(graphs) for member in self.members])
        return predictions.mean(axis=0)

    def predict_members(self, batch: GraphBatch) -> np.ndarray:
        """All members' predictions for one prepared batch, stacked in order.

        Runs :func:`stack_member_predictions` — the same shard unit the
        pooled forward's workers execute per member slice — over the full
        ensemble.
        """
        if not self.members:
            raise RuntimeError("the ensemble has not been fitted")
        return stack_member_predictions(
            [member.model for member in self.members], batch
        )

    def iter_prepared_chunks(
        self, graphs: list[HeteroGraph], batch_size: int | None = None
    ):
        """Chunk, pack and ablation-prepare graphs exactly as the batched
        prediction path does, yielding ``(start, length, prepared_graph)``.

        The single source of truth for chunk boundaries and graph
        preparation: the serial :meth:`predict_batch` and the pooled forward
        (:class:`repro.runtime.pool.ForwardPool`) both consume this, which is
        what keeps their predictions bitwise-identical by construction
        instead of by parallel maintenance.
        """
        if not self.members:
            raise RuntimeError("the ensemble has not been fitted")
        chunk_size = len(graphs) if batch_size is None else max(1, batch_size)
        reference = self.members[0].model
        for start in range(0, len(graphs), chunk_size):
            chunk = graphs[start : start + chunk_size]
            yield start, len(chunk), reference.prepare_graph(HeteroGraph.pack(chunk))

    def predict_batch(
        self, samples: list[GraphSample], batch_size: int | None = None
    ) -> np.ndarray:
        """Batched ensemble prediction: one vectorised forward pass per member.

        Graphs are packed into a block-diagonal mega-graph which is *prepared*
        (ablation transforms) and wrapped into a :class:`GraphBatch` once, then
        shared by every member — all members are built from the same
        :class:`~repro.gnn.config.GNNConfig` (only the seed differs), so their
        graph transforms and relation bookkeeping are identical.
        """
        if not self.members:
            raise RuntimeError("the ensemble has not been fitted")
        if not samples:
            return np.zeros(0)
        graphs = [s.graph for s in samples]
        outputs = np.zeros(len(graphs))
        relations = num_relations(self.members[0].model.config)
        for start, length, prepared in self.iter_prepared_chunks(graphs, batch_size):
            batch = GraphBatch.from_graph(prepared, relations)
            outputs[start : start + length] = self.predict_members(batch).mean(axis=0)
        return outputs

    def validation_errors(self) -> list[float]:
        return [member.validation_error for member in self.members]
