"""Tests for the end-to-end flow: dataset generation, PowerGear API, evaluation."""

import numpy as np
import pytest

from repro.flow.dataset_gen import DatasetConfig, DatasetGenerator
from repro.flow.evaluation import (
    ABLATION_VARIANTS,
    EvaluationConfig,
    LeaveOneOutEvaluator,
    MODEL_BUILDERS,
    VivadoEstimatorAdapter,
)
from repro.flow.powergear import PowerGear, PowerGearConfig
from repro.gnn.config import GNNConfig
from repro.gnn.ensemble import EnsembleConfig
from repro.gnn.trainer import TrainingConfig


FAST_TRAINING = TrainingConfig(epochs=25, batch_size=16, learning_rate=3e-3, target="dynamic")
FAST_GNN = GNNConfig(hidden_dim=12, num_layers=2, dropout=0.0)


# --------------------------------------------------------------------------- dataset generation


def test_dataset_generator_labels_and_bookkeeping(small_dataset):
    assert len(small_dataset) == 20  # 10 designs x 2 kernels
    for sample in small_dataset:
        assert sample.total_power == pytest.approx(
            sample.dynamic_power + sample.static_power, rel=1e-6
        )
        assert sample.graph.num_nodes > 0
        assert sample.latency_cycles > 0
        assert sample.vivado_total_power > 0
        assert sample.vivado_flow_seconds > sample.powergear_flow_seconds
        assert "config_vector" in sample.extras


def test_dataset_generator_includes_baseline_point(small_dataset):
    for kernel in small_dataset.kernels():
        subset = small_dataset.by_kernel(kernel)
        assert any(s.is_baseline for s in subset)


def test_dataset_generator_is_reproducible():
    config = DatasetConfig(kernel_size=6, designs_per_kernel=4)
    a = DatasetGenerator(config).generate_kernel("atax")
    b = DatasetGenerator(config).generate_kernel("atax")
    assert [s.directives for s in a] == [s.directives for s in b]
    assert np.allclose(a.targets("dynamic"), b.targets("dynamic"))


def test_dataset_generator_design_points_vary_power(small_dataset):
    for kernel in small_dataset.kernels():
        dynamic = small_dataset.by_kernel(kernel).targets("dynamic")
        assert dynamic.max() / dynamic.min() > 1.3  # pragmas actually change power


# --------------------------------------------------------------------------- PowerGear API


def test_powergear_config_target_propagation():
    config = PowerGearConfig(target="total")
    assert config.training.target == "total"
    assert PowerGearConfig.paper("dynamic").training.epochs == 2400
    single = config.single_model()
    assert single.ensemble is None
    with pytest.raises(ValueError):
        PowerGearConfig(target="area")


def test_powergear_fit_predict_evaluate(small_dataset):
    train, test = small_dataset.leave_one_out("gemm")
    model = PowerGear(
        PowerGearConfig(target="dynamic", gnn=FAST_GNN, training=FAST_TRAINING, ensemble=None)
    )
    model.fit(train.samples)
    predictions = model.predict(test.samples)
    assert predictions.shape == (len(test),)
    assert np.all(predictions > 0)
    error = model.evaluate(test.samples)
    assert np.isfinite(error)


def test_powergear_with_small_ensemble(small_dataset):
    model = PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=FAST_GNN,
            training=TrainingConfig(epochs=10, batch_size=16, target="dynamic"),
            ensemble=EnsembleConfig(folds=2, seeds=(0,)),
        )
    )
    model.fit(small_dataset.samples)
    assert model.ensemble is not None
    assert len(model.ensemble.members) == 2
    assert model.predict(small_dataset.samples[:3]).shape == (3,)


def test_powergear_requires_fit(small_dataset):
    model = PowerGear()
    with pytest.raises(RuntimeError):
        model.predict(small_dataset.samples[:1])
    with pytest.raises(ValueError):
        model.fit(small_dataset.samples[:2])


# --------------------------------------------------------------------------- evaluation harness


def test_model_registries_cover_paper_tables():
    assert set(MODEL_BUILDERS) == {
        "powergear",
        "vivado",
        "hlpow",
        "gcn",
        "graphsage",
        "graphconv",
        "gine",
    }
    assert set(ABLATION_VARIANTS) == {
        "w/o opt.",
        "w/o e.f.",
        "w/o dir.",
        "w/o hetr.",
        "w/o md.",
        "sgl.",
        "prop.",
    }


def test_leave_one_out_evaluator_vivado_and_properties(small_dataset):
    config = EvaluationConfig(target="total", gnn=FAST_GNN, training=FAST_TRAINING, ensemble=None)
    evaluator = LeaveOneOutEvaluator(small_dataset, config)
    result = evaluator.evaluate_model("vivado")
    assert set(result.per_kernel_error) == {"atax", "gemm"}
    assert result.average_error > 0
    properties = evaluator.dataset_properties()
    assert properties["atax"]["num_samples"] == 10
    speedups = evaluator.runtime_speedups()
    assert all(value > 1.0 for value in speedups.values())


def test_leave_one_out_evaluator_gnn_variant(small_dataset):
    config = EvaluationConfig(
        target="dynamic", gnn=FAST_GNN, training=FAST_TRAINING, ensemble=None
    )
    evaluator = LeaveOneOutEvaluator(small_dataset, config)
    result = evaluator.evaluate_model("w/o md.", kernels=["gemm"])
    assert "gemm" in result.per_kernel_error
    assert np.isfinite(result.per_kernel_error["gemm"])


def test_leave_one_out_evaluator_unknown_model(small_dataset):
    evaluator = LeaveOneOutEvaluator(small_dataset)
    with pytest.raises(KeyError):
        evaluator.evaluate_model("transformer")
    with pytest.raises(ValueError):
        LeaveOneOutEvaluator(type(small_dataset)())


def test_vivado_adapter_rejects_static_target():
    with pytest.raises(ValueError):
        VivadoEstimatorAdapter("static")


# --------------------------------------------------------------------------- batched prediction


def small_powergear(ensemble: bool = True) -> PowerGear:
    return PowerGear(
        PowerGearConfig(
            target="dynamic",
            gnn=GNNConfig(hidden_dim=16, num_layers=2),
            training=TrainingConfig(epochs=6, batch_size=16),
            ensemble=EnsembleConfig(folds=2, seeds=(0,)) if ensemble else None,
        )
    )


def test_predict_batch_matches_predict_ensemble(random_sample_factory):
    samples = random_sample_factory(36, seed=1)
    model = small_powergear(ensemble=True).fit(samples[:24])
    test = samples[24:]
    per_sample = model.predict(test)
    batched = model.predict_batch(test)
    chunked = model.predict_batch(test, batch_size=5)
    assert np.allclose(per_sample, batched, atol=1e-8)
    assert np.allclose(per_sample, chunked, atol=1e-8)
    assert model.predict_batch([]).shape == (0,)


def test_predict_batch_matches_predict_single_model(random_sample_factory):
    samples = random_sample_factory(30, seed=2)
    model = small_powergear(ensemble=False).fit(samples[:22])
    test = samples[22:]
    assert np.allclose(model.predict(test), model.predict_batch(test), atol=1e-8)


def test_predict_batch_handles_ablation_transforms(random_sample_factory):
    """Batched inference must agree under the undirected / homogeneous ablations."""
    samples = random_sample_factory(28, seed=4)
    config = PowerGearConfig(
        target="dynamic",
        gnn=GNNConfig(
            hidden_dim=12, num_layers=2, directed=False, heterogeneous=False
        ),
        training=TrainingConfig(epochs=5, batch_size=16),
        ensemble=None,
    )
    model = PowerGear(config).fit(samples[:20])
    test = samples[20:]
    assert np.allclose(model.predict(test), model.predict_batch(test), atol=1e-8)
