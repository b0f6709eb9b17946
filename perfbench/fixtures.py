"""Deterministic fixtures of the benchmark, built once per source digest.

A fixture directory holds:

* ``catalog.json`` — every design point of the catalog (kernel, wire
  directives, directive key) in generation order;
* ``catalog.npz`` — the featurised catalog (``DatasetGenerator.featurise``
  output, labels included), the training workload's dataset;
* ``registry/`` — the serving artifact and the rollout artifacts, all with the
  default architecture (``PowerGearConfig()``: 6-member ensemble, hidden 48),
  distinct ensemble seeds and one short epoch of training: inference cost
  depends only on the architecture, so the artifacts need not be accurate;
* ``references.json`` — per artifact, its fingerprint and the in-process
  ``PowerGear.predict_batch`` answer for every catalog design;
* ``disk/`` — a disk tier holding the serving artifact's samples and
  predictions, written by the service's own cache path.

Runs work on fresh copies of the registry and the disk tier.  The one file a
run adds here is ``train-fingerprint.txt``: the first training run's fitted
fingerprint, which every later run of the same sources must reproduce.
"""

from __future__ import annotations

import fcntl
import os
import shutil
import time
from pathlib import Path

from common import SERVE_MODEL, WORK, Scale, source_digest, write_json


def rollout_names(scale: Scale) -> list[str]:
    return [f"rollout{index}" for index in range(1, scale.rollouts + 1)]


def ensure_fixtures(scale: Scale, log) -> Path:
    """Return the fixture directory of ``scale``, building it if it is missing."""
    target = WORK / "fixtures" / f"{scale.name}-{source_digest(scale)}"
    if (target / "complete").is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.parent / f".{target.name}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (target / "complete").is_file():
            staging = target.with_name(target.name + ".staging")
            shutil.rmtree(staging, ignore_errors=True)
            start = time.perf_counter()
            build(staging, scale, log)
            (staging / "complete").write_text("ok\n")
            shutil.rmtree(target, ignore_errors=True)
            os.replace(staging, target)
            log(f"fixtures built in {time.perf_counter() - start:.1f} s: {target}")
    return target


def build(dest: Path, scale: Scale, log) -> None:
    from repro import DatasetGenerator, PowerGear, PowerGearConfig
    from repro.gnn.ensemble import EnsembleConfig
    from repro.gnn.trainer import TrainingConfig
    from repro.graph.dataset import GraphDataset
    from repro.kernels.polybench import polybench_kernel
    from repro.runtime import RuntimeConfig
    from repro.runtime.http import directives_to_json
    from repro.serve import ModelRegistry, PowerEstimationService
    from repro.serve.service import EstimateRequest

    dest.mkdir(parents=True)
    generator = DatasetGenerator(scale.dataset_config())
    catalog: list[dict] = []
    samples = []
    points = []
    costs: list[float] = []
    for kernel in scale.kernels:
        spec = polybench_kernel(kernel, scale.kernel_size)
        directives_list = list(generator.design_space_for(spec))
        start = time.perf_counter()
        featurised = generator.featurise(kernel, directives_list)
        cost = (time.perf_counter() - start) / len(directives_list)
        for directives, sample in zip(directives_list, featurised):
            catalog.append(
                {
                    "kernel": kernel,
                    "directives": directives_to_json(directives),
                    "key": sample.directives,
                }
            )
            points.append((kernel, directives))
            costs.append(cost)
        samples.extend(featurised)
    log(f"featurised {len(samples)} catalog designs")
    write_json(dest / "catalog.json", catalog)
    GraphDataset(samples).save_npz(dest / "catalog.npz")

    registry = ModelRegistry(dest / "registry")
    subset = []
    for kernel in scale.kernels:
        subset += [s for s in samples if s.kernel == kernel][: scale.fixture_train_designs]
    references: dict[str, dict] = {}
    for index, name in enumerate([SERVE_MODEL, *rollout_names(scale)]):
        config = PowerGearConfig(
            training=TrainingConfig(epochs=1),
            ensemble=EnsembleConfig(seeds=(2 * index, 2 * index + 1)),
        )
        model = PowerGear(config).fit(subset)
        artifact = registry.save(model, name)
        references[name] = {
            "version": artifact.version,
            "fingerprint": artifact.fingerprint,
            "power": [float(value) for value in model.predict_batch(samples)],
        }
    log(f"trained {len(references)} artifacts")
    write_json(dest / "references.json", references)

    # The disk tier: the service's own cache path writes the samples and
    # predictions, so its layout is exactly what a serving replica leaves.
    service = PowerEstimationService(
        registry=registry,
        model_name=SERVE_MODEL,
        generator=generator,
        runtime=RuntimeConfig(persistent_cache_dir=dest / "disk"),
    )
    try:
        for sample, cost in zip(samples, costs):
            service.cache.put_sample(sample, cost_seconds=cost)
        responses = service.estimate_many(
            [EstimateRequest(kernel=kernel, directives=d) for kernel, d in points]
        )
    finally:
        service.close()
    expected = references[SERVE_MODEL]["power"]
    for response, power in zip(responses, expected):
        if not response.cached_features or abs(response.power - power) > 1e-9 * abs(power):
            raise RuntimeError("disk-tier fixture disagrees with the reference")
    log("wrote the disk tier")
