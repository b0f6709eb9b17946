"""Tests for the multi-process featurisation pool and its deterministic merge."""

import pytest

from repro.flow.dataset_gen import (
    DatasetConfig,
    DatasetGenerator,
    FeaturisationTask,
    featurisation_worker_init,
    run_featurisation_task,
)
from repro.kernels.polybench import polybench_kernel
from repro.runtime import WorkerPool, shard_evenly
from repro.serve.cache import sample_fingerprint

POOL_CONFIG = DatasetConfig(kernel_size=6, designs_per_kernel=8)


@pytest.fixture(scope="module")
def atax_space():
    generator = DatasetGenerator(POOL_CONFIG)
    kernel = polybench_kernel("atax", POOL_CONFIG.kernel_size)
    return list(generator.design_space_for(kernel))


# ----------------------------------------------------------------- sharding


def test_shard_evenly_covers_range_contiguously():
    for count in (0, 1, 2, 5, 8, 13):
        for shards in (1, 2, 3, 4, 7):
            slices = shard_evenly(count, shards)
            assert len(slices) == min(shards, count) if count else not slices
            covered = [i for part in slices for i in range(part.start, part.stop)]
            assert covered == list(range(count))
            sizes = [part.stop - part.start for part in slices]
            assert all(size >= 1 for size in sizes)
            assert max(sizes) - min(sizes) <= 1 if sizes else True


def test_shard_evenly_is_deterministic_and_validates():
    assert shard_evenly(10, 4) == shard_evenly(10, 4)
    assert shard_evenly(10, 4) == [slice(0, 3), slice(3, 6), slice(6, 8), slice(8, 10)]
    with pytest.raises(ValueError):
        shard_evenly(-1, 2)
    with pytest.raises(ValueError):
        shard_evenly(4, 0)


# ------------------------------------------------------------- worker tasks


def test_worker_task_requires_initialised_worker(atax_space):
    import repro.flow.dataset_gen as dataset_gen

    saved = dataset_gen._WORKER_GENERATOR
    dataset_gen._WORKER_GENERATOR = None
    try:
        with pytest.raises(RuntimeError, match="not initialised"):
            run_featurisation_task(
                FeaturisationTask(kernel="atax", directives=tuple(atax_space[:1]))
            )
    finally:
        dataset_gen._WORKER_GENERATOR = saved


def test_worker_task_matches_generator_inline(atax_space):
    """The worker entry points reproduce the generator's featurisation exactly."""
    featurisation_worker_init(POOL_CONFIG)
    task = FeaturisationTask(kernel="atax", directives=tuple(atax_space[:3]))
    from_task = run_featurisation_task(task)
    direct = DatasetGenerator(POOL_CONFIG).featurise("atax", atax_space[:3])
    assert [sample_fingerprint(s) for s in from_task] == [
        sample_fingerprint(s) for s in direct
    ]


# -------------------------------------------------------------------- pool


def test_pool_validates_configuration():
    with pytest.raises(ValueError):
        WorkerPool(config=POOL_CONFIG, num_workers=1)


def test_pooled_featurisation_is_bitwise_identical_to_serial(atax_space):
    """Acceptance invariant: pooled featurisation == serial, bit for bit."""
    serial = DatasetGenerator(POOL_CONFIG).featurise("atax", atax_space)
    with WorkerPool(config=POOL_CONFIG, num_workers=2) as pool:
        pooled = pool.featurise("atax", atax_space)
        # A second batch reuses the warm workers (and their per-kernel state).
        again = pool.featurise("atax", atax_space[:3])
        assert pool.stats.batches == 2
        assert pool.stats.designs == len(atax_space) + 3
    assert len(pooled) == len(serial)
    for mine, theirs in zip(pooled, serial):
        assert sample_fingerprint(mine) == sample_fingerprint(theirs)
        assert mine.dynamic_power == theirs.dynamic_power
        assert mine.total_power == theirs.total_power
        assert mine.latency_cycles == theirs.latency_cycles
        assert mine.directives == theirs.directives
    assert [sample_fingerprint(s) for s in again] == [
        sample_fingerprint(s) for s in serial[:3]
    ]


def test_pool_featurise_empty_list_is_noop():
    with WorkerPool(config=POOL_CONFIG, num_workers=2) as pool:
        assert pool.featurise("atax", []) == []
        assert pool.stats.batches == 0


def test_closed_pool_refuses_work_and_close_is_idempotent(atax_space):
    pool = WorkerPool(config=POOL_CONFIG, num_workers=2)
    pool.close()
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.featurise("atax", atax_space[:2])
