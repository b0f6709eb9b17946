"""Tests for the on-disk cost-aware cache tier."""

import itertools
import multiprocessing
import os
import signal
import time

import pytest

from repro.graph.dataset import GraphSample
from repro.runtime import PersistentCache
from repro.runtime.cache import (
    INDEX_NAME,
    JOURNAL_NAME,
    MAX_QUEUED_LINES,
    OWNER_LOCK_NAME,
    SAMPLES_DIR,
)
from repro.serve.cache import InferenceCache, sample_fingerprint


@pytest.fixture()
def samples(random_graph_factory):
    """Six samples with identical array shapes, so on-disk sizes are ~equal
    and the byte-budget eviction tests are robust."""
    return [
        GraphSample(
            graph=random_graph_factory(num_nodes=10, num_edges=20, seed=100 + index),
            kernel="synthetic",
            directives=f"point{index}",
            total_power=1.0,
            dynamic_power=0.4,
            static_power=0.6,
            latency_cycles=100 + index,
        )
        for index in range(6)
    ]


def keyed(samples):
    return [(f"key{i:02d}", sample) for i, sample in enumerate(samples)]


def abandon(cache):
    """Drop an owner the way a crash does: its descriptors close (which
    releases the flock), nothing is compacted and queued lines are lost."""
    for fd in (cache._journal_fd, cache._lock_fd):
        if fd is not None:
            os.close(fd)


def journal_lines(directory) -> int:
    journal = directory / JOURNAL_NAME
    return journal.read_bytes().count(b"\n") if journal.exists() else 0


def entries(cache) -> dict:
    """What a replay must reproduce: per table, key -> (value, cost_seconds)."""
    return {
        table: {
            key: (entry.get("value"), entry["cost_seconds"])
            for key, entry in cache._index[table].items()
        }
        for table in ("samples", "predictions")
    }


def test_validates_configuration(tmp_path):
    with pytest.raises(ValueError):
        PersistentCache(tmp_path, max_bytes=0)
    with pytest.raises(ValueError):
        PersistentCache(tmp_path, max_predictions=0)


def test_sample_roundtrip_is_bitwise(tmp_path, samples):
    cache = PersistentCache(tmp_path / "store")
    key, sample = keyed(samples)[0]
    assert cache.get_sample(key) is None
    cache.put_sample(key, sample, cost_seconds=0.5)
    loaded = cache.get_sample(key)
    assert sample_fingerprint(loaded) == sample_fingerprint(sample)
    assert loaded.dynamic_power == sample.dynamic_power
    assert loaded.kernel == sample.kernel and loaded.directives == sample.directives
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["samples"] == 1
    assert stats["sample_bytes"] > 0


def test_store_survives_reopen(tmp_path, samples):
    directory = tmp_path / "store"
    first = PersistentCache(directory)
    for key, sample in keyed(samples):
        first.put_sample(key, sample, cost_seconds=1.0)
    first.put_prediction("pred:fp", 0.125, cost_seconds=0.1)
    first.close()

    second = PersistentCache(directory)
    assert len(second) == len(samples) + 1
    for key, sample in keyed(samples):
        assert sample_fingerprint(second.get_sample(key)) == sample_fingerprint(sample)
    assert second.get_prediction("pred:fp") == 0.125


def test_cost_aware_eviction_prefers_cheap_entries(tmp_path, samples):
    """Entries saving the fewest featurisation seconds are evicted first."""
    probe = PersistentCache(tmp_path / "probe")
    probe.put_sample("probe", samples[0], cost_seconds=1.0)
    per_entry = probe.total_sample_bytes()

    # Room for ~3 entries; costs make entry 1 cheapest, then 3, then 0, 2, 4.
    cache = PersistentCache(tmp_path / "store", max_bytes=int(per_entry * 3.5))
    costs = [5.0, 0.1, 9.0, 0.2, 7.0]
    for (key, sample), cost in zip(keyed(samples), costs):
        cache.put_sample(key, sample, cost_seconds=cost)
    assert cache.evictions == 2
    assert cache.get_sample("key01") is None  # cost 0.1: first out
    assert cache.get_sample("key03") is None  # cost 0.2: second out
    for survivor in ("key00", "key02", "key04"):
        assert cache.get_sample(survivor) is not None
    # An LRU policy would have kept key03 (recent) over key00 (old): the
    # cost-aware policy keeps the expensive old entry instead.


def test_eviction_breaks_cost_ties_by_recency(tmp_path, samples):
    probe = PersistentCache(tmp_path / "probe")
    probe.put_sample("probe", samples[0], cost_seconds=1.0)
    per_entry = probe.total_sample_bytes()

    cache = PersistentCache(tmp_path / "store", max_bytes=int(per_entry * 2.5))
    for (key, sample) in keyed(samples)[:3]:
        cache.put_sample(key, sample, cost_seconds=1.0)
    # Equal costs: the least recently touched entry (key00) goes first.
    assert cache.evictions == 1
    assert cache.get_sample("key00") is None
    assert cache.get_sample("key01") is not None


def test_prediction_store_caps_entries(tmp_path):
    cache = PersistentCache(tmp_path / "store", max_predictions=3)
    for index in range(5):
        cache.put_prediction(f"p{index}", float(index), cost_seconds=float(index))
    assert cache.evictions == 2
    assert cache.get_prediction("p0") is None  # lowest cost went first
    assert cache.get_prediction("p4") == 4.0


def test_corrupt_sample_file_is_dropped_not_served(tmp_path, samples):
    cache = PersistentCache(tmp_path / "store")
    key, sample = keyed(samples)[0]
    cache.put_sample(key, sample, cost_seconds=1.0)
    (tmp_path / "store" / SAMPLES_DIR / f"{key}.npz").write_bytes(b"not an npz")
    assert cache.get_sample(key) is None
    assert cache.stats()["samples"] == 0
    # And the store still works afterwards.
    cache.put_sample(key, sample, cost_seconds=1.0)
    assert cache.get_sample(key) is not None


def test_corrupt_index_starts_empty(tmp_path, samples):
    directory = tmp_path / "store"
    cache = PersistentCache(directory)
    key, sample = keyed(samples)[0]
    cache.put_sample(key, sample)
    (directory / INDEX_NAME).write_text("{broken json", encoding="utf-8")
    reopened = PersistentCache(directory)
    assert reopened.get_sample(key) is None


def test_corrupt_snapshot_discards_its_journal_and_is_replaced(tmp_path, samples):
    """The journal's records are relative to the snapshot: with the snapshot
    unreadable the owner starts empty and writes a fresh one, so its own
    later appends are replayed on the next open."""
    directory = tmp_path / "store"
    cache = PersistentCache(directory)
    cache.put_sample("key00", samples[0], cost_seconds=1.0)
    cache.sync()
    abandon(cache)
    (directory / INDEX_NAME).write_text("{broken json", encoding="utf-8")
    owner = PersistentCache(directory)
    assert len(owner) == 0
    assert not (directory / SAMPLES_DIR / "key00.npz").exists()
    owner.put_prediction("p", 1.0)
    owner.sync()
    abandon(owner)
    assert PersistentCache(directory).get_prediction("p") == 1.0


def test_index_entries_without_files_are_filtered_on_load(tmp_path, samples):
    directory = tmp_path / "store"
    cache = PersistentCache(directory)
    pairs = keyed(samples)[:2]
    for key, sample in pairs:
        cache.put_sample(key, sample)
    cache.close()
    (directory / SAMPLES_DIR / f"{pairs[0][0]}.npz").unlink()
    reopened = PersistentCache(directory)
    assert reopened.get_sample(pairs[0][0]) is None
    assert reopened.get_sample(pairs[1][0]) is not None


def test_index_writes_are_batched_with_a_backstop(tmp_path):
    """Mutations queue journal lines: nothing is appended before the first
    sync() or the MAX_QUEUED_LINES-th queued line, and after either all of
    it is.  Appends never rewrite the snapshot, and reads queue nothing."""
    directory = tmp_path / "store"
    cache = PersistentCache(directory)
    cache.put_prediction("first", 0.0)
    assert journal_lines(directory) == 0  # 1 mutation: queued
    cache.sync()
    assert journal_lines(directory) == 1
    for index in range(MAX_QUEUED_LINES - 1):
        cache.put_prediction(f"p{index}", float(index))
    assert journal_lines(directory) == 1  # one short of the backstop
    cache.put_prediction("backstop", 1.0)
    assert journal_lines(directory) == 1 + MAX_QUEUED_LINES  # backstop kicked in
    cache.put_prediction("late", 2.0)
    cache.get_prediction("late")
    cache.sync()  # explicit sync appends the pending mutation, not the read
    assert journal_lines(directory) == 2 + MAX_QUEUED_LINES
    cache.sync()
    assert journal_lines(directory) == 2 + MAX_QUEUED_LINES
    assert not (directory / INDEX_NAME).exists()
    stats = cache.stats()
    assert stats["journal_bytes"] == (directory / JOURNAL_NAME).stat().st_size
    assert stats["compactions"] == 0
    abandon(cache)
    reopened = PersistentCache(directory)
    assert reopened.get_prediction("late") == 2.0
    assert len(reopened) == 2 + MAX_QUEUED_LINES


def test_unsynced_sample_files_are_garbage_collected_on_open(tmp_path, samples):
    """Files the index does not know about cannot be served; reclaim them."""
    directory = tmp_path / "store"
    cache = PersistentCache(directory)
    cache.put_sample("key00", samples[0], cost_seconds=1.0)
    cache.sync()
    cache.put_sample("key01", samples[1], cost_seconds=1.0)  # never synced
    # Crash here: key01's npz exists but no index entry records it.  A dead
    # owner's flock releases with its process — simulate by dropping the fd
    # without the graceful close() (which would sync the index away).
    os.close(cache._lock_fd)
    reopened = PersistentCache(directory)
    assert not reopened.read_only  # the crashed owner's lock auto-released
    assert reopened.get_sample("key00") is not None
    assert reopened.get_sample("key01") is None
    assert not (directory / SAMPLES_DIR / "key01.npz").exists()


def _put_then_wait_to_be_killed(directory, samples, ready) -> None:
    cache = PersistentCache(directory)
    for key, sample in keyed(samples)[:3]:
        cache.put_sample(key, sample, cost_seconds=1.0)
    cache.put_prediction("p", 0.5, cost_seconds=0.1)
    cache.sync()
    cache.put_sample("unsynced", samples[3], cost_seconds=1.0)
    ready.send(True)
    time.sleep(60)


def test_sigkilled_owner_keeps_every_synced_entry(tmp_path, samples):
    """A real SIGKILL after a synced batch and one unsynced put: the reopened
    store serves the batch bit for bit and collects the unsynced file."""
    directory = tmp_path / "store"
    context = multiprocessing.get_context("fork")
    ready, child_end = context.Pipe()
    child = context.Process(
        target=_put_then_wait_to_be_killed, args=(directory, samples, child_end)
    )
    child.start()
    try:
        assert ready.poll(60), "the child never finished its writes"
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
    assert child.exitcode == -signal.SIGKILL
    assert (directory / SAMPLES_DIR / "unsynced.npz").is_file()  # written, not journaled

    reopened = PersistentCache(directory)
    assert not reopened.read_only
    for key, sample in keyed(samples)[:3]:
        assert sample_fingerprint(reopened.get_sample(key)) == sample_fingerprint(sample)
    assert reopened.get_prediction("p") == 0.5
    assert reopened.get_sample("unsynced") is None
    assert not (directory / SAMPLES_DIR / "unsynced.npz").exists()


def test_torn_journal_tail_is_dropped_and_cut_off(tmp_path, samples):
    """A half-written last record is skipped on replay, and the owner cuts it
    off so its own next append survives the next reopen."""
    directory = tmp_path / "store"
    journal = directory / JOURNAL_NAME
    cache = PersistentCache(directory)
    for key, sample in keyed(samples)[:3]:
        cache.put_sample(key, sample, cost_seconds=1.0)
    cache.put_prediction("p", 0.5)
    cache.sync()
    abandon(cache)
    good = journal.read_bytes()
    record = good.splitlines(keepends=True)[-1]
    journal.write_bytes(good + record[: len(record) // 2])

    reopened = PersistentCache(directory)
    for key, sample in keyed(samples)[:3]:
        assert sample_fingerprint(reopened.get_sample(key)) == sample_fingerprint(sample)
    assert reopened.get_prediction("p") == 0.5
    reopened.put_prediction("q", 0.25)
    reopened.sync()
    abandon(reopened)

    again = PersistentCache(directory)
    assert again.get_prediction("q") == 0.25
    assert len(again) == 5


def test_compaction_bounds_the_journal_and_replays_idempotently(
    tmp_path, samples, monkeypatch
):
    """Re-putting one key compacts whenever superseded records outnumber live
    entries; a reopen, and a crash between the snapshot's rename and the
    journal's truncate, both replay to the in-memory view."""
    directory = tmp_path / "store"
    journal = directory / JOURNAL_NAME
    truncated = []  # the journal as each compaction's truncate found it
    truncate = os.truncate

    def recording_truncate(path, length):
        truncated.append(journal.read_bytes())
        truncate(path, length)

    monkeypatch.setattr(os, "truncate", recording_truncate)
    cache = PersistentCache(directory)
    for key, sample in keyed(samples)[:3]:
        cache.put_sample(key, sample, cost_seconds=1.0)
    for index in range(4):
        cache.put_prediction(f"p{index}", float(index), cost_seconds=0.5)
    cache.sync()
    live = len(cache) + 1  # and "hot"
    longest = 0
    # Stop right after a sync that compacted.
    for round_ in itertools.count():
        compactions = cache.stats()["compactions"]
        cache.put_prediction("hot", float(round_), cost_seconds=float(round_))
        cache.sync()
        longest = max(longest, journal_lines(directory))
        if round_ >= 300 and cache.stats()["compactions"] > compactions:
            break
    assert cache.stats()["compactions"] >= 1
    assert longest <= 2 * live + 1
    assert journal.read_bytes() == b""
    expected = entries(cache)
    assert expected["predictions"]["hot"] == (float(round_), float(round_))
    snapshot = (directory / INDEX_NAME).read_bytes()
    abandon(cache)

    reopened = PersistentCache(directory)
    assert entries(reopened) == expected
    abandon(reopened)

    # Crash between the rename and the truncate: the new snapshot with the
    # journal it superseded.
    assert (directory / INDEX_NAME).read_bytes() == snapshot
    assert len(truncated) == cache.stats()["compactions"]
    journal.write_bytes(truncated[-1])
    crashed = PersistentCache(directory)
    assert entries(crashed) == expected


# ------------------------------------------------------ write-error contract


def test_put_sample_with_json_unsafe_extras_never_raises(tmp_path, samples):
    """Regression: the documented contract is that a cache tier must never
    turn a successful request into an error.  ``extras`` with non-string
    dict keys pass the per-value JSON-safety probe but make the ``.npz``
    metadata dump raise TypeError — which used to propagate out of
    ``put_sample`` and fail the request."""
    cache = PersistentCache(tmp_path / "store")
    poisoned = GraphSample(
        graph=samples[0].graph,
        kernel="synthetic",
        directives="poisoned",
        total_power=1.0,
        dynamic_power=0.4,
        static_power=0.6,
        latency_cycles=100,
        extras={("tuple", "key"): 1.0},
    )
    cache.put_sample("poisoned", poisoned, cost_seconds=1.0)  # must not raise
    assert cache.io_errors == 1
    assert cache.get_sample("poisoned") is None  # not cached, but not fatal
    assert not (tmp_path / "store" / SAMPLES_DIR / "poisoned.tmp.npz").exists()
    # The store still works for well-behaved samples afterwards.
    cache.put_sample("fine", samples[1], cost_seconds=1.0)
    assert cache.get_sample("fine") is not None


def test_put_sample_json_unsafe_extras_through_inference_cache(tmp_path, samples):
    """The service path (InferenceCache write-through) keeps the memory tier
    even when the disk tier cannot serialise the sample."""
    persistent = PersistentCache(tmp_path / "store")
    cache = InferenceCache(persistent=persistent)
    poisoned = GraphSample(
        graph=samples[0].graph,
        kernel="synthetic",
        directives="poisoned",
        total_power=1.0,
        dynamic_power=0.4,
        static_power=0.6,
        latency_cycles=100,
        extras={("tuple", "key"): 1.0},
    )
    cache.put_sample(poisoned, cost_seconds=0.5)  # must not raise
    assert cache.get_sample("synthetic", "poisoned") is not None  # memory hit
    assert persistent.io_errors == 1


# ------------------------------------------------------------- owner locking


def test_second_opener_degrades_to_read_only(tmp_path, samples):
    """Two caches on one directory: the second must not clobber the first."""
    directory = tmp_path / "store"
    owner = PersistentCache(directory)
    owner.put_sample("key00", samples[0], cost_seconds=1.0)
    owner.sync()
    owner.put_sample("key01", samples[1], cost_seconds=1.0)  # not yet synced
    journal = (directory / JOURNAL_NAME).read_bytes()

    with pytest.warns(RuntimeWarning, match="read-only"):
        reader = PersistentCache(directory)
    assert reader.read_only
    assert reader.stats()["read_only"]
    # Reads are served; the owner's unsynced sample file was NOT GC'd.
    assert reader.get_sample("key00") is not None
    assert (directory / SAMPLES_DIR / "key01.npz").is_file()
    # Writes are silent no-ops: no sample file, no index rewrite.
    reader.put_sample("key02", samples[2], cost_seconds=1.0)
    reader.put_prediction("p", 1.0)
    reader.sync()
    assert not (directory / SAMPLES_DIR / "key02.npz").exists()
    assert (directory / JOURNAL_NAME).read_bytes() == journal

    # The owner's view (including the unsynced entry) survives intact.
    owner.sync()
    owner.close()
    fresh = PersistentCache(directory)
    assert not fresh.read_only
    assert fresh.get_sample("key01") is not None
    assert fresh.get_prediction("p") is None


def test_close_releases_ownership(tmp_path, samples):
    directory = tmp_path / "store"
    first = PersistentCache(directory)
    first.put_sample("key00", samples[0], cost_seconds=1.0)
    first.close()
    first.close()  # idempotent
    assert first.read_only  # a closed cache never writes again
    # The lock file persists (unlink would race fresh claims); the flock is
    # released, so the next opener becomes the owner.
    second = PersistentCache(directory)
    assert not second.read_only
    assert second.get_sample("key00") is not None
    assert (directory / OWNER_LOCK_NAME).read_text() == str(os.getpid())


def test_crashed_owner_lock_is_taken_over(tmp_path, samples):
    """flock dies with its holder: a leftover lock file from a crashed owner
    never blocks the next opener (no staleness heuristics needed)."""
    directory = tmp_path / "store"
    directory.mkdir(parents=True)
    (directory / OWNER_LOCK_NAME).write_text("999999999", encoding="utf-8")
    cache = PersistentCache(directory)  # no warning expected: nobody holds it
    assert not cache.read_only
    cache.put_sample("key00", samples[0], cost_seconds=1.0)
    assert cache.get_sample("key00") is not None


def test_inference_cache_promotes_disk_hits_to_memory(tmp_path, samples):
    persistent = PersistentCache(tmp_path / "store")
    warm = InferenceCache(persistent=persistent)
    for sample in samples:
        warm.put_sample(sample, cost_seconds=0.5)
    warm.put_prediction("skey", "fp", 0.75, cost_seconds=0.01)
    persistent.close()

    # A fresh memory tier over the same disk store: every lookup misses memory
    # once, falls through to disk, and is promoted.
    cold = InferenceCache(persistent=PersistentCache(tmp_path / "store"))
    sample = samples[0]
    from_disk = cold.get_sample(sample.kernel, sample.directives)
    assert sample_fingerprint(from_disk) == sample_fingerprint(sample)
    assert cold.get_prediction("skey", "fp") == 0.75
    # Promotion: the second lookup is a pure memory hit (disk hit count stays).
    disk_hits = cold.persistent.hits
    assert cold.get_sample(sample.kernel, sample.directives) is not None
    assert cold.get_prediction("skey", "fp") == 0.75
    assert cold.persistent.hits == disk_hits
    assert "persistent" in cold.stats()
