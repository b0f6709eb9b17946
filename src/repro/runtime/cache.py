"""Persistent, cost-aware second cache tier for the inference cache.

The in-memory :class:`~repro.serve.cache.InferenceCache` dies with the
process, so every service restart re-pays featurisation for the whole working
set.  :class:`PersistentCache` is the disk tier underneath it: a
content-addressed store under one directory, keyed by the *same* addresses the
memory tier already uses (``content_key`` for featurisations,
``sample_key:model_fingerprint`` for predictions), so a restarted service
pointed at the same directory serves its warm set from disk with predictions
identical to the first run's — ``.npz`` serialisation round-trips the graph
arrays bit-for-bit.

Layout::

    <dir>/index.json            # snapshot: entry metadata + costs + logical recency
    <dir>/journal.jsonl         # one JSON line per put or removal since the snapshot
    <dir>/samples/<key>.npz     # one featurised GraphSample per entry
    <dir>/owner.lock            # the owner's advisory lock

Predicted powers are single floats and live in the index itself.

Eviction is **cost-aware, not LRU**: every sample entry records the
featurisation seconds a future hit saves, and when the store exceeds its byte
budget the entries with the *least seconds saved* go first (logical recency
breaks ties).  DSE traffic makes the difference: a frontier neighbourhood of
expensive-to-featurise designs stays resident even when a sweep of cheap
one-off designs floods the cache.

Durable index state is a snapshot plus an append-only journal — the
log-structured idea (Rosenblum & Ousterhout, TOCS 1992) at the scale of one
index — so a request batch's durable write costs bytes in proportion to the
batch, not to the index:

* every put queues one journal line carrying the whole entry, and every
  removal (an eviction, a dropped corrupt ``.npz``) one line naming the key.
  :meth:`PersistentCache.sync` (the service calls it once per request batch)
  appends the queued lines with one ``os.write`` on an ``O_APPEND``
  descriptor, and so does any mutation that brings the queue to
  ``MAX_QUEUED_LINES``.  A crash loses at most the last ``MAX_QUEUED_LINES``
  mutations' metadata; sample files no replayed entry names are
  garbage-collected on the next open;
* flush policy: nothing calls ``fsync``.  An append or a compaction is in the
  kernel's page cache once its call returns, so it survives the death of the
  process (SIGKILL, OOM kill), not the loss of the machine's power — a cache
  tier re-derives whatever that loses;
* reads never write: recency and hit counters live in memory and reach disk
  only with a compaction;
* opening loads the snapshot, then replays the journal in order and stops at
  the first line that does not parse or lacks its newline (a torn append).
  The owner truncates the journal to the last good byte, so its next append
  does not land behind the torn line;
* compaction writes the snapshot through a temp file and ``os.replace``, then
  truncates the journal.  It runs in :meth:`~PersistentCache.sync` only when
  superseded records outnumber live entries, and in
  :meth:`~PersistentCache.close`.  A crash between the rename and the truncate
  replays the old journal over the new snapshot; put records carry whole
  entries, so that replay yields the same entries.

Notes:

* only the JSON-safe subset of ``extras`` survives the disk round trip
  (heavyweight pipeline objects such as HLS reports are dropped, exactly as
  in :meth:`repro.graph.dataset.GraphDataset.save_npz`); the serving path
  never reads them;
* the directory has exactly one *owner* at a time, claimed by holding a
  kernel advisory lock (``flock``) on ``owner.lock``.  A second cache
  opened on the same directory degrades to **read-only** with a warning:
  it serves hits but never writes samples, never appends to or truncates
  the journal, never rewrites ``index.json`` and never garbage-collects —
  without this, two services sharing a directory would GC each other's
  freshly written (not yet synced) samples as strays and interleave each
  other's records.  ``flock`` is kernel-tracked per open file description,
  so a crashed owner's lock releases automatically (no stale-lock staleness
  probing, no takeover races) and two caches in one process still conflict
  correctly; :meth:`~PersistentCache.close` releases ownership.  The file's
  content (the owner's pid) is informational only, for the read-only
  warning.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import warnings
from pathlib import Path

from repro.graph.dataset import GraphDataset, GraphSample

PERSISTENT_FORMAT_VERSION = 1

INDEX_NAME = "index.json"
JOURNAL_NAME = "journal.jsonl"
SAMPLES_DIR = "samples"
OWNER_LOCK_NAME = "owner.lock"

#: Journal lines a mutation may leave queued in memory; the one that brings
#: the queue to this length appends it without waiting for ``sync()``.  This
#: is the crash bound: a crash loses at most this many mutations' metadata.
MAX_QUEUED_LINES = 64

_TABLES = ("samples", "predictions")


class PersistentCache:
    """On-disk content-addressed sample/prediction store with cost-aware eviction."""

    def __init__(
        self,
        directory: str | Path,
        *,
        max_bytes: int = 256 * 1024 * 1024,
        max_predictions: int = 1_000_000,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if max_predictions < 1:
            raise ValueError("max_predictions must be >= 1")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.max_predictions = max_predictions
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.io_errors = 0
        self.journal_bytes = 0
        self.compactions = 0
        self.read_only = False
        self._owns_lock = False
        self._lock_fd: int | None = None
        self._journal_fd: int | None = None
        #: Bytes of whole records in the journal file (owner's view).
        self._journal_size = 0
        #: Journal lines not yet appended.
        self._queued: list[str] = []
        #: Records a replay reads: snapshot entries + journal lines, queued
        #: ones included.  Those beyond the live entries are superseded.
        self._records = 0
        self._acquire_ownership()
        self._index = self._open_store()

    # --------------------------------------------------------------- ownership

    def _acquire_ownership(self) -> None:
        """Claim the directory's advisory owner lock, or degrade to read-only.

        Ownership gates every destructive operation (sample writes, journal
        appends and truncation, compaction, eviction, stray GC): exactly one
        process may mutate the store, so concurrent openers can still *read*
        the warm set without clobbering the owner's writes.  The claim is a
        non-blocking ``flock`` held for the cache's lifetime: kernel-tracked,
        so a crashed owner's lock releases automatically (no staleness
        heuristics, no delete-and-reclaim races — at most one open file
        description holds it) and the never-unlinked lock file cannot be
        swapped out from under a holder.
        """
        lock_path = self.directory / OWNER_LOCK_NAME
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
        except OSError:
            self.io_errors += 1
            self._degrade_to_read_only("its directory is not writable")
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            # Locked by a live owner — possibly this very process, through
            # another cache on the same directory (flock conflicts are per
            # open file description, so same-process openers conflict too).
            owner = self._read_lock_pid(lock_path)
            os.close(fd)
            self._degrade_to_read_only(
                f"it is owned by live process {owner}" if owner
                else "it is owned by another live opener"
            )
            return
        try:
            # Informational only (read-only warnings name the owner); the
            # flock itself is the claim.
            os.ftruncate(fd, 0)
            os.write(fd, str(os.getpid()).encode("utf-8"))
        except OSError:
            self.io_errors += 1
        self._lock_fd = fd
        self._owns_lock = True

    @staticmethod
    def _read_lock_pid(lock_path: Path) -> int:
        try:
            return int(lock_path.read_text(encoding="utf-8").strip() or "0")
        except (OSError, ValueError):
            return 0

    def _degrade_to_read_only(self, reason: str) -> None:
        self.read_only = True
        warnings.warn(
            f"persistent cache at {self.directory} opened read-only because "
            f"{reason}: hits are served, but nothing is written, evicted or "
            "garbage-collected",
            RuntimeWarning,
            stacklevel=4,
        )

    def close(self) -> None:
        """Compact the index, release ownership, become read-only.

        The compaction folds the journal, the queued lines and the in-memory
        recency into the snapshot.  Idempotent.  After close the cache still
        serves reads (a closed service keeps answering on its degraded path)
        but never writes — the released directory may already belong to
        another process.
        """
        with self._lock:
            if not self.read_only:
                self._compact()
            # Closing the lock fd releases the flock; the lock file itself
            # stays (unlink-and-recreate would reopen the two-owner race this
            # lock exists to prevent).
            fds = (self._journal_fd, self._lock_fd)
            self._journal_fd = self._lock_fd = None
            for fd in fds:
                if fd is not None:
                    try:
                        os.close(fd)
                    except OSError:
                        self.io_errors += 1
            self._owns_lock = False
            self.read_only = True

    # ----------------------------------------------------------------- samples

    def get_sample(self, key: str) -> GraphSample | None:
        """Load one featurised sample from disk (``None`` on miss)."""
        with self._lock:
            entry = self._index["samples"].get(key)
            if entry is None:
                self.misses += 1
                return None
            try:
                sample = GraphDataset.load_npz(self._sample_path(key)).samples[0]
            except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError):
                # A corrupt or missing file is dropped, never served.
                self._remove("samples", key)
                self._append_if_full()
                self.misses += 1
                return None
            entry["last_used"] = self._tick()
            entry["hits"] = entry.get("hits", 0) + 1
            self.hits += 1
            return sample

    def put_sample(self, key: str, sample: GraphSample, cost_seconds: float = 0.0) -> None:
        """Write one sample through to disk and evict down to the byte budget.

        Failures degrade gracefully: the entry is simply not cached — a cache
        tier must never turn a successful request into an error.  That covers
        disk trouble (``OSError``: full disk, permissions) *and*
        serialisation trouble (``ValueError``/``TypeError``: ``extras``
        payloads the ``.npz`` JSON sidecar cannot encode, e.g. non-string
        dict keys that slip past the per-value JSON-safety probe).
        """
        with self._lock:
            if self.read_only:
                return
            path = self._sample_path(key)
            staging = path.with_suffix(".tmp.npz")
            try:
                samples_dir = self.directory / SAMPLES_DIR
                samples_dir.mkdir(parents=True, exist_ok=True)
                GraphDataset([sample]).save_npz(staging)
                os.replace(staging, path)
            except (OSError, ValueError, TypeError):
                self.io_errors += 1
                self._unlink_quietly(staging)
                return
            self._put("samples", key, {
                "cost_seconds": float(cost_seconds),
                "size_bytes": path.stat().st_size,
                "last_used": self._tick(),
                "hits": 0,
            })
            self._evict_to_budget()
            self._append_if_full()

    # -------------------------------------------------------------- predictions

    def get_prediction(self, key: str) -> float | None:
        with self._lock:
            entry = self._index["predictions"].get(key)
            if entry is None:
                self.misses += 1
                return None
            entry["last_used"] = self._tick()
            entry["hits"] = entry.get("hits", 0) + 1
            self.hits += 1
            return float(entry["value"])

    def put_prediction(self, key: str, value: float, cost_seconds: float = 0.0) -> None:
        with self._lock:
            if self.read_only:
                return
            self._put("predictions", key, {
                "value": float(value),
                "cost_seconds": float(cost_seconds),
                "last_used": self._tick(),
                "hits": 0,
            })
            predictions = self._index["predictions"]
            overflow = len(predictions) - self.max_predictions
            if overflow > 0:
                victims = sorted(predictions, key=lambda k: self._score(predictions[k]))
                for victim in victims[:overflow]:
                    self._remove("predictions", victim)
                    self.evictions += 1
            self._append_if_full()

    # ------------------------------------------------------------------- stats

    def total_sample_bytes(self) -> int:
        with self._lock:
            return sum(e["size_bytes"] for e in self._index["samples"].values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._index["samples"]) + len(self._index["predictions"])

    def stats(self) -> dict:
        """Counters since open; ``journal_bytes`` and ``compactions`` are the
        disk tier's write cost (bytes appended, snapshots written)."""
        with self._lock:
            requests = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "io_errors": self.io_errors,
                "hit_rate": self.hits / requests if requests else 0.0,
                "samples": len(self._index["samples"]),
                "predictions": len(self._index["predictions"]),
                "sample_bytes": self.total_sample_bytes(),
                "read_only": self.read_only,
                "journal_bytes": self.journal_bytes,
                "compactions": self.compactions,
            }

    def sync(self) -> None:
        """Make every queued mutation durable.

        Appends the queued journal lines, or compacts instead when superseded
        records outnumber live entries.  Reads queue nothing, so a read-only
        request batch writes nothing.
        """
        with self._lock:
            if self.read_only or not self._queued:
                return
            live = len(self)
            if self._records - live > live:
                self._compact()
            else:
                self._append()

    # --------------------------------------------------------------- internals

    def _put(self, table: str, key: str, entry: dict) -> None:
        """Caller holds the lock and owns the store: set one entry, journal it."""
        self._index[table][key] = entry
        self._journal({"op": "put", "table": table, "key": key, "entry": entry})

    def _remove(self, table: str, key: str) -> None:
        """Caller holds the lock: drop one entry (and its sample file).

        Only the owner journals the removal; a read-only opener forgets the
        entry in memory.
        """
        del self._index[table][key]
        if table == "samples":
            self._unlink_quietly(self._sample_path(key))
        if not self.read_only:
            self._journal({"op": "del", "table": table, "key": key})

    def _journal(self, record: dict) -> None:
        self._queued.append(json.dumps(record, separators=(",", ":")) + "\n")
        self._records += 1

    def _append_if_full(self) -> None:
        if len(self._queued) >= MAX_QUEUED_LINES:
            self._append()

    def _append(self) -> None:
        """Caller holds the lock and owns the store: write the queued lines
        with one ``os.write``.  Best-effort: on failure the lines stay queued
        for the next attempt, and a partly written record is cut off, since
        the next append would land behind it and a replay stops there."""
        if not self._queued:
            return
        data = "".join(self._queued).encode("utf-8")
        try:
            if self._journal_fd is None:
                self._journal_fd = os.open(
                    self.directory / JOURNAL_NAME,
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                    0o644,
                )
            if os.write(self._journal_fd, data) != len(data):
                raise OSError("short write to the journal")
        except OSError:
            self.io_errors += 1
            if self._journal_fd is not None:
                try:
                    os.ftruncate(self._journal_fd, self._journal_size)
                except OSError:
                    pass
            return
        self._journal_size += len(data)
        self.journal_bytes += len(data)
        self._queued.clear()

    def _compact(self) -> None:
        """Caller holds the lock and owns the store: append the queued lines,
        write the snapshot, then truncate the journal.

        The append comes first so the journal a crash between the rename and
        the truncate leaves behind holds every record the new snapshot does:
        replaying it ends each key it names at that key's snapshot entry.
        """
        self._append()
        try:
            path = self.directory / INDEX_NAME
            staging = path.with_suffix(".tmp")
            with open(staging, "w", encoding="utf-8") as handle:
                json.dump(self._index, handle)
            os.replace(staging, path)
        except OSError:
            self.io_errors += 1
            return
        self._queued.clear()
        self._records = len(self)
        self.compactions += 1
        if self._journal_size:
            try:
                os.truncate(self.directory / JOURNAL_NAME, 0)
                self._journal_size = 0
            except OSError:
                # The old records stay and replay idempotently over the new
                # snapshot; the next compaction retries the truncate.
                self.io_errors += 1

    @staticmethod
    def _score(entry: dict) -> tuple[float, int]:
        """Eviction order: least featurisation-seconds saved first, LRU ties."""
        return (float(entry.get("cost_seconds", 0.0)), int(entry.get("last_used", 0)))

    def _evict_to_budget(self) -> None:
        samples = self._index["samples"]
        total = sum(e["size_bytes"] for e in samples.values())
        if total <= self.max_bytes:
            return
        for victim in sorted(samples, key=lambda k: self._score(samples[k])):
            if total <= self.max_bytes:
                break
            total -= samples[victim]["size_bytes"]
            self._remove("samples", victim)
            self.evictions += 1

    def _sample_path(self, key: str) -> Path:
        return self.directory / SAMPLES_DIR / f"{key}.npz"

    def _tick(self) -> int:
        self._index["clock"] += 1
        return self._index["clock"]

    @staticmethod
    def _empty_index() -> dict:
        return {
            "format_version": PERSISTENT_FORMAT_VERSION,
            "clock": 0,
            "samples": {},
            "predictions": {},
        }

    @staticmethod
    def _read_snapshot(path: Path) -> dict | None:
        """The snapshot at ``path``, or ``None`` when it is corrupt or of
        another format version."""
        try:
            with open(path, encoding="utf-8") as handle:
                index = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(index, dict) or index.get("format_version") != PERSISTENT_FORMAT_VERSION:
            return None
        if not all(isinstance(index.get(table), dict) for table in _TABLES):
            return None
        index.setdefault("clock", 0)
        return index

    @staticmethod
    def _replay(data: bytes, index: dict) -> tuple[int, int]:
        """Apply journal records to ``index`` in order, stopping at the first
        line that lacks its newline or is not a record.  Returns ``(records
        applied, bytes they span)``."""
        applied = good = 0
        while (end := data.find(b"\n", good)) >= 0:
            try:
                _apply_record(index, json.loads(data[good:end]))
            except (ValueError, TypeError, KeyError):
                break
            applied += 1
            good = end + 1
        return applied, good

    def _open_store(self) -> dict:
        """Load the snapshot, replay the journal, then filter and collect.

        A corrupt or foreign-format snapshot discards the whole store: the
        journal's records are relative to it.  The owner then compacts the
        empty view over it, so its own later appends replay on the next open.
        """
        index = self._empty_index()
        snapshot = self.directory / INDEX_NAME
        journal = self.directory / JOURNAL_NAME
        usable = True
        if snapshot.is_file():
            loaded = self._read_snapshot(snapshot)
            usable = loaded is not None
            if usable:
                index = loaded
        self._records = len(index["samples"]) + len(index["predictions"])
        try:
            data = journal.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError:
            self.io_errors += 1
            data = b""
        applied, good = self._replay(data, index) if usable else (0, 0)
        self._records += applied
        if not self.read_only and good < len(data):
            # Cut the torn tail (or a discarded snapshot's records), or the
            # next append lands behind it and the next replay stops there.
            try:
                os.truncate(journal, good)
            except OSError:
                self.io_errors += 1
        self._journal_size = good
        # Entries whose backing file vanished (partial copy, manual cleanup,
        # an eviction whose removal record was lost) must not be advertised.
        index["samples"] = {
            key: entry
            for key, entry in index["samples"].items()
            if self._sample_path(key).is_file()
        }
        # And sample files no entry names (writes whose records were lost in
        # a crash, staging leftovers) are garbage, not cache: without an
        # entry they can never be served, so reclaim the bytes.  Owner-only:
        # to a read-only opener a stray may simply be the live owner's freshly
        # written, not-yet-synced sample.
        samples_dir = self.directory / SAMPLES_DIR
        if not self.read_only and samples_dir.is_dir():
            known = {f"{key}.npz" for key in index["samples"]}
            for stray in samples_dir.iterdir():
                if stray.name not in known:
                    self._unlink_quietly(stray)
        if not usable and not self.read_only:
            self._index = index
            self._compact()
        return index

    def _unlink_quietly(self, path: Path) -> None:
        if self.read_only:
            # Never delete files we do not own: the live owner may still be
            # serving (or about to index) them.
            return
        try:
            path.unlink(missing_ok=True)
        except OSError:
            self.io_errors += 1


def _apply_record(index: dict, record) -> None:
    """Replay one journal record onto ``index``.  Raises ``ValueError``,
    ``TypeError`` or ``KeyError`` on anything but a well-formed record, before
    changing ``index``."""
    table, key = record["table"], record["key"]
    if table not in _TABLES or not isinstance(key, str):
        raise ValueError(f"not a journal record: {record!r}")
    if record["op"] == "put":
        entry = record["entry"]
        last_used = int(entry["last_used"])
        index[table][key] = entry
        index["clock"] = max(index["clock"], last_used)
    elif record["op"] == "del":
        index[table].pop(key, None)
    else:
        raise ValueError(f"not a journal record: {record!r}")
