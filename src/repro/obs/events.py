"""Supervisor event timeline: a bounded ring of pool lifecycle events.

The supervisor's health snapshot answers "what state is the pool in *now*";
this ring answers "what *sequence of events* got it there" — the difference
between seeing ``restarts: 3`` and seeing ``crash → restart(backoff 50ms) →
crash → restart(backoff 100ms) → retire`` with timestamps.  Producers
(the supervisor, the service's degradation bookkeeping, the persistent
cache's read-only downgrade) call :meth:`EventLog.record`; consumers read it
merged into ``service.health()`` and at ``GET /v1/events``.

Events are plain JSON-safe dicts stamped with a wall-clock timestamp and a
monotonically increasing sequence number (so consumers can page / dedupe
without trusting clock monotonicity across processes).

Every live :class:`EventLog` also registers into a process-wide weak set so
a test harness can dump *all* timelines on failure
(:func:`dump_event_logs` — wired into ``tests/conftest.py`` behind
``REPRO_OBS_LOG_DIR`` for the CI failure artifact).
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from collections import deque

__all__ = ["EventLog", "dump_event_logs"]

_LIVE_LOGS: "weakref.WeakSet[EventLog]" = weakref.WeakSet()
_LIVE_LOGS_LOCK = threading.Lock()


class EventLog:
    """Thread-safe bounded ring of timestamped lifecycle events."""

    def __init__(self, maxlen: int = 512) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._ring: deque[dict] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._seq = 0
        self.recorded = 0
        with _LIVE_LOGS_LOCK:
            _LIVE_LOGS.add(self)

    def record(self, kind: str, *, pool: str | None = None, **fields) -> dict:
        """Append one event; returns the stamped record.

        ``kind`` is the event vocabulary consumers filter on: supervised
        pools emit ``crash``, ``restart`` and ``retire``; the service adds
        ``degrade``, ``cache_read_only``, ``artifact_evicted`` and the
        ``deployment_*`` transitions, the job manager the ``job_*`` ones;
        the cluster layer emits the replica lifecycle — ``replica_spawn``,
        ``replica_ready``, ``replica_exit``, ``replica_eject``,
        ``replica_respawn``, ``replica_respawn_failed``,
        ``fingerprint_mismatch``.  Extra ``fields`` must be JSON-safe (the
        producer's contract — this ring is served verbatim).
        """
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "time": time.time(),
                "kind": str(kind),
                **({"pool": pool} if pool is not None else {}),
                **fields,
            }
            self._ring.append(event)
            self.recorded += 1
        return event

    def snapshot(self, limit: int | None = None, kind: str | None = None) -> list[dict]:
        """Events oldest-first (the natural timeline read); optionally the
        last ``limit`` and/or only one ``kind``."""
        with self._lock:
            events = list(self._ring)
        if kind is not None:
            events = [event for event in events if event["kind"] == kind]
        if limit is not None:
            events = events[-max(limit, 0):]
        return [dict(event) for event in events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def stats(self) -> dict:
        with self._lock:
            return {"recorded": self.recorded, "ring": len(self._ring)}


def dump_event_logs(path) -> int:
    """Write every live event log's timeline to ``path`` as JSON; returns the
    event count.  Best-effort debugging aid (garbage-collected logs are gone
    — that is fine, the interesting ones belong to the failing test's still-
    referenced service)."""
    with _LIVE_LOGS_LOCK:
        logs = list(_LIVE_LOGS)
    timelines = [log.snapshot() for log in logs]
    events = [event for timeline in timelines for event in timeline]
    events.sort(key=lambda event: event["time"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"event_logs": len(timelines), "events": events}, handle, indent=2)
    return len(events)
