"""Histogram-capable metrics registry with Prometheus text exposition.

The service's original :class:`~repro.serve.service.ServiceMetrics` holds
sum-only counters — fine for throughput, useless for tail latency ("p99
featurisation is 40x the mean" is invisible in a sum).  This module is the
replacement substrate: a small registry of **counters**, **gauges** and
**fixed-bucket histograms**, each optionally split by a declared label set
(``stage="featurise"``), with two render paths:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict for the existing JSON
  ``/metrics`` endpoint; histogram snapshots carry real quantile estimates
  (p50/p95/p99, linear interpolation inside the landing bucket) instead of
  means, and empty instruments report ``0.0`` / ``None`` — never ``NaN`` or
  ``Infinity``, which are invalid JSON per spec;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` + ``_bucket{le=...}`` / ``_sum`` /
  ``_count`` series) served when a ``/metrics`` client sends
  ``Accept: text/plain``.

Everything is stdlib + threading.Lock; observation cost is gated by
``benchmarks/test_obs_overhead.py`` (sub-microsecond per histogram observe).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DIVERGENCE_BUCKETS",
    "SIZE_BUCKETS",
    "MetricsRegistry",
    "flatten_numeric",
    "json_safe",
]

#: Prometheus-style exponential latency buckets, in seconds: 100 us .. 10 s.
#: Fine enough at the bottom to resolve cache hits, wide enough at the top
#: for a cold featurisation batch.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Size buckets for count-shaped histograms (batch sizes, designs per call).
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0)

#: Buckets for champion/challenger prediction divergence (absolute watts).
#: Power predictions sit in the 0.1–10 W range, so drift worth alerting on
#: starts around milliwatts; the zero-inclusive bottom bucket counts exact
#: agreement (e.g. a challenger that is the champion artifact re-registered).
DIVERGENCE_BUCKETS = (
    0.0,
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def json_safe(value):
    """Recursively replace non-finite floats with ``None`` (strict-JSON safe).

    The HTTP layer serialises with ``allow_nan=False``; one stray
    ``float("nan")`` deep in a stats dict would turn a metrics scrape into a
    500.  Routing every exported snapshot through this keeps the contract
    structural instead of per-callsite.
    """
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def flatten_numeric(prefix: str, value, out: dict | None = None) -> dict:
    """Flatten a nested stats dict into ``{metric_name: float}`` leaves.

    Used to project the service's existing JSON stats (cache tiers, pool
    supervisors, gateway counters) into the Prometheus exposition without
    double-accounting them in the registry.  Strings are skipped, booleans
    become 0/1 gauges, non-finite floats are dropped, and path keys are
    sanitised to the Prometheus name charset.
    """
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key, item in value.items():
            part = re.sub(r"[^a-zA-Z0-9_]", "_", str(key))
            flatten_numeric(f"{prefix}_{part}" if prefix else part, item, out)
    elif isinstance(value, bool):
        out[prefix] = 1.0 if value else 0.0
    elif isinstance(value, (int, float)):
        number = float(value)
        if math.isfinite(number):
            out[prefix] = number
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


# ------------------------------------------------------------------ children


class Counter:
    """A monotonically increasing count (one labelled child of a family)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (pool sizes, heartbeat timestamps)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``bounds`` are the inclusive upper bucket edges; an implicit ``+Inf``
    bucket catches the rest.  Quantiles interpolate linearly inside the
    landing bucket (the standard Prometheus ``histogram_quantile`` estimate),
    so they are approximations whose error is bounded by bucket width —
    real enough for p50/p95/p99 dashboards, cheap enough for the hot path.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _quantile_locked(self, q: float) -> float | None:
        """Caller holds ``self._lock``.  ``None`` when empty (never NaN)."""
        if self._count == 0:
            return None
        rank = q * self._count
        seen = 0
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            if seen + count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self._max
                )
                if upper < lower:  # +Inf bucket, bounded by observed max
                    upper = lower
                fraction = (rank - seen) / count
                return lower + (upper - lower) * fraction
            seen += count
        return self._max

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count if self._count else 0.0,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_edge, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._counts)
        cumulative = 0
        pairs: list[tuple[float, int]] = []
        for index, bound in enumerate(self.bounds):
            cumulative += counts[index]
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + counts[-1]))
        return pairs

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


# ------------------------------------------------------------------ families


class _Family:
    """One named metric with a declared label set; children per label tuple."""

    kind = "untyped"
    child_type: type = Counter

    def __init__(self, name: str, help_text: str, labelnames: tuple[str, ...]) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _new_child(self):
        return self.child_type()

    def labels(self, *values, **kwvalues):
        """The child for one label-value tuple (created on first use)."""
        if kwvalues:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kwvalues[name]) for name in self.labelnames)
            except KeyError as missing:
                raise ValueError(f"{self.name} is missing label {missing}") from None
            if len(kwvalues) != len(self.labelnames):
                unknown = set(kwvalues) - set(self.labelnames)
                raise ValueError(f"{self.name} has no labels {sorted(unknown)}")
        else:
            values = tuple(str(value) for value in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._new_child()
                self._children[values] = child
            return child

    def remove(self, *values) -> None:
        """Drop the child of one label-value tuple, so it is no longer
        exported (a no-op if it was never created)."""
        with self._lock:
            self._children.pop(tuple(str(value) for value in values), None)

    def _items(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())

    # Zero-label conveniences: the family doubles as its single child.

    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels()

    def snapshot(self):
        raise NotImplementedError


class CounterFamily(_Family):
    kind = "counter"
    child_type = Counter

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def snapshot(self) -> dict:
        if not self.labelnames:
            return {"value": self._default().value}
        return {
            "|".join(values): child.value for values, child in sorted(self._items())
        }


class GaugeFamily(_Family):
    kind = "gauge"
    child_type = Gauge

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value

    def snapshot(self) -> dict:
        if not self.labelnames:
            return {"value": self._default().value}
        return {
            "|".join(values): child.value for values, child in sorted(self._items())
        }


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, help_text, labelnames)
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be a sorted, de-duplicated tuple")
        if buckets[-1] == math.inf:
            buckets = buckets[:-1]  # the +Inf bucket is implicit
        self.buckets = tuple(float(b) for b in buckets)

    def _new_child(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def snapshot(self) -> dict:
        if not self.labelnames:
            return self._default().snapshot()
        return {
            "|".join(values): child.snapshot()
            for values, child in sorted(self._items())
        }


# ------------------------------------------------------------------ registry


class MetricsRegistry:
    """Process-local registry of metric families, one per service."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ registration

    def _register(self, family: _Family) -> _Family:
        if not _NAME_RE.match(family.name):
            raise ValueError(f"invalid metric name {family.name!r}")
        for label in family.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if (
                    type(existing) is not type(family)
                    or existing.labelnames != family.labelnames
                ):
                    raise ValueError(
                        f"metric {family.name!r} re-registered with a different "
                        "type or label set"
                    )
                return existing
            self._families[family.name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily(name, help_text, tuple(labelnames)))

    def gauge(
        self, name: str, help_text: str = "", labelnames: tuple[str, ...] = ()
    ) -> GaugeFamily:
        return self._register(GaugeFamily(name, help_text, tuple(labelnames)))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        return self._register(
            HistogramFamily(name, help_text, tuple(labelnames), tuple(buckets))
        )

    # -------------------------------------------------------------- rendering

    def snapshot(self) -> dict:
        """JSON-safe view of every family (strict-JSON: no NaN/Infinity)."""
        with self._lock:
            families = list(self._families.values())
        return json_safe(
            {family.name: family.snapshot() for family in families}
        )

    def render_prometheus(self, extra_gauges: dict[str, float] | None = None) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        ``extra_gauges`` lets the caller project pre-existing JSON stats
        (flattened with :func:`flatten_numeric`) into the scrape as plain
        gauges without registering them.
        """
        with self._lock:
            families = list(self._families.values())
        lines: list[str] = []
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            if isinstance(family, HistogramFamily):
                items = family._items()
                if not items and not family.labelnames:
                    items = [((), family.labels())]
                for values, child in sorted(items):
                    for bound, cumulative in child.cumulative_buckets():
                        le = _labels_text(
                            family.labelnames,
                            values,
                            extra=f'le="{_format_value(bound)}"',
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    labels = _labels_text(family.labelnames, values)
                    lines.append(f"{family.name}_sum{labels} {repr(child.sum)}")
                    lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                items = family._items()
                if not items and not family.labelnames:
                    items = [((), family.labels())]
                for values, child in sorted(items):
                    labels = _labels_text(family.labelnames, values)
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        for name in sorted(extra_gauges or {}):
            value = extra_gauges[name]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                continue
            if not _NAME_RE.match(name):
                continue
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(float(value))}")
        return "\n".join(lines) + "\n"
