"""Per-layer metrics of a traced run, computed from recorded spans.

A span's self time is its duration minus its children's durations.  Only
spans that start inside one of the run's timed windows count, so set-up
traffic (restarts, warming passes) never leaks into the layer table.

Naming rule of the metrics: ``*_ms`` is milliseconds per client request,
``*.s`` is seconds summed over the timed phase, ``*.wall_share`` is a layer's
self time over the timed phase's wall time (several connections can make it
exceed 1).
"""

from __future__ import annotations

from collections import defaultdict

#: Span names per layer, for self times and wall shares.  The HTTP layer is
#: not among them: its time is what the client waits for beyond the gateway
#: call (sockets, parsing, routing, the codec, the event loop).
LAYERS = {
    "gateway": ("gateway.estimate", "gateway.deploy"),
    "service": ("service",),
    "cache.mem": ("mem.get_sample", "mem.get_prediction", "mem.put"),
    "cache.disk": ("disk.read", "disk.write"),
    "deploy": ("deploy.resolve", "deploy.publish", "deploy.load"),
    "featurise": ("featurise",),
    "hls": ("hls.lower", "hls.backend"),
    "activity": ("activity",),
    "graph": ("graph",),
    "labels": ("labels",),
    "forward": ("forward",),
    "train": ("train.batch", "train.forward", "train.backward", "train.optim", "train.validate"),
}

#: Layers that together are featurisation (``DatasetGenerator.featurise`` and its stages).
FEATURISATION = ("featurise", "hls", "activity", "graph", "labels")
#: Layers only the serving path enters.
SERVING = (
    "http", "gateway", "service", "cache.mem", "cache.disk", "deploy", "forward", *FEATURISATION
)

#: ``(name, unit)`` of every per-layer metric, in report order.
METRICS = [
    ("http.self_ms", "ms"),
    ("http.json_ms", "ms"),
    ("gateway.wait_ms", "ms"),
    ("service.self_ms", "ms"),
    ("cache.mem.calls", "count"),
    ("cache.mem.ms", "ms"),
    ("cache.mem.sample_hit_ratio", "ratio"),
    ("cache.mem.prediction_hit_ratio", "ratio"),
    ("cache.disk.read_s", "s"),
    ("cache.disk.write_s", "s"),
    ("cache.disk.index_bytes_written", "bytes"),
    ("cache.disk.hit_ratio", "ratio"),
    ("deploy.resolve_s", "s"),
    ("deploy.publish_s", "s"),
    ("deploy.artifact_loads", "count"),
    ("featurise.designs", "count"),
    ("featurise.s", "s"),
    ("hls.lower.calls", "count"),
    ("hls.lower.s", "s"),
    ("hls.backend.s", "s"),
    ("activity.calls", "count"),
    ("activity.s", "s"),
    ("activity.reuse_ratio", "ratio"),
    ("graph.build.s", "s"),
    ("labels.s", "s"),
    ("labels.share", "ratio"),
    ("forward.calls", "count"),
    ("forward.designs_per_call", "designs"),
    ("forward.s", "s"),
    ("forward.ms_per_design", "ms"),
    ("train.batch.s", "s"),
    ("train.forward.s", "s"),
    ("train.backward.s", "s"),
    ("train.optim.s", "s"),
    ("train.validate.s", "s"),
    ("train.steps", "count"),
    *((f"{layer}.wall_share", "ratio") for layer in ("http", *LAYERS)),
    ("trace.overhead", "ratio"),
]


def cut(spans: list, windows: list[tuple[float, float]]) -> list[tuple]:
    """Rows ``(name, duration, self, value, child names, parent name)`` of one
    process's spans that start inside a timed window."""
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, list[str]] = defaultdict(list)
    names = {0: None}
    for span_id, parent, name, start, end, value in spans:
        names[span_id] = name
        if parent:
            child_time[parent] += end - start
            children[parent].append(name)
    return [
        (name, end - start, end - start - child_time[span_id], value,
         children[span_id], names.get(parent))
        for span_id, parent, name, start, end, value in spans
        if any(low <= start <= high for low, high in windows)
    ]


def _total(rows, column: int) -> float:
    return float(sum(row[column] for row in rows))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    rows: list[tuple], wall: float, requests: int, trace_overhead: float
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, self seconds per layer)`` of one traced workload run.

    ``rows`` are :func:`cut` rows of every process of the run; ``requests``
    is the number of client requests in the timed phase.
    """

    def of(*names):
        return [row for row in rows if row[0] in names]

    def duration(*names):
        return _total(of(*names), 1)

    def self_time(*names):
        return _total(of(*names), 2)

    per_request = 1e3 / requests if requests else 0.0
    client = duration("client.estimate")
    gateway = duration("gateway.estimate")
    layer_self = {"http": max(client - gateway, 0.0)}
    layer_self.update((layer, self_time(*names)) for layer, names in LAYERS.items())

    sample_gets = of("mem.get_sample")
    prediction_gets = of("mem.get_prediction")

    def memory_hits(gets):
        return sum(1 for row in gets if row[3] and "disk.read" not in row[4])

    disk_reads = of("disk.read")
    disk_spans = of("disk.read", "disk.write")
    featurised = sum(row[3] for row in of("featurise"))
    activity_calls = len(of("activity"))
    forwards = of("forward")
    forward_designs = sum(row[3] for row in forwards)
    forward_s = duration("forward")
    featurise_s = duration("featurise")
    labels_s = duration("labels")
    metrics = {
        "http.self_ms": layer_self["http"] * per_request,
        "http.json_ms": duration("http.decode", "http.encode") * per_request,
        "gateway.wait_ms": self_time("gateway.estimate") * per_request,
        "service.self_ms": self_time("service") * per_request,
        "cache.mem.calls": float(len(of(*LAYERS["cache.mem"]))),
        "cache.mem.ms": layer_self["cache.mem"] * per_request,
        "cache.mem.sample_hit_ratio": _ratio(memory_hits(sample_gets), len(sample_gets)),
        "cache.mem.prediction_hit_ratio": _ratio(
            memory_hits(prediction_gets), len(prediction_gets)
        ),
        "cache.disk.read_s": duration("disk.read"),
        "cache.disk.write_s": duration("disk.write"),
        "cache.disk.index_bytes_written": float(sum(row[3][1] for row in disk_spans)),
        "cache.disk.hit_ratio": _ratio(sum(row[3][0] for row in disk_reads), len(disk_reads)),
        "deploy.resolve_s": self_time("deploy.resolve"),
        "deploy.publish_s": duration("deploy.publish"),
        "deploy.artifact_loads": float(len(of("deploy.load"))),
        "featurise.designs": float(featurised),
        "featurise.s": featurise_s,
        "hls.lower.calls": float(len(of("hls.lower"))),
        "hls.lower.s": duration("hls.lower"),
        "hls.backend.s": duration("hls.backend"),
        "activity.calls": float(activity_calls),
        "activity.s": duration("activity"),
        "activity.reuse_ratio": 1.0 - activity_calls / featurised if featurised else 0.0,
        "graph.build.s": duration("graph"),
        "labels.s": labels_s,
        "labels.share": _ratio(labels_s, featurise_s),
        "forward.calls": float(len(forwards)),
        "forward.designs_per_call": _ratio(forward_designs, len(forwards)),
        "forward.s": forward_s,
        "forward.ms_per_design": _ratio(forward_s * 1e3, forward_designs),
        "train.batch.s": duration("train.batch"),
        # Validation forwards belong to train.validate.
        "train.forward.s": _total(
            [row for row in of("train.forward") if row[5] != "train.validate"], 1
        ),
        "train.backward.s": duration("train.backward"),
        "train.optim.s": duration("train.optim"),
        "train.validate.s": duration("train.validate"),
        "train.steps": float(len(of("train.optim"))),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.wall_share"] = _ratio(seconds, wall)
    metrics["trace.overhead"] = trace_overhead
    return metrics, layer_self

