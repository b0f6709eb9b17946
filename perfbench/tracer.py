"""Outside-in tracing of the traced benchmark run.

The benchmark wraps public entry points of the program from its own code —
nothing inside ``src/`` is changed — and records one span per call in
memory: ``(id, parent, name, start, end, value)``.  Parents follow a context
variable, so a span opened on the gateway's event loop is the parent of the
service call the gateway runs on its bridge thread (the gateway copies the
context over that hop).  Spans are written out once, when the process ends.

Times come from ``CLOCK_MONOTONIC``, which every process on one host shares,
so the orchestrator can cut server spans to its own timed-phase windows.

Functions imported by name into other modules are wrapped where they are
looked up (``simulate_activity`` and ``build_fsmd`` in
``repro.flow.dataset_gen``, the codec functions in ``repro.runtime.http``,
``load_artifact_dir`` in the registry and the service).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpanRecorder:
    """Keeps spans in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )

    def wrap(self, module: str, qualname: str, name: str, count=None) -> None:
        """Replace ``module.qualname`` with a recording wrapper.

        ``count(args, kwargs, result)`` optionally attaches a JSON value to
        the span (designs in a call, a hit flag, bytes written).
        """
        owner = importlib.import_module(module)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        is_static = isinstance(raw, staticmethod)
        function = raw.__func__ if is_static else raw
        wrapper = self._wrapper(function, name, count)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def _wrapper(self, function, name: str, count):
        ids, current, spans = self._ids, self._current, self.spans

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                span = next(ids)
                parent = current.get()
                token = current.set(span)
                start = clock()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    current.reset(token)
                    value = count(args, kwargs, result) if count else 0
                    spans.append((span, parent, name, start, end, value))

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = current.get()
            token = current.set(span)
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                value = count(args, kwargs, result) if count else 0
                spans.append((span, parent, name, start, end, value))

        return traced

    def dump(self, path: str) -> None:
        """Write the spans, tagged with this process's pid, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans}, handle)


def _length(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _hit(args, kwargs, result) -> int:
    return 1 if result is not None else 0


class _IndexWatch:
    """Per disk-tier call: ``[hit, bytes of the index rewrite it caused]``.

    The index is replaced atomically on every rewrite (temp file + rename),
    so a new inode, size or mtime after a call means one rewrite of that
    size.  Reads can cause the backstop rewrite too, so every call is
    watched.
    """

    def __init__(self) -> None:
        self._last: tuple | None = None

    def __call__(self, args, kwargs, result) -> list[int]:
        hit = 1 if result is not None else 0
        try:
            stat = os.stat(args[0].directory / "index.json")
        except OSError:
            return [hit, 0]
        seen = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if seen == self._last:
            return [hit, 0]
        self._last = seen
        return [hit, stat.st_size]


#: Serving-side entry points: ``(module, qualname, span name, count)``.
SERVING_POINTS = [
    ("repro.runtime.http", "estimate_request_from_json", "http.decode", None),
    ("repro.runtime.http", "response_to_json", "http.encode", None),
    ("repro.runtime.gateway", "AsyncPowerGateway.estimate", "gateway.estimate", None),
    ("repro.runtime.gateway", "AsyncPowerGateway.estimate_many", "gateway.estimate", None),
    ("repro.runtime.gateway", "AsyncPowerGateway.put_deployment", "gateway.deploy", None),
    ("repro.serve.service", "PowerEstimationService.estimate", "service", None),
    ("repro.serve.service", "PowerEstimationService.estimate_many", "service", None),
    ("repro.serve.cache", "InferenceCache.get_sample", "mem.get_sample", _hit),
    ("repro.serve.cache", "InferenceCache.get_prediction", "mem.get_prediction", _hit),
    ("repro.serve.cache", "InferenceCache.put_sample", "mem.put", None),
    ("repro.serve.cache", "InferenceCache.put_prediction", "mem.put", None),
    ("repro.deploy.resolver", "ModelResolver.snapshot", "deploy.resolve", None),
    ("repro.deploy.resolver", "ModelResolver.resolve", "deploy.resolve", None),
    ("repro.deploy.resolver", "ModelResolver.publish", "deploy.publish", None),
    ("repro.serve.registry", "load_artifact_dir", "deploy.load", None),
    ("repro.serve.service", "load_artifact_dir", "deploy.load", None),
    ("repro.flow.dataset_gen", "DatasetGenerator.featurise", "featurise", _length),
    ("repro.hls.frontend", "HLSFrontend.lower", "hls.lower", None),
    ("repro.hls.scheduling", "Scheduler.schedule", "hls.backend", None),
    ("repro.hls.binding", "Binder.bind", "hls.backend", None),
    ("repro.flow.dataset_gen", "build_fsmd", "hls.backend", None),
    ("repro.hls.resources", "ResourceEstimator.estimate", "hls.backend", None),
    ("repro.flow.dataset_gen", "simulate_activity", "activity", None),
    ("repro.graph.construction", "GraphConstructor.build", "graph", None),
    ("repro.power.ground_truth", "GroundTruthPowerModel.measure", "labels", None),
    ("repro.power.vivado", "VivadoPowerEstimator.estimate", "labels", None),
    ("repro.power.runtime", "RuntimeModel.runtimes", "labels", None),
    ("repro.flow.powergear", "PowerGear.predict_batch", "forward", _length),
]

#: Client-side entry points (the load generator's process).
CLIENT_POINTS = [
    ("repro.client", "PowerClient.estimate", "client.estimate", None),
    ("repro.client", "PowerClient.estimate_many", "client.estimate", None),
]

#: Training entry points (the training process).
TRAINING_POINTS = [
    ("repro.graph.hetero_graph", "HeteroGraph.batch_graphs", "train.batch", None),
    ("repro.gnn.base", "PowerGNN.forward", "train.forward", None),
    ("repro.nn.tensor", "Tensor.backward", "train.backward", None),
    ("repro.nn.optim", "Adam.step", "train.optim", None),
    ("repro.gnn.trainer", "Trainer.evaluate", "train.validate", None),
]


def install(recorder: SpanRecorder, points) -> None:
    for module, qualname, name, count in points:
        recorder.wrap(module, qualname, name, count)


def install_disk_tier(recorder: SpanRecorder) -> None:
    watch = _IndexWatch()
    for qualname, name in (
        ("PersistentCache.get_sample", "disk.read"),
        ("PersistentCache.get_prediction", "disk.read"),
        ("PersistentCache.put_sample", "disk.write"),
        ("PersistentCache.put_prediction", "disk.write"),
        ("PersistentCache.sync", "disk.write"),
    ):
        recorder.wrap("repro.runtime.cache", qualname, name, watch)
