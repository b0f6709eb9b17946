"""End-to-end benchmark of the serving stack and of training.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

``cold_sweep``  a fresh server with empty caches; one connection sends every
                catalog design once as ``POST /v1/estimate``.
``warm_hits``   a server restarted over the fixture's disk tier and warmed by
                one catalog pass; ``min(2, nproc)`` keep-alive connections
                re-request catalog designs, every answer a memory hit.
``rescore``     the same restart, then per rollout artifact: ``PUT
                /v1/deployments`` routing ``*`` to it, and the catalog
                re-estimated in ``POST /v1/estimate_many`` batches.
``train``       ``PowerGear.fit`` on the catalog minus one held-out kernel,
                each fit in a fresh training process.

The server is one process (``server.py``), the load comes from this process
through :class:`repro.client.PowerClient`, closed loop.  Every workload
measures until ``S`` seconds were timed and, when serving, at least 200
requests were made, and stops at the end of a whole unit of identical work:
a catalog sweep, a rollout, a fit.  Each sweep and each round of rollouts runs
on a fresh server over fresh copies of the fixtures, each fit in a fresh
process.

Throughput is all designs answered over all timed seconds.  A latency
percentile is the median over consecutive blocks of the timed requests, each
block at least 200 requests (ten beyond p95) and on average one second long:
a burst of load from another tenant of the machine then moves a few blocks,
where it would move a percentile pooled over the run.  Set-up is sampled five
times per run and reported as the median.

Every answer is compared with an in-process ``PowerGear.predict_batch``
reference, and each workload's premise (which cache flags every answer
carries) is checked; a broken premise aborts the run without a result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then again with spans recorded around the program's public
entry points (``tracer.py``), and prints the per-layer metrics
(``layers.py``).  The last line of standard output is the result object.
"""

from __future__ import annotations

import os
import sys

from common import pin_environment

# Before numpy is imported anywhere in this process; children inherit it.
_pinned = pin_environment(os.environ)
os.environ.clear()
os.environ.update(_pinned)

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (  # noqa: E402
    ATOL,
    BENCH_DIR,
    FULL,
    ROOT,
    RTOL,
    SERVE_MODEL,
    SRC,
    WORK,
    Scale,
    environment_record,
    read_json,
)
from tracer import CLIENT_POINTS, SpanRecorder, clock, install  # noqa: E402

WORKLOADS = ("cold_sweep", "warm_hits", "rescore", "train")
END_TO_END = [
    ("designs_per_s", "designs/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Set-up is repeated this many times per run and reported as the median.
SETUP_SAMPLES = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class PremiseError(RuntimeError):
    """The workload did not exercise what it exists to exercise."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


@dataclass
class Fixtures:
    path: Path
    scale: Scale
    catalog: list[dict]
    references: dict

    @staticmethod
    def load(path: Path, scale: Scale) -> "Fixtures":
        return Fixtures(
            path, scale, read_json(path / "catalog.json"), read_json(path / "references.json")
        )

    def rollouts(self) -> list[str]:
        return [name for name in self.references if name != SERVE_MODEL]


@dataclass
class Tally:
    """What one run measured, plus what the traced run needs to cut spans."""

    attempted: int = 0
    failed: int = 0
    #: ``(completion time, latency, designs)`` of every answered request.
    answers: list[tuple[float, float, int]] = field(default_factory=list)
    #: Timed windows ``(start, end, designs)``: a sweep, a rollout, a fit, or
    #: the warm_hits phase.
    windows: list[tuple[float, float, int]] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    span_files: list[Path] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def answered(self, start: float, designs: int) -> None:
        end = clock()
        self.answers.append((end, end - start, designs))

    def time(self, start: float, end: float, designs: int | None = None) -> None:
        """Close a timed window; its designs default to the answers inside it."""
        if designs is None:
            designs = sum(n for done, _, n in self.answers if start <= done < end)
        self.windows.append((start, end, designs))

    @property
    def timed_s(self) -> float:
        return sum(end - start for start, end, _ in self.windows)

    @property
    def designs_per_s(self) -> float:
        return sum(n for _, _, n in self.windows) / self.timed_s


# --------------------------------------------------------------------- server


class Server:
    """One server process over fresh copies of the fixture registry (and disk tier)."""

    def __init__(self, run_dir: Path, fixtures: Fixtures, *, warm_disk: bool, trace: bool):
        index = len(list(run_dir.glob("server-*")))
        self.dir = run_dir / f"server-{index}"
        self.dir.mkdir()
        shutil.copytree(fixtures.path / "registry", self.dir / "registry")
        if warm_disk:
            shutil.copytree(fixtures.path / "disk", self.dir / "disk")
        self.trace_file = self.dir / "spans.json" if trace else None
        command = [
            sys.executable,
            str(BENCH_DIR / "server.py"),
            "--scale",
            fixtures.scale.name,
            "--registry",
            str(self.dir / "registry"),
            "--disk",
            str(self.dir / "disk"),
        ]
        if self.trace_file is not None:
            command += ["--trace", str(self.trace_file)]
        self.log_file = open(self.dir / "server.log", "w")
        self.spawned = clock()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log_file,
            text=True,
        )
        self.port = self._await_ready()
        self.ready = clock()

    def _await_ready(self) -> int:
        readable, _, _ = select.select([self.process.stdout], [], [], READY_TIMEOUT_S)
        line = self.process.stdout.readline() if readable else ""
        if not line.startswith("ready "):
            self.kill()
            raise RuntimeError(f"server did not become ready: {line!r}\n{self.log_tail()}")
        return int(line.split()[1])

    def stop(self) -> int:
        """Graceful stop; returns the server's peak RSS in KiB."""
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        for line in out.splitlines():
            if line.startswith("exit "):
                return int(json.loads(line[5:])["peak_rss_kb"])
        raise RuntimeError(f"server exited without its exit line\n{self.log_tail()}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.log_file.close()

    def log_tail(self) -> str:
        return (self.dir / "server.log").read_text()[-2000:]


# ------------------------------------------------------------------- checking


def check_answer(
    tally: Tally, fixtures: Fixtures, response: dict, index: int, model: str,
    *, features: bool, prediction: bool,
) -> None:
    """Count a wrong answer as failed; raise :class:`PremiseError` on wrong flags."""
    design = fixtures.catalog[index]
    reference = fixtures.references[model]
    expected = reference["power"][index]
    if (
        response.get("cached_features") is not features
        or response.get("cached_prediction") is not prediction
    ):
        raise PremiseError(
            f"{design['kernel']} {design['key']}: cached_features="
            f"{response.get('cached_features')} cached_prediction="
            f"{response.get('cached_prediction')}, expected {features}/{prediction}"
        )
    served_by = response.get("served_by")
    if (
        response.get("kernel") != design["kernel"]
        or response.get("directives") != design["key"]
        or response.get("model_fingerprint") != reference["fingerprint"]
        or (model != SERVE_MODEL and (served_by or {}).get("model") != model)
        or not abs(response.get("power", float("nan")) - expected)
        <= ATOL + RTOL * abs(expected)
    ):
        tally.failed += 1


def wire(design: dict) -> dict:
    return {"kernel": design["kernel"], "directives": design["directives"]}


def seeded_order(count: int, *parts) -> list[int]:
    order = list(range(count))
    random.Random("/".join(str(part) for part in parts)).shuffle(order)
    return order


# ------------------------------------------------------------------ workloads


async def catalog_pass(client, tally: Tally, fixtures: Fixtures, order, model: str,
                       *, prediction: bool, timed: bool) -> None:
    """Estimate the catalog once in ``estimate_many`` batches."""
    from repro.client import PowerAPIError

    batch = fixtures.scale.batch
    for offset in range(0, len(order), batch):
        indices = order[offset : offset + batch]
        start = clock()
        try:
            responses = await client.estimate_many([wire(fixtures.catalog[i]) for i in indices])
        except (PowerAPIError, ConnectionError) as error:
            if not timed:
                raise RuntimeError(f"set-up pass failed: {error}") from error
            tally.attempted += 1
            tally.failed += 1
            log(f"estimate_many failed: {error}")
            continue
        if timed:
            tally.attempted += 1
            tally.answered(start, len(indices))
        for index, response in zip(indices, responses):
            check_answer(tally, fixtures, response, index, model,
                         features=True, prediction=prediction)


def enough(tally: Tally, seconds: float, fixtures: Fixtures) -> bool:
    return tally.timed_s >= seconds and tally.attempted >= fixtures.scale.min_requests


async def cold_sweep(run_dir, fixtures, seed, seconds, trace) -> Tally:
    """Whole catalog sweeps, each on a fresh server with empty caches."""
    from repro.client import PowerAPIError, PowerClient

    tally = Tally()
    rounds = 0
    while not enough(tally, seconds, fixtures) or len(tally.setups) < SETUP_SAMPLES:
        server = Server(run_dir, fixtures, warm_disk=False, trace=trace)
        try:
            tally.setups.append(server.ready - server.spawned)
            if not enough(tally, seconds, fixtures):
                order = seeded_order(len(fixtures.catalog), seed, "cold_sweep", rounds)
                rounds += 1
                async with PowerClient("127.0.0.1", server.port) as client:
                    begin = clock()
                    for index in order:
                        tally.attempted += 1
                        start = clock()
                        try:
                            response = await client.estimate(**wire(fixtures.catalog[index]))
                        except (PowerAPIError, ConnectionError) as error:
                            tally.failed += 1
                            log(f"estimate failed: {error}")
                            continue
                        tally.answered(start, 1)
                        check_answer(tally, fixtures, response, index, SERVE_MODEL,
                                     features=False, prediction=False)
                    tally.time(begin, clock())
        finally:
            tally.peak_rss_kb = max(tally.peak_rss_kb, server.stop())
        if server.trace_file is not None:
            tally.span_files.append(server.trace_file)
    return tally


async def warm_restart(run_dir, fixtures, tally: Tally, seed, trace) -> "Server":
    """Start over the disk tier and warm the memory tier with one catalog pass;
    the set-up time runs from spawn to the end of that pass."""
    from repro.client import PowerClient

    server = Server(run_dir, fixtures, warm_disk=True, trace=trace)
    try:
        order = seeded_order(len(fixtures.catalog), seed, "warm", len(tally.setups))
        async with PowerClient("127.0.0.1", server.port) as client:
            await catalog_pass(client, tally, fixtures, order, SERVE_MODEL,
                               prediction=True, timed=False)
        tally.setups.append(clock() - server.spawned)
    except BaseException:
        server.kill()
        raise
    return server


async def warm_hits(run_dir, fixtures, seed, seconds, trace) -> Tally:
    from repro.client import PowerAPIError, PowerClient

    tally = Tally()
    for _ in range(SETUP_SAMPLES - 1):
        server = await warm_restart(run_dir, fixtures, tally, seed, trace=False)
        tally.peak_rss_kb = max(tally.peak_rss_kb, server.stop())
    server = await warm_restart(run_dir, fixtures, tally, seed, trace)
    connections = min(2, os.cpu_count() or 1)
    tally.notes["connections"] = connections
    try:
        async with PowerClient("127.0.0.1", server.port) as client:

            async def connection(lane: int, deadline: float) -> None:
                order = seeded_order(len(fixtures.catalog), seed, "warm_hits", lane)
                position = 0
                while clock() < deadline or tally.attempted < fixtures.scale.min_requests:
                    index = order[position % len(order)]
                    position += 1
                    tally.attempted += 1
                    start = clock()
                    try:
                        response = await client.estimate(**wire(fixtures.catalog[index]))
                    except (PowerAPIError, ConnectionError) as error:
                        tally.failed += 1
                        log(f"estimate failed: {error}")
                        continue
                    tally.answered(start, 1)
                    check_answer(tally, fixtures, response, index, SERVE_MODEL,
                                 features=True, prediction=True)

            begin = clock()
            lanes = [connection(lane, begin + seconds) for lane in range(connections)]
            await asyncio.gather(*lanes)
            tally.time(begin, clock())
    finally:
        tally.peak_rss_kb = max(tally.peak_rss_kb, server.stop())
    if server.trace_file is not None:
        tally.span_files.append(server.trace_file)
    return tally


async def rescore(run_dir, fixtures, seed, seconds, trace) -> Tally:
    """Rounds of rollouts, each round on a freshly restarted server; the last
    round stops after the rollout that completes the measurement."""
    from repro.client import PowerClient

    tally = Tally()
    rounds = 0
    while not enough(tally, seconds, fixtures) or len(tally.setups) < SETUP_SAMPLES:
        server = await warm_restart(run_dir, fixtures, tally, seed, trace)
        try:
            if not enough(tally, seconds, fixtures):
                async with PowerClient("127.0.0.1", server.port) as client:
                    for artifact in fixtures.rollouts():
                        if enough(tally, seconds, fixtures):
                            break
                        begin = clock()
                        order = seeded_order(
                            len(fixtures.catalog), seed, "rescore", rounds, artifact
                        )
                        version = fixtures.references[artifact]["version"]
                        await client.put_deployment(
                            {"rules": [{"pattern": "*", "model": artifact,
                                        "model_version": version}]}
                        )
                        await catalog_pass(client, tally, fixtures, order, artifact,
                                           prediction=False, timed=True)
                        tally.time(begin, clock())
                rounds += 1
        finally:
            tally.peak_rss_kb = max(tally.peak_rss_kb, server.stop())
        if server.trace_file is not None:
            tally.span_files.append(server.trace_file)
    return tally


def trainer_command(fixtures: Fixtures, *extra: str) -> list[str]:
    scale = fixtures.scale
    return [
        sys.executable,
        str(BENCH_DIR / "trainer.py"),
        "--catalog", str(fixtures.path / "catalog.npz"),
        "--held-out", scale.held_out,
        "--epochs", str(scale.train_epochs),
        *extra,
    ]


def finish(process: subprocess.Popen, timeout: float) -> str:
    """Wait for a child and return its remaining output; it never outlives us."""
    try:
        out, _ = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{process.args[1]} exited with {process.returncode}")
    return out


def train_once(tally: Tally, command: list[str]) -> str:
    """Run one training process; set-up runs from spawn to dataset loaded."""
    spawned = clock()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    if not line.startswith("loaded "):
        finish(process, 0)
        raise RuntimeError(f"training process failed before loading: {line!r}")
    tally.setups.append(clock() - spawned)
    return finish(process, 170)


async def train(run_dir, fixtures, seed, seconds, trace) -> Tally:
    """Identical fits, each in a fresh process like a user's training job (the
    seed is not used: the fitted fingerprint must not vary)."""
    tally = Tally()
    results = []
    while tally.timed_s < seconds or len(tally.setups) < SETUP_SAMPLES:
        if tally.timed_s >= seconds:
            train_once(tally, trainer_command(fixtures, "--load-only"))
            continue
        extra = ()
        if trace:
            tally.span_files.append(run_dir / f"train-spans-{len(results)}.json")
            extra = ("--trace", str(tally.span_files[-1]))
        out = train_once(tally, trainer_command(fixtures, *extra))
        result = json.loads(next(line for line in out.splitlines() if line.startswith("result "))[7:])
        results.append(result)
        tally.attempted += 1
        tally.time(*result["window"], result["designs"])
        tally.peak_rss_kb = max(tally.peak_rss_kb, result["peak_rss_kb"])
    # One fit configuration, one fingerprint: across fits and across runs of
    # the same sources (the first run of a fixture directory records it).
    record = fixtures.path / "train-fingerprint.txt"
    if not record.exists():
        record.write_text(results[0]["fingerprint"] + "\n")
    expected = record.read_text().strip()
    tally.failed = sum(
        result["fingerprint"] != expected or result["held_out_mape"] is None
        for result in results
    )
    tally.notes["held_out_mape"] = results[0]["held_out_mape"]
    return tally


RUNNERS = {"cold_sweep": cold_sweep, "warm_hits": warm_hits, "rescore": rescore, "train": train}


# -------------------------------------------------------------------- metrics


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def latency_ms(tally: Tally, share: float) -> float:
    """A latency percentile: the median over blocks of consecutive requests,
    each at least 200 requests and on average one second long (see the module
    docstring)."""
    latencies = [latency for _, latency, _ in tally.answers]
    blocks = max(1, min(len(latencies) // 200, int(tally.timed_s)))
    bounds = [len(latencies) * block // blocks for block in range(blocks + 1)]
    return statistics.median(
        percentile(latencies[low:high], share) for low, high in zip(bounds, bounds[1:])
    ) * 1e3


def end_to_end(workload: str, tally: Tally) -> dict[str, float]:
    metrics = {
        "designs_per_s": tally.designs_per_s,
        "setup_s": statistics.median(tally.setups),
        "peak_rss_mb": tally.peak_rss_kb / 1024.0,
    }
    if workload == "train":
        # Training answers no requests; both latencies are the median fit.
        fit = statistics.median(end - start for start, end, _ in tally.windows) * 1e3
        metrics["latency_ms_p50"] = metrics["latency_ms_p95"] = fit
    else:
        metrics["latency_ms_p50"] = latency_ms(tally, 0.50)
        metrics["latency_ms_p95"] = latency_ms(tally, 0.95)
    return metrics


def premises(workload: str, metrics: dict, layer_self: dict) -> list[str]:
    """What the traced run shows about where the workload's time goes.

    Which layer dominates is an observation of today's program, reported and
    not enforced: a later change may rightly make featurisation cheaper than
    the disk tier.  What a workload must never do raises
    :class:`PremiseError`.
    """
    from layers import FEATURISATION, SERVING

    if workload == "train":
        entered = [layer for layer in SERVING if layer_self[layer]]
        if entered:
            raise PremiseError(f"training entered serving layers {entered}")
        return ["no serving layer entered"]
    never = {
        "warm_hits": ("featurise.designs", "forward.calls"),
        "rescore": ("featurise.designs",),
    }.get(workload, ())
    for name in never:
        if metrics[name]:
            raise PremiseError(f"{workload} timed phase has {name} = {metrics[name]}")
    layers = {k: v for k, v in layer_self.items() if k not in FEATURISATION}
    layers["featurisation"] = sum(layer_self[layer] for layer in FEATURISATION)
    largest = max(layers, key=layers.get)
    return [f"{name} = 0" for name in never] + [
        f"largest self time: {largest} ({layers[largest] / sum(layers.values()):.0%})"
    ]


def traced(workload: str, run_dir: Path, fixtures: Fixtures, seed: int, seconds: float):
    from layers import cut, layer_metrics

    untraced = asyncio.run(RUNNERS[workload](run_dir, fixtures, seed, seconds, False))
    recorder = SpanRecorder()
    install(recorder, CLIENT_POINTS)
    tally = asyncio.run(RUNNERS[workload](run_dir, fixtures, seed, seconds, True))
    windows = [(start, end) for start, end, _ in tally.windows]
    rows = cut(recorder.spans, windows)
    for path in tally.span_files:
        rows += cut(read_json(path)["spans"], windows)
    requests = sum(1 for row in rows if row[0] == "client.estimate")
    overhead = tally.designs_per_s / untraced.designs_per_s
    metrics, layer_self = layer_metrics(rows, tally.timed_s, requests, overhead)
    return tally, metrics, premises(workload, metrics, layer_self), untraced.failed


# ----------------------------------------------------------------------- main


def main(argv: list[str] | None = None, scale: Scale = FULL) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from fixtures import ensure_fixtures
    from layers import METRICS as LAYER_METRICS

    fixtures = Fixtures.load(ensure_fixtures(scale, log), scale)
    run_dir = WORK / "runs" / f"{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            tally, values, checks, extra_failed = traced(
                args.workload, run_dir, fixtures, args.seed, args.seconds
            )
            units = LAYER_METRICS
        else:
            tally = asyncio.run(
                RUNNERS[args.workload](run_dir, fixtures, args.seed, args.seconds, False)
            )
            values, checks, extra_failed = end_to_end(args.workload, tally), [], 0
            units = END_TO_END
    except PremiseError as error:
        log(f"premise broken, no result: {error}")
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = tally.failed + extra_failed
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment_record(scale),
        "timed_s": tally.timed_s,
        "requests": len(tally.answers),
        "windows": tally.windows,
        "setups_s": tally.setups,
        "premises": checks,
        **tally.notes,
        "result": result,
    }
    with open(WORK / "ledger.jsonl", "a", encoding="utf-8") as ledger:
        ledger.write(json.dumps(record) + "\n")
    for name, unit in units:
        print(f"{name:34s} {values[name]:14.6g} {unit}")
    print(f"operations: attempted {tally.attempted}, succeeded {tally.attempted - failed}, "
          f"failed {failed}")
    for note in checks:
        print(f"premise: {note}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
