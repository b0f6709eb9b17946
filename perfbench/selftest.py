"""Self-test of the benchmark harness at reduced size.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Builds the small fixtures (two kernels, six designs each) and checks that

1. every workload, untraced and traced, prints every end-to-end and
   per-layer metric by name with its unit, and its result object carries
   them with those units;
2. the premise check fires when a rescore round runs on a registry and disk
   tier that already served the same rollouts (the reuse fresh copies exist
   to prevent);
3. the runs write no file outside the benchmark's ignored work directory, so
   no tracked file changes.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import shutil
import sys

import run
from common import ROOT, SMALL, WORK
from fixtures import ensure_fixtures
from layers import METRICS as LAYER_METRICS


def snapshot() -> dict[str, tuple[int, int]]:
    """Size and mtime of every file outside the work dir, caches and ``.git``."""
    files = {}
    for path in ROOT.rglob("*"):
        parts = path.relative_to(ROOT).parts
        if parts[0] == ".git" or "__pycache__" in parts or path.is_relative_to(WORK):
            continue
        if path.is_file():
            stat = path.stat()
            files[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return files


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def printed_metrics(workload: str, trace: int) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
            scale=SMALL,
        )
    check(code == 0, f"{workload} trace={trace} exited with {code}")
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    expected = LAYER_METRICS if trace else run.END_TO_END
    check(result["correct"] and result["failed"] == 0, f"{workload} answered wrongly")
    check(set(result["metrics"]) == {name for name, _ in expected},
          f"{workload} trace={trace} reported {sorted(result['metrics'])}")
    for name, unit in expected:
        check(result["metrics"][name]["unit"] == unit, f"{name} has the wrong unit")
        check(any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines),
              f"{workload} trace={trace} did not print {name} with {unit}")
    print(f"selftest: {workload} trace={trace}: {len(expected)} metrics printed with units")


def premise_fires_on_reuse() -> None:
    fixtures = run.Fixtures.load(ensure_fixtures(SMALL, run.log), SMALL)
    first = WORK / "selftest-first"
    second = WORK / "selftest-second"
    for directory in (first, second):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
    try:
        asyncio.run(run.rescore(first, fixtures, 3, 0.0, False))
        # A "fixture" directory holding the registry and disk tier one server
        # already used: its deployment plan and rollout predictions persist.
        used = run.Fixtures(first / "server-0", SMALL, fixtures.catalog, fixtures.references)
        try:
            asyncio.run(run.rescore(second, used, 3, 0.0, False))
        except run.PremiseError as error:
            print(f"selftest: premise check fired on a reused registry: {error}")
            return
        check(False, "rescore over a reused registry and disk tier was not refused")
    finally:
        shutil.rmtree(first, ignore_errors=True)
        shutil.rmtree(second, ignore_errors=True)


def main() -> None:
    before = snapshot()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            printed_metrics(workload, trace)
    premise_fires_on_reuse()
    after = snapshot()
    changed = sorted(set(before) ^ set(after) | {k for k in before if after.get(k) != before[k]})
    check(not changed, f"the runs wrote files outside {WORK}: {changed}")
    print("selftest: no file outside the work directory changed")
    print("selftest passed")


if __name__ == "__main__":
    main()
