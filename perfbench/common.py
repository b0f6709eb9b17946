"""Shared constants and helpers of the end-to-end benchmark.

Every process the benchmark starts gets the same pinned environment: BLAS and
OpenMP limited to one thread, and every ``REPRO_*`` switch removed so the
shipped defaults are what is measured.  The orchestrator applies the same
settings to itself before numpy is imported (see ``run.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git).
WORK = BENCH_DIR / ".work"

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SERVE_MODEL = "serve"

#: Answers must match the in-process reference within this tolerance.  The
#: serving path packs different batches than the reference, and BLAS results
#: depend on GEMM shapes, so bitwise equality is not the contract here.
RTOL = 1e-9
ATOL = 1e-12


def pin_environment(env: dict) -> dict:
    """Return ``env`` with threads pinned, ``REPRO_*`` removed and ``src`` importable."""
    pinned = {key: value for key, value in env.items() if not key.startswith("REPRO_")}
    for name in THREAD_VARIABLES:
        pinned[name] = "1"
    pinned["PYTHONPATH"] = str(SRC)
    return pinned


@dataclass(frozen=True)
class Scale:
    """Size of the fixtures.  ``full`` is the benchmark; ``small`` the self-test."""

    name: str
    kernels: tuple[str, ...]
    kernel_size: int
    designs_per_kernel: int
    #: Rollout artifacts of the rescore workload (never served before a round).
    rollouts: int
    #: Designs per kernel the fixture artifacts are briefly trained on.
    fixture_train_designs: int
    #: Design points per ``POST /v1/estimate_many`` in setup and rescore.
    batch: int
    #: Epochs of one benchmarked training fit.
    train_epochs: int
    #: Kernel held out of the training workload (Table I's leave-one-out).
    held_out: str
    #: Minimum requests per serving run (ten beyond p95 needs 200).
    min_requests: int

    def dataset_config(self):
        from repro.flow.dataset_gen import DatasetConfig

        return DatasetConfig(
            kernel_size=self.kernel_size, designs_per_kernel=self.designs_per_kernel
        )


FULL = Scale(
    name="full",
    kernels=("atax", "bicg", "gemm", "gesummv", "2mm", "3mm", "mvt", "syrk", "syr2k"),
    kernel_size=8,
    designs_per_kernel=60,
    rollouts=4,
    fixture_train_designs=12,
    batch=20,
    train_epochs=2,
    held_out="atax",
    min_requests=200,
)

SMALL = Scale(
    name="small",
    kernels=("atax", "gemm"),
    kernel_size=4,
    designs_per_kernel=6,
    rollouts=2,
    fixture_train_designs=4,
    batch=4,
    train_epochs=1,
    held_out="atax",
    min_requests=20,
)

SCALES = {scale.name: scale for scale in (FULL, SMALL)}


def source_digest(scale: Scale) -> str:
    """Digest of the program sources and the fixture recipe.

    Fixtures are built once per digest, so once per commit of the program.
    """
    digest = hashlib.blake2b(digest_size=12)
    digest.update(scale.name.encode())
    files = sorted(SRC.rglob("*.py")) + [BENCH_DIR / "common.py", BENCH_DIR / "fixtures.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree.

    Only ``ROOT/.git`` is consulted: a benchmark checkout without one must not
    pick up the commit of some repository that happens to enclose it.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else None


def environment_record(scale: Scale) -> dict:
    """Machine, sources and thread settings recorded with every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_digest": source_digest(scale),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "repro_switches": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload) -> None:
    staging = path.with_suffix(path.suffix + ".tmp")
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(staging, path)


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries the old address
    space's high-water mark into ``ru_maxrss`` across ``exec``, so a child
    spawned by a large parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")
