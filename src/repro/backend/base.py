"""The forward-path kernels and their op tally.

Every kernel on the packed mega-graph forward path — dense matmuls, the
``scatter_add`` over relation edges, gathers, activations, the fused
affine/activation combinations — is a method of :class:`ArrayBackend`.
The autograd tensor (:mod:`repro.nn.tensor`), the GNN forward
(:mod:`repro.gnn`) and the serving layer (:mod:`repro.serve`) all call
:func:`active_backend` instead of numpy directly, so the kernels live in
one place and the per-forward op tally sees every call.

There is one kernel set and one process-wide instance of it.  Its
expressions are the historical numpy ones, so every forward is bitwise
reproducible by construction: pooled == serial, cached == fresh, and a
fused op under ``no_grad`` == the composed ops that autograd records.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

import numpy as np


# -------------------------------------------------------------------- stats


@dataclass
class BackendStats:
    """Lifetime counters of the kernel set.

    ``forwards`` counts packed forward passes (one per
    :meth:`ArrayBackend.forward_scope` entry); the op counters count kernel
    invocations *inside* forward scopes — training-path calls run outside any
    scope and are deliberately not counted, so the numbers mean "serving
    work".  Mutated only under an internal lock: scopes tally locally and
    merge once on exit, so the hot path never contends.
    """

    forwards: int = 0
    matmuls: int = 0
    scatter_adds: int = 0
    gathers: int = 0
    fused_add_relu: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    _COUNTERS = (
        "forwards",
        "matmuls",
        "scatter_adds",
        "gathers",
        "fused_add_relu",
    )

    def merge(self, tally: dict[str, int]) -> None:
        with self._lock:
            for name, delta in tally.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> dict:
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS}


# ------------------------------------------------------------------ backend


class ArrayBackend:
    """The forward-path kernels (numpy expressions).

    The expressions here are *the* definition of bitwise behaviour: they are
    exactly the operations the pre-backend code ran, so a model served
    through them preserves historical outputs bit for bit.
    """

    def __init__(self) -> None:
        self.stats = BackendStats()
        self._tls = threading.local()

    # ------------------------------------------------------------- lifecycle

    @contextlib.contextmanager
    def forward_scope(self):
        """Delimit one packed forward pass (inference only, no autograd).

        Kernel calls inside the scope are tallied locally and merged into
        :attr:`stats` once on exit.  Scopes nest (an ensemble loop inside an
        outer scope); each one counts as a forward.
        """
        previous = getattr(self._tls, "tally", None)
        tally: dict[str, int] = {"forwards": 1}
        self._tls.tally = tally
        try:
            yield
        finally:
            self._tls.tally = previous
            self.stats.merge(tally)

    def _count(self, name: str) -> None:
        tally = getattr(self._tls, "tally", None)
        if tally is not None:
            tally[name] = tally.get(name, 0) + 1

    # ------------------------------------------------------------- kernels

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self._count("matmuls")
        return a @ b

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused affine ``x @ weight + bias``."""
        self._count("matmuls")
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def relu(self, x: np.ndarray) -> np.ndarray:
        # ``x * (x > 0)`` — not ``np.maximum`` — to stay bitwise-faithful to
        # the autograd tensor's historical mask formulation (it differs on
        # the sign bit of zeros produced from negative inputs).
        return x * (x > 0)

    def add_relu(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fused ``relu(a + b)`` — the conv's update + aggregation activation."""
        self._count("fused_add_relu")
        out = a + b
        return out * (out > 0)

    def gather_rows(self, values: np.ndarray, index: np.ndarray) -> np.ndarray:
        self._count("gathers")
        return values[index]

    def scatter_add(
        self, values: np.ndarray, index: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Sum rows of ``values`` into ``num_segments`` buckets given by ``index``.

        Equivalent to ``np.add.at(out, index, values)`` but built on
        ``np.bincount``, which runs the accumulation in a tight C loop instead
        of the buffered ``ufunc.at`` path — an order of magnitude faster on
        the message-aggregation shapes used here.  Both variants add
        contributions in row order, so the results are bitwise identical.
        """
        self._count("scatter_adds")
        index = np.asarray(index, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            return np.bincount(index, weights=values, minlength=num_segments)
        if values.ndim != 2:  # pragma: no cover - the models only use 1-D / 2-D
            out = np.zeros((num_segments,) + values.shape[1:], dtype=np.float64)
            np.add.at(out, index, values)
            return out
        columns = values.shape[1]
        if columns == 0 or values.shape[0] == 0:
            return np.zeros((num_segments, columns), dtype=np.float64)
        flat_index = (index[:, None] * columns + np.arange(columns)).ravel()
        flat = np.bincount(
            flat_index, weights=values.ravel(), minlength=num_segments * columns
        )
        return flat.reshape(num_segments, columns)

    def segment_mean(
        self, values: np.ndarray, index: np.ndarray, num_segments: int
    ) -> np.ndarray:
        sums = self.scatter_add(values, index, num_segments)
        counts = self.bincount(index, minlength=num_segments).astype(np.float64)
        counts[counts == 0] = 1.0
        return sums * (1.0 / counts).reshape(-1, 1)

    def bincount(
        self,
        index: np.ndarray,
        minlength: int = 0,
        weights: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorised occurrence (or weighted) counting over ``index``."""
        return np.bincount(
            np.asarray(index, dtype=np.int64), weights=weights, minlength=minlength
        )


_BACKEND = ArrayBackend()


def active_backend() -> ArrayBackend:
    """The process-wide kernel set every forward routes through."""
    return _BACKEND
