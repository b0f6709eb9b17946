"""Unit tests of the forward-path kernels and their op tally.

Bitwise equality here means ``tobytes()`` equality — stronger than
``allclose`` and stronger than ``==`` (it distinguishes ``-0.0`` from
``0.0``, which the ReLU mask formulation deliberately preserves).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ArrayBackend, active_backend
from repro.nn.tensor import scatter_add_rows


@pytest.fixture()
def backend():
    return active_backend()


def _assert_bitwise(reference: np.ndarray, candidate: np.ndarray, label: str) -> None:
    assert reference.shape == candidate.shape, label
    assert reference.dtype == candidate.dtype, label
    assert reference.tobytes() == candidate.tobytes(), f"{label} diverged bitwise"


# ------------------------------------------------------------------- kernels


def test_scatter_add_matches_ufunc_at(backend):
    """The bincount formulation is the documented np.add.at equivalence."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((64, 5))
    index = rng.integers(0, 9, 64)
    expected = np.zeros((9, 5))
    np.add.at(expected, index, values)
    _assert_bitwise(expected, backend.scatter_add(values, index, 9), "scatter_add")
    # Empty / degenerate shapes.
    assert backend.scatter_add(np.zeros((0, 5)), np.zeros(0, dtype=int), 3).shape == (3, 5)
    assert backend.scatter_add(np.zeros((4, 0)), np.zeros(4, dtype=int), 3).shape == (3, 0)


def test_relu_preserves_negative_zero_convention(backend):
    """ReLU keeps the historical x * (x > 0) sign-of-zero bits."""
    x = np.array([-1.0, 0.0, 2.0, -0.0])
    _assert_bitwise(x * (x > 0), backend.relu(x), "relu")


# ------------------------------------------------------------------- tally


def test_forward_scope_counts_and_reuses_workspaces():
    backend = ArrayBackend()  # private instance: counters start at zero
    x = np.linspace(-1.0, 1.0, 128).reshape(16, 8)
    with backend.forward_scope():
        first = backend.relu(x)
        backend.matmul(x, x.T)
    with backend.forward_scope():
        second = backend.add_relu(x, x)
    backend.matmul(x, x.T)  # outside any scope: the training path, uncounted
    stats = backend.stats.as_dict()
    assert stats["forwards"] == 2
    assert stats["matmuls"] == 1
    assert stats["fused_add_relu"] == 1
    assert first.tobytes() == (x * (x > 0)).tobytes()
    assert second.tobytes() == ((x + x) * ((x + x) > 0)).tobytes()


def test_scatter_add_rows_delegates_to_active_backend():
    values = np.ones((6, 2))
    index = np.array([0, 1, 0, 1, 2, 2])
    expected = np.zeros((3, 2))
    np.add.at(expected, index, values)
    _assert_bitwise(expected, scatter_add_rows(values, index, 3), "scatter_add_rows")
