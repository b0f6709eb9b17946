"""Tests for the numpy autograd engine, including numerical gradient checks."""

import gc
import weakref

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad, stack_rows


def numerical_gradient(fn, tensor: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = fn()
        flat[index] = original - eps
        lower = fn()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def check_gradients(build_loss, parameters, rtol=1e-4):
    loss = build_loss()
    loss.backward()
    # Snapshot analytic gradients before the numerical probe re-runs build_loss
    # (which zeroes gradients as a real training step would).
    analytic_grads = [
        parameter.grad.copy() if parameter.grad is not None else np.zeros_like(parameter.data)
        for parameter in parameters
    ]
    for parameter, analytic in zip(parameters, analytic_grads):
        numeric = numerical_gradient(lambda: build_loss().item(), parameter)
        assert np.allclose(analytic, numeric, rtol=rtol, atol=1e-6), (
            f"gradient mismatch: {analytic} vs {numeric}"
        )


def test_add_mul_matmul_forward():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose((a + b).data, [[2.0, 2.0], [3.0, 5.0]])
    assert np.allclose((a * 2.0).data, [[2.0, 4.0], [6.0, 8.0]])
    assert np.allclose((a @ b).data, a.data)


def test_gradients_of_elementwise_ops():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((3, 2)), requires_grad=True)
    y = Tensor(rng.random((3, 2)), requires_grad=True)

    def loss():
        x.zero_grad()
        y.zero_grad()
        return ((x * y + x - y / 2.0) ** 2).sum()

    check_gradients(loss, [x, y])


def test_gradients_of_matmul_and_relu():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))

    def loss():
        w.zero_grad()
        return (x @ w).relu().sum()

    check_gradients(loss, [w])


def test_gradients_of_mean_abs_and_broadcast_bias():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 3)))

    def loss():
        w.zero_grad()
        b.zero_grad()
        return ((x @ w) + b).abs().mean()

    check_gradients(loss, [w, b])


def test_gradients_of_gather_and_segment_sum():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    index = np.array([0, 2, 2, 4, 1, 0])
    segments = np.array([0, 0, 1, 1, 2, 2])

    def loss():
        x.zero_grad()
        gathered = x.gather_rows(index)
        return gathered.segment_sum(segments, 3).sum()

    check_gradients(loss, [x])


def test_gradients_of_concat_and_reshape():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)

    def loss():
        a.zero_grad()
        b.zero_grad()
        return (a.concat(b, axis=1).reshape(-1) ** 2).sum()

    check_gradients(loss, [a, b])


def test_segment_sum_forward_matches_numpy():
    x = Tensor(np.arange(12.0).reshape(6, 2))
    segments = np.array([0, 1, 0, 1, 2, 2])
    out = x.segment_sum(segments, 3)
    expected = np.zeros((3, 2))
    np.add.at(expected, segments, x.data)
    assert np.allclose(out.data, expected)
    with pytest.raises(ValueError):
        x.segment_sum(np.array([0, 1]), 3)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_no_grad_disables_taping():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad


def test_dropout_training_and_eval_modes():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 10)), requires_grad=True)
    dropped = x.dropout(0.5, rng, training=True)
    kept_fraction = (dropped.data != 0).mean()
    assert 0.3 < kept_fraction < 0.7
    # Inverted dropout preserves the expectation.
    assert abs(dropped.data.mean() - 1.0) < 0.15
    identity = x.dropout(0.5, rng, training=False)
    assert identity is x
    with pytest.raises(ValueError):
        x.dropout(1.5, rng, training=True)


def test_stack_rows_gradients():
    rows = [Tensor(np.array([1.0, 2.0]), requires_grad=True) for _ in range(3)]
    stacked = stack_rows(rows)
    assert stacked.shape == (3, 2)
    stacked.sum().backward()
    assert all(np.allclose(row.grad, [1.0, 1.0]) for row in rows)
    with pytest.raises(ValueError):
        stack_rows([])


def test_gradient_accumulation_over_shared_nodes():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    loss = (y + y).sum()  # y used twice
    loss.backward()
    assert np.allclose(x.grad, [6.0])


def test_backward_frees_the_graph_without_the_cyclic_collector():
    """Once the loss is dropped, reference counting alone frees every
    intermediate activation: ``backward`` must leave no reference cycle
    holding the graph (training memory would otherwise wait on the cyclic
    collector's schedule)."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        hidden = (x @ w).relu()
        activation = weakref.ref(hidden.data)
        loss = hidden.sum()
        loss.backward()
        del hidden, loss
        assert activation() is None
    finally:
        gc.enable()
    assert x.grad is not None and w.grad is not None
