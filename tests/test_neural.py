from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epidemictrl.neural import Adam, LayerSpec, Mlp, load_mlp, mlp_from_widths, save_mlp

from conftest import rng


def finite_diff_check(net: Mlp, x: np.ndarray, eps: float = 1e-5) -> float:
    """Max relative error between backprop and central differences.

    Checks d/dtheta of sum(f(x)) per scalar parameter, for a one-row batch
    `x`. Denominators are
    floored at 1e-6 so true-zero gradients compare cleanly.
    """
    out, cache = net.forward_cached(x)
    grads, _ = net.backward(cache, np.ones_like(out))

    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + eps
            up = float(np.sum(net.forward(x)))
            flat[idx] = original - eps
            down = float(np.sum(net.forward(x)))
            flat[idx] = original
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[idx]), 1e-6)
            worst = max(worst, abs(numeric - gflat[idx]) / denom)
    return worst


def kink_margin(net: Mlp, x: np.ndarray) -> float:
    """Smallest |pre-activation| over rectifier layers (inf if none).

    Within about 1e-3 of a kink a central difference stops being a valid
    derivative estimate, so the checks below redraw such inputs.
    """
    _, cache = net.forward_cached(x)
    margin = math.inf
    for spec, (_, z) in zip(net.specs, cache):
        if spec.activation == "relu":
            margin = min(margin, float(np.abs(z).min()))
    return margin


def gradcheck_sweep(n_nets: int = 100, eps: float = 1e-5, seed: int = 0) -> float:
    """Worst finite-difference relative error over random small networks."""
    g = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_nets):
        depth = int(g.integers(1, 3))
        widths = tuple(int(w) for w in g.integers(2, 12, size=depth + 2))
        hidden = str(g.choice(["relu", "tanh"]))
        output = str(g.choice(["tanh", "identity"]))
        net = mlp_from_widths(widths, hidden, output, g)
        for _ in range(50):
            x = g.normal(size=(1, widths[0]))
            if kink_margin(net, x) > 1e-3:
                break
        worst = max(worst, finite_diff_check(net, x, eps))
    return worst


def _identity_net(w=2.0, b=1.0) -> Mlp:
    return Mlp(
        (LayerSpec(1, 1, "identity"),), [np.array([[w]])], [np.array([b])]
    )


def test_forward_zero_net():
    net = Mlp(
        (LayerSpec(3, 2, "identity"),),
        [np.zeros((3, 2))],
        [np.zeros(2)],
    )
    assert np.array_equal(net.forward(np.ones((1, 3))), np.zeros((1, 2)))


def test_forward_affine():
    net = _identity_net(w=2.0, b=1.0)
    assert net.forward(np.array([[3.0]]))[0, 0] == 7.0


def test_forward_tanh_range():
    net = mlp_from_widths((4, 8, 5), "relu", "tanh", rng(0))
    out = net.forward(rng(1).normal(size=(64, 4)) * 10)
    assert (np.abs(out) < 1.0).all()


def test_forward_rejects_width_mismatch():
    net = _identity_net()
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 2)))
    with pytest.raises(ValueError):  # a vector is not a one-row batch
        net.forward(np.ones(1))


def test_backward_identity_net_weight_grad_is_input():
    net = _identity_net(w=2.0, b=1.0)
    x = np.array([[3.0]])
    _, cache = net.forward_cached(x)
    grads, grad_in = net.backward(cache, np.ones((1, 1)))
    dw, db = grads
    assert dw[0, 0] == 3.0
    assert db[0] == 1.0
    assert grad_in[0, 0] == 2.0


def test_backward_zero_upstream_zero_grads():
    net = mlp_from_widths((5, 16, 3), "relu", "identity", rng(2))
    x = rng(3).normal(size=(1, 5))
    _, cache = net.forward_cached(x)
    grads, grad_in = net.backward(cache, np.zeros((1, 3)))
    assert all((g == 0).all() for g in grads)
    assert (grad_in == 0).all()


def test_backward_batch_sums_over_rows():
    net = mlp_from_widths((3, 7, 2), "tanh", "identity", rng(4))
    xs = rng(5).normal(size=(6, 3))
    _, cache = net.forward_cached(xs)
    grads_batch, _ = net.backward(cache, np.ones((6, 2)))
    total = [np.zeros_like(p) for p in net.parameters()]
    for i in range(len(xs)):
        _, c = net.forward_cached(xs[i : i + 1])
        grads, _ = net.backward(c, np.ones((1, 2)))
        for t, g in zip(total, grads):
            t += g
    for g_batch, t in zip(grads_batch, total):
        assert np.allclose(g_batch, t)


def test_finite_diff_linear_net_machine_precision():
    net = _identity_net(w=1.7, b=-0.3)
    assert finite_diff_check(net, np.array([[2.0]]), 1e-5) < 1e-9


def test_finite_diff_two_layer_tanh():
    net = mlp_from_widths((4, 12, 3), "tanh", "tanh", rng(6))
    assert finite_diff_check(net, rng(7).normal(size=(1, 4)), 1e-5) < 1e-4


def test_finite_diff_reference_architecture():
    net = mlp_from_widths((6, 64, 64, 8), "relu", "tanh", rng(8))
    assert finite_diff_check(net, rng(9).normal(size=(1, 6)), 1e-5) < 1e-4


def test_finite_diff_large_eps_degrades():
    net = mlp_from_widths((3, 10, 2), "tanh", "tanh", rng(10))
    x = rng(11).normal(size=(1, 3))
    small = finite_diff_check(net, x, 1e-5)
    large = finite_diff_check(net, x, 1.0)
    assert large > small


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_gradient_correctness_property(seed):
    g = np.random.default_rng(seed)
    widths = (int(g.integers(2, 6)), int(g.integers(2, 10)), int(g.integers(1, 5)))
    hidden = ["relu", "tanh"][int(g.integers(0, 2))]
    net = mlp_from_widths(widths, hidden, "identity", g)
    for _ in range(20):
        x = g.normal(size=(1, widths[0]))
        if kink_margin(net, x) > 1e-3:
            break
    assert finite_diff_check(net, x, 1e-5) < 1e-4


def test_adam_zero_grad_keeps_params():
    net = mlp_from_widths((2, 4, 1), "relu", "identity", rng(12))
    before = [p.copy() for p in net.parameters()]
    state = Adam(net)
    grads = [np.zeros_like(p) for p in net.parameters()]
    state.update(net, grads, lr=1e-3)
    for p, q in zip(net.parameters(), before):
        assert np.array_equal(p, q)


def test_adam_first_step_is_signed_lr():
    net = _identity_net(w=0.0, b=0.0)
    state = Adam(net)
    grads = [np.array([[0.37]]), np.array([-2.2])]
    state.update(net, grads, lr=1e-3)
    assert net.weights[0][0, 0] == pytest.approx(-1e-3, rel=1e-6)
    assert net.biases[0][0] == pytest.approx(1e-3, rel=1e-6)


def test_adam_quadratic_convergence():
    # 2-D quadratic: gradient norm under 1e-6 within 5,000 steps at lr 1e-3
    target = np.array([1.0, -0.5])
    scale = np.array([1.0, 10.0])
    net = Mlp(
        (LayerSpec(2, 1, "identity"),),
        [np.zeros((2, 1))],
        [np.zeros(1)],
    )
    state = Adam(net)
    for step in range(1, 5001):
        p = net.weights[0][:, 0]
        grad = 2 * scale * (p - target)
        state.update(net, [grad[:, None], np.zeros(1)], lr=1e-3)
        if np.linalg.norm(2 * scale * (net.weights[0][:, 0] - target)) < 1e-6:
            break
    assert np.linalg.norm(2 * scale * (net.weights[0][:, 0] - target)) < 1e-6


def test_initialization_deterministic():
    a = mlp_from_widths((6, 64, 8), "relu", "tanh", np.random.default_rng(42))
    b = mlp_from_widths((6, 64, 8), "relu", "tanh", np.random.default_rng(42))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_initialization_bounds_and_final_scale():
    net = mlp_from_widths((16, 8, 4), "relu", "tanh", rng(13), final_scale=0.1)
    assert np.abs(net.weights[0]).max() <= 1.0 / 4.0
    assert np.abs(net.weights[1]).max() <= 0.1 / np.sqrt(8)


def test_checkpoint_round_trip(tmp_path):
    net = mlp_from_widths((6, 32, 8), "relu", "tanh", rng(14))
    path = tmp_path / "net.ckpt"
    save_mlp(net, path, seed=7, step=150)
    loaded, header = load_mlp(path)
    assert header["seed"] == 7
    assert header["step"] == 150
    assert loaded.specs == net.specs
    for pa, pb in zip(loaded.parameters(), net.parameters()):
        assert np.array_equal(pa, pb)
    x = rng(15).normal(size=(1, 6))
    assert np.array_equal(loaded.forward(x), net.forward(x))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_mlp(path)


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(0, 3, "relu")
    with pytest.raises(ValueError):
        LayerSpec(3, 3, "softplus")
    with pytest.raises(ValueError):
        Mlp(
            (LayerSpec(2, 3, "relu"), LayerSpec(4, 1, "identity")),
            [np.zeros((2, 3)), np.zeros((4, 1))],
            [np.zeros(3), np.zeros(1)],
        )


def test_gradcheck_sweep_fast_and_tight():
    assert gradcheck_sweep(20, 1e-5, seed=3) < 1e-4
