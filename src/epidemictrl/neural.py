"""Small dense networks with hand-derived reverse-mode gradients.

Arrays are float64 throughout and every gradient is written out by hand
(no autograd framework); the tests check the backward pass against
central differences. Weights initialize uniformly in
+-1/sqrt(fan_in); an optional scale shrinks the output layer for policies
that should start near zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")

CHECKPOINT_MAGIC = "mlp-checkpoint-v1"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    fan_in: int
    fan_out: int
    activation: str

    def __post_init__(self) -> None:
        for width in (self.fan_in, self.fan_out):
            if not isinstance(width, (int, np.integer)) or isinstance(width, bool):
                raise ValueError(f"layer widths must be integers, got {width!r}")
        if self.fan_in < 1 or self.fan_out < 1:
            raise ValueError("layer widths must be at least 1")
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(np.float64)
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


class Mlp:
    """Feed-forward network: affine layers with per-layer activations,
    mapping a (batch, input width) array to (batch, output width)."""

    def __init__(self, specs: tuple[LayerSpec, ...], weights, biases):
        for a, b in zip(specs, specs[1:]):
            if a.fan_out != b.fan_in:
                raise ValueError("adjacent layer widths disagree")
        self.specs = tuple(specs)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            if w.shape != (spec.fan_in, spec.fan_out) or b.shape != (spec.fan_out,):
                raise ValueError("parameter shapes do not match layer specs")

    def copy(self) -> "Mlp":
        return Mlp(
            self.specs,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping per-layer inputs and pre-activations."""
        a = np.asarray(x, dtype=np.float64)
        fan_in = self.specs[0].fan_in
        if a.ndim != 2 or a.shape[1] != fan_in:
            raise ValueError(f"expected a (batch, {fan_in}) input, got shape {a.shape}")
        cache = []
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            z = a @ w + b
            cache.append((a, z))
            a = _activate(z, spec.activation)
        return a, cache

    def backward(self, cache, grad_output: np.ndarray):
        """Exact gradients of sum(grad_output * output) w.r.t. params and input.

        Returns (gradients in `parameters()` order, grad_input); gradients
        sum over the batch, so the caller owns any 1/B scaling.
        """
        g = grad_output
        grads: list[np.ndarray] = [None] * (2 * len(self.specs))
        for i in range(len(self.specs) - 1, -1, -1):
            a_in, z = cache[i]
            dz = g * _activate_grad(z, self.specs[i].activation)
            grads[2 * i], grads[2 * i + 1] = a_in.T @ dz, dz.sum(axis=0)
            g = dz @ self.weights[i].T
        return grads, g


class Adam:
    """Bias-corrected Adam state for one network."""

    def __init__(self, net: Mlp):
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in net.parameters()]
        self.v = [np.zeros_like(p) for p in net.parameters()]

    def update(self, net: Mlp, grads, lr: float) -> None:
        """One Adam step in place; `grads` is in `net.parameters()` order."""
        params = net.parameters()
        if len(grads) != len(params):
            raise ValueError("gradient layout does not match parameters")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def save_mlp(
    net: Mlp, path, seed: int | None = None, step: int | None = None
) -> None:
    """Write a checkpoint: one JSON header line, then flat float64 params."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "layers": [
            {"fan_in": s.fan_in, "fan_out": s.fan_out, "activation": s.activation}
            for s in net.specs
        ],
        "dtype": "<f8",
        "param_count": sum(p.size for p in net.parameters()),
        "seed": seed,
        "step": step,
    }
    blob = np.concatenate([p.reshape(-1) for p in net.parameters()])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob.astype("<f8").tobytes())


def load_mlp(path) -> tuple[Mlp, dict]:
    """Read a checkpoint back; returns the network and its header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    header = json.loads(raw[:newline].decode("utf-8")) if newline >= 0 else None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a recognized checkpoint")
    layers = header.get("layers")
    keys = {"fan_in", "fan_out", "activation"}
    if not (isinstance(layers, list) and layers) or not all(
        isinstance(l, dict) and keys <= l.keys() for l in layers
    ):
        raise ValueError(f"{path}: header needs a list of layers, each with {sorted(keys)}")
    specs = tuple(LayerSpec(l["fan_in"], l["fan_out"], l["activation"]) for l in layers)
    flat = np.frombuffer(raw[newline + 1 :], dtype="<f8").astype(np.float64)
    expected = sum(s.fan_in * s.fan_out + s.fan_out for s in specs)
    if flat.size != expected:
        raise ValueError(
            f"{path}: parameter blob holds {flat.size} values, expected {expected}"
        )
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: parameters must be finite")
    weights, biases = [], []
    offset = 0
    for s in specs:
        w = flat[offset : offset + s.fan_in * s.fan_out].reshape(s.fan_in, s.fan_out)
        offset += s.fan_in * s.fan_out
        b = flat[offset : offset + s.fan_out]
        offset += s.fan_out
        weights.append(w.copy())
        biases.append(b.copy())
    return Mlp(specs, weights, biases), header


def mlp_from_widths(
    widths: tuple[int, ...],
    hidden_activation: str,
    output_activation: str,
    rng: np.random.Generator,
    final_scale: float = 1.0,
) -> Mlp:
    """Widths (in, h1, ..., out) to a freshly initialized net.

    Each layer draws its weights, then its biases; `final_scale` shrinks
    the output layer's.
    """
    if len(widths) < 2:
        raise ValueError("need at least input and output widths")
    specs, weights, biases = [], [], []
    for i in range(len(widths) - 1):
        last = i == len(widths) - 2
        act = output_activation if last else hidden_activation
        spec = LayerSpec(widths[i], widths[i + 1], act)
        bound = 1.0 / np.sqrt(spec.fan_in)
        w = rng.uniform(-bound, bound, size=(spec.fan_in, spec.fan_out))
        b = rng.uniform(-bound, bound, size=spec.fan_out)
        if last:
            w *= final_scale
            b *= final_scale
        specs.append(spec)
        weights.append(w)
        biases.append(b)
    return Mlp(tuple(specs), weights, biases)
