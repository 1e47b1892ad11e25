"""Small feed-forward nets with softmax heads, written directly in numpy.

The pricing policy runs a few dense leaky-rectifier layers over the current
slot's N_STEP_FEATURES step features into a softmax over prices. The budget
generator maps a Gaussian latent through dense layers into one softmax head
per slot over the budget set. The heads of a net share one size and are
normalized in one reshaped reduction; the pricer's single head needs no
reshape.

Backprop starts from externally supplied gradients on the output
probabilities (the objective is always sum_a g_a * P_a here), so no loss
classes exist. A tape holds references to the arrays the forward pass wrote,
never copies: each layer's input and the probabilities. The pricer keeps no
tape: its backprop takes the step features of one slot, or of a block of
slots along a leading slot axis, rebuilds their activations with one stacked
forward, which gives each slot the bits of its own forward, and adds the
slots' gradients in slot order, so a block gives the same bits as a backprop
per slot. Each policy is a ParamBlocks over one SoftmaxMlp: parameters and
gradients travel as flat lists of arrays in the net's order, and any
parameter change moves its version counter, which invalidates the tapes
built before it. Each policy names its constructor keywords in ARCH and
keeps them as attributes, so persist can record the architecture and
rebuild it.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

N_STEP_FEATURES = 4   # scaled index, scaled availability, last budget, last price
DEFAULT_SLOPE = 0.01


class StaleTapeError(RuntimeError):
    """Tape predates a parameter update and would give wrong gradients."""


def _checked_slope(slope) -> float:
    """The leaky-rectifier slope as a float; it must lie in [0, 1]."""
    try:
        value = float(slope)
    except (TypeError, ValueError):
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"slope must be a finite number in [0, 1], got {slope!r}")
    return value


def leaky(z: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    # equals np.where(z > 0, z, slope * z), signed zeros included, for slope in [0, 1]
    return np.maximum(z, slope * z, out=out)


def leaky_grad(z: np.ndarray, slope: float) -> np.ndarray:
    # equals np.where(z > 0, 1.0, slope) for slope in [0, 1], without where's
    # branchy loop over a mixed mask
    return np.maximum(z > 0, slope)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def _head_size(head_sizes: Sequence[int]) -> int:
    """The one size all heads share; heads of different sizes are rejected."""
    if len(set(head_sizes)) != 1:
        raise ValueError(f"softmax heads must share one size, got {tuple(head_sizes)}")
    return head_sizes[0]


def _softmax_(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def softmax_heads(z: np.ndarray, head_sizes: Sequence[int]) -> np.ndarray:
    """Row-wise softmax applied independently per contiguous head block."""
    z = np.asarray(z, dtype=np.float64)
    blocks = z.reshape(*z.shape[:-1], len(head_sizes), _head_size(head_sizes))
    return _softmax_(blocks.copy()).reshape(z.shape)


def sample_categorical(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling along the last axis; zero-probability actions
    are never drawn (their CDF interval is empty)."""
    return categorical_from_uniform(probs, rng.random(size=probs.shape[:-1] + (1,)))


def categorical_from_uniform(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_categorical with its uniforms u (shape probs.shape[:-1] + (1,))
    drawn beforehand, so a caller can draw them in its own order."""
    cdf = np.add.accumulate(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return np.add.reduce(cdf <= u, axis=-1)


def add_grads(acc: list[np.ndarray] | None, grads: list[np.ndarray]) -> list[np.ndarray]:
    if acc is None:
        return [g.copy() for g in grads]
    for a, g in zip(acc, grads):
        a += g
    return acc


def _add_slots(acc: np.ndarray | None, grads: np.ndarray) -> np.ndarray:
    """acc plus the per-slot gradients grads[0], grads[1], ... added one slot
    at a time in slot order, as add_grads over per-slot gradients does; a None
    acc starts from grads[0]. grads is scratch and gets overwritten."""
    if acc is not None:
        grads[0] += acc   # acc + g0: float addition commutes exactly
    if grads[0].size == 1:
        # numpy would sum one-element rows pairwise, as along a fast axis;
        # accumulate is a running sum, so it adds them in order
        grads = np.add.accumulate(grads, axis=0)[-1:]
    # along a slow axis numpy adds one row at a time, in order
    return np.add.reduce(grads, axis=0, out=acc)


def scale_grads(grads: list[np.ndarray], factor: float) -> list[np.ndarray]:
    for g in grads:
        g *= factor
    return grads


def clip_grads(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    total = np.sqrt(sum(float(np.square(g).sum()) for g in grads))
    if total > max_norm > 0:
        scale_grads(grads, max_norm / total)
    return grads


@dataclasses.dataclass
class MlpTape:
    version: int
    activations: list[np.ndarray]  # each layer's input: x, then each hidden output
    probs: np.ndarray


class SoftmaxMlp:
    """Dense layers with leaky-rectifier hidden activations and softmax heads.

    Inputs are (batch, in) or, for a block of slots, (slot, batch, in):
    numpy's stacked product runs one gemm per slot, the same kernel as a 2-D
    call.
    """

    def __init__(self, layer_sizes: Sequence[int], head_sizes: Sequence[int], *,
                 slope: float = DEFAULT_SLOPE, rng: np.random.Generator | None = None):
        layer_sizes = tuple(int(s) for s in layer_sizes)
        head_sizes = tuple(int(s) for s in head_sizes)
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes) or any(s < 1 for s in head_sizes):
            raise ValueError("all sizes must be positive")
        if sum(head_sizes) != layer_sizes[-1]:
            raise ValueError(f"heads {head_sizes} do not tile output {layer_sizes[-1]}")
        self.layer_sizes = layer_sizes
        self.head_sizes = head_sizes
        self.head_size = _head_size(head_sizes)
        self.slope = _checked_slope(slope)
        self.version = 0
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = glorot_uniform(rng, fan_in, fan_out, (fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.layer_sizes[0]:
            raise ValueError(f"input width {x.shape[-1]} != {self.layer_sizes[0]}")
        # each layer's product, bias and (hidden) rectifier go into its output array
        activations = [x]
        for k, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            z = np.matmul(activations[-1], w)
            z += b
            if k < len(self.weights):
                leaky(z, self.slope, out=z)
            activations.append(z)
        probs = activations.pop()
        if len(self.head_sizes) == 1:
            _softmax_(probs)
        else:   # a view: the output array is contiguous
            _softmax_(probs.reshape(*probs.shape[:-1], len(self.head_sizes), self.head_size))
        return probs, MlpTape(version=self.version, activations=activations, probs=probs)

    def backprop(self, tape: MlpTape, grad_probs: np.ndarray, *,
                 into: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Gradient of sum_{batch, action} grad_probs * P w.r.t. parameters.

        A block tape's slots are summed one at a time in slot order, onto
        `into` when given, so blocks of one play added in turn give the same
        bits as add_grads over per-slot backprops. A hidden layer's slope is
        read off its output: leaky(z) > 0 exactly when z > 0.
        """
        if tape.version != self.version:
            raise StaleTapeError("parameters changed since this forward pass")
        grad_probs = np.atleast_2d(np.asarray(grad_probs, dtype=np.float64))
        if grad_probs.shape != tape.probs.shape:
            raise ValueError(f"grad shape {grad_probs.shape} != {tape.probs.shape}")
        probs, activations = tape.probs, tape.activations
        if probs.ndim == 2:   # one slot
            probs, grad_probs = probs[None], grad_probs[None]
            activations = [a[None] for a in activations]
        grads = list(into) if into is not None else [None] * (2 * len(self.weights))
        p_heads = probs.reshape(*probs.shape[:-1], len(self.head_sizes), self.head_size)
        g_heads = grad_probs.reshape(p_heads.shape)
        inner = (g_heads * p_heads).sum(axis=-1, keepdims=True)
        dz = (p_heads * (g_heads - inner)).reshape(probs.shape)
        for k in range(len(self.weights) - 1, -1, -1):
            a_prev = activations[k]
            grads[2 * k + 1] = _add_slots(grads[2 * k + 1], dz.sum(axis=1))
            grads[2 * k] = _add_slots(grads[2 * k], a_prev.swapaxes(1, 2) @ dz)
            if k > 0:
                dz = (dz @ self.weights[k].T) * leaky_grad(a_prev, self.slope)
        return grads


class ParamBlocks:
    """Parameter bookkeeping shared by both policies, each a wrapper around
    one SoftmaxMlp (self.mlp): any change here moves the net's version
    counter, so a tape built before it raises StaleTapeError."""

    mlp: SoftmaxMlp

    @property
    def params(self) -> list[np.ndarray]:
        return self.mlp.params

    def get_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]

    def set_params(self, arrays: Sequence[np.ndarray]) -> None:
        for p, a in zip(self._matching(arrays), arrays):
            p[...] = a
        self.mlp.version += 1

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """Plain gradient ascent; invalidates existing tapes."""
        for p, g in zip(self._matching(grads), grads):
            p += lr * g
        self.mlp.version += 1

    def zero_grads(self) -> list[np.ndarray]:
        return [np.zeros_like(p) for p in self.params]

    def _matching(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The parameters, once arrays is checked to match them in count and shape."""
        params = self.params
        if len(arrays) != len(params):
            raise ValueError(f"got {len(arrays)} arrays, expected {len(params)}")
        for p, a in zip(params, arrays):
            if p.shape != a.shape:
                raise ValueError(f"shape {a.shape} != expected {p.shape}")
        return params


class AlgorithmPolicy(ParamBlocks):
    """Posted-price policy: dense layers over the current slot's step
    features, one price head."""

    kind = "algorithm"
    ARCH = ("n_users", "n_prices", "hidden", "slope")

    def __init__(self, n_users: int, n_prices: int, *, hidden: Sequence[int] = (64, 64, 64),
                 slope: float = DEFAULT_SLOPE, rng: np.random.Generator | None = None):
        if n_users < 1 or n_prices < 1:
            raise ValueError("need at least one user and one price")
        self.n_users = int(n_users)
        self.n_prices = int(n_prices)
        self.mlp = SoftmaxMlp((N_STEP_FEATURES, *hidden, n_prices), (n_prices,), slope=slope,
                              rng=rng)
        self.hidden = self.mlp.layer_sizes[1:-1]
        self.slope = self.mlp.slope

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Price probabilities for (batch, N_STEP_FEATURES) step features."""
        return self.mlp.forward(features)[0]

    def backprop(self, features: np.ndarray, grad_probs: np.ndarray, *,
                 into: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Parameter gradients of the passes on features, one slot's
        (batch, N_STEP_FEATURES) or a block's (slot, batch, N_STEP_FEATURES).
        One stacked forward rebuilds the block's activations; the slots are
        summed in slot order and added into `into` when given."""
        return self.mlp.backprop(self.mlp.forward(features)[1], grad_probs, into=into)


class AdversaryPolicy(ParamBlocks):
    """Budget-sequence generator: latent vector to one budget head per slot."""

    kind = "adversary"
    ARCH = ("n_users", "n_budgets", "latent_dim", "hidden", "slope")

    def __init__(self, n_users: int, n_budgets: int, *, latent_dim: int = 16,
                 hidden: Sequence[int] = (64, 64, 64, 64), slope: float = DEFAULT_SLOPE,
                 rng: np.random.Generator | None = None):
        if n_users < 1 or n_budgets < 1 or latent_dim < 1:
            raise ValueError("need positive dimensions")
        self.n_users = int(n_users)
        self.n_budgets = int(n_budgets)
        self.latent_dim = int(latent_dim)
        sizes = (latent_dim, *hidden, n_users * n_budgets)
        self.mlp = SoftmaxMlp(sizes, (n_budgets,) * n_users, slope=slope, rng=rng)
        self.hidden = self.mlp.layer_sizes[1:-1]
        self.slope = self.mlp.slope

    def forward(self, latents: np.ndarray) -> tuple[np.ndarray, MlpTape]:
        latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
        flat, tape = self.mlp.forward(latents)
        return flat.reshape(latents.shape[0], self.n_users, self.n_budgets), tape

    def backprop(self, tape: MlpTape, grad_probs: np.ndarray) -> list[np.ndarray]:
        grad_probs = np.asarray(grad_probs, dtype=np.float64)
        flat = grad_probs.reshape(grad_probs.shape[0], self.n_users * self.n_budgets)
        return self.mlp.backprop(tape, flat)
