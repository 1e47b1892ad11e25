"""Small feed-forward nets with softmax heads, written directly in numpy.

The pricing policy encodes the padded feature history with one shared affine
layer plus a per-slot bias matrix, follows it with the current slot's
features, and runs a few dense leaky-rectifier layers into a softmax over
prices. Its forward takes the raw history or an EncodedHistory; a caller
playing slot by slot starts from HistoryEncoder.empty and encodes each new row
once with HistoryEncoder.extend. An EncodedHistory keeps its encoding inside
the MLP input row (EncodedHistory.row), whose last columns hold the current
slot's features (EncodedHistory.step), so a play fills those columns in place
and passes them as the current features, and no pass concatenates its input.
The budget generator maps a Gaussian latent through dense layers into one
softmax head per slot over the budget set. The heads of a net share one size
and are normalized in one reshaped reduction; the pricer's single head needs
no reshape.

Backprop starts from externally supplied gradients on the output
probabilities (the objective is always sum_a g_a * P_a here), so no loss
classes exist. A tape holds references to the arrays the forward pass wrote,
never copies: each layer's input and the probabilities, and for the pricer
the play's EncodedHistory with the number of rows the pass saw, since later
rows are only ever appended. A play that keeps its tapes records them in
place: AlgorithmPolicy.tape_block preallocates one (slot, batch, width)
buffer per layer input and for the probabilities, and each pass given the
block as its history writes its input row and every layer's output into the
block's next slot. One backprop over the block adds each slot's gradient in
slot order, so it gives the same bits as a backprop per slot. Each policy is
a ParamBlocks over its components (encoder and dense layers, or dense layers
alone): parameters and gradients travel as flat lists of arrays in the
components' order, and any parameter change moves every component's version
counter, which invalidates the tapes, blocks and encoded histories built
before it. Each policy names its constructor keywords in ARCH and keeps them
as attributes, so persist can record the architecture and rebuild it.
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
        return self._forward(x)

    def _forward(self, x: np.ndarray,
                 out: Sequence[np.ndarray] | None = None) -> tuple[np.ndarray, MlpTape]:
        """forward for a float64 x of the input width, unchecked. With out,
        one C-contiguous float64 array per layer, shaped like x with that
        layer's width, layer k's output (the last is the probabilities) is
        written into out[k] and the tape refers to those arrays."""
        if out is None:
            out = [np.empty(x.shape[:-1] + (size,)) for size in self.layer_sizes[1:]]
        # each layer's product, bias and (hidden) rectifier go into its output array
        activations = [x]
        for k, (w, b, z) in enumerate(zip(self.weights, self.biases, out), start=1):
            np.matmul(activations[-1], w, out=z)
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
                 into: list[np.ndarray] | None = None, return_input_grad: bool = False):
        """Gradient of sum_{batch, action} grad_probs * P w.r.t. parameters.

        A block tape's slots are summed one at a time in slot order, onto
        `into` when given, so blocks of one play added in turn give the same
        bits as add_grads over per-slot backprops. With return_input_grad the
        gradient on the input batch comes back too, so wrappers can keep
        propagating into an upstream encoder. A hidden layer's slope is read
        off its output: leaky(z) > 0 exactly when z > 0.
        """
        if tape.version != self.version:
            raise StaleTapeError("parameters changed since this forward pass")
        grad_probs = np.atleast_2d(np.asarray(grad_probs, dtype=np.float64))
        if grad_probs.shape != tape.probs.shape:
            raise ValueError(f"grad shape {grad_probs.shape} != {tape.probs.shape}")
        stacked = tape.probs.ndim == 3
        probs, activations = tape.probs, tape.activations
        if not stacked:   # one slot
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
        if return_input_grad:
            dx = dz @ self.weights[0].T
            return grads, dx if stacked else dx[0]
        return grads


@dataclasses.dataclass
class EncodedHistory:
    """Raw history rows with their flat encoding, inside the pricer's input row.

    row is the input of a pricing pass: flat, the flattened encoding
    leaky(history @ W + B), then step, the features of the slot being priced,
    which each pass writes. Rows from `filled` on are unfilled zero rows,
    encoded like any other. HistoryEncoder.encode builds one from a raw
    history (every row filled), HistoryEncoder.empty builds an unfilled one
    and HistoryEncoder.extend fills its next row in place, so a slot-by-slot
    caller encodes each row once. It is valid only for the encoder
    parameters it was built with.
    """

    version: int
    history: np.ndarray   # (batch, n_slots, n_features)
    row: np.ndarray       # (batch, n_slots * width + n_features): flat, then step
    filled: int

    def __post_init__(self):
        split = self.row.shape[1] - self.history.shape[2]
        self.flat = self.row[:, :split]
        self.step = self.row[:, split:]


class HistoryEncoder:
    """Shared affine map plus per-slot bias over the padded feature history.

    flatten(leaky(history @ W + B)) with history (batch, n_slots, n_features);
    unfilled future rows stay zero-padded so the output width is static.
    """

    def __init__(self, n_slots: int, width: int, *, n_features: int = N_STEP_FEATURES,
                 slope: float = DEFAULT_SLOPE, rng: np.random.Generator | None = None):
        if n_slots < 0 or width < 1 or n_features < 1:
            raise ValueError("bad encoder dimensions")
        self.n_slots = int(n_slots)
        self.width = int(width)
        self.n_features = int(n_features)
        self.slope = _checked_slope(slope)
        self.version = 0
        if rng is None:
            self.weight = np.zeros((n_features, width))
        else:
            self.weight = glorot_uniform(rng, n_features, width, (n_features, width))
        self.bias = np.zeros((n_slots, width))

    @property
    def out_width(self) -> int:
        return self.n_slots * self.width

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def encode(self, history: np.ndarray) -> EncodedHistory:
        """Encode a raw (batch, n_slots, n_features) history in one product."""
        # copy: extend() writes into the history, callers may reuse theirs
        history = np.array(history, dtype=np.float64)
        if history.ndim == 2:
            history = history[None]
        if history.shape[1:] != (self.n_slots, self.n_features):
            raise ValueError(
                f"history shape {history.shape[1:]} != {(self.n_slots, self.n_features)}")
        z = history @ self.weight + self.bias
        encoded = EncodedHistory(
            version=self.version, history=history, filled=self.n_slots,
            row=np.zeros((history.shape[0], self.out_width + self.n_features)))
        encoded.flat[...] = leaky(z, self.slope).reshape(history.shape[0], self.out_width)
        return encoded

    def empty(self, batch: int) -> EncodedHistory:
        """The encoding of batch all-zero histories, with no row filled yet."""
        encoded = self.encode(np.zeros((batch, self.n_slots, self.n_features)))
        encoded.filled = 0
        return encoded

    def extend(self, encoded: EncodedHistory, row: np.ndarray) -> None:
        """Fill the next unfilled row and encode it, bit-identical to encode().

        numpy's stacked product runs one BLAS gemm per batch entry (a gemv
        when n_slots == 1), and a gemm row does not depend on the rows beside
        it. So the whole batch's row goes through one gemm when batch and
        n_slots are both above 1; otherwise a slice of at most two slots
        takes the same kernel as encode().
        """
        self._check_current(encoded)
        slot = encoded.filled
        history = encoded.history
        history[:, slot] = row
        if history.shape[0] > 1 and self.n_slots > 1:
            z = history[:, slot] @ self.weight
        else:
            lo = max(0, min(slot, self.n_slots - 2))
            z = (history[:, lo:lo + 2] @ self.weight)[:, slot - lo]
        z += self.bias[slot]
        leaky(z, self.slope, out=encoded.flat[:, slot * self.width:(slot + 1) * self.width])
        encoded.filled = slot + 1

    def _check_current(self, encoded: EncodedHistory) -> None:
        if encoded.version != self.version:
            raise StaleTapeError("history was encoded before a parameter update")

    def backprop(self, encoded: EncodedHistory, filled, flat: np.ndarray,
                 grad_flat: np.ndarray, *, into: list[np.ndarray] | None = None):
        """Parameter gradients given grad_flat, the gradient on flat, which
        encodes encoded's first `filled` rows followed by zero rows.

        flat and grad_flat are (batch, out_width), or (slot, batch, out_width)
        for a tape block, with one filled count per slot; slots are summed in
        order, onto `into` when given, as in SoftmaxMlp.backprop. The rows a
        pass saw are read back from encoded, which may have been extended
        since: filled rows never change. A row's slope is read off flat, like
        the MLP's.
        """
        self._check_current(encoded)
        if flat.ndim == 2:   # one slot
            flat, grad_flat, filled = flat[None], grad_flat[None], [filled]
        dz = leaky_grad(flat, self.slope)
        dz *= grad_flat
        dz = dz.reshape(*flat.shape[:-1], self.n_slots, self.width)
        # One einsum per slot (a stacked one picks a slower loop order), over
        # the rows the pass saw: einsum adds each (row, slot) term to running
        # sums that start at +0, and a zero row's terms are +-0, which leave
        # such a sum unchanged, so skipping them keeps every bit.
        d_weight = np.stack([np.einsum("brf,brw->fw", encoded.history[:, :k], d[:, :k])
                             for k, d in zip(filled, dz)])
        acc_weight, acc_bias = (None, None) if into is None else into
        return [_add_slots(acc_weight, d_weight), _add_slots(acc_bias, dz.sum(axis=1))]


class ParamBlocks:
    """Parameter bookkeeping shared by both policies.

    A policy's parameters are its blocks' params in order. Each block keeps
    the version counter its tapes record; any change here moves every block's
    counter, so a tape or EncodedHistory built before it raises StaleTapeError.
    """

    blocks: tuple  # the policy's components, e.g. (encoder, mlp)

    @property
    def params(self) -> list[np.ndarray]:
        return [p for block in self.blocks for p in block.params]

    def get_params(self) -> list[np.ndarray]:
        return [p.copy() for p in self.params]

    def set_params(self, arrays: Sequence[np.ndarray]) -> None:
        for p, a in zip(self._matching(arrays), arrays):
            p[...] = a
        self._invalidate_tapes()

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        """Plain gradient ascent; invalidates existing tapes."""
        for p, g in zip(self._matching(grads), grads):
            p += lr * g
        self._invalidate_tapes()

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

    def _invalidate_tapes(self) -> None:
        for block in self.blocks:
            block.version += 1


@dataclasses.dataclass
class AlgTape:
    """An AlgorithmPolicy pass: the encoded history it read, of which it saw
    the first `filled` rows, and its MLP tape.

    A tape block (AlgorithmPolicy.tape_block) records up to a fixed number of
    passes over one history along a leading slot axis of preallocated
    buffers, one filled count per slot; `slots` counts the passes recorded.
    """

    encoded: EncodedHistory
    filled: int | np.ndarray
    mlp_tape: MlpTape
    slots: int | None = None   # None for a single pass


class AlgorithmPolicy(ParamBlocks):
    """Posted-price policy: history encoder feeding dense layers, one price head."""

    kind = "algorithm"
    ARCH = ("n_users", "n_prices", "hidden", "encoder_width", "slope")

    def __init__(self, n_users: int, n_prices: int, *, hidden: Sequence[int] = (64, 64, 64),
                 encoder_width: int = 8, slope: float = DEFAULT_SLOPE,
                 rng: np.random.Generator | None = None):
        if n_users < 1 or n_prices < 1:
            raise ValueError("need at least one user and one price")
        self.n_users = int(n_users)
        self.n_prices = int(n_prices)
        self.encoder = HistoryEncoder(n_users - 1, encoder_width, slope=slope, rng=rng)
        in_width = self.encoder.out_width + N_STEP_FEATURES
        sizes = (in_width, *hidden, n_prices)
        self.mlp = SoftmaxMlp(sizes, (n_prices,), slope=slope, rng=rng)
        self.blocks = (self.encoder, self.mlp)
        self.hidden = self.mlp.layer_sizes[1:-1]
        self.encoder_width = self.encoder.width
        self.slope = self.mlp.slope

    def tape_block(self, encoded: EncodedHistory, n_slots: int) -> AlgTape:
        """An empty tape block for up to n_slots passes over encoded, with one
        (n_slots, batch, width) buffer per layer input and for the probabilities."""
        self.encoder._check_current(encoded)
        batch = encoded.row.shape[0]
        layers = [np.empty((n_slots, batch, size)) for size in self.mlp.layer_sizes]
        return AlgTape(encoded=encoded, filled=np.zeros(n_slots, dtype=np.int64),
                       mlp_tape=MlpTape(version=self.mlp.version, activations=layers[:-1],
                                        probs=layers[-1]),
                       slots=0)

    def forward(self, history, current: np.ndarray) -> tuple[np.ndarray, AlgTape | None]:
        """Price probabilities for the current slot's features, and the tape.

        history is the raw (batch, n_users - 1, N_STEP_FEATURES) array, future
        rows zero, or an EncodedHistory from self.encoder holding the same rows;
        both give bit-identical probabilities and gradients. It may also be a
        tape block from self.tape_block: the pass reads the block's history,
        writes its input row and each layer's output into the block's next
        slot, and returns the block as its tape.

        current may be the history's own step columns (EncodedHistory.step),
        filled by the caller: the pass then reads the history's input row in
        place, unchecked, and outside a block it keeps no tape (None), since
        the history's next pass or extend overwrites that row.
        """
        block = history if isinstance(history, AlgTape) else None
        encoded = history.encoded if block is not None else history
        if isinstance(encoded, EncodedHistory):
            self.encoder._check_current(encoded)
        else:
            encoded = self.encoder.encode(history)
        if current is encoded.step:
            x = encoded.row
        else:
            current = np.atleast_2d(np.asarray(current, dtype=np.float64))
            if current.shape != encoded.step.shape:
                raise ValueError(f"current features {current.shape} != {encoded.step.shape}")
            x = np.concatenate([encoded.flat, current], axis=1)
        if block is None:
            probs, mlp_tape = self.mlp._forward(x)
            if x is encoded.row:
                return probs, None
            return probs, AlgTape(encoded=encoded, filled=encoded.filled, mlp_tape=mlp_tape)
        if block.mlp_tape.version != self.mlp.version:
            raise StaleTapeError("parameters changed since this block was made")
        j = block.slots
        layers = block.mlp_tape.activations + [block.mlp_tape.probs]
        layers[0][j] = x
        probs, _ = self.mlp._forward(layers[0][j], [a[j] for a in layers[1:]])
        block.filled[j] = encoded.filled
        block.slots = j + 1
        return probs, block

    def backprop(self, tape: AlgTape, grad_probs: np.ndarray, *,
                 into: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Parameter gradients, summed over a block's recorded slots in slot
        order and added into `into` when given."""
        mlp_tape, filled = tape.mlp_tape, tape.filled
        if tape.slots is not None:
            n = tape.slots
            mlp_tape = MlpTape(version=mlp_tape.version, probs=mlp_tape.probs[:n],
                               activations=[a[:n] for a in mlp_tape.activations])
            filled = filled[:n]
        width = self.encoder.out_width
        mlp_grads, dx = self.mlp.backprop(mlp_tape, grad_probs, return_input_grad=True,
                                          into=None if into is None else into[2:])
        enc_grads = self.encoder.backprop(tape.encoded, filled,
                                          mlp_tape.activations[0][..., :width],
                                          dx[..., :width],
                                          into=None if into is None else into[:2])
        return enc_grads + mlp_grads


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
        self.blocks = (self.mlp,)
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
