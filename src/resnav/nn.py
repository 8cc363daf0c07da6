"""Minimal dense-network kernel: forward, exact backprop, Adam, MC dropout.

Float64 throughout so tests can make bit-level claims. Dropout is the
inverted variant (kept activations scaled by 1/(1-p)) and applies to hidden
activations only, never to the output layer. A deterministic forward is
requested by passing rng=None, which is exactly equivalent to dropout_p=0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, UsageError
from .fileio import write_atomically

CKPT_FORMAT = "ckpt/1"
_CKPT_MAGIC = b"ckpt/1\n"
OUTPUT_ACTIVATIONS = ("tanh", "identity")
_OUT_INIT_SCALE = 1e-3  # uniform bound for the output layer at init


@dataclass
class Trace:
    """Intermediates captured by forward_trace, consumed by backward."""

    inputs: list[np.ndarray]  # input to each layer (post-dropout activations)
    relu_pos: list[np.ndarray]  # hidden pre-activation > 0, as float 0.0/1.0 masks
    masks: list[np.ndarray] | None  # scaled dropout masks per hidden layer
    output: np.ndarray


class Mlp:
    """Fully connected ReLU network with a tanh or identity output layer.

    layer_sizes includes input and output, e.g. [21, 256, 256, 2]. With
    rng=None all parameters start at zero; otherwise hidden layers use He
    initialisation and the output layer small uniform weights.

    All parameters live in one float64 vector, params (per layer: weights
    row-major, then bias); weights[i] and biases[i] are views into it.
    """

    def __init__(
        self,
        layer_sizes,
        output_activation: str = "tanh",
        dropout_p: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigurationError(f"invalid layer sizes {sizes}")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {output_activation!r}")
        if not 0.0 <= dropout_p < 1.0:
            raise ConfigurationError(f"dropout_p must be in [0, 1), got {dropout_p}")
        self.layer_sizes = sizes
        self.output_activation = output_activation
        self.dropout_p = float(dropout_p)
        self._bind(np.zeros(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))))
        if rng is None:
            return
        last = self.n_layers - 1
        for i, w in enumerate(self.weights):
            if i == last:
                w[...] = rng.uniform(-_OUT_INIT_SCALE, _OUT_INIT_SCALE, w.shape)
            else:
                w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), w.shape)

    def _layers(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) views into a vector laid out like params."""
        views = []
        offset = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w = flat[offset:offset + n_in * n_out].reshape(n_in, n_out)
            offset += n_in * n_out
            views.append((w, flat[offset:offset + n_out]))
            offset += n_out
        return views

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        layers = self._layers(params)
        self.weights = [w for w, _ in layers]
        self.biases = [b for _, b in layers]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_hidden(self) -> int:
        return self.n_layers - 1

    def __getstate__(self) -> dict:
        # weights and biases are views of params: pickle and deepcopy keep params alone
        return {k: v for k, v in vars(self).items() if k not in ("weights", "biases")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind(self.params)

    def draw_masks(self, batch: int, rng: np.random.Generator | None) -> list[np.ndarray] | None:
        """Sample inverted-dropout masks for each hidden layer, or None."""
        if rng is None or self.dropout_p == 0.0 or self.n_hidden == 0:
            return None
        # one draw split in layer order: the same stream as one draw per layer
        widths = self.layer_sizes[1:-1]
        flat = np.multiply(rng.random(batch * sum(widths)) >= self.dropout_p, 1.0 / (1.0 - self.dropout_p))
        masks, offset = [], 0
        for w in widths:
            masks.append(flat[offset:offset + batch * w].reshape(batch, w))
            offset += batch * w
        return masks

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Forward pass; stochastic when rng is given and dropout_p > 0."""
        x2, squeeze = self._as_batch(x)
        y = self._run(x2, self.draw_masks(x2.shape[0], rng), trace=None)
        return y[0] if squeeze else y

    def forward_trace(
        self, x: np.ndarray, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, Trace]:
        x2, _ = self._as_batch(x)
        trace = Trace(inputs=[], relu_pos=[], masks=self.draw_masks(x2.shape[0], rng), output=None)
        y = self._run(x2, trace.masks, trace=trace)
        trace.output = y
        return y, trace

    def _as_batch(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
            squeeze = True
        elif arr.ndim == 2:
            squeeze = False
        else:
            raise UsageError(f"input must be a vector or batch, got shape {arr.shape}")
        if arr.shape[1] != self.layer_sizes[0]:
            raise UsageError(f"input dim {arr.shape[1]} does not match network input {self.layer_sizes[0]}")
        return arr, squeeze

    def _run(self, x: np.ndarray, masks, trace: Trace | None) -> np.ndarray:
        h = x
        for i in range(self.n_hidden):
            if trace is not None:
                trace.inputs.append(h)
            # in place on fresh arrays: fewer large temporaries to allocate
            pre = h @ self.weights[i]
            pre += self.biases[i]
            if trace is not None:
                # float, not bool: backward multiplies by it without a cast per element
                trace.relu_pos.append((pre > 0.0).astype(np.float64))
            h = np.maximum(pre, 0.0, out=pre)
            if masks is not None:
                h *= masks[i]
        if trace is not None:
            trace.inputs.append(h)
        pre = h @ self.weights[-1]
        pre += self.biases[-1]
        return np.tanh(pre, out=pre) if self.output_activation == "tanh" else pre

    def backward(
        self, trace: Trace, upstream: np.ndarray, out: np.ndarray | None = None, input_grad: bool = True,
    ) -> np.ndarray | None:
        """Exact reverse-mode gradients for the traced forward pass.

        upstream is dLoss/dOutput, shape (batch, out). The parameter
        gradients, laid out like params, are written into out when it is
        given and skipped otherwise. Returns dLoss/dInput, or None when
        input_grad is False, which skips the first layer's input product.
        Gradients are summed over the batch; put any 1/batch factor into
        upstream.
        """
        delta = np.asarray(upstream, dtype=np.float64)
        if delta.ndim == 1:
            delta = delta[None, :]
        if delta.shape != trace.output.shape:
            raise UsageError(f"upstream shape {delta.shape} does not match output {trace.output.shape}")
        if self.output_activation == "tanh":
            delta = delta * (1.0 - trace.output**2)
        if out is not None and out.shape != self.params.shape:
            raise UsageError(f"gradient buffer shape {out.shape} does not match params {self.params.shape}")
        layers = None if out is None else self._layers(out)
        for i in range(self.n_layers - 1, -1, -1):
            if layers is not None:
                dw, db = layers[i]
                np.matmul(trace.inputs[i].T, delta, out=dw)
                np.add.reduce(delta, 0, out=db)
            if i == 0 and not input_grad:
                return None
            delta = delta @ self.weights[i].T
            if i > 0:
                if trace.masks is not None:
                    delta *= trace.masks[i - 1]
                delta *= trace.relu_pos[i - 1]
        return delta


class Adam:
    """Adam with bias correction, applied in place to one parameter vector.

    One optimiser can serve several networks whose parameters lie next to
    each other in one buffer: Adam is elementwise, so stepping their joint
    slice equals stepping each network with its own optimiser.
    """

    def __init__(self, params: np.ndarray, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        if lr <= 0.0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        # scratch for the step's two intermediates
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if params.shape != self.m.shape or grad.shape != self.m.shape:
            raise UsageError(f"parameter {params.shape} or gradient {grad.shape} does not match "
                             f"optimizer state {self.m.shape}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), operation for operation
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=num)
        v *= self.beta2
        np.multiply(grad, grad, out=num)
        num *= 1.0 - self.beta2
        v += num
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        np.divide(m, bc1, out=num)
        num *= self.lr
        num /= den
        params -= num


def mc_statistics(
    net: Mlp, x: np.ndarray, n_passes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance of stochastic forwards on one input.

    With dropout_p = 0 the passes are all identical, so the exact values
    (deterministic output, zero variance) are returned without drawing
    randomness.
    """
    if n_passes < 2:
        raise UsageError(f"n_passes must be >= 2, got {n_passes}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise UsageError(f"mc_statistics expects a single input vector, got shape {arr.shape}")
    if net.dropout_p == 0.0:
        y = net.forward(arr)
        return y, np.zeros_like(y)
    ys = net.forward(np.tile(arr, (n_passes, 1)), rng=rng)
    # the operations of ys.mean(0) and ys.var(0), with the mean taken once
    mean = np.add.reduce(ys, 0) / n_passes
    d = ys - mean
    d *= d
    return mean, np.add.reduce(d, 0) / n_passes


def polyak_update(target: np.ndarray, live: np.ndarray, tau: float) -> None:
    """target <- tau * live + (1 - tau) * target, elementwise over parameter vectors."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigurationError(f"tau must be in [0, 1], got {tau}")
    target *= 1.0 - tau
    target += tau * live


def save_checkpoint(net: Mlp, mode: str, path: str | Path) -> None:
    """Write a ckpt/1 file: magic, JSON header line, little-endian float64 blob."""
    header = {
        "format": CKPT_FORMAT,
        "mode": mode,
        "layer_sizes": net.layer_sizes,
        "dropout_p": net.dropout_p,
        "hidden_activation": "relu",
        "output_activation": net.output_activation,
    }
    blob = np.ascontiguousarray(net.params, dtype="<f8").tobytes()
    write_atomically(path, _CKPT_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + blob)


def load_checkpoint(path: str | Path) -> tuple[Mlp, str]:
    """Load a ckpt/1 file, returning the network and its training mode tag."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ConfigurationError(f"{path} is not a {CKPT_FORMAT} checkpoint (bad magic)")
    rest = raw[len(_CKPT_MAGIC):]
    nl = rest.find(b"\n")
    if nl < 0:
        raise ConfigurationError(f"{path}: missing checkpoint header")
    try:
        header = json.loads(rest[:nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint header: {exc}") from exc
    expected = {"format", "mode", "layer_sizes", "dropout_p", "hidden_activation", "output_activation"}
    if set(header) != expected:
        raise ConfigurationError(f"{path}: checkpoint header keys {sorted(header)} != {sorted(expected)}")
    if header["format"] != CKPT_FORMAT:
        raise ConfigurationError(f"{path}: unsupported checkpoint format {header['format']!r}")
    if header["hidden_activation"] != "relu":
        raise ConfigurationError(f"{path}: unsupported hidden activation {header['hidden_activation']!r}")
    net = Mlp(header["layer_sizes"], header["output_activation"], header["dropout_p"], rng=None)
    blob = rest[nl + 1:]
    if len(blob) != net.params.nbytes:
        raise ConfigurationError(f"{path}: parameter blob is {len(blob)} bytes, expected {net.params.nbytes}")
    net.params[...] = np.frombuffer(blob, dtype="<f8")
    return net, str(header["mode"])
