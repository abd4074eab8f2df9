"""Plain-SGD training and quantization-aware retraining.

Retraining keeps a full-precision *shadow* copy of every parameter. Each
step runs forward and loss with the shadow quantized by
codec.quantize_conv_layers, the quantizer of the container (refreshed once
per epoch by default, or per step with ``refresh="step"``), then applies
the gradient straight through to the shadow weights. Layers whose profile
entry is None (the "keep float" sentinel) stay float; with an all-None
profile the loop reproduces plain float training bit for bit.

The forward pass is inference's engine._walk with training's own conv step
(im2col + GEMM, bias and ReLU in place, keeping each cols matrix for the
backward pass) and 2x2 max pool step. The backward pass reads the layer
outputs it records, routes each pool window's gradient to its first max by
equality masks on strided slices, and computes no gradient for the image.
Gradients and SGD updates run over one flat list in FloatModel.arrays order.

Each _sgd call owns one workspace of per-layer float64 buffers, allocated on
first use and reused for every sample and for the end-of-epoch scoring pass:
each conv's zero-bordered input frame, cols matrix and GEMM output, each
pool's output, and on the way back each conv's dpre, weight gradient, dcols
and col2im frame, and each pool's input gradient. The col2im frame is zeroed
on each use; every other buffer is overwritten whole, and a frame's border
is never written. So a reused buffer changes no bit, and the workspace
dies with its _sgd call. Conv weight gradients alias the workspace, and
_sgd adds them into its batch sums before the next sample. Other callers
get a fresh workspace per call, so fresh arrays.

Everything is deterministic given TrainConfig.seed: initialization draws
from default_rng([seed, 0]), epoch shuffles from default_rng([seed, 1]).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import count, islice
from typing import NamedTuple, Sequence

import numpy as np

from . import engine, ops
from .codec import SHIFT_SCOPES, CompressedModel, build_compressed_model, quantize_conv_layers
from .network import (ConvSpec, DenseSpec, FlattenSpec, FloatModel,
                      NetworkDefinition, PoolSpec, check_model_matches,
                      init_float_model)
from .quantize import DEFAULT_POLICY, dequantize_layer


class DivergenceError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.05
    batch_size: int = 16
    seed: int = 0
    policy: str = DEFAULT_POLICY
    profile: Sequence[int | None] | None = None  # per conv layer; None entry = float
    refresh: str = "epoch"                       # or "step"
    shift_scope: str = "layer"                   # one of SHIFT_SCOPES

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.refresh not in ("epoch", "step"):
            raise ValueError(f"refresh must be 'epoch' or 'step', got {self.refresh!r}")
        if self.shift_scope not in SHIFT_SCOPES:
            raise ValueError(f"shift_scope must be one of {SHIFT_SCOPES}, got {self.shift_scope!r}")


class EpochMetrics(NamedTuple):
    epoch: int
    loss: float
    top1: float


class TrainResult(NamedTuple):
    model: FloatModel
    metrics: list[EpochMetrics]


class RetrainResult(NamedTuple):
    model: CompressedModel | None   # None when the profile keeps some layer float
    shadow: FloatModel
    metrics: list[EpochMetrics]


def write_metrics_csv(path, metrics: Sequence[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,loss,top1\n")
        for m in metrics:
            fh.write(f"{m.epoch},{m.loss:.6f},{m.top1:.4f}\n")


# ---------------------------------------------------------------------------
# per-layer buffers, forward on the engine's walk, and backward

class _Workspace(dict):
    """Float64 buffers by (name, layer ordinal, shape), allocated zeroed on first
    use. _sgd keeps one for its call; every other caller gets a fresh one."""

    def take(self, name: str, i: int, shape: tuple[int, ...]) -> np.ndarray:
        key = (name, i, shape)
        buf = self.get(key)
        if buf is None:
            buf = self[key] = np.zeros(shape)
        return buf


def _frame_shape(shape, p):
    c, h, w = shape
    return c, h + 2 * p, w + 2 * p


def _maxpool(x, out=None):
    # own 2x2 max: perfbench requires that train never calls ops.maxpool2x2 (ROADMAP item 1)
    v = x.reshape(x.shape[0], x.shape[1] // 2, 2, x.shape[2] // 2, 2)
    rows = np.maximum(v[:, :, 0], v[:, :, 1])
    return np.maximum(rows[..., 0], rows[..., 1], out=out)


def _conv_step(ws, cols, i, spec, w, b, x):
    p = spec.padding
    if p:  # the frame's zero border is never written, so only its interior is copied
        frame = ws.take("frame", i, _frame_shape(x.shape, p))
        frame[:, p:-p, p:-p] = x
        x = frame
    h, wd = ops.conv_output_hw(x.shape[1], x.shape[2], spec.stride)
    c, _ = ops.im2col(x, spec.stride,
                      out=ws.take("cols", i, (x.shape[0] * ops.KERNEL_WEIGHTS, h * wd)))
    cols.append(c)
    out = np.matmul(w.reshape(w.shape[0], -1), c, out=ws.take("out", i, (w.shape[0], h * wd)))
    out += b[:, None]
    return np.maximum(out, 0.0, out=out).reshape(-1, h, wd)


def _forward(net, conv_params, dense_params, image, ws=None):
    """(logits, every layer's output, every conv's im2col matrix) from engine._walk.

    Conv and pool outputs and the cols matrices live in ws (a fresh one if None)."""
    ws = _Workspace() if ws is None else ws
    cols, outputs, pools = [], [], count()
    convs = [partial(_conv_step, ws, cols, i, spec, w, b)
             for i, (spec, (w, b)) in enumerate(zip(net.conv_specs, conv_params))]

    def pool(x):
        return _maxpool(x, ws.take("pool", next(pools),
                                   (x.shape[0], x.shape[1] // 2, x.shape[2] // 2)))

    prepared = engine._Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1),
                                dense_params, pool)
    _, logits = engine._walk(net, prepared, image, outputs=outputs)
    return logits, outputs, cols


def _pool_backward(x, y, grad, out=None):
    """Route grad to each 2x2 window's first max of y in row-major order, as argmax would."""
    dx = np.empty_like(x) if out is None else out  # every element is written below
    free = np.ones(y.shape, dtype=bool)  # free: max not yet taken
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x[:, di::2, dj::2] == y) & free
        free ^= hit
        dx[:, di::2, dj::2] = np.where(hit, grad, 0.0)
    return dx


def _backward(net, conv_params, dense_params, image, outputs, cols, dlogits, ws):
    """Gradients of every parameter, in FloatModel.arrays order; none for the image.

    The conv weight gradients, and every conv and pool input gradient, live in ws."""
    grads = []  # last layer first, b before w; reversed on return
    conv_i = len(conv_params)
    dense_i = len(dense_params)
    grad = dlogits
    inputs = [image] + outputs[:-1]
    for k, (spec, x, out) in reversed(list(enumerate(zip(net.layers, inputs, outputs)))):
        if isinstance(spec, DenseSpec):
            dense_i -= 1
            w, _ = dense_params[dense_i]
            vin = np.maximum(x, 0.0) if dense_i > 0 else x
            grads += [grad.copy(), np.outer(grad, vin)]
            grad = w.T @ grad
            if dense_i > 0:
                grad = grad * (x > 0)
        elif isinstance(spec, FlattenSpec):
            grad = grad.reshape(x.shape)
        elif isinstance(spec, PoolSpec):
            grad = _pool_backward(x, out, grad, ws.take("dx", k, x.shape))
        elif isinstance(spec, ConvSpec):
            conv_i -= 1
            w, _ = conv_params[conv_i]
            w2d = w.reshape(w.shape[0], -1)
            c = cols[conv_i]
            dpre = ws.take("dpre", conv_i, (w.shape[0], c.shape[1]))
            np.multiply(grad, out > 0, out=dpre.reshape(out.shape))
            dw = np.matmul(dpre, c.T, out=ws.take("dw", conv_i, w2d.shape))
            grads += [dpre.sum(axis=1), dw.reshape(w.shape)]
            if conv_i == 0:
                break  # only pools precede the first conv: nothing reads the image gradient
            dcols = np.matmul(w2d.T, dpre, out=ws.take("dcols", conv_i, c.shape))
            frame = ws.take("dframe", conv_i, _frame_shape(x.shape, spec.padding))
            grad = ops.col2im(dcols, x.shape, spec.stride, spec.padding, out=frame)
    return grads[::-1]


def _loss_and_grads(net, conv_params, dense_params, image, label, ws=None):
    """Cross-entropy loss of one sample and its gradients, in FloatModel.arrays order.

    With a workspace, the conv weight gradients alias its buffers, so they
    are valid only until its next use."""
    ws = _Workspace() if ws is None else ws
    logits, outputs, cols = _forward(net, conv_params, dense_params, image, ws)
    loss, probs = ops.softmax_cross_entropy(logits, label)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    return loss, _backward(net, conv_params, dense_params, image, outputs, cols, dlogits, ws)


# ---------------------------------------------------------------------------
# quantized parameter views

def _quantized_view(net, shadow: FloatModel, config: TrainConfig):
    """Conv params seen by the forward pass: quantized per profile.

    Entries with profile None alias the shadow arrays, so those layers
    track every SGD update like plain float training.
    """
    if config.profile is None:
        return shadow.conv
    layers = quantize_conv_layers(net, shadow.conv, config.profile, config.policy,
                                  config.shift_scope)
    return [pair if q is None else dequantize_layer(q) for pair, q in zip(shadow.conv, layers)]


def _dataset_top1(net, conv_params, dense_params, dataset, ws) -> float:
    hits = 0
    for image, label in dataset:
        logits, _, _ = _forward(net, conv_params, dense_params, image, ws)
        hits += int(np.argmax(logits) == label)
    return hits / len(dataset)


def _sgd(net, shadow: FloatModel, dataset, config: TrainConfig) -> list[EpochMetrics]:
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng([config.seed, 1])
    n = len(dataset)
    params = shadow.arrays()
    view = _quantized_view(net, shadow, config)
    ws = _Workspace()
    acc = [np.zeros_like(p) for p in params]
    metrics = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            if config.refresh == "step":
                view = _quantized_view(net, shadow, config)
            batch = order[start:start + config.batch_size]
            for a in acc:
                a.fill(0.0)
            for idx in batch:
                image, label = dataset[idx]
                loss, grads = _loss_and_grads(net, view, shadow.dense, image, label, ws)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {idx}")
                loss_sum += loss
                for a, g in zip(acc, grads):  # before ws is reused by the next sample
                    a += g
            scale = config.learning_rate / len(batch)
            for p, a in zip(params, acc):
                a *= scale
                p -= a
        # quantized from the epoch's final shadow: scored here, trained on next epoch
        view = _quantized_view(net, shadow, config)
        top1 = _dataset_top1(net, view, shadow.dense, dataset, ws)
        metrics.append(EpochMetrics(epoch, loss_sum / n, top1))
    return metrics


def train_float(net: NetworkDefinition, dataset, config: TrainConfig) -> TrainResult:
    """Plain SGD from a seeded He init; no quantization anywhere."""
    shadow = init_float_model(net, np.random.default_rng([config.seed, 0]))
    cfg = TrainConfig(**{**config.__dict__, "profile": None})
    metrics = _sgd(net, shadow, dataset, cfg)
    return TrainResult(shadow, metrics)


def retrain_quantized(net: NetworkDefinition, float_weights: FloatModel, dataset,
                      config: TrainConfig) -> RetrainResult:
    """Quantization-aware retraining from pretrained float weights.

    Returns the compressed container built from the final shadow weights
    (None if the profile leaves layers float), the shadow itself, and
    per-epoch metrics.
    """
    if config.profile is None:
        raise ValueError("retrain_quantized needs config.profile")
    check_model_matches(net, float_weights)
    shadow = float_weights.copy()
    metrics = _sgd(net, shadow, dataset, config)
    model = None
    if all(m is not None for m in config.profile):
        model = build_compressed_model(net, shadow, config.profile, config.policy,
                                       config.shift_scope)
    return RetrainResult(model, shadow, metrics)


def _switches(net, image, outputs) -> np.ndarray:
    """ReLU signs (of every layer output but the logits) and pool winners of one
    forward pass, as one flat array: the loss is smooth while it stays the same."""
    winners = [_pool_backward(x, y, np.ones_like(y)).ravel() for spec, x, y
               in zip(net.layers, [image] + outputs, outputs) if isinstance(spec, PoolSpec)]
    return np.concatenate([(y > 0).ravel() for y in outputs[:-1]] + winners)


def gradient_check(net: NetworkDefinition, model: FloatModel, sample,
                   n_checks: int = 30, step: float = 1e-4, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes min(n_checks, parameter count) random parameter coordinates on one
    (image, label) sample. A probe whose +-step pass flips a ReLU sign or a
    pool winner straddles a kink of the loss; it is replaced by an unprobed one.
    """
    check_model_matches(net, model)
    image, label = sample
    params = model.arrays()

    def probe():
        logits, outputs, _ = _forward(net, model.conv, model.dense, image)
        return ops.softmax_cross_entropy(logits, label)[0], _switches(net, image, outputs)

    def error_at(coord):
        i = int(np.searchsorted(offsets, coord, side="right")) - 1
        arr = params[i]
        where = np.unravel_index(int(coord - offsets[i]), arr.shape)
        keep = arr[where]
        arr[where] = keep + step
        plus, plus_at = probe()
        arr[where] = keep - step
        minus, minus_at = probe()
        arr[where] = keep
        if not (np.array_equal(plus_at, base) and np.array_equal(minus_at, base)):
            return None
        numeric = (plus - minus) / (2 * step)
        analytic = float(grads[i][where])
        return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)

    _, grads = _loss_and_grads(net, model.conv, model.dense, image, label)
    _, base = probe()
    offsets = np.cumsum([0] + [p.size for p in params])
    total = int(offsets[-1])
    want = min(n_checks, total)
    rng = np.random.default_rng(seed)
    first = rng.choice(total, size=want, replace=False)
    errors = [e for e in map(error_at, first) if e is not None]
    if len(errors) < want:  # replace skipped probes, in random order of the unprobed ones
        rest = rng.permutation(np.setdiff1d(np.arange(total), first))
        errors += islice((e for e in map(error_at, rest) if e is not None), want - len(errors))
    return max(errors, default=0.0)
