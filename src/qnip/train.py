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

Everything is deterministic given TrainConfig.seed: initialization draws
from default_rng([seed, 0]), epoch shuffles from default_rng([seed, 1]).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
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
# forward on the engine's walk, and backward

def _maxpool(x):
    # own 2x2 max: perfbench requires that train never calls ops.maxpool2x2 (ROADMAP item 1)
    v = x.reshape(x.shape[0], x.shape[1] // 2, 2, x.shape[2] // 2, 2)
    rows = np.maximum(v[:, :, 0], v[:, :, 1])
    return np.maximum(rows[..., 0], rows[..., 1])


def _conv_step(cols, spec, w, b, x):
    c, (h, wd) = ops.im2col(x, spec.stride, spec.padding)
    cols.append(c)
    out = w.reshape(w.shape[0], -1) @ c
    out += b[:, None]
    return np.maximum(out, 0.0, out=out).reshape(-1, h, wd)


def _forward(net, conv_params, dense_params, image):
    """(logits, every layer's output, every conv's im2col matrix) from engine._walk."""
    cols, outputs = [], []
    convs = [partial(_conv_step, cols, spec, w, b)
             for spec, (w, b) in zip(net.conv_specs, conv_params)]
    prepared = engine._Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1),
                                dense_params, _maxpool)
    _, logits = engine._walk(net, prepared, image, outputs=outputs)
    return logits, outputs, cols


def _pool_backward(x, y, grad):
    """Route grad to each 2x2 window's first max of y in row-major order, as argmax would."""
    dx, free = np.empty_like(x), np.ones(y.shape, dtype=bool)  # free: max not yet taken
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = (x[:, di::2, dj::2] == y) & free
        free ^= hit
        dx[:, di::2, dj::2] = np.where(hit, grad, 0.0)
    return dx


def _backward(net, conv_params, dense_params, image, outputs, cols, dlogits):
    """Gradients of every parameter, in FloatModel.arrays order; none for the image."""
    grads = []  # last layer first, b before w; reversed on return
    conv_i = len(conv_params)
    dense_i = len(dense_params)
    grad = dlogits
    inputs = [image] + outputs[:-1]
    for spec, x, out in zip(reversed(net.layers), reversed(inputs), reversed(outputs)):
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
            grad = _pool_backward(x, out, grad)
        elif isinstance(spec, ConvSpec):
            conv_i -= 1
            w, _ = conv_params[conv_i]
            dpre = grad.reshape(w.shape[0], -1) * (out.reshape(w.shape[0], -1) > 0)
            grads += [dpre.sum(axis=1), (dpre @ cols[conv_i].T).reshape(w.shape)]
            if conv_i == 0:
                break  # only pools precede the first conv: nothing reads the image gradient
            dcols = w.reshape(w.shape[0], -1).T @ dpre
            grad = ops.col2im(dcols, x.shape, spec.stride, spec.padding)
    return grads[::-1]


def _loss_and_grads(net, conv_params, dense_params, image, label):
    """Cross-entropy loss of one sample and its gradients, in FloatModel.arrays order."""
    logits, outputs, cols = _forward(net, conv_params, dense_params, image)
    loss, probs = ops.softmax_cross_entropy(logits, label)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    return loss, _backward(net, conv_params, dense_params, image, outputs, cols, dlogits)


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


def _dataset_top1(net, conv_params, dense_params, dataset) -> float:
    hits = 0
    for image, label in dataset:
        logits, _, _ = _forward(net, conv_params, dense_params, image)
        hits += int(np.argmax(logits) == label)
    return hits / len(dataset)


def _sgd(net, shadow: FloatModel, dataset, config: TrainConfig) -> list[EpochMetrics]:
    if not dataset:
        raise ValueError("empty dataset")
    rng = np.random.default_rng([config.seed, 1])
    n = len(dataset)
    params = shadow.arrays()
    view = _quantized_view(net, shadow, config)
    metrics = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            if config.refresh == "step":
                view = _quantized_view(net, shadow, config)
            batch = order[start:start + config.batch_size]
            acc = [np.zeros_like(p) for p in params]
            for idx in batch:
                image, label = dataset[idx]
                loss, grads = _loss_and_grads(net, view, shadow.dense, image, label)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {idx}")
                loss_sum += loss
                for a, g in zip(acc, grads):
                    a += g
            scale = config.learning_rate / len(batch)
            for p, a in zip(params, acc):
                p -= scale * a
        # quantized from the epoch's final shadow: scored here, trained on next epoch
        view = _quantized_view(net, shadow, config)
        top1 = _dataset_top1(net, view, shadow.dense, dataset)
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
