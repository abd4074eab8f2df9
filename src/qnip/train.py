"""Plain-SGD training and quantization-aware retraining.

Retraining keeps a full-precision *shadow* copy of every parameter. Each
step runs forward and loss with the quantized weights (alpha, mask and
shift refreshed from the shadow once per epoch by default, or per step
with ``refresh="step"``), then applies the gradient straight through to
the shadow weights — the quantizer is treated as identity in the backward
pass. Layers whose profile entry is None (the "keep float" sentinel) skip
quantization entirely; with an all-None profile the loop reproduces plain
float training bit for bit.

The forward pass is inference's engine._walk with training's own conv step
(im2col + GEMM + ReLU, keeping each cols matrix for the backward pass) and
2x2 max pool step; the backward pass reads the layer outputs it records.

Everything is deterministic given TrainConfig.seed: initialization draws
from default_rng([seed, 0]), epoch shuffles from default_rng([seed, 1]).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from . import engine, ops
from .codec import CompressedModel, build_compressed_model
from .network import (ConvSpec, DenseSpec, FlattenSpec, FloatModel,
                      NetworkDefinition, PoolSpec, check_model_matches,
                      init_float_model)
from .quantize import DEFAULT_POLICY, dequantize_layer, global_shift, quantize_layer


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
    shift_scope: str = "layer"                   # or "global"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.refresh not in ("epoch", "step"):
            raise ValueError(f"refresh must be 'epoch' or 'step', got {self.refresh!r}")
        if self.shift_scope not in ("layer", "global"):
            raise ValueError(f"shift_scope must be 'layer' or 'global', got {self.shift_scope!r}")


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
    return np.maximum(w.reshape(w.shape[0], -1) @ c + b[:, None], 0.0).reshape(-1, h, wd)


def _forward(net, conv_params, dense_params, image):
    """(logits, every layer's output, every conv's im2col matrix) from engine._walk."""
    cols, outputs = [], []
    convs = [partial(_conv_step, cols, spec, w, b)
             for spec, (w, b) in zip(net.conv_specs, conv_params)]
    prepared = engine._Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1),
                                dense_params, _maxpool)
    _, logits = engine._walk(net, prepared, image, outputs=outputs)
    return logits, outputs, cols


def _backward(net, conv_params, dense_params, image, outputs, cols, dlogits):
    conv_grads = [None] * len(conv_params)
    dense_grads = [None] * len(dense_params)
    conv_i = len(conv_params)
    dense_i = len(dense_params)
    grad = dlogits
    inputs = [image] + outputs[:-1]
    for spec, x, out in zip(reversed(net.layers), reversed(inputs), reversed(outputs)):
        if isinstance(spec, DenseSpec):
            dense_i -= 1
            w, _ = dense_params[dense_i]
            vin = np.maximum(x, 0.0) if dense_i > 0 else x
            dense_grads[dense_i] = (np.outer(grad, vin), grad.copy())
            grad = w.T @ grad
            if dense_i > 0:
                grad = grad * (x > 0)
        elif isinstance(spec, FlattenSpec):
            grad = grad.reshape(x.shape)
        elif isinstance(spec, PoolSpec):
            c, h, wd = x.shape
            windows = x.reshape(c, h // 2, 2, wd // 2, 2).transpose(0, 1, 3, 2, 4)
            idx = windows.reshape(c, h // 2, wd // 2, 4).argmax(axis=3)  # first max wins ties
            flat = np.where(np.arange(4) == idx[..., None], grad[..., None], 0.0)
            grad = flat.reshape(c, h // 2, wd // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, wd)
        elif isinstance(spec, ConvSpec):
            conv_i -= 1
            w, _ = conv_params[conv_i]
            dpre = grad.reshape(w.shape[0], -1) * (out.reshape(w.shape[0], -1) > 0)
            dw = (dpre @ cols[conv_i].T).reshape(w.shape)
            db = dpre.sum(axis=1)
            conv_grads[conv_i] = (dw, db)
            dcols = w.reshape(w.shape[0], -1).T @ dpre
            grad = ops.col2im(dcols, x.shape, spec.stride, spec.padding)
    return conv_grads, dense_grads


def _loss_and_grads(net, conv_params, dense_params, image, label):
    """Cross-entropy loss of one sample and its (conv, dense) gradients."""
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
    profile = config.profile
    if profile is None:
        return shadow.conv
    shapes = net.conv_layer_shapes()
    if len(profile) != len(shapes):
        raise ValueError(f"profile covers {len(profile)} layers, net has {len(shapes)}")

    override = (global_shift([w for w, _ in shadow.conv], profile, config.policy)
                if config.shift_scope == "global" else None)

    view = []
    for shape, (w, b), m in zip(shapes, shadow.conv, profile):
        if m is None:
            view.append((w, b))
        else:
            q = quantize_layer(w, b, int(m), config.policy, shape.stride, shape.padding,
                              shift_override=override)
            view.append(dequantize_layer(q))
    return view


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
    metrics = []
    for epoch in range(config.epochs):
        view = _quantized_view(net, shadow, config)
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            if config.refresh == "step":
                view = _quantized_view(net, shadow, config)
            batch = order[start:start + config.batch_size]
            conv_acc = [(np.zeros_like(w), np.zeros_like(b)) for w, b in shadow.conv]
            dense_acc = [(np.zeros_like(w), np.zeros_like(b)) for w, b in shadow.dense]
            for idx in batch:
                image, label = dataset[idx]
                loss, (cg, dg) = _loss_and_grads(net, view, shadow.dense, image, label)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {idx}")
                loss_sum += loss
                for (aw, ab), (gw, gb) in zip(conv_acc, cg):
                    aw += gw
                    ab += gb
                for (aw, ab), (gw, gb) in zip(dense_acc, dg):
                    aw += gw
                    ab += gb
            scale = config.learning_rate / len(batch)
            for (w, b), (gw, gb) in zip(shadow.conv, conv_acc):
                w -= scale * gw
                b -= scale * gb
            for (w, b), (gw, gb) in zip(shadow.dense, dense_acc):
                w -= scale * gw
                b -= scale * gb
        final_view = _quantized_view(net, shadow, config)
        top1 = _dataset_top1(net, final_view, shadow.dense, dataset)
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


def gradient_check(net: NetworkDefinition, model: FloatModel, sample,
                   n_checks: int = 30, step: float = 1e-4, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes n_checks randomly chosen parameter coordinates on one
    (image, label) sample.
    """
    check_model_matches(net, model)
    image, label = sample
    params = list(model.conv) + list(model.dense)

    def loss_at() -> float:
        logits, _, _ = _forward(net, model.conv, model.dense, image)
        return ops.softmax_cross_entropy(logits, label)[0]

    _, (conv_grads, dense_grads) = _loss_and_grads(net, model.conv, model.dense, image, label)
    grads = list(conv_grads) + list(dense_grads)

    flat_grads = []
    arrays = []
    for (w, b), (gw, gb) in zip(params, grads):
        arrays.extend([w, b])
        flat_grads.extend([gw, gb])
    sizes = np.array([a.size for a in arrays])
    total = int(sizes.sum())

    rng = np.random.default_rng(seed)
    coords = rng.choice(total, size=min(n_checks, total), replace=False)
    worst = 0.0
    for coord in coords:
        a_i = int(np.searchsorted(np.cumsum(sizes), coord, side="right"))
        offset = int(coord - np.concatenate([[0], np.cumsum(sizes)])[a_i])
        arr = arrays[a_i]
        where = np.unravel_index(offset, arr.shape)
        keep = arr[where]
        arr[where] = keep + step
        plus = loss_at()
        arr[where] = keep - step
        minus = loss_at()
        arr[where] = keep
        numeric = (plus - minus) / (2 * step)
        analytic = float(flat_grads[a_i][where])
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
