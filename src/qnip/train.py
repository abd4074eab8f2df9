"""Plain-SGD training and quantization-aware retraining.

Retraining keeps a full-precision *shadow* copy of every parameter. Each
step runs forward and loss with the quantized weights (alpha, mask and
shift refreshed from the shadow once per epoch by default, or per step
with ``refresh="step"``), then applies the gradient straight through to
the shadow weights — the quantizer is treated as identity in the backward
pass. Layers whose profile entry is None (the "keep float" sentinel) skip
quantization entirely; with an all-None profile the loop reproduces plain
float training bit for bit.

Everything is deterministic given TrainConfig.seed: initialization draws
from default_rng([seed, 0]), epoch shuffles from default_rng([seed, 1]).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import ops
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
# forward/backward with caches

def _forward_cached(net, conv_params, dense_params, image):
    x = image
    caches = []
    conv_i = dense_i = 0
    vec = None
    for spec in net.layers:
        if isinstance(spec, ConvSpec):
            w, b = conv_params[conv_i]
            cols, (h, wd) = ops.im2col(x, spec.stride, spec.padding)
            pre = w.reshape(w.shape[0], -1) @ cols + b[:, None]
            act = np.maximum(pre, 0.0)
            caches.append(("conv", cols, pre > 0, x.shape, (h, wd), spec))
            x = act.reshape(w.shape[0], h, wd)
            conv_i += 1
        elif isinstance(spec, PoolSpec):
            c, h, wd = x.shape
            windows = x.reshape(c, h // 2, 2, wd // 2, 2).transpose(0, 1, 3, 2, 4)
            flat = windows.reshape(c, h // 2, wd // 2, 4)
            idx = flat.argmax(axis=3)  # first max wins on ties, matching forward
            caches.append(("pool", idx, x.shape))
            x = np.take_along_axis(flat, idx[..., None], axis=3)[..., 0]
        elif isinstance(spec, FlattenSpec):
            caches.append(("flatten", x.shape))
            vec = x.reshape(-1)
        elif isinstance(spec, DenseSpec):
            w, b = dense_params[dense_i]
            relu_mask = None
            if dense_i > 0:
                relu_mask = vec > 0
                vec = np.maximum(vec, 0.0)
            caches.append(("dense", vec, relu_mask))
            vec = w @ vec + b
            dense_i += 1
    return (vec if dense_i else None), caches


def _backward_cached(net, conv_params, dense_params, caches, dlogits):
    conv_grads = [None] * len(conv_params)
    dense_grads = [None] * len(dense_params)
    conv_i = len(conv_params)
    dense_i = len(dense_params)
    grad = dlogits
    for spec, cache in zip(reversed(net.layers), reversed(caches)):
        if isinstance(spec, DenseSpec):
            dense_i -= 1
            _, vin, relu_mask = cache
            w, _ = dense_params[dense_i]
            dense_grads[dense_i] = (np.outer(grad, vin), grad.copy())
            grad = w.T @ grad
            if relu_mask is not None:
                grad = grad * relu_mask
        elif isinstance(spec, FlattenSpec):
            grad = grad.reshape(cache[1])
        elif isinstance(spec, PoolSpec):
            _, idx, in_shape = cache
            c, h, wd = in_shape
            flat = np.zeros((c, h // 2, wd // 2, 4))
            np.put_along_axis(flat, idx[..., None], grad[..., None], axis=3)
            grad = flat.reshape(c, h // 2, wd // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, wd)
        elif isinstance(spec, ConvSpec):
            conv_i -= 1
            _, cols, pre_mask, in_shape, _, _ = cache
            w, _ = conv_params[conv_i]
            dpre = grad.reshape(w.shape[0], -1) * pre_mask
            dw = (dpre @ cols.T).reshape(w.shape)
            db = dpre.sum(axis=1)
            conv_grads[conv_i] = (dw, db)
            dcols = w.reshape(w.shape[0], -1).T @ dpre
            grad = ops.col2im(dcols, in_shape, spec.stride, spec.padding)
    return conv_grads, dense_grads


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
        logits, _ = _forward_cached(net, conv_params, dense_params, image)
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
                logits, caches = _forward_cached(net, view, shadow.dense, image)
                loss, probs = ops.softmax_cross_entropy(logits, label)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {idx}")
                loss_sum += loss
                dlogits = probs.copy()
                dlogits[label] -= 1.0
                cg, dg = _backward_cached(net, view, shadow.dense, caches, dlogits)
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
        logits, _ = _forward_cached(net, model.conv, model.dense, image)
        return ops.softmax_cross_entropy(logits, label)[0]

    logits, caches = _forward_cached(net, model.conv, model.dense, image)
    loss, probs = ops.softmax_cross_entropy(logits, label)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    conv_grads, dense_grads = _backward_cached(net, model.conv, model.dense, caches, dlogits)
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
