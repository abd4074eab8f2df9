"""Forward inference in three modes: float, dequantized, integer-emulated.

float        — reference math on a FloatModel.
dequantized  — reconstructs alpha_hat * mask weights from a CompressedModel
               and runs the identical float path, so it is bit-equal to
               float mode on explicitly dequantized weights.
integer      — emulates a fixed-point datapath: activations live on an
               8-bit unsigned grid x ~ q * 2**(p-8) with a per-layer
               power-of-two exponent p from a calibration pass, conv MACs
               are exact integer sums (each in-channel's masked partial
               sum fits 32 bits, the scalar-weighted total stays below
               2**39) computed as a float64 GEMM, and bias add +
               requantization are exact int64 shifts with half-up rounding.

Every mode, and calibration, runs each image through one layer walk
(_walk) over a model that _prepare builds once per call, for a whole
stack or image set: an input map (identity, or 8-bit quantization at the
input exponent), one conv + ReLU step per conv layer (float conv on float
or dequantized weights, or the exact float64 im2col GEMM with integer
weights, shifts and shifted bias precomputed), the dense head, the pool
step (ops.maxpool2x2), and the value of one activation unit after the
input and after each conv (1.0 in the float modes, 2**(p-8) in integer
mode), applied at the tap and at flatten. Calibration walks the
dequantized preparation; training walks its own, with a conv step that
keeps im2col's cols and its own pool step.

Dense layers get ReLU between them but not after the last one (raw
logits). Integer mode converts the feature map back to floats at the
flatten boundary and runs any dense head in float — the compression
scheme only covers the 3x3 conv stack.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import ops
from .codec import CompressedModel, dequantized_float_model
from .network import (ConvSpec, DenseSpec, FlattenSpec, FloatModel, NetworkDefinition,
                      PoolSpec, check_model_matches, tap_shape)
from .quantize import QuantizedLayer, compute_layer_shift, mask_levels, round_half_away

MODES = ("float", "dequantized", "integer")

ACT_MAX = 255  # activations are quantized to 8-bit unsigned in integer mode
INT32_LIMIT = 2 ** 31


def check_accumulator_bounds(net: NetworkDefinition, profile) -> None:
    """Assert the fixed-point MAC cannot overflow, from shapes alone.

    Worst case per output pixel: in_channels * 9 products of an 8-bit
    activation and an m-bit mask value must stay below 2**31. With each
    product also weighted by a scalar <= 255, the whole accumulator then
    stays below 2**39 < 2**53, so the float64 GEMM computes it exactly.
    """
    for i, (shape, m) in enumerate(zip(net.conv_layer_shapes(), profile)):
        worst = shape.in_channels * ops.KERNEL_WEIGHTS * ACT_MAX * mask_levels(int(m))
        if worst >= INT32_LIMIT:
            raise ValueError(
                f"conv{i + 1}: masked accumulator worst case {worst} "
                f"overflows 32 bits")


def _check_image(net: NetworkDefinition, image: np.ndarray, stack: bool = False) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if (image.shape[-3:] if stack else image.shape) != net.input_shape:
        raise ops.ShapeError(
            f"image shape {image.shape} != network input {net.input_shape}")
    return image


class _Prepared(NamedTuple):
    entry: Callable[[np.ndarray], np.ndarray]        # image -> first activation map
    convs: list[Callable[[np.ndarray], np.ndarray]]  # per conv: map -> post-ReLU map
    scales: list[float]  # value of one activation unit: input, then each conv's output
    dense: list[tuple[np.ndarray, np.ndarray]]
    pool: Callable[[np.ndarray], np.ndarray]         # 2x2 max pool step


def _quantize_activation(x: np.ndarray, p: int) -> np.ndarray:
    q = round_half_away(np.maximum(x, 0.0) * 2.0 ** (8 - p))
    return np.minimum(q, ACT_MAX).astype(np.int64)


def _float_conv(spec: ConvSpec, w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = ops.conv2d(x, w, b, spec.stride, spec.padding)
    return np.maximum(out, 0.0, out=out)  # ReLU in place on the fresh conv output


def _integer_conv(spec: ConvSpec, layer: QuantizedLayer, p_in: int, p_out: int):
    """Conv + ReLU from the p_in activation grid to the p_out grid, in exact integers."""
    # integer weights: scalar mantissa times mask, worth a*M * 2**(e-8), held
    # as float64 so the MAC runs on BLAS; every product and partial sum is an
    # integer below 2**39 (see check_accumulator_bounds), so the GEMM is exact
    w_int = np.multiply(layer.scalars[:, :, None], layer.masks,
                        dtype=np.float64).reshape(layer.shape.out_channels, -1)
    e1 = layer.shift + p_in - p_out - 8    # accumulator -> p_out grid
    e2 = layer.shift - p_out               # bias -> p_out grid
    s = max(0, -e1, -e2)
    bias = layer.biases.astype(np.int64)[:, None] << (e2 + s)

    def step(xq: np.ndarray) -> np.ndarray:
        cols, (h, w) = ops.im2col(xq, spec.stride, spec.padding)
        acc = (w_int @ cols.astype(np.float64)).astype(np.int64)
        v = np.maximum((acc << (e1 + s)) + bias, 0)
        # exact division by 2**s, rounding half up (s = 0 adds 0 and shifts by 0)
        return np.minimum((v + ((1 << s) >> 1)) >> s, ACT_MAX).reshape(-1, h, w)
    return step


def _prepare(net: NetworkDefinition, weights, mode: str,
             act_exponents: list[int] | None = None) -> _Prepared:
    if mode != "integer":
        model = weights if mode == "float" else dequantized_float_model(weights)
        convs = [partial(_float_conv, s, w, b) for s, (w, b) in zip(net.conv_specs, model.conv)]
        return _Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1), model.dense,
                         ops.maxpool2x2)
    check_accumulator_bounds(net, weights.profile)
    if len(act_exponents) != len(weights.layers) + 1:
        raise ValueError(
            f"need {len(weights.layers) + 1} activation exponents "
            f"(input plus one per conv), got {len(act_exponents)}")
    p = [int(e) for e in act_exponents]
    convs = [_integer_conv(spec, layer, p_in, p_out) for spec, layer, p_in, p_out
             in zip(net.conv_specs, weights.layers, p, p[1:])]
    dense = [(np.asarray(w, np.float64), np.asarray(b, np.float64)) for w, b in weights.dense]
    return _Prepared(lambda x: _quantize_activation(x, p[0]), convs,
                     [2.0 ** (e - 8) for e in p], dense, ops.maxpool2x2)


def _walk(net: NetworkDefinition, prepared: _Prepared, image: np.ndarray, peaks=None,
          outputs: list | None = None):
    """(tap, logits) of one image; raises peaks[i + 1] to conv i's output max
    and appends every layer's output to outputs."""
    x = prepared.entry(image)
    tap = None
    conv_i = dense_i = 0
    for spec in net.layers:
        if isinstance(spec, ConvSpec):
            x = prepared.convs[conv_i](x)
            if peaks is not None:
                peaks[conv_i + 1] = np.maximum(peaks[conv_i + 1], x.max())
            if conv_i == net.tap_index:
                tap = x * prepared.scales[conv_i + 1]
            conv_i += 1
        elif isinstance(spec, PoolSpec):
            x = prepared.pool(x)
        elif isinstance(spec, FlattenSpec):
            x = x.reshape(-1) * prepared.scales[conv_i]
        elif isinstance(spec, DenseSpec):
            w, b = prepared.dense[dense_i]
            if dense_i > 0:
                x = ops.relu(x)
            x = ops.fully_connected(x, w, b)
            dense_i += 1
        if outputs is not None:
            outputs.append(x)
    return tap, (x if dense_i else None)


def calibrate_activation_exponents(net: NetworkDefinition, model: CompressedModel,
                                   images) -> list[int]:
    """Per-layer power-of-two activation exponents from a calibration pass.

    Runs dequantized forward over the calibration images, takes the max
    of the input and of every conv layer's post-ReLU output, and picks
    the smallest e with max < 2**e (same rule as the weight shift).
    Returns [input_exponent, conv1, ..., convN].
    """
    prepared = _prepare(net, model, "dequantized")
    peaks = np.zeros(len(model.layers) + 1)
    count = 0
    for count, image in enumerate(images, 1):
        image = _check_image(net, image)
        peaks[0] = max(peaks[0], float(np.abs(image).max()))
        _walk(net, prepared, image, peaks)
    if count == 0:
        raise ValueError("calibration needs at least one image")
    return [compute_layer_shift(np.array([p])).e for p in peaks]


def forward(net: NetworkDefinition, weights, image: np.ndarray, mode: str = "float",
            act_exponents: list[int] | None = None):
    """Run one C,H,W image, or a (..., C, H, W) stack, through the net.

    Returns (taps, logits) with the input's leading axes; logits is None
    without a dense head. The model is prepared once and each image walks
    it alone. Integer mode without act_exponents calibrates over the stack.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    image = _check_image(net, image, stack=True)
    if mode == "float":
        if not isinstance(weights, FloatModel):
            raise TypeError("float mode needs a FloatModel")
        check_model_matches(net, weights)
    elif not isinstance(weights, CompressedModel):
        raise TypeError(f"{mode} mode needs a CompressedModel")
    elif weights.network != net:
        raise ValueError("compressed model was built for a different architecture")
    rows = image.reshape(-1, *net.input_shape)
    if mode == "integer" and act_exponents is None:
        act_exponents = calibrate_activation_exponents(net, weights, rows)
    prepared = _prepare(net, weights, mode, act_exponents)
    lead, heads = image.shape[:-3], net.dense_specs
    taps = np.empty(lead + tap_shape(net))
    logits = np.empty(lead + (heads[-1].out_features,)) if heads else None
    for at, row in zip(np.ndindex(lead), rows):
        taps[at], out = _walk(net, prepared, row)
        if heads:
            logits[at] = out
    return taps, logits


def classify(net: NetworkDefinition, weights, image: np.ndarray, mode: str = "float",
             k: int = 5, act_exponents: list[int] | None = None) -> list[tuple[int, float]]:
    """Top-k (label, score) pairs; ties broken toward the lower label."""
    _, logits = forward(net, weights, image, mode, act_exponents)
    if logits is None:
        raise ValueError("network has no classifier head")
    if not 1 <= k <= logits.shape[0]:
        raise ValueError(f"k must be in 1..{logits.shape[0]}, got {k}")
    order = np.argsort(-logits, kind="stable")  # stable: equal scores keep index order
    return [(int(i), float(logits[i])) for i in order[:k]]


def accuracy(net: NetworkDefinition, weights, dataset, mode: str = "float",
             act_exponents: list[int] | None = None) -> tuple[float, float]:
    """(top-1, top-5) over (image, label) pairs, as one forward over the stacked
    images (integer mode without act_exponents calibrates on all of them)."""
    pairs = list(dataset)
    if not pairs:
        raise ValueError("empty dataset")
    images = np.stack([_check_image(net, image) for image, _ in pairs])
    _, logits = forward(net, weights, images, mode, act_exponents)
    if logits is None:
        raise ValueError("network has no classifier head")
    labels = np.array([label for _, label in pairs])[:, None]
    hits = np.argsort(-logits, axis=1, kind="stable")[:, :5] == labels  # ties as classify
    return float(hits[:, 0].mean()), float(hits.any(axis=1).mean())
