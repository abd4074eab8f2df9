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
               2**39) computed as a float64 GEMM on the dequantized
               weights, and bias add + requantization are exact int64
               shifts with half-up rounding.

Every mode, and calibration, runs each image through one layer walk
(_walk) over a model that _prepare builds once per call, for a whole
stack or image set: an input map (identity, or 8-bit quantization at the
input exponent), one conv + ReLU step per conv layer (float conv on float
or dequantized weights, or the exact float64 im2col GEMM on the
dequantized weights with shifts and shifted bias precomputed), the dense
head, the pool step (ops.maxpool2x2), and the value of one activation
unit after the input and after each conv (1.0 in the float modes,
2**(p-8) in integer mode), applied at the tap and at flatten. Calibration
walks the dequantized preparation; training walks its own, with a conv
step that keeps im2col's cols and its own pool step.

Dequantized and integer mode share one float64 weight set per
CompressedModel, as a chip keeps its weights resident: a private memo
holds dequantized_float_model's result for the last model run, by weak
reference, so the weights go when that model is collected or the next
model replaces them. A hit needs the same model object holding the same
layer and array objects and the same shifts, and the arrays it read are
made read-only, so an in-place write raises ValueError instead of
serving stale weights. The memo fills under a lock (`qnip extract
--jobs` walks on worker threads). Float mode is not memoized: training
updates FloatModels in place.

Dense layers get ReLU between them but not after the last one (raw
logits). Integer mode converts the feature map back to floats at the
flatten boundary and runs any dense head in float — the compression
scheme only covers the 3x3 conv stack.
"""
from __future__ import annotations

import operator
import threading
import weakref
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


def _integer_conv(spec: ConvSpec, layer: QuantizedLayer, w: np.ndarray, p_in: int, p_out: int):
    """Conv + ReLU from the p_in activation grid to the p_out grid, in exact
    integers, with the MAC on the layer's dequantized weights w."""
    # w = a*M * 2**(e-8), so the float64 GEMM of w and the activation codes,
    # times 2**(8-e), is the integer sum of a*M * code. Every step is exact:
    # each weight is an integer below 2**12 times 2**(e-8) >= 2**-16 (e >= -8,
    # so nothing is subnormal), and every product and partial sum, in any
    # order, is an integer below 2**39 (see check_accumulator_bounds) times
    # that same power of two; scaling by 2**(8-e) is exact too.
    w = w.reshape(layer.shape.out_channels, -1)
    unit = 2.0 ** (8 - layer.shift)
    e1 = layer.shift + p_in - p_out - 8    # accumulator -> p_out grid
    e2 = layer.shift - p_out               # bias -> p_out grid
    s = max(0, -e1, -e2)
    bias = layer.biases.astype(np.int64)[:, None] << (e2 + s)

    def step(xq: np.ndarray) -> np.ndarray:
        cols, (h, width) = ops.im2col(xq, spec.stride, spec.padding)
        acc = w @ cols.astype(np.float64)
        acc *= unit
        v = np.maximum((acc.astype(np.int64) << (e1 + s)) + bias, 0)
        # exact division by 2**s, rounding half up (s = 0 adds 0 and shifts by 0)
        return np.minimum((v + ((1 << s) >> 1)) >> s, ACT_MAX).reshape(-1, h, width)
    return step


class _Memo(NamedTuple):
    model: weakref.ref   # the CompressedModel the weights were built from
    sources: tuple       # its layers and the arrays they hold, compared by identity
    fields: tuple        # each layer's (shape, mask_bits, shift), compared by value
    weights: FloatModel  # dequantized_float_model of the model


_memo: _Memo | None = None
_memo_lock = threading.Lock()  # extract --jobs runs forwards on worker threads


def _forget(ref: weakref.ref) -> None:
    # runs when the memo's model is collected, possibly inside the locked
    # fill, so it takes no lock: at worst it clears a newer entry, a rebuild
    global _memo
    memo = _memo
    if memo is not None and memo.model is ref:
        _memo = None


def _dequantized(model: CompressedModel) -> FloatModel:
    """dequantized_float_model(model), built once and reused while the same
    model holds the same layers, arrays and shifts; the arrays it reads are
    made read-only, so an in-place write raises instead of going stale."""
    global _memo
    layers = model.layers
    sources = (*layers, *(a for layer in layers for a in (layer.scalars, layer.masks,
                                                          layer.biases)),
               *(a for pair in model.dense for a in pair))
    fields = tuple((layer.shape, layer.mask_bits, layer.shift) for layer in layers)
    with _memo_lock:
        memo = _memo
        if (memo is not None and memo.model() is model and memo.fields == fields
                and len(memo.sources) == len(sources)
                and all(map(operator.is_, memo.sources, sources))):
            return memo.weights
        _memo = memo = None  # free the last model's weights before building these
        weights = dequantized_float_model(model)
        for array in (*sources[len(layers):], *weights.arrays()):
            array.flags.writeable = False
        _memo = _Memo(weakref.ref(model, _forget), sources, fields, weights)
        return weights


def _prepare(net: NetworkDefinition, weights, mode: str,
             act_exponents: list[int] | None = None) -> _Prepared:
    if mode == "integer":
        check_accumulator_bounds(net, weights.profile)
        if len(act_exponents) != len(weights.layers) + 1:
            raise ValueError(
                f"need {len(weights.layers) + 1} activation exponents "
                f"(input plus one per conv), got {len(act_exponents)}")
    model = weights if mode == "float" else _dequantized(weights)
    if mode != "integer":
        convs = [partial(_float_conv, s, w, b) for s, (w, b) in zip(net.conv_specs, model.conv)]
        return _Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1), model.dense,
                         ops.maxpool2x2)
    p = [int(e) for e in act_exponents]
    convs = [_integer_conv(spec, layer, w, p_in, p_out) for spec, layer, (w, _), p_in, p_out
             in zip(net.conv_specs, weights.layers, model.conv, p, p[1:])]
    return _Prepared(lambda x: _quantize_activation(x, p[0]), convs,
                     [2.0 ** (e - 8) for e in p], model.dense, ops.maxpool2x2)


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
    return _forward(net, weights, image, mode, act_exponents)


def _forward(net: NetworkDefinition, weights, image: np.ndarray, mode: str,
             act_exponents: list[int] | None, keep_taps: bool = True):
    """forward; without keep_taps the taps are walked but not kept (None)."""
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
    taps = np.empty(lead + tap_shape(net)) if keep_taps else None
    logits = np.empty(lead + (heads[-1].out_features,)) if heads else None
    for at, row in zip(np.ndindex(lead), rows):
        tap, out = _walk(net, prepared, row)
        if keep_taps:
            taps[at] = tap
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
    images that keeps only the logits (integer mode without act_exponents
    calibrates on all of them)."""
    pairs = list(dataset)
    if not pairs:
        raise ValueError("empty dataset")
    images = np.stack([_check_image(net, image) for image, _ in pairs])
    _, logits = _forward(net, weights, images, mode, act_exponents, keep_taps=False)
    if logits is None:
        raise ValueError("network has no classifier head")
    labels = np.array([label for _, label in pairs])[:, None]
    hits = np.argsort(-logits, axis=1, kind="stable")[:, :5] == labels  # ties as classify
    return float(hits[:, 0].mean()), float(hits.any(axis=1).mean())
