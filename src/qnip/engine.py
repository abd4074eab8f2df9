"""Forward inference in three modes: float, dequantized, integer-emulated.

float        — reference math on a FloatModel.
dequantized  — runs the identical float path on the alpha_hat * mask
               weights a CompressedModel dequantizes once and keeps, as a
               chip keeps its weights resident, so it is bit-equal to
               float mode on explicitly dequantized weights.
integer      — emulates a fixed-point datapath: activations live on an
               8-bit unsigned grid x ~ q * 2**(p-8) with a per-layer
               power-of-two exponent p from a calibration pass, held as
               float64 codes. The same float64 conv on the dequantized
               weights computes exact integer MACs (the accumulator stays
               below 2**39), and requantizing by a power of two with
               half-up rounding is exact in float64 too.

Every mode, and calibration, runs each image through one layer walk
(_walk) over a model that _prepare builds once per call, for a whole
stack or image set: an input map (identity, or 8-bit quantization at the
input exponent), one conv step per conv layer (_conv: ops.conv2d, then
an in-place epilogue, ReLU in the float modes and requantization in
integer mode), the dense head, the pool step (ops.maxpool2x2), and the
value of one activation unit after the input and after each conv (1.0
in the float modes, 2**(p-8) in integer mode), applied at the tap and at
flatten. Calibration walks the dequantized preparation; training walks
its own, with a conv step that keeps im2col's cols and its own pool step.

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
from .codec import CompressedModel
from .codec import dequantized_float_model  # noqa: F401 (perfbench's tracer test reads it here)
from .network import (ConvSpec, DenseSpec, FlattenSpec, FloatModel, NetworkDefinition,
                      PoolSpec, check_model_matches)
from .quantize import (SHIFT_MAX, SHIFT_MIN, check_shift, compute_layer_shift, mask_levels,
                       round_half_away)

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
    for i, (shape, m) in enumerate(zip(net.conv_specs, profile)):
        worst = shape.in_channels * ops.KERNEL_WEIGHTS * ACT_MAX * mask_levels(m)
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
    """Float64 codes 0..255 of x on the 2**(p-8) grid."""
    return np.minimum(round_half_away(np.maximum(x, 0.0) * 2.0 ** (8 - p)), ACT_MAX)


def _relu(out: np.ndarray) -> np.ndarray:
    return np.maximum(out, 0.0, out=out)  # in place on the fresh conv output


def _requantize(scale: float, out: np.ndarray) -> np.ndarray:
    """Codes on the input grid -> codes on the output grid, in place: scale by
    2**(p_in - p_out), round half up, then ReLU and clip to 0..255."""
    # Exact in float64 while every shift and exponent lies in [SHIFT_MIN,
    # SHIFT_MAX] (checked in _prepare). w @ codes is A * 2**(shift-8) for an
    # integer |A| < 2**39 (check_accumulator_bounds): each product and partial
    # sum, in any order, is an integer below that times the same power of two,
    # and 2**(shift-8) >= 2**-16 is never subnormal. The bias b * 2**(8-p_in)
    # is B * 2**(8-p_in) on that grid, with |B| < 2**11 and 8 - p_in <= 16, so
    # the conv output is an integer below 2**40 times 2**(shift-8), exactly.
    # The scale is a power of two, so it is exact too. +0.5 and floor are
    # exact below 2**52; a larger value clips to 0 or 255 either way, because
    # rounding is monotone.
    out *= scale
    out += 0.5
    np.floor(out, out=out)
    return np.clip(out, 0, ACT_MAX, out=out)


def _conv(spec: ConvSpec, w: np.ndarray, b: np.ndarray,
          epilogue: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    return epilogue(ops.conv2d(x, w, b, spec.stride, spec.padding))


def _check_weights(net: NetworkDefinition, weights, mode: str) -> None:
    """TypeError for weights of the wrong type, ValueError for another net or mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "float":
        if not isinstance(weights, FloatModel):
            raise TypeError("float mode needs a FloatModel")
        check_model_matches(net, weights)
    elif not isinstance(weights, CompressedModel):
        raise TypeError(f"{mode} mode needs a CompressedModel")
    elif weights.network != net:
        raise ValueError("compressed model was built for a different architecture")


def _prepare(net: NetworkDefinition, weights, mode: str,
             act_exponents: list[int] | None = None) -> _Prepared:
    if mode == "integer":
        check_accumulator_bounds(net, weights.profile)
        if len(act_exponents) != len(weights.layers) + 1:
            raise ValueError(
                f"need {len(weights.layers) + 1} activation exponents "
                f"(input plus one per conv), got {len(act_exponents)}")
        error = (f"activation exponents {list(act_exponents)} must be integers "
                 f"in [{SHIFT_MIN}, {SHIFT_MAX}]")
        p = [check_shift(e, error) for e in act_exponents]
    model = weights if mode == "float" else weights.dequantized
    if mode != "integer":
        convs = [partial(_conv, s, w, b, _relu) for s, (w, b) in zip(net.conv_specs, model.conv)]
        return _Prepared(lambda x: x, convs, [1.0] * (len(convs) + 1), model.dense,
                         ops.maxpool2x2)
    convs = [partial(_conv, spec, w, b * 2.0 ** (8 - p_in),  # bias in input-code units
                     partial(_requantize, 2.0 ** (p_in - p_out)))
             for spec, (w, b), p_in, p_out in zip(net.conv_specs, model.conv, p, p[1:])]
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
    _check_weights(net, model, "dequantized")
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
    image = _check_image(net, image, stack=True)
    return _forward(net, weights, image.reshape(-1, *net.input_shape), image.shape[:-3], mode,
                    act_exponents)


def _forward(net: NetworkDefinition, weights, rows, lead: tuple, mode: str,
             act_exponents: list[int] | None, keep_taps: bool = True):
    """forward over rows, a sequence of checked images, with taps and logits
    shaped lead + ...; without keep_taps the taps are walked but not kept (None)."""
    _check_weights(net, weights, mode)
    if mode == "integer" and act_exponents is None:
        act_exponents = calibrate_activation_exponents(net, weights, rows)
    prepared = _prepare(net, weights, mode, act_exponents)
    taps = np.empty(lead + net.tap_shape) if keep_taps else None
    logits = np.empty(lead + net.activation_shapes[-1]) if net.dense_specs else None
    for at, row in zip(np.ndindex(lead), rows):
        tap, out = _walk(net, prepared, row)
        if keep_taps:
            taps[at] = tap
        if logits is not None:
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
    """(top-1, top-5) over (image, label) pairs, as one forward over the
    images, unstacked, that keeps only the logits (integer mode without
    act_exponents calibrates on all of them)."""
    pairs = list(dataset)
    if not pairs:
        raise ValueError("empty dataset")
    images = [_check_image(net, image) for image, _ in pairs]
    _, logits = _forward(net, weights, images, (len(images),), mode, act_exponents,
                         keep_taps=False)
    if logits is None:
        raise ValueError("network has no classifier head")
    labels = np.array([label for _, label in pairs])[:, None]
    hits = np.argsort(-logits, axis=1, kind="stable")[:, :5] == labels  # ties as classify
    return float(hits[:, 0].mean()), float(hits.any(axis=1).mean())
