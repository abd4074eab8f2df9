"""Fixed-point conv-weight quantization: per-kernel scalar times integer mask.

Each 3x3 kernel slice w (9 reals) is approximated as alpha * M where M is a
9-vector of m-bit signed integers (m in 1..5) and alpha is a non-negative
scalar stored as an 8-bit mantissa against a single per-layer power-of-two
shift e in [-8, 7]:

    alpha_hat = a * 2**(e - 8),  a in 0..255

Biases are kept as 12-bit signed integers on the same 2**(e-8) grid.

Two 1-bit mask rules are provided:

  * "xnor-abs-mean"  — M = sign(w), alpha = mean|w|. This is the least-
    squares-optimal 1-bit choice and the default.
  * "literal-mean"   — threshold t = mean(w); M_l = +1 iff w_l > t,
    alpha = mean|w_l - t|.

For m >= 2 the grid is uniform and max-scaled: L = 2**(m-1) - 1,
alpha = max|w| / L, M_l = clamp(round(w_l / alpha), -L, L). Rounding is
always half-away-from-zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ops import KERNEL_WEIGHTS, ConvLayerShape

POLICIES = ("xnor-abs-mean", "literal-mean")
DEFAULT_POLICY = "xnor-abs-mean"

SHIFT_MIN, SHIFT_MAX = -8, 7
SCALAR_MAX = 255
BIAS_MIN, BIAS_MAX = -2048, 2047
MASK_BITS_RANGE = (1, 5)


def mask_levels(mask_bits: int) -> int:
    """Largest mask magnitude L for an m-bit mask."""
    if not MASK_BITS_RANGE[0] <= mask_bits <= MASK_BITS_RANGE[1]:
        raise ValueError(f"mask_bits must be in {MASK_BITS_RANGE}, got {mask_bits}")
    if mask_bits == 1:
        return 1
    return 2 ** (mask_bits - 1) - 1


def round_half_away(x):
    """Round to nearest integer, ties away from zero (numpy rounds ties to even)."""
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


class ShiftResult(NamedTuple):
    e: int
    saturated: bool    # true alphas exceed the representable range, clamped to 7
    degenerate: bool   # every alpha was zero; e pinned to -8


def compute_layer_shift(alphas: np.ndarray) -> ShiftResult:
    """Smallest e in [-8, 7] with max(alphas) < 2**e.

    Saturates at 7 when no such e exists; an all-zero layer yields e = -8
    with the degenerate flag set.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.size == 0:
        raise ValueError("need at least one alpha")
    if np.any(alphas < 0) or not np.all(np.isfinite(alphas)):
        raise ValueError("alphas must be finite and non-negative")
    peak = float(alphas.max())
    if peak == 0.0:
        return ShiftResult(SHIFT_MIN, False, True)
    e = math.frexp(peak)[1]  # peak = f * 2**e with f in [0.5, 1), so peak < 2**e
    if e > SHIFT_MAX:
        return ShiftResult(SHIFT_MAX, True, False)
    return ShiftResult(max(e, SHIFT_MIN), False, False)


def global_shift(weights, profile, policy: str = DEFAULT_POLICY) -> int:
    """One shift for every layer, from the peak alpha across all of them.

    Layers whose profile entry is None (kept in float) do not count; with
    no positive alpha anywhere the shift is SHIFT_MIN.
    """
    peaks = [layer_alphas_masks(w, int(m), policy)[0].max()
             for w, m in zip(weights, profile) if m is not None]
    return compute_layer_shift(np.array([0.0, *peaks])).e


def quantize_scalar(alpha: float, e: int) -> int:
    """8-bit mantissa of alpha against the 2**(e-8) grid, clamped to 0..255."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    a = int(round_half_away(alpha * 2.0 ** (8 - e)))
    return min(max(a, 0), SCALAR_MAX)


def dequantize_scalar(a: int, e: int) -> float:
    return float(a) * 2.0 ** (e - 8)


def quantize_bias(b: float, e: int) -> int:
    """12-bit signed bias on the 2**(e-8) grid, clamped to [-2048, 2047]."""
    q = int(round_half_away(b * 2.0 ** (8 - e)))
    return min(max(q, BIAS_MIN), BIAS_MAX)


def dequantize_bias(q: int, e: int) -> float:
    return float(q) * 2.0 ** (e - 8)


def _kernel_matrix(weights: np.ndarray, what: str) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim >= 1 and w.shape[-1] == KERNEL_WEIGHTS:
        flat = w.reshape(-1, KERNEL_WEIGHTS)
    elif w.ndim >= 2 and w.shape[-2:] == (3, 3):
        flat = w.reshape(-1, KERNEL_WEIGHTS)
    else:
        raise ValueError(f"{what} must end in 9 weights or a 3x3 block, got shape {w.shape}")
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{what} contains non-finite values")
    return flat


def _alphas_masks_1bit(flat: np.ndarray, policy: str) -> tuple[np.ndarray, np.ndarray]:
    if policy == "xnor-abs-mean":
        t = 0.0
        alphas = np.abs(flat).mean(axis=1)
    elif policy == "literal-mean":
        t = flat.mean(axis=1, keepdims=True)
        alphas = np.abs(flat - t).mean(axis=1)
    else:
        raise ValueError(f"unknown 1-bit policy {policy!r}, expected one of {POLICIES}")
    return alphas, (flat > t).astype(np.int8) * 2 - 1


def _alphas_masks_multibit(flat: np.ndarray, mask_bits: int) -> tuple[np.ndarray, np.ndarray]:
    lmax = mask_levels(mask_bits)
    alphas = np.abs(flat).max(axis=1) / lmax
    masks = np.zeros(flat.shape, dtype=np.int8)
    live = alphas > 0.0
    if np.any(live):
        scaled = round_half_away(flat[live] / alphas[live, None])
        masks[live] = np.clip(scaled, -lmax, lmax).astype(np.int8)
    return alphas, masks


def layer_alphas_masks(weights, mask_bits: int,
                       policy: str = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Real-valued alphas and integer masks for a batch of kernels.

    Accepts (..., 9) or (..., 3, 3); returns (K,) alphas and (K, 9) masks
    for the flattened kernel batch.
    """
    flat = _kernel_matrix(weights, "weights")
    if mask_bits == 1:
        return _alphas_masks_1bit(flat, policy)
    mask_levels(mask_bits)  # range check
    return _alphas_masks_multibit(flat, mask_bits)


def quantize_kernel_1bit(w, policy: str = DEFAULT_POLICY) -> tuple[float, np.ndarray]:
    """(alpha, mask) for a single 9-weight kernel in 1-bit mode."""
    alphas, masks = layer_alphas_masks(np.reshape(w, (1, KERNEL_WEIGHTS)), 1, policy)
    return float(alphas[0]), masks[0].copy()


def quantize_kernel_multibit(w, mask_bits: int) -> tuple[float, np.ndarray]:
    """(alpha, mask) for a single 9-weight kernel, m >= 2."""
    if mask_bits < 2:
        raise ValueError("use quantize_kernel_1bit for 1-bit masks")
    alphas, masks = layer_alphas_masks(np.reshape(w, (1, KERNEL_WEIGHTS)), mask_bits)
    return float(alphas[0]), masks[0].copy()


@dataclass
class QuantStats:
    """Saturation bookkeeping from one quantize_layer call."""

    scalar_saturations: int = 0
    bias_saturations: int = 0
    shift_saturated: bool = False
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """One conv layer in compressed form, immutable: arrays read-only once built.

    scalars: (out, in) uint8 mantissas; masks: (out, in, 9) int8;
    biases: (out,) int16 in [-2048, 2047]; shift: shared exponent e.
    """

    shape: ConvLayerShape
    mask_bits: int
    shift: int
    scalars: np.ndarray
    masks: np.ndarray
    biases: np.ndarray
    stats: QuantStats | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.scalars, self.masks, self.biases):
            array.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedLayer):
            return NotImplemented
        return (self.shape == other.shape
                and self.mask_bits == other.mask_bits
                and self.shift == other.shift
                and np.array_equal(self.scalars, other.scalars)
                and np.array_equal(self.masks, other.masks)
                and np.array_equal(self.biases, other.biases))

    def validate(self) -> None:
        out, cin = self.shape.out_channels, self.shape.in_channels
        lmax = mask_levels(self.mask_bits)
        if not SHIFT_MIN <= self.shift <= SHIFT_MAX:
            raise ValueError(f"shift {self.shift} outside [{SHIFT_MIN}, {SHIFT_MAX}]")
        if self.scalars.shape != (out, cin):
            raise ValueError(f"scalars shape {self.scalars.shape} != ({out}, {cin})")
        if self.masks.shape != (out, cin, KERNEL_WEIGHTS):
            raise ValueError(f"masks shape {self.masks.shape} != ({out}, {cin}, 9)")
        if self.biases.shape != (out,):
            raise ValueError(f"biases shape {self.biases.shape} != ({out},)")
        for name in ("scalars", "masks", "biases"):
            dtype = getattr(self, name).dtype
            if not np.issubdtype(dtype, np.integer):
                raise ValueError(f"{name} must hold integers, got dtype {dtype}")
        if self.scalars.min(initial=0) < 0 or self.scalars.max(initial=0) > SCALAR_MAX:
            raise ValueError("scalar mantissas outside 0..255")
        if np.abs(self.masks).max(initial=0) > lmax:
            raise ValueError(f"mask values exceed +-{lmax} for {self.mask_bits}-bit masks")
        if self.mask_bits == 1 and np.any(self.masks == 0):
            raise ValueError("1-bit masks must be +-1")
        if self.biases.min(initial=0) < BIAS_MIN or self.biases.max(initial=0) > BIAS_MAX:
            raise ValueError("bias values outside the 12-bit signed range")


def quantize_layer(weights: np.ndarray, biases: np.ndarray, mask_bits: int,
                   policy: str = DEFAULT_POLICY, stride: int = 1, padding: int = 0,
                   shift_override: int | None = None) -> QuantizedLayer:
    """Quantize an (out, in, 3, 3) weight tensor plus (out,) biases.

    A kernel whose mantissa rounds to zero dequantizes to zero no matter
    what its mask says, so its mask payload is canonicalized to zeros
    (1-bit masks excepted: those stay +-1 by format).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4 or w.shape[2:] != (3, 3):
        raise ValueError(f"weights must be (out, in, 3, 3), got {w.shape}")
    b = np.asarray(biases, dtype=np.float64)
    out, cin = w.shape[0], w.shape[1]
    if b.shape != (out,):
        raise ValueError(f"biases must be ({out},), got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("biases contain non-finite values")

    alphas, masks = layer_alphas_masks(w, mask_bits, policy)
    auto = compute_layer_shift(alphas)
    if shift_override is None:
        e = auto.e
        stats = QuantStats(shift_saturated=auto.saturated, degenerate=auto.degenerate)
    else:
        if not SHIFT_MIN <= shift_override <= SHIFT_MAX:
            raise ValueError(f"shift_override {shift_override} outside [{SHIFT_MIN}, {SHIFT_MAX}]")
        e = int(shift_override)
        stats = QuantStats(shift_saturated=float(alphas.max()) >= 2.0 ** e
                           and alphas.max() > 0,
                           degenerate=auto.degenerate)

    raw = round_half_away(alphas * 2.0 ** (8 - e))
    stats.scalar_saturations = int(np.count_nonzero(raw > SCALAR_MAX))
    scalars = np.clip(raw, 0, SCALAR_MAX).astype(np.uint8)

    if mask_bits >= 2:
        masks = masks.copy()
        masks[scalars == 0] = 0  # dead kernels carry no payload

    braw = round_half_away(b * 2.0 ** (8 - e))
    stats.bias_saturations = int(np.count_nonzero((braw < BIAS_MIN) | (braw > BIAS_MAX)))
    bq = np.clip(braw, BIAS_MIN, BIAS_MAX).astype(np.int16)

    layer = QuantizedLayer(
        shape=ConvLayerShape(out, cin, stride, padding),
        mask_bits=int(mask_bits),
        shift=int(e),
        scalars=scalars.reshape(out, cin),
        masks=masks.reshape(out, cin, KERNEL_WEIGHTS).astype(np.int8),
        biases=bq,
        stats=stats,
    )
    layer.validate()
    return layer


def dequantize_layer(layer: QuantizedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct float64 (out, in, 3, 3) weights and (out,) biases."""
    layer.validate()
    step = 2.0 ** (layer.shift - 8)
    alpha_hat = layer.scalars.astype(np.float64) * step
    w = np.multiply(alpha_hat[:, :, None], layer.masks, dtype=np.float64)
    out, cin = layer.shape.out_channels, layer.shape.in_channels
    return w.reshape(out, cin, 3, 3), layer.biases.astype(np.float64) * step
