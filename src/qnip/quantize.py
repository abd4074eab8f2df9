"""Fixed-point conv-weight quantization: per-kernel scalar times integer mask.

Each 3x3 kernel slice w (9 reals) is approximated as alpha * M, where M is
a 9-vector of m-bit signed integers (m in MASK_BITS_RANGE) and alpha is a
SCALAR_BITS mantissa a against one per-layer shift e in [SHIFT_MIN, SHIFT_MAX]:

    alpha_hat = a * 2**(e - 8),  a in 0..SCALAR_MAX

Biases are BIAS_BITS signed integers on the same grid. This module states
that format (the QCM2 number format) once: _grid_step is the grid's step,
_to_grid rounds onto it, and mask_width and check_shift accept only whole
numbers (2.0, not 2.5), which QuantizedLayer holds as int.

Two 1-bit mask rules are provided:

  * "xnor-abs-mean"  — M = sign(w), alpha = mean|w|. This is the least-
    squares-optimal 1-bit choice and the default.
  * "literal-mean"   — threshold t = mean(w); M_l = +1 iff w_l > t,
    alpha = mean|w_l - t|.

For m >= 2 the grid is uniform and max-scaled: L = 2**(m-1) - 1,
alpha = max|w| / L, M_l = clamp(round(w_l / alpha), -L, L). Rounding is
always half-away-from-zero.

quantize_layer runs in two halves: fit_layer checks a layer and fits its
alphas and masks, which do not depend on the shift, and finish_layer picks
the shift and rounds the scalars and biases onto its grid. A global-shift
build fits every layer once, then finishes each under the shared shift.

layer_alphas_masks works through BLOCK_KERNELS kernels at a time in reused
buffers. Its kernel mean adds in np.add.reduce's order (_kernel_means), so
every alpha has the bits of w.mean(axis=1). Finiteness is checked on a
block's alphas; the weights are scanned only when an alpha is not finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ops import KERNEL_WEIGHTS

POLICIES = ("xnor-abs-mean", "literal-mean")
DEFAULT_POLICY = "xnor-abs-mean"

SHIFT_MIN, SHIFT_MAX = -8, 7
SCALAR_BITS, BIAS_BITS = 8, 12
SCALAR_MAX = 2 ** SCALAR_BITS - 1
BIAS_MIN, BIAS_MAX = -2 ** (BIAS_BITS - 1), 2 ** (BIAS_BITS - 1) - 1
MASK_BITS_RANGE = (1, 5)
# 16k kernels of nine float64 weights fill 1.2 MB, so a block and its
# buffers stay in a core's L2 cache
BLOCK_KERNELS = 16384


def _whole_in(value, lo: int, hi: int, error: str) -> int:
    if not (lo <= value <= hi and value % 1 == 0):
        raise ValueError(error)
    return int(value)  # a whole number, so nothing is truncated


def mask_width(mask_bits) -> int:
    """mask_bits as an int; ValueError unless it is a whole number in MASK_BITS_RANGE."""
    return _whole_in(mask_bits, *MASK_BITS_RANGE,
                     f"mask_bits must be an integer in {MASK_BITS_RANGE}, got {mask_bits}")


def check_shift(e, error: str | None = None) -> int:
    """e as an int; ValueError(error) unless it is a whole number in [SHIFT_MIN, SHIFT_MAX]."""
    return _whole_in(e, SHIFT_MIN, SHIFT_MAX,
                     error or f"shift {e} outside [{SHIFT_MIN}, {SHIFT_MAX}]")


def mask_levels(mask_bits) -> int:
    """Largest mask magnitude L for an m-bit mask."""
    m = mask_width(mask_bits)
    return 1 if m == 1 else 2 ** (m - 1) - 1


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


def global_shift(alphas) -> int:
    """One shift for every layer, from the peak of the given layers'
    alphas (fit_layer's); with no positive alpha anywhere it is SHIFT_MIN."""
    return compute_layer_shift(np.array([0.0, *(a.max() for a in alphas)])).e


def _grid_step(e: int) -> float:
    """The value of one code on the 2**(e-8) grid; ValueError unless e is a
    whole shift in [SHIFT_MIN, SHIFT_MAX] (check_shift)."""
    return 2.0 ** (check_shift(e) - 8)


def _to_grid(values, e: int, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Codes of values on the 2**(e-8) grid, rounded half away from zero and
    clipped to lo..hi, and how many of them the clip changed."""
    raw = round_half_away(np.divide(values, _grid_step(e)))  # exact: the step is a power of 2
    codes = np.clip(raw, lo, hi)
    return codes, int(np.count_nonzero(raw != codes))


def quantize_scalar(alpha: float, e: int) -> int:
    """8-bit mantissa of alpha against the 2**(e-8) grid, clamped to 0..255."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return int(_to_grid(alpha, e, 0, SCALAR_MAX)[0])


def dequantize_scalar(a: int, e: int) -> float:
    return float(a) * _grid_step(e)


def quantize_bias(b: float, e: int) -> int:
    """12-bit signed bias on the 2**(e-8) grid, clamped to [-2048, 2047]."""
    return int(_to_grid(b, e, BIAS_MIN, BIAS_MAX)[0])


def dequantize_bias(q: int, e: int) -> float:
    return float(q) * _grid_step(e)


def _kernel_matrix(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-1:] == (KERNEL_WEIGHTS,) or w.shape[-2:] == (3, 3):
        return w.reshape(-1, KERNEL_WEIGHTS)
    raise ValueError(f"weights must end in 9 weights or a 3x3 block, got shape {w.shape}")


def _kernel_means(cols: np.ndarray, out: np.ndarray, tmp: np.ndarray,
                  tmp2: np.ndarray) -> np.ndarray:
    """Means of the kernels whose nine weights are the rows of cols (9, n),
    summed in np.add.reduce's pairwise order for nine terms."""
    np.add(cols[0], cols[1], out=out)
    np.add(cols[2], cols[3], out=tmp)
    out += tmp
    np.add(cols[4], cols[5], out=tmp)
    np.add(cols[6], cols[7], out=tmp2)
    tmp += tmp2
    out += tmp
    out += cols[8]
    out /= KERNEL_WEIGHTS
    return out


def _check_finite(alphas: np.ndarray, weights: np.ndarray) -> None:
    # A finite weight set whose alphas overflow passes here; compute_layer_shift refuses it.
    if not np.isfinite(alphas).all() and not np.isfinite(weights).all():
        raise ValueError("weights contains non-finite values")


def _block_1bit(w, policy, alphas, masks, buf, sums) -> None:
    """Fill one block's alphas and +-1 masks; buf (n, 9) and sums (3, n) are scratch."""
    if policy == "xnor-abs-mean":
        t = 0.0
        np.abs(w, out=buf)
    else:
        # inf - inf from non-finite weights is refused by _check_finite below;
        # finite weights only get there after an overflow, which is reported
        with np.errstate(invalid="ignore"):
            t = _kernel_means(w.T, sums[0], sums[1], sums[2])[:, None]
            np.subtract(w, t, out=buf)
        np.abs(buf, out=buf)
    _kernel_means(buf.T, alphas, sums[1], sums[2])
    _check_finite(alphas, w)
    np.greater(w, t, out=masks.view(np.bool_))
    masks *= 2
    masks -= 1


def _block_multibit(w, lmax, alphas, masks, buf) -> None:
    """Fill one block's alphas and masks in -lmax..lmax; buf (n, 9) is scratch."""
    np.abs(w, out=buf)
    np.maximum(buf[:, 0], buf[:, 1], out=alphas)
    for j in range(2, KERNEL_WEIGHTS):
        np.maximum(alphas, buf[:, j], out=alphas)
    alphas /= lmax
    _check_finite(alphas, w)
    # round(w / alpha) half away is |w| / alpha rounded up from .5, given w's
    # sign; alpha is 0 only when max|w| / lmax underflows, so those |w| stay
    # below 0.5 and round to 0 undivided
    np.divide(buf, alphas[:, None], out=buf, where=alphas[:, None] > 0.0)
    buf += 0.5
    np.floor(buf, out=buf)
    np.minimum(buf, lmax, out=buf)
    np.copysign(buf, w, out=buf)
    np.copyto(masks, buf, casting="unsafe")


def layer_alphas_masks(weights, mask_bits: int,
                       policy: str = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Real-valued alphas and integer masks for a batch of kernels.

    Accepts (..., 9) or (..., 3, 3); returns (K,) alphas and (K, 9) masks
    for the flattened kernel batch, evaluated BLOCK_KERNELS kernels at a time.
    """
    flat = _kernel_matrix(weights)
    if mask_bits == 1 and policy not in POLICIES:
        raise ValueError(f"unknown 1-bit policy {policy!r}, expected one of {POLICIES}")
    lmax = mask_levels(mask_bits)
    count = flat.shape[0]
    alphas = np.empty(count)
    masks = np.empty((count, KERNEL_WEIGHTS), np.int8)
    size = min(count, BLOCK_KERNELS)
    work, sums = np.empty((size, KERNEL_WEIGHTS)), np.empty((3, size))
    for start in range(0, count, BLOCK_KERNELS):
        stop = start + BLOCK_KERNELS
        w = flat[start:stop]
        n = w.shape[0]
        if mask_bits == 1:
            _block_1bit(w, policy, alphas[start:stop], masks[start:stop], work[:n], sums[:, :n])
        else:
            _block_multibit(w, lmax, alphas[start:stop], masks[start:stop], work[:n])
    return alphas, masks


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
    biases: (out,) int16 in [BIAS_MIN, BIAS_MAX]; shift: shared exponent e.
    Stride and padding are the network's (its conv_specs), not the layer's.
    Building one (dataclasses.replace included) runs __post_init__'s checks.
    """

    mask_bits: int
    shift: int
    scalars: np.ndarray
    masks: np.ndarray
    biases: np.ndarray
    stats: QuantStats | None = field(default=None, compare=False, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantizedLayer):
            return NotImplemented
        return (self.mask_bits == other.mask_bits
                and self.shift == other.shift
                and np.array_equal(self.scalars, other.scalars)
                and np.array_equal(self.masks, other.masks)
                and np.array_equal(self.biases, other.biases))

    def __post_init__(self) -> None:
        """Hold mask_bits and shift as int, check every field, make the arrays read-only."""
        object.__setattr__(self, "mask_bits", mask_width(self.mask_bits))
        object.__setattr__(self, "shift", check_shift(self.shift))
        lmax = mask_levels(self.mask_bits)
        if self.scalars.ndim != 2:
            raise ValueError(f"scalars shape {self.scalars.shape} is not (out, in)")
        out, cin = self.scalars.shape
        for name, shape in (("scalars", (out, cin)), ("masks", (out, cin, KERNEL_WEIGHTS)),
                            ("biases", (out,))):
            array = getattr(self, name)
            if array.shape != shape:
                raise ValueError(f"{name} shape {array.shape} != {shape}")
            if not np.issubdtype(array.dtype, np.integer):
                raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
        if self.scalars.min(initial=0) < 0 or self.scalars.max(initial=0) > SCALAR_MAX:
            raise ValueError(f"scalars outside 0..{SCALAR_MAX}")
        if self.masks.min(initial=0) < -lmax or self.masks.max(initial=0) > lmax:
            raise ValueError(f"masks exceed +-{lmax} for {self.mask_bits}-bit masks")
        if self.mask_bits == 1 and np.count_nonzero(self.masks) != self.masks.size:
            raise ValueError("1-bit masks must be +-1")
        if self.biases.min(initial=0) < BIAS_MIN or self.biases.max(initial=0) > BIAS_MAX:
            raise ValueError(f"biases outside the {BIAS_BITS}-bit signed range")
        for array in (self.scalars, self.masks, self.biases):
            array.flags.writeable = False


class LayerFit(NamedTuple):
    """A conv layer's shift-free half of quantization (fit_layer)."""

    mask_bits: int
    alphas: np.ndarray  # (out, in) real-valued kernel scalars
    masks: np.ndarray   # (out, in, 9) int8
    biases: np.ndarray  # (out,) float64, finite


def fit_layer(weights: np.ndarray, biases: np.ndarray, mask_bits: int,
              policy: str = DEFAULT_POLICY) -> LayerFit:
    """Check an (out, in, 3, 3) weight tensor plus (out,) biases and fit
    its kernels' alphas and masks, which do not depend on the shift."""
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
    return LayerFit(mask_width(mask_bits), alphas.reshape(out, cin),
                    masks.reshape(out, cin, KERNEL_WEIGHTS), b)


def finish_layer(fit: LayerFit, shift: int | None = None) -> QuantizedLayer:
    """The QuantizedLayer of a fit: the shift (the layer's own, or the
    given one), 8-bit scalars and 12-bit biases on its grid. The shift
    saturates when the peak alpha is not below 2**shift, which under the
    layer's own shift happens only at SHIFT_MAX.

    A kernel whose mantissa rounds to zero dequantizes to zero no matter
    what its mask says, so its mask payload is canonicalized to zeros
    (1-bit masks excepted: those stay +-1 by format) in a copy: the fit
    is never written. Otherwise the layer shares fit.masks (read-only).
    """
    mask_bits, alphas, masks, b = fit
    auto = compute_layer_shift(alphas)
    e = auto.e if shift is None else check_shift(shift)
    scalars, scalar_saturations = _to_grid(alphas, e, 0, SCALAR_MAX)
    biases, bias_saturations = _to_grid(b, e, BIAS_MIN, BIAS_MAX)
    scalars = scalars.astype(np.uint8)
    if mask_bits >= 2 and not scalars.all():  # dead kernels carry no payload
        masks = masks.copy()
        masks[scalars == 0] = 0
    stats = QuantStats(scalar_saturations, bias_saturations,
                       bool(alphas.max() >= 2.0 ** e), auto.degenerate)
    return QuantizedLayer(mask_bits=mask_bits, shift=e, scalars=scalars, masks=masks,
                          biases=biases.astype(np.int16), stats=stats)


def quantize_layer(weights: np.ndarray, biases: np.ndarray, mask_bits: int,
                   policy: str = DEFAULT_POLICY) -> QuantizedLayer:
    """Quantize an (out, in, 3, 3) weight tensor plus (out,) biases under
    the layer's own shift: finish_layer of fit_layer."""
    return finish_layer(fit_layer(weights, biases, mask_bits, policy))


def dequantize_layer(layer: QuantizedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct float64 (out, in, 3, 3) weights and (out,) biases."""
    step = _grid_step(layer.shift)
    alpha_hat = layer.scalars.astype(np.float64) * step
    w = np.multiply(alpha_hat[:, :, None], layer.masks, dtype=np.float64)
    return w.reshape(*layer.scalars.shape, 3, 3), layer.biases.astype(np.float64) * step
