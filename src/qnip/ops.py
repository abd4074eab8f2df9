"""Dense tensor primitives for small CNN forward math.

Everything works on plain numpy arrays in channels x height x width layout
(float64 unless stated otherwise) and is pure: no state that can change a
result (resize_bilinear memoizes only read-only sample grids), and
bit-identical output for bit-identical input. Convolutions are fixed at
3x3 — the compression scheme only covers that kernel size.
"""
from __future__ import annotations

import functools

import numpy as np

KERNEL_SIZE = 3
KERNEL_WEIGHTS = KERNEL_SIZE * KERNEL_SIZE  # z = 9 weights per kernel slice


class ShapeError(ValueError):
    """Tensor shapes do not line up for the requested operation."""


class DegenerateCropError(ValueError):
    """A crop rectangle rounded to an empty pixel region."""


def _require_chw(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 3:
        raise ShapeError(f"{name} must be C,H,W, got shape {x.shape}")


def conv_output_hw(h: int, w: int, stride: int = 1, padding: int = 0) -> tuple[int, int]:
    """Spatial output size of a 3x3 convolution."""
    h_out = (h + 2 * padding - KERNEL_SIZE) // stride + 1
    w_out = (w + 2 * padding - KERNEL_SIZE) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"3x3 conv with stride={stride} pad={padding} on {h}x{w} input "
            "leaves no output pixels")
    return h_out, w_out


def im2col(x: np.ndarray, stride: int = 1, padding: int = 0,
           out: np.ndarray | None = None) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold 3x3 windows into a (C*9, H_out*W_out) matrix.

    Rows are ordered channel-major then kernel-row-major, matching
    weights.reshape(out, in*9); columns scan output pixels row-major.
    Given out, a C-contiguous array of that shape and x's dtype, the
    matrix is written into it (every element) and out is returned.
    """
    _require_chw(x)
    c = x.shape[0]
    h_out, w_out = conv_output_hw(x.shape[1], x.shape[2], stride, padding)
    shape = (c * KERNEL_WEIGHTS, h_out * w_out)
    if out is not None and (out.shape != shape or out.dtype != x.dtype
                            or not out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous {shape} {x.dtype} array, "
                         f"got {out.shape} {out.dtype}")
    if padding:  # a zero frame and one slice copy: np.pad's generic path costs more
        framed = np.zeros((c, x.shape[1] + 2 * padding, x.shape[2] + 2 * padding), x.dtype)
        framed[:, padding:-padding, padding:-padding] = x
        x = framed
    x = np.ascontiguousarray(x)  # a copy only for a strided input
    s0, s1, s2 = x.strides
    # the window view, built directly: as_strided costs several times more per call
    windows = np.ndarray((c, h_out, w_out, KERNEL_SIZE, KERNEL_SIZE), x.dtype, x,
                         strides=(s0, s1 * stride, s2 * stride, s1, s2)).transpose(0, 3, 4, 1, 2)
    if out is None:
        return np.ascontiguousarray(windows.reshape(shape)), (h_out, w_out)
    out.reshape(windows.shape)[...] = windows
    return out, (h_out, w_out)


def col2im(cols: np.ndarray, in_shape: tuple[int, int, int],
           stride: int = 1, padding: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Scatter-add the adjoint of im2col back onto a C,H,W tensor.

    The sums run on a zero-bordered (C, H+2p, W+2p) frame, and the result is
    its interior. Given out, a float64 array of the frame's shape, that
    frame is zeroed and used, and the result is a view of it.
    """
    c, h, w = in_shape
    if cols.ndim != 2 or cols.shape[0] != c * KERNEL_WEIGHTS:
        raise ShapeError(f"cols shape {cols.shape} does not match input {in_shape}")
    h_out, w_out = conv_output_hw(h, w, stride, padding)
    if cols.shape[1] != h_out * w_out:
        raise ShapeError(f"cols has {cols.shape[1]} columns, expected {h_out * w_out}")
    shape = (c, h + 2 * padding, w + 2 * padding)
    if out is None:
        padded = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ShapeError(f"out must be a {shape} float64 array, got {out.shape} {out.dtype}")
    else:
        padded = out
        padded.fill(0.0)
    blocks = cols.reshape(c, KERNEL_SIZE, KERNEL_SIZE, h_out, w_out)
    for ki in range(KERNEL_SIZE):
        for kj in range(KERNEL_SIZE):
            padded[:, ki:ki + stride * h_out:stride,
                   kj:kj + stride * w_out:stride] += blocks[:, ki, kj]
    if padding:
        return padded[:, padding:padding + h, padding:padding + w]
    return padded


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           stride: int = 1, padding: int = 0) -> np.ndarray:
    """3x3 cross-correlation (the usual CNN "convolution") plus bias.

    x: (C_in, H, W); weights: (C_out, C_in, 3, 3); bias: (C_out,).
    """
    _require_chw(x)
    if weights.ndim != 4 or weights.shape[2:] != (KERNEL_SIZE, KERNEL_SIZE):
        raise ShapeError(f"weights must be (out, in, 3, 3), got {weights.shape}")
    if weights.shape[1] != x.shape[0]:
        raise ShapeError(
            f"weights expect {weights.shape[1]} input channels, image has {x.shape[0]}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias must be ({weights.shape[0]},), got {bias.shape}")
    cols, (h_out, w_out) = im2col(x, stride, padding)
    out = weights.reshape(weights.shape[0], -1) @ cols
    out += bias[:, None]
    return out.reshape(weights.shape[0], h_out, w_out)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def maxpool2x2(x: np.ndarray) -> np.ndarray:
    """Non-overlapping 2x2 max pooling, any dtype; spatial dims must be even."""
    _require_chw(x)
    h, w = x.shape[1:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    return np.maximum(np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
                      np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]))


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map on a flat vector: weights (out, in) @ x + bias."""
    if x.ndim != 1:
        raise ShapeError(f"fully_connected input must be a vector, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[0]:
        raise ShapeError(
            f"weight matrix {weights.shape} does not accept input of length {x.shape[0]}")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(f"bias must be ({weights.shape[0]},), got {bias.shape}")
    return weights @ x + bias


def rotate90(x: np.ndarray, k: int = 1) -> np.ndarray:
    """Rotate a C,H,W image by k quarter turns counter-clockwise.

    Pure index shuffling — exact for any dtype, which is what makes the
    rotation-invariant descriptors bit-reproducible. k is taken mod 4.
    """
    _require_chw(x)
    return np.rot90(x, k % 4, axes=(1, 2)).copy()


def crop(x: np.ndarray, rect: tuple[float, float, float, float]) -> np.ndarray:
    """Crop the last two axes of a (..., C, H, W) array by a normalized
    (x0, y0, x1, y1) rectangle, origin top-left.

    Bounds are rounded to the pixel grid; a rectangle that rounds to an
    empty region raises DegenerateCropError.
    """
    if x.ndim < 3:
        raise ShapeError(f"input must be (..., C, H, W), got shape {x.shape}")
    r0, r1, c0, c1 = crop_bounds(rect, *x.shape[-2:])
    return x[..., r0:r1, c0:c1].copy()


def crop_bounds(rect: tuple[float, float, float, float], h: int, w: int) -> tuple[int, ...]:
    """Pixel bounds (r0, r1, c0, c1) of a normalized rect on an h x w grid:
    crop's one rounding rule. Raises as crop does."""
    x0, y0, x1, y1 = rect
    if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
        raise ValueError(f"crop rect must satisfy 0 <= lo < hi <= 1, got {rect}")
    r0, r1 = int(round(y0 * h)), int(round(y1 * h))
    c0, c1 = int(round(x0 * w)), int(round(x1 * w))
    if r1 <= r0 or c1 <= c0:
        raise DegenerateCropError(f"rect {rect} rounds to empty region on {h}x{w}")
    return r0, r1, c0, c1


@functools.lru_cache(maxsize=64)
def _axis_samples(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center convention; clamped at the border. Memoized, so the
    # arrays are read-only: a write would change every later resize
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    samples = lo, hi, src - lo
    for array in samples:
        array.flags.writeable = False
    return samples


def resize_bilinear(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel sample centers.

    Resizing to the input size returns the input values exactly (the
    interpolation weights collapse to 1 and 0), which the descriptor
    pipeline relies on.
    """
    _require_chw(x)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"target size must be positive, got {out_h}x{out_w}")
    y_lo, y_hi, ty = _axis_samples(x.shape[1], out_h)
    x_lo, x_hi, tx = _axis_samples(x.shape[2], out_w)
    x = np.asarray(x, dtype=np.float64)
    rows_lo, rows_hi = x[:, y_lo], x[:, y_hi]  # each sampled row gathered once
    top = rows_lo[:, :, x_lo] * (1.0 - tx) + rows_lo[:, :, x_hi] * tx
    bot = rows_hi[:, :, x_lo] * (1.0 - tx) + rows_hi[:, :, x_hi] * tx
    return top * (1.0 - ty)[:, None] + bot * ty[:, None]


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Stable softmax + cross-entropy. Returns (loss, probabilities)."""
    if logits.ndim != 1:
        raise ShapeError(f"logits must be a vector, got shape {logits.shape}")
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    z = logits - logits.max()
    with np.errstate(under="ignore"):  # distant logits flushing to 0 is the stable path
        ez = np.exp(z)
    total = ez.sum()
    probs = ez / total
    loss = float(np.log(total) - z[label])
    return loss, probs
