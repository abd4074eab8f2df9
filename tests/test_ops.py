"""Array ops against independent nested-loop references."""

import numpy as np
import pytest

from qnip.ops import (
    ConvLayerShape,
    DegenerateCropError,
    ShapeError,
    col2im,
    conv2d,
    conv_output_hw,
    crop,
    fully_connected,
    im2col,
    maxpool2x2,
    relu,
    resize_bilinear,
    rotate90,
    softmax_cross_entropy,
)


def conv2d_loops(x, weights, bias, stride=1, padding=0):
    """Nested-loop 3x3 convolution, deliberately independent of im2col."""
    c_in, h, w = x.shape
    c_out = weights.shape[0]
    if padding:
        padded = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
        padded[:, padding:padding + h, padding:padding + w] = x
        x = padded
    h2 = (x.shape[1] - 3) // stride + 1
    w2 = (x.shape[2] - 3) // stride + 1
    out = np.zeros((c_out, h2, w2))
    for o in range(c_out):
        for i in range(h2):
            for j in range(w2):
                acc = 0.0
                for c in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            acc += weights[o, c, di, dj] * x[c, i * stride + di, j * stride + dj]
                out[o, i, j] = acc + bias[o]
    return out


def maxpool_loops(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2), dtype=x.dtype)
    for ch in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                out[ch, i, j] = max(x[ch, 2 * i, 2 * j], x[ch, 2 * i, 2 * j + 1],
                                    x[ch, 2 * i + 1, 2 * j], x[ch, 2 * i + 1, 2 * j + 1])
    return out


def fc_loops(x, weights, bias):
    out = np.zeros(weights.shape[0])
    for o in range(weights.shape[0]):
        acc = 0.0
        for i in range(weights.shape[1]):
            acc += weights[o, i] * x[i]
        out[o] = acc + bias[o]
    return out


def test_conv2d_matches_loop_reference():
    rng = np.random.default_rng(0)
    cases = 0
    for _ in range(30):
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        h = int(rng.integers(3, 8))
        w = int(rng.integers(3, 8))
        x = rng.normal(size=(c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, 3, 3))
        bias = rng.normal(size=c_out)
        got = conv2d(x, weights, bias, stride=stride, padding=padding)
        want = conv2d_loops(x, weights, bias, stride=stride, padding=padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9
        cases += got.size
    assert cases >= 100


def test_conv_output_hw_matches_loop_shapes():
    for h, w, stride, padding in [(5, 7, 1, 0), (5, 7, 2, 1), (3, 3, 1, 1), (9, 4, 2, 0)]:
        x = np.zeros((1, h, w))
        out = conv2d_loops(x, np.zeros((1, 1, 3, 3)), np.zeros(1), stride, padding)
        assert conv_output_hw(h, w, stride, padding) == out.shape[1:]


def test_conv2d_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((2, 5, 5)), np.zeros((1, 1, 3, 3)), np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(np.zeros((1, 5, 5)), np.zeros((1, 1, 2, 2)), np.zeros(1))


def test_im2col_col2im_are_adjoint():
    # <im2col(x), y> == <x, col2im(y)> pins the scatter-add as the exact
    # transpose of the gather, which is what backprop relies on.
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(c, h, w))
        cols, _ = im2col(x, stride=stride, padding=padding)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, (c, h, w), stride=stride, padding=padding)))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def im2col_loops(x, stride, padding):
    """Nested-loop gather: row c*9 + ki*3 + kj, column i*w_out + j, zero outside x."""
    c_in, h, w = x.shape
    h_out = (h + 2 * padding - 3) // stride + 1
    w_out = (w + 2 * padding - 3) // stride + 1
    out = np.zeros((c_in * 9, h_out * w_out), dtype=x.dtype)
    for c in range(c_in):
        for ki in range(3):
            for kj in range(3):
                for i in range(h_out):
                    for j in range(w_out):
                        r, s = i * stride + ki - padding, j * stride + kj - padding
                        if 0 <= r < h and 0 <= s < w:
                            out[c * 9 + ki * 3 + kj, i * w_out + j] = x[c, r, s]
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_im2col_matches_loop_gather_exactly(dtype):
    # any dtype comes through unchanged (integer mode passes float64 codes);
    # float inputs carry -0.0, which must come through the zero frame with its sign
    rng = np.random.default_rng(6)
    for padding in (0, 1, 2):
        for stride in (1, 2):
            for contiguous in (True, False):
                c, h, w = (int(v) for v in rng.integers((1, 3, 3), (4, 9, 9)))
                x = rng.integers(-255, 256, size=(c, w, h)).astype(dtype)
                if dtype == np.float64:
                    x = x * rng.uniform(0.5, 1.5, size=x.shape)
                    x[rng.random(x.shape) < 0.2] = -0.0
                x = x.transpose(0, 2, 1)   # a non-contiguous view of a C,H,W input
                if contiguous:
                    x = np.ascontiguousarray(x)
                before = x.copy()
                cols, (h_out, w_out) = im2col(x, stride, padding)
                want = im2col_loops(x, stride, padding)
                assert cols.dtype == x.dtype
                assert cols.shape == want.shape == (c * 9, h_out * w_out)
                assert cols.tobytes() == want.tobytes(), (padding, stride, contiguous)
                assert x.tobytes() == before.tobytes()


def test_maxpool_matches_loop_reference():
    rng = np.random.default_rng(2)
    for _ in range(20):
        c = int(rng.integers(1, 5))
        h = 2 * int(rng.integers(1, 6))
        w = 2 * int(rng.integers(1, 6))
        # float64 maps (integer mode pools float64 codes) and int64 maps,
        # with and without tied windows
        for x in (rng.normal(size=(c, h, w)),
                  rng.integers(0, 3, size=(c, h, w)).astype(np.float64),
                  rng.integers(0, 256, size=(c, h, w)),
                  rng.integers(0, 2, size=(c, h, w))):
            pooled = maxpool2x2(x)
            assert pooled.dtype == x.dtype
            assert np.array_equal(pooled, maxpool_loops(x))


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        maxpool2x2(np.zeros((1, 3, 4)))
    with pytest.raises(ShapeError):
        maxpool2x2(np.zeros((1, 4, 5)))


def test_fully_connected_matches_loop_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_in = int(rng.integers(1, 20))
        n_out = int(rng.integers(1, 10))
        x = rng.normal(size=n_in)
        weights = rng.normal(size=(n_out, n_in))
        bias = rng.normal(size=n_out)
        got = fully_connected(x, weights, bias)
        assert np.max(np.abs(got - fc_loops(x, weights, bias))) <= 1e-9


def test_relu():
    x = np.array([-2.0, -0.0, 0.0, 3.5])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 0.0, 3.5]))


def test_rotate90_group_laws():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 5))
    assert np.array_equal(rotate90(x, 0), x)
    assert np.array_equal(rotate90(x, 4), x)
    assert np.array_equal(rotate90(rotate90(x, 1), 1), rotate90(x, 2))
    assert np.array_equal(rotate90(rotate90(x, 1), 3), x)
    assert np.array_equal(rotate90(x, -1), rotate90(x, 3))


def test_rotate90_direction():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    # counter-clockwise quarter turn: top-right corner comes to top-left
    assert np.array_equal(rotate90(x, 1), np.array([[[2.0, 4.0], [1.0, 3.0]]]))


def test_crop_halves():
    x = np.arange(12, dtype=float).reshape(1, 3, 4)
    assert np.array_equal(crop(x, (0.5, 0.0, 1.0, 1.0)), x[:, :, 2:])
    assert np.array_equal(crop(x, (0.0, 0.0, 1.0, 1.0)), x)
    assert np.array_equal(crop(x, (0.25, 0.0, 0.75, 1.0)), x[:, :, 1:3])


def test_crop_takes_leading_axes():
    x = np.random.default_rng(7).normal(size=(2, 3, 4, 6, 5))
    for rect in [(0.0, 0.0, 1.0, 1.0), (0.5, 0.0, 1.0, 0.5), (0.2, 0.3, 0.7, 0.9)]:
        got = crop(x, rect)
        assert got.flags.c_contiguous
        for i in np.ndindex(x.shape[:2]):
            assert np.array_equal(got[i], crop(x[i], rect))
    for bad in (np.zeros((4, 4)), np.zeros(4)):
        with pytest.raises(ShapeError):
            crop(bad, (0.0, 0.0, 1.0, 1.0))


def test_crop_degenerate():
    x = np.zeros((1, 4, 4))
    # 0..0.04 of a 4-pixel span rounds to zero columns
    with pytest.raises(DegenerateCropError):
        crop(x, (0.0, 0.0, 0.04, 1.0))
    with pytest.raises(ValueError):
        crop(x, (0.5, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        crop(x, (0.9, 0.0, 0.1, 1.0))


def test_resize_bilinear_hand_values():
    x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    got = resize_bilinear(x, 2, 4)
    assert np.allclose(got, [[[0.0, 0.25, 0.75, 1.0], [2.0, 2.25, 2.75, 3.0]]])


def test_resize_bilinear_identity_at_same_size():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 7, 9))
    assert np.array_equal(resize_bilinear(x, 7, 9), x)


def test_resize_bilinear_preserves_constant():
    x = np.full((2, 5, 5), 0.37)
    assert np.allclose(resize_bilinear(x, 13, 4), 0.37)


def test_resize_bilinear_range_bounded():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, size=(3, 8, 8))
    y = resize_bilinear(x, 21, 13)
    assert y.min() >= x.min() - 1e-12
    assert y.max() <= x.max() + 1e-12


def test_softmax_cross_entropy_hand_values():
    loss, probs = softmax_cross_entropy(np.array([0.0, 0.0]), 0)
    assert abs(loss - np.log(2.0)) <= 1e-12
    assert np.allclose(probs, [0.5, 0.5])
    loss, probs = softmax_cross_entropy(np.array([np.log(3.0), 0.0]), 1)
    assert np.allclose(probs, [0.75, 0.25])
    assert abs(loss - np.log(4.0)) <= 1e-12


def test_softmax_cross_entropy_stable_for_large_logits():
    loss, probs = softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(loss)
    assert abs(loss) <= 1e-9
    assert np.allclose(probs, [1.0, 0.0])


def test_softmax_cross_entropy_rejects_bad_input():
    with pytest.raises(ShapeError):
        softmax_cross_entropy(np.zeros((2, 2)), 0)
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros(3), 3)


def test_conv_layer_shape_validation():
    shape = ConvLayerShape(out_channels=4, in_channels=3, stride=2, padding=1)
    assert shape.weight_count() == 4 * 3 * 9
    with pytest.raises(ValueError):
        ConvLayerShape(out_channels=0, in_channels=1)
    with pytest.raises(ValueError):
        ConvLayerShape(out_channels=1, in_channels=1, stride=0)
    with pytest.raises(ValueError):
        ConvLayerShape(out_channels=1, in_channels=1, padding=-1)
