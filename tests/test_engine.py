"""Inference engine: mode agreement, integer arithmetic, classification."""

import dataclasses
import hashlib
import math
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from qnip import codec, config_path, engine
from qnip.codec import (CompressedModel, build_compressed_model, decode,
                         dequantized_float_model, encode)
from qnip.datasets import make_retrieval_corpus, make_shapes_dataset
from qnip.engine import (
    accuracy,
    calibrate_activation_exponents,
    check_accumulator_bounds,
    classify,
    forward,
)
from qnip.network import FloatModel, init_float_model, load_network, parse_network
from qnip.quantize import SHIFT_MAX, SHIFT_MIN, finish_layer, fit_layer

NET_TEXT = "input 3 12 12\nconv 4 pad=1\npool\nconv 6 tap\nflatten\ndense 5\n"


def _net_and_model(seed=0, text=NET_TEXT):
    net = parse_network(text)
    model = init_float_model(net, np.random.default_rng(seed))
    return net, model


def _images(n, shape=(3, 12, 12), seed=100):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.0, 1.0, size=shape) for _ in range(n)]


def test_dequantized_mode_equals_float_on_dequantized_weights():
    net, model = _net_and_model()
    compressed = build_compressed_model(net, model, [3, 3])
    unpacked = dequantized_float_model(compressed)
    for image in _images(5):
        tap_a, logits_a = forward(net, compressed, image, mode="dequantized")
        tap_b, logits_b = forward(net, unpacked, image, mode="float")
        assert np.array_equal(tap_a, tap_b)
        assert np.array_equal(logits_a, logits_b)


def test_integer_mode_tracks_dequantized_mode():
    net, model = _net_and_model(seed=1)
    compressed = build_compressed_model(net, model, [5, 5])
    images = _images(20, seed=101)
    exponents = calibrate_activation_exponents(net, compressed, images)
    agree = 0
    for image in images:
        tap_d, logits_d = forward(net, compressed, image, mode="dequantized")
        tap_i, logits_i = forward(net, compressed, image, mode="integer",
                                  act_exponents=exponents)
        # activations are quantized to 8 bits against a power-of-two scale,
        # so per-stage error stays within a few quantization steps
        step = 2.0 ** (exponents[-1] - 8)
        assert np.max(np.abs(tap_i - tap_d)) <= 16 * step
        agree += int(np.argmax(logits_i) == np.argmax(logits_d))
    assert agree >= 18


def integer_codes_loops(net, model, image, exponents):
    """Integer-mode activation codes of each conv, one output pixel at a time.

    Exact rationals, deliberately independent of im2col and the engine's
    shifts: each pixel is an integer MAC of activation codes with
    scalar * mask weights, plus the bias, rescaled to the output grid,
    then ReLU, rounding half up and clipping at 255.
    """
    def code(value):
        return min(math.floor(max(value, 0) + Fraction(1, 2)), 255)

    p_in, layers = exponents[0], []
    x = [[[code(Fraction(float(v)) * Fraction(2) ** (8 - p_in)) for v in row]
          for row in plane] for plane in image]
    for spec, layer, p_out in zip(net.conv_specs, model.layers, exponents[1:]):
        scalars, masks, biases = (layer.scalars.tolist(), layer.masks.tolist(),
                                  layer.biases.tolist())
        pad, stride = spec.padding, spec.stride
        h, w = len(x[0]), len(x[0][0])

        def at(c, i, j):
            i, j = i - pad, j - pad
            return x[c][i][j] if 0 <= i < h and 0 <= j < w else 0

        act_unit = Fraction(2) ** (p_in - 8)
        weight_unit = Fraction(2) ** (layer.shift - 8)
        out_unit = Fraction(2) ** (p_out - 8)
        x = [[[code((sum(scalars[o][c] * masks[o][c][3 * di + dj]
                         * at(c, i * stride + di, j * stride + dj)
                         for c in range(len(x)) for di in range(3) for dj in range(3))
                     * act_unit + biases[o]) * weight_unit / out_unit)
               for j in range((w + 2 * pad - 3) // stride + 1)]
              for i in range((h + 2 * pad - 3) // stride + 1)]
             for o in range(spec.out_channels)]
        p_in = p_out
        layers.append(np.array(x, dtype=np.int64))
    return layers


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integer_mode_matches_pixel_loop_oracle(m):
    # a padded layer, a stride-2 layer, then the tap
    net, model = _net_and_model(
        seed=10 + m, text="input 2 9 9\nconv 3 pad=1\nconv 4 stride=2\nconv 3 pad=1 tap\n")
    compressed = build_compressed_model(net, model, [m, m, m])
    image = _images(1, shape=(2, 9, 9), seed=110 + m)[0]
    calibrated = calibrate_activation_exponents(net, compressed, [image])
    settings = {
        "calibrated": calibrated,
        # conv exponents too small: the largest outputs clip at 255
        "clipping": calibrated[:1] + [p - 2 for p in calibrated[1:]],
        # p_in - p_out = 15 lets conv1 and conv3 requantize without a
        # rounding shift; conv2 shifts right by more than 20 bits
        "extreme grids": [7, -8, 7, -8],
    }
    for name, exponents in settings.items():
        codes = integer_codes_loops(net, compressed, image, exponents)
        expected = codes[-1].astype(np.float64) * 2.0 ** (exponents[-1] - 8)
        tap, _ = forward(net, compressed, image, mode="integer", act_exponents=exponents)
        assert tap.dtype == expected.dtype and tap.shape == expected.shape, name
        assert tap.tobytes() == expected.tobytes(), name
        if name != "calibrated":
            assert any((c == 255).any() for c in codes), name


def test_integer_mode_is_exact_at_vgg_width():
    # VGG's widest layer: 512 in-channels, 5-bit masks at +-15, every scalar
    # 255 and every input code 255, so |accumulator| reaches
    # 512 * 9 * 255 * 255 * 15 > 2**32; mixed signs cancel to small sums
    net, model = _net_and_model(seed=20, text="input 512 3 3\nconv 6 pad=1 tap\n")
    built = build_compressed_model(net, model, [5])
    layer = built.layers[0]
    rng = np.random.default_rng(120)
    signs = rng.choice([-1, 1], size=layer.masks.shape)
    signs[0], signs[1] = 1, -1                   # clips at 255; ReLU zero
    for o, total in ((2, 2), (3, -2)):           # whole window sums to +-2 * 15
        flat = np.array([1] * (2304 + total // 2) + [-1] * (2304 - total // 2))
        signs[o] = rng.permutation(flat).reshape(512, 9)
    layer = dataclasses.replace(layer, masks=(15 * signs).astype(np.int8),
                                scalars=np.full_like(layer.scalars, 255),
                                biases=np.array([0, 0, 16, 16, -7, 5], np.int16))
    compressed = dataclasses.replace(built, layers=[layer])
    exponents = [0, layer.shift + 5]             # acc -> output is a right shift by 13
    image = np.ones((512, 3, 3))                 # every input code is 255
    codes = integer_codes_loops(net, compressed, image, exponents)[-1]
    assert 0 < codes[2, 1, 1] < 255 and codes[3, 1, 1] == 0
    assert (codes[0] == 255).all() and (codes[1] == 0).all()
    tap, _ = forward(net, compressed, image, mode="integer", act_exponents=exponents)
    expected = codes.astype(np.float64) * 2.0 ** (exponents[-1] - 8)
    assert tap.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shift", [SHIFT_MIN, SHIFT_MAX])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integer_mode_is_exact_at_the_shift_limits(m, shift):
    # the MAC runs on the dequantized weights a*M * 2**(shift-8) and scales
    # back by 2**(8-shift): at SHIFT_MIN the weight step is 2**-16, at
    # SHIFT_MAX it is 2**-1
    net, model = _net_and_model(
        seed=40 + m, text="input 2 6 6\nconv 3 pad=1\nconv 3 stride=2 pad=1 tap\n")
    rng = np.random.default_rng(140 + m)
    scale = 2.0 ** shift  # alphas land mid-range on the 2**(shift-8) grid
    layers = [finish_layer(fit_layer(w * scale, rng.uniform(0.0, 1.0, b.shape) * scale, m), shift)
              for w, b in model.conv]
    assert all(layer.shift == shift and layer.scalars.any() for layer in layers)
    compressed = CompressedModel(net, layers)
    image = _images(1, shape=(2, 6, 6), seed=240 + m)[0]
    exponents = calibrate_activation_exponents(net, compressed, [image])
    codes = integer_codes_loops(net, compressed, image, exponents)
    assert codes[-1].any()
    expected = codes[-1].astype(np.float64) * 2.0 ** (exponents[-1] - 8)
    tap, _ = forward(net, compressed, image, mode="integer", act_exponents=exponents)
    assert tap.tobytes() == expected.tobytes()
    # activation exponents at both limits, in mixed order (requantizing by up
    # to 2**15 either way), on the same biases and on biases of mixed sign
    signs = np.array([-1, 1, -1], np.int16)
    mixed = CompressedModel(net, [dataclasses.replace(layer, biases=layer.biases * signs)
                                  for layer in layers])
    assert all((layer.biases < 0).any() for layer in mixed.layers)
    for weights in (compressed, mixed):
        for exponents in ([SHIFT_MIN, SHIFT_MAX, SHIFT_MIN], [SHIFT_MAX, SHIFT_MIN, SHIFT_MAX],
                          [SHIFT_MAX, SHIFT_MAX, SHIFT_MIN], [SHIFT_MIN, SHIFT_MIN, SHIFT_MAX]):
            codes = integer_codes_loops(net, weights, image, exponents)
            expected = codes[-1].astype(np.float64) * 2.0 ** (exponents[-1] - 8)
            tap, _ = forward(net, weights, image, mode="integer", act_exponents=exponents)
            assert tap.tobytes() == expected.tobytes(), exponents


@pytest.mark.parametrize("exponents", [[SHIFT_MIN - 1, 0, 0], [0, SHIFT_MAX + 1, 0],
                                       [0, 0, 40]])
def test_integer_mode_rejects_activation_exponents_outside_the_shift_range(exponents):
    # float64 requantization is exact only for exponents in [SHIFT_MIN, SHIFT_MAX]
    net, model = _net_and_model(seed=41, text="input 2 6 6\nconv 3 pad=1\nconv 3 tap\n")
    compressed = build_compressed_model(net, model, [2, 2])
    image = _images(1, shape=(2, 6, 6), seed=241)[0]
    with pytest.raises(ValueError, match="activation exponents"):
        forward(net, compressed, image, "integer", exponents)


def test_integer_mode_is_deterministic():
    net, model = _net_and_model(seed=2)
    compressed = build_compressed_model(net, model, [2, 2])
    image = _images(1, seed=102)[0]
    tap_a, logits_a = forward(net, compressed, image, mode="integer")
    tap_b, logits_b = forward(net, compressed, image, mode="integer")
    assert np.array_equal(tap_a, tap_b)
    assert np.array_equal(logits_a, logits_b)


def test_integer_tap_values_lie_on_activation_grid():
    net, model = _net_and_model(seed=3, text="input 1 8 8\nconv 2 pad=1 tap\n")
    compressed = build_compressed_model(net, model, [4])
    image = _images(1, shape=(1, 8, 8), seed=103)[0]
    exponents = calibrate_activation_exponents(net, compressed, [image])
    tap, logits = forward(net, compressed, image, mode="integer", act_exponents=exponents)
    assert logits is None
    # exponents[0] covers the input image; the tap layer's scale is last
    step = 2.0 ** (exponents[-1] - 8)
    codes = tap / step
    assert np.allclose(codes, np.round(codes))
    assert codes.min() >= 0 and codes.max() <= 255


def test_calibration_is_deterministic_and_ordered():
    net, model = _net_and_model(seed=4)
    compressed = build_compressed_model(net, model, [3, 3])
    images = _images(6, seed=104)
    first = calibrate_activation_exponents(net, compressed, images)
    second = calibrate_activation_exponents(net, compressed, images)
    assert first == second
    # one exponent for the input activations plus one per conv layer
    assert len(first) == len(net.conv_specs) + 1


def test_forward_mode_weight_type_mismatch():
    net, model = _net_and_model()
    compressed = build_compressed_model(net, model, [1, 1])
    image = _images(1)[0]
    with pytest.raises(TypeError):
        forward(net, compressed, image, mode="float")
    with pytest.raises(TypeError):
        forward(net, model, image, mode="integer")
    with pytest.raises(ValueError):
        forward(net, model, image, mode="nope")


def test_forward_rejects_wrong_architecture():
    net, model = _net_and_model()
    other_net = parse_network("input 3 12 12\nconv 4 pad=1 tap\n")
    compressed = build_compressed_model(net, model, [1, 1])
    with pytest.raises(ValueError):
        forward(other_net, compressed, _images(1)[0], mode="dequantized")


def test_calibration_checks_its_weights_as_forward_does():
    # a FloatModel used to fail as an AttributeError, and a container of
    # another architecture was walked on this net's specs
    net, model = _net_and_model()
    images = _images(2)
    with pytest.raises(TypeError, match="needs a CompressedModel"):
        calibrate_activation_exponents(net, model, images)
    other_net = parse_network("input 3 12 12\nconv 4 pad=1 tap\n")
    other = build_compressed_model(other_net, init_float_model(other_net,
                                                               np.random.default_rng(0)), [1])
    with pytest.raises(ValueError, match="different architecture"):
        calibrate_activation_exponents(net, other, images)


def test_integer_mode_refuses_non_integral_activation_exponents():
    # int(e) used to truncate them, so e + 0.7 ran as e
    net, model = _net_and_model(seed=41, text="input 2 6 6\nconv 3 pad=1\nconv 3 tap\n")
    compressed = build_compressed_model(net, model, [2, 2])
    image = _images(1, shape=(2, 6, 6), seed=241)[0]
    exps = calibrate_activation_exponents(net, compressed, [image])
    tap, _ = forward(net, compressed, image, "integer", exps)
    assert np.array_equal(forward(net, compressed, image, "integer",
                                  [float(e) for e in exps])[0], tap)
    with pytest.raises(ValueError, match="must be integers"):
        forward(net, compressed, image, "integer", [e + 0.7 for e in exps])


def test_forward_rejects_wrong_image_shape():
    net, model = _net_and_model()
    from qnip.ops import ShapeError

    with pytest.raises(ShapeError):
        forward(net, model, np.zeros((3, 10, 10)))


def test_check_accumulator_bounds():
    small = parse_network("input 3 8 8\nconv 4 tap\n")
    check_accumulator_bounds(small, [5])
    # in_ch * 9 * 255 * L must stay under 2^31: a 70000-channel input with
    # m=5 (L=15) overflows a 32-bit accumulator
    huge = parse_network("input 70000 4 4\nconv 1 tap\n")
    with pytest.raises(ValueError):
        check_accumulator_bounds(huge, [5])
    check_accumulator_bounds(huge, [1])


def test_classify_orders_by_logit_with_stable_ties():
    net = parse_network("input 1 4 4\nconv 1 pad=1 tap\npool\nflatten\ndense 3\n")
    w = np.zeros((3, 4))
    b = np.array([0.5, 0.5, -1.0])
    conv_w = np.zeros((1, 1, 3, 3))
    model = FloatModel(conv=[(conv_w, np.zeros(1))], dense=[(w, b)])
    ranked = classify(net, model, np.ones((1, 4, 4)), k=3)
    assert [c for c, _ in ranked] == [0, 1, 2]
    assert ranked[0][1] == ranked[1][1] == 0.5


def test_classify_k_limits_results():
    net, model = _net_and_model()
    ranked = classify(net, model, _images(1)[0], k=2)
    assert len(ranked) == 2
    assert ranked[0][1] >= ranked[1][1]


def test_accuracy_top5_at_least_top1():
    net, model = _net_and_model(seed=5)
    rng = np.random.default_rng(105)
    dataset = [(img, int(rng.integers(0, 5))) for img in _images(12, seed=106)]
    top1, top5 = accuracy(net, model, dataset)
    assert 0.0 <= top1 <= top5 <= 1.0


def test_accuracy_on_rigged_model_is_perfect():
    # bias alone decides the class: weight nothing, favor class 2
    net = parse_network("input 1 4 4\nconv 1 pad=1 tap\npool\nflatten\ndense 3\n")
    model = FloatModel(conv=[(np.zeros((1, 1, 3, 3)), np.zeros(1))],
                       dense=[(np.zeros((3, 4)), np.array([0.0, 0.0, 9.0]))])
    dataset = [(np.ones((1, 4, 4)), 2)] * 4
    top1, top5 = accuracy(net, model, dataset)
    assert top1 == 1.0 and top5 == 1.0


# c06: a stack runs one preparation, yet each image's outputs are its own

def _modes(seed):
    # eight classes, so that top-5 can miss
    net, model = _net_and_model(seed=seed, text=NET_TEXT.replace("dense 5", "dense 8"))
    compressed = build_compressed_model(net, model, [2, 3])
    exponents = calibrate_activation_exponents(net, compressed, _images(4, seed=seed + 1))
    return net, {"float": (model, None), "dequantized": (compressed, None),
                 "integer": (compressed, exponents)}


@pytest.mark.parametrize("mode", ["float", "dequantized", "integer"])
def test_forward_on_a_stack_equals_per_image_forward_in_any_order(mode):
    net, cases = _modes(30)
    weights, exponents = cases[mode]
    stack = np.stack(_images(6, seed=130)).reshape(2, 3, 3, 12, 12)   # (R, J, C, H, W)
    singles = [forward(net, weights, image, mode, exponents)
               for image in stack.reshape(6, 3, 12, 12)]
    taps, logits = forward(net, weights, stack, mode, exponents)
    assert taps.shape == (2, 3, 6, 4, 4) and logits.shape == (2, 3, 8)
    for at, (tap, logit) in zip(np.ndindex(2, 3), singles):
        assert taps[at].tobytes() == tap.tobytes() and logits[at].tobytes() == logit.tobytes()

    order = np.random.default_rng(131).permutation(6)
    taps, logits = forward(net, weights, stack.reshape(6, 3, 12, 12)[order], mode, exponents)
    for row, k in enumerate(order):
        assert taps[row].tobytes() == singles[k][0].tobytes()
        assert logits[row].tobytes() == singles[k][1].tobytes()


def test_integer_self_calibration_on_a_stack_calibrates_over_its_rows():
    net, cases = _modes(31)
    compressed, _ = cases["integer"]
    # rows at different brightness, so no single row's grid fits them all
    scales = 2.0 ** np.arange(6)[:, None, None, None]
    stack = (np.stack(_images(6, seed=132)) * scales).reshape(3, 2, 3, 12, 12)
    exponents = calibrate_activation_exponents(net, compressed, stack.reshape(6, 3, 12, 12))
    self_taps, self_logits = forward(net, compressed, stack, "integer")
    taps, logits = forward(net, compressed, stack, "integer", exponents)
    assert self_taps.tobytes() == taps.tobytes() and self_logits.tobytes() == logits.tobytes()


def test_forward_on_a_stack_without_a_dense_head():
    net, model = _net_and_model(seed=32, text="input 1 8 8\nconv 2 pad=1 tap\n")
    taps, logits = forward(net, model, np.zeros((4, 1, 8, 8)))
    assert taps.shape == (4, 2, 8, 8) and logits is None


def _accuracy_loop(net, weights, dataset, mode, exponents=None):
    """(top-1, top-5) from one forward per image, ties toward the lower label."""
    top1 = top5 = 0
    for image, label in dataset:
        _, logits = forward(net, weights, image, mode, exponents)
        order = np.argsort(-logits, kind="stable")[:5]
        top1 += int(order[0] == label)
        top5 += int(label in order)
    return top1 / len(dataset), top5 / len(dataset)


@pytest.mark.parametrize("mode", ["float", "dequantized", "integer"])
def test_accuracy_equals_per_image_loop(mode):
    net, cases = _modes(33)
    weights, exponents = cases[mode]
    rng = np.random.default_rng(133)
    dataset = [(img, int(rng.integers(0, 8))) for img in _images(30, seed=134)]
    expected = _accuracy_loop(net, weights, dataset, mode, exponents)
    assert accuracy(net, weights, iter(dataset), mode, exponents) == expected
    assert 0.0 < expected[0] < expected[1] < 1.0   # the labels are neither all hit nor all missed


def test_accuracy_integer_without_exponents_calibrates_once_over_the_dataset():
    net, cases = _modes(35)
    compressed, _ = cases["integer"]
    rng = np.random.default_rng(135)
    # images from 1/8 to 4 times as bright: one grid per image scores differently here
    dataset = [(img * 2.0 ** (k % 6 - 3), int(rng.integers(0, 8)))
               for k, img in enumerate(_images(20, seed=136))]
    exponents = calibrate_activation_exponents(net, compressed, [img for img, _ in dataset])
    shared = accuracy(net, compressed, dataset, "integer")
    assert shared == _accuracy_loop(net, compressed, dataset, "integer", exponents)
    assert shared != _accuracy_loop(net, compressed, dataset, "integer")


def test_wrong_shaped_image_in_a_stack_or_dataset_names_its_shape():
    from qnip.ops import ShapeError

    net, model = _net_and_model()
    for bad in (np.zeros((2, 3, 10, 10)), np.zeros((12, 12)), np.zeros(5)):
        with pytest.raises(ShapeError, match=re.escape(str(bad.shape))):
            forward(net, model, bad)
    dataset = [(image, 0) for image in _images(3)] + [(np.zeros((3, 10, 12)), 1)]
    with pytest.raises(ShapeError, match=re.escape("(3, 10, 12)")):
        accuracy(net, model, dataset)
    with pytest.raises(ValueError, match="empty dataset"):
        accuracy(net, model, [])


# golden digests, taken before the dequantized weights were memoized: a
# change to how a model is prepared is checked against stored bytes

GOLDEN_TOYNET = {
    "float": "65063344272955fac3398c86af836d8dce937a2c12416f0f64e1235ce902d45f",
    "dequantized": "d392d8f6d5b679d686ac763b011eb089deab7fcc73feae61e34d288027fe3c3d",
    "integer, shared exponents":
        "6fb4e3915db1a9b5ef1c76a7f5ea0e448717984e0f5a03151c00de3f3767dd2c",
    "integer, self-calibrated":
        "e152c3485e8c38775dd0e5d4989f9a65b405a2e24e0f14ac500216ede7968aff",
}


def _sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_toynet_taps_and_logits_match_golden_digests():
    net = load_network(config_path("toynet"))
    model = init_float_model(net, np.random.default_rng(2020))
    compressed = build_compressed_model(net, model, [2, 1, 3])
    images = np.stack(list(make_retrieval_corpus(2, 2, 32, seed=2020).values()))
    exponents = calibrate_activation_exponents(net, compressed, images)
    assert {
        "float": _sha256(*forward(net, model, images, "float")),
        "dequantized": _sha256(*forward(net, compressed, images, "dequantized")),
        "integer, shared exponents":
            _sha256(*forward(net, compressed, images, "integer", exponents)),
        "integer, self-calibrated":  # each image calibrates its own grid
            _sha256(*(out for image in images for out in forward(net, compressed, image,
                                                                  "integer"))),
    } == GOLDEN_TOYNET


@pytest.mark.parametrize("mode,expected", [("float", (9 / 60, 28 / 60)),
                                           ("dequantized", (6 / 60, 34 / 60))])
def test_accuracy_keeps_no_tap_array(mode, expected):
    net = load_network(config_path("toynet"))
    model = init_float_model(net, np.random.default_rng(60))
    weights = model if mode == "float" else build_compressed_model(net, model, [1, 1, 1])
    dataset = make_shapes_dataset(6, 32, seed=60)
    tap_bytes = len(dataset) * math.prod(net.tap_shape) * 8
    stack_bytes = len(dataset) * math.prod(net.input_shape) * 8
    tracemalloc.start()
    try:
        result = accuracy(net, weights, dataset, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tap_bytes
    assert peak < stack_bytes  # nor a stacked copy of the dataset
    assert result == expected  # as when accuracy kept every image's tap or stacked its images


def test_integer_forward_peaks_no_higher_than_dequantized():
    # integer mode runs the dequantized conv on float64 codes: no int64 copy
    # of the codes, of im2col's columns or of the accumulator
    net, model = _net_and_model(seed=70, text="input 16 32 32\nconv 64 pad=1\nconv 64 pad=1 tap\n")
    compressed = build_compressed_model(net, model, [2, 2])
    image = _images(1, shape=(16, 32, 32), seed=170)[0]
    # calibrating also builds the dequantized weights, outside both peaks
    exponents = calibrate_activation_exponents(net, compressed, [image])

    def peak(*args):
        tracemalloc.start()
        try:
            forward(net, compressed, image, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak("integer", exponents) <= 1.05 * peak("dequantized")


# a CompressedModel is immutable and owns its dequantized weights: built on
# first use, kept while it lives, never handed to a dataclasses.replace copy

@pytest.fixture
def dequantizations(monkeypatch):
    """Every FloatModel a container dequantizes, in order."""
    built = []

    def counting(model):
        built.append(dequantized_float_model(model))
        return built[-1]
    monkeypatch.setattr(codec, "dequantized_float_model", counting)
    return built


def test_engine_holds_codec_s_dequantized_float_model():
    # perfbench's tracer wraps the function on every module holding it, and
    # its self-test reads the wrapper back through engine
    assert engine.dequantized_float_model is codec.dequantized_float_model


def test_a_compressed_model_is_dequantized_once_across_calls(dequantizations):
    net, model = _net_and_model(seed=50)
    compressed = build_compressed_model(net, model, [2, 3])
    images = _images(3, seed=150)
    forward(net, compressed, images[0], "dequantized")
    assert len(dequantizations) == 1
    exponents = calibrate_activation_exponents(net, compressed, images)
    forward(net, compressed, np.stack(images), "integer", exponents)
    forward(net, compressed, images[1], "integer")
    forward(net, compressed, images[2], "dequantized")
    accuracy(net, compressed, [(image, 0) for image in images], "dequantized")
    accuracy(net, compressed, [(image, 0) for image in images], "integer")
    classify(net, compressed, images[0], "integer", 3, exponents)
    assert dequantizations == [compressed.dequantized]


def test_a_container_is_frozen_and_read_only_before_any_forward():
    net, model = _net_and_model(seed=53)
    compressed = build_compressed_model(net, model, [2, 3])
    layer, (w, b) = compressed.layers[1], compressed.dense[0]
    for obj, name in ((compressed, "layers"), (compressed, "dense"), (compressed, "network"),
                      (layer, "shift"), (layer, "masks")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(TypeError):
        compressed.layers[0] = layer  # a tuple
    for array in (layer.masks, layer.scalars, layer.biases, w, b):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert all(array.flags.writeable for array in model.arrays())  # float64 source, copied
    forward(net, compressed, _images(1, seed=153)[0], "dequantized")
    for array in compressed.dequantized.arrays():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_a_container_s_weights_die_with_it(dequantizations):
    net, model = _net_and_model(seed=52)
    image = _images(1, seed=152)[0]
    first = build_compressed_model(net, model, [2, 3])
    second = build_compressed_model(net, model, [3, 2])
    forward(net, first, image, "dequantized")
    forward(net, second, image, "integer", [0, 0, 0])
    held = [weakref.ref(weights) for weights in dequantizations]
    dequantizations.clear()
    assert all(ref() is not None for ref in held)  # one weight set per live container
    del first
    assert held[0]() is None and held[1]() is not None
    del second
    assert held[1]() is None


def test_a_replaced_layer_dense_pair_or_shift_takes_effect(dequantizations):
    net, model = _net_and_model(seed=54)
    donor = build_compressed_model(net, init_float_model(net, np.random.default_rng(55)),
                                   [3, 2])
    compressed = build_compressed_model(net, model, [2, 3])
    image, exponents, modes = _images(1, seed=154)[0], [1, 1, 1], ("dequantized", "integer")
    before = [forward(net, compressed, image, mode, exponents) for mode in modes]
    own = compressed.dequantized
    first, second = compressed.layers
    copies = {
        "replace_layer": dataclasses.replace(compressed, layers=[first, donor.layers[1]]),
        "replace_dense": dataclasses.replace(compressed, dense=donor.dense),
        "lower_shift": dataclasses.replace(
            compressed, layers=[dataclasses.replace(first, shift=first.shift - 1), second]),
        "replace_layers": dataclasses.replace(compressed, layers=list(donor.layers)),
    }
    for name, copy in copies.items():
        count = len(dequantizations)
        got = [forward(net, copy, image, mode, exponents) for mode in modes]
        assert len(dequantizations) == count + 1, name
        assert copy.dequantized is not own, name
        expected = forward(net, dequantized_float_model(copy), image, "float")
        rebuilt = forward(net, decode(encode(copy)), image, "integer", exponents)
        for (tap, logits), (want_tap, want_logits) in zip(got, (expected, rebuilt)):
            assert tap.tobytes() == want_tap.tobytes(), name
            assert logits.tobytes() == want_logits.tobytes(), name
        assert got[1][1].tobytes() != before[1][1].tobytes(), name
    count = len(dequantizations)
    again = [forward(net, compressed, image, mode, exponents) for mode in modes]
    assert compressed.dequantized is own and len(dequantizations) == count
    for (tap, logits), (want_tap, want_logits) in zip(again, before):
        assert tap.tobytes() == want_tap.tobytes()
        assert logits.tobytes() == want_logits.tobytes()


def test_worker_threads_share_one_dequantization(dequantizations):
    net, model = _net_and_model(seed=51)
    compressed = build_compressed_model(net, model, [3, 2])
    images = _images(8, seed=151)
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(forward, net, compressed, image, "dequantized")
                   for image in images]
        outs = [future.result(timeout=60) for future in futures]
    # cached_property fills under a lock before Python 3.12; from 3.12 on,
    # racing first uses may each build identical weights, one per worker at most
    assert 1 <= len(dequantizations) <= 4
    if sys.version_info < (3, 12):
        assert len(dequantizations) == 1
    for image, (tap, logits) in zip(images, outs):
        alone_tap, alone_logits = forward(net, compressed, image, "dequantized")
        assert tap.tobytes() == alone_tap.tobytes()
        assert logits.tobytes() == alone_logits.tobytes()


def test_threads_alternating_two_models_never_see_the_other_s_weights():
    net, model = _net_and_model(seed=56)
    models = [build_compressed_model(net, model, [3, 2]),
              build_compressed_model(net, model, [1, 1])]
    image, exponents = _images(1, seed=156)[0], [0, 1, 1]
    cases = [(m, mode) for m in (0, 1) for mode in ("dequantized", "integer")]
    alone = [forward(net, dataclasses.replace(models[m]), image, mode, exponents)[1].tobytes()
             for m, mode in cases]
    assert len(set(alone)) == len(cases)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the first-use build
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:  # more workers than cores
            futures = [pool.submit(forward, net, models[cases[k % 4][0]], image,
                                   cases[k % 4][1], exponents) for k in range(48)]
            outs = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, (_, logits) in enumerate(outs):
        assert logits.tobytes() == alone[k % 4], k
