"""Training loop: determinism, quantized-view semantics, gradient checks."""

import hashlib

import numpy as np
import pytest

from qnip import config_path, ops, train
from qnip.codec import build_compressed_model, dequantized_float_model, encode
from qnip.engine import accuracy
from qnip.network import (ConvSpec, DenseSpec, FlattenSpec, PoolSpec, init_float_model,
                          load_network, model_checksum, parse_network)
from qnip.quantize import dequantize_layer, finish_layer, fit_layer, global_shift
from qnip.train import (
    DivergenceError,
    TrainConfig,
    gradient_check,
    retrain_quantized,
    train_float,
    write_metrics_csv,
    EpochMetrics,
    _quantized_view,
)
from qnip.datasets import make_brightness_dataset, make_shapes_dataset

NET_TEXT = "input 3 16 16\nconv 4 pad=1\npool\nconv 6 pad=1 tap\npool\nflatten\ndense 2\n"
# a strided col2im and a ReLU mask between dense layers
STRIDED_TEXT = ("input 3 12 12\nconv 4 stride=2 pad=1\nconv 3 pad=1 tap\npool\n"
                "flatten\ndense 5\ndense 3\n")


def _argmax_pool_backward(x, grad):
    """Oracle: each 2x2 window's gradient goes to np.argmax of its four values in
    row-major order (the first max on ties), every other position gets +0.0."""
    dx = np.zeros_like(x)
    for ch, i, j in np.ndindex(grad.shape):
        k = int(np.argmax([x[ch, 2 * i + di, 2 * j + dj] for di in (0, 1) for dj in (0, 1)]))
        dx[ch, 2 * i + k // 2, 2 * j + k % 2] = grad[ch, i, j]
    return dx


def _reference_backward(net, conv_params, dense_params, image, outputs, cols, dlogits):
    """The backward pass as it was before the slice-mask pool routing: argmax
    winners, and col2im run down to the image, whose gradient is then dropped."""
    grads = []
    conv_i, dense_i = len(conv_params), len(dense_params)
    grad = dlogits
    inputs = [image] + outputs[:-1]
    for spec, x, out in zip(reversed(net.layers), reversed(inputs), reversed(outputs)):
        if isinstance(spec, DenseSpec):
            dense_i -= 1
            w, _ = dense_params[dense_i]
            vin = np.maximum(x, 0.0) if dense_i > 0 else x
            grads += [grad.copy(), np.outer(grad, vin)]
            grad = w.T @ grad
            if dense_i > 0:
                grad = grad * (x > 0)
        elif isinstance(spec, FlattenSpec):
            grad = grad.reshape(x.shape)
        elif isinstance(spec, PoolSpec):
            c, h, wd = x.shape
            windows = x.reshape(c, h // 2, 2, wd // 2, 2).transpose(0, 1, 3, 2, 4)
            winners = windows.reshape(c, h // 2, wd // 2, 4).argmax(axis=3)
            flat = np.where(np.arange(4) == winners[..., None], grad[..., None], 0.0)
            grad = flat.reshape(c, h // 2, wd // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(x.shape)
        elif isinstance(spec, ConvSpec):
            conv_i -= 1
            w, _ = conv_params[conv_i]
            dpre = grad.reshape(w.shape[0], -1) * (out.reshape(w.shape[0], -1) > 0)
            grads += [dpre.sum(axis=1), (dpre @ cols[conv_i].T).reshape(w.shape)]
            dcols = w.reshape(w.shape[0], -1).T @ dpre
            grad = ops.col2im(dcols, x.shape, spec.stride, spec.padding)
    assert grad.shape == image.shape
    return grads[::-1]


def _small_setup():
    net = parse_network(NET_TEXT)
    data = make_brightness_dataset(8, size=16, seed=0)
    return net, data


def test_train_float_is_deterministic():
    net, data = _small_setup()
    config = TrainConfig(epochs=2, learning_rate=0.05, batch_size=4, seed=3)
    a = train_float(net, data, config)
    b = train_float(net, data, config)
    assert model_checksum(a.model) == model_checksum(b.model)
    assert a.metrics == b.metrics
    c = train_float(net, data, TrainConfig(epochs=2, learning_rate=0.05, batch_size=4, seed=4))
    assert model_checksum(c.model) != model_checksum(a.model)


def test_train_float_learns_brightness_split():
    net, data = _small_setup()
    result = train_float(net, data, TrainConfig(epochs=5, learning_rate=0.05, batch_size=4, seed=0))
    assert result.metrics[-1].top1 == 1.0
    assert result.metrics[-1].loss < result.metrics[0].loss


def test_all_float_profile_reproduces_plain_training():
    # profile of all-None sentinels must leave the quantized view aliasing the
    # shadow weights, giving the exact float trajectory and no packed model
    net, data = _small_setup()
    base = TrainConfig(epochs=3, learning_rate=0.05, batch_size=4, seed=1)
    qcfg = TrainConfig(epochs=3, learning_rate=0.05, batch_size=4, seed=1,
                       profile=[None, None])
    plain = train_float(net, data, base)
    sentinel = retrain_quantized(net, plain.model, data, qcfg)
    assert sentinel.model is None
    rerun = train_float(net, data, base)
    assert model_checksum(rerun.model) == model_checksum(plain.model)


def test_zero_learning_rate_retrain_equals_direct_quantization():
    net, data = _small_setup()
    float_model = train_float(net, data, TrainConfig(epochs=2, learning_rate=0.05,
                                                     batch_size=4, seed=0)).model
    direct = build_compressed_model(net, float_model, [2, 1])
    frozen = retrain_quantized(net, float_model, data,
                               TrainConfig(epochs=2, learning_rate=0.0, batch_size=4,
                                           seed=0, profile=[2, 1]))
    assert frozen.model == direct
    assert model_checksum(frozen.shadow) == model_checksum(float_model)


def test_retrain_metrics_match_engine_on_final_model():
    net, data = _small_setup()
    float_model = train_float(net, data, TrainConfig(epochs=3, learning_rate=0.05,
                                                     batch_size=4, seed=0)).model
    result = retrain_quantized(net, float_model, data,
                               TrainConfig(epochs=2, learning_rate=0.01, batch_size=4,
                                           seed=0, profile=[1, 1]))
    top1, _ = accuracy(net, dequantized_float_model(result.model), data)
    assert abs(result.metrics[-1].top1 - top1) <= 1e-12


def test_retrain_requires_profile():
    net, data = _small_setup()
    float_model = train_float(net, data, TrainConfig(epochs=1, batch_size=4)).model
    with pytest.raises(ValueError):
        retrain_quantized(net, float_model, data, TrainConfig(epochs=1, batch_size=4))


def test_retrain_step_refresh_runs_and_differs():
    net, data = _small_setup()
    float_model = train_float(net, data, TrainConfig(epochs=2, learning_rate=0.05,
                                                     batch_size=4, seed=0)).model
    by_epoch = retrain_quantized(net, float_model, data,
                                 TrainConfig(epochs=2, learning_rate=0.02, batch_size=4,
                                             seed=0, profile=[1, 1], refresh="epoch"))
    by_step = retrain_quantized(net, float_model, data,
                                TrainConfig(epochs=2, learning_rate=0.02, batch_size=4,
                                            seed=0, profile=[1, 1], refresh="step"))
    assert by_step.model is not None
    assert model_checksum(by_step.shadow) != model_checksum(by_epoch.shadow)


def test_gradient_check_fc_only():
    net = parse_network("input 2 6 6\nconv 2 tap\nflatten\ndense 3\n")
    model = init_float_model(net, np.random.default_rng(0))
    sample = (np.random.default_rng(1).uniform(0, 1, (2, 6, 6)), 1)
    assert gradient_check(net, model, sample, n_checks=40, seed=0) < 1e-5


def test_gradient_check_full_stack():
    for text, shape in [(NET_TEXT, (3, 16, 16)), (STRIDED_TEXT, (3, 12, 12))]:
        net = parse_network(text)
        model = init_float_model(net, np.random.default_rng(2))
        sample = (np.random.default_rng(3).uniform(0, 1, shape), 0)
        assert gradient_check(net, model, sample, n_checks=60, seed=0) < 1e-3, text


def test_gradient_check_skips_probes_across_kinks():
    # at these seeds some +-1e-4 probe flips a ReLU sign or a pool winner; the
    # central difference across that kink was off by up to 0.68 (1e-5 steps agree)
    for text, s in [(NET_TEXT, 11), (NET_TEXT, 24), (STRIDED_TEXT, 20)]:
        net = parse_network(text)
        model = init_float_model(net, np.random.default_rng([s, 0]))
        image = np.random.default_rng([s + 100, 0]).uniform(0, 1, net.input_shape)
        assert gradient_check(net, model, (image, s % 2), n_checks=30, seed=0) < 1e-3, (text, s)


def test_quantized_view_mixes_float_and_quantized_layers():
    net = parse_network("input 3 16 16\nconv 4 pad=1\nconv 5 stride=2 pad=1\npool\n"
                        "conv 6 pad=1 tap\nflatten\ndense 2\n")
    shadow = init_float_model(net, np.random.default_rng(7))
    profile = [1, None, 2]
    config = TrainConfig(profile=profile, shift_scope="global")
    view = _quantized_view(net, shadow, config)
    assert view[1][0] is shadow.conv[1][0] and view[1][1] is shadow.conv[1][1]
    e = global_shift([fit_layer(w, b, m, config.policy).alphas
                      for (w, b), m in zip(shadow.conv, profile) if m is not None])
    for i in (0, 2):
        w, b = shadow.conv[i]
        want = dequantize_layer(finish_layer(fit_layer(w, b, profile[i], config.policy), e))
        assert all(np.array_equal(got, ref) for got, ref in zip(view[i], want))
    with pytest.raises(ValueError, match="sentinel"):
        build_compressed_model(net, shadow, profile, shift_scope="global")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    # moderate blow-ups stay finite (dead ReLUs self-limit); a step size big
    # enough to overflow float64 must surface as DivergenceError
    net, data = _small_setup()
    with pytest.raises(DivergenceError):
        train_float(net, data, TrainConfig(epochs=2, learning_rate=1e80, batch_size=4, seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(refresh="sometimes")
    with pytest.raises(ValueError):
        TrainConfig(shift_scope="universe")


def test_write_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, [EpochMetrics(1, 0.6931471, 0.5), EpochMetrics(2, 0.25, 0.9375)])
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss,top1"
    assert lines[1] == "1,0.693147,0.5000"
    assert lines[2] == "2,0.250000,0.9375"


def test_pool_backward_routes_to_first_max_on_ties():
    # all-zero ReLU windows, repeated maxima and -0.0 beside 0.0: the slice
    # masks must pick the same position as argmax, and leave +0.0 elsewhere
    rng = np.random.default_rng(8)
    x = rng.choice([-1.0, -0.0, 0.0, 1.0, 2.0], size=(4, 8, 10))
    x[0] = np.maximum(x[0], 0.0)
    x[1, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
    x[1, :2, 2:4] = [[0.0, -0.0], [-0.0, 0.0]]
    x[2, :2, :2] = [[1.0, 2.0], [2.0, 2.0]]
    x[3] = 0.0
    grad = rng.normal(size=(4, 4, 5))
    grad[0, 0, 0] = -0.0
    got = train._pool_backward(x, train._maxpool(x), grad)
    assert got.tobytes() == _argmax_pool_backward(x, grad).tobytes()


def test_loss_and_grads_match_reference_backward_bit_for_bit():
    # flat image patches give pool windows with repeated positive maxima;
    # dead-ReLU biases make them tie at zero as well
    for text in (NET_TEXT, STRIDED_TEXT):
        net = parse_network(text)
        for s in range(4):
            model = init_float_model(net, np.random.default_rng([s, 0]))
            if s % 2:
                model.conv = [(w, b - 0.3) for w, b in model.conv]
            c, h, w = net.input_shape
            patches = np.random.default_rng([s, 1]).uniform(0, 1, (c, 2, 2))
            image = patches.repeat(h // 2, axis=1).repeat(w // 2, axis=2)
            label = s % 2
            loss, grads = train._loss_and_grads(net, model.conv, model.dense, image, label)
            logits, outputs, cols = train._forward(net, model.conv, model.dense, image)
            convs = [y for spec, y in zip(net.layers, outputs) if isinstance(spec, ConvSpec)]
            for (w, b), c, y in zip(model.conv, cols, convs):
                plain = np.maximum(w.reshape(w.shape[0], -1) @ c + b[:, None], 0.0)
                assert plain.tobytes() == y.tobytes()
            want_loss, probs = ops.softmax_cross_entropy(logits, label)
            dlogits = probs.copy()
            dlogits[label] -= 1.0
            want = _reference_backward(net, model.conv, model.dense, image, outputs, cols,
                                       dlogits)
            assert loss == want_loss
            assert [(g.dtype, g.shape) for g in grads] == [(g.dtype, g.shape) for g in want]
            assert all(g.tobytes() == r.tobytes() for g, r in zip(grads, want)), (text, s)


def _patch_image(net, seed):
    """Flat 2x2 patches: pool windows with repeated maxima."""
    c, h, w = net.input_shape
    patches = np.random.default_rng([seed, 1]).uniform(0, 1, (c, 2, 2))
    return patches.repeat(h // 2, axis=1).repeat(w // 2, axis=2)


def test_reused_workspace_gives_the_bytes_of_a_fresh_one():
    # a stale col2im frame or pool dx from the first sample (or from the scoring
    # forward between) would leak into the second sample's gradients
    for text in (NET_TEXT, STRIDED_TEXT):
        net = parse_network(text)
        for s in range(4):
            model = init_float_model(net, np.random.default_rng([s, 0]))
            if s % 2:  # dead ReLUs: ties at zero as well
                model.conv = [(w, b - 0.3) for w, b in model.conv]
            samples = [(_patch_image(net, s), s % 2), (_patch_image(net, s + 4), 1 - s % 2)]
            fresh = [train._loss_and_grads(net, model.conv, model.dense, image, label)
                     for image, label in samples]
            want = [(loss, [g.tobytes() for g in grads]) for loss, grads in fresh]
            for score_between in (False, True):
                ws = train._Workspace()
                got = []
                for n, (image, label) in enumerate(samples):
                    if n and score_between:
                        train._dataset_top1(net, model.conv, model.dense,
                                            [(_patch_image(net, s + 8), 0)], ws)
                    loss, grads = train._loss_and_grads(net, model.conv, model.dense,
                                                        image, label, ws)
                    got.append((loss, [g.tobytes() for g in grads]))
                    if not n:
                        buffers = {k: id(v) for k, v in ws.items()}
                assert {k: id(v) for k, v in ws.items()} == buffers  # reused, none added
                assert any(np.shares_memory(g, buf) for g in grads for buf in ws.values())
                assert got == want, (text, s, score_between)


# digests of toynet training on make_shapes_dataset(6, seed=1), taken before
# training reused its buffers; any change to a summation order shows here
GOLDEN_FLOAT = ("d30d239104479ee9e4567512b36c399f03a353a14b3bd52cbae08e086a40fe5e",
                [(0, 2.6501361742458607, 0.26666666666666666),
                 (1, 2.1968813863312824, 0.5666666666666667),
                 (2, 1.973746419707667, 0.5666666666666667)])
GOLDEN_RETRAIN = [
    (dict(refresh="epoch"),
     "e29197b4f288c373af80884763a7753c5a8062ec7782f96542294b1ed1e842a8",
     [(0, 2.0369267588180118, 0.36666666666666664), (1, 2.024195516195429, 0.4166666666666667)],
     "c3bd5745419e8c369b313fb71bb9a8e13a87840b8cdfbd47a35867714e084459"),
    (dict(refresh="step"),
     "92c4d77b25811728e699e90264bb8f3f2e04c492708d6a93f2b63ac3e0c200d0",
     [(0, 2.0370714210532936, 0.35), (1, 2.0248498814613476, 0.4)],
     "aa6719e581af0d6e68ac2f4377ab373f92dd823d8a8be9dacd83806e6d4244ed"),
    (dict(shift_scope="global"),
     "d8a4149b6061e3058e29cc145a8ef79b99c82e5883d7925378f9fc2be6c23be8",
     [(0, 2.0375715877320233, 0.38333333333333336), (1, 2.0242715251247163, 0.4166666666666667)],
     "2d1979b6ff52be0298fe417a228fd08433409aee2126d9979ba769ed77cb59c4"),
]


def test_toynet_training_matches_golden_digests():
    net = load_network(config_path("toynet"))
    data = make_shapes_dataset(6, seed=1)
    floated = train_float(net, data, TrainConfig(epochs=3, learning_rate=0.08,
                                                 batch_size=16, seed=1))
    assert (model_checksum(floated.model), floated.metrics) == GOLDEN_FLOAT
    for options, shadow, metrics, container in GOLDEN_RETRAIN:
        result = retrain_quantized(net, floated.model, data,
                                   TrainConfig(epochs=2, learning_rate=0.005, batch_size=16,
                                               seed=1, profile=[1, 1, 1], **options))
        assert model_checksum(result.shadow) == shadow, options
        assert result.metrics == metrics, options
        assert hashlib.sha256(encode(result.model)).hexdigest() == container, options
