"""Architecture config parsing, shape propagation, float checkpoints."""

import dataclasses

import numpy as np
import pytest

import qnip
from qnip.network import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    FloatModel,
    NetworkConfigError,
    NetworkDefinition,
    PoolSpec,
    check_model_matches,
    init_float_model,
    load_float_model,
    load_network,
    model_checksum,
    parse_network,
    propagate_shapes,
    save_float_model,
)

TOY_TEXT = """\
# toy three-conv
input 3 32 32
conv 16 pad=1
pool
conv 32 pad=1
pool
conv 96 pad=1 tap
pool
flatten
dense 10
"""


def test_parse_basic_network():
    net = parse_network(TOY_TEXT)
    assert net.input_shape == (3, 32, 32)
    assert [s.out_channels for s in net.conv_specs] == [16, 32, 96]
    assert [s.in_channels for s in net.conv_specs] == [3, 16, 32]
    assert [s.out_features for s in net.dense_specs] == [10]
    assert net.tap_name == "conv3"
    assert net.tap_shape == (96, 8, 8)


def test_parse_roundtrips_through_to_text():
    net = parse_network(TOY_TEXT)
    assert parse_network(net.to_text()) == net


def test_parse_stride_and_pad_options():
    net = parse_network("input 1 9 9\nconv 4 stride=2 pad=1 tap\n")
    assert net.conv_specs[0] == ConvSpec(4, 1, stride=2, padding=1)
    assert propagate_shapes(net) == [(4, 5, 5)]


def test_parse_comments_and_blank_lines():
    net = parse_network("\n# header\ninput 1 4 4\n\nconv 2 tap  # inline note\n")
    assert net.conv_specs[0].out_channels == 2


def test_default_tap_is_last_conv():
    net = parse_network("input 1 8 8\nconv 2 pad=1\nconv 3 pad=1\npool\nflatten\ndense 2\n")
    assert net.tap_name == "conv2"
    assert net.tap_shape == (3, 8, 8)


def test_parse_errors():
    for text in [
        "",  # no input line
        "conv 4\n",  # layer before input
        "input 1 8 8\ninput 1 8 8\nconv 2\n",  # duplicate input
        "input 1 8 8\nconv 2 tap\nconv 3 tap\n",  # two taps
        "input 1 8 8\ndense 4\n",  # dense before flatten
        "input 1 8 8\nconv 2\nflatten\npool\n",  # pool after flatten
        "input 1 8 8\nwiggle 3\n",  # unknown directive
        "input 1 8 8\nconv 0\n",  # bad channel count
        "input 1 8 8\nconv 2 stride=0\n",
        "input 1 8 8\nconv 2 pad=-1\n",
        "input 1 8 8\nconv x\n",
        "input 1 8\nconv 2\n",  # malformed input shape
        "input 1 8 8\nflatten\nflatten\n",
        "input 1 5 5\nconv 2 pad=1\npool\n",  # odd spatial dims into pool
        "input 1 8 8\npool\npool\npool\npool\n",  # shrinks below kernel, no conv/tap
    ]:
        with pytest.raises(NetworkConfigError):
            parse_network(text)


def test_a_network_built_directly_checks_its_chain():
    conv = ConvSpec(2, 1)
    for layers, tap_index, message in [
        ((conv, DenseSpec(4)), 0, "layer 2: dense before flatten"),
        ((ConvSpec(2, 1, padding=1), PoolSpec()), 0,
         "layer 2: pool needs even spatial dims, has 5x5"),
        ((conv,), 1, "tap index 1 names no conv layer"),
        ((conv,), -1, "tap index -1 names no conv layer"),
        ((FlattenSpec(), DenseSpec(2)), 0, "network needs at least one conv layer"),
        ((ConvSpec(2, 3),), 0, "layer 1: conv takes 3 channels, gets 1"),
        ((conv, ConvSpec(2, 2, stride=2), ConvSpec(2, 2)), 0, "layer 3: 3x3 conv"),
        ((conv, FlattenSpec(), FlattenSpec()), 0, "layer 3: only dense layers may follow"),
        ((conv, FlattenSpec(), PoolSpec()), 0, "layer 3: only dense layers may follow"),
    ]:
        with pytest.raises(NetworkConfigError, match=f"^{message}"):
            NetworkDefinition((1, 5, 5), layers, tap_index)
    with pytest.raises(NetworkConfigError, match="^input shape"):
        NetworkDefinition((1, 5), (conv,), 0)
    net = NetworkDefinition((1, 5, 5), (conv,), 0)
    with pytest.raises(NetworkConfigError, match="tap index 3"):
        dataclasses.replace(net, tap_index=3)
    # the text grammar reaches the same checks: a second flatten and a conv
    # leaving no pixels used to raise IndexError and ShapeError
    for text in ("input 1 8 8\nconv 2\nflatten\nflatten\n", "input 1 2 2\nconv 2\n"):
        with pytest.raises(NetworkConfigError):
            parse_network(text)


def test_a_network_carries_its_shapes_outside_equality():
    net = parse_network(TOY_TEXT)
    assert net.activation_shapes == ((16, 32, 32), (16, 16, 16), (32, 16, 16), (32, 8, 8),
                                     (96, 8, 8), (96, 4, 4), (1536,), (10,))
    assert propagate_shapes(net) == list(net.activation_shapes)
    assert net.param_shapes == (((16, 3, 3, 3), (16,)), ((32, 16, 3, 3), (32,)),
                                ((96, 32, 3, 3), (96,)), ((10, 1536), (10,)))
    again = parse_network(TOY_TEXT)
    assert again == net and hash(again) == hash(net)
    assert repr(net) == (f"NetworkDefinition(input_shape={net.input_shape!r}, "
                         f"layers={net.layers!r}, tap_index=2)")
    moved = dataclasses.replace(net, tap_index=0)
    assert moved != net and moved.tap_shape == (16, 32, 32)


def test_parse_refuses_layers_before_input():
    for text, message in [
        ("# conv first\nconv 4\ninput 1 8 8\n", "line 2: input must come first"),
        ("pool\ninput 1 8 8\nconv 2\n", "line 1: input must come first"),
        ("conv 4 pad=1\nconv 4 tap\n", "line 1: input must come first"),  # no input line
        ("# nothing but a comment\n", "missing input line"),
    ]:
        with pytest.raises(NetworkConfigError, match=f"^{message}$"):
            parse_network(text)


def test_conv_spec_validation():
    assert ConvSpec(4, 3, 2, 1) == ConvSpec(out_channels=4, in_channels=3, stride=2, padding=1)
    with pytest.raises(ValueError):
        ConvSpec(out_channels=0, in_channels=1)
    with pytest.raises(ValueError):
        ConvSpec(out_channels=1, in_channels=0)
    with pytest.raises(ValueError):
        ConvSpec(out_channels=1, in_channels=1, stride=0)
    with pytest.raises(ValueError):
        ConvSpec(out_channels=1, in_channels=1, padding=-1)


def test_vgg_fixture_geometry():
    net = load_network(qnip.config_path("vgg16"))
    assert net.input_shape == (3, 224, 224)
    assert len(net.conv_specs) == 13
    assert not net.dense_specs
    assert net.tap_shape == (512, 14, 14)
    widths = [s.out_channels for s in net.conv_specs]
    assert widths == [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]


def test_toynet_fixture_geometry():
    net = load_network(qnip.config_path("toynet"))
    shapes = propagate_shapes(net)
    assert shapes[-2] == (1536,)
    assert shapes[-1] == (10,)
    assert net.tap_shape == (96, 8, 8)


def test_init_float_model_shapes_and_determinism():
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(0))
    assert [w.shape for w, _ in model.conv] == [(16, 3, 3, 3), (32, 16, 3, 3), (96, 32, 3, 3)]
    assert [b.shape for _, b in model.conv] == [(16,), (32,), (96,)]
    assert [w.shape for w, _ in model.dense] == [(10, 1536)]
    assert np.all(model.conv[0][1] == 0.0)
    again = init_float_model(net, np.random.default_rng(0))
    assert model_checksum(model) == model_checksum(again)
    other = init_float_model(net, np.random.default_rng(1))
    assert model_checksum(model) != model_checksum(other)


def test_check_model_matches():
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(0))
    check_model_matches(net, model)
    bad = FloatModel(conv=model.conv[:-1], dense=model.dense)
    with pytest.raises(ValueError):
        check_model_matches(net, bad)


def test_float_checkpoint_round_trip(tmp_path):
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(7))
    path = tmp_path / "model.qfw"
    save_float_model(path, model)
    loaded = load_float_model(path)
    for (w1, b1), (w2, b2) in zip(model.conv + model.dense, loaded.conv + loaded.dense):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert model_checksum(loaded) == model_checksum(model)


def test_float_checkpoint_write_is_deterministic(tmp_path):
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(7))
    save_float_model(tmp_path / "a.qfw", model)
    save_float_model(tmp_path / "b.qfw", model)
    assert (tmp_path / "a.qfw").read_bytes() == (tmp_path / "b.qfw").read_bytes()


def test_load_float_model_rejects_garbage(tmp_path):
    path = tmp_path / "junk.qfw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_float_model(path)

    good = tmp_path / "good.qfw"
    save_float_model(good, init_float_model(parse_network(TOY_TEXT), np.random.default_rng(7)))
    data = good.read_bytes()
    # a header cut short used to escape as struct.error
    path.write_bytes(data[:6])
    with pytest.raises(ValueError, match="truncated at byte 4"):
        load_float_model(path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_float_model(path)


def test_model_checksum_sensitive_to_single_weight():
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(7))
    before = model_checksum(model)
    model.conv[0][0][0, 0, 0, 0] += 1e-9
    assert model_checksum(model) != before


def test_dense_spec_requires_positive_features():
    with pytest.raises(NetworkConfigError):
        parse_network("input 1 8 8\nconv 2\nflatten\ndense 0\n")
    assert DenseSpec(4).out_features == 4


def test_check_model_matches_rejects_reshaped_dense_head():
    # a 10x1536 head stored as 5x3072 holds as many weights, and quantize
    # used to write a container from it that decode then refused
    net = parse_network(TOY_TEXT)
    model = init_float_model(net, np.random.default_rng(0))
    (w, b), = model.dense
    for dense in ([(w.reshape(5, -1), b[:5])], [(w, b[:5])]):
        with pytest.raises(ValueError, match="dense1"):
            check_model_matches(net, FloatModel(conv=model.conv, dense=dense))


def test_dense_shapes_and_unchanged_init_draws():
    net = parse_network("input 1 8 8\nconv 3 pad=1\npool\nconv 4 tap\nflatten\ndense 5\ndense 2\n")
    assert net.param_shapes == (((3, 1, 3, 3), (3,)), ((4, 3, 3, 3), (4,)),
                                ((5, 16), (5,)), ((2, 5), (2,)))
    assert parse_network("input 1 4 4\nconv 2\n").param_shapes == (((2, 1, 3, 3), (2,)),)
    model = init_float_model(net, np.random.default_rng(3))
    assert tuple((w.shape, b.shape) for w, b in (*model.conv, *model.dense)) == net.param_shapes
    # the weights drawn before the dense shapes had one derivation
    assert model_checksum(model) == (
        "43dd56d689be9390d732296407d4bddb80629c02d2863d26db5df2c8fd93dc6b")
