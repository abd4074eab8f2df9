"""Compressed-container codec: ratios, sizes, byte layout, round trips, errors."""

import base64
import dataclasses
import hashlib
import json
import re
import struct
import threading

import numpy as np
import pytest

import qnip
from qnip.codec import (
    CompressedModel,
    CorruptionError,
    FormatError,
    TruncationError,
    UnsupportedVersionError,
    _pack_fields,
    _unpack_fields,
    build_compressed_model,
    decode,
    dequantized_float_model,
    encode,
    load_model,
    model_ratio,
    model_sizes,
    parameter_count,
    parse_profile,
    quantize_conv_layers,
    ratio_formula,
    save_model,
)
from qnip.engine import forward
from qnip.network import init_float_model, load_network, parse_network
from qnip.quantize import QuantizedLayer


def test_ratio_formula_frozen_values():
    # 288 / (9m + s)
    assert abs(ratio_formula(3, 8) - 8.2286) <= 5e-4
    assert abs(ratio_formula(1, 8) - 16.9412) <= 5e-4
    assert ratio_formula(4, 8) == 288.0 / 44.0
    assert round(ratio_formula(3, 8), 1) == 8.2
    assert round(ratio_formula(1, 8)) == 17


def test_vgg_model_ratio_frozen_value():
    net = load_network(qnip.config_path("vgg16"))
    ratio = model_ratio(net, parse_profile("3x7,1x6"))
    assert abs(ratio - 15.0611) <= 2e-3


def test_vgg_model_sizes_frozen_values():
    net = load_network(qnip.config_path("vgg16"))
    sizes = model_sizes(net, parse_profile("3x7,1x6"))
    assert sizes.float_bytes == 58858752
    assert sizes.compressed_bytes == 3913652


def test_parameter_count_vgg():
    net = load_network(qnip.config_path("vgg16"))
    assert parameter_count(net) == 14714688


def test_parse_profile_forms():
    assert parse_profile("3") == [3]
    assert parse_profile("3x2,1") == [3, 3, 1]
    assert parse_profile("3x7,1x6") == [3] * 7 + [1] * 6
    assert parse_profile("f,3") == [None, 3]
    assert parse_profile("2x2", n_layers=2) == [2, 2]


def test_parse_profile_errors():
    for text in ["", "0", "6", "3x0", "3x", "x2", "3,-1", "blah", "3,,1"]:
        with pytest.raises(ValueError):
            parse_profile(text)
    with pytest.raises(ValueError):
        parse_profile("3,1", n_layers=3)


def _hand_layer(mask, shift=0, scalar=200, bias=1, mask_bits=1):
    return QuantizedLayer(
        mask_bits=mask_bits,
        shift=shift,
        scalars=np.array([[scalar]], dtype=np.uint8),
        masks=np.array([[mask]], dtype=np.int8),
        biases=np.array([bias], dtype=np.int16),
    )


def _hand_model(layer):
    net = parse_network("input 1 4 4\nconv 1 tap\n")
    return CompressedModel(network=net, layers=[layer])


def test_encode_byte_layout_by_hand():
    mask = [1, -1, 1, -1, 1, -1, 1, -1, 1]
    data = encode(_hand_model(_hand_layer(mask, shift=-3, scalar=200, bias=1)))
    assert data[:4] == b"QCM2"
    assert data[4] == 1  # container version
    assert data[5:7] == (1).to_bytes(2, "little")
    assert data[7:15] == struct.pack("<HHBBBb", 1, 1, 1, 0, 1, -3)
    assert data[15] == 200
    # 1-bit masks pack sign bits MSB-first: 101010101 -> 0xAA 0x80
    assert data[16:18] == bytes([0xAA, 0x80])
    # 12-bit two's-complement bias +1 -> 0x00 0x10
    assert data[18:20] == bytes([0x00, 0x10])


def test_encode_negative_bias_bits():
    data = encode(_hand_model(_hand_layer([1] * 9, bias=-1)))
    assert data[18:20] == bytes([0xFF, 0xF0])


def test_model_sizes_matches_encode_length_exactly():
    rng = np.random.default_rng(20)
    for text, profile in [
        ("input 3 8 8\nconv 4 pad=1\npool\nconv 6 tap\n", [3, 1]),
        ("input 1 13 13\nconv 2 stride=2\nconv 3 pad=1 tap\npool\nflatten\ndense 5\n", [5, 2]),
    ]:
        net = parse_network(text)
        model = init_float_model(net, rng)
        compressed = build_compressed_model(net, model, profile)
        data = encode(compressed)
        sizes = model_sizes(net, profile, source_checksum=compressed.source_checksum)
        assert sizes.compressed_bytes == len(data)
        assert sizes.float_bytes == 4 * parameter_count(net)


# sha256 of encode(...): the container bytes are a stored contract, so any
# field packer must reproduce them exactly
VGG16_GOLDEN = {
    "xnor-abs-mean": "4cbe5002e5604af3f8b7a73fabcd7898b2cdd92ccae603db46a6e962653e454e",
    "literal-mean": "28f0ccf79f551d7cd15f749d5dab4160e604a59270775f2f1ddcda32878db24b",
}
SMALL_GOLDEN = {
    1: "1612eacb060a0912e3c37dc69071988ba9ba566611153004f44d53377615345b",
    2: "f592cbdf63c85a372d1042dd0558baf82058b6008214e6b580c3dc53caac044c",
    3: "91232ac9be2d2c432c8e6c4f27a9f3ad6a1a2b0c354a5b9febb0b019a845e64d",
    4: "099b5e55c5917ce6abc98be5260d23dca8d297c68fb5b80a100440f783021f55",
    5: "59829917318c0585befb609fc1920eeb9195108cfb207230f9031bb0f4106472",
}


def test_encode_golden_bytes_vgg16():
    net = load_network(qnip.config_path("vgg16"))
    model = init_float_model(net, np.random.default_rng(1905))
    for policy, digest in VGG16_GOLDEN.items():
        compressed = build_compressed_model(net, model, parse_profile("3x7,1x6"), policy)
        assert hashlib.sha256(encode(compressed)).hexdigest() == digest, policy


def test_encode_golden_bytes_each_mask_width():
    net = parse_network("input 3 8 8\nconv 5 pad=1\nconv 7 pad=1 tap\n")
    rng = np.random.default_rng(1)
    for m, digest in SMALL_GOLDEN.items():
        model = init_float_model(net, rng)
        model.conv = [(w, rng.normal(0, 0.5, b.shape)) for w, b in model.conv]
        compressed = build_compressed_model(net, model, [m, m])
        assert min(layer.biases.min() for layer in compressed.layers) < 0
        assert hashlib.sha256(encode(compressed)).hexdigest() == digest, m


def _oracle_fields(values, width):
    bits = "".join(format(v & ((1 << width) - 1), f"0{width}b") for v in values)
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[k:k + 8], 2) for k in range(0, len(bits), 8))


def test_field_packing_matches_bit_string_oracle():
    rng = np.random.default_rng(30)
    for width in (1, 2, 3, 4, 5, 12):
        dtype = np.int16 if width == 12 else np.int8  # the biases' and masks' dtypes
        for count in range(1, 18):
            values = rng.integers(-(1 << (width - 1)), 1 << (width - 1), count).astype(dtype)
            packed = _pack_fields(values, width)
            assert packed == _oracle_fields(values.tolist(), width), (width, count)
            pad = 8 * len(packed) - width * count
            assert packed[-1] & ((1 << pad) - 1) == 0, (width, count)
            unpacked = _unpack_fields(np.frombuffer(packed, np.uint8), width, count)
            assert np.array_equal(unpacked, values), (width, count)


def test_one_bit_round_trip_all_plus_and_all_minus():
    net = parse_network("input 2 6 6\nconv 3 tap\n")  # 54 fields: the last byte is padded
    compressed = build_compressed_model(net, init_float_model(net, np.random.default_rng(31)),
                                        [1])
    for sign, mask_bytes in ((1, b"\xff" * 6 + b"\xfc"), (-1, b"\x00" * 7)):
        layer = compressed.layers[0]
        layer = dataclasses.replace(layer, masks=np.full_like(layer.masks, sign))
        signed = dataclasses.replace(compressed, layers=[layer])
        data = encode(signed)
        assert data[7 + 8 + 6:7 + 8 + 6 + 7] == mask_bytes
        again = decode(data)
        assert again == signed
        assert again.layers[0].masks.dtype == np.int8


def test_round_trip_identity():
    rng = np.random.default_rng(21)
    net = parse_network("input 3 10 10\nconv 5 pad=1\npool\nconv 7 tap\nflatten\ndense 4\n")
    for m1 in (1, 2, 3, 4, 5):
        model = init_float_model(net, rng)
        compressed = build_compressed_model(net, model, [m1, 5])
        again = decode(encode(compressed))
        assert again == compressed
        assert encode(again) == encode(compressed)
        for container in (compressed, again):
            assert ([layer.scalars.shape for layer in container.layers]
                    == [(s.out_channels, s.in_channels) for s in net.conv_specs])


def test_list_and_tuple_built_containers_compare_equal():
    net = parse_network("input 3 10 10\nconv 5 pad=1\npool\nconv 7 tap\nflatten\ndense 4\n")
    built = build_compressed_model(net, init_float_model(net, np.random.default_rng(23)), [2, 1])
    from_lists = CompressedModel(net, list(built.layers), [list(pair) for pair in built.dense],
                                 built.policy, built.source_checksum)
    from_tuples = CompressedModel(net, tuple(built.layers), tuple(built.dense),
                                  built.policy, built.source_checksum)
    assert type(from_lists.layers) is type(from_lists.dense) is tuple
    assert from_lists == from_tuples == built
    assert decode(encode(from_lists)) == from_lists
    assert decode(encode(from_tuples)) == from_tuples


def test_round_trip_preserves_dequantized_forwarding():
    rng = np.random.default_rng(22)
    net = parse_network("input 2 8 8\nconv 3 pad=1 tap\npool\nflatten\ndense 2\n")
    model = init_float_model(net, rng)
    compressed = build_compressed_model(net, model, [3])
    again = decode(encode(compressed))
    w1, b1 = dequantized_float_model(compressed).conv[0]
    w2, b2 = dequantized_float_model(again).conv[0]
    assert np.array_equal(w1, w2)
    assert np.array_equal(b1, b2)


def test_save_load_model(tmp_path):
    rng = np.random.default_rng(23)
    net = parse_network("input 1 6 6\nconv 2 tap\n")
    compressed = build_compressed_model(net, init_float_model(net, rng), [2])
    path = tmp_path / "model.qcm"
    save_model(path, compressed)
    assert load_model(path) == compressed


def test_decode_bad_magic():
    data = bytearray(encode(_hand_model(_hand_layer([1] * 9))))
    data[:4] = b"QCM9"
    with pytest.raises(FormatError):
        decode(bytes(data))
    with pytest.raises(TruncationError):
        decode(b"")


def test_decode_unsupported_version():
    data = bytearray(encode(_hand_model(_hand_layer([1] * 9))))
    data[4] = 99
    with pytest.raises(UnsupportedVersionError):
        decode(bytes(data))


def test_decode_truncation_reports_offset():
    data = encode(_hand_model(_hand_layer([1] * 9)))
    for cut in (3, 6, 10, 17, 19, len(data) - 1):
        with pytest.raises(TruncationError) as err:
            decode(data[:cut])
        assert 0 <= err.value.offset <= len(data)


def test_decode_trailing_bytes_rejected():
    data = encode(_hand_model(_hand_layer([1] * 9)))
    with pytest.raises(CorruptionError):
        decode(data + b"\x00")


def test_decode_illegal_mask_code():
    # for m=2 the two's-complement pattern 10 (-2) is outside the +-1 range
    layer = _hand_layer([1, 1, 1, 0, 0, 0, -1, -1, -1], mask_bits=2)
    data = bytearray(encode(_hand_model(layer)))
    data[16] = (data[16] & 0x3F) | 0x80  # first element bits -> 10
    with pytest.raises(CorruptionError):
        decode(bytes(data))


def test_decode_corrupt_metadata():
    data = bytearray(encode(_hand_model(_hand_layer([1] * 9))))
    data[-2] ^= 0xFF  # stomp inside the JSON trailer
    with pytest.raises(CorruptionError):
        decode(bytes(data))


def test_decode_shift_out_of_range():
    data = bytearray(encode(_hand_model(_hand_layer([1] * 9, shift=0))))
    # shift byte is the signed tail of the layer header
    data[14] = 0x40  # +64, outside [-8, 7]
    with pytest.raises(CorruptionError):
        decode(bytes(data))


def test_decode_rejects_corrupt_layer_headers():
    # each layer is built as it is read: what ConvSpec, QuantizedLayer or
    # CompressedModel refuses comes out as a CorruptionError naming the layer
    net = parse_network("input 2 6 6\nconv 3 pad=1\nconv 2 tap\n")
    compressed = build_compressed_model(net, init_float_model(net, np.random.default_rng(30)),
                                        [3, 3])
    data = encode(compressed)
    # magic, version, count; layer 0: header, 6 scalars, 6*9*3 mask bits, 3*12 bias bits
    start = 7 + 8 + 6 + 21 + 5
    assert struct.unpack_from("<HHBBBb", data, start) == (2, 3, 1, 0, 3,
                                                          compressed.layers[1].shift)
    masks = start + 8 + 6
    for pos, value, match in [
        (start + 4, 0, "stride must be >= 1"),
        (start, 0, "channel counts must be positive"),
        (start + 7, 8, r"shift 8 outside \[-8, 7\]"),
        (masks, (data[masks] & 0x1F) | 0x80, r"masks exceed \+-3"),  # 3-bit code 100 = -4
        (start + 5, 1, "geometry .* != network's"),  # padding 1, as the architecture has not
    ]:
        corrupt = bytearray(data)
        corrupt[pos] = value
        with pytest.raises(CorruptionError, match=f"^layer 1: {match}"):
            decode(bytes(corrupt))


def test_decode_checks_header_geometry_against_the_network():
    # the header's geometry is written from the network; a stride or a
    # padding that disagrees with the metadata network is corruption
    net = parse_network("input 2 8 8\nconv 3 pad=1\nconv 2 stride=2 tap\n")
    data = encode(build_compressed_model(
        net, init_float_model(net, np.random.default_rng(31)), [2, 1]))
    start = 7 + 8 + 6 + 14 + 5  # layer 1: after layer 0's header, scalars, masks, biases
    assert struct.unpack_from("<HHBB", data, 7) == (3, 2, 1, 1)
    assert struct.unpack_from("<HHBB", data, start) == (2, 3, 2, 0)
    for pos, value, match in [(7 + 4, 2, "layer 0: geometry ConvSpec.*stride=2"),
                              (7 + 5, 0, "layer 0: geometry ConvSpec.*padding=0"),
                              (start + 4, 1, "layer 1: geometry ConvSpec.*stride=1"),
                              (start + 5, 2, "layer 1: geometry ConvSpec.*padding=2")]:
        corrupt = bytearray(data)
        corrupt[pos] = value
        with pytest.raises(CorruptionError, match=f"^{match}.* != network's "):
            decode(bytes(corrupt))


def test_decode_reports_a_layer_count_before_any_geometry():
    # layer 0's header (padding 0) disagrees with this network's first conv
    # too, but the count is reported first
    head, meta = _split_metadata(encode(_hand_model(_hand_layer([1] * 9))))
    network = "input 1 6 6\nconv 1 pad=1\nconv 1 tap\n"
    with pytest.raises(CorruptionError, match="^model has 1 quantized layers, network has 2$"):
        decode(_with_metadata(head, {**meta, "network": network}))


def _split_metadata(data):
    """(bytes before the metadata length, parsed metadata block) of a QCM2 stream."""
    start = data.index(b'{"dense"')  # the canonical JSON trailer, after its u32 length
    return data[:start - 4], json.loads(data[start:])


def _with_metadata(head, meta):
    raw = json.dumps(meta).encode()
    return head + struct.pack("<I", len(raw)) + raw


def test_decode_rejects_reshaped_dense_head():
    # a 3x8 head stored as 6x4 holds the same number of weights; decode
    # must reject it rather than leave the mismatch for inference to find
    rng = np.random.default_rng(28)
    net = parse_network("input 1 4 4\nconv 2 tap\nflatten\ndense 3\n")
    compressed = build_compressed_model(net, init_float_model(net, rng), [1])
    data = encode(compressed)
    assert decode(data) == compressed
    head, meta = _split_metadata(data)
    meta["dense"][0].update(shape=[6, 4],
                            b=base64.b64encode(np.zeros(6, np.float32).tobytes()).decode())
    with pytest.raises(CorruptionError, match="dense head shapes"):
        decode(_with_metadata(head, meta))


def test_encode_validates_layers():
    # a layer checks itself whenever it is built, so a mask out of range for
    # its width is refused before encode could be handed it
    with pytest.raises(ValueError, match=r"^masks exceed \+-1 for 1-bit masks"):
        _hand_layer([2] * 9)


def test_encode_refuses_non_integer_layer_arrays():
    # float masks used to pass the layer's checks and be truncated: 2-bit masks of
    # 0.9 * (+-1) encoded as all zeros. Now the layer is refused when built.
    layer = _hand_layer([1, -1] * 4 + [1], mask_bits=2)
    for field, value in [("masks", np.full((1, 1, 9), 0.9)),
                         ("scalars", np.array([[200.0]])),
                         ("biases", np.array([1.0]))]:
        with pytest.raises(ValueError, match=f"^{field} must hold integers"):
            dataclasses.replace(layer, **{field: value})


def test_layer_checks_itself_when_built():
    # a layer checks itself whenever it is built, dataclasses.replace included,
    # so encode is never handed an invalid one. An int8 mask of -128 passed
    # as |-128| wraps to -128.
    layer = _hand_layer([1, -1] * 4 + [1], mask_bits=2)
    for changes in [dict(masks=np.full((1, 1, 9), -2, np.int8)),
                    dict(masks=np.full((1, 1, 9), -128, np.int8), mask_bits=5),
                    dict(scalars=np.array([[256]], np.int16)),
                    dict(biases=np.array([2048], np.int16)),
                    dict(mask_bits=256),
                    dict(shift=128),
                    # whole numbers only: these were held as given, and
                    # encode failed on the shift
                    dict(mask_bits=2.5),
                    dict(shift=2.5),
                    # out and in come from scalars, which must be 2-D
                    dict(scalars=np.array([200], np.uint8)),
                    dict(masks=np.ones((1, 2, 9), np.int8)),
                    dict(biases=np.ones(2, np.int16))]:
        field = next(iter(changes))
        with pytest.raises(ValueError, match=f"^{field} "):
            dataclasses.replace(layer, **changes)
    whole = dataclasses.replace(layer, mask_bits=2.0, shift=np.int64(-3))
    assert type(whole.mask_bits) is type(whole.shift) is int
    assert whole == dataclasses.replace(layer, shift=-3)


def test_compressed_model_checks_itself_against_its_network():
    net = parse_network("input 1 4 4\nconv 2 tap\nflatten\ndense 3\n")
    built = build_compressed_model(net, init_float_model(net, np.random.default_rng(29)), [1])
    layer, ((w, b),) = built.layers[0], built.dense
    with pytest.raises(ValueError, match="^dense head shapes"):
        CompressedModel(net, [layer])
    for match, changes in [
        ("^model has 2 quantized layers, network has 1$", dict(layers=[layer, layer])),
        ("^model has 0 quantized layers", dict(layers=[])),
        (r"^layer 0: geometry \(out, in\) \(1, 1\) != network's ConvSpec\(out_channels=2, ",
         dict(layers=[_hand_layer([1] * 9)])),
        ("^layer 0: geometry", dict(network=parse_network("input 2 4 4\nconv 2\n"))),
        ("^dense head shapes", dict(dense=[])),
        ("^dense head shapes", dict(dense=[(w.reshape(6, 4), np.zeros(6, np.float32))])),
        ("^dense head shapes", dict(dense=[(w, b[:2])])),
    ]:
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(built, **changes)
    # stride and padding are the network's: a layer fits any conv of its
    # (out, in), and the container's headers carry the network's geometry
    model = _hand_model(_hand_layer([1] * 9))
    padded = dataclasses.replace(model, network=parse_network("input 1 4 4\nconv 1 pad=1\n"))
    assert struct.unpack_from("<HHBB", encode(padded), 7) == (1, 1, 1, 1)
    assert decode(encode(padded)) == padded


def test_compressed_model_checks_its_policy_and_checksum_type():
    model = _hand_model(_hand_layer([1] * 9))
    with pytest.raises(ValueError, match="^unknown policy 'bogus'"):
        dataclasses.replace(model, policy="bogus")
    with pytest.raises(ValueError, match="^source checksum 5 is not a string$"):
        dataclasses.replace(model, source_checksum=5)
    # decode reports the refused policy as corruption, still naming it
    head, meta = _split_metadata(encode(model))
    for policy in ("bogus", 5):
        with pytest.raises(CorruptionError, match=f"^unknown policy {policy!r}"):
            decode(_with_metadata(head, {**meta, "policy": policy}))


def test_build_compressed_model_checks_profile_length():
    rng = np.random.default_rng(24)
    net = parse_network("input 1 6 6\nconv 2 tap\nconv 3\n")
    model = init_float_model(net, rng)
    with pytest.raises(ValueError):
        build_compressed_model(net, model, [3])
    with pytest.raises(ValueError):
        build_compressed_model(net, model, [3, None])


def test_non_integral_profiles_are_refused():
    # int() truncated them: [2.5] built a 2-bit layer and [1.9] a 1-bit one
    net = parse_network("input 1 6 6\nconv 2 tap\n")
    model = init_float_model(net, np.random.default_rng(25))
    for profile in ([2.5], [1.9]):
        for call in (lambda: build_compressed_model(net, model, profile),
                     lambda: model_sizes(net, profile), lambda: model_ratio(net, profile)):
            with pytest.raises(ValueError, match=rf"^mask_bits must be an integer in \(1, 5\), "
                                                 rf"got {profile[0]}$"):
                call()
    assert build_compressed_model(net, model, [2.0]) == build_compressed_model(net, model, [2])


def test_dense_head_is_held_as_float32():
    # a float64 head used to be kept as given, so the container was not
    # equal to its own round trip and its logits moved across a save and load
    net = parse_network("input 2 8 8\nconv 3 pad=1 tap\npool\nflatten\ndense 2\n")
    model = init_float_model(net, np.random.default_rng(26))
    built = build_compressed_model(net, model, [3])
    wide = dataclasses.replace(built, dense=model.dense)
    assert model.dense[0][0].dtype == np.float64
    again = decode(encode(wide))
    assert again == wide == built
    image = np.random.default_rng(27).random(net.input_shape)
    logits = [forward(net, m, image, "dequantized")[1] for m in (wide, again)]
    assert logits[0].tobytes() == logits[1].tobytes()
    # a float32 head is held as it is, read-only
    held = dataclasses.replace(built, dense=again.dense).dense[0]
    assert held[0] is again.dense[0][0] and held[1] is again.dense[0][1]
    assert not held[0].flags.writeable


def test_build_compressed_model_records_source_checksum():
    from qnip.network import model_checksum

    rng = np.random.default_rng(25)
    net = parse_network("input 1 6 6\nconv 2 tap\n")
    model = init_float_model(net, rng)
    compressed = build_compressed_model(net, model, [4])
    assert compressed.source_checksum == model_checksum(model)
    assert decode(encode(compressed)).source_checksum == model_checksum(model)


def test_build_compressed_model_hashes_on_a_worker_it_joins(monkeypatch):
    from qnip import codec
    from qnip.network import FloatModel, model_checksum

    net = load_network(qnip.config_path("toynet"))
    model = init_float_model(net, np.random.default_rng(32))
    threads = threading.active_count()
    built = build_compressed_model(net, model, [1, 2, 3])
    assert built.source_checksum == model_checksum(model)
    assert threading.active_count() == threads

    # an error on either side propagates, and no worker outlives the call
    (w, b), *rest = model.conv
    w = w.copy()
    w[0, 0, 1, 1] = np.inf
    with pytest.raises(ValueError, match="weights contains non-finite values"):
        build_compressed_model(net, FloatModel([(w, b), *rest], model.dense), [1, 2, 3])
    assert threading.active_count() == threads

    def failing_checksum(_):
        raise RuntimeError("checksum failed")

    monkeypatch.setattr(codec, "model_checksum", failing_checksum)
    with pytest.raises(RuntimeError, match="checksum failed"):
        build_compressed_model(net, model, [1, 2, 3])
    assert threading.active_count() == threads


# sha256 of encode(...) at the VGG16 golden's weights for the shift scope and
# policy cases the test above leaves out; toynet covers 1-bit and multi-bit
SCOPE_GOLDEN = {
    ("vgg16", "3x7,1x6", "global", "xnor-abs-mean"):
        "bd6be1b9cb4a4827ef28b1c5600177974b1c9fbadc05362e769e79dabc145897",
    ("vgg16", "3x7,1x6", "global", "literal-mean"):
        "f3f8a907779497033a8262fd3bcd817d9b9a596b86a1a9ec2e11c1cb94596493",
    ("toynet", "1,2,3", "layer", "xnor-abs-mean"):
        "34dacb02666388b680d5a35c39148dbe8a47b481c0e071e83a7dfd8a1319d12c",
    ("toynet", "1,2,3", "layer", "literal-mean"):
        "6516c29c85772db6ffb7f83afebbff401b7a191e76b257c64a684063f4ed73a2",
    ("toynet", "1,2,3", "global", "xnor-abs-mean"):
        "471aca2bb2b530adbda70a6de59e2cdabd8df6f22167786430f1697bee9acfaf",
    ("toynet", "1,2,3", "global", "literal-mean"):
        "233d4d1a9233cf54b286bf8c991724200dd5b4746b78e93f8dc88a80e5917203",
}


def test_encode_golden_bytes_each_shift_scope():
    for (name, profile, scope, policy), digest in SCOPE_GOLDEN.items():
        net = load_network(qnip.config_path(name))
        model = init_float_model(net, np.random.default_rng(1905))
        compressed = build_compressed_model(net, model, parse_profile(profile), policy, scope)
        assert hashlib.sha256(encode(compressed)).hexdigest() == digest, (name, scope, policy)


def test_global_shift_scope_shares_shift():
    rng = np.random.default_rng(26)
    net = parse_network("input 1 8 8\nconv 2 pad=1\nconv 2 tap\n")
    model = init_float_model(net, rng)
    model.conv[0] = (model.conv[0][0] * 8.0, model.conv[0][1])  # inflate one layer
    per_layer = build_compressed_model(net, model, [3, 3], shift_scope="layer")
    global_scope = build_compressed_model(net, model, [3, 3], shift_scope="global")
    assert len({layer.shift for layer in global_scope.layers}) == 1
    assert per_layer.layers[0].shift != per_layer.layers[1].shift


def test_each_quantized_layer_is_fit_once_per_build_in_either_scope(monkeypatch):
    net = load_network(qnip.config_path("toynet"))
    model = init_float_model(net, np.random.default_rng(1905))
    calls = []
    fit = qnip.quantize.layer_alphas_masks

    def counted(weights, mask_bits, policy=qnip.quantize.DEFAULT_POLICY):
        calls.append(np.shape(weights))
        return fit(weights, mask_bits, policy)

    monkeypatch.setattr(qnip.quantize, "layer_alphas_masks", counted)
    for scope in ("layer", "global"):
        calls.clear()
        build_compressed_model(net, model, [1, 2, 3], shift_scope=scope)
        assert calls == [w.shape for w, _ in model.conv], scope
        calls.clear()
        layers = quantize_conv_layers(net, model.conv, [2, None, 1], shift_scope=scope)
        assert layers[1] is None
        assert calls == [model.conv[0][0].shape, model.conv[2][0].shape], scope


def test_fuzzed_round_trips_small():
    # the >=500-model sweep lives in the acceptance suite; keep a quick
    # randomized layer here for day-to-day runs
    rng = np.random.default_rng(27)
    for _ in range(25):
        out_ch = int(rng.integers(1, 5))
        in_ch = int(rng.integers(1, 5))
        h = int(rng.integers(3, 7)) + 2
        net = parse_network(f"input {in_ch} {h} {h}\nconv {out_ch} tap\n")
        model = init_float_model(net, rng)
        profile = [int(rng.integers(1, 6))]
        compressed = build_compressed_model(net, model, profile)
        assert decode(encode(compressed)) == compressed


def test_load_model_errors_name_the_path(tmp_path):
    data = encode(_hand_model(_hand_layer([1] * 9)))
    path = tmp_path / "cut.qcm"
    path.write_bytes(data[:10])
    with pytest.raises(TruncationError, match=(
            f"^{re.escape(str(path))}: truncated at byte 7 reading layer 0 header$")):
        load_model(path)
    path.write_bytes(data + b"\x00\x00")
    with pytest.raises(CorruptionError, match="2 trailing bytes$"):
        load_model(path)


def test_decode_rejects_mistyped_metadata():
    # valid JSON of the wrong shape; a non-string network used to escape
    # as AttributeError, past the CLI's data-error handler
    head, meta = _split_metadata(encode(_hand_model(_hand_layer([1] * 9))))
    for key, value in [("network", 5), ("network", {"a": 1}), ("dense", [5]), ("dense", 5)]:
        with pytest.raises(CorruptionError, match="bad metadata block"):
            decode(_with_metadata(head, {**meta, key: value}))
    # the container type refuses a non-string source itself
    with pytest.raises(CorruptionError, match="source checksum 5 is not a string"):
        decode(_with_metadata(head, {**meta, "source": 5}))
