"""The shared binary reader and writer and the error contracts of all four formats.

The read sweep cuts each small file at every length and flips one bit in
every byte: the loaders may accept a flipped file, but they may raise
nothing except ValueError (which includes CodecError), and every cut must
be a TruncationError naming the byte where the cut field starts.

The write sweep puts one value one past the range of each fixed-width
header field: every save must raise an EncodeError naming the field and
leave no file behind.
"""

import dataclasses
import struct

import numpy as np
import pytest

import qnip
from qnip.binfile import (CodecError, CorruptionError, EncodeError, FormatError, Reader,
                          TruncationError, pack)
from qnip.cli import EXIT_DATA, dispatch
from qnip.codec import build_compressed_model, decode, encode, save_model
from qnip.descriptor import Descriptor, convert_descriptor, load_descriptors, save_descriptors
from qnip.network import (FloatModel, init_float_model, load_float_model, parse_network,
                          save_float_model)
from qnip.retrieval import read_image, write_image

NET_TEXT = "input 1 4 4\nconv 2 tap\nflatten\ndense 2\n"


def test_reader_fields_and_offsets():
    data = b"MAGI" + struct.pack("<HB", 513, 7) + np.arange(3, dtype="<f4").tobytes() + b"id"
    rd = Reader(data, b"MAGI", "a test file")
    assert rd.unpack("<HB", "header") == (513, 7)
    values = rd.array(np.float32, 3, "values")
    assert values.tolist() == [0.0, 1.0, 2.0]
    assert not values.flags.writeable  # a view of the buffer, not a copy
    assert rd.take(2, "id") == b"id"
    rd.finish()


def test_reader_error_contract():
    with pytest.raises(FormatError, match="^f.bin: not a test file"):
        Reader(b"NOPE", b"MAGI", "a test file", "f.bin")
    with pytest.raises(TruncationError, match="^truncated at byte 0 reading magic$"):
        Reader(b"MA", b"MAGI", "a test file")
    rd = Reader(b"MAGI\x01\x02\x03", b"MAGI", "a test file", "f.bin")
    for read in (lambda: rd.unpack("<I", "count"), lambda: rd.take(4, "count"),
                 lambda: rd.array(np.uint16, 2, "count"),
                 lambda: rd.array(np.uint8, 2 ** 80, "count")):
        with pytest.raises(TruncationError, match="^f.bin: truncated at byte 4 reading count$") as err:
            read()
        assert err.value.offset == 4
    with pytest.raises(CorruptionError, match="^f.bin: 3 trailing bytes$"):
        rd.finish()
    # one family, re-exported where it always lived, and all ValueErrors
    assert qnip.CodecError is qnip.codec.CodecError is CodecError
    assert qnip.TruncationError is TruncationError and qnip.CorruptionError is CorruptionError
    assert issubclass(CodecError, ValueError)


def _files(tmp_path):
    """One small, valid file of each format: {name: (loader, bytes)}."""
    net = parse_network(NET_TEXT)
    model = init_float_model(net, np.random.default_rng(5))
    qfw = tmp_path / "src.qfw"
    save_float_model(qfw, model)
    real = {f"{k:04d}": Descriptor("real", v / np.linalg.norm(v))
            for k, v in enumerate(np.random.default_rng(6).random((2, 11)))}
    img = tmp_path / "src.img"
    write_image(img, np.random.default_rng(7).random((1, 2, 3)))
    files = {"QCM2": (decode, encode(build_compressed_model(net, model, [2]))),
             "QFW1": (load_float_model, qfw.read_bytes()),
             "IMG1": (read_image, img.read_bytes())}
    for precision in ("real", "byte", "bit"):
        path = tmp_path / f"src-{precision}.qds"
        save_descriptors(path, {k: convert_descriptor(d, precision) for k, d in real.items()})
        files[f"QDS1-{precision}"] = (load_descriptors, path.read_bytes())
    return files


def _load(loader, data, path):
    if loader is decode:
        return decode(data)
    path.write_bytes(data)
    return loader(path)


def test_decoder_sweep_raises_only_value_errors(tmp_path):
    path = tmp_path / "case.bin"
    for name, (loader, data) in _files(tmp_path).items():
        prefix = "" if loader is decode else f"{path}: "
        _load(loader, data, path)  # the untouched file loads
        for cut in range(len(data)):
            with pytest.raises(TruncationError) as err:
                _load(loader, data[:cut], path)
            assert err.value.offset <= cut, (name, cut)
            assert str(err.value).startswith(
                f"{prefix}truncated at byte {err.value.offset} reading "), (name, cut)
        with pytest.raises(CorruptionError, match="1 trailing bytes"):
            _load(loader, data + b"\x00", path)
        rejected = 0
        for pos in range(len(data)):
            flipped = bytearray(data)
            flipped[pos] ^= 1 << pos % 8  # every byte, and every bit position
            try:
                _load(loader, bytes(flipped), path)
            except ValueError:
                rejected += 1
        assert rejected >= 4, name  # at least the magic


def test_cli_exits_2_on_cut_and_flipped_files(tmp_path, capsys):
    net = tmp_path / "net.cfg"
    net.write_text(NET_TEXT)
    files = _files(tmp_path)
    qfw = tmp_path / "src.qfw"
    out = tmp_path / "out.bin"
    commands = {
        "QCM2": lambda p: ["inspect", str(p)],
        "QFW1": lambda p: ["quantize", "--net", str(net), "--weights", str(p),
                           "--profile", "2", "--out", str(out)],
        "IMG1": lambda p: ["infer", "--net", str(net), "--weights", str(qfw), "--image", str(p)],
    }
    for name, (loader, data) in files.items():
        argv = commands.get(name, lambda p: ["index", "--desc", str(p), "--out", str(out)])
        cases = [data[:cut] for cut in range(0, len(data), max(1, len(data) // 7))]
        cases += [data + b"\x00", data[:4] + bytes([data[4] ^ 0xFF]) + data[5:], b"X" + data[1:]]
        for k, case in enumerate(cases):
            path = tmp_path / f"case-{name}-{k}.bin"
            path.write_bytes(case)
            with pytest.raises(ValueError):  # only sample what the library rejects
                _load(loader, case, tmp_path / "probe.bin")
            assert dispatch(argv(path)) == EXIT_DATA, (name, k)
            assert not out.exists()
            err = capsys.readouterr().err
            assert str(path) in err or loader is decode, (name, k, err)


def test_pack_error_contract():
    assert pack("<HB", "header", 513, 7) == struct.pack("<HB", 513, 7)
    with pytest.raises(EncodeError, match=r"^header \(a, b\) = \(65536, 7\) does not fit '<HB': "):
        pack("<HB", "header (a, b)", 65536, 7)
    assert qnip.EncodeError is qnip.codec.EncodeError is EncodeError
    assert issubclass(EncodeError, CodecError)


def _compressed(net_text, **layer_changes):
    net = parse_network(net_text)
    model = build_compressed_model(net, init_float_model(net, np.random.default_rng(0)),
                                   [1] * len(net.conv_layer_shapes()))
    return dataclasses.replace(
        model, layers=[dataclasses.replace(layer, **layer_changes) for layer in model.layers])


def _too_large():
    """(field named in the error, save, value): one value one past the range of
    each fixed-width header field, and a QDS1 byte scale and bit threshold
    beyond the float32 range. Unreachable and so left out: the QCM2
    metadata length (u32), the QFW1 rank (u8; NumPy caps rank at 64) and the
    QDS1 record count (u32)."""
    one = _compressed("input 1 3 3\nconv 1 pad=1 tap\n")
    many = dataclasses.replace(
        one, network=parse_network("input 1 3 3\n" + "conv 1 pad=1\n" * 65536),
        layers=one.layers * 65536)
    pair = (np.zeros((1, 1, 3, 3)), np.zeros(1))
    huge = np.broadcast_to(0.0, (2 ** 32,))  # a view: no memory behind it
    return [
        ("header (version, layer count)", save_model, many),
        ("layer 0 header", save_model, _compressed("input 1 3 3\nconv 65536\n")),
        ("layer 0 header", save_model, _compressed("input 65536 3 3\nconv 1\n")),
        ("layer 0 header", save_model, _compressed("input 1 8 8\nconv 1 stride=256\n")),
        ("layer 0 header", save_model, _compressed("input 1 8 8\nconv 1 pad=256\n")),
        ("mask_bits", save_model, _compressed("input 1 3 3\nconv 1\n", mask_bits=256)),
        ("shift 128", save_model, _compressed("input 1 3 3\nconv 1\n", shift=128)),
        ("header (conv count, dense count)", save_float_model, FloatModel(conv=[pair] * 65536)),
        ("header (conv count, dense count)", save_float_model, FloatModel(dense=[pair] * 65536)),
        ("array 0 rank and shape", save_float_model, FloatModel(conv=[(huge, np.zeros(1))])),
        ("header (dimension, record count)", save_descriptors,
         {"a": Descriptor("real", np.zeros(65536))}),
        ("id length 0", save_descriptors, {"": Descriptor("real", np.zeros(2))}),
        ("id length 65536", save_descriptors, {"a" * 65536: Descriptor("real", np.zeros(2))}),
        ("record 'a' metadata", save_descriptors,
         {"a": Descriptor("byte", np.zeros(4, np.uint8), scale=1e39)}),
        ("record 'b' metadata", save_descriptors,
         {"b": Descriptor("bit", np.zeros(4, np.uint8), threshold=-1e39)}),
        ("image dimensions", write_image, np.zeros((65536, 1, 1))),
        ("image dimensions", write_image, np.zeros((1, 65536, 1))),
        ("image dimensions", write_image, np.zeros((1, 1, 65536))),
    ]


def test_writer_sweep_raises_encode_errors_and_leaves_no_file(tmp_path):
    path = tmp_path / "out.bin"
    for field, save, value in _too_large():
        with pytest.raises(EncodeError) as err:
            save(path, value)
        assert isinstance(err.value, CodecError) and isinstance(err.value, ValueError)
        assert field in str(err.value), (field, str(err.value))
        assert not path.exists(), field
