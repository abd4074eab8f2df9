"""Pooled descriptors: region grids, the pooling chain, precisions, file IO."""

import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qnip
from qnip.binfile import CorruptionError, EncodeError, Reader, TruncationError
from qnip.codec import build_compressed_model
from qnip.descriptor import (
    FULL_FRAME,
    Descriptor,
    DescriptorSet,
    binarize_descriptor,
    convert_descriptor,
    dequantize_descriptor,
    extract_nip,
    extract_rnip,
    load_descriptors,
    nip_pool,
    orbit_inputs,
    quantize_descriptor,
    roi_grid,
    save_descriptors,
    sized_input,
)
from qnip.engine import calibrate_activation_exponents
from qnip.network import init_float_model, load_network, parse_network
from qnip.ops import ShapeError, crop, resize_bilinear, rotate90
from qnip.quantize import round_half_away


def test_roi_grid_counts():
    assert len(roi_grid([1])) == 1
    assert len(roi_grid([1, 2])) == 5
    assert len(roi_grid([1, 2, 3])) == 14
    assert len(roi_grid([3])) == 9
    assert roi_grid([1]) == [FULL_FRAME]


def test_roi_grid_level2_rects():
    rects = roi_grid([2])
    assert rects == [
        (0.0, 0.0, 0.5, 0.5), (0.5, 0.0, 1.0, 0.5),
        (0.0, 0.5, 0.5, 1.0), (0.5, 0.5, 1.0, 1.0),
    ]


def test_roi_grid_rejects_bad_levels():
    with pytest.raises(ValueError):
        roi_grid([])
    with pytest.raises(ValueError):
        roi_grid([0])


def test_nip_pool_single_region_hand_values():
    fmap = np.array([[[4.0]]])
    desc = nip_pool([[fmap]])
    assert desc.precision == "real"
    assert np.allclose(desc.values, [1.0])

    two_channel = np.array([[[4.0]], [[9.0]]])
    desc = nip_pool([[two_channel]])
    assert np.allclose(desc.values, np.array([4.0, 9.0]) / np.sqrt(16.0 + 81.0))


def test_nip_pool_sqrt_mean_square_semantics():
    # (mean sqrt)^2 of [1, 9] is 4, not the plain mean 5
    fmap = np.array([[[1.0, 9.0]]])
    desc = nip_pool([[fmap]])
    assert np.allclose(desc.values, [1.0])
    two = np.array([[[1.0, 9.0]], [[4.0, 4.0]]])
    desc = nip_pool([[two]])
    assert np.allclose(desc.values, np.array([4.0, 4.0]) / np.sqrt(32.0))


def test_nip_pool_max_over_rotations():
    a = np.array([[[4.0]], [[1.0]]])
    b = np.array([[[1.0]], [[9.0]]])
    desc = nip_pool([[a], [b]])
    assert np.allclose(desc.values, np.array([4.0, 9.0]) / np.sqrt(97.0))
    flipped = nip_pool([[b], [a]])
    assert np.array_equal(desc.values, flipped.values)


def test_nip_pool_mean_over_regions():
    fmap = np.array([[[1.0, 9.0]]])
    left = (0.0, 0.0, 0.5, 1.0)
    right = (0.5, 0.0, 1.0, 1.0)
    desc = nip_pool([[fmap]], [left, right])
    # region pools are 1 and 9; averaged to 5, then normalized to unit length
    assert np.allclose(desc.values, [1.0])
    two = np.array([[[1.0, 9.0]], [[4.0, 16.0]]])
    desc = nip_pool([[two]], [left, right])
    assert np.allclose(desc.values, np.array([5.0, 10.0]) / np.sqrt(125.0))


def test_nip_pool_validation():
    with pytest.raises(ValueError):
        nip_pool([])
    with pytest.raises(ValueError):
        nip_pool([[]])
    with pytest.raises(ValueError):
        nip_pool([[np.array([[[-1.0]]])]])
    with pytest.raises(Exception):
        nip_pool([[np.array([[[1.0]]])], [np.array([[[1.0]], [[2.0]]])]])


def test_nip_pool_zero_features_stay_zero():
    desc = nip_pool([[np.zeros((3, 2, 2))]])
    assert np.array_equal(desc.values, np.zeros(3))


def _nip_pool_per_map(taps, rects):
    """The pooling chain as one loop over the maps of each rotation and
    the rects of each map, one region at a time."""
    per_rotation = []
    for maps in taps:
        pooled = []
        for fmap in maps:
            roots = np.sqrt(np.asarray(fmap, dtype=np.float64))
            pooled.extend(crop(roots, rect).mean(axis=(1, 2)) ** 2 for rect in rects)
        per_rotation.append(np.mean(pooled, axis=0))
    d = np.max(per_rotation, axis=0)
    norm = float(np.sqrt(np.sum(d * d)))
    return d / norm if norm > 0.0 else d


def test_nip_pool_array_equals_per_map_loop():
    rng = np.random.default_rng(48)
    cases = 0
    while cases < 40:
        rotations, maps = int(rng.choice([1, 4])), int(rng.choice([1, 5, 14, 56]))
        channels, h, w = (int(rng.choice(v)) for v in ([7, 96, 512], [5, 8, 9, 14], [5, 8, 9, 14]))
        if rotations * maps * channels * h * w > 2_000_000:  # keep each case small
            continue
        levels = [(1,), (1, 2), (1, 2, 3), (3,)][cases % 4]
        taps = np.maximum(rng.normal(size=(rotations, maps, channels, h, w)), 0.0) ** 3
        rects = roi_grid(levels)
        want = _nip_pool_per_map(taps, rects)
        assert np.array_equal(nip_pool(taps, rects).values, want), taps.shape
        assert np.array_equal(nip_pool([list(m) for m in taps], rects).values, want)
        cases += 1


@pytest.mark.parametrize("size", [32, 48])
def test_orbit_inputs_shapes_and_row_order(size):
    net, _ = _toy_setup()
    image = np.random.default_rng(49).uniform(0.0, 1.0, (3, size, size))
    nip = orbit_inputs(net, image, "nip")
    assert nip.shape == (4, 1, 3, 32, 32) and nip.dtype == np.float64
    for r in range(4):
        assert np.array_equal(nip[r, 0], rotate90(sized_input(net, image), r))
    for levels, rotations, shape in (((1, 2), True, (4, 5)), ((1, 2, 3), True, (4, 14)),
                                     ((1, 2), False, (1, 5))):
        rnip = orbit_inputs(net, image, "rnip", levels, rotations)
        assert rnip.shape == shape + (3, 32, 32)
        for r in range(shape[0]):
            for j, rect in enumerate(roi_grid(levels)):
                want = resize_bilinear(crop(rotate90(image, r), rect), 32, 32)
                assert np.array_equal(rnip[r, j], want), (levels, r, j)
    with pytest.raises(ShapeError, match="C,H,W"):
        orbit_inputs(net, image[0], "rnip")
    with pytest.raises(ShapeError, match="channels"):
        orbit_inputs(net, image[:2], "rnip")


def _toy_setup(seed=0):
    net = load_network(qnip.config_path("toynet"))
    model = init_float_model(net, np.random.default_rng(seed))
    return net, model


def test_extract_nip_rotation_invariance():
    net, model = _toy_setup()
    rng = np.random.default_rng(30)
    image = rng.uniform(0.0, 1.0, (3, 32, 32))
    base = extract_nip(net, model, image)
    assert base.dim == 96
    assert abs(float(np.linalg.norm(base.values)) - 1.0) <= 1e-12
    for k in (1, 2, 3):
        rotated = extract_nip(net, model, rotate90(image, k))
        assert np.array_equal(base.values, rotated.values)


def test_extract_nip_integer_calibrates_once_over_the_orbit():
    net, model = _toy_setup(seed=2)
    compressed = build_compressed_model(net, model, [2, 2, 2])
    rng = np.random.default_rng(40)
    image = rng.uniform(0.0, 1.0, (3, 32, 32)) * np.linspace(0.2, 1.0, 32)[None, :, None]
    orbit = [rotate90(image, k) for k in range(4)]
    per_rotation = {tuple(calibrate_activation_exponents(net, compressed, [x])) for x in orbit}
    assert len(per_rotation) > 1  # each rotation alone would pick its own grid
    shared = calibrate_activation_exponents(net, compressed, orbit)
    base = extract_nip(net, compressed, image, "integer")
    assert base == extract_nip(net, compressed, image, "integer", act_exponents=shared)
    for k in (1, 2, 3):
        assert extract_nip(net, compressed, rotate90(image, k), "integer") == base


def test_extract_rnip_level1_equals_nip_level1():
    net, model = _toy_setup(seed=1)
    rng = np.random.default_rng(31)
    image = rng.uniform(0.0, 1.0, (3, 32, 32))
    nip = extract_nip(net, model, image, roi_levels=[1])
    rnip = extract_rnip(net, model, image, crop_levels=[1])
    assert np.array_equal(nip.values, rnip.values)


def test_extract_rnip_rotation_invariance():
    net, model = _toy_setup(seed=2)
    rng = np.random.default_rng(32)
    image = rng.uniform(0.0, 1.0, (3, 32, 32))
    base = extract_rnip(net, model, image, crop_levels=[1, 2])
    for k in (1, 2, 3):
        rotated = extract_rnip(net, model, rotate90(image, k), crop_levels=[1, 2])
        assert np.array_equal(base.values, rotated.values)


def test_extract_rnip_without_rotations_is_sensitive_to_them():
    net, model = _toy_setup(seed=3)
    rng = np.random.default_rng(33)
    image = rng.uniform(0.0, 1.0, (3, 32, 32))
    plain = extract_rnip(net, model, image, crop_levels=[1, 2], rotations=False)
    rotated = extract_rnip(net, model, rotate90(image, 1), crop_levels=[1, 2],
                           rotations=False)
    assert not np.array_equal(plain.values, rotated.values)


def test_sized_input_resizes_only_when_needed():
    net, _ = _toy_setup()
    image = np.random.default_rng(34).uniform(0.0, 1.0, (3, 48, 48))
    resized = sized_input(net, image)
    assert resized.shape == (3, 32, 32)
    native = np.random.default_rng(35).uniform(0.0, 1.0, (3, 32, 32))
    assert sized_input(net, native) is native


def test_quantize_descriptor_hand_values():
    desc = Descriptor("real", np.array([0.0, 0.4, 0.8]))
    q = quantize_descriptor(desc)
    assert q.precision == "byte"
    assert q.scale == 0.8
    assert np.array_equal(q.values, [0, 128, 255])
    back = dequantize_descriptor(q)
    assert np.max(np.abs(back - desc.values)) <= 0.8 / 255.0 / 2.0 + 1e-12


def test_quantize_zero_descriptor():
    q = quantize_descriptor(Descriptor("real", np.zeros(4)))
    assert np.array_equal(q.values, np.zeros(4))
    assert np.array_equal(dequantize_descriptor(q), np.zeros(4))


def test_binarize_descriptor_hand_values():
    desc = Descriptor("real", np.array([1.0, 2.0, 3.0, 4.0]))
    b = binarize_descriptor(desc)
    assert b.precision == "bit"
    assert b.threshold == 2.5
    assert np.array_equal(b.values, [0, 0, 1, 1])


def _old_quantize(values):
    """quantize_descriptor's arithmetic as round_half_away over the scaled entries."""
    scale = float(values.max(initial=0.0))
    if scale == 0.0:
        return np.zeros(values.shape[0], np.uint8), 0.0
    return round_half_away(values * (255.0 / scale)).astype(np.uint8), scale


def _old_binarize(values):
    threshold = float(values.mean())
    return (values > threshold).astype(np.uint8), threshold


def test_converters_keep_their_reference_bits():
    rows = np.random.default_rng(51).gamma(0.6, size=(10_000, 96))
    rows[1] = 0.0
    rows[2, ::3] = -0.0
    rows[3] = np.array([1.0, 0.5, 0.25, 3.0]).repeat(24)  # its max maps exactly to 255
    rows[4, :] = -0.0
    for values in rows:
        for convert, reference in ((quantize_descriptor, _old_quantize),
                                   (binarize_descriptor, _old_binarize)):
            got = convert(Descriptor("real", values))
            codes, meta = reference(values)
            assert got.values.dtype == np.uint8 and got.values.tobytes() == codes.tobytes()
            assert repr(got.scale if got.precision == "byte" else got.threshold) == repr(meta)
    assert quantize_descriptor(Descriptor("real", rows[3])).values.max() == 255


def test_convert_descriptor_paths():
    desc = Descriptor("real", np.array([0.1, 0.2, 0.7]))
    assert convert_descriptor(desc, "real") is desc
    assert convert_descriptor(desc, "byte").precision == "byte"
    assert convert_descriptor(desc, "bit").precision == "bit"
    with pytest.raises(ValueError):
        convert_descriptor(desc, "half")
    with pytest.raises(ValueError):
        convert_descriptor(convert_descriptor(desc, "bit"), "byte")


def test_descriptor_file_round_trip(tmp_path):
    rng = np.random.default_rng(36)
    real = {f"img{i}": Descriptor("real", rng.uniform(0, 1, 96)) for i in range(4)}
    for precision, table in [
        ("real", real),
        ("byte", {k: quantize_descriptor(d) for k, d in real.items()}),
        ("bit", {k: binarize_descriptor(d) for k, d in real.items()}),
    ]:
        path = tmp_path / f"{precision}.qds"
        save_descriptors(path, table)
        loaded = load_descriptors(path)
        assert sorted(loaded) == sorted(table)
        for key, desc in table.items():
            got = loaded[key]
            assert got.precision == precision
            if precision == "real":
                assert np.allclose(got.values, desc.values, atol=1e-7)
            else:
                assert np.array_equal(got.values, desc.values)
            if desc.scale is not None:
                assert abs(got.scale - desc.scale) <= 1e-6 * abs(desc.scale)


def test_descriptor_file_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(37)
    table = {f"i{i}": Descriptor("real", rng.uniform(0, 1, 8)) for i in range(3)}
    save_descriptors(tmp_path / "a.qds", table)
    save_descriptors(tmp_path / "b.qds", dict(reversed(list(table.items()))))
    assert (tmp_path / "a.qds").read_bytes() == (tmp_path / "b.qds").read_bytes()


def test_save_descriptors_rejects_mixed_precision(tmp_path):
    real = Descriptor("real", np.array([0.5, 0.5]))
    mixed = {"a": real, "b": binarize_descriptor(real)}
    with pytest.raises(ValueError):
        save_descriptors(tmp_path / "bad.qds", mixed)


def test_save_descriptors_rejects_mixed_dims(tmp_path):
    mixed = {"a": Descriptor("real", np.zeros(4)), "b": Descriptor("real", np.zeros(5))}
    with pytest.raises(ValueError):
        save_descriptors(tmp_path / "bad.qds", mixed)


def test_save_descriptors_refuses_what_load_refuses(tmp_path):
    path = tmp_path / "bad.qds"
    for table in ({"a": Descriptor("real", np.array([0.5, np.nan]))},
                  {"a": Descriptor("byte", np.array([1, 2], np.uint8), scale=-2.0)}):
        with pytest.raises(EncodeError):
            save_descriptors(path, table)
        assert not path.exists()


def test_load_descriptors_names_a_non_utf8_id(tmp_path):
    path = tmp_path / "id.qds"
    path.write_bytes(_qds(2, [(b"\xff", 1, bytes([1, 2]), 1.0)]))
    with pytest.raises(CorruptionError, match=f"^{path}: .* at byte 10 is not UTF-8$"):
        load_descriptors(path)


def test_load_descriptors_walks_no_further_than_the_file(tmp_path):
    # a forged record count must not size any allocation
    path = tmp_path / "forged.qds"
    blob = _qds(2, [("a", 1, bytes([1, 2]), 1.0)])
    path.write_bytes(blob[:6] + struct.pack("<I", 2**32 - 1) + blob[10:])
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError,
                           match=f"truncated at byte {len(blob)} reading id length$"):
            load_descriptors(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_descriptors_errors(tmp_path):
    path = tmp_path / "d.qds"
    save_descriptors(path, {"a": Descriptor("real", np.array([1.0, 0.0]))})
    data = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.qds"
    bad_magic.write_bytes(b"XXXX" + bytes(data[4:]))
    with pytest.raises(ValueError):
        load_descriptors(bad_magic)

    truncated = tmp_path / "trunc.qds"
    truncated.write_bytes(bytes(data[:-3]))
    with pytest.raises(ValueError):
        load_descriptors(truncated)
    # a header cut short used to escape as struct.error
    truncated.write_bytes(bytes(data[:7]))
    with pytest.raises(ValueError, match="truncated at byte 4 reading header"):
        load_descriptors(truncated)

    trailing = tmp_path / "trail.qds"
    trailing.write_bytes(bytes(data) + b"\x00")
    with pytest.raises(ValueError):
        load_descriptors(trailing)


# ---------------------------------------------------------------------------
# the packed DescriptorSet against a per-record reader

def _oracle_load(path) -> dict:
    """QDS1 parsed one record at a time into a dict of Descriptors."""
    rd = Reader(Path(path).read_bytes(), b"QDS1", "a descriptor file", path)
    out = {}
    dim, count = rd.unpack("<HI", "header")
    for _ in range(count):
        (id_len,) = rd.unpack("<H", "id length")
        name = rd.take(id_len, "id").decode()
        precision = {0: "real", 1: "byte", 2: "bit"}[rd.take(1, "precision tag")[0]]
        if precision == "real":
            values = rd.array(np.float32, dim, "payload").astype(np.float64)
        elif precision == "byte":
            values = rd.array(np.uint8, dim, "payload").copy()
        else:
            values = np.unpackbits(rd.array(np.uint8, -(-dim // 8), "payload"), count=dim)
        (meta,) = rd.unpack("<f", "metadata")
        assert name not in out
        out[name] = Descriptor(precision, values,
                               scale=float(meta) if precision == "byte" else None,
                               threshold=float(meta) if precision == "bit" else None)
    rd.finish()
    return out


def _reference_save(descriptors) -> bytes:
    """QDS1 bytes of a dict of descriptors, written one record at a time."""
    precision, dim = {(d.precision, d.dim) for d in descriptors.values()}.pop()
    records = []
    for name in sorted(descriptors):
        desc = descriptors[name]
        if precision == "real":
            payload, meta = desc.values.astype("<f4").tobytes(), 0.0
        elif precision == "byte":
            payload, meta = desc.values.tobytes(), desc.scale
        else:
            payload, meta = np.packbits(desc.values).tobytes(), desc.threshold
        records.append((name, {"real": 0, "byte": 1, "bit": 2}[precision], payload, meta + 0.0))
    return _qds(dim, records)


def _qds(dim, records) -> bytes:
    """A hand-built QDS1 file: records are (id, tag, payload, metadata);
    an id given as bytes is stored as it is."""
    blob = b"QDS1" + struct.pack("<HI", dim, len(records))
    for name, tag, payload, meta in records:
        encoded = name if isinstance(name, bytes) else name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded + bytes([tag]) + payload
        blob += struct.pack("<f", meta)
    return blob


def _mixed_ids(rng, n, nul=False):
    """n distinct ids of 1 to 40 UTF-8 bytes, some of them non-ASCII, and
    with nul some of them holding a NUL."""
    alphabet = list("abcxyz019_-") + ["é", "ß", "中", "😀"] + ["\0"] * nul
    ids = set()
    while len(ids) < n:
        picks = rng.integers(0, len(alphabet), int(rng.integers(1, 11)))
        name = "".join(alphabet[k] for k in picks)  # np.str_ would drop a trailing NUL
        if len(name.encode()) <= 40:
            ids.add(name)
    return sorted(sorted(ids), key=lambda _: rng.random())


def _assert_same_descriptors(got, want):
    assert sorted(got) == sorted(want) and list(got) == sorted(want)
    for name, desc in want.items():
        loaded = got[name]
        assert loaded == desc, name
        assert loaded.values.dtype == desc.values.dtype, name
        assert type(loaded.scale) is type(desc.scale), name
        assert type(loaded.threshold) is type(desc.threshold), name


@pytest.mark.parametrize("precision", ["real", "byte", "bit"])
@pytest.mark.parametrize("dim", [1, 7, 8, 9, 96])
def test_descriptor_set_load_matches_per_record_reader(tmp_path, monkeypatch, precision, dim):
    per_id, one_at_a_time = [], qnip.descriptor._ids

    def counted(path, data, starts, tags_at):
        per_id.append(starts)
        return one_at_a_time(path, data, starts, tags_at)

    monkeypatch.setattr(qnip.descriptor, "_ids", counted)
    for nul in (False, True):
        rng = np.random.default_rng([47, dim, len(precision), nul])
        ids = _mixed_ids(rng, 23, nul)
        table = {name: convert_descriptor(Descriptor("real", rng.gamma(0.6, size=dim)), precision)
                 for name in ids}
        path = tmp_path / f"set{nul:d}.qds"
        save_descriptors(path, table)
        per_id.clear()
        loaded = load_descriptors(path)
        # non-ASCII ids without a NUL are decoded at once: only the first
        # id alone; NUL-bearing ones one at a time
        assert len(per_id) == 1 + any("\0" in name for name in ids)
        assert isinstance(loaded, DescriptorSet) and len(loaded) == len(ids)
        assert (loaded.precision, loaded.dim) == (precision, dim)
        assert loaded.rows.shape == (len(ids), -(-dim // 8) if precision == "bit" else dim)
        _assert_same_descriptors(loaded, _oracle_load(path))
        # a copy, not a view of the set's rows
        first = loaded[ids[0]]
        first.values += 1
        assert loaded[ids[0]] != first
        # a set is written from its arrays, byte for byte as its dict and as
        # one record at a time
        assert path.read_bytes() == _reference_save(table)
        for packed in (loaded, DescriptorSet.stack(table)):
            save_descriptors(tmp_path / "again.qds", packed)
            assert (tmp_path / "again.qds").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", ["alternating", "unpadded"])
def test_large_mixed_length_files_round_trip(tmp_path, kind):
    # sorted ids of alternating lengths ("00000a", "00001", ...) and
    # img{k} ids, whose lengths change every few records
    n = 10_000
    ids = ([f"{k:05d}" + "a" * (k % 2 == 0) for k in range(n)] if kind == "alternating"
           else [f"img{k}" for k in range(n)])
    rng = np.random.default_rng([52, len(kind)])
    table = {name: convert_descriptor(Descriptor("real", row), "byte")
             for name, row in zip(ids, rng.gamma(0.6, size=(n, 12)))}
    path = tmp_path / "large.qds"
    save_descriptors(path, table)
    assert path.read_bytes() == _reference_save(table)
    loaded, stacked = load_descriptors(path), DescriptorSet.stack(table)
    assert list(loaded) == list(stacked) and np.array_equal(loaded.rows, stacked.rows)
    assert np.array_equal(loaded.meta, stacked.meta.astype(np.float32))
    _assert_same_descriptors(loaded, _oracle_load(path))
    save_descriptors(tmp_path / "again.qds", loaded)
    assert (tmp_path / "again.qds").read_bytes() == path.read_bytes()


def _stretch_file():
    """A byte file of 200 records: a stretch of 120 ids of one length,
    then ids of alternating lengths. Returns its bytes and each record's
    start."""
    names = [f"k{k:04d}" for k in range(120)] + [f"m{k}" + "x" * (k % 2) for k in range(80)]
    records = [(name, 1, bytes([k % 256, 7, 9]), 0.5) for k, name in enumerate(names)]
    blob = _qds(3, records)
    starts, pos = [], 10
    for name, *_ in records:
        starts.append(pos)
        pos += 2 + len(name) + 1 + 3 + 4
    return bytearray(blob), starts


# records inside the stretch that the loader's first probe takes, at its
# last record, just past it and at the file's last one
_STRETCH_RECORDS = [1, 7, 8, 9, 15, 16, 17, 40, 64, 119, 120, 121, 199]


@pytest.mark.parametrize("k", _STRETCH_RECORDS)
def test_load_errors_inside_and_at_the_edge_of_a_stretch(tmp_path, k):
    good, starts = _stretch_file()
    path = tmp_path / "bad.qds"
    at = starts[k]
    id_len = good[at]
    name = good[at + 2:at + 2 + id_len].decode()

    blob = good.copy()
    blob[at + 2 + id_len] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError,
                       match=f"^{path}: record '{name}' has precision tag 2, the first record 1$"):
        load_descriptors(path)
    blob[at + 2 + id_len] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match=f"^{path}: unknown precision tag 9$"):
        load_descriptors(path)

    blob = good.copy()
    blob[at + 2 + id_len - 1] = 0xC3  # starts a character the id does not finish
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match=f"^{path}: the id of the record at byte "
                                              f"{at} is not UTF-8$"):
        load_descriptors(path)

    # a record count that ends the file's records at this one
    blob = good.copy()
    blob[6:10] = struct.pack("<I", k)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match=f"^{path}: {len(blob) - at} trailing bytes$"):
        load_descriptors(path)

    # cut inside each field of the record, and just before it
    for cut in (at, at + 1, at + 2, at + 2 + id_len, at + 3 + id_len, at + 5 + id_len,
                at + 7 + id_len):
        path.write_bytes(bytes(good[:cut]))
        with pytest.raises(TruncationError) as want:
            _oracle_load(path)
        with pytest.raises(TruncationError, match=f"^{str(want.value)}$"):
            load_descriptors(path)


def test_descriptor_set_loads_out_of_order_files_sorted(tmp_path):
    path = tmp_path / "shuffled.qds"
    records = [("zeta", 1, bytes([1, 2, 3]), 0.5), ("alpha", 1, bytes([4, 5, 6]), 2.0),
               ("mu", 1, bytes([7, 8, 9]), 0.0)]
    path.write_bytes(_qds(3, records))
    loaded = load_descriptors(path)
    assert list(loaded) == ["alpha", "mu", "zeta"]
    _assert_same_descriptors(loaded, _oracle_load(path))
    assert loaded.rows.tolist() == [[4, 5, 6], [7, 8, 9], [1, 2, 3]]
    assert loaded.meta.tolist() == [2.0, 0.0, 0.5]


@pytest.mark.parametrize("names", [["aa", "bbb"], ["aaa", "bb"], ["aa", "bb", "ccc"],
                                   ["aaa", "bb", "cc"], ["aa", "bbb", "cc"]])
def test_load_finds_one_record_of_another_size(tmp_path, names):
    # the payloads are sliced at one stride only when every record, the
    # first and the last included, has one size
    path = tmp_path / "sizes.qds"
    records = [(name, 0, struct.pack("<2f", k + 1, k + 2), 0.0) for k, name in enumerate(names)]
    path.write_bytes(_qds(2, records))
    loaded = load_descriptors(path)
    _assert_same_descriptors(loaded, _oracle_load(path))
    assert loaded.rows.tolist() == [[k + 1, k + 2] for k in range(len(names))]


def test_descriptor_set_clears_bit_padding(tmp_path):
    path = tmp_path / "padded.qds"
    # 3 bits 1 0 1, then five padding bits set
    path.write_bytes(_qds(3, [("a", 2, bytes([0xA0 | 0x1F]), 0.25),
                              ("b", 2, bytes([0xA0]), 0.25)]))
    loaded = load_descriptors(path)
    _assert_same_descriptors(loaded, _oracle_load(path))
    assert loaded["a"].values.tolist() == [1, 0, 1]
    assert loaded.rows.tolist() == [[0xA0], [0xA0]]


def test_descriptor_set_refuses_mixed_tags_and_duplicate_ids(tmp_path):
    path = tmp_path / "bad.qds"
    path.write_bytes(_qds(2, [("a", 1, bytes([1, 2]), 1.0), ("b", 2, bytes([0x80]), 0.5)]))
    with pytest.raises(CorruptionError, match="record 'b' has precision tag 2"):
        load_descriptors(path)
    path.write_bytes(_qds(2, [("a", 1, bytes([1, 2]), 1.0), ("a", 1, bytes([3, 4]), 1.0)]))
    with pytest.raises(CorruptionError, match=f"^{path}: duplicate id 'a'$"):
        load_descriptors(path)
    path.write_bytes(_qds(2, [("a", 9, bytes([1, 2]), 1.0)]))
    with pytest.raises(CorruptionError, match="unknown precision tag 9"):
        load_descriptors(path)
    with pytest.raises(ValueError, match="duplicate id 'x'"):
        DescriptorSet(["x", "y", "x"], "real", 1, np.zeros((3, 1)), np.zeros(3))


def test_descriptor_set_is_a_read_only_mapping():
    table = {"b": Descriptor("real", np.array([0.6, 0.8])),
             "a": Descriptor("real", np.array([1.0, 0.0]))}
    packed = DescriptorSet.stack(table)
    assert DescriptorSet.stack(packed) is packed
    assert list(packed) == ["a", "b"] and len(packed) == 2
    assert "a" in packed and "c" not in packed and 3 not in packed
    assert packed == table and packed.get("c") is None
    with pytest.raises(KeyError):
        packed["c"]
    with pytest.raises(ValueError):
        packed.rows[0, 0] = 2.0
    with pytest.raises(ValueError, match="non-finite"):
        DescriptorSet.stack({"a": Descriptor("real", np.array([np.nan]))})
    with pytest.raises(ValueError, match="scale"):
        DescriptorSet.stack({"a": Descriptor("byte", np.array([1], np.uint8), scale=-1.0)})
    both = DescriptorSet.concatenate([packed, DescriptorSet.stack(
        {"c": Descriptor("real", np.array([0.0, 1.0]))})])
    assert list(both) == ["a", "b", "c"] and both["c"] == Descriptor("real", np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="one precision and one length"):
        DescriptorSet.concatenate([packed, DescriptorSet.stack(
            {"c": Descriptor("real", np.array([0.0, 1.0, 0.0]))})])


def test_non_finite_real_rows_are_named_by_id(tmp_path):
    # one flat finiteness pass, and the row pass that names the id only on failure
    ids = [f"{k:03d}" for k in range(7)]
    for row, bad in ((3, np.nan), (6, np.inf), (6, -np.inf)):
        rows = np.random.default_rng(row).uniform(size=(7, 5))
        message = f"real descriptor '{ids[row]}' holds non-finite values"
        nan_row = rows.copy()
        nan_row[row, 2] = bad
        with pytest.raises(ValueError, match=message):
            DescriptorSet(ids, "real", 5, nan_row, np.zeros(7))
        # the same row forged into a file: records are 2 + 3 + 1 + 20 + 4 bytes
        path = tmp_path / f"bad{row}.qds"
        save_descriptors(path, DescriptorSet(ids, "real", 5, rows, np.zeros(7)))
        data = bytearray(path.read_bytes())
        at = 10 + row * 30 + 6 + 2 * 4
        data[at:at + 4] = struct.pack("<f", bad)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError, match=re.escape(f"{path}: {message}")):
            load_descriptors(path)


def test_converting_a_non_finite_real_descriptor_is_refused():
    # a NaN entry used to give all-zero bits with threshold NaN, which
    # saved and loaded, and a byte scale of NaN after a cast warning
    for bad in (np.nan, np.inf, -np.inf):
        desc = Descriptor("real", np.array([bad, 1.0, 0.5]))
        for precision in ("byte", "bit"):
            match = ("^descriptor entries must be non-negative$"
                     if precision == "byte" and bad < 0 else
                     "^real descriptor holds non-finite values$")
            with pytest.raises(ValueError, match=match):
                convert_descriptor(desc, precision)
    # finite entries still convert, the largest float64 ones included
    big = Descriptor("real", np.array([np.finfo(np.float64).max, 0.0]))
    assert quantize_descriptor(big).values.tolist() == [255, 0]


def test_zero_length_descriptors_are_refused(tmp_path):
    # binarizing one divided 0 by 0, quantizing one gave an empty byte
    # descriptor, and a dimension-0 file saved, loaded and was searched
    empty = Descriptor("real", np.array([]))
    for convert in (quantize_descriptor, binarize_descriptor):
        with pytest.raises(ValueError, match="^real descriptor is empty$"):
            convert(empty)
    path = tmp_path / "empty.qds"
    for precision, meta in (("real", {}), ("byte", {"scale": 1.0}), ("bit", {"threshold": 0.0})):
        values = np.array([], np.float64 if precision == "real" else np.uint8)
        with pytest.raises(EncodeError, match="^descriptor length 0 is below 1$"):
            save_descriptors(path, {"a": Descriptor(precision, values, **meta)})
        assert not path.exists()
    path.write_bytes(_qds(0, [("a", 0, b"", 0.0)]))
    with pytest.raises(CorruptionError, match="descriptor length 0 is below 1$"):
        load_descriptors(path)


def test_stacking_bit_flags_other_than_zero_and_one_is_refused(tmp_path):
    # packbits used to fold a flag of 2 to 1: [2, 0, 1] saved and loaded as [1, 0, 1]
    table = {"a": Descriptor("bit", np.array([0, 1, 1], np.uint8), threshold=0.5),
             "b": Descriptor("bit", np.array([2, 0, 1], np.uint8), threshold=0.5)}
    with pytest.raises(ValueError, match="^bit descriptor 'b' holds flags other than 0 and 1$"):
        DescriptorSet.stack(table)
    path = tmp_path / "bits.qds"
    with pytest.raises(EncodeError, match="^bit descriptor 'b' holds flags"):
        save_descriptors(path, table)
    assert not path.exists()
    del table["b"]
    save_descriptors(path, table)
    assert load_descriptors(path)["a"] == table["a"]
