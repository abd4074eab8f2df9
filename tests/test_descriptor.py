"""Pooled descriptors: region grids, the pooling chain, precisions, file IO."""

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


def _qds(dim, records) -> bytes:
    """A hand-built QDS1 file: records are (id, tag, payload, metadata);
    an id given as bytes is stored as it is."""
    blob = b"QDS1" + struct.pack("<HI", dim, len(records))
    for name, tag, payload, meta in records:
        encoded = name if isinstance(name, bytes) else name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded + bytes([tag]) + payload
        blob += struct.pack("<f", meta)
    return blob


def _mixed_ids(rng, n):
    """n distinct ids of 1 to 40 UTF-8 bytes, some of them non-ASCII."""
    alphabet = list("abcxyz019_-") + ["é", "ß", "中", "😀"]
    ids = set()
    while len(ids) < n:
        name = "".join(rng.choice(alphabet, int(rng.integers(1, 11))))
        if len(name.encode()) <= 40:
            ids.add(name)
    return sorted(ids, key=lambda _: rng.random())


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
def test_descriptor_set_load_matches_per_record_reader(tmp_path, precision, dim):
    rng = np.random.default_rng([47, dim, len(precision)])
    ids = _mixed_ids(rng, 23)
    table = {name: convert_descriptor(Descriptor("real", rng.gamma(0.6, size=dim)), precision)
             for name in ids}
    path = tmp_path / "set.qds"
    save_descriptors(path, table)
    loaded = load_descriptors(path)
    assert isinstance(loaded, DescriptorSet) and len(loaded) == len(ids)
    assert (loaded.precision, loaded.dim) == (precision, dim)
    assert loaded.rows.shape == (len(ids), -(-dim // 8) if precision == "bit" else dim)
    _assert_same_descriptors(loaded, _oracle_load(path))
    # a copy, not a view of the set's rows
    first = loaded[ids[0]]
    first.values += 1
    assert loaded[ids[0]] != first
    # a set is written from its arrays, byte for byte as its dict
    for packed in (loaded, DescriptorSet.stack(table)):
        save_descriptors(tmp_path / "again.qds", packed)
        assert (tmp_path / "again.qds").read_bytes() == path.read_bytes()


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
