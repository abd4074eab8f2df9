"""Rotation-invariant pooled descriptors from conv feature maps.

The pooling chain, per rotation r, region j and channel c::

    u[r, j, c] = (mean over region pixels of sqrt(x))**2     # order-1/2 mean
    v[r, c]    = mean over regions j of u[r, j, c]
    d[c]       = max over rotations r of v[r, c]

followed by L2 normalization. The rotation orbit is the four quarter
turns, so rotating the input by 90 degrees only permutes the r axis and
the final max is bit-identical — the flagship property of the scheme.
nip_pool runs it in one pass over the whole orbit, one crop per rect,
adding in a per-region loop's order, so it has that loop's bits.

Two front ends feed that chain one (rotations, inputs, C', H', W') array
of tap maps: one engine.forward over their whole orbit (orbit_inputs).

  * extract_nip  — orbit (4, 1, C, H, W), one input per rotation; the
    regions are a multi-level tile grid laid over the tap feature map.
  * extract_rnip — orbit (4, J, C, H, W): each tile of a grid on the
    *image* is cropped, resized to the net input and run through the
    net, and its whole feature map is one region. With crop_levels {1}
    the crop is the identity, which collapses to extract_nip({1}) exactly.

In integer mode without given activation exponents, forward calibrates
once over the whole orbit, so all rotations share one activation grid.

Descriptors exist in three precisions: real (float, unit L2 norm), byte
(8-bit against a stored scale) and bit (1 bit per channel against the
mean threshold).

A DescriptorSet holds many descriptors of one precision and one length
as arrays in sorted-id order: float64 rows for real, the uint8 codes for
byte and the bits packed 8 to a byte for bit, plus each row's scale or
threshold. It is a read-only mapping from id to Descriptor, and it is
what load_descriptors returns and retrieval indexes.

Descriptor files: magic "QDS1", u16 element count, u32 record count, then
per record a u16-length-prefixed id, a precision tag byte (0/1/2; one tag
per file), the payload (float32 LE / one byte per entry / bit-packed
MSB-first) and one float32 of metadata (the byte scale or bit threshold;
0 for real). load_descriptors and save_descriptors follow the read and
write contracts of binfile. load_descriptors checks in one strided probe
which records from the first on share its id length, walks the rest one
at a time for their starts, then gathers the tags, the ids and the
payloads, each in one pass; when every record has one size, the payloads
are a strided view of the file and only their conversion copies them.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import engine, ops
from .binfile import CorruptionError, EncodeError, Reader, pack
from .network import NetworkDefinition

PRECISIONS = ("real", "byte", "bit")
DESC_MAGIC = b"QDS1"
_TAGS = {"real": 0, "byte": 1, "bit": 2}
_TAG_NAMES = {v: k for k, v in _TAGS.items()}

FULL_FRAME = (0.0, 0.0, 1.0, 1.0)


@dataclass(eq=False)
class Descriptor:
    precision: str
    values: np.ndarray            # float64 / uint8 / uint8 of 0-1 flags
    scale: float | None = None      # byte mode
    threshold: float | None = None  # bit mode

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Descriptor):
            return NotImplemented
        return (self.precision == other.precision
                and np.array_equal(self.values, other.values)
                and self.scale == other.scale
                and self.threshold == other.threshold)


def roi_grid(levels: Iterable[int]) -> list[tuple[float, float, float, float]]:
    """Tile rectangles for the given grid levels.

    Level L contributes an L x L grid of equal tiles (row-major), so the
    region count is the sum of squares: {1,2} -> 5, {1,2,3} -> 14, {3} -> 9.
    """
    rects = []
    for level in sorted(set(int(l) for l in levels)):
        if level < 1:
            raise ValueError(f"grid levels must be >= 1, got {level}")
        for i in range(level):
            for j in range(level):
                rects.append((j / level, i / level, (j + 1) / level, (i + 1) / level))
    if not rects:
        raise ValueError("need at least one grid level")
    return rects


def nip_pool(taps, rects=(FULL_FRAME,)) -> Descriptor:
    """Run the sqrt-mean / average / max chain over every rect of every map.

    taps is a (rotations, inputs, C, H, W) array, or nested lists of
    equal-shape C,H,W maps: taps[r, i] is the feature map of input i of
    rotation r, and each rect of each map is one region. Feature maps must
    be non-negative.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 5 or not taps.shape[0] * taps.shape[1] or not rects:
        raise ops.ShapeError(f"need (rotations, inputs, C, H, W) taps and a rect, "
                             f"got taps of shape {taps.shape} and {len(rects)} rects")
    if taps.min(initial=0.0) < 0.0:
        raise ValueError("feature maps must be non-negative (post-ReLU)")
    rotations, inputs, channels, h, w = taps.shape
    roots = np.sqrt(taps, out=np.empty(taps.shape))  # C-contiguous, as a crop's copy is
    # regions input-major, then rect: the mean's summation order fixes its bits
    pooled = np.empty((rotations, inputs, len(rects), channels))
    for k, rect in enumerate(rects):
        whole = ops.crop_bounds(rect, h, w) == (0, h, 0, w)  # reduce it uncopied
        pooled[:, :, k] = (roots if whole else ops.crop(roots, rect)).mean(axis=(3, 4)) ** 2
    d = pooled.reshape(rotations, -1, channels).mean(axis=1).max(axis=0)
    norm = float(np.sqrt(np.sum(d * d)))
    if norm > 0.0:
        d = d / norm
    return Descriptor("real", d)


def _checked_image(net: NetworkDefinition, image: np.ndarray) -> np.ndarray:
    """The image as float64 C,H,W with the net's channel count."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3:
        raise ops.ShapeError(f"image must be C,H,W, got {image.shape}")
    if image.shape[0] != net.input_shape[0]:
        raise ops.ShapeError(
            f"image has {image.shape[0]} channels, net expects {net.input_shape[0]}")
    return image


def sized_input(net: NetworkDefinition, image: np.ndarray) -> np.ndarray:
    """Image resized to the net input (bit-exact pass-through when it fits)."""
    image = _checked_image(net, image)
    if image.shape != net.input_shape:
        image = ops.resize_bilinear(image, *net.input_shape[1:])
    return image


def orbit_inputs(net: NetworkDefinition, image: np.ndarray, kind: str = "nip",
                 crop_levels: Iterable[int] = (1, 2),
                 rotations: bool = True) -> np.ndarray:
    """Every net input of an extraction, as (rotations, inputs, C, H, W).

    nip, (4, 1, C, H, W): row [r, 0] is the sized image turned r quarter
    turns. rnip, (4, J, C, H, W), or (1, J, C, H, W) from the unrotated
    image when rotations is off: row [r, j] is crop_levels tile j of the
    image turned r quarter turns, resized to the net input. Rotating the
    image only permutes the rotations, so any statistic over all inputs,
    such as calibrated activation exponents, is rotation invariant.
    """
    if kind == "nip":
        image = sized_input(net, image)
        return np.stack([ops.rotate90(image, r) for r in range(4)])[:, None]
    image = _checked_image(net, image)
    rects = roi_grid(crop_levels)
    orbit = np.empty((4 if rotations else 1, len(rects)) + net.input_shape)
    for r, inputs in enumerate(orbit):
        turned = ops.rotate90(image, r)
        for j, rect in enumerate(rects):
            inputs[j] = ops.resize_bilinear(ops.crop(turned, rect), *net.input_shape[1:])
    return orbit


def extract_nip(net: NetworkDefinition, weights, image: np.ndarray,
                mode: str = "float", roi_levels: Iterable[int] = (1, 2, 3),
                act_exponents=None) -> Descriptor:
    """Grid-pooled descriptor over the four-rotation orbit of one image.

    Exact 90-degree rotation invariance holds bit-for-bit when the image
    is already at the (square) net input size; other sizes are resized
    first, which is only approximately rotation-commutative.
    """
    rects = roi_grid(roi_levels)
    taps, _ = engine.forward(net, weights, orbit_inputs(net, image, "nip"), mode, act_exponents)
    return nip_pool(taps, rects)


def extract_rnip(net: NetworkDefinition, weights, image: np.ndarray,
                 mode: str = "float", crop_levels: Iterable[int] = (1, 2),
                 rotations: bool = True, act_exponents=None) -> Descriptor:
    """Sub-image variant: crop a tile grid from the image, run each crop
    through the net at full input resolution, and pool every crop's whole
    feature map as one region.

    Crops are taken from the rotated original, so rotation invariance is
    bit-exact for any image size (when rotations is on).
    """
    orbit = orbit_inputs(net, image, "rnip", crop_levels, rotations)
    return nip_pool(engine.forward(net, weights, orbit, mode, act_exponents)[0])


def quantize_descriptor(desc: Descriptor) -> Descriptor:
    """Real -> byte: scale by the max entry onto 0..255."""
    if desc.precision != "real":
        raise ValueError(f"can only quantize real descriptors, got {desc.precision!r}")
    values = np.asarray(desc.values, dtype=np.float64)
    if not values.size:
        raise ValueError("real descriptor is empty")
    if np.minimum.reduce(values, initial=0.0) < 0.0:
        raise ValueError("descriptor entries must be non-negative")
    scale = float(np.maximum.reduce(values, initial=0.0))
    if not math.isfinite(scale):  # a NaN or +inf entry; -inf is refused as negative
        raise ValueError("real descriptor holds non-finite values")
    if scale == 0.0:
        return Descriptor("byte", np.zeros(values.shape[0], np.uint8), scale=0.0)
    # round_half_away, on entries known to be >= 0
    q = values * (255.0 / scale)
    q += 0.5
    return Descriptor("byte", np.floor(q, out=q).astype(np.uint8), scale=scale)


def dequantize_descriptor(desc: Descriptor) -> np.ndarray:
    """Byte -> float values on the original scale."""
    if desc.precision != "byte":
        raise ValueError(f"expected a byte descriptor, got {desc.precision!r}")
    return desc.values.astype(np.float64) * (desc.scale / 255.0 if desc.scale else 0.0)


def binarize_descriptor(desc: Descriptor) -> Descriptor:
    """Real -> bit: 1 where the entry exceeds the descriptor mean."""
    if desc.precision != "real":
        raise ValueError(f"can only binarize real descriptors, got {desc.precision!r}")
    values = np.asarray(desc.values, dtype=np.float64)
    if not values.size:
        raise ValueError("real descriptor is empty")
    threshold = float(np.add.reduce(values) / values.size)  # ndarray.mean's arithmetic
    if not math.isfinite(threshold):  # any NaN or inf entry, or a sum past the float64 range
        raise ValueError("real descriptor holds non-finite values")
    return Descriptor("bit", (values > threshold).astype(np.uint8), threshold=threshold)


def convert_descriptor(desc: Descriptor, precision: str) -> Descriptor:
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}")
    if precision == "real":
        return desc
    return quantize_descriptor(desc) if precision == "byte" else binarize_descriptor(desc)


# ---------------------------------------------------------------------------
# descriptor sets and files

def descriptor_set_shape(items: Iterable) -> tuple[str, int]:
    """The one precision and one length of a non-empty collection of
    descriptors or descriptor sets."""
    shapes = {(d.precision, d.dim) for d in items}
    if len(shapes) != 1:
        raise ValueError(f"a descriptor set needs one precision and one length, "
                         f"got {sorted(shapes) or 'no descriptors'}")
    return shapes.pop()


def _row_width(precision: str, dim: int) -> int:
    """Entries of one row: dim values or codes, or ceil(dim / 8) bytes of bits."""
    return -(-dim // 8) if precision == "bit" else dim


def _record_dtype(precision: str, dim: int) -> np.dtype:
    """A stored record after its id and tag: the payload, then the metadata."""
    stored = "<f4" if precision == "real" else "u1"
    return np.dtype([("payload", stored, (_row_width(precision, dim),)), ("meta", "<f4")])


class DescriptorSet(Mapping[str, Descriptor]):
    """Descriptors of one precision and one length, held as arrays.

    ids is an object array of the ids in sorted order, and row i of rows
    and meta belongs to ids[i]. rows are float64 values for real, the
    uint8 codes for byte, and for bit the flags packed MSB-first into
    ceil(dim / 8) bytes with zero padding bits. meta is the byte scale or
    bit threshold of each row (0 for real). The set is a read-only
    mapping: set[id] builds a fresh Descriptor of that row.
    """

    def __init__(self, ids, precision: str, dim: int, rows: np.ndarray, meta: np.ndarray):
        """Sort the rows by id and check them: dim >= 1, ids unique, real values
        finite, byte scales finite and >= 0. Raises ValueError. The
        arrays are taken over and made read-only."""
        if precision not in PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}")
        if dim < 1:
            raise ValueError(f"descriptor length {dim} is below 1")
        ids = np.array(ids, dtype=object)
        rows = np.asarray(rows, np.float64 if precision == "real" else np.uint8)
        meta = np.asarray(meta, np.float64)
        if rows.shape != (len(ids), _row_width(precision, dim)):
            raise ValueError(f"{len(ids)} {precision} rows of length {dim} "
                             f"cannot have shape {rows.shape}")
        if not (ids[1:] > ids[:-1]).all():  # not already sorted and unique
            order = np.argsort(ids, kind="stable")
            ids, rows, meta = ids[order], rows[order], meta[order]
            repeated = ids[1:] == ids[:-1]
            if repeated.any():
                raise ValueError(f"duplicate id {ids[int(np.argmax(repeated))]!r}")
        if precision == "real":
            if not np.isfinite(rows).all():  # per row only to name the first bad id
                finite = np.isfinite(rows).all(axis=1)
                raise ValueError(f"real descriptor {ids[int(np.argmin(finite))]!r} "
                                 f"holds non-finite values")
            meta = np.zeros(len(ids))
        elif precision == "byte":
            bad = ~(np.isfinite(meta) & (meta >= 0.0))
            if bad.any():
                row = int(np.argmax(bad))
                raise ValueError(f"byte descriptor {ids[row]!r} has scale {meta[row]}; "
                                 f"expected a finite value >= 0")
        for array in (ids, rows, meta):
            array.flags.writeable = False
        self.ids, self.precision, self.dim, self.rows, self.meta = ids, precision, dim, rows, meta

    @classmethod
    def stack(cls, descriptors: Mapping[str, Descriptor]) -> DescriptorSet:
        """The set of a dict of descriptors (a set is returned as it is)."""
        if isinstance(descriptors, DescriptorSet):
            return descriptors
        precision, dim = descriptor_set_shape(descriptors.values())
        names = sorted(descriptors)
        descs = [descriptors[n] for n in names]
        rows = np.array([d.values for d in descs],
                        np.float64 if precision == "real" else np.uint8)
        if precision == "bit":
            if rows.max(initial=0) > 1:  # packbits would fold any flag > 1 to 1
                bad = names[int(np.argmax((rows > 1).any(axis=1)))]
                raise ValueError(f"bit descriptor {bad!r} holds flags other than 0 and 1")
            rows = np.packbits(rows, axis=1)
        meta = np.zeros(len(descs)) if precision == "real" else [
            (d.scale if precision == "byte" else d.threshold) or 0.0 for d in descs]
        return cls(names, precision, dim, rows, meta)

    @classmethod
    def concatenate(cls, sets: Sequence[DescriptorSet]) -> DescriptorSet:
        precision, dim = descriptor_set_shape(sets)
        return cls(np.concatenate([s.ids for s in sets]), precision, dim,
                   np.concatenate([s.rows for s in sets]),
                   np.concatenate([s.meta for s in sets]))

    def row(self, name) -> int | None:
        """The row of name, or None when the set does not hold it."""
        if isinstance(name, str):
            row = int(np.searchsorted(self.ids, name))
            if row < len(self.ids) and self.ids[row] == name:
                return row
        return None

    def __getitem__(self, name: str) -> Descriptor:
        row = self.row(name)
        if row is None:
            raise KeyError(name)
        values, meta = self.rows[row], float(self.meta[row])
        if self.precision == "bit":
            return Descriptor("bit", np.unpackbits(values, count=self.dim), threshold=meta)
        if self.precision == "byte":
            return Descriptor("byte", values.copy(), scale=meta)
        return Descriptor("real", values.copy())

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


def save_descriptors(path, descriptors: Mapping[str, Descriptor]) -> None:
    """Write a DescriptorSet, or a dict of descriptors stacked into one,
    from its arrays. Raises EncodeError for what DescriptorSet or the
    file's field ranges refuse, and then writes nothing."""
    try:
        s = DescriptorSet.stack(descriptors)
    except ValueError as err:
        raise EncodeError(str(err)) from None
    header = DESC_MAGIC + pack("<HI", "header (dimension, record count)", s.dim, len(s.ids))
    records = np.empty(len(s.ids), _record_dtype(s.precision, s.dim))
    records["payload"] = s.rows
    meta = np.where(s.meta == 0.0, 0.0, s.meta)  # a -0.0 scale is stored as 0.0
    with np.errstate(over="ignore"):
        records["meta"] = meta
    encoded = [name.encode() for name in s.ids]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    bad_id = (lengths < 1) | (lengths > 0xFFFF)
    bad = bad_id | (np.isinf(records["meta"]) & np.isfinite(meta))
    if bad.any():
        row = int(np.argmax(bad))
        name = s.ids[row]
        if bad_id[row]:
            raise EncodeError(f"id length {lengths[row]} is outside 1..65535: {name[:40]!r}")
        raise EncodeError(f"record {name[:40]!r} metadata {float(meta[row])!r} "
                          f"overflows float32")
    tag = bytes([_TAGS[s.precision]])
    heads = [struct.pack("<H", n) + e + tag for n, e in zip(lengths.tolist(), encoded)]
    body, size = records.tobytes(), records.dtype.itemsize
    chunks = [body[at:at + size] for at in range(0, len(body), size)]
    # canonical id order makes the file a pure function of its contents
    Path(path).write_bytes(header + b"".join(chain.from_iterable(zip(heads, chunks))))


def _truncated(rd: Reader, pos: int, payload: int) -> None:
    """Read the record at pos field by field, so that its first short
    field raises TruncationError."""
    rd.pos = pos
    (id_len,) = rd.unpack("<H", "id length")
    rd.take(id_len, "id")
    rd.take(1, "precision tag")
    rd.take(payload, "payload")
    rd.take(4, "metadata")


def _ids(path, data: bytes, starts, tags_at) -> list[str]:
    """The UTF-8 ids of the records at starts, each ending at its tag,
    decoded one at a time, so that the first bad one is named."""
    names = []
    for start, tag_at in zip(starts, tags_at):
        try:
            names.append(data[start + 2:tag_at].decode())
        except UnicodeDecodeError:
            raise CorruptionError(f"{path}: the id of the record at byte {start} "
                                  f"is not UTF-8") from None
    return names


def _decoded_ids(path, data: bytes, starts: np.ndarray, tags_at: np.ndarray) -> list[str]:
    """_ids in one gather and one decode, for ids that hold no NUL (else
    _ids). Each id is gathered with the tag byte after it, set to NUL, so
    that the decoded text splits into the ids at its NULs. A NUL neither
    ends nor continues a character, so the text is UTF-8 exactly when
    every id is; when it is not, _ids names the first bad id."""
    lengths = tags_at - starts - 1  # each id and its tag
    ends = np.cumsum(lengths)
    stream = np.frombuffer(data, np.uint8)[np.arange(ends[-1])
                                           + np.repeat(starts + 2 - (ends - lengths), lengths)]
    stream[ends - 1] = 0
    if np.count_nonzero(stream) == ends[-1] - len(ends):
        try:
            return stream.tobytes().decode().split("\0")[:-1]
        except UnicodeDecodeError:
            pass
    return _ids(path, data, starts.tolist(), tags_at.tolist())


def _record_starts(data: bytes, pos: int, count: int, fixed: int) -> tuple[np.ndarray, int]:
    """The starts of up to count records from pos on, each fixed bytes plus
    its id length, and where the last one ends; the walk stops at the end
    of the data. One strided view of the length fields at the first
    record's size takes every record up to the first of another size; the
    rest are walked one at a time. pos + 2 must not pass the end."""
    end = len(data)
    size = fixed + data[pos] + (data[pos + 1] << 8)
    k = min(count, (end - 2 - pos) // size + 1)
    same = np.ndarray((k,), "<u2", data, pos, (size,)) == size - fixed
    m = k if same.all() else int(same.argmin())
    head, pos, walked = np.arange(pos, pos + m * size, size), pos + m * size, []
    for _ in range(count - m):
        if pos + 2 > end:
            break
        walked.append(pos)
        pos += fixed + data[pos] + (data[pos + 1] << 8)
    return np.concatenate([head, np.array(walked, np.int64)]), pos


def load_descriptors(path) -> DescriptorSet:
    """Walk the records for their starts (_record_starts), check every tag
    in one comparison, read every id in one gather and one decode, then
    take every payload and metadata field from the file's record-sized
    windows: one slice when all records have one size, else one fancy
    index. The walk stops at the end of the file, so a forged record count
    allocates nothing. The bit padding bits are cleared; an out-of-order
    file loads sorted."""
    rd = Reader(Path(path).read_bytes(), DESC_MAGIC, "a descriptor file", path)
    dim, count = rd.unpack("<HI", "header")
    data, end = rd.data, len(rd.data)
    if not count:
        rd.finish()
        raise CorruptionError(f"{path}: no descriptors")
    first_at = rd.pos + 2 + int.from_bytes(data[rd.pos:rd.pos + 2], "little")
    if first_at >= end:
        _truncated(rd, rd.pos, 0)
    _ids(path, data, [rd.pos], [first_at])  # an id is checked before its tag
    first = data[first_at]
    if first not in _TAG_NAMES:
        raise CorruptionError(f"{path}: unknown precision tag {first}")
    precision = _TAG_NAMES[first]
    record = _record_dtype(precision, dim)
    starts, pos = _record_starts(data, rd.pos, count, 3 + record.itemsize)
    ends = np.append(starts[1:], pos)
    # a record's tag sits just before its payload and metadata
    tags_at = ends - (1 + record.itemsize)
    buf = np.frombuffer(data, np.uint8)
    tags = buf[tags_at[tags_at < end]]
    mixed = np.flatnonzero(tags != first)
    # ids up to the first bad tag, so that a bad id ahead of it is named first
    named = mixed[0] + 1 if mixed.size else len(tags)
    names = _decoded_ids(path, data, starts[:named], tags_at[:named])
    if mixed.size:
        tag = int(tags[mixed[0]])
        if tag not in _TAG_NAMES:
            raise CorruptionError(f"{path}: unknown precision tag {tag}")
        raise CorruptionError(f"{path}: record {names[-1]!r} has precision tag "
                              f"{tag}, the first record {first}")
    if pos > end or len(starts) < count:
        _truncated(rd, int(starts[-1]) if pos > end else pos, record.itemsize - 4)
    rd.pos = pos
    rd.finish()
    windows = np.lib.stride_tricks.sliding_window_view(buf, record.itemsize)
    # records of one size lie at one stride, where a slice copies nothing
    sizes = ends - starts
    uniform = (sizes == sizes[0]).all()
    at = slice(int(tags_at[0]) + 1, None, int(sizes[0])) if uniform else tags_at + 1
    stored = windows[at][:len(starts)].view(record)[:, 0]
    rows = stored["payload"].astype(np.float64 if precision == "real" else np.uint8)
    if precision == "bit" and dim % 8:
        rows[:, -1] &= 0xFF << (8 - dim % 8) & 0xFF
    try:
        return DescriptorSet(names, precision, dim, rows, stored["meta"])
    except ValueError as err:
        raise CorruptionError(f"{path}: {err}") from None
