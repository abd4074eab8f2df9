"""Serialized container for compressed models, plus size/ratio accounting.

Byte layout (all integers little-endian unless noted)::

    magic "QCM2" | version u8 (= 1) | layer_count u16
    per conv layer:
        out u16 | in u16 | stride u8 | padding u8 | m u8 | e i8 (two's complement)
        scalar section: out*in bytes, (out, in) row-major
        mask section:   out*in*9 fields of m bits, MSB-first, zero-padded to a byte
        bias section:   out fields of 12 bits, MSB-first, zero-padded to a byte
    trailer: u32 length | metadata block (canonical JSON)

The stream is read through binfile.Reader and written through binfile.pack
under their contracts: bad magic, truncation and trailing bytes are refused,
and a stride, padding or channel count too large for its field raises
EncodeError before save_model writes anything.

Masks are two's complement within their m bits, except m = 1 where the
single bit encodes +1 (1) or -1 (0). A section packs as one (count, m) uint8
bit array through np.packbits and unpacks by shift-or over its bit columns
into int16. The metadata block carries the architecture text, quantization
policy, a checksum of the source float weights, and any dense classifier
head as base64 float32 arrays — dense layers are outside the 3x3-conv
compression scheme and ride along uncompressed so a checkpoint stays
self-contained.

Compression arithmetic: a 3x3 kernel of z = 9 float32 weights (288 bits)
becomes z m-bit mask values plus one s-bit scalar, so the per-kernel ratio
is 32z / (zm + s).
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binfile import (CodecError, CorruptionError, EncodeError,  # noqa: F401 (re-exported)
                      FormatError, Reader, TruncationError, pack)
from .network import (FloatModel, NetworkDefinition, check_model_matches, dense_shapes,
                      model_checksum, parse_network)
from .ops import KERNEL_WEIGHTS
from .quantize import (DEFAULT_POLICY, POLICIES, SHIFT_MAX, SHIFT_MIN, QuantizedLayer,
                       dequantize_layer, global_shift, mask_levels, quantize_layer)

MAGIC = b"QCM2"
_KIND = "a compressed-model container"
VERSION = 1
KERNEL_BITS_FLOAT = 32 * KERNEL_WEIGHTS  # 288 bits per float32 kernel
BIAS_BITS = 12
SHIFT_SCOPES = ("layer", "global")


class UnsupportedVersionError(CodecError):
    pass


# ---------------------------------------------------------------------------
# accounting

def ratio_formula(mask_bits: int, scalar_bits: int = 8) -> float:
    """Per-kernel compression ratio 32*9 / (9*m + s)."""
    if mask_bits < 1:
        raise ValueError(f"mask_bits must be >= 1, got {mask_bits}")
    if scalar_bits < 0:
        raise ValueError(f"scalar_bits must be >= 0, got {scalar_bits}")
    return KERNEL_BITS_FLOAT / (KERNEL_WEIGHTS * mask_bits + scalar_bits)


def parse_profile(text: str, n_layers: int | None = None) -> list[int | None]:
    """Parse a bit-allocation profile like "3x7,1x6" -> [3]*7 + [1]*6.

    Entries are "M" or "MxCOUNT" with M a mask width 1..5, or "f" for an
    unquantized (float) layer — the retraining sentinel.
    """
    profile: list[int | None] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            raise ValueError(f"empty entry in profile {text!r}")
        head, sep, count_s = entry.partition("x")
        count = 1
        if sep:
            if not count_s.isdigit() or int(count_s) < 1:
                raise ValueError(f"bad repeat count in profile entry {entry!r}")
            count = int(count_s)
        if head == "f":
            profile.extend([None] * count)
            continue
        if not head.isdigit():
            raise ValueError(f"bad mask width in profile entry {entry!r}")
        mask_levels(int(head))  # range check, 1..5
        profile.extend([int(head)] * count)
    if n_layers is not None and len(profile) != n_layers:
        raise ValueError(
            f"profile {text!r} covers {len(profile)} layers, network has {n_layers}")
    return profile


def _checked_profile(net: NetworkDefinition, profile) -> list[int]:
    shapes = net.conv_layer_shapes()
    prof = list(profile)
    if len(prof) != len(shapes):
        raise ValueError(f"profile covers {len(prof)} layers, network has {len(shapes)}")
    for m in prof:
        if m is None:
            raise ValueError("float-layer sentinel not allowed here; profile must be all-integer")
        mask_levels(int(m))
    return [int(m) for m in prof]


def model_ratio(net: NetworkDefinition, profile, scalar_bits: int = 8) -> float:
    """Overall conv-weight compression ratio under a per-layer profile."""
    prof = _checked_profile(net, profile)
    pairs = [s.out_channels * s.in_channels for s in net.conv_layer_shapes()]
    float_bits = sum(KERNEL_BITS_FLOAT * p for p in pairs)
    packed_bits = sum(p * (KERNEL_WEIGHTS * m + scalar_bits) for p, m in zip(pairs, prof))
    return float_bits / packed_bits


def parameter_count(net: NetworkDefinition) -> int:
    """Weights plus biases across conv and dense layers."""
    return (sum(s.weight_count() + s.out_channels for s in net.conv_layer_shapes())
            + sum(o * i + o for o, i in dense_shapes(net)))


class ModelSizes(NamedTuple):
    float_bytes: int
    compressed_bytes: int


def model_sizes(net: NetworkDefinition, profile, policy: str = DEFAULT_POLICY,
                source_checksum: str = "") -> ModelSizes:
    """Exact byte sizes: float32 parameters vs the encoded container.

    compressed_bytes equals len(encode(model)) for any model with this
    architecture, profile, policy and checksum — the metadata block is
    measured by serializing it with zero-filled dense payloads.
    """
    prof = _checked_profile(net, profile)
    float_bytes = 4 * parameter_count(net)
    compressed = 7  # magic + version + layer count
    for shape, m in zip(net.conv_layer_shapes(), prof):
        pairs = shape.out_channels * shape.in_channels
        compressed += 8                                        # layer header
        compressed += pairs                                    # scalars
        compressed += -(-pairs * KERNEL_WEIGHTS * m // 8)      # masks
        compressed += -(-shape.out_channels * BIAS_BITS // 8)  # biases
    zero_dense = [(np.zeros((o, i), np.float32), np.zeros(o, np.float32))
                  for o, i in dense_shapes(net)]
    compressed += 4 + len(_metadata_bytes(net, zero_dense, policy, source_checksum))
    return ModelSizes(float_bytes, compressed)


# ---------------------------------------------------------------------------
# the container type

@dataclass(frozen=True, eq=False)
class CompressedModel:
    """Immutable: layers and dense pairs become tuples, every array read-only.
    It builds one dequantized weight set on first use and keeps it while it
    lives; a dataclasses.replace copy builds its own. Threads racing on first
    use may each build identical weights (no lock on Python 3.12+); one is kept."""

    network: NetworkDefinition
    layers: tuple[QuantizedLayer, ...]
    dense: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    policy: str = DEFAULT_POLICY
    source_checksum: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "dense", tuple((w, b) for w, b in self.dense))
        for w, b in self.dense:
            w.flags.writeable = b.flags.writeable = False

    @property
    def profile(self) -> list[int]:
        return [layer.mask_bits for layer in self.layers]

    @cached_property
    def dequantized(self) -> FloatModel:
        weights = dequantized_float_model(self)
        for array in weights.arrays():
            array.flags.writeable = False
        return weights

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompressedModel):
            return NotImplemented
        return (self.network == other.network
                and self.layers == other.layers
                and len(self.dense) == len(other.dense)
                and all(np.array_equal(a, c) and np.array_equal(b, d)
                        for (a, b), (c, d) in zip(self.dense, other.dense))
                and self.policy == other.policy
                and self.source_checksum == other.source_checksum)


def quantize_conv_layers(net: NetworkDefinition, conv, profile, policy: str = DEFAULT_POLICY,
                         shift_scope: str = "layer") -> list[QuantizedLayer | None]:
    """One QuantizedLayer per conv layer, None where the profile entry is None.

    shift_scope "layer" picks each conv layer's shift from its own alphas;
    "global" derives one shift from the maximum alpha across quantized layers.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if shift_scope not in SHIFT_SCOPES:
        raise ValueError(f"shift_scope must be one of {SHIFT_SCOPES}, got {shift_scope!r}")
    shapes = net.conv_layer_shapes()
    if len(profile) != len(shapes):
        raise ValueError(f"profile covers {len(profile)} layers, network has {len(shapes)}")
    override = (global_shift([w for w, _ in conv], profile, policy)
                if shift_scope == "global" else None)
    return [None if m is None else quantize_layer(w, b, int(m), policy, shape.stride,
                                                  shape.padding, shift_override=override)
            for shape, (w, b), m in zip(shapes, conv, profile)]


def build_compressed_model(net: NetworkDefinition, model: FloatModel, profile,
                           policy: str = DEFAULT_POLICY,
                           shift_scope: str = "layer") -> CompressedModel:
    """Container of quantize_conv_layers' layers; no profile entry may be None."""
    check_model_matches(net, model)
    layers = quantize_conv_layers(net, model.conv, _checked_profile(net, profile), policy,
                                  shift_scope)
    dense = [(np.asarray(w, np.float32), np.asarray(b, np.float32)) for w, b in model.dense]
    return CompressedModel(net, layers, dense, policy, model_checksum(model))


def dequantized_float_model(model: CompressedModel) -> FloatModel:
    """Reconstruct float weights from the container (dense head widened)."""
    return FloatModel([dequantize_layer(layer) for layer in model.layers],
                      [(np.asarray(w, np.float64), np.asarray(b, np.float64))
                       for w, b in model.dense])


# ---------------------------------------------------------------------------
# bit packing

def _pack_fields(values: np.ndarray, width: int) -> bytes:
    vals = np.asarray(values, np.int16).ravel()
    bits = np.empty((vals.size, width), np.uint8)
    for j in range(width):
        bits[:, j] = (vals >> (width - 1 - j)) & 1
    return np.packbits(bits).tobytes()


def _unpack_fields(packed: np.ndarray, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(packed, count=count * width).reshape(count, width)
    fields = np.negative(bits[:, 0], dtype=np.int16)  # the sign bit weighs -2**(width-1)
    for j in range(1, width):
        fields <<= 1
        fields |= bits[:, j]
    return fields


# ---------------------------------------------------------------------------
# encode / decode

def _metadata_bytes(net: NetworkDefinition, dense, policy: str, source: str) -> bytes:
    payload = {
        "dense": [
            {
                "b": base64.b64encode(np.ascontiguousarray(b, np.float32).tobytes()).decode(),
                "shape": [int(w.shape[0]), int(w.shape[1])],
                "w": base64.b64encode(np.ascontiguousarray(w, np.float32).tobytes()).decode(),
            }
            for w, b in dense
        ],
        "network": net.to_text(),
        "policy": policy,
        "source": source,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def encode(model: CompressedModel) -> bytes:
    shapes = model.network.conv_layer_shapes()
    if len(model.layers) != len(shapes):
        raise EncodeError(
            f"model has {len(model.layers)} quantized layers, network has {len(shapes)}")
    blob = bytearray()
    blob += MAGIC
    blob += pack("<BH", "header (version, layer count)", VERSION, len(model.layers))
    for i, (layer, shape) in enumerate(zip(model.layers, shapes)):
        if layer.shape != shape:
            raise EncodeError(f"layer {i}: geometry {layer.shape} != network's {shape}")
        try:
            layer.validate()
        except ValueError as err:
            raise EncodeError(f"layer {i}: {err}") from err
        blob += pack("<HHBBBb", f"layer {i} header (out, in, stride, padding, m, e)",
                     shape.out_channels, shape.in_channels, shape.stride, shape.padding,
                     layer.mask_bits, layer.shift)
        blob += np.ascontiguousarray(layer.scalars, np.uint8).tobytes()
        if layer.mask_bits == 1:
            blob += np.packbits(layer.masks.ravel() > 0).tobytes()
        else:
            blob += _pack_fields(layer.masks, layer.mask_bits)
        blob += _pack_fields(layer.biases, BIAS_BITS)
    meta = _metadata_bytes(model.network, model.dense, model.policy, model.source_checksum)
    blob += pack("<I", "metadata length", len(meta))
    blob += meta
    return bytes(blob)


def decode(data: bytes) -> CompressedModel:
    return _decode(Reader(data, MAGIC, _KIND))


def _decode(rd: Reader) -> CompressedModel:
    version, layer_count = rd.unpack("<BH", "header")
    if version != VERSION:
        raise UnsupportedVersionError(f"container version {version}, expected {VERSION}")

    raw_layers = []
    for i in range(layer_count):
        out, cin, stride, padding, m, e = rd.unpack("<HHBBBb", f"layer {i} header")
        if not 1 <= m <= 5:
            raise CorruptionError(f"layer {i}: mask width {m} outside 1..5")
        if not SHIFT_MIN <= e <= SHIFT_MAX:
            raise CorruptionError(f"layer {i}: shift {e} outside [{SHIFT_MIN}, {SHIFT_MAX}]")
        if out == 0 or cin == 0:
            raise CorruptionError(f"layer {i}: zero channel count")
        pairs = out * cin
        scalars = rd.array(np.uint8, pairs, f"layer {i} scalars")
        mask_bytes = -(-pairs * KERNEL_WEIGHTS * m // 8)
        packed = rd.array(np.uint8, mask_bytes, f"layer {i} masks")
        if m == 1:
            masks = np.unpackbits(packed, count=pairs * KERNEL_WEIGHTS).view(np.int8) * 2 - 1
        else:
            masks = _unpack_fields(packed, m, pairs * KERNEL_WEIGHTS)
            if np.abs(masks).max(initial=0) > mask_levels(m):
                raise CorruptionError(f"layer {i}: mask value -{2 ** (m - 1)} is not encodable")
            masks = masks.astype(np.int8)
        bias_bytes = -(-out * BIAS_BITS // 8)
        biases = _unpack_fields(rd.array(np.uint8, bias_bytes, f"layer {i} biases"), BIAS_BITS, out)
        raw_layers.append(((out, cin, stride, padding), m, e, scalars, masks, biases))

    (meta_len,) = rd.unpack("<I", "metadata length")
    meta_raw = rd.take(meta_len, "metadata block")
    rd.finish()
    try:
        meta = json.loads(meta_raw.decode())
        net = parse_network(meta["network"])
        policy = meta["policy"]
        source = meta["source"]
        if not isinstance(source, str):
            raise TypeError(f"source {source!r} is not a string")
        dense = []
        for entry in meta["dense"]:
            o, i = (int(v) for v in entry["shape"])
            w = np.frombuffer(base64.b64decode(entry["w"]), np.float32).reshape(o, i)
            b = np.frombuffer(base64.b64decode(entry["b"]), np.float32)
            if b.shape != (o,):
                raise ValueError(f"dense bias length {b.shape[0]} != {o}")
            dense.append((w, b))
    except (KeyError, ValueError, TypeError, AttributeError) as err:  # any JSON shape
        raise CorruptionError(f"bad metadata block: {err}") from err
    if policy not in POLICIES:
        raise CorruptionError(f"unknown policy {policy!r} in metadata")

    shapes = net.conv_layer_shapes()
    if len(shapes) != layer_count:
        raise CorruptionError(
            f"metadata architecture has {len(shapes)} conv layers, stream has {layer_count}")
    layers = []
    for i, (shape, (geometry, m, e, scalars, masks, biases)) in enumerate(zip(shapes, raw_layers)):
        out, cin = shape.out_channels, shape.in_channels
        if geometry != (out, cin, shape.stride, shape.padding):
            raise CorruptionError(
                f"layer {i}: header geometry {geometry} disagrees with architecture {shape}")
        layers.append(QuantizedLayer(
            shape=shape, mask_bits=m, shift=e, scalars=scalars.reshape(out, cin).copy(),
            masks=masks.reshape(out, cin, KERNEL_WEIGHTS), biases=biases))
    expected, stored = dense_shapes(net), [w.shape for w, _ in dense]
    if stored != expected:
        raise CorruptionError(
            f"dense head shapes {stored} disagree with architecture {expected}")
    return CompressedModel(net, layers, dense, policy, source)


def save_model(path, model: CompressedModel) -> None:
    Path(path).write_bytes(encode(model))


def load_model(path) -> CompressedModel:
    return _decode(Reader(Path(path).read_bytes(), MAGIC, _KIND, path))
