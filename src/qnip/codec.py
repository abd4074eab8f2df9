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
EncodeError before save_model writes anything. A layer header's geometry
(out, in, stride, padding) is written from the network's conv_specs, and
on decode is checked against the network in the metadata block.
CompressedModel and QuantizedLayer check themselves when built, so encode
is only handed valid containers; decode builds both as it reads and
reports what they refuse as CorruptionError.

Masks are two's complement within their m bits, except m = 1 where the
single bit encodes +1 (1) or -1 (0). A section packs as one (count, m) uint8
bit array through np.packbits and unpacks by shift-or over its bit columns
into int16. The metadata block carries the architecture text, quantization
policy, a checksum of the source float weights, and any dense classifier
head as base64 float32 arrays — dense layers are outside the 3x3-conv
compression scheme and ride along uncompressed so a checkpoint stays
self-contained.

The number format (field widths, mask widths, shift range, the 2**(e-8)
grid) is stated in quantize; this module lays it out in bytes.
"""
from __future__ import annotations

import base64
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binfile import (CodecError, CorruptionError, EncodeError,  # noqa: F401 (re-exported)
                      FormatError, Reader, TruncationError, pack)
from .network import (ConvSpec, FloatModel, NetworkDefinition, check_model_matches,
                      model_checksum, parse_network)
from .ops import KERNEL_WEIGHTS
from .quantize import (BIAS_BITS, DEFAULT_POLICY, MASK_BITS_RANGE, POLICIES, SCALAR_BITS,
                       QuantizedLayer, dequantize_layer, finish_layer, fit_layer,
                       global_shift, mask_width, quantize_layer)

MAGIC = b"QCM2"
_KIND = "a compressed-model container"
VERSION = 1
KERNEL_BITS_FLOAT = 32 * KERNEL_WEIGHTS  # 288 bits per float32 kernel
SHIFT_SCOPES = ("layer", "global")


class UnsupportedVersionError(CodecError):
    pass


# ---------------------------------------------------------------------------
# accounting

def ratio_formula(mask_bits: int, scalar_bits: int = SCALAR_BITS) -> float:
    """Per-kernel compression ratio 32z / (zm + s), z = 9 float32 weights per kernel."""
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
        profile.extend([mask_width(int(head))] * count)
    if n_layers is not None and len(profile) != n_layers:
        raise ValueError(
            f"profile {text!r} covers {len(profile)} layers, network has {n_layers}")
    return profile


def _checked_profile(net: NetworkDefinition, profile) -> list[int]:
    prof = list(profile)
    if len(prof) != len(net.conv_specs):
        raise ValueError(f"profile covers {len(prof)} layers, network has {len(net.conv_specs)}")
    if None in prof:
        raise ValueError("float-layer sentinel not allowed here; profile must be all-integer")
    return [mask_width(m) for m in prof]


def model_ratio(net: NetworkDefinition, profile) -> float:
    """Overall conv-weight compression ratio under a per-layer profile."""
    prof = _checked_profile(net, profile)
    pairs = [s.out_channels * s.in_channels for s in net.conv_specs]
    float_bits = sum(KERNEL_BITS_FLOAT * p for p in pairs)
    packed_bits = sum(p * (KERNEL_WEIGHTS * m + SCALAR_BITS) for p, m in zip(pairs, prof))
    return float_bits / packed_bits


def parameter_count(net: NetworkDefinition) -> int:
    """Weights plus biases across conv and dense layers."""
    return sum(math.prod(w) + math.prod(b) for w, b in net.param_shapes)


def _section_bytes(out: int, cin: int, mask_bits: int) -> tuple[int, int]:
    """Byte sizes of one layer's mask and bias sections."""
    return -(-out * cin * KERNEL_WEIGHTS * mask_bits // 8), -(-out * BIAS_BITS // 8)


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
    for shape, m in zip(net.conv_specs, prof):
        out, cin = shape.out_channels, shape.in_channels
        compressed += 8 + out * cin + sum(_section_bytes(out, cin, m))  # header, scalars
    zero_dense = [(np.zeros(w, np.float32), np.zeros(b, np.float32))
                  for w, b in net.param_shapes[len(net.conv_specs):]]
    compressed += 4 + len(_metadata_bytes(net, zero_dense, policy, source_checksum))
    return ModelSizes(float_bytes, compressed)


# ---------------------------------------------------------------------------
# the container type

@dataclass(frozen=True, eq=False)
class CompressedModel:
    """Immutable: layers and dense pairs become tuples, every array read-only,
    and the dense head float32 (copied only when it is not). Building one
    (replace included) raises ValueError unless its layers and dense head
    match the network, its policy is one of POLICIES and its source
    checksum is a string. It builds one dequantized weight set on first
    use and keeps it while it lives; a dataclasses.replace copy builds its own.
    Threads racing on first use may each build identical weights (no lock on
    Python 3.12+); one is kept."""

    network: NetworkDefinition
    layers: tuple[QuantizedLayer, ...]
    dense: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    policy: str = DEFAULT_POLICY
    source_checksum: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "dense", tuple(
            (np.asarray(w, np.float32), np.asarray(b, np.float32)) for w, b in self.dense))
        specs = self.network.conv_specs
        if len(self.layers) != len(specs):
            raise ValueError(
                f"model has {len(self.layers)} quantized layers, network has {len(specs)}")
        for i, (layer, spec) in enumerate(zip(self.layers, specs)):
            if layer.scalars.shape != (spec.out_channels, spec.in_channels):
                raise ValueError(f"layer {i}: geometry (out, in) {layer.scalars.shape} "
                                 f"!= network's {spec}")
        expected = self.network.param_shapes[len(specs):]
        stored = tuple((w.shape, b.shape) for w, b in self.dense)
        if stored != expected:
            raise ValueError(f"dense head shapes {stored} disagree with architecture {expected}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if not isinstance(self.source_checksum, str):
            raise ValueError(f"source checksum {self.source_checksum!r} is not a string")
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

    shift_scope "layer" quantizes each conv layer with its own shift
    (quantize_layer). "global" fits every quantized layer's alphas and
    masks once, takes one shift from the peak alpha across them and
    finishes each layer under it.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if shift_scope not in SHIFT_SCOPES:
        raise ValueError(f"shift_scope must be one of {SHIFT_SCOPES}, got {shift_scope!r}")
    if len(profile) != len(net.conv_specs):
        raise ValueError(f"profile covers {len(profile)} layers, network has {len(net.conv_specs)}")
    if shift_scope == "layer":
        return [None if m is None else quantize_layer(w, b, m, policy)
                for (w, b), m in zip(conv, profile)]
    fits = [None if m is None else fit_layer(w, b, m, policy)
            for (w, b), m in zip(conv, profile)]
    e = global_shift([fit.alphas for fit in fits if fit is not None])
    return [None if fit is None else finish_layer(fit, e) for fit in fits]


def build_compressed_model(net: NetworkDefinition, model: FloatModel, profile,
                           policy: str = DEFAULT_POLICY,
                           shift_scope: str = "layer") -> CompressedModel:
    """Container of quantize_conv_layers' layers; no profile entry may be None.

    The source checksum (model_checksum, a sha256 over the float weights) is
    hashed on one worker thread while this thread quantizes; hashlib and
    NumPy both release the GIL, so the two overlap. The worker is joined
    before this returns or raises, and an error from either side propagates.
    """
    check_model_matches(net, model)
    profile = _checked_profile(net, profile)
    with ThreadPoolExecutor(max_workers=1) as pool:
        checksum = pool.submit(model_checksum, model)
        layers = quantize_conv_layers(net, model.conv, profile, policy, shift_scope)
        return CompressedModel(net, layers, model.dense, policy, checksum.result())


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
        "dense": [{"b": base64.b64encode(b.tobytes()).decode(), "shape": list(w.shape),
                   "w": base64.b64encode(w.tobytes()).decode()} for w, b in dense],  # float32
        "network": net.to_text(),
        "policy": policy,
        "source": source,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def encode(model: CompressedModel) -> bytes:
    blob = bytearray(MAGIC)
    blob += pack("<BH", "header (version, layer count)", VERSION, len(model.layers))
    for i, (layer, shape) in enumerate(zip(model.layers, model.network.conv_specs)):
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

    layers, geometry = [], []
    for i in range(layer_count):
        out, cin, stride, padding, m, e = rd.unpack("<HHBBBb", f"layer {i} header")
        if not MASK_BITS_RANGE[0] <= m <= MASK_BITS_RANGE[1]:
            raise CorruptionError(f"layer {i}: mask width {m} outside "
                                  f"{MASK_BITS_RANGE[0]}..{MASK_BITS_RANGE[1]}")
        pairs = out * cin
        mask_bytes, bias_bytes = _section_bytes(out, cin, m)
        scalars = rd.array(np.uint8, pairs, f"layer {i} scalars")
        packed = rd.array(np.uint8, mask_bytes, f"layer {i} masks")
        if m == 1:
            masks = np.unpackbits(packed, count=pairs * KERNEL_WEIGHTS).view(np.int8) * 2 - 1
        else:
            masks = _unpack_fields(packed, m, pairs * KERNEL_WEIGHTS).astype(np.int8)
        biases = _unpack_fields(rd.array(np.uint8, bias_bytes, f"layer {i} biases"), BIAS_BITS, out)
        try:
            geometry.append(ConvSpec(out, cin, stride, padding))
            layers.append(QuantizedLayer(
                mask_bits=m, shift=e, scalars=scalars.reshape(out, cin).copy(),
                masks=masks.reshape(out, cin, KERNEL_WEIGHTS), biases=biases))
        except ValueError as err:  # ShapeError included
            raise CorruptionError(f"layer {i}: {err}") from err

    (meta_len,) = rd.unpack("<I", "metadata length")
    meta_raw = rd.take(meta_len, "metadata block")
    rd.finish()
    try:
        meta = json.loads(meta_raw.decode())
        net = parse_network(meta["network"])
        policy = meta["policy"]
        source = meta["source"]
        dense = []
        for entry in meta["dense"]:
            o, i = (int(v) for v in entry["shape"])
            w = np.frombuffer(base64.b64decode(entry["w"]), np.float32).reshape(o, i)
            dense.append((w, np.frombuffer(base64.b64decode(entry["b"]), np.float32)))
    except (KeyError, ValueError, TypeError, AttributeError) as err:  # any JSON shape
        raise CorruptionError(f"bad metadata block: {err}") from err
    if len(geometry) == len(net.conv_specs):  # else CompressedModel reports the count
        for i, (got, want) in enumerate(zip(geometry, net.conv_specs)):
            if got != want:
                raise CorruptionError(f"layer {i}: geometry {got} != network's {want}")
    try:
        return CompressedModel(net, layers, dense, policy, source)
    except ValueError as err:  # metadata the container type refuses
        raise CorruptionError(str(err)) from err


def save_model(path, model: CompressedModel) -> None:
    Path(path).write_bytes(encode(model))


def load_model(path) -> CompressedModel:
    return _decode(Reader(Path(path).read_bytes(), MAGIC, _KIND, path))
