"""Network architecture descriptions and full-precision model containers.

Architectures are written in a small line-based plain-text grammar::

    # comment
    input C H W
    conv OUT [stride=S] [pad=P] [tap]
    pool
    flatten
    dense OUT

``conv`` is always a 3x3 kernel followed by ReLU; ``pool`` is 2x2 max
pooling. ``tap`` marks the conv output used for descriptor extraction
(default: the last conv layer). Conv layers are named conv1..convN in
order of appearance.

Full-precision weights travel in a flat float64 container (magic "QFW1")
rather than .npz — zip archives embed timestamps, and re-running a
pipeline must produce byte-identical files. Layout: u16 conv count, u16
dense count, then per array (w, b of each layer in order) a u8 rank, u32
dims and the float64 LE values. load_float_model and save_float_model
follow the read and write contracts of binfile.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import Reader, pack
from .ops import ShapeError

__all__ = [
    "ConvSpec", "PoolSpec", "FlattenSpec", "DenseSpec", "NetworkDefinition",
    "NetworkConfigError", "parse_network", "load_network", "propagate_shapes",
    "dense_shapes",
    "FloatModel", "init_float_model", "save_float_model", "load_float_model",
    "model_checksum",
]

FLOAT_MAGIC = b"QFW1"


class NetworkConfigError(ValueError):
    """Malformed network configuration text."""


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one 3x3 conv layer, input channel count included."""

    out_channels: int
    in_channels: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1:
            raise ShapeError(f"channel counts must be positive, got {self}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")


@dataclass(frozen=True)
class PoolSpec:
    pass


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DenseSpec:
    out_features: int


LayerSpec = ConvSpec | PoolSpec | FlattenSpec | DenseSpec


@dataclass(frozen=True)
class NetworkDefinition:
    input_shape: tuple[int, int, int]          # C, H, W
    layers: tuple[LayerSpec, ...]
    tap_index: int                             # 0-based conv ordinal

    @property
    def conv_specs(self) -> tuple[ConvSpec, ...]:
        return tuple(l for l in self.layers if isinstance(l, ConvSpec))

    @property
    def dense_specs(self) -> tuple[DenseSpec, ...]:
        return tuple(l for l in self.layers if isinstance(l, DenseSpec))

    @property
    def tap_name(self) -> str:
        return f"conv{self.tap_index + 1}"

    def to_text(self) -> str:
        lines = ["input {} {} {}".format(*self.input_shape)]
        conv_i = 0
        for spec in self.layers:
            if isinstance(spec, ConvSpec):
                parts = [f"conv {spec.out_channels}"]
                if spec.stride != 1:
                    parts.append(f"stride={spec.stride}")
                if spec.padding != 0:
                    parts.append(f"pad={spec.padding}")
                if conv_i == self.tap_index:
                    parts.append("tap")
                lines.append(" ".join(parts))
                conv_i += 1
            elif isinstance(spec, PoolSpec):
                lines.append("pool")
            elif isinstance(spec, FlattenSpec):
                lines.append("flatten")
            else:
                lines.append(f"dense {spec.out_features}")
        return "\n".join(lines) + "\n"


def _positive_int(token: str, what: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise NetworkConfigError(f"line {line_no}: {what} must be an integer, got {token!r}")
    if value < 1:
        raise NetworkConfigError(f"line {line_no}: {what} must be positive, got {value}")
    return value


def parse_network(text: str) -> NetworkDefinition:
    input_shape = None
    layers: list[LayerSpec] = []
    tap_marks: list[int] = []
    conv_count = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind != "input" and input_shape is None:
            raise NetworkConfigError(f"line {line_no}: input must come first")
        if kind == "input":
            if input_shape is not None:
                raise NetworkConfigError(f"line {line_no}: duplicate input line")
            if len(args) != 3:
                raise NetworkConfigError(f"line {line_no}: input takes C H W")
            input_shape = tuple(_positive_int(a, "input dimension", line_no) for a in args)
            cin = input_shape[0]
        elif kind == "conv":
            if not args:
                raise NetworkConfigError(f"line {line_no}: conv needs an output channel count")
            out = _positive_int(args[0], "conv channels", line_no)
            stride, padding = 1, 0
            for extra in args[1:]:
                if extra == "tap":
                    tap_marks.append(conv_count)
                elif extra.startswith("stride="):
                    stride = _positive_int(extra[7:], "stride", line_no)
                elif extra.startswith("pad="):
                    padding = int(extra[4:]) if extra[4:].isdigit() else -1
                    if padding < 0:
                        raise NetworkConfigError(f"line {line_no}: bad pad value {extra!r}")
                else:
                    raise NetworkConfigError(f"line {line_no}: unknown conv option {extra!r}")
            layers.append(ConvSpec(out, cin, stride, padding))
            cin = out
            conv_count += 1
        elif kind == "pool":
            layers.append(PoolSpec())
        elif kind == "flatten":
            layers.append(FlattenSpec())
        elif kind == "dense":
            if len(args) != 1:
                raise NetworkConfigError(f"line {line_no}: dense takes one feature count")
            layers.append(DenseSpec(_positive_int(args[0], "dense features", line_no)))
        else:
            raise NetworkConfigError(f"line {line_no}: unknown layer kind {kind!r}")

    if input_shape is None:
        raise NetworkConfigError("missing input line")
    if conv_count == 0:
        raise NetworkConfigError("network needs at least one conv layer")
    if len(tap_marks) > 1:
        raise NetworkConfigError(f"multiple tap markers: conv ordinals {tap_marks}")
    tap_index = tap_marks[0] if tap_marks else conv_count - 1

    net = NetworkDefinition(input_shape, tuple(layers), tap_index)
    propagate_shapes(net)  # surfaces incompatible layer chains at parse time
    return net


def load_network(path) -> NetworkDefinition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def propagate_shapes(net: NetworkDefinition) -> list[tuple[int, ...]]:
    """Activation shape after each layer; raises on an inconsistent chain."""
    from .ops import conv_output_hw  # local import keeps module load order simple

    shapes: list[tuple[int, ...]] = []
    cur: tuple[int, ...] = net.input_shape
    flattened = False
    for i, spec in enumerate(net.layers):
        if isinstance(spec, (ConvSpec, PoolSpec)) and flattened:
            raise NetworkConfigError(f"layer {i + 1}: spatial layer after flatten")
        if isinstance(spec, ConvSpec):
            h, w = conv_output_hw(cur[1], cur[2], spec.stride, spec.padding)
            cur = (spec.out_channels, h, w)
        elif isinstance(spec, PoolSpec):
            if cur[1] % 2 or cur[2] % 2:
                raise NetworkConfigError(
                    f"layer {i + 1}: pool needs even spatial dims, has {cur[1]}x{cur[2]}")
            cur = (cur[0], cur[1] // 2, cur[2] // 2)
        elif isinstance(spec, FlattenSpec):
            cur = (cur[0] * cur[1] * cur[2],)
            flattened = True
        else:
            if not flattened:
                raise NetworkConfigError(f"layer {i + 1}: dense before flatten")
            cur = (spec.out_features,)
        shapes.append(cur)
    return shapes


def dense_shapes(net: NetworkDefinition) -> list[tuple[int, int]]:
    """(out, in) of each dense layer, in order."""
    widths = [shape[0] for shape in propagate_shapes(net) if len(shape) == 1]
    return list(zip(widths[1:], widths))  # widths: flatten's output, then each dense's


def tap_shape(net: NetworkDefinition) -> tuple[int, int, int]:
    """C, H, W of the feature map at the tap point."""
    shapes = propagate_shapes(net)
    conv_i = -1
    for spec, shape in zip(net.layers, shapes):
        if isinstance(spec, ConvSpec):
            conv_i += 1
            if conv_i == net.tap_index:
                return shape  # type: ignore[return-value]
    raise NetworkConfigError(f"tap index {net.tap_index} names no conv layer")


@dataclass
class FloatModel:
    """Full-precision parameters: per-conv (w, b) and per-dense (w, b)."""

    conv: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    dense: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def arrays(self) -> list[np.ndarray]:
        """Every parameter array in the one fixed order: w, b of each conv, then each dense."""
        return [a for pair in (*self.conv, *self.dense) for a in pair]

    def copy(self) -> "FloatModel":
        return FloatModel(
            conv=[(w.copy(), b.copy()) for w, b in self.conv],
            dense=[(w.copy(), b.copy()) for w, b in self.dense],
        )


def init_float_model(net: NetworkDefinition, rng: np.random.Generator) -> FloatModel:
    """He-normal initialization matching the architecture."""
    model = FloatModel()
    for shape in net.conv_specs:
        fan_in = shape.in_channels * 9
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                       size=(shape.out_channels, shape.in_channels, 3, 3))
        model.conv.append((w, np.zeros(shape.out_channels)))
    for o, i in dense_shapes(net):
        w = rng.normal(0.0, np.sqrt(2.0 / i), size=(o, i))
        model.dense.append((w, np.zeros(o)))
    return model


def check_model_matches(net: NetworkDefinition, model: FloatModel) -> None:
    conv_shapes = net.conv_specs
    if len(model.conv) != len(conv_shapes):
        raise ValueError(f"model has {len(model.conv)} conv layers, net expects {len(conv_shapes)}")
    for i, (shape, (w, b)) in enumerate(zip(conv_shapes, model.conv)):
        want = (shape.out_channels, shape.in_channels, 3, 3)
        if w.shape != want:
            raise ValueError(f"conv{i + 1}: weights {w.shape} != {want}")
        if b.shape != (shape.out_channels,):
            raise ValueError(f"conv{i + 1}: bias {b.shape} != ({shape.out_channels},)")
    want = dense_shapes(net)
    if len(model.dense) != len(want):
        raise ValueError(f"model has {len(model.dense)} dense layers, net expects {len(want)}")
    for i, ((o, f), (w, b)) in enumerate(zip(want, model.dense)):
        if np.shape(w) != (o, f) or np.shape(b) != (o,):
            raise ValueError(f"dense{i + 1}: weights {np.shape(w)} and bias {np.shape(b)} "
                             f"!= ({o}, {f}) and ({o},)")


def save_float_model(path, model: FloatModel) -> None:
    blob = bytearray()
    blob += FLOAT_MAGIC
    blob += pack("<HH", "header (conv count, dense count)", len(model.conv), len(model.dense))
    for k, arr in enumerate(model.arrays()):
        arr = np.asarray(arr, dtype=np.float64)
        blob += pack(f"<B{arr.ndim}I", f"array {k} rank and shape", arr.ndim, *arr.shape)
        blob += arr.tobytes()
    Path(path).write_bytes(blob)


def load_float_model(path) -> FloatModel:
    return _parse_float_model(Reader(Path(path).read_bytes(), FLOAT_MAGIC,
                                     "a float model file", path))


def _parse_float_model(rd: Reader) -> FloatModel:
    n_conv, n_dense = rd.unpack("<HH", "header")
    arrays = []
    for k in range(2 * (n_conv + n_dense)):
        (ndim,) = rd.unpack("<B", f"array {k} rank")
        shape = rd.unpack(f"<{ndim}I", f"array {k} shape")
        values = rd.array(np.float64, math.prod(shape), f"array {k} values")
        arrays.append(values.reshape(shape).copy())
    rd.finish()
    pairs = list(zip(arrays[0::2], arrays[1::2]))
    return FloatModel(conv=pairs[:n_conv], dense=pairs[n_conv:])


def model_checksum(model: FloatModel) -> str:
    """sha256 over the flattened float64 parameters, for provenance fields."""
    digest = hashlib.sha256()
    for arr in model.arrays():
        digest.update(np.ascontiguousarray(arr, dtype=np.float64))
    return digest.hexdigest()
