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
from .ops import KERNEL_SIZE, ShapeError, conv_output_hw

__all__ = [
    "ConvSpec", "PoolSpec", "FlattenSpec", "DenseSpec", "NetworkDefinition",
    "NetworkConfigError", "parse_network", "load_network", "propagate_shapes",
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


def _derived():
    """A field NetworkDefinition works out from the others when it is built."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class NetworkDefinition:
    """An architecture whose layer chain is checked once, when it is built.

    Building one (replace included) walks the layers from input_shape, three
    positive dims, and raises NetworkConfigError unless each conv's
    in_channels matches the map it reads and it leaves output pixels, each
    pool gets even spatial dims, only dense layers follow flatten and each
    dense follows it, and tap_index names a conv (so there is at least one).
    What the walk finds is kept in fields that equality, hashing and repr
    ignore: the activation shape after each layer, the tap shape, the conv
    and dense specs, and a (w, b) shape pair for each conv, then each dense,
    which flattened is the FloatModel.arrays order.
    """

    input_shape: tuple[int, int, int]          # C, H, W
    layers: tuple[LayerSpec, ...]
    tap_index: int                             # 0-based conv ordinal
    activation_shapes: tuple[tuple[int, ...], ...] = _derived()
    tap_shape: tuple[int, int, int] = _derived()
    conv_specs: tuple[ConvSpec, ...] = _derived()
    dense_specs: tuple[DenseSpec, ...] = _derived()
    param_shapes: tuple[tuple[tuple[int, ...], tuple[int]], ...] = _derived()

    def __post_init__(self):
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise NetworkConfigError(f"input shape {self.input_shape} is not three positive dims")
        cur = self.input_shape
        shapes, params, conv_outputs = [], [], []
        for i, spec in enumerate(self.layers, start=1):
            if len(cur) == 1 and not isinstance(spec, DenseSpec):
                raise NetworkConfigError(f"layer {i}: only dense layers may follow flatten")
            if isinstance(spec, ConvSpec):
                if spec.in_channels != cur[0]:
                    raise NetworkConfigError(
                        f"layer {i}: conv takes {spec.in_channels} channels, gets {cur[0]}")
                try:
                    cur = (spec.out_channels, *conv_output_hw(cur[1], cur[2], spec.stride,
                                                             spec.padding))
                except ShapeError as err:
                    raise NetworkConfigError(f"layer {i}: {err}") from None
                params.append(((spec.out_channels, spec.in_channels, KERNEL_SIZE, KERNEL_SIZE),
                               (spec.out_channels,)))
                conv_outputs.append(cur)
            elif isinstance(spec, PoolSpec):
                if cur[1] % 2 or cur[2] % 2:
                    raise NetworkConfigError(
                        f"layer {i}: pool needs even spatial dims, has {cur[1]}x{cur[2]}")
                cur = (cur[0], cur[1] // 2, cur[2] // 2)
            elif isinstance(spec, FlattenSpec):
                cur = (math.prod(cur),)
            else:
                if len(cur) != 1:
                    raise NetworkConfigError(f"layer {i}: dense before flatten")
                params.append(((spec.out_features, cur[0]), (spec.out_features,)))
                cur = (spec.out_features,)
            shapes.append(cur)
        if not conv_outputs:
            raise NetworkConfigError("network needs at least one conv layer")
        if not 0 <= self.tap_index < len(conv_outputs):
            raise NetworkConfigError(f"tap index {self.tap_index} names no conv layer")
        derived = dict(activation_shapes=tuple(shapes), tap_shape=conv_outputs[self.tap_index],
                       conv_specs=tuple(l for l in self.layers if isinstance(l, ConvSpec)),
                       dense_specs=tuple(l for l in self.layers if isinstance(l, DenseSpec)),
                       param_shapes=tuple(params))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

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
    if len(tap_marks) > 1:
        raise NetworkConfigError(f"multiple tap markers: conv ordinals {tap_marks}")
    return NetworkDefinition(input_shape, tuple(layers),
                             tap_marks[0] if tap_marks else conv_count - 1)


def load_network(path) -> NetworkDefinition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def propagate_shapes(net: NetworkDefinition) -> list[tuple[int, ...]]:
    """Activation shape after each layer, as net found it when built."""
    return list(net.activation_shapes)


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
    """He-normal weights and zero biases, drawn layer by layer in param_shapes
    order; a weight's fan-in is the product of its shape past the first axis."""
    pairs = [(rng.normal(0.0, np.sqrt(2.0 / math.prod(w[1:])), size=w), np.zeros(b))
             for w, b in net.param_shapes]
    n_conv = len(net.conv_specs)
    return FloatModel(conv=pairs[:n_conv], dense=pairs[n_conv:])


def check_model_matches(net: NetworkDefinition, model: FloatModel) -> None:
    """Raise ValueError unless model holds net.param_shapes, layer by layer."""
    n_conv, n_dense = len(net.conv_specs), len(net.dense_specs)
    if (len(model.conv), len(model.dense)) != (n_conv, n_dense):
        raise ValueError(f"model has {len(model.conv)} conv and {len(model.dense)} dense "
                         f"layers, net expects {n_conv} and {n_dense}")
    names = [f"conv{i + 1}" for i in range(n_conv)] + [f"dense{i + 1}" for i in range(n_dense)]
    for name, (w, b), want in zip(names, (*model.conv, *model.dense), net.param_shapes):
        if (np.shape(w), np.shape(b)) != want:
            raise ValueError(f"{name}: weights {np.shape(w)} and bias {np.shape(b)} "
                             f"!= {want[0]} and {want[1]}")


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
