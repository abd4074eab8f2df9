"""Span tracing around qnip's public functions, installed from outside.

A Tracer replaces each traced function with a wrapper on every qnip
module attribute that refers to it, so the wrapper is seen both by
callers that look the name up through its home module at call time
(``ops.conv2d`` inside ``engine``) and by modules that imported the
name directly (``engine.dequantized_float_model``,
``train.quantize_layer``). Spans (name, start, end, parent, phase) stay
in memory until the run ends; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls and self time the traced run reports.
TRACED = (
    ("ops", "conv2d"), ("ops", "im2col"), ("ops", "maxpool2x2"),
    ("ops", "fully_connected"), ("ops", "col2im"), ("ops", "softmax_cross_entropy"),
    ("ops", "resize_bilinear"), ("ops", "crop"), ("ops", "rotate90"),
    ("engine", "forward"), ("engine", "calibrate_activation_exponents"),
    ("codec", "dequantized_float_model"), ("codec", "build_compressed_model"),
    ("codec", "encode"), ("codec", "decode"),
    ("quantize", "quantize_layer"), ("quantize", "dequantize_layer"),
    ("descriptor", "extract_nip"), ("descriptor", "extract_rnip"),
    ("descriptor", "nip_pool"), ("descriptor", "convert_descriptor"),
    ("descriptor", "save_descriptors"), ("descriptor", "load_descriptors"),
    ("retrieval", "build_index"), ("retrieval", "search"), ("retrieval", "evaluate"),
    ("train", "train_float"), ("train", "retrain_quantized"),
    ("network", "init_float_model"),
    ("datasets", "make_shapes_dataset"), ("datasets", "make_retrieval_corpus"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def forward_cost(net) -> tuple[int, int]:
    """(MACs, bytes) of one engine.forward call, computed from shapes.

    Bytes count every layer's input activations, weights and output
    activations once at 8 bytes per element (float64 or int64).
    """
    from qnip.network import ConvSpec, DenseSpec, propagate_shapes

    macs = nbytes = 0
    in_shape = net.input_shape
    for spec, out_shape in zip(net.layers, propagate_shapes(net)):
        n_in = math.prod(in_shape)
        n_out = math.prod(out_shape)
        weights = 0
        if isinstance(spec, ConvSpec):
            weights = out_shape[0] * in_shape[0] * 9
            macs += weights * out_shape[1] * out_shape[2]
        elif isinstance(spec, DenseSpec):
            weights = n_out * n_in
            macs += weights
        nbytes += 8 * (n_in + weights + n_out)
        in_shape = out_shape
    return macs, nbytes


class Tracer:
    """Records one span per call of every traced function."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, phase]
        self.phase = "setup"
        self.forward_macs = 0
        self.forward_bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._costs: dict[int, tuple[int, int]] = {}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qnip" or name.startswith("qnip.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"qnip.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_forward = name == "engine.forward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_forward:
                self._count_forward(args[0] if args else kwargs["net"])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def _count_forward(self, net) -> None:
        cost = self._costs.get(id(net))
        if cost is None:
            cost = self._costs[id(net)] = forward_cost(net)
        self.forward_macs += cost[0]
        self.forward_bytes += cost[1]

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds).

        Self time is the span's duration minus the durations of its
        direct children, which nest inside it on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        return {name: (calls[name], self_s[name]) for name in SPAN_NAMES}

    def count(self, name: str, phase: str) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] == phase)

    def mean_duration(self, name: str, phase: str) -> float | None:
        times = [s[2] - s[1] for s in self.spans if s[0] == name and s[4] == phase]
        return sum(times) / len(times) if times else None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
