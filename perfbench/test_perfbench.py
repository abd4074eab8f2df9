"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run each workload's traced pass once (about a minute in total) and
check that tracing leaves outputs bit-identical, that every traced
function fires on the workloads that call it, and that a seed always
generates the same inputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# Functions each workload must call (the "shows on" column of the layer table).
EXPECTED = {
    "train": ["ops.im2col", "ops.col2im", "ops.softmax_cross_entropy",
              "codec.build_compressed_model", "quantize.quantize_layer",
              "quantize.dequantize_layer", "train.train_float", "train.retrain_quantized",
              "network.init_float_model", "datasets.make_shapes_dataset"],
    "extract": ["ops.conv2d", "ops.im2col", "ops.maxpool2x2", "ops.fully_connected",
                "ops.resize_bilinear", "ops.crop", "ops.rotate90", "engine.forward",
                "engine.calibrate_activation_exponents", "codec.dequantized_float_model",
                "descriptor.extract_nip", "descriptor.extract_rnip", "descriptor.nip_pool",
                "network.init_float_model", "datasets.make_retrieval_corpus"],
    "vgg16": ["ops.conv2d", "ops.im2col", "ops.maxpool2x2", "engine.forward",
              "engine.calibrate_activation_exponents", "codec.dequantized_float_model",
              "codec.build_compressed_model", "codec.encode", "codec.decode",
              "quantize.quantize_layer", "quantize.dequantize_layer",
              "network.init_float_model", "datasets.make_retrieval_corpus"],
    "search": ["descriptor.convert_descriptor", "descriptor.save_descriptors",
               "descriptor.load_descriptors", "retrieval.build_index", "retrieval.search",
               "retrieval.evaluate"],
}
# Layers each workload must bypass (the "bypassed by" column).
BYPASSED = {
    "train": ["engine.forward", "ops.maxpool2x2", "retrieval.search"],
    "extract": ["ops.col2im", "retrieval.search", "train.train_float"],
    "vgg16": ["ops.col2im", "descriptor.extract_nip", "retrieval.search"],
    "search": ["ops.conv2d", "engine.forward", "codec.dequantized_float_model"],
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    name = request.param
    args = argparse.Namespace(workload=name, seed=0, seconds=1.0, trace=1)
    runner = run.Runner(WORKLOADS[name]())
    metrics, _, _, tracer = run.run_traced(runner, args, tmp_path_factory.mktemp(name))
    return name, runner, metrics, tracer


def test_traced_run_keeps_outputs_identical_and_checks_pass(traced):
    name, runner, _, _ = traced
    identity = [c for c in runner.checks if "trace_" in c[0]]
    assert identity, "traced run recorded no bit-identity checks"
    failed = [c for c in runner.checks if not c[1]]
    assert not failed, failed
    assert runner.failed == 0


def test_listed_spans_fire_where_called(traced):
    name, _, metrics, _ = traced
    for span in EXPECTED[name]:
        assert metrics[f"{span}.calls"][0] > 0, f"{span} never fired on {name}"
    for span in BYPASSED[name]:
        assert metrics[f"{span}.calls"][0] == 0, f"{span} fired on {name}"


MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_traced_run_reports_every_per_layer_metric(traced):
    _, _, metrics, _ = traced
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == {
        name: unit for name, (_, unit, _) in metrics.items()}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    args = argparse.Namespace(workload="extract", seed=0, seconds=0.5, trace=0)
    runner = run.Runner(WORKLOADS["extract"]())
    metrics, phases, _, _ = run.run_untraced(runner, args, tmp_path)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == {
        name: unit for name, (_, unit, _) in metrics.items()}
    assert all(value > 0 for value, _, _ in metrics.values())
    assert runner.failed == 0
    rel = sum(phases[f"{m.name}.rel"][0] for m in runner.wl.metrics())
    assert metrics["round_rel"][0] == pytest.approx(rel)


def test_expected_table_covers_every_traced_function():
    covered = {span for spans in EXPECTED.values() for span in spans}
    assert covered == set(tracing.SPAN_NAMES)


def test_tracer_restores_originals_and_computes_self_time():
    import qnip
    from qnip import engine, ops

    before = (ops.conv2d, engine.dequantized_float_model, qnip.codec.quantize_layer)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ops.conv2d is not before[0]
        assert engine.dequantized_float_model is not before[1]
        assert qnip.codec.quantize_layer is not before[2]
    finally:
        tracer.uninstall()
    assert (ops.conv2d, engine.dequantized_float_model, qnip.codec.quantize_layer) == before

    tracer.spans[:] = [["engine.forward", 0.0, 1.0, -1, "p"],
                       ["ops.conv2d", 0.1, 0.4, 0, "p"],
                       ["ops.im2col", 0.1, 0.2, 1, "p"],
                       ["ops.maxpool2x2", 0.5, 0.7, 0, "p"]]
    summary = tracer.summary()
    assert summary["engine.forward"] == (1, pytest.approx(0.5))
    assert summary["ops.conv2d"] == (1, pytest.approx(0.2))
    assert summary["ops.im2col"] == (1, pytest.approx(0.1))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    wl = WORKLOADS[name]()
    first = digest(wl.setup(5, tmp_path))
    assert digest(wl.setup(5, tmp_path)) == first
    assert digest(wl.setup(6, tmp_path)) != first
