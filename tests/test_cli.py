"""End-to-end command-line flows, exit codes and artifact determinism."""

import builtins
import csv
import io
import os
import re
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import qnip
from qnip.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _orbit_exponents, dispatch
from qnip.codec import build_compressed_model, load_model
from qnip.datasets import make_brightness_dataset, make_retrieval_corpus, write_corpus, write_labeled_dataset
from qnip.descriptor import Descriptor, load_descriptors, orbit_inputs, save_descriptors
from qnip.engine import calibrate_activation_exponents
from qnip.network import init_float_model, load_float_model, load_network, save_float_model
from qnip.ops import rotate90
from qnip.retrieval import read_image, write_ground_truth, write_image

NET_TEXT = """\
input 3 16 16
conv 4 pad=1
pool
conv 6 pad=1 tap
pool
flatten
dense 2
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a tiny net, labeled data, a corpus and a trained model."""
    root = tmp_path_factory.mktemp("cli")
    net = root / "net.cfg"
    net.write_text(NET_TEXT)
    data = root / "data"
    write_labeled_dataset(data, make_brightness_dataset(6, size=16, seed=0))
    corpus = root / "corpus"
    write_corpus(corpus, make_retrieval_corpus(num_groups=3, per_group=2, size=16, seed=0))
    gt = root / "gt.txt"
    write_ground_truth(gt, {"1000": ["1001"], "1100": ["1101"], "1200": ["1201"]})
    weights = root / "model.qfw"
    rc = dispatch(["train", "--net", str(net), "--data", str(data),
                   "--epochs", "3", "--lr", "0.1", "--batch-size", "4",
                   "--out", str(weights), "--metrics", str(root / "train.csv")])
    assert rc == EXIT_OK
    return {"root": root, "net": net, "data": data, "corpus": corpus,
            "gt": gt, "weights": weights}


def test_ratio_prints_rounded_value(capsys):
    assert dispatch(["ratio", "--mask-bits", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "8.23\n"
    assert dispatch(["ratio", "--mask-bits", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "16.94\n"


def test_usage_errors_exit_1(capsys):
    assert dispatch([]) == EXIT_USAGE
    assert dispatch(["no-such-verb"]) == EXIT_USAGE
    assert dispatch(["quantize"]) == EXIT_USAGE  # missing required options
    assert dispatch(["infer", "--net", "x", "--weights", "y", "--image", "z",
                     "--mode", "bogus"]) == EXIT_USAGE
    capsys.readouterr()


def test_data_errors_exit_2(ws, capsys):
    assert dispatch(["ratio", "--mask-bits", "0"]) == EXIT_DATA
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", "/no/such.qfw",
                     "--image", str(ws["corpus"] / "1000.img")]) == EXIT_DATA
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--profile", "3x9", "--out", "/tmp/x.qcm"]) == EXIT_DATA
    # files cut inside their fixed header
    short_qfw = ws["root"] / "short.qfw"
    short_qfw.write_bytes(ws["weights"].read_bytes()[:6])
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(short_qfw),
                     "--profile", "3x2", "--out", str(ws["root"] / "short.qcm")]) == EXIT_DATA
    short_qds = ws["root"] / "short.qds"
    short_qds.write_bytes(b"QDS1\x02\x00\x01")
    assert dispatch(["index", "--desc", str(short_qds),
                     "--out", str(ws["root"] / "short_index.qds")]) == EXIT_DATA
    assert "truncated at byte 4" in capsys.readouterr().err


def test_bad_jobs_environment_is_usage_error_of_extract_only(ws, monkeypatch, capsys):
    monkeypatch.setenv("QNIP_JOBS", "abc")
    assert dispatch(["ratio", "--mask-bits", "3"]) == EXIT_OK
    out = ws["root"] / "jobs.qds"
    assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--images", str(ws["corpus"]), "--out", str(out)]) == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_jobs_is_usage_error(ws, monkeypatch, capsys):
    base = ["extract", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
            "--images", str(ws["corpus"])]
    out = ws["root"] / "nonpositive.qds"
    for jobs in ("0", "-3"):
        assert dispatch(base + ["--jobs", jobs, "--out", str(out)]) == EXIT_USAGE
        assert "worker count must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("QNIP_JOBS", jobs)
        assert dispatch(base + ["--out", str(out)]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        monkeypatch.delenv("QNIP_JOBS")
    assert not out.exists()


def test_numeric_failure_exits_3(ws, capsys):
    out = ws["root"] / "diverged.qfw"
    rc = dispatch(["train", "--net", str(ws["net"]), "--data", str(ws["data"]),
                   "--epochs", "2", "--lr", "1e80", "--batch-size", "4",
                   "--out", str(out)])
    assert rc == EXIT_NUMERIC
    assert not out.exists()
    capsys.readouterr()


def test_extract_overflow_exits_3_for_any_job_count(ws, capsys):
    model = load_float_model(ws["weights"])
    model.conv = [(w * 1e200, b) for w, b in model.conv]
    huge = ws["root"] / "huge.qfw"
    save_float_model(huge, model)
    for jobs in ("1", "2"):
        out = ws["root"] / f"huge{jobs}.qds"
        assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(huge),
                         "--images", str(ws["corpus"]), "--jobs", jobs,
                         "--out", str(out)]) == EXIT_NUMERIC, f"--jobs {jobs}"
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


def test_train_writes_metrics_and_is_deterministic(ws):
    first = ws["weights"].read_bytes()
    metrics = (ws["root"] / "train.csv").read_text().splitlines()
    assert metrics[0] == "epoch,loss,top1"
    assert len(metrics) == 4
    rc = dispatch(["train", "--net", str(ws["net"]), "--data", str(ws["data"]),
                   "--epochs", "3", "--lr", "0.1", "--batch-size", "4",
                   "--out", str(ws["weights"]), "--metrics", str(ws["root"] / "train.csv")])
    assert rc == EXIT_OK
    assert ws["weights"].read_bytes() == first


def test_seed_is_an_option_of_train_and_retrain_only(ws, capsys):
    assert dispatch(["ratio", "--seed", "1", "--mask-bits", "1"]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    base = ["train", "--net", str(ws["net"]), "--data", str(ws["data"]),
            "--epochs", "3", "--lr", "0.1", "--batch-size", "4"]
    outs = {seed: ws["root"] / f"seed{seed}.qfw" for seed in ("0", "1")}
    for seed, out in outs.items():
        assert dispatch(base + ["--seed", seed, "--out", str(out)]) == EXIT_OK
    assert outs["0"].read_bytes() == ws["weights"].read_bytes()  # 0 is the default
    assert outs["1"].read_bytes() != outs["0"].read_bytes()


def test_quantize_inspect_infer_flow(ws, capsys):
    qcm = ws["root"] / "model.qcm"
    rc = dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                   "--profile", "3,1", "--out", str(qcm)])
    assert rc == EXIT_OK
    first = qcm.read_bytes()
    capsys.readouterr()

    assert dispatch(["inspect", str(qcm)]) == EXIT_OK
    table = capsys.readouterr().out
    assert "conv1 " in table and "conv2 " in table
    assert "ratio" in table and "sizes" in table

    image = str(ws["corpus"] / "1000.img")
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--image", image, "--topk", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    labels = [int(l.split()[0]) for l in lines]
    assert sorted(labels) == [0, 1]

    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(qcm),
                     "--image", image, "--mode", "dequantized", "--topk", "1"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1

    # integer mode self-calibrates when no --calib directory is given
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(qcm),
                     "--image", image, "--mode", "integer", "--topk", "1"]) == EXIT_OK
    capsys.readouterr()

    # float mode rejects a compressed container and vice versa
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(qcm),
                     "--image", image]) == EXIT_DATA
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--image", image, "--mode", "dequantized"]) == EXIT_DATA
    capsys.readouterr()

    # re-quantizing writes the identical container
    rc = dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                   "--profile", "3,1", "--out", str(qcm)])
    assert rc == EXIT_OK
    assert qcm.read_bytes() == first
    capsys.readouterr()


def test_quantize_prints_the_quantizer_saturations(ws, tmp_path, capsys):
    # layer 1's alphas of 200 clamp the shift at 7 and all 12 scalars at 255;
    # layer 2 is all zeros (degenerate, shift -8), so its 6 biases clamp
    net = load_network(ws["net"])
    model = init_float_model(net, np.random.default_rng(0))
    (w1, b1), (w2, b2) = model.conv
    model.conv = [(np.full_like(w1, 200.0), np.zeros_like(b1)),
                  (np.zeros_like(w2), np.full_like(b2, 100.0))]
    weights, qcm = tmp_path / "loud.qfw", tmp_path / "loud.qcm"
    save_float_model(weights, model)
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(weights),
                     "--profile", "1,1", "--out", str(qcm)]) == EXIT_OK
    wrote, stats = capsys.readouterr().err.splitlines()
    assert re.fullmatch(rf"wrote {re.escape(str(qcm))}: 2 conv layers, ratio \d+\.\d\d, "
                        rf"{len(qcm.read_bytes())} bytes", wrote)
    assert stats == "saturations: 12 scalars, 6 biases; 1 shift-saturated and 1 degenerate layers"
    layers = load_model(qcm).layers
    assert [layer.shift for layer in layers] == [7, -8]


def test_retrain_prints_the_quantizer_saturations(ws, tmp_path, capsys):
    # quantize's loud weights again: at rate 0 the shadow stays put, so the
    # retrained container saturates exactly as the post-hoc one does
    net = load_network(ws["net"])
    model = init_float_model(net, np.random.default_rng(0))
    (w1, b1), (w2, b2) = model.conv
    model.conv = [(np.full_like(w1, 200.0), np.zeros_like(b1)),
                  (np.zeros_like(w2), np.full_like(b2, 100.0))]
    weights, qcm = tmp_path / "loud.qfw", tmp_path / "loud.qcm"
    save_float_model(weights, model)
    assert dispatch(["retrain", "--net", str(ws["net"]), "--weights", str(weights),
                     "--data", str(ws["data"]), "--profile", "1,1", "--epochs", "1",
                     "--lr", "0", "--batch-size", "4", "--out", str(qcm)]) == EXIT_OK
    retrained, stats = capsys.readouterr().err.splitlines()
    assert retrained.startswith("retrained 1 epochs: ")
    assert stats == "saturations: 12 scalars, 6 biases; 1 shift-saturated and 1 degenerate layers"
    assert [layer.shift for layer in load_model(qcm).layers] == [7, -8]


def test_infer_reads_the_weights_file_once(ws, monkeypatch, capsys):
    real_open = io.open
    weights = ws["weights"].resolve()
    opened = []

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == weights:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # behind Path.read_bytes
    monkeypatch.setattr(builtins, "open", counting_open)
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--image", str(ws["corpus"] / "1000.img"), "--topk", "1"]) == EXIT_OK
    capsys.readouterr()
    assert len(opened) == 1


def test_weights_of_the_wrong_kind_for_the_mode_exit_2(ws, capsys):
    qcm = ws["root"] / "mode_check.qcm"
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--profile", "1,1", "--out", str(qcm)]) == EXIT_OK
    capsys.readouterr()
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--image", str(ws["corpus"] / "1000.img"),
                     "--mode", "integer"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "integer mode needs a compressed model (.qcm)" in captured.err
    out = ws["root"] / "wrong_kind.qds"
    assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(qcm),
                     "--images", str(ws["corpus"]), "--mode", "float",
                     "--out", str(out)]) == EXIT_DATA
    assert "float mode needs float weights (.qfw)" in capsys.readouterr().err
    assert not out.exists()


def test_inspect_accounting_only_mode(capsys):
    from qnip import config_path
    assert dispatch(["inspect", "--net", str(config_path("vgg16")),
                     "--profile", "3x7,1x6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio 15.06" in out
    assert "58.86 MB -> 3.91 MB" in out


def test_retrain_flow(ws, capsys):
    qcm = ws["root"] / "retrained.qcm"
    shadow = ws["root"] / "shadow.qfw"
    rc = dispatch(["retrain", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                   "--data", str(ws["data"]), "--profile", "1,1",
                   "--epochs", "2", "--lr", "0.01", "--batch-size", "4",
                   "--out", str(qcm), "--shadow", str(shadow),
                   "--metrics", str(ws["root"] / "retrain.csv")])
    assert rc == EXIT_OK
    assert qcm.exists() and shadow.exists()
    lines = (ws["root"] / "retrain.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,top1"
    assert len(lines) == 3
    # a float entry in the profile is rejected for retraining
    assert dispatch(["retrain", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--data", str(ws["data"]), "--profile", "f,1",
                     "--out", str(qcm)]) == EXIT_DATA
    capsys.readouterr()


def test_extract_index_search_eval_report_flow(ws, capsys):
    root = ws["root"]
    desc = root / "corpus.qds"
    argv = ["extract", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
            "--images", str(ws["corpus"]), "--kind", "nip", "--precision", "real",
            "--out", str(desc)]
    assert dispatch(argv) == EXIT_OK
    first = desc.read_bytes()
    assert dispatch(argv) == EXIT_OK
    assert desc.read_bytes() == first  # byte-identical re-run
    # worker threads must not change the artifact either
    assert dispatch(argv + ["--jobs", "2"]) == EXIT_OK
    assert desc.read_bytes() == first
    # nor in the compressed modes, whose workers share one dequantized weight set
    qcm = root / "jobs.qcm"
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--profile", "3,1", "--out", str(qcm)]) == EXIT_OK
    for mode in ("dequantized", "integer"):
        for kind in ("nip", "rnip"):
            out = root / f"jobs_{mode}_{kind}.qds"
            compressed = ["extract", "--net", str(ws["net"]), "--weights", str(qcm),
                          "--images", str(ws["corpus"]), "--kind", kind, "--mode", mode,
                          "--precision", "real", "--out", str(out)]
            assert dispatch(compressed) == EXIT_OK
            alone = out.read_bytes()
            assert dispatch(compressed + ["--jobs", "2"]) == EXIT_OK
            assert out.read_bytes() == alone, f"{mode} {kind}"
    capsys.readouterr()

    index = root / "index.qds"
    assert dispatch(["index", "--desc", str(desc), "--out", str(index)]) == EXIT_OK
    # merging a file with itself trips the duplicate-id check
    assert dispatch(["index", "--desc", str(desc), str(desc),
                     "--out", str(index)]) == EXIT_DATA
    assert "duplicate id '1000'" in capsys.readouterr().err

    out_csv = root / "hits.csv"
    assert dispatch(["search", "--index", str(index), "--query-id", "1000",
                     "--k", "3", "--out", str(out_csv)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "query_id,rank,id,score"
    assert len(lines) == 4
    assert lines[1].startswith("1000,1,")
    assert out_csv.read_text().splitlines() == lines
    assert dispatch(["search", "--index", str(index),
                     "--query-id", "nope"]) == EXIT_DATA
    capsys.readouterr()

    eval_csv = root / "eval.csv"
    assert dispatch(["eval", "--index", str(index), "--ground-truth", str(ws["gt"]),
                     "--pipeline", "nip", "--out", str(eval_csv)]) == EXIT_OK
    line = capsys.readouterr().out
    assert line.startswith("mAP ")
    assert "(nip, real, 3 queries)" in line
    rows = eval_csv.read_text().splitlines()
    assert rows[0] == "pipeline,precision,map"
    assert rows[1].startswith("nip,real,")
    repeated = root / "repeated_gt.txt"
    repeated.write_text(ws["gt"].read_text() + "1000: 1001\n")
    assert dispatch(["eval", "--index", str(index), "--ground-truth", str(repeated),
                     "--pipeline", "nip"]) == EXIT_DATA
    assert f"{repeated}:4: duplicate query '1000'" in capsys.readouterr().err

    report = root / "report.txt"
    assert dispatch(["report", "--eval", str(eval_csv),
                     "--out", str(report)]) == EXIT_OK
    grid = capsys.readouterr().out
    assert "mAP by descriptor precision and pipeline" in grid
    assert "real" in grid and "byte" in grid and "bit" in grid
    assert report.read_text().rstrip("\n") in grid
    assert dispatch(["report", "--eval", str(ws["gt"])]) == EXIT_DATA
    capsys.readouterr()


def _small_index(path, ids):
    rows = np.random.default_rng(8).random((len(ids), 5))
    save_descriptors(path, {name: Descriptor("real", row / np.linalg.norm(row))
                            for name, row in zip(ids, rows)})


def test_search_prints_and_writes_the_same_csv_rows(tmp_path, capsys):
    index, out_csv = tmp_path / "index.qds", tmp_path / "hits.csv"
    _small_index(index, ["1000", "10,01", "1001"])
    assert dispatch(["search", "--index", str(index), "--query-id", "1000",
                     "--out", str(out_csv)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == out_csv.read_text()
    assert [len(row) for row in csv.reader(io.StringIO(printed))] == [4, 4, 4]
    assert '"10,01"' in printed


def test_eval_refuses_a_label_that_would_break_its_csv(ws, tmp_path, capsys):
    # such a row used to reach report as "a,b,real,0.833333" and fail to unpack
    index = tmp_path / "index.qds"
    _small_index(index, ["1000", "1001", "1100", "1101", "1200", "1201"])
    out, results = tmp_path / "eval.csv", tmp_path / "results.csv"
    argv = ["eval", "--index", str(index), "--ground-truth", str(ws["gt"]),
            "--out", str(out), "--results", str(results)]
    assert dispatch(argv + ["--pipeline", "a_b", "--precision", "real"]) == EXIT_OK
    assert out.read_text().splitlines()[1].startswith("a_b,real,")
    out.unlink()
    results.unlink()
    capsys.readouterr()
    for option, label in (("--pipeline", "a,b"), ("--precision", "re\nal"),
                          ("--pipeline", "x\ry")):
        assert dispatch(argv + [option, label]) == EXIT_USAGE, label
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} label {label!r} holds a comma or line break" in captured.err
        assert not out.exists() and not results.exists()


def test_report_names_the_file_and_line_of_a_row_without_three_fields(tmp_path, capsys):
    evals = tmp_path / "e.csv"
    for row in ("a,b,real,0.833333", "real,0.5"):
        evals.write_text(f"pipeline,precision,map\nnip,real,0.5\n\n{row}\n")
        assert dispatch(["report", "--eval", str(evals)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{evals}:4: expected 'pipeline,precision,map', "
                                f"got {row!r}\n")


def test_report_names_the_file_and_line_of_a_map_that_is_not_a_number(tmp_path, capsys):
    evals = tmp_path / "e.csv"
    evals.write_text("pipeline,precision,map\nnip,real,0.5\nnip,real,x\n")
    assert dispatch(["report", "--eval", str(evals)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{evals}:3: mAP 'x' is not a number\n"


def test_report_lists_other_precision_labels_after_the_standard_three(tmp_path, capsys):
    # eval --precision takes any label; report used to drop the int8 cell
    real, int8 = tmp_path / "real.csv", tmp_path / "int8.csv"
    real.write_text("pipeline,precision,map\nnip,real,0.5\n")
    int8.write_text("pipeline,precision,map\nnip,int8,0.25\nnip,fp16,0.125\n")
    assert dispatch(["report", "--eval", str(real), str(int8)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [
        ["real", "0.5000"], ["byte", "-"], ["bit", "-"], ["int8", "0.2500"],
        ["fp16", "0.1250"]]


def test_report_keeps_the_cells_of_every_repeated_eval_option(tmp_path, capsys):
    # a second --eval used to replace the first: real.csv's cell was dropped
    real, int8 = tmp_path / "real.csv", tmp_path / "int8.csv"
    real.write_text("pipeline,precision,map\nnip,real,0.5\n")
    int8.write_text("pipeline,precision,map\nnip,int8,0.25\n")
    outputs = []
    for argv in (["--eval", str(real), str(int8)], ["--eval", str(real), "--eval", str(int8)]):
        assert dispatch(["report", *argv]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    rows = outputs[1].splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [
        ["real", "0.5000"], ["byte", "-"], ["bit", "-"], ["int8", "0.2500"]]
    assert outputs[0] == outputs[1]


def test_extract_rnip_and_bit_precision(ws, capsys):
    desc = ws["root"] / "rnip_bit.qds"
    assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--images", str(ws["corpus"]), "--kind", "rnip",
                     "--levels", "1,2", "--precision", "bit",
                     "--out", str(desc)]) == EXIT_OK
    capsys.readouterr()
    assert dispatch(["search", "--index", str(desc),
                     "--query-id", "1000", "--k", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # bit indexes report integer Hamming distances, not cosine floats
    assert "." not in lines[1].split(",")[-1]


def test_extract_integer_nip_is_invariant_to_rotating_the_corpus(ws, capsys):
    qcm = ws["root"] / "orbit.qcm"
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--profile", "3,1", "--out", str(qcm)]) == EXIT_OK
    image = read_image(ws["corpus"] / "1000.img")
    # the unrotated image alone calibrates a different grid than its rotation
    net, model = load_network(ws["net"]), load_model(qcm)
    assert (calibrate_activation_exponents(net, model, [image])
            != calibrate_activation_exponents(net, model, [rotate90(image, 1)]))
    descs = []
    for k in (0, 1):
        corpus = ws["root"] / f"orbit{k}"
        write_corpus(corpus, {"1000": rotate90(image, k)})
        out = ws["root"] / f"orbit{k}.qds"
        with pytest.warns(UserWarning, match="single image"):
            assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(qcm),
                             "--images", str(corpus), "--mode", "integer",
                             "--out", str(out)]) == EXIT_OK
        descs.append(load_descriptors(out)["1000"])
    assert descs[0] == descs[1]
    capsys.readouterr()


def test_orbit_exponents_are_one_calibration_over_every_orbit_input():
    # the per-image exponents of this set differ, so only the element-wise
    # max over them gives the single pass's grid
    net = load_network(qnip.config_path("toynet"))
    model = build_compressed_model(net, init_float_model(net, np.random.default_rng(3)),
                                   [2, 1, 3])
    images = list(make_retrieval_corpus(10, 3, 32, seed=0).values())
    for kind, levels, subset in (("nip", (1, 2, 3), images), ("rnip", (1, 2), images[::3])):
        orbits = [orbit_inputs(net, im, kind, levels).reshape(-1, *net.input_shape)
                  for im in subset]
        per_image = {tuple(calibrate_activation_exponents(net, model, o)) for o in orbits}
        assert len(per_image) > 1, kind
        want = calibrate_activation_exponents(net, model, np.concatenate(orbits))
        for jobs in (1, 2):
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                got = _orbit_exponents(pool, net, model, subset, kind, levels, True)
            assert got == want, (kind, jobs)


def test_quantize_refuses_reshaped_dense_head(ws, capsys):
    # used to exit 0 and write a container that inspect then refused
    model = load_float_model(ws["weights"])
    (w, b), = model.dense
    model.dense = [(w.reshape(1, -1), b[:1])]
    bad = ws["root"] / "reshaped.qfw"
    save_float_model(bad, model)
    out = ws["root"] / "reshaped.qcm"
    assert dispatch(["quantize", "--net", str(ws["net"]), "--weights", str(bad),
                     "--profile", "3x2", "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert "dense1" in capsys.readouterr().err


def test_zero_sized_raster_is_a_data_error(ws, capsys):
    # used to die with an IndexError inside resize_bilinear
    corpus = ws["root"] / "empty_corpus"
    corpus.mkdir()
    empty = corpus / "1000.img"
    empty.write_bytes(b"IMG1" + struct.pack("<HHH", 3, 0, 16))
    assert dispatch(["infer", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--image", str(empty)]) == EXIT_DATA
    out = ws["root"] / "empty.qds"
    assert dispatch(["extract", "--net", str(ws["net"]), "--weights", str(ws["weights"]),
                     "--images", str(corpus), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert capsys.readouterr().err.count("empty 3x0x16 raster") == 2


def test_values_too_large_for_a_header_field_exit_2_and_write_nothing(tmp_path, capsys):
    # used to die with a struct.error traceback, and quantize left an empty container
    rng = np.random.default_rng(0)
    padded = tmp_path / "padded.cfg"
    padded.write_text("input 1 8 8\nconv 2 pad=256 tap\n")
    save_float_model(tmp_path / "padded.qfw", init_float_model(load_network(padded), rng))
    out = tmp_path / "m.qcm"
    assert dispatch(["quantize", "--net", str(padded), "--weights", str(tmp_path / "padded.qfw"),
                     "--profile", "1", "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert "layer 0 header (out, in, stride, padding, m, e)" in capsys.readouterr().err

    wide = tmp_path / "wide.cfg"
    wide.write_text("input 1 3 3\nconv 65536 tap\n")
    save_float_model(tmp_path / "wide.qfw", init_float_model(load_network(wide), rng))
    images = tmp_path / "images"
    images.mkdir()
    for name in ("1000", "1001"):
        write_image(images / f"{name}.img", rng.random((1, 3, 3)))
    out = tmp_path / "d.qds"
    assert dispatch(["extract", "--net", str(wide), "--weights", str(tmp_path / "wide.qfw"),
                     "--images", str(images), "--levels", "1", "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
    assert "header (dimension, record count) = (65536, 2)" in capsys.readouterr().err
