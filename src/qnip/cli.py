"""Command-line front end for batch runs.

Verbs: quantize, inspect, ratio, infer, train, retrain, extract, index,
search, eval, report. Results go to stdout, progress and errors to
stderr. Exit codes: 0 success, 1 usage error, 2 data/format error,
3 numerical failure. train and retrain take --seed (default 0). Re-running
a verb with the same inputs and seed writes byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import codec, datasets, descriptor, engine, network, quantize, retrieval, train
from .binfile import Reader

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

# NumPy keeps error settings per thread, so worker threads enter these too
_NUMERIC_ERRORS = dict(over="raise", invalid="raise", divide="raise", under="ignore")

PIPELINES = ("nip", "rnip-5x", "rnip-14x")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for data errors
        raise _UsageError(f"{self.prog}: {message}")


def _say(*parts) -> None:
    print(*parts, file=sys.stderr)


def _load_weights(path, mode):
    """FloatModel or CompressedModel, sniffed by magic, as the engine mode needs."""
    data = Path(path).read_bytes()
    magic = data[:4]
    if magic not in (network.FLOAT_MAGIC, codec.MAGIC):
        raise ValueError(f"{path}: neither a float-weights nor a compressed-model file")
    # engine.forward raises TypeError on a mismatch, which dispatch does not catch
    if mode == "float" and magic != network.FLOAT_MAGIC:
        raise ValueError(f"{path}: float mode needs float weights (.qfw)")
    if mode != "float" and magic != codec.MAGIC:
        raise ValueError(f"{path}: {mode} mode needs a compressed model (.qcm)")
    parse = network._parse_float_model if mode == "float" else codec._decode
    return parse(Reader(data, magic, "a weights file", path))


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid worker count {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"worker count must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="qnip", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="VERB")

    def verb(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    p = verb("ratio", "per-kernel compression ratio for a bit split", _cmd_ratio)
    p.add_argument("--mask-bits", type=int, required=True)
    p.add_argument("--scalar-bits", type=int, default=quantize.SCALAR_BITS)

    p = verb("quantize", "compress float weights into a container", _cmd_quantize)
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--profile", required=True, help='per-layer mask bits, e.g. "3x7,1x6"')
    p.add_argument("--policy", default=quantize.DEFAULT_POLICY, choices=quantize.POLICIES)
    p.add_argument("--shift-scope", default="layer", choices=codec.SHIFT_SCOPES)
    p.add_argument("--out", required=True)

    p = verb("inspect", "layer table, ratio and sizes of a container", _cmd_inspect)
    p.add_argument("model", nargs="?", help="a .qcm file")
    p.add_argument("--net", help="architecture config (accounting-only mode)")
    p.add_argument("--profile", help="profile for accounting-only mode")

    p = verb("infer", "classify one image", _cmd_infer)
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--mode", default="float", choices=list(engine.MODES))
    p.add_argument("--topk", type=int, default=5)
    p.add_argument("--calib", help="directory of calibration images (integer mode)")

    p = verb("train", "train a float model from scratch", _cmd_train)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True, help="directory with .img files and labels.txt")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--out", required=True, help="output float weights (.qfw)")
    p.add_argument("--metrics", help="per-epoch CSV")

    p = verb("retrain", "quantization-aware retraining of a float model", _cmd_retrain)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True, help="pretrained float weights (.qfw)")
    p.add_argument("--data", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--policy", default=quantize.DEFAULT_POLICY, choices=quantize.POLICIES)
    p.add_argument("--refresh", default="epoch", choices=["epoch", "step"])
    p.add_argument("--shift-scope", default="layer", choices=codec.SHIFT_SCOPES)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--out", required=True, help="output container (.qcm)")
    p.add_argument("--shadow", help="also save final full-precision shadow (.qfw)")
    p.add_argument("--metrics", help="per-epoch CSV")

    p = verb("extract", "descriptors for a directory of images", _cmd_extract)
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--mode", default="float", choices=list(engine.MODES))
    p.add_argument("--kind", default="nip", choices=["nip", "rnip"])
    p.add_argument("--levels", help="grid levels, e.g. 1,2,3 (default: nip 1,2,3 / rnip 1,2)")
    p.add_argument("--precision", default="real", choices=list(descriptor.PRECISIONS))
    p.add_argument("--no-rotations", action="store_true",
                   help="rnip only: skip the rotation orbit")
    # argparse applies type to a str default: a bad $QNIP_JOBS is a usage error
    p.add_argument("--jobs", type=_worker_count, default=os.environ.get("QNIP_JOBS", "1"),
                   help="worker cap (default $QNIP_JOBS or 1)")
    p.add_argument("--out", required=True)

    p = verb("index", "merge descriptor files into one index", _cmd_index)
    p.add_argument("--desc", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = verb("search", "rank the index against one stored query", _cmd_search)
    p.add_argument("--index", required=True)
    p.add_argument("--query-id", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--out", help="write results CSV here as well")

    p = verb("eval", "mean average precision against ground truth", _cmd_eval)
    p.add_argument("--index", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--pipeline", default="nip", help="label for the report grid")
    p.add_argument("--precision", help="label override (default: index precision)")
    p.add_argument("--out", help="write 'pipeline,precision,map' CSV")
    p.add_argument("--results", help="write full ranked results CSV")

    p = verb("report", "mAP grid over pipelines and precisions, plus model size", _cmd_report)
    p.add_argument("--eval", nargs="+", action="extend", required=True, dest="evals",
                   help="CSV files produced by the eval verb (repeatable)")
    p.add_argument("--model", help="a .qcm whose sizes close the report")
    p.add_argument("--out", help="also write the report here")

    return parser


# ---------------------------------------------------------------------------
# verb bodies

def _cmd_ratio(args) -> int:
    print(f"{codec.ratio_formula(args.mask_bits, args.scalar_bits):.2f}")
    return EXIT_OK


def _cmd_quantize(args) -> int:
    net = network.load_network(args.net)
    profile = codec.parse_profile(args.profile, len(net.conv_specs))
    model = network.load_float_model(args.weights)
    compressed = codec.build_compressed_model(net, model, profile, args.policy,
                                              args.shift_scope)
    codec.save_model(args.out, compressed)
    sizes = codec.model_sizes(net, profile, args.policy, compressed.source_checksum)
    _say(f"wrote {args.out}: {len(compressed.layers)} conv layers, "
         f"ratio {codec.model_ratio(net, profile):.2f}, "
         f"{sizes.compressed_bytes} bytes")
    _say_saturations(compressed)
    return EXIT_OK


def _say_saturations(model: codec.CompressedModel) -> None:
    """The quantizer's QuantStats, summed over the container's layers."""
    stats = [layer.stats for layer in model.layers]
    _say(f"saturations: {sum(s.scalar_saturations for s in stats)} scalars, "
         f"{sum(s.bias_saturations for s in stats)} biases; "
         f"{sum(s.shift_saturated for s in stats)} shift-saturated and "
         f"{sum(s.degenerate for s in stats)} degenerate layers")


def _inspect_lines(net, profile, policy, checksum, layers=None):
    lines = ["layer  out   in  m  e"]
    for i, (shape, m) in enumerate(zip(net.conv_specs, profile)):
        e = layers[i].shift if layers is not None else "-"
        lines.append(f"conv{i + 1:<2} {shape.out_channels:>4} {shape.in_channels:>4}"
                     f"  {m}  {e}")
    sizes = codec.model_sizes(net, profile, policy, checksum)
    lines.append(f"ratio {codec.model_ratio(net, profile):.2f}")
    lines.append(f"sizes {sizes.float_bytes / 1e6:.2f} MB -> "
                 f"{sizes.compressed_bytes / 1e6:.2f} MB")
    return lines


def _cmd_inspect(args) -> int:
    if args.model:
        model = codec.load_model(args.model)
        lines = _inspect_lines(model.network, model.profile, model.policy,
                               model.source_checksum, model.layers)
    elif args.net and args.profile:
        net = network.load_network(args.net)
        profile = codec.parse_profile(args.profile, len(net.conv_specs))
        lines = _inspect_lines(net, profile, quantize.DEFAULT_POLICY, "")
    else:
        raise _UsageError("inspect: give a model file, or both --net and --profile")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_infer(args) -> int:
    net = network.load_network(args.net)
    weights = _load_weights(args.weights, args.mode)
    image = descriptor.sized_input(net, retrieval.read_image(args.image))
    exps = None
    if args.mode == "integer" and args.calib:
        calib = [descriptor.sized_input(net, retrieval.read_image(p))
                 for p in sorted(Path(args.calib).glob("*.img"))]
        exps = engine.calibrate_activation_exponents(net, weights, calib)
    for label, score in engine.classify(net, weights, image, args.mode, args.topk, exps):
        print(f"{label} {score:.6f}")
    return EXIT_OK


def _cmd_train(args) -> int:
    net = network.load_network(args.net)
    dataset = datasets.load_labeled_dataset(args.data)
    config = train.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                               batch_size=args.batch_size, seed=args.seed)
    result = train.train_float(net, dataset, config)
    network.save_float_model(args.out, result.model)
    if args.metrics:
        train.write_metrics_csv(args.metrics, result.metrics)
    last = result.metrics[-1]
    _say(f"trained {args.epochs} epochs: loss {last.loss:.4f}, top1 {last.top1:.4f}")
    return EXIT_OK


def _cmd_retrain(args) -> int:
    net = network.load_network(args.net)
    profile = codec.parse_profile(args.profile, len(net.conv_specs))
    if any(m is None for m in profile):
        raise ValueError("retrain profile must quantize every layer (no 'f' entries)")
    dataset = datasets.load_labeled_dataset(args.data)
    model = network.load_float_model(args.weights)
    config = train.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                               batch_size=args.batch_size, seed=args.seed,
                               policy=args.policy, profile=profile,
                               refresh=args.refresh, shift_scope=args.shift_scope)
    result = train.retrain_quantized(net, model, dataset, config)
    codec.save_model(args.out, result.model)
    if args.shadow:
        network.save_float_model(args.shadow, result.shadow)
    if args.metrics:
        train.write_metrics_csv(args.metrics, result.metrics)
    last = result.metrics[-1]
    _say(f"retrained {args.epochs} epochs: loss {last.loss:.4f}, top1 {last.top1:.4f}")
    _say_saturations(result.model)
    return EXIT_OK


def _orbit_exponents(pool, net, weights, images, kind, levels, rotations) -> list[int]:
    """Activation exponents calibrated over every orbit input of images:
    each image's orbit calibrates on pool, and its exponents take the
    element-wise max. compute_layer_shift is monotone in the peak, so that
    is one calibration over all the inputs, bit for bit."""
    def calibrated(image):
        with np.errstate(**_NUMERIC_ERRORS):  # NumPy keeps error states per thread
            orbit = descriptor.orbit_inputs(net, image, kind, levels, rotations)
            return engine.calibrate_activation_exponents(
                net, weights, orbit.reshape(-1, *net.input_shape))

    return np.max(list(pool.map(calibrated, images)), axis=0).tolist()


def _cmd_extract(args) -> int:
    net = network.load_network(args.net)
    weights = _load_weights(args.weights, args.mode)
    levels_text = args.levels or ("1,2,3" if args.kind == "nip" else "1,2")
    levels = tuple(int(t) for t in levels_text.split(","))
    images, _ = retrieval.ingest_dataset(args.images)

    def one(image):
        with np.errstate(**_NUMERIC_ERRORS):
            if args.kind == "nip":
                d = descriptor.extract_nip(net, weights, image, args.mode, levels, exps)
            else:
                d = descriptor.extract_rnip(net, weights, image, args.mode, levels,
                                            not args.no_rotations, exps)
            return descriptor.convert_descriptor(d, args.precision)

    names = list(images)
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        exps = None
        if args.mode == "integer":  # one grid for every input any extraction runs
            exps = _orbit_exponents(pool, net, weights, images.values(), args.kind, levels,
                                    not args.no_rotations)
        results = list(pool.map(one, [images[n] for n in names]))
    descriptor.save_descriptors(args.out, dict(zip(names, results)))
    _say(f"wrote {args.out}: {len(names)} {args.precision} descriptors "
         f"({args.kind}, levels {levels_text})")
    return EXIT_OK


def _cmd_index(args) -> int:
    merged = descriptor.DescriptorSet.concatenate(
        [descriptor.load_descriptors(path) for path in args.desc])
    descriptor.save_descriptors(args.out, merged)
    _say(f"wrote {args.out}: {len(merged)} descriptors")
    return EXIT_OK


def _cmd_search(args) -> int:
    index = retrieval.build_index(descriptor.load_descriptors(args.index))
    if args.query_id not in index.entries:
        raise ValueError(f"query id {args.query_id!r} not in index")
    ranked = retrieval.search(index, index.entries[args.query_id], k=args.k,
                              exclude=args.query_id)
    bitwise = index.precision == "bit"
    retrieval.write_results(sys.stdout, {args.query_id: ranked}, bitwise)
    if args.out:
        retrieval.write_results_csv(args.out, {args.query_id: ranked}, bitwise)
    return EXIT_OK


def _cmd_eval(args) -> int:
    for option, label in (("--pipeline", args.pipeline), ("--precision", args.precision)):
        if label and any(c in label for c in ",\r\n"):
            raise _UsageError(f"eval: {option} label {label!r} holds a comma or line break")
    index = retrieval.build_index(descriptor.load_descriptors(args.index))
    ground_truth = retrieval.read_ground_truth(args.ground_truth)
    mAP, per_query = retrieval.evaluate(index, ground_truth)
    precision = args.precision or index.precision
    print(f"mAP {mAP:.4f} ({args.pipeline}, {precision}, {len(per_query)} queries)")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("pipeline,precision,map\n")
            fh.write(f"{args.pipeline},{precision},{mAP:.6f}\n")
    if args.results:
        bitwise = index.precision == "bit"
        ranked = {qid: retrieval.search(index, index.entries[qid], exclude=qid)
                  for qid in ground_truth}
        retrieval.write_results_csv(args.results, ranked, bitwise)
    return EXIT_OK


def _cmd_report(args) -> int:
    cells: dict[tuple[str, str], float] = {}
    for path in args.evals:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, l.strip()) for n, l in enumerate(fh, start=1) if l.strip()]
        if not lines or lines[0][1] != "pipeline,precision,map":
            raise ValueError(f"{path}: not an eval CSV (bad header)")
        for n, line in lines[1:]:
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"{path}:{n}: expected 'pipeline,precision,map', got {line!r}")
            pipeline, precision, value = fields
            try:
                cells[(precision, pipeline)] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{n}: mAP {value!r} is not a number") from None
    # the standard labels, then any others in first-seen order
    pipelines = list(dict.fromkeys([*PIPELINES, *(p for _, p in cells)]))
    precisions = list(dict.fromkeys([*descriptor.PRECISIONS, *(p for p, _ in cells)]))
    out = ["mAP by descriptor precision and pipeline"]
    header = "precision " + " ".join(f"{p:>9}" for p in pipelines)
    out.append(header)
    for precision in precisions:
        row = [f"{precision:<9}"]
        for pipeline in pipelines:
            value = cells.get((precision, pipeline))
            row.append(f"{value:>9.4f}" if value is not None else f"{'-':>9}")
        out.append(" ".join(row))
    if args.model:
        model = codec.load_model(args.model)
        sizes = codec.model_sizes(model.network, model.profile, model.policy,
                                  model.source_checksum)
        out.append("")
        out.append(f"model: float {sizes.float_bytes / 1e6:.2f} MB -> "
                   f"compressed {sizes.compressed_bytes / 1e6:.2f} MB "
                   f"(ratio {codec.model_ratio(model.network, model.profile):.2f})")
    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return EXIT_OK


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.verb:
            raise _UsageError("missing verb; try --help")
        with np.errstate(**_NUMERIC_ERRORS):
            return args.run(args)
    except _UsageError as err:
        _say(str(err))
        return EXIT_USAGE
    except (train.DivergenceError, FloatingPointError) as err:
        _say(f"numerical failure: {err}")
        return EXIT_NUMERIC
    except (OSError, ValueError) as err:  # codec.CodecError is a ValueError
        _say(str(err))
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
