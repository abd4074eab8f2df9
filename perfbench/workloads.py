"""The four benchmark workloads: inputs, timed units and output checks.

Each workload builds its inputs from the seed in ``setup``, exposes
its phases as Metrics, each with a timed unit, and a ``reference`` block
of plain NumPy and Python that the runner times around every unit (see
run.Reference). A unit does a fixed amount of
work through qnip's public functions and returns an Outcome holding its
outputs; the runner digests them after timing, so repeated units and
traced runs can be checked for bit-identical results. qnip functions are
always looked up through their module at call time, so the tracer's
wrappers see every call.

Why each workload exists:

* train   -- the only workload that runs the backward pass (col2im, the
             cached per-sample walk in train) and writes weights; it never
             touches engine or ops.maxpool2x2.
* extract -- toynet's layers are tiny, so per-call overhead, pooling and
             per-forward model preparation dominate; rotations and crops
             multiply the forward calls per image.
* vgg16   -- wide GEMMs (up to 512 x 4608) where per-call overhead is
             negligible: the int64-vs-float64 GEMM gap and per-forward
             dequantization of 14.7 M weights show here.
* search  -- the only layer whose work scales with index size; it bypasses
             engine and ops entirely.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from qnip import (codec, config_path, datasets, descriptor, engine, network, ops,
                  retrieval, train)


class Outcome(NamedTuple):
    work: int          # items the unit processed (samples, images, queries)
    key: str           # identifies the unit's inputs; equal keys must give equal outputs
    value: object      # the unit's outputs, digested after timing and kept for the checks
    parts: dict[str, float] | None = None  # seconds spent in named steps


@dataclasses.dataclass
class Metric:
    """One phase of a workload; its rate is a per-layer metric of the traced run."""
    name: str
    unit: str
    share: float                       # fraction of --seconds spent on this metric
    run: Callable[[object, int], Outcome]
    trace_units: int                   # units the traced run replays
    rate: bool = True                  # True: work per second; False: seconds per unit


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def digest(*items) -> str:
    """sha256 over arrays, bytes, dataclasses, containers and scalars."""
    h = hashlib.sha256()
    _feed(h, items)
    return h.hexdigest()


def _feed(h, item) -> None:
    if isinstance(item, np.ndarray):
        h.update(repr((item.dtype.str, item.shape)).encode())
        h.update(np.ascontiguousarray(item).tobytes())
    elif isinstance(item, (bytes, bytearray)):
        h.update(bytes(item))
    elif dataclasses.is_dataclass(item) and not isinstance(item, type):
        h.update(type(item).__name__.encode())
        for f in dataclasses.fields(item):
            _feed(h, getattr(item, f.name))
    elif isinstance(item, dict):
        h.update(b"{")
        for k, v in item.items():
            _feed(h, k)
            _feed(h, v)
        h.update(b"}")
    elif isinstance(item, (list, tuple)):
        h.update(b"[")
        for v in item:
            _feed(h, v)
        h.update(b"]")
    else:
        h.update(repr(item).encode())


def _timed(parts: dict, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    parts[name] = parts.get(name, 0.0) + time.perf_counter() - t0
    return out


def _toynet_reference():
    """toynet-sized im2col GEMMs, small-array ops and interpreter loops."""
    rng = np.random.default_rng(0)
    weights, cols = rng.random((32, 144)), rng.random((144, 256))
    image = rng.random((16, 34, 34))

    def block():
        total = 0
        for i in range(4_000):
            total += i * i % 7
        for _ in range(10):
            out = np.maximum(weights @ cols, 0.0).reshape(32, 16, 16)
            total += float(out[:, ::2, ::2].sum()) + float(image[:, 1:33, 1:33].mean())
        return total
    return block


# ---------------------------------------------------------------------------
# train

class Train:
    name = "train"
    # 60 samples. Ten float epochs train well above chance, so 1-bit post-hoc
    # quantization loses accuracy; retraining uses the acceptance suite's
    # rate and epochs; on seeds 0-43 it beats post-hoc top-1 by at least 0.09.
    # Smaller runs or faster rates let retrained top-1 land below post-hoc
    # on some seeds, as top-1 swings from epoch to epoch.
    N_PER_CLASS = 6
    FLOAT = dict(epochs=10, learning_rate=0.08, batch_size=16)
    RETRAIN = dict(epochs=8, learning_rate=0.005, batch_size=16, profile=[1, 1, 1])

    def setup(self, seed: int, workdir: Path):
        net = network.load_network(config_path("toynet"))
        data = datasets.make_shapes_dataset(self.N_PER_CLASS, seed=seed)
        return {"seed": seed, "net": net, "data": data, "float": None}

    def reference(self):
        return _toynet_reference()

    def metrics(self) -> list[Metric]:
        return [Metric("train_sps", "samples/s", 0.5, self._float, 2),
                Metric("retrain_sps", "samples/s", 0.5, self._retrain, 2)]

    # A timed unit is one epoch, so a run holds many units; the full
    # schedule that the accuracy check needs runs once, untimed, in check.
    def _float(self, state, i: int) -> Outcome:
        config = train.TrainConfig(seed=state["seed"], **{**self.FLOAT, "epochs": 1})
        result = train.train_float(state["net"], state["data"], config)
        state["float"] = result
        return Outcome(len(state["data"]), "float", result)

    def _retrain(self, state, i: int) -> Outcome:
        config = train.TrainConfig(seed=state["seed"], **{**self.RETRAIN, "epochs": 1})
        result = train.retrain_quantized(state["net"], state["float"].model,
                                         state["data"], config)
        return Outcome(len(state["data"]), "retrain", result)

    def check(self, state, last: dict, digests: dict) -> tuple[list[Check], dict]:
        net, data, seed = state["net"], state["data"], state["seed"]
        float_result = train.train_float(net, data, train.TrainConfig(seed=seed, **self.FLOAT))
        retrained = train.retrain_quantized(net, float_result.model, data,
                                            train.TrainConfig(seed=seed, **self.RETRAIN))
        losses = [m.loss for m in float_result.metrics + retrained.metrics
                  + last["train_sps"].metrics + last["retrain_sps"].metrics]
        posthoc = codec.build_compressed_model(net, float_result.model,
                                               self.RETRAIN["profile"])
        posthoc_top1, _ = engine.accuracy(net, posthoc, data, "dequantized")
        retrained_top1, _ = engine.accuracy(net, retrained.model, data, "dequantized")
        checks = [
            Check("train.losses_finite", all(math.isfinite(x) for x in losses),
                  f"{len(losses)} epoch losses"),
            Check("train.retrained_top1_ge_posthoc", retrained_top1 >= posthoc_top1,
                  f"retrained {retrained_top1:.4f}, post-hoc {posthoc_top1:.4f}"),
        ]
        return checks, {}

    def baseline(self, values, parts, tracer) -> list[tuple[str, str, str]]:
        return []


# ---------------------------------------------------------------------------
# extract

class Extract:
    name = "extract"
    GROUPS, PER_GROUP = 4, 3     # 12 corpus images at toynet's 32 x 32
    CHECK_IMAGES = (0, 7)        # corpus positions used by the rotation checks

    def setup(self, seed: int, workdir: Path):
        net = network.load_network(config_path("toynet"))
        corpus = datasets.make_retrieval_corpus(self.GROUPS, self.PER_GROUP, 32, seed)
        model = network.init_float_model(net, np.random.default_rng([seed, 1]))
        compressed = codec.build_compressed_model(net, model, [1, 1, 1])
        return {"net": net, "images": list(corpus.values()),
                "model": model, "compressed": compressed}

    def reference(self):
        return _toynet_reference()

    def metrics(self) -> list[Metric]:
        return [Metric("nip_ips", "images/s", 0.2, self._nip("float", 4), 3),
                Metric("nip_dequant_ips", "images/s", 0.2, self._nip("dequantized", 4), 3),
                Metric("nip_int_ips", "images/s", 0.2, self._nip("integer", 6), 2),
                Metric("rnip5_ips", "images/s", 0.2, self._rnip((1, 2), 2), 2),
                Metric("rnip14_ips", "images/s", 0.2, self._rnip((1, 2, 3), 1), 2)]

    def _batch(self, state, i: int, size: int) -> list[int]:
        n = len(state["images"])
        return [(i * size + j) % n for j in range(size)]

    def _nip(self, mode: str, size: int):
        def run(state, i: int) -> Outcome:
            net, images = state["net"], state["images"]
            weights = state["model"] if mode == "float" else state["compressed"]
            batch = self._batch(state, i, size)
            exps = None
            if mode == "integer":  # calibrated once over the unit's images, as `qnip extract` does
                exps = engine.calibrate_activation_exponents(
                    net, weights, (images[k] for k in batch))
            descs = [descriptor.extract_nip(net, weights, images[k], mode, (1, 2, 3), exps)
                     for k in batch]
            return Outcome(size, repr(batch), descs)
        return run

    def _rnip(self, levels, size: int):
        def run(state, i: int) -> Outcome:
            batch = self._batch(state, i, size)
            descs = [descriptor.extract_rnip(state["net"], state["model"],
                                             state["images"][k], "float", levels)
                     for k in batch]
            return Outcome(size, repr(batch), descs)
        return run

    def check(self, state, last: dict, digests: dict) -> tuple[list[Check], dict]:
        net, images = state["net"], state["images"]
        model, compressed = state["model"], state["compressed"]
        dequant_model = codec.dequantized_float_model(compressed)
        exps = engine.calibrate_activation_exponents(net, compressed, images)
        checks = []

        def invariant(name, fn):
            bad = [k for k in self.CHECK_IMAGES
                   if fn(images[k]) != fn(ops.rotate90(images[k], 1))]
            checks.append(Check(name, not bad, f"images {list(self.CHECK_IMAGES)}, "
                                f"not invariant: {bad}"))

        invariant("extract.nip_float_rotation_invariant",
                  lambda im: descriptor.extract_nip(net, model, im, "float"))
        invariant("extract.nip_dequant_rotation_invariant",
                  lambda im: descriptor.extract_nip(net, compressed, im, "dequantized"))
        invariant("extract.nip_int_shared_exps_rotation_invariant",
                  lambda im: descriptor.extract_nip(net, compressed, im, "integer",
                                                    act_exponents=exps))
        invariant("extract.rnip5_float_rotation_invariant",
                  lambda im: descriptor.extract_rnip(net, model, im, "float", (1, 2)))
        bad = [k for k in self.CHECK_IMAGES
               if descriptor.extract_nip(net, compressed, images[k], "dequantized")
               != descriptor.extract_nip(net, dequant_model, images[k], "float")
               or descriptor.extract_rnip(net, compressed, images[k], "dequantized", (1, 2))
               != descriptor.extract_rnip(net, dequant_model, images[k], "float", (1, 2))]
        checks.append(Check("extract.dequant_equals_float_on_dequantized_weights",
                            not bad, f"nip and rnip-5x, mismatches: {bad}"))

        # Open question, reported as a count: without shared exponents each
        # rotation self-calibrates, which may or may not keep invariance.
        same = sum(descriptor.extract_nip(net, compressed, im, "integer")
                   == descriptor.extract_nip(net, compressed, ops.rotate90(im, 1), "integer")
                   for im in images)
        return checks, {"int_selfcal_rotation_identical_images": f"{same}/{len(images)}"}

    def baseline(self, values, parts, tracer) -> list[tuple[str, str, str]]:
        rows = []
        if tracer is not None:
            for mode, phase, base in (("float", "nip_ips", 1.83),
                                      ("dequantized", "nip_dequant_ips", 2.52),
                                      ("integer", "nip_int_ips", 6.34)):
                t = tracer.mean_duration("engine.forward", phase)
                if t is not None:
                    rows.append((f"toynet forward, {mode} (traced)", f"{base} ms",
                                 f"{1e3 * t:.2f} ms"))
        for name, label, base in (("nip_ips", "extract_nip (1,2,3) float", 9.2),
                                  ("rnip5_ips", "extract_rnip (1,2) float", 50),
                                  ("rnip14_ips", "extract_rnip (1,2,3) float", 133)):
            if values.get(name):
                rows.append((f"{label}, per image", f"{base} ms",
                             f"{1e3 / values[name]:.2f} ms"))
        return rows


# ---------------------------------------------------------------------------
# vgg16

class Vgg16:
    name = "vgg16"
    PROFILE = "3x7,1x6"
    FORWARD_SIZE = 32       # conv weights do not depend on the input resolution
    WEIGHT_SEED = 1905      # fixed, so the integer-mode golden digest stays valid
    PROBE_SEED = 3362
    SEEDED_IMAGES = 3
    CONTAINER_BYTES = 3_913_716
    # sha256 of the integer-mode tap for the fixed probe image; the integer
    # datapath is exact, so any correct implementation reproduces it.
    GOLDEN_INT_TAP = "5901011b602d945820d7ffb3a5f1d8665f769db51c3c716699f7862de124adcf"

    def setup(self, seed: int, workdir: Path):
        path = config_path("vgg16")
        full = network.load_network(path)
        small = network.parse_network(re.sub(
            r"(?m)^input .*$", f"input 3 {self.FORWARD_SIZE} {self.FORWARD_SIZE}",
            path.read_text()))
        profile = codec.parse_profile(self.PROFILE, len(full.conv_specs))
        model = network.init_float_model(full, np.random.default_rng(self.WEIGHT_SEED))
        compressed = codec.build_compressed_model(full, model, profile)
        small_model = dataclasses.replace(compressed, network=small)
        probe = datasets.make_retrieval_corpus(1, 1, self.FORWARD_SIZE, self.PROBE_SEED)
        seeded = datasets.make_retrieval_corpus(self.SEEDED_IMAGES, 1,
                                                self.FORWARD_SIZE, seed)
        images = list(probe.values()) + list(seeded.values())
        exps = engine.calibrate_activation_exponents(small, small_model, images[:1])
        return {"full": full, "small": small, "profile": profile, "model": model,
                "small_model": small_model, "images": images, "exps": exps}

    def reference(self):
        """A VGG-width float GEMM, an int64 matmul and a quantizer-like pass."""
        rng = np.random.default_rng(0)
        a, b = rng.random((64, 1152)), rng.random((1152, 128))
        ia, ib = rng.integers(-128, 128, (32, 576)), rng.integers(-128, 128, (576, 32))
        weights = rng.standard_normal(100_000)

        def block():
            a @ b
            ia @ ib
            return np.clip(np.round(weights * 8.0), -4, 3).sum()
        return block

    def metrics(self) -> list[Metric]:
        return [Metric("vgg16_codec_s", "s", 0.3, self._codec, 1, rate=False),
                Metric("vgg16_dequant_ips", "images/s", 0.25, self._forward("dequantized"), 2),
                Metric("vgg16_int_ips", "images/s", 0.45, self._forward("integer"), 1)]

    def _codec(self, state, i: int) -> Outcome:
        parts: dict[str, float] = {}
        built = _timed(parts, "build", codec.build_compressed_model,
                       state["full"], state["model"], state["profile"])
        blob = _timed(parts, "encode", codec.encode, built)
        back = _timed(parts, "decode", codec.decode, blob)
        return Outcome(1, "codec", (built, blob, back), parts)

    def _forward(self, mode: str):
        def run(state, i: int) -> Outcome:
            k = i % len(state["images"])
            exps = state["exps"] if mode == "integer" else None
            tap, _ = engine.forward(state["small"], state["small_model"],
                                    state["images"][k], mode, exps)
            return Outcome(1, str(k), tap)
        return run

    def check(self, state, last: dict, digests: dict) -> tuple[list[Check], dict]:
        built, blob, back = last["vgg16_codec_s"]
        sizes = codec.model_sizes(state["full"], state["profile"], built.policy,
                                  built.source_checksum)
        ratio = codec.model_ratio(state["full"], state["profile"])
        tap_digest = digests["vgg16_int_ips"].get("0", "missing")  # key "0" is the probe
        checks = [
            Check("vgg16.encoded_size_matches_model_sizes",
                  len(blob) == sizes.compressed_bytes == self.CONTAINER_BYTES,
                  f"len(encode) {len(blob)}, model_sizes {sizes.compressed_bytes}, "
                  f"expected {self.CONTAINER_BYTES}"),
            Check("vgg16.decode_encode_round_trip", back == built, "decode(encode(m)) == m"),
            Check("vgg16.model_ratio", round(ratio, 2) == 15.06, f"ratio {ratio:.4f}"),
            Check("vgg16.int_tap_golden_digest", tap_digest == self.GOLDEN_INT_TAP,
                  f"probe tap sha256 {tap_digest[:16]}..."),
        ]
        return checks, {}

    def baseline(self, values, parts, tracer) -> list[tuple[str, str, str]]:
        rows = []
        for step, base in (("encode", 0.29), ("decode", 0.18)):
            if parts.get(step):
                rows.append((f"VGG16 {step} (3.91 MB container)", f"{base} s",
                             f"{parts[step]:.3f} s"))
        return rows


# ---------------------------------------------------------------------------
# search

class Search:
    name = "search"
    N, D = 10_000, 96          # toynet's tap width
    GROUPS, GROUP_SIZE = 8, 4  # 8 queries, each with 3 relevant near-duplicates
    DUPLICATES = 20            # distractor rows repeated exactly under other ids
    CHECK_QUERIES = 3          # queries whose full rankings are checked per precision
    PRECISIONS = ("real", "byte", "bit")

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        n_grouped = self.GROUPS * self.GROUP_SIZE
        values = rng.gamma(0.6, size=(self.N, self.D))
        for g in range(self.GROUPS):
            rows = slice(g * self.GROUP_SIZE, (g + 1) * self.GROUP_SIZE)
            noise = rng.normal(0.0, 0.05, size=(self.GROUP_SIZE, self.D))
            values[rows] = np.clip(values[g * self.GROUP_SIZE] * (1.0 + noise), 0.0, None)
        dup = slice(n_grouped, n_grouped + self.DUPLICATES)
        values[n_grouped + self.DUPLICATES:n_grouped + 2 * self.DUPLICATES] = values[dup]
        values[n_grouped + 2 * self.DUPLICATES] = values[1]   # distractor tied with a relevant item
        values[-1] = 0.0                                      # all-zero descriptor
        norms = np.linalg.norm(values, axis=1, keepdims=True)
        values = np.divide(values, norms, out=np.zeros_like(values), where=norms > 0)
        ids = [f"{k:05d}" for k in rng.permutation(self.N)]
        ground_truth = {ids[g * self.GROUP_SIZE]:
                        ids[g * self.GROUP_SIZE + 1:(g + 1) * self.GROUP_SIZE]
                        for g in range(self.GROUPS)}
        real = {name: descriptor.Descriptor("real", row) for name, row in zip(ids, values)}
        sets = {"real": real}
        for precision in ("byte", "bit"):
            sets[precision] = {name: descriptor.convert_descriptor(d, precision)
                               for name, d in real.items()}
        paths = {}
        for precision, descs in sets.items():
            paths[precision] = workdir / f"index-{precision}.qds"
            descriptor.save_descriptors(paths[precision], descs)
        gt_path = workdir / "ground-truth.txt"
        retrieval.write_ground_truth(gt_path, ground_truth)
        return {"ids": ids, "values": values, "sets": sets, "paths": paths,
                "gt_path": gt_path, "ground_truth": ground_truth,
                "check_queries": [ids[g * self.GROUP_SIZE] for g in
                                  rng.choice(self.GROUPS, self.CHECK_QUERIES, replace=False)]}

    def reference(self):
        """Cosine scoring in a Python loop over an index-sized dict of vectors."""
        rng = np.random.default_rng(0)
        table = {f"{k:05d}": rng.random(self.D) for k in range(self.N)}
        names = [f"{k:05d}" for k in rng.permutation(self.N)[:300]]
        query = table[names[0]]

        def block():
            norm = float(np.linalg.norm(query))
            scored = [(name, float(query @ table[name])
                       / (norm * float(np.linalg.norm(table[name])))) for name in names]
            scored.sort(key=lambda t: (-t[1], t[0]))
            return scored[0]
        return block

    def metrics(self) -> list[Metric]:
        return [Metric(f"search_{p}_qps", "queries/s", 1 / 3, self._eval(p), 1)
                for p in self.PRECISIONS]

    def _eval(self, precision: str):
        def run(state, i: int) -> Outcome:
            parts: dict[str, float] = {}
            descs = _timed(parts, "load", descriptor.load_descriptors,
                           state["paths"][precision])
            ground_truth = retrieval.read_ground_truth(state["gt_path"])
            index = retrieval.build_index(descs)
            mAP, per_query = retrieval.evaluate(index, ground_truth)
            return Outcome(len(ground_truth), precision, (mAP, per_query), parts)
        return run

    # -- reference: NumPy over the generated values, never through qnip's reader

    def _reference_matrix(self, state, precision):
        descs = state["sets"][precision]
        ids = state["ids"]
        if precision == "real":
            return np.stack([descs[n].values for n in ids]).astype(np.float32).astype(np.float64)
        if precision == "byte":
            scales = np.array([np.float32(descs[n].scale) for n in ids], np.float64)
            return (np.stack([descs[n].values for n in ids]).astype(np.float64)
                    * np.where(scales > 0, scales / 255.0, 0.0)[:, None])
        return np.stack([descs[n].values for n in ids])

    @staticmethod
    def _reference_scores(matrix, row, precision):
        if precision == "bit":
            return (matrix != matrix[row]).sum(axis=1)
        dots = (matrix * matrix[row]).sum(axis=1)
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        denom = norms * norms[row]
        return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)

    def _reference_ranking(self, state, matrix, row, precision):
        ids = state["ids"]
        scores = self._reference_scores(matrix, row, precision)
        sign = 1 if precision == "bit" else -1
        order = sorted((r for r in range(len(ids)) if r != row),
                       key=lambda r: (sign * scores[r], ids[r]))
        return [ids[r] for r in order], {ids[r]: scores[r] for r in range(len(ids))}

    def check(self, state, last: dict, digests: dict) -> tuple[list[Check], dict]:
        ids, ground_truth = state["ids"], state["ground_truth"]
        row_of = {name: r for r, name in enumerate(ids)}
        checks = []
        for precision in self.PRECISIONS:
            mAP, per_query = last[f"search_{precision}_qps"]
            index = retrieval.build_index(descriptor.load_descriptors(state["paths"][precision]))
            matrix = self._reference_matrix(state, precision)
            stored = state["sets"][precision]
            bad = [n for n in ids if not self._loaded_as_stored(index.entries[n], stored[n])]
            checks.append(Check(f"search.{precision}_load_matches_generated", not bad,
                                f"{len(ids)} descriptors, {len(bad)} differ"))
            ref_ap = {}
            for qid, relevant in ground_truth.items():
                ranked, _ = self._reference_ranking(state, matrix, row_of[qid], precision)
                hits, total = 0, 0.0
                for rank, name in enumerate(ranked, start=1):
                    if name in relevant:
                        hits += 1
                        total += hits / rank
                ref_ap[qid] = total / len(relevant)
            ref_map = sum(ref_ap.values()) / len(ref_ap)
            ap_ok = all(math.isclose(per_query[q], ref_ap[q], rel_tol=0, abs_tol=1e-12)
                        for q in ref_ap)
            checks.append(Check(f"search.{precision}_map_matches_reference",
                                ap_ok and math.isclose(mAP, ref_map, rel_tol=0, abs_tol=1e-12),
                                f"mAP {mAP:.6f}, reference {ref_map:.6f}"))
            bad = []
            for qid in state["check_queries"]:
                got = retrieval.search(index, index.entries[qid], exclude=qid)
                ranked, scores = self._reference_ranking(state, matrix, row_of[qid], precision)
                if not self._same_ranking(got, ranked, scores, precision):
                    bad.append(qid)
            checks.append(Check(f"search.{precision}_ranking_matches_reference", not bad,
                                f"queries {state['check_queries']}, mismatched: {bad}"))
        return checks, {}

    @staticmethod
    def _loaded_as_stored(got, saved) -> bool:
        """QDS1 stores real payloads and the byte/bit metadata as float32."""
        meta = (lambda v: None if v is None else float(np.float32(v)))
        values = (saved.values.astype(np.float32).astype(np.float64)
                  if saved.precision == "real" else saved.values)
        return (got.precision == saved.precision and np.array_equal(got.values, values)
                and got.values.dtype == values.dtype
                and got.scale == meta(saved.scale) and got.threshold == meta(saved.threshold))

    @staticmethod
    def _same_ranking(got, ranked, scores, precision) -> bool:
        """Bit rankings must match exactly; real and byte rankings may only
        swap entries whose reference scores agree within 1e-12."""
        if len(got) != len(ranked):
            return False
        if precision == "bit":
            return [n for n, _ in got] == ranked and all(
                s == scores[n] for n, s in got)
        if sorted(n for n, _ in got) != sorted(ranked):
            return False
        return all(abs(scores[g] - scores[r]) <= 1e-12 and abs(s - scores[g]) <= 1e-12
                   for (g, s), r in zip(got, ranked))

    def baseline(self, values, parts, tracer) -> list[tuple[str, str, str]]:
        rows = []
        for precision, base in (("real", "33.9"), ("bit", "9.1")):
            qps = values.get(f"search_{precision}_qps")
            if qps:
                rows.append((f"search {precision}, per query (ROADMAP at N=5000; here N={self.N}"
                             ", load included)", f"{base} ms", f"{1e3 / qps:.2f} ms"))
        return rows


WORKLOADS = {"train": Train, "extract": Extract, "vgg16": Vgg16, "search": Search}
