"""Nearest-neighbour search over descriptors and retrieval scoring.

Real and byte descriptors are ranked by cosine similarity, bit
descriptors by Hamming distance. build_index packs the descriptors once
into one row matrix in sorted-id order: float64 rows for real, the
stored uint8 codes for byte (cosine ignores a positive per-row scale; a
row with scale 0 dequantizes to zeros and is zeroed), and the 0/1 flags
for bit, plus each row's L2 norm. search then scores every row in one
vectorised pass and ranks them with one stable sort.

Ties break toward the lexicographically smaller id so rankings are
reproducible. Exact duplicate rows always get identical scores: the
cosine dot products come from np.einsum, which sums every row in the
same order (a BLAS matrix-vector product need not, and would split
exact ties by row position). Cosine scores agree with the per-pair
formula a@b / (|a| |b|) to within an ulp or so, so two entries whose
scores lie that close may rank in either order; Hamming scores and
rankings are exact.

Datasets follow the numbered-filename convention: images whose stems
share the same leading group number (all digits but the last two) are
relevant to each other, the first image of each group is its query, and
the query itself never appears in its own ranking.

File fixtures:
  * image rasters  — magic "IMG1", u16 channels/height/width (LE), each
    at least 1, then row-major uint8 samples; loaded as floats in [0, 1]
    by read_image, written by write_image, under binfile's contracts.
  * ground truth   — one line per query: "query_id: id1 id2 ...".
  * result lists   — CSV with header "query_id,rank,id,score".
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import CorruptionError, EncodeError, Reader, pack
from .descriptor import Descriptor, descriptor_set_shape

IMAGE_MAGIC = b"IMG1"


@dataclass(eq=False)
class RetrievalIndex:
    entries: dict[str, Descriptor]
    ids: np.ndarray = field(repr=False)    # object array of the ids, sorted
    rows: np.ndarray = field(repr=False)   # (N, D) packed descriptors, row i is ids[i]
    norms: np.ndarray = field(repr=False)  # (N,) float64 L2 norm of each row

    @property
    def precision(self) -> str:
        first = next(iter(self.entries.values()))
        return first.precision

    def __len__(self) -> int:
        return len(self.entries)


def _pack(names: list[str], descs: list[Descriptor]) -> np.ndarray:
    """Stack the values of descriptors of one precision into scoring rows."""
    precision = descs[0].precision
    rows = np.stack([np.asarray(d.values) for d in descs])
    if precision == "real":
        rows = rows.astype(np.float64, copy=False)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"real descriptor {names[int(np.argmin(finite))]!r} "
                             f"holds non-finite values")
    elif precision == "byte":
        scales = np.array([d.scale or 0.0 for d in descs], np.float64)
        bad = ~(np.isfinite(scales) & (scales >= 0.0))
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"byte descriptor {names[row]!r} has scale {scales[row]}; "
                             f"expected a finite value >= 0")
        rows[scales == 0.0] = 0
    return rows


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))


def build_index(descriptors: dict[str, Descriptor]) -> RetrievalIndex:
    descriptor_set_shape(descriptors)
    names = sorted(descriptors)
    rows = _pack(names, [descriptors[n] for n in names])
    return RetrievalIndex(dict(descriptors), np.array(names, dtype=object), rows,
                          _norms(rows))


def search(index: RetrievalIndex, query: Descriptor, k: int | None = None,
           exclude: str | None = None) -> list[tuple[str, float]]:
    """Ranked (id, score) pairs. Score is cosine similarity (higher is
    better) or, for bit descriptors, Hamming distance (lower is better)."""
    if query.precision != index.precision:
        raise ValueError(
            f"query precision {query.precision!r} != index precision {index.precision!r}")
    if query.dim != index.rows.shape[1]:
        raise ValueError(f"query length {query.dim} != index length {index.rows.shape[1]}")
    if k is not None and k < 1:
        raise ValueError(f"k must be positive, got {k}")
    q = _pack(["query"], [query])
    if index.precision == "bit":
        scores = np.count_nonzero(index.rows != q, axis=1)
        order = np.argsort(scores, kind="stable")
    else:
        dots = np.einsum("ij,j->i", index.rows, q[0], dtype=np.float64)
        denom = index.norms * _norms(q)[0]
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
        order = np.argsort(-scores, kind="stable")
    if exclude is not None:
        row = int(np.searchsorted(index.ids, exclude))
        if row < len(index.ids) and index.ids[row] == exclude:
            order = order[order != row]
    order = order[:k]
    return list(zip(index.ids[order].tolist(), scores[order].tolist()))


def average_precision(ranked_ids, relevant) -> float:
    """Mean of precision@k over the ranks holding relevant items.

    The divisor is the full relevant-set size, so items missing from the
    ranking count as misses.
    """
    relevant = set(relevant)
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for rank, name in enumerate(ranked_ids, start=1):
        if name in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_average_precision(index: RetrievalIndex, ground_truth: dict,
                           query_ids=None) -> float:
    """Unweighted mean AP over the queries; each query is ranked against
    every other index entry (never itself)."""
    mAP, _ = evaluate(index, ground_truth, query_ids)
    return mAP


def evaluate(index: RetrievalIndex, ground_truth: dict,
             query_ids=None) -> tuple[float, dict[str, float]]:
    if query_ids is None:
        query_ids = list(ground_truth)
    if not query_ids:
        raise ValueError("no queries to evaluate")
    per_query = {}
    for qid in query_ids:
        if qid not in ground_truth:
            raise ValueError(f"query {qid!r} has no ground-truth entry")
        if qid not in index.entries:
            raise ValueError(f"query {qid!r} is not in the index")
        ranked = search(index, index.entries[qid], exclude=qid)
        per_query[qid] = average_precision([name for name, _ in ranked],
                                           ground_truth[qid])
    return sum(per_query.values()) / len(per_query), per_query


# ---------------------------------------------------------------------------
# datasets on disk

def write_image(path, image: np.ndarray) -> None:
    """Store a float image in [0, 1] as an 8-bit raster."""
    image = np.asarray(image)
    if image.ndim != 3:
        raise ValueError(f"image must be C,H,W, got shape {image.shape}")
    if not all(0 < n <= 0xFFFF for n in image.shape):
        raise EncodeError(f"image dimensions {image.shape} must each be 1..65535")
    samples = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    header = pack("<HHH", "header (channels, height, width)", *image.shape)
    Path(path).write_bytes(IMAGE_MAGIC + header + samples.tobytes())


def read_image(path) -> np.ndarray:
    rd = Reader(Path(path).read_bytes(), IMAGE_MAGIC, "an image raster", path)
    c, h, w = rd.unpack("<HHH", "header")
    if 0 in (c, h, w):
        raise CorruptionError(f"{path}: empty {c}x{h}x{w} raster")
    samples = rd.array(np.uint8, c * h * w, "samples")
    rd.finish()
    return samples.reshape(c, h, w).astype(np.float64) / 255.0


def holidays_group(stem: str) -> str:
    """Group key = all but the last two digits of the numeric stem."""
    return stem[:-2] if len(stem) > 2 else stem


def ingest_dataset(directory, group_rule=holidays_group):
    """Load every *.img raster under directory and derive ground truth.

    Returns (images, ground_truth): images maps id -> float array in
    filename order; ground_truth maps each group's first id to the rest
    of its group. Groups with a single image produce no query (warned).
    """
    directory = Path(directory)
    files = sorted(directory.glob("*.img"))
    if not files:
        raise ValueError(f"no .img files under {directory}")
    images = {}
    groups: dict[str, list[str]] = {}
    for path in files:
        stem = path.stem
        if stem in images:
            raise ValueError(f"duplicate image id {stem!r}")
        images[stem] = read_image(path)
        groups.setdefault(group_rule(stem), []).append(stem)
    ground_truth = {}
    for key, members in groups.items():
        if len(members) < 2:
            warnings.warn(f"group {key!r} has a single image; no query emitted")
            continue
        ground_truth[members[0]] = list(members[1:])
    return images, ground_truth


def write_ground_truth(path, ground_truth: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for qid, relevant in ground_truth.items():
            fh.write(f"{qid}: {' '.join(relevant)}\n")


def read_ground_truth(path) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            qid, sep, rest = line.partition(":")
            if not sep or not qid.strip():
                raise ValueError(f"{path}:{line_no}: expected 'query_id: id ...'")
            out[qid.strip()] = rest.split()
    if not out:
        raise ValueError(f"{path}: no ground-truth lines")
    return out


def write_results_csv(path, results: dict[str, list[tuple[str, float]]],
                      bitwise: bool = False) -> None:
    """results maps query_id -> ranked (id, score) pairs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("query_id,rank,id,score\n")
        for qid, ranked in results.items():
            for rank, (name, score) in enumerate(ranked, start=1):
                text = str(int(score)) if bitwise else f"{score:.6f}"
                fh.write(f"{qid},{rank},{name},{text}\n")
