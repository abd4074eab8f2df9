"""Nearest-neighbour search over descriptors and retrieval scoring.

Real and byte descriptors are ranked by cosine similarity, bit
descriptors by Hamming distance. build_index scores a DescriptorSet's
rows as they are: float64 rows for real, the stored uint8 codes for byte
(cosine ignores a positive per-row scale; a row with scale 0 dequantizes
to zeros and gets norm 0), and the packed bits for bit, whose Hamming
distance is a popcount of XOR. Its only new array is each real or byte
row's L2 norm. search then scores every row in one vectorised pass,
ranks them with one stable sort and returns a Ranking: a sequence of
(id, score) pairs held as the ranked rows and their scores.

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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import CorruptionError, EncodeError, Reader, pack
from .descriptor import Descriptor, DescriptorSet

IMAGE_MAGIC = b"IMG1"


@dataclass(eq=False)
class RetrievalIndex:
    entries: DescriptorSet
    norms: np.ndarray | None = field(repr=False)  # (N,) float64 scoring norms; None for bit

    @property
    def precision(self) -> str:
        return self.entries.precision

    def __len__(self) -> int:
        return len(self.entries)


class Ranking(Sequence):
    """Ranked (id, score) pairs of one search, held as arrays: the index
    row of each ranked entry, best first, and its score. Items are
    (str, int) pairs for Hamming scores and (str, float) pairs for cosine;
    a slice is a Ranking, and a Ranking equals any sequence of equal pairs."""

    def __init__(self, entries: DescriptorSet, order: np.ndarray, scores: np.ndarray):
        self.entries, self.order, self.scores = entries, order, scores

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Ranking(self.entries, self.order[i], self.scores[i])
        return self.entries.ids[self.order[i]], self.scores[i].item()

    def __iter__(self):
        return zip(self.entries.ids[self.order].tolist(), self.scores.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"

    def average_precision(self, relevant) -> float:
        """average_precision of this ranking's ids, from the ranks of the
        relevant rows alone."""
        relevant = set(relevant)
        rows = [row for row in map(self.entries.row, relevant) if row is not None]
        ranks = np.flatnonzero(np.isin(self.order, rows)) + 1
        return _mean_precision(ranks.tolist(), len(relevant))


def _norms(entries: DescriptorSet) -> np.ndarray:
    """L2 norm of each real or byte row. Cosine ignores a positive byte
    scale; a byte row of scale 0 dequantizes to zeros, so its norm is 0."""
    rows = entries.rows
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    if entries.precision == "byte":
        norms[entries.meta == 0.0] = 0.0
    return norms


def build_index(descriptors: Mapping[str, Descriptor]) -> RetrievalIndex:
    """Index a DescriptorSet as it is, or a dict of descriptors stacked once."""
    entries = DescriptorSet.stack(descriptors)
    return RetrievalIndex(entries, None if entries.precision == "bit" else _norms(entries))


def search(index: RetrievalIndex, query: Descriptor, k: int | None = None,
           exclude: str | None = None) -> Ranking:
    """Ranked (id, score) pairs. Score is cosine similarity (higher is
    better) or, for bit descriptors, Hamming distance (lower is better)."""
    entries = index.entries
    if query.precision != entries.precision:
        raise ValueError(
            f"query precision {query.precision!r} != index precision {entries.precision!r}")
    if query.dim != entries.dim:
        raise ValueError(f"query length {query.dim} != index length {entries.dim}")
    if k is not None and k < 1:
        raise ValueError(f"k must be positive, got {k}")
    q = DescriptorSet.stack({"query": query})
    if entries.precision == "bit":
        scores = np.bitwise_count(entries.rows ^ q.rows[0]).sum(axis=1)
        order = np.argsort(scores, kind="stable")
    else:
        dots = np.einsum("ij,j->i", entries.rows, q.rows[0], dtype=np.float64)
        denom = index.norms * _norms(q)[0]
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
        order = np.argsort(-scores, kind="stable")
    row = entries.row(exclude)
    if row is not None:
        order = order[order != row]
    order = order[:k]
    return Ranking(entries, order, scores[order])


def _mean_precision(ranks, n_relevant: int) -> float:
    """Mean of precision@rank over the increasing ranks of the hits."""
    if not n_relevant:
        raise ValueError("relevant set is empty")
    total = 0.0
    for hits, rank in enumerate(ranks, start=1):
        total += hits / rank
    return total / n_relevant


def average_precision(ranked_ids, relevant) -> float:
    """Mean of precision@k over the ranks holding relevant items.

    The divisor is the full relevant-set size, so items missing from the
    ranking count as misses.
    """
    relevant = set(relevant)
    return _mean_precision([rank for rank, name in enumerate(ranked_ids, start=1)
                            if name in relevant], len(relevant))


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
        per_query[qid] = ranked.average_precision(ground_truth[qid])
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
