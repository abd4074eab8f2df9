"""Nearest-neighbour search over descriptors and retrieval scoring.

Real and byte descriptors are ranked by cosine similarity, bit
descriptors by Hamming distance. build_index holds the rows search
scores: a real set's float64 rows as they are, a byte set's uint8 codes
cast once to floats, and a bit set's packed bits zero-padded once to
whole uint64 words, whose Hamming distance is a popcount of XOR summed
over the words. Cosine ignores a positive per-row byte scale; a byte row
with scale 0 dequantizes to zeros and gets norm 0.

Byte rows are scored by a BLAS product, matrix @ query, in float32 while
255**2 * dim < 2**24 (dim <= 258) and in float64 above that. Each
product of two codes, and each partial sum of a row's products or
squares, is then an integer below 2**24 (2**53 in float64), which that
dtype holds exactly, so every dot product and norm is the same integer
in any summation order. The dot products are widened to float64 before
the division, so each score has the bits of the float64 einsum formula.
The matrix costs N * dim * 4 bytes, or N * dim * 8 above dim 258. Real
rows keep np.einsum, because a BLAS product may change their bits.

search scores every row in one vectorised pass and returns a Ranking: a
sequence of (id, score) pairs that holds every row's score, the excluded
row and k. Its order is one stable argsort of the scores, run when the
ranking is first iterated, indexed or sliced.

evaluate needs only the ranks of each query's relevant rows, so
Ranking.average_precision counts them instead of sorting the index. For
cosine it sorts the score values once (np.sort, no indices), finds how
many rows score better than each relevant row with one np.searchsorted
and, only for a relevant score that other rows share, counts the equal
scores at lower rows by stable-sorting just the rows that share it.
Hamming distances tie often, so there it sorts distance * N + row, which
orders the rows exactly as the stable argsort does. The ranks are
exactly the argsort's, ties, -0.0 == 0.0 and NaN (which sorts last)
included. At N = 10,000 on 2 vCPUs (NumPy 2.4), ranking 3 to 1,000
relevant rows costs 50-320 us per query for cosine and 75-160 us for
Hamming, against 550-1,100 us for the stable argsort. Only cosine scores
that take few distinct values, with a hundred or more relevant rows, cost
more than the argsort (up to about 2.5 times at 97 distinct values and
1,000 relevant rows), since nearly every row then shares a relevant score.

Ties break toward the lexicographically smaller id so rankings are
reproducible. Exact duplicate rows always get identical scores: real
dot products come from np.einsum, which sums every row in the same
order (a BLAS matrix-vector product need not, and would split exact
ties by row position), and byte dot products are exact integers. Cosine
scores agree with the per-pair formula a@b / (|a| |b|) to within an ulp
or so, so two entries whose scores lie that close may rank in either
order; Hamming scores and rankings are exact.

Datasets follow the numbered-filename convention: images whose stems
share the same leading group number (all digits but the last two) are
relevant to each other, the first image of each group is its query, and
the query itself never appears in its own ranking.

File fixtures:
  * image rasters  — magic "IMG1", u16 channels/height/width (LE), each
    at least 1, then row-major uint8 samples; loaded as floats in [0, 1]
    by read_image, written by write_image, under binfile's contracts.
  * ground truth   — one line per query: "query_id: id1 id2 ...".
  * result lists   — CSV with header "query_id,rank,id,score", written by
    write_results through csv.writer (an id holding a comma is quoted).
"""
from __future__ import annotations

import copy
import csv
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .binfile import CorruptionError, EncodeError, Reader, pack
from .descriptor import Descriptor, DescriptorSet

IMAGE_MAGIC = b"IMG1"


@dataclass(eq=False)
class RetrievalIndex:
    entries: DescriptorSet
    norms: np.ndarray | None = field(repr=False)  # (N,) float64 cosine norms; None for bit
    # the rows search scores: entries.rows for real, (N, dim) float codes
    # for byte (_cosine_rows), (N, W) uint64 words for bit
    rows: np.ndarray = field(repr=False)

    @property
    def precision(self) -> str:
        return self.entries.precision

    def __len__(self) -> int:
        return len(self.entries)


class Ranking(Sequence):
    """Ranked (id, score) pairs of one search. Items are (str, int) pairs
    for Hamming scores and (str, float) pairs for cosine; a slice is a
    Ranking, and a Ranking equals any sequence of equal pairs.

    It holds every index row's score, the excluded row and the positions
    it covers in the full ranking (range(k) after a search with k). The
    ranked order is sorted once, when the ranking is first read in order;
    len and average_precision never sort it."""

    def __init__(self, entries: DescriptorSet, scores: np.ndarray, exclude: int | None,
                 k: int | None):
        self.entries, self.scores, self.exclude = entries, scores, exclude
        self.positions = range(len(scores) - (exclude is not None))[:k]

    @property
    def _keys(self) -> np.ndarray:
        """Each row's sort key: the Hamming distance, or minus the cosine."""
        return self.scores if self.entries.precision == "bit" else -self.scores

    @cached_property
    def _ranked(self) -> np.ndarray:
        """Every row but the excluded one, best first; ties by row, so by id."""
        order = np.argsort(self._keys, kind="stable")
        return order if self.exclude is None else order[order != self.exclude]

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = copy.copy(self)  # shares the sorted order once it exists
            part.positions = self.positions[i]
            return part
        row = self._ranked[self.positions[i]]
        return self.entries.ids[row], self.scores[row].item()

    def __iter__(self):
        p = self.positions
        order = self._ranked[np.arange(p.start, p.stop, p.step)]
        return zip(self.entries.ids[order].tolist(), self.scores[order].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"

    def average_precision(self, relevant) -> float:
        """average_precision of this ranking's ids, from the ranks of the
        relevant rows alone, counted without sorting the index."""
        relevant = set(relevant)
        rows = [row for row in map(self.entries.row, relevant)
                if row is not None and row != self.exclude]
        if self.exclude is not None:
            rows.append(self.exclude)
        ranks = _stable_ranks(self._keys, np.array(rows, dtype=np.intp))
        if self.exclude is not None:
            ranks, excluded = ranks[:-1], ranks[-1]
            ranks -= ranks > excluded
        p = self.positions
        hits = sorted(p.index(rank) + 1 for rank in ranks.tolist() if rank in p)
        return _mean_precision(hits, len(relevant))


def _stable_ranks(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where each of rows lands in np.argsort(keys, kind="stable"), found
    without that sort: the number of smaller keys (NaN sorts last), counted
    in np.sort(keys), plus the number of equal keys at lower rows."""
    if keys.dtype.kind == "u":
        # Hamming distances tie often; key * N + row orders the rows as the
        # stable sort does, and is at most the index's bit count
        packed = keys.astype(np.int64) * len(keys) + np.arange(len(keys))
        return np.searchsorted(np.sort(packed), packed[rows])
    ordered = np.sort(keys)
    found = keys[rows]
    ranks = np.searchsorted(ordered, found)
    tied = np.searchsorted(ordered, found, "right") - ranks > 1
    if tied.any():
        # stable-sort only the rows that share a key with a tied row
        values = found[tied]
        shared = np.isin(keys, values, kind="sort")
        if np.isnan(values).any():
            shared |= np.isnan(keys)
        shared = np.flatnonzero(shared)
        by_key = np.argsort(keys[shared], kind="stable")
        place = np.empty_like(by_key)
        place[by_key] = np.arange(len(by_key))
        ahead = np.searchsorted(keys[shared[by_key]], values)
        ranks[tied] += place[np.searchsorted(shared, rows[tied])] - ahead
    return ranks


def _cosine_rows(entries: DescriptorSet) -> np.ndarray:
    """The rows cosine scores: real rows as they are, byte codes as floats
    wide enough that every dot product and sum of squares is an exact
    integer (float32 while 255**2 * dim < 2**24, else float64)."""
    if entries.precision == "real":
        return entries.rows
    exact32 = 255 ** 2 * entries.dim < 2 ** 24
    return entries.rows.astype(np.float32 if exact32 else np.float64)


def _norms(entries: DescriptorSet, rows: np.ndarray) -> np.ndarray:
    """L2 norm of each of rows, the _cosine_rows of entries. Cosine ignores
    a positive byte scale; a byte row of scale 0 dequantizes to zeros, so
    its norm is 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=rows.dtype)
                    .astype(np.float64, copy=False))
    if entries.precision == "byte":
        norms[entries.meta == 0.0] = 0.0
    return norms


def _words(rows: np.ndarray) -> np.ndarray:
    """Packed bit rows zero-padded to whole uint64 words; the zero bits
    add nothing to a popcount of XOR."""
    words = np.zeros((len(rows), -(-rows.shape[1] // 8)), np.uint64)
    words.view(np.uint8)[:, :rows.shape[1]] = rows
    return words


def build_index(descriptors: Mapping[str, Descriptor]) -> RetrievalIndex:
    """Index a DescriptorSet as it is, or a dict of descriptors stacked once."""
    entries = DescriptorSet.stack(descriptors)
    if entries.precision == "bit":
        return RetrievalIndex(entries, None, _words(entries.rows))
    rows = _cosine_rows(entries)
    return RetrievalIndex(entries, _norms(entries, rows), rows)


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
        scores = np.bitwise_count(index.rows ^ _words(q.rows)[0]).sum(axis=1)
    else:
        rows = _cosine_rows(q)
        if entries.precision == "real":
            dots = np.einsum("ij,j->i", index.rows, rows[0], dtype=np.float64)
        else:  # exact integers in any summation order
            dots = (index.rows @ rows[0]).astype(np.float64, copy=False)
        denom = index.norms * _norms(q, rows)[0]
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0.0)
    return Ranking(entries, scores, entries.row(exclude), k)


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


def mean_average_precision(index: RetrievalIndex, ground_truth: dict) -> float:
    """Unweighted mean AP over the ground truth's queries; each query is
    ranked against every other index entry (never itself)."""
    mAP, _ = evaluate(index, ground_truth)
    return mAP


def evaluate(index: RetrievalIndex, ground_truth: dict) -> tuple[float, dict[str, float]]:
    if not ground_truth:
        raise ValueError("no queries to evaluate")
    per_query = {}
    for qid in ground_truth:
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


def ingest_dataset(directory):
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
        groups.setdefault(holidays_group(stem), []).append(stem)
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
            qid = qid.strip()
            if not sep or not qid:
                raise ValueError(f"{path}:{line_no}: expected 'query_id: id ...'")
            if qid in out:
                raise ValueError(f"{path}:{line_no}: duplicate query {qid!r}")
            out[qid] = rest.split()
    if not out:
        raise ValueError(f"{path}: no ground-truth lines")
    return out


def write_results(fh, results: dict[str, list[tuple[str, float]]], bitwise: bool = False) -> None:
    """Results CSV to an open text file; results maps query_id -> ranked (id, score) pairs."""
    rows = csv.writer(fh, lineterminator="\n")
    rows.writerow(("query_id", "rank", "id", "score"))
    for qid, ranked in results.items():
        rows.writerows((qid, rank, name, str(int(score)) if bitwise else f"{score:.6f}")
                       for rank, (name, score) in enumerate(ranked, start=1))


def write_results_csv(path, results: dict[str, list[tuple[str, float]]],
                      bitwise: bool = False) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_results(fh, results, bitwise)
