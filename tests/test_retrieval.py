"""Search, average precision, image rasters and benchmark plumbing."""

import struct

import numpy as np
import pytest

from qnip.binfile import CorruptionError

from qnip.descriptor import (
    Descriptor,
    DescriptorSet,
    binarize_descriptor,
    convert_descriptor,
    dequantize_descriptor,
    load_descriptors,
    quantize_descriptor,
    save_descriptors,
)
from qnip.retrieval import (
    average_precision,
    build_index,
    evaluate,
    Ranking,
    holidays_group,
    ingest_dataset,
    mean_average_precision,
    read_ground_truth,
    read_image,
    search,
    write_ground_truth,
    write_image,
    write_results_csv,
)


def test_average_precision_hand_cases():
    assert average_precision(["b", "a"], {"b"}) == 1.0
    assert average_precision(["a", "b"], {"b"}) == 0.5
    # hits at ranks 1 and 3: (1/2) * (1/1 + 2/3)
    assert abs(average_precision(["a", "b", "c"], {"a", "c"}) - 5.0 / 6.0) <= 1e-12
    assert average_precision(["a", "b"], {"x"}) == 0.0
    assert average_precision([], {"x"}) == 0.0


def test_average_precision_requires_relevant_set():
    with pytest.raises(ValueError):
        average_precision(["a"], set())


def _real_index():
    # four 2-d unit vectors at known angles to the query direction (1, 0)
    entries = {
        "q": Descriptor("real", np.array([1.0, 0.0])),
        "close": Descriptor("real", np.array([0.9, np.sqrt(1 - 0.81)])),
        "mid": Descriptor("real", np.array([0.5, np.sqrt(0.75)])),
        "far": Descriptor("real", np.array([0.0, 1.0])),
    }
    return build_index(entries), entries


def test_search_orders_by_cosine():
    index, entries = _real_index()
    ranked = search(index, entries["q"], exclude="q")
    assert [name for name, _ in ranked] == ["close", "mid", "far"]
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert abs(ranked[0][1] - 0.9) <= 1e-12


def test_search_exclude_and_k():
    index, entries = _real_index()
    assert len(search(index, entries["q"])) == 4
    assert len(search(index, entries["q"], k=2)) == 2
    with pytest.raises(ValueError):
        search(index, entries["q"], k=0)


def test_search_tie_break_is_lexicographic():
    entries = {
        "b": Descriptor("real", np.array([1.0, 0.0])),
        "a": Descriptor("real", np.array([1.0, 0.0])),
        "c": Descriptor("real", np.array([0.0, 1.0])),
    }
    index = build_index(entries)
    ranked = search(index, Descriptor("real", np.array([1.0, 0.0])))
    assert [name for name, _ in ranked] == ["a", "b", "c"]


def test_search_precision_and_dim_mismatch():
    index, entries = _real_index()
    with pytest.raises(ValueError):
        search(index, binarize_descriptor(entries["q"]))
    with pytest.raises(ValueError):
        search(index, Descriptor("real", np.array([1.0, 0.0, 0.0])))


def test_byte_search_matches_real_ordering():
    rng = np.random.default_rng(40)
    reals = {f"v{i}": Descriptor("real", rng.uniform(0, 1, 16)) for i in range(8)}
    bytes_ = {k: quantize_descriptor(d) for k, d in reals.items()}
    q = "v0"
    real_rank = [n for n, _ in search(build_index(reals), reals[q], exclude=q)]
    byte_rank = [n for n, _ in search(build_index(bytes_), bytes_[q], exclude=q)]
    # 8-bit quantization barely moves cosine scores on well-spread vectors
    assert real_rank[:3] == byte_rank[:3]


def test_hamming_search_matches_sign_cosine_ordering():
    # on +-1 vectors cosine is a monotone map of Hamming distance:
    # cos = (n - 2h) / n, so both rankings agree
    rng = np.random.default_rng(41)
    bits = {f"v{i}": Descriptor("bit", rng.integers(0, 2, 32).astype(np.uint8))
            for i in range(10)}
    signs = {k: Descriptor("real", d.values.astype(np.float64) * 2.0 - 1.0)
             for k, d in bits.items()}
    q = "v0"
    bit_rank = [n for n, _ in search(build_index(bits), bits[q], exclude=q)]
    sign_rank = [n for n, _ in search(build_index(signs), signs[q], exclude=q)]
    assert bit_rank == sign_rank


def test_hamming_scores_are_integer_counts():
    a = Descriptor("bit", np.array([1, 0, 1, 0], np.uint8))
    b = Descriptor("bit", np.array([1, 1, 0, 0], np.uint8))
    index = build_index({"a": a, "b": b})
    ranked = search(index, a)
    assert ranked[0] == ("a", 0)
    assert ranked[1] == ("b", 2)


# ---------------------------------------------------------------------------
# search contract: the packed index against per-pair scoring

def _oracle_search(entries, query, k=None, exclude=None):
    """Per-pair reference: cosine a@b / (|a| |b|) on dequantized values
    (0 when either norm is 0), or the Hamming distance for bit
    descriptors; ranked by score, ties by id."""
    def comparable(d):
        if d.precision == "byte":
            return dequantize_descriptor(d)
        return np.asarray(d.values, dtype=np.float64)

    bitwise = query.precision == "bit"
    scored = []
    for name, desc in entries.items():
        if name == exclude:
            continue
        if bitwise:
            score = int(np.count_nonzero(query.values != desc.values))
        else:
            a, b = comparable(query), comparable(desc)
            na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
            score = 0.0 if na == 0.0 or nb == 0.0 else float(a @ b) / (na * nb)
        scored.append((name, score))
    scored.sort(key=(lambda t: (t[1], t[0])) if bitwise else (lambda t: (-t[1], t[0])))
    return scored if k is None else scored[:k]


def _fuzzed_entries(rng, precision, n, d):
    """n descriptors, inserted in random order, with exact duplicate rows
    that include the lowest and highest ids (the first and last rows of
    an id-ordered matrix, where row-blocked kernels change their sum
    order), one all-zero row and, for byte, one row with stored codes
    but scale 0. Returns the entries, the groups of ids holding
    identical rows and the ids of the rows that must score 0."""
    values = rng.gamma(0.6, size=(n, d))
    ids = [f"id{k:05d}" for k in range(n)]
    picks = rng.permutation(np.arange(1, n - 3))
    groups = [[0, n - 1], [n - 2, *picks[:2]], [n - 3, *picks[2:6]]]
    for group in groups:
        values[group] = values[group[0]]
    values[picks[6]] = 0.0
    entries = {}
    for k in rng.permutation(n):
        row = values[k]
        real = Descriptor("real", row / max(float(np.linalg.norm(row)), 1e-300))
        entries[ids[k]] = convert_descriptor(real, precision)
    zero_ids = [ids[picks[6]]]
    if precision == "byte":
        zero_ids.append(ids[picks[7]])
        entries[zero_ids[1]] = Descriptor("byte", entries[zero_ids[1]].values, scale=0.0)
    return entries, [[ids[k] for k in g] for g in groups], zero_ids


def _assert_tie_order(ranked, bitwise):
    # ranked strictly by score, exact ties by increasing id
    for (n1, s1), (n2, s2) in zip(ranked, ranked[1:]):
        better = s1 < s2 if bitwise else s1 > s2
        assert better or (s1 == s2 and n1 < n2), (n1, s1, n2, s2)


@pytest.mark.parametrize("precision", ["real", "byte", "bit"])
@pytest.mark.parametrize("n,d", [(37, 96), (101, 97), (64, 1), (203, 13), (1001, 33)])
def test_search_matches_per_pair_oracle(precision, n, d):
    rng = np.random.default_rng([44, n, d, len(precision)])
    entries, groups, zero_ids = _fuzzed_entries(rng, precision, n, d)
    index = build_index(entries)
    bitwise = precision == "bit"
    zero_query = convert_descriptor(Descriptor("real", np.zeros(d)), precision)
    qids = [groups[1][0], *zero_ids, *rng.choice(sorted(entries), 3)]
    for query, exclude in [*((entries[q], q) for q in qids), (zero_query, None)]:
        got = search(index, query, exclude=exclude)
        want = _oracle_search(entries, query, exclude=exclude)
        _assert_tie_order(got, bitwise)
        scores = dict(got)
        for group in groups:
            assert len({scores[g] for g in group if g != exclude}) == 1
        if bitwise:
            assert got == want
            continue
        ref = dict(want)
        assert sorted(scores) == sorted(ref)
        for (g, s), (w, _) in zip(got, want):
            assert abs(s - ref[g]) <= 1e-12
            assert abs(ref[g] - ref[w]) <= 1e-12
        assert all(scores[z] == 0.0 for z in zero_ids if z != exclude)
    # a zero query scores every row 0 and ranks by id alone
    if not bitwise:
        ranked = search(index, zero_query)
        assert [s for _, s in ranked] == [0.0] * n
        assert [name for name, _ in ranked] == sorted(entries)


@pytest.mark.parametrize("precision", ["real", "byte"])
def test_duplicate_rows_tie_exactly_at_any_position(precision):
    # BLAS matrix-vector products can score identical rows differently by
    # their position in the matrix; the index must not
    rng = np.random.default_rng(45)
    n, d = 10003, 97
    values = rng.gamma(0.6, size=(n, d))
    positions = [*range(8), *range(n - 8, n), *rng.choice(np.arange(8, n - 8), 24, replace=False)]
    values[positions] = values[positions[0]]
    ids = [f"{k:05d}" for k in range(n)]
    entries = {ids[k]: convert_descriptor(Descriptor("real", values[k]), precision)
               for k in rng.permutation(n)}
    index = build_index(entries)
    dup = {ids[p] for p in positions}
    for query in (entries[ids[0]], entries[ids[int(rng.integers(n))]]):
        ranked = search(index, query)
        hits = [(name, s) for name, s in ranked if name in dup]
        assert len({s for _, s in hits}) == 1
        assert [name for name, _ in hits] == sorted(dup)
        _assert_tie_order(ranked, bitwise=False)


@pytest.mark.parametrize("precision", ["real", "byte", "bit"])
def test_search_k_and_exclude_slice_the_full_ranking(precision):
    rng = np.random.default_rng(46)
    entries, _, _ = _fuzzed_entries(rng, precision, 51, 9)
    index = build_index(entries)
    qid = sorted(entries)[7]
    full = search(index, entries[qid])
    assert len(full) == 51
    excluded = search(index, entries[qid], exclude=qid)
    assert excluded == [pair for pair in full if pair[0] != qid]
    assert search(index, entries[qid], exclude="not-an-id") == full
    assert search(index, entries[qid], k=5) == full[:5]
    assert search(index, entries[qid], k=5, exclude=qid) == excluded[:5]
    assert search(index, entries[qid], k=500) == full
    for k in (0, -1):
        with pytest.raises(ValueError):
            search(index, entries[qid], k=k)


@pytest.mark.parametrize("dim", [1, 7, 8, 9, 96])
def test_packed_hamming_equals_count_nonzero_on_flags(tmp_path, dim):
    rng = np.random.default_rng([48, dim])
    flags = rng.integers(0, 2, size=(40, dim)).astype(np.uint8)
    entries = {f"r{k:02d}": Descriptor("bit", row, threshold=0.5) for k, row in enumerate(flags)}
    path = tmp_path / "bits.qds"
    save_descriptors(path, entries)
    data = bytearray(path.read_bytes())
    if dim % 8:  # set every padding bit in the file; the loader must clear them
        record = 2 + 3 + 1 + -(-dim // 8) + 4
        for k in range(len(entries)):
            data[10 + k * record + record - 5] |= 0xFF >> (dim % 8)
        path.write_bytes(bytes(data))
    for index in (build_index(entries), build_index(load_descriptors(path))):
        for qid in ("r00", "r17"):
            ranked = search(index, entries[qid])
            want = {name: int(np.count_nonzero(entries[qid].values != d.values))
                    for name, d in entries.items()}
            assert dict(ranked) == want
            assert all(type(score) is int for _, score in ranked)


def _tied_index():
    # four rows tie with "q", two with each other, "far" last
    entries = {name: Descriptor("real", np.array(v, np.float64)) for name, v in [
        ("q", [1.0, 0.0]), ("t1", [2.0, 0.0]), ("t0", [3.0, 0.0]), ("t2", [1.0, 0.0]),
        ("m1", [1.0, 1.0]), ("m0", [2.0, 2.0]), ("far", [0.0, 1.0])]}
    return build_index(entries), entries


def test_ranking_is_a_sequence_of_pairs():
    index, entries = _tied_index()
    ranked = search(index, entries["q"], exclude="q")
    assert isinstance(ranked, Ranking) and len(ranked) == 6
    pairs = list(ranked)
    assert [name for name, _ in pairs] == ["t0", "t1", "t2", "m0", "m1", "far"]
    assert ranked[0] == ("t0", 1.0) and ranked[-1] == ("far", 0.0)
    assert all(type(name) is str and type(score) is float for name, score in ranked)
    assert ranked == pairs and pairs == ranked and ranked != pairs[:-1]
    assert ranked != [(name, score + 1.0) for name, score in pairs]
    assert isinstance(ranked[1:3], Ranking) and ranked[1:3] == pairs[1:3]
    assert ranked[::-1] == pairs[::-1] and ranked[4:] == pairs[4:]
    assert search(index, entries["q"], k=2, exclude="q") == ranked[:2]
    with pytest.raises(IndexError):
        ranked[6]


@pytest.mark.parametrize("precision", ["real", "byte", "bit"])
def test_evaluate_ap_equals_average_precision_of_the_full_list(precision):
    index, entries = _tied_index()
    if precision != "real":
        entries = {k: convert_descriptor(Descriptor("real", d.values / np.linalg.norm(d.values)),
                                         precision) for k, d in entries.items()}
        index = build_index(entries)
    ground_truth = {"q": ["t2", "m1", "missing"], "t1": ["q", "t1", "far"],
                    "m0": ["nothing-here"], "far": ["m1", "m1", "t2"]}
    mean_ap, per_query = evaluate(index, ground_truth)
    for qid, relevant in ground_truth.items():
        ranked = [name for name, _ in search(index, entries[qid], exclude=qid)]
        assert per_query[qid] == average_precision(ranked, relevant), qid
    assert per_query["m0"] == 0.0
    assert mean_ap == sum(per_query.values()) / len(per_query)
    with pytest.raises(ValueError, match="relevant set is empty"):
        evaluate(index, {"q": []})


@pytest.mark.filterwarnings("ignore:(overflow|invalid) value:RuntimeWarning")
@pytest.mark.parametrize("precision", ["real", "byte", "bit", "overflowing real"])
def test_average_precision_by_count_equals_the_full_list(precision):
    # Ranking.average_precision counts ranks without sorting the index; it
    # must equal the AP of the fully iterated ranking, exactly
    rng = np.random.default_rng([49, len(precision)])
    entries, groups, zero_ids = _fuzzed_entries(rng, precision.split()[-1], 203, 13)
    names = sorted(entries)
    if precision == "overflowing real":
        # squares near 1e200 overflow, so huge rows score NaN against a huge query
        for name in {*groups[1], *rng.choice(names, 20, replace=False)}:
            entries[name] = Descriptor("real", entries[name].values * 1e200)
        scores = [s for _, s in search(build_index(entries), entries[groups[1][0]])]
        assert 3 <= sum(s != s for s in scores) < len(scores)
    index = build_index(entries)
    # relevant lists with exact ties, zero rows, the query itself and
    # missing or repeated ids
    ground_truth = {group[0]: [*group[1:], group[0], *zero_ids, "missing", group[-1]]
                    for group in groups}
    for qid in rng.choice(names, 6, replace=False):
        ground_truth[qid] = [*rng.choice(names, int(rng.integers(1, 40))), qid]
    mean_ap, per_query = evaluate(index, ground_truth)
    for qid, relevant in ground_truth.items():
        full = search(index, entries[qid], exclude=qid)
        assert per_query[qid] == average_precision([n for n, _ in full], relevant), qid
        for k, exclude in ((1, None), (7, qid), (None, None), (500, "missing")):
            ranked = search(index, entries[qid], k=k, exclude=exclude)
            ap = ranked.average_precision(relevant)
            assert "_ranked" not in vars(ranked)  # counted, not sorted
            assert ap == average_precision([n for n, _ in ranked], relevant), (qid, k)
        for part in (full[3:90:2], full[::-1], full[150:], full[5:5]):
            assert part.average_precision(relevant) == average_precision(
                [n for n, _ in part], relevant), qid
    assert mean_ap == sum(per_query.values()) / len(per_query)


def test_build_index_rejects_non_finite_and_negative_scales():
    with pytest.raises(ValueError, match="non-finite"):
        build_index({"a": Descriptor("real", np.array([1.0, np.nan])),
                     "b": Descriptor("real", np.array([1.0, 0.0]))})
    for scale in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale"):
            build_index({"a": Descriptor("byte", np.array([1, 2], np.uint8), scale=scale)})
    index = build_index({"a": Descriptor("real", np.array([1.0, 0.0]))})
    with pytest.raises(ValueError, match="non-finite"):
        search(index, Descriptor("real", np.array([np.inf, 0.0])))


def test_mean_average_precision_and_evaluate():
    index, entries = _real_index()
    ground_truth = {"q": ["close"], "far": ["mid"]}
    mean_ap, per_query = evaluate(index, ground_truth)
    assert set(per_query) == {"q", "far"}
    assert per_query["q"] == 1.0
    assert abs(mean_ap - np.mean(list(per_query.values()))) <= 1e-12
    assert mean_average_precision(index, ground_truth) == mean_ap


def test_evaluate_excludes_query_from_its_ranking():
    entries = {
        "q": Descriptor("real", np.array([1.0, 0.0])),
        "rel": Descriptor("real", np.array([0.9, np.sqrt(1 - 0.81)])),
    }
    _, per_query = evaluate(build_index(entries), {"q": ["rel"]})
    assert per_query["q"] == 1.0  # "q" itself does not occupy rank 1


def test_build_index_validation():
    with pytest.raises(ValueError):
        build_index({})
    with pytest.raises(ValueError):
        build_index({"a": Descriptor("real", np.zeros(3)),
                     "b": Descriptor("real", np.zeros(4))})
    with pytest.raises(ValueError):
        build_index({"a": Descriptor("real", np.zeros(3)),
                     "b": Descriptor("bit", np.zeros(3, np.uint8))})


def test_image_raster_round_trip(tmp_path):
    image = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 23.0
    path = tmp_path / "img.img"
    write_image(path, image)
    data = path.read_bytes()
    assert data[:4] == b"IMG1"
    assert len(data) == 10 + 24
    loaded = read_image(path)
    # stored as uint8 codes: exact on the 255ths grid
    assert np.max(np.abs(loaded - image)) <= 0.5 / 255.0
    write_image(path, loaded)
    assert np.array_equal(read_image(path), loaded)


def test_write_image_clips_out_of_range():
    path_dir = np.array([[[1.5, -0.2], [0.5, 1.0]]])
    from pathlib import Path
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.img"
        write_image(path, path_dir)
        loaded = read_image(path)
        assert loaded[0, 0, 0] == 1.0
        assert loaded[0, 0, 1] == 0.0


def test_read_image_errors(tmp_path):
    good = tmp_path / "ok.img"
    write_image(good, np.zeros((1, 2, 2)))
    raw = good.read_bytes()
    bad_magic = tmp_path / "bad.img"
    bad_magic.write_bytes(b"IMGX" + raw[4:])
    with pytest.raises(ValueError):
        read_image(bad_magic)
    short = tmp_path / "short.img"
    short.write_bytes(raw[:-1])
    with pytest.raises(ValueError):
        read_image(short)
    long = tmp_path / "long.img"
    long.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        read_image(long)


def test_holidays_group_rule():
    assert holidays_group("1000") == "10"
    assert holidays_group("1001") == "10"
    assert holidays_group("129099") == "1290"
    assert holidays_group("7") == "7"


def test_ingest_dataset_groups_and_queries(tmp_path):
    rng = np.random.default_rng(42)
    for name in ("1000", "1001", "1002", "2000", "2001"):
        write_image(tmp_path / f"{name}.img", rng.uniform(0, 1, (3, 4, 4)))
    images, ground_truth = ingest_dataset(tmp_path)
    assert sorted(images) == ["1000", "1001", "1002", "2000", "2001"]
    assert ground_truth == {"1000": ["1001", "1002"], "2000": ["2001"]}


def test_ingest_dataset_warns_on_single_image_group(tmp_path):
    rng = np.random.default_rng(43)
    for name in ("1000", "1001", "3000"):
        write_image(tmp_path / f"{name}.img", rng.uniform(0, 1, (1, 2, 2)))
    with pytest.warns(UserWarning):
        _, ground_truth = ingest_dataset(tmp_path)
    assert list(ground_truth) == ["1000"]


def test_ingest_dataset_empty_directory(tmp_path):
    with pytest.raises(ValueError):
        ingest_dataset(tmp_path)


def test_ground_truth_file_round_trip(tmp_path):
    path = tmp_path / "gt.txt"
    ground_truth = {"1000": ["1001", "1002"], "2000": ["2001"]}
    write_ground_truth(path, ground_truth)
    assert read_ground_truth(path) == ground_truth
    text = path.read_text()
    assert "1000: 1001 1002" in text


def test_read_ground_truth_rejects_malformed(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("not a mapping\n")
    with pytest.raises(ValueError):
        read_ground_truth(path)


def test_read_ground_truth_refuses_a_repeated_query(tmp_path):
    path = tmp_path / "gt.txt"
    path.write_text("1000: 1001 1002\n\n2000: 2001\n 1000 : 1003\n")
    with pytest.raises(ValueError, match=f"^{path}:4: duplicate query '1000'$"):
        read_ground_truth(path)


def test_write_results_csv(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, {"q1": [("a", 0.912345), ("b", 0.5)]})
    lines = path.read_text().splitlines()
    assert lines[0] == "query_id,rank,id,score"
    assert lines[1] == "q1,1,a,0.912345"
    assert lines[2] == "q1,2,b,0.500000"
    write_results_csv(path, {"q1": [("a", 3)]}, bitwise=True)
    assert path.read_text().splitlines()[1] == "q1,1,a,3"


def test_zero_sized_rasters_are_refused(tmp_path):
    path = tmp_path / "empty.img"
    with pytest.raises(ValueError, match="1..65535"):
        write_image(path, np.zeros((1, 0, 4)))
    assert not path.exists()
    for shape in [(0, 2, 2), (1, 0, 2), (1, 2, 0)]:
        path.write_bytes(b"IMG1" + struct.pack("<HHH", *shape))
        with pytest.raises(CorruptionError, match="empty"):
            read_image(path)
