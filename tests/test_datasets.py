"""Synthetic image generators and on-disk dataset layouts."""

import numpy as np
import pytest

from qnip.datasets import (
    load_labeled_dataset,
    make_brightness_dataset,
    make_retrieval_corpus,
    make_shapes_dataset,
    read_image,
    write_corpus,
    write_labeled_dataset,
)
from qnip.retrieval import holidays_group, ingest_dataset


def test_shapes_dataset_layout():
    data = make_shapes_dataset(4, size=24, seed=0)
    assert len(data) == 40
    assert [label for _, label in data] == list(range(10)) * 4
    for image, _ in data:
        assert image.shape == (3, 24, 24)
        assert image.dtype == np.float64
        assert 0.0 <= image.min() and image.max() <= 1.0


def test_shapes_dataset_deterministic_and_seeded():
    a = make_shapes_dataset(2, seed=5)
    b = make_shapes_dataset(2, seed=5)
    c = make_shapes_dataset(2, seed=6)
    for (ia, la), (ib, lb) in zip(a, b):
        assert la == lb and np.array_equal(ia, ib)
    assert any(not np.array_equal(ia, ic) for (ia, _), (ic, _) in zip(a, c))


def test_shapes_dataset_classes_are_distinguishable():
    # same class index should reuse the same shape family: the mean
    # within-class pixel distance must undercut the between-class one
    data = make_shapes_dataset(6, size=32, seed=1)
    by_class = {}
    for image, label in data:
        by_class.setdefault(label, []).append(image)
    within, between = [], []
    for label, images in by_class.items():
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                within.append(np.mean(np.abs(images[i] - images[j])))
        other = by_class[(label + 1) % 10]
        for a in images[:2]:
            for b in other[:2]:
                between.append(np.mean(np.abs(a - b)))
    assert np.mean(within) < np.mean(between)


def test_brightness_dataset_separates_classes():
    data = make_brightness_dataset(5, size=16, seed=0)
    assert len(data) == 10
    assert [label for _, label in data] == [0, 1] * 5
    for image, label in data:
        assert image.shape == (3, 16, 16)
        mean = float(image.mean())
        if label == 0:
            assert mean < 0.4
        else:
            assert mean > 0.6


def test_retrieval_corpus_ids_and_groups():
    corpus = make_retrieval_corpus(seed=9)
    assert len(corpus) == 30
    groups = {}
    for name, image in corpus.items():
        assert image.shape == (3, 32, 32)
        assert 0.0 <= image.min() and image.max() <= 1.0
        groups.setdefault(holidays_group(name), []).append(name)
    assert len(groups) == 10
    assert all(len(members) == 3 for members in groups.values())
    assert sorted(corpus)[:3] == ["1000", "1001", "1002"]


def test_retrieval_corpus_parameters():
    corpus = make_retrieval_corpus(num_groups=4, per_group=2, size=16, seed=3)
    assert len(corpus) == 8
    assert all(image.shape == (3, 16, 16) for image in corpus.values())
    again = make_retrieval_corpus(num_groups=4, per_group=2, size=16, seed=3)
    assert all(np.array_equal(corpus[k], again[k]) for k in corpus)


def test_retrieval_corpus_refuses_more_members_than_a_group_has_ids():
    # member 100 of group 0 used to take id 1100, which group 1's query overwrote
    with pytest.raises(ValueError, match="per_group 101"):
        make_retrieval_corpus(2, 101, 8, 0)
    corpus = make_retrieval_corpus(2, 100, 8, 0)
    assert len(corpus) == 200 and list(corpus)[99:101] == ["1099", "1100"]


def test_retrieval_corpus_variants_share_content():
    # members of one group are near-duplicates up to rotation, crop and
    # brightness, so they sit closer together than members of other groups
    corpus = make_retrieval_corpus(num_groups=5, per_group=2, size=32, seed=9)

    def gist(image):
        # orientation-blind thumbnail: sorted channel values
        return np.sort(image.reshape(3, -1), axis=1)[:, ::64]

    for g in range(5):
        a, b = (corpus[str((10 + g) * 100 + j)] for j in (0, 1))
        same = np.mean(np.abs(gist(a) - gist(b)))
        other = corpus[str((10 + (g + 1) % 5) * 100)]
        cross = np.mean(np.abs(gist(a) - gist(other)))
        assert same < cross


def test_write_corpus_round_trip(tmp_path):
    corpus = make_retrieval_corpus(num_groups=2, per_group=2, size=8, seed=0)
    write_corpus(tmp_path, corpus)
    images, ground_truth = ingest_dataset(tmp_path)
    assert sorted(images) == sorted(corpus)
    assert ground_truth == {"1000": ["1001"], "1100": ["1101"]}
    for name in corpus:
        assert np.max(np.abs(images[name] - corpus[name])) <= 0.5 / 255.0


def test_labeled_dataset_round_trip(tmp_path):
    data = make_brightness_dataset(2, size=8, seed=0)
    write_labeled_dataset(tmp_path, data)
    assert (tmp_path / "labels.txt").exists()
    loaded = load_labeled_dataset(tmp_path)
    assert len(loaded) == len(data)
    for (image, label), (orig, orig_label) in zip(loaded, data):
        assert label == orig_label
        assert np.max(np.abs(image - orig)) <= 0.5 / 255.0
    # a second write is byte-identical
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_labeled_dataset(tmp_path, data)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_load_labeled_dataset_errors(tmp_path):
    with pytest.raises(ValueError):
        load_labeled_dataset(tmp_path)  # no labels.txt
    (tmp_path / "labels.txt").write_text("00000.img not-a-label\n")
    with pytest.raises(ValueError):
        load_labeled_dataset(tmp_path)
    (tmp_path / "labels.txt").write_text("\n")
    with pytest.raises(ValueError):
        load_labeled_dataset(tmp_path)


def test_image_codec_grid(tmp_path):
    # values on the k/255 grid survive the round trip exactly
    codes = np.arange(256, dtype=np.float64) / 255.0
    image = np.tile(codes, 3).reshape(3, 16, 16)
    path = tmp_path / "grid.img"
    from qnip.datasets import write_image as wi
    wi(path, image)
    assert np.array_equal(read_image(path), image)
