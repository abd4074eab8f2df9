"""Procedurally generated desk-scale datasets. No downloads, fully seeded.

The ten-class shape corpus draws geometric patterns (disks, rings,
squares, stripe fields, checkerboards, ...) with randomized colors,
positions and noise, so a classifier has to pick up on shape rather than
palette. The retrieval corpus builds one distinctive scene per group and
derives the other members by quarter-turn rotation, central re-crop and
brightness changes — the transformations the pooled descriptors are
meant to absorb.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from . import ops
from .retrieval import read_image, write_image

NUM_SHAPE_CLASSES = 10


def _grids(size: int):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    return yy / (size - 1), xx / (size - 1)


def _disk(yy, xx, cy, cx, r):
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _shape_mask(cls: int, size: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = _grids(size)
    cy, cx = rng.uniform(0.4, 0.6, size=2)
    if cls == 0:    # filled disk
        return _disk(yy, xx, cy, cx, rng.uniform(0.25, 0.35))
    if cls == 1:    # ring
        r = rng.uniform(0.28, 0.38)
        return _disk(yy, xx, cy, cx, r) & ~_disk(yy, xx, cy, cx, r - rng.uniform(0.1, 0.14))
    if cls == 2:    # filled square
        half = rng.uniform(0.22, 0.3)
        return (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
    if cls == 3:    # square frame
        half = rng.uniform(0.26, 0.34)
        inner = half - rng.uniform(0.1, 0.14)
        box = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
        return box & ~((np.abs(yy - cy) <= inner) & (np.abs(xx - cx) <= inner))
    if cls == 4:    # plus cross
        bar = rng.uniform(0.07, 0.11)
        arm = rng.uniform(0.3, 0.38)
        horiz = (np.abs(yy - cy) <= bar) & (np.abs(xx - cx) <= arm)
        vert = (np.abs(xx - cx) <= bar) & (np.abs(yy - cy) <= arm)
        return horiz | vert
    period = rng.uniform(0.18, 0.3)
    phase = rng.uniform(0.0, 1.0)
    if cls == 5:    # horizontal stripes
        return ((yy / period + phase) % 1.0) < 0.5
    if cls == 6:    # vertical stripes
        return ((xx / period + phase) % 1.0) < 0.5
    if cls == 7:    # diagonal stripes
        return (((yy + xx) / period + phase) % 1.0) < 0.5
    if cls == 8:    # checkerboard
        return (((yy / period + phase) % 1.0) < 0.5) ^ (((xx / period + phase) % 1.0) < 0.5)
    if cls == 9:    # dot lattice
        step = rng.uniform(0.28, 0.36)
        off = rng.uniform(0.1, 0.2)
        ry = ((yy + off) % step) - step / 2
        rx = ((xx + off) % step) - step / 2
        return ry ** 2 + rx ** 2 <= (0.3 * step) ** 2
    raise ValueError(f"no shape recipe for class {cls}")


def _paint(mask: np.ndarray, rng: np.random.Generator,
           noise: float = 0.02) -> np.ndarray:
    bg = rng.uniform(0.05, 0.35, size=3)
    fg = rng.uniform(0.65, 0.95, size=3)
    img = bg[:, None, None] + (fg - bg)[:, None, None] * mask[None, :, :]
    img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_shapes_dataset(n_per_class: int, size: int = 32,
                        seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Labeled (image, class) pairs, n_per_class of each of the 10 classes,
    interleaved class-round-robin."""
    rng = np.random.default_rng([seed, 7])
    data = []
    for _ in range(n_per_class):
        for cls in range(NUM_SHAPE_CLASSES):
            data.append((_paint(_shape_mask(cls, size, rng), rng), cls))
    return data


def make_brightness_dataset(n_per_class: int, size: int = 32,
                            seed: int = 0) -> list[tuple[np.ndarray, int]]:
    """Two classes separated by global brightness — linearly separable."""
    rng = np.random.default_rng([seed, 9])
    data = []
    for _ in range(n_per_class):
        for cls, level in enumerate((0.2, 0.8)):
            img = np.clip(level + rng.normal(0.0, 0.05, size=(3, size, size)), 0.0, 1.0)
            data.append((img, cls))
    return data


def _scene(size: int, rng: np.random.Generator, hue: float) -> np.ndarray:
    yy, xx = _grids(size)
    a, b = rng.uniform(-1.0, 1.0, size=2)
    ramp = (a * yy + b * xx - min(a, 0) - min(b, 0)) / (abs(a) + abs(b) + 1e-9)
    # each group gets its own base palette so scenes stay tellable apart
    # even after the coarse binary-signature step
    phase = 2.0 * np.pi * hue
    base = 0.18 + 0.13 * np.array([np.sin(phase), np.sin(phase + 2.1), np.sin(phase + 4.2)])
    tint = rng.uniform(0.2, 0.6, size=3)
    img = base[:, None, None] + tint[:, None, None] * ramp[None, :, :]
    for _ in range(int(rng.integers(3, 7))):
        kind = int(rng.integers(0, 3))  # solid shapes only; stripes would tile the frame
        cy, cx = rng.uniform(0.15, 0.85, size=2)
        r = rng.uniform(0.08, 0.22)
        if kind == 0:
            mask = _disk(yy, xx, cy, cx, r)
        elif kind == 1:
            mask = (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
        else:
            mask = (np.abs(yy - cy) + np.abs(xx - cx)) <= r * 1.4
        color = rng.uniform(0.3, 1.0, size=3)
        img = np.where(mask[None, :, :], color[:, None, None], img)
    return np.clip(img, 0.0, 1.0)


def make_retrieval_corpus(num_groups: int = 10, per_group: int = 3, size: int = 32,
                          seed: int = 0) -> dict[str, np.ndarray]:
    """Grouped corpus keyed by numbered-filename ids (1000, 1001, ... 1100, ...).

    Member 0 is the scene itself; later members are augmented copies:
    quarter-turn rotations, central re-crops and brightness changes.
    """
    if per_group > 100:
        raise ValueError(f"per_group {per_group} exceeds the 100 ids a group owns")
    rng = np.random.default_rng([seed, 11])
    corpus: dict[str, np.ndarray] = {}
    for g in range(num_groups):
        base = _scene(size, rng, g / num_groups)
        for j in range(per_group):
            img = base
            if j > 0:
                img = ops.rotate90(img, int(rng.integers(1, 4)))
                if j % 2 == 0:
                    frac = rng.uniform(0.94, 0.98)
                    lo = (1.0 - frac) / 2.0
                    img = ops.resize_bilinear(
                        ops.crop(img, (lo, lo, lo + frac, lo + frac)), size, size)
                img = np.clip(img * rng.uniform(0.92, 1.08), 0.0, 1.0)
            corpus[str((10 + g) * 100 + j)] = img
    return corpus


def write_corpus(directory, corpus: dict[str, np.ndarray]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, image in corpus.items():
        write_image(directory / f"{name}.img", image)


def write_labeled_dataset(directory, dataset) -> None:
    """Lay out (image, label) pairs as numbered rasters plus labels.txt."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "labels.txt", "w", encoding="utf-8", newline="\n") as fh:
        for i, (image, label) in enumerate(dataset):
            name = f"{i:05d}.img"
            write_image(directory / name, image)
            fh.write(f"{name} {label}\n")


def load_labeled_dataset(directory) -> list[tuple[np.ndarray, int]]:
    directory = Path(directory)
    labels_path = directory / "labels.txt"
    if not labels_path.exists():
        raise ValueError(f"{directory}: missing labels.txt")
    data = []
    with open(labels_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                raise ValueError(f"{labels_path}:{line_no}: expected '<file> <label>'")
            data.append((read_image(directory / parts[0]), int(parts[1])))
    if not data:
        raise ValueError(f"{labels_path}: no samples listed")
    return data
