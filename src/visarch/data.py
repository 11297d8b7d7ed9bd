"""Synthetic class-conditional texture datasets for desk-scale training.

Each class is an oriented sinusoid at its own frequency with the phase drawn
uniformly per sample, plus a weak class-specific smooth "mark" pattern and
pixel noise. The full phase circle means the oscillation averages out of the
class mean: a linear readout of raw pixels only sees the weak mark, while the
phase-invariant oscillation energy (filter, rectify, pool) identifies the
class exactly - the kind of cue the conv/attention stacks here exist to learn.
The mark keeps class centroids separated, so a nearest-centroid baseline
stays comfortably above chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import check_count, check_flag

MARK_GAIN = 0.15
NOISE_SIGMA = 0.25
MIN_CLASSES = 2  # synth_dataset's floor


@dataclass(frozen=True)
class Dataset:
    """Images as (N, 3, H, W) float32 with N >= 1, labels as (N,) int64, all >= 0."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if not isinstance(self.images, np.ndarray):
            raise ValueError(f"images must be an ndarray, got {type(self.images).__name__}")
        if self.images.ndim != 4 or self.images.shape[1] != 3 or not len(self.images):
            raise ValueError(f"images must be (N, 3, H, W) with N >= 1, got {self.images.shape}")
        if not (isinstance(self.labels, np.ndarray) and self.labels.dtype.kind in "iu"
                and self.labels.shape == (len(self.images),)):
            raise ValueError("labels must be an integer ndarray, one label per image")
        if self.labels.min() < 0:
            raise ValueError(f"labels must be >= 0, got {self.labels.min()}")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def resolution(self) -> int:
        return self.images.shape[-1]


def _smooth_marks(classes: int, resolution: int) -> list:
    """Per-class gaussian-blurred noise patterns, peak-normalized.

    Keyed by class index alone (not the dataset seed) so independently seeded
    draws sample the same class concepts, e.g. a held-out split."""
    kernel = np.exp(-0.5 * ((np.arange(resolution) - resolution / 2) / 3.0) ** 2)
    kernel /= kernel.sum()
    marks = []
    for c in range(classes):
        rng = np.random.default_rng(np.random.PCG64(1000 + c))
        m = rng.normal(0.0, 1.0, (3, resolution, resolution))
        for axis in (1, 2):
            m = np.apply_along_axis(lambda v: np.convolve(v, kernel, "same"), axis, m)
        marks.append(m / np.abs(m).max())
    return marks


def synth_dataset(classes: int, samples_per_class: int, resolution: int,
                  seed: int) -> Dataset:
    """Deterministic balanced dataset of per-class frequency/phase textures."""
    classes = check_count("classes", classes, MIN_CLASSES)
    samples_per_class = check_count("samples_per_class", samples_per_class, 1)
    resolution = check_count("resolution", resolution, 4)
    seed = check_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = classes * samples_per_class
    grid = np.linspace(0.0, 1.0, resolution)
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    images = np.empty((n, 3, resolution, resolution), dtype=np.float32)
    labels = np.repeat(np.arange(classes, dtype=np.int64), samples_per_class)
    marks = _smooth_marks(classes, resolution)
    for c in range(classes):
        theta = np.pi * c / classes
        freq = 2.0 + 1.5 * c
        u = np.cos(theta) * xx + np.sin(theta) * yy
        for s in range(samples_per_class):
            i = c * samples_per_class + s
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.8, 1.2)
            for ch in range(3):
                images[i, ch] = amp * np.sin(2 * np.pi * freq * u + phase + 2.1 * ch)
            images[i] += MARK_GAIN * marks[c]
            images[i] += rng.normal(0.0, NOISE_SIGMA, (3, resolution, resolution))
    return Dataset(images, labels)


def augment_batch(images: np.ndarray, rng: np.random.Generator, *,
                  flip: bool = False, crop_pad: int = 0) -> np.ndarray:
    """Horizontal flip (p=0.5 per sample) and random crop from a zero-padded
    canvas; both off by default so training stays a pure function of the data.
    flip must be a bool, crop_pad an integer >= 0."""
    flip = check_flag("flip", flip)
    crop_pad = check_count("crop_pad", crop_pad, 0)
    if not flip and crop_pad == 0:
        return images
    out = images.copy()
    n, _, h, w = out.shape
    if flip:
        which = rng.random(n) < 0.5
        out[which] = out[which, :, :, ::-1]
    if crop_pad > 0:
        padded = np.pad(out, ((0, 0), (0, 0), (crop_pad, crop_pad), (crop_pad, crop_pad)))
        shifts = rng.integers(0, 2 * crop_pad + 1, size=(n, 2))
        for i, (dy, dx) in enumerate(shifts):
            out[i] = padded[i, :, dy:dy + h, dx:dx + w]
    return out
