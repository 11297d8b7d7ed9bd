"""Synthetic dataset construction and augmentation."""

import numpy as np
import pytest

from visarch import Dataset, augment_batch, synth_dataset
from visarch.data import MARK_GAIN


class TestSynth:
    def test_shapes_and_balance(self):
        ds = synth_dataset(6, 9, 16, seed=3)
        assert len(ds) == 54
        assert ds.images.shape == (54, 3, 16, 16)
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64
        assert ds.num_classes == 6
        assert ds.resolution == 16
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [9] * 6

    def test_labels_grouped_by_class(self):
        ds = synth_dataset(4, 3, 8, seed=0)
        expected = np.repeat(np.arange(4), 3)
        assert np.array_equal(ds.labels, expected)

    def test_seed_determinism(self):
        a = synth_dataset(5, 4, 12, seed=11)
        b = synth_dataset(5, 4, 12, seed=11)
        c = synth_dataset(5, 4, 12, seed=12)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.images.tobytes() != c.images.tobytes()

    def test_centroid_baseline_above_half(self):
        # independent oracle: nearest class centroid on raw pixels
        ds = synth_dataset(10, 50, 32, seed=7)
        flat = ds.images.reshape(len(ds), -1).astype(np.float64)
        cents = np.stack([flat[ds.labels == c].mean(0) for c in range(10)])
        d2 = ((flat[:, None, :] - cents[None]) ** 2).sum(-1)
        acc = float((d2.argmin(1) == ds.labels).mean())
        assert acc > 0.5

    def test_class_concepts_shared_across_seeds(self):
        # marks are keyed to the class index, so centroids fit on one seed
        # classify a fresh draw well above the 10% chance rate
        tr = synth_dataset(10, 50, 32, seed=7)
        ev = synth_dataset(10, 20, 32, seed=8)
        flat = tr.images.reshape(len(tr), -1).astype(np.float64)
        cents = np.stack([flat[tr.labels == c].mean(0) for c in range(10)])
        ef = ev.images.reshape(len(ev), -1).astype(np.float64)
        d2 = ((ef[:, None, :] - cents[None]) ** 2).sum(-1)
        acc = float((d2.argmin(1) == ev.labels).mean())
        assert acc > 0.35

    def test_phase_averages_out_of_class_mean(self):
        # the oscillation carries most of the pixel energy per image but
        # cancels in the class mean, leaving only the weak mark
        ds = synth_dataset(4, 200, 16, seed=1)
        for c in range(4):
            group = ds.images[ds.labels == c]
            assert np.abs(group.mean(0)).max() < 3 * MARK_GAIN
            assert np.abs(group[0]).max() > 0.7

    @pytest.mark.parametrize("args", [(1, 5, 8), (3, 0, 8), (3, 5, 3)])
    def test_bad_arguments(self, args):
        with pytest.raises(ValueError):
            synth_dataset(*args, seed=0)

    def test_dataset_validation(self):
        good = np.zeros((2, 3, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 4, 4), dtype=np.float32), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError):
            Dataset(good, np.zeros(3, dtype=np.int64))

    def test_empty_dataset_is_rejected(self):
        with pytest.raises(ValueError, match=r"N >= 1, got \(0, 3, 4, 4\)"):
            Dataset(np.zeros((0, 3, 4, 4), dtype=np.float32), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("labels", [[0, 1], np.zeros(2, dtype=np.float32)],
                             ids=["list", "float"])
    def test_labels_must_be_an_integer_ndarray(self, labels):
        with pytest.raises(ValueError, match="labels must be an integer ndarray"):
            Dataset(np.zeros((2, 3, 4, 4), dtype=np.float32), labels)

    @pytest.mark.parametrize("images,labels,match", [
        ([[[[0.0]]]] * 2, np.zeros(2, dtype=np.int64), "^images must be an ndarray, got list$"),
        (np.zeros((2, 3, 4, 4), np.float32), np.array([0, -1]), "^labels must be >= 0, got -1$"),
    ], ids=["list-images", "negative-label"])
    def test_rejects_what_failed_later(self, images, labels, match):
        # before, a list raised a bare AttributeError, and a negative label
        # passed until cross_entropy
        with pytest.raises(ValueError, match=match):
            Dataset(images, labels)


class TestAugment:
    def test_disabled_is_identity(self):
        imgs = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(1))
        assert out is imgs

    def test_flip_matches_mask(self):
        imgs = np.random.default_rng(2).normal(size=(6, 3, 8, 8)).astype(np.float32)
        out = augment_batch(imgs, np.random.default_rng(5), flip=True)
        which = np.random.default_rng(5).random(6) < 0.5
        for i in range(6):
            ref = imgs[i, :, :, ::-1] if which[i] else imgs[i]
            assert np.array_equal(out[i], ref)

    def test_flip_deterministic(self):
        imgs = np.random.default_rng(3).normal(size=(5, 3, 8, 8)).astype(np.float32)
        a = augment_batch(imgs, np.random.default_rng(9), flip=True)
        b = augment_batch(imgs, np.random.default_rng(9), flip=True)
        assert a.tobytes() == b.tobytes()

    def test_crop_keeps_shape_and_pads_zeros(self):
        imgs = np.ones((8, 3, 8, 8), dtype=np.float32)
        out = augment_batch(imgs, np.random.default_rng(4), crop_pad=2)
        assert out.shape == imgs.shape
        # any shifted crop pulls zero padding into the frame
        assert out.sum() < imgs.sum()
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_input_not_mutated(self):
        imgs = np.random.default_rng(6).normal(size=(4, 3, 8, 8)).astype(np.float32)
        before = imgs.tobytes()
        augment_batch(imgs, np.random.default_rng(7), flip=True, crop_pad=1)
        assert imgs.tobytes() == before
