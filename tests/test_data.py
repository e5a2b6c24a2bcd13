import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from dp2guard.attacks import label_flip
from dp2guard.data import (
    Dataset,
    load_idx,
    partition,
    synth_dataset,
)
from dp2guard.errors import CountMismatch, EmptyClientError, FormatError
from dp2guard.models import Model, sgd_step
from dp2guard.numeric import substream


def _label_entropy(labels: np.ndarray, n_classes: int) -> float:
    counts = np.bincount(labels, minlength=n_classes).astype(float)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


class TestPartition:
    def test_iid_equal_split(self):
        data = synth_dataset(1000, 4, 5, 1.0, substream(0, "d"))
        assignments = partition(data, 10, "iid", rng=substream(0, "p"))
        sizes = [len(a) for a in assignments]
        assert sizes == [100] * 10
        merged = np.sort(np.concatenate(assignments))
        assert np.array_equal(merged, np.arange(1000))

    def test_iid_disjoint_with_remainder(self):
        data = synth_dataset(103, 4, 5, 1.0, substream(1, "d"))
        assignments = partition(data, 10, "iid", rng=substream(1, "p"))
        sizes = [len(a) for a in assignments]
        assert sum(sizes) == 103 and min(sizes) >= 10
        merged = np.concatenate(assignments)
        assert len(np.unique(merged)) == 103

    def test_dirichlet_high_alpha_matches_global(self):
        # alpha -> infinity limit: per-client class proportions within 2 %
        # of the global proportions, over 10 seeds.
        for seed in range(10):
            data = synth_dataset(6000, 4, 5, 1.0, substream(seed, "dd"))
            glob = np.bincount(data.labels, minlength=5) / len(data)
            assignments = partition(data, 10, "dirichlet", alpha=1e6,
                                    rng=substream(seed, "dp"))
            for idx in assignments:
                local = np.bincount(data.labels[idx], minlength=5) / len(idx)
                assert np.max(np.abs(local - glob)) <= 0.02

    def test_dirichlet_low_alpha_skews(self):
        # alpha = 0.5 with 50 clients: most clients' label entropy drops
        # strictly below the global (IID) entropy.
        hits, total = 0, 0
        for seed in range(10):
            data = synth_dataset(10_000, 4, 10, 1.0, substream(seed, "sk"))
            global_entropy = _label_entropy(data.labels, 10)
            assignments = partition(data, 50, "dirichlet", alpha=0.5,
                                    rng=substream(seed, "sp"))
            for idx in assignments:
                total += 1
                if _label_entropy(data.labels[idx], 10) < global_entropy:
                    hits += 1
        assert hits / total >= 0.9

    def test_deterministic_given_seed(self):
        data = synth_dataset(500, 3, 4, 1.0, substream(3, "d"))
        a = partition(data, 7, "dirichlet", alpha=0.5, rng=substream(3, "p"))
        b = partition(data, 7, "dirichlet", alpha=0.5, rng=substream(3, "p"))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_every_client_gets_samples(self):
        data = synth_dataset(40, 3, 4, 1.0, substream(4, "d"))
        assignments = partition(data, 8, "dirichlet", alpha=0.1, rng=substream(4, "p"))
        assert min(len(a) for a in assignments) >= 1

    def test_too_few_samples_rejected(self):
        data = synth_dataset(3, 2, 2, 1.0, substream(5, "d"))
        with pytest.raises(EmptyClientError):
            partition(data, 5, "iid", rng=substream(5, "p"))


def _write_idx_pair(tmp_path, n=12, rows=4, cols=3, gz=False, magic_img=0x803,
                    truncate=0, n_labels=None):
    n_labels = n if n_labels is None else n_labels
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n_labels, dtype=np.uint8)
    img_bytes = struct.pack(">IIII", magic_img, n, rows, cols) + pixels.tobytes()
    lab_bytes = struct.pack(">II", 0x801, n_labels) + labels.tobytes()
    if truncate:
        img_bytes = img_bytes[:-truncate]
    img_path = tmp_path / ("imgs.gz" if gz else "imgs")
    lab_path = tmp_path / ("labs.gz" if gz else "labs")
    img_path.write_bytes(gzip.compress(img_bytes) if gz else img_bytes)
    lab_path.write_bytes(gzip.compress(lab_bytes) if gz else lab_bytes)
    return img_path, lab_path, pixels, labels


class TestIdxLoader:
    def test_parses_and_scales(self, tmp_path):
        img, lab, pixels, labels = _write_idx_pair(tmp_path)
        data = load_idx(img, lab)
        assert len(data) == 12 and data.n_features == 12
        assert np.allclose(data.features[0], pixels[0].ravel() / 255.0)
        assert np.array_equal(data.labels, labels)

    def test_gzip_transparent(self, tmp_path):
        img, lab, pixels, _ = _write_idx_pair(tmp_path, gz=True)
        data = load_idx(img, lab)
        assert np.allclose(data.features[3], pixels[3].ravel() / 255.0)

    def test_bad_magic(self, tmp_path):
        img, lab, _, _ = _write_idx_pair(tmp_path, magic_img=0x804)
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_truncated_payload(self, tmp_path):
        img, lab, _, _ = _write_idx_pair(tmp_path, truncate=5)
        with pytest.raises(FormatError):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, lab, _, _ = _write_idx_pair(tmp_path, n_labels=11)
        with pytest.raises(CountMismatch):
            load_idx(img, lab)

    def test_dimension_product_beyond_int64_rejected(self, tmp_path):
        # 2^31 * 2^31 * 4 = 2^64 wraps to 0 in int64, which an empty
        # payload would match.
        img = tmp_path / "huge"
        img.write_bytes(struct.pack(">IIII", 0x803, 2**31, 2**31, 4))
        _, lab, _, _ = _write_idx_pair(tmp_path)
        with pytest.raises(FormatError, match="header says 18446744073709551616"):
            load_idx(img, lab)

    def test_scales_one_copy_in_place(self, tmp_path):
        # One float64 copy scaled in place, the pixel bytes released before
        # the finiteness check: measured 1.13x the output, where keeping
        # the pixels through the check measured 1.25x.  (numpy already
        # elides the temporary of astype(...) / 255.0 at this size.)
        img, lab, pixels, labels = _write_idx_pair(tmp_path, n=200, rows=28, cols=28)
        tracemalloc.start()
        try:
            data = load_idx(img, lab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        old = pixels.reshape(200, -1).astype(np.float64) / 255.0
        assert data.features.tobytes() == old.tobytes()
        assert np.array_equal(data.labels, labels)
        assert peak <= 1.2 * (data.features.nbytes + data.labels.nbytes)


def _train_linear(data: Dataset, rounds=300, eta=0.5):
    model = Model("logreg", data.n_features, data.n_classes)
    params = np.zeros(model.dim)
    for _ in range(rounds):
        params = sgd_step(params, model.grad(params, data.features, data.labels), eta)
    return model, params


class TestSynthDataset:
    def test_no_separation_gives_chance_accuracy(self):
        data = synth_dataset(600, 6, 3, 0.0, substream(6, "s"))
        model, params = _train_linear(data)
        acc = model.accuracy(params, data.features, data.labels)
        assert abs(acc - 1.0 / 3.0) < 0.12

    def test_wide_separation_is_separable(self):
        data = synth_dataset(400, 10, 2, 10.0, substream(7, "s"))
        model, params = _train_linear(data)
        assert model.accuracy(params, data.features, data.labels) >= 0.99

    def test_deterministic(self):
        a = synth_dataset(50, 4, 3, 2.0, substream(8, "s"))
        b = synth_dataset(50, 4, 3, 2.0, substream(8, "s"))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_adds_offsets_in_the_draw(self):
        # center + noise formed in the noise draw: bit-identical to the
        # centers[labels] + noise it replaces, at about its output's size
        # (measured 1.20x; the old form measured 1.99x).
        n, p, n_classes, sep = 2000, 50, 10, 2.5
        tracemalloc.start()
        try:
            data = synth_dataset(n, p, n_classes, sep, substream(9, "s"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (data.features.nbytes + data.labels.nbytes)
        rng = substream(9, "s")
        labels = rng.integers(0, n_classes, size=n)
        centers = np.zeros((n_classes, p))
        centers[np.arange(n_classes), np.arange(n_classes) % p] = sep
        old = centers[labels] + rng.standard_normal((n, p))
        assert data.features.tobytes() == old.tobytes()
        assert np.array_equal(data.labels, labels)

    @pytest.mark.parametrize("sep", [2.5, 0.0, -0.0])
    def test_negative_zero_draws_match_the_old_sum(self, sep):
        # 0.0 + (-0.0) is +0.0, so a -0.0 draw off the offset axis must come
        # out as +0.0; on the offset axis it must come out as sep + (-0.0).
        class StubRng:
            def integers(self, low, high, size):
                return np.arange(size) % high

            def standard_normal(self, shape):
                z = np.full(shape, -0.0)
                z[:, -1] = 1.0
                return z

        n, p, n_classes = 6, 4, 3
        data = synth_dataset(n, p, n_classes, sep, StubRng())
        centers = np.zeros((n_classes, p))
        centers[np.arange(n_classes), np.arange(n_classes) % p] = sep
        old = centers[np.arange(n) % n_classes] + StubRng().standard_normal((n, p))
        assert data.features.tobytes() == old.tobytes()
        assert np.signbit(data.features).any() == np.signbit(sep)


class TestRowOwnership:
    def test_subset_rows_are_new_memory(self):
        data = synth_dataset(30, 4, 3, 1.0, substream(10, "own"))
        sub = data.subset(np.array([0, 4, 7]))
        assert not np.shares_memory(sub.features, data.features)
        assert not np.shares_memory(sub.labels, data.labels)
        assert np.array_equal(sub.features, data.features[[0, 4, 7]])

    def test_label_flip_shares_features_and_copies_labels(self):
        data = synth_dataset(40, 3, 10, 1.0, substream(11, "own"))
        before = data.labels.copy()
        flipped = label_flip(data, 3, 0.5, substream(11, "flip"))
        assert flipped.features is data.features
        assert np.array_equal(data.labels, before)
        assert not np.array_equal(flipped.labels, before)
        assert not flipped.features.flags.writeable
        assert not flipped.labels.flags.writeable


class TestFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_a_non_finite_entry_is_rejected(self, bad):
        features = np.ones((5, 3))
        features[3, 1] = bad
        with pytest.raises(FormatError, match="non-finite"):
            Dataset(features, np.zeros(5, dtype=np.int64), 2)

    def test_opposite_infinities_are_rejected(self):
        # inf + -inf is NaN: the sum is not finite either way.
        features = np.array([[np.inf, 1.0], [2.0, -np.inf]])
        with pytest.raises(FormatError, match="non-finite"):
            Dataset(features, np.zeros(2, dtype=np.int64), 2)

    @pytest.mark.parametrize("big", [np.finfo(np.float64).max, -np.finfo(np.float64).max])
    def test_finite_entries_whose_sum_overflows_are_accepted(self, big):
        features = np.full((4, 3), big)
        with np.errstate(over="raise"):  # no overflow warning escapes
            data = Dataset(features, np.zeros(4, dtype=np.int64), 2)
        assert data.features is features

    def test_check_allocates_no_entrywise_mask(self):
        # The sum proves finite features finite without the n x p bool mask
        # of np.isfinite, an eighth of the float matrix: the check measured
        # 1.02 x n * p bytes with the mask, 0.02 x with the sum first.
        n, p = 2000, 50
        features = substream(12, "finite").standard_normal((n, p))
        labels = np.zeros(n, dtype=np.int64)
        tracemalloc.start()
        try:
            Dataset(features, labels, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * p
