import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reedsim.datasets import (IdxFormatError, LabeledDataset, PartitionSpec,
                              parse_idx, partition, synth_dataset, write_idx)
from reedsim.fedavg import build_objective
from reedsim.streams import StreamKey


class TestIdxParser:
    def test_truncated_file(self):
        with pytest.raises(IdxFormatError):
            parse_idx(b"\x00\x00\x08")

    def test_bad_magic_names_observed_value(self):
        with pytest.raises(IdxFormatError, match="0x12345678"):
            parse_idx(struct.pack(">I", 0x12345678))

    def test_hand_built_labels(self):
        data = struct.pack(">II", 0x00000801, 2) + bytes([7, 1])
        assert parse_idx(data).tolist() == [7, 1]

    def test_hand_built_image(self):
        data = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 128, 0])
        out = parse_idx(data)
        assert out.shape == (1, 4)
        assert np.allclose(out[0], [0.0, 1.0, 128 / 255, 0.0])

    def test_payload_length_mismatch_reports_counts(self):
        data = struct.pack(">II", 0x00000801, 5) + bytes([1, 2])
        with pytest.raises(IdxFormatError, match="expected 5 bytes, got 2"):
            parse_idx(data)

    @given(labels=st.lists(st.integers(0, 9), min_size=1, max_size=50))
    def test_label_round_trip(self, labels):
        arr = np.array(labels)
        assert parse_idx(write_idx(arr)).tolist() == labels

    @given(st.integers(1, 20), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_image_round_trip_byte_identical(self, n, rows, cols, seed):
        rng = StreamKey(seed).generator()
        raw = rng.integers(0, 256, size=(n, rows * cols), dtype=np.uint8)
        payload = struct.pack(">IIII", 0x00000803, n, rows, cols) + raw.tobytes()
        parsed = parse_idx(payload)
        assert write_idx(parsed, rows, cols) == payload


class TestPartition:
    def _check_cover(self, parts, n):
        all_idx = np.concatenate(parts)
        assert len(all_idx) == n
        assert np.array_equal(np.sort(all_idx), np.arange(n))

    def test_single_client_gets_everything(self):
        ds = synth_dataset("gaussian-blobs", 20, seed=0, classes=2, p=2)
        parts = partition(ds, PartitionSpec("iid", 1, seed=1))
        self._check_cover(parts, 20)
        assert len(parts) == 1

    def test_iid_balanced(self):
        ds = synth_dataset("gaussian-blobs", 10, seed=0, classes=2, p=2)
        parts = partition(ds, PartitionSpec("iid", 3, seed=1))
        sizes = sorted(len(p) for p in parts)
        assert sizes == [3, 3, 4]
        self._check_cover(parts, 10)

    def test_k_larger_than_n_rejected(self):
        ds = synth_dataset("gaussian-blobs", 3, seed=0, classes=2, p=2)
        with pytest.raises(ValueError):
            partition(ds, PartitionSpec("iid", 5, seed=1))

    def test_dirichlet_skewed_histograms(self):
        ds = synth_dataset("gaussian-blobs", 2000, seed=3, classes=10, p=2)
        skewed = False
        for seed in range(10):
            parts = partition(ds, PartitionSpec("dirichlet", 10, seed=seed, alpha=0.3))
            self._check_cover(parts, 2000)
            for p in parts:
                counts = np.bincount(ds.labels[p], minlength=10)
                if p.size and counts.max() / p.size > 0.2:
                    skewed = True
        assert skewed

    def test_dirichlet_no_empty_clients(self):
        ds = synth_dataset("gaussian-blobs", 60, seed=5, classes=3, p=2)
        for seed in range(20):
            parts = partition(ds, PartitionSpec("dirichlet", 10, seed=seed, alpha=0.1))
            assert all(p.size > 0 for p in parts)
            self._check_cover(parts, 60)

    def test_determinism(self):
        ds = synth_dataset("gaussian-blobs", 100, seed=0, classes=4, p=3)
        spec = PartitionSpec("dirichlet", 5, seed=11, alpha=0.3)
        a = partition(ds, spec)
        b = partition(ds, spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec("dirichlet", 3, seed=0, alpha=0.0)
        with pytest.raises(ValueError):
            PartitionSpec("stratified", 3, seed=0)

    @pytest.mark.parametrize("kind", ["iid", "dirichlet"])
    @pytest.mark.parametrize("alpha", [-3.0, -1e-300, np.inf, np.nan])
    def test_alpha_checked_for_every_kind(self, kind, alpha):
        # IID clients read no alpha, yet a bad one is still an error
        with pytest.raises(ValueError, match="^alpha must be finite and >= 0"):
            PartitionSpec(kind, 3, seed=0, alpha=alpha)

    @given(n=st.integers(10, 300), K=st.integers(1, 10),
           seed=st.integers(0, 10**6),
           kind=st.sampled_from(["iid", "dirichlet"]))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_cover_property(self, n, K, seed, kind):
        ds = synth_dataset("gaussian-blobs", n, seed=seed % 17, classes=3, p=2)
        spec = PartitionSpec(kind, K, seed=seed, alpha=0.3)
        parts = partition(ds, spec)
        self._check_cover(parts, n)


class TestSynthData:
    def test_empty_dataset(self):
        ds = synth_dataset("gaussian-blobs", 0, seed=0, classes=2, p=2)
        assert len(ds) == 0

    def test_quadratic_free_placeholder(self):
        ds = synth_dataset("quadratic-free", 5, seed=0)
        assert len(ds) == 5
        assert np.all(ds.features == 0)

    def test_zero_separation_chance_level(self):
        ds = synth_dataset("gaussian-blobs", 3000, seed=1, classes=3, p=5,
                           separation=0.0)
        obj = build_objective("logistic", ds, n_classes=3)
        w = obj.init_params(StreamKey(0))
        for _ in range(100):
            w = w - 0.5 * obj.full_gradient(w)
        acc = obj.accuracy(w, ds.features, ds.labels)
        assert acc < 0.45  # chance is 1/3

    def test_large_separation_separable(self):
        ds = synth_dataset("gaussian-blobs", 3000, seed=2, classes=3, p=5,
                           separation=10.0)
        obj = build_objective("logistic", ds, n_classes=3)
        w = obj.init_params(StreamKey(0))
        for _ in range(200):
            w = w - 0.5 * obj.full_gradient(w)
        assert obj.accuracy(w, ds.features, ds.labels) >= 0.99

    def test_reproducible(self):
        a = synth_dataset("gaussian-blobs", 50, seed=7, classes=2, p=3)
        b = synth_dataset("gaussian-blobs", 50, seed=7, classes=2, p=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
