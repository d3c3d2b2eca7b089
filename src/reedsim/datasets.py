"""Dataset ingestion and client partitioning.

IDX binary parsing, a Gaussian-blob generator, and IID / label-aware
Dirichlet partitioners.  Datasets are immutable after construction and
safe to share across workers.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .streams import StreamKey

__all__ = [
    "IdxFormatError",
    "LabeledDataset",
    "PartitionSpec",
    "parse_idx",
    "load_idx_dataset",
    "partition",
    "synth_dataset",
]

_MAGIC_IMAGES = 0x00000803
_MAGIC_LABELS = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX payload, of the file ``filename`` where one is to blame."""

    def __init__(self, message: str, filename: str | None = None):
        super().__init__(message)
        self.filename = filename


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (n x p) with integer class labels in [0, C)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, caught below
            object.__setattr__(self, "labels", labels.astype(int))
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if not np.array_equal(self.labels, labels):
            raise ValueError(f"labels must be integers, got {labels[self.labels != labels][0]}")
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features rows must match labels length")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError(f"labels must be >= 0, got {self.labels.min()}")
        if self.features.size and not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0


@dataclass(frozen=True)
class PartitionSpec:
    """IID or Dirichlet(alpha) split into K clients."""

    kind: str  # "iid" | "dirichlet"
    K: int
    seed: int
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iid", "dirichlet"):
            raise ValueError(f"kind must be 'iid' or 'dirichlet', got {self.kind!r}")
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        # IID clients read no alpha, but a config that sets a bad one is wrong
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.kind == "dirichlet" and self.alpha == 0:
            raise ValueError(f"alpha must be > 0 for dirichlet partitions, got {self.alpha}")


def parse_idx(data: bytes) -> np.ndarray:
    """Parse one IDX file: images give an n x (rows*cols) float matrix
    scaled by 1/255, labels give an int vector.  Strict header/payload
    length checks."""
    if len(data) < 4:
        raise IdxFormatError(f"truncated IDX header: {len(data)} bytes")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == _MAGIC_LABELS:
        n_dims = 1
    elif magic == _MAGIC_IMAGES:
        n_dims = 3
    else:
        raise IdxFormatError(f"bad IDX magic 0x{magic:08x}")
    header_len = 4 + 4 * n_dims
    if len(data) < header_len:
        raise IdxFormatError(
            f"truncated IDX header: expected {header_len} bytes, got {len(data)}")
    dims = struct.unpack(f">{n_dims}I", data[4:header_len])
    payload = data[header_len:]
    # the exact product: a fixed-width one can wrap and pass the check
    expected = math.prod(dims)
    if len(payload) != expected:
        raise IdxFormatError(
            f"IDX payload length mismatch: expected {expected} bytes, got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if magic == _MAGIC_LABELS:
        return raw.astype(int)
    n, rows, cols = dims
    return raw.reshape(n, rows * cols).astype(float) / 255.0


def _read_idx(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse_idx(data)
    except IdxFormatError as exc:
        raise IdxFormatError(f"{path}: {exc}", path) from None


def load_idx_dataset(images_path: str, labels_path: str) -> LabeledDataset:
    features = _read_idx(images_path)
    labels = _read_idx(labels_path)
    if features.ndim != 2 or labels.ndim != 1:
        raise IdxFormatError("images/labels files swapped or malformed")
    if len(features) != len(labels):
        raise IdxFormatError(f"{images_path} holds {len(features)} images but "
                             f"{labels_path} holds {len(labels)} labels")
    return LabeledDataset(features=features, labels=labels)


def partition(dataset: LabeledDataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Split sample indices into K disjoint lists covering the dataset."""
    n = len(dataset)
    if spec.K > n:
        raise ValueError(f"K must be <= the dataset size {n}, got {spec.K}")
    rng = StreamKey(spec.seed).generator()
    if spec.kind == "iid":
        perm = rng.permutation(n)
        return [np.sort(chunk) for chunk in np.array_split(perm, spec.K)]
    return _dirichlet_partition(dataset.labels, spec.K, spec.alpha, rng)


def _dirichlet_partition(labels: np.ndarray, K: int, alpha: float,
                         rng: np.random.Generator) -> list[np.ndarray]:
    buckets: list[list[np.ndarray]] = [[] for _ in range(K)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(K, alpha))
        counts = _largest_remainder(props, idx.size)
        start = 0
        for k in range(K):
            buckets[k].append(idx[start:start + counts[k]])
            start += counts[k]
    parts = [np.sort(np.concatenate(b)) if b else np.array([], dtype=int)
             for b in buckets]
    # no client may end up empty: local SGD rejects empty datasets
    for k in range(K):
        if parts[k].size == 0:
            donor = int(np.argmax([p.size for p in parts]))
            parts[k] = parts[donor][:1]
            parts[donor] = parts[donor][1:]
    return parts


def _largest_remainder(props: np.ndarray, total: int) -> np.ndarray:
    raw = props * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    order = np.argsort(-(raw - counts))
    counts[order[:short]] += 1
    return counts


@contextmanager
def _allocating(name: str):
    """Report a shape NumPy cannot allocate, raised in the block, as a
    ValueError that starts with ``name``, the field that sets the shape."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"{name} too large: {str(exc) or 'out of memory'}") from None


def synth_dataset(n: int, seed: int, classes: int = 2, p: int = 2,
                  separation: float = 1.0) -> LabeledDataset:
    """Reproducible Gaussian blobs: unit-variance clusters around class
    means drawn N(0, separation^2 I); linearly separable at large
    separation."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for name, value, low in (("classes", classes, 1), ("p", p, 1), ("separation", separation, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    rng = StreamKey(seed).generator()
    with _allocating("means"), np.errstate(over="ignore"):
        means = separation * rng.standard_normal((classes, p))
    if not np.isfinite(means).all():
        raise ValueError(f"separation must give finite class means, got {separation}")
    with _allocating("n"):
        labels = rng.integers(0, classes, size=n)
        features = means[labels] + rng.standard_normal((n, p))
    return LabeledDataset(features=features, labels=labels)
