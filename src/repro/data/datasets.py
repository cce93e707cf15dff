"""Dataset containers and the specification handed to the model factory."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class DataSpec:
    """Static description of a dataset, consumed by the model factory.

    Attributes:
        kind: ``"image"`` (float arrays of shape ``(n, c, h, w)``) or
            ``"text"`` (integer token arrays of shape ``(n, seq_len)``).
        num_classes: number of target classes.
        channels, height, width: image geometry (image datasets only).
        vocab_size, seq_len: token vocabulary size and sequence length
            (text datasets only).
    """

    kind: str
    num_classes: int
    channels: int = 0
    height: int = 0
    width: int = 0
    vocab_size: int = 0
    seq_len: int = 0

    @property
    def input_dim(self) -> int:
        """Flattened input dimension (images) or sequence length (text)."""
        if self.kind == "image":
            return self.channels * self.height * self.width
        return self.seq_len

    def __post_init__(self) -> None:
        if self.kind not in {"image", "text"}:
            raise ValueError(f"kind must be 'image' or 'text', got {self.kind!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.kind == "image" and min(self.channels, self.height, self.width) < 1:
            raise ValueError("image datasets require channels, height, width >= 1")
        if self.kind == "text" and min(self.vocab_size, self.seq_len) < 1:
            raise ValueError("text datasets require vocab_size and seq_len >= 1")


class Dataset:
    """Abstract container of (inputs, labels)."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset backed by numpy arrays.

    Indexing with an integer returns a single (input, label) pair; indexing
    with an array/slice returns batched arrays.
    """

    def __init__(self, inputs: np.ndarray, labels: np.ndarray, spec: DataSpec):
        inputs = np.asarray(inputs)
        labels = np.asarray(labels, dtype=int)
        if len(inputs) != len(labels):
            raise ValueError(
                f"inputs and labels must have the same length, got "
                f"{len(inputs)} and {len(labels)}"
            )
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= spec.num_classes):
            raise ValueError(
                f"labels must be in [0, {spec.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        self.inputs = inputs
        self.labels = labels
        self.spec = spec

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        return self.inputs[index], self.labels[index]

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        """View of the dataset restricted to ``indices`` (copies the data)."""
        indices = np.asarray(indices, dtype=int)
        return ArrayDataset(self.inputs[indices], self.labels[indices], self.spec)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class."""
        return np.bincount(self.labels, minlength=self.spec.num_classes)

    def with_labels(self, labels: np.ndarray) -> "ArrayDataset":
        """Copy of the dataset with replaced labels (used by label flipping)."""
        return ArrayDataset(self.inputs, labels, self.spec)


@dataclass
class TrainTestSplit:
    """A training set, a test set, and their shared specification."""

    train: ArrayDataset
    test: ArrayDataset
    spec: DataSpec

    def __iter__(self):
        return iter((self.train, self.test))
