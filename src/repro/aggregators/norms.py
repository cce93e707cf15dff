"""Norm utilities: median reference norm and norm clipping.

SignGuard aggregates the trusted set with mean-plus-norm-clipping, where the
clipping bound is the median of the received gradient norms (Algorithm 2,
step 3); the same helpers are reused by the centered-clipping baseline.

Every helper accepts either a raw matrix or a
:class:`~repro.utils.batch.GradientBatch`, in which case the batch's memoized
norms are reused instead of recomputed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.batch import ArrayOrBatch, GradientBatch


def gradient_norms(gradients: ArrayOrBatch) -> np.ndarray:
    """l2 norm of every row (cached when ``gradients`` is a batch)."""
    if isinstance(gradients, GradientBatch):
        return gradients.norms()
    return np.linalg.norm(np.atleast_2d(gradients), axis=1)


def median_norm(gradients: ArrayOrBatch) -> float:
    """Median of the row norms — the paper's reference norm ``M``."""
    return float(np.median(gradient_norms(gradients)))


def clip_scales(norms: np.ndarray, bound: float) -> np.ndarray:
    """Per-row scale factors ``min(1, bound / ||g||)`` (1 for zero rows).

    This is the single home of SignGuard's clipping rule (Algorithm 2,
    line 14); both :func:`clip_gradients_to_norm` and the pipeline's fused
    clip-and-mean consume it.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    norms = np.atleast_1d(norms)
    scales = np.ones_like(norms)
    positive = norms > 0
    scales[positive] = np.minimum(1.0, bound / norms[positive])
    return scales


def clip_gradients_to_norm(gradients: np.ndarray, bound: float) -> np.ndarray:
    """Scale every row with norm above ``bound`` down to exactly ``bound``.

    Rows with norm at or below the bound are returned unchanged (the
    ``min(1, M/||g||)`` factor in Algorithm 2, line 14).
    """
    gradients = np.atleast_2d(np.asarray(gradients, dtype=np.float64))
    scales = clip_scales(gradient_norms(gradients), bound)
    return gradients * scales[:, None]
