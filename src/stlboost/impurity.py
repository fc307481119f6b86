"""Robustness-weighted misclassification-gain impurity for primitive scoring.

Partition masses scale each sample's boosting weight by the magnitude of its
robustness under the candidate formula, so higher-margin splits score
higher.  Both sides of the partition use absolute robustness; a violating
signal contributes positive mass to the violating side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset, NEG_LABEL, POS_LABEL
from .formula import Formula, robustness_all


@dataclass(frozen=True)
class PartitionScore:
    """Split quality under the weighted misclassification-gain measure."""

    gain: float


class PartitionScores(NamedTuple):
    """The gain of each candidate split in a batch, plus each candidate's
    robustness margin (the total mass, the tie-break criterion)."""

    gain: np.ndarray
    margin: np.ndarray


def _masses(rho: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample masses w * |rho| for each row of a (P, N) robustness matrix,
    and which rows are degenerate.

    A row whose robustness values are not finite (e.g. the path formula is
    the constant true) or are all zero is degenerate and falls back to the
    bare weights, so those cases reduce to plain weighted class masses.
    """
    raw = weights * np.abs(rho)
    degenerate = ~np.isfinite(raw).all(axis=1) | (raw.sum(axis=1) == 0.0)
    return np.where(degenerate[:, np.newaxis], weights, raw), degenerate


def gains_from_robustness(
    rho: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> PartitionScores:
    """Score P candidate splits at once.

    Row ``p`` of the (P, N) matrix ``rho`` is the robustness of candidate
    ``p`` per sample; its satisfied side is ``rho >= 0``.  ``labels`` and
    ``weights`` are the (N,) samples every row scores.  A degenerate row
    (see :func:`_masses`) has gain 0: such a split carries no margin
    information.  Every entry is bit-identical to scoring its row alone:
    each mass has the bits of the 1-D sum of that row's picks.  The total
    and positive masses pick the same columns in every row and are plain
    row sums of C-contiguous matrices; the four side masses pick per row
    and go through :func:`_side_sums`.
    """
    rho = np.asarray(rho, dtype=float)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    if rho.size == 0:
        zeros = np.zeros(rho.shape[0])
        return PartitionScores(zeros, zeros)
    mags, degenerate = _masses(rho, weights)
    pos = labels == POS_LABEL
    total = mags.sum(axis=1)
    # compress, unlike mags[:, pos], lays the picks out row-major, so each
    # row is summed as its own 1-D array.
    pos_mass = mags.compress(pos, axis=1).sum(axis=1)
    top = rho >= 0
    bot = ~top
    top_mass, bot_mass, top_pos_mass, bot_pos_mass = _side_sums(
        mags, np.concatenate([top, bot, top & pos, bot & pos])
    ).reshape(4, -1)
    p_top = top_mass / total
    p_bot = bot_mass / total
    p_pos = pos_mass / total
    p_neg = 1.0 - p_pos
    gain = (
        np.minimum(p_pos, p_neg)
        - p_top * _minority(top_mass, top_pos_mass)
        - p_bot * _minority(bot_mass, bot_pos_mass)
    )
    gain[degenerate] = 0.0
    return PartitionScores(gain, total)


def _side_sums(mags: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Sum of ``mags[r % P]`` over the mask ``masks[r]``, for each row ``r``
    of the (R, N) ``masks``, where ``mags`` is (P, N).

    Each sum has the bits of the 1-D sum of the row's compacted picks.  Every
    row's picks are laid out flat, each row after a leading +0.0, and summed
    by one ``np.add.reduceat`` over the row starts.  ``reduceat`` sums a
    segment as its first element plus the pairwise sum of the rest, and a 1-D
    sum is +0.0 plus the pairwise sum of its values, so the two agree.
    """
    rows, width = masks.shape
    # Column 0 holds each row's leading +0.0.
    lead = np.ones((rows, width + 1), dtype=bool)
    lead[:, 1:] = masks
    padded = np.zeros((len(mags), width + 1))
    padded[:, 1:] = mags
    stacked = lead.reshape(-1, *padded.shape)
    flat = np.broadcast_to(padded, stacked.shape)[stacked]
    counts = np.count_nonzero(lead, axis=1)
    return np.add.reduceat(flat, np.cumsum(counts) - counts)


def _minority(mass: np.ndarray, pos_mass: np.ndarray) -> np.ndarray:
    """Minority-class share of each side; 0 for an empty side."""
    share = np.divide(pos_mass, mass, out=np.zeros_like(mass), where=mass != 0.0)
    return np.minimum(share, 1.0 - share)


def gain_from_robustness(
    rho: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> PartitionScore:
    """Score one split given precomputed robustness values: the batch of one
    of :func:`gains_from_robustness`.

    ``rho`` is the robustness of the full candidate formula per sample.
    """
    scores = gains_from_robustness(np.asarray(rho, dtype=float)[np.newaxis], labels, weights)
    return PartitionScore(float(scores.gain[0]))


def misclassification_gain(
    dataset: LabeledDataset, weights: np.ndarray, phi: Formula
) -> PartitionScore:
    rho = robustness_all(phi, dataset.values)
    return gain_from_robustness(rho, dataset.labels, weights)


def partition(dataset: LabeledDataset, weights: np.ndarray, phi: Formula):
    """Split a dataset by satisfaction of ``phi`` at time 0.

    Returns ``((top, top_weights), (bot, bot_weights))`` where the top part
    holds the satisfying signals.  Either part may be empty; weights are
    carried through unrenormalized (the impurity measure is scale free).
    """
    weights = np.asarray(weights, dtype=float)
    rho = robustness_all(phi, dataset.values)
    top_idx = np.flatnonzero(rho >= 0)
    bot_idx = np.flatnonzero(rho < 0)
    return (
        (dataset.subset(top_idx), weights[top_idx]),
        (dataset.subset(bot_idx), weights[bot_idx]),
    )


def robustness_margin(rho: np.ndarray, weights: np.ndarray) -> float:
    """Total weighted robustness magnitude, the split tie-break criterion;
    :attr:`PartitionScores.margin` for a batch of one."""
    mags, _ = _masses(np.asarray(rho, dtype=float)[np.newaxis], np.asarray(weights, dtype=float))
    return float(mags.sum(axis=1)[0])


def best_leaf_label(dataset: LabeledDataset, weights: np.ndarray, rho: np.ndarray) -> int:
    """Class with the larger robustness-weighted mass, where ``rho`` is the
    robustness of the node's path formula per sample.

    Ties and the empty dataset resolve to the positive class.
    """
    if len(dataset) == 0:
        return POS_LABEL
    mags = _masses(np.asarray(rho, dtype=float)[np.newaxis], np.asarray(weights, dtype=float))[0][0]
    pos = float(mags[dataset.labels == POS_LABEL].sum())
    neg = float(mags[dataset.labels == NEG_LABEL].sum())
    return POS_LABEL if pos >= neg else NEG_LABEL
