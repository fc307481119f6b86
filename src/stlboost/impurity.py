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

    p_top: float
    p_bot: float
    p_pos: float
    p_neg: float
    gain: float


class PartitionScores(NamedTuple):
    """:class:`PartitionScore` fields for a batch of candidate splits, one
    entry per candidate, plus each candidate's robustness margin (the total
    mass, the tie-break criterion)."""

    p_top: np.ndarray
    p_bot: np.ndarray
    p_pos: np.ndarray
    p_neg: np.ndarray
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
    rho: np.ndarray, labels: np.ndarray, weights: np.ndarray, valid: np.ndarray | None = None
) -> PartitionScores:
    """Score P candidate splits at once.

    Row ``p`` of the (P, N) matrix ``rho`` is the robustness of candidate
    ``p`` per sample; its satisfied side is ``rho >= 0``.  ``labels`` and
    ``weights`` are the (N,) samples every row scores, or, with ``valid``,
    (P, N) per row: then row ``p`` scores only its samples where
    ``valid[p]`` holds, so rows of different nodes can be padded to one
    width.  A degenerate row (see :func:`_masses`) has gain 0: such a split
    carries no margin information.  Every entry is bit-identical to scoring
    its row's samples alone: row sums of a C-contiguous matrix equal the
    1-D sums of its rows, and every other sum is the 1-D sum of the row's
    compacted picks (see :func:`_side_sums`).  A padded row's sums all take
    that route, since trailing zeros would change numpy's pairwise grouping.
    """
    rho = np.asarray(rho, dtype=float)
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=float)
    if rho.shape[1] == 0:
        zeros = np.zeros(rho.shape[0])
        return PartitionScores(zeros, zeros, zeros, zeros, zeros, zeros)
    if valid is not None:
        # Padding has zero mass, so it never makes a row degenerate.
        rho = np.where(valid, rho, 0.0)
        weights = np.where(valid, weights, 0.0)
    mags, degenerate = _masses(rho, weights)
    pos = labels == POS_LABEL
    sat = rho >= 0
    bot = ~sat
    sides = [sat, bot, sat & pos, bot & pos]
    if valid is None:
        total = mags.sum(axis=1)
        # A boolean column selection comes out Fortran-ordered, and its row
        # sums would then differ from the 1-D sums in the last bit.
        pos_mass = np.ascontiguousarray(mags[:, pos]).sum(axis=1)
        sums = _side_sums(mags, np.concatenate(sides)).reshape(4, -1)
    else:
        sides = [valid, valid & pos] + [side & valid for side in sides]
        total, pos_mass, *sums = _side_sums(mags, np.concatenate(sides)).reshape(6, -1)
    top_mass, bot_mass, top_pos_mass, bot_pos_mass = sums
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
    return PartitionScores(p_top, p_bot, p_pos, p_neg, gain, total)


def _side_sums(mags: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Sum of ``mags[r % P]`` over the mask ``masks[r]``, for each row ``r``
    of the (R, N) ``masks``, where ``mags`` is (P, N).

    Each sum has the bits of the 1-D sum of the row's compacted picks, whose
    order depends on the pick count (numpy's pairwise summation).  So the
    rows are stably sorted by pick count, and each run of rows with ``k``
    picks is summed as one C-contiguous (rows, k) block along its rows,
    which runs the same summation with the same ``k`` as the 1-D sum.
    """
    counts = np.count_nonzero(masks, axis=1)
    order = np.argsort(counts, kind="stable")
    picks = mags[order % mags.shape[0]][masks[order]]
    runs = np.bincount(counts)
    sizes = np.flatnonzero(runs)
    sums = np.empty(masks.shape[0])
    row = pick = 0
    for k, rows in zip(sizes.tolist(), runs[sizes].tolist()):
        block = picks[pick : pick + rows * k].reshape(rows, k)
        sums[order[row : row + rows]] = block.sum(axis=1)
        row += rows
        pick += rows * k
    return sums


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
    return PartitionScore(
        float(scores.p_top[0]),
        float(scores.p_bot[0]),
        float(scores.p_pos[0]),
        float(scores.p_neg[0]),
        float(scores.gain[0]),
    )


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
