"""Robustness-weighted misclassification-gain impurity for primitive scoring.

Partition masses scale each sample's boosting weight by the magnitude of its
robustness under the candidate formula, so higher-margin splits score
higher.  Both sides of the partition use absolute robustness; a violating
signal contributes positive mass to the violating side.

A node search scores its candidates with one :func:`gain_scorer`, built from
the node's labels and weights.  One rule, :func:`_masses`, gives the masses
and degenerate rows of the scorer, :func:`robustness_margin` and
:func:`best_leaf_label`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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


def _masses(rho: np.ndarray, weights: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the per-sample masses w * |rho| of each row of a (P, N)
    robustness matrix into ``out``; return each row's total mass and which
    rows are degenerate.

    A row whose masses are not all finite (e.g. the path formula is the
    constant true) or sum to zero is degenerate and falls back to the bare
    weights, so those cases reduce to plain weighted class masses.  A total
    is the 1-D sum of its row: the row sum that tests for zero is the total,
    and the masses are tested for finiteness only when a total is not
    finite, since a non-finite mass makes its row's sum non-finite.
    """
    np.abs(rho, out=out)
    out *= weights
    total = out.sum(axis=1)
    degenerate = total == 0.0
    if not np.isfinite(total).all():
        degenerate |= ~np.isfinite(out).all(axis=1)
    if degenerate.any():
        out[degenerate] = weights
        total[degenerate] = weights.sum()
    return total, degenerate


# The five masses of a row, in the order the scorer lays out their picks:
# each side, the positive samples, then each side's positive part.
_SIDES = 5


def gain_scorer(labels: np.ndarray, weights: np.ndarray) -> Callable[[np.ndarray], PartitionScores]:
    """A function that scores P candidate splits of the (N,) samples
    ``labels`` and ``weights`` at once.

    It takes a (P, N) matrix ``rho`` whose row ``p`` is the robustness of
    candidate ``p`` per sample; a candidate's satisfied side is ``rho >= 0``.
    A degenerate row (see :func:`_masses`) has gain 0: such a split carries
    no margin information.  Every entry is bit-identical to scoring its row
    alone, because each mass has the bits of the 1-D sum of its row's picks:
    the total is a row sum, and the five other masses (each side, the
    positives, and each side's positives) are summed by one
    ``np.add.reduceat`` over every row's picks laid out flat, each after a
    leading +0.0.  ``reduceat`` sums a segment as its first element plus the
    pairwise sum of the rest, and a 1-D sum is +0.0 plus the pairwise sum of
    its values, so the two agree.

    The positive mask and count are taken once.  Buffers sized for the
    largest call so far hold, per row, one copy of its masses per mass
    summed, each after a +0.0, their pick masks and the segment starts;
    a call uses their first P rows and moves two starts per row, by the
    counts of the top side and of its positives.  No returned array is a
    view of a buffer.

    Raises ValueError unless ``labels`` and ``weights`` hold one entry per
    sample, and, at a call, unless ``rho`` has one column per sample.
    """
    labels = np.asarray(labels)
    weights = np.ascontiguousarray(weights, dtype=float)
    if labels.ndim != 1 or weights.shape != labels.shape:
        raise ValueError(f"weights must hold one entry per label: got weights of shape "
                         f"{weights.shape} for labels of shape {labels.shape}")
    count = len(labels)
    pos = labels == POS_LABEL
    positives = int(np.count_nonzero(pos))
    # Row p's picks take 5 + N + 2 * positives flat places wherever the split
    # falls: the bottom side holds the rest of the row, and its positive
    # part the rest of the positives.
    stride = _SIDES + count + 2 * positives
    fixed = np.array([0, 1, 2 + count, 3 + count + positives, 4 + count + positives])
    # One product counts each row's top picks and their positives.
    counters = np.stack([np.ones(count, dtype=np.intp), pos.astype(np.intp)], axis=1)
    buffers = ()

    def grown(rows: int) -> tuple[np.ndarray, ...]:
        masses = np.zeros((rows, _SIDES, count + 1))
        picks = np.ones((rows, _SIDES, count + 1), dtype=bool)
        picks[:, 2, 1:] = pos
        starts = np.arange(rows)[:, np.newaxis] * stride + fixed
        # The starts of the bottom side and of its positives, less the top's counts.
        bases = starts[:, 1::3].copy()
        return masses, picks, starts, bases

    def score(rho: np.ndarray) -> PartitionScores:
        nonlocal buffers
        rho = np.asarray(rho, dtype=float)
        if rho.ndim != 2 or rho.shape[1] != count:
            raise ValueError(f"rho must have one column per label and weight ({count}), "
                             f"got shape {rho.shape}")
        rows = len(rho)
        if rows == 0 or count == 0:
            return PartitionScores(np.zeros(rows), np.zeros(rows))
        if not buffers or len(buffers[0]) < rows:
            buffers = grown(rows)
        masses, picks, starts, bases = (buffer[:rows] for buffer in buffers)
        total, degenerate = _masses(rho, weights, masses[:, 0, 1:])
        masses[:, 1:, 1:] = masses[:, :1, 1:]
        top = picks[:, 0, 1:]
        np.greater_equal(rho, 0.0, out=top)
        np.logical_not(top, out=picks[:, 1, 1:])
        np.logical_and(picks[:, :2, 1:], pos, out=picks[:, 3:, 1:])
        np.add(bases, top @ counters, out=starts[:, 1::3])
        # compress picks from contiguous copies far faster than a boolean
        # index into one broadcast row does.
        flat = masses.ravel().compress(picks.ravel())
        sums = np.add.reduceat(flat, starts.ravel()).reshape(rows, _SIDES).T
        shares = sums[:3] / total  # of the top, the bottom and the positives
        minority = np.divide(sums[3:], sums[:2], out=np.zeros((2, rows)), where=sums[:2] != 0.0)
        np.minimum(minority, 1.0 - minority, out=minority)
        minority *= shares[:2]
        gain = np.minimum(shares[2], 1.0 - shares[2]) - minority[0] - minority[1]
        gain[degenerate] = 0.0
        return PartitionScores(gain, total)

    return score


def gains_from_robustness(
    rho: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> PartitionScores:
    """Score the P candidate splits of a (P, N) robustness matrix ``rho``
    over the (N,) samples ``labels`` and ``weights``: one call of a
    :func:`gain_scorer`."""
    return gain_scorer(labels, weights)(rho)


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
    rho = np.asarray(rho, dtype=float)[np.newaxis]
    total, _ = _masses(rho, np.asarray(weights, dtype=float), np.empty(rho.shape))
    return float(total[0])


def best_leaf_label(dataset: LabeledDataset, weights: np.ndarray, rho: np.ndarray) -> int:
    """Class with the larger robustness-weighted mass, where ``rho`` is the
    robustness of the node's path formula per sample.

    Ties and the empty dataset resolve to the positive class.
    """
    if len(dataset) == 0:
        return POS_LABEL
    rho = np.asarray(rho, dtype=float)[np.newaxis]
    mags = np.empty(rho.shape)
    _masses(rho, np.asarray(weights, dtype=float), mags)
    pos = float(mags[0, dataset.labels == POS_LABEL].sum())
    neg = float(mags[0, dataset.labels == NEG_LABEL].sum())
    return POS_LABEL if pos >= neg else NEG_LABEL
