"""Independent brute-force reference implementations used only by tests.

Everything here is written directly from the definitions, without importing
the library's evaluation code, so it can serve as an oracle for the optimized
implementations.  All but :func:`naive_side_sums` and
:func:`boosting_weights` are written without numpy; those two pin the bits
of numpy's own 1-D sums.
"""

from __future__ import annotations

import csv
import math
import numbers
from itertools import product

import numpy as np

from stlboost.data import SchemaError
from stlboost.formula import (
    And,
    Always,
    BooleanConst,
    Eventually,
    GT,
    LE,
    Not,
    Or,
    Predicate,
)
from stlboost.pso import EmptyParameterSpaceError
from stlboost.templates import Valuation
from stlboost.tree import Leaf

POS = 1
NEG = -1


def naive_robustness(phi, rows, t):
    """Reference robustness; ``rows`` is a plain list of per-variable lists."""
    horizon = len(rows[0]) - 1
    if isinstance(phi, BooleanConst):
        return math.inf if phi.value else -math.inf
    if isinstance(phi, Predicate):
        assert 0 <= t <= horizon
        parts = []
        for c in phi.box.conjuncts:
            value = rows[c.var - 1][t]
            parts.append(value - c.threshold if c.op == GT else c.threshold - value)
        return min(parts)
    if isinstance(phi, Not):
        return -naive_robustness(phi.child, rows, t)
    if isinstance(phi, And):
        return min(naive_robustness(c, rows, t) for c in phi.children)
    if isinstance(phi, Or):
        return max(naive_robustness(c, rows, t) for c in phi.children)
    if isinstance(phi, Always):
        assert t + phi.end <= horizon
        return min(
            naive_robustness(phi.child, rows, tau)
            for tau in range(t + phi.start, t + phi.end + 1)
        )
    if isinstance(phi, Eventually):
        assert t + phi.end <= horizon
        return max(
            naive_robustness(phi.child, rows, tau)
            for tau in range(t + phi.start, t + phi.end + 1)
        )
    raise TypeError(phi)


def naive_gain(rho_list, labels, weights):
    """Reference weighted misclassification gain from per-sample robustness."""
    mags = [w * abs(r) for w, r in zip(weights, rho_list)]
    total = sum(mags)
    if total == 0.0 or not all(math.isfinite(m) for m in mags):
        return 0.0

    def mr(indices):
        part = sum(mags[i] for i in indices)
        if part == 0.0:
            return 0.0
        pos = sum(mags[i] for i in indices if labels[i] == POS) / part
        return min(pos, 1.0 - pos)

    everyone = list(range(len(rho_list)))
    top = [i for i in everyone if rho_list[i] >= 0]
    bot = [i for i in everyone if rho_list[i] < 0]
    p_top = sum(mags[i] for i in top) / total
    p_bot = sum(mags[i] for i in bot) / total
    return mr(everyone) - p_top * mr(top) - p_bot * mr(bot)


def naive_side_sums(mags, masks):
    """Each row's masked sum, one row at a time: the 1-D sum of the row of
    ``mags`` compacted to its ``masks`` picks, the order in which a split
    scored alone sums each side's mass."""
    return np.array([np.add.reduce(row[mask]) for row, mask in zip(mags, masks)])


def naive_route(tree, rows):
    """The leaf label a signal reaches, going left where the split's
    primitive holds at time 0."""
    while not isinstance(tree, Leaf):
        tree = tree.left if naive_robustness(tree.primitive, rows, 0) >= 0 else tree.right
    return tree.label


def boosting_weights(model, dataset):
    """Replay training's sample weights from the model alone.

    Returns ``(weights, wrong)``: ``weights[k]`` are the sample weights round
    ``k`` trained on, and ``weights[-1]`` those after the last round;
    ``wrong[k]`` marks the signals that round's tree misclassifies, routed by
    :func:`naive_route`.  Weights start uniform and take AdaBoost's update
    ``w * exp(-alpha * y * h)``, normalized, except after a perfect round.
    The arithmetic is numpy's, so a weighted error ``weights[k][wrong[k]].sum()``
    has the bits of numpy's own 1-D sum, as the library's ``epsilon`` does.
    """
    rows = [[[float(v) for v in var] for var in signal] for signal in dataset.values]
    labels = [int(y) for y in dataset.labels]
    current = np.full(len(rows), 1.0 / len(rows))
    weights, wrong = [current], []
    for round_ in model.rounds:
        miss = np.array([naive_route(round_.tree, r) != y for r, y in zip(rows, labels)])
        if current[miss].sum() > 0.0:
            # -alpha * y * h is alpha where the tree errs and -alpha elsewhere.
            current = current * np.exp(np.where(miss, round_.alpha, -round_.alpha))
            current = current / current.sum()
        weights.append(current)
        wrong.append(miss)
    return weights, wrong


def naive_mcr(phi, rows_list, labels):
    wrong = 0
    for rows, label in zip(rows_list, labels):
        sat = naive_robustness(phi, rows, 0) >= 0
        predicted = POS if sat else NEG
        wrong += predicted != label
    return wrong / len(labels)


def grid_search(template, objective, threshold_candidates, time_stride=1, tie_break=None):
    """Exact argmax of ``objective`` over a finite grid of valuations.

    ``threshold_candidates`` is either one list shared by every free
    threshold or one list per slot.  Candidates outside the template bounds
    and combinations that do not form a valid box are skipped.  In grid
    order, a strictly larger value replaces the incumbent, and an equal value
    replaces it only with a strictly larger ``tie_break`` value.
    """
    if not template.is_bound:
        raise ValueError("template must be bound to a dataset before optimization")
    if time_stride < 1:
        raise ValueError("time stride must be at least 1")
    slots = template.slots
    if threshold_candidates and not isinstance(threshold_candidates[0], numbers.Real):
        per_slot = [list(c) for c in threshold_candidates]
        if len(per_slot) != len(slots):
            raise ValueError("need one candidate list per free threshold")
    else:
        per_slot = [list(threshold_candidates) for _ in slots]
    for k, (lo, hi) in enumerate(template.threshold_bounds):
        per_slot[k] = [float(c) for c in per_slot[k] if lo <= c <= hi]
        if not per_slot[k]:
            raise EmptyParameterSpaceError(f"no in-bounds candidates for slot {k}")
    lower = {var: i for i, (var, op) in enumerate(slots) if op == GT}
    upper = {var: i for i, (var, op) in enumerate(slots) if op == LE}
    pairs = [(lower[var], upper[var]) for var in lower if var in upper]

    best, best_value, best_tie = None, -math.inf, None
    for t0 in range(0, template.horizon + 1, time_stride):
        for t1 in range(t0, template.horizon + 1, time_stride):
            for combo in product(*per_slot):
                if any(combo[gi] >= combo[li] for gi, li in pairs):
                    continue
                valuation = Valuation(t0, t1, combo)
                value = float(objective(valuation))
                tie = 0.0 if tie_break is None else float(tie_break(valuation))
                if value > best_value or (
                    value == best_value and best is not None and tie > best_tie
                ):
                    best, best_value, best_tie = valuation, value, tie
    if best is None:
        raise EmptyParameterSpaceError("grid contains no feasible valuation")
    return best, best_value


def naive_save_csv(dataset, path):
    """Reference dataset writer, one record and one ``repr`` at a time."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "t", "label"] + [f"x{j}" for j in range(1, dataset.dimension + 1)])
        for i, sid in enumerate(dataset.ids):
            label = int(dataset.labels[i])
            for t in range(dataset.horizon + 1):
                writer.writerow(
                    [sid, t, label] + [repr(float(v)) for v in dataset.values[i, :, t]]
                )


def naive_load_csv(path):
    """Reference dataset reader, one record at a time.

    Returns ``(ids, labels, values)`` with ``values[i][j][t]`` a float, or
    raises the SchemaError that ``load_csv`` must raise for the same file.
    """
    try:
        return _naive_load_csv(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"not a CSV text file: {exc}") from None


def _naive_load_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 4 or header[:3] != ["id", "t", "label"]:
            raise SchemaError(f"header must start with id,t,label,x1,... (got {header})")
        dim = len(header) - 3
        expected = [f"x{j}" for j in range(1, dim + 1)]
        if header[3:] != expected:
            raise SchemaError(f"variable columns must be {expected} (got {header[3:]})")

        order = []
        rows = {}
        label_of = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"line {line_no}: expected {len(header)} fields")
            sid = row[0]
            try:
                t = int(row[1])
                label = int(row[2])
                point = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise SchemaError(f"line {line_no}: {exc}") from None
            if label not in (POS, NEG):
                raise SchemaError(f"line {line_no}: unknown label {label}")
            if t < 0:
                raise SchemaError(f"line {line_no}: negative timepoint {t}")
            if not all(math.isfinite(v) for v in point):
                raise SchemaError(f"line {line_no}: non-finite value")
            if sid not in rows:
                order.append(sid)
                rows[sid] = {}
                label_of[sid] = label
            elif label_of[sid] != label:
                raise SchemaError(f"line {line_no}: label changes within id {sid!r}")
            if t in rows[sid]:
                raise SchemaError(f"line {line_no}: duplicate (id={sid!r}, t={t})")
            rows[sid][t] = point

    if not order:
        raise SchemaError("no data rows")
    horizon = max(rows[order[0]])
    for sid in order:
        times = rows[sid]
        # The length test comes first, so a huge horizon builds no list.
        if len(times) != horizon + 1 or sorted(times) != list(range(horizon + 1)):
            raise SchemaError(
                f"ragged signal {sid!r}: timepoints do not cover 0..{horizon}"
            )
    values = [
        [[rows[sid][t][j] for t in range(horizon + 1)] for j in range(dim)] for sid in order
    ]
    return tuple(order), [label_of[sid] for sid in order], values
