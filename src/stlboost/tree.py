"""Binary decision trees over temporal-logic split primitives.

Each internal node tests one valued primitive (``G``/``F`` over a box
predicate); satisfied signals go left.  Construction greedily maximizes the
robustness-weighted misclassification gain of the full path formula, and a
rewriting step tries to merge a node's primitive with a child candidate of
the same temporal operator into a single wider box primitive, restarting the
node whenever the merged split strictly raises the gain, at most twice the
node's variable count times.  A search takes the template whose primitive
has the largest gain, then the largest robustness margin, then the earliest.

Growth (:func:`build_tree`) recurses depth first and calls
:func:`optimize_primitive` for each node search and merge search.  It
returns the root and the number of merges accepted, each logged at DEBUG.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import LabeledDataset, POS_LABEL
from .fanout import fan_out
from .formula import (
    And,
    Always,
    Eventually,
    FALSE,
    Formula,
    Not,
    Or,
    Predicate,
    Signal,
    TRUE,
    robustness_all,
)
from .impurity import best_leaf_label, gains_from_robustness

# ``gain_from_robustness``, ``robustness_margin``, ``misclassification_gain``,
# ``partition``, ``operator_count`` and ``optimize`` are unused here but stay
# bound: bench/tracer.py wraps the library's public names where this module
# binds them.
from .formula import operator_count  # noqa: F401
from .impurity import (  # noqa: F401
    gain_from_robustness,
    misclassification_gain,
    partition,
    robustness_margin,
)
from .pso import PsoConfig, checked_int, optimize, optimize_batch  # noqa: F401
from .templates import (
    ALWAYS,
    EVENTUALLY,
    PstlTemplate,
    batch_robustness,
    first_order_templates,
    lockstep_batches,
    particles_per_pass,
)

logger = logging.getLogger(__name__)

# Growing, routing, rendering and re-parsing a tree each recurse once or a
# few times per level, so this bound keeps them far from the interpreter's
# recursion limit.  A deeper tree would not read as a concise formula anyway.
MAX_DEPTH = 32


class EmptyPrimitiveSetError(ValueError):
    """No templates or formulas were offered to the primitive search."""


class NotAPrimitiveError(TypeError):
    """Primitive merging needs a single temporal operator over one box."""


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Split:
    primitive: Formula
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Leaf | Split


@dataclass(frozen=True)
class TreeConfig:
    """Growth limits and search settings for one tree.

    ``max_depth`` is an integer in [1, MAX_DEPTH]; ``purity_stop`` is the
    plain (unweighted) majority fraction at which a node becomes a leaf;
    ``shapes`` selects which temporal operators the first-order split
    templates use.
    """

    max_depth: int = 3
    purity_stop: float = 0.95
    shapes: tuple[str, ...] = (ALWAYS, EVENTUALLY)
    pso: PsoConfig = field(default_factory=PsoConfig)

    def __post_init__(self):
        object.__setattr__(self, "max_depth", checked_int("max_depth", self.max_depth))
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max depth must be in [1, {MAX_DEPTH}]")
        if not 0.5 < self.purity_stop <= 1.0:
            raise ValueError("purity stop must be in (0.5, 1]")
        if not self.shapes or any(s not in (ALWAYS, EVENTUALLY) for s in self.shapes):
            raise ValueError(f"shapes must be drawn from ({ALWAYS!r}, {EVENTUALLY!r})")


def mix_seed(*parts: int) -> int:
    """One 32-bit seed mixed from a tuple of integers."""
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _stop(dataset: LabeledDataset, depth: int, config: TreeConfig) -> bool:
    if len(dataset) == 0 or depth >= config.max_depth:
        return True
    majority = max(dataset.class_counts().values())
    return majority / len(dataset) >= config.purity_stop


def optimize_primitive(
    dataset: LabeledDataset,
    weights: np.ndarray,
    path_rho: np.ndarray,
    templates: PstlTemplate | Sequence[PstlTemplate],
    config: TreeConfig,
    seed: int = 0,
) -> tuple[Formula, float]:
    """Best split primitive for a node and its gain.

    ``path_rho`` is the robustness of the node's path formula per sample
    (``np.full(N, np.inf)`` at the root).  Each template, bound to the
    node's data unless it already is, is searched with its own swarm, which
    scores a candidate by the misclassification gain of path ∧ candidate
    over the node's samples, whose robustness is ``min(path_rho, candidate
    robustness)``.  The returned gain is the one the search found; it equals
    that candidate's gain scored alone, bit for bit.  A gain tie goes to the
    larger robustness margin, then to the earlier template.  A template
    whose faces or horizon do not fit the node's data raises ValueError.

    The templates are split by :func:`~stlboost.templates.lockstep_batches`
    within TABLE_BUDGET_BYTES, and each batch is one
    :func:`~stlboost.pso.optimize_batch` whose particles are scored in
    passes within the same budget (:func:`~stlboost.templates.particles_per_pass`).
    Template ``j`` is searched with the seed ``mix_seed(seed, j)``, and its
    result depends on neither the batch nor the passes.  The batches are
    the tasks of one :func:`~stlboost.fanout.fan_out`: this process searches
    its share, and a forked child per further worker searches the rest and
    sends back each template's ``(valuation, gain, margin)``.  A search of
    one batch forks nothing, and neither does one inside a cv fold run,
    which is itself a fan-out's task.
    """
    if isinstance(templates, PstlTemplate):
        templates = (templates,)
    else:
        templates = tuple(templates)
    if not templates:
        raise EmptyPrimitiveSetError("need at least one template")
    misfits = [t for t in templates if max(var for var, _ in t.slots) > dataset.dimension
               or t.horizon not in (None, dataset.horizon)]
    if misfits:
        raise ValueError(f"template {misfits[0]} does not fit data of {dataset.dimension} "
                         f"variables over horizon {dataset.horizon}")
    templates = tuple(t if t.is_bound else t.bound_to(dataset) for t in templates)
    weights = np.asarray(weights, dtype=float)
    path_rho = np.asarray(path_rho, dtype=float)
    batches = lockstep_batches(templates, len(dataset), dataset.horizon + 1)

    def search(batch):
        searched = tuple(templates[j] for j in batch)
        objective = _batch_objective(searched, dataset, weights, path_rho)
        return optimize_batch(searched, objective, config.pso, [mix_seed(seed, j) for j in batch])

    found = [None] * len(templates)  # (valuation, gain, margin) per template
    with fan_out(search, batches) as answers:
        for batch, results in zip(batches, answers):
            for j, result in zip(batch, results):
                found[j] = result
    return _best(templates, found)


def _batch_objective(
    searched: tuple[PstlTemplate, ...],
    dataset: LabeledDataset,
    weights: np.ndarray,
    path_rho: np.ndarray,
):
    """The lockstep objective of ``searched`` at a node; its range tables
    are freed with it, before the next batch's are built."""
    batch_rho = batch_robustness(searched, dataset.values)
    step = particles_per_pass(len(searched), len(dataset))

    def objective(t0, t1, thresholds):
        # Rows are scored independently, so passes over a few particles
        # at a time give the bits of one pass over the whole swarm.
        values, margins = np.empty(t0.shape), np.empty(t0.shape)
        for start in range(0, t0.shape[1], step):
            part = slice(start, start + step)
            rho = np.minimum(path_rho, batch_rho(t0[:, part], t1[:, part], thresholds[:, part]))
            scores = gains_from_robustness(rho.reshape(-1, rho.shape[-1]), dataset.labels, weights)
            values[:, part] = scores.gain.reshape(rho.shape[:2])
            margins[:, part] = scores.margin.reshape(rho.shape[:2])
        return values, margins

    return objective


def _best(templates: tuple[PstlTemplate, ...], found) -> tuple[Formula, float]:
    """The best primitive of a search and its gain: the first template with
    the largest ``(gain, margin)``, so a gain tie goes to the larger margin,
    then to the earlier template."""
    j = max(range(len(found)), key=lambda j: found[j][1:])
    valuation, gain, _ = found[j]
    return templates[j].instantiate(valuation), gain


def _as_primitive(phi: Formula):
    if isinstance(phi, Always) and isinstance(phi.child, Predicate):
        return ALWAYS, phi.child.box
    if isinstance(phi, Eventually) and isinstance(phi.child, Predicate):
        return EVENTUALLY, phi.child.box
    raise NotAPrimitiveError(
        f"expected a single temporal operator over a box predicate, got {phi!r}"
    )


def combine_primitives(parent: Formula, child: Formula) -> PstlTemplate | None:
    """Merge two same-operator box primitives into one free template.

    The merged template keeps the parent's operator, one free threshold per
    distinct (variable, comparator) face, and free interval endpoints.
    Returns None when the operators differ (no merge rule applies).
    """
    parent_shape, parent_box = _as_primitive(parent)
    child_shape, child_box = _as_primitive(child)
    if parent_shape != child_shape:
        return None
    slots: list[tuple[int, str]] = []
    for conjunct in parent_box.conjuncts + child_box.conjuncts:
        slot = (conjunct.var, conjunct.op)
        if slot not in slots:
            slots.append(slot)
    return PstlTemplate(parent_shape, tuple(slots))


def build_tree(
    dataset: LabeledDataset,
    weights: np.ndarray,
    config: TreeConfig,
    seed: int = 0,
) -> tuple[TreeNode, int]:
    """Grow one tree on weighted samples; returns the root and the number of
    merges accepted.  Each accepted merge is logged at DEBUG as ``depth d
    merge accepted: gain g -> g'``.

    Growth is depth first, and the k-th search drawn (a node that becomes a
    leaf draws one too) takes the seed ``mix_seed(seed, k)``.
    """
    if len(dataset) == 0:
        raise ValueError("cannot grow a tree on an empty dataset")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(dataset),) or np.any(weights < 0):
        raise ValueError("weights must be one non-negative value per sample")
    total = float(weights.sum())
    if not np.isclose(total, 1.0):
        raise ValueError("weights must be normalized")

    templates = first_order_templates(dataset.dimension, config.shapes)
    state = {"calls": 0, "merges": 0}

    def next_seed() -> int:
        state["calls"] += 1
        return mix_seed(seed, state["calls"])

    def search(sub, sub_weights, path_rho, depth):
        # The seed is drawn even at a leaf, so every later search keeps its seed.
        node_seed = next_seed()
        if _stop(sub, depth, config):
            return None
        return optimize_primitive(sub, sub_weights, path_rho, templates, config, node_seed)

    def grow(sub, sub_weights, path_rho, depth, found):
        # ``path_rho`` is the robustness of the conjunction of the primitives
        # (negated on right turns) from the root down to this node; ``found``
        # is this node's search result, ``(primitive, gain)`` or None at a leaf.
        if found is None:
            return Leaf(best_leaf_label(sub, sub_weights, path_rho))
        candidate, gain = found
        restarts = 0
        budget = 2 * sub.dimension
        while True:
            rho = robustness_all(candidate, sub.values)
            top_rho = np.minimum(path_rho, rho)
            top = np.flatnonzero(top_rho >= 0)
            bot = np.flatnonzero(top_rho < 0)
            sides = (
                (sub.subset(top), sub_weights[top], top_rho[top]),
                (sub.subset(bot), sub_weights[bot], np.minimum(path_rho, -rho)[bot]),
            )
            children = []
            for child_set, child_w, child_rho in sides:
                child = search(child_set, child_w, child_rho, depth + 1)
                children.append(child)
                if restarts >= budget or child is None:
                    continue
                merged = combine_primitives(candidate, child[0])
                if merged is None:
                    continue
                rewritten, new_gain = optimize_primitive(
                    sub, sub_weights, path_rho, (merged,), config, next_seed()
                )
                if new_gain > gain:
                    state["merges"] += 1
                    logger.debug(
                        "depth %d merge accepted: gain %.6f -> %.6f", depth, gain, new_gain
                    )
                    candidate, gain = rewritten, new_gain
                    restarts += 1
                    break
            else:
                left = grow(*sides[0], depth + 1, children[0])
                right = grow(*sides[1], depth + 1, children[1])
                return Split(candidate, left, right)

    root_rho = np.full(len(dataset), np.inf)
    root = grow(dataset, weights, root_rho, 0, search(dataset, weights, root_rho, 0))
    return root, state["merges"]


def classify(node: TreeNode, signal: Signal) -> int:
    """Route one signal through the tree: :func:`classify_all` on a batch of one."""
    return int(classify_all(node, signal.values[np.newaxis])[0])


def classify_all(node: TreeNode, values: np.ndarray) -> np.ndarray:
    """Route each signal of a (N, n, T+1) batch through the tree, going left
    on satisfaction; returns the leaf labels."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape[0], dtype=int)

    def walk(current: TreeNode, indices: np.ndarray) -> None:
        if isinstance(current, Leaf):
            out[indices] = current.label
            return
        if indices.size == 0:
            return
        rho = robustness_all(current.primitive, values[indices])
        sat = rho >= 0
        walk(current.left, indices[sat])
        walk(current.right, indices[~sat])

    walk(node, np.arange(values.shape[0]))
    return out


def tree_depth(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def tree_to_formula(node: TreeNode) -> Formula:
    """Formula satisfied by the signals the tree labels positive, but for a
    split's boundary.

    Built recursively as (phi ∧ left) ∨ (¬phi ∧ right) with constant
    children folded away, which keeps shared prefixes factored instead of
    expanding every root-to-leaf path.

    Where a split's ``phi`` has robustness exactly 0 the tree goes left, but
    ``¬phi`` reads -0.0, which ``satisfies`` and ``mcr`` count as satisfied:
    ``Split(G[0,0](x1 > 5), Leaf(-1), Leaf(1))`` labels x1 = 5 negative, and
    its formula holds there.  A learned threshold practically never equals
    a data value; a hand-written one can.
    """
    if isinstance(node, Leaf):
        return TRUE if node.label == POS_LABEL else FALSE
    phi = node.primitive
    left = tree_to_formula(node.left)
    right = tree_to_formula(node.right)
    if left == TRUE and right == TRUE:
        return TRUE
    if left == FALSE and right == FALSE:
        return FALSE
    if left == TRUE and right == FALSE:
        return phi
    if left == FALSE and right == TRUE:
        return Not(phi)
    if left == FALSE:
        return And((Not(phi), right))
    if right == FALSE:
        return And((phi, left))
    if left == TRUE:
        return Or((phi, And((Not(phi), right))))
    if right == TRUE:
        return Or((And((phi, left)), Not(phi)))
    return Or((And((phi, left)), And((Not(phi), right))))
