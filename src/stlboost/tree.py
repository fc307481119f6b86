"""Binary decision trees over temporal-logic split primitives.

Each internal node tests one valued primitive (``G``/``F`` over a box
predicate); satisfied signals go left.  Construction greedily maximizes the
robustness-weighted misclassification gain of the full path formula, and a
rewriting step tries to merge a node's primitive with a child candidate of
the same temporal operator into a single wider box primitive, restarting the
node whenever the merged split strictly improves the gain.

Growth is a generator (:func:`build_tree_steps`) that yields each node and
merge search as a :class:`SearchRequest` and resumes with its answer, so
:func:`drive` can serve the searches of several trees at once.  It returns
the root and the number of merges accepted, each logged at DEBUG.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Generator, Sequence, TypeVar

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
    operator_count,
    robustness_all,
)
from .impurity import best_leaf_label, gains_from_robustness

# ``gain_from_robustness``, ``robustness_margin``, ``misclassification_gain``,
# ``partition`` and ``optimize`` are unused here but stay bound:
# bench/tracer.py wraps the library's public names where this module binds them.
from .impurity import (  # noqa: F401
    gain_from_robustness,
    misclassification_gain,
    partition,
    robustness_margin,
)
from .pso import PsoConfig, optimize, optimize_batch  # noqa: F401
from .templates import (
    ALWAYS,
    EVENTUALLY,
    PstlTemplate,
    batch_robustness,
    first_order_templates,
    lockstep_batches,
    node_stacks,
    particles_per_pass,
)

T = TypeVar("T")

logger = logging.getLogger(__name__)

# A merge rewrite is accepted only when it beats the incumbent gain by at
# least this much; together with the per-node restart budget this bounds the
# restart loop.
MIN_GAIN_IMPROVEMENT = 1e-9

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

    ``max_depth`` is in [1, MAX_DEPTH]; ``purity_stop`` is the plain
    (unweighted) majority fraction at which a node becomes a leaf;
    ``shapes`` selects which temporal operators the first-order split
    templates use.
    """

    max_depth: int = 3
    purity_stop: float = 0.95
    shapes: tuple[str, ...] = (ALWAYS, EVENTUALLY)
    pso: PsoConfig = field(default_factory=PsoConfig)

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One node or merge search: the node's signals (N, n, T+1), labels,
    weights and path robustness, the bound templates to search, the seed and
    the swarm settings.  Its answer is ``(primitive, gain)``."""

    values: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    path_rho: np.ndarray
    templates: tuple[PstlTemplate, ...]
    seed: int
    pso: PsoConfig


Searches = Generator[SearchRequest, tuple[Formula, float], T]


def _request(
    dataset: LabeledDataset,
    weights: np.ndarray,
    path_rho: np.ndarray,
    templates: PstlTemplate | Sequence[PstlTemplate],
    config: TreeConfig,
    seed: int,
) -> SearchRequest:
    """A search of ``templates`` at a node, each bound to the node's data
    unless it already is."""
    if isinstance(templates, PstlTemplate):
        templates = (templates,)
    else:
        templates = tuple(templates)
    if not templates:
        raise EmptyPrimitiveSetError("need at least one template")
    return SearchRequest(
        dataset.values,
        dataset.labels,
        np.asarray(weights, dtype=float),
        np.asarray(path_rho, dtype=float),
        tuple(t if t.is_bound else t.bound_to(dataset) for t in templates),
        seed,
        config.pso,
    )


def optimize_primitive(
    dataset: LabeledDataset,
    weights: np.ndarray,
    path_rho: np.ndarray,
    templates: PstlTemplate | Sequence[PstlTemplate],
    config: TreeConfig,
    seed: int = 0,
) -> tuple[Formula, float]:
    """Best split primitive for a node and its gain: one search request,
    served alone by :func:`serve_searches`.

    ``path_rho`` is the robustness of the node's path formula per sample
    (``np.full(N, np.inf)`` at the root).  Each template is searched with
    its own swarm, which scores a candidate by the misclassification gain of
    path ∧ candidate over the node's samples, whose robustness is
    ``min(path_rho, candidate robustness)``.  The returned gain is the one
    the search found; it equals that candidate's gain scored alone, bit for
    bit.  Ties break toward fewer operators, then larger robustness margin,
    then the earlier template.
    """
    [found] = serve_searches([_request(dataset, weights, path_rho, templates, config, seed)])
    return found


def serve_searches(requests: Sequence[SearchRequest]) -> list[tuple[Formula, float]]:
    """Answer each request with its best primitive and that primitive's gain.

    Requests with one swarm setting and signal shape are stacked by
    :func:`~stlboost.templates.node_stacks`.  The templates of a stack are
    split by :func:`~stlboost.templates.lockstep_batches`, within
    TABLE_BUDGET_BYTES on the stack's signals, and each batch is one
    :func:`~stlboost.pso.optimize_batch` whose particles are scored in passes
    within the same budget (:func:`~stlboost.templates.particles_per_pass`).
    Template ``j`` of a request is searched with the seed
    ``mix_seed(request.seed, j)``, and its result depends on neither the
    batch nor the passes, so every answer is the bits of its request served
    alone.

    The round's batches are the tasks of one
    :func:`~stlboost.fanout.fan_out`: this process searches its share, and
    a forked child per further worker searches the rest and sends back each template's ``(valuation, gain,
    margin)``.  A round has several batches only when its tables pass the
    budget or its templates cannot share a batch (another swarm setting,
    signal shape or parameter count).  A round of one batch forks nothing,
    and neither does one inside a cv fold run, which is itself a fan-out's
    task.
    """
    requests = list(requests)
    found = {request: [None] * len(request.templates) for request in requests}
    groups: dict[tuple, list[SearchRequest]] = {}
    for request in requests:
        groups.setdefault((request.pso, request.values.shape[1:]), []).append(request)
    tasks = []  # (pso, [(request, template index), ...]) per lockstep batch
    for (pso, (_, width)), members in groups.items():
        sizes = [len(request.labels) for request in members]
        for stack in node_stacks(sizes, width):
            entries = [(members[k], j) for k in stack for j in range(len(members[k].templates))]
            templates = tuple(request.templates[j] for request, j in entries)
            signals = sum(sizes[k] for k in stack)
            tasks += [(pso, [entries[k] for k in batch])
                      for batch in lockstep_batches(templates, signals, width)]
    with fan_out(_search_batch, tasks) as answers:
        for (_, batch), results in zip(tasks, answers):
            for (request, j), result in zip(batch, results):
                found[request][j] = result  # (valuation, gain, margin)
    return [_best(request.templates, found[request]) for request in requests]


def _search_batch(task) -> list:
    """One lockstep batch of :func:`serve_searches`, ``(pso, entries)`` with
    an entry ``(request, j)`` per template, searched; its range tables are
    freed on return, before the next batch's are built."""
    pso, entries = task
    searched = tuple(request.templates[j] for request, j in entries)
    objective = _batch_objective(searched, [request for request, _ in entries])
    seeds = [mix_seed(request.seed, j) for request, j in entries]
    return optimize_batch(searched, objective, pso, seeds)


def _batch_objective(searched: tuple[PstlTemplate, ...], owners: list[SearchRequest]):
    """The lockstep objective of ``searched``, template ``m`` of which
    belongs to ``owners[m]``.

    The range tables are built over the signals of the batch's requests
    stacked, and each template reads a run of rows from its own node's
    first; the largest node goes last, so every run lies within the stack.
    A batch of one request scores its node's arrays as they are.  Otherwise
    the rows past a node's signals are masked out of every sum.
    """
    nodes = sorted(dict.fromkeys(owners), key=lambda node: len(node.labels))
    sizes = np.array([len(node.labels) for node in nodes])
    which = np.array([nodes.index(owner) for owner in owners])
    starts = (np.cumsum(sizes) - sizes)[which]
    count = int(sizes[-1])
    if len(nodes) == 1:
        [node] = nodes
        signals, valid = node.values, None
        path_rho, labels, weights = node.path_rho, node.labels, node.weights
    else:
        span = np.arange(count)
        valid = span < sizes[which, np.newaxis]
        rows = starts[:, np.newaxis] + span
        signals = np.concatenate([node.values for node in nodes])

        def padded(field):
            return np.concatenate([getattr(node, field) for node in nodes])[rows]

        path_rho = padded("path_rho")[:, np.newaxis]
        labels, weights = padded("labels"), padded("weights")
    batch_rho = batch_robustness(searched, signals, starts, count)
    step = particles_per_pass(len(searched), count)

    def per_row(array, particles):
        # A template's node samples, once per particle of the pass.
        return array if valid is None else np.repeat(array, particles, axis=0)

    def objective(t0, t1, thresholds):
        # Rows are scored independently, so passes over a few particles
        # at a time give the bits of one pass over the whole swarm.
        values, margins = np.empty(t0.shape), np.empty(t0.shape)
        for start in range(0, t0.shape[1], step):
            part = slice(start, start + step)
            candidate_rho = batch_rho(t0[:, part], t1[:, part], thresholds[:, part])
            rho = np.minimum(path_rho, candidate_rho)
            particles = rho.shape[1]
            scores = gains_from_robustness(
                rho.reshape(-1, rho.shape[-1]),
                per_row(labels, particles),
                per_row(weights, particles),
                None if valid is None else per_row(valid, particles),
            )
            values[:, part] = scores.gain.reshape(rho.shape[:2])
            margins[:, part] = scores.margin.reshape(rho.shape[:2])
        return values, margins

    return objective


def _best(templates: tuple[PstlTemplate, ...], found) -> tuple[Formula, float]:
    """The best primitive of a request and its gain: ties break toward fewer
    operators, then larger margin, then the earlier template."""
    best = None  # (gain, ops, margin, formula)
    for template, (valuation, gain, margin) in zip(templates, found):
        phi = template.instantiate(valuation)
        ops = operator_count(phi)
        if (
            best is None
            or gain > best[0]
            or (gain == best[0] and ops < best[1])
            or (gain == best[0] and ops == best[1] and margin > best[2])
        ):
            best = (gain, ops, margin, phi)
    return best[3], best[0]


def drive(steps: Sequence[Searches[T]]) -> list[T]:
    """Run search generators together; returns what each one returns.

    Each round sends every running generator the answer to its last request
    and takes its next one, and one :func:`serve_searches` call answers all
    of the round's requests.  When a generator raises, the ones after it are
    dropped, and once each one before it has returned or raised, the
    exception of the first generator that raised is raised: the error a run
    of the generators one after the other would meet first.  An error while
    serving a round is raised at once.
    """
    steps = list(steps)
    results: list = [None] * len(steps)
    replies = dict.fromkeys(range(len(steps)))  # running generator -> its answer
    failed = None
    while replies:
        pending = {}
        for index, reply in replies.items():
            try:
                pending[index] = steps[index].send(reply)
            except StopIteration as stop:
                results[index] = stop.value
            except Exception as exc:
                failed = exc  # every generator still running comes before this one
                break
        replies = dict(zip(pending, serve_searches(list(pending.values()))))
    if failed is not None:
        raise failed
    return results


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
    """Grow one tree on weighted samples; returns the root and merge count.

    This drives :func:`build_tree_steps` alone, serving each search as it
    comes.
    """
    [grown] = drive([build_tree_steps(dataset, weights, config, seed)])
    return grown


def build_tree_steps(
    dataset: LabeledDataset,
    weights: np.ndarray,
    config: TreeConfig,
    seed: int = 0,
) -> Searches[tuple[TreeNode, int]]:
    """Tree growth as a generator: yields each node search and merge search
    as a :class:`SearchRequest`, resumes with its ``(primitive, gain)``, and
    returns the root and the number of merges accepted.  Each accepted merge
    is logged at DEBUG as ``depth d merge accepted: gain g -> g'``.

    The searches come in the order of a depth-first growth, and the k-th
    search drawn (a node that becomes a leaf draws one too) takes the seed
    ``mix_seed(seed, k)``, so the tree depends on the answers only.
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
        return (yield _request(sub, sub_weights, path_rho, templates, config, node_seed))

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
                child = yield from search(child_set, child_w, child_rho, depth + 1)
                children.append(child)
                if restarts >= budget or child is None:
                    continue
                merged = combine_primitives(candidate, child[0])
                if merged is None:
                    continue
                rewritten, new_gain = yield _request(
                    sub, sub_weights, path_rho, merged, config, next_seed()
                )
                if new_gain >= gain + MIN_GAIN_IMPROVEMENT:
                    state["merges"] += 1
                    logger.debug(
                        "depth %d merge accepted: gain %.6f -> %.6f", depth, gain, new_gain
                    )
                    candidate, gain = rewritten, new_gain
                    restarts += 1
                    break
            else:
                left = yield from grow(*sides[0], depth + 1, children[0])
                right = yield from grow(*sides[1], depth + 1, children[1])
                return Split(candidate, left, right)

    root_rho = np.full(len(dataset), np.inf)
    found = yield from search(dataset, weights, root_rho, 0)
    root = yield from grow(dataset, weights, root_rho, 0, found)
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
