"""Layer tracing from outside the library, for the benchmark's traced runs.

The tracer replaces public names where the *calling* module binds them (for
example ``stlboost.tree.robustness_all``, not ``stlboost.formula``'s own), so
recursion inside a layer is never counted twice.  Each wrapped call is a
span with a name, start, end and parent.  Spans are kept down to each swarm
search; the per-particle calls inside a search are folded into a count and a
total time under that search's span, so memory stays bounded.

Every wrapped call also adds its self time (duration minus the time of the
wrapped calls it made) to its layer.  Because the root span is the CLI
command, the layer self times of a command add up to its traced wall time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "data", "boosting", "tree", "pso", "templates", "impurity", "formula", "grammar")


def window_cells(phi) -> int:
    """Signal samples one evaluation of ``phi`` reads, per signal.

    A primitive ``G``/``F`` over a box reads window length x faces samples;
    nested temporal operators multiply.
    """
    from stlboost.formula import Always, And, Eventually, Not, Or, Predicate

    if isinstance(phi, Predicate):
        return len(phi.box.conjuncts)
    if isinstance(phi, (Always, Eventually)):
        return (phi.end - phi.start + 1) * window_cells(phi.child)
    if isinstance(phi, Not):
        return window_cells(phi.child)
    if isinstance(phi, (And, Or)):
        return sum(window_cells(child) for child in phi.children)
    return 0


def _count_splits(node) -> int:
    from stlboost.tree import Split

    if not isinstance(node, Split):
        return 0
    return 1 + _count_splits(node.left) + _count_splits(node.right)


class Tracer:
    """Span recorder and per-layer accumulator; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, folded calls or None]
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)  # inclusive time per name
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = defaultdict(int)
        self.build_tree_self_s = 0.0  # tree-layer self time inside build_tree
        self._stack: list[list] = []  # open frames: [layer, start, child seconds, span index]
        self._folded: dict | None = None  # folded calls of the open search, if any
        self._in_build = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs=None, search=False):
        stack = self._stack
        folded_outer = self._folded
        start = perf_counter()
        if folded_outer is None:
            span = len(self.spans)
            parent = stack[-1][3] if stack else -1
            self.spans.append([name, start, start, parent, {} if search else None])
            if search:
                self._folded = self.spans[span][4]
        else:
            span = None
        frame = [layer, start, 0.0, span]
        stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self._folded = folded_outer
            total = end - start
            own = total - frame[2]
            self.self_s[layer] += own
            if layer == "tree" and self._in_build:
                self.build_tree_self_s += own
            if stack:
                stack[-1][2] += total
            self.calls[name] += 1
            self.seconds[name] += total
            if span is None:
                entry = folded_outer.get(name)
                if entry is None:
                    folded_outer[name] = [1, total]
                else:
                    entry[0] += 1
                    entry[1] += total
            else:
                self.spans[span][2] = end

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, layer, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, layer, original, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, traced)

    def install(self) -> None:
        import stlboost.boosting as boosting
        import stlboost.cli as cli
        import stlboost.impurity as impurity
        import stlboost.tree as tree
        from stlboost.templates import PstlTemplate

        counts = self.counts

        def rho_after(result, args):
            phi, values = args[0], args[1]
            counts["formula.window_cells"] += len(values) * window_cells(phi)
            if self._in_build and self._folded is None:
                counts["tree.path_evals"] += 1

        def rows_after(dataset, args):
            counts["data.rows"] += dataset.values.shape[0] * dataset.values.shape[2]

        def merge_after(template, args):
            if template is not None:
                counts["tree.merge_attempts"] += 1

        def kept_after(model, args):
            counts["boosting.rounds_kept"] += len(model.rounds)

        self._wrap(cli, "main", "cli.main", "cli")
        for name in ("load_csv", "stratified_folds"):
            self._wrap(cli, name, f"data.{name}", "data",
                       after=rows_after if name == "load_csv" else None)
        self._wrap(cli, "train_boosted", "boosting.train_boosted", "boosting", after=kept_after)
        for module in (cli, boosting):
            self._wrap(module, "predict_all", "boosting.predict", "boosting")
            self._wrap(module, "format_formula", "grammar.format", "grammar")
            self._wrap(module, "parse_formula", "grammar.parse", "grammar")
        for name in ("ensemble_mcr", "model_formula", "model_to_dict", "model_from_dict"):
            self._wrap(cli, name, f"boosting.{name}", "boosting")
        for module in (cli, tree, impurity):
            self._wrap(module, "robustness_all", "formula.robustness_all", "formula",
                       after=rho_after)
        for module in (boosting, tree):
            self._wrap(module, "operator_count", "formula.operator_count", "formula")
        self._wrap(boosting, "classify_all", "tree.classify_all", "tree")
        self._wrap(boosting, "tree_to_formula", "tree.tree_to_formula", "tree")
        self._wrap(tree, "optimize_primitive", "tree.optimize_primitive", "tree")
        self._wrap(tree, "combine_primitives", "tree.combine_primitives", "tree",
                   after=merge_after)
        self._wrap(tree, "first_order_templates", "templates.first_order_templates", "templates")
        self._wrap(PstlTemplate, "instantiate", "templates.instantiate", "templates")
        self._wrap(PstlTemplate, "bound_to", "templates.bound_to", "templates")
        for name in ("gain_from_robustness", "misclassification_gain"):
            self._wrap(tree, name, "impurity.gain", "impurity")
        self._wrap(tree, "partition", "impurity.partition", "impurity")
        self._wrap(tree, "robustness_margin", "impurity.robustness_margin", "impurity")
        self._wrap(tree, "best_leaf_label", "impurity.best_leaf_label", "impurity")
        self._patch(boosting, "build_tree", self._traced_build_tree(boosting.build_tree))
        self._patch(tree, "optimize", self._traced_optimize(tree.optimize))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _traced_build_tree(self, build_tree):
        tracer = self

        def traced(*args, **kwargs):
            tracer._in_build += 1
            try:
                root, log = tracer.call("tree.build_tree", "tree", build_tree, args, kwargs)
            finally:
                tracer._in_build -= 1
            tracer.counts["tree.splits"] += _count_splits(root)
            tracer.counts["tree.merges_accepted"] += log.count
            return root, log

        return traced

    def _traced_optimize(self, optimize):
        """One swarm search: a span of its own, with its objective and
        tie-break calls folded under it."""
        tracer = self

        def traced(template, objective, config, tie_break=None):
            best = [-math.inf]

            def traced_objective(valuation):
                value = tracer.call("pso.objective", "tree", objective, (valuation,))
                if value > best[0]:
                    best[0] = value
                    tracer.counts["pso.improving_calls"] += 1
                return value

            traced_tie = None
            if tie_break is not None:
                def traced_tie(valuation):
                    return tracer.call("pso.tie_break", "tree", tie_break, (valuation,))

            return tracer.call(
                "pso.search", "pso", optimize,
                (template, traced_objective, config), {"tie_break": traced_tie},
                search=True,
            )

        return traced

    # -- results -------------------------------------------------------------

    def job_seconds(self) -> float:
        """Wall time of the traced commands: the sum of the root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent == -1)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as name -> (value, unit)."""
        calls, seconds, counts, self_s = self.calls, self.seconds, self.counts, self.self_s

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        objective_calls = calls["pso.objective"]
        search_s = seconds["pso.search"]
        out = {
            "formula.robustness_all.calls": (calls["formula.robustness_all"], "count"),
            "formula.robustness_all.s": (seconds["formula.robustness_all"], "s"),
            "formula.window_cells": (counts["formula.window_cells"], "count"),
            "pso.searches": (calls["pso.search"], "count"),
            "pso.objective_calls": (objective_calls, "count"),
            "pso.tie_break_calls": (calls["pso.tie_break"], "count"),
            "pso.objective_s": (seconds["pso.objective"], "s"),
            "pso.search_s": (search_s, "s"),
            "pso.us_per_objective": (1e6 * ratio(seconds["pso.objective"], objective_calls), "us"),
            "pso.improving_ratio": (ratio(counts["pso.improving_calls"], objective_calls), "ratio"),
            "templates.instantiate.calls": (calls["templates.instantiate"], "count"),
            "templates.instantiate.s": (seconds["templates.instantiate"], "s"),
            "impurity.gain.calls": (calls["impurity.gain"], "count"),
            "impurity.gain.s": (seconds["impurity.gain"], "s"),
            "impurity.partition.calls": (calls["impurity.partition"], "count"),
            "impurity.partition.s": (seconds["impurity.partition"], "s"),
            "tree.build_tree.self_s": (self.build_tree_self_s, "s"),
            "tree.node_searches": (calls["tree.optimize_primitive"], "count"),
            "tree.splits": (counts["tree.splits"], "count"),
            "tree.merge_attempts": (counts["tree.merge_attempts"], "count"),
            "tree.merges_accepted": (counts["tree.merges_accepted"], "count"),
            "tree.merge_accept_ratio": (
                ratio(counts["tree.merges_accepted"], counts["tree.merge_attempts"]), "ratio"),
            "tree.path_evals": (counts["tree.path_evals"], "count"),
            "boosting.build_attempts": (calls["tree.build_tree"], "count"),
            "boosting.rounds_kept": (counts["boosting.rounds_kept"], "count"),
            "boosting.kept_ratio": (
                ratio(counts["boosting.rounds_kept"], calls["tree.build_tree"]), "ratio"),
            "boosting.predict.s": (seconds["boosting.predict"], "s"),
            "data.load_csv.s": (seconds["data.load_csv"], "s"),
            "data.rows": (counts["data.rows"], "count"),
            "grammar.parse.s": (seconds["grammar.parse"], "s"),
            "grammar.format.s": (seconds["grammar.format"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        return out


def deterministic(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The metrics that must repeat exactly at a fixed seed: counts and the
    ratios of counts."""
    return {name: value for name, (value, unit) in metrics.items() if unit in ("count", "ratio")}
