"""stlboost: compact temporal-logic classifiers for labeled time series.

The library learns formulas in a bounded-future temporal logic (always /
eventually over box predicates) from labeled multivariate signals, using
boosted decision trees whose split primitives are re-optimized and merged
for brevity, and it can monitor any such formula over new signals via the
robustness degree.
"""

from .boosting import (
    BoostedModel,
    TreeRound,
    ensemble_mcr,
    load_model,
    model_formula,
    model_from_dict,
    model_to_dict,
    predict,
    predict_all,
    save_model,
    select_pruned_tree,
    train_boosted,
    tree_weight,
)
from .data import (
    FoldPlan,
    LabeledDataset,
    NEG_LABEL,
    POS_LABEL,
    SchemaError,
    TooFewSamplesError,
    load_csv,
    mcr,
    save_csv,
    stratified_folds,
    uniform_weights,
)
from .formula import (
    And,
    Always,
    BooleanConst,
    BoxPredicate,
    Conjunct,
    Eventually,
    FALSE,
    Formula,
    GT,
    LE,
    Not,
    Or,
    OutOfHorizonError,
    Predicate,
    Signal,
    TRUE,
    UnvaluedParameterError,
    VariableOutOfRangeError,
    operator_count,
    robustness,
    robustness_all,
    satisfies,
)
from .grammar import ParseError, SemanticError, format_formula, parse_formula
from .impurity import (
    PartitionScore,
    PartitionScores,
    best_leaf_label,
    gain_from_robustness,
    gains_from_robustness,
    misclassification_gain,
    partition,
)
from .pso import EmptyParameterSpaceError, PsoConfig, optimize, optimize_batch
from .scenarios import NavalConfig, UrbanConfig, generate_naval, generate_urban
from .templates import PstlTemplate, ThresholdRangeError, Valuation, first_order_templates
from .tree import (
    EmptyPrimitiveSetError,
    Leaf,
    NotAPrimitiveError,
    Split,
    TreeConfig,
    build_tree,
    classify,
    classify_all,
    combine_primitives,
    optimize_primitive,
    tree_depth,
    tree_to_formula,
)

__version__ = "0.1.0"
