"""Plan-generation algorithms: CEP-native and JQPG-adapted."""

from .annealing import SimulatedAnnealingOrder
from .base import PlanGenerator, default_cost_model
from .dynamic_programming import DPBushy, DPLeftDeep
from .greedy import GreedyOrder
from .iterative_improvement import (
    IterativeImprovementGreedy,
    IterativeImprovementRandom,
)
from .kbz import KBZOrder
from .native import EventFrequencyOrder, TrivialOrder
from .planner import (
    SELECTION_STRATEGIES,
    PlannedPattern,
    plan_pattern,
    resolve_cost_model,
    total_cost,
)
from .registry import (
    CPG_NATIVE_ALGORITHMS,
    EXTENSION_ALGORITHMS,
    JQPG_ALGORITHMS,
    ORDER_ALGORITHMS,
    TREE_ALGORITHMS,
    algorithm_kind,
    available_algorithms,
    make_optimizer,
)
from .zstream import ZStreamOrderedTree, ZStreamTree, best_tree_for_leaf_order

__all__ = [
    "SimulatedAnnealingOrder",
    "PlanGenerator",
    "default_cost_model",
    "DPBushy",
    "DPLeftDeep",
    "GreedyOrder",
    "IterativeImprovementGreedy",
    "IterativeImprovementRandom",
    "KBZOrder",
    "EventFrequencyOrder",
    "TrivialOrder",
    "SELECTION_STRATEGIES",
    "PlannedPattern",
    "plan_pattern",
    "resolve_cost_model",
    "total_cost",
    "CPG_NATIVE_ALGORITHMS",
    "EXTENSION_ALGORITHMS",
    "JQPG_ALGORITHMS",
    "ORDER_ALGORITHMS",
    "TREE_ALGORITHMS",
    "algorithm_kind",
    "available_algorithms",
    "make_optimizer",
    "ZStreamOrderedTree",
    "ZStreamTree",
    "best_tree_for_leaf_order",
]
