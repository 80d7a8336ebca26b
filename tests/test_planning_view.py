"""The planning view: the one pricing path under every optimizer.

* the view's prices equal the documented string/``frozenset`` primitives
  for every built-in model and for the generic adapter;
* DP-LD / DP-B rewritten over bitmasks still return the exhaustive
  optimum, with and without cross products, and break ties by
  declaration index;
* a model that overrides a primitive gets plans priced by its override;
* set-keyed prices, and so plans, do not depend on ``PYTHONHASHSEED``;
* the heuristic orders on fig17's 22-way instance are the recorded ones.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    CostModel,
    HybridCostModel,
    LatencyCostModel,
    NextMatchCostModel,
    ThroughputCostModel,
)
from repro.cost.base import DenseView, PlanningView
from repro.optimizers import make_optimizer
from repro.patterns import decompose, parse_pattern
from repro.plans import TreePlan, enumerate_bushy_trees, enumerate_orders
from repro.stats import PatternStatistics

SRC = str(Path(__file__).resolve().parent.parent / "src")


def conjunction(size, rng, density=0.4, edges=None):
    """fig17's ``_problem``: a ``size``-way AND with random statistics
    (``edges`` fixes the query graph as index pairs)."""
    spec = ", ".join(f"T{i} v{i}" for i in range(size))
    d = decompose(
        parse_pattern(f"PATTERN {f'AND({spec})' if size > 1 else spec} WITHIN 5")
    )
    variables = d.positive_variables
    rates = {v: rng.uniform(0.2, 5.0) for v in variables}
    selectivities = {}
    for i, first in enumerate(variables):
        for j in range(i + 1, size):
            if rng.random() < density if edges is None else (i, j) in edges:
                selectivities[frozenset((first, variables[j]))] = rng.uniform(
                    0.02, 0.9
                )
    return d, PatternStatistics(variables, 5.0, rates, selectivities)


def fig17_problem(size):
    return conjunction(size, random.Random((5, size).__repr__()))


class Relayed(ThroughputCostModel):
    """Overrides a primitive without changing it: gets the generic view."""

    def leaf_cost(self, variable, stats):
        return super().leaf_cost(variable, stats)


def models(last):
    return {
        "throughput": ThroughputCostModel(),
        "next": NextMatchCostModel(),
        "latency": LatencyCostModel(last),
        "hybrid-0.5": HybridCostModel(0.5, last),
        "hybrid-1": HybridCostModel(1.0, last),
        "hybrid-next": HybridCostModel(
            1.0, last, throughput=NextMatchCostModel()
        ),
        "generic": Relayed(),
    }


MODEL_NAMES = tuple(models("v0"))


# -- (b) view == primitives ---------------------------------------------------

class TestViewMatchesPrimitives:
    def test_built_in_models_get_dense_views_and_subclasses_do_not(self):
        d, stats = fig17_problem(4)
        for name, model in models("v3").items():
            view = model.planning_view(d.positive_variables, stats)
            if name == "generic":
                assert type(view) is PlanningView
            elif name.startswith("hybrid"):
                assert isinstance(view.throughput, DenseView)
                assert isinstance(view.latency, DenseView)
            else:
                assert isinstance(view, DenseView)

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 7),
        seed=st.integers(0, 10_000),
        model_name=st.sampled_from(MODEL_NAMES),
        data=st.data(),
    )
    def test_prices_equal_the_primitives(self, size, seed, model_name, data):
        rng = random.Random(seed)
        d, stats = conjunction(size, rng, density=rng.choice((0.0, 0.4, 1.0)))
        variables = d.positive_variables
        model = models(variables[rng.randrange(size)])[model_name]
        view = model.planning_view(variables, stats)
        close = lambda value: pytest.approx(value, rel=1e-12, abs=0.0)

        i = data.draw(st.integers(0, size - 1))
        assert view.leaf(i) == close(model.leaf_cost(variables[i], stats))
        mask = data.draw(st.integers(0, (1 << size) - 1)) & ~(1 << i)
        assert view.step(mask, i) == close(
            model.order_step_cost(view.names(mask), variables[i], stats)
        )
        if size >= 2:
            union = data.draw(st.integers(1, (1 << size) - 1))
            left = union & data.draw(st.integers(0, (1 << size) - 1))
            right = union ^ left
            if left and right:
                assert view.combine(left, right) == close(
                    model.combine_cost(
                        view.names(left), view.names(right), stats
                    )
                )
        order = data.draw(st.permutations(range(size)))
        names = [variables[k] for k in order]
        assert view.order_cost(order) == close(model.order_cost(names, stats))

        # Resuming from any shared prefix is the full evaluation, bit for bit.
        trail = view.order_trail(order)
        other = list(order)
        start = data.draw(st.integers(0, size - 1))
        tail = other[start:]
        rng.shuffle(tail)
        other[start:] = tail
        assert view.order_trail(other, trail, start)[-1][0] == (
            view.order_cost(other)
        )

    def test_order_evaluation_keeps_left_to_right_arithmetic(self):
        # II / SA / KBZ compare these sums: equal to the last bit, not
        # merely close, to the documented order_cost.
        d, stats = fig17_problem(12)
        variables = d.positive_variables
        rng = random.Random(3)
        for model in (ThroughputCostModel(), NextMatchCostModel()):
            view = model.planning_view(variables, stats)
            for _ in range(20):
                order = list(range(12))
                rng.shuffle(order)
                assert view.order_cost(order) == model.order_cost(
                    [variables[i] for i in order], stats
                )

    def test_set_prices_ignore_the_order_sets_are_built_in(self):
        d, stats = fig17_problem(12)
        names = list(d.positive_variables)
        model = ThroughputCostModel()
        price = model.combine_cost(
            frozenset(names[:5]), frozenset(names[5:]), stats
        )
        rng = random.Random(1)
        for _ in range(10):
            rng.shuffle(names)
            left = frozenset(n for n in names if n in d.positive_variables[:5])
            right = frozenset(names) - left
            assert model.combine_cost(left, right, stats) == price
            assert model.combine_cost(right, left, stats) == price


# -- (a) DP == exhaustive optimum ----------------------------------------------

def is_connected(names, stats):
    names = list(names)
    seen, frontier = {names[0]}, [names[0]]
    while frontier:
        node = frontier.pop()
        for other in names:
            if other not in seen and stats.selectivity(node, other) < 1.0:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(names)


def order_avoids_cross_products(order, stats):
    """Every connected prefix was built by extending a connected prefix
    (a disconnected prefix cannot avoid a cross product: anything goes)."""
    return all(
        is_connected(order[:k - 1], stats)
        for k in range(2, len(order) + 1)
        if is_connected(order[:k], stats)
    )


def tree_avoids_cross_products(plan, stats):
    return all(
        is_connected(node.left.leaf_variables, stats)
        and is_connected(node.right.leaf_variables, stats)
        for node in plan.root.internal_nodes()
        if is_connected(node.leaf_variables, stats)
    )


#: size, query graph (None: random at density 0.5).
GRAPHS = {
    "n1": (1, None),
    "n2": (2, None),
    "n2-no-predicate": (2, set()),
    "n4": (4, None),
    "n5": (5, None),
    "n6": (6, None),
    "n5-chain": (5, {(0, 1), (1, 2), (2, 3), (3, 4)}),
    "n5-two-components": (5, {(0, 1), (1, 2), (3, 4)}),
    "n6-star-plus-isolated": (6, {(0, 1), (0, 2), (0, 3), (0, 4)}),
}


class TestDynamicProgrammingIsExhaustive:
    @pytest.mark.parametrize("allow_cartesian", (True, False))
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @pytest.mark.parametrize("graph", GRAPHS)
    def test_dp_equals_brute_force(self, graph, model_name, allow_cartesian):
        size, edges = GRAPHS[graph]
        rng = random.Random(f"{graph}/{model_name}")
        d, stats = conjunction(size, rng, density=0.5, edges=edges)
        variables = d.positive_variables
        model = models(variables[rng.randrange(size)])[model_name]

        orders = [o.variables for o in enumerate_orders(variables)]
        trees = list(enumerate_bushy_trees(variables))
        if not allow_cartesian:
            orders = [o for o in orders if order_avoids_cross_products(o, stats)]
            trees = [t for t in trees if tree_avoids_cross_products(t, stats)]
        assert orders and trees

        order = make_optimizer(
            "DP-LD", allow_cartesian=allow_cartesian
        ).generate(d, stats, model)
        assert sorted(order.variables) == sorted(variables)
        assert model.order_cost(order.variables, stats) == pytest.approx(
            min(model.order_cost(o, stats) for o in orders), rel=1e-9
        )
        tree = make_optimizer(
            "DP-B", allow_cartesian=allow_cartesian
        ).generate(d, stats, model)
        assert sorted(tree.leaf_order) == sorted(variables)
        assert model.tree_cost(tree, stats) == pytest.approx(
            min(model.tree_cost(t, stats) for t in trees), rel=1e-9
        )
        if not allow_cartesian:
            assert order_avoids_cross_products(order.variables, stats)
            assert tree_avoids_cross_products(tree, stats)

    @pytest.mark.parametrize("operator", ("AND", "SEQ"))
    def test_ties_break_by_declaration_index(self, operator):
        # Equal rates, no predicates: DP-LD places the lowest-index
        # variable last on every tie, and DP-B keeps the split whose
        # right half has the largest bitmask.
        d = decompose(
            parse_pattern(f"PATTERN {operator}(A a, B b, C c, D d) WITHIN 5")
        )
        variables = d.positive_variables
        stats = PatternStatistics(
            variables, 5.0, {v: 1.0 for v in variables}, {}
        )
        model = ThroughputCostModel()
        order = make_optimizer("DP-LD").generate(d, stats, model)
        assert order.variables == ("d", "c", "b", "a")
        tree = make_optimizer("DP-B").generate(d, stats, model)
        assert repr(tree) == "TreePlan(((a ⋈ b) ⋈ (c ⋈ d)))"


# -- overrides are honoured ------------------------------------------------------

class Penalised(ThroughputCostModel):
    """Throughput, except that ``v2`` — first in every plain plan of the
    6-way instance — must come last in an order and join at the root of
    a tree."""

    PENALTY = 1e15

    def order_step_cost(self, prefix, variable, stats):
        price = super().order_step_cost(prefix, variable, stats)
        early = variable == "v2" and len(prefix) + 1 < len(stats.variables)
        return price + (self.PENALTY if early else 0.0)

    order_cost = CostModel.order_cost  # the sum of the penalised steps

    def combine_cost(self, left, right, stats):
        price = super().combine_cost(left, right, stats)
        buried = ("v2" in left and len(left) > 1) or (
            "v2" in right and len(right) > 1
        )
        return price + (self.PENALTY if buried else 0.0)


class TestOverridesAreHonoured:
    @pytest.mark.parametrize(
        "algorithm",
        ("GREEDY", "DP-LD", "II-RANDOM", "II-GREEDY", "SA", "KBZ"),
    )
    def test_order_planners_price_through_the_override(self, algorithm):
        d, stats = fig17_problem(6)
        plain = make_optimizer(algorithm).generate(
            d, stats, ThroughputCostModel()
        )
        assert plain.variables[0] == "v2"
        plan = make_optimizer(algorithm).generate(d, stats, Penalised())
        assert plan.variables[-1] == "v2"

    @pytest.mark.parametrize("algorithm", ("DP-B", "ZSTREAM-ORD"))
    def test_tree_planners_price_through_the_override(self, algorithm):
        d, stats = fig17_problem(6)
        model = Penalised()
        plain = make_optimizer(algorithm).generate(
            d, stats, ThroughputCostModel()
        )
        assert model.tree_cost(plain, stats) > Penalised.PENALTY
        plan = make_optimizer(algorithm).generate(d, stats, model)
        assert "v2" in (plan.root.left.variable, plan.root.right.variable)
        assert model.tree_cost(plan, stats) < Penalised.PENALTY

    def test_dp_b_is_optimal_under_the_override(self):
        d, stats = fig17_problem(5)
        model = Penalised()
        plan = make_optimizer("DP-B").generate(d, stats, model)
        best = min(
            model.tree_cost(t, stats)
            for t in enumerate_bushy_trees(d.positive_variables)
        )
        assert model.tree_cost(plan, stats) == pytest.approx(best)

    @pytest.mark.parametrize("algorithm", ("DP-LD", "DP-B"))
    def test_dp_still_returns_a_plan_when_no_price_is_finite(self, algorithm):
        class Forbidding(ThroughputCostModel):
            def order_step_cost(self, prefix, variable, stats):
                return float("inf")

            def combine_cost(self, left, right, stats):
                return float("inf")

        d, stats = fig17_problem(4)
        plan = make_optimizer(algorithm).generate(d, stats, Forbidding())
        names = getattr(plan, "leaf_order", None) or plan.variables
        assert sorted(names) == sorted(d.positive_variables)

    def test_counting_subclass_sees_every_call(self):
        # The ledger's traced pass counts planner calls into repro.cost
        # through a ThroughputCostModel subclass.
        calls = []

        class Counting(ThroughputCostModel):
            def combine_cost(self, left, right, stats):
                calls.append((left, right))
                return super().combine_cost(left, right, stats)

        d, stats = fig17_problem(5)
        make_optimizer("DP-B").generate(d, stats, Counting())
        assert len(calls) == (3 ** 5 - 2 ** 6 + 1) // 2  # every split of every set


# -- hash-seed independence ---------------------------------------------------------

PLAN_SCRIPT = """
import json, random, sys
sys.path.insert(0, {tests!r})
from test_planning_view import fig17_problem
from repro.cost import ThroughputCostModel
from repro.optimizers import make_optimizer
model = ThroughputCostModel()
d, stats = fig17_problem(9)
out = {{}}
for algorithm in ("DP-LD", "DP-B", "GREEDY", "ZSTREAM-ORD"):
    generator = make_optimizer(algorithm)
    plan = generator.generate(d, stats, model)
    names = list(d.positive_variables)
    halves = frozenset(names[:4]), frozenset(names[4:])
    out[algorithm] = [
        repr(plan),
        repr(generator.plan_cost(plan, stats, model)),
        repr(model.combine_cost(*halves, stats)),
        repr(model.order_step_cost(halves[1], names[0], stats)),
    ]
print(json.dumps(out))
"""


def test_plans_and_costs_do_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        script = PLAN_SCRIPT.format(tests=str(Path(__file__).parent))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]


# -- (c) golden orders ------------------------------------------------------------------

#: Orders returned at the commit before the planning view existed, on
#: fig17's 22-way instance 5 (the ledger's ``plan_large`` heuristic rows).
GOLDEN = {
    "II-RANDOM": "18 8 10 9 16 2 21 13 17 7 6 12 15 1 0 3 5 20 4 19 14 11",
    "II-GREEDY": "9 2 21 13 17 7 19 11 0 16 3 8 18 10 1 6 15 12 4 14 20 5",
    "SA": "9 2 17 21 13 7 19 10 5 18 8 6 16 3 12 11 4 15 0 1 14 20",
    "GREEDY": "9 2 0 17 21 13 7 19 11 16 3 8 18 10 1 6 15 12 4 14 20 5",
    "KBZ": "9 2 0 17 21 13 7 19 11 16 3 8 18 10 1 6 15 12 4 14 20 5",
}


@pytest.mark.parametrize("algorithm", GOLDEN)
def test_heuristic_orders_on_the_22_way_instance_are_unchanged(algorithm):
    d, stats = fig17_problem(22)
    plan = make_optimizer(algorithm).generate(d, stats, ThroughputCostModel())
    assert " ".join(v[1:] for v in plan.variables) == GOLDEN[algorithm]


def test_tree_cost_of_a_left_deep_tree_is_the_sum_over_its_nodes():
    d, stats = fig17_problem(6)
    names = d.positive_variables
    model = ThroughputCostModel()
    expected = sum(model.leaf_cost(v, stats) for v in names) + sum(
        model.combine_cost(frozenset(names[:k]), frozenset((names[k],)), stats)
        for k in range(1, 6)
    )
    assert model.tree_cost(TreePlan.left_deep(names), stats) == pytest.approx(
        expected
    )
