"""Property-based cross-engine equivalence (the core correctness claim).

Section 2.2: all n! orders track the exact same pattern; Section 2.3:
the tree engine detects the same matches as the NFA.  We generate random
patterns and random streams with hypothesis and assert that every order
plan, every bushy tree plan, and the brute-force reference oracle agree
on the exact set of matches.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import NFAEngine, build_runtime, reference_match_keys
from repro.events import Event, Stream
from repro.patterns import decompose, parse_pattern
from repro.plans import enumerate_bushy_trees, enumerate_orders


@st.composite
def stream_strategy(draw, types="ABC", max_events=35):
    count = draw(st.integers(min_value=5, max_value=max_events))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    events, t = [], 0.0
    for _ in range(count):
        t += rng.uniform(0.05, 0.8)
        events.append(
            Event(rng.choice(types), t, {"x": rng.randrange(3)})
        )
    return Stream(events)


PATTERNS = [
    "PATTERN SEQ(A a, B b, C c) WHERE a.x = c.x WITHIN 4",
    "PATTERN AND(A a, B b, C c) WHERE a.x < b.x WITHIN 3",
    "PATTERN SEQ(A a, B b, C c) WITHIN 2",
    "PATTERN AND(A a, B b) WHERE a.x = b.x WITHIN 6",
    "PATTERN SEQ(A a, NOT(B b), C c) WHERE b.x = a.x WITHIN 4",
    "PATTERN SEQ(A a, C c, NOT(B b)) WITHIN 3",
    "PATTERN AND(A a, NOT(B b), C c) WITHIN 3",
    # Leading NOT: the forbidden range starts at max_ts − W of the
    # *complete* match, so the check must defer to completion.
    "PATTERN SEQ(NOT(B b), A a, C c) WITHIN 4",
]


@settings(max_examples=15, deadline=None)
@given(stream=stream_strategy(), pattern_index=st.integers(0, len(PATTERNS) - 1))
def test_all_plans_agree_with_reference(stream, pattern_index):
    pattern = parse_pattern(PATTERNS[pattern_index])
    d = decompose(pattern)
    expected = reference_match_keys(d, stream)
    for order in enumerate_orders(d.positive_variables):
        got = {m.key() for m in NFAEngine(d, order).run(stream)}
        assert got == expected, f"NFA {order} disagrees"
    for tree in enumerate_bushy_trees(d.positive_variables):
        got = {m.key() for m in build_runtime(d, tree).run(stream)}
        assert got == expected, f"Tree {tree} disagrees"


@settings(max_examples=10, deadline=None)
@given(stream=stream_strategy(max_events=25))
def test_kleene_plans_agree_with_reference(stream):
    pattern = parse_pattern(
        "PATTERN SEQ(A a, KL(B b), C c) WHERE a.x = c.x WITHIN 4"
    )
    d = decompose(pattern)
    expected = reference_match_keys(d, stream, max_kleene_size=3)
    for order in enumerate_orders(d.positive_variables):
        engine = NFAEngine(d, order, max_kleene_size=3)
        got = {m.key() for m in engine.run(stream)}
        assert got == expected, f"NFA {order} disagrees"
    for tree in enumerate_bushy_trees(d.positive_variables):
        engine = build_runtime(d, tree, max_kleene_size=3)
        got = {m.key() for m in engine.run(stream)}
        assert got == expected, f"Tree {tree} disagrees"


@settings(max_examples=12, deadline=None)
@given(stream=stream_strategy(types="ABCD", max_events=30))
def test_four_variable_pattern_equivalence(stream):
    pattern = parse_pattern(
        "PATTERN SEQ(A a, B b, C c, D d) WHERE a.x = d.x AND b.x < c.x "
        "WITHIN 3"
    )
    d = decompose(pattern)
    expected = reference_match_keys(d, stream)
    # Sample a few orders and trees rather than all 24 + 15 for speed.
    orders = list(enumerate_orders(d.positive_variables))[::5]
    trees = list(enumerate_bushy_trees(d.positive_variables))[::4]
    for order in orders:
        got = {m.key() for m in NFAEngine(d, order).run(stream)}
        assert got == expected
    for tree in trees:
        got = {m.key() for m in build_runtime(d, tree).run(stream)}
        assert got == expected


@settings(max_examples=10, deadline=None)
@given(stream=stream_strategy(types="AB", max_events=40))
def test_next_match_no_event_reuse_any_plan(stream):
    pattern = parse_pattern("PATTERN SEQ(A a, B b) WITHIN 4")
    d = decompose(pattern)
    for order in enumerate_orders(d.positive_variables):
        matches = NFAEngine(d, order, selection="next").run(stream)
        seqs = [
            seq
            for match in matches
            for seq in (match["a"].seq, match["b"].seq)
        ]
        assert len(seqs) == len(set(seqs))
        for match in matches:
            assert match["a"].timestamp < match["b"].timestamp
