"""The breadth-first explorer and the observation columns of a chain, on
synthetic successor functions and hand-written chains."""

from __future__ import annotations

import pytest

from chorprism import MarkovChain, StateBudgetExceeded
from chorprism.chain import explore


def line(n):
    """Successors of a path 0 -> 1 -> ... -> n-1 that stops at n-1."""
    return lambda k: [(k + 1, 1.0)] if k < n - 1 else []


def test_exactly_the_budget_passes_and_one_state_more_raises():
    keys, edges = explore(0, line(10), 10)
    assert keys == list(range(10))
    assert edges == [{k + 1: 1.0} for k in range(9)] + [{}]
    with pytest.raises(StateBudgetExceeded, match="budget of 9 states"):
        explore(0, line(10), 9)
    with pytest.raises(StateBudgetExceeded):
        explore(0, line(10), 0)
    assert explore("only", lambda k: [], 1) == (["only"], [{}])


def test_states_are_numbered_in_first_reached_order():
    graph = {"a": ["c", "b", "c"], "b": ["d", "a"], "c": ["b", "e"], "d": [], "e": ["d"]}
    keys, edges = explore("a", lambda k: [(s, 1.0) for s in graph[k]], 5)
    assert keys == ["a", "c", "b", "e", "d"]
    assert edges == [{1: 2.0, 2: 1.0}, {2: 1.0, 3: 1.0}, {4: 1.0, 0: 1.0}, {4: 1.0}, {}]
    assert [list(row) for row in edges] == [[1, 2], [2, 3], [4, 0], [4], []]


def test_moves_into_one_state_add_up_in_the_order_they_are_yielded():
    keys, edges = explore(0, lambda k: [(1, 0.1), (1, 0.2), (1, 0.3)] if k == 0 else [], 2)
    assert edges[0][1] == (0.1 + 0.2) + 0.3
    assert edges[0][1] != 0.1 + (0.2 + 0.3)
    # a self-loop merges with the state's other moves into itself
    keys, edges = explore(0, lambda k: [(0, 0.5), (1, 0.25), (0, 0.25)] if k == 0 else [], 2)
    assert edges[0] == {0: 0.75, 1: 0.25}


def test_a_row_holds_the_weight_object_its_move_yielded():
    # fresh float objects, so that identity shows a row stored them as they are
    w, v = float("0.3"), float("0.7")
    keys, edges = explore(0, lambda k: [(1, w), (2, v), (1, v)] if k == 0 else [], 3)
    assert edges[0][1] == w + v
    assert edges[0][2] is v


def chain(states):
    return MarkovChain("ctmc", ("x", "y", "z"), states, 0, [{} for _ in states])


def test_observations_with_no_names_one_name_and_reversed_names():
    c = chain([(0, 1, True), (2, 3, False), (0, 1, False)])
    assert c.observations(()) == [(), (), ()]
    assert c.observations(("y",)) == [(1,), (3,), (1,)]
    assert c.observations(("y", "x")) == [(1, 0), (3, 2), (1, 0)]
    assert c.observations(("z", "x", "z")) == [
        (True, 0, True), (False, 2, False), (False, 0, False)
    ]
    for names in ((), ("y",), ("y", "x")):
        assert c.observations(names) == [c.observation(s, names) for s in range(c.num_states)]
    assert chain([]).observations(("x",)) == [] and chain([]).observations(()) == []
    with pytest.raises(ValueError):
        c.observations(("nope",))


def test_equal_observations_are_one_object():
    c = chain([(0, 1, True), (2, 3, False), (0, 1, False), (0, 1, True)])
    obs = c.observations(("x", "y"))
    assert obs == [(0, 1), (2, 3), (0, 1), (0, 1)]
    assert obs[0] is obs[2] is obs[3]
    assert obs[1] is not obs[0]
