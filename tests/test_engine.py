"""Unit propagation engine, closure semantics, and the SAT oracle."""

import random

import pytest

from bdmc.engine import (
    PropEngine,
    all_scope_models,
    brute_sat,
    unit_propagate,
)
from bdmc.errors import InputError

from oracles import unit_closure


def test_up_single_step():
    res = unit_propagate([(1, 2)], 2, [-1])
    assert not res.conflict
    assert res.literals == frozenset({-1, 2})


def test_up_conflict_two_units():
    res = unit_propagate([(1,), (-1,)], 1)
    assert res.conflict
    assert res.literals is None


def test_up_two_step_chain():
    res = unit_propagate([(-1, 2), (-2, 3)], 3, [1])
    assert res.literals == frozenset({1, 2, 3})


def test_up_propagates_formula_units():
    # the formula's own unit clause must fire without any seed
    res = unit_propagate([(1,), (-1, 2)], 2)
    assert res.literals == frozenset({1, 2})


def test_up_rejects_complementary_seed():
    with pytest.raises(InputError):
        unit_propagate([(1, 2)], 2, [1, -1])


def test_up_monotone_in_alpha():
    rng = random.Random(3)
    for _ in range(200):
        nv = rng.randint(1, 6)
        cls = [
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 8))
        ]
        vars_ = rng.sample(range(1, nv + 1), rng.randint(0, nv))
        alpha = [v if rng.random() < 0.5 else -v for v in vars_]
        sub = alpha[: rng.randint(0, len(alpha))]
        small = unit_propagate(cls, nv, sub)
        big = unit_propagate(cls, nv, alpha)
        if not small.conflict and not big.conflict:
            assert small.literals <= big.literals
        if small.conflict:
            assert big.conflict


def test_up_trace():
    res = unit_propagate([(-1, 2)], 2, [1], record_trace=True)
    assert res.trace == ((1, -1), (2, 0))


def test_closure_derives_clause_literal_despite_complement():
    # phi = {x}, {-x}: both units derivable, and bot via their resolution
    units, bot = unit_closure([(1,), (-1,)])
    assert units == frozenset({1, -1})
    assert bot


def test_closure_empty_clause():
    units, bot = unit_closure([()], [])
    assert bot


def test_closure_matches_engine_without_conflict():
    rng = random.Random(9)
    for _ in range(300):
        nv = rng.randint(1, 5)
        cls = [
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 8))
        ]
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        units, bot = unit_closure(cls, alpha)
        up = unit_propagate(cls, nv, alpha)
        assert up.conflict == bot
        if not up.conflict:
            assert up.literals == units


def test_brute_sat_model_and_unsat():
    model = brute_sat([(1, 2)], 2, [-1])
    assert model == (-1, 2)
    assert brute_sat([(1,), (-1,)], 1) is None


def test_brute_sat_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(200):
        nv = rng.randint(1, 5)
        cls = [
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 9))
        ]
        sat = any(
            all(any((mask >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in cls)
            for mask in range(1 << nv)
        )
        assert (brute_sat(cls, nv) is not None) == sat


def test_brute_sat_deeper_than_recursion_limit():
    # one decision per variable; x_{n-1} = 1 conflicts and flips at depth n-1
    n = 3000
    clauses = [(-(n - 1), n), (-(n - 1), -n)]
    assert brute_sat(clauses, n) == tuple(range(1, n - 1)) + (1 - n, n)


def test_engine_push_pop_state_consistency():
    # asserting then backtracking must restore counters exactly, including on
    # conflicting asserts (the regression that corrupted DFS checking)
    rng = random.Random(5)
    for _ in range(150):
        nv = rng.randint(1, 8)
        cls = [
            tuple(v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 12))
        ]
        eng = PropEngine(cls, nv)
        stack = []
        for _step in range(25):
            if stack and rng.random() < 0.35:
                eng.backtrack(stack.pop())
                continue
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            mark = eng.mark()
            seeds = list(dict.fromkeys(list(eng.trail) + [lit]))
            consistent = not any(-s in seeds for s in seeds)
            ok = eng.assert_lits((lit,))
            if consistent:
                fresh = unit_propagate(cls, nv, seeds)
                assert ok == (not fresh.conflict)
                if ok:
                    assert frozenset(eng.trail) == fresh.literals
            if ok:
                stack.append(mark)
            else:
                eng.backtrack(mark)


def test_up_clause_with_repeated_literal():
    # each copy of a repeated literal is the same literal
    assert unit_propagate([(2, 2, 1)], 2, [-1]).literals == frozenset({-1, 2})
    assert unit_propagate([(1, 1)], 1).literals == frozenset({1})
    assert unit_propagate([(1, 1), (-1, -1)], 1).conflict


def test_left_counts_distinct_non_false_literals():
    # clauses repeat literals and hold complementary pairs; the walk takes
    # conflicting asserts and backtracks, and after every step left[ci] is
    # the number of ci's distinct literals that are not false
    rng = random.Random(11)
    for _ in range(150):
        nv = rng.randint(1, 6)
        cls = [tuple(rng.choice([1, -1]) * rng.randint(1, nv)
                     for _ in range(rng.randint(1, 5)))
               for _ in range(rng.randint(0, 10))]
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        units, bot = unit_closure(cls, alpha)
        up = unit_propagate(cls, nv, alpha)
        assert up.conflict == bot
        if not up.conflict:
            assert up.literals == units

        eng = PropEngine(cls, nv)
        stack = []

        def recount():
            return [sum(1 for l in set(c) if eng.val[abs(l)] != (1 if l < 0 else -1))
                    for c in cls]

        assert eng.left == recount()
        if eng.base_conflict:
            continue
        for _step in range(25):
            if stack and rng.random() < 0.35:
                eng.backtrack(stack.pop())
            else:
                mark = eng.mark()
                if eng.assert_lits((rng.choice([1, -1]) * rng.randint(1, nv),)):
                    stack.append(mark)
                else:
                    assert eng.left == recount()  # mid-conflict state
                    eng.backtrack(mark)
            assert eng.left == recount()


def test_all_scope_models_full_and_projected():
    cls = [(1, 2), (-1, -2)]  # xor
    assert all_scope_models(cls, 2, [1, 2]) == [1, 2]
    # project onto x1 only: both values extend
    assert all_scope_models(cls, 2, [1]) == [0, 1]
    # unsat formula has no projections
    assert all_scope_models([(1,), (-1,)], 1, [1]) == []


def test_all_scope_models_deeper_than_recursion_limit():
    # (x_i | y_i)(x_i | -y_i) forces every x_i; the scope is the 1500 x's
    n = 1500
    clauses = [c for i in range(1, n + 1) for c in ((i, n + i), (i, -(n + i)))]
    assert all_scope_models(clauses, 2 * n, range(1, n + 1)) == [(1 << n) - 1]
