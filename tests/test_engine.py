"""Unit propagation engine, closure semantics, and the SAT oracle."""

import random

import pytest

from bdmc.engine import (
    PropEngine,
    all_scope_models,
    brute_sat,
    check_partial_assignment,
    scope_search,
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


def _messy_formula(rng):
    """A random formula mixing units, binary and longer clauses, with
    repeated literals, v -v tautologies and now and then the empty clause."""
    nv = rng.randint(1, 6)
    cls = []
    for _ in range(rng.randint(0, 10)):
        size = rng.choice((1, 2, 2, 3, 4, 5))
        clause = [rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(size)]
        if rng.random() < 0.1:
            v = rng.randint(1, nv)
            clause += [v, -v]
        cls.append(tuple(clause))
    if rng.random() < 0.05:
        cls.insert(rng.randrange(len(cls) + 1), ())
    return nv, cls


def _random_walk(rng, eng, nv, check, steps=25):
    """Assert random literals and backtrack at random, calling check(live,
    ok) after every step: live lists the decisions in force, ok is False
    right after a conflicting assert, before its backtrack."""
    stack = []  # (mark, decision)
    for _step in range(steps):
        if stack and rng.random() < 0.35:
            eng.backtrack(stack.pop()[0])
            check([d for _, d in stack], True)
            continue
        lit = rng.choice([1, -1]) * rng.randint(1, nv)
        mark = eng.mark()
        ok = eng.assert_lits((lit,))
        check([d for _, d in stack] + [lit], ok)
        if ok:
            stack.append((mark, lit))
        else:
            eng.backtrack(mark)
            check([d for _, d in stack], True)


def test_left_counts_distinct_non_false_literals():
    # after every step of a walk with conflicting asserts and backtracks,
    # including the mid-conflict state, left[ci] is the number of distinct
    # non-false literals of each clause of three or more, and val[-v]
    # mirrors val[v]
    rng = random.Random(11)
    for _ in range(200):
        nv, cls = _messy_formula(rng)
        eng = PropEngine(cls, nv)

        def check(live, ok):
            assert eng.val[0] == 0
            assert all(eng.val[-v] == -eng.val[v] for v in range(1, nv + 1))
            for ci, c in enumerate(cls):
                lits = set(c)
                if len(lits) >= 3:
                    assert eng.left[ci] == sum(1 for l in lits if eng.val[l] >= 0)

        check([], True)
        if not eng.base_conflict:
            _random_walk(rng, eng, nv, check)


def test_walk_matches_unit_closure():
    # after every assert and every backtrack the assigned literals are the
    # unit closure of the live decisions, or both report a conflict
    rng = random.Random(12)
    walks = conflicts = 0
    for _ in range(300):
        nv, cls = _messy_formula(rng)
        eng = PropEngine(cls, nv)

        def check(live, ok):
            nonlocal conflicts
            units, bot = unit_closure(cls, live)
            assert (not ok) == bot, (cls, live)
            if ok:
                assigned = {l for v in range(1, nv + 1) for l in (v, -v) if eng.val[l] > 0}
                assert assigned == set(eng.trail) == units, (cls, live)
            else:
                conflicts += 1

        if eng.base_conflict:
            assert unit_closure(cls)[1]
            continue
        check([], True)
        _random_walk(rng, eng, nv, check)
        walks += 1
    assert walks > 200 and conflicts > 100


def test_trace_reasons_precede_their_literals():
    # every traced literal's reason clause has all its other literals false
    # earlier in the trace; seeds and the formula's units carry -1
    rng = random.Random(13)
    traced = 0
    for _ in range(600):
        nv, cls = _messy_formula(rng)
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        res = unit_propagate(cls, nv, alpha, record_trace=True)
        seen = set()
        for lit, ci in res.trace:
            if ci == -1:
                assert lit in alpha or any(set(c) == {lit} for c in cls)
            else:
                clause = set(cls[ci])
                assert lit in clause
                assert all(-o in seen for o in clause - {lit}), (cls, res.trace)
                traced += 1
            seen.add(lit)
    assert traced > 100


def test_traced_propagation_agrees_with_untraced():
    # the trace is read off the trail: the same conflict and literals as an
    # untraced call, the trail order without a conflict, and each reason the
    # lowest-index clause whose other literals' complements come earlier
    rng = random.Random(14)
    conflicts = 0
    for _ in range(600):
        nv, cls = _messy_formula(rng)
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        plain = unit_propagate(cls, nv, alpha)
        res = unit_propagate(cls, nv, alpha, record_trace=True)
        assert (res.conflict, res.literals) == (plain.conflict, plain.literals)
        lits = [lit for lit, _ in res.trace]
        if res.conflict:
            conflicts += 1
        else:
            eng = PropEngine(cls, nv)
            assert eng.assert_lits(alpha) and lits == eng.trail
        units = {c[0] for c in (tuple(set(c)) for c in cls) if len(c) == 1}
        for i, (lit, ci) in enumerate(res.trace):
            earlier = set(lits[:i])
            qualifies = [j for j, c in enumerate(cls)
                         if lit in c and all(-o in earlier for o in set(c) - {lit})]
            assert ci == (-1 if lit in alpha or lit in units else qualifies[0]), (cls, alpha)
    assert conflicts > 50


def test_search_returns_at_once_on_base_conflict():
    # the base conflict leaves the trail [-2, 1, -3], which assigns every
    # variable: no search may read it as a model
    cls = [(-2,), (-3, 2, -1), (1,), (-1, -2), (2, -1, 3)]
    eng = PropEngine(cls, 3)
    assert eng.base_conflict and eng.trail == [-2, 1, -3]
    assert list(scope_search(eng, [1, 2, 3])) == []
    assert all_scope_models(cls, 3, [1, 2, 3]) == []
    assert brute_sat(cls, 3) is None


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


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: check_partial_assignment((1, 0)), "literal 0 is not allowed",
                 id="assignment-literal-0"),
    pytest.param(lambda: check_partial_assignment((1, -3), 2),
                 "literal -3 outside variable universe 1..2", id="assignment-off-the-universe"),
    pytest.param(lambda: PropEngine([(1, 2), (-1, 3, 2)], 2),
                 "literal 3 outside variable universe 1..2", id="engine-off-the-universe"),
    pytest.param(lambda: PropEngine([(0,)], 2),
                 "literal 0 outside variable universe 1..2", id="engine-literal-0"),
])
def test_engine_input_refusals(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert type(refused.value) is InputError and str(refused.value) == message
