"""Checkers: encoding correctness, strength verdicts, certification, generator."""

import dataclasses
import itertools
import random
import sys

import pytest

from bdmc import compile_graph, propcheck
from bdmc.engine import PropEngine, brute_sat, unit_propagate
from bdmc.errors import BudgetExceededError, InputError, PreconditionError
from bdmc.propcheck import (
    certify_formula,
    certify_leaf,
    check_encoding,
    check_strength,
    confirm_strength_counterexample,
    gen_random,
)

from conftest import g1

NON_URC = [(1, 2), (-1, 2), (1, -2), (-1, -2)]  # unsat, but UP-quiet under empty alpha


def naive_strength(clauses, nvars, scope, style):
    """Reference Def 2.2 checker by full ternary enumeration; the oracle the
    bitset DFS is validated against."""
    for signs in itertools.product((0, 1, -1), repeat=len(scope)):
        alpha = [s * v for s, v in zip(signs, scope) if s]
        up = unit_propagate(clauses, nvars, alpha)
        if up.conflict:
            continue
        if style == "urc":
            if brute_sat(clauses, nvars, alpha) is None:
                return False
        else:
            for v in scope:
                for lit in (v, -v):
                    if -lit in up.literals:
                        continue
                    if brute_sat(clauses, nvars, alpha + [lit]) is None:
                        return False
    return True


def test_check_encoding_g1_all_targets():
    g = g1()
    for target in ("cc", "dc", "urc", "urc-seq", "pc"):
        out = compile_graph(g, target, auto_smooth=True, auto_level=True)
        res = check_encoding(out.all_clauses(), out.num_vars, [1, 2], out.graph)
        assert res.ok, target


def test_check_encoding_detects_dropped_root():
    out = compile_graph(g1(), "cc")
    clauses = [c for c in out.all_clauses() if c not in out.groups["ROOT"]]
    res = check_encoding(clauses, out.num_vars, [1, 2], out.graph)
    assert not res.ok
    assert res.witness == (-1, -2)
    assert res.expected is False and res.got is True


def test_check_encoding_bound():
    out = compile_graph(g1(), "cc")
    with pytest.raises(BudgetExceededError):
        check_encoding(out.all_clauses(), out.num_vars, [1, 2], out.graph, budget=1)


def test_check_strength_examples():
    v = check_strength(NON_URC, 2, [1, 2], "urc")
    assert not v.passed
    assert v.counterexample.alpha == () and v.counterexample.literal is None
    assert confirm_strength_counterexample(NON_URC, 2, (), None)

    out = compile_graph(g1(), "pc", auto_smooth=True, auto_level=True)
    v = check_strength(out.all_clauses(), out.num_vars,
                       list(range(1, out.num_vars + 1)), "pc")
    assert v.passed

    out = compile_graph(g1(), "cc")
    v = check_strength(out.all_clauses(), out.num_vars, [1, 2], "urc")
    assert v.passed


@pytest.mark.parametrize("clauses, alpha, literal", [
    ([(-1, 2), (-1, -2)], (1,), None),  # UP refutes alpha
    ([(-1, 2), (1, 3)], (1,), 2),  # UP derives the literal
    ([(1, 2)], (), 1),  # alpha & -literal is satisfiable
    ([(1, 2)], (-1,), None),  # alpha is satisfiable: no URC violation
])
def test_confirm_rejects_non_violations(clauses, alpha, literal):
    assert not confirm_strength_counterexample(clauses, 3, alpha, literal)


@pytest.mark.parametrize("clauses, nvars", [([(2, 2, 1)], 2), ([(1, 1)], 1)])
def test_check_strength_clause_with_repeated_literal(clauses, nvars):
    # a repeated literal is one literal: (2 2 1) is the pc clause x1 | x2,
    # and (1 1) is the unit x1
    for mode in ("exhaustive", "sampled"):
        v = check_strength(clauses, nvars, list(range(1, nvars + 1)), "pc",
                           mode=mode, samples=50)
        assert v.passed, (mode, v.counterexample)


def test_check_strength_budget_gate():
    out = compile_graph(g1(), "pc", auto_smooth=True, auto_level=True)
    with pytest.raises(BudgetExceededError, match="sample"):
        check_strength(out.all_clauses(), out.num_vars,
                       list(range(1, out.num_vars + 1)), "pc", budget=3 ** 5)


def test_check_strength_validates_args():
    with pytest.raises(InputError):
        check_strength([(1,)], 1, [2], "urc")
    with pytest.raises(InputError):
        check_strength([(1,)], 1, [1], "bogus")
    with pytest.raises(InputError):
        check_strength([(1,)], 1, [1], "urc", mode="bogus")
    with pytest.raises(InputError, match="non-negative"):
        check_strength([(1,)], 1, [1], "urc", mode="sampled", samples=-5)
    zero = check_strength([(1,)], 1, [1], "urc", mode="sampled", samples=0)
    assert zero.passed and zero.alphas_checked == 0


def test_exhaustive_matches_naive_reference():
    rng = random.Random(42)
    for _ in range(150):
        nv = rng.randint(1, 5)
        cls = [
            tuple(x if rng.random() < 0.5 else -x
                  for x in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 8))
        ]
        scope = sorted(rng.sample(range(1, nv + 1), rng.randint(1, nv)))
        style = rng.choice(["urc", "pc"])
        got = check_strength(cls, nv, scope, style)
        assert got.passed == naive_strength(cls, nv, scope, style), (cls, scope, style)
        if not got.passed:
            cex = got.counterexample
            assert confirm_strength_counterexample(cls, nv, cex.alpha, cex.literal)


def test_exhaustive_exact_with_clause_free_scope_variables():
    # the walk leaves out scope variables no clause mentions; pass/fail must
    # stay the definitions' on every scope, free-only ones included
    NON_URC_34 = [(3, 4), (-3, 4), (3, -4), (-3, -4)]
    cases = [(NON_URC_34, 4, [1], style) for style in ("urc", "pc")]
    cases += [(NON_URC_34, 4, [1, 2], "pc"), (NON_URC_34, 4, [2, 3], "pc"), ([], 2, [1, 2], "pc"),
              ([(3, 4)], 4, [1, 2], "pc"), ([(3,), (-4,)], 4, [1], "pc")]
    rng = random.Random(7)
    for _ in range(150):
        used = rng.randint(1, 4)
        nv = used + rng.randint(1, 3)  # variables above used occur in no clause
        cls = [
            tuple(x if rng.random() < 0.5 else -x
                  for x in rng.sample(range(1, used + 1), rng.randint(1, min(3, used))))
            for _ in range(rng.randint(0, 8))
        ]
        pool = range(used + 1, nv + 1) if rng.random() < 0.25 else range(1, nv + 1)
        scope = rng.sample(pool, rng.randint(1, min(len(pool), 6)))
        cases.append((cls, nv, scope, rng.choice(["urc", "pc"])))
    for cls, nv, scope, style in cases:
        got = check_strength(cls, nv, scope, style)
        assert got.scope == tuple(scope)
        assert got.passed == naive_strength(cls, nv, scope, style), (cls, scope, style)
        if not got.passed:
            cex = got.counterexample
            assert confirm_strength_counterexample(cls, nv, cex.alpha, cex.literal)
    # unsat while UP stays quiet: PC over the free variable 1 fails
    assert not check_strength(NON_URC_34, 4, [1], "pc").passed


def test_exhaustive_walk_skips_clause_free_variables():
    # y <-> x2 & x5, over 8 inputs plus y = 9: the six free inputs cost nothing
    gate = [(-9, 2), (-9, 5), (9, -2, -5)]
    full = check_strength(gate, 9, range(1, 10), "pc")
    used = check_strength(gate, 9, [2, 5, 9], "pc")
    assert full.passed and full.alphas_checked == used.alphas_checked
    # a scope of free variables only walks its first one: (), (1) and (-1)
    free = check_strength(gate, 9, [1, 3, 4, 6, 7, 8], "pc")
    assert free.passed and free.alphas_checked == 3


def test_sampled_matches_exhaustive_on_failures():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        nv = rng.randint(2, 5)
        cls = [
            tuple(x if rng.random() < 0.5 else -x
                  for x in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(2, 8))
        ]
        scope = list(range(1, nv + 1))
        style = rng.choice(["urc", "pc"])
        exact = check_strength(cls, nv, scope, style)
        if exact.passed:
            continue
        checked += 1
        sampled = check_strength(cls, nv, scope, style, mode="sampled",
                                 samples=4000, seed=5)
        # tiny scopes: 4000 draws all but surely hit a violating alpha
        assert not sampled.passed
        cex = sampled.counterexample
        assert confirm_strength_counterexample(cls, nv, cex.alpha, cex.literal)
    assert checked >= 10


def test_sampled_deterministic_and_parallel_equal():
    out = compile_graph(g1(), "pc", auto_smooth=True, auto_level=True)
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    a = check_strength(cls, nv, scope, "pc", mode="sampled", samples=3000, seed=9)
    b = check_strength(cls, nv, scope, "pc", mode="sampled", samples=3000, seed=9)
    c = check_strength(cls, nv, scope, "pc", mode="sampled", samples=3000, seed=9, jobs=2)
    assert a.passed and b.passed and c.passed
    assert a.to_dict() == b.to_dict()
    assert a.passed == c.passed and a.samples == c.samples
    # a failing check: every chunk may run past the first failure, yet the
    # verdict JSON is the same for any jobs except the per-process sat_calls
    out = compile_graph(g1(), "cc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    one, two = (check_strength(cls, nv, scope, "pc", mode="sampled", samples=3000, seed=9,
                               jobs=jobs).to_dict() for jobs in (1, 2))
    # sample 32 of seed 9's splitmix64 streams is the first to fail
    assert not one["passed"] and one["alphas_checked"] == 33
    cex = one["counterexample"]
    literal = None if cex["literal"] == "bot" else cex["literal"]
    assert confirm_strength_counterexample(cls, nv, cex["alpha"], literal)
    one.pop("sat_calls")
    two.pop("sat_calls")
    assert one == two
    empty = check_strength(cls, nv, scope, "pc", mode="sampled", samples=0, jobs=2)
    assert empty.passed and empty.alphas_checked == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("style, samples", [("pc", 3000), ("urc", 400)])  # fails, passes
def test_sampled_draws_over_clause_mentioned_variables(style, samples, jobs):
    # variables no clause mentions, anywhere in the scope, change no field
    # of the verdict but the declared scope
    out = compile_graph(g1(), "cc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    want = check_strength(cls, nv, scope, style, mode="sampled", samples=samples, seed=9,
                          jobs=jobs)
    assert want.passed == (style == "urc")
    for padded in ([nv + 1, *scope[:3], nv + 2, *scope[3:], nv + 3], range(1, nv + 4)):
        got = check_strength(cls, nv + 3, padded, style, mode="sampled", samples=samples,
                             seed=9, jobs=jobs)
        assert list(got.scope) == list(padded)
        assert dataclasses.replace(got, scope=want.scope) == want


def full_draw(scope, seed, j):
    """Sample j drawn in full from its stream by a dense Fisher-Yates
    shuffle, with no early stop; in scope order."""
    words = propcheck._splitmix64(propcheck._mix(seed, j))
    k = len(scope)
    pos = list(range(k))
    picked = {}
    for i in range(propcheck._below(words, k + 1)):
        r = propcheck._below(words, 2 * (k - i))
        p = i + (r >> 1)
        pos[i], pos[p] = pos[p], pos[i]
        picked[pos[i]] = -scope[pos[i]] if r & 1 else scope[pos[i]]
    return tuple(picked[i] for i in sorted(picked))


def reference_sampled(clauses, nvars, scope, style, seed, samples):
    """(alphas_checked, counterexample, vacuous) of full draws over the scope
    variables some clause mentions (the first scope variable if none is),
    each judged by unit_propagate and brute_sat straight from the
    definitions; the PC literals in slot order (+v before -v, scope order)."""
    mentioned = {abs(lit) for c in clauses for lit in c}
    scope = [v for v in scope if v in mentioned] or scope[:1]
    vacuous = 0
    for j in range(samples):
        alpha = full_draw(scope, seed, j)
        up = unit_propagate(clauses, nvars, alpha)
        if up.conflict:
            vacuous += 1
            continue
        if style == "urc":
            if brute_sat(clauses, nvars, alpha) is None:
                return j + 1, (alpha, None), vacuous
            continue
        for lit in (lit for v in scope for lit in (v, -v)):
            if -lit not in up.literals and brute_sat(clauses, nvars, alpha + (lit,)) is None:
                return j + 1, (alpha, -lit), vacuous
    return samples, None, vacuous


def test_sampled_early_stop_matches_full_draws():
    # asserting literal by literal and stopping at the first conflict gives
    # the verdict, counterexample and vacuous count of the whole alpha
    rng = random.Random(23)
    outcomes = set()
    for i in range(150):
        nv = rng.randint(1, 5)
        cls = [
            tuple(x if rng.random() < 0.5 else -x
                  for x in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(2, 8))
        ]
        scope = rng.sample(range(1, nv + 1), rng.randint(0, nv))
        style = rng.choice(["urc", "pc"])
        got = check_strength(cls, nv, scope, style, mode="sampled", samples=200, seed=i)
        cex = got.counterexample
        want = reference_sampled(cls, nv, scope, style, i, 200)
        assert (got.alphas_checked, cex and (cex.alpha, cex.literal), got.vacuous) == want, \
            (cls, scope, style)
        outcomes.add((got.passed, got.vacuous > 0))
    assert outcomes >= {(True, True), (True, False), (False, True)}


def test_sampled_draw_law(monkeypatch):
    # a uniform size in 0..k, then a uniform subset of that size with fair
    # signs: over k = 3 each alpha of size s has chance 1/4 / (C(3, s) 2^s);
    # the one clause mentions the three scope variables, and no alpha over
    # them refutes it
    from collections import Counter
    from math import comb

    seen = Counter()
    violation = propcheck._Projection.violation

    def record(self, alpha, *args):
        seen[alpha] += 1
        return violation(self, alpha, *args)

    monkeypatch.setattr(propcheck._Projection, "violation", record)
    n = 16000
    assert check_strength([(1, 2, 3, 4)], 4, [1, 2, 3], "urc", mode="sampled", samples=n,
                          seed=3).passed
    assert sum(seen.values()) == n and len(seen) == 27
    for alpha, count in seen.items():
        p = 0.25 / (comb(3, len(alpha)) * 2 ** len(alpha))
        assert abs(count - n * p) <= 5 * (n * p * (1 - p)) ** 0.5, (alpha, count)
        assert list(alpha) == sorted(alpha, key=abs)


def test_sampled_vacuous_counter():
    out = compile_graph(g1(), "cc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    for style, samples in (("pc", 3000), ("urc", 400)):  # fails, passes
        one, two = (check_strength(cls, nv, scope, style, mode="sampled", samples=samples,
                                   seed=9, jobs=jobs) for jobs in (1, 2))
        assert one.vacuous == two.vacuous
        assert 0 < one.vacuous < one.alphas_checked
        assert one.to_dict()["vacuous"] == one.vacuous
    assert "vacuous" not in check_strength(cls, nv, [1, 2], "urc").to_dict()
    # a formula UP refutes by itself: every sample is vacuous
    both = check_strength([(1,), (-1,)], 1, [1], "pc", mode="sampled", samples=50, jobs=2)
    assert both.passed and both.vacuous == 50


def test_sampled_pool_has_one_worker_per_chunk(monkeypatch):
    import multiprocessing
    import os

    started = []

    class InlinePool:  # records the worker count, runs the chunks in process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = compile_graph(g1(), "pc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    verdict = check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64)
    assert verdict.passed and started == [10]
    check_strength(cls, nv, scope, "pc", mode="sampled", samples=1, jobs=64)
    assert started == [10]  # a single chunk runs in process
    # fewer CPUs than chunks: one worker per CPU, the same verdict
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64) == verdict
    assert started == [10, 3]
    # one CPU (or an unknown count): every chunk runs in process
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64) == verdict
    assert started == [10, 3]


def test_certify_leaf_examples():
    # a single clause is its own prime CNF: pc
    cert = certify_formula([[1, 2]], [1, 2])
    assert cert.best == "pc" and cert.classes == {"cc", "dc", "urc", "pc"}
    # {x}, {-x}: UP refutes from nothing, every condition holds
    assert certify_formula([[1], [-1]], [1]).best == "pc"
    # the unsat xor pair fails even cc
    cert = certify_formula(NON_URC, [1, 2])
    assert cert.best == "none" and not cert.classes
    # (y v x)(y v -x) with aux y: urc and dc, but y's entailment is UP-invisible
    cert = certify_formula([[2, 1], [2, -1]], [1], [2])
    assert cert.classes == {"cc", "dc", "urc"}
    assert cert.best == "urc"


def exhaustive_strength(clauses, nvars, scope, style):
    return check_strength(clauses, nvars, scope, style).passed


def reference_certificate(clauses, n_in, n_aux, holds=exhaustive_strength):
    """The four classes checked independently, each by its own holds call
    (an exhaustive check_strength by default) over inputs 1..n_in or all
    variables; best by rank."""
    inputs, every = list(range(1, n_in + 1)), list(range(1, n_in + n_aux + 1))
    table = {"cc": (inputs, "urc"), "dc": (inputs, "pc"), "urc": (every, "urc"), "pc": (every, "pc")}
    classes = {name for name, (scope, style) in table.items()
               if not scope or holds(clauses, n_in + n_aux, scope, style)}
    return classes, max(classes, key=["cc", "dc", "urc", "pc"].index, default="none")


def random_leaf_formula(rng, kind):
    n_in = 0 if kind == "no-inputs" else rng.randint(1, 3)
    n_aux = 0 if kind == "no-aux" else rng.randint(1 if kind in ("aux", "no-inputs") else 0, 2)
    nv = n_in + n_aux
    clauses = [
        tuple(x if rng.random() < 0.5 else -x
              for x in rng.sample(range(1, nv + 1), min(nv, rng.randint(2, 3))))
        for _ in range(rng.randint(1, 8))
    ]
    if kind == "empty-clause":
        clauses.insert(rng.randint(0, len(clauses)), ())
    elif kind == "contradictory-units":
        v = rng.randint(1, nv)
        clauses += [(v,), (-v,)]
    return clauses, n_in, n_aux


def test_certify_formula_matches_independent_checks():
    rng = random.Random(0)
    kinds = ("aux", "no-aux", "no-inputs", "empty-clause", "contradictory-units")
    bests = set()
    for i in range(350):
        kind = kinds[i % len(kinds)]
        clauses, n_in, n_aux = random_leaf_formula(rng, kind)
        cert = certify_formula(clauses, list(range(1, n_in + 1)),
                               list(range(n_in + 1, n_in + n_aux + 1)))
        classes, best = reference_certificate(clauses, n_in, n_aux)
        assert (cert.classes, cert.best) == (classes, best), (kind, clauses, n_in, n_aux)
        bests.add(best)
    assert bests == {"none", "cc", "dc", "urc", "pc"}


def test_certify_formula_exact_with_free_inputs_and_aux():
    # leaves whose inputs or aux occur in no clause, checked against the
    # full ternary enumeration of every scope
    rng = random.Random(3)
    cases = [([(3, 4), (3, -4), (-3, 4), (-3, -4)], 1, 3),  # unsat over aux alone
             ([(-5, 1), (-5, 3), (5, -1, -3)], 4, 1)]        # and-gate over 2 of 4 inputs
    for _ in range(80):
        n_in, n_aux = rng.randint(1, 3), rng.randint(0, 3)
        nv = n_in + n_aux
        vars_ = rng.sample(range(1, nv + 1), rng.randint(1, nv))  # the rest stay free
        cases.append(([tuple(x if rng.random() < 0.5 else -x
                             for x in rng.sample(vars_, min(len(vars_), rng.randint(1, 3))))
                       for _ in range(rng.randint(1, 6))], n_in, n_aux))
    for clauses, n_in, n_aux in cases:
        cert = certify_formula(clauses, list(range(1, n_in + 1)),
                               list(range(n_in + 1, n_in + n_aux + 1)))
        reference = reference_certificate(clauses, n_in, n_aux, naive_strength)
        assert (cert.classes, cert.best) == reference, (clauses, n_in, n_aux)
    assert certify_formula([(3, 4), (3, -4), (-3, 4), (-3, -4)], [1], [2, 3, 4]).best == "none"


def test_certify_formula_walks_down_the_lattice(monkeypatch):
    calls = []
    walk = propcheck._exhaustive_check

    def counting(clauses, nvars, scope, style):
        calls.append((len(scope), style))
        return walk(clauses, nvars, scope, style)

    monkeypatch.setattr(propcheck, "_exhaustive_check", counting)
    # pc without aux: one walk certifies all four classes
    assert certify_formula([[1, 2]], [1, 2]).best == "pc"
    assert calls == [(2, "pc")]
    # pc over all fails, urc over all holds, pc over the inputs holds; cc is implied
    calls.clear()
    assert certify_formula([[2, 1], [2, -1]], [1], [2]).classes == {"cc", "dc", "urc"}
    assert calls == [(2, "pc"), (2, "urc"), (1, "pc")]
    # without aux a failed walk also decides the inputs class of its style
    calls.clear()
    assert certify_formula(NON_URC, [1, 2]).best == "none"
    assert calls == [(2, "pc"), (2, "urc")]


def test_exhaustive_check_builds_one_engine(monkeypatch):
    builds = []
    init = PropEngine.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PropEngine, "__init__", counting)
    assert check_strength([(1, 2), (-1, -2)], 2, [1, 2], "urc").passed
    assert len(builds) == 1


def test_exhaustive_walk_does_not_recurse():
    # every pair of 14 variables has a clause (x_i | x_j): the UP-consistent
    # alphas set at most one variable false, so the walk goes 14 decisions deep
    n = 14
    clauses = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 12)
    try:
        verdict = check_strength(clauses, n, range(1, n + 1), "pc")
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.passed and verdict.alphas_checked == 32_767


def test_certify_leaf_wrapper():
    g = g1()
    assert certify_leaf(g.leaves[0]).best == "pc"


def test_certify_budget(monkeypatch):
    # a clause over 5 of 19 inputs: 3^5 is over the budget, refused before any walk
    def not_called(*args):
        raise AssertionError("a walk ran before the budget gate")

    monkeypatch.setattr(propcheck, "_exhaustive_check", not_called)
    with pytest.raises(BudgetExceededError, match=r"exhaustive mode needs 3\^5 "):
        certify_formula([[1, 4, 8, 13, 19]], list(range(1, 20)), budget=3 ** 4)


def test_exhaustive_gate_counts_the_walked_variables():
    # 38 clause-free scope variables cost nothing: the walk and its gate see 2
    verdict = check_strength([(1, 2), (-1, -2)], 40, range(1, 41), "pc")
    assert verdict.passed and len(verdict.scope) == 40
    assert dataclasses.replace(verdict, scope=(1, 2)) == check_strength(
        [(1, 2), (-1, -2)], 40, [1, 2], "pc")
    assert certify_formula([[1, 2]], list(range(1, 20))).best == "pc"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: check_strength([(1, 5)], 3, [1], "pc"),
                 "literal 5 outside variable universe 1..3", id="clause-off-the-universe"),
    pytest.param(lambda: check_encoding([(1, 2)], 2, [1], g1()),
                 "input_vars must match the oracle's input count", id="encoding-input-count"),
    pytest.param(lambda: gen_random(leaf_class="cc"), "leaf_class must be 'pc' or 'urc'",
                 id="generator-leaf-class"),
    pytest.param(lambda: certify_formula([[5]], [1]),
                 "clause literal 5 names neither an input nor an aux variable",
                 id="certify-alien-variable"),
    pytest.param(lambda: certify_formula([[-2]], [1, 3]),
                 "clause literal -2 names neither an input nor an aux variable",
                 id="certify-variable-between-inputs"),
])
def test_propcheck_input_refusals(call, message):
    with pytest.raises(InputError) as refused:
        call()
    assert type(refused.value) is InputError and str(refused.value) == message


def test_gen_random_contract():
    from bdmc.core import validate
    g = gen_random(n=4, max_depth=3, leaf_class="pc", seed=1)
    rep = validate(g)
    assert rep.is_valid_bdmc
    again = gen_random(n=4, max_depth=3, leaf_class="pc", seed=1)
    from bdmc.formats import serialize_bdmc
    assert serialize_bdmc(g) == serialize_bdmc(again)
    other = gen_random(n=4, max_depth=3, leaf_class="pc", seed=2)
    assert serialize_bdmc(g) != serialize_bdmc(other)


def test_gen_random_certified_leaves():
    for seed in (0, 3, 8):
        g = gen_random(n=4, max_depth=2, leaf_class="pc", seed=seed)
        for leaf in g.leaves:
            assert certify_leaf(leaf).satisfies("pc")
    g = gen_random(n=4, max_depth=2, leaf_class="urc", seed=5)
    for leaf in g.leaves:
        assert certify_leaf(leaf).satisfies("urc")


def test_urc_leaf_family_end_to_end():
    for seed in (101, 102):
        g = gen_random(n=4, max_depth=2, leaf_class="urc", seed=seed)
        for target in ("cc", "urc", "urc-seq"):
            out = compile_graph(g, target, auto_smooth=True, auto_level=True)
            assert check_encoding(out.all_clauses(), out.num_vars,
                                  list(range(1, 5)), out.graph).ok
        if any(lf.claimed_class == "urc" for lf in g.leaves):
            with pytest.raises(PreconditionError):
                compile_graph(g, "pc", auto_smooth=True, auto_level=True)


def test_brute_sat_on_extended_dual_rail_bot_case():
    # DR+({x v y}) under [[-x]], [[-y]]: propagation reaches [[bot]], and the
    # all-meta-true assignment still satisfies the formula
    from bdmc.core import LeafEncoding
    from bdmc.dualrail import MetaVarSpace, extended_dual_rail
    leaf = LeafEncoding(1, (1, 2), (), ((1, 2),), "pc")
    sp = MetaVarSpace.for_leaves([leaf], 1)
    xdr = extended_dual_rail(leaf, sp)
    nv = sp.next_id - 1
    alpha = [sp.meta(1, -1), sp.meta(1, -2)]
    model = brute_sat(xdr, nv, alpha)
    assert model is not None
    assert model[sp.bot(1) - 1] == sp.bot(1)  # [[bot]] is set
    assert brute_sat(xdr, nv, [v for v in range(1, nv + 1)]) is not None


def test_check_encoding_constant_false_function():
    # an unsat leaf formula without the empty clause: f is constant false,
    # the encoding is unsatisfiable under every assignment, and they agree
    from bdmc.core import build_graph, leaf_spec, enumerate_models
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1], [-1]], cls="pc")], n=1)
    assert enumerate_models(g) == frozenset()
    for target in ("cc", "dc", "urc", "urc-seq", "pc"):
        out = compile_graph(g, target, auto_smooth=True, auto_level=True)
        assert check_encoding(out.all_clauses(), out.num_vars, [1], out.graph).ok, target
        scope = list(range(1, out.num_vars + 1))
        assert check_strength(out.all_clauses(), out.num_vars, scope, "urc").passed
