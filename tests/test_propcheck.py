"""Checkers: encoding correctness, strength verdicts, certification, generator."""

import dataclasses
import hashlib
import itertools
import random
import struct
import sys

import pytest

from bdmc import compile_graph, propcheck
from bdmc.engine import PropEngine, brute_sat, code
from bdmc.errors import BudgetExceededError, InputError, PreconditionError
from bdmc.propcheck import (
    certify_formula,
    certify_leaf,
    check_encoding,
    check_strength,
    confirm_strength_counterexample,
    gen_random,
)

from conftest import g1, parity_dnnf, tiny_family
from oracles import propagate

NON_URC = [(1, 2), (-1, 2), (1, -2), (-1, -2)]  # unsat, but UP-quiet under empty alpha


def naive_strength(clauses, nvars, scope, style):
    """Reference Def 2.2 checker by full ternary enumeration; the oracle the
    bitset DFS is validated against."""
    for signs in itertools.product((0, 1, -1), repeat=len(scope)):
        alpha = [s * v for s, v in zip(signs, scope) if s]
        up = propagate(clauses, nvars, alpha)
        if up is None:
            continue
        if style == "urc":
            if brute_sat(clauses, nvars, alpha) is None:
                return False
        else:
            for v in scope:
                for lit in (v, -v):
                    if -lit in up:
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


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", "3"), ("seed", True), ("seed", None),
    ("samples", 10.0), ("samples", "10"), ("samples", False),
])
def test_check_strength_refuses_non_int_seed_and_samples(field, value):
    # a float seed would be truncated into the hashed message, and a bool
    # would print as true in the verdict
    args = {"samples": 10, "seed": 0, field: value}
    with pytest.raises(InputError, match=f"{field} must be an int, got {value!r}"):
        check_strength([(1, 2)], 2, [1, 2], "urc", mode="sampled", **args)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("jobs", [1.5, "2", True, 0, -3])
def test_check_strength_refuses_jobs_that_are_not_positive_ints(mode, jobs):
    # 1.5 would end in a TypeError, and 0, -3 and True would run as one chunk
    with pytest.raises(InputError, match=f"jobs must be an int >= 1, got {jobs!r}"):
        check_strength([(1, 2)], 2, [1, 2], "urc", mode=mode, samples=10, jobs=jobs)


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


def reference_walk(clauses, nvars, scope, style):
    """The documented walk without its prune, alpha by alpha: from each
    UP-consistent alpha, the +v subtree then the -v one, variable by variable
    after its last decision, skipping variables its closure sets.  It walks
    the scope variables some clause mentions (the first if none is), every
    alpha judged by propagate and brute_sat, and returns (counterexample,
    closures, alphas): alphas counts every alpha walked up to and including
    the first failure, closures the distinct walked-scope UP closures among
    them."""
    mentioned = {abs(lit) for c in clauses for lit in c}
    walked = [v for v in scope if v in mentioned] or list(scope[:1])
    closures = set()
    alphas = 0

    def visit(alpha, start):
        nonlocal alphas
        up = propagate(clauses, nvars, alpha)
        if up is None:
            return None
        alphas += 1
        closures.add(frozenset(lit for lit in up if abs(lit) in walked))
        if style == "urc":
            if brute_sat(clauses, nvars, alpha) is None:
                return {"alpha": alpha, "literal": "bot"}
        else:
            for lit in (s * v for v in walked for s in (1, -1)):
                if -lit not in up and brute_sat(clauses, nvars, alpha + [lit]) is None:
                    return {"alpha": alpha, "literal": -lit}
        for i in range(start, len(walked)):
            v = walked[i]
            if v in up or -v in up:
                continue
            for lit in (v, -v):
                cex = visit(alpha + [lit], i + 1)
                if cex is not None:
                    return cex
        return None

    cex = visit([], 0)
    return cex, len(closures), alphas


def test_exhaustive_matches_reference_walk():
    # the walk fails exactly where the unpruned alpha-by-alpha walk does.
    # It visits one alpha per walked-scope closure, so PC counts the
    # closures; URC's settling counts in closed form some extensions that
    # derive an earlier literal, so it lies between the closures and every
    # alpha.  In the first case 4 is auxiliary: {2, 3} entails 1 and UP
    # misses it, while the models with 2 take both values of 3, so only
    # PC's test on (3, 1) keeps the subtree under 2
    cases = [([(1, -2, 4), (1, -3, -4)], 4, [1, 2, 3])]
    rng = random.Random(2022)
    for _ in range(320):
        nv = rng.randint(2, 7)
        cls = [
            tuple(x if rng.random() < 0.5 else -x
                  for x in rng.sample(range(1, nv + 1), rng.randint(2, min(3, nv))))
            for _ in range(rng.randint(1, 2 * nv))
        ]
        cases.append((cls, nv, rng.sample(range(1, nv + 1), rng.randint(1, nv))))
    for case, (cls, nv, scope) in enumerate(cases):
        for style in ("urc", "pc"):
            cex, closures, alphas = reference_walk(cls, nv, scope, style)
            got = check_strength(cls, nv, scope, style).to_dict()
            checked = got.pop("alphas_checked")
            want = {"style": style, "scope_size": len(scope), "mode": "exhaustive",
                    "passed": cex is None, "sat_calls": 0}
            if cex is not None:
                want["counterexample"] = cex
            assert got == want, (case, cls, scope, style)
            if style == "pc":
                assert checked == closures, (case, cls, scope)
            else:
                assert closures <= checked <= alphas, (case, cls, scope)


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
    # sample 190 of seed 9's BLAKE2b streams is the first to fail
    assert not one["passed"] and one["alphas_checked"] == 191
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


def _words(seed, j):
    """Sample j's stream: the little-endian 64-bit words of the BLAKE2b
    digests of b"seed j b" for blocks b = 0, 1, 2, ..."""
    for block in itertools.count():
        yield from struct.unpack("<8Q", hashlib.blake2b(b"%d %d %d" % (seed, j, block)).digest())


def _below(words, n):
    """A uniform int in [0, n): the first word under the largest multiple
    of n that fits in 64 bits, reduced mod n."""
    limit = (1 << 64) - (1 << 64) % n
    w = next(words)
    while w >= limit:
        w = next(words)
    return w % n


def full_draw(scope, seed, j):
    """Sample j drawn in full from its stream by a dense Fisher-Yates
    shuffle, with no early stop; in scope order.  The stream is generated
    here, independently of the sampler's inlined copy."""
    words = _words(seed, j)
    k = len(scope)
    pos = list(range(k))
    picked = {}
    for i in range(_below(words, k + 1)):
        r = _below(words, 2 * (k - i))
        p = i + (r >> 1)
        pos[i], pos[p] = pos[p], pos[i]
        picked[pos[i]] = -scope[pos[i]] if r & 1 else scope[pos[i]]
    return tuple(picked[i] for i in sorted(picked))


def reference_sampled(clauses, nvars, scope, style, seed, samples):
    """(alphas_checked, counterexample, vacuous) of full draws over the scope
    variables some clause mentions (the first scope variable if none is),
    each judged by propagate and brute_sat straight from the
    definitions; the PC literals in slot order (+v before -v, scope order)."""
    mentioned = {abs(lit) for c in clauses for lit in c}
    scope = [v for v in scope if v in mentioned] or scope[:1]
    vacuous = 0
    for j in range(samples):
        alpha = full_draw(scope, seed, j)
        up = propagate(clauses, nvars, alpha)
        if up is None:
            vacuous += 1
            continue
        if style == "urc":
            if brute_sat(clauses, nvars, alpha) is None:
                return j + 1, (alpha, None), vacuous
            continue
        for lit in (lit for v in scope for lit in (v, -v)):
            if -lit not in up and brute_sat(clauses, nvars, alpha + (lit,)) is None:
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


@pytest.mark.parametrize("clauses, table_refutes", [
    # each single-literal closure is the literal alone, and so consistent with
    # every other, yet UP({1, 2}) conflicts: only the whole-alpha assertion
    # finds it
    ([(-1, -2, 3), (-1, -2, -3)], False),
    # literal 1 fails on its own
    ([(-1, 2), (-1, -2)], True),
])
def test_sampled_closure_table_exact(monkeypatch, clauses, table_refutes):
    # both formulas are URC, so every sample runs, and neither is PC
    mentioned = {abs(lit) for c in clauses for lit in c}
    walked = [v for v in (1, 2, 3) if v in mentioned]
    singles = {lit: propagate(clauses, 3, [lit]) for v in walked for lit in (v, -v)}

    def table_open(alpha):
        """Whether the single-literal closures leave alpha open."""
        if any(singles[lit] is None for lit in alpha):
            return False
        union = set().union(*(singles[lit] for lit in alpha))
        return not any(-lit in union for lit in union)

    calls, oracle = [], []  # the sampler's engine calls; set while the oracle runs
    assert_lits, model_under = propcheck.PropEngine.assert_lits, propcheck.model_under

    def counting(self, lits):
        calls.extend(() if oracle else [1])
        return assert_lits(self, lits)

    def uncounted(eng, assumps=()):
        oracle.append(1)
        try:
            return model_under(eng, assumps)
        finally:
            oracle.pop()

    monkeypatch.setattr(propcheck.PropEngine, "assert_lits", counting)
    monkeypatch.setattr(propcheck, "model_under", uncounted)
    samples = 300
    fills = 2 * len({abs(lit) for c in clauses for lit in c})  # one call per literal at most
    for seed, style in itertools.product(range(3), ("urc", "pc")):
        del calls[:]
        got = check_strength(clauses, 3, [1, 2, 3], style, mode="sampled", samples=samples,
                             seed=seed)
        engine_calls = len(calls)
        cex = got.counterexample
        want = reference_sampled(clauses, 3, [1, 2, 3], style, seed, samples)
        assert (got.alphas_checked, cex and (cex.alpha, cex.literal), got.vacuous) == want
        assert got.passed == (style == "urc")
        if style == "urc":
            assert got.vacuous > 0
            drawn = [full_draw(walked, seed, j) for j in range(samples)]
            assert sum(not table_open(alpha) for alpha in drawn) == (got.vacuous if table_refutes
                                                                     else 0)
            # past the fills, an alpha the table leaves open reaches the
            # engine, one call, only when no known model agrees with it:
            # it is unsatisfiable, or its model is a new one, one SAT call
            unsat_open = sum(table_open(alpha) and brute_sat(clauses, 3, alpha) is None
                             for alpha in drawn)
            low = unsat_open + got.sat_calls
            assert low <= engine_calls <= fills + low


def test_unmet_refuses_a_model_that_misses_its_slot():
    # an oracle whose model leaves the asked slot unset must not be asked
    # again for ever
    proj = propcheck._Projection([1, 2], 2)
    asked = []

    def extend(slot):
        asked.append(slot)
        if len(asked) > 3:
            pytest.fail("unmet asked again for the same slot")
        return proj.add([False, False])  # sets -1 and -2, never +1

    with pytest.raises(RuntimeError, match=r"does not set slot 0 \(literal 1\)"):
        proj.unmet(0, 0, "pc", extend)
    assert asked == [0]


def recorded_survivors(monkeypatch):
    """The alphas the closure table leaves open, as DIMACS literals, in the
    order the sampler checks them: each reaches _Projection.consistent once,
    whether its known models settle it or the engine asserts it."""
    seen = []
    consistent = propcheck._Projection.consistent

    def record(self, alpha):
        seen.append(tuple(map(propcheck.decode, alpha)))
        return consistent(self, alpha)

    monkeypatch.setattr(propcheck._Projection, "consistent", record)
    return seen


def test_sampled_draw_law(monkeypatch):
    # a uniform size in 0..k, then a uniform subset of that size with fair
    # signs: over k = 3 each alpha of size s has chance 1/4 / (C(3, s) 2^s);
    # the one clause mentions the three scope variables, and no alpha over
    # them refutes it
    from collections import Counter
    from math import comb

    survivors = recorded_survivors(monkeypatch)
    n = 16000
    assert check_strength([(1, 2, 3, 4)], 4, [1, 2, 3], "urc", mode="sampled", samples=n,
                          seed=3).passed
    seen = Counter(survivors)
    assert sum(seen.values()) == n and len(seen) == 27
    for alpha, count in seen.items():
        p = 0.25 / (comb(3, len(alpha)) * 2 ** len(alpha))
        assert abs(count - n * p) <= 5 * (n * p * (1 - p)) ** 0.5, (alpha, count)
        assert list(alpha) == sorted(alpha, key=abs)


def test_sample_stream_known_answer():
    # sample 0 of seed 0 starts with the words of the digest of b"0 0 0"
    words = _words(0, 0)
    assert next(words) == 0x0244c7dbb66b1297
    assert next(words) == 0x9f02cf62956c85a0


def test_sampled_draws_match_full_draws_past_one_block(monkeypatch):
    # over 12 variables a draw of size 8 or more reads a second digest:
    # every alpha UP does not refute survives the table, as drawn in full
    clauses = [tuple(range(1, 13)), (-1, -2), (-3, 4), (5, -6, 7)]
    scope = list(range(1, 13))
    seen = recorded_survivors(monkeypatch)
    for seed in (0, 7, -3, 2 ** 70):
        del seen[:]
        got = check_strength(clauses, 12, scope, "urc", mode="sampled", samples=300, seed=seed)
        drawn = [full_draw(scope, seed, j) for j in range(300)]
        want = [alpha for alpha in drawn if propagate(clauses, 12, alpha) is not None]
        assert got.passed
        assert [alpha for alpha in seen if propagate(clauses, 12, alpha) is not None] == want
        assert got.vacuous == 300 - len(want) > 0
        assert max(map(len, want)) >= 8


@pytest.mark.parametrize("a, b", [
    ((5, 0), (5 + 2 ** 64, 0)),
    ((-1, 0), (2 ** 64 - 1, 0)),
    ((0, 1), (13042035347997579285, 0)),  # (seed, first sample)
])
def test_sampled_seeds_do_not_alias(monkeypatch, a, b):
    # seeds equal mod 2^64, or a seed whose stream is another's shifted by
    # one sample, once drew the same alphas
    scope = list(range(1, 13))
    seen = recorded_survivors(monkeypatch)
    runs = []
    for seed, first in (a, b):
        del seen[:]
        check_strength([tuple(range(1, 14))], 13, scope, "urc", mode="sampled", samples=first + 20,
                       seed=seed)  # no alpha over the scope refutes the clause
        runs.append(seen[first:])
    assert len(runs[0]) == len(runs[1]) == 20 and runs[0] != runs[1]


def _random_cnfs(seed, count):
    """count random (clauses, nvars, scope): 1 to 10 clauses of 1 to 3
    literals over 1 to 7 variables, and a random scope over them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randint(1, 7)
        cls = [tuple(x if rng.random() < 0.5 else -x
                     for x in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
               for _ in range(rng.randint(1, 10))]
        out.append((cls, nv, rng.sample(range(1, nv + 1), rng.randint(1, nv))))
    return out


def _assert_settles_changes_no_verdict(monkeypatch, verdicts):
    """verdicts() is the same with _Projection.settles as it is and patched
    to False (every alpha it would pass is asserted and judged instead);
    settles both passed and refused some alpha, and both styles both
    passed and failed."""
    settles = propcheck._Projection.settles
    settled = []

    def counting(self, avail, forced, style="pc"):
        out = settles(self, avail, forced, style)
        settled.append(out)
        return out

    monkeypatch.setattr(propcheck._Projection, "settles", counting)
    on = verdicts()
    monkeypatch.setattr(propcheck._Projection, "settles", lambda *args: False)
    assert verdicts() == on
    assert any(settled) and not all(settled)
    assert {(d["style"], d["passed"]) for d in on} == {(style, passed) for style in ("urc", "pc")
                                                       for passed in (True, False)}


def test_sampled_settled_survivors_change_no_verdict(monkeypatch):
    # a survivor of the table that its known models settle is never
    # asserted; turning that off (the path that asserts every survivor)
    # changes no field of any verdict, sat_calls and vacuous included
    cases = [(cls, nv, scope, i, 1 if i % 250 else 2)
             for i, (cls, nv, scope) in enumerate(_random_cnfs(34, 2000))]

    def verdicts():
        return [check_strength(cls, nv, scope, style, mode="sampled", samples=60, seed=seed,
                               jobs=jobs).to_dict()
                for cls, nv, scope, seed, jobs in cases for style in ("urc", "pc")]

    _assert_settles_changes_no_verdict(monkeypatch, verdicts)


def test_exhaustive_settled_children_change_no_verdict(monkeypatch):
    # a child the walk settles from its models is never asserted; turning
    # that off (the walk asserts and judges every child) changes no field
    # of any verdict.  Settling on any known model alone, which leaves the
    # closure inexact, changes about 16% of these verdicts
    cases = _random_cnfs(35, 2000)

    def verdicts():
        return [check_strength(cls, nv, scope, style).to_dict()
                for cls, nv, scope in cases for style in ("urc", "pc")]

    _assert_settles_changes_no_verdict(monkeypatch, verdicts)


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


def _cpus(monkeypatch, n):
    """Pretend this process may run on n CPUs (None: the platform cannot say)."""
    import os

    if n is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_sampled_pool_has_one_worker_per_chunk(monkeypatch):
    import multiprocessing

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
    _cpus(monkeypatch, 64)
    out = compile_graph(g1(), "pc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    verdict = check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64)
    assert verdict.passed and started == [10]
    check_strength(cls, nv, scope, "pc", mode="sampled", samples=1, jobs=64)
    assert started == [10]  # a single chunk runs in process
    # fewer CPUs than chunks: one worker per CPU, the same verdict
    _cpus(monkeypatch, 3)
    assert check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64) == verdict
    assert started == [10, 3]
    # one CPU (or an unknown count): every chunk runs in process
    for cpus in (1, None):
        _cpus(monkeypatch, cpus)
        assert check_strength(cls, nv, scope, "pc", mode="sampled", samples=10, jobs=64) == verdict
    assert started == [10, 3]


def test_sampled_workers_capped_by_the_affinity_mask(monkeypatch):
    # a host with many CPUs, of which this process may run on one: --jobs 4
    # runs every chunk in process and starts no pool
    import multiprocessing
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one usable CPU")

    out = compile_graph(g1(), "pc")
    cls, nv = out.all_clauses(), out.num_vars
    scope = list(range(1, nv + 1))
    verdict = check_strength(cls, nv, scope, "pc", mode="sampled", samples=40, jobs=1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _cpus(monkeypatch, 1)
    got = check_strength(cls, nv, scope, "pc", mode="sampled", samples=40, jobs=4)
    assert dataclasses.replace(got, sat_calls=verdict.sat_calls) == verdict  # a cache per chunk


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


def test_certify_formula_drops_clause_free_aux(monkeypatch):
    # aux 3 occurs in no clause, so the all-variable scope is the inputs and
    # the two scopes share their walks
    calls = []
    walk = propcheck._exhaustive_check

    def counting(clauses, nvars, scope, style):
        calls.append((tuple(scope), style))
        return walk(clauses, nvars, scope, style)

    monkeypatch.setattr(propcheck, "_exhaustive_check", counting)
    assert certify_formula(NON_URC, [1, 2], [3]).best == "none"
    assert calls == [((1, 2), "pc"), ((1, 2), "urc")]


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
    # alphas set at most one variable false, so the walk goes 13 decisions
    # deep before the models settle the last variable's subtree.  Their
    # closures are the 2^14 sets of true variables and the 14 with one
    # variable false and the rest true
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
    assert verdict.passed and verdict.alphas_checked == 16_398


def _exhaustive(alphas, cex=None, scope_size=3):
    out = {"alphas_checked": alphas, "mode": "exhaustive", "passed": cex is None,
           "sat_calls": 0, "scope_size": scope_size}
    if cex is not None:
        out["counterexample"] = {"alpha": cex[0], "literal": cex[1]}
    return out


# the walk settles an alpha from the models alone when they set every scope
# literal its closure does not refute; each formula sends some alpha down one
# of the engine's branches, and the verdicts are those of a walk that asserts
# every alpha.  An alpha whose last decision derives a literal of an earlier
# variable repeats the closure of an earlier alpha: it is skipped, not counted
@pytest.mark.parametrize("clauses, urc, pc", [
    # {-1} has no model and UP refutes it: pruned, not counted; PC fails at
    # the root, where 1 is entailed but not derived.  {2}, {-2} and {-3}
    # derive 1, and {1, -3} derives 2: each is skipped with its subtree
    ([(1, 2), (1, -2), (3, 2)], _exhaustive(8), _exhaustive(1, ([], 1))),
    # {1} has no model and UP leaves it alone: the URC counterexample
    ([(-1, 2, 3), (-1, -2, 3), (-1, 2, -3), (-1, -2, -3)],
     _exhaustive(2, ([1], "bot")), _exhaustive(1, ([], -1))),
    # the same over the scope {1}: no other literal is open at {1}
    ([(-1, 2, 3), (-1, -2, 3), (-1, 2, -3), (-1, -2, -3)],
     _exhaustive(2, ([1], "bot"), 1), _exhaustive(1, ([], -1), 1)),
    # {1} entails 2, which UP does not derive: the PC counterexample.  URC
    # skips {-2, 3} and {-2, -3}, which derive -1
    ([(-1, 2, 3), (-1, 2, -3)], _exhaustive(22), _exhaustive(2, ([1], 2))),
    # {1} is settled by the models, {1, 2} derives 3 once 1 is asserted
    # under it; 3 is skipped below both.  {1, -3} derives -2 and is skipped;
    # PC also skips {2, -3}, which derives -1, and URC counts it with the
    # subtree its models settle below {2}
    ([(-1, -2, 3)], _exhaustive(24), _exhaustive(23)),
    # the unit 2 is on the base trail: the root's forced slots skip 2.
    # {-3} derives -1 and is skipped
    ([(2,), (-2, -1, 3)], _exhaustive(6), _exhaustive(6)),
])
def test_exhaustive_branch_verdicts(clauses, urc, pc):
    scope = [1, 2, 3][:urc["scope_size"]]
    for style, want in (("urc", urc), ("pc", pc)):
        assert check_strength(clauses, 3, scope, style).to_dict() == {**want, "style": style}


@pytest.mark.parametrize("style", ["pc", "urc"])
def test_exhaustive_walk_asserts_only_open_alphas(monkeypatch, style):
    # most alphas of a pc encoding are settled by its models: the engine sees
    # fewer assertions than there are alphas.  URC counts 128 more than PC:
    # extensions its models settle in closed form that repeat a closure
    out = compile_graph(parity_dnnf(6), "pc", auto_smooth=True, auto_level=True)
    calls = []
    assert_lits = PropEngine.assert_lits

    def counting(self, lits):
        calls.append(lits)
        return assert_lits(self, lits)

    monkeypatch.setattr(PropEngine, "assert_lits", counting)
    verdict = check_strength(out.all_clauses(), out.num_vars,
                             range(1, out.num_inputs + 1), style)
    assert verdict.passed and verdict.alphas_checked == {"pc": 505, "urc": 633}[style]
    assert len(calls) < verdict.alphas_checked


def test_exhaustive_walk_visits_each_closure_once():
    # PC over all 66 variables of a pc encoding of 5-variable parity: the
    # walk visits one alpha per closure, 711 of them; a walk of every
    # alpha visits 2,027,315
    out = compile_graph(parity_dnnf(5), "pc", auto_smooth=True, auto_level=True)
    assert out.num_vars == 66
    verdict = check_strength(out.all_clauses(), out.num_vars, range(1, out.num_vars + 1), "pc",
                             budget=3 ** 66)
    assert verdict.passed and verdict.mode == "exhaustive" and verdict.alphas_checked == 711


def _count_assertions(monkeypatch):
    """The literal lists every PropEngine.assert_lits call receives."""
    calls = []
    assert_lits = PropEngine.assert_lits

    def counting(self, lits):
        calls.append(lits)
        return assert_lits(self, lits)

    monkeypatch.setattr(PropEngine, "assert_lits", counting)
    return calls


def test_exhaustive_walk_predicts_skipped_children(monkeypatch):
    # PC over all 66 variables of parity_dnnf(5)'s pc encoding: the closure
    # table drops most children that conflict or are not canonical before
    # they are asserted, where asserting each one first made 20,065 engine
    # calls
    out = compile_graph(parity_dnnf(5), "pc", auto_smooth=True, auto_level=True)
    calls = _count_assertions(monkeypatch)
    verdict = check_strength(out.all_clauses(), out.num_vars, range(1, out.num_vars + 1), "pc",
                             budget=3 ** 66)
    assert verdict.passed and verdict.alphas_checked == 711
    assert len(calls) <= 5_000


def test_closure_table_matches_independent_closures(monkeypatch):
    # each entry is what UP derives beyond the base from the slot's literal:
    # its codes, their complements and its scope slots, or the conflict
    # sentinel.  Slots the base decides get theirs with no assertion, and
    # each fill asserts once and leaves the engine on its base trail
    calls = _count_assertions(monkeypatch)
    decided = conflicts = 0
    for cls, nv, scope in _random_cnfs(37, 600):
        eng = PropEngine(cls, nv)
        if eng.base_conflict:
            continue
        base, trail = propagate(cls, nv), list(eng.trail)
        lits = [lit for v in scope for lit in (v, -v)]
        singles = [propagate(cls, nv, [lit]) for lit in lits]
        del calls[:]
        table, fill = propcheck._Projection(scope, nv).closure_table(eng)
        assert not calls
        open_slots = table.count(None)
        for slot, lit in enumerate(lits):
            if table[slot] is None:
                entry = fill(slot)
                assert table[slot] is entry and eng.trail == trail
            else:
                decided += 1
                entry = table[slot]
            up = singles[slot]
            conflicts += up is None
            if up is None:
                assert entry is propcheck._CONFLICT
                continue
            new = up - base
            assert entry == (sum(1 << code(d) for d in new), sum(1 << code(-d) for d in new),
                             sum(1 << s for s, d in enumerate(lits) if d in new)), (cls, scope, lit)
        assert len(calls) == open_slots  # one assertion a fill
    assert decided > 0 and conflicts > 0


def _count_pc_needs(monkeypatch):
    """The calls of _Projection.unmet under PC's rule: the walk's settles
    tests for both styles, and its judgments of PC alphas."""
    calls = []
    unmet = propcheck._Projection.unmet

    def counting(self, avail, forced, style, extend=None):
        if style == "pc":
            calls.append((avail, forced))
        return unmet(self, avail, forced, style, extend)

    monkeypatch.setattr(propcheck._Projection, "unmet", counting)
    return calls


@pytest.mark.parametrize("style", ["pc", "urc"])
def test_exhaustive_settles_free_subtrees(monkeypatch, style):
    # (x1 | ... | x10): below +x1, or any alpha with a true literal, the
    # models take every value on the later variables, so each such subtree
    # is counted as 3^r - 1 alphas, not walked; walking every alpha asks
    # PC's rule 59,057 (pc) and 59,046 (urc) times.  Of the 59,047 alphas,
    # the nine that set all variables but x_j false, j < 10, derive x_j and
    # repeat a closure: PC skips them, and URC counts all but one of them
    # in the subtrees its models settle
    calls = _count_pc_needs(monkeypatch)
    verdict = check_strength([tuple(range(1, 11))], 10, range(1, 11), style)
    assert verdict.passed and verdict.alphas_checked == {"pc": 59_038, "urc": 59_046}[style]
    assert len(calls) < 500


XOR3 = [(1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)]  # x1 ^ x2 ^ x3 = 1


@pytest.mark.parametrize("style, pc_needs", [
    # below {2}, the models 010 and 111 take both values of 3: settled.
    # Any two literals derive the third variable's, so the walk skips
    # {1, 3}, {1, -3}, {-1, 3} and {-1, -3}, whose last decision derives 2;
    # the four below {2} and {-2} are counted in the settled subtrees
    ("urc", 14),
    # but only (0, 0) and (1, 1) on (3, 1), where 1 is unset before 2: not
    # settled, so all eight are skipped, leaving the 11 closures of the 19
    # alphas
    ("pc", 23),
])
def test_exhaustive_settles_subtree_by_style(monkeypatch, style, pc_needs):
    calls = _count_pc_needs(monkeypatch)
    verdict = check_strength(XOR3, 3, [1, 2, 3], style)
    assert verdict.passed and verdict.alphas_checked == {"urc": 15, "pc": 11}[style]
    assert len(calls) == pc_needs
    assert reference_walk(XOR3, 3, [1, 2, 3], style) == (None, 11, 19)


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
    pytest.param(lambda: check_encoding([(1, 2)], 2, [1, 1], g1()),
                 "input_vars lists a variable twice", id="encoding-repeated-input"),
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
    validate(g)  # refuses a graph that is not a valid BDMC
    again = gen_random(n=4, max_depth=3, leaf_class="pc", seed=1)
    from bdmc.formats import serialize_bdmc
    assert serialize_bdmc(g) == serialize_bdmc(again)
    other = gen_random(n=4, max_depth=3, leaf_class="pc", seed=2)
    assert serialize_bdmc(g) != serialize_bdmc(other)


def test_gen_random_certified_leaves(corpus):
    graphs = corpus[len(tiny_family()):]  # the generated pc graphs
    graphs += [gen_random(n=4, max_depth=2, leaf_class="urc", seed=seed) for seed in range(20)]
    for g in graphs:
        for leaf in g.leaves:
            assert leaf.claimed_class in certify_leaf(leaf).classes, leaf


@pytest.mark.parametrize("leaf_class", ["pc", "urc"])
def test_leaf_formula_families_in_their_class(leaf_class):
    """Every family _leaf_formula draws is in its class by construction, so
    gen_random does not certify its leaves: each distinct candidate over
    widths 1..10, from 200 seeded draws per width, certifies as leaf_class."""
    for width in range(1, 11):
        rng = random.Random(width)
        drawn = {(aux_ct, tuple(map(tuple, clauses)))
                 for aux_ct, clauses in (propcheck._leaf_formula(rng, width, leaf_class) for _ in range(200))}
        for aux_ct, clauses in drawn:
            cert = certify_formula(clauses, range(1, width + 1), range(width + 1, width + 1 + aux_ct))
            assert leaf_class in cert.classes, (width, aux_ct, clauses)


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
    from bdmc.dualrail import extended_dual_rail, meta_block
    leaf = LeafEncoding(1, (1, 2), (), ((1, 2),), "pc")
    meta, bot = block = meta_block(leaf, 1)
    xdr = extended_dual_rail(leaf, block)
    nv = bot
    alpha = [meta[-1], meta[-2]]
    model = brute_sat(xdr, nv, alpha)
    assert model is not None
    assert model[bot - 1] == bot  # [[bot]] is set
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
