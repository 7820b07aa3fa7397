"""Brute-force certification of encodings: correctness and propagation strength.

Strength checking follows the two definitions:

  URC on scope V: every partial assignment over V that makes the formula
  unsatisfiable yields a unit-propagation conflict.

  PC on scope V: every literal of V entailed under a partial assignment over V
  is derived by unit propagation, unless a conflict is derived.

Both are decided through the equivalent satisfiability formulation: after
propagating alpha without conflict, the formula must be satisfiable (URC), and
for every scope literal l whose negation was not derived, phi & alpha & l must
be satisfiable (PC).  Exhaustive mode walks all 3^|V| partial assignments with
an incremental propagation trail, pruning every extension of a conflicting
assignment, and answers the satisfiability queries against the precomputed
projection of the model set onto V, kept as per-literal bitsets.  Sampled mode
draws assignments from a seeded stream and answers the queries from a growing
model cache backed by the DPLL oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import core
from .core import BdmcGraph, CLASS_CC, CLASS_DC, CLASS_PC, CLASS_URC, GraphAnalysis, LeafEncoding, analyze, build_graph, leaf_spec
from .engine import (
    PropEngine,
    UpResult,
    all_scope_models,
    brute_sat,
    check_partial_assignment,
    unit_closure,
    unit_propagate,
    _search,
)
from .errors import BdmcError, BudgetExceededError, InputError

DEFAULT_EXHAUSTIVE_BUDGET = 3 ** 14
DEFAULT_SAMPLES = 100_000

__all__ = [
    "unit_propagate", "unit_closure", "brute_sat", "UpResult",
    "EncodingCheck", "check_encoding",
    "StrengthVerdict", "Counterexample", "check_strength",
    "confirm_strength_counterexample", "exhaustive_feasible",
    "LeafCertificate", "certify_leaf", "certify_formula", "gen_random",
    "DEFAULT_EXHAUSTIVE_BUDGET", "DEFAULT_SAMPLES",
]


# ---------------------------------------------------------------------------
# encoding correctness (projection equals the circuit's function)


@dataclass(frozen=True)
class EncodingCheck:
    ok: bool
    witness: Optional[tuple[int, ...]] = None  # full input assignment (signed lits)
    expected: Optional[bool] = None
    got: Optional[bool] = None

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        out = {"ok": self.ok}
        if not self.ok:
            out.update({"witness": list(self.witness), "oracle": self.expected,
                        "encoding_sat": self.got})
        return out


def check_encoding(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    input_vars: Sequence[int],
    oracle: BdmcGraph,
    bound: int = 20,
) -> EncodingCheck:
    """Compare, for every full input assignment, the circuit's value with the
    satisfiability of the CNF under that assignment."""
    k = len(input_vars)
    if k != oracle.num_inputs:
        raise InputError("input_vars must match the oracle's input count")
    if k > bound:
        raise BudgetExceededError(f"check_encoding covers 2^{k} assignments; bound is {bound}")
    ev = core.Evaluator(oracle)
    eng = PropEngine(clauses, nvars)
    for mask in range(1 << k):
        alpha = tuple(v if mask >> i & 1 else -v for i, v in enumerate(input_vars))
        mark = eng.mark()
        got = eng.assert_lits(alpha) and _search(eng, 1) is not None
        eng.backtrack(mark)
        want = ev(mask)
        if got != want:
            return EncodingCheck(False, witness=alpha, expected=want, got=got)
    return EncodingCheck(True)


# ---------------------------------------------------------------------------
# propagation strength


@dataclass(frozen=True)
class Counterexample:
    alpha: tuple[int, ...]
    literal: Optional[int]  # entailed-but-underived literal; None for the bot condition

    def to_dict(self) -> dict:
        return {"alpha": list(self.alpha),
                "literal": self.literal if self.literal is not None else "bot"}


@dataclass(frozen=True)
class StrengthVerdict:
    style: str  # 'urc' | 'pc'
    scope: tuple[int, ...]
    mode: str  # 'exhaustive' | 'sampled'
    passed: bool
    counterexample: Optional[Counterexample] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    alphas_checked: int = 0
    sat_calls: int = 0

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        out = {
            "style": self.style,
            "scope_size": len(self.scope),
            "mode": self.mode,
            "passed": self.passed,
            "alphas_checked": self.alphas_checked,
            "sat_calls": self.sat_calls,
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
            out["seed"] = self.seed
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


def exhaustive_feasible(scope_size: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> bool:
    return 3 ** scope_size <= budget


def check_strength(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    scope: Sequence[int],
    style: str,
    mode: str = "exhaustive",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
    jobs: int = 1,
) -> StrengthVerdict:
    if style not in ("urc", "pc"):
        raise InputError("style must be 'urc' or 'pc'")
    scope = list(dict.fromkeys(scope))
    for v in scope:
        if not (1 <= v <= nvars):
            raise InputError(f"scope variable {v} outside 1..{nvars}")
    clauses = [tuple(c) for c in clauses]
    if mode == "exhaustive":
        if not exhaustive_feasible(len(scope), budget):
            raise BudgetExceededError(
                f"exhaustive mode needs 3^{len(scope)} propagation calls, over the budget"
                f" of {budget}; use sampled mode (e.g. sample:100000:0) or raise BDMC_BUDGET"
            )
        return _exhaustive_check(clauses, nvars, scope, style)
    if mode != "sampled":
        raise InputError("mode must be 'exhaustive' or 'sampled'")
    return _sampled_check(clauses, nvars, scope, style, samples, seed, jobs)


def _lit_of(scope, slot: int) -> int:
    return scope[slot >> 1] if slot % 2 == 0 else -scope[slot >> 1]


class _ScopeBits:
    """Slot bookkeeping: slot 2i is +scope[i], slot 2i+1 is -scope[i]."""

    def __init__(self, scope):
        self.scope = list(scope)
        k = len(scope)
        self.k = k
        self.all_lits = (1 << (2 * k)) - 1
        self.even = self.all_lits // 3 if k else 0  # bits 0,2,4,...
        self.pos_of = {v: i for i, v in enumerate(scope)}

    def swap(self, mask: int) -> int:
        return ((mask & self.even) << 1) | ((mask & (self.even << 1)) >> 1)

    def slot(self, lit: int) -> int:
        return 2 * self.pos_of[abs(lit)] + (0 if lit > 0 else 1)


def _exhaustive_check(clauses, nvars, scope, style) -> StrengthVerdict:
    bits = _ScopeBits(scope)
    k = bits.k
    masks = all_scope_models(clauses, nvars, scope)
    blit = [0] * (2 * k)
    model_lits = []
    for j, mask in enumerate(masks):
        mbit = 1 << j
        lm = 0
        for idx in range(k):
            slot = 2 * idx + (0 if mask >> idx & 1 else 1)
            blit[slot] |= mbit
            lm |= 1 << slot
        model_lits.append(lm)
    full_b = (1 << len(masks)) - 1
    eng = PropEngine(clauses, nvars)
    stats = {"alphas": 0}
    decisions: list[int] = []

    def scope_bits_added(mark: int) -> int:
        added = 0
        for lit in eng.trail[mark:]:
            idx = bits.pos_of.get(abs(lit))
            if idx is not None:
                added |= 1 << (2 * idx + (0 if lit > 0 else 1))
        return added

    def condition(b_alpha: int, fmask: int) -> Optional[Optional[int]]:
        """None if the condition holds; otherwise the failing slot (or -1 for
        the URC bot condition)."""
        stats["alphas"] += 1
        if style == "urc":
            return -1 if b_alpha == 0 else None
        pend = bits.all_lits & ~bits.swap(fmask)
        while pend:
            slot = (pend & -pend).bit_length() - 1
            t = b_alpha & blit[slot]
            if t == 0:
                return slot
            j = (t & -t).bit_length() - 1
            pend &= ~model_lits[j]
        return None

    failure: list[Counterexample] = []

    def fail(slot: Optional[int]) -> None:
        lit = None if slot == -1 else -_lit_of(scope, slot)
        failure.append(Counterexample(tuple(decisions), lit))

    def rec(start: int, b_alpha: int, fmask: int) -> bool:
        for idx in range(start, k):
            v = scope[idx]
            if eng.val[v] != 0:
                # agreeing branch repeats this subtree's checks verbatim and
                # the opposite branch conflicts immediately: skip both
                continue
            for lit in (v, -v):
                mark = eng.mark()
                if not eng.assert_lits((lit,)):
                    eng.backtrack(mark)
                    continue  # alpha+lit refutes by UP; so does every extension
                added = scope_bits_added(mark)
                b2 = b_alpha & blit[bits.slot(lit)]
                decisions.append(lit)
                bad = condition(b2, fmask | added)
                if bad is not None:
                    fail(bad)
                    return False
                if not rec(idx + 1, b2, fmask | added):
                    return False
                decisions.pop()
                eng.backtrack(mark)
        return True

    if eng.assert_lits(()):
        fmask0 = scope_bits_added(0)
        bad = condition(full_b, fmask0)
        if bad is not None:
            fail(bad)
        else:
            rec(0, full_b, fmask0)
    # else: the formula itself UP-refutes; every condition holds vacuously
    if failure:
        return StrengthVerdict(style, tuple(scope), "exhaustive", False, failure[0],
                               alphas_checked=stats["alphas"])
    return StrengthVerdict(style, tuple(scope), "exhaustive", True,
                           alphas_checked=stats["alphas"])


def _mix(seed: int, j: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + (j + 1) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF


class _ModelCache:
    """Found models projected onto the scope, indexed per scope literal."""

    def __init__(self, bits: _ScopeBits):
        self.bits = bits
        self.blit = [0] * (2 * bits.k)
        self.model_lits: list[int] = []

    def add(self, model: Sequence[int]) -> int:
        j = len(self.model_lits)
        lm = 0
        for idx, v in enumerate(self.bits.scope):
            slot = 2 * idx + (0 if model[v - 1] > 0 else 1)
            self.blit[slot] |= 1 << j
            lm |= 1 << slot
        self.model_lits.append(lm)
        return j

    def consistent(self, alpha_slots: Sequence[int]) -> int:
        if not self.model_lits:
            return 0
        acc = (1 << len(self.model_lits)) - 1
        for slot in alpha_slots:
            acc &= self.blit[slot]
            if not acc:
                return 0
        return acc


def _sampled_check(clauses, nvars, scope, style, samples, seed, jobs) -> StrengthVerdict:
    if jobs > 1:
        return _sampled_parallel(clauses, nvars, scope, style, samples, seed, jobs)
    res = _sampled_range(clauses, nvars, scope, style, seed, 0, samples)
    return _sampled_verdict(scope, style, samples, seed, res)


def _sampled_verdict(scope, style, samples, seed, res) -> StrengthVerdict:
    fail_at, cex, alphas, sat_calls = res
    return StrengthVerdict(
        style, tuple(scope), "sampled",
        passed=fail_at is None,
        counterexample=cex,
        samples=samples,
        seed=seed,
        alphas_checked=alphas,
        sat_calls=sat_calls,
    )


def _sampled_range(clauses, nvars, scope, style, seed, start, stop):
    """Check samples [start, stop); sample j is derived from (seed, j) alone,
    so any partition of the index range yields the same verdict."""
    bits = _ScopeBits(scope)
    k = bits.k
    eng = PropEngine(clauses, nvars)
    cache = _ModelCache(bits)
    sat_calls = 0
    alphas = 0
    base_fmask = 0  # scope literals forced by the formula's own units
    for lit in eng.trail:
        idx = bits.pos_of.get(abs(lit))
        if idx is not None:
            base_fmask |= 1 << (2 * idx + (0 if lit > 0 else 1))

    def oracle_model(assumps):
        nonlocal sat_calls
        sat_calls += 1
        mark = eng.mark()
        ok = eng.assert_lits(assumps)
        model = _search(eng, 1) if ok else None
        eng.backtrack(mark)
        return model

    for j in range(start, stop):
        rng = random.Random(_mix(seed, j))
        size = rng.randint(0, k)
        chosen = sorted(rng.sample(range(k), size))
        alpha = tuple(scope[i] if rng.random() < 0.5 else -scope[i] for i in chosen)
        alphas += 1
        mark = eng.mark()
        if not eng.assert_lits(alpha):
            eng.backtrack(mark)
            continue
        fmask = base_fmask
        for lit in eng.trail[mark:]:
            idx = bits.pos_of.get(abs(lit))
            if idx is not None:
                fmask |= 1 << (2 * idx + (0 if lit > 0 else 1))
        alpha_slots = [bits.slot(l) for l in alpha]
        avail = cache.consistent(alpha_slots)
        eng.backtrack(mark)
        if style == "urc":
            if not avail:
                model = oracle_model(alpha)
                if model is None:
                    return j, Counterexample(alpha, None), alphas, sat_calls
                cache.add(model)
            continue
        pend = bits.all_lits & ~bits.swap(fmask)
        while pend:
            slot = (pend & -pend).bit_length() - 1
            t = avail & cache.blit[slot]
            if t:
                jm = (t & -t).bit_length() - 1
                pend &= ~cache.model_lits[jm]
                continue
            lit = _lit_of(scope, slot)
            model = oracle_model(alpha + (lit,))
            if model is None:
                return j, Counterexample(alpha, -lit), alphas, sat_calls
            jm = cache.add(model)
            avail |= 1 << jm
            pend &= ~cache.model_lits[jm]
    return None, None, alphas, sat_calls


def _sampled_worker(args):
    clauses, nvars, scope, style, seed, start, stop = args
    return _sampled_range(clauses, nvars, scope, style, seed, start, stop)


def _sampled_parallel(clauses, nvars, scope, style, samples, seed, jobs) -> StrengthVerdict:
    import multiprocessing as mp

    chunk = (samples + jobs - 1) // jobs
    tasks = [
        (clauses, nvars, scope, style, seed, lo, min(lo + chunk, samples))
        for lo in range(0, samples, chunk)
    ]
    with mp.Pool(processes=jobs) as pool:
        results = pool.map(_sampled_worker, tasks)
    alphas = sum(r[2] for r in results)
    sat_calls = sum(r[3] for r in results)
    failures = [(r[0], r[1]) for r in results if r[0] is not None]
    if failures:
        fail_at, cex = min(failures)
        return _sampled_verdict(scope, style, samples, seed, (fail_at, cex, alphas, sat_calls))
    return _sampled_verdict(scope, style, samples, seed, (None, None, alphas, sat_calls))


def confirm_strength_counterexample(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    alpha: Sequence[int],
    literal: Optional[int],
    style: str,
) -> bool:
    """Replay a counterexample straight against the definitions, independently
    of the bitset machinery.  True means it is a genuine violation."""
    alpha = check_partial_assignment(alpha, nvars)
    up = unit_propagate(clauses, nvars, alpha)
    if up.conflict:
        return False
    if literal is None:
        return brute_sat(clauses, nvars, alpha, var_budget=None) is None
    if literal in up.literals:
        return False
    return brute_sat(clauses, nvars, tuple(alpha) + (-literal,), var_budget=None) is None


# ---------------------------------------------------------------------------
# leaf certification


_RANK = {"none": 0, CLASS_CC: 1, CLASS_DC: 2, CLASS_URC: 3, CLASS_PC: 4}


@dataclass(frozen=True)
class LeafCertificate:
    classes: frozenset[str]
    best: str

    def satisfies(self, requirement: str) -> bool:
        return requirement in self.classes


def certify_formula(
    clauses: Sequence[Sequence[int]],
    input_vars: Sequence[int],
    aux_vars: Sequence[int] = (),
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> LeafCertificate:
    """Certify the four propagation classes of a CNF encoding by exhaustion.

    cc / dc are URC / PC restricted to the input variables; urc / pc range
    over all variables.  All four are checked independently.
    """
    local = {v: i + 1 for i, v in enumerate(list(input_vars) + list(aux_vars))}
    nvars = len(local)
    mapped = [tuple((1 if l > 0 else -1) * local[abs(l)] for l in c) for c in clauses]
    in_scope = [local[v] for v in input_vars]
    all_scope = list(range(1, nvars + 1))
    worst = max(len(all_scope), len(in_scope))
    if not exhaustive_feasible(worst, budget):
        raise BudgetExceededError(
            f"leaf certification needs 3^{worst} propagation calls, over budget {budget}"
        )
    got = set()
    checks = [
        (CLASS_CC, in_scope, "urc"),
        (CLASS_DC, in_scope, "pc"),
        (CLASS_URC, all_scope, "urc"),
        (CLASS_PC, all_scope, "pc"),
    ]
    for name, scope, style in checks:
        if not scope:
            got.add(name)  # constant over no variables: vacuously complete
            continue
        if _exhaustive_check(mapped, nvars, scope, style).passed:
            got.add(name)
    best = "none"
    for name in (CLASS_CC, CLASS_DC, CLASS_URC, CLASS_PC):
        if name in got and _RANK[name] > _RANK[best]:
            best = name
    return LeafCertificate(frozenset(got), best)


def certify_leaf(leaf: LeafEncoding, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> LeafCertificate:
    return certify_formula(leaf.clauses, leaf.input_vars, leaf.aux_vars, budget=budget)


# ---------------------------------------------------------------------------
# random corpus generator


def gen_random(
    n: int = 4,
    max_depth: int = 3,
    leaf_class: str = CLASS_PC,
    seed: int = 0,
    max_encoding_vars: int = 40,
) -> BdmcGraph:
    """A random validated decomposable BDMC with certified leaves.

    Deterministic per seed.  Leaves are drawn from class-specific generators
    (single clauses, small prime-ish 2-CNFs and gate encodings for pc;
    renamable Horn for urc) and re-certified before use; candidates failing
    certification or the size budget are discarded and redrawn.
    """
    if leaf_class not in (CLASS_PC, CLASS_URC):
        raise InputError("leaf_class must be 'pc' or 'urc'")
    rng = random.Random(seed)
    for _ in range(400):
        graph = _random_graph(rng, n, max_depth, leaf_class)
        if graph is None:
            continue
        analysis = analyze(graph)
        if not analysis.report.is_valid_bdmc:
            continue
        if _post_transform_vars(graph, analysis) > max_encoding_vars:
            continue
        return graph
    raise BdmcError(
        f"generator could not produce a graph for n={n}, depth={max_depth},"
        f" class={leaf_class}, seed={seed} within the size budget"
    )


def _post_transform_vars(graph: BdmcGraph, analysis: GraphAnalysis) -> int:
    from .transform import level, smooth

    g2 = level(smooth(graph, analysis))
    m = sum(leaf.num_vars for leaf in g2.leaves)
    return g2.num_inputs + 2 * m + g2.num_nodes


def _random_graph(rng, n, max_depth, leaf_class) -> Optional[BdmcGraph]:
    nodes: list[tuple] = []
    leaves: list[dict] = []
    registry: dict[frozenset[int], int] = {}

    def add_node(spec) -> int:
        nodes.append(spec)
        return len(nodes) - 1

    def certified(width, aux_ct, clauses):
        cert = certify_formula(
            clauses, list(range(1, width + 1)),
            list(range(width + 1, width + 1 + aux_ct)),
        )
        return cert.satisfies(leaf_class)

    def make_leaf(cell: tuple[int, ...]) -> int:
        for _ in range(25):
            aux_ct, clauses = _leaf_formula(rng, len(cell), leaf_class)
            if certified(len(cell), aux_ct, clauses):
                break
        else:
            aux_ct, clauses = 0, [[v for v in range(1, len(cell) + 1)]]  # single clause
            assert certified(len(cell), aux_ct, clauses)
        leaves.append(leaf_spec(inputs=cell, aux=aux_ct, clauses=clauses, cls=leaf_class))
        return add_node(("leaf", len(leaves)))

    def build(cell: tuple[int, ...], depth: int) -> int:
        cell = tuple(sorted(cell))
        if depth >= max_depth or (len(cell) <= 2 and rng.random() < 0.55) or rng.random() < 0.1:
            return make_leaf(cell)
        kind = "and" if len(cell) >= 2 and rng.random() < 0.5 else "or"
        if kind == "and":
            k = rng.randint(2, min(3, len(cell)))
            parts = _partition(rng, cell, k)
            kids = [build(part, depth + 1) for part in parts]
        else:
            k = rng.randint(1, 3)
            kids = []
            for ci in range(k):
                if ci == 0 or rng.random() < 0.7:
                    sub = cell
                else:
                    sub = tuple(sorted(rng.sample(cell, rng.randint(1, len(cell)))))
                key = frozenset(sub)
                if key in registry and rng.random() < 0.3:
                    kids.append(registry[key])
                else:
                    kids.append(build(sub, depth + 1))
        kids = list(dict.fromkeys(kids))
        nid = add_node((kind, kids))
        registry[frozenset(cell)] = nid
        return nid

    root = build(tuple(range(1, n + 1)), 0)
    try:
        return build_graph(nodes, leaves, n=n, root=root)
    except BdmcError:
        return None


def _partition(rng, cell, k):
    items = list(cell)
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), k - 1))
    parts = []
    prev = 0
    for c in list(cuts) + [len(items)]:
        parts.append(tuple(sorted(items[prev:c])))
        prev = c
    return parts


def _leaf_formula(rng, width, leaf_class):
    """(aux_count, clauses over local vars 1..width inputs, width+1.. aux)."""
    if leaf_class == CLASS_PC:
        pick = rng.randrange(5)
        if pick == 0 or width == 1:
            # single clause over the whole cell, random polarities
            return 0, [[(v if rng.random() < 0.5 else -v) for v in range(1, width + 1)]]
        if pick == 1:
            lit = rng.choice([1, -1]) * rng.randint(1, width)
            return 0, [[lit]]
        if pick == 2 and width >= 2:
            a, b = rng.sample(range(1, width + 1), 2)
            if rng.random() < 0.5:
                return 0, [[-a, b], [a, -b]]  # equivalence
            return 0, [[a, b], [-a, -b]]      # xor
        if pick == 3 and width >= 2:
            # and-gate with an aux output: y <-> x_a & x_b
            a, b = rng.sample(range(1, width + 1), 2)
            y = width + 1
            return 1, [[-y, a], [-y, b], [y, -a, -b]]
        # implication chain over a few cell vars
        vars_ = rng.sample(range(1, width + 1), min(width, rng.randint(2, 3)))
        out = []
        for u, v in zip(vars_, vars_[1:]):
            out.append([-u, v])
        return 0, out
    # urc: small Horn formula, then a random renaming flip per variable
    aux_ct = rng.randrange(2)
    pool = list(range(1, width + 1 + aux_ct))
    m = rng.randint(1, 3)
    out = []
    for _ in range(m):
        body = rng.sample(pool, min(len(pool), rng.randint(1, 2)))
        head_choices = [v for v in pool if v not in body]
        clause = [-v for v in body]
        if head_choices and rng.random() < 0.8:
            clause.append(rng.choice(head_choices))
        out.append(clause)
    flips = {v: rng.random() < 0.5 for v in pool}
    out = [[(-l if flips[abs(l)] else l) for l in c] for c in out]
    return aux_ct, out
