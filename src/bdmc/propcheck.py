"""Brute-force certification of encodings: correctness and propagation strength.

Strength checking follows the two definitions:

  URC on scope V: every partial assignment over V that makes the formula
  unsatisfiable yields a unit-propagation conflict.

  PC on scope V: every literal of V entailed under a partial assignment over V
  is derived by unit propagation, unless a conflict is derived.

Both are decided through the equivalent satisfiability formulation: after
propagating alpha without conflict, the formula must be satisfiable (URC), and
for every scope literal l whose negation was not derived, phi & alpha & l must
be satisfiable (PC).  Both modes answer these queries from one _Projection: the
formula's models projected onto V, kept as per-literal bitsets, with one PC
pending-literal loop, and both take the variables of V that some clause
mentions (the first of V if none is).  Exhaustive mode reads the complete
projection off its one engine, then walks the partial assignments over them
on that engine's trail in one loop over an explicit frame stack, pruning
every extension of a conflicting assignment; a literal no model sets is a
failure.  Sampled mode draws sample j over them from its own splitmix64
stream, keyed by (seed, j), asserting each literal as it is drawn and
stopping at the first UP conflict, and grows the projection on demand: a
literal no known model sets goes to the DPLL oracle.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import core
from .core import (CLASS_PC, CLASS_SATISFIES, CLASS_STRENGTH, CLASS_URC, DEFAULT_EXHAUSTIVE_BUDGET,
                   BdmcGraph, LeafEncoding, build_graph, leaf_spec)
from .engine import PropEngine, all_scope_models, check_partial_assignment, model_under, scope_search
from .errors import BdmcError, BudgetExceededError, InputError

DEFAULT_SAMPLES = 100_000
STYLES = ("urc", "pc")

__all__ = [
    "EncodingCheck", "check_encoding",
    "StrengthVerdict", "Counterexample", "check_strength",
    "confirm_strength_counterexample", "exhaustive_feasible",
    "LeafCertificate", "certify_leaf", "certify_formula", "gen_random",
    "DEFAULT_EXHAUSTIVE_BUDGET", "DEFAULT_SAMPLES",
]


# ---------------------------------------------------------------------------
# encoding correctness (projection equals the circuit's function)


def _mentioned(clauses: Sequence[Sequence[int]], nvars: int, scope: Sequence[int]) -> set[int]:
    """The variables the clauses mention, once they and the scope (a range by
    its two ends, never materialised) are checked to lie in 1..nvars: the
    checkers size their engines and projections by the variables they use,
    so a header declaring far more than the formula uses costs nothing."""
    ends = (*scope[:1], *scope[-1:]) if isinstance(scope, range) else scope
    bad = next((v for v in ends if not 0 < v <= nvars), None)
    if bad is not None:
        raise InputError(f"scope variable {bad} outside 1..{nvars}")
    bad = next((lit for c in clauses for lit in c if not 0 < abs(lit) <= nvars), None)
    if bad is not None:
        raise InputError(f"literal {bad} outside variable universe 1..{nvars}")
    return {abs(lit) for c in clauses for lit in c}


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
    budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
) -> EncodingCheck:
    """Compare the CNF's models projected onto input_vars with the circuit's
    models.  Both are sets of input bitmasks, bit i giving the value of
    input_vars[i] in the CNF and of input i+1 in the circuit; the witness is
    the least mask on which they differ.  The circuit's side is
    core.enumerate_models, which raises BudgetExceededError before any work
    when its 2^k assignments exceed the budget."""
    if len(input_vars) != oracle.num_inputs:
        raise InputError("input_vars must match the oracle's input count")
    want = core.enumerate_models(oracle, budget)
    top = max(_mentioned(clauses, nvars, input_vars) | set(input_vars), default=0)
    got = set(all_scope_models(clauses, top, input_vars))
    if got == want:
        return EncodingCheck(True)
    mask = min(got ^ want)
    alpha = tuple(v if mask >> i & 1 else -v for i, v in enumerate(input_vars))
    return EncodingCheck(False, witness=alpha, expected=mask in want, got=mask in got)


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
    """A strength verdict on the declared scope (a range stays a range); both
    modes check assignments over its clause-mentioned variables, counting in
    alphas_checked those up to and including the first failure and in vacuous
    (sampled mode) those among them that UP refutes.  Every sampled job grows
    its own model cache, so sat_calls depends on jobs; no other field does."""

    style: str  # 'urc' | 'pc'
    scope: Sequence[int]
    mode: str  # 'exhaustive' | 'sampled'
    passed: bool
    counterexample: Optional[Counterexample] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    alphas_checked: int = 0
    sat_calls: int = 0
    vacuous: int = 0

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
            out["vacuous"] = self.vacuous
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_dict()
        return out


def exhaustive_feasible(scope_size: int, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> bool:
    """Whether the 3^scope_size partial assignments of an exhaustive walk fit
    the budget; 3^k exceeds any budget under 2^k, so k is capped there."""
    return 3 ** min(scope_size, budget.bit_length()) <= budget


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
    """The style's condition (URC or PC) of the CNF on scope.  A variable no
    clause mentions changes neither UP nor satisfiability, so both modes take
    the scope variables some clause mentions, or the first if none is (PC over
    none checks no satisfiability): exhaustive mode walks them, refusing
    before the walk when 3^k over those k is over the budget, and sampled
    mode draws over them, the same for any jobs."""
    if style not in STYLES:
        raise InputError("style must be 'urc' or 'pc'")
    if not isinstance(scope, range):  # a range repeats nothing, and may be huge
        scope = tuple(dict.fromkeys(scope))
    clauses = [tuple(c) for c in clauses]
    mentioned = _mentioned(clauses, nvars, scope)
    if isinstance(scope, range):
        walked = sorted((v for v in mentioned if v in scope), key=scope.index)
    else:
        walked = [v for v in scope if v in mentioned]
    walked = walked or list(scope[:1])
    if mode == "exhaustive" and not exhaustive_feasible(len(walked), budget):
        raise BudgetExceededError(f"exhaustive mode needs 3^{len(walked)} propagation calls, over the"
                                  f" budget of {budget}; use sampled mode (e.g. sample:100000:0)"
                                  " or raise BDMC_BUDGET")
    top = max(mentioned.union(walked), default=0)
    if mode == "exhaustive":
        cex, alphas = _exhaustive_check(clauses, top, walked, style)
        return StrengthVerdict(style, scope, mode, cex is None, cex, alphas_checked=alphas)
    if mode != "sampled":
        raise InputError("mode must be 'exhaustive' or 'sampled'")
    if samples < 0:
        raise InputError(f"sample count must be non-negative, got {samples}")
    return _sampled_check(clauses, top, scope, walked, style, samples, seed, jobs)


class _Projection:
    """Models of the formula projected onto the scope, kept as bitsets.

    Slot 2i stands for +scope[i] and slot 2i+1 for -scope[i]; a set of scope
    literals is an int over slots, and bit[lit] (indexed by literal like the
    engine's val) is the slot bit of a scope literal, 0 off the scope.  Model
    j is bit j: blit[slot] holds the models that set the slot's literal,
    model_lits[j] the slots model j sets.
    """

    def __init__(self, scope, nvars: int):
        self.scope = scope
        self.bit = [0] * (2 * nvars + 1)
        for i, v in enumerate(scope):
            self.bit[v], self.bit[-v] = 1 << 2 * i, 2 << 2 * i
        self.all_lits = (1 << (2 * len(scope))) - 1
        self.even = self.all_lits // 3  # bits 0,2,4,...
        self.blit = [0] * (2 * len(scope))
        self.model_lits: list[int] = []

    def add(self, positive: Iterable[bool]) -> int:
        """Add a model given by the sign of each scope variable; its index."""
        j = len(self.model_lits)
        lm = 0
        for idx, pos in enumerate(positive):
            slot = 2 * idx + (0 if pos else 1)
            self.blit[slot] |= 1 << j
            lm |= 1 << slot
        self.model_lits.append(lm)
        return j

    def lit(self, slot: int) -> int:
        v = self.scope[slot >> 1]
        return -v if slot & 1 else v

    def trail_slots(self, trail: Sequence[int], start: int = 0) -> int:
        """The scope literals on trail[start:]."""
        bit = self.bit
        out = 0
        for lit in trail[start:]:
            out |= bit[lit]
        return out

    def consistent(self, alpha: Sequence[int]) -> int:
        """The models that agree with every literal of alpha."""
        acc = (1 << len(self.model_lits)) - 1
        for lit in alpha:
            acc &= self.blit[self.bit[lit].bit_length() - 1]
        return acc

    def violation(self, alpha: Sequence[int], style: str, avail: int, forced: int,
                  extend: Optional[Callable[[Optional[int]], Optional[int]]] = None,
                  ) -> Optional[Counterexample]:
        """Check the style's condition at alpha, which UP closes without
        conflict to the scope slots in forced; avail holds the known models
        consistent with alpha.  URC needs one such model; PC needs, for every
        slot whose complement is not forced, one that sets it.  A need no
        model in avail meets goes to extend(slot) (slot None for URC), which
        returns the index of a new model meeting it, or None; without extend,
        or on None, the need is the counterexample.  None means the
        condition holds."""
        if style == "urc":
            if avail or (extend is not None and extend(None) is not None):
                return None
            return Counterexample(tuple(alpha), None)
        swapped = ((forced & self.even) << 1) | ((forced & (self.even << 1)) >> 1)
        pend = self.all_lits & ~swapped
        while pend:
            slot = (pend & -pend).bit_length() - 1
            t = avail & self.blit[slot]
            if not t:
                j = extend(slot) if extend is not None else None
                if j is None:
                    return Counterexample(tuple(alpha), -self.lit(slot))
                avail |= 1 << j
                t = 1 << j
            j = (t & -t).bit_length() - 1
            pend &= ~self.model_lits[j]
        return None


def _exhaustive_check(clauses, nvars, walked, style) -> tuple[Optional[Counterexample], int]:
    """Walk every UP-consistent partial assignment over the walked variables
    depth first, on one engine: scope_search first reads the complete
    projection off it, then the walk starts from its base trail.  Returns
    the first counterexample (None on a pass) and the alphas visited.

    A frame is (next slot, models consistent so far, forced slots, mark of
    the decision that opened it), in _Projection's slot numbering: slot 2i
    asserts +walked[i] and slot 2i+1 asserts -walked[i], so alphas are visited
    in increasing (variable, sign) order, each extending its parent's
    decisions.  An assigned variable skips both its slots: the agreeing
    branch repeats the frame's checks and the other conflicts.  A UP
    conflict moves to the next slot, pruning every extension; an alpha that
    passes opens a frame at the next variable's first slot."""
    proj = _Projection(walked, nvars)
    eng = PropEngine(clauses, nvars)
    alphas = 0
    cex = None
    if not eng.base_conflict:  # else every condition holds vacuously
        val, trail, blit = eng.val, eng.trail, proj.blit
        end, base = 2 * len(walked), eng.mark()
        for _ in scope_search(eng, walked):
            proj.add(val[v] > 0 for v in walked)
        eng.backtrack(base)
        forced = proj.trail_slots(trail)
        avail = (1 << len(proj.model_lits)) - 1
        alphas = 1
        cex = proj.violation((), style, avail, forced)
        decisions: list[int] = []
        frames = [(0, avail, forced, base)] if cex is None else []
        while frames:
            slot, avail, forced, mark = frames.pop()
            if slot == end:
                eng.backtrack(mark)
                if decisions:
                    decisions.pop()
                continue
            v = walked[slot >> 1]
            if val[v] != 0:
                frames.append(((slot | 1) + 1, avail, forced, mark))
                continue
            frames.append((slot + 1, avail, forced, mark))
            lit = -v if slot & 1 else v
            sub = len(trail)
            if not eng.assert_lits((lit,)):
                eng.backtrack(sub)
                continue
            decisions.append(lit)
            alphas += 1
            sub_avail, sub_forced = avail & blit[slot], forced | proj.trail_slots(trail, sub)
            cex = proj.violation(decisions, style, sub_avail, sub_forced)
            if cex is not None:
                break
            frames.append(((slot | 1) + 1, sub_avail, sub_forced, sub))
    return cex, alphas


_MASK64 = (1 << 64) - 1


def _mix(seed: int, j: int) -> int:
    return (seed * 0x9E3779B97F4A7C15 + (j + 1) * 0xBF58476D1CE4E5B9) & _MASK64


def _splitmix64(state: int) -> Iterator[int]:
    """The splitmix64 generator from state: uniform 64-bit words."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _below(words: Iterator[int], n: int) -> int:
    """A uniform int in [0, n): the first word under the largest multiple
    of n that fits in 64 bits, reduced mod n."""
    limit = (1 << 64) - (1 << 64) % n
    w = next(words)
    while w >= limit:
        w = next(words)
    return w % n


def _sampled_check(clauses, nvars, scope, walked, style, samples, seed, jobs) -> StrengthVerdict:
    """Split [0, samples) into at most one chunk per job, run on at most one
    worker per chunk and per CPU; the first failing sample over all chunks
    decides, and chunks that start after it are dropped, so the verdict does
    not depend on jobs or on the CPU count."""
    chunk = max(1, -(-samples // max(jobs, 1)))
    tasks = [(clauses, nvars, walked, style, seed, lo, min(lo + chunk, samples))
             for lo in range(0, samples, chunk)]
    workers = min(len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(processes=workers) as pool:
            results = pool.starmap(_sampled_range, tasks)
    else:
        results = [_sampled_range(*task) for task in tasks]
    fail_at, cex = min(((r[0], r[1]) for r in results if r[0] is not None),
                       default=(None, None))
    return StrengthVerdict(
        style, scope, "sampled",
        passed=fail_at is None,
        counterexample=cex,
        samples=samples,
        seed=seed,
        alphas_checked=samples if fail_at is None else fail_at + 1,
        sat_calls=sum(r[2] for r in results),
        vacuous=sum(r[3] for task, r in zip(tasks, results)
                    if fail_at is None or task[5] <= fail_at),
    )


def _sampled_range(clauses, nvars, scope, style, seed, start, stop):
    """Check samples [start, stop) up to the first failure: (fail_at,
    counterexample, sat_calls, vacuous), fail_at None on a pass and vacuous
    the samples UP refutes, counted up to the failure.

    Sample j reads one splitmix64 stream seeded with _mix(seed, j) and
    nothing else, so any partition of the index range yields the same first
    failure.  It draws a size uniformly from 0..k, then that many distinct
    scope positions by a sparse partial Fisher-Yates shuffle (a dict of the
    moved positions), each with a fair sign: a uniform subset with
    independent signs.  Each literal is asserted as it is drawn; an implied
    one is skipped and a refuted one is a conflict without an engine call.
    UP is monotone, so a conflicting prefix makes the whole alpha conflict,
    and the sample, which passes vacuously, stops there.  A surviving alpha
    is checked in scope order on the engine that still holds it."""
    proj = _Projection(scope, nvars)
    k = len(scope)
    eng = PropEngine(clauses, nvars)
    if eng.base_conflict:  # the formula UP-refutes itself: every sample is vacuous
        return None, None, 0, stop - start
    val = eng.val
    sat_calls = vacuous = 0
    base = proj.trail_slots(eng.trail)  # scope literals forced by the formula's own units

    def new_model(slot: Optional[int]) -> Optional[int]:
        """Ask the oracle for a model of the trail (asserting only the slot's literal)."""
        nonlocal sat_calls
        sat_calls += 1
        model = model_under(eng, () if slot is None else (proj.lit(slot),))
        return None if model is None else proj.add(model[v - 1] > 0 for v in scope)

    def draw(j: int) -> Optional[tuple[int, ...]]:
        """Draw and assert sample j: its alpha in scope order, or None on a
        conflict, which leaves the engine to be backtracked."""
        words = _splitmix64(_mix(seed, j))
        moved: dict[int, int] = {}
        picked: dict[int, int] = {}  # scope position -> literal
        for i in range(_below(words, k + 1)):
            r = _below(words, 2 * (k - i))  # a position in [i, k) and a sign
            p = i + (r >> 1)
            idx = moved.get(p, p)
            moved[p] = moved.get(i, i)
            v = scope[idx]
            lit = -v if r & 1 else v
            picked[idx] = lit
            cur = val[lit]
            if cur == 0:
                if not eng.assert_lits((lit,)):
                    return None
            elif cur < 0:
                return None
        return tuple(picked[idx] for idx in sorted(picked))

    mark = eng.mark()
    for j in range(start, stop):
        alpha = draw(j)
        if alpha is None:
            vacuous += 1
        else:
            forced = base | proj.trail_slots(eng.trail, mark)
            cex = proj.violation(alpha, style, proj.consistent(alpha), forced, new_model)
            if cex is not None:
                return j, cex, sat_calls, vacuous
        eng.backtrack(mark)
    return None, None, sat_calls, vacuous


def confirm_strength_counterexample(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    alpha: Sequence[int],
    literal: Optional[int],
) -> bool:
    """Replay a counterexample straight against the definitions on one engine,
    independently of the bitset machinery: UP must not refute alpha nor derive
    literal, and alpha & -literal (alpha alone if literal is None) must be
    unsatisfiable.  True means it is a genuine violation."""
    alpha = check_partial_assignment(alpha, nvars)
    probe = check_partial_assignment(() if literal is None else (-literal,), nvars)
    top = max(_mentioned(clauses, nvars, ()).union(abs(lit) for lit in alpha + probe), default=0)
    eng = PropEngine(clauses, top)
    if not eng.assert_lits(alpha) or (probe and eng.val[literal] > 0):
        return False
    return model_under(eng, probe) is None


# ---------------------------------------------------------------------------
# leaf certification


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
    """Certify the propagation classes of a CNF encoding by exhaustion.

    Each of core.CLASS_STRENGTH's classes, strongest first, is an exhaustive
    check_strength, whose gate counts the variables some clause mentions;
    (all, pc) walks them all and comes first, so an over-budget leaf is
    refused before any walk.  A class implied by one already certified is
    skipped, and each (scope, style) pair is walked once, so without aux
    variables the two scopes share their walks.  best is the first class
    held in table order, or 'none'.
    """
    scopes = {"inputs": tuple(input_vars), "all": (*input_vars, *aux_vars)}
    known = set(scopes["all"])
    bad = next((lit for c in clauses for lit in c if abs(lit) not in known), None)
    if bad is not None:
        raise InputError(f"clause literal {bad} names neither an input nor an aux variable")
    nvars = max(known, default=0)
    got: set[str] = set()
    walked = set()  # a walked pair failed, or certified every class it can
    for name, (scope_kind, style) in CLASS_STRENGTH.items():
        scope = scopes[scope_kind]
        if name in got or (scope, style) in walked:
            continue
        walked.add((scope, style))
        # a constant over no variables is vacuously complete
        if not scope or check_strength(clauses, nvars, scope, style, budget=budget).passed:
            got |= CLASS_SATISFIES[name]
    return LeafCertificate(frozenset(got), next((c for c in CLASS_STRENGTH if c in got), "none"))


def certify_leaf(leaf: LeafEncoding, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> LeafCertificate:
    """certify_formula on a leaf's clauses, inputs and aux variables."""
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
    if n < 1:
        raise InputError(f"a sentence needs at least one input, got n={n}")
    rng = random.Random(seed)
    for _ in range(400):
        graph = _random_graph(rng, n, max_depth, leaf_class)
        if graph is None:
            continue
        if not graph.analysis.report.is_valid_bdmc:
            continue
        if _post_transform_vars(graph) > max_encoding_vars:
            continue
        return graph
    raise BdmcError(
        f"generator could not produce a graph for n={n}, depth={max_depth},"
        f" class={leaf_class}, seed={seed} within the size budget"
    )


def _post_transform_vars(graph: BdmcGraph) -> int:
    """n + 2m + s of the smoothed graph stretched to equal path lengths: every
    reachable edge padded with one node per layer it skips.  This is the
    size the generator has always bounded; leveling builds less."""
    from .transform import smooth

    g2 = smooth(graph)
    starts = g2.analysis.starts
    padding = sum(max(starts[ch] - starts[nid] - 1, 0)
                  for nid in g2.analysis.order for ch in g2.nodes[nid].children)
    m = sum(leaf.num_vars for leaf in g2.leaves)
    return g2.num_inputs + 2 * m + g2.num_nodes + padding


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
