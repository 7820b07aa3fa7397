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
in one loop over an explicit frame stack, pruning every extension of a
conflicting assignment; a literal no model sets is a failure.  It asserts
an alpha only when its models leave a literal open: if they set each scope
literal not refuted by its parent's closure plus its own literal, UP, being
sound, closes alpha to exactly that set, and both conditions hold.  It walks
no subtree the models settle: when the models of a passing alpha take every
value on the r variables the subtree decides (for PC, on those together
with each earlier one left open), no such literal is entailed, so each
extension closes to that alpha's closure plus its own literals and passes,
and the walk counts the 3^r - 1 of them in closed form.  It visits each UP
closure once, keeping no record of the closures seen: an alpha whose last
decision derives a literal of an earlier walked variable repeats the
closure of an alpha walked before it, and is skipped with its subtree.
Sampled mode draws sample j over them from its own stream of BLAKE2b words,
keyed by (seed, j), against a lazily filled table of single-literal UP
closures: the draw stops as vacuous once their union holds a failed literal
or a complementary pair, and only an alpha the table does not refute is
asserted on the engine, whole.  It grows the projection on demand: a
literal no known model sets goes to the DPLL oracle.
"""

from __future__ import annotations

import os
import random
import struct
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Iterable, Optional, Sequence

from . import core
from .core import (CLASS_PC, CLASS_SATISFIES, CLASS_STRENGTH, CLASS_URC, DEFAULT_EXHAUSTIVE_BUDGET,
                   BdmcGraph, LeafEncoding, build_graph, leaf_spec)
from .engine import (PropEngine, all_scope_models, check_partial_assignment, code, decode, model_under,
                     scope_search)
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
    """Compare the CNF's models projected onto input_vars, one distinct CNF
    variable per circuit input, with the circuit's models.  Both are sets of
    input bitmasks, bit i giving the value of input_vars[i] in the CNF and
    of input i+1 in the circuit; the witness is
    the least mask on which they differ.  The circuit's side is
    core.enumerate_models, which raises BudgetExceededError before any work
    when its 2^k assignments exceed the budget."""
    if len(input_vars) != oracle.num_inputs:
        raise InputError("input_vars must match the oracle's input count")
    if len(set(input_vars)) != len(input_vars):
        raise InputError("input_vars lists a variable twice")
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
    (sampled mode) those among them that UP refutes.  Exhaustive mode counts
    one alpha per UP closure on the walked variables, the first in walk order
    to reach it, and counts the alphas of a subtree its models settle without
    visiting them: for PC that is the number of distinct closures, and for
    URC, whose settled subtrees may hold alphas that repeat a closure, it
    lies between that and the number of UP-consistent alphas.  Every sampled
    job grows its own model cache, so sat_calls depends on jobs; no other
    field does."""

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
    for name, x in (("samples", samples), ("seed", seed)):
        if isinstance(x, bool) or not isinstance(x, int):  # a hashed "%d" would truncate 1.5
            raise InputError(f"{name} must be an int, got {x!r}")
    if samples < 0:
        raise InputError(f"sample count must be non-negative, got {samples}")
    return _sampled_check(clauses, top, scope, walked, style, samples, seed, jobs)


class _Projection:
    """Models of the formula projected onto the scope, kept as bitsets.

    Slot 2i stands for +scope[i] and slot 2i+1 for -scope[i], whose engine
    codes are codes[2i] and codes[2i+1]; a set of scope literals is an int
    over slots, and bit[c] (indexed by code like the engine's val) is the
    slot bit of a scope literal, 0 off the scope.  Model j is bit j:
    blit[slot] holds the models that set the slot's literal, model_lits[j]
    the slots model j sets.  Alphas are tuples of codes; a Counterexample
    carries DIMACS literals.
    """

    def __init__(self, scope, nvars: int):
        self.codes = [c for v in scope for c in (2 * v, 2 * v + 1)]
        self.bit = [0] * (2 * nvars + 2)
        for slot, c in enumerate(self.codes):
            self.bit[c] = 1 << slot
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
        for c in alpha:
            acc &= self.blit[self.bit[c].bit_length() - 1]
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
            return Counterexample(tuple(map(decode, alpha)), None)
        slot = self.open_slot(avail, forced, extend)
        if slot is None:
            return None
        return Counterexample(tuple(map(decode, alpha)), decode(self.codes[slot ^ 1]))

    def open_slot(self, avail: int, forced: int, extend=None) -> Optional[int]:
        """PC's first unmet need at an alpha closed to forced: a slot not
        refuted by forced that no model in avail (nor extend) sets, or None.
        A model from extend that leaves its slot unset is a fault of the
        oracle, not of the formula: it raises RuntimeError rather than
        asking again for ever."""
        swapped = ((forced & self.even) << 1) | ((forced & (self.even << 1)) >> 1)
        pend = self.all_lits & ~swapped
        while pend:
            slot = (pend & -pend).bit_length() - 1
            t = avail & self.blit[slot]
            if not t:
                j = extend(slot) if extend is not None else None
                if j is None:
                    return slot
                if not self.model_lits[j] >> slot & 1:
                    raise RuntimeError(f"model {j} from extend({slot}) does not set slot {slot}"
                                       f" (literal {decode(self.codes[slot])})")
                avail |= 1 << j
                t = 1 << j
            j = (t & -t).bit_length() - 1
            pend &= ~self.model_lits[j]
        return None


def _exhaustive_check(clauses, nvars, walked, style) -> tuple[Optional[Counterexample], int]:
    """Judge every UP-consistent partial assignment over the walked
    variables, walking one per UP closure depth first, on one engine:
    scope_search first reads the complete projection off it, then the walk
    starts from its base trail.  Returns the first counterexample (None on a
    pass) and the alphas counted.

    A frame is (next slot, models consistent so far, forced slots, number of
    decisions), in _Projection's slot numbering: slot 2i asserts +walked[i]
    and slot 2i+1 asserts -walked[i], each decision kept as its code, so
    alphas are visited in increasing (variable, sign) order, each extending
    its parent's decisions.  forced is the exact scope closure, and a
    variable in it skips both its slots: the agreeing branch repeats the
    frame's checks and the other conflicts.
    A UP conflict moves to the next slot, pruning every extension; an alpha
    that passes opens a frame at the next variable's first slot.

    A child whose models set every slot not refuted by its forced plus its
    literal is satisfiable and entails no other scope literal, so UP closes
    it to exactly that and both conditions hold: it is not asserted.  Any
    other child first asserts the deferred decisions, each at its own mark,
    so its siblings share them.

    An alpha that passes, the root included, settles its subtree when its
    models take all 2^r values on R, the r walked variables after its last
    decision that forced leaves open, and for PC all values on R plus e for
    each e in E, the open walked variables before it.  Then no literal of
    those variables is entailed under any extension, so sound UP derives
    none: each of the 3^r - 1 extensions closes to forced plus its own
    literals, is satisfiable and passes, the walk's next alphas in a row.
    They are counted, and no frame is pushed.  The models are distinct on
    the walked variables and agree with forced, so 2^(r + |E|) of them are
    the full cube, and fewer than 2^r (PC with E: 2^(r+1)) rule it out;
    otherwise the test splits the models by R's variables, layer by layer.

    The walk visits only canonical alphas, whose every decision derives new
    walked literals only on later variables: an asserted child P + d whose
    closure C holds a literal l not in P's closure, on a variable before
    d's, is skipped with its subtree, uncounted and unchecked, as on a
    conflict.  By induction on walk order, an earlier subtree has judged
    every extension of P + d.  Inserting l among P's decisions, in variable
    order, gives a prefix the walk reaches earlier: l's slot is below the
    slot P (or d) takes at that position, and the prefix is consistent, as
    it lies in C.  Going on with P's later decisions and then d, each
    skipped when UP already derives it, stays inside C and ends on an alpha
    with closure C whose next slot is no later than P + d's.  As alpha is
    in C and C in UP(alpha), UP(C) = UP(alpha) and phi & alpha is phi & C,
    so the two subtrees hold the same conditions.  A closure has one
    canonical alpha, as v is a decision iff v is open under the decisions
    before it, so each closure is visited once, by its first alpha in walk
    order.  The first failing alpha in walk order is thus never skipped, and
    the verdict and counterexample are those of the unpruned walk.  A child
    that is not asserted closes to forced plus its own literal and is never
    skipped; URC's settled subtrees skip no test on the earlier open
    variables, so some alphas they count repeat a closure."""
    proj = _Projection(walked, nvars)
    eng = PropEngine(clauses, nvars)
    alphas = 0
    cex = None
    if not eng.base_conflict:  # else every condition holds vacuously
        val, trail, blit, codes = eng.val, eng.trail, proj.blit, proj.codes
        open_slot = proj.open_slot
        end, base = 2 * len(walked), eng.mark()
        for _ in scope_search(eng, walked):
            proj.add(val[2 * v] > 0 for v in walked)
        eng.backtrack(base)
        forced = proj.trail_slots(trail)
        avail = (1 << len(proj.model_lits)) - 1
        alphas = 1
        cex = proj.violation((), style, avail, forced)
        even, pc = proj.even, style == "pc"

        def free_cube(avail: int, forced: int, first: int) -> Optional[int]:
            """The size of the subtree settled from slot first on, or None."""
            free = even & ~(forced | forced >> 1)
            rest, early = free >> first << first, free & ((1 << first) - 1)
            r, n = rest.bit_count(), avail.bit_count()
            if n == 1 << (r + early.bit_count()):  # distinct on them: the full cube
                return 3 ** r - 1
            if n < 1 << (r + (pc and early != 0)):
                return None
            cells = [avail]
            while rest:
                s = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                pos, neg, layer = blit[s], blit[s + 1], []
                for c in cells:
                    a, b = c & pos, c & neg
                    if not (a and b):
                        return None
                    layer += a, b
                cells = layer
            while pc and early:
                s = (early & -early).bit_length() - 1
                early &= early - 1
                pos, neg = blit[s], blit[s + 1]
                if not all(c & pos and c & neg for c in cells):
                    return None
            return 3 ** r - 1

        decisions: list[int] = []
        marks: list[int] = []  # marks[i]: the trail before decisions[i], while asserted
        settled = free_cube(avail, forced, 0) if cex is None else 0
        alphas += settled or 0
        frames = [(0, avail, forced, 0)] if settled is None else []
        while frames:
            slot, avail, forced, depth = frames.pop()
            del decisions[depth:]
            if len(marks) > depth:
                eng.backtrack(marks[depth])
                del marks[depth:]
            if slot == end:
                continue
            if forced >> (slot & ~1) & 3:
                frames.append(((slot | 1) + 1, avail, forced, depth))
                continue
            frames.append((slot + 1, avail, forced, depth))
            decisions.append(codes[slot])
            sub_avail, sub_forced = avail & blit[slot], forced | 1 << slot
            if open_slot(sub_avail, sub_forced) is not None:
                for c in decisions[len(marks):]:  # all but the last are satisfiable
                    marks.append(len(trail))
                    ok = eng.assert_lits((c,))
                if not ok:  # the next frame backtracks it
                    continue
                sub_forced = forced | proj.trail_slots(trail, marks[-1])
                if (sub_forced & ~forced) & ((1 << (slot & ~1)) - 1):
                    continue  # not canonical; the next frame backtracks it, as on a conflict
                cex = proj.violation(decisions, style, sub_avail, sub_forced)
            alphas += 1
            if cex is not None:
                break
            settled = free_cube(sub_avail, sub_forced, (slot | 1) + 1)
            if settled is None:
                frames.append(((slot | 1) + 1, sub_avail, sub_forced, depth + 1))
            else:
                alphas += settled
    return cex, alphas


def _sampled_check(clauses, nvars, scope, walked, style, samples, seed, jobs) -> StrengthVerdict:
    """Split [0, samples) into at most one chunk per job, run on at most one
    worker per chunk and per CPU this process may run on (its affinity mask
    where the platform has one, else the host's count); the first failing
    sample over all chunks decides, and chunks that start after it are
    dropped, so the verdict does not depend on jobs or on the CPU count."""
    chunk = max(1, -(-samples // max(jobs, 1)))
    tasks = [(clauses, nvars, walked, style, seed, lo, min(lo + chunk, samples))
             for lo in range(0, samples, chunk)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(tasks), cpus)
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

    Sample j reads the little-endian 64-bit words of the BLAKE2b digests of
    b"seed j b" for blocks b = 0, 1, ..., eight words a block, hashing a
    block only when the draw reaches it, and nothing else, so any partition
    of the index range yields the same first failure.  A uniform int in
    [0, n) is the first word under limits[n], the largest multiple of n that
    fits in 64 bits, reduced mod n.  The first is a size in 0..k, and each
    later one a scope position and a sign, making that many distinct
    positions by a partial Fisher-Yates shuffle of pos, whose touched
    entries are restored after the draw: a uniform subset with independent
    signs, each literal kept as its slot.

    The engine stays at its base trail while literals are drawn.  reach[c],
    filled on the first draw of a literal c the base leaves open, is its
    single-literal closure: an int with bit d for every code d that UP
    derives from the base plus c, or -1 when that conflicts.  A literal the
    base refutes is a conflict and one it implies adds nothing; any other
    ORs its closure into acc.  UP is monotone, so a consistent closure of
    the alpha would contain every such closure: a failed literal or a
    complementary pair in acc refutes the whole alpha, and the sample, which
    passes vacuously, stops there without an engine call.  An alpha the
    table does not refute is asserted whole, which decides it exactly, and a
    surviving one is checked in scope order on the engine that holds it."""
    proj = _Projection(scope, nvars)
    k = len(scope)
    eng = PropEngine(clauses, nvars)
    if eng.base_conflict:  # the formula UP-refutes itself: every sample is vacuous
        return None, None, 0, stop - start
    val, trail, codes = eng.val, eng.trail, proj.codes
    limits = [0] + [(1 << 64) - (1 << 64) % n for n in range(1, 2 * k + 2)]  # n <= max(k+1, 2k)
    sat_calls = vacuous = 0
    base = proj.trail_slots(trail)  # scope literals forced by the formula's own units
    mark = eng.mark()
    reach = [0] * len(val)  # 0 until filled: a closure holds its own literal's bit
    even = ((1 << len(val)) - 1) // 3  # the bits of the +v codes 2v
    pos = list(range(k))  # the identity between draws
    words8 = struct.Struct("<8Q").unpack

    def closure(c: int) -> int:
        """Fill reach[c] from one assertion of c on the base trail."""
        got = -1
        if eng.assert_lits((c,)):
            got = 0
            for d in trail[mark:]:
                got |= 1 << d
        eng.backtrack(mark)
        reach[c] = got
        return got

    def new_model(slot: Optional[int]) -> Optional[int]:
        """Ask the oracle for a model of the trail (asserting only the slot's literal)."""
        nonlocal sat_calls
        sat_calls += 1
        model = model_under(eng, () if slot is None else (codes[slot],))
        return None if model is None else proj.add(model[v - 1] > 0 for v in scope)

    for j in range(start, stop):
        w, block = 8, -1  # no block hashed yet
        slots, moved = [], []  # the drawn slots; the positions swapped into place
        acc = 0  # the union of the drawn literals' closures
        i, size, n = -1, 0, k + 1  # i is -1 while the size is drawn, then the literal's index
        while i < size:
            if w == 8:
                block += 1
                words, w = words8(blake2b(b"%d %d %d" % (seed, j, block)).digest()), 0
            z = words[w]
            w += 1
            if z >= limits[n]:
                continue
            if i < 0:
                size = z % n
            else:
                r = z % n  # a position in [i, k) and a sign
                p = i + (r >> 1)
                slot = 2 * pos[p] | r & 1
                pos[p] = pos[i]  # pos[i] is never read again in this draw
                moved.append(p)
                slots.append(slot)
                c = codes[slot]
                cur = val[c]
                if cur < 0:
                    break
                if cur == 0:
                    got = reach[c] or closure(c)
                    if got < 0:
                        break
                    acc |= got
                    if acc & (acc >> 1) & even:
                        break
            i += 1
            n = 2 * (k - i)
        for p in moved:
            pos[p] = p
        if i < size:  # the base and the table refute it; the engine holds only its base trail
            vacuous += 1
            continue
        alpha = tuple(codes[slot] for slot in sorted(slots))
        if eng.assert_lits(alpha):
            forced = base | proj.trail_slots(trail, mark)
            cex = proj.violation(alpha, style, proj.consistent(alpha), forced, new_model)
            if cex is not None:
                return j, cex, sat_calls, vacuous
        else:
            vacuous += 1
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
    probe = [code(lit) for lit in probe]
    if not eng.assert_lits(map(code, alpha)) or (probe and eng.val[probe[0] ^ 1] > 0):
        return False
    return model_under(eng, probe) is None


# ---------------------------------------------------------------------------
# leaf certification


@dataclass(frozen=True)
class LeafCertificate:
    classes: frozenset[str]
    best: str


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
    variables in a clause the two scopes share their walks.  best is the
    first class held in table order, or 'none'.
    """
    known = {*input_vars, *aux_vars}
    bad = next((lit for c in clauses for lit in c if abs(lit) not in known), None)
    if bad is not None:
        raise InputError(f"clause literal {bad} names neither an input nor an aux variable")
    nvars = max(known, default=0)
    mentioned = {abs(lit) for c in clauses for lit in c}  # the walks skip other aux
    scopes = {"inputs": tuple(input_vars), "all": (*input_vars, *(v for v in aux_vars if v in mentioned))}
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
    """A random valid decomposable BDMC whose leaves are in leaf_class.

    Deterministic per seed.  Leaves come from _leaf_formula's families, each
    in its class by construction, so none is certified here.  A draw over
    the size budget is redrawn, up to 400 draws.
    """
    if leaf_class not in (CLASS_PC, CLASS_URC):
        raise InputError("leaf_class must be 'pc' or 'urc'")
    if n < 1:
        raise InputError(f"a sentence needs at least one input, got n={n}")
    rng = random.Random(seed)
    for _ in range(400):
        graph = _random_graph(rng, n, max_depth, leaf_class)
        if _post_transform_vars(graph) <= max_encoding_vars:
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


def _random_graph(rng, n, max_depth, leaf_class) -> BdmcGraph:
    """One draw, a valid BDMC by construction: every child id is below its
    parent's, so the graph is acyclic; an and-node's children are built over
    a partition of its cell, and every node's scope lies in its cell, so
    and-nodes are decomposable; every fresh node sits in exactly one
    parent's child list (dict.fromkeys drops only registry repeats), so
    every node is reachable; and the root's cell holds every input, each
    cell covered by its and-parts or its first or-child down to the leaves."""
    nodes: list[tuple] = []
    leaves: list[dict] = []
    registry: dict[frozenset[int], int] = {}

    def add_node(spec) -> int:
        nodes.append(spec)
        return len(nodes) - 1

    def make_leaf(cell: tuple[int, ...]) -> int:
        aux_ct, clauses = _leaf_formula(rng, len(cell), leaf_class)
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
    return build_graph(nodes, leaves, n=n, root=root)


def _partition(rng, cell, k):
    items = list(cell)
    rng.shuffle(items)
    ends = [0, *sorted(rng.sample(range(1, len(items)), k - 1)), len(items)]
    return [tuple(sorted(items[a:b])) for a, b in zip(ends, ends[1:])]


def _leaf_formula(rng, width, leaf_class):
    """(aux_count, clauses over inputs 1..width, aux width+1..), in leaf_class by construction:
      single clause over the cell (pc): UP derives its last open literal, the only one entailed;
      unit (pc): UP derives it;
      equivalence or xor of two variables (pc): each side entails the other, by UP;
      and gate y <-> a & b, y aux (pc): its three clauses are all its prime implicates;
      implication chain over 2-3 cell vars (pc): its entailed literals lie on the paths UP follows;
      renamed Horn (urc): UP decides Horn satisfiability (Dowling, Gallier 1984), renamed or not."""
    if leaf_class == CLASS_PC:
        pick = rng.randrange(5)
        if pick == 0 or width == 1:
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
            a, b = rng.sample(range(1, width + 1), 2)
            y = width + 1
            return 1, [[-y, a], [-y, b], [y, -a, -b]]
        vars_ = rng.sample(range(1, width + 1), min(width, rng.randint(2, 3)))
        return 0, [[-u, v] for u, v in zip(vars_, vars_[1:])]
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
