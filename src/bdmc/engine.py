"""Unit propagation engine and brute-force SAT oracle.

Literals are nonzero ints in the DIMACS convention: variable v is the positive
literal v, its negation is -v.  Clauses are sequences of literals; a formula is
a sequence of clauses plus a variable count (variables are 1..nvars).

Inside the engine a literal is a code, the layout SAT solvers have used since
MiniSat: +v is 2v, -v is 2v+1, and c ^ 1 negates c, so every list indexed by
literal is read at non-negative positions.  code and decode map between the
two; PropEngine, scope_search and model_under's assumptions speak codes, and
every other function here takes and returns DIMACS literals.

PropEngine keeps two-literal clauses as implication lists and counts the
non-false literals of longer ones; its trail is both the propagation queue
and the undo log.

One search over that engine, scope_search, yields once per assignment of its
scope that extends to a model; with no scope it finds one model.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError


def check_partial_assignment(lits: Iterable[int], nvars: Optional[int] = None) -> tuple[int, ...]:
    """Validate that ``lits`` is a partial assignment (no complementary pair)."""
    seen: dict[int, int] = {}
    out = []
    for lit in lits:
        if lit == 0:
            raise InputError("literal 0 is not allowed")
        v = abs(lit)
        if nvars is not None and v > nvars:
            raise InputError(f"literal {lit} outside variable universe 1..{nvars}")
        if v in seen:
            if seen[v] != lit:
                raise InputError(f"assignment contains complementary pair {v}/-{v}")
            continue
        seen[v] = lit
        out.append(lit)
    return tuple(out)


def code(lit: int) -> int:
    """The engine's code of a DIMACS literal: 2v for +v, 2v+1 for -v."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def decode(c: int) -> int:
    """The DIMACS literal of a code."""
    return -(c >> 1) if c & 1 else c >> 1


class PropEngine:
    """Unit propagation over lists indexed by literal code, of length
    2*nvars+2 (codes 0 and 1 name no literal and stay unused): val[c] is 1,
    -1 or 0, and val[c ^ 1] == -val[c].  The stored clauses and the trail
    hold codes.  A clause (a, b) is the implications imp[a ^ 1] -> b and
    imp[b ^ 1] -> a.  A longer clause ci sits on occ[c] for each of its
    literals, and left[ci] counts those no processed trail entry made false:
    0 is a conflict, and at 1 the clause is satisfied, a unit, or a conflict
    that a pending entry will find."""

    def __init__(self, clauses: Sequence[Sequence[int]], nvars: int):
        self.nvars = nvars
        self.clauses: list[tuple[int, ...]] = []
        for clause in clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= nvars:
                    raise InputError(f"literal {lit} outside variable universe 1..{nvars}")
            self.clauses.append(tuple(dict.fromkeys(map(code, clause))))
        size = 2 * nvars + 2
        imp: list[list[int]] = [[] for _ in range(size)]
        occ: list[list[int]] = [[] for _ in range(size)]
        for ci, clause in enumerate(self.clauses):
            if len(clause) == 2:
                a, b = clause
                imp[a ^ 1].append(b)
                imp[b ^ 1].append(a)
            elif len(clause) > 2:
                for c in clause:
                    occ[c].append(ci)
        self.left = [len(c) for c in self.clauses]  # kept for clauses of 3+ literals
        self.val = [0] * size
        self.trail: list[int] = []
        # assert_lits and backtrack unpack their state in one load
        self._state = (self.val, self.left, imp, occ, self.clauses, self.trail)
        self.base_conflict = 0 in self.left
        # propagate the formula's own unit clauses once; this base trail sits
        # below every caller mark and is never backtracked
        if not self.base_conflict:
            units = [c[0] for c in self.clauses if len(c) == 1]
            if units and not self.assert_lits(units):
                self.base_conflict = True

    def mark(self) -> int:
        return len(self.trail)

    def backtrack(self, mark: int) -> None:
        val, left, _, occ, _, trail = self._state
        for c in trail[mark:]:  # undone in any order, as no step reads another's
            val[c] = val[c ^ 1] = 0
            for ci in occ[c ^ 1]:
                left[ci] += 1
        del trail[mark:]

    def _conflict(self, start: int) -> bool:
        """Unassign the unprocessed trail entries from start on; False."""
        val, trail = self.val, self.trail
        for c in trail[start:]:
            val[c] = val[c ^ 1] = 0
        del trail[start:]
        return False

    def assert_lits(self, lits: Iterable[int]) -> bool:
        """Assert literal codes and propagate to fixpoint.  False means
        conflict.

        A literal is assigned when implied; trail[head:] is the queue still to
        process, unassigned again on conflict, so the caller backtracks to its
        mark either way."""
        if self.base_conflict:
            return False
        val, left, imp, occ, clauses, trail = self._state
        head = len(trail)
        for c in lits:
            cur = val[c]
            if cur == 0:
                val[c] = 1
                val[c ^ 1] = -1
                trail.append(c)
            elif cur < 0:
                return self._conflict(head)
        while head < len(trail):
            c = trail[head]
            for other in imp[c]:
                cur = val[other]
                if cur == 0:
                    val[other] = 1
                    val[other ^ 1] = -1
                    trail.append(other)
                elif cur < 0:
                    return self._conflict(head)  # c itself is not processed yet
            head += 1
            conflict = False
            # the decrements must complete even on conflict, so that c is
            # processed and backtrack() stays the exact inverse
            for ci in occ[c ^ 1]:
                n = left[ci] - 1
                left[ci] = n
                if n == 0:
                    conflict = True
                elif n == 1 and not conflict:
                    for other in clauses[ci]:
                        if val[other] == 0:
                            val[other] = 1
                            val[other ^ 1] = -1
                            trail.append(other)
                            break
            if conflict:
                return self._conflict(head)
        return True


def brute_sat(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    alpha: Iterable[int] = (),
) -> Optional[tuple[int, ...]]:
    """Backtracking SAT with unit propagation.  Returns a full model or None.

    The model is a tuple of nvars signed literals (position v-1 holds v or -v).
    Deterministic: branches on the lowest unassigned variable, positive first.
    """
    eng = PropEngine(clauses, nvars)
    return model_under(eng, map(code, check_partial_assignment(alpha, nvars)))


def model_under(eng: PropEngine, assumps: Iterable[int] = ()) -> Optional[tuple[int, ...]]:
    """A model extending the engine's trail and the assumption codes, as
    DIMACS literals, or None; the engine is left as it was."""
    mark = eng.mark()
    model = None
    if eng.assert_lits(assumps):
        for _ in scope_search(eng):
            model = tuple(u if eng.val[2 * u] > 0 else -u for u in range(1, eng.nvars + 1))
            break
    eng.backtrack(mark)
    return model


def all_scope_models(
    clauses: Sequence[Sequence[int]],
    nvars: int,
    scope: Sequence[int],
) -> list[int]:
    """Projections onto ``scope`` of the models of the formula, as bitmasks
    in which bit i is the value of scope[i]; each appears exactly once."""
    eng = PropEngine(clauses, nvars)
    val = eng.val
    return sorted(sum(1 << i for i, v in enumerate(scope) if val[2 * v] > 0)
                  for _ in scope_search(eng, scope))


def scope_search(eng: PropEngine, scope: Sequence[int] = ()) -> Iterator[None]:
    """Depth-first search deciding the first unassigned variable of the scope
    (variables, not codes), then of 1..nvars, positive first; nothing on a
    base conflict.  Yields while the engine holds a model, once per scope
    assignment that extends to one, and may return with the last still
    asserted.  The decisions live on an explicit stack of (literal code, mark
    before it, position in the order), so the depth is not bounded by the
    recursion limit."""
    if eng.base_conflict:  # the leftover base trail may assign every variable
        return
    val = eng.val
    # order[:pos] is assigned, so a decision at position k or later is off the scope
    order = [*(2 * v for v in scope), *range(2, 2 * eng.nvars + 2, 2)]
    n, k = len(order), len(scope)
    stack: list[tuple[int, int, int]] = []
    pos = 0
    while True:
        while pos < n and val[order[pos]] != 0:
            pos += 1
        if pos == n:
            yield
            while stack and stack[-1][2] >= k:
                stack.pop()
            if not stack:
                return
            lit, mark, pos = stack.pop()
            ok = False  # this branch is done: take the next one
        else:
            lit, mark = order[pos], eng.mark()
            ok = eng.assert_lits((lit,))
        while not ok:
            eng.backtrack(mark)
            while lit & 1:  # both branches done: undo the decision above
                if not stack:
                    return
                lit, mark, pos = stack.pop()
                eng.backtrack(mark)
            lit ^= 1
            ok = eng.assert_lits((lit,))
        stack.append((lit, mark, pos))
        pos += 1
