"""Dual-rail (DR) and extended dual-rail (DR+) encodings of leaves.

DR rewrites a leaf's clauses over meta-variables so that unit propagation in
the leaf's formula is simulated by Horn propagation over variables standing
for "literal l was derived" plus one variable standing for "contradiction
derived".  DR+ adds clauses making the contradiction variable propagate every
literal, and totality clauses [[x]] v [[-x]].  Both read the leaf's clauses,
take its variables from the MetaVarSpace, and return a tuple of clauses.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .core import Clause, LeafEncoding, make_clause
from .errors import InputError, PreconditionError


@dataclass(frozen=True)
class MetaVarSpace:
    """Injective map (leaf index, literal-or-bot) -> solver variable.

    Variables are handed out per leaf: for each leaf's variables in ascending
    order, the positive meta before the negative one, with the bot marker
    last.  Leaves own pairwise disjoint blocks, each kept as its first id and
    the leaf's variables, so every lookup is arithmetic.
    """

    next_id: int
    _blocks: dict  # leaf index -> (first id, the leaf's variables ascending)

    @staticmethod
    def for_leaves(leaves: Sequence[LeafEncoding], first_id: int) -> "MetaVarSpace":
        blocks: dict[int, tuple[int, tuple[int, ...]]] = {}
        nxt = first_id
        for leaf in leaves:
            vs = tuple(sorted(set(leaf.input_vars) | set(leaf.aux_vars)))
            blocks[leaf.index] = (nxt, vs)
            nxt += 2 * len(vs) + 1
        return MetaVarSpace(nxt, blocks)

    def meta(self, i: int, lit: int) -> int:
        """Solver variable for [[lit]]^i."""
        first, vs = self._blocks.get(i, (0, ()))
        j = bisect_left(vs, abs(lit))
        if j == len(vs) or vs[j] != abs(lit):
            raise InputError(f"no meta-variable for literal {lit} in leaf {i}")
        return first + 2 * j + (lit < 0)

    def bot(self, i: int) -> int:
        """Solver variable for [[bot]]^i."""
        first, vs = self._blocks[i]
        return first + 2 * len(vs)

    def source_vars_of(self, i: int) -> tuple[int, ...]:
        return self._blocks[i][1]


def dual_rail(leaf: LeafEncoding, space: MetaVarSpace) -> tuple[Clause, ...]:
    """DR of the leaf's clauses over its meta-variables.

    A formula containing the empty clause collapses to the unit [[bot]].
    Otherwise every clause C and every l in C contribute the definite Horn
    clause (AND_{e in C-l} [[-e]]) -> [[l]], and every variable contributes
    [[x]] & [[-x]] -> [[bot]].  Unit clauses of phi become unit meta clauses.
    A literal outside the leaf's block raises InputError in space.meta.
    """
    i = leaf.index
    bot = space.bot(i)
    if leaf.is_constant_false:
        return ((bot,),)
    out: list[Clause] = []
    for clause in leaf.clauses:
        for l in clause:
            body = [-space.meta(i, -e) for e in clause if e != l]
            out.append(make_clause(body + [space.meta(i, l)]))
    for v in space.source_vars_of(i):
        out.append(make_clause([-space.meta(i, v), -space.meta(i, -v), bot]))
    return tuple(out)


def extended_dual_rail(leaf: LeafEncoding, space: MetaVarSpace) -> tuple[Clause, ...]:
    """DR+: DR plus [[bot]] -> [[l]] for every literal and the totality
    clauses [[x]] v [[-x]].  Clause count is exactly ||phi|| + 4|vars|."""
    i = leaf.index
    if leaf.is_constant_false:
        raise PreconditionError(
            f"leaf {i}: extended dual rail is undefined on formulas containing the"
            " empty clause; simplify the leaf to a constant-false leaf first"
        )
    out = list(dual_rail(leaf, space))
    bot = space.bot(i)
    leaf_vars = space.source_vars_of(i)
    for v in leaf_vars:
        out.append(make_clause([-bot, space.meta(i, v)]))
        out.append(make_clause([-bot, space.meta(i, -v)]))
    for v in leaf_vars:
        out.append(make_clause([space.meta(i, v), space.meta(i, -v)]))
    return tuple(out)
