"""Dual-rail (DR) and extended dual-rail (DR+) encodings of leaves.

DR rewrites a leaf's clauses over meta-variables so that unit propagation in
the leaf's formula is simulated by Horn propagation over variables standing
for "literal l was derived" plus one variable standing for "contradiction
derived".  DR+ adds clauses making the contradiction variable propagate every
literal, and totality clauses [[x]] v [[-x]].  meta_block numbers one leaf's
meta-variables; encoder.VarMap chains the blocks of a compile in leaf order.
Both encodings read the leaf's clauses and its block once, and return a
tuple of clauses.

Both build every clause canonical (sorted by variable, no variable twice),
so neither runs core.make_clause, the check for clauses from user input:
- A DR body is one meta literal per literal of a leaf clause.  A canonical
  leaf clause (core.make_leaf and formats.parse_bdmc build them) holds each
  variable once, and a block gives each variable its own pair of ids, so the
  body has no repeated variable and tuple(sorted(body, key=abs)) is
  canonical.
- The variable clauses are written in ascending order: a variable's
  positive meta, its negative one, then [[bot]], the block's last id.
"""

from __future__ import annotations

from .core import Clause, LeafEncoding
from .errors import InputError, PreconditionError

# one leaf's meta-variables: ({literal: [[literal]]} in id order, [[bot]])
Block = tuple[dict[int, int], int]


def meta_block(leaf: LeafEncoding, first_id: int) -> Block:
    """The leaf's block of ids from first_id on: for its variables in
    ascending order, the positive meta before the negative one, then
    [[bot]], the id after them."""
    ids: dict[int, int] = {}
    for v in sorted(set(leaf.input_vars) | set(leaf.aux_vars)):
        ids[v] = first_id + len(ids)
        ids[-v] = first_id + len(ids)
    return ids, first_id + len(ids)


def _dr(leaf: LeafEncoding, ids: dict[int, int], bot: int) -> list[Clause]:
    """The DR clauses of a leaf without the empty clause, over its block."""
    out: list[Clause] = []
    try:
        for clause in leaf.clauses:
            body = [-ids[-e] for e in clause]
            for j, l in enumerate(clause):
                head = body.copy()
                head[j] = ids[l]
                out.append(tuple(sorted(head, key=abs)))
    except KeyError as missing:
        raise InputError(
            f"no meta-variable for literal {missing.args[0]} in leaf {leaf.index}") from None
    metas = iter(ids.values())
    out.extend((-pos, -neg, bot) for pos, neg in zip(metas, metas))
    return out


def dual_rail(leaf: LeafEncoding, block: Block) -> tuple[Clause, ...]:
    """DR of the leaf's clauses over its meta block.

    A formula containing the empty clause collapses to the unit [[bot]].
    Otherwise every clause C and every l in C contribute the definite Horn
    clause (AND_{e in C-l} [[-e]]) -> [[l]], and every variable contributes
    [[x]] & [[-x]] -> [[bot]].  Unit clauses of phi become unit meta clauses.
    A literal outside the block raises InputError.
    """
    ids, bot = block
    if leaf.is_constant_false:
        return ((bot,),)
    return tuple(_dr(leaf, ids, bot))


def extended_dual_rail(leaf: LeafEncoding, block: Block) -> tuple[Clause, ...]:
    """DR+: DR plus [[bot]] -> [[l]] for every literal and the totality
    clauses [[x]] v [[-x]].  Clause count is exactly ||phi|| + 4|vars|."""
    if leaf.is_constant_false:
        raise PreconditionError(
            f"leaf {leaf.index}: extended dual rail is undefined on formulas containing"
            " the empty clause; simplify the leaf to a constant-false leaf first"
        )
    ids, bot = block
    out = _dr(leaf, ids, bot)
    metas = list(ids.values())
    pairs = list(zip(metas[0::2], metas[1::2]))
    for pos, neg in pairs:
        out.append((pos, -bot))
        out.append((neg, -bot))
    out.extend(pairs)
    return tuple(out)
