"""Dual-rail encodings: exact expansions, counts, and the propagation
equivalence with the source formula."""

import random

import pytest

from bdmc.core import LeafEncoding, build_graph, leaf_spec, make_clause, make_leaf
from bdmc.dualrail import dual_rail, extended_dual_rail, meta_block
from bdmc.encoder import build_varmap
from bdmc.errors import InputError, PreconditionError

from oracles import reference_dual_rail, reference_extended_dual_rail, unit_closure


def block_for(clauses, inputs, aux=()):
    leaf = LeafEncoding(1, tuple(inputs), tuple(aux), tuple(make_clause(c) for c in clauses), "cc")
    return leaf, meta_block(leaf, 1)


def vars_of(block):
    """z_i: all meta-variables of a leaf's block, bot included."""
    return set(block[0].values()) | {block[1]}


def test_meta_ids_ordering():
    leaf, block = block_for([[1, 2]], [1, 2])
    # var ascending, positive before negative, bot last
    meta, bot = block
    assert (meta[1], meta[-1], meta[2], meta[-2], bot) == (1, 2, 3, 4, 5)
    assert vars_of(block) == {1, 2, 3, 4, 5}


def test_meta_disjoint_across_leaves():
    # VarMap chains the blocks in leaf order from n+1: contiguous and
    # disjoint, blocks[i - 1] is leaf i's, and the node ids follow the last
    # [[bot]]
    g = build_graph(
        nodes=[("or", [1, 2, 3]), ("leaf", 1), ("leaf", 2), ("leaf", 3)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1, 2], aux=2, clauses=[[-1, 3], [2, 4]], cls="pc"),
                leaf_spec(inputs=[1, 2], clauses=[[-2]], cls="pc")],
        n=2,
    )
    vm = build_varmap(g)
    ids = [sorted(vars_of(block)) for block in vm.blocks]
    assert ids == [list(range(3, 8)), list(range(8, 17)), list(range(17, 22))]
    for leaf, block in zip(g.leaves, vm.blocks):
        assert block == meta_block(leaf, min(vars_of(block)))
    assert vm.node_vars == {0: 22} and vm.num_vars == 22
    assert vm.node_lits[1:] == [-7, -16, -21]


def test_dual_rail_expansion_exact():
    # phi = {x v y}: two implication clauses plus one bot rule per variable
    leaf, block = block_for([[1, 2]], [1, 2])
    dr = dual_rail(leaf, block)
    meta, bot = block
    assert set(dr) == {
        make_clause([-meta[-2], meta[1]]),   # [[-y]] -> [[x]]
        make_clause([-meta[-1], meta[2]]),   # [[-x]] -> [[y]]
        make_clause([-meta[1], -meta[-1], bot]),
        make_clause([-meta[2], -meta[-2], bot]),
    }


def test_dual_rail_empty_formula_only_bot_rules():
    leaf, block = block_for([], [1, 2])
    dr = dual_rail(leaf, block)
    assert len(dr) == 2
    assert all(len(c) == 3 for c in dr)


def test_dual_rail_empty_clause_collapses_to_bot_unit():
    leaf, block = block_for([[]], [1])
    dr = dual_rail(leaf, block)
    assert dr == ((block[1],),)


def test_dual_rail_unit_clause_gives_unit_meta():
    leaf, block = block_for([[1]], [1])
    dr = dual_rail(leaf, block)
    assert (block[0][1],) in dr


def test_dual_rail_alien_variable_rejected():
    leaf, block = block_for([[1]], [1])
    bad = LeafEncoding(1, (1, 2), (), ((2,),), "cc")  # variable 2 has no meta in the block
    with pytest.raises(InputError):
        dual_rail(bad, block)


def test_extended_dual_rail_expansion():
    leaf, block = block_for([[1, 2]], [1, 2])
    dr = set(dual_rail(leaf, block))
    xdr = set(extended_dual_rail(leaf, block))
    meta, bot = block
    extra = {
        make_clause([-bot, meta[1]]),
        make_clause([-bot, meta[-1]]),
        make_clause([-bot, meta[2]]),
        make_clause([-bot, meta[-2]]),
        make_clause([meta[1], meta[-1]]),
        make_clause([meta[2], meta[-2]]),
    }
    assert xdr == dr | extra


def test_extended_dual_rail_counts():
    # ||phi|| + 4*|vars| exactly, unused declared variables included
    rng = random.Random(4)
    for _ in range(50):
        nv = rng.randint(1, 4)
        m = rng.randint(0, 6)
        cls = {make_clause(v if rng.random() < 0.5 else -v
                           for v in rng.sample(range(1, nv + 1), rng.randint(1, nv)))
               for _ in range(m)}
        leaf, block = block_for(sorted(cls), range(1, nv + 1))
        xdr = extended_dual_rail(leaf, block)
        assert len(xdr) == sum(map(len, leaf.clauses)) + 4 * nv


def test_extended_dual_rail_single_unit():
    leaf, block = block_for([[1]], [1])
    assert len(extended_dual_rail(leaf, block)) == 5


def test_extended_dual_rail_rejects_empty_clause():
    leaf, block = block_for([[]], [1])
    with pytest.raises(PreconditionError, match="constant-false"):
        extended_dual_rail(leaf, block)


def test_shapes_are_horn_like_and_meta_only():
    leaf, block = block_for([[1, -2], [2]], [1, 2], aux=())
    xdr = extended_dual_rail(leaf, block)
    meta_vars = vars_of(block)
    for clause in xdr:
        assert {abs(l) for l in clause} <= meta_vars
        positives = [l for l in clause if l > 0]
        # definite Horn or the positive binary totality clause
        assert len(positives) == 1 or (len(clause) == 2 and len(positives) == 2)


def test_propagation_equivalence_random():
    # phi & alpha |-1 l  <=>  DR(phi) & [[alpha]] |-1 [[l]] for l in lit u {bot}
    rng = random.Random(123)
    for _ in range(300):
        nv = rng.randint(1, 4)
        cls = sorted({
            make_clause(v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 6))
        })
        leaf, block = block_for(cls, range(1, nv + 1))
        dr = dual_rail(leaf, block)
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        lhs_units, lhs_bot = unit_closure(cls, alpha)
        meta, bot = block
        rhs_units, _ = unit_closure(dr, [meta[l] for l in alpha])
        for v in range(1, nv + 1):
            for lit in (v, -v):
                assert (lit in lhs_units) == (meta[lit] in rhs_units)
        assert lhs_bot == (bot in rhs_units)


def test_builders_match_the_make_clause_reference():
    # several leaves' blocks are chained, so later blocks start far from 1; the
    # clauses, their order and the ids must equal the reference's
    rng = random.Random(25)
    for _ in range(200):
        leaves = []
        for index in range(1, rng.randint(1, 4) + 1):
            nin, naux = rng.randint(1, 4), rng.randint(0, 2)
            inputs = sorted(rng.sample(range(1, 7), nin))
            aux = list(range(7 + 2 * index, 7 + 2 * index + naux))
            pool = inputs + aux
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(pool, rng.randint(1, min(4, len(pool))))]
                       for _ in range(rng.randint(0, 5))]
            leaves.append(make_leaf(index, inputs, aux, clauses, "cc"))
        first = rng.randint(1, 30)
        for leaf in leaves:
            block = meta_block(leaf, first)
            first = block[1] + 1
            assert dual_rail(leaf, block) == reference_dual_rail(leaf, block)
            assert extended_dual_rail(leaf, block) == reference_extended_dual_rail(leaf, block)


def test_block_matches_meta_and_bot():
    leaf = make_leaf(2, [1, 3], [5], [[1, -5], [3, 5]], "cc")
    ids, bot = meta_block(leaf, 10)
    assert list(ids) == [1, -1, 3, -3, 5, -5]
    assert list(ids.values()) == list(range(10, 16))
    assert bot == 16
