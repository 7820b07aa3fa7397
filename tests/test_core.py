"""Graph model, validation, scopes, and brute-force semantics."""

import pytest

from bdmc.core import (
    CLASS_SATISFIES,
    CLASS_STRENGTH,
    build_graph,
    compute_scopes,
    enumerate_models,
    evaluate,
    infer_claimed_class,
    leaf_spec,
    make_clause,
    validate,
)
from bdmc.errors import BudgetExceededError, InputError, StructureError
from bdmc.propcheck import gen_random

from conftest import g1
from oracles import evaluate_by_subtrees, minimal_subtrees


def test_make_clause_canonical():
    assert make_clause([2, -1, 2]) == (-1, 2)
    assert make_clause([1, -2]) == (1, -2)
    with pytest.raises(InputError):
        make_clause([1, -1])
    with pytest.raises(InputError):
        make_clause([0])


def test_class_satisfies_derived_from_strength_table():
    # the literal table CLASS_SATISFIES held before it was derived
    assert CLASS_SATISFIES == {
        "cc": {"cc"},
        "dc": {"cc", "dc"},
        "urc": {"cc", "urc"},
        "pc": {"cc", "dc", "urc", "pc"},
        "literal": {"cc", "dc", "urc", "pc"},
        "true": {"cc", "dc", "urc", "pc"},
    }
    assert list(CLASS_STRENGTH) == ["pc", "urc", "dc", "cc"]  # strongest first


def test_validate_single_leaf_all_flags():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1]])], n=1)
    rep = validate(g)
    assert rep.acyclic and rep.rooted and rep.decomposable and rep.smooth
    assert rep.aux_disjoint and rep.covers_inputs
    assert rep.is_valid_bdmc


def test_validate_shared_variable_under_and():
    g = build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[1], clauses=[[-1]])],
        n=1,
    )
    rep = validate(g)
    assert not rep.decomposable
    assert rep.decomp_witness == (0, 1)


def test_validate_smoothness_witness():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[1, 2], clauses=[[1, 2]])],
        n=2,
    )
    rep = validate(g)
    assert not rep.smooth
    assert rep.smooth_witness == (0, 1, frozenset({2}))


def test_validate_cycle_witness():
    from bdmc.core import Node, assemble_graph, LeafEncoding
    nodes = [Node("or", children=(1,)), Node("or", children=(0, 2)), Node("leaf", leaf=1)]
    leaves = [LeafEncoding(1, (1,), (), ((1,),), "cc")]
    g = assemble_graph(nodes, 0, leaves, ("x1",))
    rep = validate(g)
    assert not rep.acyclic
    assert len(rep.cycle) >= 3 and rep.cycle[0] == rep.cycle[-1]


def test_validate_unreachable_warning():
    g = build_graph(
        nodes=[("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[1], clauses=[[-1]])],
        n=1,
    )
    rep = validate(g)
    assert rep.unreachable == (1,)
    assert not rep.rooted


def test_declared_but_unused_input_is_flagged():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1]])], n=2)
    rep = validate(g)
    assert not rep.covers_inputs
    assert rep.missing_inputs == (2,)
    with pytest.raises(StructureError):
        evaluate(g, {1: True, 2: True})


def test_empty_input_leaf_needs_constant():
    build_graph(nodes=[("leaf", 1)], leaves=[leaf_spec(inputs=[], clauses=[])], n=0)
    with pytest.raises(InputError):
        build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[], clauses=[[1]], aux=1)], n=0)


def test_duplicate_edge_rejected():
    with pytest.raises(StructureError):
        build_graph(
            nodes=[("or", [1, 1]), ("leaf", 1)],
            leaves=[leaf_spec(inputs=[1], clauses=[[1]])], n=1)


def test_scopes_and_holders():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[2], clauses=[[1]])],
        n=2,
    )
    sc = compute_scopes(g)
    assert sc.var(1) == frozenset({1})
    assert sc.var(0) == frozenset({1, 2})
    assert sc.h(1) == frozenset({0, 1})
    assert sc.range_of(1) == (1,)
    assert sc.range_of(-1) == (1,)


def test_scope_multi_var_leaf():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]])], n=2)
    assert compute_scopes(g).var(0) == frozenset({1, 2})


def test_evaluate_g1():
    g = g1()
    assert evaluate(g, {1: True, 2: False}) is True
    assert evaluate(g, {1: False, 2: False}) is False
    assert evaluate(g, [1, 2]) is True


def test_evaluate_requires_total_assignment():
    with pytest.raises(InputError):
        evaluate(g1(), {1: True})


def test_constant_true_leaf_always_true():
    g = build_graph(nodes=[("leaf", 1)], leaves=[leaf_spec(inputs=[1], clauses=[])], n=1)
    assert evaluate(g, {1: True}) and evaluate(g, {1: False})


def test_constant_false_leaf_no_models():
    g = build_graph(nodes=[("leaf", 1)], leaves=[leaf_spec(inputs=[1], clauses=[[]])], n=1)
    assert enumerate_models(g) == frozenset()


def test_enumerate_models_g1():
    assert enumerate_models(g1()) == frozenset({0b01, 0b10, 0b11})


def test_enumerate_models_single_literal():
    g = build_graph(nodes=[("leaf", 1)], leaves=[leaf_spec(inputs=[1], clauses=[[1]])], n=1)
    assert enumerate_models(g) == frozenset({1})


def test_enumerate_models_bound():
    g = g1()
    with pytest.raises(BudgetExceededError):
        enumerate_models(g, budget=1)


def test_enumerate_models_builds_one_engine_per_leaf(corpus, monkeypatch):
    from bdmc import engine

    g = next(g for g in corpus if len(g.leaves) >= 3)
    counts = {"builds": 0, "brute_sat": 0}
    real_engine, real_brute_sat = engine.PropEngine, engine.brute_sat

    class CountingEngine(real_engine):
        def __init__(self, *args, **kwargs):
            counts["builds"] += 1
            super().__init__(*args, **kwargs)

    def counting_brute_sat(*args, **kwargs):
        counts["brute_sat"] += 1
        return real_brute_sat(*args, **kwargs)

    monkeypatch.setattr(engine, "PropEngine", CountingEngine)
    monkeypatch.setattr(engine, "brute_sat", counting_brute_sat)
    assert enumerate_models(g)
    assert counts == {"builds": len(g.leaves), "brute_sat": 0}


def _models_by_subtrees(g):
    return frozenset(mask for mask in range(1 << g.num_inputs)
                     if evaluate_by_subtrees(g, [v if mask >> (v - 1) & 1 else -v
                                                 for v in g.input_vars]))


def test_enumerate_models_agrees_with_subtree_semantics(corpus):
    # the urc seeds give leaves with aux variables
    graphs = list(corpus) + [gen_random(n=4, max_depth=3, leaf_class="urc", seed=seed)
                             for seed in range(4)]
    for g in graphs:
        assert enumerate_models(g) == _models_by_subtrees(g)


@pytest.mark.parametrize("k", [13, 16])
def test_enumerate_models_parity_over_several_chunks(k):
    # 2^13 and 2^16 masks span 2 and 16 chunks of 2^CHUNK_BITS
    from bdmc.core import CHUNK_BITS

    from conftest import parity_dnnf

    assert k > CHUNK_BITS
    want = frozenset(m for m in range(1 << k) if bin(m).count("1") % 2 == 1)
    assert enumerate_models(parity_dnnf(k)) == want


def test_enumerate_models_budget_gate_before_any_work(monkeypatch):
    from bdmc import engine

    from conftest import parity_dnnf

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built over the budget")

    monkeypatch.setattr(engine, "PropEngine", no_engine)
    with pytest.raises(BudgetExceededError):
        enumerate_models(parity_dnnf(15), budget=(1 << 15) - 1)


def test_leaf_rejects_repeated_input_variable():
    # the parser refuses the same sentence with the same message
    with pytest.raises(InputError, match="lists an input variable twice"):
        build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1, 1, 2], clauses=[[1, 3]])], n=2)


def test_minimal_subtrees_g1():
    g = g1()
    trees = minimal_subtrees(g)
    assert sorted(map(sorted, trees)) == [[0, 1], [0, 2]]


def test_subtree_scopes_disjoint_and_partition_when_smooth():
    from bdmc.transform import smooth
    for seed in (1, 4, 9, 16):
        g = smooth(gen_random(n=5, max_depth=3, leaf_class="pc", seed=seed))
        sc = compute_scopes(g)
        for tree in minimal_subtrees(g):
            cells = [frozenset(g.leaves[g.nodes[nid].leaf - 1].input_vars)
                     for nid in tree if g.nodes[nid].kind == "leaf"]
            union = set()
            for cell in cells:
                assert not (union & cell)  # decomposability
                union |= cell
            assert union == set(g.input_vars)  # smoothness partitions x


def test_evaluate_agrees_with_subtree_semantics():
    # the urc seeds give leaves with aux variables
    runs = [("pc", seed) for seed in range(30, 38)] + [("urc", seed) for seed in range(4)]
    for leaf_class, seed in runs:
        g = gen_random(n=4, max_depth=3, leaf_class=leaf_class, seed=seed)
        if g.num_nodes > 12:
            continue
        for mask in range(1 << g.num_inputs):
            a = {v: bool(mask >> (v - 1) & 1) for v in g.input_vars}
            assert evaluate(g, a) == evaluate_by_subtrees(g, a)


def test_infer_claimed_class():
    assert infer_claimed_class((1,), (), ()) == "true"
    assert infer_claimed_class((1,), (), ((),)) == "pc"
    assert infer_claimed_class((1,), (), ((1,),)) == "literal"
    assert infer_claimed_class((1, 2), (), ((1, 2),)) == "cc"


@pytest.mark.parametrize("clauses, text, claimed", [
    ([[1], [1]], "x1 0\nx1 0\n", "literal"),
    ([[2, 1, 2], [1, 2]], "x2 x1 x2 0\nx1 x2 0\n", "cc"),
])
def test_build_graph_and_parser_make_equal_leaves(clauses, text, claimed):
    # both paths canonicalise the clauses before they infer the claimed class
    from bdmc.formats import parse_bdmc

    built = build_graph(nodes=[("leaf", 1)], leaves=[leaf_spec(inputs=[1, 2], clauses=clauses)], n=2)
    parsed = parse_bdmc("bdmc 1 0 1 2\ninputs x1 x2\nL 1\nroot 0\n"
                        f"leaf 1 inputs x1 x2 aux clauses {len(clauses)}\n" + text)
    assert built.leaves == parsed.leaves
    assert built.leaves[0].claimed_class == claimed
