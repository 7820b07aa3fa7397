"""Graph model, validation, scopes, and brute-force semantics."""

import dataclasses
import random

import pytest

from bdmc.core import (
    CLASS_SATISFIES,
    CLASS_STRENGTH,
    Node,
    assemble_graph,
    bit_positions,
    build_graph,
    compute_scopes,
    enumerate_models,
    evaluate,
    infer_claimed_class,
    leaf_spec,
    make_clause,
    make_leaf,
    validate,
)
from bdmc.errors import BdmcError, BudgetExceededError, InputError, StructureError
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
    # decomposable and covering its inputs, or validate would raise
    assert validate(g).smooth_witness is None


def test_validate_shared_variable_under_and():
    g = build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[1], clauses=[[-1]])],
        n=1,
    )
    with pytest.raises(StructureError) as refused:
        validate(g)
    assert str(refused.value) == "graph is not decomposable; witness (node, var) = (0, 1)"


def test_validate_smoothness_witness():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[1, 2], clauses=[[1, 2]])],
        n=2,
    )
    assert validate(g).smooth_witness == (0, 1, frozenset({2}))


def test_declared_but_unused_input_is_flagged():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1]])], n=2)
    for view in (validate, lambda g: evaluate(g, {1: True, 2: True})):
        with pytest.raises(StructureError) as refused:
            view(g)
        assert str(refused.value) == "input variables [2] appear in no leaf (var(root) != x)"


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


X1 = leaf_spec(inputs=[1], clauses=[[1]])
NOT_X1 = leaf_spec(inputs=[1], clauses=[[-1]])
CYCLE = [Node("or", children=(1,)), Node("or", children=(0, 2)), Node("leaf", leaf=1)]
# id: (a call refusing a malformed sentence, its error class, its message)
REFUSALS = {
    "clause-variable-undeclared": (
        lambda: assemble_graph([Node("leaf", leaf=1)], 0, [make_leaf(1, (1,), (), [[2]])], ["x1"]),
        InputError, "leaf 1: clause variable 2 not among its inputs/aux"),
    "no-nodes": (lambda: assemble_graph([], 0, [], ["x1"]),
                 StructureError, "no nodes: sentence has no root"),
    "root-out-of-range": (lambda: build_graph([("leaf", 1)], [X1], n=1, root=3),
                          StructureError, "root id 3 out of range"),
    "leaf-indices": (
        lambda: assemble_graph([Node("leaf", leaf=2)], 0, [make_leaf(2, (1,), (), [[1]])], ["x1"]),
        StructureError, "leaf indices must be exactly 1..numLeaves"),
    "leaf-on-two-nodes": (lambda: build_graph([("or", [1, 2]), ("leaf", 1), ("leaf", 1)], [X1], n=1),
                          StructureError, "leaf 1 attached to two nodes"),
    "no-children": (lambda: build_graph([("and", [])], [], n=1),
                    StructureError, "node 0: inner node with no children"),
    "child-out-of-range": (lambda: build_graph([("or", [5])], [], n=1),
                           StructureError, "node 0: child id 5 out of range"),
    "unknown-kind": (lambda: build_graph([("xor", [1]), ("leaf", 1)], [X1], n=1),
                     StructureError, "node 0: unknown kind 'xor'"),
    "leaf-without-node": (lambda: build_graph([("leaf", 1)], [X1, NOT_X1], n=1),
                          StructureError, "leaf 2 has no node"),
    "input-undeclared": (
        lambda: build_graph([("leaf", 1)], [leaf_spec(inputs=[2], clauses=[[1]])], n=1),
        StructureError, "leaf 1: input variable 2 not declared"),
    "aux-reused": (
        lambda: assemble_graph(
            [Node("or", children=(1, 2)), Node("leaf", leaf=1), Node("leaf", leaf=2)], 0,
            [make_leaf(1, (1,), (2,), [[1, 2]]), make_leaf(2, (1,), (2,), [[-1, -2]])], ["x1"]),
        StructureError, "leaf 2: aux variable 2 reused or clashes with inputs"),
    "aux-clashes-with-input": (
        lambda: assemble_graph([Node("leaf", leaf=1)], 0, [make_leaf(1, (1,), (2,), [[1, 2]])],
                               ["x1", "x2"]),
        StructureError, "leaf 1: aux variable 2 reused or clashes with inputs"),
    "no-input-count": (lambda: build_graph([("leaf", 1)], [X1]),
                       InputError, "build_graph needs n or input_names"),
    "aux-name-count": (
        lambda: build_graph([("leaf", 1)], [leaf_spec([1], [[1]], aux=2, aux_names=["a"])], n=1),
        InputError, "leaf 1: aux name count mismatch"),
    "clause-literal-undeclared": (
        lambda: build_graph([("leaf", 1)], [leaf_spec(inputs=[1], clauses=[[2]])], n=1),
        InputError, "leaf 1: clause literal 2 not declared"),
    "cycle": (
        lambda: assemble_graph(CYCLE, 0, [make_leaf(1, (1,), (), [[1]])], ["x1"]).analysis,
        StructureError, "cycle detected through nodes [0, 1, 0]"),
    "unreachable": (
        lambda: build_graph([("leaf", 1), ("or", [0])], [X1], n=1).analysis,
        StructureError, "nodes [1] are not reachable from the root"),
    "validate-cycle": (
        lambda: validate(assemble_graph(CYCLE, 0, [make_leaf(1, (1,), (), [[1]])], ["x1"])),
        StructureError, "cycle detected through nodes [0, 1, 0]"),
    "validate-unreachable": (
        lambda: validate(build_graph([("leaf", 1), ("leaf", 2)], [X1, NOT_X1], n=1)),
        StructureError, "nodes [1] are not reachable from the root"),
    "not-decomposable": (
        lambda: build_graph([("and", [1, 2]), ("leaf", 1), ("leaf", 2)], [X1, NOT_X1], n=1)
        .analysis,
        StructureError, "graph is not decomposable; witness (node, var) = (0, 1)"),
    "missing-input": (lambda: build_graph([("leaf", 1)], [X1], n=2).analysis,
                      StructureError, "input variables [2] appear in no leaf (var(root) != x)"),
    # the missing inputs are refused before a shared variable
    "missing-input-before-not-decomposable": (
        lambda: build_graph([("and", [1, 2]), ("leaf", 1), ("leaf", 2)], [X1, NOT_X1], n=3)
        .analysis,
        StructureError, "input variables [2, 3] appear in no leaf (var(root) != x)"),
    "assignment-off-the-inputs": (lambda: evaluate(g1(), [1, -2, 3]),
                                  InputError, "assignment mentions 3, not an input variable (1..2)"),
}


@pytest.mark.parametrize("build, error, message",
                         [pytest.param(*case, id=name) for name, case in REFUSALS.items()])
def test_structural_refusals(build, error, message):
    with pytest.raises(BdmcError) as refused:
        build()
    assert type(refused.value) is error and str(refused.value) == message


def test_scopes_and_holders():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]]),
                leaf_spec(inputs=[2], clauses=[[1]])],
        n=2,
    )
    masks = compute_scopes(g)
    assert bit_positions(masks[1]) == [1]
    assert bit_positions(masks[0]) == [1, 2]
    assert [nid for nid, m in enumerate(masks) if m >> 1 & 1] == [0, 1]  # H_1


def test_scope_multi_var_leaf():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]])], n=2)
    assert bit_positions(compute_scopes(g)[0]) == [1, 2]


def test_scope_masks_hold_bit_v_for_input_v():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[3], clauses=[[1]]),
                leaf_spec(inputs=[1, 2, 3], clauses=[[1, 3]])],
        n=3,
    )
    assert compute_scopes(g) == (0b1110, 0b1000, 0b1110)
    assert validate(g).smooth_witness == (0, 1, frozenset({1, 2}))


def test_bit_positions_on_dense_and_sparse_masks():
    rng = random.Random(7)
    masks = [0, 1, 1 << 700, (1 << 64) - 1]
    for _ in range(300):
        width = rng.randint(1, 900)
        masks.append(rng.getrandbits(width))
        masks.append(sum(1 << rng.randrange(width) for _ in range(rng.randint(1, 4))))
    for mask in masks:
        assert bit_positions(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


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


def test_enumerate_models_bound_holds_once_cached():
    g = g1()
    assert enumerate_models(g) == g.models
    with pytest.raises(BudgetExceededError):
        enumerate_models(g, budget=1)


def test_enumerate_models_builds_one_engine_per_leaf(corpus, monkeypatch):
    # on a fresh copy: another test may have cached the corpus graph's models
    from bdmc import engine

    g = dataclasses.replace(next(g for g in corpus if len(g.leaves) >= 3))
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
    models = enumerate_models(g)
    assert models
    assert counts == {"builds": len(g.leaves), "brute_sat": 0}
    # the second call reads the graph's cache: no engine at all
    assert enumerate_models(g) is models
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
