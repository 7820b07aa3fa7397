"""Smoothing, leveling, separator covers and their checker."""

import pytest

from bdmc.core import build_graph, enumerate_models, leaf_spec, validate
from bdmc.errors import PreconditionError
from bdmc.propcheck import gen_random
from bdmc.transform import is_layered, level, separator_cover, smooth

from conftest import g1, parity_dnnf
from oracles import (
    assert_assembled, check_separator_cover, holders, ref_merged, ref_separator_layers)


def or_of_unbalanced():
    # or(L1 over {x1}, L2 over {x1,x2}): not smooth
    return build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")],
        n=2,
    )


def test_smooth_fixpoint_on_smooth_graph():
    g = g1()
    assert smooth(g) is g


def test_smooth_pads_with_true_leaf():
    g = or_of_unbalanced()
    gs = smooth(g)
    assert validate(gs).smooth_witness is None  # valid, or validate would raise, and smooth
    # the thin branch became and(L1, true-leaf over {x2})
    wrap = gs.nodes[gs.nodes[0].children[0]]
    assert wrap.kind == "and"
    pad = gs.leaves[gs.nodes[wrap.children[1]].leaf - 1]
    assert pad.is_constant_true
    assert pad.input_vars == (2,)
    assert pad.claimed_class == "true"
    assert enumerate_models(gs) == enumerate_models(g)


def test_level_fixpoint():
    g = g1()
    gl = level(g)
    assert gl is g


def test_level_inserts_single_passthrough():
    # or(L1, and(L2, L3)): leaf depths 1 and 2
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc")],
        n=2,
    )
    assert not is_layered(g)
    gl = level(g)
    assert is_layered(gl)
    assert gl.num_nodes == g.num_nodes + 1
    inserted = gl.nodes[gl.nodes[0].children[0]]
    assert inserted.kind == "or" and len(inserted.children) == 1
    assert enumerate_models(gl) == enumerate_models(g)
    assert validate(gl).smooth_witness is None


def test_level_edges_span_one_level():
    # every edge spans one layer: a multi-child node's children start right
    # below it, and a one-child node spans down to its child; each edge of a
    # multi-child node that skipped layers got exactly one pass-through node
    for seed in (3, 7, 21):
        gs = smooth(gen_random(n=5, max_depth=3, leaf_class="pc", seed=seed))
        long_edges = sum(gs.analysis.starts[ch] > gs.analysis.starts[nid] + 1
                         for nid in gs.analysis.order if len(gs.nodes[nid].children) > 1
                         for ch in gs.nodes[nid].children)
        g = level(gs)
        assert g.num_nodes == gs.num_nodes + long_edges
        a = g.analysis
        assert a.starts[:gs.num_nodes] == gs.analysis.starts
        for nid in a.order:
            for ch in g.nodes[nid].children:
                assert a.starts[ch] == a.ends[nid] + 1
        for nid in range(gs.num_nodes, g.num_nodes):
            assert g.nodes[nid].kind == "or" and len(g.nodes[nid].children) == 1
            assert len(g.nodes[g.parents[nid][0]].children) > 1


def test_transforms_preserve_models():
    for seed in range(10):
        g = gen_random(n=6, max_depth=3, leaf_class="pc", seed=60 + seed)
        want = enumerate_models(g)
        gs = smooth(g)
        gl = level(gs)
        assert enumerate_models(gs) == want
        assert enumerate_models(gl) == want


def test_rewrites_build_what_assemble_graph_builds(corpus):
    # smooth and level append to a checked graph without assemble_graph
    graphs = list(corpus) + [parity_dnnf(20)]
    assert any(smooth(g) is not g for g in graphs) and any(level(g) is not g for g in graphs)
    for g in graphs:
        for rewritten in (smooth(g), level(g), level(smooth(g))):
            assert_assembled(rewritten)


def test_separator_cover_g1():
    g = g1()
    cov = separator_cover(g)
    assert ref_separator_layers(g) == ((frozenset({1, 2}),), (frozenset({1, 2}),))
    assert cov.merged == (frozenset({1, 2}),)
    assert cov.total_size == 2


def test_separator_cover_single_leaf_empty():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc")], n=1)
    assert separator_cover(g).merged == ()
    assert check_separator_cover(g, ref_separator_layers(g)).ok


def test_separator_cover_chain():
    g = build_graph(nodes=[("or", [1]), ("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc")], n=1)
    cov = separator_cover(g)
    assert cov.merged == (frozenset({1}),)


def test_separator_cover_requires_leveling():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc")],
        n=2,
    )
    with pytest.raises(PreconditionError,
                       match=r"not layered: the edge 0 -> 1 .* spans 2 layers.*paths \[0, 1\] and \[0, 2, 3\]"):
        separator_cover(g)


def test_separator_cover_rejects_deep_unleveled_chain():
    # or(1500 one-child or-nodes over L1, L2): deeper than the recursion limit
    depth = 1500
    g = build_graph(
        nodes=[("or", [1, depth + 2])] + [("or", [i + 1]) for i in range(1, depth + 1)]
              + [("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")],
        n=1,
    )
    with pytest.raises(PreconditionError,
                       match=rf"paths \[0, {depth + 2}\] and \[0, 1, 2, .*, {depth + 1}\]"):
        separator_cover(g)


def test_check_separator_cover_deep_leveled_chain():
    # a strictly leveled chain of 1500 one-child or-nodes: deeper than the recursion limit
    depth = 1500
    g = build_graph(
        nodes=[("or", [i + 1]) for i in range(depth)] + [("leaf", 1)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc")],
        n=1,
    )
    assert len(separator_cover(g).merged) == depth
    assert separator_cover(g).merged == ref_merged(g)
    assert check_separator_cover(g, ref_separator_layers(g)).ok


def test_cover_roundtrip_random():
    for seed in range(20):
        g = level(smooth(gen_random(n=5, max_depth=3, leaf_class="pc", seed=300 + seed)))
        per_var = ref_separator_layers(g)
        assert check_separator_cover(g, per_var).ok
        assert separator_cover(g).merged == ref_merged(g)
        # per-variable union covers H_i minus the root
        for v in g.input_vars:
            seps = per_var[v - 1]
            union = frozenset().union(*seps) if seps else frozenset()
            assert union == holders(g, v) - {g.root}
            assert len(set(seps)) == len(seps)


def test_cover_mutation_detected():
    g = level(smooth(gen_random(n=5, max_depth=3, leaf_class="pc", seed=300)))
    cov = separator_cover(g)
    big = max(cov.merged, key=len)
    assert len(big) >= 2
    shrunk = frozenset(sorted(big)[:-1])
    bad = tuple(tuple(shrunk if s == big else s for s in svar) for svar in ref_separator_layers(g))
    res = check_separator_cover(g, bad)
    assert not res.ok
    assert res.bad_path is not None or res.uncovered is not None


def test_empty_cover_uncovered_witness():
    g = g1()
    res = check_separator_cover(g, ((), ()))
    assert not res.ok
    assert res.uncovered is not None
    var, node = res.uncovered
    assert node != g.root


def test_merged_separator_rejected():
    # chain or -> and -> leaves: merging the depth layers breaks exactly-one
    g = build_graph(
        nodes=[("or", [1]), ("and", [2, 3]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[1]], cls="pc")],
        n=2,
    )
    merged_sep = frozenset({1, 2})  # and-node with its own child leaf
    res = check_separator_cover(g, ((merged_sep,), ref_separator_layers(g)[1]))
    assert not res.ok
    assert res.bad_path == (0, 1, 2)
