"""Leveling by one pass-through node per long edge, against the stretched
leveling it replaced.

The reference below pads every reachable edge with one one-child or-node per
depth layer it skips, so that all root-to-leaf paths have the same length, and
takes one separator per depth layer.  Inside a padding chain, N1 and N3 make
every node UP-equivalent.  Substituting each chain by one representative (the
chain's parent if that parent has one child, else the chain's top node) and
dropping tautologies and duplicates must give exactly the clauses that
compile_graph emits.
"""

import json

import pytest

from bdmc import check_encoding, check_strength, compile_graph
from bdmc.core import CLASS_STRENGTH, Node, assemble_graph, bit_positions, build_graph, leaf_spec
from bdmc.encoder import TARGETS, target_spec
from bdmc.formats import emit_dimacs
from bdmc.transform import level, smooth

from conftest import parity_dnnf
from oracles import check_separator_cover, ref_merged, ref_separator_layers

COVERED = ("urc", "urc-seq", "pc")


def longest_depths(g):
    depth = [-1] * g.num_nodes
    depth[g.root] = 0
    for nid in g.analysis.order:
        for ch in g.nodes[nid].children:
            depth[ch] = max(depth[ch], depth[nid] + 1)
    return depth


def stretched_level(g):
    """The reference leveling: (graph, key of each padding node).  A padding
    node's key names its chain's representative: ("node", u) under a
    one-child parent u, else ("edge", u, c) for the edge u -> c it pads."""
    depth = longest_depths(g)
    full = max(depth[nid] for nid, nd in enumerate(g.nodes) if nd.kind == "leaf" and depth[nid] >= 0)
    target = [full if nd.kind == "leaf" else d for nd, d in zip(g.nodes, depth)]
    nodes = list(g.nodes)
    keys = {}
    for nid, nd in enumerate(g.nodes):
        if nd.kind == "leaf" or depth[nid] < 0:
            continue
        key = ("node", nid) if len(nd.children) == 1 else None
        new_children = []
        for ch in nd.children:
            below = ch
            for _ in range(target[ch] - target[nid] - 1):
                nodes.append(Node("or", children=(below,)))
                below = len(nodes) - 1
                keys[below] = key or ("edge", nid, ch)
            new_children.append(below)
        nodes[nid] = Node(nd.kind, children=tuple(new_children))
    return assemble_graph(nodes, g.root, list(g.leaves), g.input_names), keys


def depth_layers(g):
    """The reference cover of a stretched graph: S_{i,d} = nodes of H_i at
    depth d, d >= 1, merged across variables."""
    depth = longest_depths(g)
    layers = {}
    for nid, m in enumerate(g.analysis.masks):
        for v in bit_positions(m) if depth[nid] > 0 else ():
            layers.setdefault((v, depth[nid]), set()).add(nid)
    return {frozenset(s) for s in layers.values()}


def inserted_keys(g, base):
    """The key of each node level() inserted: the edge it sits on."""
    return {nid: ("edge", g.parents[nid][0], g.nodes[nid].children[0])
            for nid in range(base, g.num_nodes)}


def node_key(nid, base, keys):
    return ("node", nid) if nid < base else keys[nid]


def keyed_groups(out, base, keys):
    """Each clause group as signed variable keys: inputs and meta-variables
    by their varmap names, node variables by node_key."""
    name = {}
    for e in map(json.loads, emit_dimacs(out)[1].splitlines()):
        name[e["id"]] = node_key(e["node"], base, keys) if e["role"] == "node" else e["name"]
    return {tag: [frozenset((lit > 0, name[abs(lit)]) for lit in c) for c in clauses]
            for tag, clauses in out.groups.items()}


def tautology(clause):
    return any((not sign, key) in clause for sign, key in clause)


def assert_substitution_matches(g):
    gs = smooth(g)
    base = gs.num_nodes
    ref_graph, ref_keys = stretched_level(gs)
    depth = longest_depths(ref_graph)
    assert all(depth[ch] == depth[nid] + 1 for nid in ref_graph.analysis.order
               for ch in ref_graph.nodes[nid].children)
    assert len({depth[nid] for nid, nd in enumerate(ref_graph.nodes) if nd.kind == "leaf"}) == 1
    for target in COVERED:
        ref = compile_graph(ref_graph, target)
        assert ref.graph is ref_graph
        assert set(ref.cover.merged) == depth_layers(ref_graph)
        new = compile_graph(g, target, auto_smooth=True, auto_level=True)
        assert check_separator_cover(new.graph, ref_separator_layers(new.graph)).ok
        assert new.cover.merged == ref_merged(new.graph)
        new_keys = inserted_keys(new.graph, base)
        want = keyed_groups(ref, base, ref_keys)
        got = keyed_groups(new, base, new_keys)
        assert list(got) == list(want)
        for tag in got:
            if tag == "N5" and target_spec(target).sequential:
                continue  # ladder auxiliaries are numbered per separator
            assert len(set(got[tag])) == len(got[tag]), (target, tag)
            assert set(got[tag]) == {c for c in want[tag] if not tautology(c)}, (target, tag)
        if target_spec(target).sequential:
            assert {frozenset(node_key(nid, base, ref_keys) for nid in sep)
                    for sep in ref.cover.merged} == {
                frozenset(node_key(nid, base, new_keys) for nid in sep)
                for sep in new.cover.merged}


def test_level_matches_chain_substitution_on_corpus(corpus):
    for g in corpus:
        assert_substitution_matches(g)


@pytest.mark.parametrize("k", range(1, 21))
def test_level_matches_chain_substitution_on_parity(k):
    assert_substitution_matches(parity_dnnf(k))


def deep_chain_graph(depth=1500):
    # or(depth one-child or-nodes over L1, L2): deeper than the recursion limit
    return build_graph(
        nodes=[("or", [1, depth + 2])] + [("or", [i + 1]) for i in range(1, depth + 1)]
              + [("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")],
        n=1,
    )


def test_deep_chain_compiles_to_every_target():
    g = deep_chain_graph()
    assert level(g).num_nodes == g.num_nodes + 1
    assert stretched_level(g)[0].num_nodes == g.num_nodes + 1500
    inputs = list(g.input_vars)
    for target in TARGETS:
        out = compile_graph(g, target, auto_smooth=True, auto_level=True)
        assert out.stats.violations == []
        clauses = out.all_clauses()
        assert check_encoding(clauses, out.num_vars, inputs, g)
        style = CLASS_STRENGTH[target_spec(target).leaf_class][1]
        verdict = check_strength(clauses, out.num_vars, inputs, style)
        assert verdict.passed and verdict.mode == "exhaustive"
