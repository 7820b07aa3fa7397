"""The fused structural pass: analyze() against reference walks, and one
analysis per graph version, memoised as graph.analysis."""

import heapq
import sys

import pytest

from bdmc import compile_graph
from bdmc import core
from bdmc.core import (
    analyze,
    bit_positions,
    build_graph,
    compute_scopes,
    leaf_spec,
    topo_order,
    validate,
)
from bdmc.encoder import TARGETS
from bdmc.errors import StructureError
from bdmc.formats import parse_bdmc, serialize_bdmc
from bdmc.transform import is_layered, level, separator_cover, smooth

from conftest import parity_dnnf
from oracles import ref_merged

# ---------------------------------------------------------------------------
# reference semantics: one independent walk per property, the oracle for the
# fused pass


def ref_reachable(g):
    seen, todo = {g.root}, [g.root]
    while todo:
        for ch in g.nodes[todo.pop()].children:
            if ch not in seen:
                seen.add(ch)
                todo.append(ch)
    return seen


def ref_topo_order(g):
    reach = ref_reachable(g)
    indeg = {nid: 0 for nid in reach}
    for nid in reach:
        for ch in g.nodes[nid].children:
            indeg[ch] += 1
    heap = sorted(nid for nid, d in indeg.items() if d == 0)
    order = []
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        for ch in g.nodes[nid].children:
            indeg[ch] -= 1
            if indeg[ch] == 0:
                heapq.heappush(heap, ch)
    if len(order) != len(reach):
        raise StructureError("cycle")
    return order


def ref_cycle(g):
    color = [0] * g.num_nodes

    def dfs(nid, path):
        color[nid] = 1
        path.append(nid)
        for ch in g.nodes[nid].children:
            if color[ch] == 1:
                return tuple(path[path.index(ch):]) + (ch,)
            if color[ch] == 0:
                found = dfs(ch, path)
                if found:
                    return found
        path.pop()
        color[nid] = 2
        return ()

    for start in range(g.num_nodes):
        if not color[start]:
            found = dfs(start, [])
            if found:
                return found
    return ()


def ref_scopes(g):
    var_sets = [frozenset()] * g.num_nodes
    for nid in reversed(ref_topo_order(g)):
        nd = g.nodes[nid]
        if nd.kind == "leaf":
            var_sets[nid] = frozenset(g.leaves[nd.leaf - 1].input_vars)
        else:
            acc = set()
            for ch in nd.children:
                acc |= var_sets[ch]
            var_sets[nid] = frozenset(acc)
    holders = tuple(frozenset(nid for nid in range(g.num_nodes) if v in var_sets[nid])
                    for v in g.input_vars)
    return tuple(var_sets), holders


def scope_facts(g):
    """compute_scopes(g) read as ref_scopes returns it: var(v) per node and
    H_v per input."""
    masks = compute_scopes(g)
    return (tuple(frozenset(bit_positions(m)) for m in masks),
            tuple(frozenset(nid for nid, m in enumerate(masks) if m >> v & 1)
                  for v in g.input_vars))


def ref_refusal(g):
    """The message analyze() refuses g with: a cycle first, then the nodes
    the root does not reach, the inputs in no leaf, and the first and-node
    whose children share a variable; None for a valid BDMC."""
    cycle = ref_cycle(g)
    if cycle:
        return f"cycle detected through nodes {list(cycle)}"
    unreachable = sorted(set(range(g.num_nodes)) - ref_reachable(g))
    if unreachable:
        return f"nodes {unreachable} are not reachable from the root"
    var_sets = ref_scopes(g)[0]
    missing = sorted(set(g.input_vars) - var_sets[g.root])
    if missing:
        return f"input variables {missing} appear in no leaf (var(root) != x)"
    for nid, nd in enumerate(g.nodes):
        if nd.kind == "and":
            taken = {}
            for ch in nd.children:
                for v in sorted(var_sets[ch]):
                    if v in taken and taken[v] != ch:
                        return f"graph is not decomposable; witness (node, var) = {(nid, v)}"
                    taken.setdefault(v, ch)
    return None


def ref_smooth_witness(g):
    """The first or-node, its first child missing part of its scope, and
    that part; None for a smooth graph."""
    var_sets = ref_scopes(g)[0]
    for nid, nd in enumerate(g.nodes):
        if nd.kind == "or":
            for ch in nd.children:
                gap = var_sets[nid] - var_sets[ch]
                if gap:
                    return nid, ch, frozenset(gap)
    return None


def ref_depths(g):
    depth = [-1] * g.num_nodes
    depth[g.root] = 0
    for nid in ref_topo_order(g):
        for ch in g.nodes[nid].children:
            depth[ch] = max(depth[ch], depth[nid] + 1)
    return depth


def ref_spans(g):
    """(starts, ends, layered): leaves start at the deepest leaf depth, a
    one-child node ends one layer above its child, a multi-child node's
    children must start one layer below it."""
    starts = ref_depths(g)
    reach = ref_reachable(g)
    leaves = [nid for nid in reach if g.nodes[nid].kind == "leaf"]
    full = max(starts[nid] for nid in leaves)
    for nid in leaves:
        starts[nid] = full
    ends = list(starts)
    layered = True
    for nid in reach:
        kids = g.nodes[nid].children
        if len(kids) == 1:
            ends[nid] = starts[kids[0]] - 1
        for ch in kids if len(kids) > 1 else ():
            layered = layered and starts[ch] == starts[nid] + 1
    return starts, ends, layered


# ---------------------------------------------------------------------------
# graphs the corpus does not cover

LIT = leaf_spec(inputs=[1], clauses=[[1]], cls="pc")
NEG = leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")
LIT2 = leaf_spec(inputs=[2], clauses=[[1]], cls="pc")
BOTH = leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")

ODD_GRAPHS = {
    "cycle": build_graph(
        nodes=[("or", [1]), ("and", [2, 3]), ("or", [1]), ("leaf", 1)], leaves=[LIT], n=1),
    "cycle_through_root": build_graph(
        nodes=[("and", [1, 2]), ("or", [0]), ("leaf", 1)], leaves=[LIT], n=1),
    # reached leaf node 1 has the unreached parent 2
    "unreachable": build_graph(
        nodes=[("or", [1, 4]), ("leaf", 1), ("and", [1, 3]), ("leaf", 2), ("leaf", 3)],
        leaves=[LIT, LIT2, NEG], n=2),
    # a cycle among unreached nodes comes before their reachability
    "cycle_among_unreachable": build_graph(
        nodes=[("or", [1]), ("leaf", 1), ("or", [3]), ("and", [2, 4]), ("leaf", 2)],
        leaves=[LIT, LIT2], n=2),
    # nodes 3 and 4 are not reached, and the children of and-node 3 share x1
    "unreached_not_decomposable": build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2), ("and", [1, 2]), ("or", [1, 2])],
        leaves=[LIT, NEG], n=1),
    "not_decomposable": build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)], leaves=[LIT, NEG], n=1),
    "not_smooth_not_leveled": build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
        leaves=[LIT, NEG, LIT2], n=2),
    "missing_input": build_graph(nodes=[("leaf", 1)], leaves=[LIT], n=2),
    # node 1 is decomposable; the later and-nodes 4 and 7 have two children
    # over {1, 2}, and 4 is the witness
    "later_and_shares_two_vars": build_graph(
        nodes=[("or", [1, 4, 7]), ("and", [2, 3]), ("leaf", 1), ("leaf", 2),
               ("and", [5, 6]), ("leaf", 3), ("leaf", 4), ("and", [6, 5])],
        leaves=[LIT, LIT2, BOTH, BOTH], n=2),
    # the second child of or-node 0 misses x2; or-node 1 fails too, later
    "or_second_child_misses": build_graph(
        nodes=[("or", [1, 2]), ("or", [3, 4]), ("leaf", 2), ("leaf", 1), ("leaf", 3)],
        leaves=[BOTH, LIT, LIT2], n=2),
    # one leaf depth, but the edge 0 -> 2 spans two levels
    "skip_edge": build_graph(
        nodes=[("or", [1, 2]), ("or", [2]), ("and", [3]), ("leaf", 1)], leaves=[LIT], n=1),
}


# the message analyze() refuses each odd graph that is not a valid BDMC with
REFUSALS = {
    "cycle": "cycle detected through nodes [1, 2, 1]",
    "cycle_through_root": "cycle detected through nodes [0, 1, 0]",
    "unreachable": "nodes [2, 3] are not reachable from the root",
    "cycle_among_unreachable": "cycle detected through nodes [2, 3, 2]",
    "unreached_not_decomposable": "nodes [3, 4] are not reachable from the root",
    "not_decomposable": "graph is not decomposable; witness (node, var) = (0, 1)",
    "missing_input": "input variables [2] appear in no leaf (var(root) != x)",
    "later_and_shares_two_vars": "graph is not decomposable; witness (node, var) = (4, 1)",
}

# analyze and every view of it
VIEWS = (analyze, validate, compute_scopes, topo_order, is_layered, lambda g: g.analysis)


def assert_agrees(g):
    refusal = ref_refusal(g)
    if refusal is not None:
        for view in VIEWS:
            with pytest.raises(StructureError) as refused:
                view(g)
            assert type(refused.value) is StructureError and str(refused.value) == refusal
        return
    a = analyze(g)
    assert validate(g) == a and a.smooth_witness == ref_smooth_witness(g)
    assert topo_order(g) == list(a.order) == ref_topo_order(g)
    assert scope_facts(g) == ref_scopes(g)
    assert a.masks == tuple(sum(1 << x for x in vs) for vs in ref_scopes(g)[0])
    assert (list(a.starts), list(a.ends), a.layered) == ref_spans(g)
    if a.layered:
        assert separator_cover(g).merged == ref_merged(g)


@pytest.mark.parametrize("name", sorted(ODD_GRAPHS))
def test_analyze_agrees_on_odd_graphs(name):
    assert ref_refusal(ODD_GRAPHS[name]) == REFUSALS.get(name)
    assert_agrees(ODD_GRAPHS[name])


def test_analyze_witnesses_on_odd_graphs():
    # the decomposability witnesses are pinned by the refusal texts (REFUSALS)
    assert not analyze(ODD_GRAPHS["skip_edge"]).layered
    assert analyze(ODD_GRAPHS["not_smooth_not_leveled"]).smooth_witness == (
        0, 1, frozenset({2}))
    assert analyze(ODD_GRAPHS["or_second_child_misses"]).smooth_witness == (
        0, 2, frozenset({2}))


def test_decomp_witness_is_the_least_shared_variable():
    # and-node 0's first two children both hold x1 and x9; iterating
    # frozenset({1, 9}) meets 9 first, the witness names the least shared
    # variable (leaf 4 holds the other inputs, so none is missing)
    g = build_graph(
        nodes=[("and", [1, 2, 5]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3),
               ("leaf", 4)],
        leaves=[leaf_spec(inputs=[1, 9], clauses=[[1, 2]], cls="pc"),
                leaf_spec(inputs=[9], clauses=[[1]], cls="pc"), LIT,
                leaf_spec(inputs=range(2, 9), clauses=[[1]], cls="pc")],
        n=9)
    assert ref_refusal(g) == "graph is not decomposable; witness (node, var) = (0, 1)"
    assert_agrees(g)


def test_analyze_agrees_on_leveled_parity():
    g = level(parity_dnnf(20))
    assert g.analysis.layered
    assert_agrees(g)


def test_cover_merges_per_var_in_order(corpus):
    # the reference layers of each variable, deduplicated in order over the
    # variables; a layer-major order differs on most corpus graphs
    for g in list(corpus) + [parity_dnnf(20)]:
        gl = level(smooth(g))
        assert separator_cover(gl).merged == ref_merged(gl)


def test_analyze_agrees_on_corpus(corpus):
    for g in list(corpus) + [parity_dnnf(6)]:
        assert_agrees(g)
        gs = smooth(g)
        assert_agrees(gs)
        assert_agrees(level(gs))


def test_smooth_pads_the_reference_gap(corpus):
    """Each pad leaf smooth() adds covers var(v) - var(ch) of the or-edge it
    sits on, by the reference scopes of the unsmoothed graph."""
    graphs = [g for g in corpus if validate(g).smooth_witness is not None]
    assert graphs
    for g in graphs:
        var_sets = ref_scopes(g)[0]
        gs = smooth(g)
        pads = {}
        for nid, nd in enumerate(g.nodes):
            if nd.kind != "or":
                continue
            for ch, new in zip(nd.children, gs.nodes[nid].children):
                if new != ch:
                    wrap = gs.nodes[new]
                    assert wrap.kind == "and" and wrap.children[0] == ch
                    pads[nid, ch] = gs.leaves[gs.nodes[wrap.children[1]].leaf - 1].input_vars
        assert pads
        assert pads == {(nid, ch): tuple(sorted(var_sets[nid] - var_sets[ch]))
                        for nid, nd in enumerate(g.nodes) if nd.kind == "or"
                        for ch in nd.children if var_sets[nid] - var_sets[ch]}


# ---------------------------------------------------------------------------
# each graph version is analysed exactly once


@pytest.fixture()
def analyses(monkeypatch):
    """Every graph passed to analyze(), wherever the package calls it from."""
    seen = []
    real = core.analyze

    def counting(graph):
        seen.append(graph)
        return real(graph)

    for name, mod in list(sys.modules.items()):
        if (name == "bdmc" or name.startswith("bdmc.")) and getattr(mod, "analyze", None) is real:
            monkeypatch.setattr(mod, "analyze", counting)
    return seen


def test_compile_analyses_each_version_once(analyses):
    out = compile_graph(parity_dnnf(20), "pc", auto_level=True)
    # the given graph (already smooth) and its leveled version
    assert len(analyses) == 2 and analyses[0] is not analyses[1]
    assert analyses[-1] is out.graph


def test_compile_analyses_smoothed_and_leveled_versions_once(corpus, analyses):
    # a fresh copy: the session's corpus graphs already hold their analysis
    g = parse_bdmc(serialize_bdmc(next(g for g in corpus
                                       if validate(g).smooth_witness is not None)))
    analyses.clear()
    out = compile_graph(g, "urc", auto_smooth=True, auto_level=True)
    assert len(analyses) == 3 and len({id(x) for x in analyses}) == 3
    assert analyses[0] is g and analyses[-1] is out.graph


def test_one_graph_to_every_target_is_analysed_once(analyses):
    g = parity_dnnf(8)
    for target in TARGETS:
        compile_graph(g, target, auto_level=True)
    assert sum(x is g for x in analyses) == 1
