"""The fused structural pass: analyze() against reference walks, and one
analysis per graph version, memoised as graph.analysis."""

import heapq
import sys

import pytest

from bdmc import compile_graph
from bdmc import core
from bdmc.core import (
    ValidationReport,
    analyze,
    build_graph,
    compute_scopes,
    leaf_spec,
    topo_order,
    validate,
)
from bdmc.encoder import TARGETS
from bdmc.errors import StructureError
from bdmc.formats import parse_bdmc, serialize_bdmc
from bdmc.transform import level, separator_cover, smooth

from conftest import parity_dnnf

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
    if ref_cycle(g):
        raise StructureError("cycle")
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
    ranges = tuple(tuple(lf.index for lf in g.leaves if v in lf.input_vars)
                   for v in g.input_vars)
    return tuple(var_sets), holders, ranges


def scope_facts(g):
    """compute_scopes(g) as ref_scopes returns it, H_v included."""
    sc = compute_scopes(g)
    return sc.var_sets, tuple(sc.h(v) for v in g.input_vars), sc.ranges


def ref_validate(g):
    cycle = ref_cycle(g)
    unreachable = tuple(sorted(set(range(g.num_nodes)) - ref_reachable(g)))
    fields = dict(acyclic=not cycle, rooted=not unreachable, decomposable=False, smooth=False,
                  covers_inputs=False, cycle=cycle, unreachable=unreachable)
    if cycle:
        return ValidationReport(**fields)
    var_sets = ref_scopes(g)[0]
    decomp = smooth_w = None
    for nid, nd in enumerate(g.nodes):
        if nd.kind == "and":
            taken = {}
            for ch in nd.children:
                for v in var_sets[ch]:
                    if v in taken and taken[v] != ch:
                        decomp = decomp or (nid, v)
                    taken.setdefault(v, ch)
    for nid, nd in enumerate(g.nodes):
        if nd.kind == "or":
            for ch in nd.children:
                gap = var_sets[nid] - var_sets[ch]
                if gap:
                    smooth_w = smooth_w or (nid, ch, frozenset(gap))
    missing = tuple(sorted(set(g.input_vars) - var_sets[g.root]))
    fields.update(decomposable=decomp is None, smooth=smooth_w is None,
                  covers_inputs=not missing, decomp_witness=decomp,
                  smooth_witness=smooth_w, missing_inputs=missing)
    return ValidationReport(**fields)


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


def ref_separator_layers(g):
    starts, ends, _ = ref_spans(g)
    holders = ref_scopes(g)[1]
    return tuple(
        tuple(dict.fromkeys(layer for layer in (
            frozenset(nid for nid in holders[v - 1] if starts[nid] <= d <= ends[nid])
            for d in range(1, max(ends) + 1)) if layer))
        for v in g.input_vars
    )


def node_spans(g):
    a = g.analysis
    a.topo_order()  # raises where a reachable cycle leaves the spans undefined
    return list(a.starts), list(a.ends), a.layered


def outcome(fn, g):
    try:
        return fn(g)
    except StructureError:
        return StructureError


# ---------------------------------------------------------------------------
# graphs the corpus does not cover

LIT = leaf_spec(inputs=[1], clauses=[[1]], cls="pc")
NEG = leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")
LIT2 = leaf_spec(inputs=[2], clauses=[[1]], cls="pc")

ODD_GRAPHS = {
    "cycle": build_graph(
        nodes=[("or", [1]), ("and", [2, 3]), ("or", [1]), ("leaf", 1)], leaves=[LIT], n=1),
    "cycle_through_root": build_graph(
        nodes=[("and", [1, 2]), ("or", [0]), ("leaf", 1)], leaves=[LIT], n=1),
    "unreachable": build_graph(
        nodes=[("or", [1, 4]), ("leaf", 1), ("and", [1, 3]), ("leaf", 2), ("leaf", 3)],
        leaves=[LIT, LIT2, NEG], n=2),
    "cycle_among_unreachable": build_graph(
        nodes=[("or", [1]), ("leaf", 1), ("or", [3]), ("and", [2, 4]), ("leaf", 2)],
        leaves=[LIT, LIT2], n=2),
    "not_decomposable": build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)], leaves=[LIT, NEG], n=1),
    "not_smooth_not_leveled": build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
        leaves=[LIT, NEG, LIT2], n=2),
    "missing_input": build_graph(nodes=[("leaf", 1)], leaves=[LIT], n=2),
    # one leaf depth, but the edge 0 -> 2 spans two levels
    "skip_edge": build_graph(
        nodes=[("or", [1, 2]), ("or", [2]), ("and", [3]), ("leaf", 1)], leaves=[LIT], n=1),
}


def assert_agrees(g):
    a = analyze(g)
    assert a.report == ref_validate(g) == validate(g)
    assert outcome(topo_order, g) == outcome(ref_topo_order, g)
    assert outcome(scope_facts, g) == outcome(ref_scopes, g)
    assert outcome(node_spans, g) == outcome(ref_spans, g)
    if a.order is not None:
        assert list(a.order) == ref_topo_order(g)
    if a.layered and a.report.is_valid_bdmc:
        assert separator_cover(g).per_var == ref_separator_layers(g)


@pytest.mark.parametrize("name", sorted(ODD_GRAPHS))
def test_analyze_agrees_on_odd_graphs(name):
    assert_agrees(ODD_GRAPHS[name])


def test_analyze_witnesses_on_odd_graphs():
    assert analyze(ODD_GRAPHS["cycle"]).report.cycle == (1, 2, 1)
    assert analyze(ODD_GRAPHS["cycle_among_unreachable"]).order == (0, 1)
    rep = analyze(ODD_GRAPHS["unreachable"]).report
    assert rep.unreachable == (2, 3) and rep.acyclic and not rep.rooted
    assert analyze(ODD_GRAPHS["not_decomposable"]).report.decomp_witness == (0, 1)
    assert not analyze(ODD_GRAPHS["skip_edge"]).layered
    assert analyze(ODD_GRAPHS["not_smooth_not_leveled"]).report.smooth_witness == (
        0, 1, frozenset({2}))


def test_analyze_agrees_on_corpus(corpus):
    for g in list(corpus) + [parity_dnnf(6)]:
        assert_agrees(g)
        gs = smooth(g)
        assert_agrees(gs)
        assert_agrees(level(gs))


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
    g = parse_bdmc(serialize_bdmc(next(g for g in corpus if not validate(g).smooth)))
    analyses.clear()
    out = compile_graph(g, "urc", auto_smooth=True, auto_level=True)
    assert len(analyses) == 3 and len({id(x) for x in analyses}) == 3
    assert analyses[0] is g and analyses[-1] is out.graph


def test_one_graph_to_every_target_is_analysed_once(analyses):
    g = parity_dnnf(8)
    for target in TARGETS:
        compile_graph(g, target, auto_level=True)
    assert sum(x is g for x in analyses) == 1
