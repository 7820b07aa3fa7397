"""Structure-preserving rewrites: smoothing, leveling, separator covers.

Smoothing pads or-branches with fresh constant-true leaves so every or-child
covers its parent's variable scope.  Leveling inserts pass-through one-child
or-nodes until every root-to-leaf path has the same length, which makes the
depth layers of each D_i separators and yields a separator cover; the tests
check covers against the exactly-one-hit definition (tests/oracles.py).

Every operation reads validity, scopes and depths from graph.analysis, the
memoised core.GraphAnalysis of its graph version.  A rewrite returns a new
graph version, whose analysis runs when something first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from .core import BdmcGraph, CLASS_TRUE, LeafEncoding, Node, assemble_graph
from .errors import PreconditionError


def smooth(graph: BdmcGraph) -> BdmcGraph:
    """Make every or-node smooth; returns the input unchanged if it already is.

    An or-child u missing M = var(v) - var(u) is replaced by and(u, t) where t
    is a fresh constant-true leaf over M.  The represented function, validity
    and decomposability are preserved.
    """
    scopes = graph.analysis.require_valid().scopes
    nodes = list(graph.nodes)
    leaves = list(graph.leaves)
    changed = False
    for nid in range(len(graph.nodes)):
        nd = graph.nodes[nid]
        if nd.kind != "or":
            continue
        new_children = []
        for ch in nd.children:
            missing = scopes.var(nid) - scopes.var(ch)
            if not missing:
                new_children.append(ch)
                continue
            changed = True
            index = len(leaves) + 1
            leaves.append(
                LeafEncoding(index, tuple(sorted(missing)), (), (), CLASS_TRUE, ())
            )
            leaf_nid = len(nodes)
            nodes.append(Node("leaf", leaf=index))
            wrap_nid = len(nodes)
            nodes.append(Node("and", children=(ch, leaf_nid)))
            new_children.append(wrap_nid)
        if tuple(new_children) != nd.children:
            nodes[nid] = Node("or", children=tuple(new_children))
    if not changed:
        return graph
    return assemble_graph(nodes, graph.root, leaves, graph.input_names)


def level(graph: BdmcGraph) -> BdmcGraph:
    """Stretch every edge with pass-through one-child or-nodes until all
    root-to-leaf paths have the same length; fixpoint on already-leveled input.

    The function, smoothness and decomposability are preserved; each inserted
    node later contributes one N1 and one N3 clause.
    """
    depth = graph.analysis.require_valid().depths
    leaf_ids = [nid for nid, nd in enumerate(graph.nodes) if nd.kind == "leaf" and depth[nid] >= 0]
    target = [d for d in depth]
    full = max((depth[nid] for nid in leaf_ids), default=0)
    for nid in leaf_ids:
        target[nid] = full
    nodes = list(graph.nodes)
    changed = False
    for nid, nd in enumerate(graph.nodes):
        if nd.kind == "leaf" or depth[nid] < 0:
            continue
        new_children = []
        for ch in nd.children:
            gap = target[ch] - target[nid]
            if gap <= 1:
                new_children.append(ch)
                continue
            changed = True
            below = ch
            for _ in range(gap - 1):
                nodes.append(Node("or", children=(below,)))
                below = len(nodes) - 1
            new_children.append(below)
        if tuple(new_children) != nd.children:
            nodes[nid] = Node(nd.kind, children=tuple(new_children))
    if not changed:
        return graph
    return assemble_graph(nodes, graph.root, list(graph.leaves), graph.input_names)


def is_strictly_leveled(graph: BdmcGraph) -> bool:
    """Every edge spans one level and all leaves share one; raises
    StructureError on a reachable cycle."""
    graph.analysis.topo_order()
    return graph.analysis.leveled


def _witness_paths(graph: BdmcGraph) -> tuple[list[int], list[int]]:
    """A shortest and a longest root-to-leaf path, as node id lists."""
    nodes = graph.nodes
    lo = [0] * graph.num_nodes
    hi = [0] * graph.num_nodes
    for nid in reversed(graph.analysis.order):  # children before parents
        kids = nodes[nid].children
        if kids:
            lo[nid] = 1 + min(lo[c] for c in kids)
            hi[nid] = 1 + max(hi[c] for c in kids)

    def walk(heights, sign):
        path = [graph.root]
        while nodes[path[-1]].kind != "leaf":
            path.append(min(nodes[path[-1]].children, key=lambda c: sign * heights[c]))
        return path

    return walk(lo, 1), walk(hi, -1)


@dataclass(frozen=True)
class SeparatorCover:
    """Per input variable, separators of D_i; plus the merged deduplicated family.

    Every S is a set of node ids hitting each root-to-leaf path of D_i exactly
    once; the union of a variable's separators is H_i minus the root (the
    {root} separator exists but is dropped, the encodings never need it).
    """

    per_var: tuple[tuple[frozenset[int], ...], ...]
    merged: tuple[frozenset[int], ...]

    @property
    def total_size(self) -> int:
        """t = sum of |S| over the merged family."""
        return sum(len(s) for s in self.merged)


def separator_cover(graph: BdmcGraph) -> SeparatorCover:
    """Depth-layer separators of a strictly leveled graph.

    S_{i,d} = nodes of H_i at depth d, for d = 1..L; empty layers and the
    d = 0 layer {root} are dropped; duplicates across variables are merged.
    The layers come from one sweep over (node, depth, var(node)).
    """
    a = graph.analysis.require_valid()
    if not a.leveled:
        short, long_ = _witness_paths(graph)
        raise PreconditionError(
            "graph is not strictly leveled: root-to-leaf paths "
            f"{short} and {long_} have different lengths; run level() first"
        )
    layers: dict[tuple[int, int], list[int]] = {}
    for nid, (d, vs) in enumerate(zip(a.depths, a.scopes.var_sets)):
        if d > 0:
            for v in vs:
                layers.setdefault((v, d), []).append(nid)
    per_var: list[list[frozenset[int]]] = [[] for _ in graph.input_vars]
    for v, d in sorted(layers):
        per_var[v - 1].append(frozenset(layers[v, d]))
    merged = dict.fromkeys(sep for seps in per_var for sep in seps)
    return SeparatorCover(tuple(map(tuple, per_var)), tuple(merged))

