"""Structure-preserving rewrites: smoothing, leveling, separator covers.

Smoothing pads or-branches with fresh constant-true leaves so every or-child
covers its parent's variable scope.  Leveling makes a graph layered
(core.GraphAnalysis): one pass-through one-child or-node on each edge that
leaves a multi-child node and skips a depth layer.  A one-child node spans
every layer from its own start down to its child's, so the layers of each
root-to-leaf path tile 0..L, which makes the depth layers of each D_i
separators; the cover is their family merged across the variables.  The
tests check it against the layer definition and the exactly-one-hit checker
(tests/oracles.py).  The cover takes a number of bitmask operations that
grows with the graph's edges and its separators' entries, not with layers
times inputs: a variable is visited only at the layers where its separator
changes.

Every operation reads scope masks and layer spans from graph.analysis, the
memoised core.GraphAnalysis of its graph version, which refuses a graph that
is not a valid BDMC.  A rewrite only appends to a checked graph and returns
the new version by dataclasses.replace; its analysis runs when something
first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import BdmcGraph, CLASS_TRUE, LeafEncoding, Node, bit_positions
from .errors import PreconditionError


def smooth(graph: BdmcGraph) -> BdmcGraph:
    """Make every or-node smooth; returns the input unchanged if it already is.

    An or-child u missing M = var(v) - var(u) is replaced by and(u, t) where t
    is a fresh constant-true leaf over M.  The represented function, validity
    and decomposability are preserved.
    """
    masks = graph.analysis.masks
    nodes = list(graph.nodes)
    leaves = list(graph.leaves)
    changed = False
    for nid in range(len(graph.nodes)):
        nd = graph.nodes[nid]
        if nd.kind != "or":
            continue
        new_children = []
        for ch in nd.children:
            missing = masks[nid] & ~masks[ch]
            if not missing:
                new_children.append(ch)
                continue
            changed = True
            index = len(leaves) + 1
            leaves.append(
                LeafEncoding(index, tuple(bit_positions(missing)), (), (), CLASS_TRUE, ())
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
    return replace(graph, nodes=tuple(nodes), leaves=tuple(leaves))


def level(graph: BdmcGraph) -> BdmcGraph:
    """Make the graph layered: put one pass-through one-child or-node on
    every edge that leaves a multi-child node and skips a layer; fixpoint on
    layered input.

    Every node keeps its start layer (see core.GraphAnalysis), and the
    inserted node spans the layers its edge skips.  An edge out of a
    one-child node needs no insertion: that node already spans down to its
    child.  The function, smoothness and decomposability are preserved;
    each inserted node later contributes one N1 and one N3 clause.
    """
    starts = graph.analysis.starts
    nodes = list(graph.nodes)
    for nid, nd in enumerate(graph.nodes):
        if len(nd.children) < 2:
            continue
        new_children = []
        for ch in nd.children:
            if starts[ch] - starts[nid] > 1:
                nodes.append(Node("or", children=(ch,)))
                ch = len(nodes) - 1
            new_children.append(ch)
        nodes[nid] = Node(nd.kind, children=tuple(new_children))
    if len(nodes) == graph.num_nodes:
        return graph
    return replace(graph, nodes=tuple(nodes))


def is_layered(graph: BdmcGraph) -> bool:
    """Every child of every multi-child node starts one layer below it."""
    return graph.analysis.layered


def _layer_witness(graph: BdmcGraph) -> str:
    """The first edge out of a multi-child node that skips a layer, with a
    longest root path to each of its ends (to the deepest leaf, for a leaf)."""
    nodes, starts = graph.nodes, graph.analysis.starts

    def root_path(nid):
        path = [nid]
        while path[-1] != graph.root:
            path.append(max(graph.parents[path[-1]], key=starts.__getitem__))
        return path[::-1]

    u, c = next((nid, ch) for nid in graph.analysis.order if len(nodes[nid].children) > 1
                for ch in nodes[nid].children if starts[ch] != starts[nid] + 1)
    deep = c if nodes[c].kind != "leaf" else max(
        (x for x in graph.analysis.order if nodes[x].kind == "leaf"),
        key=lambda x: max(starts[p] for p in graph.parents[x]))
    return (f"the edge {u} -> {c} out of a multi-child node spans"
            f" {starts[c] - starts[u]} layers, not one (paths {root_path(u) + [c]}"
            f" and {root_path(deep)})")


@dataclass(frozen=True)
class SeparatorCover:
    """The distinct layer separators of every D_i, merged across the input
    variables, ordered by the least (variable, layer) at which each occurs.

    Every S is a set of node ids hitting each root-to-leaf path of some D_i
    exactly once; the separators of variable i cover H_i minus the root (the
    layer-0 separator {root} exists but is dropped, the encodings never need
    it), or all of H_i where a one-child root spans further layers.
    """

    merged: tuple[frozenset[int], ...]

    @property
    def total_size(self) -> int:
        """t = sum of |S| over the merged family."""
        return sum(len(s) for s in self.merged)


def separator_cover(graph: BdmcGraph) -> SeparatorCover:
    """Layer separators of a layered graph.

    S_{i,d} = nodes of H_i whose layer span [max(start, 1), end] holds d,
    for d = 1..L; the d = 0 layer is dropped.  The merged family holds each
    distinct S_{i,d} once, ordered by the least (i, d) that has it: variable
    by variable, each in layer order.  H_i and the nodes spanning a layer
    are node bitmasks, so S_{i,d} is one AND, and each distinct mask becomes
    one frozenset.  The variables visited at a layer are the bits of the OR
    of the scope masks (GraphAnalysis.masks) of the nodes beginning there.

    H_i comes from one walk down the topological order: a node passes its
    ancestors plus itself to each child and then drops its own mask, and a
    leaf ORs what it got into H_i of each of its inputs.  The spanning nodes
    are kept as a bit array, set where a span begins and cleared after it
    ends.  Variable i is visited at layer d only when a node of H_i begins
    there.  That finds every distinct S_{i,d}, each once: a node leaves S_i
    after layer d only if it ends at d, and then one of its children in
    H_i begins at d + 1 (its one child, or any child, since in a layered
    graph all children of a multi-child node begin one layer below it); a
    node that begins at d spans d, so S_{i,d} holds it and differs from
    S_{i,d-1}.  Nor does S_i return to an earlier value: every node of H_i
    lies on a root-to-leaf path of D_i, whose spans tile 0..L with exactly
    one node per layer, so a node spanning d1 and d3 > d1 spans every layer
    between and is the only node of its paths there.
    """
    a = graph.analysis
    if not a.layered:
        raise PreconditionError(
            f"graph is not layered: {_layer_witness(graph)}; run level() first")
    nodes, leaves, masks = graph.nodes, graph.leaves, a.masks
    starts, ends = a.starts, a.ends
    depth = max(ends)
    holders = [0] * (graph.num_inputs + 1)
    anc = [0] * graph.num_nodes
    begins: list[list[int]] = [[] for _ in range(depth + 2)]
    flips: list[list[int]] = [[] for _ in range(depth + 2)]
    for u in a.order:
        up = anc[u] | 1 << u
        anc[u] = 0
        nd = nodes[u]
        if nd.kind == "leaf":
            for v in leaves[nd.leaf - 1].input_vars:
                holders[v] |= up
        else:
            for ch in nd.children:
                anc[ch] |= up
        first = max(starts[u], 1)
        if first <= ends[u]:  # a root that ends at layer 0 spans no layer
            begins[first].append(u)
            flips[first].append(u)
            flips[ends[u] + 1].append(u)
    live = bytearray(graph.num_nodes // 8 + 1)
    stride = depth + 1
    least: dict[int, int] = {}  # separator mask -> its least (v, d), as v * stride + d
    for d in range(1, depth + 1):
        for u in flips[d]:
            live[u >> 3] ^= 1 << (u & 7)
        if not begins[d]:
            continue
        span = int.from_bytes(live, "little")
        here = 0
        for u in begins[d]:
            here |= masks[u]
        for v in bit_positions(here):
            mask = holders[v] & span
            key = v * stride + d
            if least.get(mask, key) >= key:
                least[mask] = key
    ranked = sorted(least, key=least.__getitem__)
    return SeparatorCover(tuple(frozenset(bit_positions(m)) for m in ranked))

