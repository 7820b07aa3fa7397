"""Data model for BDMC sentences and their ground-truth semantics.

A BDMC is a rooted DAG of and/or nodes whose leaves carry CNF encodings over
subsets of the global input variables plus private auxiliary variables.  This
module owns the graph representation, structural validation (acyclicity,
decomposability, smoothness), input-variable scopes, and brute-force semantic
evaluation used as the oracle by every checker.

All structure comes from one pass, analyze(), whose GraphAnalysis
(topological order, layer spans, scopes, validation report) is memoised as
BdmcGraph.analysis: a graph version is immutable and every rewrite returns a
new one, so each version is analysed at most once.  validate, compute_scopes
and topo_order are views of it.

Variable ids ("source space"): inputs are 1..n, auxiliaries of the leaves get
ids above n, assigned leaf by leaf.  Literals are signed ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from . import engine
from .errors import BudgetExceededError, InputError, StructureError

Clause = tuple[int, ...]

CLASS_CC = "cc"
CLASS_DC = "dc"
CLASS_URC = "urc"
CLASS_PC = "pc"
CLASS_LITERAL = "literal"
CLASS_TRUE = "true"
LEAF_CLASSES = (CLASS_CC, CLASS_DC, CLASS_URC, CLASS_PC, CLASS_LITERAL, CLASS_TRUE)

# each base class's unit-propagation strength, strongest first: the URC or PC
# condition over the leaf's input variables (cc, dc) or all its variables
CLASS_STRENGTH = {
    CLASS_PC: ("all", "pc"),
    CLASS_URC: ("all", "urc"),
    CLASS_DC: ("inputs", "pc"),
    CLASS_CC: ("inputs", "urc"),
}

# which target-class requirements a claimed class satisfies: those whose scope
# and style it covers (all covers inputs, pc covers urc); literal and true are
# trivially pc
CLASS_SATISFIES = {
    name: frozenset(other for other, (scope2, style2) in CLASS_STRENGTH.items()
                    if scope2 in (scope, "inputs") and style2 in (style, "urc"))
    for name, (scope, style) in CLASS_STRENGTH.items()
}
CLASS_SATISFIES[CLASS_LITERAL] = CLASS_SATISFIES[CLASS_TRUE] = CLASS_SATISFIES[CLASS_PC]

# assignments any exhaustive sweep may visit: 3^k for strength, 2^n for correctness
DEFAULT_EXHAUSTIVE_BUDGET = 3 ** 14


def make_clause(lits: Iterable[int]) -> Clause:
    """Canonical clause: deduplicated, sorted by variable then polarity.

    Tautologies (x and -x in one clause) are rejected.
    """
    seen = set(lits)
    if 0 in seen:
        raise InputError("literal 0 is not allowed in a clause")
    for lit in seen:
        if -lit in seen:
            raise InputError(f"tautological clause: contains both {lit} and {-lit}")
    return tuple(sorted(seen, key=abs))  # no variable occurs twice here


@dataclass(frozen=True)
class LeafEncoding:
    """One leaf: a CNF formula over declared inputs x_i and private aux y_i."""

    index: int
    input_vars: tuple[int, ...]
    aux_vars: tuple[int, ...]
    clauses: tuple[Clause, ...]
    claimed_class: str
    aux_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.claimed_class not in LEAF_CLASSES:
            raise InputError(f"unknown leaf class {self.claimed_class!r}")
        if len(set(self.input_vars)) != len(self.input_vars):
            raise InputError(f"leaf {self.index} lists an input variable twice")
        allowed = set(self.input_vars) | set(self.aux_vars)
        for c in self.clauses:
            for l in c:
                if abs(l) not in allowed:
                    raise InputError(
                        f"leaf {self.index}: clause variable {abs(l)} not among its inputs/aux"
                    )
        if not self.input_vars and not self.is_constant:
            raise InputError(
                f"leaf {self.index}: empty input set is only allowed for constant leaves"
            )

    @property
    def is_constant_true(self) -> bool:
        return not self.clauses

    @property
    def is_constant_false(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    @property
    def is_constant(self) -> bool:
        return self.is_constant_true or self.is_constant_false

    @property
    def num_vars(self) -> int:
        """|x_i u y_i|, the leaf's contribution to the size parameter m."""
        return len(self.input_vars) + len(self.aux_vars)


def infer_claimed_class(input_vars, aux_vars, clauses) -> str:
    """Syntactic default claim for leaves parsed without an explicit class."""
    if not clauses:
        return CLASS_TRUE
    if any(len(c) == 0 for c in clauses):
        # constant false is trivially propagation complete
        return CLASS_PC
    if len(clauses) == 1 and len(clauses[0]) == 1 and not aux_vars:
        return CLASS_LITERAL
    return CLASS_CC


def make_leaf(index, input_vars, aux_vars, clauses, claimed=None, aux_names=()) -> LeafEncoding:
    """The one leaf constructor of build_graph and parse_bdmc: the clauses
    are made canonical (make_clause, then duplicates dropped) before the
    claimed class, when not given, is inferred from them."""
    clauses = tuple(dict.fromkeys(make_clause(c) for c in clauses))
    claimed = claimed or infer_claimed_class(input_vars, aux_vars, clauses)
    return LeafEncoding(index, tuple(input_vars), tuple(aux_vars), clauses, claimed,
                        tuple(aux_names))


@dataclass(frozen=True)
class Node:
    kind: str  # 'and' | 'or' | 'leaf'
    children: tuple[int, ...] = ()
    leaf: int = 0  # 1-based leaf index for kind == 'leaf'


@dataclass(frozen=True)
class BdmcGraph:
    nodes: tuple[Node, ...]
    root: int
    num_inputs: int
    leaves: tuple[LeafEncoding, ...]
    input_names: tuple[str, ...]
    parents: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """s = |V|"""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """e = |E|"""
        return sum(len(nd.children) for nd in self.nodes)

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    @property
    def input_vars(self) -> range:
        return range(1, self.num_inputs + 1)

    @cached_property
    def analysis(self) -> "GraphAnalysis":
        """The structure of this graph version, analysed on first use."""
        return analyze(self)


def assemble_graph(
    nodes: Sequence[Node],
    root: int,
    leaves: Sequence[LeafEncoding],
    input_names: Sequence[str],
) -> BdmcGraph:
    """Build a BdmcGraph from fully resolved parts, checking hard invariants.

    Hard failures here are malformed sentences no operation could accept:
    broken leaf<->node bijection, out-of-range ids, duplicate edges.  Softer
    structural properties are validate()'s job.
    """
    nodes = tuple(nodes)
    leaves = tuple(sorted(leaves, key=lambda lf: lf.index))
    n = len(input_names)
    if not nodes:
        raise StructureError("no nodes: sentence has no root")
    if not (0 <= root < len(nodes)):
        raise StructureError(f"root id {root} out of range")
    if [lf.index for lf in leaves] != list(range(1, len(leaves) + 1)):
        raise StructureError("leaf indices must be exactly 1..numLeaves")
    node_of_leaf = [-1] * len(leaves)
    for nid, nd in enumerate(nodes):
        if nd.kind == "leaf":
            if not (1 <= nd.leaf <= len(leaves)):
                raise StructureError(f"node {nid}: leaf index {nd.leaf} out of range")
            if node_of_leaf[nd.leaf - 1] != -1:
                raise StructureError(f"leaf {nd.leaf} attached to two nodes")
            node_of_leaf[nd.leaf - 1] = nid
        elif nd.kind in ("and", "or"):
            if not nd.children:
                raise StructureError(f"node {nid}: inner node with no children")
            if len(set(nd.children)) != len(nd.children):
                raise StructureError(f"node {nid}: duplicate edge")
            for ch in nd.children:
                if not (0 <= ch < len(nodes)):
                    raise StructureError(f"node {nid}: child id {ch} out of range")
        else:
            raise StructureError(f"node {nid}: unknown kind {nd.kind!r}")
    if -1 in node_of_leaf:
        raise StructureError(f"leaf {node_of_leaf.index(-1) + 1} has no node")
    seen_aux: set[int] = set()
    for leaf in leaves:
        for v in leaf.input_vars:
            if not (1 <= v <= n):
                raise StructureError(f"leaf {leaf.index}: input variable {v} not declared")
        for v in leaf.aux_vars:
            if v <= n or v in seen_aux:
                raise StructureError(f"leaf {leaf.index}: aux variable {v} reused or clashes with inputs")
            seen_aux.add(v)
    parents: list[list[int]] = [[] for _ in nodes]
    for nid, nd in enumerate(nodes):
        for ch in nd.children:
            parents[ch].append(nid)
    return BdmcGraph(
        nodes=nodes,
        root=root,
        num_inputs=n,
        leaves=leaves,
        input_names=tuple(input_names),
        parents=tuple(tuple(p) for p in parents),
    )


def leaf_spec(inputs, clauses, aux=0, cls=None, aux_names=None):
    """Leaf description for build_graph.

    ``inputs`` are global input ids, ``aux`` a count (or list of names) of
    private variables.  Clause literals use a local numbering: 1..len(inputs)
    name the declared inputs in order, higher values name the aux variables.
    """
    return {"inputs": list(inputs), "aux": aux, "clauses": [list(c) for c in clauses],
            "cls": cls, "aux_names": aux_names}


def build_graph(nodes, leaves, n=None, input_names=None, root=0) -> BdmcGraph:
    """Assemble a graph from compact specs (see leaf_spec).

    ``nodes`` is a list of ('and'|'or', children) or ('leaf', index) tuples;
    node ids are list positions.  Node 0 is the root unless stated otherwise.
    """
    if input_names is None:
        if n is None:
            raise InputError("build_graph needs n or input_names")
        input_names = tuple(f"x{i}" for i in range(1, n + 1))
    input_names = tuple(input_names)
    n = len(input_names)
    node_objs = []
    for spec in nodes:
        kind = spec[0]
        if kind == "leaf":
            node_objs.append(Node("leaf", leaf=spec[1]))
        else:
            node_objs.append(Node(kind, children=tuple(spec[1])))
    leaf_objs = []
    next_aux = n + 1
    for idx, spec in enumerate(leaves, start=1):
        ins = tuple(spec["inputs"])
        aux = spec["aux"]
        if isinstance(aux, int):
            names = tuple(spec["aux_names"] or (f"y{j}" for j in range(1, aux + 1)))
            if len(names) != aux:
                raise InputError(f"leaf {idx}: aux name count mismatch")
        else:
            names = tuple(aux)
        aux_ids = tuple(range(next_aux, next_aux + len(names)))
        next_aux += len(names)
        local = {j + 1: v for j, v in enumerate(ins)}
        local.update({len(ins) + j + 1: v for j, v in enumerate(aux_ids)})
        try:
            cls = [[(1 if l > 0 else -1) * local[abs(l)] for l in c] for c in spec["clauses"]]
        except KeyError as exc:
            raise InputError(f"leaf {idx}: clause literal {exc} not declared") from None
        leaf_objs.append(make_leaf(idx, ins, aux_ids, cls, spec["cls"], names))
    return assemble_graph(node_objs, root, leaf_objs, input_names)


# ---------------------------------------------------------------------------
# structural validation


@dataclass(frozen=True)
class ValidationReport:
    acyclic: bool
    rooted: bool
    decomposable: bool
    smooth: bool
    covers_inputs: bool
    cycle: tuple[int, ...] = ()
    unreachable: tuple[int, ...] = ()
    decomp_witness: Optional[tuple[int, int]] = None  # (and-node, shared input var)
    smooth_witness: Optional[tuple[int, int, frozenset[int]]] = None  # (or-node, child, missing)
    missing_inputs: tuple[int, ...] = ()

    @property
    def structurally_valid(self) -> bool:
        return self.acyclic and self.rooted and self.covers_inputs

    @property
    def is_valid_bdmc(self) -> bool:
        """Structure plus decomposability: what every operation relies on."""
        return self.structurally_valid and self.decomposable


def _find_cycle(graph: BdmcGraph) -> tuple[int, ...]:
    color = [0] * graph.num_nodes  # 0 white, 1 on stack, 2 done
    for start in range(graph.num_nodes):
        if color[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        path = [start]
        color[start] = 1
        while stack:
            nid, ci = stack[-1]
            children = graph.nodes[nid].children
            if ci == len(children):
                stack.pop()
                path.pop()
                color[nid] = 2
                continue
            stack[-1] = (nid, ci + 1)
            ch = children[ci]
            if color[ch] == 1:
                return tuple(path[path.index(ch):]) + (ch,)
            if color[ch] == 0:
                color[ch] = 1
                stack.append((ch, 0))
                path.append(ch)
    return ()


@dataclass(frozen=True)
class VarScopeMap:
    """var(v) per node (a one-child node shares its child's set object) and
    the range (leaf indices) per input variable."""

    var_sets: tuple[frozenset[int], ...]
    ranges: tuple[tuple[int, ...], ...]

    def var(self, node_id: int) -> frozenset[int]:
        return self.var_sets[node_id]

    def h(self, input_var: int) -> frozenset[int]:
        """H_i: the nodes whose scope holds the input variable."""
        return frozenset(nid for nid, vs in enumerate(self.var_sets) if input_var in vs)

    def range_of(self, lit: int) -> tuple[int, ...]:
        return self.ranges[abs(lit) - 1]


@dataclass(frozen=True)
class GraphAnalysis:
    """The structure of one graph version, computed once by analyze().

    ``order`` is the deterministic topological order (parents first) of the
    reachable nodes.  Node u occupies the depth layers ``starts[u]`` to
    ``ends[u]``: it starts at its longest-path depth, every leaf at the
    deepest leaf depth L; a one-child node ends one layer above its child's
    start, any other node where it starts (-1 and -1 if unreachable).
    ``layered`` holds when every child of every multi-child node starts one
    layer below it; then the layers of every root-to-leaf path tile 0..L.
    Order and spans are None when a reachable cycle leaves them undefined;
    ``scopes`` is None on any cycle.  Read it as ``graph.analysis``, which
    computes it once per graph version.
    """

    report: ValidationReport
    order: Optional[tuple[int, ...]]
    starts: Optional[tuple[int, ...]]
    ends: Optional[tuple[int, ...]]
    layered: bool
    scopes: Optional[VarScopeMap]

    def topo_order(self) -> tuple[int, ...]:
        if self.order is None:
            raise StructureError("cycle detected; topological order undefined")
        return self.order

    def var_scopes(self) -> VarScopeMap:
        if self.scopes is None:
            raise StructureError(f"cycle detected through nodes {list(self.report.cycle)}")
        return self.scopes

    def require_valid(self, need_decomposable: bool = True) -> "GraphAnalysis":
        report = self.report
        if not report.acyclic:
            raise StructureError(f"cycle detected through nodes {list(report.cycle)}")
        if not report.covers_inputs:
            raise StructureError(
                f"input variables {list(report.missing_inputs)} appear in no leaf (var(root) != x)"
            )
        if need_decomposable and not report.decomposable:
            raise StructureError(
                f"graph is not decomposable; witness (node, var) = {report.decomp_witness}"
            )
        return self


def analyze(graph: BdmcGraph) -> GraphAnalysis:
    """Every structural fact of a graph version from one pass.

    A reachability sweep from the root counts in-degrees; one heap-ordered
    Kahn sweep then gives the topological order and the longest-path depths,
    and one sweep over that order the layer spans.  Var-sets come from one
    bottom-up sweep; ranges and the validation report from single sweeps
    over nodes and leaves.
    Acyclicity covers all nodes: _find_cycle runs only to name a cycle, or
    to rule one out among unreachable nodes.
    """
    nodes, n, root = graph.nodes, graph.num_nodes, graph.root
    indeg = [0] * n
    reached = [False] * n
    reached[root] = True
    todo = [root]
    while todo:
        for ch in nodes[todo.pop()].children:
            indeg[ch] += 1
            if not reached[ch]:
                reached[ch] = True
                todo.append(ch)
    unreachable = tuple(nid for nid in range(n) if not reached[nid])
    start = [-1] * n
    start[root] = 0
    order: list[int] = []
    heap = [] if indeg[root] else [root]
    while heap:
        nid = heapq.heappop(heap)
        order.append(nid)
        d = start[nid] + 1
        for ch in nodes[nid].children:
            if start[ch] < d:
                start[ch] = d
            indeg[ch] -= 1
            if not indeg[ch]:
                heapq.heappush(heap, ch)
    complete = len(order) + len(unreachable) == n
    leaf_ids = [nid for nid in order if nodes[nid].kind == "leaf"]
    full = max((start[nid] for nid in leaf_ids), default=0)
    for nid in leaf_ids:
        start[nid] = full
    end = list(start)
    layered = True
    for nid in order:
        kids = nodes[nid].children
        if len(kids) == 1:
            end[nid] = start[kids[0]] - 1
        elif any(start[ch] != start[nid] + 1 for ch in kids):
            layered = False
    cycle = () if complete and not unreachable else _find_cycle(graph)
    scopes = None
    decomposable = smooth = False
    decomp_witness = smooth_witness = None
    missing: tuple[int, ...] = ()
    if not cycle:
        var_sets: list[frozenset[int]] = [frozenset()] * n
        for nid in reversed(order):
            nd = nodes[nid]
            if nd.kind == "leaf":
                var_sets[nid] = frozenset(graph.leaves[nd.leaf - 1].input_vars)
            elif len(nd.children) == 1:
                var_sets[nid] = var_sets[nd.children[0]]
            else:
                acc: set[int] = set()
                for ch in nd.children:
                    acc |= var_sets[ch]
                var_sets[nid] = frozenset(acc)
        ranges: list[list[int]] = [[] for _ in graph.input_vars]
        for leaf in graph.leaves:
            for v in frozenset(leaf.input_vars):
                ranges[v - 1].append(leaf.index)
        scopes = VarScopeMap(tuple(var_sets), tuple(map(tuple, ranges)))
        decomposable = smooth = True
        for nid, nd in enumerate(nodes):
            if nd.kind == "and":
                taken: dict[int, int] = {}
                for ch in nd.children:
                    for v in var_sets[ch]:
                        if v in taken and taken[v] != ch:
                            decomposable = False
                            decomp_witness = decomp_witness or (nid, v)
                        taken.setdefault(v, ch)
            elif nd.kind == "or" and len(nd.children) > 1:  # one child: var(v) = var(child)
                for ch in nd.children:
                    gap = var_sets[nid] - var_sets[ch]
                    if gap:
                        smooth = False
                        smooth_witness = smooth_witness or (nid, ch, frozenset(gap))
        missing = tuple(sorted(set(graph.input_vars) - var_sets[root]))
    report = ValidationReport(
        acyclic=not cycle,
        rooted=not unreachable,
        decomposable=decomposable,
        smooth=smooth,
        covers_inputs=not cycle and not missing,
        cycle=cycle,
        unreachable=unreachable,
        decomp_witness=decomp_witness,
        smooth_witness=smooth_witness,
        missing_inputs=missing,
    )
    if not complete:
        return GraphAnalysis(report, None, None, None, False, scopes)
    return GraphAnalysis(report, tuple(order), tuple(start), tuple(end), layered, scopes)


def topo_order(graph: BdmcGraph) -> list[int]:
    """Deterministic topological order (parents first) of reachable nodes."""
    return list(graph.analysis.topo_order())


def compute_scopes(graph: BdmcGraph) -> VarScopeMap:
    """var(v) for every node, H_i per input variable, range per input variable."""
    return graph.analysis.var_scopes()


def validate(graph: BdmcGraph) -> ValidationReport:
    """Structural report: acyclicity, reachability, decomposability, smoothness
    and var(root) covering the declared inputs (assemble_graph already
    refuses aux variables shared between leaves)."""
    return graph.analysis.report


# ---------------------------------------------------------------------------
# semantics

Assignment = Union[Mapping[int, Union[bool, int]], Iterable[int]]


def _input_mask(graph: BdmcGraph, assignment: Assignment) -> int:
    n = graph.num_inputs
    if isinstance(assignment, Mapping):
        lits = [v if assignment[v] else -v for v in assignment]
    else:
        lits = list(assignment)
    lits = engine.check_partial_assignment(lits)
    mask = 0
    seen = set()
    for lit in lits:
        v = abs(lit)
        if not (1 <= v <= n):
            raise InputError(f"assignment mentions {v}, not an input variable (1..{n})")
        seen.add(v)
        if lit > 0:
            mask |= 1 << (v - 1)
    if len(seen) != n:
        raise InputError("assignment is not total on the input variables")
    return mask


def _local_clauses(leaf: LeafEncoding) -> list[list[int]]:
    """The leaf's clauses over its variables numbered from 1, inputs first."""
    local = {v: i for i, v in enumerate((*leaf.input_vars, *leaf.aux_vars), 1)}
    return [[local[l] if l > 0 else -local[-l] for l in c] for c in leaf.clauses]


def _fold(graph: BdmcGraph, order: Sequence[int], leaf_value) -> int:
    """The root's value bottom-up: leaf_value(leaf) at each leaf, & of the
    children at and-nodes and | at or-nodes (bools, or bitsets of masks)."""
    vals = {}
    for nid in reversed(order):
        nd = graph.nodes[nid]
        if nd.kind == "leaf":
            vals[nid] = leaf_value(graph.leaves[nd.leaf - 1])
        else:
            vals[nid] = reduce(and_ if nd.kind == "and" else or_, [vals[ch] for ch in nd.children])
    return vals[graph.root]


def evaluate(graph: BdmcGraph, assignment: Assignment) -> bool:
    """f(a): each leaf contributes "phi_i is satisfiable under a", combined
    through the monotone circuit."""
    order = graph.analysis.require_valid().topo_order()
    mask = _input_mask(graph, assignment)
    return _fold(graph, order, lambda leaf: engine.brute_sat(
        _local_clauses(leaf), leaf.num_vars,
        [j if mask >> (v - 1) & 1 else -j for j, v in enumerate(leaf.input_vars, 1)]) is not None)


CHUNK_BITS = 12  # enumerate_models evaluates the circuit on 2^CHUNK_BITS masks at once


def enumerate_models(graph: BdmcGraph, budget: int = DEFAULT_EXHAUSTIVE_BUDGET) -> frozenset[int]:
    """All satisfying full assignments as bitmasks (bit v-1 = value of input v);
    over the budget it raises BudgetExceededError before any work.

    Inputs 1..w (w = min(n, CHUNK_BITS)) vary within a chunk, the others
    pick it; a node's value on a chunk is a 2^w-bit int, bit t for mask
    chunk << w | t.  A leaf's int comes from a table keyed by its inputs'
    chunk bits, built from one all_scope_models over its inputs."""
    n = graph.num_inputs
    if (1 << n) > budget:
        raise BudgetExceededError(
            f"enumerate_models walks 2^{n} input assignments, over the budget of {budget}"
        )
    order = graph.analysis.require_valid().topo_order()
    w = min(n, CHUNK_BITS)
    full = (1 << (1 << w)) - 1
    low = [full // ((1 << (1 << b)) + 1) << (1 << b) for b in range(w)]  # the t with bit b set
    tables, highs = [], []  # per leaf: its table, and the chunk bits of its inputs
    for leaf in graph.leaves:
        table: dict[int, int] = {}
        for sub in engine.all_scope_models(_local_clauses(leaf), leaf.num_vars,
                                           range(1, len(leaf.input_vars) + 1)):
            positions, key = full, 0
            for j, v in enumerate(leaf.input_vars):
                if v <= w:
                    positions &= low[v - 1] if sub >> j & 1 else full ^ low[v - 1]
                else:
                    key |= (sub >> j & 1) << (v - 1 - w)
            table[key] = table.get(key, 0) | positions
        tables.append(table)
        highs.append(sum(1 << (v - 1 - w) for v in leaf.input_vars if v > w))

    def models() -> Iterator[int]:
        for chunk in range(1 << (n - w)):
            root = _fold(graph, order, lambda leaf: tables[leaf.index - 1].get(
                chunk & highs[leaf.index - 1], 0))
            bits = format(root, "b")[::-1]  # bits[t] is bit t: linear in 2^w
            t = bits.find("1")
            while t >= 0:
                yield chunk << w | t
                t = bits.find("1", t + 1)

    return frozenset(models())
