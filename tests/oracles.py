"""Reference oracles the tests compare the package against.

Each is an independent specification, kept apart from the code it checks:
minimal satisfying subtrees and the subtree semantics (against
core.evaluate, deciding each leaf by trying every assignment of its aux
variables, with no engine), the layer separators of each input variable by
their definition and the exactly-one-hit checker they must pass (against
transform.separator_cover, whose merged family must be theirs in order),
the clause-derivation unit closure (against the propagation engine and dual
rail), dual rail built clause by clause through make_clause (against
dualrail's canonical builders) and the canonical-form check of compiled
clause groups.  assert_assembled holds a graph the package built without
core.assemble_graph (the parser, the rewrites, certify-leaf --apply) to the
one assemble_graph checks and builds from the same parts.  propagate, unit
propagation of a seed assignment over engine.PropEngine, is the engine's
reading that the strength oracles use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

from bdmc.core import (
    Assignment, BdmcGraph, Clause, LeafEncoding, _input_mask, assemble_graph, make_clause,
    validate)
from bdmc.dualrail import Block
from bdmc.engine import PropEngine, check_partial_assignment, code, decode
from bdmc.errors import BudgetExceededError, PreconditionError

# ---------------------------------------------------------------------------
# circuit semantics by minimal subtrees

DEFAULT_SUBTREE_CAP = 100_000


def minimal_subtrees(graph: BdmcGraph, cap: int = DEFAULT_SUBTREE_CAP) -> list[frozenset[int]]:
    """All minimal satisfying subtrees, each as a frozenset of node ids.

    A subtree takes every child of an and-node and exactly one child of an
    or-node, rooted at the graph root.  Node sets determine subtrees uniquely
    here because decomposability forbids two and-branches from sharing any
    node with a nonempty variable scope.
    """
    validate(graph)  # refuses a graph that is not a valid BDMC
    memo: dict[int, list[frozenset[int]]] = {}

    def rec(nid: int) -> list[frozenset[int]]:
        got = memo.get(nid)
        if got is not None:
            return got
        nd = graph.nodes[nid]
        if nd.kind == "leaf":
            out = [frozenset((nid,))]
        elif nd.kind == "or":
            out = [sub | {nid} for ch in nd.children for sub in rec(ch)]
        else:
            out = [frozenset((nid,))]
            for ch in nd.children:
                out = [acc | sub for acc in out for sub in rec(ch)]
                if len(out) > cap:
                    raise BudgetExceededError(f"more than {cap} minimal subtrees")
        if len(out) > cap:
            raise BudgetExceededError(f"more than {cap} minimal subtrees")
        memo[nid] = out
        return out

    return rec(graph.root)


def leaf_sat_by_aux(leaf: LeafEncoding, mask: int) -> bool:
    """Whether some assignment of the leaf's aux variables, together with the
    inputs of mask (bit v-1 = value of input v), satisfies every clause."""
    value = {v: bool(mask >> (v - 1) & 1) for v in leaf.input_vars}
    for bits in range(1 << len(leaf.aux_vars)):
        value.update((y, bool(bits >> j & 1)) for j, y in enumerate(leaf.aux_vars))
        if all(any(value[abs(lit)] == (lit > 0) for lit in c) for c in leaf.clauses):
            return True
    return False


def evaluate_by_subtrees(graph: BdmcGraph, assignment: Assignment) -> bool:
    """Disjunction-over-minimal-subtrees semantics; oracle for evaluate()."""
    mask = _input_mask(graph, assignment)
    for tree in minimal_subtrees(graph):
        ok = True
        for nid in tree:
            nd = graph.nodes[nid]
            if nd.kind == "leaf" and not leaf_sat_by_aux(graph.leaves[nd.leaf - 1], mask):
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# graphs built without assemble_graph


def assert_assembled(graph: BdmcGraph) -> None:
    """graph is what assemble_graph checks and builds from its parts, field
    by field (a list is not equal to the tuple assemble_graph makes), and
    its parents are those its edges give."""
    assert graph == assemble_graph(graph.nodes, graph.root, graph.leaves, graph.input_names)
    assert graph.parents == tuple(
        tuple(p for p, nd in enumerate(graph.nodes) if nid in nd.children)
        for nid in range(graph.num_nodes))


# ---------------------------------------------------------------------------
# separator covers

Separators = tuple[tuple[frozenset[int], ...], ...]  # per input variable, in layer order


def holders(graph: BdmcGraph, v: int) -> frozenset[int]:
    """H_v: the nodes whose scope holds input v."""
    return frozenset(nid for nid, m in enumerate(graph.analysis.masks) if m >> v & 1)


def ref_separator_layers(graph: BdmcGraph) -> Separators:
    """Per input variable i, the distinct non-empty S_{i,d} = nodes of H_i
    whose layer span [start, end] holds d, for d = 1..L, in layer order.
    Spans and scope masks come from graph.analysis, which test_analysis
    checks against reference walks."""
    a = graph.analysis
    depth = max(a.ends)
    out = []
    for v in graph.input_vars:
        h = sorted(holders(graph, v))
        layers = (frozenset(u for u in h if a.starts[u] <= d <= a.ends[u])
                  for d in range(1, depth + 1))
        out.append(tuple(dict.fromkeys(s for s in layers if s)))
    return tuple(out)


def ref_merged(graph: BdmcGraph) -> tuple[frozenset[int], ...]:
    """ref_separator_layers deduplicated in order over the variables: the
    merged family separator_cover must return."""
    return tuple(dict.fromkeys(chain.from_iterable(ref_separator_layers(graph))))


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    bad_path: Optional[tuple[int, ...]] = None    # path hitting some S != once
    bad_separator: Optional[frozenset[int]] = None
    uncovered: Optional[tuple[int, int]] = None   # (input var, node id) not covered

    def __bool__(self) -> bool:
        return self.ok


def check_separator_cover(graph: BdmcGraph, per_var: Separators) -> CoverCheck:
    """Exactly-one-hit check of per_var[i - 1], the separators of input i,
    over each D_i, plus the coverage condition union(S_i) in {H_i, H_i - root}.

    One bottom-up sweep per input variable keeps, per node of D_i, bitmasks
    over that variable's separators: those some path to a sink hits, those
    every such path hits, and those some path hits twice.  Only the first
    failing separator rebuilds a witness path.
    """
    order = graph.analysis.order
    for v in graph.input_vars:
        h = holders(graph, v)
        # D_i children before parents, each node with its children in D_i
        sub = {nid: [ch for ch in graph.nodes[nid].children if ch in h]
               for nid in reversed(order) if nid in h}
        seps = per_var[v - 1] if v - 1 < len(per_var) else ()
        own = dict.fromkeys(sub, 0)
        for j, sep in enumerate(seps):
            for nid in sep & h:
                own[nid] |= 1 << j
        some: dict[int, int] = {}
        every: dict[int, int] = {}
        twice: dict[int, int] = {}
        for nid, kids in sub.items():
            below_some = below_every = below_twice = 0
            if kids:
                below_every = -1
                for ch in kids:
                    below_some |= some[ch]
                    below_every &= every[ch]
                    below_twice |= twice[ch]
            some[nid] = own[nid] | below_some
            every[nid] = own[nid] | below_every
            twice[nid] = below_twice | (own[nid] & below_some)
        bad = ~every[graph.root] | twice[graph.root]
        for j, sep in enumerate(seps):
            if not sep <= h:
                return CoverCheck(False, bad_separator=sep, uncovered=(v, min(sep - h)))
            if bad >> j & 1:
                return _witness(graph.root, sub, sep)
        covered = frozenset().union(*seps) if seps else frozenset()
        missing = h - covered - {graph.root}
        if missing:
            return CoverCheck(False, uncovered=(v, min(missing)))
    return CoverCheck(True)


def _witness(root, sub, sep) -> CoverCheck:
    """A root-to-sink path of D_i hitting sep other than once, built greedily
    from the fewest (or the most) hits below each node."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for nid, kids in sub.items():
        own = 1 if nid in sep else 0
        lo[nid] = own + min((lo[ch] for ch in kids), default=0)
        hi[nid] = own + max((hi[ch] for ch in kids), default=0)
    want_low = lo[root] != 1
    path = [root]
    while kids := sub[path[-1]]:
        path.append(min(kids, key=(lambda c: lo[c]) if want_low else (lambda c: -hi[c])))
    return CoverCheck(False, bad_path=tuple(path), bad_separator=sep)


# ---------------------------------------------------------------------------
# unit resolution


def propagate(clauses: Sequence[Sequence[int]], nvars: int,
              alpha: Iterable[int] = ()) -> Optional[frozenset[int]]:
    """The literals unit propagation derives from the partial assignment
    alpha (seeds and the formula's units included), or None on a conflict:
    the trail of a PropEngine after asserting alpha."""
    eng = PropEngine(clauses, nvars)
    if not eng.assert_lits(map(code, check_partial_assignment(alpha, nvars))):
        return None
    return frozenset(map(decode, eng.trail))


def unit_closure(clauses: Sequence[Sequence[int]], alpha: Iterable[int] = ()) -> tuple[frozenset[int], bool]:
    """Exact unit-resolution closure: all derivable unit clauses, plus a bot flag.

    Unlike the assignment-based engine this keeps deriving after complementary
    units appear, matching the clause-derivation reading of phi |-1 l.  Meant
    for small formulas (quadratic loop).
    """
    units = set(alpha)
    clauses = [tuple(dict.fromkeys(c)) for c in clauses]
    bot = any(not c for c in clauses)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            # {l} is derivable from C iff every other literal's negation is;
            # the empty clause is derivable iff all of them are
            if not bot and all(-e in units for e in clause):
                bot = True
                changed = True
            for l in clause:
                if l not in units and all(-e in units for e in clause if e != l):
                    units.add(l)
                    changed = True
    if any(-l in units for l in units):
        bot = True
    return frozenset(units), bot


# ---------------------------------------------------------------------------
# dual rail through make_clause, and the canonical form of compiled groups


def reference_dual_rail(leaf: LeafEncoding, block: Block) -> tuple[Clause, ...]:
    """DR with every clause put together literal by literal and made
    canonical by make_clause, each meta id looked up on its own."""
    meta, bot = block
    if leaf.is_constant_false:
        return ((bot,),)
    out: list[Clause] = []
    for clause in leaf.clauses:
        for l in clause:
            body = [-meta[-e] for e in clause if e != l]
            out.append(make_clause(body + [meta[l]]))
    for v in sorted(set(leaf.input_vars) | set(leaf.aux_vars)):
        out.append(make_clause([-meta[v], -meta[-v], bot]))
    return tuple(out)


def reference_extended_dual_rail(leaf: LeafEncoding, block: Block) -> tuple[Clause, ...]:
    """DR+ on top of reference_dual_rail, in the same way."""
    if leaf.is_constant_false:
        raise PreconditionError(
            f"leaf {leaf.index}: extended dual rail needs a satisfiable-shaped leaf")
    out = list(reference_dual_rail(leaf, block))
    meta, bot = block
    leaf_vars = sorted(set(leaf.input_vars) | set(leaf.aux_vars))
    for v in leaf_vars:
        out.append(make_clause([-bot, meta[v]]))
        out.append(make_clause([-bot, meta[-v]]))
    for v in leaf_vars:
        out.append(make_clause([meta[v], meta[-v]]))
    return tuple(out)


def non_canonical_clause(output) -> Optional[tuple[str, Clause]]:
    """The first (group, clause) of a compiled output that make_clause would
    change, or that mentions a variable outside 1..num_vars; None if none."""
    for tag, clauses in output.groups.items():
        for clause in clauses:
            if (type(clause) is not tuple or make_clause(clause) != clause
                    or not all(1 <= abs(l) <= output.num_vars for l in clause)):
                return tag, clause
    return None
