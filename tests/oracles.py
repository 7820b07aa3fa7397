"""Reference oracles the tests compare the package against.

Each is an independent specification, kept apart from the code it checks:
minimal satisfying subtrees and the subtree semantics (against
core.evaluate, deciding each leaf by trying every assignment of its aux
variables, with no engine), the exactly-one-hit separator-cover checker (against
transform.separator_cover) and the clause-derivation unit closure (against
the propagation engine and dual rail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from bdmc.core import Assignment, BdmcGraph, LeafEncoding, _input_mask
from bdmc.errors import BudgetExceededError
from bdmc.transform import SeparatorCover

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
    graph.analysis.require_valid()
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
# separator covers


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    bad_path: Optional[tuple[int, ...]] = None    # path hitting some S != once
    bad_separator: Optional[frozenset[int]] = None
    uncovered: Optional[tuple[int, int]] = None   # (input var, node id) not covered

    def __bool__(self) -> bool:
        return self.ok


def check_separator_cover(graph: BdmcGraph, cover: SeparatorCover) -> CoverCheck:
    """Exactly-one-hit check over each D_i, plus the coverage condition
    union(S_i) in {H_i, H_i - root}.

    One bottom-up sweep per input variable keeps, per node of D_i, bitmasks
    over that variable's separators: those some path to a sink hits, those
    every such path hits, and those some path hits twice.  Only the first
    failing separator rebuilds a witness path.
    """
    a = graph.analysis.require_valid(need_decomposable=False)
    for v in graph.input_vars:
        h = a.scopes.h(v)
        # D_i children before parents, each node with its children in D_i
        sub = {nid: [ch for ch in graph.nodes[nid].children if ch in h]
               for nid in reversed(a.order) if nid in h}
        seps = cover.per_var[v - 1] if v - 1 < len(cover.per_var) else ()
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
