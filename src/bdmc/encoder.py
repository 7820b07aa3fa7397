"""Clause-group assembly: compile a BDMC into one of the target encodings.

Clause groups:
    N1   or-node v -> v1 | ... | vk
    N2   and-node v -> vi, one clause per child
    N3   non-root v -> p1 | ... | pk over its parents
    N5   at-most-one over every separator (canonical pairs, or Sinz ladders
         for the urc-seq target)
    N6   exactly-one over every separator
    E1   extended dual rail of every leaf formula (plain dual rail with lean cc)
    E2   l -> [[l]]^i for every input literal of every leaf
    E3   (AND_i [[l]]^i) -> l for every input literal
    ROOT the unit clause asserting the root

TARGET_TABLE holds one Target record per target: its groups (cc =
N1,N2,E1,E2,ROOT; dc adds N3,E3; urc = cc + N3,N5; urc-seq is urc with
sequential at-most-one; pc = dc + N6) and the leaf class and graph shape it
assumes.  A target claims the strength of its leaf class, core.CLASS_STRENGTH.
compile_graph and size_report read every per-target fact from that record,
and so does the CLI.
A leaf node's variable is the negation of its dual-rail contradiction marker
throughout.

Every builder returns its clauses canonical, sorted by variable with no
variable twice, so compile never runs core.make_clause, the check for
clauses from user input (make_leaf, build_graph, parse_bdmc).  The reasons
are in each builder's docstring: node literals are distinct variables and
edges are never duplicated (N1-N3, N5, N6), a ladder auxiliary is above
every node (N5), a meta id is above every input id and blocks ascend with
the leaf index (E2, E3), and dualrail builds E1 in the order of a leaf's
block.  VarMap, the one numbering of a compile, builds the meta blocks and
node literals once and hands out ladder auxiliaries; formats.emit_dimacs
writes the varmap sidecar that names each variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import BdmcGraph, CLASS_SATISFIES, Clause
from .dualrail import Block, dual_rail, extended_dual_rail, meta_block
from .errors import InputError, PreconditionError
from .transform import SeparatorCover, is_layered, level, separator_cover, smooth

GROUP_ORDER = ("N1", "N2", "N3", "N5", "N6", "E1", "E2", "E3", "ROOT")


@dataclass(frozen=True)
class Target:
    """One compile target: the clause groups it emits (in GROUP_ORDER) and
    the leaf class and graph shape it assumes.  It claims the unit-propagation
    strength of that leaf class, core.CLASS_STRENGTH[leaf_class].  A
    sequential target emits N5 as Sinz ladders with auxiliaries."""

    name: str
    groups: tuple[str, ...]
    leaf_class: str
    assumption: str
    sequential: bool = False

    @property
    def needs_cover(self) -> bool:
        return "N5" in self.groups or "N6" in self.groups

    @property
    def needs_smooth(self) -> bool:
        # E3 is the smooth converse; separator covers are taken on smooth graphs
        return "E3" in self.groups or self.needs_cover


_URC_GROUPS = ("N1", "N2", "N3", "N5", "E1", "E2", "ROOT")
_COVERED_URC = "a smooth URC-BDMC covered by separators"
TARGET_TABLE: dict[str, Target] = {t.name: t for t in (
    Target("cc", ("N1", "N2", "E1", "E2", "ROOT"), "cc", "a CC-BDMC"),
    Target("dc", ("N1", "N2", "N3", "E1", "E2", "E3", "ROOT"), "dc", "a smooth DC-BDMC"),
    Target("urc", _URC_GROUPS, "urc", _COVERED_URC),
    Target("urc-seq", _URC_GROUPS, "urc", _COVERED_URC, sequential=True),
    Target("pc", ("N1", "N2", "N3", "N6", "E1", "E2", "E3", "ROOT"), "pc",
           "a smooth PC-BDMC covered by separators"),
)}
TARGETS = tuple(TARGET_TABLE)


def target_spec(target: str) -> Target:
    """The table record of a target name (case-insensitive, '_' for '-')."""
    spec = TARGET_TABLE.get(target.lower().replace("_", "-"))
    if spec is None:
        raise InputError(f"unknown target {target!r}; expected one of {', '.join(TARGETS)}")
    return spec


class VarMap:
    """Solver-variable numbering of one compile, the one owner of its ids.

    Inputs take ids 1..n, then the leaves' dualrail.meta_block in leaf order
    (blocks[i - 1] is leaf i's), then inner nodes in topological order
    (node_vars), then ladder auxiliaries, whose (separator, position) pairs
    card_aux keeps in id order.  formats.emit_dimacs names every variable
    from this numbering.
    """

    def __init__(self, graph: BdmcGraph):
        self.blocks: list[Block] = []
        first = graph.num_inputs + 1
        for leaf in graph.leaves:
            self.blocks.append(meta_block(leaf, first))
            first = self.blocks[-1][1] + 1
        inner = [nid for nid in graph.analysis.order
                 if graph.nodes[nid].kind != "leaf"]
        self.node_vars: dict[int, int] = dict(zip(inner, range(first, first + len(inner))))
        # the literal of every node, by node id, for the clause builders: its
        # own variable for an inner node, -[[bot]]^i for the leaf of formula i
        self.node_lits: list[int] = [
            -self.blocks[nd.leaf - 1][1] if nd.kind == "leaf" else self.node_vars[nid]
            for nid, nd in enumerate(graph.nodes)]
        self.num_vars = first + len(inner) - 1
        self.card_aux: list[tuple[int, int]] = []

    def add_card_aux(self, separator_idx: int, position: int) -> int:
        self.num_vars += 1
        self.card_aux.append((separator_idx, position))
        return self.num_vars


def build_varmap(graph: BdmcGraph) -> VarMap:
    return VarMap(graph)


# ---------------------------------------------------------------------------
# clause-group builders


def _pair(a: int, b: int) -> Clause:
    """The canonical clause of two literals over distinct variables."""
    return (a, b) if abs(a) < abs(b) else (b, a)


def circuit_clauses(graph: BdmcGraph, varmap: VarMap) -> dict[str, list[Clause]]:
    """Groups N1 (or), N2 (and) and N3 (parents) over node literals.

    Distinct nodes have distinct variables, a sentence has no duplicate
    edges and no node is its own child or parent, so the literals of a node
    and its children (or its parents) hold no variable twice: N2 binaries are
    ordered directly, and each N1 and N3 clause is sorted once by variable."""
    n1: list[Clause] = []
    n2: list[Clause] = []
    n3: list[Clause] = []
    lits = varmap.node_lits
    for nid, nd in enumerate(graph.nodes):
        if nd.kind == "or":
            n1.append(tuple(sorted([-lits[nid], *[lits[ch] for ch in nd.children]], key=abs)))
        elif nd.kind == "and":
            head = -lits[nid]
            for ch in nd.children:
                n2.append(_pair(head, lits[ch]))
    for nid, parents in enumerate(graph.parents):
        if nid == graph.root or not parents:
            continue
        n3.append(tuple(sorted([-lits[nid], *[lits[p] for p in parents]], key=abs)))
    return {"N1": n1, "N2": n2, "N3": n3}


def _amo(lits: list[int]) -> list[Clause]:
    """At-most-one as its prime implicates -a v -b, each pair of literals
    over distinct variables (node literals) and so canonical once ordered."""
    neg = [-lit for lit in lits]
    return [_pair(a, b) for i, a in enumerate(neg) for b in neg[i + 1:]]


def _ladder(lits: list[int], aux: list[int]) -> list[Clause]:
    """Sinz's sequential at-most-one (CP 2005) over k >= 2 literals with k-1
    ascending auxiliaries s_i above the literals' variables: 3k-4 clauses,
    canonical as written, l_1 -> s_1; l_i -> s_i, s_{i-1} -> s_i and
    -(l_i & s_{i-1}) for 1 < i < k; -(l_k & s_{k-1})."""
    k = len(lits)
    out = [(-lits[0], aux[0])]
    for i in range(1, k - 1):
        out.append((-lits[i], aux[i]))
        out.append((-aux[i - 1], aux[i]))
        out.append((-lits[i], -aux[i - 1]))
    out.append((-lits[k - 1], -aux[k - 2]))
    return out


def separator_clauses(cover: SeparatorCover, varmap: VarMap, kind: str) -> list[Clause]:
    """Group N5 (amo) or N6 (exactly-one: amo plus the at-least-one clause)
    over the merged separator family, each clause once."""
    if kind not in ("N5", "N6"):
        raise InputError("kind must be 'N5' or 'N6'")
    out: dict[Clause, None] = {}
    node_lits = varmap.node_lits
    for sep in cover.merged:
        lits = [node_lits[nid] for nid in sorted(sep)]
        out.update(dict.fromkeys(_amo(lits)))
        if kind == "N6":
            out.setdefault(tuple(sorted(lits, key=abs)))
    return list(out)


def seq_separator_clauses(cover: SeparatorCover, varmap: VarMap) -> list[Clause]:
    """N5 variant for urc-seq: Sinz ladders, auxiliaries from add_card_aux,
    for separators of size >= 3, canonical pairs below (same clause count)."""
    out: dict[Clause, None] = {}
    node_lits = varmap.node_lits
    for idx, sep in enumerate(cover.merged):
        lits = [node_lits[nid] for nid in sorted(sep)]
        if len(lits) <= 2:
            clauses = _amo(lits)
        else:
            clauses = _ladder(lits, [varmap.add_card_aux(idx, pos) for pos in range(1, len(lits))])
        out.update(dict.fromkeys(clauses))
    return list(out)


def leaf_clauses(
    graph: BdmcGraph,
    varmap: VarMap,
    which: str,
    lean: bool = False,
) -> list[Clause]:
    """Groups E1 (dual-rail encodings), E2 (input consistency), E3 (smooth
    converse; requires a smooth graph).

    E2 and E3 are written in ascending variable order: an input id is at
    most n, every meta id is above n, and blocks are handed out in leaf
    order, so the metas of one literal ascend with the leaf index, the
    order in which E3 collects them."""
    blocks = varmap.blocks
    out: list[Clause] = []
    if which == "E1":
        build = dual_rail if lean else extended_dual_rail
        for leaf, block in zip(graph.leaves, blocks):
            out.extend(build(leaf, block))
        return out
    if which == "E2":
        for leaf, (ids, _) in zip(graph.leaves, blocks):
            for v in leaf.input_vars:
                out.append((-v, ids[v]))
                out.append((v, ids[-v]))
        return out
    if which == "E3":
        if graph.analysis.smooth_witness is not None:
            raise PreconditionError("E3 clauses require a smooth graph")
        # pos[v] and neg[v] collect -[[v]]^i and -[[-v]]^i leaf by leaf
        pos: list[list[int]] = [[] for _ in range(graph.num_inputs + 1)]
        neg: list[list[int]] = [[] for _ in range(graph.num_inputs + 1)]
        for leaf, (ids, _) in zip(graph.leaves, blocks):
            for v in leaf.input_vars:
                pos[v].append(-ids[v])
                neg[v].append(-ids[-v])
        for v in graph.input_vars:
            out.append((v, *pos[v]))
            out.append((-v, *neg[v]))
        return out
    raise InputError("which must be one of 'E1', 'E2', 'E3'")


# ---------------------------------------------------------------------------
# whole-target compilation


@dataclass
class EncodingOutput:
    target: str
    groups: dict[str, list[Clause]]
    varmap: VarMap
    graph: BdmcGraph
    cover: Optional[SeparatorCover]
    lean_cc: bool = False
    stats: Optional["SizeStats"] = None

    def all_clauses(self) -> list[Clause]:
        out: list[Clause] = []
        for tag in GROUP_ORDER:
            out.extend(self.groups.get(tag, ()))
        return out

    @property
    def num_inputs(self) -> int:
        return self.graph.num_inputs

    @property
    def num_vars(self) -> int:
        return self.varmap.num_vars


def compile_graph(
    graph: BdmcGraph,
    target: str,
    auto_smooth: bool = False,
    auto_level: bool = False,
    lean_cc: bool = False,
) -> EncodingOutput:
    """Compile to the requested target, checking its assumption column.

    Transformations are never applied silently: a target needing smoothness
    or separator covers fails on a graph lacking them unless the matching
    auto flag is set.  Each graph version (given, smoothed, leveled) is
    analysed at most once, through its memoised graph.analysis.
    """
    spec = target_spec(target)
    target = spec.name
    if lean_cc and target != "cc":
        raise InputError("--lean-cc only applies to the cc target")
    witness = graph.analysis.smooth_witness
    for leaf in graph.leaves:
        if spec.leaf_class not in CLASS_SATISFIES[leaf.claimed_class]:
            raise PreconditionError(
                f"target {target} assumes {spec.assumption}: leaf {leaf.index}"
                f" claims class {leaf.claimed_class}, which does not cover {spec.leaf_class};"
                " certify or relabel the leaf first"
            )
        if leaf.is_constant_false:
            raise PreconditionError(
                f"leaf {leaf.index} contains the empty clause; the dual-rail groups"
                " are only defined for satisfiable-shaped leaf formulas"
            )
    if spec.needs_smooth and witness is not None:
        if not auto_smooth:
            raise PreconditionError(
                f"target {target} assumes {spec.assumption}, but the graph is"
                f" not smooth (witness or-node/child/missing: {witness});"
                " pass auto_smooth or run smooth() first"
            )
        graph = smooth(graph)
    cover = None
    if spec.needs_cover:
        if not is_layered(graph):
            if not auto_level:
                raise PreconditionError(
                    f"target {target} assumes {spec.assumption}, but the graph"
                    " is not leveled into layers; pass auto_level or run level() first"
                )
            graph = level(graph)
        cover = separator_cover(graph)
    varmap = build_varmap(graph)
    circuit = circuit_clauses(graph, varmap)
    groups: dict[str, list[Clause]] = {}
    for tag in spec.groups:
        if tag in circuit:
            groups[tag] = circuit[tag]
        elif tag == "N5" and spec.sequential:
            groups[tag] = seq_separator_clauses(cover, varmap)
        elif tag in ("N5", "N6"):
            groups[tag] = separator_clauses(cover, varmap, tag)
        elif tag == "ROOT":
            groups[tag] = [(varmap.node_lits[graph.root],)]  # a node literal is never 0
        else:
            groups[tag] = leaf_clauses(graph, varmap, tag, lean=lean_cc)
    output = EncodingOutput(
        target=target,
        groups=groups,
        varmap=varmap,
        graph=graph,
        cover=cover,
        lean_cc=lean_cc,
    )
    output.stats = size_report(output)
    return output


# ---------------------------------------------------------------------------
# size accounting


@dataclass(frozen=True)
class Bound:
    name: str
    value: int
    limit: int
    exact: bool = False

    @property
    def ok(self) -> bool:
        return self.value == self.limit if self.exact else self.value <= self.limit


@dataclass(frozen=True)
class SizeStats:
    target: str
    n: int
    s: int
    e: int
    m: int
    r: int
    ell: int
    t: Optional[int]
    num_vars: int
    num_card_aux: int
    group_counts: dict[str, int]
    total_clauses: int
    bounds: tuple[Bound, ...] = field(default=())

    @property
    def violations(self) -> list[Bound]:
        return [b for b in self.bounds if not b.ok]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "params": {"n": self.n, "s": self.s, "e": self.e, "m": self.m,
                       "r": self.r, "leaves": self.ell, "t": self.t},
            "variables": self.num_vars,
            "card_aux_variables": self.num_card_aux,
            "groups": dict(self.group_counts),
            "clauses": self.total_clauses,
            "bounds": [
                {"name": b.name, "value": b.value, "limit": b.limit,
                 "exact": b.exact, "ok": b.ok}
                for b in self.bounds
            ],
            "ok": not self.violations,
        }


def size_report(output: EncodingOutput) -> SizeStats:
    """Exact per-group counts checked against the size bounds.

    E1 = r+4m exactly (r+m with lean cc), E3 = 2n exactly, N1+N2 <= e,
    N3 <= s, N5 <= s^2 (<= 3t for the sequential variant), N6 <= s^2+ns,
    variables <= n+2m+s (+t extra auxiliaries for urc-seq).
    """
    spec = target_spec(output.target)
    graph = output.graph
    n = graph.num_inputs
    s = graph.num_nodes
    e = graph.num_edges
    m = sum(leaf.num_vars for leaf in graph.leaves)
    r = sum(len(c) for leaf in graph.leaves for c in leaf.clauses)
    t = output.cover.total_size if output.cover is not None else None
    counts = {tag: len(cl) for tag, cl in output.groups.items()}
    total = sum(counts.values())
    bounds = []
    e1_limit = r + m if output.lean_cc else r + 4 * m
    bounds.append(Bound("E1 = r+m (lean)" if output.lean_cc else "E1 = r+4m",
                        counts.get("E1", 0), e1_limit, exact=True))
    bounds.append(Bound("E2 <= 2m", counts.get("E2", 0), 2 * m))
    if "E3" in counts:
        bounds.append(Bound("E3 = 2n", counts["E3"], 2 * n, exact=True))
    bounds.append(Bound("N1+N2 <= e", counts.get("N1", 0) + counts.get("N2", 0), e))
    if "N3" in counts:
        bounds.append(Bound("N3 <= s", counts["N3"], s))
    if "N5" in counts:
        if spec.sequential:
            bounds.append(Bound("N5 <= 3t (sequential)", counts["N5"], 3 * (t or 0)))
        else:
            bounds.append(Bound("N5 <= s^2", counts["N5"], s * s))
    if "N6" in counts:
        bounds.append(Bound("N6 <= s^2+ns", counts["N6"], s * s + n * s))
    if spec.sequential:
        bounds.append(Bound("vars <= n+2m+s+t", output.num_vars, n + 2 * m + s + (t or 0)))
        bounds.append(Bound("clauses <= e+s+r+8m+3t", total, e + s + r + 8 * m + 3 * (t or 0)))
    else:
        bounds.append(Bound("vars <= n+2m+s", output.num_vars, n + 2 * m + s))
        if spec.needs_cover:
            bounds.append(Bound("clauses <= e+s+r+8m+s^2+ns", total,
                                e + s + r + 8 * m + s * s + n * s))
        else:
            bounds.append(Bound("clauses <= e+s+r+8m", total, e + s + r + 8 * m))
    return SizeStats(
        target=output.target,
        n=n, s=s, e=e, m=m, r=r,
        ell=graph.num_leaves,
        t=t,
        num_vars=output.num_vars,
        num_card_aux=len(output.varmap.card_aux),
        group_counts=counts,
        total_clauses=total,
        bounds=tuple(bounds),
    )
