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
edges are never duplicated (N1-N3, N5, N6), a meta id is above every input
id and blocks ascend with the leaf index (E2, E3), and dualrail builds E1 in
the order of a leaf's block.  VarMap builds the node literals and the meta
blocks once per compile.  It holds only the numbering: formats.emit_dimacs
writes the varmap sidecar that names each variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import BdmcGraph, CLASS_SATISFIES, Clause
from .dualrail import MetaVarSpace, dual_rail, extended_dual_rail
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
    """Solver-variable numbering of one compile.

    Inputs take ids 1..n, then meta-variables leaf by leaf (space, variable
    ascending, positive before negative, bot last), then inner nodes in
    topological order (node_vars), then cardinality auxiliaries, whose
    (separator, position) pairs card_aux keeps in id order.
    formats.emit_dimacs names every variable from this numbering.
    """

    def __init__(self, graph: BdmcGraph):
        self.space = MetaVarSpace.for_leaves(graph.leaves, graph.num_inputs + 1)
        inner = [nid for nid in graph.analysis.order
                 if graph.nodes[nid].kind != "leaf"]
        first = self.space.next_id
        self.node_vars: dict[int, int] = dict(zip(inner, range(first, first + len(inner))))
        # the literal of every node, by node id, for the clause builders: its
        # own variable for an inner node, -[[bot]]^i for the leaf of formula i
        self.node_lits: list[int] = [
            -self.space.bot(nd.leaf) if nd.kind == "leaf" else self.node_vars[nid]
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


AMO_CANONICAL = "AMO_CANONICAL"
EO_CANONICAL = "EO_CANONICAL"
AMO_SEQUENTIAL = "AMO_SEQUENTIAL"


def cardinality(kind: str, lits: Sequence[int], first_aux: Optional[int] = None):
    """Cardinality constraint over the given literals.

    The literals must be over distinct variables (and the auxiliaries
    clear of them), which makes every clause canonical as built.
    Returns (clauses, aux_vars).  AMO_CANONICAL emits all prime implicates
    (the pairwise negative binaries); EO_CANONICAL adds the at-least-one
    clause; AMO_SEQUENTIAL is the Sinz ladder with len(lits)-1 fresh
    auxiliaries starting at first_aux and at most 3*len(lits)-4 clauses.
    """
    lits = list(lits)
    if not lits:
        raise InputError("cardinality constraint over an empty list")
    k = len(lits)
    used = {abs(lit) for lit in lits}
    if len(used) != k or 0 in used:
        raise InputError("cardinality constraint over repeated variables or literal 0")
    if kind in (AMO_CANONICAL, EO_CANONICAL):
        neg = [-lit for lit in lits]
        out = [_pair(neg[i], neg[j]) for i in range(k) for j in range(i + 1, k)]
        if kind == EO_CANONICAL:
            out.append(tuple(sorted(lits, key=abs)))
        return out, []
    if kind != AMO_SEQUENTIAL:
        raise InputError(f"unknown cardinality kind {kind!r}")
    if k == 1:
        return [], []
    if first_aux is None:
        raise InputError("sequential encoding needs a first_aux variable id")
    aux = list(range(first_aux, first_aux + k - 1))
    if used.intersection(aux) or first_aux < 1:
        raise InputError("sequential auxiliaries overlap the constrained variables")
    out = [_pair(-lits[0], aux[0])]
    for i in range(1, k - 1):
        out.append(_pair(-lits[i], aux[i]))
        out.append((-aux[i - 1], aux[i]))
        out.append(_pair(-lits[i], -aux[i - 1]))
    out.append(_pair(-lits[k - 1], -aux[k - 2]))
    return out, aux


def separator_clauses(cover: SeparatorCover, varmap: VarMap, kind: str) -> list[Clause]:
    """Group N5 (amo) or N6 (exactly-one) over the merged separator family."""
    if kind not in ("N5", "N6"):
        raise InputError("kind must be 'N5' or 'N6'")
    out: dict[Clause, None] = {}
    node_lits = varmap.node_lits
    for sep in cover.merged:
        lits = [node_lits[nid] for nid in sorted(sep)]
        clauses, _ = cardinality(EO_CANONICAL if kind == "N6" else AMO_CANONICAL, lits)
        for c in clauses:
            out.setdefault(c)
    return list(out)


def seq_separator_clauses(cover: SeparatorCover, varmap: VarMap) -> list[Clause]:
    """N5 variant for urc-seq: Sinz ladders for separators of size >= 3,
    canonical pairs below that (same clause count, no auxiliaries)."""
    out: dict[Clause, None] = {}
    node_lits = varmap.node_lits
    for idx, sep in enumerate(cover.merged):
        lits = [node_lits[nid] for nid in sorted(sep)]
        if len(lits) <= 2:
            clauses, _ = cardinality(AMO_CANONICAL, lits)
        else:
            first = varmap.num_vars + 1
            clauses, aux = cardinality(AMO_SEQUENTIAL, lits, first_aux=first)
            for pos in range(len(aux)):
                varmap.add_card_aux(idx, pos + 1)
        for c in clauses:
            out.setdefault(c)
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
    space = varmap.space
    out: list[Clause] = []
    if which == "E1":
        build = dual_rail if lean else extended_dual_rail
        for leaf in graph.leaves:
            out.extend(build(leaf, space))
        return out
    if which == "E2":
        for leaf in graph.leaves:
            ids = space.block(leaf.index)[0]
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
        for leaf in graph.leaves:
            ids = space.block(leaf.index)[0]
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
    num_vars: int
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
        num_vars=varmap.num_vars,
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
