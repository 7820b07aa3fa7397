"""Parsing and serialization: the BDMC text format and DIMACS output.

BDMC format (UTF-8, line oriented, '#' starts a comment):

    bdmc <numNodes> <numEdges> <numLeaves> <numInputVars>
    inputs x1 x2 ... xn
    <one line per node, ids are 0-based listing order>
        A <k> <childId>...   |   O <k> <childId>...   |   L <leafIndex>
    root <nodeId>
    leaf <leafIndex> inputs <names...> aux <names...> clauses <m> [class <c>]
    <m clause lines over the declared names, '-' for negation, 0-terminated>

The optional trailing `class` tag records the leaf's claimed base class; files
without it get a syntactic default (constant true, single input literal, else
cc).  Auxiliary names may repeat across leaf blocks; they are renamed apart
internally.

parse_bdmc refuses each malformed line with a ParseError naming it, and
builds the graph from its checked parts without core.assemble_graph or
core.make_leaf.  The rules LeafEncoding itself holds (a known class, and
inputs unless the leaf is constant) are left to it and reported on the
leaf's line.  A cycle, a node the root does not reach, an input in no
leaf or an and-node whose children share a variable is refused when the
graph is first analysed (core.analyze).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import TYPE_CHECKING

from .core import BdmcGraph, Clause, LeafEncoding, Node, infer_claimed_class, make_clause
from .errors import InputError, ParseError

if TYPE_CHECKING:
    from .encoder import EncodingOutput

_json_str = json.encoder.encode_basestring_ascii

KEYWORDS = {"bdmc", "inputs", "aux", "clauses", "root", "leaf", "class", "A", "O", "L"}


def _is_name(tok: str) -> bool:
    if not tok or tok in KEYWORDS or tok == "0" or tok.startswith("-"):
        return False
    return all(ch.isalnum() or ch in "_@." for ch in tok) and not tok[0].isdigit()


def _decimal(tok: str) -> int:
    """int(tok) for ASCII decimal digits with an optional sign; int() alone
    also reads '1_0' as 10 and the Arabic-Indic '١' as 1."""
    value = int(tok)
    if "_" in tok or not tok.isascii():
        raise ValueError(f"{tok!r} is not an ASCII decimal integer")
    return value


def _int(tok: str, lno: int, what: str) -> int:
    try:
        return _decimal(tok)
    except ValueError:
        raise ParseError(f"expected {what}, got {tok!r}", line=lno) from None


def _count(tok: str, lno: int, what: str) -> int:
    value = _int(tok, lno, what)
    if value < 0:
        raise ParseError(f"{what} cannot be negative, got {tok!r}", line=lno)
    return value


def _leaf_index(tok: str, lno: int, n_leaves: int, seen: set[int], twice: str) -> int:
    """A leaf index in 1..n_leaves not yet in seen, which takes it."""
    index = _int(tok, lno, "a leaf index")
    if not 1 <= index <= n_leaves:
        raise ParseError(f"leaf index {index} out of range 1..{n_leaves}", line=lno)
    if index in seen:
        raise ParseError(f"leaf {index} {twice}", line=lno)
    seen.add(index)
    return index


def parse_bdmc(text: str) -> BdmcGraph:
    """Parse a BDMC document into a graph whose ids, leaf<->node bijection,
    edges and variables are checked, each on its line."""
    rows = iter([(lno, toks) for lno, raw in enumerate(text.splitlines(), start=1)
                 for toks in [raw.split("#", 1)[0].split()] if toks])

    def take(what: str) -> tuple[int, list[str]]:
        row = next(rows, None)
        if row is None:
            raise ParseError(f"unexpected end of file, expected {what}")
        return row

    header, toks = take("header line 'bdmc ...'")
    if toks[0] != "bdmc" or len(toks) != 5:
        raise ParseError("expected header 'bdmc <nodes> <edges> <leaves> <inputVars>'",
                         line=header)
    n_nodes, n_edges, n_leaves, n_inputs = (_count(t, header, "a count") for t in toks[1:])
    lno, toks = take("'inputs' line")
    if toks[0] != "inputs":
        raise ParseError("expected 'inputs' line", line=lno)
    input_names = toks[1:]
    if len(input_names) != n_inputs:
        raise ParseError(
            f"header declares {n_inputs} input variables, 'inputs' lists {len(input_names)}",
            line=lno,
        )
    for col, name in enumerate(input_names, start=2):
        if not _is_name(name):
            raise ParseError(f"invalid input variable name {name!r}", line=lno, column=col)
    if len(set(input_names)) != len(input_names):
        raise ParseError("duplicate input variable name", line=lno)
    input_id = {name: i + 1 for i, name in enumerate(input_names)}

    if n_nodes == 0:
        raise ParseError("no nodes: sentence has no root", line=header)
    nodes: list[Node] = []
    edge_count = 0
    attached: set[int] = set()
    for _ in range(n_nodes):
        lno, toks = take("a node line")
        kind = toks[0]
        if kind == "L":
            if len(toks) != 2:
                raise ParseError("leaf node line must be 'L <leafIndex>'", line=lno)
            leaf = _leaf_index(toks[1], lno, n_leaves, attached, "attached to two nodes")
            nodes.append(Node("leaf", leaf=leaf))
        elif kind in ("A", "O"):
            if len(toks) < 2:
                raise ParseError(f"node line must be '{kind} <k> <children...>'", line=lno)
            k = _count(toks[1], lno, "a child count")
            kids = [_int(t, lno, "a child id") for t in toks[2:]]
            if len(kids) != k:
                raise ParseError(f"node declares {k} children but lists {len(kids)}", line=lno)
            for ch in kids:
                if not (0 <= ch < n_nodes):
                    raise ParseError(f"child id {ch} out of range 0..{n_nodes - 1}", line=lno)
            if len(set(kids)) != len(kids):
                raise ParseError("duplicate edge", line=lno)
            if k == 0:
                raise ParseError("inner node must have at least one child", line=lno)
            edge_count += k
            nodes.append(Node("and" if kind == "A" else "or", children=tuple(kids)))
        else:
            raise ParseError(f"unknown node kind {kind!r}", line=lno, column=1)
    if edge_count != n_edges:
        raise ParseError(f"header declares {n_edges} edges, nodes list {edge_count}",
                         line=header)

    lno, toks = take("'root' line")
    if toks[0] != "root" or len(toks) != 2:
        raise ParseError("expected 'root <nodeId>'", line=lno)
    root = _int(toks[1], lno, "a node id")
    if not (0 <= root < n_nodes):
        raise ParseError(f"root id {root} out of range", line=lno)

    leaves: list[LeafEncoding] = []
    declared: set[int] = set()
    next_aux = n_inputs + 1
    for _ in range(n_leaves):
        lno, toks = take("a 'leaf' block")
        if toks[0] != "leaf":
            raise ParseError("expected 'leaf' block", line=lno)
        try:
            i_inputs = toks.index("inputs")
            i_aux = toks.index("aux")
            i_clauses = toks.index("clauses")
        except ValueError:
            raise ParseError("leaf line needs 'inputs', 'aux' and 'clauses' sections", line=lno)
        if i_inputs != 2 or not (i_inputs < i_aux < i_clauses):
            raise ParseError("leaf line sections out of order", line=lno)
        index = _leaf_index(toks[1], lno, n_leaves, declared, "has two 'leaf' blocks")
        if index not in attached:
            raise ParseError(f"leaf {index} has no node", line=lno)
        in_names = toks[i_inputs + 1:i_aux]
        aux_names = toks[i_aux + 1:i_clauses]
        tail = toks[i_clauses + 1:]
        if not tail:
            raise ParseError("missing clause count", line=lno)
        m = _count(tail[0], lno, "a clause count")
        claimed = None
        if len(tail) > 1:
            if tail[1] != "class" or len(tail) != 3:
                raise ParseError("trailing tokens must be 'class <c>'", line=lno)
            claimed = tail[2].lower()
        for name in in_names:
            if name not in input_id:
                raise ParseError(f"leaf {index} references undeclared input var {name!r}", line=lno)
        if len(set(in_names)) != len(in_names):
            raise ParseError(f"leaf {index} lists an input variable twice", line=lno)
        for name in aux_names:
            if not _is_name(name):
                raise ParseError(f"invalid aux variable name {name!r}", line=lno)
            if name in input_id:
                raise ParseError(f"aux name {name!r} clashes with an input variable", line=lno)
        if len(set(aux_names)) != len(aux_names):
            raise ParseError(f"leaf {index} lists an aux variable twice", line=lno)
        aux_ids = tuple(range(next_aux, next_aux + len(aux_names)))
        next_aux += len(aux_names)
        local = {name: input_id[name] for name in in_names}  # aux names are not input names
        local.update(zip(aux_names, aux_ids))
        clauses: dict[Clause, None] = {}  # canonical, each once, in first-seen order
        for _c in range(m):
            clno, ctoks = take(f"clause {_c + 1} of leaf {index}")
            if not ctoks or ctoks[-1] != "0":
                raise ParseError("clause line must be 0-terminated", line=clno)
            lits = []
            for col, tok in enumerate(ctoks[:-1], start=1):
                neg = tok.startswith("-")
                name = tok[1:] if neg else tok
                var = local.get(name)
                if var is None:
                    if name in input_id:
                        raise ParseError(
                            f"leaf {index}: clause uses input {name!r} not declared for this leaf",
                            line=clno, column=col,
                        )
                    raise ParseError(f"unknown variable {name!r} in clause", line=clno, column=col)
                lits.append(-var if neg else var)
            try:
                clauses.setdefault(make_clause(lits))
            except InputError as exc:
                raise ParseError(str(exc), line=clno) from None
        in_ids = tuple(sorted(local[name] for name in in_names))
        cnf = tuple(clauses)
        claimed = claimed or infer_claimed_class(in_ids, aux_ids, cnf)
        try:  # the leaf's own rules, after any bad clause line
            leaves.append(LeafEncoding(index, in_ids, aux_ids, cnf, claimed, tuple(aux_names)))
        except InputError as exc:
            raise ParseError(str(exc), line=lno) from None
    for lno, toks in rows:
        raise ParseError(f"unexpected trailing content {' '.join(toks)!r}", line=lno)
    leaves.sort(key=lambda leaf: leaf.index)
    return BdmcGraph(tuple(nodes), root, n_inputs, tuple(leaves), tuple(input_names))


def serialize_bdmc(graph: BdmcGraph) -> str:
    """Canonical text for a graph; parse(serialize(g)) is isomorphic to g.
    Raises InputError on names the text cannot carry: one that is not a name
    token, an input or one leaf's aux named twice, an aux name equal to an
    input's, and an aux variable without a name."""
    inputs = set(graph.input_names)
    for name in graph.input_names:
        if not _is_name(name):
            raise InputError(f"invalid input variable name {name!r}")
    if len(inputs) != len(graph.input_names):
        raise InputError("duplicate input variable name")
    out = [f"bdmc {graph.num_nodes} {graph.num_edges} {graph.num_leaves} {graph.num_inputs}"]
    out.append("inputs " + " ".join(graph.input_names))
    for nd in graph.nodes:
        if nd.kind == "leaf":
            out.append(f"L {nd.leaf}")
        else:
            head = "A" if nd.kind == "and" else "O"
            out.append(f"{head} {len(nd.children)} " + " ".join(str(c) for c in nd.children))
    out.append(f"root {graph.root}")
    for leaf in graph.leaves:
        if len(leaf.aux_names) != len(leaf.aux_vars):
            raise InputError(f"leaf {leaf.index}: aux name count mismatch")
        for name in leaf.aux_names:
            if not _is_name(name):
                raise InputError(f"invalid aux variable name {name!r}")
            if name in inputs:
                raise InputError(f"aux name {name!r} clashes with an input variable")
        if len(set(leaf.aux_names)) != len(leaf.aux_names):
            raise InputError(f"leaf {leaf.index} lists an aux variable twice")
        name_of = {v: graph.input_names[v - 1] for v in leaf.input_vars}
        name_of.update(dict(zip(leaf.aux_vars, leaf.aux_names)))
        head = (
            f"leaf {leaf.index} inputs "
            + " ".join(graph.input_names[v - 1] for v in leaf.input_vars)
            + " aux " + " ".join(leaf.aux_names)
        ).rstrip()
        out.append(f"{head} clauses {len(leaf.clauses)} class {leaf.claimed_class}")
        for clause in leaf.clauses:
            toks = [("-" if l < 0 else "") + name_of[abs(l)] for l in clause]
            out.append(" ".join(toks + ["0"]))
    return "\n".join(out) + "\n"


def emit_dimacs(output: "EncodingOutput") -> tuple[str, str]:
    """DIMACS text plus the varmap sidecar (one JSON object per line).

    Clause order: groups in the fixed order N1,N2,N3,N5,N6,E1,E2,E3,ROOT,
    construction order within each group.  Each text is built by one join
    over its rows, and each row is one %-format.  A clause row is its
    literals and a 0, space separated, from the format for its length.

    The sidecar has one row per solver variable, in id order, each the text
    of json.dumps(row, separators=(", ", ": ")) from the format for its
    role.  This is the one writer of those rows, and it takes them straight
    from the VarMap numbering: input names, varmap.blocks in leaf order,
    then node_vars, then card_aux on the last ids.  An aux variable goes by
    its name, suffixed @leaf where leaves share the name (v<id> if it has
    none).
    Each name from the sentence is escaped once by encode_basestring_ascii;
    the generated names need no escaping.
    """
    clauses = output.all_clauses()
    row = [" ".join(["%d"] * k) + " 0\n" for k in range(max(map(len, clauses), default=0) + 1)]
    cnf_text = f"p cnf {output.num_vars} {len(clauses)}\n" + "".join(
        [row[len(clause)] % clause for clause in clauses])
    graph, varmap = output.graph, output.varmap
    text = {v: _json_str(name)[1:-1] for v, name in enumerate(graph.input_names, start=1)}
    rows = ['{"id": %d, "role": "input", "name": "%s"}' % item for item in text.items()]
    uses = Counter(name for leaf in graph.leaves for name in leaf.aux_names)
    for leaf in graph.leaves:
        for v, name in zip(leaf.aux_vars, leaf.aux_names):
            text[v] = _json_str(name if uses[name] <= 1 else f"{name}@{leaf.index}")[1:-1]
    meta = '{"id": %d, "role": "meta", "name": "[[%s%s]]@%d", "leaf": %d, "literal": "%s%s"}'
    for leaf, (ids, bot) in zip(graph.leaves, varmap.blocks):
        i = leaf.index
        metas = iter(ids.items())
        for (v, pos), (_, neg) in zip(metas, metas):
            name = text[v] if v in text else f"v{v}"
            rows.append(meta % (pos, "", name, i, i, "", name))
            rows.append(meta % (neg, "-", name, i, i, "-", name))
        rows.append(meta % (bot, "", "bot", i, i, "", "bot"))
    rows.extend('{"id": %d, "role": "node", "name": "n%d", "node": %d}' % (var, nid, nid)
                for nid, var in varmap.node_vars.items())
    first = varmap.num_vars - len(varmap.card_aux) + 1
    rows.extend('{"id": %d, "role": "card-aux", "name": "s%d.%d", "separator": %d,'
                ' "position": %d}' % (var, sep, pos, sep, pos)
                for var, (sep, pos) in enumerate(varmap.card_aux, start=first))
    return cnf_text, "\n".join(rows) + "\n"


# Canonical DIMACS, the text `emit_dimacs` writes and the only text the bulk
# reader takes: blank or comment lines, the 'p cnf <n> <m>' header, then
# literals in ASCII digits, '-' and '+' among spaces, tabs and line breaks,
# comment lines anywhere.  Lines end at \n, \r\n or a lone \r; a text with any
# other break of `str.splitlines` (\v, \f, \x1c-\x1e, \x85, \u2028, \u2029)
# fails these patterns and goes to the line loop.
_EOL = r"(?:\r\n|\r(?!\n)|\n)"
_REST = r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"
_HEADER = re.compile(
    rf"(?:[ \t]*(?:c{_REST})?{_EOL})*[ \t]*p[ \t]+cnf[ \t]+([0-9]+)[ \t]+([0-9]+)[ \t]*(?:{_EOL}|\Z)")
_COMMENT_LINE = re.compile(rf"(?:\A|(?<=[\r\n]))[ \t]*c{_REST}")
_BODY = re.compile(r"[0-9+\- \t\r\n]*")


def _bulk_literals(text: str) -> tuple[int, int, tuple[int, ...]] | None:
    """(nvars, declared clauses, literal stream) of a canonical text whose
    literals are all integers within +-nvars; None gives the text up."""
    head = _HEADER.match(text)
    if head is None:
        return None
    body = text[head.end():]
    if "c" in body:
        body = _COMMENT_LINE.sub("", body)
    if _BODY.fullmatch(body) is None:
        return None
    try:
        nvars, declared = int(head[1]), int(head[2])
        lits = tuple(map(int, body.split()))
        if lits and (min(lits) < -nvars or max(lits) > nvars):
            return None
    except ValueError:
        return None
    return nvars, declared, lits


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Read a DIMACS CNF file: (num_vars, clauses).

    After the 'p cnf' header the literals form one stream in which 0 ends a
    clause, so a clause may span lines and a line may hold several clauses.
    Header counts are checked.  Integers are ASCII decimal with an optional
    sign ('+1' and '-0' are read, '1_0' and non-ASCII digits are refused).

    Canonical text, the kind `emit_dimacs` writes, is read in bulk when its
    literals all lie within +-num_vars: one split of the body, clauses cut as
    slices at its zeros.  It is the header after any blank or comment lines,
    then literals in ASCII digits and signs among spaces, tabs and \n, \r\n or
    \r line breaks, with comment lines anywhere.  Every other text, each
    malformed one included, goes through the line loop, which words every
    `ParseError` and its line number.
    """
    bulk = _bulk_literals(text)
    if bulk is None:
        return _parse_dimacs_lines(text)
    nvars, declared, lits = bulk
    clauses: list[tuple[int, ...]] = []
    start = 0
    index = lits.index
    for _ in range(lits.count(0)):
        end = index(0, start)
        clauses.append(lits[start:end])
        start = end + 1
    if start < len(lits):
        raise ParseError("last clause is not ended by 0")
    if declared != len(clauses):
        raise ParseError(f"header declares {declared} clauses, found {len(clauses)}")
    return nvars, clauses


def _parse_dimacs_lines(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """`parse_dimacs` one line at a time: the reader of any text and the
    source of every diagnostic."""
    nvars = None
    declared = None
    clauses: list[tuple[int, ...]] = []
    lits: list[int] = []
    try:
        for lno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) != 4 or parts[1] != "cnf":
                    raise ParseError(f"bad problem line {line!r}", line=lno)
                if nvars is not None:
                    raise ParseError("'p cnf' header must come once, before the clauses", line=lno)
                nvars, declared = _decimal(parts[2]), _decimal(parts[3])
                if nvars < 0 or declared < 0:
                    raise ParseError(f"negative count in problem line {line!r}", line=lno)
                continue
            if nvars is None:
                raise ParseError("clause before 'p cnf' header", line=lno)
            for lit in map(_decimal, line.split()):
                if lit == 0:
                    clauses.append(tuple(lits))
                    lits = []
                elif -nvars <= lit <= nvars:
                    lits.append(lit)
                else:
                    raise ParseError(f"literal {lit} out of range", line=lno)
    except ValueError as exc:
        raise ParseError(f"expected an integer: {exc}", line=lno) from None
    if nvars is None:
        raise ParseError("missing 'p cnf' header")
    if lits:
        raise ParseError("last clause is not ended by 0")
    if declared != len(clauses):
        raise ParseError(f"header declares {declared} clauses, found {len(clauses)}")
    return nvars, clauses
