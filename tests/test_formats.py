"""BDMC text format round-trips, DIMACS emission, varmap sidecar."""

import json

import pytest

from bdmc import compile_graph
from bdmc.core import build_graph, enumerate_models, leaf_spec
from bdmc.errors import ParseError
from bdmc.formats import emit_dimacs, parse_bdmc, parse_dimacs, serialize_bdmc
from bdmc.transform import level, smooth

from conftest import g1

G1_TEXT = """\
# running example
bdmc 3 2 2 2
inputs x1 x2
O 2 1 2
L 1
L 2
root 0
leaf 1 inputs x1 x2 aux clauses 1 class pc
x1 x2 0
leaf 2 inputs x1 x2 aux clauses 2 class pc
-x1 0
x2 0
"""


def iso(a, b):
    """Structural isomorphism up to node order: same shape, same leaf data."""
    assert a.num_inputs == b.num_inputs
    assert a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
    assert a.num_leaves == b.num_leaves
    seen = set()

    def walk(x, y):
        if (x, y) in seen:
            return
        seen.add((x, y))
        na, nb = a.nodes[x], b.nodes[y]
        assert na.kind == nb.kind
        if na.kind == "leaf":
            la, lb = a.leaves[na.leaf - 1], b.leaves[nb.leaf - 1]
            assert la.input_vars == lb.input_vars
            assert la.claimed_class == lb.claimed_class
            assert len(la.clauses) == len(lb.clauses)
        else:
            assert len(na.children) == len(nb.children)
            for ca, cb in zip(na.children, nb.children):
                walk(ca, cb)

    walk(a.root, b.root)


def test_parse_g1_document():
    g = parse_bdmc(G1_TEXT)
    gref = g1()
    iso(g, gref)
    assert enumerate_models(g) == enumerate_models(gref)


def test_round_trip_g1():
    g = g1()
    text = serialize_bdmc(g)
    iso(parse_bdmc(text), g)
    assert serialize_bdmc(parse_bdmc(text)) == text


def test_round_trip_after_transforms():
    g = level(smooth(parse_bdmc(G1_TEXT)))
    text = serialize_bdmc(g)
    iso(parse_bdmc(text), g)


def test_round_trip_single_leaf_aux():
    g = build_graph(
        nodes=[("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], aux=2, clauses=[[1, 3], [-3, 4], [2, -4]])],
        n=2,
    )
    g2 = parse_bdmc(serialize_bdmc(g))
    iso(g2, g)
    assert enumerate_models(g2) == enumerate_models(g)


def test_aux_names_renamed_apart():
    text = """\
bdmc 3 2 2 1
inputs x1
O 2 1 2
L 1
L 2
root 0
leaf 1 inputs x1 aux y1 clauses 1
x1 y1 0
leaf 2 inputs x1 aux y1 clauses 1
-x1 -y1 0
"""
    g = parse_bdmc(text)
    assert g.leaves[0].aux_vars != g.leaves[1].aux_vars


def test_parse_errors():
    with pytest.raises(ParseError, match="no root"):
        parse_bdmc("bdmc 0 0 0 0\ninputs\n")
    with pytest.raises(ParseError, match="undeclared input"):
        parse_bdmc("bdmc 1 0 1 1\ninputs x1\nL 1\nroot 0\n"
                    "leaf 1 inputs zz aux clauses 0\n")
    with pytest.raises(ParseError, match="edges"):
        parse_bdmc("bdmc 1 5 1 1\ninputs x1\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 aux clauses 0\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_bdmc("bdmc 2 2 1 1\ninputs x1\nO 2 1 1\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 aux clauses 0\n")
    with pytest.raises(ParseError) as err:
        parse_bdmc("bdmc 1 0 1 1\ninputs x1\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 aux clauses 1\nx1 oops 0\n")
    assert err.value.line == 6


def test_default_class_inference():
    text = ("bdmc 1 0 1 1\ninputs x1\nL 1\nroot 0\n"
            "leaf 1 inputs x1 aux clauses 1\nx1 0\n")
    assert parse_bdmc(text).leaves[0].claimed_class == "literal"
    text2 = ("bdmc 1 0 1 1\ninputs x1\nL 1\nroot 0\n"
             "leaf 1 inputs x1 aux clauses 0\n")
    assert parse_bdmc(text2).leaves[0].claimed_class == "true"


def test_emit_dimacs_g1_cc():
    out = compile_graph(g1(), "cc")
    cnf_text, varmap_text = emit_dimacs(out)
    lines = cnf_text.splitlines()
    assert lines[0] == "p cnf 13 30"
    nvars, clauses = parse_dimacs(cnf_text)
    assert nvars == 13 and len(clauses) == 30
    assert len(clauses) == sum(out.stats.group_counts.values())
    rows = [json.loads(r) for r in varmap_text.splitlines()]
    assert [r["id"] for r in rows] == list(range(1, 14))
    assert rows[0] == {"id": 1, "role": "input", "name": "x1"}
    meta = [r for r in rows if r["role"] == "meta" and r["leaf"] == 2 and r["literal"] == "-x1"]
    assert len(meta) == 1


def test_varmap_roles_are_bijective(compiled_corpus):
    out = compiled_corpus[0]["urc-seq"]
    rows = out.varmap.entries
    assert len({r["id"] for r in rows}) == len(rows) == out.num_vars
    inputs = [r for r in rows if r["role"] == "input"]
    assert [r["id"] for r in inputs] == list(range(1, out.num_inputs + 1))


def test_zero_clause_dimacs_header():
    out = compile_graph(g1(), "cc")
    out.groups = {"ROOT": []}
    cnf_text, _ = emit_dimacs(out)
    assert cnf_text.splitlines()[0] == "p cnf 13 0"


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")
    with pytest.raises(ParseError, match="not ended by 0"):
        parse_dimacs("p cnf 2 2\n1 0 2\n")
    with pytest.raises(ParseError, match="once, before the clauses"):
        parse_dimacs("p cnf 2 1\n1 0\np cnf 2 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_dimacs("p cnf 2 1\n1\n-3 0\n")
    with pytest.raises(ParseError, match=r"expected an integer.*\(line 3\)"):
        parse_dimacs("p cnf 2 1\n1\n2 x 0\n")


def test_parse_dimacs_clause_stream():
    # clauses may span lines and share a line; comments may sit in between
    text = "c head\np cnf 3 4\n1 -2\n3 0 -1 0\nc mid\n2\n  -3\n0 0\n"
    assert parse_dimacs(text) == (3, [(1, -2, 3), (-1,), (2, -3), ()])


def test_serialize_is_deterministic(corpus):
    for g in corpus[:10]:
        assert serialize_bdmc(g) == serialize_bdmc(g)
        g2 = parse_bdmc(serialize_bdmc(g))
        assert serialize_bdmc(g2) == serialize_bdmc(g)


def test_parser_mutations_raise_only_package_errors(corpus):
    # byte-level fuzz: any mutation must parse or fail with a BdmcError
    import random
    from bdmc.errors import BdmcError

    rng = random.Random(99)
    base = serialize_bdmc(corpus[0])
    alphabet = "ab01 -\n#Lxy"
    for _ in range(300):
        chars = list(base)
        for _k in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            op = rng.random()
            if op < 0.4:
                chars[pos] = rng.choice(alphabet)
            elif op < 0.7:
                del chars[pos]
            else:
                chars.insert(pos, rng.choice(alphabet))
        try:
            parse_bdmc("".join(chars))
        except BdmcError:
            pass


def _sentence(inputs="x1 x2", nodes="L 1", root="root 0", leaf="leaf 1 inputs x1 x2 aux clauses 1"):
    """A one-leaf sentence with one of its lines replaced."""
    return f"bdmc 1 0 1 2\ninputs {inputs}\n{nodes}\n{root}\n{leaf}\nx1 x2 0\n"


@pytest.mark.parametrize("parse, message", [
    pytest.param(lambda: parse_bdmc(_sentence(inputs="x1 x1")),
                 "duplicate input variable name (line 2)", id="duplicate-input-name"),
    pytest.param(lambda: parse_bdmc(_sentence(nodes="O 0")),
                 "inner node must have at least one child (line 3)", id="or-without-children"),
    pytest.param(lambda: parse_bdmc(_sentence(root="root 1")),
                 "root id 1 out of range (line 4)", id="root-out-of-range"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x2 aux clauses")),
                 "missing clause count (line 5)", id="missing-clause-count"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x1 aux clauses 1")),
                 "leaf 1 lists an input variable twice (line 5)", id="leaf-input-twice"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 aux x2 clauses 1")),
                 "aux name 'x2' clashes with an input variable (line 5)", id="aux-clashes-with-input"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x2 aux a a clauses 1")),
                 "leaf 1 lists an aux variable twice (line 5)", id="aux-twice"),
    pytest.param(lambda: parse_dimacs("c a comment, and no clauses\n"),
                 "missing 'p cnf' header", id="dimacs-without-header"),
])
def test_format_refusals(parse, message):
    with pytest.raises(ParseError) as refused:
        parse()
    assert type(refused.value) is ParseError and str(refused.value) == message
