"""BDMC text format round-trips, DIMACS emission, varmap sidecar."""

import json
from dataclasses import replace

import pytest

from bdmc import compile_graph
from bdmc.core import build_graph, enumerate_models, leaf_spec
from bdmc.errors import InputError, ParseError
from bdmc.formats import emit_dimacs, parse_bdmc, parse_dimacs, serialize_bdmc
from bdmc.transform import level, smooth

from conftest import g1
from oracles import assert_assembled

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


def test_constant_leaves_without_inputs_parse():
    # constant true (no clause) and constant false (the empty clause)
    for clauses, cls in (("clauses 0", "true"), ("clauses 1\n0", "pc")):
        g = parse_bdmc(f"bdmc 1 0 1 0\ninputs\nL 1\nroot 0\nleaf 1 inputs aux {clauses}\n")
        assert (g.leaves[0].input_vars, g.leaves[0].claimed_class) == ((), cls)


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


def varmap_rows(out):
    """The emitted varmap rows, each checked to be the bytes of
    json.dumps(row, separators=(", ", ": ")), as parsed dicts."""
    _, varmap_text = emit_dimacs(out)
    assert varmap_text.endswith("\n")
    rows = varmap_text.splitlines()
    for row in rows:
        assert row == json.dumps(json.loads(row), separators=(", ", ": "))
    return [json.loads(row) for row in rows]


def test_varmap_roles_are_bijective(compiled_corpus):
    for outputs in compiled_corpus:
        for target, out in outputs.items():
            rows = varmap_rows(out)
            assert [r["id"] for r in rows] == list(range(1, out.num_vars + 1)), target
            roles = [r["role"] for r in rows]
            vm = out.varmap
            n_meta = vm.blocks[-1][1] - out.num_inputs
            assert roles == (["input"] * out.num_inputs + ["meta"] * n_meta
                             + ["node"] * len(vm.node_vars) + ["card-aux"] * len(vm.card_aux))


def test_varmap_rows_escape_names():
    names = ['q"uote', "back\\slash", "caf\u00e9", "snow\u2603"]
    leaves = [leaf_spec(inputs=[1, 2, 3, 4], clauses=[[1, 2, 5], [-5, 3, 4]], aux=1,
                        aux_names=['y"\u2603'])]
    out = compile_graph(build_graph(nodes=[("leaf", 1)], leaves=leaves, input_names=names), "cc")
    rows = varmap_rows(out)
    assert len(rows) == out.num_vars
    assert [r["name"] for r in rows[:4]] == names
    assert [r["literal"] for r in rows if r["role"] == "meta"] == [
        *(sign + name for name in names for sign in ("", "-")), 'y"\u2603', '-y"\u2603', "bot"]
    _, varmap_text = emit_dimacs(out)
    assert '"literal": "-y\\"\\u2603"' in varmap_text


def test_varmap_rows_of_every_role():
    # three leaves under one or-node share a separator of size 3, so urc-seq
    # adds card-aux rows; the shared aux name gets @leaf suffixes
    names = ["x\u00e9", 'snow"\u2603']
    leaves = [leaf_spec(inputs=[1, 2], clauses=[[1, -2, 3]], aux=1, aux_names=["y\u2603"],
                        cls="pc") for _ in range(3)]
    g = build_graph(nodes=[("or", [1, 2, 3]), ("leaf", 1), ("leaf", 2), ("leaf", 3)],
                    leaves=leaves, input_names=names)
    out = compile_graph(g, "urc-seq")
    rows = varmap_rows(out)
    assert [r["id"] for r in rows] == list(range(1, out.num_vars + 1))
    by_role = {}
    for r in rows:
        by_role.setdefault(r["role"], []).append(r)
    assert sorted(by_role) == ["card-aux", "input", "meta", "node"]
    assert by_role["input"] == [{"id": v, "role": "input", "name": name}
                                for v, name in enumerate(names, start=1)]
    # each field against the numbering: metas from the blocks, nodes from
    # node_vars, card-aux rows from card_aux after every other id
    vm = out.varmap
    want = []
    for leaf, (ids, bot) in zip(out.graph.leaves, vm.blocks):
        i = leaf.index
        name_of = {**dict(enumerate(names, start=1)), leaf.aux_vars[0]: f"y\u2603@{i}"}
        for lit, mid in ids.items():
            literal = ("-" if lit < 0 else "") + name_of[abs(lit)]
            want.append({"id": mid, "role": "meta", "name": f"[[{literal}]]@{i}",
                         "leaf": i, "literal": literal})
        want.append({"id": bot, "role": "meta", "name": f"[[bot]]@{i}", "leaf": i,
                     "literal": "bot"})
    assert by_role["meta"] == want
    assert list(vm.node_vars) == [0]
    assert by_role["node"] == [{"id": var, "role": "node", "name": f"n{nid}", "node": nid}
                               for nid, var in vm.node_vars.items()]
    first = out.num_vars - len(vm.card_aux) + 1
    assert vm.card_aux == [(0, 1), (0, 2)]
    assert by_role["card-aux"] == [
        {"id": var, "role": "card-aux", "name": f"s{sep}.{pos}", "separator": sep, "position": pos}
        for var, (sep, pos) in enumerate(vm.card_aux, start=first)]
    _, varmap_text = emit_dimacs(out)
    assert '{"id": 2, "role": "input", "name": "snow\\"\\u2603"}\n' in varmap_text
    assert ('"name": "[[-y\\u2603@3]]@3", "leaf": 3, "literal": "-y\\u2603@3"}'
            in varmap_text)


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
    # int() alone reads '1_0' as 10 and the Arabic-Indic digit one as 1
    for text, line in (("p cnf 2 1\n1_0 0\n", 2), ("p cnf 2 1\n\u0661 0\n", 2),
                       ("p cnf 1_0 1\n1 0\n", 1), ("c\np cnf 2 \uff11\n1 0\n", 2)):
        with pytest.raises(ParseError, match=rf"is not an ASCII decimal integer \(line {line}\)"):
            parse_dimacs(text)


def test_signed_integers_are_read():
    # an explicit sign stays accepted in both formats, '-0' included
    graph = parse_bdmc(_sentence(nodes="L +1", root="root -0"))
    assert graph.root == 0 and graph.nodes[0].leaf == 1
    assert parse_dimacs("p cnf +2 1\n+1 -2 -0\n") == (2, [(1, -2)])


def test_parse_dimacs_clause_stream():
    # clauses may span lines and share a line; comments may sit in between
    text = "c head\np cnf 3 4\n1 -2\n3 0 -1 0\nc mid\n2\n  -3\n0 0\n"
    assert parse_dimacs(text) == (3, [(1, -2, 3), (-1,), (2, -3), ()])


def test_leaf_blocks_in_any_order():
    # leaves are kept by index, as assemble_graph keeps them
    head, leaf1, leaf2 = G1_TEXT.split("leaf ")
    swapped = parse_bdmc(head + "leaf " + leaf2 + "leaf " + leaf1)
    assert_assembled(swapped)
    assert swapped == parse_bdmc(G1_TEXT)


@pytest.mark.parametrize("names, aux_names, message", [
    pytest.param(["y1"], ["y1"], "aux name 'y1' clashes with an input variable",
                 id="aux-is-input"),
    pytest.param(["x 1"], ["y1"], "invalid input variable name 'x 1'", id="bad-input"),
    pytest.param(["class"], ["y1"], "invalid input variable name 'class'", id="keyword-input"),
    pytest.param(["x1"], ["-y"], "invalid aux variable name '-y'", id="bad-aux"),
    pytest.param(["x1", "x1"], ["y1"], "duplicate input variable name", id="input-twice"),
    pytest.param(["x1"], ["y1", "y1"], "leaf 1 lists an aux variable twice", id="aux-twice"),
])
def test_serialize_refuses_names_the_text_cannot_carry(names, aux_names, message):
    # build_graph takes any name; the text must read back as the same graph
    clause = list(range(1, len(names) + len(aux_names) + 1))
    g = build_graph([("leaf", 1)], [leaf_spec(inputs=range(1, len(names) + 1), aux=len(aux_names),
                                              aux_names=aux_names, clauses=[clause])],
                    input_names=names)
    with pytest.raises(InputError) as refused:
        serialize_bdmc(g)
    assert str(refused.value) == message


def test_serialize_refuses_an_aux_variable_without_a_name():
    g = build_graph([("leaf", 1)], [leaf_spec(inputs=[1], aux=1, clauses=[[1, 2]])], n=1)
    g = replace(g, leaves=(replace(g.leaves[0], aux_names=()),))
    with pytest.raises(InputError, match="leaf 1: aux name count mismatch"):
        serialize_bdmc(g)


def test_serialize_keeps_an_aux_name_shared_across_leaves():
    leaves = [leaf_spec(inputs=[v], aux=1, aux_names=["y"], clauses=[[1, 2]], cls="pc")
              for v in (1, 2)]
    g = build_graph([("and", [1, 2]), ("leaf", 1), ("leaf", 2)], leaves, n=2)
    text = serialize_bdmc(g)
    assert serialize_bdmc(parse_bdmc(text)) == text


def test_serialize_is_deterministic(corpus):
    for g in corpus[:10]:
        assert serialize_bdmc(g) == serialize_bdmc(g)
        g2 = parse_bdmc(serialize_bdmc(g))
        assert serialize_bdmc(g2) == serialize_bdmc(g)


def test_parser_mutations_raise_only_package_errors(corpus):
    # byte-level fuzz: any mutation must parse or fail with a BdmcError, and
    # a graph it parses is the one assemble_graph builds from its parts
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
            graph = parse_bdmc("".join(chars))
        except BdmcError:
            continue
        assert_assembled(graph)


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
    pytest.param(lambda: parse_bdmc(_sentence(nodes="L 1_0")),
                 "expected a leaf index, got '1_0' (line 3)", id="underscore-in-leaf-index"),
    pytest.param(lambda: parse_bdmc(_sentence(root="root \u0660")),
                 "expected a node id, got '\u0660' (line 4)", id="non-ascii-digit-in-root"),
    pytest.param(lambda: parse_bdmc("bdmc 1 0 1 1_0\n"),
                 "expected a count, got '1_0' (line 1)", id="underscore-in-header-count"),
    pytest.param(lambda: parse_bdmc("bdmc -1 0 1 2\n"),
                 "a count cannot be negative, got '-1' (line 1)", id="negative-header-count"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 aux clauses -2")),
                 "a clause count cannot be negative, got '-2' (line 5)",
                 id="negative-clause-count"),
    pytest.param(lambda: parse_bdmc(_sentence(nodes="A -1")),
                 "a child count cannot be negative, got '-1' (line 3)", id="negative-child-count"),
    pytest.param(lambda: parse_bdmc(_sentence(nodes="L 5")),
                 "leaf index 5 out of range 1..1 (line 3)", id="leaf-node-index-above-range"),
    pytest.param(lambda: parse_bdmc(_sentence(nodes="L 0")),
                 "leaf index 0 out of range 1..1 (line 3)", id="leaf-node-index-zero"),
    pytest.param(lambda: parse_bdmc(_sentence(nodes="L -1")),
                 "leaf index -1 out of range 1..1 (line 3)", id="leaf-node-index-negative"),
    pytest.param(lambda: parse_bdmc(G1_TEXT.replace("L 2", "L 1")),
                 "leaf 1 attached to two nodes (line 6)", id="leaf-attached-twice"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 3 inputs x1 x2 aux clauses 1")),
                 "leaf index 3 out of range 1..1 (line 5)", id="leaf-block-index-out-of-range"),
    pytest.param(lambda: parse_bdmc(G1_TEXT.replace("leaf 2", "leaf 1")),
                 "leaf 1 has two 'leaf' blocks (line 10)", id="leaf-block-twice"),
    pytest.param(lambda: parse_bdmc(G1_TEXT.replace("O 2 1 2", "O 1 1").replace("L 2", "O 1 1")),
                 "leaf 2 has no node (line 10)", id="leaf-block-without-node"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x2 aux clauses 1 class bogus")),
                 "unknown leaf class 'bogus' (line 5)", id="unknown-leaf-class"),
    pytest.param(lambda: parse_bdmc(_sentence().replace("x1 x2 0", "x1 -x1 0")),
                 "tautological clause: contains both 1 and -1 (line 6)", id="tautological-clause"),
    pytest.param(lambda: parse_bdmc("bdmc 0 0 0 1\ninputs x1\n"),
                 "no nodes: sentence has no root (line 1)", id="no-nodes"),
    pytest.param(lambda: parse_bdmc(_sentence().replace("bdmc 1 0", "bdmc 1 5")),
                 "header declares 5 edges, nodes list 0 (line 1)", id="edge-count"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs aux y clauses 1")
                                    .replace("x1 x2 0", "y 0")),
                 "leaf 1: empty input set is only allowed for constant leaves (line 5)",
                 id="non-constant-leaf-without-inputs"),
    # a leaf's own rules come after its clause lines, and its input set's duplicates before them
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x2 aux clauses 1 class bogus")
                                    .replace("x1 x2 0", "x1 -x1 0")),
                 "tautological clause: contains both 1 and -1 (line 6)",
                 id="bad-clause-before-unknown-class"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs aux y clauses 1")
                                    .replace("x1 x2 0", "y z 0")),
                 "unknown variable 'z' in clause (line 6, col 2)",
                 id="bad-clause-before-empty-input-set"),
    pytest.param(lambda: parse_bdmc(_sentence(leaf="leaf 1 inputs x1 x1 aux clauses 1 class bogus")),
                 "leaf 1 lists an input variable twice (line 5)",
                 id="input-twice-before-unknown-class"),
    pytest.param(lambda: parse_dimacs("p cnf 2 1\n1 2_0 0\n"),
                 "expected an integer: '2_0' is not an ASCII decimal integer (line 2)",
                 id="dimacs-underscore-in-literal"),
    pytest.param(lambda: parse_dimacs("p cnf 2 1\n-\u0662 0\n"),
                 "expected an integer: '-\u0662' is not an ASCII decimal integer (line 2)",
                 id="dimacs-non-ascii-digit"),
])
def test_format_refusals(parse, message):
    with pytest.raises(ParseError) as refused:
        parse()
    assert type(refused.value) is ParseError and str(refused.value) == message
