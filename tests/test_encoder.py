"""Clause groups, cardinality encodings, target assembly, size accounting."""

from types import SimpleNamespace

import pytest

from bdmc import compile_graph
from bdmc.core import CLASS_STRENGTH, Node, assemble_graph, build_graph, leaf_spec, make_clause
from bdmc.encoder import (
    GROUP_ORDER,
    TARGET_TABLE,
    TARGETS,
    _amo,
    _ladder,
    build_varmap,
    circuit_clauses,
    leaf_clauses,
    separator_clauses,
    target_spec,
)
from bdmc.engine import brute_sat
from bdmc.errors import InputError, PreconditionError, StructureError
from bdmc.propcheck import gen_random
from bdmc.transform import SeparatorCover, separator_cover

from conftest import TARGET_CHECK, g1, parity_dnnf
from oracles import non_canonical_clause
from test_golden import output_digest


def test_varmap_numbering_g1():
    vm = build_varmap(g1())
    # inputs 1..2, leaf 1 metas 3..7, leaf 2 metas 8..12, root node 13
    assert vm.blocks[0][0][1] == 3 and vm.blocks[0][0][-1] == 4
    assert vm.blocks[0][1] == 7 and vm.blocks[1][1] == 12
    assert vm.node_vars[0] == 13
    assert vm.num_vars == 13
    assert vm.node_lits[1] == -7 and vm.node_lits[0] == 13


def test_circuit_clauses_g1():
    g = g1()
    vm = build_varmap(g)
    groups = circuit_clauses(g, vm)
    assert groups["N1"] == [make_clause([-13, -7, -12])]
    assert groups["N2"] == []
    assert groups["N3"] == [make_clause([7, 13]), make_clause([12, 13])]


def test_circuit_clauses_and_node():
    g = build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[1]], cls="pc")],
        n=2,
    )
    vm = build_varmap(g)
    groups = circuit_clauses(g, vm)
    root = vm.node_vars[0]
    assert groups["N2"] == [make_clause([-root, vm.node_lits[1]]),
                            make_clause([-root, vm.node_lits[2]])]
    assert groups["N1"] == []


def models_over(clauses, lits, nvars):
    """The masks m over lits (bit j: lits[j] is true) that extend to a model."""
    got = set()
    for m in range(1 << len(lits)):
        alpha = [lit if m >> j & 1 else -lit for j, lit in enumerate(lits)]
        if brute_sat(clauses, nvars, alpha) is not None:
            got.add(m)
    return got


def test_cardinality_canonical():
    # _amo is N5 over one separator, and N6 adds the at-least-one clause:
    # at most one and exactly one of k literals, mixed signs as a leaf's
    # -[[bot]] and an inner node's variable mix them, every clause canonical
    assert _amo([1, 2, 3]) == [(-1, -2), (-1, -3), (-2, -3)]
    for k in range(1, 6):
        lits = [v if v % 2 else -v for v in range(1, k + 1)]
        cover, varmap = SeparatorCover((frozenset(range(k)),)), SimpleNamespace(node_lits=lits)
        n5 = separator_clauses(cover, varmap, "N5")
        n6 = separator_clauses(cover, varmap, "N6")
        assert n5 == _amo(lits) and n6 == n5 + [make_clause(lits)]
        assert all(make_clause(c) == c for c in n6)
        assert models_over(n5, lits, k) == {m for m in range(1 << k) if bin(m).count("1") <= 1}
        assert models_over(n6, lits, k) == {1 << j for j in range(k)}
    assert separator_clauses(SeparatorCover((frozenset({0, 1, 2}),)),
                             SimpleNamespace(node_lits=[-3, 1, -2]), "N6") == [
        (-1, 3), (2, 3), (-1, 2), (1, -2, -3)]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cardinality_sequential_projection(k):
    # the Sinz ladder: 3k-4 canonical clauses over k-1 auxiliaries above the
    # literals' variables, whose projection onto the literals is at-most-one
    lits = [v if v % 2 else -v for v in range(1, k + 1)]
    clauses = _ladder(lits, list(range(k + 1, 2 * k)))
    assert len(clauses) == 3 * k - 4
    assert all(make_clause(c) == c for c in clauses)
    assert models_over(clauses, lits, 2 * k - 1) == {
        m for m in range(1 << k) if bin(m).count("1") <= 1}


def test_separator_clauses_g1():
    g = g1()
    vm = build_varmap(g)
    cov = separator_cover(g)
    n5 = separator_clauses(cov, vm, "N5")
    assert n5 == [make_clause([7, 12])]      # [[bot]]^1 v [[bot]]^2
    n6 = separator_clauses(cov, vm, "N6")
    assert n6 == [make_clause([7, 12]), make_clause([-7, -12])]


def test_leaf_clauses_e2_g1():
    g = g1()
    vm = build_varmap(g)
    e2 = leaf_clauses(g, vm, "E2")
    leaf1 = [make_clause([-1, 3]), make_clause([1, 4]), make_clause([-2, 5]), make_clause([2, 6])]
    assert e2[:4] == leaf1
    assert len(e2) == 8


def test_leaf_clauses_e3_g1():
    g = g1()
    vm = build_varmap(g)
    e3 = leaf_clauses(g, vm, "E3")
    assert make_clause([-3, -8, 1]) in e3    # [[x1]]^1 & [[x1]]^2 -> x1
    assert len(e3) == 4


def test_leaf_clauses_e3_requires_smooth():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")],
        n=2,
    )
    with pytest.raises(PreconditionError):
        leaf_clauses(g, build_varmap(g), "E3")


def test_leaf_clauses_e1_count_g1():
    g = g1()
    e1 = leaf_clauses(g, build_varmap(g), "E1")
    assert len(e1) == 20  # r + 4m = 4 + 16


def test_compile_group_composition():
    g = g1()
    want = {
        "cc": {"N1", "N2", "E1", "E2", "ROOT"},
        "dc": {"N1", "N2", "N3", "E1", "E2", "E3", "ROOT"},
        "urc": {"N1", "N2", "N3", "N5", "E1", "E2", "ROOT"},
        "urc-seq": {"N1", "N2", "N3", "N5", "E1", "E2", "ROOT"},
        "pc": {"N1", "N2", "N3", "N6", "E1", "E2", "E3", "ROOT"},
    }
    for target, tags in want.items():
        out = compile_graph(g, target)
        assert set(out.groups) == tags, target


def test_target_table_matches_spec():
    # conftest.TARGET_CHECK is the independent statement of each target's claim
    assert TARGETS == ("cc", "dc", "urc", "urc-seq", "pc")
    assert {t.name: CLASS_STRENGTH[t.leaf_class] for t in TARGET_TABLE.values()} == TARGET_CHECK
    for name, spec in TARGET_TABLE.items():
        assert spec.name == name
        assert list(spec.groups) == [tag for tag in GROUP_ORDER if tag in spec.groups]
    assert [t.name for t in TARGET_TABLE.values() if t.sequential] == ["urc-seq"]


def test_compile_counts_g1():
    cc = compile_graph(g1(), "cc")
    assert {t: len(c) for t, c in cc.groups.items()} == {
        "N1": 1, "N2": 0, "E1": 20, "E2": 8, "ROOT": 1}
    assert len(cc.all_clauses()) == 30
    pc = compile_graph(g1(), "pc")
    assert {t: len(c) for t, c in pc.groups.items()} == {
        "N1": 1, "N2": 0, "N3": 2, "N6": 2, "E1": 20, "E2": 8, "E3": 4, "ROOT": 1}
    assert len(pc.all_clauses()) == 38
    assert pc.num_vars == 13


def test_lean_cc():
    out = compile_graph(g1(), "cc", lean_cc=True)
    assert len(out.groups["E1"]) == 4 + 4  # r + m
    assert not out.stats.violations
    with pytest.raises(InputError):
        compile_graph(g1(), "pc", lean_cc=True)


def test_compile_gates_on_smoothness():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")],
        n=2,
    )
    with pytest.raises(PreconditionError, match="smooth"):
        compile_graph(g, "pc")
    out = compile_graph(g, "pc", auto_smooth=True, auto_level=True)
    assert not out.stats.violations
    # cc never needs the transforms
    compile_graph(g, "cc")


def test_compile_gates_on_leveling():
    g = build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("and", [3, 4]), ("leaf", 2), ("leaf", 3)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc")],
        n=2,
    )
    with pytest.raises(PreconditionError, match="leveled"):
        compile_graph(g, "urc")
    compile_graph(g, "dc")  # smooth is enough for dc
    out = compile_graph(g, "urc", auto_level=True)
    assert not out.stats.violations


def test_compile_gates_on_leaf_class():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="urc")], n=2)
    compile_graph(g, "urc")
    compile_graph(g, "cc")
    with pytest.raises(PreconditionError, match="claims class urc"):
        compile_graph(g, "pc")
    with pytest.raises(PreconditionError):
        compile_graph(g, "dc")


def test_compile_rejects_constant_false_leaf():
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1], clauses=[[]], cls="pc")], n=1)
    with pytest.raises(PreconditionError, match="empty clause"):
        compile_graph(g, "cc")


def test_every_target_refuses_an_unrooted_graph():
    # one unreachable one-child node over a reached leaf; compiled anyway,
    # the pc encoding of this graph failed its own strength check
    g = gen_random(n=2, max_depth=3, seed=0)
    bad = assemble_graph(g.nodes + (Node("or", (8,)),), g.root, g.leaves, g.input_names)
    for target in TARGETS:
        with pytest.raises(StructureError) as refused:
            compile_graph(bad, target, auto_smooth=True, auto_level=True)
        assert str(refused.value) == f"nodes [{g.num_nodes}] are not reachable from the root"


def test_root_separator_never_emitted(compiled_corpus):
    for outputs in compiled_corpus[:20]:
        out = outputs["pc"]
        root_lit = out.varmap.node_lits[out.graph.root]
        assert (make_clause([root_lit]),) == tuple(out.groups["ROOT"])
        # no N6 at-least-one unit equal to the root: {root} is dropped
        for clause in out.groups["N6"]:
            assert clause != make_clause([root_lit])


def test_urc_seq_aux_only_for_large_separators(compiled_corpus):
    seen_aux = False
    for outputs in compiled_corpus:
        out = outputs["urc-seq"]
        big = any(len(s) >= 3 for s in out.cover.merged)
        assert bool(out.varmap.card_aux) == big
        seen_aux = seen_aux or big
    assert seen_aux, "corpus should contain at least one separator of size >= 3"


def test_size_report_exactness(compiled_corpus):
    for outputs in compiled_corpus:
        for target, out in outputs.items():
            st = out.stats
            assert not st.violations, (target, [b.name for b in st.violations])
            g = out.graph
            m = sum(lf.num_vars for lf in g.leaves)
            r = sum(len(c) for lf in g.leaves for c in lf.clauses)
            assert st.group_counts["E1"] == r + 4 * m
            assert st.group_counts["E2"] == 2 * sum(len(lf.input_vars) for lf in g.leaves)
            if "E3" in st.group_counts:
                assert st.group_counts["E3"] == 2 * g.num_inputs
            if "N3" in st.group_counts:
                assert st.group_counts["N3"] == g.num_nodes - 1
            if target != "urc-seq":
                assert out.num_vars == g.num_inputs + 2 * m + g.num_nodes


def test_size_report_json_shape():
    data = compile_graph(g1(), "pc").stats.to_dict()
    assert data["ok"] is True
    assert data["params"]["n"] == 2 and data["params"]["t"] == 2
    names = {b["name"] for b in data["bounds"]}
    assert "E1 = r+4m" in names and "N6 <= s^2+ns" in names


def test_separator_clauses_empty_cover():
    vm = build_varmap(g1())
    empty = SeparatorCover(())
    assert separator_clauses(empty, vm, "N5") == []
    assert separator_clauses(empty, vm, "N6") == []


def test_root_not_in_any_separator(compiled_corpus):
    for outputs in compiled_corpus[:25]:
        out = outputs["pc"]
        assert all(out.graph.root not in sep for sep in out.cover.merged)


def test_lean_cc_is_still_a_cc_encoding():
    from bdmc.propcheck import check_encoding, check_strength
    out = compile_graph(g1(), "cc", lean_cc=True)
    cls = out.all_clauses()
    assert check_encoding(cls, out.num_vars, [1, 2], out.graph).ok
    assert check_strength(cls, out.num_vars, [1, 2], "urc").passed


def test_n3_lists_all_parents_of_shared_node():
    # diamond: root and(A, B)... both or-parents share leaf 3's node
    g = build_graph(
        nodes=[("and", [1, 2]), ("or", [3, 4]), ("or", [3, 5]), ("leaf", 3),
               ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc"),
                leaf_spec(inputs=[], clauses=[], cls="true")],
        n=2,
    )
    vm = build_varmap(g)
    groups = circuit_clauses(g, vm)
    shared = [c for c in groups["N3"]
              if c == make_clause([-vm.node_lits[3], vm.node_lits[1], vm.node_lits[2]])]
    assert len(shared) == 1


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: target_spec("sat"),
                 "unknown target 'sat'; expected one of cc, dc, urc, urc-seq, pc", id="unknown-target"),
    pytest.param(lambda: separator_clauses(separator_cover(g1()), build_varmap(g1()), "N4"),
                 "kind must be 'N5' or 'N6'", id="separator-kind"),
    pytest.param(lambda: leaf_clauses(g1(), build_varmap(g1()), "E4"),
                 "which must be one of 'E1', 'E2', 'E3'", id="leaf-group"),
])
def test_encoder_input_refusals(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert type(refused.value) is InputError and str(refused.value) == message


# output_digest (tests/test_golden.py) of parity_dnnf(k) alone, per target:
# the DIMACS, varmap and stats bytes of graphs far larger than the corpus
PARITY_DIGESTS = {
    60: {
        "cc": "8dc443d6bd5034aee238d8aa13ed6c49a86b514652c4fc3d9330b978fcac0422",
        "dc": "94333dd1607bcd757da44d3cff4e1ef271eca42b83604faaaa9316ed763e8890",
        "urc": "6eb80e951c794403cbb77007c3a8dd06d3750431bf7861e0d135423c38923165",
        "urc-seq": "ce79b2d249395720ebbe12e1b9ee06a7444af30aae28f831fe27ac695def15ce",
        "pc": "192a305c70beb18d7a8cc6446e0b7775e9ec6aee9a2efb82abcabb5c44829d42",
    },
    200: {
        "cc": "cfe80d4be7ab3004ee4721e3c0f70b91d514d8a80b5259d24ffd0729f7b56c49",
        "dc": "faa91433129c609ae1f558b5bc8a5ba8408e7e078733f71a60f7445543b6f293",
        "urc": "944d83678979d8eef2d82afcddf9513e4599acf301dea86409d7075ab13031d7",
        "urc-seq": "cc1fce0b7ff911b5c0b829fb70aa1c1f7d40309d54ebc78b1049fd2eba61b201",
        "pc": "359bd376c0e621415fed97afc29e819d2d1bf2afa27421facbcab797fc679a95",
    },
}


@pytest.mark.parametrize("k", sorted(PARITY_DIGESTS))
def test_parity_output_bytes(k):
    g = parity_dnnf(k)
    assert {t: output_digest([g], t) for t in TARGETS} == PARITY_DIGESTS[k]


# The clause builders write canonical clauses without make_clause; these
# checks hold them to what make_clause would return.


def test_groups_are_canonical_on_the_corpus(compiled_corpus):
    for outputs in compiled_corpus:
        for target, out in outputs.items():
            assert non_canonical_clause(out) is None, target


@pytest.mark.parametrize("k", [20, 60])
def test_groups_are_canonical_on_parity(k):
    g = parity_dnnf(k)
    outputs = [compile_graph(g, t, auto_smooth=True, auto_level=True) for t in TARGETS]
    outputs.append(compile_graph(g, "cc", lean_cc=True))
    for out in outputs:
        assert non_canonical_clause(out) is None, out.target
