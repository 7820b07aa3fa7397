"""Clause groups, cardinality encodings, target assembly, size accounting."""

import pytest

from bdmc import compile_graph
from bdmc.core import CLASS_STRENGTH, build_graph, leaf_spec, make_clause
from bdmc.encoder import (
    AMO_CANONICAL,
    AMO_SEQUENTIAL,
    EO_CANONICAL,
    GROUP_ORDER,
    TARGET_TABLE,
    TARGETS,
    build_varmap,
    cardinality,
    circuit_clauses,
    leaf_clauses,
    separator_clauses,
    target_spec,
)
from bdmc.engine import brute_sat
from bdmc.errors import InputError, PreconditionError
from bdmc.transform import separator_cover

from conftest import TARGET_CHECK, g1


def test_varmap_numbering_g1():
    vm = build_varmap(g1())
    # inputs 1..2, leaf 1 metas 3..7, leaf 2 metas 8..12, root node 13
    assert vm.space.meta(1, 1) == 3 and vm.space.meta(1, -1) == 4
    assert vm.space.bot(1) == 7 and vm.space.bot(2) == 12
    assert vm.node_vars[0] == 13
    assert vm.num_vars == 13
    assert vm.node_literal(1) == -7 and vm.node_literal(0) == 13


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
    assert groups["N2"] == [make_clause([-root, vm.node_literal(1)]),
                            make_clause([-root, vm.node_literal(2)])]
    assert groups["N1"] == []


def test_cardinality_canonical():
    cl, aux = cardinality(AMO_CANONICAL, [1, 2, 3])
    assert cl == [(-1, -2), (-1, -3), (-2, -3)] and aux == []
    cl, _ = cardinality(EO_CANONICAL, [7])
    assert cl == [(7,)]
    with pytest.raises(InputError):
        cardinality(AMO_CANONICAL, [])
    # clauses are built canonical without make_clause: mixed signs sort by
    # variable, and a repeated variable or an overlapping auxiliary is refused
    cl, _ = cardinality(EO_CANONICAL, [-3, 1, -2])
    assert cl == [(-1, 3), (2, 3), (-1, 2), (1, -2, -3)]
    for lits in ([1, 1], [2, -2], [0, 1]):
        with pytest.raises(InputError):
            cardinality(AMO_CANONICAL, lits)
    with pytest.raises(InputError):
        cardinality(AMO_SEQUENTIAL, [1, 2, 3], first_aux=3)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_cardinality_sequential_projection(k):
    lits = list(range(1, k + 1))
    clauses, aux = cardinality(AMO_SEQUENTIAL, lits, first_aux=k + 1)
    assert len(aux) == max(0, k - 1)
    assert len(clauses) <= max(0, 3 * k - 4)
    nv = k + len(aux)
    got = set()
    for mask in range(1 << k):
        alpha = [v if mask >> (v - 1) & 1 else -v for v in lits]
        if brute_sat(clauses, nv, alpha) is not None:
            got.add(mask)
    assert got == {m for m in range(1 << k) if bin(m).count("1") <= 1}


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


def test_root_separator_never_emitted(compiled_corpus):
    for outputs in compiled_corpus[:20]:
        out = outputs["pc"]
        root_lit = out.varmap.node_literal(out.graph.root)
        assert (make_clause([root_lit]),) == tuple(out.groups["ROOT"])
        # no N6 at-least-one unit equal to the root: {root} is dropped
        for clause in out.groups["N6"]:
            assert clause != make_clause([root_lit])


def test_urc_seq_aux_only_for_large_separators(compiled_corpus):
    seen_aux = False
    for outputs in compiled_corpus:
        out = outputs["urc-seq"]
        big = any(len(s) >= 3 for s in out.cover.merged)
        assert (out.varmap.num_card_aux > 0) == big
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
    from bdmc.transform import SeparatorCover
    vm = build_varmap(g1())
    empty = SeparatorCover(((), ()), ())
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
              if c == make_clause([-vm.node_literal(3), vm.node_literal(1), vm.node_literal(2)])]
    assert len(shared) == 1


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: target_spec("sat"),
                 "unknown target 'sat'; expected one of cc, dc, urc, urc-seq, pc", id="unknown-target"),
    pytest.param(lambda: cardinality("amk", [1, 2]), "unknown cardinality kind 'amk'",
                 id="unknown-cardinality"),
    pytest.param(lambda: cardinality(AMO_SEQUENTIAL, [1, 2, 3]),
                 "sequential encoding needs a first_aux variable id", id="sequential-without-aux"),
    pytest.param(lambda: separator_clauses(separator_cover(g1()), build_varmap(g1()), "N4"),
                 "kind must be 'N5' or 'N6'", id="separator-kind"),
    pytest.param(lambda: leaf_clauses(g1(), build_varmap(g1()), "E4"),
                 "which must be one of 'E1', 'E2', 'E3'", id="leaf-group"),
])
def test_encoder_input_refusals(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert type(refused.value) is InputError and str(refused.value) == message
