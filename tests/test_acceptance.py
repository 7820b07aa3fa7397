"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them).  The corpus comes from conftest: >=100 generated graphs with n <= 8
and certified pc leaves, plus a handcrafted family small enough for exhaustive
all-vars checking.  Environment knobs: BDMC_ACCEPT_CORPUS (default 100),
BDMC_ACCEPT_SAMPLES (sampled assignments per graph and target, default 34000,
so >= 1e5 per graph across the three all-vars targets), BDMC_JOBS.
"""

import random

import pytest

from bdmc import compile_graph
from bdmc.core import build_graph, enumerate_models, leaf_spec, make_clause
from bdmc.dualrail import extended_dual_rail, meta_block
from bdmc.core import LeafEncoding
from bdmc.encoder import separator_clauses
from bdmc.propcheck import (
    certify_formula,
    check_encoding,
    check_strength,
    exhaustive_feasible,
)
from bdmc.transform import SeparatorCover, level, separator_cover, smooth

from conftest import CORPUS_SIZE, JOBS, SAMPLES_PER_TARGET, TARGET_CHECK, TARGETS, g1, parity_dnnf
from oracles import check_separator_cover, ref_merged, ref_separator_layers, unit_closure


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_correctness(compiled_corpus):
    """Every compiled target is a CNF encoding of the circuit's function."""
    checked = 0
    for outputs in compiled_corpus:
        for target in TARGETS:
            out = outputs[target]
            res = check_encoding(out.all_clauses(), out.num_vars,
                                 list(range(1, out.num_inputs + 1)), out.graph)
            assert res.ok, (target, res.witness)
            checked += 1
    report(1, len(compiled_corpus) >= CORPUS_SIZE,
           f"check_encoding passed for {checked} compilations "
           f"({len(compiled_corpus)} graphs x {len(TARGETS)} targets)")


@pytest.mark.slow
def test_criterion_2_propagation_strength(compiled_corpus):
    """Per-target strength claims: exhaustive where feasible, sampled
    (>=1e5 assignments per graph) beyond."""
    n_exh = n_samp = 0
    for gi, outputs in enumerate(compiled_corpus):
        for target in TARGETS:
            out = outputs[target]
            scope_kind, style = TARGET_CHECK[target]
            if scope_kind == "inputs":
                scope = list(range(1, out.num_inputs + 1))
            else:
                scope = list(range(1, out.num_vars + 1))
            clauses = out.all_clauses()
            if exhaustive_feasible(len(scope)):
                v = check_strength(clauses, out.num_vars, scope, style)
                n_exh += 1
            else:
                v = check_strength(clauses, out.num_vars, scope, style,
                                   mode="sampled", samples=SAMPLES_PER_TARGET,
                                   seed=1000 + gi, jobs=JOBS)
                n_samp += 1
            assert v.passed, (gi, target, v.counterexample)
    report(2, n_exh > 0 and n_samp > 0,
           f"{n_exh} exhaustive + {n_samp} sampled strength checks passed "
           f"({SAMPLES_PER_TARGET} samples per sampled check)")


def test_criterion_3_dual_rail_equivalence():
    """Unit propagation in phi and in DR(phi) derive the same literals."""
    from bdmc.dualrail import dual_rail

    rng = random.Random(20240)
    pairs = 0
    for _ in range(1000):
        nv = rng.randint(1, 4)
        cls = sorted({
            make_clause(v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(0, 6))
        })
        leaf = LeafEncoding(1, tuple(range(1, nv + 1)), (), tuple(cls), "cc")
        meta, bot = block = meta_block(leaf, 1)
        dr = dual_rail(leaf, block)
        alpha = [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, nv + 1), rng.randint(0, nv))]
        lhs_units, lhs_bot = unit_closure(cls, alpha)
        rhs_units, _ = unit_closure(dr, [meta[l] for l in alpha])
        for v in range(1, nv + 1):
            for lit in (v, -v):
                assert (lit in lhs_units) == (meta[lit] in rhs_units), (cls, alpha, lit)
        assert lhs_bot == (bot in rhs_units), (cls, alpha)
        pairs += 1
    report(3, pairs == 1000, f"derivation equivalence held on {pairs} random (phi, alpha) pairs")


def _random_leaf_formulas(rng, want_class, count):
    """Certified formulas of the requested class, as (clauses, nvars) pairs."""
    out = []
    while len(out) < count:
        nv = rng.randint(1, 3)
        cls = sorted({
            make_clause(v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv))))
            for _ in range(rng.randint(1, 4))
        })
        if any(len(c) == 0 for c in cls):
            continue
        cert = certify_formula(cls, list(range(1, nv + 1)))
        if want_class in cert.classes:
            out.append((cls, nv))
    return out


def test_criterion_4_extended_dual_rail_strength():
    """DR+ of a URC formula is URC; DR+ of a PC formula is PC."""
    rng = random.Random(7431)
    for want, style in (("urc", "urc"), ("pc", "pc")):
        for cls, nv in _random_leaf_formulas(rng, want, 50):
            leaf = LeafEncoding(1, tuple(range(1, nv + 1)), (), tuple(cls), "cc")
            block = meta_block(leaf, 1)
            xdr = extended_dual_rail(leaf, block)
            mv = block[1]
            v = check_strength(xdr, mv, list(range(1, mv + 1)), style)
            assert v.passed, (want, cls, v.counterexample)
    report(4, True, "DR+ kept URC on 50 certified-URC and PC on 50 certified-PC formulas")


def test_criterion_5_size_formulas(compiled_corpus):
    """Exact group counts and the size bounds, zero violations."""
    outputs_checked = 0
    for outputs in compiled_corpus:
        for target, out in outputs.items():
            st = out.stats
            assert not st.violations, (target, [b.name for b in st.violations])
            g = out.graph
            m = sum(lf.num_vars for lf in g.leaves)
            r = sum(len(c) for lf in g.leaves for c in lf.clauses)
            assert st.group_counts["E1"] == r + 4 * m
            if "E3" in st.group_counts:
                assert st.group_counts["E3"] == 2 * g.num_inputs
            assert st.group_counts.get("N1", 0) + st.group_counts.get("N2", 0) <= g.num_edges
            if "N3" in st.group_counts:
                assert st.group_counts["N3"] <= g.num_nodes
            if "N5" in st.group_counts and target == "urc":
                assert st.group_counts["N5"] <= g.num_nodes ** 2
            if "N6" in st.group_counts:
                assert st.group_counts["N6"] <= g.num_nodes ** 2 + g.num_inputs * g.num_nodes
            if target != "urc-seq":
                assert out.num_vars <= g.num_inputs + 2 * m + g.num_nodes
            outputs_checked += 1
    report(5, True, f"size formulas exact, zero bound violations on {outputs_checked} outputs")


def test_criterion_6_transform_soundness(corpus):
    """smooth and level preserve the model set; produced covers validate."""
    graphs = 0
    for g in corpus:
        want = enumerate_models(g)
        gs = smooth(g)
        gl = level(gs)
        assert enumerate_models(gs) == want
        assert enumerate_models(gl) == want
        assert check_separator_cover(gl, ref_separator_layers(gl)).ok
        assert separator_cover(gl).merged == ref_merged(gl)
        graphs += 1
    report(6, graphs >= CORPUS_SIZE,
           f"model sets preserved and covers validated on {graphs} graphs")


def test_criterion_7_negative_controls():
    """Mutations must be caught: dropped root clause, dropped E2 clause,
    merged separators."""
    # (a) dropped root clause: the encoding stops constraining anything
    out = compile_graph(g1(), "cc")
    mutant = [c for c in out.all_clauses() if c not in out.groups["ROOT"]]
    res = check_encoding(mutant, out.num_vars, [1, 2], out.graph)
    assert not res.ok and res.witness == (-1, -2)

    # (b) dropped E2 clause x1 -> [[x1]]^1 on a cc-compiled implication leaf:
    # the leaf goes blind to x1 and the projection gains a model
    g = build_graph(nodes=[("leaf", 1)],
                    leaves=[leaf_spec(inputs=[1, 2], clauses=[[-1, 2]], cls="pc")], n=2)
    out = compile_graph(g, "cc")
    dropped = make_clause([-1, out.varmap.blocks[0][0][1]])
    assert dropped in out.groups["E2"]
    mutant = [c for c in out.all_clauses() if c != dropped]
    res = check_encoding(mutant, out.num_vars, [1, 2], out.graph)
    assert not res.ok and res.witness is not None

    # (c) merging two separators breaks the exactly-one property and the
    # strength of the pc encoding built from it
    g = build_graph(
        nodes=[("or", [1]), ("and", [2, 3]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[1]], cls="pc")],
        n=2,
    )
    per_var = ref_separator_layers(g)
    assert all(len(svar) == 2 for svar in per_var)
    assert separator_cover(g).merged == ref_merged(g)
    blobs = tuple(frozenset().union(*svar) for svar in per_var)
    chk = check_separator_cover(g, tuple((blob,) for blob in blobs))
    assert not chk.ok and chk.bad_path is not None
    bad_cov = SeparatorCover(tuple(dict.fromkeys(blobs)))

    out = compile_graph(g, "pc")
    bad_n6 = separator_clauses(bad_cov, out.varmap, "N6")
    mutant_groups = dict(out.groups)
    mutant_groups["N6"] = bad_n6
    mutant = [c for tag in ("N1", "N2", "N3", "N6", "E1", "E2", "E3", "ROOT")
              for c in mutant_groups.get(tag, ())]
    enc = check_encoding(mutant, out.num_vars, [1, 2], out.graph)
    assert not enc.ok and enc.witness is not None

    report(7, True, "all three mutations were caught with concrete witnesses")


def test_criterion_8_dnnf_special_case():
    """A smooth DNNF with literal leaves compiles to pc and passes the
    strength checks, subsuming the DNNF pipeline."""
    g = parity_dnnf(4)
    assert g.num_nodes <= 30
    from bdmc.core import validate
    assert validate(g).smooth_witness is None  # valid, or validate would raise, and smooth
    assert all(lf.claimed_class == "literal" for lf in g.leaves)
    want = frozenset(m for m in range(16) if bin(m).count("1") % 2 == 1)
    assert enumerate_models(g) == want

    out = compile_graph(g, "pc", auto_level=True)
    clauses = out.all_clauses()
    assert check_encoding(clauses, out.num_vars, list(range(1, 5)), out.graph).ok
    v_in = check_strength(clauses, out.num_vars, [1, 2, 3, 4], "pc")
    assert v_in.passed
    scope = list(range(1, out.num_vars + 1))
    v_all = check_strength(clauses, out.num_vars, scope, "pc",
                           mode="sampled", samples=max(SAMPLES_PER_TARGET, 100_000),
                           seed=88, jobs=JOBS)
    assert v_all.passed
    report(8, True,
           f"parity DNNF ({g.num_nodes} nodes) compiled to pc; exhaustive inputs check"
           f" and {max(SAMPLES_PER_TARGET, 100_000)} sampled all-vars assignments passed")
