import os

import pytest

from bdmc import BdmcError, compile_graph, gen_random
from bdmc.core import CLASS_STRENGTH, build_graph, leaf_spec
from bdmc.encoder import TARGET_TABLE

TARGETS = ("cc", "dc", "urc", "urc-seq", "pc")

# which (scope, style) each target's strength claim uses
TARGET_CHECK = {t: CLASS_STRENGTH[TARGET_TABLE[t].leaf_class] for t in TARGETS}

CORPUS_SIZE = int(os.environ.get("BDMC_ACCEPT_CORPUS", "100"))
# sampled tier: per (graph, target) for the three all-vars targets, so each
# graph gets >= 3x this many sampled assignments
SAMPLES_PER_TARGET = int(os.environ.get("BDMC_ACCEPT_SAMPLES", "34000"))
JOBS = int(os.environ.get("BDMC_JOBS", "1"))


def g1():
    """The running two-leaf example: f = x1 | x2."""
    return build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[
            leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc"),
            leaf_spec(inputs=[1, 2], clauses=[[-1], [2]], cls="pc"),
        ],
        n=2,
    )


def tiny_family():
    """Handcrafted graphs small enough for exhaustive all-vars checking
    (encoding variables <= 14 after transforms)."""
    out = [g1()]
    # single leaf, one clause over two inputs
    out.append(build_graph(
        nodes=[("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[-1, 2]], cls="pc")], n=2))
    # single leaf with an aux gate: y <-> x1 & x2
    out.append(build_graph(
        nodes=[("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], aux=1, clauses=[[-3, 1], [-3, 2], [3, -1, -2]], cls="pc")],
        n=2))
    # or of two single-variable leaves over the same input
    out.append(build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")], n=1))
    # and of two unit-literal leaves
    out.append(build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc")], n=2))
    # pass-through chain over one leaf
    out.append(build_graph(
        nodes=[("or", [1]), ("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")], n=2))
    # xor leaf under a one-child and
    out.append(build_graph(
        nodes=[("and", [1]), ("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2], [-1, -2]], cls="pc")], n=2))
    return out


def parity_dnnf(k: int):
    """A smooth DNNF (literal leaves, shared decision subgraphs) for the
    k-variable odd-parity function."""
    nodes = []
    leaves = []
    lit_nodes = {}

    def lit_leaf(v, positive):
        key = (v, positive)
        if key not in lit_nodes:
            leaves.append(leaf_spec(inputs=[v], clauses=[[1 if positive else -1]]))
            nodes.append(("leaf", len(leaves)))
            lit_nodes[key] = len(nodes) - 1
        return lit_nodes[key]

    memo = {}

    def need(i, parity):
        # subcircuit over x_i..x_k, true iff xor(x_i..x_k) == parity
        if (i, parity) in memo:
            return memo[(i, parity)]
        if i == k:
            nid = lit_leaf(k, parity == 1)
        else:
            lo_kids = [lit_leaf(i, False), need(i + 1, parity)]
            lo = len(nodes)
            nodes.append(("and", lo_kids))
            hi_kids = [lit_leaf(i, True), need(i + 1, 1 - parity)]
            hi = len(nodes)
            nodes.append(("and", hi_kids))
            nodes.append(("or", [lo, hi]))
            nid = len(nodes) - 1
        memo[(i, parity)] = nid
        return nid

    root = need(1, 1)
    return build_graph(nodes, leaves, n=k, root=root)


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: generated graphs plus the handcrafted tiny
    family; n <= 8, encoding variables <= 40, pc leaves."""
    graphs = list(tiny_family())
    seed = 0
    while len(graphs) < CORPUS_SIZE + len(tiny_family()):
        try:
            graphs.append(gen_random(
                n=3 + seed % 6, max_depth=2 + seed % 3, leaf_class="pc", seed=seed))
        except BdmcError:
            pass
        seed += 1
        if seed > 4 * CORPUS_SIZE:
            raise RuntimeError("generator kept failing; corpus incomplete")
    return graphs


@pytest.fixture(scope="session")
def compiled_corpus(corpus):
    """Every corpus graph compiled to all five targets (auto transforms on)."""
    out = []
    for g in corpus:
        outputs = {t: compile_graph(g, t, auto_smooth=True, auto_level=True) for t in TARGETS}
        out.append(outputs)
    return out
