"""The three benchmark workloads: input generators, the timed pass and the
output checks.

Every workload compiles each of its graphs to all five targets (text ->
``parse_bdmc`` -> ``compile_graph`` -> DIMACS, varmap and stats bytes) and then
checks each output.  The checks never compare the compiler with itself:
``corpus-verify`` runs ``check_encoding`` against the circuit's own evaluator
and requires every strength verdict to pass; the parity workloads compare unit
propagation on the output with closed-form odd parity.

``--seed`` renames the input variables of every graph by a seeded permutation
(the identity at seed 0, so seed 0 reproduces the acceptance corpus of
``tests/conftest.py`` byte for byte), seeds the sampled strength checks and
draws the parity probes.  A permutation keeps each graph's size and shape, so
the work per run stays comparable across seeds while the bytes differ.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Optional

from bdmc import core, encoder, formats, propcheck
from bdmc.errors import BdmcError

TARGETS = ("cc", "dc", "urc", "urc-seq", "pc")

# which (scope, style) each target's strength claim uses (criterion 2)
TARGET_CHECK = {
    "cc": ("inputs", "urc"),
    "dc": ("inputs", "pc"),
    "urc": ("all", "urc"),
    "urc-seq": ("all", "urc"),
    "pc": ("all", "pc"),
}

# Fixed sizes.  "Faster" must never come from changing these: a change that
# touches them redefines the benchmark and needs a fresh baseline.
CORPUS_SIZE = 100            # generated graphs, plus the 7-graph tiny family
SAMPLES_PER_CHECK = 500      # sampled strength checks (criterion 2 uses 34000)
PARITY_COMPILE_KS = (20, 40, 60)
PARITY_CERTIFY_KS = (8,)
PARITY_PROBES = 4            # full input assignments per parity output
SEED_STRIDE = 1_000_000      # sampled-check seed = SEED_STRIDE * seed + 1000 + gi


# ---------------------------------------------------------------------------
# input generators (copies of tests/conftest.py, kept byte-identical at seed 0)


def g1():
    """The running two-leaf example: f = x1 | x2."""
    return core.build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[
            core.leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc"),
            core.leaf_spec(inputs=[1, 2], clauses=[[-1], [2]], cls="pc"),
        ],
        n=2,
    )


def tiny_family():
    """Handcrafted graphs small enough for exhaustive all-vars checking."""
    leaf_spec, build_graph = core.leaf_spec, core.build_graph
    out = [g1()]
    out.append(build_graph(
        nodes=[("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[-1, 2]], cls="pc")], n=2))
    out.append(build_graph(
        nodes=[("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], aux=1, clauses=[[-3, 1], [-3, 2], [3, -1, -2]], cls="pc")],
        n=2))
    out.append(build_graph(
        nodes=[("or", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[1], clauses=[[-1]], cls="pc")], n=1))
    out.append(build_graph(
        nodes=[("and", [1, 2]), ("leaf", 1), ("leaf", 2)],
        leaves=[leaf_spec(inputs=[1], clauses=[[1]], cls="pc"),
                leaf_spec(inputs=[2], clauses=[[-1]], cls="pc")], n=2))
    out.append(build_graph(
        nodes=[("or", [1]), ("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2]], cls="pc")], n=2))
    out.append(build_graph(
        nodes=[("and", [1]), ("leaf", 1)],
        leaves=[leaf_spec(inputs=[1, 2], clauses=[[1, 2], [-1, -2]], cls="pc")], n=2))
    return out


def acceptance_corpus(size: int = CORPUS_SIZE):
    """The tiny family, then ``size`` generated graphs seeded as the
    acceptance suite seeds them; yielded one at a time."""
    yield from tiny_family()
    made = seed = 0
    while made < size:
        try:
            graph = propcheck.gen_random(
                n=3 + seed % 6, max_depth=2 + seed % 3, leaf_class="pc", seed=seed)
        except BdmcError:
            pass
        else:
            made += 1
            yield graph
        seed += 1
        if seed > 4 * size:
            raise RuntimeError("generator kept failing; corpus incomplete")


def parity_dnnf(k: int):
    """A smooth DNNF (literal leaves, shared decision subgraphs) for the
    k-variable odd-parity function."""
    nodes = []
    leaves = []
    lit_nodes = {}

    def lit_leaf(v, positive):
        key = (v, positive)
        if key not in lit_nodes:
            leaves.append(core.leaf_spec(inputs=[v], clauses=[[1 if positive else -1]]))
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
    return core.build_graph(nodes, leaves, n=k, root=root)


def relabel_inputs(graph, perm):
    """The same circuit with input variable v renamed to perm[v - 1]."""
    leaves = []
    for lf in graph.leaves:
        local = {v: j + 1 for j, v in enumerate(lf.input_vars + lf.aux_vars)}
        leaves.append(core.leaf_spec(
            inputs=[perm[v - 1] for v in lf.input_vars],
            clauses=[[local[l] if l > 0 else -local[-l] for l in c] for c in lf.clauses],
            aux=list(lf.aux_names),
            cls=lf.claimed_class,
        ))
    nodes = [("leaf", nd.leaf) if nd.kind == "leaf" else (nd.kind, nd.children)
             for nd in graph.nodes]
    return core.build_graph(nodes, leaves, input_names=graph.input_names, root=graph.root)


# ---------------------------------------------------------------------------
# the closed-form parity oracle (independent of the package)


class UnitPropagator:
    """Plain unit propagation over a clause list, kept apart from the
    package's engine so that the parity check shares no code with it."""

    def __init__(self, nvars: int, clauses):
        self.nvars = nvars
        self.clauses = clauses
        occ = [[] for _ in range(2 * nvars + 2)]
        for ci, clause in enumerate(clauses):
            for lit in clause:
                occ[2 * lit if lit > 0 else -2 * lit + 1].append(ci)
        self.occ = occ
        self.units = [c[0] for c in clauses if len(c) == 1]
        self.empty = any(not c for c in clauses)

    def conflicts(self, assumptions) -> bool:
        if self.empty:
            return True
        val = [0] * (self.nvars + 1)
        nfalse = [0] * len(self.clauses)
        clauses, occ = self.clauses, self.occ
        queue = list(assumptions) + self.units
        while queue:
            lit = queue.pop()
            v, s = (lit, 1) if lit > 0 else (-lit, -1)
            if val[v] == s:
                continue
            if val[v] == -s:
                return True
            val[v] = s
            # clauses containing -lit lost a literal
            for ci in occ[2 * v + 1 if s > 0 else 2 * v]:
                nfalse[ci] += 1
                clause = clauses[ci]
                if nfalse[ci] < len(clause) - 1:
                    continue
                free = None
                for other in clause:
                    x = val[abs(other)]
                    if x == 0:
                        free = other
                    elif (x > 0) == (other > 0):
                        break  # satisfied
                else:
                    if free is None:
                        return True
                    queue.append(free)
        return False


def parity_probes(rng: random.Random, k: int, count: int = PARITY_PROBES):
    """Random full input assignments, alternately of odd and even parity,
    each with the verdict closed-form odd parity demands of unit propagation
    on a cc-or-stronger encoding: a conflict exactly when the parity is even."""
    probes = []
    for j in range(count):
        bits = [rng.random() < 0.5 for _ in range(k)]
        if sum(bits) % 2 != j % 2:
            i = rng.randrange(k)
            bits[i] = not bits[i]
        lits = tuple(v if b else -v for v, b in enumerate(bits, start=1))
        probes.append((lits, sum(bits) % 2 == 0))
    return probes


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_graphs: Callable[[], Iterable]
    strength: Optional[str]        # None, "claim" (criterion 2) or "inputs" (exhaustive)
    parity: bool = False           # outputs checked against closed-form odd parity


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "corpus-verify",
            "the acceptance corpus: many tiny CNFs compiled, then certified exhaustively"
            " or sampled; the path users and tier-1 run",
            acceptance_corpus, strength="claim"),
        Workload(
            "parity-compile",
            "parity DNNF at k=20/40/60: large single graphs where compile is superlinear;"
            " propcheck does no work",
            lambda: [parity_dnnf(k) for k in PARITY_COMPILE_KS],
            strength=None, parity=True),
        Workload(
            "parity-certify",
            "parity DNNF at k=8: a few big CNFs walked exhaustively over the input scope,"
            " against corpus-verify's many small sampled ones",
            lambda: [parity_dnnf(k) for k in PARITY_CERTIFY_KS],
            strength="inputs", parity=True),
    )
}


@dataclass
class Item:
    gi: int
    graph: object          # the generated circuit: the oracle for check_encoding
    text: str              # the only thing the compiler sees
    order: tuple           # the input variables in their order before renaming
    sample_seed: int
    probes: tuple


def setup(wl: Workload, seed: int, tick: Callable[[], None] = lambda: None) -> list:
    """Build the workload's inputs: graphs, their text, probes and seeds.
    ``tick`` runs between graphs (a clock's ``split``)."""
    rng = random.Random(seed)
    items = []
    for gi, graph in enumerate(wl.make_graphs()):
        tick()
        perm = list(range(1, graph.num_inputs + 1))
        if seed:
            rng.shuffle(perm)
        graph = relabel_inputs(graph, perm)
        probes = tuple(parity_probes(rng, graph.num_inputs)) if wl.parity else ()
        items.append(Item(gi, graph, formats.serialize_bdmc(graph), tuple(perm),
                          SEED_STRIDE * seed + 1000 + gi, probes))
    return items


@dataclass
class PassResult:
    # per (graph, target), graph-major: calibrated (compile_s, verify_s), None if it failed
    ops: list = field(default_factory=list)
    cnf_vars: int = 0
    cnf_clauses: int = 0
    strength_checks: int = 0
    exhaustive_checks: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    wall_s: float = 0.0


def compile_target(text: str, target: str):
    """Text to the three output files' bytes, as ``bdmc compile`` writes them."""
    out = encoder.compile_graph(formats.parse_bdmc(text), target,
                                auto_smooth=True, auto_level=True)
    cnf, varmap = formats.emit_dimacs(out)
    stats = json.dumps(out.stats.to_dict(), indent=2, sort_keys=True) + "\n"
    return out, cnf, (cnf + varmap + stats).encode("utf-8")


def verify_target(wl: Workload, item: Item, target: str, out, cnf: str, tr, clock,
                  res: PassResult) -> bool:
    ok = not out.stats.violations
    nvars, clauses = formats.parse_dimacs(cnf)
    clock.split()
    if wl.strength is not None:
        n = item.graph.num_inputs
        ok = propcheck.check_encoding(clauses, nvars, list(range(1, n + 1)), item.graph).ok and ok
        clock.split()
        # the walk decides the scope in list order; listing the inputs in
        # their order before renaming keeps its work the same at every seed
        scope_kind, style = TARGET_CHECK[target]
        scope = list(item.order)
        if wl.strength != "inputs" and scope_kind == "all":
            scope += range(n + 1, nvars + 1)
        if wl.strength == "inputs" or propcheck.exhaustive_feasible(len(scope)):
            verdict = propcheck.check_strength(clauses, nvars, scope, style)
        else:
            verdict = propcheck.check_strength(clauses, nvars, scope, style, mode="sampled",
                                               samples=SAMPLES_PER_CHECK,
                                               seed=item.sample_seed, jobs=1)
        res.strength_checks += 1
        res.exhaustive_checks += verdict.mode == "exhaustive"
        ok = verdict.passed and ok
        clock.split()
    if wl.parity:
        with tr.span("bench.oracle"):
            up = UnitPropagator(nvars, clauses)
            ok = all(up.conflicts(lits) == even for lits, even in item.probes) and ok
    return ok


def run_pass(wl: Workload, items: list, tr, clock) -> PassResult:
    """Compile and check every (graph, target) once, timing both halves on
    ``clock``.  Failures are counted, reported on stderr and never stop the
    pass."""
    res = PassResult()
    digest = hashlib.sha256()
    start = perf_counter()
    for item in items:
        tr.graph = item.gi
        for target in TARGETS:
            res.attempted += 1
            try:
                clock.start()
                with tr.span("bench.compile"):
                    out, cnf, blob = compile_target(item.text, target)
                compile_s = clock.stop()
                digest.update(blob)
                clock.start()
                with tr.span("bench.verify"):
                    ok = verify_target(wl, item, target, out, cnf, tr, clock, res)
                verify_s = clock.stop()
            except Exception:  # one broken (graph, target) must not hide the rest
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                res.failed += 1
                res.ops.append(None)
                print(f"bench: {wl.name} graph {item.gi} target {target}: check failed",
                      file=sys.stderr)
                continue
            res.ops.append((compile_s, verify_s))
            res.cnf_vars += out.num_vars
            res.cnf_clauses += out.stats.total_clauses
    tr.graph = None
    res.wall_s = perf_counter() - start
    res.digest = digest.hexdigest()
    return res
