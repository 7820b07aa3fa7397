"""Golden bytes and verdicts: the DIMACS, varmap and stats output of every
target, and the checkers' verdicts on it.

Each byte hash is a sha256 over the emitted bytes of one target, for every
graph of the acceptance corpus followed by parity_dnnf(20), compiled with
auto_smooth and auto_level.  A refactor of the compiler must leave them
unchanged; a deliberate change of the output format must update them and
say so.  The verdict hash pins check_encoding and check_strength in the same
way for refactors of the checkers and the engine.
"""

import hashlib
import json

import pytest

from bdmc import compile_graph, emit_dimacs, serialize_bdmc
from bdmc.propcheck import check_encoding, check_strength, exhaustive_feasible

from conftest import CORPUS_SIZE, TARGET_CHECK, TARGETS, parity_dnnf

GOLDEN = {
    "cc": "cded193800f9be9015fba84836cfc6e0a6093d9edcf86ecdf2ca9d060c73cf8f",
    "dc": "b09291927c2f7eb37fdd99c19a73d3699837bd2670008ca7e41766883a912756",
    "urc": "0504e257b77ccefc8288226e0b518663a6d7f08fcdf4e7d6d383d9d880e234f0",
    "urc-seq": "6a066ff210517303b5d770787ae62442f690915b24e238308537ef02278c09fb",
    "pc": "3a57c81646e3e88807f0f08787a01ec807cb144877d896b2b814eb425e6141f5",
}


# sha256 of the acceptance corpus, every graph serialized in order: the
# generator's size filter decides which graphs it contains
CORPUS_DIGEST = "a2b19e16759085b44df7ba3d1063ac21f7ff8c96832cd7e8362c5361c8565b5f"


def output_digest(graphs, target: str) -> str:
    h = hashlib.sha256()
    for g in graphs:
        out = compile_graph(g, target, auto_smooth=True, auto_level=True)
        cnf, varmap = emit_dimacs(out)
        stats = json.dumps(out.stats.to_dict(), indent=2, sort_keys=True) + "\n"
        for blob in (cnf, varmap, stats):
            h.update(blob.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("target", TARGETS)
def test_golden_bytes(corpus, target):
    if CORPUS_SIZE != 100:
        pytest.skip("golden hashes are pinned for the default corpus size")
    assert output_digest(list(corpus) + [parity_dnnf(20)], target) == GOLDEN[target]


def test_corpus_is_fixed(corpus):
    if CORPUS_SIZE != 100:
        pytest.skip("the corpus hash is pinned for the default corpus size")
    text = "".join(serialize_bdmc(g) for g in corpus)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_DIGEST


# sha256 over json.dumps(..., sort_keys=True) of the check_encoding and
# check_strength verdicts (to_dict) of every target on the corpus, then on
# parity_dnnf(8): each target's scope and style, exhaustive where feasible,
# otherwise 500 samples at seed 1000 + graph index; parity_dnnf(8) exhaustive
# over its inputs.  A speedup of the checkers must leave it unchanged; a
# change in what alphas_checked counts re-pins it, with a before/after dump
# that shows every other field equal.
VERDICTS_DIGEST = "3649ce085b45502160808439a42767428e6f9bbe973fa349e427a4d77e8cad56"


def verdict_dicts(compiled_corpus):
    parity = {t: compile_graph(parity_dnnf(8), t, auto_smooth=True, auto_level=True)
              for t in TARGETS}
    out = []
    for gi, outputs in enumerate([*compiled_corpus, parity]):
        for target in TARGETS:
            comp = outputs[target]
            clauses = comp.all_clauses()
            inputs = list(range(1, comp.num_inputs + 1))
            out.append(check_encoding(clauses, comp.num_vars, inputs, comp.graph).to_dict())
            scope_kind, style = TARGET_CHECK[target]
            scope = list(range(1, comp.num_vars + 1))
            if scope_kind == "inputs" or outputs is parity:
                scope = inputs
            if exhaustive_feasible(len(scope)):
                v = check_strength(clauses, comp.num_vars, scope, style)
            else:
                v = check_strength(clauses, comp.num_vars, scope, style, mode="sampled",
                                   samples=500, seed=1000 + gi)
            out.append(v.to_dict())
    return out


def test_golden_verdicts(compiled_corpus):
    if CORPUS_SIZE != 100:
        pytest.skip("the verdict hash is pinned for the default corpus size")
    blob = json.dumps(verdict_dicts(compiled_corpus), sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == VERDICTS_DIGEST
