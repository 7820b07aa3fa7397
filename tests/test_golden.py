"""Golden bytes: the DIMACS, varmap and stats output of every target.

Each hash is a sha256 over the emitted bytes of one target, for every graph
of the acceptance corpus followed by parity_dnnf(20), compiled with
auto_smooth and auto_level.  A refactor of the compiler must leave them
unchanged; a deliberate change of the output format must update them and
say so.
"""

import hashlib
import json

import pytest

from bdmc import compile_graph, emit_dimacs

from conftest import CORPUS_SIZE, TARGETS, parity_dnnf

GOLDEN = {
    "cc": "cded193800f9be9015fba84836cfc6e0a6093d9edcf86ecdf2ca9d060c73cf8f",
    "dc": "b09291927c2f7eb37fdd99c19a73d3699837bd2670008ca7e41766883a912756",
    "urc": "3a5a1c48232daf98d9cdc651397e2a9618bba32861ad4bd60c833362c8e3da71",
    "urc-seq": "55b7e6058d32b0bf7bb416670014f40c5de4ba0df1329060fed5b695b32052bf",
    "pc": "00fb918144981a93dc08093395433108c231cbb7bade473aa96726d738ce4247",
}


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
