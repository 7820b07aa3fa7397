"""Self-checks of the benchmark: run with ``python3 -m pytest bench``.

The last test runs every workload twice (traced, one pass each, a couple of
minutes in all) and requires the same output digest and the same exact counts.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bdmc import formats  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location("acceptance_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generators_match_conftest_at_seed_0():
    conftest = _conftest()
    assert conftest.CORPUS_SIZE == workloads.CORPUS_SIZE, "BDMC_ACCEPT_CORPUS is overridden"
    assert conftest.TARGETS == workloads.TARGETS
    assert conftest.TARGET_CHECK == workloads.TARGET_CHECK
    want = [formats.serialize_bdmc(g) for g in conftest.corpus.__wrapped__()]
    got = [item.text for item in workloads.setup(workloads.WORKLOADS["corpus-verify"], 0)]
    assert got == want
    for name in ("parity-compile", "parity-certify"):
        items = workloads.setup(workloads.WORKLOADS[name], 0)
        ks = [item.graph.num_inputs for item in items]
        assert [item.text for item in items] == [
            formats.serialize_bdmc(conftest.parity_dnnf(k)) for k in ks]


def test_seed_renames_inputs_but_keeps_sizes():
    wl = workloads.WORKLOADS["parity-certify"]
    base, other = workloads.setup(wl, 0), workloads.setup(wl, 1)
    assert [i.text for i in base] != [i.text for i in other]
    assert [(i.graph.num_nodes, i.graph.num_edges) for i in base] == [
        (i.graph.num_nodes, i.graph.num_edges) for i in other]
    assert [i.text for i in other] == [i.text for i in workloads.setup(wl, 1)]


def test_parity_probes_follow_closed_form_parity():
    import random

    for lits, even in workloads.parity_probes(random.Random(5), 7, count=20):
        assert even == (sum(lit > 0 for lit in lits) % 2 == 0)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def _traced_run(name: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2].removeprefix("report "))
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_runs_repeat_digest_and_exact_counts(name):
    (rep1, res1), (rep2, res2) = _traced_run(name, 3), _traced_run(name, 3)
    for res in (res1, res2):
        assert res["correct"] and res["failed"] == 0
    for key in ("digest", "cnf_vars", "cnf_clauses", "certified_share", "strength_checks"):
        assert rep1[key] == rep2[key], key
    exact = [n for n, unit, _ in tracer.PER_LAYER if unit in ("count", "ratio")]
    assert {n: res1["metrics"][n]["value"] for n in exact} == {
        n: res2["metrics"][n]["value"] for n in exact}
