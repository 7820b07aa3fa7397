"""Command-line behavior: outputs, determinism, exit codes."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bdmc
from bdmc import formats, propcheck
from bdmc.cli import _parse_mode, build_parser, cmd_stats, main
from bdmc.errors import InputError
from bdmc.formats import parse_bdmc

from oracles import assert_assembled

G1_TEXT = """\
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

NONSMOOTH_TEXT = """\
bdmc 3 2 2 2
inputs x1 x2
O 2 1 2
L 1
L 2
root 0
leaf 1 inputs x1 aux clauses 1 class pc
x1 0
leaf 2 inputs x1 x2 aux clauses 1 class pc
x1 x2 0
"""


@pytest.fixture()
def g1_file(tmp_path):
    path = tmp_path / "g1.bdmc"
    path.write_text(G1_TEXT)
    return path


def test_compile_writes_outputs(tmp_path, g1_file, capsys):
    out = tmp_path / "g1.cnf"
    assert main(["compile", "--target", "pc", str(g1_file), "-o", str(out)]) == 0
    cnf = out.read_text()
    assert cnf.splitlines()[0] == "p cnf 13 38"
    stats = json.loads((tmp_path / "g1.cnf.stats.json").read_text())
    assert stats["ok"] and stats["clauses"] == 38
    varmap = (tmp_path / "g1.cnf.varmap.jsonl").read_text().splitlines()
    assert len(varmap) == 13


def test_compile_deterministic(tmp_path, g1_file):
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    main(["compile", "--target", "urc-seq", str(g1_file), "-o", str(a)])
    main(["compile", "--target", "urc-seq", str(g1_file), "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.cnf.stats.json").read_bytes() == (tmp_path / "b.cnf.stats.json").read_bytes()


def test_compile_precondition_exit(tmp_path):
    path = tmp_path / "ns.bdmc"
    path.write_text(NONSMOOTH_TEXT)
    assert main(["compile", "--target", "pc", str(path), "-o", str(tmp_path / "o.cnf")]) == 2
    assert main(["compile", "--target", "pc", "--auto-smooth", "--auto-level",
                 str(path), "-o", str(tmp_path / "o.cnf")]) == 0


def test_parse_error_exit(tmp_path):
    path = tmp_path / "bad.bdmc"
    path.write_text("bdmc zero\n")
    assert main(["compile", "--target", "cc", str(path)]) == 1


def test_verify_pass_and_fail(tmp_path, g1_file, capsys):
    assert main(["verify", "--target", "pc", str(g1_file)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] and verdict["strength"]["mode"] == "exhaustive"

    # verifying a mutated CNF (root clause dropped) must fail with a witness
    out = tmp_path / "g1.cnf"
    main(["compile", "--target", "cc", str(g1_file), "-o", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[-1] == "13 0"
    mutated = lines[:1] + lines[1:-1]
    mutated[0] = "p cnf 13 29"
    bad = tmp_path / "bad.cnf"
    bad.write_text("\n".join(mutated) + "\n")
    assert main(["verify", "--target", "cc", "--cnf", str(bad), str(g1_file)]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert not verdict["passed"]
    assert verdict["encoding"]["witness"] == [-1, -2]


def test_verify_sampled_deterministic(g1_file, capsys):
    assert main(["verify", "--target", "urc", str(g1_file),
                 "--mode", "sample:2000:42"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--target", "urc", str(g1_file),
                 "--mode", "sample:2000:42"]) == 0
    assert capsys.readouterr().out == first


def test_verify_sampled_failure_is_confirmed(tmp_path, g1_file, capsys):
    # g1's cc encoding is a correct encoding but not pc on all variables
    cnf = tmp_path / "g1.cnf"
    assert main(["compile", "--target", "cc", str(g1_file), "-o", str(cnf)]) == 0
    capsys.readouterr()
    argv = ["verify", "--target", "pc", "--cnf", str(cnf), str(g1_file)]
    for mode in ("sample:3000:9", "exhaustive"):
        assert main(argv + ["--mode", mode]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["encoding"]["ok"] and not verdict["strength"]["passed"]
        assert verdict["strength"]["confirmed"] is True
        assert "counterexample" in verdict["strength"]
    # a passing verdict carries no confirmed key
    assert main(["verify", "--target", "pc", str(g1_file), "--mode", "sample:300:9"]) == 0
    assert "confirmed" not in json.loads(capsys.readouterr().out)["strength"]


def test_verify_zero_samples_checks_none(g1_file, capsys):
    assert main(["verify", "--target", "cc", str(g1_file), "--mode", "sample:0:0"]) == 0
    strength = json.loads(capsys.readouterr().out)["strength"]
    assert strength["samples"] == 0 and strength["alphas_checked"] == 0


def test_verify_scope_override(g1_file, capsys):
    assert main(["verify", "--target", "urc", "--scope", "inputs", "--auto-smooth",
                 "--auto-level", str(g1_file)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["scope"] == "inputs" and verdict["style"] == "urc"
    assert verdict["strength"]["scope_size"] == 2


def test_verify_budget_exit(g1_file, monkeypatch, capsys):
    monkeypatch.setenv("BDMC_BUDGET", "9")
    assert main(["verify", "--target", "pc", str(g1_file)]) == 4
    assert '"budget": 9' in capsys.readouterr().err  # echoed on the config line


@pytest.mark.parametrize("budget, code", [("7", 4), ("8", 0)])
def test_budget_bounds_correctness_sweep(tmp_path, monkeypatch, budget, code):
    # sampled strength has no budget gate; the correctness sweep walks 2^3 = 8
    path = tmp_path / "or3.bdmc"
    path.write_text("bdmc 1 0 1 3\ninputs x1 x2 x3\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 x2 x3 aux clauses 1 class pc\nx1 x2 x3 0\n")
    monkeypatch.setenv("BDMC_BUDGET", budget)
    assert main(["verify", "--target", "cc", "--mode", "sample:10:0", str(path)]) == code


MALFORMED_BUDGETS = (("abc", "BDMC_BUDGET must be an integer"),
                     ("0", "BDMC_BUDGET must be a positive integer"),
                     ("-1", "BDMC_BUDGET must be a positive integer"))


@pytest.mark.parametrize("argv", [
    ["verify", "--target", "cc", "G1"],
    ["certify-leaf", "G1"],
])
def test_malformed_budget_exits_1(g1_file, capsys, monkeypatch, argv):
    # the two commands that run sweeps read BDMC_BUDGET before any work; a
    # budget below 1 would refuse every sweep as over it (exit 4)
    argv = [str(g1_file) if a == "G1" else a for a in argv]
    for budget, message in MALFORMED_BUDGETS:
        monkeypatch.setenv("BDMC_BUDGET", budget)
        assert main(argv) == 1, budget
        err = capsys.readouterr().err
        assert message in err and "config" not in err, budget


@pytest.mark.parametrize("argv", [
    ["compile", "--target", "pc", "G1", "-o", "OUT"],
    ["gen", "--count", "1", "-o", "OUT"],
])
def test_malformed_budget_unread_without_a_sweep(tmp_path, g1_file, capsys, monkeypatch, argv):
    # compile and gen run no sweep: they neither read nor echo BDMC_BUDGET
    argv = [{"G1": str(g1_file), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    for budget, _ in MALFORMED_BUDGETS:
        monkeypatch.setenv("BDMC_BUDGET", budget)
        assert main(argv) == 0, budget
        assert '"budget"' not in capsys.readouterr().err, budget


def test_verify_clause_with_repeated_literal(tmp_path, g1_file, capsys):
    # 2 2 1 is the clause x1 | x2: under -x1 it is the unit x2
    for name, text in (("dup", "p cnf 2 1\n2 2 1 0\n"), ("plain", "p cnf 2 1\n2 1 0\n")):
        cnf = tmp_path / f"{name}.cnf"
        cnf.write_text(text)
        assert main(["verify", "--target", "pc", "--cnf", str(cnf), str(g1_file)]) == 0, name
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] and "counterexample" not in verdict["strength"]


@pytest.mark.parametrize("cnf_text", ["p cnf x 1\n1 0\n", "p cnf 2 1\n1 abc 0\n"])
def test_verify_non_integer_dimacs_exit(tmp_path, g1_file, capsys, cnf_text):
    bad = tmp_path / "bad.cnf"
    bad.write_text(cnf_text)
    assert main(["verify", "--target", "cc", "--cnf", str(bad), str(g1_file)]) == 1
    err = capsys.readouterr().err
    assert "parse error: expected an integer" in err and "(line " in err


@pytest.mark.parametrize("cnf_text, message", [
    ("p cnf 1 1\n1 0\n", "input error: "),
    ("p cnf -1 0\n", "parse error: negative count"),
])
def test_verify_dimacs_with_too_few_variables_exit(tmp_path, g1_file, capsys, cnf_text, message):
    bad = tmp_path / "bad.cnf"
    bad.write_text(cnf_text)
    assert main(["verify", "--target", "pc", "--cnf", str(bad), str(g1_file)]) == 1
    assert message in capsys.readouterr().err


def test_verify_non_integer_mode_exit(g1_file, capsys):
    with pytest.raises(InputError):
        _parse_mode("sample:abc:0")
    assert main(["verify", "--target", "pc", "--mode", "sample:abc:0", str(g1_file)]) == 1
    assert "input error: sampled mode is sample:<count>:<seed>" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe" + G1_TEXT.encode("utf-8")


@pytest.mark.parametrize("argv, bad_name, bad_bytes", [
    (["compile", "--target", "pc", "{bad}"], "g.bdmc", NOT_UTF8),
    (["eval", "{bad}", "--assign", "x1=1"], "g.bdmc", NOT_UTF8),
    (["verify", "--target", "pc", "{bad}"], "g.bdmc", NOT_UTF8),
    (["verify", "--target", "pc", "--cnf", "{bad}", "{g1}"], "g.cnf", b"\xff\xfep cnf 1 0\n"),
    (["stats", "{bad}"], "s.json", b"\xff\xfe{}"),
    (["stats", "{bad}"], "s.json", b"{\"ok\": tru"),
    (["stats", "{bad}"], "s.json", b"[1,2]"),
], ids=["compile", "eval", "verify", "verify-cnf", "stats-not-utf8", "stats-not-json",
        "stats-not-object"])
def test_unreadable_input_exits_1(tmp_path, g1_file, capsys, argv, bad_name, bad_bytes):
    bad = tmp_path / bad_name
    bad.write_bytes(bad_bytes)
    assert main([a.format(bad=bad, g1=g1_file) for a in argv]) == 1
    assert "parse error: " in capsys.readouterr().err


def test_inputs_with_a_byte_order_mark_are_read(tmp_path, capsys):
    # some editors start a UTF-8 file with the mark EF BB BF; it is not text
    bom = "\ufeff".encode("utf-8")
    sentence, cnf = tmp_path / "g1.bdmc", tmp_path / "g1.cnf"
    sentence.write_bytes(bom + G1_TEXT.encode("utf-8"))
    assert main(["compile", "--target", "pc", str(sentence), "-o", str(cnf)]) == 0
    cnf.write_bytes(bom + cnf.read_bytes())
    capsys.readouterr()
    assert main(["verify", "--target", "pc", "--cnf", str(cnf), str(sentence)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_verify_exhaustive_budget_gate_precedes_encoding_check(tmp_path, monkeypatch, capsys):
    # parity_dnnf(4) compiled to pc mentions 49 variables, so the all-variable
    # walk is over the 3^14 budget: exit 4 on a header declaring 200000
    # variables, without building an engine for the correctness sweep
    from conftest import parity_dnnf

    from bdmc import propcheck
    from bdmc.formats import serialize_bdmc

    sentence, cnf = tmp_path / "parity4.bdmc", tmp_path / "parity4.cnf"
    sentence.write_text(serialize_bdmc(parity_dnnf(4)))
    main(["compile", "--target", "pc", "--auto-level", str(sentence), "-o", str(cnf)])
    lines = cnf.read_text().splitlines()
    assert lines[0].startswith("p cnf 49 ")
    cnf.write_text("\n".join([lines[0].replace(" 49 ", " 200000 ")] + lines[1:]) + "\n")

    def not_called(*args, **kwargs):
        raise AssertionError("check_encoding ran before the strength budget gate")

    monkeypatch.setattr(propcheck, "check_encoding", not_called)
    assert main(["verify", "--target", "pc", "--cnf", str(cnf), str(sentence)]) == 4
    assert "budget exceeded: exhaustive mode needs 3^49 " in capsys.readouterr().err


def _run_module(argv, address_space=None):
    """python -m bdmc in a subprocess from this checkout, optionally under an
    address-space limit in bytes."""
    src = str(Path(bdmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "bdmc", *argv], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit if address_space else None)


def test_python_m_bdmc_runs_the_cli():
    result = _run_module(["--help"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: bdmc")
    assert "certify-leaf" in result.stdout


@pytest.mark.parametrize("target", ["pc", "urc"])
def test_verify_absurd_header_certified_without_allocating(tmp_path, g1_file, target):
    # 10^9 declared variables, 13 used: exhaustive verify over all of them
    # walks the 13 and passes in 1 GiB of address space, with no traceback,
    # reporting the declared scope
    cnf = tmp_path / "g1.cnf"
    assert main(["compile", "--target", target, str(g1_file), "-o", str(cnf)]) == 0
    lines = cnf.read_text().splitlines()
    assert lines[0].startswith("p cnf 13 ")
    cnf.write_text("\n".join([lines[0].replace(" 13 ", " 1000000000 ")] + lines[1:]) + "\n")
    result = _run_module(["verify", "--target", target, "--cnf", str(cnf), str(g1_file)],
                         address_space=1 << 30)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    strength = json.loads(result.stdout)["strength"]
    assert strength["mode"] == "exhaustive" and strength["passed"] is True
    assert strength["scope_size"] == 1000000000


def test_verify_absurd_header_sampled_over_all_variables(tmp_path, g1_file):
    # 10^9 declared variables, 13 used: sampled verify over all of them draws
    # over the 13 in 1 GiB of address space and reports the declared scope
    cnf = tmp_path / "g1.cnf"
    assert main(["compile", "--target", "pc", str(g1_file), "-o", str(cnf)]) == 0
    lines = cnf.read_text().splitlines()
    assert lines[0] == "p cnf 13 38"
    cnf.write_text("\n".join(["p cnf 1000000000 38"] + lines[1:]) + "\n")
    result = _run_module(["verify", "--target", "pc", "--cnf", str(cnf), str(g1_file),
                          "--mode", "sample:10:0"], address_space=1 << 30)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert '"scope_size": 1000000000' in result.stdout


@pytest.mark.parametrize("mode", ["exhaustive", "sample:10:0"])
def test_verify_absurd_header_input_scope_sized_by_the_clauses(tmp_path, g1_file, mode):
    # 10^9 declared variables, 13 used: over the two-input scope both modes
    # pass in 1 GiB of address space, the checkers sized by the used variables
    cnf = tmp_path / "g1.cnf"
    assert main(["compile", "--target", "pc", str(g1_file), "-o", str(cnf)]) == 0
    lines = cnf.read_text().splitlines()
    assert lines[0] == "p cnf 13 38"
    cnf.write_text("\n".join(["p cnf 1000000000 38"] + lines[1:]) + "\n")
    result = _run_module(["verify", "--target", "pc", "--cnf", str(cnf), str(g1_file),
                          "--scope", "inputs", "--mode", mode], address_space=1 << 30)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


def test_eval(g1_file, capsys):
    assert main(["eval", str(g1_file), "--assign", "x1=1,x2=0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["eval", str(g1_file), "--assign", "x1=0,x2=0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize("argv, message", [
    (["eval", "{g1}", "--assign", "x1=1,x2=1,x1=0"], "input variable 'x1' is assigned twice"),
    (["certify-leaf", "{g1}", "--leaf", "9"], "--leaf 9 is not a leaf index 1..2"),
    (["certify-leaf", "{g1}", "--leaf", "0"], "--leaf 0 is not a leaf index 1..2"),
    (["gen", "--n", "0"], "a sentence needs at least one input, got n=0"),
    (["gen", "--count", "-1"], "sentence count must be non-negative, got -1"),
    (["verify", "--target", "pc", "{g1}", "--mode", "sample:-5:0"],
     "sample count must be non-negative, got -5"),
    (["verify", "--target", "cc", "{g1}", "--mode", "sample:10:0", "--jobs", "0"],
     "jobs must be an int >= 1, got 0"),
], ids=["eval-duplicate-input", "certify-leaf-past-last", "certify-leaf-zero", "gen-no-inputs",
        "gen-negative-count", "verify-negative-samples", "verify-zero-jobs"])
def test_bad_cli_input_exits_1(g1_file, capsys, argv, message):
    assert main([a.format(g1=g1_file) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"input error: {message}" in captured.err


@pytest.mark.parametrize("argv", [["--mode", "sample:10:0", "--jobs", "0"], ["--mode", "sample:-5:0"]],
                         ids=["zero-jobs", "negative-samples"])
def test_verify_refuses_bad_arguments_before_any_check(g1_file, monkeypatch, capsys, argv):
    # on a wide sentence the encoding sweep alone takes seconds: a bad
    # argument must not wait for it
    def never(*args, **kwargs):
        pytest.fail("a check ran before the arguments were refused")

    monkeypatch.setattr(propcheck, "check_encoding", never)
    monkeypatch.setattr(propcheck, "check_strength", never)
    assert main(["verify", "--target", "cc", str(g1_file), *argv]) == 1
    assert "input error" in capsys.readouterr().err


def test_smooth_and_level_commands(tmp_path, capsys):
    path = tmp_path / "ns.bdmc"
    path.write_text(NONSMOOTH_TEXT)
    out = tmp_path / "s.bdmc"
    assert main(["smooth", str(path), "-o", str(out)]) == 0
    from bdmc.core import validate
    from bdmc.formats import parse_bdmc
    assert validate(parse_bdmc(out.read_text())).smooth_witness is None
    leveled = tmp_path / "l.bdmc"
    assert main(["level", str(out), "-o", str(leveled)]) == 0
    from bdmc.transform import is_layered
    assert is_layered(parse_bdmc(leveled.read_text()))


def test_stats_command(tmp_path, g1_file, capsys):
    out = tmp_path / "g1.cnf"
    main(["compile", "--target", "pc", str(g1_file), "-o", str(out)])
    capsys.readouterr()
    assert main(["stats", str(tmp_path / "g1.cnf.stats.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    e1 = [b for b in data["bounds"] if b["name"] == "E1 = r+4m"][0]
    assert e1["exact"] and e1["ok"]
    assert main(["stats", str(g1_file), "--target", "cc"]) == 0


def test_gen_command(tmp_path, capsys):
    d = tmp_path / "corpus"
    assert main(["gen", "--seed", "3", "--n", "4", "--count", "2",
                 "-o", str(d)]) == 0
    files = sorted(p.name for p in d.iterdir())
    assert files == ["g3.bdmc", "g4.bdmc"]
    from bdmc.formats import parse_bdmc
    from bdmc.core import validate
    for f in d.iterdir():
        validate(parse_bdmc(f.read_text()))  # refuses a graph that is not a valid BDMC


def test_certify_leaf_command(tmp_path, capsys):
    path = tmp_path / "weak.bdmc"
    path.write_text("bdmc 1 0 1 2\ninputs x1 x2\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 x2 aux clauses 1\nx1 x2 0\n")
    assert main(["certify-leaf", str(path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["claimed"] == "cc" and rows[0]["best"] == "pc"
    # upgrading the claim makes the pc target compile
    assert main(["compile", "--target", "pc", str(path)]) == 2
    assert main(["certify-leaf", str(path), "--apply"]) == 0
    capsys.readouterr()
    assert main(["compile", "--target", "pc", str(path),
                 "-o", str(tmp_path / "w.cnf")]) == 0


def test_certify_one_leaf_applies_to_that_leaf_only(tmp_path, capsys, monkeypatch):
    path, out = tmp_path / "two.bdmc", tmp_path / "out.bdmc"
    path.write_text("bdmc 3 2 2 2\ninputs x1 x2\nO 2 1 2\nL 1\nL 2\nroot 0\n"
                    "leaf 1 inputs x1 x2 aux clauses 1 class cc\nx1 x2 0\n"
                    "leaf 2 inputs x1 x2 aux clauses 1 class cc\nx1 -x2 0\n")
    written = []
    serialize = formats.serialize_bdmc
    monkeypatch.setattr(formats, "serialize_bdmc", lambda g: written.append(g) or serialize(g))
    assert main(["certify-leaf", str(path), "--leaf", "1", "--apply", "-o", str(out)]) == 0
    # the upgraded graph, built without assemble_graph, and the file it wrote
    assert_assembled(written[0])
    assert_assembled(parse_bdmc(out.read_text()))
    rows = json.loads(capsys.readouterr().out)
    assert [(row["leaf"], row["claimed"], row["best"]) for row in rows] == [(1, "cc", "pc")]
    leaves = parse_bdmc(out.read_text()).leaves
    assert [leaf.claimed_class for leaf in leaves] == ["pc", "cc"]
    assert [leaf.clauses for leaf in leaves] == [leaf.clauses for leaf in
                                                parse_bdmc(path.read_text()).leaves]


def test_certify_apply_keeps_a_held_claim_best_does_not_cover(tmp_path, capsys):
    # dc holds and urc is certified too: urc is stronger in style, not in
    # scope, so rewriting dc to urc would make the dc target refuse the file
    path, out = tmp_path / "held.bdmc", tmp_path / "out.bdmc"
    path.write_text("bdmc 1 0 1 1\ninputs x1\nL 1\nroot 0\n"
                    "leaf 1 inputs x1 aux y z clauses 2 class dc\nx1 y -z 0\nx1 -y -z 0\n")
    assert main(["certify-leaf", str(path), "--apply", "-o", str(out)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert (rows[0]["certified"], rows[0]["best"]) == (["cc", "dc", "urc"], "urc")
    assert out.read_text() == path.read_text()
    assert main(["compile", "--target", "dc", str(out), "-o", str(tmp_path / "o.cnf")]) == 0


def test_certify_apply_replaces_a_refuted_claim_with_best(tmp_path, capsys):
    path = tmp_path / "refuted.bdmc"
    path.write_text("bdmc 1 0 1 3\ninputs a b c\nL 1\nroot 0\n"
                    "leaf 1 inputs a b c aux clauses 2 class pc\n-a -b 0\na -b c 0\n")
    assert main(["certify-leaf", str(path), "--apply"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert (rows[0]["certified"], rows[0]["best"]) == (["cc", "urc"], "urc")
    assert parse_bdmc(path.read_text()).leaves[0].claimed_class == "urc"


def test_certify_apply_writes_nothing_when_a_refuted_leaf_certifies_no_class(tmp_path, capsys):
    # UP derives nothing from no assignment, though the clauses imply a, b and
    # c: the pc claim is false and no class holds
    path, out = tmp_path / "none.bdmc", tmp_path / "out.bdmc"
    text = ("bdmc 1 0 1 3\ninputs a b c\nL 1\nroot 0\n"
            "leaf 1 inputs a b c aux clauses 4 class pc\na b 0\n-a b 0\na -b 0\n-a -b c 0\n")
    path.write_text(text)
    assert main(["certify-leaf", str(path), "--apply", "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)[0]["best"] == "none"
    assert ("leaf 1: claimed class pc is refuted and no class is certified;"
            " nothing written") in captured.err
    assert not out.exists()
    assert main(["certify-leaf", str(path), "--apply"]) == 3
    assert path.read_text() == text
    # without --apply the report alone exits 0
    assert main(["certify-leaf", str(path)]) == 0


def test_verify_judges_the_sentence_as_written(tmp_path, monkeypatch, capsys):
    # a smoothing bug that changes the function (x1 | x2 becomes x1 & x2)
    # must fail verify: the encoding is compared with the parsed sentence
    from bdmc import encoder

    path = tmp_path / "nonsmooth.bdmc"
    path.write_text(NONSMOOTH_TEXT)
    wrong = parse_bdmc("bdmc 1 0 1 2\ninputs x1 x2\nL 1\nroot 0\n"
                       "leaf 1 inputs x1 x2 aux clauses 2 class pc\nx1 0\nx2 0\n")
    assert wrong.analysis.smooth_witness is None
    assert parse_bdmc(NONSMOOTH_TEXT).analysis.smooth_witness is not None
    monkeypatch.setattr(encoder, "smooth", lambda graph: wrong)
    assert main(["verify", "--target", "pc", "--auto-smooth", "--auto-level", str(path)]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["strength"]["passed"] and not verdict["encoding"]["ok"]


def test_unrooted_sentence_exits_1(tmp_path, capsys):
    # or-node 3 over leaf node 1 is reached from no root path
    path = tmp_path / "unrooted.bdmc"
    path.write_text(G1_TEXT.replace("bdmc 3 2", "bdmc 4 3").replace("L 2\n", "L 2\nO 1 1\n"))
    capsys.readouterr()
    for argv in (["compile", "--target", "pc", "--auto-smooth", "--auto-level"],
                 ["verify", "--target", "dc"], ["eval", "--assign", "x1=1,x2=0"]):
        assert main([*argv, str(path)]) == 1, argv
        assert "nodes [3] are not reachable from the root" in capsys.readouterr().err


def test_cyclic_sentence_exits_1(tmp_path, capsys):
    # and-node 3 leads back to the root: 0 -> 3 -> 0
    path = tmp_path / "cyclic.bdmc"
    path.write_text(G1_TEXT.replace("bdmc 3 2", "bdmc 4 4").replace("O 2 1 2", "O 2 1 3")
                    .replace("L 2\n", "L 2\nA 2 0 2\n"))
    capsys.readouterr()
    for argv in (["compile", "--target", "pc", "--auto-smooth", "--auto-level"],
                 ["verify", "--target", "dc"], ["eval", "--assign", "x1=1,x2=0"],
                 ["smooth"], ["level", "--with-smooth"]):
        assert main([*argv, str(path)]) == 1, argv
        assert "cycle detected through nodes [0, 3, 0]" in capsys.readouterr().err


@pytest.mark.parametrize("text, assign, message", [
    # and-node 0 over two leaves that both hold x1 and x2
    pytest.param(G1_TEXT.replace("O 2 1 2", "A 2 1 2"), "x1=1,x2=0",
                 "graph is not decomposable; witness (node, var) = (0, 1)", id="not-decomposable"),
    # x3 is declared, but no leaf holds it
    pytest.param(G1_TEXT.replace("bdmc 3 2 2 2", "bdmc 3 2 2 3").replace("x1 x2\nO", "x1 x2 x3\nO"),
                 "x1=1,x2=0,x3=0", "input variables [3] appear in no leaf (var(root) != x)",
                 id="input-in-no-leaf"),
])
def test_invalid_bdmc_sentence_exits_1(tmp_path, capsys, text, assign, message):
    path = tmp_path / "invalid.bdmc"
    path.write_text(text)
    capsys.readouterr()
    for argv in (["compile", "--target", "pc", "--auto-smooth", "--auto-level"],
                 ["verify", "--target", "dc"], ["eval", "--assign", assign],
                 ["smooth"], ["level", "--with-smooth"]):
        assert main([*argv, str(path)]) == 1, argv
        assert f"input error: {message}\n" in capsys.readouterr().err, argv


@pytest.mark.slow
def test_gen_wide_cell_needs_no_budget(tmp_path, capsys, monkeypatch):
    """gen certifies no leaf, so a single clause over 20 inputs, past the
    default 3^14 strength budget, is generated under it; its 2^20-input
    correctness check is what takes the time."""
    monkeypatch.delenv("BDMC_BUDGET", raising=False)
    d, cnf = tmp_path / "wide", tmp_path / "g2.cnf"
    assert main(["gen", "--n", "20", "--depth", "0", "--max-vars", "500", "--seed", "2", "-o", str(d)]) == 0
    assert main(["compile", "--target", "pc", str(d / "g2.bdmc"), "-o", str(cnf)]) == 0
    capsys.readouterr()
    assert main(["verify", "--target", "pc", str(d / "g2.bdmc"), "--cnf", str(cnf),
                 "--mode", "sample:2000:0"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] and verdict["encoding"]["ok"]


def test_gen_compile_verify_pipeline(tmp_path, capsys):
    d = tmp_path / "gen"
    assert main(["gen", "--seed", "17", "--n", "4", "--count", "3", "-o", str(d)]) == 0
    capsys.readouterr()
    for f in sorted(d.iterdir()):
        assert main(["verify", "--target", "urc", "--auto-smooth", "--auto-level",
                     str(f), "--mode", "sample:1500:3"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] and verdict["encoding"]["ok"]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda path: _parse_mode("sample:5"), "sampled mode is sample:<count>:<seed>",
                 id="mode-without-seed"),
    pytest.param(lambda path: _parse_mode("fast"),
                 "unknown mode 'fast'; use 'exhaustive' or 'sample:N:SEED'", id="unknown-mode"),
    pytest.param(lambda path: cmd_stats(build_parser().parse_args(["stats", str(path)])),
                 "stats on a .bdmc file needs --target", id="stats-bdmc-without-target"),
])
def test_cli_input_refusals(g1_file, call, message):
    with pytest.raises(InputError) as refused:
        call(g1_file)
    assert type(refused.value) is InputError and str(refused.value) == message
