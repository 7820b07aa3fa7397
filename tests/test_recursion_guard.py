"""No library function recurses unless its depth is bounded by design, and a
graph deeper than the default recursion limit goes through every target."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bdmc"

# _random_graph.build descends one cell per level and stops at max_depth
BOUNDED_RECURSION = {"propcheck._random_graph.build"}


def self_recursive_functions():
    """Qualified names (module.outer.inner) of the functions in src/bdmc
    whose body calls their own name."""
    found = set()
    todo = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    while todo:
        prefix, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id == child.name for n in ast.walk(child)):
                    found.add(name)
                todo.append((name, child))
            else:
                todo.append((prefix, child))
    return found


def test_only_bounded_recursion_in_the_library():
    assert self_recursive_functions() == BOUNDED_RECURSION


def test_deep_parity_through_every_target(tmp_path, capsys):
    # parity_dnnf(502) is 1,002 layers deep, past the default recursion
    # limit: every target compiles, exhaustive and sampled verify both stop
    # at a budget gate with exit 4 and a message, and 20 samples over the
    # pc encoding's every variable pass
    from conftest import parity_dnnf

    from bdmc import encoder
    from bdmc.cli import main
    from bdmc.formats import parse_dimacs, serialize_bdmc
    from bdmc.propcheck import check_strength

    g = parity_dnnf(502)
    assert max(g.analysis.starts) == 1002
    sentence = tmp_path / "parity502.bdmc"
    sentence.write_text(serialize_bdmc(g))
    for target in encoder.TARGET_TABLE:
        cnf = tmp_path / f"{target}.cnf"
        assert main(["compile", "--target", target, "--auto-smooth", "--auto-level",
                     str(sentence), "-o", str(cnf)]) == 0
        for mode in ("exhaustive", "sample:20:0"):
            capsys.readouterr()
            assert main(["verify", "--target", target, "--cnf", str(cnf), "--mode", mode,
                         str(sentence)]) == 4, (target, mode)
            err = capsys.readouterr().err
            assert "budget exceeded: " in err and "Traceback" not in err, (target, mode)
    nvars, clauses = parse_dimacs((tmp_path / "pc.cnf").read_text())
    assert nvars > 8000
    assert check_strength(clauses, nvars, range(1, nvars + 1), "pc", mode="sampled",
                          samples=20).passed
