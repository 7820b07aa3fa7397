"""No library function recurses unless its depth is bounded by design."""

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
