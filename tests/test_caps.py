"""Every cap is a module constant, read at call time where the work happens.

No function takes a cap as a parameter, so a test lowers a cap with one
`monkeypatch.setattr` on the module that defines it.
"""

import ast
import io
from pathlib import Path

import pytest

from galbench import formula, galois, perm, structure
from galbench.cli import run_command
from galbench.corpus import CORPUS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "galbench"

CAP_PARAMETERS = {"cap", "element_cap", "subgroup_cap", "max_elements", "max_size"}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_function_takes_a_cap_parameter():
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                params |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
                assert not params & CAP_PARAMETERS, (name, getattr(node, "name", "lambda"))


def test_the_element_cap_check_has_no_bypass():
    [check] = [node for node in ast.walk(_trees()["perm.py"])
               if isinstance(node, ast.FunctionDef) and node.name == "_check_cap"]
    assert [a.arg for a in check.args.args] == ["order"]
    assert not any(isinstance(node, ast.Constant) and node.value is None
                   for stmt in check.body for node in ast.walk(stmt))


def test_only_the_package_root_imports_a_cap_by_name():
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                copied = [a.name for a in node.names
                          if a.name.endswith("_CAP") or a.name == "MAX_DEPTH"]
                assert not copied, (name, copied)


FILE = "<EX_RS file>"

LOWERED = [
    (structure, "DEFAULT_UNIVERSE_CAP", 5, ["aut", FILE],
     "universe has 6 elements; cap is 5"),
    (perm, "DEFAULT_ELEMENT_CAP", 7, ["code", FILE, "--tuples", "a;b"],
     "group of order 8 exceeds enumeration cap 7"),
    (perm, "DEFAULT_SUBGROUP_CAP", 3, ["galois", FILE, "--base", "", "--top", "a,b,c,d"],
     "relative group order 4 exceeds cap 3"),
    (perm, "LATTICE_WORK_CAP", 1, ["galois", FILE, "--base", "", "--top", "a,b,c,d"],
     "subgroup lattice passed 1 product lookups"),
    (galois, "TUPLE_SEARCH_CAP", 1, ["generator", FILE, "--base", "", "--top", "ALL"],
     "tuple search passed 1 candidates at length 1 (max_len 3)"),
    (formula, "EVAL_STEP_CAP", 5, ["eval", FILE, "A x1. A x2. x1 = x1"],
     "formula evaluation passed 5 assignments"),
    (formula, "MAX_DEPTH", 2, ["eval", FILE, "~~~R(a, b)"],
     "at position 2: formula nests deeper than 2 levels"),
]


@pytest.mark.parametrize("module, constant, lowered, argv, message", LOWERED,
                         ids=[case[1] for case in LOWERED])
def test_a_lowered_cap_takes_effect_through_run_command(module, constant, lowered, argv,
                                                        message, tmp_path, monkeypatch,
                                                        capsys):
    # A file, not corpus:EX_RS: the corpus keeps its structures, and their
    # groups and lattices, for the life of the process; a file is loaded anew
    # by every request.
    path = tmp_path / "ex_rs.txt"
    path.write_text(CORPUS["EX_RS"].source, encoding="utf-8")

    def run():
        return run_command([str(path) if a == FILE else a for a in argv], out=io.StringIO())

    assert run() in (0, 1)
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(module, constant, lowered)
    assert run() == 2
    assert capsys.readouterr().err == f"error: {message}\n"
