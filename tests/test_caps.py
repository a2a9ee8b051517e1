"""Every cap is a module constant, read at call time where the work happens.

No function takes a cap as a parameter, so a test lowers a cap with one
`monkeypatch.setattr` on the module that defines it.
"""

import ast
import io
import time
from itertools import islice, product
from pathlib import Path

import pytest

from galbench import aut, cli, formula, galois, perm, structure, suite
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
    (aut, "SEARCH_WORK_CAP", 17, ["aut", FILE],
     "automorphism search passed 17 consistency checks"),
    (perm, "DEFAULT_ELEMENT_CAP", 3, ["galois", FILE, "--base", "", "--top", "a,b,c,d"],
     "group of order 4 exceeds enumeration cap 3"),
    (perm, "DEFAULT_SUBGROUP_CAP", 3, ["galois", FILE, "--base", "", "--top", "a,b,c,d"],
     "relative group order 4 exceeds cap 3"),
    (perm, "LATTICE_WORK_CAP", 1, ["galois", FILE, "--base", "", "--top", "a,b,c,d"],
     "subgroup lattice passed 1 product lookups"),
    (galois, "TUPLE_SEARCH_CAP", 1, ["generator", FILE, "--base", "", "--top", "ALL"],
     "tuple search passed 1 candidates at length 1 (max_len 3)"),
    # one below the report's 534 point images: its 7 orbits of sets cost
    # 486 and the code candidates over them 48
    (galois, "CODES_WORK_CAP", 533, ["codes-report", FILE],
     "codes report passed 533 point images"),
    (formula, "EVAL_STEP_CAP", 5, ["eval", FILE, "A x1. A x2. x1 = x1"],
     "formula evaluation passed 5 assignments"),
    (formula, "MAX_DEPTH", 2, ["eval", FILE, "~~~R(a, b)"],
     "at position 2: formula nests deeper than 2 levels"),
    (suite, "SUITE_TRIALS_CAP", 5, ["verify", FILE, "--trials", "6"],
     "6 trials exceed the suite's cap of 5"),
]


@pytest.mark.parametrize("module, constant, lowered, argv, message", LOWERED,
                         ids=[case[1] for case in LOWERED])
def test_a_lowered_cap_takes_effect_through_run_command(module, constant, lowered, argv,
                                                        message, tmp_path, monkeypatch,
                                                        capsys):
    # A file, not corpus:EX_RS: the corpus keeps its structures, and their
    # groups and lattices, for the life of the process.  A file's structure
    # is kept only until a request names other text, so the memo is emptied
    # before the second run, which then loads and computes everything anew.
    path = tmp_path / "ex_rs.txt"
    path.write_text(CORPUS["EX_RS"].source, encoding="utf-8")

    def run():
        return run_command([str(path) if a == FILE else a for a in argv], out=io.StringIO())

    assert run() in (0, 1)
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(module, constant, lowered)
    cli._structure_of.cache_clear()
    assert run() == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_huge_trial_count_is_refused_before_any_trial(capsys):
    start = time.perf_counter()
    code = run_command(["verify", "corpus:C5", "--trials", "1000000000"], out=io.StringIO())
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: 1000000000 trials exceed the suite's cap of {suite.SUITE_TRIALS_CAP}\n"


def test_a_lowered_element_cap_bounds_an_orbit(tmp_path, monkeypatch, capsys):
    # Aut(EX_RS) has order 8, and (a, e) has an orbit of 8 tuples.
    test_a_lowered_cap_takes_effect_through_run_command(
        perm, "DEFAULT_ELEMENT_CAP", 7, ["orbit", FILE, "--tuple", "a,e"],
        "orbit passed 7 tuples (enumeration cap)", tmp_path, monkeypatch, capsys)


def test_a_lowered_codes_work_cap_bounds_a_code_search(tmp_path, monkeypatch, capsys):
    # {a, b} has two images under Aut(EX_RS), {a, b} and {c, d}, and each
    # costs its 2 entries plus the 6 points per generator, 3 of them.  The
    # setwise stabilizer fixes nothing, so the one candidate, (), costs no
    # image: 48 in all.
    test_a_lowered_cap_takes_effect_through_run_command(
        galois, "CODES_WORK_CAP", 47, ["code", FILE, "--tuples", "a;b"],
        "code search passed 47 point images", tmp_path, monkeypatch, capsys)


def test_an_orbit_past_the_element_cap_is_refused(tmp_path, capsys):
    """Sixteen unrelated points: an 8-tuple has 16!/8! = 518,918,400 images."""
    path = tmp_path / "points.txt"
    path.write_text("structure P16 {\n  universe = { "
                    + ", ".join(f"p{i}" for i in range(16)) + " }\n}\n", encoding="utf-8")
    start = time.perf_counter()
    code = run_command(["orbit", str(path), "--tuple", ",".join(f"p{i}" for i in range(8))],
                       out=io.StringIO())
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: orbit passed {perm.DEFAULT_ELEMENT_CAP} tuples (enumeration cap)\n"


def test_a_lowered_term_cap_takes_effect_on_a_field(monkeypatch, capsys):
    """`msym-code` needs a field, which EX_RS is not.  Two tuples of length 1
    make C(2 + 1, 1) - 1 = 2 coefficients."""
    argv = ["msym-code", "corpus:GF4", "--tuples", "w;w2"]
    monkeypatch.setattr(galois, "MSYM_TERM_CAP", 2)
    assert run_command(argv, out=io.StringIO()) == 0
    monkeypatch.setattr(galois, "MSYM_TERM_CAP", 1)
    assert run_command(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == \
        "error: multisymmetric code has 2 coefficients; cap is 1\n"


def test_a_huge_multisymmetric_code_is_refused_before_expanding(gf16, capsys):
    """300 triples would make C(303, 3) - 1 = 4,590,550 coefficients."""
    names = [gf16.label(e) for e in range(gf16.size)]
    tuples = ";".join(",".join(t) for t in islice(product(names, repeat=3), 300))
    start = time.perf_counter()
    code = run_command(["msym-code", "corpus:GF16", "--tuples", tuples], out=io.StringIO())
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: multisymmetric code has 4590550 coefficients; cap is {galois.MSYM_TERM_CAP}\n"
