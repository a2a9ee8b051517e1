import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from galbench.cli import main, run_command
from galbench.corpus import CORPUS


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv + ["--format", "json"])
    return code, json.loads(text)


def test_corpus_list():
    code, text = run(["corpus", "list"])
    assert code == 0
    for name in ("EX_RS", "RIGID3", "C5", "GF4", "GF16"):
        assert name in text


def test_aut_command():
    code, text = run(["aut", "corpus:EX_RS"])
    assert code == 0
    assert "order 8" in text
    assert "(4 5)" in text


def test_aut_fixing():
    code, payload = run_json(["aut", "corpus:EX_RS", "--fixing", "a"])
    assert code == 0
    assert payload["order"] == 2


def test_parse_and_eval():
    code, text = run(["parse", "corpus:EX_RS", "E x. R(x,a) & S(x,c)"])
    assert code == 0
    assert text.strip() == "E x. R(x, a) & S(x, c)"

    code, text = run(["eval", "corpus:EX_RS", "R(a,y)", "--env", "y=b"])
    assert code == 0 and text.strip() == "true"

    code, text = run(["eval", "corpus:GF4", "E!4 x. x = x"])
    assert code == 0 and text.strip() == "true"


def test_dcl_acl_orbit_degree():
    code, payload = run_json(["dcl", "corpus:EX_RS", "--set", "a"])
    assert code == 0 and payload["dcl"] == ["a", "b", "c", "d"]

    code, payload = run_json(["acl", "corpus:RIGID3", "--set", ""])
    assert code == 0 and payload["acl"] == ["p", "q", "r"]

    code, payload = run_json(["orbit", "corpus:EX_RS", "--tuple", "a", "--base", ""])
    assert code == 0 and payload["degree"] == 4

    code, text = run(["degree", "corpus:GF16", "--base", "0,1", "--top", "ALL"])
    assert code == 0 and text.strip() == "4"


def test_irr_normal_splitting_generator():
    code, text = run(["irr-check", "corpus:EX_RS", "E z. R(y,z)",
                      "--tuple", "a", "--base", ""])
    assert code == 0 and text.strip() == "true"

    code, text = run(["normal", "corpus:EX_RS", "--base", "", "--top", "a,b"])
    assert code == 0 and text.strip() == "false"

    code, payload = run_json(["splitting", "corpus:EX_RS", "--base", "",
                              "--top", "a,b,c,d"])
    assert code == 0 and payload == {"splitting": True, "witness": ["a"]}

    code, payload = run_json(["generator", "corpus:GF16", "--base", "0,1",
                              "--top", "ALL"])
    assert code == 0 and payload["generator"] == ["w"]


def test_code_commands():
    code, payload = run_json(["code", "corpus:EX_RS", "--tuples", "a;b"])
    assert code == 0 and payload["code"] is None

    code, payload = run_json(["code", "corpus:GF4", "--tuples", "w;w2"])
    assert code == 0 and payload["code"] == []

    code, payload = run_json(["codes-report", "corpus:EX_RS"])
    assert code == 0 and payload["verdict"] == "fail"
    assert ["a", "b"] in payload["failures"]

    code, payload = run_json(["msym-code", "corpus:GF4", "--tuples", "w;w2"])
    assert code == 0 and payload["code"] == ["1", "1"]


def test_galois_command_failing_case():
    code, payload = run_json(["galois", "corpus:EX_RS", "--base", "",
                              "--top", "a,b,c,d"])
    assert code == 1
    assert payload["verdict"] == "fail"
    assert len(payload["subgroups"]) == 5
    assert len(payload["intermediates"]) == 2
    assert len(payload["failures"]) == 3
    assert all(f["kind"] == "subgroup" and f["subject_order"] == 2
               for f in payload["failures"])
    assert payload["coding"] == "fail"
    assert list(payload) == ["base", "top", "group_order", "subgroups",
                             "intermediates", "pairs", "failures", "coding",
                             "verdict"]


def test_galois_command_passing_case():
    code, payload = run_json(["galois", "corpus:GF16", "--base", "0,1",
                              "--top", "ALL"])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert len(payload["pairs"]) == 3


def test_tower_command():
    code, payload = run_json(["tower", "corpus:GF16", "--sets", ";0,1,w5,w10;ALL"])
    assert code == 0
    assert payload["degrees"] == {"mid_over_base": 2, "top_over_mid": 2,
                                  "top_over_base": 4}
    assert payload["orders"] == {"mid_over_base": 2, "top_over_mid": 2,
                                 "top_over_base": 4}
    assert payload["verdict"] == "pass"


def test_verify_command():
    code, text = run(["verify", "corpus:RIGID3", "--trials", "10"])
    assert code == 0
    assert "verdict: pass" in text
    assert "FAIL" not in text


def test_text_and_json_verdicts_agree():
    code_t, text = run(["galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d"])
    code_j, payload = run_json(["galois", "corpus:EX_RS", "--base", "",
                                "--top", "a,b,c,d"])
    assert code_t == code_j == 1
    assert "verdict: fail" in text and payload["verdict"] == "fail"


def test_byte_determinism():
    for argv in (["aut", "corpus:GF16"],
                 ["galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d",
                  "--format", "json"],
                 ["verify", "corpus:C5", "--trials", "10"],
                 ["codes-report", "corpus:GF4", "--format", "json"]):
        first = run(list(argv))
        second = run(list(argv))
        assert first == second


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    ["aut"],
    ["aut", "corpus:NOPE"],
    ["aut", "/no/such/file"],
    ["eval", "corpus:EX_RS", "R(a"],
    ["eval", "corpus:EX_RS", "R(a,y)", "--env", "junk"],
    ["tower", "corpus:GF16", "--sets", "0,1;ALL"],
    ["degree", "corpus:EX_RS", "--base", "zz", "--top", "ALL"],
    ["galois", "corpus:EX_RS", "--base", "a,b", "--top", "a"],
    ["verify", "corpus:C5", "--trials", "-5"],
    ["generator", "corpus:EX_RS", "--top", "ALL", "--max-len", "-1"],
    ["code", "corpus:EX_RS", "--tuples", "a", "--max-len", "-1"],
    ["codes-report", "corpus:GF4", "--max-set-size", "0"],
    ["verify", "corpus:C5", "--trials", "many"],
])
def test_usage_errors_exit_2(argv, capsys):
    code, _ = run(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["galois", "--help"],
                                  ["verify", "corpus:C5", "-h"]])
def test_help_goes_to_out_and_returns_0(argv, capsys):
    code, text = run(argv)
    assert code == 0
    assert text.startswith("usage: galbench")
    assert capsys.readouterr() == ("", "")


def test_consecutive_calls_share_no_parser_state():
    # the parser is built once per process; each call must still see only
    # its own options and defaults
    code, payload = run_json(["aut", "corpus:EX_RS", "--fixing", "a"])
    assert code == 0 and payload["order"] == 2
    code, text = run(["aut", "corpus:EX_RS"])
    assert code == 0 and "order 8" in text
    code, payload = run_json(["aut", "corpus:EX_RS"])
    assert code == 0 and payload["order"] == 8
    code, text = run(["aut", "corpus:EX_RS", "--fixing", "a"])
    assert code == 0 and text.splitlines()[1] == "order 2"
    code, text = run(["code", "corpus:EX_RS", "--tuples", "a;b", "--max-len", "1"])
    assert code == 0 and text.strip() == "none (no code of length <= 1)"
    code, text = run(["code", "corpus:EX_RS", "--tuples", "a;b"])
    assert code == 0 and text.strip() == "none (no code of length <= 3)"


def test_non_utf8_structure_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"structure S { universe = { a } }\n\xff\xfe")
    code, text = run(["aut", str(path)])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid UTF-8" in err


@pytest.mark.parametrize("command", ["parse", "eval"])
@pytest.mark.parametrize("formula", [
    "~" * 5000 + "x = x",
    "(" * 5000 + "x = x" + ")" * 5000,
    "".join(f"A x{i}. " for i in range(5000)) + "x0 = x0",
    " & ".join(["x = x"] * 5000),
    " -> ".join(["x = x"] * 5000),
], ids=["negations", "parentheses", "quantifiers", "conjunction", "implication"])
def test_deeply_nested_formula_exits_2(command, formula, capsys):
    code, _ = run([command, "corpus:C5", formula])
    assert code == 2
    assert "formula nests deeper than" in capsys.readouterr().err


def test_internal_error_exits_3(monkeypatch, capsys):
    import galbench.cli
    from galbench.errors import InternalCheckError

    def broken(M):
        raise InternalCheckError("chain order mismatch")

    monkeypatch.setattr(galbench.cli, "automorphism_group", broken)
    code, text = run(["aut", "corpus:EX_RS"])
    assert code == 3 and text == ""
    assert capsys.readouterr().err == "internal error: chain order mismatch\n"


def test_verify_checks_the_subgroup_cap_before_the_law_suite(tmp_path, monkeypatch,
                                                             capsys):
    """Four disjoint directed 4-cycles: Aut has order 4^4 * 4! = 6144, past
    the duality check's subgroup cap, so verify exits 2 without entering the
    randomized suite."""
    import galbench.suite

    def entered(*args, **kwargs):
        raise AssertionError("the randomized law suite ran")

    monkeypatch.setattr(galbench.suite, "run_law_suite", entered)
    arcs = ", ".join(f"(v{4 * k + i},v{4 * k + (i + 1) % 4})"
                     for k in range(4) for i in range(4))
    path = tmp_path / "c4x4.txt"
    path.write_text("structure C4x4 {\n  universe = { "
                    + ", ".join(f"v{i}" for i in range(16))
                    + f" }}\n  rel E/2 = {{ {arcs} }}\n}}\n", encoding="utf-8")
    code, text = run(["verify", str(path), "--trials", "20"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: relative group order 6144 exceeds cap 2000\n"


def test_code_search_without_candidates_answers_at_any_max_len():
    # The setwise stabilizer of {(a,e),(b,f)} fixes no element, so the empty
    # tuple is the only candidate at every length and "none" is exact.
    start = time.perf_counter()
    code, text = run(["code", "corpus:EX_RS", "--tuples", "a,e;b,f", "--max-len", "1000000"])
    assert time.perf_counter() - start < 2
    assert code == 0 and text == "none (no code of length <= 1000000)\n"


def test_tuple_search_past_its_work_cap_exits_2(tmp_path, capsys):
    """EX_RS plus a rigid directed path p0..p6: the setwise stabilizer of
    {(a,e),(b,f)} fixes the seven path points, none of which codes the set,
    so the search would run through 7^7 candidates."""
    path = tmp_path / "ex_rs_path.txt"
    path.write_text("structure EX_RS_P {\n"
                    "  universe = { a, b, c, d, e, f, p0, p1, p2, p3, p4, p5, p6 }\n"
                    "  rel R/2 = { (a,b), (b,a), (c,d), (d,c) }\n"
                    "  rel S/2 = { (a,c), (c,a), (b,d), (d,b) }\n"
                    "  rel P/2 = { (p0,p1), (p1,p2), (p2,p3), (p3,p4), (p4,p5), (p5,p6) }\n"
                    "}\n", encoding="utf-8")
    start = time.perf_counter()
    code, text = run(["code", str(path), "--tuples", "a,e;b,f", "--max-len", "1000000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: tuple search passed 100000 candidates at length 6 (max_len 1000000)\n")
    code, text = run(["code", str(path), "--tuples", "a,e;b,f"])
    assert code == 0 and text == "none (no code of length <= 3)\n"


@pytest.mark.parametrize("argv", [["galois", "--base", "", "--top", "ALL"],
                                  ["verify", "--trials", "2"]], ids=["galois", "verify"])
def test_subgroup_lattice_past_its_work_cap_exits_2(argv, tmp_path, capsys):
    """Six points and no relations: Aut is S6, of order 720, under the
    subgroup cap, but its lattice would take tens of millions of lookups."""
    path = tmp_path / "s6.txt"
    path.write_text("structure E { universe = { a, b, c, d, e, f } }\n", encoding="utf-8")
    start = time.perf_counter()
    code, text = run(argv[:1] + [str(path)] + argv[1:])
    assert time.perf_counter() - start < 5
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: subgroup lattice passed 3000000 product lookups\n"


def test_console_entry_point_exits_with_the_command_code(monkeypatch, capsys):
    def console(*argv):
        monkeypatch.setattr(sys, "argv", ["galbench", *argv])
        with pytest.raises(SystemExit) as stop:
            main()
        out, err = capsys.readouterr()
        assert err == ""
        return stop.value.code, out

    golden = Path(__file__).parent / "golden" / "galois-EX_RS.out"
    assert console("galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d") == \
        (1, golden.read_text(encoding="utf-8"))
    code, out = console("corpus", "list")
    assert code == 0 and "EX_RS" in out


@pytest.mark.parametrize("argv", [
    ["eval", "corpus:GF16", "A x1. A x2. A x3. A x4. A x5. A x6. A x7. x1 = x1"],
    ["irr-check", "corpus:GF16", "x1=x1 & x2=x2 & x3=x3 & x4=x4 & x5=x5 & x6=x6",
     "--tuple", "0,0,0,0,0,0"],
], ids=["eval-16^7", "irr-check-16^6"])
def test_formula_evaluation_past_its_work_cap_exits_2(argv, capsys):
    start = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: formula evaluation passed 1000000 assignments\n"


# -- run_command on malformed structure files -----------------------------------------

_FUZZ_COMMANDS = [
    ["parse", "FILE", "E x. R(x, a)"],
    ["eval", "FILE", "A x. x = x"],
    ["aut", "FILE"],
    ["aut", "FILE", "--fixing", "a"],
    ["dcl", "FILE", "--set", "a"],
    ["acl", "FILE", "--set", ""],
    ["orbit", "FILE", "--tuple", "a,b", "--base", ""],
    ["degree", "FILE", "--top", "ALL"],
    ["irr-check", "FILE", "x = a", "--tuple", "a"],
    ["normal", "FILE", "--base", "a", "--top", "ALL"],
    ["splitting", "FILE", "--top", "ALL"],
    ["generator", "FILE", "--top", "ALL"],
    ["code", "FILE", "--tuples", "a;b"],
    ["codes-report", "FILE"],
    ["msym-code", "FILE", "--tuples", "w;w2"],
    ["galois", "FILE", "--base", "", "--top", "ALL"],
    ["tower", "FILE", "--sets", ";a;ALL"],
    ["verify", "FILE", "--trials", "2"],
]

_FRAGMENTS = [b"#", b" ", b"\n", b"\x0b", "\x85".encode(), "\u2028".encode(),
              "\u3000".encode(), "\xe9".encode(), b"\xff", b"\xc3", b"\xe2\x80",
              b"{", b"}", b"(", b")", b",", b"=", b"/", b"a", b"0", b"rel", b"(a,b)",
              b", g", b" rel T/1 = { (a) }"]


@st.composite
def _structure_bytes(draw):
    """A small corpus text under a few random edits, which may leave invalid
    UTF-8 behind."""
    name = draw(st.sampled_from(("EX_RS", "RIGID3", "C5", "GF4")))
    data = bytearray(CORPUS[name].source.encode("utf-8"))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("insert", "insert", "delete", "truncate")))
        if kind == "insert":
            data[i:i] = draw(st.sampled_from(_FRAGMENTS) | st.binary(min_size=1, max_size=3))
        elif kind == "delete":
            del data[i:i + draw(st.integers(1, 6))]
        else:
            del data[i:]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "structure.txt"


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=_structure_bytes(), command=st.sampled_from(_FUZZ_COMMANDS))
def test_run_command_is_total_on_edited_structure_files(fuzz_file, data, command):
    fuzz_file.write_bytes(data)
    argv = [str(fuzz_file) if arg == "FILE" else arg for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_command(argv, out=out)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    if code == 3:
        assert err.getvalue().startswith("internal error: ")
