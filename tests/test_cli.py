import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from galbench import cli, corpus
from galbench.cli import main, run_command
from galbench.corpus import CORPUS
from galbench.structure import load_structure


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


# -- responses do not depend on what the process was asked before ----------------

# K3,3, as a corpus entry in the tests below, so that its groups stay cached
# between requests.  `aut --fixing v4` and `galois --base v4` print generators
# that differ between Aut(M/{v4}) searched with v4 fixed and Aut(M/{v4})
# closed from Aut(M).
K33_SOURCE = """structure K3_3 {
  universe = { v0, v1, v2, v3, v4, v5 }
  rel adj/2 = { (v0, v3), (v0, v4), (v0, v5), (v1, v3), (v1, v4), (v1, v5),
                (v2, v3), (v2, v4), (v2, v5), (v3, v0), (v3, v1), (v3, v2),
                (v4, v0), (v4, v1), (v4, v2), (v5, v0), (v5, v1), (v5, v2) }
}
"""


def after(first, argv):
    """The response to argv, with the corpus loaded afresh and `first`
    answered before it."""
    corpus._loaded.clear()
    if first:
        run(first)
    return run(argv)


@pytest.mark.parametrize("first", [["dcl", "corpus:GF16", "--set", "0,1"],
                                   ["orbit", "corpus:GF16", "--tuple", "w", "--base", "0,1"],
                                   ["dcl", "corpus:GF16", "--set", "0"]])
def test_aut_fixing_matches_its_golden_after_any_question(first, monkeypatch):
    monkeypatch.setattr(corpus, "_loaded", {})
    golden = Path(__file__).parent / "golden" / "aut-GF16-fixing-json.out"
    assert after(first, ["aut", "corpus:GF16", "--fixing", "0,1", "--format", "json"]) \
        == (0, golden.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv, code, shown", [
    (["aut", "corpus:K3_3", "--fixing", "v4"], 0, "generators: "),
    (["aut", "corpus:K3_3", "--fixing", "v0,v4"], 0, "generators: "),
    (["galois", "corpus:K3_3", "--base", "v4", "--top", "ALL"], 1, "failure [subgroup]"),
    (["galois", "corpus:K3_3", "--base", "v0,v4", "--top", "ALL", "--format", "json"], 1,
     '"kind": "subgroup"'),
], ids=["aut-v4", "aut-v0-v4", "galois-v4", "galois-v0-v4-json"])
def test_responses_do_not_depend_on_request_history(argv, code, shown, monkeypatch):
    """The same bytes asked first, after `aut` (Aut(M) cached), and after a
    `dcl` or `orbit` that searched Aut(M/A) with A fixed.  The galois
    reports list failures, whose closures print the relative group's
    generators."""
    monkeypatch.setattr(corpus, "_loaded", {})
    monkeypatch.setitem(CORPUS, "K3_3", corpus.CorpusEntry("K3_3", K33_SOURCE, "K3,3"))
    base = argv[3]
    answers = [after(first, argv) for first in (
        None,
        ["aut", "corpus:K3_3"],
        ["dcl", "corpus:K3_3", "--set", base],
        ["orbit", "corpus:K3_3", "--tuple", "v1", "--base", base],
    )]
    assert answers[0][0] == code and shown in answers[0][1]
    assert all(a == answers[0] for a in answers)


# -- a file named again is not parsed again -----------------------------------------


def counting_loads(monkeypatch):
    """The texts `load_structure` parses from now on, the memo emptied first."""
    loads = []

    def counted(text):
        loads.append(text)
        return load_structure(text)

    monkeypatch.setattr(cli, "load_structure", counted)
    cli._structure_of.cache_clear()
    return loads


FORK_TEXT = """structure T {
  universe = { a, b, c }
  rel R/2 = { (a, b), (a, c) }
}
"""


def test_a_file_changed_under_the_same_path_is_parsed_again(tmp_path, monkeypatch):
    loads = counting_loads(monkeypatch)
    path = tmp_path / "t.txt"
    path.write_text(FORK_TEXT, encoding="utf-8")
    assert run(["aut", str(path)])[0] == 0
    assert run(["dcl", str(path), "--set", "a"]) == (0, "{a}\n")
    path.write_text(FORK_TEXT.replace("(a, c)", "(b, c)"), encoding="utf-8")
    assert run(["dcl", str(path), "--set", "a"]) == (0, "{a, b, c}\n")
    assert len(loads) == 2


def test_identical_text_under_two_paths_is_parsed_once(tmp_path, monkeypatch):
    loads = counting_loads(monkeypatch)
    first, second = tmp_path / "one.txt", tmp_path / "two.txt"
    for path in (first, second):
        path.write_text(FORK_TEXT, encoding="utf-8")
    assert run(["aut", str(first)]) == run(["aut", str(second)])
    assert loads == [FORK_TEXT]
    assert cli._load_target(str(first)) is cli._load_target(str(second))


@pytest.mark.parametrize("data, message", [
    (b"structure S { universe = { a, } }\n", "line 1, column 31: expected an element name"),
    (b"structure S { universe = { a } }\n\xff\xfe", "not valid UTF-8"),
    (("structure S { universe = { "
      + ", ".join(f"e{i}" for i in range(17)) + " } }\n").encode(),
     "universe has 17 elements; cap is 16"),
], ids=["syntax", "utf-8", "universe-cap"])
def test_a_file_that_fails_to_load_is_not_kept(data, message, tmp_path, monkeypatch,
                                               capsys):
    """It fails again with the same message, parsed again if it was parsed
    at all, and the structure kept before it stays kept."""
    loads = counting_loads(monkeypatch)
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(FORK_TEXT, encoding="utf-8")
    bad.write_bytes(data)
    assert run(["aut", str(good)])[0] == 0
    errors = []
    for _ in range(2):
        assert run(["aut", str(bad)]) == (2, "")
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and message in errors[0]
    parsed = [] if message == "not valid UTF-8" else [data.decode()] * 2
    assert loads == [FORK_TEXT] + parsed
    assert run(["aut", str(good)])[0] == 0
    assert loads == [FORK_TEXT] + parsed


K33_FILE_QUESTIONS = [
    ["aut", "FILE"],
    ["dcl", "FILE", "--set", "v4"],
    ["orbit", "FILE", "--tuple", "v1", "--base", "v4"],
    ["aut", "FILE", "--fixing", "v4"],
    ["galois", "FILE", "--base", "v4", "--top", "ALL"],
]


@pytest.mark.parametrize("argv", K33_FILE_QUESTIONS, ids=lambda argv: "-".join(argv[::2]))
def test_a_kept_file_answers_as_when_asked_first(argv, tmp_path):
    """The K3,3 check above, on a file: each question answers the same bytes
    when asked first and after any other question about the same text."""
    path = tmp_path / "k33.txt"
    path.write_text(K33_SOURCE, encoding="utf-8")

    def ask(question):
        return run([str(path) if a == "FILE" else a for a in question])

    answers = []
    for first in [None] + K33_FILE_QUESTIONS:
        cli._structure_of.cache_clear()
        if first:
            ask(first)
        answers.append(ask(argv))
    assert answers[0][0] in (0, 1) and answers[0][1]
    assert all(a == answers[0] for a in answers)


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
    ["aut", "x" * 300],  # a file name past NAME_MAX: even the existence test fails
    ["aut", "corpus:EX_RS", "--seed", "1"],
    ["dcl", "corpus:EX_RS", "--set", "a", "--max-len", "2"],
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


def test_unreadable_structure_file_exits_2(tmp_path, monkeypatch, capsys):
    # File modes do not stop root, so the refusal is simulated.
    path = tmp_path / "locked.txt"
    path.write_text(CORPUS["EX_RS"].source, encoding="utf-8")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, text = run(["aut", str(path)])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        f"error: cannot read structure file {str(path)!r}: Permission denied\n"


# -- the option set: each command declares exactly the options it reads -----------

# One answering command line per subcommand, passing every option it declares.
FULL_ARGV = {
    "corpus": ["corpus", "list", "--format", "json"],
    "parse": ["parse", "corpus:EX_RS", "R(x,a)", "--format", "json"],
    "eval": ["eval", "corpus:EX_RS", "R(a,y)", "--env", "y=b", "--format", "json"],
    "aut": ["aut", "corpus:EX_RS", "--fixing", "a", "--format", "json"],
    "dcl": ["dcl", "corpus:EX_RS", "--set", "a", "--format", "json"],
    "acl": ["acl", "corpus:EX_RS", "--set", "a", "--format", "json"],
    "orbit": ["orbit", "corpus:EX_RS", "--tuple", "a", "--base", "", "--format", "json"],
    "degree": ["degree", "corpus:GF16", "--base", "0,1", "--top", "ALL", "--max-len", "2",
               "--format", "json"],
    "irr-check": ["irr-check", "corpus:EX_RS", "E z. R(y,z)", "--tuple", "a", "--base", "",
                  "--format", "json"],
    "normal": ["normal", "corpus:EX_RS", "--base", "", "--top", "a,b", "--format", "json"],
    "splitting": ["splitting", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d",
                  "--max-len", "2", "--format", "json"],
    "generator": ["generator", "corpus:GF16", "--base", "0,1", "--top", "ALL",
                  "--max-len", "2", "--format", "json"],
    "code": ["code", "corpus:EX_RS", "--tuples", "a;b", "--max-len", "2", "--format", "json"],
    "codes-report": ["codes-report", "corpus:GF4", "--max-set-size", "1", "--max-len", "2",
                     "--format", "json"],
    "msym-code": ["msym-code", "corpus:GF4", "--tuples", "w;w2", "--format", "json"],
    "galois": ["galois", "corpus:C5", "--base", "", "--top", "ALL", "--max-len", "2",
               "--format", "json"],
    "tower": ["tower", "corpus:GF16", "--sets", ";0,1,w5,w10;ALL", "--max-len", "2",
              "--format", "json"],
    "verify": ["verify", "corpus:RIGID3", "--trials", "2", "--seed", "1", "--max-len", "2",
               "--format", "json"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    [commands] = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _reads_of_args(fn) -> set[str]:
    """The `args.<name>` attributes a function reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def _declared_options(p: argparse.ArgumentParser) -> set[str]:
    return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}


def test_each_command_declares_exactly_the_destinations_its_handler_reads():
    # run_command reads the command name, the handler, the output format and
    # (for every command but corpus) the structure; `command` is the
    # dispatcher's own destination, which the closure handler reads as its kind.
    assert _reads_of_args(cli.run_command) == {"command", "fn", "format", "structure"}
    subparsers = _subparsers()
    assert set(subparsers) == set(FULL_ARGV)
    for name, p in subparsers.items():
        declared = {a.dest for a in p._actions} - {"help"}
        read = _reads_of_args(p.get_default("fn")) - {"command"}
        read |= {"format"} if name == "corpus" else {"format", "structure"}
        assert declared == read, name


@pytest.mark.parametrize("name", sorted(FULL_ARGV))
def test_every_declared_option_is_accepted(name, capsys):
    argv = FULL_ARGV[name]
    assert {a for a in argv if a.startswith("--")} == _declared_options(_subparsers()[name])
    code, text = run(argv)
    assert code in (0, 1)
    assert json.loads(text) and capsys.readouterr().err == ""


REMOVED = [(name, flag) for name in sorted(FULL_ARGV) for flag in ("--max-len", "--seed")
           if flag not in FULL_ARGV[name]]


def test_max_len_and_seed_are_declared_only_where_read():
    assert len(REMOVED) == 27
    assert sorted(name for name in FULL_ARGV if "--max-len" in FULL_ARGV[name]) == [
        "code", "codes-report", "degree", "galois", "generator", "splitting", "tower",
        "verify"]
    assert [name for name in FULL_ARGV if "--seed" in FULL_ARGV[name]] == ["verify"]


@pytest.mark.parametrize("name, flag", REMOVED, ids=[f"{n}{f}" for n, f in REMOVED])
def test_an_undeclared_option_exits_2(name, flag, capsys):
    code, text = run(FULL_ARGV[name] + [flag, "1"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 1\n"


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


def test_a_count_too_long_for_int_exits_2(capsys):
    code, text = run(["eval", "corpus:EX_RS", "E!" + "9" * 5000 + " x. R(x,x)"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: at position 2: count of 5000 digits is too large\n"


@pytest.mark.parametrize("formula,err", [
    ("a", "at position 1: expected '(' or '=' after 'a'"),
    ("~" * 100, "at position 100: formula nests deeper than 100 levels"),
    ("\t$", "at position 1: unexpected character '$'"),
], ids=["end-after-name", "end-at-depth", "stray-after-tab"])
def test_formula_errors_point_at_their_position(formula, err, capsys):
    code, text = run(["parse", "corpus:EX_RS", formula])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {err}\n"


def test_internal_error_exits_3(monkeypatch, capsys):
    import galbench.cli
    from galbench.errors import InternalCheckError

    def broken(M):
        raise InternalCheckError("chain order mismatch")

    monkeypatch.setattr(galbench.cli, "automorphism_group", broken)
    code, text = run(["aut", "corpus:EX_RS"])
    assert code == 3 and text == ""
    assert capsys.readouterr().err == "internal error: chain order mismatch\n"


def corrupting_image_chains(monkeypatch):
    """From now on every restriction image chain loses its first level:
    inside `restrict_to_invariant_set`, and only there, `perm._canonical`
    drops it.  Corpus structures are loaded afresh, so no image is cached."""
    import galbench.aut as aut
    import galbench.galois as galois
    import galbench.perm as perm
    monkeypatch.setattr(corpus, "_loaded", {})
    canonical, restrict = perm._canonical, perm.restrict_to_invariant_set

    def corrupted(G, C):
        with monkeypatch.context() as m:
            m.setattr(perm, "_canonical",
                      lambda degree, base, trans: canonical(degree, base[1:], trans[1:]))
            return restrict(G, C)

    for module in (aut, galois):
        monkeypatch.setattr(module, "restrict_to_invariant_set", corrupted)


def assert_sift_check_fired(code, text, capsys):
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert err.startswith("internal error: restriction: generator ")
    assert err.endswith(" does not sift through the image chain\n")


def test_galois_restriction_with_a_corrupt_image_chain_exits_3(monkeypatch, capsys):
    """Aut(C/A) over GF(4) inside GF(16) is read off the chain of Aut(M/A);
    an image chain that lost a level fails the sift check."""
    corrupting_image_chains(monkeypatch)
    code, text = run(["galois", "corpus:GF16", "--base", "0,1", "--top", "ALL"])
    assert_sift_check_fired(code, text, capsys)


def test_tower_restriction_with_a_corrupt_image_chain_exits_3(monkeypatch, capsys):
    corrupting_image_chains(monkeypatch)
    code, text = run(["tower", "corpus:GF16", "--sets", ";0,1,w5,w10;ALL"])
    assert_sift_check_fired(code, text, capsys)


@pytest.mark.parametrize("name, fixing, subset", [
    ("EX_RS", "e,f", "e"), ("GF16", "0,1,w5", "0,1")])
def test_aut_fixing_prints_the_same_generators_whatever_came_before(name, fixing, subset,
                                                                    monkeypatch):
    """Aut(M/A) searched with A fixed on a fresh structure, read off Aut(M)
    after `aut`, and read off the group of a subset of A after `dcl`: the
    same bytes on every route."""
    argv = ["aut", f"corpus:{name}", "--fixing", fixing]
    outputs = []
    for before in ([], ["aut", f"corpus:{name}"], ["dcl", f"corpus:{name}", "--set", subset]):
        monkeypatch.setattr(corpus, "_loaded", {})
        if before:
            assert run(before)[0] == 0
        outputs.append(run(argv))
    assert outputs[0][0] == 0 and outputs == [outputs[0]] * 3


def test_a_failure_report_does_not_depend_on_the_requests_before_it(monkeypatch):
    """The requests of the CI step: `aut --fixing` and `dcl` fill the cache
    before the duality check, whose report is still its golden."""
    monkeypatch.setattr(corpus, "_loaded", {})
    assert run(["aut", "corpus:EX_RS", "--fixing", "a"])[0] == 0
    assert run(["dcl", "corpus:EX_RS", "--set", "a,b"])[0] == 0
    code, text = run(["galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d"])
    golden = Path(__file__).parent / "golden" / "galois-EX_RS.out"
    assert code == 1 and text == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("env,message", [
    ("=a", "bad assignment entry '=a'; '' is not a variable name"),
    ("y=a,y=b", "bad assignment entry 'y=b'; variable y is assigned twice"),
], ids=["empty-variable", "repeated-variable"])
def test_eval_env_rejects_ambiguous_assignments(env, message, capsys):
    code, text = run(["eval", "corpus:EX_RS", "R(a,y)", "--env", env])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_verify_exits_like_tower_on_an_undetermined_degree(tmp_path, capsys):
    """Five unrelated points: no tuple of length 3 generates the universe over
    the empty set, so the canonical tower's degree is undetermined.  That is
    a bounded search without an answer, not a failed law."""
    path = tmp_path / "p5.txt"
    path.write_text("structure P5 { universe = { a, b, c, d, e } }\n", encoding="utf-8")
    assert run(["tower", str(path), "--sets", ";a;ALL"]) == (2, "")
    tower_err = capsys.readouterr().err
    assert tower_err == "error: no generating tuple of length <= 3; degree undetermined\n"
    assert run(["verify", str(path), "--trials", "3"]) == (2, "")
    assert capsys.readouterr().err == tower_err


UNDETERMINED = "error: no generating tuple of length <= 3; degree undetermined\n"


@pytest.mark.parametrize("argv, code, text, err", [
    (["generator", "--base", "", "--top", "ALL"], 0,
     "none (no generator of length <= 3)\n", ""),
    (["degree", "--base", "", "--top", "ALL"], 2, "", UNDETERMINED),
    (["tower", "--sets", ";p0;ALL"], 2, "", UNDETERMINED),
], ids=["generator", "degree", "tower"])
def test_generator_search_on_sixteen_unrelated_points_ends_at_once(argv, code, text, err,
                                                                    tmp_path, capsys):
    """Sixteen unrelated points: over the empty base or p0 no set of at most
    3 points has as many images as |Aut(M/A) : Aut(M/B)|, so the search
    tries no set past (p0,); trying each of the 697 sets, one closure of
    S16 apiece, took over 30 s."""
    path = tmp_path / "p16.txt"
    path.write_text("structure P16 { universe = { "
                    + ", ".join(f"p{i}" for i in range(16)) + " } }\n", encoding="utf-8")
    start = time.perf_counter()
    assert run(argv[:1] + [str(path)] + argv[1:]) == (code, text)
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("name", ["GF4", "C5"])
def test_verify_at_max_len_0_exits_2(name, capsys):
    code, text = run(["verify", f"corpus:{name}", "--max-len", "0", "--trials", "5"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: no generating tuple of length <= 0; degree undetermined\n")


def test_internal_error_in_the_tower_law_exits_3(monkeypatch, capsys):
    import galbench.suite
    from galbench.errors import InternalCheckError

    def broken(*args, **kwargs):
        raise InternalCheckError("boom")

    monkeypatch.setattr(galbench.suite, "verify_tower", broken)
    code, text = run(["verify", "corpus:C5", "--trials", "1"])
    assert code == 3 and text == ""
    assert capsys.readouterr().err == "internal error: boom\n"


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
    so the search tries all 2^7 = 128 sets of them and "none" is exact.
    Four unrelated points plus a directed path p0..p11: the 2^12 sets of path
    points pass the cap of 4,000 at length 9."""
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
    assert code == 0 and text == "none (no code of length <= 1000000)\n"
    code, text = run(["code", str(path), "--tuples", "a,e;b,f"])
    assert code == 0 and text == "none (no code of length <= 3)\n"
    path = tmp_path / "four_path.txt"
    arcs = ", ".join(f"(p{i},p{i + 1})" for i in range(11))
    path.write_text("structure FOUR_P {\n  universe = { a, b, c, d, "
                    + ", ".join(f"p{i}" for i in range(12))
                    + f" }}\n  rel P/2 = {{ {arcs} }}\n}}\n", encoding="utf-8")
    start = time.perf_counter()
    code, text = run(["code", str(path), "--tuples", "a,b;c,d", "--max-len", "1000000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and text == ""
    assert capsys.readouterr().err == (
        "error: tuple search passed 4000 candidates at length 9 (max_len 1000000)\n")


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


def test_galois_on_a_non_normal_top_exits_2(tmp_path, capsys):
    """Three points and no relations: dcl(p) is {p}, which S3 moves."""
    path = tmp_path / "s3.txt"
    path.write_text("structure S3 { universe = { p, q, r } }\n", encoding="utf-8")
    assert run(["galois", str(path), "--top", "p"]) == (2, "")
    assert capsys.readouterr().err == \
        "error: top set is not a normal extension of the base: some orbit leaves it\n"


def test_codes_report_past_its_work_cap_exits_2(tmp_path, capsys):
    """Seven unrelated points plus a rigid directed 7-path: Aut is S7, on 6
    generators.  Its 1023 orbits of sets have C(7, k) members each, for k
    of the unrelated points in the set, and each member costs 6 times its
    size plus the 14 points; with the code searches that is about 2.2
    million point images (1.0 s without the cap)."""
    points = [f"u{i}" for i in range(7)] + [f"p{i}" for i in range(7)]
    arcs = ", ".join(f"(p{i},p{i + 1})" for i in range(6))
    path = tmp_path / "s7_path.txt"
    path.write_text(f"structure S7P {{\n  universe = {{ {', '.join(points)} }}\n"
                    f"  rel P/2 = {{ {arcs} }}\n}}\n", encoding="utf-8")
    start = time.perf_counter()
    code, text = run(["codes-report", str(path), "--max-set-size", "16"])
    assert time.perf_counter() - start < 5
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: codes report passed 1000000 point images\n"


SIXTEEN_POINTS = ("structure P16 { universe = { "
                  + ", ".join(f"p{i}" for i in range(16)) + " } }\n")
K8_8 = ("structure K8_8 {\n  universe = { "
        + ", ".join([f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]) + " }\n"
        + "  rel E/2 = { " + ", ".join(f"(a{i},b{j}), (b{j},a{i})"
                                      for i in range(8) for j in range(8)) + " }\n}\n")


@pytest.mark.parametrize("source, argv, text", [
    (SIXTEEN_POINTS, ["code", "--tuples", "p0"], "(p0)\n"),
    (SIXTEEN_POINTS, ["code", "--tuples", "p1;p2"], "none (no code of length <= 3)\n"),
    (SIXTEEN_POINTS, ["codes-report"],
     "sets checked (orbit representatives): 2\nno code: {p0, p1}\nverdict: fail\n"),
    (K8_8, ["code", "--tuples", "a0;a1"], "none (no code of length <= 3)\n"),
    (K8_8, ["codes-report"], "sets checked (orbit representatives): 3\n"
     "no code: {a0, a1}\nno code: {a0, b0}\nverdict: fail\n"),
], ids=["P16-p0", "P16-p1;p2", "P16-report", "K8_8-a0;a1", "K8_8-report"])
def test_codes_past_the_element_cap_answer_within_a_second(source, argv, text, tmp_path,
                                                          capsys):
    """Aut(M) is S16 or S8 wr S2, far past the element cap, where these
    requests once exited 2: the code searches read F's orbit under the
    generators and enumerate no group.  The setwise stabilizers of {p1, p2},
    {p0, p1}, {a0, a1} and {a0, b0} fix no point, so each none is exact."""
    from galbench.aut import automorphism_group
    from galbench.perm import DEFAULT_ELEMENT_CAP

    assert automorphism_group(load_structure(source)).order > DEFAULT_ELEMENT_CAP
    path = tmp_path / "m.txt"
    path.write_text(source, encoding="utf-8")
    start = time.perf_counter()
    assert run([argv[0], str(path), *argv[1:]]) == (0, text)
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ""


def test_a_code_search_past_its_work_cap_exits_2_within_a_second(tmp_path, capsys):
    """Sixteen points with p0 marked: Aut is S15, and four disjoint pairs
    have 15!/(7! 4!) = 10,810,800 images, one set each in the orbit."""
    path = tmp_path / "p16_marked.txt"
    path.write_text(SIXTEEN_POINTS.replace(" } }", " }\n  rel M/1 = { (p0) }\n}"),
                    encoding="utf-8")
    start = time.perf_counter()
    assert run(["code", str(path), "--tuples", "p1,p2;p3,p4;p5,p6;p7,p8"]) == (2, "")
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: code search passed 1000000 point images\n"


def test_a_multisymmetric_code_that_fails_its_check_exits_3(monkeypatch, capsys):
    """Frobenius swaps w and w2 in GF(4), so it fixes {w, w2} setwise but
    not the tuple (w): an expansion giving (w) fails the self-check."""
    from galbench import galois

    monkeypatch.setattr(galois, "_multisymmetric_coefficients",
                        lambda ops, tuples, n: (corpus.load_corpus("GF4").names["w"],))
    code, text = run(["msym-code", "corpus:GF4", "--tuples", "w;w2"])
    assert code == 3 and text == ""
    assert capsys.readouterr().err.startswith("internal error:")


def test_codes_report_set_size_past_the_universe_costs_nothing_extra():
    """No set is larger than the universe, so a huge --max-set-size answers
    as the universe's size does (sizes past it once took quadratic time)."""
    start = time.perf_counter()
    code, text = run(["codes-report", "corpus:RIGID3", "--max-set-size", "1000000000"])
    assert time.perf_counter() - start < 2
    assert (code, text) == run(["codes-report", "corpus:RIGID3", "--max-set-size", "3"])
    assert code == 0


def _cycle_edges(*lengths):
    edges, start = [], 0
    for m in lengths:
        edges += [(start + k, start + (k + 1) % m) for k in range(m)]
        start += m
    return edges


def _cubic_edges(seed, n=16):
    """A random simple 3-regular graph on n vertices, by seeded pairing."""
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return sorted(edges)


#: Undirected graphs on 16 vertices whose automorphism search, before it
#: walked the Gaifman graph, took up to tens of seconds under some
#: labellings; the 3-regular one is rigid.
LABELLED_GRAPHS = {
    "C16": _cycle_edges(16),
    "C8_C8": _cycle_edges(8, 8),
    "C5_C5_C6": _cycle_edges(5, 5, 6),
    "C7_C9": _cycle_edges(7, 9),
    "C3x4_C4": _cycle_edges(3, 3, 3, 3, 4),
    "C3x3_C7": _cycle_edges(3, 3, 3, 7),
    "Cubic": _cubic_edges(0),
}

LABELLINGS = range(3)


def labelled_graph_text(name, edges, labelling):
    """Structure text for a graph on 16 vertices, vertex k named v<pi(k)>
    for a permutation pi seeded by `labelling`, universe declared v0..v15."""
    pi = list(range(16))
    random.Random(labelling).shuffle(pi)
    arcs = sorted({(pi[a], pi[b]) for a, b in edges} | {(pi[b], pi[a]) for a, b in edges})
    return (f"structure {name} {{\n"
            f"  universe = {{ {', '.join(f'v{i}' for i in range(16))} }}\n"
            f"  rel E/2 = {{ {', '.join(f'(v{a}, v{b})' for a, b in arcs)} }}\n}}\n")


@pytest.mark.parametrize("labelling", LABELLINGS)
@pytest.mark.parametrize("name", sorted(LABELLED_GRAPHS))
def test_labelling_sensitive_graphs_answer_within_two_seconds(name, labelling, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(labelled_graph_text(name, LABELLED_GRAPHS[name], labelling),
                    encoding="utf-8")
    for argv in (["aut", str(path)], ["dcl", str(path), "--set", "v0"]):
        start = time.perf_counter()
        code, text = run(argv)
        assert time.perf_counter() - start < 2, argv[0]
        assert code == 0, argv[0]
    if name == "Cubic":
        code, payload = run_json(["aut", str(path)])
        assert payload["order"] == 1


#: Vertex-transitive graphs on 16 vertices whose `splitting` request, when it
#: built every candidate's tuple orbit, took tens of milliseconds: the rook's
#: graph 4x4 (|Aut| = 1152) and the Clebsch graph (|Aut| = 1920).
SPLITTING_GRAPHS = {
    "Rook4": [(i, j) for i, j in combinations(range(16), 2)
              if i // 4 == j // 4 or i % 4 == j % 4],
    "Clebsch": [(i, j) for i, j in combinations(range(16), 2)
                if i ^ j in (1, 2, 4, 8, 15)],
}


@pytest.mark.parametrize("labelling", LABELLINGS)
@pytest.mark.parametrize("name", sorted(SPLITTING_GRAPHS))
def test_splitting_on_large_vertex_transitive_groups_answers_within_two_seconds(
        name, labelling, tmp_path):
    """No three vertices split over the empty base: every vertex's orbit is
    the whole graph, and nothing is definable from nothing."""
    path = tmp_path / "graph.txt"
    path.write_text(labelled_graph_text(name, SPLITTING_GRAPHS[name], labelling),
                    encoding="utf-8")
    start = time.perf_counter()
    code, text = run(["splitting", str(path), "--base", "", "--top", "v0,v1,v2"])
    assert time.perf_counter() - start < 2
    assert code == 0 and text == "false\n"


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


def test_the_package_runs_as_a_module_without_warnings():
    golden = Path(__file__).parent / "golden" / "aut-EX_RS-json.out"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "galbench", "aut",
                           "corpus:EX_RS", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == golden.read_text(encoding="utf-8")


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
