"""Exact output of the README example commands.

Each case pins the exit code and every byte written to the output stream;
the expected text is in tests/golden/<name>.out.  A change that is meant to
keep responses byte for byte must leave these files untouched.
"""

import io
from pathlib import Path

import pytest

from galbench.cli import run_command

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("galois-EX_RS", 1, ["galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d"]),
    ("galois-EX_RS-json", 1, ["galois", "corpus:EX_RS", "--base", "", "--top", "a,b,c,d",
                              "--format", "json"]),
    ("galois-GF16", 0, ["galois", "corpus:GF16", "--base", "0,1", "--top", "ALL"]),
    ("galois-C5", 0, ["galois", "corpus:C5", "--top", "ALL"]),
    ("tower-GF16", 0, ["tower", "corpus:GF16", "--sets", ";0,1,w5,w10;ALL"]),
    ("codes-report-GF16", 0, ["codes-report", "corpus:GF16"]),
    ("verify-C5-json", 0, ["verify", "corpus:C5", "--trials", "10", "--format", "json"]),
    ("verify-EX_RS", 0, ["verify", "corpus:EX_RS", "--trials", "10"]),
    ("verify-GF4-json", 0, ["verify", "corpus:GF4", "--trials", "20", "--seed", "3",
                            "--format", "json"]),
    ("verify-RIGID3-json", 0, ["verify", "corpus:RIGID3", "--trials", "20", "--seed", "3",
                               "--format", "json"]),
    ("verify-GF16-json", 0, ["verify", "corpus:GF16", "--trials", "20", "--seed", "3",
                             "--format", "json"]),
    ("aut-EX_RS", 0, ["aut", "corpus:EX_RS"]),
    ("aut-GF16-fixing", 0, ["aut", "corpus:GF16", "--fixing", "0,1"]),
    ("dcl-EX_RS", 0, ["dcl", "corpus:EX_RS", "--set", "a"]),
    ("generator-GF16", 0, ["generator", "corpus:GF16", "--base", "0,1", "--top", "ALL"]),
    ("code-EX_RS", 0, ["code", "corpus:EX_RS", "--tuples", "a;b"]),
    ("msym-code-GF4", 0, ["msym-code", "corpus:GF4", "--tuples", "w;w2"]),
]


@pytest.mark.parametrize("name, exit_code, argv", CASES, ids=[c[0] for c in CASES])
def test_readme_command_output_is_unchanged(name, exit_code, argv, capsys):
    out = io.StringIO()
    assert run_command(argv, out=out) == exit_code
    assert out.getvalue() == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""
