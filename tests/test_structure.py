import random
import re
import sys

import pytest

from galbench import structure
from galbench.corpus import CORPUS, corpus_names, load_corpus
from galbench.errors import CapError, DslError, StructureError
from galbench.structure import dump_structure, eval_relation, load_structure

from oracles import gf_field_tables, slow_load_structure


def test_ex_rs_shape(ex_rs):
    assert ex_rs.size == 6
    assert len(ex_rs.tables["R"]) == 4
    assert len(ex_rs.tables["S"]) == 4
    assert ex_rs.labels == ("a", "b", "c", "d", "e", "f")


def test_smallest_structure():
    M = load_structure("structure T { universe = { p } }")
    assert M.size == 1
    assert M.signature.relations == ()


def test_gf4_table_sizes(gf4):
    assert gf4.size == 4
    assert len(gf4.tables["add"]) == 16
    assert len(gf4.tables["mul"]) == 16


@pytest.mark.parametrize("name,k,modulus", [
    ("GF4", 2, (1, 1, 1)),        # x^2 + x + 1
    ("GF16", 4, (1, 1, 0, 0, 1)),  # x^4 + x + 1
])
def test_field_tables_match_polynomial_arithmetic(name, k, modulus):
    M = load_corpus(name)
    add, mul = gf_field_tables(k, modulus)
    for rel, oracle in (("add", add), ("mul", mul)):
        got = {(M.label(a), M.label(b)): M.label(c) for (a, b, c) in M.tables[rel]}
        assert got == oracle


def test_eval_relation_examples(ex_rs):
    a, b, c = ex_rs.resolve("a"), ex_rs.resolve("b"), ex_rs.resolve("c")
    assert eval_relation(ex_rs, "R", (a, b)) is True
    assert eval_relation(ex_rs, "R", (a, c)) is False
    assert eval_relation(ex_rs, "S", (a, a)) is False


def test_eval_relation_agrees_with_tables_everywhere(corpus_structure):
    M = corpus_structure
    from itertools import product
    for rel, arity in M.signature.relations:
        for t in product(range(M.size), repeat=arity):
            assert eval_relation(M, rel, t) == (t in M.tables[rel])


def test_eval_relation_errors(ex_rs):
    with pytest.raises(StructureError):
        eval_relation(ex_rs, "nope", (0, 1))
    with pytest.raises(StructureError):
        eval_relation(ex_rs, "R", (0, 1, 2))
    with pytest.raises(StructureError):
        eval_relation(ex_rs, "R", (0, 99))


def test_round_trip_every_corpus_entry():
    for name in corpus_names():
        M = load_corpus(name)
        again = load_structure(dump_structure(M))
        assert again == M
        assert load_structure(dump_structure(again)) == again


def test_deterministic_reload():
    src = CORPUS["EX_RS"].source
    assert load_structure(src) == load_structure(src)


@pytest.mark.parametrize("src,fragment", [
    ("structure  { universe = { a } }", "expected a structure name"),
    ("structure T { universe = { } }", "at least one element"),
    ("structure T { universe = { a, a } }", "duplicate element"),
    ("structure T { universe = { a } rel R/2 = { (a,a) } rel R/2 = { } }",
     "duplicate relation"),
    ("structure T { universe = { a } rel R/2 = { (a) } }", "length 1"),
    ("structure T { universe = { a } rel R/2 = { (a,b) } }", "unknown element"),
    ("structure T { universe = { a } rel R/0 = { } }", "positive integer"),
    ("structure T { universe = { a }", "unexpected end"),
    ("structure T { universe = { a } } trailing", "trailing"),
])
def test_dsl_errors(src, fragment):
    with pytest.raises(DslError) as err:
        load_structure(src)
    assert fragment in str(err.value)


def test_dsl_error_carries_position():
    with pytest.raises(DslError) as err:
        load_structure("structure T {\n  universe = { a, a }\n}")
    assert err.value.line == 2
    assert err.value.col is not None


def test_comments_and_whitespace_insensitivity():
    compact = "structure T{universe={a,b}rel R/1={(a)}}"
    spread = """
      # a comment
      structure T {   # another
        universe = { a,
                     b }
        rel R/1 = { (a) }
      }
    """
    assert load_structure(compact) == load_structure(spread)


def test_universe_cap(monkeypatch):
    labels = ", ".join(f"e{i}" for i in range(17))
    with pytest.raises(CapError):
        load_structure(f"structure T {{ universe = {{ {labels} }} }}")
    monkeypatch.setattr(structure, "DEFAULT_UNIVERSE_CAP", 17)
    assert load_structure(f"structure T {{ universe = {{ {labels} }} }}").size == 17


def test_arity_past_int_conversion_limit_is_a_dsl_error():
    arity = "9" * 5000
    with pytest.raises(DslError) as err:
        load_structure(f"structure T {{ universe = {{ a }}\n rel R/{arity} = {{ }} }}")
    assert (err.value.line, err.value.col) == (2, 8)
    assert "5000 digits" in str(err.value)


# -- the one-pass parser against the token-object oracle -----------------------------


def test_regex_whitespace_is_str_isspace_on_every_code_point():
    # The loader finds stray characters with re's \s where the token-object
    # parser skipped str.isspace() characters one at a time.
    whitespace = re.compile(r"\s")
    assert [c for c in map(chr, range(sys.maxunicode + 1))
            if bool(whitespace.match(c)) != c.isspace()] == []

# Characters and fragments the edits insert: comment starts, every kind of
# whitespace str.splitlines() or str.isspace() knows, non-ASCII letters and
# digits, the format's punctuation and keywords, and stray ASCII.
_INSERTS = ["#", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
            "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "é", "ß", "Ω", "ǅ", "٣",
            "{", "}", "(", ")", "=", ",", "/", "a", "Z", "_", "0", "7", ";", "-", "'",
            "rel", "structure", "universe", "R/2", "(a,a)", "# x\n", " rel R/1 = { }",
            " rel R0/1 = { }"]


def _generated_text(rng: random.Random) -> str:
    """A random well-formed structure text in a random layout: digit-leading
    element names, several relations of arity 1-3, empty relations, comments."""
    n = rng.randint(1, 7)
    labels = rng.sample([f"e{i}" for i in range(9)] + ["0", "1", "_x", "42b"], n)
    sp = lambda: rng.choice(["", " ", "  ", "\n", "\t", " # note\n"])
    parts = [sp(), "structure", " ", rng.choice(["G", "T_1", "Gen"]), sp(), "{", sp(),
             "universe", sp(), "=", sp(), "{", sp(), ("," + sp()).join(labels), sp(), "}"]
    for r in range(rng.randint(0, 3)):
        arity = rng.randint(1, 3)
        rows = {tuple(rng.choice(labels) for _ in range(arity))
                for _ in range(rng.randint(0, 6))}
        body = ("," + sp()).join("(" + (sp() + "," + sp()).join(t) + ")" for t in rows)
        parts += ["\n", "rel ", f"R{r}", sp(), "/", sp(), str(arity), sp(), "=", sp(),
                  "{", sp(), body, sp(), "}"]
    parts += [sp(), "}", sp()]
    return "".join(parts)


def _edit(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randint(1, 6):]
        elif kind == 2:
            text = text[:i] + rng.choice(_INSERTS) + text[i + 1:]
        elif kind == 3:
            j = rng.randint(0, len(text))
            text = text[:i] + text[j:j + rng.randint(1, 12)] + text[i:]
        else:
            text = text[:i]
    return text


def _outcome(load, text: str):
    try:
        return load(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def test_loader_matches_the_token_object_parser_on_random_edits(monkeypatch):
    rng = random.Random(20261018)
    bases = [entry.source for name, entry in CORPUS.items() if name != "GF16"]
    bases += [dump_structure(load_corpus(name)) for name in ("EX_RS", "C5", "GF4")]
    bases += [_generated_text(rng) for _ in range(40)]
    for text in bases:
        assert _outcome(load_structure, text) == _outcome(slow_load_structure, text)
    outcomes = set()
    for _ in range(20_000):
        text = _edit(rng, rng.choice(bases))
        monkeypatch.setattr(structure, "DEFAULT_UNIVERSE_CAP", rng.choice((16, 3)))
        got = _outcome(load_structure, text)
        assert got == _outcome(slow_load_structure, text), repr(text)
        outcomes.add(got[0] if isinstance(got, tuple) else "ok")
    assert outcomes == {"ok", DslError, CapError}


def test_loader_matches_the_token_object_parser_on_gf16_edits():
    rng = random.Random(16)
    source = CORPUS["GF16"].source
    for _ in range(60):
        text = _edit(rng, source)
        assert _outcome(load_structure, text) == _outcome(slow_load_structure, text)
