import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import galbench.formula as formula
from galbench.errors import CapError, EvalError, FormulaError
from galbench.formula import (MAX_DEPTH, And, Atom, Eq, ExactCount, Exists,
                              Forall, Iff, Implies, Not, Or, evaluate, format_formula,
                              free_variables, parameters, parse_formula,
                              solution_set)
from galbench.structure import load_structure

from oracles import naive_eval, random_formula, slow_parse_formula


# -- parsing ------------------------------------------------------------------------


def test_parse_exists_atom(ex_rs):
    f = parse_formula("E x. R(x,a)", ex_rs.signature)
    assert f == Exists("x", Atom("R", ("x", "a")))


def test_parse_exact_count(ex_rs):
    f = parse_formula("E!4 x. x = x", ex_rs.signature)
    assert f == ExactCount(4, "x", Eq("x", "x"))


def test_parse_forall_implication(ex_rs):
    f = parse_formula("A y. (S(a,y) -> ~R(a,y))", ex_rs.signature)
    assert f == Forall("y", Implies(Atom("S", ("a", "y")),
                                    Not(Atom("R", ("a", "y")))))


def test_precedence_chain(ex_rs):
    f = parse_formula("~R(x,y) & S(x,y) | R(y,x) -> S(y,x) <-> R(x,x)",
                      ex_rs.signature)
    assert f == Iff(
        Implies(Or(And(Not(Atom("R", ("x", "y"))), Atom("S", ("x", "y"))),
                   Atom("R", ("y", "x"))),
                Atom("S", ("y", "x"))),
        Atom("R", ("x", "x")))


def test_quantifier_scope_extends_right(ex_rs):
    f = parse_formula("E x. R(x,a) & S(x,a)", ex_rs.signature)
    assert f == Exists("x", And(Atom("R", ("x", "a")), Atom("S", ("x", "a"))))
    g = parse_formula("(E x. R(x,a)) & S(a,a)", ex_rs.signature)
    assert g == And(Exists("x", Atom("R", ("x", "a"))), Atom("S", ("a", "a")))


def test_implication_right_associative(ex_rs):
    f = parse_formula("R(x,x) -> S(x,x) -> R(x,y)", ex_rs.signature)
    assert f == Implies(Atom("R", ("x", "x")),
                        Implies(Atom("S", ("x", "x")), Atom("R", ("x", "y"))))


def test_quantifier_keyword_versus_relation_named_e(c5):
    # C5's edge relation is literally named E
    f = parse_formula("E x. E(x,v0)", c5.signature)
    assert f == Exists("x", Atom("E", ("x", "v0")))


@pytest.mark.parametrize("src,fragment", [
    ("E x. E x. R(x,x)", "quantified twice"),
    ("R(x)", "arity"),
    ("Q(x,y)", "unknown relation"),
    ("E x R(x,x)", "expected"),
    ("R(x,y) &", "unexpected end"),
    ("E!n x. x = x", "count"),
    ("x", "expected '(' or '='"),
])
def test_parse_errors(src, fragment, ex_rs):
    with pytest.raises(FormulaError) as err:
        parse_formula(src, ex_rs.signature)
    assert fragment in str(err.value)


def test_sibling_branches_may_reuse_variable(ex_rs):
    f = parse_formula("(E x. R(x,a)) & (E x. S(x,a))", ex_rs.signature)
    assert isinstance(f, And)


# -- agreement with the parser class it replaced ---------------------------------------

# relations named like the quantifiers, so 'A(' and 'E(' start atoms
_FUZZ = load_structure(
    "structure F { universe = { a, b, 0 } rel R/2 = { (a, b) } rel E/1 = { } rel A/2 = { } }")
_HUGE = "9" * 5000
_TOKENS = ("~", "&", "|", "->", "<->", "(", ")", ",", ".", "=", "!", "A", "E", "E!",
           "E!2", "A x.", "E y.", "E!1 z.", "x", "y", "a", "0", "x1", "R", "Q", "R(x,y)",
           "E(a)", "A(x,0)", "Q(x)", "x = y", "$", "<", "-", "#", "é", "E!" + _HUGE, _HUGE)
_SEPS = ("", " ", " ", "\t", "\n", "\u00a0", "\u2003")
_AT = r"at position \d+: "
# every message the parser raises; the depth check raises with and without a
# position (while parsing, and on the finished tree)
_PARSER_ERRORS = (
    _AT + r"unexpected character '.+'",
    _AT + r"trailing input '.+'",
    _AT + r"formula nests deeper than 100 levels",
    r"formula nests deeper than 100 levels",
    r"unexpected end of input",
    r"unexpected end of input, expected '.+'",
    r"unexpected end of input, expected an atom",
    _AT + r"expected '.+', found '.+'",
    _AT + r"expected a count after 'E!', found '.+'",
    _AT + r"count of \d+ digits is too large",
    _AT + r"illegal variable name '.+'",
    _AT + r"variable '.+' is quantified twice on one branch",
    _AT + r"expected an atom, found '.+'",
    _AT + r"unknown relation '.+'",
    _AT + r"relation '.+' has arity \d+, got \d+ arguments",
    _AT + r"expected '\(' or '=' after '.+'",
    _AT + r"expected a term, found '.+'",
)


def _fuzz_text(rng: random.Random) -> str:
    sep = lambda: rng.choice(_SEPS)
    printed = format_formula(random_formula(rng, _FUZZ, rng.randint(0, 4), ("x",)))
    kind = rng.randrange(20)
    if kind < 6:  # token soup
        return "".join(rng.choice(_TOKENS) + sep() for _ in range(rng.randint(0, 12)))
    if kind < 15:  # a printed formula with a few edits
        text = printed
        for _ in range(rng.randint(0, 3)):
            i = rng.randint(0, len(text))
            cut = rng.choice((0, 0, 1, rng.randint(1, 6), len(text)))
            text = text[:i] + rng.choice(("",) + _TOKENS) + sep() + text[i + cut:]
        return text
    if kind < 17:  # about MAX_DEPTH negations or parentheses
        k = rng.randint(95, 105)
        opens = "".join(rng.choice(("~", "(", "~(")) for _ in range(k))
        return opens + printed + ")" * (opens.count("(") - rng.randint(0, 1))
    if kind == 17:  # a long chain of one connective
        op = rng.choice(("&", "&", "|", "->", "<->"))
        n = rng.randint(95, 105) if rng.random() < 0.95 else 1500  # past the recursion limit
        return f" {op} ".join(["x = x"] * n)
    count = rng.choice(("0", "12", "9" * 4300, "9" * 4301, _HUGE))
    return rng.choice(("", "R(a,b) & ", "~")) + f"E!{count} x.{sep()}" + printed


def _parsed(parse, text: str):
    try:
        return parse(text, _FUZZ.signature)
    except Exception as exc:
        return type(exc), str(exc)


def _under_new_positions(text: str, outcome):
    """The replaced parser's outcome as the current parser reports it: an
    error past the last token is at ``len(text)``, not -1; a stray character
    is at its own position, not where the whitespace before it began; and a
    count int() cannot convert is a `FormulaError` at the count, not a
    `ValueError`."""
    if not isinstance(outcome, tuple):
        return outcome
    kind, message = outcome
    if kind is ValueError:
        count = next(m for m in re.finditer(r"(?<![A-Za-z0-9_])E\s*!\s*([0-9]+)", text)
                     if len(m.group(1)) > 4300)
        return FormulaError, (f"at position {count.start(1)}: "
                              f"count of {len(count.group(1))} digits is too large")
    at = re.match(r"at position (-?\d+): (.*)", message, re.S)
    if at:
        pos, rest = int(at.group(1)), at.group(2)
        if pos == -1:
            pos = len(text)
        elif rest.startswith("unexpected character"):
            pos += len(text[pos:]) - len(text[pos:].lstrip())
        message = f"at position {pos}: {rest}"
    return kind, message


def test_parser_matches_the_parser_class_it_replaced():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(20_000):
        text = _fuzz_text(rng)
        got = _parsed(parse_formula, text)
        assert got == _under_new_positions(text, _parsed(slow_parse_formula, text)), repr(text)
        if isinstance(got, tuple):
            assert got[0] is FormulaError, got
            matched = [p for p in _PARSER_ERRORS if re.fullmatch(p, got[1], re.S)]
            assert len(matched) == 1, got
            seen.add(matched[0])
        else:
            seen.add("ok")
    assert seen == {"ok", *_PARSER_ERRORS}


# -- printing round-trip ---------------------------------------------------------------


_SIG = load_structure("structure P { universe = { a } rel R/2 = { } rel Q/1 = { } }").signature

_terms = st.sampled_from(("x", "y", "a"))


def _ast_strategy():
    leaves = st.one_of(
        st.builds(Atom, st.just("R"), st.tuples(_terms, _terms)),
        st.builds(Atom, st.just("Q"), st.tuples(_terms)),
        st.builds(Eq, _terms, _terms),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Implies, children, children),
            st.builds(Iff, children, children),
            st.builds(Forall, st.sampled_from(("q", "r")), children),
            st.builds(Exists, st.sampled_from(("s", "t")), children),
            st.builds(ExactCount, st.integers(0, 3), st.sampled_from(("m", "n")),
                      children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _well_scoped(ast, bound=frozenset()):
    if isinstance(ast, (Atom, Eq)):
        return True
    if isinstance(ast, Not):
        return _well_scoped(ast.body, bound)
    if isinstance(ast, (And, Or, Implies, Iff)):
        return _well_scoped(ast.left, bound) and _well_scoped(ast.right, bound)
    if ast.var in bound:
        return False
    return _well_scoped(ast.body, bound | {ast.var})


@given(_ast_strategy().filter(_well_scoped))
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(ast):
    printed = format_formula(ast)
    reparsed = parse_formula(printed, _SIG)
    assert reparsed == ast, printed


# -- evaluation -------------------------------------------------------------------------


def test_evaluate_examples(ex_rs, gf4):
    assert evaluate(ex_rs, parse_formula("R(a,b)", ex_rs.signature)) is True
    assert evaluate(gf4, parse_formula("E!4 x. x = x", gf4.signature)) is True
    assert evaluate(ex_rs, parse_formula("A x. E y. R(x,y)", ex_rs.signature)) is False


def test_evaluate_with_env(ex_rs):
    f = parse_formula("R(a,y)", ex_rs.signature)
    assert evaluate(ex_rs, f, {"y": ex_rs.resolve("b")}) is True
    assert evaluate(ex_rs, f, {"y": ex_rs.resolve("c")}) is False


def test_evaluate_unbound_identifier(ex_rs):
    f = parse_formula("R(a,nope)", ex_rs.signature)
    with pytest.raises(EvalError):
        evaluate(ex_rs, f)


def test_evaluate_bad_assignment(ex_rs):
    f = parse_formula("R(a,y)", ex_rs.signature)
    with pytest.raises(EvalError):
        evaluate(ex_rs, f, {"y": 77})


def test_bound_variable_shadows_element_name(ex_rs):
    # 'a' is an element name, but the quantifier rebinds it
    f = parse_formula("E a. ~R(a,b)", ex_rs.signature)
    assert evaluate(ex_rs, f) is True
    g = parse_formula("A a. R(a,b)", ex_rs.signature)
    assert evaluate(ex_rs, g) is False


def test_solution_set_examples(ex_rs):
    b = ex_rs.resolve("b")
    f = parse_formula("R(a,y)", ex_rs.signature)
    assert solution_set(ex_rs, f, ("y",)) == ((b,),)

    g = parse_formula("E z. R(y,z)", ex_rs.signature)
    assert solution_set(ex_rs, g, ("y",)) == tuple(
        (ex_rs.resolve(n),) for n in ("a", "b", "c", "d"))

    h = parse_formula("~(y = y)", ex_rs.signature)
    assert solution_set(ex_rs, h, ("y",)) == ()


def test_solution_set_requires_exact_variables(ex_rs):
    f = parse_formula("E z. R(y,z)", ex_rs.signature)
    with pytest.raises(EvalError):
        solution_set(ex_rs, f, ("y", "w"))
    with pytest.raises(EvalError):
        solution_set(ex_rs, f, ())


def test_free_variables_and_parameters(ex_rs):
    f = parse_formula("E z. R(y,z) & S(a,x)", ex_rs.signature)
    assert free_variables(f, ex_rs.names) == ("y", "x")
    assert parameters(f, ex_rs.names) == ("a",)


# -- agreement with the witness-enumerating oracle -------------------------------------


def test_evaluator_matches_naive_oracle_small_structures(rigid3, c5):
    rng = random.Random(7)
    for M in (rigid3, c5):
        for _ in range(250):
            f = random_formula(rng, M, depth=rng.randint(1, 4), free_vars=("x",))
            env = {"x": rng.randrange(M.size)}
            assert evaluate(M, f, env) == naive_eval(M, f, env), format_formula(f)


# -- quantifier laws ----------------------------------------------------------------------


def test_quantifier_duality_extensional(ex_rs, c5):
    rng = random.Random(11)
    for M in (ex_rs, c5):
        for _ in range(60):
            body = random_formula(rng, M, depth=2, free_vars=("x", "y"))
            neg_forall = Not(Forall("x", body))
            exists_neg = Exists("x", Not(body))
            vs = free_variables(neg_forall, M.names)
            assert solution_set(M, neg_forall, vs) == solution_set(M, exists_neg, vs)


def test_de_morgan_extensional(ex_rs):
    rng = random.Random(13)
    for _ in range(60):
        p = random_formula(rng, ex_rs, depth=1, free_vars=("y",))
        q = random_formula(rng, ex_rs, depth=1, free_vars=("y",))
        lhs = Not(And(p, q))
        rhs = Or(Not(p), Not(q))
        vs = free_variables(lhs, ex_rs.names)
        assert solution_set(ex_rs, lhs, vs) == solution_set(ex_rs, rhs, vs)


def test_exact_count_matches_solution_count(ex_rs, gf4):
    rng = random.Random(17)
    for M in (ex_rs, gf4):
        for _ in range(40):
            body = random_formula(rng, M, depth=2, free_vars=("x",))
            if free_variables(body, M.names) != ("x",):
                continue
            count = len(solution_set(M, body, ("x",)))
            for n in range(M.size + 1):
                assert evaluate(M, ExactCount(n, "x", body)) == (count == n)


def test_nesting_limit_is_exact(c5):
    deepest = parse_formula("~" * (MAX_DEPTH - 1) + "v0 = v0", c5.signature)
    assert evaluate(c5, deepest) is (MAX_DEPTH % 2 == 1)
    assert parse_formula(format_formula(deepest), c5.signature) == deepest
    chain = " & ".join(["v0 = v0"] * MAX_DEPTH)
    assert evaluate(c5, parse_formula(chain, c5.signature)) is True
    for text in ("~" * MAX_DEPTH + "v0 = v0", chain + " & v0 = v0"):
        with pytest.raises(FormulaError, match="nests deeper than"):
            parse_formula(text, c5.signature)


def test_evaluation_counts_every_assignment_it_tries(ex_rs, monkeypatch):
    """`A x. x = x` tries 6 assignments.  `E z. R(y, z)` for y in a..f tries
    the 6 values of y, then 2, 1, 4, 3, 6 and 6 values of z (R pairs a with
    b and c with d): 28 in all, counted against one budget per call."""
    every = parse_formula("A x. x = x", ex_rs.signature)
    some = parse_formula("E z. R(y, z)", ex_rs.signature)
    monkeypatch.setattr(formula, "EVAL_STEP_CAP", 6)
    assert evaluate(ex_rs, every) is True
    assert evaluate(ex_rs, every) is True
    monkeypatch.setattr(formula, "EVAL_STEP_CAP", 5)
    with pytest.raises(CapError, match="formula evaluation passed 5 assignments"):
        evaluate(ex_rs, every)
    monkeypatch.setattr(formula, "EVAL_STEP_CAP", 28)
    assert solution_set(ex_rs, some, ("y",)) == ((0,), (1,), (2,), (3,))
    monkeypatch.setattr(formula, "EVAL_STEP_CAP", 27)
    with pytest.raises(CapError, match="passed 27 assignments"):
        solution_set(ex_rs, some, ("y",))
    monkeypatch.setattr(formula, "EVAL_STEP_CAP", 35)
    with pytest.raises(CapError, match="passed 35 assignments"):
        solution_set(ex_rs, parse_formula("R(x, y)", ex_rs.signature), ("x", "y"))
