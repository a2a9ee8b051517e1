import random

import pytest
from hypothesis import given, settings, strategies as st

import galbench.formula as formula
from galbench.errors import CapError, EvalError, FormulaError
from galbench.formula import (MAX_DEPTH, And, Atom, Eq, ExactCount, Exists,
                              Forall, Iff, Implies, Not, Or, evaluate, format_formula,
                              free_variables, parameters, parse_formula,
                              solution_set)
from galbench.structure import load_structure

from oracles import naive_eval, random_formula


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
