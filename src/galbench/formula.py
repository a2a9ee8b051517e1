"""First-order formulas with equality, named parameters, and exact-count
quantifiers, evaluated over a finite structure.

Grammar (own invention; any equally expressive syntax would do)::

    formula  :=  iff
    iff      :=  implies ('<->' iff)?            right associative
    implies  :=  or ('->' implies)?              right associative
    or       :=  and ('|' and)*
    and      :=  unary ('&' unary)*
    unary    :=  '~' unary | quantifier | primary
    quant    :=  ('A' | 'E' | 'E!' INT) VAR '.' formula     body extends right
    primary  :=  '(' formula ')' | REL '(' term {',' term} ')' | term '=' term

Precedence ``~ > & > | > -> > <->``; a quantifier's body extends as far right
as possible.  The binary connectives' levels and associativity are one table,
`_BINARY`, which the parser's precedence loop and the printer both read.
Error positions are character indices into the text: a character that starts
no token is reported at its own index before parsing begins, and an error
past the last token at ``len(text)`` (the "unexpected end of input" errors
carry no position).  A formula nests at most `MAX_DEPTH` levels deep, counted both as
open ``~``/quantifier/parenthesis levels while parsing and as the depth of
the syntax tree, so parsing, printing and evaluation (all recursive) stay
far inside Python's recursion limit.  Terms are bare identifiers; whether an
identifier is a variable or an element name is decided against the
structure's name table at evaluation time, with quantifier bindings taking
priority.

Evaluation is bounded in work as well as depth: each `evaluate` or
`solution_set` call counts the assignments it tries (every quantifier
iteration and every candidate tuple) and raises `CapError` past
`EVAL_STEP_CAP`.

Formulas are immutable values, and evaluation only reads the structure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Iterable, Mapping, Union

from .errors import CapError, EvalError, FormulaError
from .structure import Signature, Structure, is_element_name, is_identifier

# -- abstract syntax ----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class ExactCount:
    count: int
    var: str
    body: "Formula"


Formula = Union[Atom, Eq, Not, And, Or, Implies, Iff, Forall, Exists, ExactCount]

#: Each binary connective's operator, precedence level (higher binds
#: tighter; ``~`` and the quantifiers' heads sit above, at 5) and whether it
#: associates to the right.  The parser and the printer both read this table.
_BINARY = {And: ("&", 4, False), Or: ("|", 3, False),
           Implies: ("->", 2, True), Iff: ("<->", 1, True)}
_OPS = {op: (node, level, right) for node, (op, level, right) in _BINARY.items()}
_QUANTS = (Forall, Exists, ExactCount)


# -- parsing -------------------------------------------------------------------

#: Deepest nesting a formula may have; deeper input is a `FormulaError`.
MAX_DEPTH = 100

_FTOKEN_RE = re.compile(r"<->|->|[A-Za-z0-9_]+|[()~&|=.!,]|(\S)")


def _lex(text: str) -> tuple[list[str], list[int]]:
    """The tokens of `text` and each one's position, then the end sentinel
    ``""`` at position ``len(text)``.

    The whole text is scanned before parsing begins, so a character that
    starts no token (the pattern's last alternative) is reported, at its own
    position, ahead of any syntax error.
    """
    toks: list[str] = []
    where: list[int] = []
    for m in _FTOKEN_RE.finditer(text):
        if m.group(1):
            raise FormulaError(f"unexpected character {m.group(1)!r}", m.start())
        toks.append(m.group())
        where.append(m.start())
    toks.append("")  # end sentinel: equal to no operator, punctuation or name
    where.append(len(text))
    return toks, where


def _tree_depth(f: Formula) -> int:
    """Nodes on the longest root-to-leaf path, found without recursion."""
    deepest = 0
    stack = [(f, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, (Not, *_QUANTS)):
            stack.append((node.body, depth + 1))
        elif isinstance(node, tuple(_BINARY)):
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return deepest


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse formula text against a signature into a well-scoped AST."""
    toks, where = _lex(text)
    bound: list[str] = []  # the variables quantified on the current branch

    def take(i: int) -> str:
        if not toks[i]:
            raise FormulaError("unexpected end of input")
        return toks[i]

    def expect(i: int, word: str) -> int:
        if toks[i] != word:
            if not toks[i]:
                raise FormulaError(f"unexpected end of input, expected {word!r}")
            raise FormulaError(f"expected {word!r}, found {toks[i]!r}", where[i])
        return i + 1

    def term(i: int) -> str:
        tok = take(i)
        if not is_element_name(tok):
            raise FormulaError(f"expected a term, found {tok!r}", where[i])
        return tok

    def climb(i: int, need: int, depth: int) -> tuple[Formula, int]:
        # the connectives of level `need` or above; a chain of one connective
        # is read in a loop and folded by its associativity, so long chains
        # do not recurse
        f, i = unary(i, depth)
        while toks[i] in _OPS and _OPS[toks[i]][1] >= need:
            op = toks[i]
            node, level, right = _OPS[op]
            parts = [f]
            while toks[i] == op:
                g, i = climb(i + 1, level + 1, depth)
                parts.append(g)
            if right:
                f = reduce(lambda acc, left: node(left, acc), reversed(parts))
            else:
                f = reduce(node, parts)
        return f, i

    def unary(i: int, depth: int) -> tuple[Formula, int]:
        # every nested subformula (negation, quantifier body, parentheses)
        # is parsed through here one level deeper, so `depth` counts the
        # parser's recursion
        if depth == MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels", where[i])
        head = toks[i]
        if head == "~":
            f, i = unary(i + 1, depth + 1)
            return Not(f), i
        if (head == "E" and toks[i + 1] == "!"
                or head in ("A", "E") and is_identifier(toks[i + 1]) and toks[i + 2] == "."):
            count = None
            i += 1
            if toks[i] == "!":
                num = take(i + 1)
                if not num.isdigit():
                    raise FormulaError(f"expected a count after 'E!', found {num!r}", where[i + 1])
                try:
                    count = int(num)
                except ValueError:  # more digits than int() converts
                    raise FormulaError(f"count of {len(num)} digits is too large",
                                       where[i + 1]) from None
                i += 2
            var = take(i)
            if not is_identifier(var):
                raise FormulaError(f"illegal variable name {var!r}", where[i])
            if var in bound:
                raise FormulaError(f"variable {var!r} is quantified twice on one branch",
                                   where[i])
            i = expect(i + 1, ".")
            bound.append(var)
            body, i = climb(i, 1, depth + 1)
            bound.pop()
            if count is not None:
                return ExactCount(count, var, body), i
            return (Forall if head == "A" else Exists)(var, body), i
        if head == "(":
            f, i = climb(i + 1, 1, depth + 1)
            return f, expect(i, ")")
        if not head:
            raise FormulaError("unexpected end of input, expected an atom")
        if not is_element_name(head):
            raise FormulaError(f"expected an atom, found {head!r}", where[i])
        at = where[i]
        if toks[i + 1] == "(":
            if not sig.has(head):
                raise FormulaError(f"unknown relation {head!r}", at)
            i += 2
            args = [term(i)]
            while toks[i + 1] == ",":
                i += 2
                args.append(term(i))
            i = expect(i + 1, ")")
            arity = sig.arity(head)
            if len(args) != arity:
                raise FormulaError(
                    f"relation {head!r} has arity {arity}, got {len(args)} arguments", at)
            return Atom(head, tuple(args)), i
        if toks[i + 1] == "=":
            return Eq(head, term(i + 2)), i + 3
        raise FormulaError(f"expected '(' or '=' after {head!r}", where[i + 1])

    f, i = climb(0, 1, 0)
    if toks[i]:
        raise FormulaError(f"trailing input {toks[i]!r}", where[i])
    if _tree_depth(f) > MAX_DEPTH:
        raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")
    return f


# -- printing -------------------------------------------------------------------


def _fmt(f: Formula, need: int) -> tuple[str, bool]:
    """Render at a required precedence level.

    Returns (text, dangling) where dangling means the text ends inside an
    unparenthesised quantifier body, so a following binary operator would be
    captured by the quantifier on re-parse.
    """
    if isinstance(f, Atom):
        return f"{f.rel}({', '.join(f.args)})", False
    if isinstance(f, Eq):
        return f"{f.left} = {f.right}", False
    if isinstance(f, Not):
        body, dangling = _fmt(f.body, 5)
        return "~" + body, dangling
    if isinstance(f, _QUANTS):
        head = {Forall: "A", Exists: "E"}.get(type(f)) or f"E!{f.count}"
        body, _ = _fmt(f.body, 1)
        text = f"{head} {f.var}. {body}"
        if need > 5:
            return "(" + text + ")", False
        return text, True
    op, level, right = _BINARY[type(f)]
    ltext, ldang = _fmt(f.left, level + 1 if right else level)
    if ldang:
        ltext = "(" + ltext + ")"
    rtext, rdang = _fmt(f.right, level if right else level + 1)
    text = f"{ltext} {op} {rtext}"
    if level < need:
        return "(" + text + ")", False
    return text, rdang


def format_formula(f: Formula) -> str:
    """Canonical text; `parse_formula(format_formula(ast))` returns `ast`."""
    return _fmt(f, 1)[0]


# -- identifier classification ---------------------------------------------------


def _walk_terms(f: Formula, bound: set[str], out: list[str]):
    if isinstance(f, Atom):
        for t in f.args:
            if t not in bound and t not in out:
                out.append(t)
    elif isinstance(f, Eq):
        for t in (f.left, f.right):
            if t not in bound and t not in out:
                out.append(t)
    elif isinstance(f, Not):
        _walk_terms(f.body, bound, out)
    elif isinstance(f, (And, Or, Implies, Iff)):
        _walk_terms(f.left, bound, out)
        _walk_terms(f.right, bound, out)
    else:
        added = f.var not in bound
        if added:
            bound.add(f.var)
        _walk_terms(f.body, bound, out)
        if added:
            bound.remove(f.var)


def free_identifiers(f: Formula) -> tuple[str, ...]:
    """Unbound term identifiers in first-occurrence order."""
    out: list[str] = []
    _walk_terms(f, set(), out)
    return tuple(out)


def free_variables(f: Formula, names: Mapping[str, int]) -> tuple[str, ...]:
    """Free identifiers that are not element names, first-occurrence order."""
    return tuple(t for t in free_identifiers(f) if t not in names)


def parameters(f: Formula, names: Mapping[str, int]) -> tuple[str, ...]:
    """Free identifiers that resolve as element names, first-occurrence order."""
    return tuple(t for t in free_identifiers(f) if t in names)


# -- evaluation -------------------------------------------------------------------

#: Most assignments one `evaluate` or `solution_set` call tries before it
#: stops with `CapError`.
EVAL_STEP_CAP = 1_000_000


def evaluate(M: Structure, f: Formula, env: Mapping[str, int] | None = None) -> bool:
    """Tarskian truth value of `f` in `M` under a variable assignment.

    Identifiers bound by quantifiers or present in `env` are variables;
    otherwise they must resolve in the structure's name table.
    """
    scope = dict(env or {})
    for var, val in scope.items():
        if not isinstance(val, int) or not 0 <= val < M.size:
            raise EvalError(f"assignment maps {var!r} to invalid element {val!r}")
    return _eval(M, f, scope, [0])


_MISSING = object()


def _count(steps: list[int], tried: int = 1) -> None:
    steps[0] += tried
    if steps[0] > EVAL_STEP_CAP:
        raise CapError(f"formula evaluation passed {EVAL_STEP_CAP} assignments")


def _resolve(M: Structure, term: str, env: dict) -> int:
    val = env.get(term, _MISSING)
    if val is not _MISSING:
        return val
    got = M.names.get(term)
    if got is None:
        raise EvalError(f"identifier {term!r} is neither bound nor an element name")
    return got


def _eval(M: Structure, f: Formula, env: dict, steps: list[int]) -> bool:
    if isinstance(f, Atom):
        t = tuple(_resolve(M, a, env) for a in f.args)
        return t in M.tables[f.rel]
    if isinstance(f, Eq):
        return _resolve(M, f.left, env) == _resolve(M, f.right, env)
    if isinstance(f, Not):
        return not _eval(M, f.body, env, steps)
    if isinstance(f, And):
        return _eval(M, f.left, env, steps) and _eval(M, f.right, env, steps)
    if isinstance(f, Or):
        return _eval(M, f.left, env, steps) or _eval(M, f.right, env, steps)
    if isinstance(f, Implies):
        return (not _eval(M, f.left, env, steps)) or _eval(M, f.right, env, steps)
    if isinstance(f, Iff):
        return _eval(M, f.left, env, steps) == _eval(M, f.right, env, steps)

    saved = env.get(f.var, _MISSING)
    try:
        if isinstance(f, Forall):
            for i in range(M.size):
                _count(steps)
                env[f.var] = i
                if not _eval(M, f.body, env, steps):
                    return False
            return True
        if isinstance(f, Exists):
            for i in range(M.size):
                _count(steps)
                env[f.var] = i
                if _eval(M, f.body, env, steps):
                    return True
            return False
        count = 0
        for i in range(M.size):
            _count(steps)
            env[f.var] = i
            if _eval(M, f.body, env, steps):
                count += 1
                if count > f.count:
                    break
        return count == f.count
    finally:
        if saved is _MISSING:
            env.pop(f.var, None)
        else:
            env[f.var] = saved


def solution_set(M: Structure, f: Formula,
                 variables: Iterable[str]) -> tuple[tuple[int, ...], ...]:
    """All tuples making `f` true when `variables` are bound to them, in
    ascending lexicographic order.  `variables` must be exactly the free
    variables of `f` over `M`.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise EvalError(f"duplicate variables in {variables}")
    free = set(free_variables(f, M.names))
    if free != set(variables):
        raise EvalError(
            f"free variables of the formula are {sorted(free)}, got {sorted(variables)}")
    out = []
    env: dict[str, int] = {}
    # Every candidate tuple is tried, so all are counted before the first.
    steps = [0]
    _count(steps, M.size ** len(variables))
    for combo in product(range(M.size), repeat=len(variables)):
        for var, val in zip(variables, combo):
            env[var] = val
        if _eval(M, f, env, steps):
            out.append(combo)
    return tuple(out)
