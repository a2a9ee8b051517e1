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
as possible.  A formula nests at most `MAX_DEPTH` levels deep, counted both as
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

Formulas and assignments are immutable values and evaluation is pure, so
concurrent evaluations are safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Union

from .errors import CapError, EvalError, FormulaError
from .structure import Signature, Structure, is_identifier

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

_BINARY = {And: ("&", 4), Or: ("|", 3), Implies: ("->", 2), Iff: ("<->", 1)}
_QUANTS = (Forall, Exists, ExactCount)


# -- parsing -------------------------------------------------------------------

#: Deepest nesting a formula may have; deeper input is a `FormulaError`.
MAX_DEPTH = 100

_FTOKEN_RE = re.compile(r"\s*(<->|->|[A-Za-z0-9_]+|[()~&|=.!,])")


def _lex(text: str) -> list[tuple[str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _FTOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].isspace():
                break
            raise FormulaError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


class _FParser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _lex(text)
        self.sig = sig
        self.pos = 0
        self.bound: list[str] = []
        self.depth = 0

    def peek(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.toks[i][0] if i < len(self.toks) else None

    def where(self) -> int:
        return self.toks[self.pos][1] if self.pos < len(self.toks) else -1

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            raise FormulaError("unexpected end of input"
                               + (f", expected {expected!r}" if expected else ""))
        tok, at = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise FormulaError(f"expected {expected!r}, found {tok!r}", at)
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        if self.pos < len(self.toks):
            raise FormulaError(f"trailing input {self.peek()!r}", self.where())
        if _tree_depth(f) > MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")
        return f

    def _right_chain(self, op: str, operand, node) -> Formula:
        # a right-associative chain, read in a loop so that long chains do
        # not recurse
        parts = [operand()]
        while self.peek() == op:
            self.take()
            parts.append(operand())
        f = parts.pop()
        while parts:
            f = node(parts.pop(), f)
        return f

    def formula(self) -> Formula:
        return self._right_chain("<->", self.implies, Iff)

    def implies(self) -> Formula:
        return self._right_chain("->", self.disjunction, Implies)

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def _at_quantifier(self) -> bool:
        head = self.peek()
        if head == "A" or head == "E":
            # 'A x.' / 'E x.' — require a variable then a dot
            return (self.peek(1) is not None and is_identifier(self.peek(1))
                    and self.peek(2) == ".")
        return False

    def unary(self) -> Formula:
        # every nested subformula (negation, quantifier body, parentheses)
        # is parsed through here, so this counts the parser's recursion
        if self.depth == MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels",
                               self.where())
        self.depth += 1
        try:
            return self._unary()
        finally:
            self.depth -= 1

    def _unary(self) -> Formula:
        head = self.peek()
        if head == "~":
            self.take()
            return Not(self.unary())
        if head == "E" and self.peek(1) == "!":
            return self.quantifier()
        if self._at_quantifier():
            return self.quantifier()
        return self.primary()

    def quantifier(self) -> Formula:
        kind = self.take()
        count = None
        if kind == "E" and self.peek() == "!":
            self.take("!")
            at = self.where()
            num = self.take()
            if not num.isdigit():
                raise FormulaError(f"expected a count after 'E!', found {num!r}", at)
            count = int(num)
        at = self.where()
        var = self.take()
        if not is_identifier(var):
            raise FormulaError(f"illegal variable name {var!r}", at)
        if var in self.bound:
            raise FormulaError(f"variable {var!r} is quantified twice on one branch", at)
        self.take(".")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        if count is not None:
            return ExactCount(count, var, body)
        return Forall(var, body) if kind == "A" else Exists(var, body)

    def primary(self) -> Formula:
        head = self.peek()
        if head == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        at = self.where()
        if head is None:
            raise FormulaError("unexpected end of input, expected an atom")
        if not re.fullmatch(r"[A-Za-z0-9_]+", head):
            raise FormulaError(f"expected an atom, found {head!r}", at)
        ident = self.take()
        if self.peek() == "(":
            if not self.sig.has(ident):
                raise FormulaError(f"unknown relation {ident!r}", at)
            self.take("(")
            args = [self._term()]
            while self.peek() == ",":
                self.take(",")
                args.append(self._term())
            self.take(")")
            arity = self.sig.arity(ident)
            if len(args) != arity:
                raise FormulaError(
                    f"relation {ident!r} has arity {arity}, got {len(args)} arguments", at)
            return Atom(ident, tuple(args))
        if self.peek() == "=":
            self.take("=")
            return Eq(ident, self._term())
        raise FormulaError(f"expected '(' or '=' after {ident!r}", self.where())

    def _term(self) -> str:
        at = self.where()
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise FormulaError(f"expected a term, found {tok!r}", at)
        return tok


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
    return _FParser(text, sig).parse()


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
    op, level = _BINARY[type(f)]
    right_assoc = isinstance(f, (Implies, Iff))
    ltext, ldang = _fmt(f.left, level + 1 if right_assoc else level)
    if ldang:
        ltext = "(" + ltext + ")"
    rtext, rdang = _fmt(f.right, level if right_assoc else level + 1)
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
