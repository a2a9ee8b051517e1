"""Finite relational first-order structures and their text format.

A structure is a finite universe of elements 0..n-1, each carrying a name,
together with a relational signature and one table of tuples per relation.
Structures are immutable once built; every operation here is a pure read, so
concurrent use needs no coordination.

The text format::

    structure <Name> {
      universe = { id1, id2, ... }
      rel <R>/<arity> = { (id,...), (id,...), ... }
    }

is whitespace-insensitive, ``#`` starts a line comment, relation and structure
names are ordinary identifiers, and element names may additionally begin with
a digit (so field encodings can name their elements ``0`` and ``1``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import CapError, DslError, StructureError

#: Largest universe `load_structure` accepts by default.  Everything downstream
#: (automorphism search, subgroup lattices, subset enumeration) is designed to
#: terminate comfortably at this desk scale.
DEFAULT_UNIVERSE_CAP = 16

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ELEMENT_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def is_identifier(text: str) -> bool:
    """True for a plain identifier: letter or underscore first, then word chars."""
    return bool(_IDENT_RE.match(text))


def is_element_name(text: str) -> bool:
    """True for a legal element name (identifier, or digit-leading word)."""
    return bool(_ELEMENT_RE.match(text))


@dataclass(frozen=True)
class Signature:
    """A purely relational signature: named relations with positive arities."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.relations:
            if not is_identifier(name):
                raise StructureError(f"illegal relation name {name!r}")
            if name in seen:
                raise StructureError(f"duplicate relation name {name!r}")
            seen.add(name)
            if arity < 1:
                raise StructureError(f"relation {name!r} has arity {arity}; must be >= 1")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.relations)

    def arity(self, name: str) -> int:
        for n, a in self.relations:
            if n == name:
                return a
        raise StructureError(f"unknown relation {name!r}")


class Structure:
    """An immutable finite relational structure.

    Elements are dense indices ``0..size-1`` in declaration order; ``labels``
    maps index to name and ``names`` maps name to index.  Relation tables are
    frozensets of index tuples.
    """

    def __init__(self, name: str, signature: Signature, labels: Iterable[str],
                 tables: dict[str, Iterable[tuple[int, ...]]]):
        labels = tuple(labels)
        if not labels:
            raise StructureError("universe must be non-empty")
        names: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if not is_element_name(lab):
                raise StructureError(f"illegal element name {lab!r}")
            if lab in names:
                raise StructureError(f"duplicate element name {lab!r}")
            names[lab] = i
        if not is_identifier(name):
            raise StructureError(f"illegal structure name {name!r}")

        frozen: dict[str, frozenset[tuple[int, ...]]] = {}
        for rel, arity in signature.relations:
            rows = frozenset(tuple(t) for t in tables.get(rel, ()))
            for t in rows:
                if len(t) != arity:
                    raise StructureError(
                        f"tuple {t} in {rel!r} has length {len(t)}, expected {arity}")
                for e in t:
                    if not 0 <= e < len(labels):
                        raise StructureError(f"tuple {t} in {rel!r} leaves the universe")
            frozen[rel] = rows
        extra = set(tables) - {r for r, _ in signature.relations}
        if extra:
            raise StructureError(f"tables for undeclared relations: {sorted(extra)}")

        self.name = name
        self.signature = signature
        self.size = len(labels)
        self.labels = labels
        self.names = names
        self.tables = frozen
        self._caches: dict[str, object] = {}

    # -- element bookkeeping -------------------------------------------------

    @property
    def universe(self) -> range:
        return range(self.size)

    def resolve(self, name: str) -> int:
        try:
            return self.names[name]
        except KeyError:
            raise StructureError(f"unknown element name {name!r}") from None

    def label(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise StructureError(f"element index {index} out of range")
        return self.labels[index]

    def ids(self, names: Iterable[str]) -> frozenset[int]:
        return frozenset(self.resolve(n) for n in names)

    def tuple_of(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.resolve(n) for n in names)

    def render_set(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label(i) for i in sorted(ids))

    def render_tuple(self, t: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label(i) for i in t)

    def check_subset(self, ids: Iterable[int], what: str = "set") -> frozenset[int]:
        out = frozenset(ids)
        for e in out:
            if not isinstance(e, int) or not 0 <= e < self.size:
                raise StructureError(f"{what} contains invalid element {e!r}")
        return out

    def check_tuple(self, t: Iterable[int], what: str = "tuple") -> tuple[int, ...]:
        out = tuple(t)
        for e in out:
            if not isinstance(e, int) or not 0 <= e < self.size:
                raise StructureError(f"{what} contains invalid element {e!r}")
        return out

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Structure)
                and self.name == other.name
                and self.signature == other.signature
                and self.labels == other.labels
                and self.tables == other.tables)

    __hash__ = None  # mutable cache inside; identity hashing would mislead

    def __repr__(self) -> str:
        rels = ", ".join(f"{r}/{a}" for r, a in self.signature.relations)
        return f"Structure({self.name!r}, |universe|={self.size}, rels=[{rels}])"


def eval_relation(M: Structure, name: str, t: tuple[int, ...]) -> bool:
    """Atomic satisfaction: is the tuple in the named relation's table?"""
    arity = M.signature.arity(name)
    t = M.check_tuple(t)
    if len(t) != arity:
        raise StructureError(f"relation {name!r} has arity {arity}, got tuple of length {len(t)}")
    return t in M.tables[name]


# -- text format -------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[{}()=,/]")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(body, pos)
            if not m:
                raise DslError(f"unexpected character {body[pos]!r}", lineno, pos + 1)
            toks.append(_Tok(m.group(), lineno, pos + 1))
            pos = m.end()
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def here(self) -> tuple[int, int]:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return t.line, t.col
        if self.toks:
            t = self.toks[-1]
            return t.line, t.col + len(t.text)
        return 1, 1

    def fail(self, message: str):
        line, col = self.here()
        raise DslError(message, line, col)

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            self.fail("unexpected end of input" + (f", expected {expected!r}" if expected else ""))
        tok = self.toks[self.pos]
        if expected is not None and tok.text != expected:
            self.fail(f"expected {expected!r}, found {tok.text!r}")
        self.pos += 1
        return tok.text

    def take_element(self) -> str:
        if self.pos >= len(self.toks) or not is_element_name(self.toks[self.pos].text):
            self.fail("expected an element name")
        return self.take()

    def take_identifier(self, what: str) -> str:
        if self.pos >= len(self.toks) or not is_identifier(self.toks[self.pos].text):
            self.fail(f"expected {what}")
        return self.take()


def load_structure(text: str, *, max_size: int = DEFAULT_UNIVERSE_CAP) -> Structure:
    """Parse structure text into a validated `Structure`.

    Universe order follows declaration order, so all downstream canonical
    orders are reproducible from the source text alone.
    """
    p = _Parser(_tokenize(text))
    p.take("structure")
    name = p.take_identifier("a structure name")
    p.take("{")

    p.take("universe")
    p.take("=")
    p.take("{")
    labels: list[str] = []
    seen = set()
    if p.peek() != "}":
        while True:
            line, col = p.here()
            lab = p.take_element()
            if lab in seen:
                raise DslError(f"duplicate element name {lab!r}", line, col)
            seen.add(lab)
            labels.append(lab)
            if p.peek() == ",":
                p.take(",")
                continue
            break
    p.take("}")
    if not labels:
        p.fail("universe must contain at least one element")
    if len(labels) > max_size:
        raise CapError(f"universe has {len(labels)} elements; cap is {max_size}")
    index = {lab: i for i, lab in enumerate(labels)}

    rels: list[tuple[str, int]] = []
    tables: dict[str, set[tuple[int, ...]]] = {}
    while p.peek() == "rel":
        p.take("rel")
        rline, rcol = p.here()
        rel = p.take_identifier("a relation name")
        if rel in tables:
            raise DslError(f"duplicate relation name {rel!r}", rline, rcol)
        p.take("/")
        aline, acol = p.here()
        arity_tok = p.take()
        if not arity_tok.isdigit() or int(arity_tok) < 1:
            raise DslError(f"arity must be a positive integer, found {arity_tok!r}", aline, acol)
        arity = int(arity_tok)
        p.take("=")
        p.take("{")
        rows: set[tuple[int, ...]] = set()
        while p.peek() == "(":
            p.take("(")
            entry: list[int] = []
            while True:
                eline, ecol = p.here()
                lab = p.take_element()
                if lab not in index:
                    raise DslError(f"unknown element name {lab!r}", eline, ecol)
                entry.append(index[lab])
                if p.peek() == ",":
                    p.take(",")
                    continue
                break
            tline, tcol = p.here()
            p.take(")")
            if len(entry) != arity:
                raise DslError(
                    f"tuple of length {len(entry)} in relation {rel!r} of arity {arity}",
                    tline, tcol)
            rows.add(tuple(entry))
            if p.peek() == ",":
                p.take(",")
                continue
            break
        p.take("}")
        rels.append((rel, arity))
        tables[rel] = rows

    p.take("}")
    if p.peek() is not None:
        p.fail(f"trailing input {p.peek()!r}")

    return Structure(name, Signature(tuple(rels)), labels, tables)


def dump_structure(M: Structure) -> str:
    """Serialize back to canonical text; `load_structure` round-trips it."""
    lines = [f"structure {M.name} {{"]
    lines.append("  universe = { " + ", ".join(M.labels) + " }")
    for rel, arity in M.signature.relations:
        rows = sorted(M.tables[rel])
        body = ", ".join("(" + ", ".join(M.labels[e] for e in t) + ")" for t in rows)
        lines.append(f"  rel {rel}/{arity} = {{ {body} }}" if body
                     else f"  rel {rel}/{arity} = {{ }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
