"""Finite relational first-order structures and their text format.

A structure is a finite universe of elements 0..n-1, each carrying a name,
together with a relational signature and one table of tuples per relation.
A structure's universe, names and relation tables never change once built.
Facts derived from it (its automorphism group, and what other modules compute
from that) are memoized in place, in the structure's `_caches`.

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

#: Largest universe `load_structure` accepts.  Everything downstream
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
    """A finite relational structure whose relation data never changes.

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


# -- text format -------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[{}()=,/]")
# A character that is neither whitespace nor part of a token.  `re`'s \s
# matches exactly the code points for which str.isspace() is true.
_STRAY_RE = re.compile(r"[^A-Za-z0-9_{}()=,/\s]")


def _tokenize(lines: list[str]) -> tuple[list[str], list[int]]:
    """The tokens of the comment-stripped lines, and each token's line number.

    Every line is scanned before parsing begins, so an unexpected character
    anywhere in the text is reported ahead of an earlier syntax error.
    """
    toks: list[str] = []
    where: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0]
        stray = _STRAY_RE.search(body)
        if stray:
            raise DslError(f"unexpected character {stray.group()!r}", lineno, stray.start() + 1)
        found = _TOKEN_RE.findall(body)
        toks += found
        where += [lineno] * len(found)
    return toks, where


def _position(lines: list[str], toks: list[str], where: list[int], i: int) -> tuple[int, int]:
    """Line and column of token ``i``; past the last token, the column after it.

    Only errors need a column, so it is recomputed here by rescanning the line.
    """
    if i >= len(where):
        if not where:
            return 1, 1
        line, col = _position(lines, toks, where, len(where) - 1)
        return line, col + len(toks[len(where) - 1])
    line = where[i]
    body = lines[line - 1].split("#", 1)[0]
    starts = [m.start() for m in _TOKEN_RE.finditer(body)]
    return line, starts[i - where.index(line)] + 1


def load_structure(text: str) -> Structure:
    """Parse structure text into a validated `Structure`.

    Universe order follows declaration order, so all downstream canonical
    orders are reproducible from the source text alone.
    """
    lines = text.splitlines()
    toks, where = _tokenize(lines)
    toks.append("")  # end sentinel: equal to no keyword, punctuation or name

    def fail(message: str, i: int):
        raise DslError(message, *_position(lines, toks, where, i))

    def expect(i: int, word: str) -> int:
        if toks[i] != word:
            fail(f"expected {word!r}, found {toks[i]!r}" if toks[i]
                 else f"unexpected end of input, expected {word!r}", i)
        return i + 1

    i = expect(0, "structure")
    name = toks[i]
    if not is_identifier(name):
        fail("expected a structure name", i)
    i += 1
    for word in ("{", "universe", "=", "{"):
        i = expect(i, word)

    index: dict[str, int] = {}
    if toks[i] != "}":
        while True:
            lab = toks[i]
            if not is_element_name(lab):
                fail("expected an element name", i)
            if lab in index:
                fail(f"duplicate element name {lab!r}", i)
            index[lab] = len(index)
            i += 1
            if toks[i] != ",":
                break
            i += 1
    i = expect(i, "}")
    if not index:
        fail("universe must contain at least one element", i)
    if len(index) > DEFAULT_UNIVERSE_CAP:
        raise CapError(
            f"universe has {len(index)} elements; cap is {DEFAULT_UNIVERSE_CAP}")

    rels: list[tuple[str, int]] = []
    tables: dict[str, set[tuple[int, ...]]] = {}
    while toks[i] == "rel":
        rel = toks[i + 1]
        if not is_identifier(rel):
            fail("expected a relation name", i + 1)
        if rel in tables:
            fail(f"duplicate relation name {rel!r}", i + 1)
        i = expect(i + 2, "/")
        tok = toks[i]
        if not tok:
            fail("unexpected end of input", i)
        try:
            arity = int(tok) if tok.isdigit() else 0
        except ValueError:  # more digits than int() converts
            fail(f"arity of {len(tok)} digits is too large", i)
        if arity < 1:
            fail(f"arity must be a positive integer, found {tok!r}", i)
        i = expect(expect(i + 1, "="), "{")
        rows: set[tuple[int, ...]] = set()
        while toks[i] == "(":
            i += 1
            entry: list[int] = []
            while True:
                e = index.get(toks[i])
                if e is None:
                    fail(f"unknown element name {toks[i]!r}" if is_element_name(toks[i])
                         else "expected an element name", i)
                entry.append(e)
                i += 1
                if toks[i] != ",":
                    break
                i += 1
            expect(i, ")")
            if len(entry) != arity:
                fail(f"tuple of length {len(entry)} in relation {rel!r} of arity {arity}", i)
            rows.add(tuple(entry))
            i += 1
            if toks[i] != ",":
                break
            i += 1
        i = expect(i, "}")
        rels.append((rel, arity))
        tables[rel] = rows

    i = expect(i, "}")
    if toks[i]:
        fail(f"trailing input {toks[i]!r}", i)
    return Structure(name, Signature(tuple(rels)), tuple(index), tables)


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
