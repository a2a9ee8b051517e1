"""Closures, degrees, extensions, the Fix duality, finite-set codes, and the
mechanical verification routines built on them.

Conventions used throughout (recorded once):

* The finite structure M itself plays the role of the ambient model.  In a
  finite structure, a set is invariant under Aut(M/A) exactly when it is
  A-definable, partial elementary self-maps extend to automorphisms, and all
  orbits are finite, so the formula-based and orbit-based definitions of
  definable/algebraic closure coincide.
* `dcl(M, A)` is therefore the fixed-point set of Aut(M/A), and `acl(M, A)`
  collects the elements whose Aut(M/A)-orbit is finite, which in a finite
  structure is every element (see `acl`).
* Bounded searches (generators, codes) report "no answer within the bound"
  rather than absolute non-existence, except where a stabilizer argument
  (see `find_code`) or a bound past the candidate pool's size (see
  `_candidate_tuples`) makes the bounded answer exact.

No operation changes a structure's relation data or a group's chain.
Derived facts (automorphism groups, fixed-point sets, element tables,
stabilizers) are memoized in place on the structures and groups that own
them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from math import comb, perm as arrangements
from typing import Iterable, Sequence

from . import formula as fm
from . import perm
from .aut import (automorphism_group, automorphism_group_fixing, relative_aut,
                  relative_restriction)
from .errors import (CapError, EvalError, FieldEncodingError, HypothesisError,
                     InconclusiveError, InternalCheckError, NotInvariantError,
                     StructureError)
from .perm import (PermGroup, _bits, _check_cap, _is_invariant, is_normal_subgroup,
                   orbit, restrict_to_invariant_set, stabilizer_pointwise)
from .structure import Structure

#: Default bound for generator and code tuple searches.
DEFAULT_MAX_LEN = 3

#: Most entry sets one generator, splitting or code search tries before it
#: stops with `CapError`; each can cost a stabilizer closure.  At the default
#: bound a 16-element pool has 697 sets of up to 3 entries; a 64-element one
#: has 43,745, and a search that finds nothing stops after 4,000 of them.
TUPLE_SEARCH_CAP = 4_000

#: Most point images one `codes_finite_sets` call computes: each orbit
#: representative of a set costs |Aut(M)| times its size, once for its orbit
#: and its setwise stabilizer together.
CODES_WORK_CAP = 1_000_000

#: Most coefficients one `multisymmetric_code` expansion builds: m tuples of
#: length n have C(m + n, n) - 1.
MSYM_TERM_CAP = 10_000


def _candidate_tuples(pool: Sequence[int], shortest: int, longest: int):
    """Each set of entries from the ascending `pool` once, as an ascending
    tuple, by length and then in lexicographic order.

    Each search's test reads only a candidate's entry set.  A tuple with a
    repeated entry has the set of a shorter one, and the ascending ordering
    of a set comes first, so the first success is the one all tuples over
    the pool, in the same order, would reach.  Once `longest` reaches the
    pool's size every set is tried.  Past `TUPLE_SEARCH_CAP` candidates the
    search raises `CapError`.
    """
    tried = 0
    for length in range(shortest, min(longest, len(pool)) + 1):
        for cand in combinations(pool, length):
            tried += 1
            if tried > TUPLE_SEARCH_CAP:
                raise CapError(f"tuple search passed {TUPLE_SEARCH_CAP} candidates "
                               f"at length {length} (max_len {longest})")
            yield cand


# -- rendering --------------------------------------------------------------------


def fmt_set(names: Iterable[str]) -> str:
    """A set written by its members' names: ``{a, b}``."""
    return "{" + ", ".join(names) + "}"


def fmt_tuple(M: Structure, t: Iterable[int]) -> str:
    """A tuple of elements by their names: ``(a, b)``."""
    return "(" + ", ".join(M.render_tuple(t)) + ")"


def fmt_group(generators: Sequence[str]) -> str:
    """A group by its generators in cycle notation: ``<(0 1), (2 3)>``; the
    trivial group is ``<()>``."""
    return "<" + (", ".join(generators) or "()") + ">"


# -- closures ---------------------------------------------------------------------


def dcl(M: Structure, A: Iterable[int]) -> frozenset[int]:
    """Definable closure: the fixed points of Aut(M/A).  Contains A; idempotent.

    `automorphism_group_fixing` checks A; the group keeps its fixed points.
    """
    return automorphism_group_fixing(M, A).fixed_points()


def acl(M: Structure, A: Iterable[int]) -> frozenset[int]:
    """Algebraic closure: elements with a finite orbit under Aut(M/A).

    Every orbit in a finite structure is finite: the orbit of x is a set of
    elements of the universe, so it has at most `M.size` members.  Every
    element is therefore algebraic over any A, and the closure is the whole
    universe; only A is checked.
    """
    M.check_subset(A, "parameter set")
    return frozenset(range(M.size))


# -- orbits and degrees -------------------------------------------------------------


def orbit_over(M: Structure, b: Sequence[int],
               A: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The orbit of tuple b under Aut(M/A), in canonical order; its size is
    the degree of b over A, and it is the solution set of a minimal formula
    over A isolating b."""
    A = M.check_subset(A, "parameter set")
    b = M.check_tuple(b)
    return orbit(automorphism_group_fixing(M, A), b)


def is_irreducible_formula(M: Structure, f: fm.Formula, b: Sequence[int],
                           A: Iterable[int]) -> bool:
    """Does the formula isolate exactly the orbit of b over A?

    True iff b solves f and the solution set of f equals the orbit of b under
    Aut(M/A) (no formula over A has fewer solutions than the orbit, so orbit
    equality is minimality).  The formula's parameters must lie in A; its free
    variables, in first-occurrence order, are matched positionally to b.
    """
    A = M.check_subset(A, "parameter set")
    b = M.check_tuple(b)
    for p in fm.parameters(f, M.names):
        if M.names[p] not in A:
            raise EvalError(f"parameter {p!r} lies outside the allowed set")
    variables = fm.free_variables(f, M.names)
    if len(variables) != len(b):
        raise EvalError(
            f"formula has {len(variables)} free variables, tuple has length {len(b)}")
    sols = fm.solution_set(M, f, variables)
    if b not in sols:
        return False
    return set(sols) == set(orbit_over(M, b, A))


# -- finite extensions ----------------------------------------------------------------


def _extension(M: Structure, A: Iterable[int],
               B: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Check A as the base set and B as the extension set, with A <= B."""
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    return A, B


def find_generator(M: Structure, A: Iterable[int], B: Iterable[int],
                   max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...] | None:
    """A shortest tuple over B whose entries, together with A, define all of B.

    Lengths 0..max_len are tried in ascending lexicographic order; None means
    no generating tuple exists within the bound (bounded non-existence), and
    no generating tuple at all once max_len reaches |B|.

    Lengths too short to generate are skipped, exactly.  With G = Aut(M/A),
    a set s inside B generates B when its pointwise stabilizer in G is
    Aut(M/B), that is when the orbit of s as a tuple has |G : Aut(M/B)|
    members.  G fixes dcl(A) and permutes the m other elements, so a k-tuple
    has at most P(m, min(k, m)) images, and no length whose bound is below
    the index can generate.  The index costs a stabilizer closure; it is
    computed only when |G| > P(m, 2), since otherwise the bound could skip
    length 1 alone.
    """
    A, B = _extension(M, A, B)
    G = automorphism_group_fixing(M, A)
    closed = G.fixed_points()
    if B <= closed:
        return ()
    m = M.size - len(closed)
    shortest = 1
    if G.order > arrangements(m, 2):
        index = G.order // automorphism_group_fixing(M, B).order
        shortest = next((k for k in range(1, max_len + 1)
                         if arrangements(m, min(k, m)) >= index), max_len + 1)
    for cand in _candidate_tuples(sorted(B), shortest, max_len):
        if B <= dcl(M, A | frozenset(cand)):
            return cand
    return None


def degree_of_extension(M: Structure, A: Iterable[int], B: Iterable[int],
                        max_len: int = DEFAULT_MAX_LEN) -> int:
    """Size of the orbit of a generating tuple of B over A.

    Independent of the generator chosen (property-tested); raises
    `InconclusiveError` when no generator is found within the bound.
    """
    gen = find_generator(M, A, B, max_len)
    if gen is None:
        raise InconclusiveError(
            f"no generating tuple of length <= {max_len}; degree undetermined")
    return len(orbit_over(M, gen, A))


def is_normal_extension(M: Structure, A: Iterable[int], B: Iterable[int]) -> bool:
    """Does B contain the whole A-orbit of each of its elements?

    Checked on single elements only: the action on tuples is coordinatewise,
    so element orbits inside B give tuple orbits inside powers of B.  B holds
    the orbits of its elements exactly when Aut(M/A) maps B onto itself,
    which its generators decide.
    """
    A, B = _extension(M, A, B)
    return _is_invariant(automorphism_group_fixing(M, A), B)


def is_splitting_extension(M: Structure, A: Iterable[int], B: Iterable[int],
                           max_len: int = DEFAULT_MAX_LEN
                           ) -> tuple[bool, tuple[int, ...] | None]:
    """Is B generated over A by one complete orbit?

    Searches witnesses b over B by ascending length (empty tuple first, then
    singletons, pairs, ...); returns (True, b) where the orbit of b stays in B
    and B is definable from A plus that orbit, else (False, None).

    The test reads only the entries of b's orbit, and those are the union of
    the orbits of b's entries: the tuples g(b) for g in Aut(M/A) have entries
    g(b_i), and as g runs over the group, g(b_i) runs over the orbit of b_i.
    So no tuple orbit is built.  Both tests read only A plus the entries (A
    lies in B, so the entries lie in B exactly when A plus the entries do).
    Different entry sets can give one union, and a union already tried is
    skipped: `dcl` runs at most once per union.
    """
    A, B = _extension(M, A, B)
    orbits = automorphism_group_fixing(M, A).point_orbits()
    tried: set[frozenset[int]] = set()
    for cand in _candidate_tuples(sorted(B), 0, max_len):
        over = A.union(*map(orbits.__getitem__, cand))
        if over in tried:
            continue
        tried.add(over)
        if over <= B and B <= dcl(M, over):
            return True, cand
    return False, None


def extension_aut_order(M: Structure, B: Iterable[int], A: Iterable[int],
                        max_len: int = DEFAULT_MAX_LEN) -> int:
    """|Aut(B/A)| for a finite extension A <= B.

    When B is invariant under Aut(M/A) this is the order of the restriction
    image.  Otherwise the self-maps of B are proper partial elementary maps;
    their number equals the number of orbit points of a generating tuple that
    stay inside B, which is what is returned.
    """
    A, B = _extension(M, A, B)
    G = automorphism_group_fixing(M, A)
    if _is_invariant(G, B):
        return relative_restriction(M, B, A).image.order
    gen = find_generator(M, A, B, max_len)
    if gen is None:
        raise InconclusiveError(
            f"no generating tuple of length <= {max_len}; group order undetermined")
    return sum(1 for t in orbit(G, gen) if all(e in B for e in t))


# -- the Fix duality ---------------------------------------------------------------


def fix_of_subgroup(M: Structure, C: Iterable[int], H: PermGroup) -> frozenset[int]:
    """Elements of C fixed pointwise by every member of H.

    H must act on C via positions in ascending element order (as produced by
    `relative_aut`).  The result is always definably closed inside C; this is
    asserted, and a violation means H was not made of restrictions of
    automorphisms.
    """
    C = M.check_subset(C, "top set")
    points = sorted(C)
    if H.degree != len(points):
        raise StructureError(
            f"group of degree {H.degree} does not act on a set of {len(points)} elements")
    fixed = frozenset(points[i] for i in H.fixed_points())
    _require_closed_in(M, C, fixed)
    return fixed


def _require_closed_in(M: Structure, C: frozenset[int], fixed: frozenset[int]) -> None:
    if dcl(M, fixed) & C != fixed:
        raise InternalCheckError(
            "fixed set of the subgroup is not definably closed within the top set; "
            "the subgroup cannot consist of restrictions of automorphisms")


def fix_of_set(M: Structure, C: Iterable[int], A: Iterable[int],
               B: Iterable[int]) -> PermGroup:
    """The subgroup of Aut(C/A) fixing B pointwise, for A <= B <= C."""
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "middle set")
    C = M.check_subset(C, "top set")
    if not (A <= B and B <= C):
        raise StructureError("sets must be nested: base <= fixed <= top")
    G = relative_aut(M, C, A)
    points = sorted(C)
    positions = tuple(points.index(e) for e in sorted(B))
    return stabilizer_pointwise(G, positions)


# -- codes for finite sets of tuples ----------------------------------------------


def _mask(points: Iterable[int]) -> int:
    out = 0
    for e in points:
        out |= 1 << e
    return out


def find_code(M: Structure, F: Iterable[Sequence[int]],
              max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...] | None:
    """A tuple fixed by exactly the automorphisms fixing F setwise, or None.

    Any code must have all entries among the fixed points of the setwise
    stabilizer of F, so the search runs over those elements only, by length
    then lexicographic order.  Within that restriction the stabilizer
    comparison is exact for every tuple up to the bound; in particular, when
    the setwise stabilizer fixes nothing, the empty tuple is the only
    candidate at any length and None is a certificate, not just a bound.

    Runs on Aut(M)'s cached element table: the setwise stabilizer is a mask
    over the table, the candidates are the AND of its members' fixed-point
    masks, and a candidate's pointwise stabilizer has as many elements as
    there are fixed-point masks containing the candidate's entries.  Since
    the setwise stabilizer fixes every candidate, equal counts mean equal
    stabilizers.
    """
    tuples = {M.check_tuple(t, "set member") for t in F}
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise StructureError(f"mixed tuple lengths in finite set: {sorted(lengths)}")
    table = automorphism_group(M).element_table()
    return _code_for_setwise(table, table.setwise(tuples), max_len)


def _code_for_setwise(table: perm.ElementTable, setwise: int,
                      max_len: int) -> tuple[int, ...] | None:
    """`find_code`'s search, given the setwise stabilizer as a table mask."""
    target = setwise.bit_count()
    candidates = list(_bits(table.fixed(setwise)))
    for cand in _candidate_tuples(candidates, 0, max_len):
        if table.pointwise_order(_mask(cand)) == target:
            return cand
    return None


@dataclass(frozen=True)
class CodesReport:
    """Outcome of checking codes for all small sets of elements, one orbit
    representative per Aut(M)-orbit of sets."""

    structure: str
    max_set_size: int
    max_len: int
    sets_checked: int
    failures: tuple[tuple[str, ...], ...]  # element names of each uncoded set

    @property
    def verdict(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": "pass" if self.verdict else "fail"}


def codes_finite_sets(M: Structure, max_set_size: int = 2,
                      max_len: int = DEFAULT_MAX_LEN) -> CodesReport:
    """Check that every set of up to `max_set_size` elements has a code.

    Iterates one representative per automorphism orbit of sets (an image of a
    coded set is coded by the image tuple, so orbits stand or fall together)
    and reports each representative lacking a code within the length bound.
    Each representative is mapped once under every element of Aut(M), which
    gives its orbit and its setwise stabilizer together; it is counted as
    |Aut(M)| times its size point images before it is mapped, and past
    `CODES_WORK_CAP` the check raises `CapError`.
    """
    if max_set_size < 1 or max_len < 0:
        raise StructureError("caps must be positive")
    table = automorphism_group(M).element_table()
    elems = table.elements
    reps: list[tuple[tuple[int, ...], int]] = []  # (representative, setwise mask)
    seen: set[tuple[int, ...]] = set()
    work = 0
    for size in range(1, min(max_set_size, M.size) + 1):
        for combo in combinations(range(M.size), size):
            if combo in seen:
                continue
            work += len(elems) * size
            if work > CODES_WORK_CAP:
                raise CapError(f"codes report passed {CODES_WORK_CAP} point images")
            # combinations come in lexicographic order, so the first one of
            # its orbit met is the orbit's least member, its representative
            setwise = 0
            for k, g in enumerate(elems):
                image = tuple(sorted(g[e] for e in combo))
                seen.add(image)
                if image == combo:
                    setwise |= 1 << k
            reps.append((combo, setwise))
    failures = [M.render_set(rep) for rep, setwise in reps
                if _code_for_setwise(table, setwise, max_len) is None]
    return CodesReport(structure=M.name, max_set_size=max_set_size, max_len=max_len,
                       sets_checked=len(reps), failures=tuple(failures))


# -- multi-symmetric coefficient codes over field encodings -------------------------


@dataclass(frozen=True)
class FieldOps:
    """Field arithmetic recovered from add/3 and mul/3 relation graphs."""

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @staticmethod
    def from_structure(M: Structure) -> "FieldOps":
        got = M._caches.get("field")
        if got is not None:
            return got
        ops = _build_field_ops(M)
        M._caches["field"] = ops
        return ops


def _functional_table(M: Structure, rel: str) -> tuple[tuple[int, ...], ...]:
    n = M.size
    out = [[-1] * n for _ in range(n)]
    for (a, b, c) in M.tables[rel]:
        if out[a][b] != -1:
            raise FieldEncodingError(
                f"relation {rel!r} is not single-valued at ({M.label(a)}, {M.label(b)})")
        out[a][b] = c
    for a in range(n):
        for b in range(n):
            if out[a][b] == -1:
                raise FieldEncodingError(
                    f"relation {rel!r} is not total at ({M.label(a)}, {M.label(b)})")
    return tuple(tuple(row) for row in out)


def _build_field_ops(M: Structure) -> FieldOps:
    for rel in ("add", "mul"):
        if not M.signature.has(rel) or M.signature.arity(rel) != 3:
            raise FieldEncodingError(
                f"structure {M.name!r} does not carry a ternary {rel!r} relation")
    add = _functional_table(M, "add")
    mul = _functional_table(M, "mul")
    n = M.size

    def identity_of(table, name):
        ids = [e for e in range(n) if all(table[e][x] == x for x in range(n))]
        if len(ids) != 1:
            raise FieldEncodingError(f"no unique {name} identity")
        return ids[0]

    zero = identity_of(add, "additive")
    one = identity_of(mul, "multiplicative")
    if zero == one:
        raise FieldEncodingError("additive and multiplicative identities coincide")
    for a in range(n):
        for b in range(n):
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise FieldEncodingError("operation is not commutative")
            for c in range(n):
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise FieldEncodingError("addition is not associative")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise FieldEncodingError("multiplication is not associative")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise FieldEncodingError("distributivity fails")
        if all(add[a][b] != zero for b in range(n)):
            raise FieldEncodingError("an element has no additive inverse")
        if a != zero and all(mul[a][b] != one for b in range(n)):
            raise FieldEncodingError("a nonzero element has no multiplicative inverse")
    return FieldOps(size=n, add=add, mul=mul, zero=zero, one=one)


def multisymmetric_monomials(set_size: int, tuple_len: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors (T, U_1, ..., U_n) of total degree m in graded
    lexicographic order, leading T^m excluded."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest
    monos = sorted(compositions(set_size, tuple_len + 1), reverse=True)
    return tuple(m for m in monos if m != (set_size,) + (0,) * tuple_len)


def multisymmetric_code(M: Structure, F: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Code a finite set of tuples over a field-encoded structure by the
    coefficients of a product of linear forms.

    For F = {x_1, ..., x_m} with tuples of length n, expand the product of the
    forms (T + x_i1*U_1 + ... + x_in*U_n) in formal indeterminates and return
    the coefficients of all total-degree-m monomials except the leading T^m,
    in graded lexicographic order.  The code property (the pointwise
    stabilizer of the output equals the setwise stabilizer of F) is verified
    before returning; a failure would be an implementation bug and raises.
    """
    ops = FieldOps.from_structure(M)
    tuples = sorted({M.check_tuple(t, "set member") for t in F})
    if not tuples:
        raise StructureError("cannot code the empty set of tuples")
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise StructureError(f"mixed tuple lengths in finite set: {sorted(lengths)}")
    n = lengths.pop()
    if n < 1:
        raise StructureError("tuples must be non-empty")
    m = len(tuples)
    terms = comb(m + n, n) - 1
    if terms > MSYM_TERM_CAP:
        raise CapError(f"multisymmetric code has {terms} coefficients; "
                       f"cap is {MSYM_TERM_CAP}")

    poly: dict[tuple[int, ...], int] = {(0,) * (n + 1): ops.one}
    for x in tuples:
        form: dict[tuple[int, ...], int] = {}
        t_mono = (1,) + (0,) * n
        form[t_mono] = ops.one
        for j in range(n):
            if x[j] != ops.zero:
                mono = tuple(1 if k == j + 1 else 0 for k in range(n + 1))
                form[mono] = x[j]
        nxt: dict[tuple[int, ...], int] = {}
        for m1, c1 in poly.items():
            for m2, c2 in form.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                prev = nxt.get(mono, ops.zero)
                nxt[mono] = ops.add[prev][ops.mul[c1][c2]]
        poly = {mono: c for mono, c in nxt.items() if c != ops.zero}

    code = tuple(poly.get(mono, ops.zero)
                 for mono in multisymmetric_monomials(m, n))

    table = automorphism_group(M).element_table()
    if table.setwise(set(tuples)) != table.pointwise(_mask(code)):
        raise InternalCheckError(
            "coefficient tuple fails the stabilizer equality; this is a bug")
    return code


# -- duality verification -------------------------------------------------------------


@dataclass(frozen=True)
class DualityFailure:
    """One broken closure identity in the subgroup/set correspondence."""

    kind: str            # "subgroup" (Fix(Fix(H)) != H), the only kind that occurs
    subject: str
    subject_order: int   # |H|
    closure: str         # rendering of Fix(Fix(subject))
    closure_order: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GaloisReport:
    """Structured verdict of checking the subgroup/intermediate-set duality."""

    structure: str
    base: tuple[str, ...]
    top: tuple[str, ...]
    group_order: int
    subgroups: tuple[tuple[str, ...], ...]
    intermediates: tuple[tuple[str, ...], ...]
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    failures: tuple[DualityFailure, ...]
    coding_ok: bool | None
    coding_failures: tuple[str, ...]

    @property
    def subgroup_count(self) -> int:
        return len(self.subgroups)

    @property
    def intermediate_count(self) -> int:
        return len(self.intermediates)

    @property
    def verdict(self) -> bool:
        return not self.failures and self.subgroup_count == self.intermediate_count

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "top": list(self.top),
            "group_order": self.group_order,
            "subgroups": [list(s) for s in self.subgroups],
            "intermediates": [list(b) for b in self.intermediates],
            "pairs": [{"subgroup": list(h), "fixed": list(b)} for h, b in self.pairs],
            "failures": [f.to_json_dict() for f in self.failures],
            "coding": ("pass" if self.coding_ok
                       else "inconclusive" if self.coding_ok is None else "fail"),
            "verdict": "pass" if self.verdict else "fail",
        }


def verify_galois_correspondence(M: Structure, A: Iterable[int], C: Iterable[int],
                                 max_len: int = DEFAULT_MAX_LEN) -> GaloisReport:
    """Check the two closure identities of the subgroup/intermediate-set duality.

    Inputs are replaced by their definable closures first (all notions in play
    are invariant under that replacement, and it lets rigid structures be
    checked from the empty base); the top set must then be a normal extension
    of the base (a union of orbits over it, which `relative_restriction`
    tests), or the hypotheses fail and an error is raised.

    Enumerates every subgroup H of Aut(C/A) and every definably closed
    intermediate set (as dcl(A + S) over all S inside C, deduplicated), checks
    Fix(Fix(H)) = H, and records each violation.  The other identity,
    Fix(Fix(B)) = B, holds for every B that is some Fix(H), as each
    intermediate set is (Fix∘Aut∘Fix = Fix in any Galois connection), so it
    is not checked here; `tests/oracles.py` checks it independently.  Also
    reports whether each subgroup's orbit of a generator of C over A admits a
    code, the ingredient that makes the duality work.

    Both sides run on bitmasks over the relative group's cached element
    table, whose elements carry their fixed-point sets as masks over the
    positions of C.  A subgroup is its mask from `ElementTable.subgroups`,
    rendered by its minimal generators; no group is closed for it.  Fix(H)
    is the AND of its members' fixed-point masks, and Fix(Fix(H)) is the mask
    of elements whose fixed-point mask contains Fix(H).  dcl(A + S) for S
    inside C is the intersection of the fixed sets containing S (a
    stabilizer of S in Aut(M/A) restricts into Aut(C/A), and dcl(A + S)
    stays inside the definably closed C).  Every such intersection is the
    fixed set of the subgroup its elements generate, so the intermediate
    sets are exactly the distinct Fix(H) the lattice walk reads.  Each is
    checked once to be definably closed inside C, and a failing subgroup's
    closure group comes from `fix_of_set` for its rendering; the relative
    group keeps its pointwise stabilizers, so it is closed once per distinct
    fixed set.
    """
    A0 = M.check_subset(A, "base set")
    C0 = M.check_subset(C, "top set")
    if not A0 <= C0:
        raise StructureError("base set must be contained in the top set")
    A = dcl(M, A0)
    C = dcl(M, C0)
    try:
        restr = relative_restriction(M, C, A)
    except NotInvariantError:
        raise HypothesisError(
            "top set is not a normal extension of the base: some orbit leaves it") from None
    G = restr.image
    points = restr.points
    if G.order > perm.DEFAULT_SUBGROUP_CAP:
        raise CapError(
            f"relative group order {G.order} exceeds cap {perm.DEFAULT_SUBGROUP_CAP}")
    table = G.element_table()
    lattice = table.subgroups()

    def elements_of(positions: int) -> frozenset[int]:
        return frozenset(points[i] for i in _bits(positions))

    pairs = []
    failures = []
    fixed_masks = set()
    for mask, gens in lattice:
        gen_strings = tuple(str(g) for g in table.perms(gens))
        fixed_mask = table.fixed(mask)
        fixed_masks.add(fixed_mask)
        fixed = elements_of(fixed_mask)
        pairs.append((gen_strings, M.render_set(fixed)))
        if table.pointwise(fixed_mask) != mask:
            closure = fix_of_set(M, C, A, fixed)
            failures.append(DualityFailure(
                kind="subgroup",
                subject=fmt_group(gen_strings),
                subject_order=mask.bit_count(),
                closure=fmt_group(closure.generator_strings()),
                closure_order=closure.order,
            ))

    # The intermediate sets: the subgroups' distinct fixed sets.  Nothing here
    # enumerates Aut(M/A), but a check whose Aut(M/A) is past the element cap
    # is refused all the same.
    _check_cap(automorphism_group_fixing(M, A).order)
    intermediates = sorted((elements_of(b) for b in fixed_masks),
                           key=lambda B: (len(B), sorted(B)))
    for B in intermediates:
        closed = dcl(M, B)
        if not closed <= C:
            raise InternalCheckError("an intermediate closure escapes the top set")
        if closed != B:
            raise InternalCheckError("an intermediate set is not definably closed")

    # Coding of the subgroup orbits of a generator: the sets whose codes the
    # duality consumes.
    gen = find_generator(M, A, C, max_len)
    coding_failures = []
    if gen is None:
        coding_ok = None
    else:
        gen_positions = tuple(points.index(e) for e in gen)
        for mask, _ in lattice:
            F = {tuple(points[table.elements[i][p]] for p in gen_positions)
                 for i in _bits(mask)}
            if find_code(M, F, max_len) is None:
                coding_failures.append(fmt_set(fmt_tuple(M, t) for t in sorted(F)))
        coding_ok = not coding_failures

    return GaloisReport(
        structure=M.name,
        base=M.render_set(A),
        top=M.render_set(C),
        group_order=G.order,
        subgroups=tuple(gens for gens, _ in pairs),
        intermediates=tuple(M.render_set(B) for B in intermediates),
        pairs=tuple(pairs),
        failures=tuple(failures),
        coding_ok=coding_ok,
        coding_failures=tuple(coding_failures),
    )


# -- tower verification ----------------------------------------------------------------


@dataclass(frozen=True)
class TowerCheck:
    """One verified law: its status is "pass", "fail", or "skip" when its
    hypotheses do not apply."""

    name: str
    status: str
    detail: str


def _status(holds: bool) -> str:
    return "pass" if holds else "fail"


@dataclass(frozen=True)
class TowerReport:
    """Degrees, group orders, normality and verified laws for a tower
    base <= mid <= top.  `degrees` and `orders` are keyed by pair
    (mid_over_base, top_over_mid, top_over_base); `normality` by
    mid_over_base, top_over_base, top_over_mid, and "subgroup" for whether
    the subgroup fixing the mid is normal (None when the top is not normal
    over the base)."""

    base: tuple[str, ...]
    mid: tuple[str, ...]
    top: tuple[str, ...]
    degrees: dict[str, int]
    orders: dict[str, int]
    normality: dict[str, bool | None]
    checks: tuple[TowerCheck, ...]

    @property
    def verdict(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": _status(self.verdict)}


def verify_tower(M: Structure, A: Iterable[int], B: Iterable[int],
                 C: Iterable[int], max_len: int = DEFAULT_MAX_LEN) -> TowerReport:
    """Verify the degree and group laws on a tower of definably closed sets.

    Inputs are first replaced by their definable closures (every quantity
    checked is invariant under that replacement, and it lets towers be named
    by generating sets, e.g. an empty base standing for the prime closure).

    Checks, with witnesses recorded per check: the degree product along the
    tower; degree = |Aut| exactly for the normal extensions among the three
    pairs; when mid and top are normal over the base, that restriction onto
    the mid is onto with kernel the top-over-mid group and multiplicative
    orders; the biconditional "fixing subgroup normal iff mid normal"; that a
    splitting mid extension is normal; and that a top normal over the base
    stays normal over the mid.
    """
    A0 = M.check_subset(A, "base set")
    B0 = M.check_subset(B, "middle set")
    C0 = M.check_subset(C, "top set")
    if not (A0 <= B0 and B0 <= C0):
        raise StructureError("sets must be nested: base <= mid <= top")
    A, B, C = dcl(M, A0), dcl(M, B0), dcl(M, C0)
    if not (A <= B and B <= C):
        raise InternalCheckError("definable closure broke the tower nesting")

    pairs = {"mid_over_base": (A, B), "top_over_mid": (B, C), "top_over_base": (A, C)}
    degrees = {key: degree_of_extension(M, lo, hi, max_len)
               for key, (lo, hi) in pairs.items()}
    orders = {key: extension_aut_order(M, hi, lo, max_len)
              for key, (lo, hi) in pairs.items()}
    normality = {key: is_normal_extension(M, *pairs[key])
                 for key in ("mid_over_base", "top_over_base", "top_over_mid")}
    d_ba, d_cb, d_ca = degrees.values()
    o_ba, o_cb, o_ca = orders.values()
    n_ba, n_ca, n_cb = normality.values()

    checks: list[TowerCheck] = []
    checks.append(TowerCheck(
        "degree_product", _status(d_ca == d_cb * d_ba),
        f"deg(top/base) = {d_ca}, deg(top/mid)*deg(mid/base) = {d_cb}*{d_ba}"))
    for key in pairs:
        deg, order, normal = degrees[key], orders[key], normality[key]
        checks.append(TowerCheck(
            f"degree_is_aut_order_iff_normal[{key.replace('_over_', '/')}]",
            _status((deg == order) == normal),
            f"deg = {deg}, |Aut| = {order}, normal = {normal}"))

    subgroup_normal = None
    if n_ba and n_ca:
        restr_ca = relative_restriction(M, C, A)
        G_ca = restr_ca.image
        positions = tuple(restr_ca.points.index(e) for e in sorted(B))
        inner = restrict_to_invariant_set(G_ca, positions)
        image_direct = relative_aut(M, B, A)
        kernel_direct = relative_aut(M, C, B)
        checks.append(TowerCheck(
            "restriction_onto_mid_group", _status(inner.image.equals(image_direct)),
            f"restriction image order {inner.image.order}, "
            f"|Aut(mid/base)| = {image_direct.order}"))
        checks.append(TowerCheck(
            "restriction_kernel_is_top_over_mid",
            _status(inner.kernel.equals(kernel_direct)),
            f"kernel order {inner.kernel.order}, |Aut(top/mid)| = {kernel_direct.order}"))
        checks.append(TowerCheck(
            "order_product", _status(o_ca == o_cb * o_ba),
            f"|Aut(top/base)| = {o_ca}, product = {o_cb}*{o_ba}"))
    else:
        detail = "mid and top are not both normal over the base"
        checks.append(TowerCheck("restriction_onto_mid_group", "skip", detail))
        checks.append(TowerCheck("restriction_kernel_is_top_over_mid", "skip", detail))
        checks.append(TowerCheck("order_product", "skip", detail))

    if n_ca:
        G = relative_aut(M, C, A)
        H = fix_of_set(M, C, A, B)
        subgroup_normal = is_normal_subgroup(H, G)
        checks.append(TowerCheck(
            "subgroup_normal_iff_mid_normal", _status(subgroup_normal == n_ba),
            f"subgroup normal = {subgroup_normal}, mid normal = {n_ba}"))
        checks.append(TowerCheck(
            "top_stays_normal_over_mid", _status(n_cb),
            f"top normal over mid = {n_cb} given top normal over base"))
    else:
        detail = "top is not normal over the base"
        checks.append(TowerCheck("subgroup_normal_iff_mid_normal", "skip", detail))
        checks.append(TowerCheck("top_stays_normal_over_mid", "skip", detail))
    normality["subgroup"] = subgroup_normal

    splits, witness = is_splitting_extension(M, A, B, max_len)
    if splits:
        checks.append(TowerCheck(
            "splitting_mid_is_normal", _status(n_ba),
            f"witness orbit of {fmt_tuple(M, witness)}, "
            f"mid normal = {n_ba}"))
    else:
        checks.append(TowerCheck(
            "splitting_mid_is_normal", "skip",
            f"mid is not a splitting extension within length {max_len}"))

    return TowerReport(
        base=M.render_set(A), mid=M.render_set(B), top=M.render_set(C),
        degrees=degrees, orders=orders, normality=normality, checks=tuple(checks))
