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
  makes the bounded answer exact (see `find_code`).

All operations are pure over immutable inputs; reports for different
structures may be computed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

from . import formula as fm
from . import perm
from .aut import (automorphism_group, automorphism_group_fixing, relative_aut,
                  relative_restriction)
from .errors import (CapError, EvalError, FieldEncodingError, HypothesisError,
                     InconclusiveError, InternalCheckError, StructureError)
from .perm import (PermGroup, _bits, _check_cap, _is_invariant, is_normal_subgroup,
                   orbit, restrict_to_invariant_set, stabilizer_pointwise)
from .structure import Structure

#: Default bound for generator and code tuple searches.
DEFAULT_MAX_LEN = 3

#: Most candidate tuples one generator, splitting or code search tries before
#: it stops with `CapError`.  With the default bound a search over a
#: 16-element universe tries at most 1 + 16 + 256 + 4096.
TUPLE_SEARCH_CAP = 100_000


def _candidate_tuples(pool: Sequence[int], shortest: int, longest: int):
    """Tuples over `pool` by ascending length, then in lexicographic order.

    Each search's test depends only on the set of a candidate's entries, and
    a tuple longer than the pool repeats an entry, so a shorter tuple with the
    same entries came earlier: lengths past ``len(pool)`` are skipped without
    changing any answer.  Candidates are counted as the search tries them, so
    a search that succeeds early costs what it did before; past
    `TUPLE_SEARCH_CAP` it raises `CapError`.
    """
    tried = 0
    for length in range(shortest, min(longest, len(pool)) + 1):
        for cand in product(pool, repeat=length):
            tried += 1
            if tried > TUPLE_SEARCH_CAP:
                raise CapError(f"tuple search passed {TUPLE_SEARCH_CAP} candidates "
                               f"at length {length} (max_len {longest})")
            yield cand


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


@dataclass(frozen=True)
class OrbitDescriptor:
    """The orbit of a tuple over a parameter set; semantically this is the
    solution set of a minimal formula isolating the tuple."""

    base: tuple[int, ...]
    params: frozenset[int]
    orbit: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.base not in self.orbit:
            raise InternalCheckError("orbit descriptor does not contain its base tuple")

    @property
    def degree(self) -> int:
        return len(self.orbit)


def orbit_over(M: Structure, b: Sequence[int], A: Iterable[int]) -> OrbitDescriptor:
    """The orbit of tuple b under Aut(M/A), with its size as degree."""
    A = M.check_subset(A, "parameter set")
    b = M.check_tuple(b)
    G = automorphism_group_fixing(M, A)
    return OrbitDescriptor(base=b, params=A, orbit=orbit(G, b))


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
    return set(sols) == set(orbit_over(M, b, A).orbit)


# -- finite extensions ----------------------------------------------------------------


def find_generator(M: Structure, A: Iterable[int], B: Iterable[int],
                   max_len: int = DEFAULT_MAX_LEN) -> tuple[int, ...] | None:
    """A shortest tuple over B whose entries, together with A, define all of B.

    Lengths 0..max_len are tried in ascending lexicographic order; None means
    no generating tuple exists within the bound (bounded non-existence).
    """
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    if B <= dcl(M, A):
        return ()
    for cand in _candidate_tuples(sorted(B), 1, max_len):
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
    return orbit_over(M, gen, A).degree


def is_normal_extension(M: Structure, A: Iterable[int], B: Iterable[int]) -> bool:
    """Does B contain the whole A-orbit of each of its elements?

    Checked on single elements only: the action on tuples is coordinatewise,
    so element orbits inside B give tuple orbits inside powers of B.  B holds
    the orbits of its elements exactly when Aut(M/A) maps B onto itself,
    which its generators decide.
    """
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    return _is_invariant(automorphism_group_fixing(M, A), B)


def is_splitting_extension(M: Structure, A: Iterable[int], B: Iterable[int],
                           max_len: int = DEFAULT_MAX_LEN
                           ) -> tuple[bool, tuple[int, ...] | None]:
    """Is B generated over A by one complete orbit?

    Searches witnesses b over B by ascending length (empty tuple first, then
    singletons, pairs, ...); returns (True, b) where the orbit of b stays in B
    and B is definable from A plus that orbit, else (False, None).
    """
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    G = automorphism_group_fixing(M, A)
    for cand in _candidate_tuples(sorted(B), 0, max_len):
        orb = orbit(G, cand)
        entries = frozenset(e for t in orb for e in t)
        if not entries <= B:
            continue
        if B <= dcl(M, A | entries):
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
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
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
    setwise = table.setwise(tuples)
    target = setwise.bit_count()
    candidates = list(_bits(table.fixed(setwise)))
    orders: dict[int, int] = {}
    for cand in _candidate_tuples(candidates, 0, max_len):
        points = _mask(cand)
        order = orders.get(points)
        if order is None:
            order = orders[points] = table.pointwise_order(points)
        if order == target:
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
        return {
            "structure": self.structure,
            "max_set_size": self.max_set_size,
            "max_len": self.max_len,
            "sets_checked": self.sets_checked,
            "failures": [list(f) for f in self.failures],
            "verdict": "pass" if self.verdict else "fail",
        }


def codes_finite_sets(M: Structure, max_set_size: int = 2,
                      max_len: int = DEFAULT_MAX_LEN) -> CodesReport:
    """Check that every set of up to `max_set_size` elements has a code.

    Iterates one representative per automorphism orbit of sets (an image of a
    coded set is coded by the image tuple, so orbits stand or fall together)
    and reports each representative lacking a code within the length bound.
    """
    if max_set_size < 1 or max_len < 0:
        raise StructureError("caps must be positive")
    elems = automorphism_group(M).element_table().elements
    reps: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for size in range(1, max_set_size + 1):
        for combo in combinations(range(M.size), size):
            if combo in seen:
                continue
            images = {tuple(sorted(g(e) for e in combo)) for g in elems}
            seen.update(images)
            reps.append(min(images))
    failures = []
    for rep in reps:
        if find_code(M, [(e,) for e in rep], max_len) is None:
            failures.append(M.render_set(rep))
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

    kind: str            # "subgroup" (Fix(Fix(H)) != H) or "set" (Fix(Fix(B)) != B)
    subject: str
    subject_order: int   # |H| or |B|
    closure: str         # rendering of Fix(Fix(subject))
    closure_order: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "subject_order": self.subject_order,
            "closure": self.closure,
            "closure_order": self.closure_order,
        }


def _render_group(generators: Sequence[str]) -> str:
    return "<" + (", ".join(generators) or "()") + ">"


def _render_set(M: Structure, B: Iterable[int]) -> str:
    return "{" + ", ".join(M.render_set(B)) + "}"


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
    normalized_inputs: bool

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
    of the base, or the hypotheses fail and an error is raised.

    Enumerates every subgroup H of Aut(C/A) and every definably closed
    intermediate set (as dcl(A + S) over all S inside C, deduplicated), checks
    Fix(Fix(H)) = H and Fix(Fix(B)) = B, and records each violation.  Also
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
    stays inside the definably closed C), so the intermediate sets are the
    closure system generated by the distinct fixed-point masks, from C down.
    Each fixed set is still checked to be definably closed, and a failing
    subgroup's closure group comes from `fix_of_set` for its rendering; the
    relative group keeps its pointwise stabilizers, so it is closed once per
    distinct fixed set.
    """
    A0 = M.check_subset(A, "base set")
    C0 = M.check_subset(C, "top set")
    if not A0 <= C0:
        raise StructureError("base set must be contained in the top set")
    A = dcl(M, A0)
    C = dcl(M, C0)
    normalized = (A != A0) or (C != C0)
    if not is_normal_extension(M, A, C):
        raise HypothesisError(
            "top set is not a normal extension of the base: some orbit leaves it")

    restr = relative_restriction(M, C, A)
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
    for mask, gens in lattice:
        gen_strings = tuple(str(g) for g in table.perms(gens))
        fixed_mask = table.fixed(mask)
        fixed = elements_of(fixed_mask)
        _require_closed_in(M, C, fixed)
        pairs.append((gen_strings, M.render_set(fixed)))
        if table.pointwise(fixed_mask) != mask:
            closure = fix_of_set(M, C, A, fixed)
            failures.append(DualityFailure(
                kind="subgroup",
                subject=_render_group(gen_strings),
                subject_order=mask.bit_count(),
                closure=_render_group(closure.generator_strings()),
                closure_order=closure.order,
            ))

    # The intermediate sets: the closure system of the fixed-point masks.  The
    # element cap still bounds the check by |Aut(M/A)|.
    _check_cap(automorphism_group_fixing(M, A).order)
    family = {table.fixmasks[0]}
    for f in set(table.fixmasks):
        family |= {f & b for b in family}
    intermediates = sorted(((elements_of(b), b) for b in family),
                           key=lambda item: (len(item[0]), sorted(item[0])))
    for B, b in intermediates:
        closed = dcl(M, B)
        if not closed <= C:
            raise InternalCheckError("an intermediate closure escapes the top set")
        if closed != B:
            raise InternalCheckError("an intermediate set is not definably closed")
        closure_mask = table.fixed(table.pointwise(b))
        if closure_mask != b:
            closure = elements_of(closure_mask)
            failures.append(DualityFailure(
                kind="set",
                subject=_render_set(M, B),
                subject_order=len(B),
                closure=_render_set(M, closure),
                closure_order=len(closure),
            ))

    # Coding of the subgroup orbits of a generator: the sets whose codes the
    # duality consumes.
    gen = find_generator(M, A, C, max_len)
    coding_failures = []
    if gen is None:
        coding_ok = None
    else:
        gen_positions = tuple(points.index(e) for e in gen)
        for mask, _ in lattice:
            F = {tuple(points[table.elements[i].images[p]] for p in gen_positions)
                 for i in _bits(mask)}
            if find_code(M, F, max_len) is None:
                coding_failures.append(
                    "{" + ", ".join("(" + ", ".join(M.render_tuple(t)) + ")"
                                    for t in sorted(F)) + "}")
        coding_ok = not coding_failures

    return GaloisReport(
        structure=M.name,
        base=M.render_set(A),
        top=M.render_set(C),
        group_order=G.order,
        subgroups=tuple(gens for gens, _ in pairs),
        intermediates=tuple(M.render_set(B) for B, _ in intermediates),
        pairs=tuple(pairs),
        failures=tuple(failures),
        coding_ok=coding_ok,
        coding_failures=tuple(coding_failures),
        normalized_inputs=normalized,
    )


# -- tower verification ----------------------------------------------------------------


@dataclass(frozen=True)
class TowerCheck:
    """One verified law; passed is None when its hypotheses do not apply."""

    name: str
    passed: bool | None
    detail: str

    def to_json_dict(self) -> dict:
        status = "skip" if self.passed is None else ("pass" if self.passed else "fail")
        return {"name": self.name, "status": status, "detail": self.detail}


@dataclass(frozen=True)
class TowerReport:
    """Degrees, group orders, and verified laws for a tower base <= mid <= top."""

    structure: str
    base: tuple[str, ...]
    mid: tuple[str, ...]
    top: tuple[str, ...]
    degree_mid_base: int
    degree_top_mid: int
    degree_top_base: int
    order_mid_base: int
    order_top_mid: int
    order_top_base: int
    normal_mid_base: bool
    normal_top_base: bool
    normal_top_mid: bool
    subgroup_normal: bool | None
    checks: tuple[TowerCheck, ...]
    normalized_inputs: bool = False

    @property
    def verdict(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "mid": list(self.mid),
            "top": list(self.top),
            "degrees": {
                "mid_over_base": self.degree_mid_base,
                "top_over_mid": self.degree_top_mid,
                "top_over_base": self.degree_top_base,
            },
            "orders": {
                "mid_over_base": self.order_mid_base,
                "top_over_mid": self.order_top_mid,
                "top_over_base": self.order_top_base,
            },
            "normality": {
                "mid_over_base": self.normal_mid_base,
                "top_over_base": self.normal_top_base,
                "top_over_mid": self.normal_top_mid,
                "subgroup": self.subgroup_normal,
            },
            "checks": [c.to_json_dict() for c in self.checks],
            "verdict": "pass" if self.verdict else "fail",
        }


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
    normalized = (A, B, C) != (A0, B0, C0)
    if not (A <= B and B <= C):
        raise InternalCheckError("definable closure broke the tower nesting")

    d_ba = degree_of_extension(M, A, B, max_len)
    d_cb = degree_of_extension(M, B, C, max_len)
    d_ca = degree_of_extension(M, A, C, max_len)
    o_ba = extension_aut_order(M, B, A, max_len)
    o_cb = extension_aut_order(M, C, B, max_len)
    o_ca = extension_aut_order(M, C, A, max_len)
    n_ba = is_normal_extension(M, A, B)
    n_ca = is_normal_extension(M, A, C)
    n_cb = is_normal_extension(M, B, C)

    checks: list[TowerCheck] = []
    checks.append(TowerCheck(
        "degree_product", d_ca == d_cb * d_ba,
        f"deg(top/base) = {d_ca}, deg(top/mid)*deg(mid/base) = {d_cb}*{d_ba}"))
    for tag, deg, order, normal in (
            ("mid/base", d_ba, o_ba, n_ba),
            ("top/mid", d_cb, o_cb, n_cb),
            ("top/base", d_ca, o_ca, n_ca)):
        checks.append(TowerCheck(
            f"degree_is_aut_order_iff_normal[{tag}]",
            (deg == order) == normal,
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
            "restriction_onto_mid_group", inner.image.equals(image_direct),
            f"restriction image order {inner.image.order}, "
            f"|Aut(mid/base)| = {image_direct.order}"))
        checks.append(TowerCheck(
            "restriction_kernel_is_top_over_mid", inner.kernel.equals(kernel_direct),
            f"kernel order {inner.kernel.order}, |Aut(top/mid)| = {kernel_direct.order}"))
        checks.append(TowerCheck(
            "order_product", o_ca == o_cb * o_ba,
            f"|Aut(top/base)| = {o_ca}, product = {o_cb}*{o_ba}"))
    else:
        detail = "mid and top are not both normal over the base"
        checks.append(TowerCheck("restriction_onto_mid_group", None, detail))
        checks.append(TowerCheck("restriction_kernel_is_top_over_mid", None, detail))
        checks.append(TowerCheck("order_product", None, detail))

    if n_ca:
        G = relative_aut(M, C, A)
        H = fix_of_set(M, C, A, B)
        subgroup_normal = is_normal_subgroup(H, G)
        checks.append(TowerCheck(
            "subgroup_normal_iff_mid_normal", subgroup_normal == n_ba,
            f"subgroup normal = {subgroup_normal}, mid normal = {n_ba}"))
        checks.append(TowerCheck(
            "top_stays_normal_over_mid", n_cb,
            f"top normal over mid = {n_cb} given top normal over base"))
    else:
        detail = "top is not normal over the base"
        checks.append(TowerCheck("subgroup_normal_iff_mid_normal", None, detail))
        checks.append(TowerCheck("top_stays_normal_over_mid", None, detail))

    splits, witness = is_splitting_extension(M, A, B, max_len)
    if splits:
        checks.append(TowerCheck(
            "splitting_mid_is_normal", n_ba,
            f"witness orbit of ({', '.join(M.render_tuple(witness))}), "
            f"mid normal = {n_ba}"))
    else:
        checks.append(TowerCheck(
            "splitting_mid_is_normal", None,
            f"mid is not a splitting extension within length {max_len}"))

    return TowerReport(
        structure=M.name,
        base=M.render_set(A), mid=M.render_set(B), top=M.render_set(C),
        degree_mid_base=d_ba, degree_top_mid=d_cb, degree_top_base=d_ca,
        order_mid_base=o_ba, order_top_mid=o_cb, order_top_base=o_ca,
        normal_mid_base=n_ba, normal_top_base=n_ca, normal_top_mid=n_cb,
        subgroup_normal=subgroup_normal,
        checks=tuple(checks),
        normalized_inputs=normalized,
    )
