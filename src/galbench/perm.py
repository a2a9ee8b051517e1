"""Finite permutations and permutation groups.

Groups carry a stabilizer chain (base points, per-level strong generators,
and transversals) built by a deterministic Schreier-Sims pass, giving exact
orders and a sound, complete membership test.  After any forced prefix, each
new base point is the smallest point moved by the first generator or Schreier
residue that fixes the current base, and every iteration order is fixed, so
identical inputs always produce identical chains, generator lists, and
reports.

When the group's order is known in advance, `close_group(..., known_order=N)`
stops testing Schreier generators as soon as the product of the current
transversal sizes equals N ("Schreier-Sims with known order"; Seress,
*Permutation Group Algorithms*, 2003).  This is complete, and leaves the
chain byte for byte as the full pass would: every generator at level i fixes
the base points before it, so each transversal is a subset of that level's
true orbit in G, and the product of the true orbit sizes is
|G| / |G_(base)| <= |G|.  A product equal to |G| therefore means every
transversal is already its full orbit and the base's pointwise stabilizer is
trivial, so every remaining Schreier generator sifts to the identity and no
level, base point or transversal would change.  Only those sifts are skipped;
every transversal is still rebuilt where the full pass rebuilds it.  The
order is passed only where it is exact (a completed chain's order, a
subgroup mask's size, the order the automorphism search returns), and a
finished chain whose order differs from it raises `InternalCheckError`.

Groups are immutable once closed; membership tests and queries are pure.
Each group fills three slots on first use and keeps them: its element table,
its fixed-point set, and its pointwise stabilizers, keyed on the points in
first-occurrence order because the chain depends on the order of the base
prefix.  So `stabilizer_pointwise(G, t)` closes once per group and tuple;
the stabilizer memo grows with the distinct tuples G is asked about.
`all_subgroups` is a thin wrapper over the element table's lattice masks,
closing one group per mask; nothing in the package calls it.

Three module constants bound the work at desk scale.  `DEFAULT_ELEMENT_CAP`
bounds the order of a group whose elements are enumerated,
`DEFAULT_SUBGROUP_CAP` the order of a group whose subgroup lattice is built,
and `LATTICE_WORK_CAP` the work of building that lattice.  Each is read where
the work happens, at call time, and past it the work stops with `CapError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Iterator, Sequence

from .errors import CapError, GroupError, InternalCheckError, NotInvariantError

#: Largest group order whose elements are enumerated.
DEFAULT_ELEMENT_CAP = 200_000

#: Largest group order whose subgroup lattice is enumerated.
DEFAULT_SUBGROUP_CAP = 2000

#: Most product lookups one subgroup lattice makes before
#: `ElementTable.subgroups` stops with `CapError`: each `generated` call looks
#: up its members times its generators in the multiplication columns.  The
#: largest lattice the benchmark builds makes 29,528, two directed 8-cycles
#: (order 128) 656,752, and S6 (order 720) tens of millions.
LATTICE_WORK_CAP = 3_000_000


class Perm:
    """A permutation of 0..n-1, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if set(images) != set(range(len(images))):
            raise GroupError(f"not a bijection of 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _trusted(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x))
        img, other_img = self.images, other.images
        if len(img) != len(other_img):
            raise GroupError(f"degree mismatch: {self.degree} vs {other.degree}")
        return _trusted(tuple(map(img.__getitem__, other_img)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def apply_tuple(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.images[e] for e in t)

    def apply_set(self, s: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[e] for e in s)

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def __repr__(self) -> str:
        return f"Perm[{self}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)


def _trusted(images: tuple[int, ...]) -> Perm:
    """A Perm built without the bijectivity check.

    Only for image tuples that are bijections by construction: the identity,
    and products and inverses of Perms.
    """
    p = object.__new__(Perm)
    p.images = images
    return p


def _check_cap(order: int) -> None:
    if order > DEFAULT_ELEMENT_CAP:
        raise CapError(
            f"group of order {order} exceeds enumeration cap {DEFAULT_ELEMENT_CAP}")


def _sift(base: Sequence[int], trans: Sequence[dict[int, Perm]], g: Perm,
          start: int = 0) -> tuple[Perm, int]:
    """Strip g down a stabilizer chain from level `start`.

    Returns the residue and the level where stripping stopped (`len(base)`
    when it ran through); g is in the group iff the residue is the identity.
    """
    i = start
    while i < len(base):
        u = trans[i].get(g.images[base[i]])
        if u is None:
            return g, i
        g = u.inverse() * g
        i += 1
    return g, i


class PermGroup:
    """A permutation group represented by a completed stabilizer chain.

    Construct through `close_group`, or as a sub-chain of one from some level
    on (as `stabilizer_pointwise` does); the constructor trusts its arguments.
    """

    __slots__ = ("degree", "generators", "base", "_levels", "_trans", "order",
                 "_table", "_fixed", "_stabilizers")

    def __init__(self, degree, generators, base, levels, trans, order):
        self.degree = degree
        self.generators = generators
        self.base = base
        self._levels = levels
        self._trans = trans
        self.order = order
        self._table = None
        self._fixed = None
        self._stabilizers: dict[tuple[int, ...], PermGroup] | None = None

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = _sift(self.base, self._trans, g)
        return residue.is_identity()

    __contains__ = contains

    def fixed_points(self) -> frozenset[int]:
        """The points fixed by every element, computed on first use and kept."""
        if self._fixed is None:
            self._fixed = frozenset(x for x in range(self.degree)
                                    if all(g.images[x] == x for g in self.generators))
        return self._fixed

    def level_generators(self, k: int) -> list[Perm]:
        """Strong generators fixing the first k base points pointwise."""
        return list(self._levels[k]) if k < len(self._levels) else []

    def elements(self) -> list[Perm]:
        """Every group element, sorted by image tuple."""
        _check_cap(self.order)
        elems = [Perm.identity(self.degree)]
        for i in reversed(range(len(self.base))):
            layer = []
            for point in sorted(self._trans[i]):
                u = self._trans[i][point]
                layer.extend(u * e for e in elems)
            elems = layer
        elems.sort()
        return elems

    def element_table(self) -> "ElementTable":
        """The group's `ElementTable`, built from `elements` on first use and
        kept; the element cap is checked on every call, as `elements` checks
        it."""
        _check_cap(self.order)
        if self._table is None:
            self._table = ElementTable(self.elements())
        return self._table

    def equals(self, other: "PermGroup") -> bool:
        """Element-set equality, decided without enumeration."""
        return (self.degree == other.degree
                and self.order == other.order
                and all(other.contains(g) for g in self.generators))

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return (self.degree == other.degree
                and all(other.contains(g) for g in self.generators))

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(str(g) for g in self.generators)

    def __repr__(self) -> str:
        gens = ", ".join(self.generator_strings()) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"


def close_group(generators: Iterable[Perm], *, degree: int | None = None,
                base_prefix: Sequence[int] = (),
                known_order: int | None = None) -> PermGroup:
    """Close a generator list into a `PermGroup` with a stabilizer chain.

    `base_prefix` forces the base to start with the given points (in order),
    which makes pointwise stabilizers directly readable off the chain.  Each
    further base point is the smallest point moved by the first generator or
    Schreier residue that fixes the base so far; the base need not ascend.
    Every level's transversal is rebuilt by `complete_level` after the last
    change to its generators.

    `known_order`, when given, must be the exact order of the generated
    group.  `complete_level` then stops sifting Schreier generators once the
    product of the transversal sizes equals it; it still rebuilds every
    transversal.  Each level's generators fix the base points before it, so
    each transversal lies inside that level's orbit in the group, and the
    product is at most |G|.  Equality means every transversal is a full
    orbit and the base's pointwise stabilizer is trivial: every skipped
    Schreier generator would have sifted to the identity, so the chain is
    the one the full pass builds.  A finished chain whose order is not
    `known_order` raises `InternalCheckError`; an overstated order is
    caught that way, after a full pass.
    """
    gens = []
    for g in generators:
        if not isinstance(g, Perm):
            g = Perm(g)
        if degree is None:
            degree = g.degree
        elif g.degree != degree:
            raise GroupError(f"mixed degrees: {g.degree} vs {degree}")
        if not g.is_identity() and g not in gens:
            gens.append(g)
    if degree is None:
        raise GroupError("degree is required to close an empty generator list")

    ident = Perm.identity(degree)
    base: list[int] = []
    levels: list[list[Perm]] = []
    trans: list[dict[int, Perm]] = []

    def add_base_point(pt: int):
        if not 0 <= pt < degree:
            raise GroupError(f"base point {pt} out of range for degree {degree}")
        if pt in base:
            return
        base.append(pt)
        levels.append([])
        trans.append({pt: ident})

    for pt in base_prefix:
        add_base_point(pt)

    def min_moved(g: Perm) -> int:
        for i, j in enumerate(g.images):
            if i != j:
                return i
        raise InternalCheckError("identity has no moved point")

    def distribute(g: Perm):
        j = 0
        while j < len(base) and g(base[j]) == base[j]:
            j += 1
        if j == len(base):
            add_base_point(min_moved(g))
        for level in range(j + 1):
            if g not in levels[level]:
                levels[level].append(g)

    for g in gens:
        distribute(g)

    def rebuild(i: int):
        t = {base[i]: ident}
        frontier = [base[i]]
        while frontier:
            nxt = []
            for p in frontier:
                for s in levels[i]:
                    q = s(p)
                    if q not in t:
                        t[q] = s * t[p]
                        nxt.append(q)
            frontier = nxt
        trans[i] = t

    def reached() -> bool:
        """Does the chain already have the known order?"""
        return known_order is not None and prod(map(len, trans)) == known_order

    def complete_level(i: int):
        rebuild(i)
        if reached():
            return
        points = sorted(trans[i])
        level_gens = list(levels[i])
        for point in points:
            u = trans[i][point]
            for s in level_gens:
                su = s * u
                rep = trans[i][s(point)]
                if su == rep:
                    continue
                schreier = rep.inverse() * su
                residue, j = _sift(base, trans, schreier, i + 1)
                if residue.is_identity():
                    continue
                if j == len(base):
                    add_base_point(min_moved(residue))
                for level in range(i + 1, j + 1):
                    levels[level].append(residue)
                for level in range(j, i, -1):
                    complete_level(level)
                if reached():
                    return

    i = len(base) - 1
    while i >= 0:
        complete_level(i)
        i -= 1

    order = prod(map(len, trans))
    if known_order is not None and order != known_order:
        raise InternalCheckError(
            f"closed group has order {order}, not the known order {known_order}")
    return PermGroup(degree, tuple(gens), tuple(base), tuple(tuple(l) for l in levels),
                     tuple(trans), order)


def trivial_group(degree: int) -> PermGroup:
    return close_group([], degree=degree)


# -- actions and stabilizers ----------------------------------------------------


def orbit(G: PermGroup, t: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The orbit of a tuple under coordinatewise action, in canonical order."""
    t = tuple(t)
    for e in t:
        if not 0 <= e < G.degree:
            raise GroupError(f"tuple entry {e} out of range for degree {G.degree}")
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in G.generators:
                img = g.apply_tuple(cur)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def _is_invariant(G: PermGroup, points: frozenset[int]) -> bool:
    """Does G map the set onto itself?  Decided on the generators: a group
    preserves a set when its generators do, and a finite set mapped into
    itself by a bijection is mapped onto itself."""
    return all(g.apply_set(points) == points for g in G.generators)


def stabilizer_pointwise(G: PermGroup, t: Sequence[int]) -> PermGroup:
    """The subgroup of G fixing every entry of the tuple.

    With no entries this is G itself.  Otherwise one closure with the
    entries as base prefix, told G's order; the stabilizer is the chain from
    the first level after the prefix on.  The result is kept in G, keyed on
    the entries in first-occurrence order (the chain depends on the prefix
    order), so a repeated call returns the same group.
    """
    points = []
    for e in t:
        if not 0 <= e < G.degree:
            raise GroupError(f"tuple entry {e} out of range for degree {G.degree}")
        if e not in points:
            points.append(e)
    if not points:
        return G
    key = tuple(points)
    memo = G._stabilizers
    if memo is None:
        memo = G._stabilizers = {}
    got = memo.get(key)
    if got is None:
        chain = close_group(G.generators, degree=G.degree, base_prefix=key,
                            known_order=G.order)
        k = len(key)
        gens: list[Perm] = []
        for g in chain.level_generators(k):
            if g not in gens:
                gens.append(g)
        trans = chain._trans[k:]
        got = memo[key] = PermGroup(G.degree, tuple(gens), chain.base[k:],
                                    chain._levels[k:], trans, prod(map(len, trans)))
    return got


def setwise_stabilizer(G: PermGroup, F: Iterable[Sequence[int]]) -> PermGroup:
    """The subgroup of G mapping the set of tuples F onto itself."""
    tuples = {tuple(t) for t in F}
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise GroupError(f"mixed tuple lengths in set: {sorted(lengths)}")
    for t in tuples:
        for e in t:
            if not 0 <= e < G.degree:
                raise GroupError(f"tuple entry {e} out of range for degree {G.degree}")
    table = G.element_table()
    kept = table.setwise(tuples)
    return close_group(table.perms(table.minimal_generators(kept)), degree=G.degree,
                       known_order=kept.bit_count())


# -- element tables and the subgroup lattice --------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """The set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ElementTable:
    """A group's elements in sorted order, so index i <-> element i.

    Subsets of the group are integer bitmasks over the indices; index 0 is
    the identity (the smallest image tuple), and ascending indices follow
    the elements' sort order.  `fixmasks[i]` is the fixed-point set of
    element i as a bitmask over the points, so pointwise stabilizers and
    fixed sets are containment tests and ANDs of masks.  The index map, the
    right-multiplication columns and the subgroup lattice are built on first
    use.  `lookups` counts the product lookups `generated` has made.
    """

    __slots__ = ("elements", "fixmasks", "lookups", "_index", "_columns",
                 "_fix_counts", "_lattice")

    def __init__(self, elements: list[Perm]):
        self.elements = elements
        shared: dict[int, int] = {}  # equal masks share one int object
        masks = []
        for g in elements:
            mask = 0
            for x, y in enumerate(g.images):
                if x == y:
                    mask |= 1 << x
            masks.append(shared.setdefault(mask, mask))
        self.fixmasks = masks
        self.lookups = 0
        self._index: dict[tuple[int, ...], int] | None = None
        self._columns: dict[int, list[int]] = {}
        self._fix_counts: dict[int, int] | None = None
        self._lattice: list[tuple[int, list[int]]] | None = None

    def perms(self, indices: Iterable[int]) -> list[Perm]:
        return [self.elements[i] for i in indices]

    def index(self) -> dict[tuple[int, ...], int]:
        """Image tuple -> element index."""
        if self._index is None:
            self._index = {g.images: i for i, g in enumerate(self.elements)}
        return self._index

    def fixed(self, mask: int) -> int:
        """The points fixed by every element of `mask`."""
        fixmasks = self.fixmasks
        out = fixmasks[0]
        for i in _bits(mask):
            out &= fixmasks[i]
        return out

    def pointwise(self, points: int) -> int:
        """The elements fixing every point of the mask `points`."""
        out = 0
        for i, f in enumerate(self.fixmasks):
            if f & points == points:
                out |= 1 << i
        return out

    def pointwise_order(self, points: int) -> int:
        """The number of elements fixing every point of `points`."""
        counts = self._fix_counts
        if counts is None:
            counts = self._fix_counts = {}
            for f in self.fixmasks:
                counts[f] = counts.get(f, 0) + 1
        return sum(c for f, c in counts.items() if f & points == points)

    def setwise(self, tuples: set[tuple[int, ...]]) -> int:
        """The elements mapping the set of tuples onto itself (into is
        enough: an element is injective on tuples and the set is finite)."""
        out = 0
        for i, g in enumerate(self.elements):
            img = g.images
            if all(tuple(img[e] for e in t) in tuples for t in tuples):
                out |= 1 << i
        return out

    def column(self, j: int) -> list[int]:
        """column(j)[i] is the index of elements[i] * elements[j]."""
        col = self._columns.get(j)
        if col is None:
            g = self.elements[j].images
            index = self.index()
            col = [index[tuple(map(e.images.__getitem__, g))] for e in self.elements]
            self._columns[j] = col
        return col

    def generated(self, gens: Sequence[int]) -> int:
        """The subgroup generated by the given elements: every product of
        them (a finite group, so inverses come free)."""
        cols = [self.column(j) for j in gens]
        members = 1
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for col in cols:
                    j = col[i]
                    if not members >> j & 1:
                        members |= 1 << j
                        nxt.append(j)
            frontier = nxt
        self.lookups += members.bit_count() * len(cols)
        return members

    def minimal_generators(self, mask: int) -> list[int]:
        """A small deterministic generating list for the subgroup `mask`:
        each element, in ascending order, not generated by the ones before."""
        gens: list[int] = []
        known = 1
        for i in _bits(mask):
            if not known >> i & 1:
                gens.append(i)
                known = self.generated(gens)
        return gens

    def zuppos(self) -> list[tuple[int, int]]:
        """One (mask, generator) pair per cyclic subgroup of prime-power
        order, the generator being its smallest element that generates it."""
        index = self.index()
        ident = self.elements[0]
        out = []
        seen = set()
        for j, g in enumerate(self.elements):
            if j == 0:
                continue
            mask = 1
            x = g
            while x != ident:
                mask |= 1 << index[x.images]
                x = x * g
            if mask not in seen:
                seen.add(mask)
                if _is_prime_power(mask.bit_count()):
                    out.append((mask, j))
        return out

    def subgroups(self) -> list[tuple[int, list[int]]]:
        """Every subgroup as (mask, minimal generators), sorted by (order,
        element list); computed once.

        Cyclic extension (Neubüser): starting from the trivial group, join
        each subgroup found with each cyclic subgroup of prime-power order it
        misses.  Complete because every subgroup is the join of the cyclic
        subgroups of prime-power order it contains.  Past `LATTICE_WORK_CAP`
        product lookups, counted after each join and its minimal generators,
        it raises `CapError`.
        """
        if self._lattice is None:
            start = self.lookups
            zuppos = self.zuppos()
            gens_of: dict[int, list[int]] = {1: []}
            worklist = [1]
            for H in worklist:
                for C, c in zuppos:
                    if C & ~H == 0:
                        continue
                    join = self.generated(gens_of[H] + [c])
                    if join not in gens_of:
                        gens_of[join] = self.minimal_generators(join)
                        worklist.append(join)
                    if self.lookups - start > LATTICE_WORK_CAP:
                        raise CapError(f"subgroup lattice passed {LATTICE_WORK_CAP} "
                                       f"product lookups")
            ordered = sorted(gens_of, key=lambda m: (m.bit_count(), list(_bits(m))))
            self._lattice = [(m, gens_of[m]) for m in ordered]
        return self._lattice


def _is_prime_power(n: int) -> bool:
    p = 2
    while p * p <= n and n % p:
        p += 1
    if n % p:
        p = n
    while n % p == 0:
        n //= p
    return n == 1


def all_subgroups(G: PermGroup) -> list[PermGroup]:
    """Every subgroup of G exactly once, sorted by (order, element list).

    A thin public wrapper: the lattice is `ElementTable.subgroups` on G's
    table, so the i-th group returned is the i-th mask there; each is closed
    on its minimal generators, told its order (the mask's size).  The package
    itself works on the masks.
    """
    if G.order > DEFAULT_SUBGROUP_CAP:
        raise CapError(f"group order {G.order} exceeds subgroup enumeration cap "
                       f"{DEFAULT_SUBGROUP_CAP}")
    table = G.element_table()
    return [close_group(table.perms(gens), degree=G.degree, known_order=mask.bit_count())
            for mask, gens in table.subgroups()]


def is_normal_subgroup(H: PermGroup, G: PermGroup) -> bool:
    """True iff gHg^-1 = H for every g in G; H must actually be a subgroup."""
    if H.degree != G.degree:
        raise GroupError(f"degree mismatch: {H.degree} vs {G.degree}")
    if not H.is_subgroup_of(G):
        raise GroupError("H is not a subgroup of G")
    for g in G.generators:
        ginv = g.inverse()
        for h in H.generators:
            if not H.contains(g * h * ginv):
                return False
    return True


# -- restriction to an invariant set ----------------------------------------------


@dataclass(frozen=True)
class Restriction:
    """Outcome of restricting a group to a setwise-invariant subset.

    `image` acts on 0..len(points)-1 where position i stands for element
    `points[i]` (the subset in ascending order); `kernel` is the pointwise
    stabilizer of the subset inside the original group.
    """

    image: PermGroup
    kernel: PermGroup
    points: tuple[int, ...]


def restrict_to_invariant_set(G: PermGroup, C: Iterable[int]) -> Restriction:
    """Split G along an invariant subset into restriction image and kernel.

    Errors if some generator moves C off itself; checks |G| = |image|*|kernel|.
    """
    points = tuple(sorted(set(C)))
    for e in points:
        if not 0 <= e < G.degree:
            raise GroupError(f"element {e} out of range for degree {G.degree}")
    if not _is_invariant(G, frozenset(points)):
        raise NotInvariantError(f"set {points} is not setwise invariant under the group")
    index = {e: i for i, e in enumerate(points)}
    restricted = [Perm(index[g(e)] for e in points) for g in G.generators]
    # No known order for the image: the check below is what tests the split.
    image = close_group(restricted, degree=len(points))
    kernel = stabilizer_pointwise(G, points)
    if image.order * kernel.order != G.order:
        raise InternalCheckError(
            f"restriction split failed: {G.order} != {image.order} * {kernel.order}")
    return Restriction(image=image, kernel=kernel, points=points)
