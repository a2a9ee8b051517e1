"""Finite permutations and permutation groups.

Groups carry a stabilizer chain (base points, per-level strong generators,
and transversals).  The automorphism search builds every chain the package
starts from; every other group is read off one of those by deterministic
base change (`_rebase`): `stabilizer_pointwise` takes the levels below the
points it fixes, and `restrict_to_invariant_set` restricts the levels of an
invariant set's points.  No generator list is ever closed.

Every group's generators are canonical (`_canonical`): with base points
ascending, each level adds, for each point of its orbit that the generators
found so far do not reach, the lex-least element of that point's coset of
the deeper levels' group.  These are the generators the automorphism search
emits, so they depend on the group alone: every route to a group gives the
same generators, chain and reports.

A group's generators and chain never change once built; membership tests
and queries only read them.  Derived facts are memoized in place: each group
fills three slots on first use and keeps them: its element table, its
fixed-point set, and its point orbits (each point's orbit, read off the
generators).

Three module constants bound the work at desk scale.  `DEFAULT_ELEMENT_CAP`
bounds the order of a group whose elements are enumerated and the tuples of
an orbit that is listed, `DEFAULT_SUBGROUP_CAP` the order of a group whose
subgroup lattice is built, and `LATTICE_WORK_CAP` the work of building that
lattice.  Each is read where the work happens, at call time, and past it
the work stops with `CapError`.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapError, GroupError, InternalCheckError, NotInvariantError

#: Largest group order whose elements are enumerated, and most tuples of one
#: listed orbit.
DEFAULT_ELEMENT_CAP = 200_000

#: Largest group order whose subgroup lattice is enumerated.
DEFAULT_SUBGROUP_CAP = 2000

#: Most product lookups one subgroup lattice makes before
#: `ElementTable.subgroups` stops with `CapError`: each `generated` call looks
#: up its members times its generators in the multiplication columns.  The
#: largest lattice the benchmark builds makes 29,528, two directed 8-cycles
#: (order 128) 656,752, and S6 (order 720) tens of millions.
LATTICE_WORK_CAP = 3_000_000


class Perm(tuple):
    """A permutation of 0..n-1, stored as the tuple of its images: p[x] == p(x).

    Equality, ordering and hashing are the tuple's, so a `Perm` equals, sorts
    and hashes like the plain tuple of its images.  `Perm(images)` checks that
    the images are a bijection; `*` composes, while `+` and `k * p` are tuple
    operations.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        images = tuple(images)
        if set(images) != set(range(len(images))):
            raise GroupError(f"not a bijection of 0..{len(images) - 1}: {images}")
        return tuple.__new__(cls, images)

    @staticmethod
    def identity(degree: int) -> "Perm":
        return _trusted(range(degree))

    @property
    def degree(self) -> int:
        return len(self)

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x))
        if len(self) != len(other):
            raise GroupError(f"degree mismatch: {self.degree} vs {other.degree}")
        return _trusted(map(self.__getitem__, other))

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return _trusted(inv)

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def apply_tuple(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(self.__getitem__, t))

    def apply_set(self, s: Iterable[int]) -> frozenset[int]:
        return frozenset(map(self.__getitem__, s))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(len(self)):
            if start in seen or self[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self[nxt]
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)

    def __repr__(self) -> str:
        return f"Perm[{self}]"


def _trusted(images: Iterable[int]) -> Perm:
    """A Perm built without the bijectivity check.

    Only for images that are bijections by construction: the identity,
    products and inverses of Perms, and the image tuples of group elements.
    """
    return tuple.__new__(Perm, images)


def _check_cap(order: int) -> None:
    if order > DEFAULT_ELEMENT_CAP:
        raise CapError(
            f"group of order {order} exceeds enumeration cap {DEFAULT_ELEMENT_CAP}")


def _transversal(point: int, gens: Sequence[Perm], ident: Perm) -> dict[int, Perm]:
    """The orbit of `point` under `gens`, each orbit point q mapped to a
    product u of generators with u(point) == q; breadth first, so the
    products are as short as the orbit allows."""
    t = {point: ident}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for s in gens:
                q = s[p]
                if q not in t:
                    t[q] = s * t[p]
                    nxt.append(q)
        frontier = nxt
    return t


def _sift(base: Sequence[int], trans: Sequence[dict[int, Perm]], g: Perm,
          start: int = 0) -> tuple[Perm, int]:
    """Strip g down a stabilizer chain from level `start`.

    Returns the residue and the level where stripping stopped (`len(base)`
    when it ran through); g is in the group iff the residue is the identity.

    The strip runs on h = g^-1, which loses its transversal element by a
    right multiplication, h * u = (u^-1 * g)^-1, and reads g(b) as the
    position of b in h; so no level inverts, and the residue is inverted
    once, at the end.
    """
    h = g.inverse()
    i = start
    while i < len(base):
        u = trans[i].get(h.index(base[i]))
        if u is None:
            break
        h = h * u
        i += 1
    return h.inverse(), i


class PermGroup:
    """A permutation group represented by a completed stabilizer chain.

    Built by the automorphism search or by `_canonical`, whose callers read
    it off another group's chain; the constructor trusts its arguments.
    """

    __slots__ = ("degree", "generators", "base", "_levels", "_trans", "order",
                 "_table", "_fixed", "_orbits")

    def __init__(self, degree, generators, base, levels, trans, order):
        self.degree = degree
        self.generators = generators
        self.base = base
        self._levels = levels
        self._trans = trans
        self.order = order
        self._table = None
        self._fixed = None
        self._orbits: tuple[frozenset[int], ...] | None = None

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
                                    if all(g[x] == x for g in self.generators))
        return self._fixed

    def point_orbits(self) -> tuple[frozenset[int], ...]:
        """Each point's orbit, indexed by point: a breadth-first search over
        the generators from each point not yet reached, computed on first use
        and kept.  The points of one orbit share one frozenset."""
        if self._orbits is None:
            orbits: list[frozenset[int] | None] = [None] * self.degree
            gens = self.generators
            for start in range(self.degree):
                if orbits[start] is not None:
                    continue
                seen = {start}
                frontier = [start]
                while frontier:
                    nxt = []
                    for p in frontier:
                        for g in gens:
                            q = g[p]
                            if q not in seen:
                                seen.add(q)
                                nxt.append(q)
                    frontier = nxt
                orb = frozenset(seen)
                for p in orb:
                    orbits[p] = orb
            self._orbits = tuple(orbits)
        return self._orbits

    def elements(self) -> list[Perm]:
        """Every group element, sorted by image tuple.

        Each element is one product u_0 * u_1 * ... of transversal elements,
        one per level.  The products are built as plain image tuples, layer by
        layer from the deepest level up, sorted, and only then made `Perm`s:
        `list.sort` has a fast path for exact tuples that a tuple subclass
        misses, and a `Perm` sorts as its image tuple, so the order is the one
        sorting the Perms would give.
        """
        _check_cap(self.order)
        elems = [tuple(range(self.degree))]
        for i in reversed(range(len(self.base))):
            layer = []
            for point in sorted(self._trans[i]):
                u = self._trans[i][point].__getitem__
                layer.extend(tuple(map(u, e)) for e in elems)
            elems = layer
        elems.sort()
        return [_trusted(e) for e in elems]

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


# -- canonical generators ----------------------------------------------------------

#: One level of a chain being built: its base point, the generators found at
#: it or deeper, and its transversal.
_Level = tuple[int, tuple[Perm, ...], dict[int, Perm]]


def _lex_least(g: Sequence[int], chain: Sequence[_Level]) -> list[int]:
    """The images of the lex-least element of the coset g·H, H the group of
    `chain`, its levels listed deepest first, each level's group fixing
    every point below its base point.

    For each level in ascending base order, g is composed with the
    transversal element that sends the base point to its least image under
    g (Seress, *Permutation Group Algorithms*, 2003, ch. 4).  The points
    below that base point are fixed by the level's group, so this is the
    same element whichever transversals are used.
    """
    for _, _, t in reversed(chain):
        g = [g[q] for q in t[min(t, key=g.__getitem__)]]
    return g


def _chain_group(degree: int, gens: list[Perm], chain: list[_Level]) -> PermGroup:
    """The group of `gens` with the chain whose levels, those whose orbit
    has more than one point, `chain` lists deepest first; the generators
    sorted by image tuple."""
    chain = chain[::-1]
    trans = tuple(t for _, _, t in chain)
    return PermGroup(degree, tuple(sorted(gens)), tuple(b for b, _, _ in chain),
                     tuple(level for _, level, _ in chain), trans,
                     prod(map(len, trans)))


def _canonical(degree: int, base: Sequence[int],
               trans: Sequence[dict[int, Perm]]) -> PermGroup:
    """The group of a chain whose base ascends, each level's group fixing
    every point below its base point, with canonical generators.

    Levels run deepest first, one-point levels skipped.  At level i, for
    each point y of the orbit, ascending, that the generators found so far
    do not reach from the base point, the lex-least element of the coset
    u_y·G^(i+1) is added (`_lex_least`, over the deeper levels already
    rebuilt).  The automorphism search emits the same generators for the
    same group, so they depend on the group alone, not on the transversals
    given.  The chain returned is rebuilt from them as the search builds
    its own: a level's generators are those found at it or deeper, its
    transversal their orbit of its base point.
    """
    ident = Perm.identity(degree)
    gens: list[Perm] = []
    chain: list[_Level] = []
    for b, t in zip(reversed(base), reversed(trans)):
        if len(t) == 1:
            continue
        reached = {b: ident}
        for y in sorted(t):
            if y not in reached:
                gens.append(_trusted(_lex_least(t[y], chain)))
                reached = _transversal(b, gens, ident)
        chain.append((b, tuple(gens), reached))
    return _chain_group(degree, gens, chain)


# -- actions and stabilizers ----------------------------------------------------


def _check_entries(G: PermGroup, t: Iterable[int]) -> None:
    for e in t:
        if not 0 <= e < G.degree:
            raise GroupError(f"tuple entry {e} out of range for degree {G.degree}")


def orbit(G: PermGroup, t: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The orbit of a tuple under coordinatewise action, in canonical order.

    The orbit is the image of G's elements, so no more of it is listed than
    of G: past `DEFAULT_ELEMENT_CAP` tuples it raises `CapError`.
    """
    t = tuple(t)
    _check_entries(G, t)
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in G.generators:
                img = g.apply_tuple(cur)
                if img not in seen:
                    seen.add(img)
                    if len(seen) > DEFAULT_ELEMENT_CAP:
                        raise CapError(
                            f"orbit passed {DEFAULT_ELEMENT_CAP} tuples (enumeration cap)")
                    nxt.append(img)
        frontier = nxt
    return tuple(sorted(seen))


def _set_orbit(G: PermGroup, tuples: Iterable[tuple], spend: Callable) -> tuple[dict, list]:
    """F's orbit under G, breadth first, and Fix(S) for S = F's setwise
    stabilizer.  Each member Φ (a sorted tuple of tuples) maps to the images
    of u_Φ = s·u_Ψ, where Ψ -s-> Φ is the edge that first reached Φ, so
    u_Φ(F) = Φ.  The u_{s·Φ}⁻¹·s·u_Φ generate S (Schreier's lemma; Seress,
    ch. 4), so Fix(S), ascending, is the x with s(u_Φ(x)) = u_{s·Φ}(x) on
    every edge.  `spend` gets each set's images: per generator, its entries
    plus the degree."""
    members = [tuple(sorted(tuples))]
    trans = {members[0]: tuple(range(G.degree))}
    fixed = list(range(G.degree))
    for phi in members:
        spend(len(G.generators) * (sum(map(len, phi)) + G.degree))
        u = trans[phi]
        for s in G.generators:
            img = tuple(sorted(tuple(map(s.__getitem__, t)) for t in phi))
            v = trans.get(img)
            if v is None:
                trans[img] = tuple(map(s.__getitem__, u))
                members.append(img)
            elif fixed:
                fixed = [x for x in fixed if s[u[x]] == v[x]]
    return trans, fixed


def _is_invariant(G: PermGroup, points: frozenset[int]) -> bool:
    """Does G map the set onto itself?  Decided on the generators: a group
    preserves a set when its generators do, and a finite set mapped into
    itself by a bijection is mapped onto itself."""
    return all(g.apply_set(points) == points for g in G.generators)


def stabilizer_pointwise(G: PermGroup, points: Iterable[int]) -> PermGroup:
    """The subgroup of G fixing every point of the set, read off G's chain.

    With no point that G moves this is G itself.  Otherwise a copy of G's
    chain is rebased (`_rebase`) to the points G moves among them,
    ascending, then the rest of the points G moves, ascending; the
    stabilizer is the chain below the first ones, with canonical generators
    (`_canonical`).  Nothing is kept in G.
    """
    points = set(points)
    _check_entries(G, points)
    moved = set(range(G.degree)) - G.fixed_points()
    key = sorted(points & moved)
    if not key:
        return G
    base, trans = _rebase(G, key + sorted(moved - points))
    return _canonical(G.degree, base[len(key):], trans[len(key):])


def _rebase(G: PermGroup, points: Sequence[int]) -> tuple[list[int], list[dict[int, Perm]]]:
    """The base and transversals of a copy of G's chain whose base starts
    with `points`, distinct points that G moves, in their order.

    Deterministic base change (Seress, *Permutation Group Algorithms*,
    2003, §5.4; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, §4.4.7), one level j per point a.  Let m be the first
    level from j on whose orbit holds a.  Levels m.. are conjugated by the
    transversal element that maps b_m to a, so that a is b_m; with no such
    level, a is inserted as a one-point level below the deepest level that
    moves it, as m.  Then a is swapped up from level m to level j
    (`_swap_levels`); with m = j there is nothing to swap.
    """
    ident = Perm.identity(G.degree)
    base, levels, trans = list(G.base), list(G._levels), list(G._trans)
    for j, a in enumerate(points):
        m = j
        while m < len(base) and a not in trans[m] and any(g[a] != a for g in levels[m]):
            m += 1
        if m < len(base) and a in trans[m]:
            if a != base[m]:
                _conjugate_levels(base, levels, trans, m, trans[m][a])
        else:
            base.insert(m, a)
            levels.insert(m, levels[m] if m < len(levels) else ())
            trans.insert(m, {a: ident})
        for i in reversed(range(j, m)):
            _swap_levels(base, levels, trans, i, ident)
    return base, trans


def _conjugate_levels(base: list[int], levels: list, trans: list, j: int,
                      u: Perm) -> None:
    """Conjugate levels j.. by u, an element of level j's group: each base
    point b becomes u(b), each element g becomes u * g * u^-1.  u moves a
    point, so the degree is at least 2 and each `itemgetter` gives a tuple."""
    pick = itemgetter(*u.inverse())

    def conj(g: Perm) -> Perm:
        return _trusted(itemgetter(*pick(g))(u))

    for m in range(j, len(base)):
        base[m] = u[base[m]]
        levels[m] = [conj(g) for g in levels[m]]
        trans[m] = {u[p]: conj(v) for p, v in trans[m].items()}


def _swap_levels(base: list[int], levels: list, trans: list, i: int,
                 ident: Perm) -> None:
    """Swap base points β = b_i and γ = b_{i+1} in place.

    The new level i is level i's group with base point γ.  The new level
    i+1 is the stabilizer of γ in level i's group; its orbit of β has
    |Δ_i|·|Δ_{i+1}| / |γ^{G^(i)}| points.  It grows from level i+2's
    generators: for each y of level i's orbit, ascending, that it has not
    reached, u_y·v is added when v ∈ T_{i+1} maps γ to u_y⁻¹(γ), the one
    coset u_y·G^(i+1) that can map β to y while fixing γ.  An orbit that
    stops short of its size raises `InternalCheckError`.
    """
    beta, gamma = base[i], base[i + 1]
    upper, lower = trans[i], trans[i + 1]
    top = _transversal(gamma, levels[i], ident)
    size = len(upper) * len(lower) // len(top)
    gens = list(levels[i + 2]) if i + 2 < len(base) else []
    below = _transversal(beta, gens, ident)
    for y in sorted(upper):
        if len(below) == size:
            break
        if y in below:
            continue
        u = upper[y]
        v = lower.get(u.index(gamma))
        if v is not None:
            gens.append(u * v)
            below = _transversal(beta, gens, ident)
    if len(below) != size:
        raise InternalCheckError(
            f"base change: the orbit of {beta} below {gamma} has {len(below)} "
            f"points, not {size}")
    base[i], base[i + 1] = gamma, beta
    levels[i + 1] = gens
    trans[i], trans[i + 1] = top, below


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
    the elements' sort order.  The table is the subgroup-lattice engine:
    the index map, the right-multiplication columns and the lattice are
    built on first use.  `lookups` counts the product lookups `generated`
    has made.
    """

    __slots__ = ("elements", "lookups", "_index", "_columns", "_lattice")

    def __init__(self, elements: list[Perm]):
        self.elements = elements
        self.lookups = 0
        self._index: dict[tuple[int, ...], int] | None = None
        self._columns: dict[int, list[int]] = {}
        self._lattice: list[tuple[int, list[int]]] | None = None

    def perms(self, indices: Iterable[int]) -> list[Perm]:
        return [self.elements[i] for i in indices]

    def index(self) -> dict[tuple[int, ...], int]:
        """Image tuple -> element index."""
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        return self._index

    def column(self, j: int) -> list[int]:
        """column(j)[i] is the index of elements[i] * elements[j]."""
        col = self._columns.get(j)
        if col is None:
            g = self.elements[j]
            index = self.index()
            col = [index[tuple(map(e.__getitem__, g))] for e in self.elements]
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
                mask |= 1 << index[x]
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


def restrict_to_invariant_set(G: PermGroup, C: Iterable[int]) -> PermGroup:
    """The image of G restricted to an invariant subset C.

    The image acts on 0..|C|-1, position i standing for the i-th smallest
    element of C.  Errors if some generator moves C off itself.  A copy of
    G's chain is rebased (`_rebase`) to the points of C that G moves,
    ascending; those levels, restricted to the positions, are the image's
    chain, read with canonical generators (`_canonical`), and the levels
    below them are the kernel's, the pointwise stabilizer of C, which
    nothing reads.  Every generator of G, restricted, must sift through the
    image chain, or `InternalCheckError` is raised.
    """
    points = tuple(sorted(set(C)))
    for e in points:
        if not 0 <= e < G.degree:
            raise GroupError(f"element {e} out of range for degree {G.degree}")
    if not _is_invariant(G, frozenset(points)):
        raise NotInvariantError(f"set {points} is not setwise invariant under the group")
    index = {e: i for i, e in enumerate(points)}

    def restrict(g: Perm) -> Perm:
        return _trusted(index[g[e]] for e in points)

    key = sorted(set(points) - G.fixed_points())
    _, trans = _rebase(G, key)
    image = _canonical(len(points), [index[b] for b in key],
                       [{index[y]: restrict(u) for y, u in t.items()}
                        for t in trans[:len(key)]])
    for g in G.generators:
        if not image.contains(restrict(g)):
            raise InternalCheckError(
                f"restriction: generator {g} restricted to {points} does not sift "
                "through the image chain")
    return image
