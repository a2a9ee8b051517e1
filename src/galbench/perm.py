"""Finite permutations and permutation groups.

Groups carry a stabilizer chain (base points, per-level strong generators,
and transversals) built by a deterministic Schreier-Sims pass, or by the
automorphism search, giving exact orders and a sound, complete membership
test.  After any forced prefix, each new base point is the smallest point
moved by the first generator or Schreier residue that fixes the current
base, and every iteration order is fixed, so identical inputs always
produce identical chains, generator lists, and reports.

A closure told the group's order stops sifting once the chain reaches it;
`close_group`'s docstring gives the argument.  The automorphism search
builds its chain without any closure, with the same transversal builder,
`_transversal`, and `stabilizer_by_base_change` reads a pointwise
stabilizer off a finished chain by conjugating and swapping its levels, so
no closure runs there either.

A group's generators and chain never change once closed; membership tests
and queries only read them.  Derived facts are memoized in place: each group
fills four slots on first use and keeps them: its element table,
its fixed-point set, its point orbits (each point's orbit, read off the
generators), and its pointwise stabilizers, keyed on the points in
first-occurrence order because the chain depends on the order of the base
prefix.  So `stabilizer_pointwise(G, t)` closes once per group and tuple;
the stabilizer memo grows with the distinct tuples G is asked about.

`restrict_to_invariant_set` closes the image of a group on an invariant
set; the kernel of that restriction comes from its caller, which knows it
already, and is read only to check that the orders multiply.

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
from typing import Iterable, Iterator, Sequence

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

    Construct through `close_group`, a sub-chain of one from some level on
    (as `stabilizer_pointwise` does), a base change of one
    (`stabilizer_by_base_change`), or the automorphism search; the
    constructor trusts its arguments.
    """

    __slots__ = ("degree", "generators", "base", "_levels", "_trans", "order",
                 "_table", "_fixed", "_orbits", "_stabilizers")

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

    def level_generators(self, k: int) -> list[Perm]:
        """Strong generators fixing the first k base points pointwise."""
        return list(self._levels[k]) if k < len(self._levels) else []

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
    group; in the package only `stabilizer_pointwise` passes one, its
    group's order.  `complete_level` then stops sifting Schreier generators
    once the product of the transversal sizes equals it ("Schreier-Sims with
    known order"; Seress, *Permutation Group Algorithms*, 2003); it still
    rebuilds every transversal.  Each level's generators fix the base points
    before it, so each transversal lies inside that level's orbit in the
    group, and the product is at most |G|.  Equality means every
    transversal is a full orbit and the base's pointwise stabilizer is
    trivial: every skipped Schreier generator would have sifted to the
    identity, so the chain is the one the full pass builds.  A finished
    chain whose order is not `known_order` raises `InternalCheckError`; an
    overstated order is caught that way, after a full pass.
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
        for i, j in enumerate(g):
            if i != j:
                return i
        raise InternalCheckError("identity has no moved point")

    def distribute(g: Perm):
        j = 0
        while j < len(base) and g[base[j]] == base[j]:
            j += 1
        if j == len(base):
            add_base_point(min_moved(g))
        for level in range(j + 1):
            if g not in levels[level]:
                levels[level].append(g)

    for g in gens:
        distribute(g)

    def rebuild(i: int):
        trans[i] = _transversal(base[i], levels[i], ident)

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
                rep = trans[i][s[point]]
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
    key = tuple(dict.fromkeys(t))
    _check_entries(G, key)
    if not key:
        return G
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


def stabilizer_by_base_change(G: PermGroup, points: Iterable[int]) -> PermGroup:
    """The subgroup of G fixing every point of the set, read off G's chain.

    Deterministic base change (Seress, *Permutation Group Algorithms*,
    2003, §5.4; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, §4.4.7): the points G moves go to the front of a copy of
    G's chain, ascending, one level j per point a.  Let m be the first
    level from j on whose orbit holds a.  Levels m.. are conjugated by the
    transversal element that maps b_m to a, so that a is b_m; with no such
    level, a is inserted as a one-point level below the deepest level that
    moves it, as m.  Then a is swapped up from level m to level j
    (`_swap_levels`); with m = j there is nothing to swap.  The
    stabilizer is the chain from the first level after those points on,
    its one-point levels dropped, and no closure runs.  Its generators are
    that level's, not `stabilizer_pointwise`'s, so callers read only the
    group it is.  Nothing is kept in G.
    """
    points = set(points)
    _check_entries(G, points)
    key = sorted(points - G.fixed_points())
    if not key:
        return G
    ident = Perm.identity(G.degree)
    base, levels, trans = list(G.base), list(G._levels), list(G._trans)
    for j, a in enumerate(key):
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
    k = len(key)
    kept = [i for i in range(k, len(base)) if len(trans[i]) > 1]
    gens = tuple(dict.fromkeys(levels[k])) if kept else ()
    sub = [trans[i] for i in kept]
    return PermGroup(G.degree, gens, tuple(base[i] for i in kept),
                     tuple(tuple(levels[i]) for i in kept), tuple(sub),
                     prod(map(len, sub)))


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
            for x, y in enumerate(g):
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
            self._index = {g: i for i, g in enumerate(self.elements)}
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
            if all(tuple(map(g.__getitem__, t)) in tuples for t in tuples):
                out |= 1 << i
        return out

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


def restrict_to_invariant_set(G: PermGroup, C: Iterable[int],
                              kernel: PermGroup) -> PermGroup:
    """The image of G restricted to an invariant subset C.

    The image acts on 0..|C|-1, position i standing for the i-th smallest
    element of C.  `kernel` is the caller's pointwise stabilizer of C in G;
    it is read for its order only.  Errors if some generator moves C off
    itself; checks |G| = |image|*|kernel|.
    """
    points = tuple(sorted(set(C)))
    for e in points:
        if not 0 <= e < G.degree:
            raise GroupError(f"element {e} out of range for degree {G.degree}")
    if not _is_invariant(G, frozenset(points)):
        raise NotInvariantError(f"set {points} is not setwise invariant under the group")
    index = {e: i for i, e in enumerate(points)}
    restricted = [Perm(index[g[e]] for e in points) for g in G.generators]
    # No known order for the image: the check below is what tests the split.
    image = close_group(restricted, degree=len(points))
    if image.order * kernel.order != G.order:
        raise InternalCheckError(
            f"restriction split failed: {G.order} != {image.order} * {kernel.order}")
    return image
