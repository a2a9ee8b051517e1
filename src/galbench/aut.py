"""Automorphism groups of finite relational structures.

The engine is a backtracking search over partial bijections, pruned by a
stable vertex coloring (iterated refinement of relation-degree invariants)
and by incremental forward/backward table checks.  It emits a strong
generating set level by level, so large symmetric groups come out as a few
generators instead of an element list.

Pointwise stabilizers, and with them every `Aut(M/A)`, are derived from the
full group's stabilizer chain rather than re-searched; the two routes agree
and the test suite cross-checks them.
"""

from __future__ import annotations

from typing import Iterable

from .errors import NotInvariantError, StructureError
from .perm import (Perm, PermGroup, Restriction, close_group,
                   restrict_to_invariant_set, stabilizer_pointwise)
from .structure import Structure


def _stable_colors(M: Structure, fixed: frozenset[int]) -> tuple[int, ...]:
    """Automorphism-invariant element coloring; fixed elements are singled out."""
    init = []
    for e in range(M.size):
        degs = []
        for rel, _ in M.signature.relations:
            table = M.tables[rel]
            arity = M.signature.arity(rel)
            for pos in range(arity):
                degs.append(sum(1 for t in table if t[pos] == e))
        init.append((e if e in fixed else -1, tuple(degs)))
    palette = {sig: i for i, sig in enumerate(sorted(set(init)))}
    colors = [palette[sig] for sig in init]

    touch: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(M.size)]
    for rel, _ in M.signature.relations:
        for t in M.tables[rel]:
            for e in set(t):
                touch[e].append((rel, t))

    while True:
        sigs = []
        for e in range(M.size):
            local = sorted((rel, tuple(colors[x] for x in t)) for rel, t in touch[e])
            sigs.append((colors[e], tuple(local)))
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [palette[sig] for sig in sigs]
        if new_colors == colors:
            return tuple(colors)
        colors = new_colors


def search_automorphism_generators(M: Structure,
                                   fixed: Iterable[int] = ()) -> list[Perm]:
    """Generators of the group of automorphisms fixing `fixed` pointwise.

    Deterministic: base points ascending, candidate images ascending, and the
    resulting generators sorted by image tuple.
    """
    fixed = M.check_subset(fixed, "fixed set")
    n = M.size
    colors = _stable_colors(M, fixed)

    touch: list[list[tuple[frozenset, tuple[int, ...]]]] = [[] for _ in range(n)]
    for rel, _ in M.signature.relations:
        table = M.tables[rel]
        for t in sorted(table):
            for e in set(t):
                touch[e].append((table, t))

    img = [-1] * n
    pre = [-1] * n

    def consistent(x: int, y: int) -> bool:
        if colors[x] != colors[y]:
            return False
        for table, t in touch[x]:
            out = []
            for e in t:
                ie = y if e == x else img[e]
                if ie < 0:
                    out = None
                    break
                out.append(ie)
            if out is not None and tuple(out) not in table:
                return False
        for table, t in touch[y]:
            out = []
            for e in t:
                pe = x if e == y else pre[e]
                if pe < 0:
                    out = None
                    break
                out.append(pe)
            if out is not None and tuple(out) not in table:
                return False
        return True

    def extend(cursor: int) -> Perm | None:
        x = cursor
        while x < n and img[x] >= 0:
            x += 1
        if x == n:
            return Perm(img)
        for y in range(n):
            if pre[y] >= 0 or not consistent(x, y):
                continue
            img[x] = y
            pre[y] = x
            found = extend(x + 1)
            if found is not None:
                return found
            img[x] = -1
            pre[y] = -1
        return None

    base = [x for x in range(n) if x not in fixed]
    gens: list[Perm] = []

    def reach(x0: int) -> set[int]:
        seen = {x0}
        frontier = [x0]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g(p)
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        return seen

    for i in reversed(range(len(base))):
        x = base[i]
        prefix = fixed.union(base[:i])
        known = reach(x)
        for y in range(n):
            if y == x or y in known or y in prefix or colors[y] != colors[x]:
                continue
            for e in range(n):
                img[e] = e if e in prefix else -1
                pre[e] = e if e in prefix else -1
            if not consistent(x, y):
                continue
            img[x] = y
            pre[y] = x
            found = extend(0)
            if found is not None:
                gens.append(found)
                known = reach(x)
        for e in range(n):
            img[e] = -1
            pre[e] = -1
    return sorted(gens)


def _orbit_product(generators: list[Perm], degree: int) -> int:
    """The order of the group `search_automorphism_generators` found: the
    product of its per-level orbit sizes.

    The search handles base point x with every generator of the levels after
    x already found, and finds a generator for each remaining point of x's
    orbit in the stabilizer of the points before x; each such generator fixes
    those points and moves x.  So the generators of levels x and later are
    exactly those whose smallest moved point is >= x, and the orbit of x
    under them is the search's whole orbit at level x (`known` when the level
    ends).  The product over x is |Aut(M/fixed)| by orbit-stabilizer.
    """
    first_moved = [next(i for i, j in enumerate(g.images) if i != j)
                   for g in generators]
    order = 1
    for x in range(degree):
        level = [g for g, m in zip(generators, first_moved) if m >= x]
        seen = {x}
        frontier = [x]
        while frontier:
            p = frontier.pop()
            for g in level:
                q = g.images[p]
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        order *= len(seen)
    return order


def _cache(M: Structure) -> dict:
    return M._caches.setdefault("aut", {})


def automorphism_group(M: Structure) -> PermGroup:
    """The group of all bijections of the universe preserving every relation
    table in both directions.

    The search's orbit product is the group's order, so the closure is told
    it and skips the redundant sifting; a mismatch raises
    `InternalCheckError`.
    """
    cache = _cache(M)
    got = cache.get(frozenset())
    if got is None:
        gens = search_automorphism_generators(M)
        got = close_group(gens, degree=M.size, known_order=_orbit_product(gens, M.size))
        cache[frozenset()] = got
    return got


def automorphism_group_fixing(M: Structure, A: Iterable[int]) -> PermGroup:
    """The subgroup of Aut(M) fixing each element of A pointwise."""
    A = M.check_subset(A, "parameter set")
    cache = _cache(M)
    got = cache.get(A)
    if got is None:
        got = stabilizer_pointwise(automorphism_group(M), tuple(sorted(A)))
        cache[A] = got
    return got


def relative_restriction(M: Structure, C: Iterable[int],
                         A: Iterable[int]) -> Restriction:
    """Restriction of Aut(M/A) to an invariant C: image, kernel, and the
    position-to-element map.

    Memoized per (C, A) in `M._caches`; a set that is not invariant is
    rejected afresh on every call.
    """
    A = M.check_subset(A, "base set")
    C = M.check_subset(C, "top set")
    if not A <= C:
        raise StructureError("base set must be contained in the top set")
    cache = M._caches.setdefault("restriction", {})
    got = cache.get((C, A))
    if got is None:
        G = automorphism_group_fixing(M, A)
        try:
            got = restrict_to_invariant_set(G, C)
        except NotInvariantError:
            raise NotInvariantError(
                f"set {M.render_set(C)} is not a union of orbits over the base; its "
                "self-maps would be proper partial elementary maps, which this "
                "operation does not materialize") from None
        cache[(C, A)] = got
    return got


def relative_aut(M: Structure, C: Iterable[int], A: Iterable[int]) -> PermGroup:
    """Aut(C/A): restrictions to C of automorphisms fixing A pointwise.

    Acts on positions 0..|C|-1, position i standing for the i-th smallest
    element of C.  C must be setwise invariant under Aut(M/A); if it is not,
    that is reported, never silently repaired.
    """
    return relative_restriction(M, C, A).image
