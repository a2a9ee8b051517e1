"""Automorphism groups of finite relational structures.

The engine is a backtracking search over partial bijections, pruned by a
stable vertex coloring (equitable refinement: each element is signed by the
colors of its tuples, its own positions marked) and by incremental
forward/backward table checks.  It emits a strong generating set level by
level, so large symmetric groups come out as a few generators instead of an
element list, and returns the group's order as the product of its per-level
orbit sizes.

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


#: Per element, its (relation index, table, tuple) entries.
_Incidence = list[list[tuple[int, frozenset, tuple[int, ...]]]]


def _incidence(M: Structure) -> _Incidence:
    """Each element's entries, tuples taken in `sorted(table)` order."""
    touch: _Incidence = [[] for _ in range(M.size)]
    for r, (rel, _) in enumerate(M.signature.relations):
        table = M.tables[rel]
        for t in sorted(table):
            for e in set(t):
                touch[e].append((r, table, t))
    return touch


def _stable_colors(M: Structure, fixed: frozenset[int],
                   touch: _Incidence) -> tuple[int, ...]:
    """Automorphism-invariant element coloring; fixed elements are singled out.

    Each round signs an element by its color and the sorted (relation index,
    tuple colors) of its tuples, its own positions written as -1, until the
    number of classes stops growing.  The search only compares colors, and a
    coloring every automorphism preserves prunes only maps that no
    automorphism extends, so the generators found do not depend on which
    such coloring is used.
    """
    colors = [e + 1 if e in fixed else 0 for e in range(M.size)]
    count = len(set(colors))
    while True:
        sigs = [(colors[e], tuple(sorted(
                    (r, tuple([-1 if x == e else colors[x] for x in t]))
                    for r, _, t in touch[e])))
                for e in range(M.size)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [palette[sig] for sig in sigs]
        if len(palette) == count:
            return tuple(colors)
        count = len(palette)


def search_automorphism_generators(M: Structure, fixed: Iterable[int] = ()
                                   ) -> tuple[list[Perm], int]:
    """Generators of the group of automorphisms fixing `fixed` pointwise, and
    the group's order.

    Deterministic: base points ascending, candidate images ascending, and the
    resulting generators sorted by image tuple.  Each level ends with the
    whole orbit of its base point under the stabilizer of the points before
    it, so the product of those orbit sizes is the order.
    """
    fixed = M.check_subset(fixed, "fixed set")
    n = M.size
    touch = _incidence(M)
    colors = _stable_colors(M, fixed, touch)

    img = [-1] * n
    pre = [-1] * n

    def consistent(x: int, y: int) -> bool:
        if colors[x] != colors[y]:
            return False
        for _, table, t in touch[x]:
            out = []
            for e in t:
                ie = y if e == x else img[e]
                if ie < 0:
                    out = None
                    break
                out.append(ie)
            if out is not None and tuple(out) not in table:
                return False
        for _, table, t in touch[y]:
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

    order = 1
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
        order *= len(known)
        for e in range(n):
            img[e] = -1
            pre[e] = -1
    return sorted(gens), order


def _cache(M: Structure) -> dict:
    return M._caches.setdefault("aut", {})


def automorphism_group(M: Structure) -> PermGroup:
    """The group of all bijections of the universe preserving every relation
    table in both directions.

    The closure is told the order the search returns and skips the redundant
    sifting; a mismatch raises `InternalCheckError`.
    """
    cache = _cache(M)
    got = cache.get(frozenset())
    if got is None:
        gens, order = search_automorphism_generators(M)
        got = close_group(gens, degree=M.size, known_order=order)
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
