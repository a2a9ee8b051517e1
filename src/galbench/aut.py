"""Automorphism groups of finite relational structures.

The engine searches level by level over the base points, deepest level
first, and emits a strong generating set, so large symmetric groups come out
as a few generators instead of an element list.  Each level keeps its base
point's orbit as a transversal, so the search ends holding the group's
stabilizer chain, and `automorphism_group` returns that chain as it is.
Candidate maps are pruned by a stable vertex coloring (equitable
refinement: each element is signed by the colors of its tuples, its own
positions marked) and by incremental forward/backward table checks.

Each candidate x -> y is settled in two parts.  Existence: a backtrack
assigns the unmapped elements in breadth-first order from the mapped ones
over the Gaifman graph (two elements are neighbours when they share a
tuple), so each assignment is checked against mapped neighbours at once and
draws its image from the neighbours of its parent's image.  Canonical form:
the automorphism found is replaced by the lex-least element of its coset of
the deeper levels' group, read off their transversals one base point at a
time (Seress, *Permutation Group Algorithms*, 2003, ch. 4).  That element is
the first leaf of a backtrack over positions 0..n-1 with ascending images,
so the generators do not depend on the order in which the existence search
assigns elements.

`automorphism_group_fixing(M, A)` takes Aut(M/A) from what the structure's
cache already holds: a cached Aut(M), or else the cached group of the
largest subset of A, whose chain is rebased to start with A
(`perm.stabilizer_pointwise`); with neither, one search with A fixed, which
builds the chain of Aut(M/A) directly.  Every route gives the search's
canonical generators, so the routes give the same group, generators and
chain, and no response depends on what was asked before.  The test suite cross-checks the
routes.

`relative_restriction(M, C, A)` is Aut(C/A), the image of Aut(M/A) on an
invariant C, read off the chain of Aut(M/A) rebased to start with C.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import CapError, InternalCheckError, NotInvariantError, StructureError
from .perm import (Perm, PermGroup, _chain_group, _Level, _lex_least, _transversal,
                   restrict_to_invariant_set, stabilizer_pointwise)
from .structure import Structure


#: Most consistency checks (one candidate image tried for one element) one
#: automorphism search makes before it stops with `CapError`.  The largest
#: search in the benchmark makes 2,643, a search for Aut(M); the largest
#: search with a fixed set makes 580.
SEARCH_WORK_CAP = 500_000

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
    number of classes stops growing or every element has a class of its own,
    which no round can split.  The search only compares colors, and a
    coloring every automorphism preserves prunes only maps that no
    automorphism extends, so the generators found do not depend on which
    such coloring is used.
    """
    colors = [e + 1 if e in fixed else 0 for e in range(M.size)]
    count = len(set(colors))
    while count < M.size:
        sigs = [(colors[e], tuple(sorted(
                    (r, tuple([-1 if x == e else colors[x] for x in t]))
                    for r, _, t in touch[e])))
                for e in range(M.size)]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [palette[sig] for sig in sigs]
        if len(palette) == count:
            break
        count = len(palette)
    return tuple(colors)


def _walk(neighbours: Callable[[int], list[int]], n: int,
          mapped: Iterable[int]) -> list[tuple[int, int]]:
    """The unmapped elements of 0..n-1 in breadth-first order from the mapped
    ones, each with the element it was reached from; an unreached component
    starts at its smallest element, reached from -1."""
    queue = sorted(mapped)
    seen = [False] * n
    for e in queue:
        seen[e] = True
    out: list[tuple[int, int]] = []
    head = start = 0
    while len(queue) < n:
        if head < len(queue):
            u = queue[head]
            head += 1
            for v in neighbours(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
                    out.append((v, u))
        else:
            while seen[start]:
                start += 1
            seen[start] = True
            queue.append(start)
            out.append((start, -1))
    return out


def search_automorphism_generators(M: Structure, fixed: Iterable[int] = ()
                                   ) -> PermGroup:
    """The group of automorphisms fixing `fixed` pointwise, with the
    stabilizer chain the search builds.

    Deterministic: base points ascending, candidate images ascending, and the
    resulting generators sorted by image tuple.  Each level ends with the
    whole orbit of its base point under the stabilizer of the points before
    it, kept as a transversal (`perm._transversal`) of the generators found
    at that level or deeper.  The chain keeps the levels whose orbit has
    more than one point, in ascending base order, and the order is the
    product of the transversal sizes.

    Levels run deepest first, and each candidate x -> y of level i is
    settled in two parts.  Existence: a backtrack assigns the other elements
    in breadth-first order over the Gaifman graph from the mapped ones, each
    image drawn from the neighbours of its parent's image and checked
    against its mapped neighbours at once.  Canonical form: the automorphism
    g found is replaced by the lex-least element of its coset g·G_{i+1},
    read off the deeper levels' transversals (`perm._lex_least`).  The
    reported generator is the first automorphism a backtrack over positions
    0..n-1 with ascending images would reach, so it does not depend on the
    order of assignment.
    Past `SEARCH_WORK_CAP` consistency checks the search raises `CapError`.
    """
    fixed = M.check_subset(fixed, "fixed set")
    n = M.size
    touch = _incidence(M)
    colors = _stable_colors(M, fixed, touch)
    cap = SEARCH_WORK_CAP
    checks = 0

    img = [-1] * n
    pre = [-1] * n

    def consistent(x: int, y: int) -> bool:
        nonlocal checks
        checks += 1
        if checks > cap:
            raise CapError(f"automorphism search passed {cap} consistency checks")
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

    near: list[list[int] | None] = [None] * n

    def neighbours(e: int) -> list[int]:
        """The Gaifman graph's neighbours of e, ascending, built on first use."""
        got = near[e]
        if got is None:
            found = set()
            for _, _, t in touch[e]:
                found.update(t)
            found.discard(e)
            got = near[e] = sorted(found)
        return got

    walk: list[tuple[int, int]] | None = None  # the level's, at its first candidate

    def extend(k: int) -> bool:
        if k == len(walk):
            return True
        x, parent = walk[k]
        for y in (range(n) if parent < 0 else neighbours(img[parent])):
            if pre[y] >= 0 or not consistent(x, y):
                continue
            img[x] = y
            pre[y] = x
            if extend(k + 1):
                return True
            img[x] = -1
            pre[y] = -1
        return False

    base = [x for x in range(n) if x not in fixed]
    ident = Perm.identity(n)
    gens: list[Perm] = []
    # (base point, generators found at its level or deeper, transversal) for
    # each completed level whose orbit has more than one point, deepest first
    chain: list[_Level] = []

    for i in reversed(range(len(base))):
        x = base[i]
        prefix = fixed.union(base[:i])
        known = _transversal(x, gens, ident)
        walk = None
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
            if walk is None:
                walk = _walk(neighbours, n, prefix | {x})
            if extend(0):
                gens.append(Perm(_lex_least(img, chain)))
                known = _transversal(x, gens, ident)
        if len(known) > 1:
            chain.append((x, tuple(gens), known))
    return _chain_group(n, gens, chain)


def _cache(M: Structure) -> dict:
    return M._caches.setdefault("aut", {})


def _sifted(G: PermGroup) -> PermGroup:
    """G, once each of its generators sifts to the identity through its chain."""
    if not all(G.contains(g) for g in G.generators):
        raise InternalCheckError(
            "an automorphism the search found does not sift through its chain")
    return G


def automorphism_group(M: Structure) -> PermGroup:
    """The group of all bijections of the universe preserving every relation
    table in both directions.

    This is the search's own group and chain.  Each generator is sifted
    through that chain once, and one that does not sift to the identity
    raises `InternalCheckError`.  The tests compare the chain with full
    closures of its generators.
    """
    cache = _cache(M)
    got = cache.get(frozenset())
    if got is None:
        got = cache[frozenset()] = _sifted(search_automorphism_generators(M))
    return got


def automorphism_group_fixing(M: Structure, A: Iterable[int]) -> PermGroup:
    """The subgroup of Aut(M) fixing each element of A pointwise; memoized
    per A, which is checked only when it is not cached yet.

    A new A takes the cheapest route the structure's cache allows.  With A
    empty it is Aut(M).  If Aut(M) is cached, or else the group fixing some
    nonempty S < A, it is read off that group's chain
    (`stabilizer_pointwise`), S the largest such set.  Otherwise it is one
    search with A fixed.  Every route gives the same generators and chain.
    """
    A = frozenset(A)
    cache = _cache(M)
    got = cache.get(A)
    if got is None:
        if not A:
            return automorphism_group(M)
        M.check_subset(A, "parameter set")
        # A cached Aut(M) is taken at once, without scanning the cache, which
        # grows with every set asked about.
        below = [frozenset()] if frozenset() in cache else [S for S in cache if S < A]
        if below:
            got = stabilizer_pointwise(cache[max(below, key=len)], A)
        else:
            got = _sifted(search_automorphism_generators(M, A))
        cache[A] = got
    return got


def relative_restriction(M: Structure, C: Iterable[int],
                         A: Iterable[int]) -> PermGroup:
    """Aut(C/A): restrictions to C of automorphisms fixing A pointwise.

    Acts on positions 0..|C|-1, position i standing for the i-th smallest
    element of C.  C must be setwise invariant under Aut(M/A); if it is not,
    that is reported, never silently repaired, and nothing is cached for it.
    Memoized per (C, A) in `M._caches`, so the sets and their nesting are
    checked only for a new pair; a set that is not invariant is rejected
    afresh on every call.
    """
    A = frozenset(A)
    C = frozenset(C)
    cache = M._caches.setdefault("restriction", {})
    got = cache.get((C, A))
    if got is None:
        M.check_subset(A, "base set")
        M.check_subset(C, "top set")
        if not A <= C:
            raise StructureError("base set must be contained in the top set")
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
