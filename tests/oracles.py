"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own machinery: field tables
come from schoolbook polynomial arithmetic, automorphism groups from filtering
all bijections, group orders from naive closure, and formula evaluation from a
witness-enumerating recursion.  The tests compare the package against these.
The slow paths that faster package code replaced (the subgroup lattice as
joins of Perm sets, the stabilizer closed twice, the duality check and code
searches as loops over element lists, normality as an orbit search per
element, the antitone law on closed subgroups, splitting as a tuple-orbit
search per candidate, the element list as Perm products, the sift that
inverts each level's transversal element,
the structure parser built on token objects, the formula parser built as a
class, the automorphism search's
degree-scan coloring, its position-order backtrack and its orbit product
rebuilt from generators) are kept
here as references.  So is `all_subgroups`, the package's lattice masks
closed into one group each: the reference lattice the tests walk;
`setwise_stabilizer`, the reference for `perm._set_orbit`; and
`close_group`, the Schreier-Sims closure, the reference every stabilizer
chain the package builds is compared with.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import prod
from typing import Iterable

from galbench import perm, structure, suite
from galbench.aut import (_incidence, _stable_colors, automorphism_group,
                          automorphism_group_fixing, relative_restriction)
from galbench.errors import (CapError, DslError, FormulaError, GroupError,
                             HypothesisError, InternalCheckError, StructureError)
from galbench.formula import (MAX_DEPTH, And, Atom, Eq, ExactCount, Exists, Forall,
                              Formula, Iff, Implies, Not, Or, _tree_depth)
from galbench.galois import (CodesReport, DualityFailure, GaloisReport,
                             dcl, find_generator, fix_of_set, fix_of_subgroup,
                             fmt_group, fmt_set)
from galbench.perm import Perm, PermGroup, _canonical, _transversal, orbit
from galbench.structure import Signature, Structure, is_element_name, is_identifier

# -- finite field arithmetic oracle (polynomial lists over GF(2)) -------------------


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] ^= c
    for i, c in enumerate(q):
        out[i] ^= c
    return _poly_trim(out)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] ^= a & b
    return _poly_trim(out)


def _poly_mod(p, modulus):
    p = list(p)
    deg_m = len(modulus) - 1
    while len(p) - 1 >= deg_m and p:
        shift = len(p) - 1 - deg_m
        for i, c in enumerate(modulus):
            p[i + shift] ^= c
        p = list(_poly_trim(p))
    return _poly_trim(p)


def gf_field_tables(k: int, modulus_coeffs: tuple[int, ...]):
    """Name-keyed add/mul tables of GF(2^k) with names 0, 1, w, w2, ...

    modulus_coeffs lists the modulus polynomial lowest degree first,
    e.g. x^2+x+1 is (1, 1, 1).
    """
    one = (1,)
    x = (0, 1)
    names: dict[tuple[int, ...], str] = {(): "0", one: "1"}
    current = one
    for e in range(1, 2 ** k - 1):
        current = _poly_mod(_poly_mul(current, x), modulus_coeffs)
        names[current] = "w" if e == 1 else f"w{e}"
    assert len(names) == 2 ** k
    elements = list(names)
    add = {}
    mul = {}
    for p in elements:
        for q in elements:
            add[(names[p], names[q])] = names[_poly_add(p, q)]
            mul[(names[p], names[q])] = names[_poly_mod(_poly_mul(p, q), modulus_coeffs)]
    return add, mul


def frobenius_perm(M) -> Perm:
    """The squaring map read off a structure's mul table, as a permutation."""
    square = {}
    for (a, b, c) in M.tables["mul"]:
        if a == b:
            square[a] = c
    return Perm(square[i] for i in range(M.size))


# -- automorphism and group oracles -----------------------------------------------


def brute_automorphisms(M, fixed=frozenset()) -> list[Perm]:
    """All bijections preserving every table, by filtering n! candidates."""
    out = []
    for images in permutations(range(M.size)):
        if any(images[e] != e for e in fixed):
            continue
        ok = True
        for rel, _ in M.signature.relations:
            table = M.tables[rel]
            for t in table:
                if tuple(images[e] for e in t) not in table:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(Perm(images))
    return out


def slow_stable_colors(M, fixed) -> tuple[int, ...]:
    """The automorphism search's old coloring: relation-degree invariants
    (one table scan per element), then refinement by the colors of each
    element's tuples, without marking its own positions."""
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

    touch = [[] for _ in range(M.size)]
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


def slow_search_automorphism_generators(M: Structure, fixed: Iterable[int] = ()
                                        ) -> tuple[list[Perm], int]:
    """The automorphism search before its two-part levels, kept as the
    reference for `search_automorphism_generators`: each candidate x -> y is
    extended by a DFS over positions 0..n-1 with images ascending, whose first
    leaf is the reported generator.

    Generators of the group of automorphisms fixing `fixed` pointwise, and
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


def slow_orbit_product(generators, degree) -> int:
    """The order of the group the automorphism search found, rebuilt from its
    generators alone: the generators of level x are those whose smallest
    moved point is >= x, and the product over x of the orbit of x under
    them is the search's per-level orbit product."""
    first_moved = [next(i for i, j in enumerate(g) if i != j)
                   for g in generators]
    order = 1
    for x in range(degree):
        level = [g for g, m in zip(generators, first_moved) if m >= x]
        seen = {x}
        frontier = [x]
        while frontier:
            p = frontier.pop()
            for g in level:
                q = g[p]
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
        order *= len(seen)
    return order


def slow_elements(G) -> list[Perm]:
    """Every element of G as a Perm product down the chain, one transversal
    element per level, sorted as Perms."""
    elems = [Perm.identity(G.degree)]
    for i in reversed(range(len(G.base))):
        layer = []
        for point in sorted(G._trans[i]):
            u = G._trans[i][point]
            layer.extend(u * e for e in elems)
        elems = layer
    elems.sort()
    return elems


def textbook_sift(base, trans, g: Perm, start: int = 0) -> tuple[Perm, int]:
    """Strip g down a stabilizer chain from level `start`, inverting each
    level's transversal element: g <- u^-1 * g while g(b_i) is in level i's
    orbit.  Returns the residue and the level where stripping stopped."""
    i = start
    while i < len(base):
        u = trans[i].get(g[base[i]])
        if u is None:
            return g, i
        g = u.inverse() * g
        i += 1
    return g, i


# -- the Schreier-Sims closure ------------------------------------------------------


def close_group(generators: Iterable[Perm], *, degree: int | None = None,
                base_prefix: Iterable[int] = (),
                known_order: int | None = None) -> PermGroup:
    """Close a generator list into a `PermGroup` with a stabilizer chain by
    a deterministic Schreier-Sims pass.

    `base_prefix` forces the base to start with the given points (in order),
    which makes pointwise stabilizers directly readable off the chain.  Each
    further base point is the smallest point moved by the first generator or
    Schreier residue that fixes the base so far; the base need not ascend.
    Every level's transversal is rebuilt by `complete_level` after the last
    change to its generators.  The generators are the given ones, identities
    and repeats dropped, so they are not canonical.

    `known_order`, when given, must be the exact order of the generated
    group.  `complete_level` then stops sifting Schreier generators once the
    product of the transversal sizes equals it ("Schreier-Sims with known
    order"; Seress, *Permutation Group Algorithms*, 2003); it still rebuilds
    every transversal.  Each level's generators fix the base points before
    it, so the product is at most |G|, and equality means every skipped
    Schreier generator would have sifted to the identity: the chain is the
    one the full pass builds.  A finished chain whose order is not
    `known_order` raises `InternalCheckError`.
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
        return next(i for i, j in enumerate(g) if i != j)

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

    def reached() -> bool:
        return known_order is not None and prod(map(len, trans)) == known_order

    def complete_level(i: int):
        trans[i] = _transversal(base[i], levels[i], ident)
        if reached():
            return
        for point in sorted(trans[i]):
            u = trans[i][point]
            for s in list(levels[i]):
                su = s * u
                rep = trans[i][s[point]]
                if su == rep:
                    continue
                residue, j = textbook_sift(base, trans, rep.inverse() * su, i + 1)
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

    for i in reversed(range(len(base))):
        complete_level(i)

    order = prod(map(len, trans))
    if known_order is not None and order != known_order:
        raise InternalCheckError(
            f"closed group has order {order}, not the known order {known_order}")
    return PermGroup(degree, tuple(gens), tuple(base), tuple(tuple(l) for l in levels),
                     tuple(trans), order)


def canonical_stabilizer(G, points) -> PermGroup:
    """The pointwise stabilizer of `points` in G, closed afresh with the
    points G moves among them as base prefix, ascending, then the rest of
    the points G moves, ascending, and read with the package's canonical
    generators from the level after the first ones."""
    points = set(points)
    moved = {x for x in range(G.degree) if any(g[x] != x for g in G.generators)}
    key = sorted(points & moved)
    closed = close_group(G.generators, degree=G.degree,
                         base_prefix=key + sorted(moved - points))
    return _canonical(G.degree, closed.base[len(key):], closed._trans[len(key):])


def brute_canonical_generators(elements) -> tuple[Perm, ...]:
    """The canonical generators of the group of `elements`, read off element
    lists: base point b_j is the least point moved by H_j, the elements
    fixing b_0..b_(j-1); deepest level first, each point y of the orbit of
    b_j under H_j, ascending, that the generators so far do not reach from
    b_j adds the least element of H_j mapping b_j to y."""
    degree = elements[0].degree
    levels = []
    H = sorted(elements)
    while True:
        b = next((x for x in range(degree) if any(h[x] != x for h in H)), None)
        if b is None:
            break
        levels.append((b, H))
        H = [h for h in H if h[b] == b]
    gens: list[Perm] = []
    for b, H in reversed(levels):
        for y in sorted({h[b] for h in H}):
            if y not in {g[b] for g in word_closure(gens, degree)}:
                gens.append(min(h for h in H if h[b] == y))
    return tuple(sorted(gens))


def naive_closure(perms, degree) -> set[Perm]:
    """Close a generator set under products by repeated multiplication."""
    elems = {Perm.identity(degree)} | set(perms)
    while True:
        new = {a * b for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def word_closure(gens, degree) -> set[Perm]:
    """All products of the generators (finite group, so inverses come free)."""
    elems = {Perm.identity(degree)}
    frontier = [Perm.identity(degree)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = e * g
                if f not in elems:
                    elems.add(f)
                    nxt.append(f)
        frontier = nxt
    return elems


def minimal_generators(elements) -> list[Perm]:
    """Each element, in sorted order, not generated by the ones before."""
    if not elements:
        return []
    degree = elements[0].degree
    gens: list[Perm] = []
    known = {Perm.identity(degree)}
    for g in sorted(elements):
        if g not in known:
            gens.append(g)
            known = word_closure(gens, degree)
    return gens


def cyclic_join_subgroups(G) -> list[tuple[list[Perm], list[Perm]]]:
    """Every subgroup of G as (sorted element list, minimal generators), in
    (order, element list) order: the join of every subgroup found with every
    cyclic subgroup, over Perm sets, from the trivial group up."""
    ident = Perm.identity(G.degree)
    cyclics = []
    seen_cyc = set()
    for g in G.elements():
        if g.is_identity():
            continue
        powers = {ident}
        x = g
        while not x.is_identity():
            powers.add(x)
            x = x * g
        key = frozenset(powers)
        if key not in seen_cyc:
            seen_cyc.add(key)
            cyclics.append((key, g))

    trivial = frozenset({ident})
    gens_of = {trivial: []}
    worklist = [trivial]
    while worklist:
        H = worklist.pop(0)
        for C, c_gen in cyclics:
            if C <= H:
                continue
            join = frozenset(word_closure(gens_of[H] + [c_gen], G.degree))
            if join not in gens_of:
                gens_of[join] = minimal_generators(sorted(join))
                worklist.append(join)
    ordered = sorted(gens_of, key=lambda s: (len(s), sorted(s)))
    return [(sorted(s), gens_of[s]) for s in ordered]


def all_subgroups(G) -> list:
    """Every subgroup of G exactly once, sorted by (order, element list).

    The i-th group is the i-th mask of `ElementTable.subgroups` on G's table,
    closed on its minimal generators and told its order (the mask's size).
    """
    if G.order > perm.DEFAULT_SUBGROUP_CAP:
        raise CapError(f"group order {G.order} exceeds subgroup enumeration cap "
                       f"{perm.DEFAULT_SUBGROUP_CAP}")
    table = G.element_table()
    return [close_group(table.perms(gens), degree=G.degree, known_order=mask.bit_count())
            for mask, gens in table.subgroups()]


def setwise_stabilizer(G, F) -> "perm.PermGroup":
    """The subgroup of G mapping the set of tuples F onto itself: G's
    elements filtered one by one, closed on their minimal generators and
    told their count."""
    tuples = {tuple(t) for t in F}
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise GroupError(f"mixed tuple lengths in set: {sorted(lengths)}")
    if any(not 0 <= e < G.degree for t in tuples for e in t):
        raise GroupError(f"tuple entry out of range for degree {G.degree}")
    kept = [g for g in G.elements() if {g.apply_tuple(t) for t in tuples} == tuples]
    return close_group(minimal_generators(kept), degree=G.degree, known_order=len(kept))


def two_close_stabilizer(G, points):
    """Pointwise stabilizer by closing with the points as base prefix, then
    closing the level generators again."""
    points = list(dict.fromkeys(points))
    k = len(points)
    chain = close_group(G.generators, degree=G.degree, base_prefix=points)
    return close_group(chain._levels[k] if k < len(chain.base) else (), degree=G.degree)


# -- the antitone law on closed subgroups --------------------------------------------


def slow_antitone_law(M, C, A, G_rel, B1, B2) -> list[str]:
    """`suite._antitone_law` with one closed `PermGroup` per subgroup
    (`all_subgroups`), Fix(H) by `fix_of_subgroup`, containment by
    `is_subgroup_of`, and a `fix_of_set` per subgroup."""
    out = []
    subs = all_subgroups(G_rel) if G_rel.order <= suite.ANTITONE_LATTICE_MAX_ORDER else [G_rel]
    fixes = [fix_of_subgroup(M, C, H1) for H1 in subs]
    for H1, f1 in zip(subs, fixes):
        for H2, f2 in zip(subs, fixes):
            if H1.is_subgroup_of(H2) and not f2 <= f1:
                out.append("Fix not antitone on subgroups")
    g1 = fix_of_set(M, C, A, B1)
    g2 = fix_of_set(M, C, A, B2)
    if not g2.is_subgroup_of(g1):
        out.append("Fix not antitone on sets")
    if not B1 <= fix_of_subgroup(M, C, g1):
        out.append("set not inside its double Fix")
    for H1, f1 in zip(subs, fixes):
        if not H1.is_subgroup_of(fix_of_set(M, C, A, f1)):
            out.append("subgroup not inside its double Fix")
    return out


# -- the duality check and code searches over element lists -------------------------


def slow_is_normal_extension(M, A, B) -> bool:
    """`is_normal_extension` as an orbit search per element of B: does B
    contain the Aut(M/A)-orbit of each of its elements?"""
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    G = automorphism_group_fixing(M, A)
    for x in sorted(B):
        if any(t[0] not in B for t in orbit(G, (x,))):
            return False
    return True


def slow_find_generator(M, A, B, max_len=3):
    """`find_generator` with every tuple over B tried in product order,
    repeats and every ordering included, and no length skipped."""
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    for length in range(max_len + 1):
        for cand in product(sorted(B), repeat=length):
            if B <= dcl(M, A | frozenset(cand)):
                return cand
    return None


def slow_is_splitting_extension(M, A, B, max_len=3):
    """`is_splitting_extension` with each candidate's tuple orbit built by
    breadth-first search and every candidate tested, repeats included."""
    A = M.check_subset(A, "base set")
    B = M.check_subset(B, "extension set")
    if not A <= B:
        raise StructureError("base set must be contained in the extension")
    G = automorphism_group_fixing(M, A)
    for length in range(max_len + 1):
        for cand in product(sorted(B), repeat=length):
            entries = frozenset(e for t in orbit(G, cand) for e in t)
            if entries <= B and B <= dcl(M, A | entries):
                return True, cand
    return False, None


def slow_find_code(M, F, max_len=3):
    """`find_code` by filtering Aut(M)'s element list for every candidate."""
    tuples = {M.check_tuple(t, "set member") for t in F}
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise StructureError(f"mixed tuple lengths in finite set: {sorted(lengths)}")
    elems = automorphism_group(M).elements()
    setwise = [g for g in elems if {g.apply_tuple(t) for t in tuples} == tuples]
    target = len(setwise)
    candidates = [x for x in range(M.size) if all(g(x) == x for g in setwise)]
    for length in range(0, max_len + 1):
        for cand in product(candidates, repeat=length):
            pointwise = sum(1 for g in elems if all(g(e) == e for e in cand))
            if pointwise == target:
                return cand
    return None


def slow_codes_finite_sets(M, max_set_size=2, max_len=3) -> CodesReport:
    """`codes_finite_sets` with set orbits from Aut(M)'s element list and
    codes from `slow_find_code`."""
    if max_set_size < 1 or max_len < 0:
        raise StructureError("caps must be positive")
    elems = automorphism_group(M).elements()
    reps = []
    seen = set()
    for size in range(1, max_set_size + 1):
        for combo in combinations(range(M.size), size):
            if combo in seen:
                continue
            images = {tuple(sorted(g(e) for e in combo)) for g in elems}
            seen.update(images)
            reps.append(min(images))
    failures = [M.render_set(rep) for rep in reps
                if slow_find_code(M, [(e,) for e in rep], max_len) is None]
    return CodesReport(structure=M.name, max_set_size=max_set_size, max_len=max_len,
                       sets_checked=len(reps), failures=tuple(failures))


def slow_code_is_verified(M, F, code) -> bool:
    """The stabilizer equality `multisymmetric_code` asserts, over Perm sets:
    the automorphisms fixing `code` pointwise are those fixing F setwise."""
    tuples = set(F)
    elems = automorphism_group(M).elements()
    setwise = {g for g in elems if {g.apply_tuple(t) for t in tuples} == tuples}
    pointwise = {g for g in elems if all(g(e) == e for e in code)}
    return setwise == pointwise


def slow_galois_correspondence(M, A, C, max_len=3) -> GaloisReport:
    """`verify_galois_correspondence` with a stabilizer chain per subgroup and
    per intermediate set (`fix_of_set`), the intermediate sets found by
    scanning every submask of C against Aut(M/A)'s element list, and codes
    from `slow_find_code`."""
    A0 = M.check_subset(A, "base set")
    C0 = M.check_subset(C, "top set")
    if not A0 <= C0:
        raise StructureError("base set must be contained in the top set")
    A = dcl(M, A0)
    C = dcl(M, C0)
    if not slow_is_normal_extension(M, A, C):
        raise HypothesisError(
            "top set is not a normal extension of the base: some orbit leaves it")

    G_A = automorphism_group_fixing(M, A)
    G = relative_restriction(M, C, A)
    points = tuple(sorted(C))
    if G.order > perm.DEFAULT_SUBGROUP_CAP:
        raise CapError(
            f"relative group order {G.order} exceeds cap {perm.DEFAULT_SUBGROUP_CAP}")
    subs = all_subgroups(G)

    pairs = []
    failures = []
    for H in subs:
        fixed = fix_of_subgroup(M, C, H)
        closure = fix_of_set(M, C, A, fixed)
        pairs.append((H.generator_strings(), M.render_set(fixed)))
        if not closure.equals(H):
            failures.append(DualityFailure(
                kind="subgroup", subject=fmt_group(H.generator_strings()),
                subject_order=H.order,
                closure=fmt_group(closure.generator_strings()),
                closure_order=closure.order))

    # dcl(A + S) for every S inside C, as an intersection of the fixed-point
    # sets of the elements of Aut(M/A) that fix S
    fixmasks = []
    for g in G_A.elements():
        mask = 0
        for x in range(M.size):
            if g(x) == x:
                mask |= 1 << x
        fixmasks.append(mask)
    cmask = 0
    for e in C:
        cmask |= 1 << e
    seen_masks = set()
    sub = cmask
    while True:
        closure_mask = (1 << M.size) - 1
        for gmask in fixmasks:
            if sub & ~gmask == 0:
                closure_mask &= gmask
        seen_masks.add(closure_mask)
        if sub == 0:
            break
        sub = (sub - 1) & cmask
    intermediates = [frozenset(x for x in range(M.size) if mask >> x & 1)
                     for mask in seen_masks]
    intermediates.sort(key=lambda s: (len(s), sorted(s)))
    # The set side, Fix(Fix(B)) = B.  The package no longer checks it, since
    # Fix∘Aut∘Fix = Fix makes it hold for every intermediate set; this
    # branch stays as the independent check of that theorem.
    for B in intermediates:
        if not B <= C:
            raise InternalCheckError("an intermediate closure escapes the top set")
        closure = fix_of_subgroup(M, C, fix_of_set(M, C, A, B))
        if closure != B:
            failures.append(DualityFailure(
                kind="set", subject=fmt_set(M.render_set(B)), subject_order=len(B),
                closure=fmt_set(M.render_set(closure)), closure_order=len(closure)))

    gen = find_generator(M, A, C, max_len)
    coding_failures = []
    if gen is None:
        coding_ok = None
    else:
        gen_positions = tuple(points.index(e) for e in gen)
        for H in subs:
            F = {tuple(points[h(p)] for p in gen_positions) for h in H.elements()}
            if slow_find_code(M, F, max_len) is None:
                coding_failures.append(
                    "{" + ", ".join("(" + ", ".join(M.render_tuple(t)) + ")"
                                    for t in sorted(F)) + "}")
        coding_ok = not coding_failures

    return GaloisReport(
        structure=M.name, base=M.render_set(A), top=M.render_set(C),
        group_order=G.order, subgroups=tuple(H.generator_strings() for H in subs),
        intermediates=tuple(M.render_set(B) for B in intermediates),
        pairs=tuple(pairs), failures=tuple(failures), coding_ok=coding_ok,
        coding_failures=tuple(coding_failures))


# -- formula evaluation oracle ------------------------------------------------------


def naive_eval(M, f, env) -> bool:
    """Witness-enumerating evaluator: quantifiers collect their full witness
    lists, connectives go through explicit truth values."""
    def term(t):
        if t in env:
            return env[t]
        return M.names[t]

    if isinstance(f, Atom):
        return tuple(term(a) for a in f.args) in M.tables[f.rel]
    if isinstance(f, Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, Not):
        return {True: False, False: True}[naive_eval(M, f.body, env)]
    if isinstance(f, (And, Or, Implies, Iff)):
        left = naive_eval(M, f.left, env)
        right = naive_eval(M, f.right, env)
        table = {
            And: {(True, True)},
            Or: {(True, True), (True, False), (False, True)},
            Implies: {(True, True), (False, True), (False, False)},
            Iff: {(True, True), (False, False)},
        }[type(f)]
        return (left, right) in table
    witnesses = [i for i in range(M.size)
                 if naive_eval(M, f.body, {**env, f.var: i})]
    if isinstance(f, Forall):
        return len(witnesses) == M.size
    if isinstance(f, Exists):
        return len(witnesses) > 0
    if isinstance(f, ExactCount):
        return len(witnesses) == f.count
    raise TypeError(f)


# -- random formula generation -------------------------------------------------------


VAR_POOL = ("x", "y", "z", "u", "v")


def random_formula(rng: random.Random, M, depth: int, free_vars: tuple[str, ...]):
    """A random well-scoped formula whose free identifiers are variables from
    `free_vars` and element names of M."""
    def go(depth, available):
        def leaf():
            terms = list(available) + list(M.labels)
            if M.signature.relations and rng.random() < 0.7:
                rel, arity = rng.choice(M.signature.relations)
                return Atom(rel, tuple(rng.choice(terms) for _ in range(arity)))
            return Eq(rng.choice(terms), rng.choice(terms))

        if depth == 0:
            return leaf()
        fresh = [v for v in VAR_POOL if v not in available]
        kinds = ["leaf", "not", "and", "or", "implies", "iff"]
        if fresh:
            kinds += ["forall", "exists", "exact"]
        kind = rng.choice(kinds)
        if kind == "leaf":
            return leaf()
        if kind == "not":
            return Not(go(depth - 1, available))
        if kind in ("and", "or", "implies", "iff"):
            cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
            return cls(go(depth - 1, available), go(depth - 1, available))
        var = rng.choice(fresh)
        body = go(depth - 1, available + (var,))
        if kind == "forall":
            return Forall(var, body)
        if kind == "exists":
            return Exists(var, body)
        return ExactCount(rng.randint(0, M.size), var, body)

    return go(depth, free_vars)


# -- structure text oracle -----------------------------------------------------------


_SLOW_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[{}()=,/]")


@dataclass(frozen=True)
class _SlowTok:
    text: str
    line: int
    col: int


def _slow_tokenize(text: str) -> list[_SlowTok]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _SLOW_TOKEN_RE.match(body, pos)
            if not m:
                raise DslError(f"unexpected character {body[pos]!r}", lineno, pos + 1)
            toks.append(_SlowTok(m.group(), lineno, pos + 1))
            pos = m.end()
    return toks


class _SlowParser:
    def __init__(self, toks: list[_SlowTok]):
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


def slow_load_structure(text: str) -> Structure:
    """The token-object parser that `load_structure` replaced.

    It gives the same `Structure`, or the same exception with the same
    message, line and column, on every input but one: an arity of more digits
    than int() converts raised ValueError here and is a DslError now.
    """
    p = _SlowParser(_slow_tokenize(text))
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
    if len(labels) > structure.DEFAULT_UNIVERSE_CAP:
        raise CapError(f"universe has {len(labels)} elements; "
                       f"cap is {structure.DEFAULT_UNIVERSE_CAP}")
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


# -- formula text oracle -------------------------------------------------------------


_SLOW_FTOKEN_RE = re.compile(r"\s*(<->|->|[A-Za-z0-9_]+|[()~&|=.!,])")


def _slow_lex(text: str) -> list[tuple[str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _SLOW_FTOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].isspace():
                break
            raise FormulaError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


class _SlowFormulaParser:
    def __init__(self, text: str, sig: Signature):
        self.toks = _slow_lex(text)
        self.sig = sig
        self.pos = 0
        self.bound: list[str] = []
        self.depth = 0

    def peek(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.toks[i][0] if i < len(self.toks) else None

    def where(self) -> int:
        return self.toks[self.pos][1] if self.pos < len(self.toks) else -1

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            raise FormulaError("unexpected end of input"
                               + (f", expected {expected!r}" if expected else ""))
        tok, at = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise FormulaError(f"expected {expected!r}, found {tok!r}", at)
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        if self.pos < len(self.toks):
            raise FormulaError(f"trailing input {self.peek()!r}", self.where())
        if _tree_depth(f) > MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")
        return f

    def _right_chain(self, op: str, operand, node) -> Formula:
        # a right-associative chain, read in a loop so that long chains do
        # not recurse
        parts = [operand()]
        while self.peek() == op:
            self.take()
            parts.append(operand())
        f = parts.pop()
        while parts:
            f = node(parts.pop(), f)
        return f

    def formula(self) -> Formula:
        return self._right_chain("<->", self.implies, Iff)

    def implies(self) -> Formula:
        return self._right_chain("->", self.disjunction, Implies)

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek() == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek() == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def _at_quantifier(self) -> bool:
        head = self.peek()
        if head == "A" or head == "E":
            # 'A x.' / 'E x.' — require a variable then a dot
            return (self.peek(1) is not None and is_identifier(self.peek(1))
                    and self.peek(2) == ".")
        return False

    def unary(self) -> Formula:
        # every nested subformula (negation, quantifier body, parentheses)
        # is parsed through here, so this counts the parser's recursion
        if self.depth == MAX_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels",
                               self.where())
        self.depth += 1
        try:
            return self._unary()
        finally:
            self.depth -= 1

    def _unary(self) -> Formula:
        head = self.peek()
        if head == "~":
            self.take()
            return Not(self.unary())
        if head == "E" and self.peek(1) == "!":
            return self.quantifier()
        if self._at_quantifier():
            return self.quantifier()
        return self.primary()

    def quantifier(self) -> Formula:
        kind = self.take()
        count = None
        if kind == "E" and self.peek() == "!":
            self.take("!")
            at = self.where()
            num = self.take()
            if not num.isdigit():
                raise FormulaError(f"expected a count after 'E!', found {num!r}", at)
            count = int(num)
        at = self.where()
        var = self.take()
        if not is_identifier(var):
            raise FormulaError(f"illegal variable name {var!r}", at)
        if var in self.bound:
            raise FormulaError(f"variable {var!r} is quantified twice on one branch", at)
        self.take(".")
        self.bound.append(var)
        try:
            body = self.formula()
        finally:
            self.bound.pop()
        if count is not None:
            return ExactCount(count, var, body)
        return Forall(var, body) if kind == "A" else Exists(var, body)

    def primary(self) -> Formula:
        head = self.peek()
        if head == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        at = self.where()
        if head is None:
            raise FormulaError("unexpected end of input, expected an atom")
        if not re.fullmatch(r"[A-Za-z0-9_]+", head):
            raise FormulaError(f"expected an atom, found {head!r}", at)
        ident = self.take()
        if self.peek() == "(":
            if not self.sig.has(ident):
                raise FormulaError(f"unknown relation {ident!r}", at)
            self.take("(")
            args = [self._term()]
            while self.peek() == ",":
                self.take(",")
                args.append(self._term())
            self.take(")")
            arity = self.sig.arity(ident)
            if len(args) != arity:
                raise FormulaError(
                    f"relation {ident!r} has arity {arity}, got {len(args)} arguments", at)
            return Atom(ident, tuple(args))
        if self.peek() == "=":
            self.take("=")
            return Eq(ident, self._term())
        raise FormulaError(f"expected '(' or '=' after {ident!r}", self.where())

    def _term(self) -> str:
        at = self.where()
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise FormulaError(f"expected a term, found {tok!r}", at)
        return tok


def slow_parse_formula(text: str, sig: Signature) -> Formula:
    """The parser class that `parse_formula` replaced.

    It gives the same AST, or the same exception with the same message, on
    every input but three kinds: a count of more digits than int() converts
    raised ValueError here; an error past the last token was placed at
    position -1; and a stray character was placed where the whitespace
    before it began.
    """
    return _SlowFormulaParser(text, sig).parse()
