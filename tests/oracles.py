"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own machinery: field tables
come from schoolbook polynomial arithmetic, automorphism groups from filtering
all bijections, group orders from naive closure, and formula evaluation from a
witness-enumerating recursion.  The tests compare the package against these.
The slow paths that faster package code replaced (the subgroup lattice as
joins of Perm sets, the stabilizer closed twice) are kept here as references.
"""

from __future__ import annotations

import random
from itertools import permutations

from galbench.formula import (And, Atom, Eq, ExactCount, Exists, Forall, Iff,
                              Implies, Not, Or)
from galbench.perm import Perm, close_group

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
    for g in G.elements(cap=None):
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
    ordered = sorted(gens_of, key=lambda s: (len(s), sorted(p.images for p in s)))
    return [(sorted(s), gens_of[s]) for s in ordered]


def two_close_stabilizer(G, points):
    """Pointwise stabilizer by closing with the points as base prefix, then
    closing the level generators again."""
    points = list(dict.fromkeys(points))
    chain = close_group(G.generators, degree=G.degree, base_prefix=points)
    return close_group(chain.level_generators(len(points)), degree=G.degree)


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
