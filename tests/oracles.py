"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own machinery: field tables
come from schoolbook polynomial arithmetic, automorphism groups from filtering
all bijections, group orders from naive closure, and formula evaluation from a
witness-enumerating recursion.  The tests compare the package against these.
The slow paths that faster package code replaced (the subgroup lattice as
joins of Perm sets, the stabilizer closed twice, the duality check and code
searches as loops over element lists, the antitone law on closed subgroups)
are kept here as references.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_restriction)
from galbench.errors import (CapError, HypothesisError, InternalCheckError,
                             StructureError)
from galbench.formula import (And, Atom, Eq, ExactCount, Exists, Forall, Iff,
                              Implies, Not, Or)
from galbench.galois import (CodesReport, DualityFailure, GaloisReport,
                             _render_group, _render_set, dcl, find_generator,
                             fix_of_set, fix_of_subgroup, is_normal_extension)
from galbench.perm import (DEFAULT_ELEMENT_CAP, DEFAULT_SUBGROUP_CAP, Perm,
                           all_subgroups, close_group)

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


# -- the antitone law on closed subgroups --------------------------------------------


def slow_antitone_law(M, C, A, G_rel, B1, B2) -> list[str]:
    """`suite._antitone_law` with one closed `PermGroup` per subgroup
    (`all_subgroups`), Fix(H) by `fix_of_subgroup`, containment by
    `is_subgroup_of`, and a `fix_of_set` per subgroup."""
    out = []
    subs = all_subgroups(G_rel, cap=512) if G_rel.order <= 512 else [G_rel]
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


def slow_find_code(M, F, max_len=3, element_cap=DEFAULT_ELEMENT_CAP):
    """`find_code` by filtering Aut(M)'s element list for every candidate."""
    tuples = {M.check_tuple(t, "set member") for t in F}
    lengths = {len(t) for t in tuples}
    if len(lengths) > 1:
        raise StructureError(f"mixed tuple lengths in finite set: {sorted(lengths)}")
    elems = automorphism_group(M).elements(cap=element_cap)
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


def slow_code_is_verified(M, F, code, max_elements=DEFAULT_ELEMENT_CAP) -> bool:
    """The stabilizer equality `multisymmetric_code` asserts, over Perm sets:
    the automorphisms fixing `code` pointwise are those fixing F setwise."""
    tuples = set(F)
    elems = automorphism_group(M).elements(cap=max_elements)
    setwise = {g for g in elems if {g.apply_tuple(t) for t in tuples} == tuples}
    pointwise = {g for g in elems if all(g(e) == e for e in code)}
    return setwise == pointwise


def slow_galois_correspondence(M, A, C, max_len=3, subgroup_cap=DEFAULT_SUBGROUP_CAP,
                               element_cap=DEFAULT_ELEMENT_CAP) -> GaloisReport:
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
    normalized = (A != A0) or (C != C0)
    if not is_normal_extension(M, A, C):
        raise HypothesisError(
            "top set is not a normal extension of the base: some orbit leaves it")

    G_A = automorphism_group_fixing(M, A)
    restr = relative_restriction(M, C, A)
    G = restr.image
    points = restr.points
    if G.order > subgroup_cap:
        raise CapError(f"relative group order {G.order} exceeds cap {subgroup_cap}")
    subs = all_subgroups(G, cap=subgroup_cap)

    pairs = []
    failures = []
    for H in subs:
        fixed = fix_of_subgroup(M, C, H)
        closure = fix_of_set(M, C, A, fixed)
        pairs.append((H.generator_strings(), M.render_set(fixed)))
        if not closure.equals(H):
            failures.append(DualityFailure(
                kind="subgroup", subject=_render_group(H.generator_strings()),
                subject_order=H.order,
                closure=_render_group(closure.generator_strings()),
                closure_order=closure.order))

    # dcl(A + S) for every S inside C, as an intersection of the fixed-point
    # sets of the elements of Aut(M/A) that fix S
    fixmasks = []
    for g in G_A.elements(cap=element_cap):
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
    for B in intermediates:
        if not B <= C:
            raise InternalCheckError("an intermediate closure escapes the top set")
        closure = fix_of_subgroup(M, C, fix_of_set(M, C, A, B))
        if closure != B:
            failures.append(DualityFailure(
                kind="set", subject=_render_set(M, B), subject_order=len(B),
                closure=_render_set(M, closure), closure_order=len(closure)))

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
        coding_failures=tuple(coding_failures), normalized_inputs=normalized)


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
