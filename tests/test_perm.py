import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from galbench import perm
from galbench.aut import automorphism_group, automorphism_group_fixing
from galbench.errors import CapError, GroupError, InternalCheckError
from galbench.perm import (Perm, is_normal_subgroup, orbit, restrict_to_invariant_set,
                           stabilizer_pointwise)

from oracles import (all_subgroups, brute_canonical_generators, canonical_stabilizer,
                     close_group, naive_closure, setwise_stabilizer, textbook_sift,
                     two_close_stabilizer, word_closure)


def cyc(n, *cycles):
    """Permutation of 0..n-1 from explicit cycles."""
    images = list(range(n))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    return Perm(images)


# -- Perm basics -----------------------------------------------------------------


def test_perm_validation():
    with pytest.raises(GroupError):
        Perm((0, 0, 1))


def test_perm_composition_and_inverse():
    p = cyc(4, (0, 1, 2, 3))
    q = cyc(4, (0, 1))
    assert (p * q)(0) == p(q(0)) == p(1) == 2
    assert (p * p.inverse()).is_identity()


def test_cycle_notation():
    assert str(cyc(4, (0, 1), (2, 3))) == "(0 1)(2 3)"
    assert str(Perm.identity(5)) == "()"
    assert str(cyc(5, (1, 3, 2))) == "(1 3 2)"


def test_perm_is_its_image_tuple():
    p = cyc(5, (0, 1, 2), (3, 4))
    q = cyc(5, (1, 4))
    assert p == (1, 2, 0, 4, 3) and hash(p) == hash((1, 2, 0, 4, 3))
    # a dict keyed by Perms is found by plain image tuples
    index = {g: i for i, g in enumerate([p, q])}
    assert index[(0, 4, 2, 3, 1)] == 1
    perms = [p, q, Perm.identity(5), p * q, q.inverse() * p]
    assert sorted(perms) == sorted(perms, key=tuple)
    assert [tuple(g) for g in sorted(perms)] == sorted(tuple(g) for g in perms)
    G = close_group([p, q])
    for g in [p * q, p.inverse(), Perm.identity(5), *G.elements()]:
        assert type(g) is Perm
    assert all(p(x) == p[x] for x in range(5))
    with pytest.raises(GroupError, match=r"^not a bijection of 0\.\.1: \(0, 0\)$"):
        Perm([0, 0])


# -- close_group -----------------------------------------------------------------


def test_single_transposition():
    G = close_group([cyc(4, (0, 1))])
    assert G.order == 2


def test_symmetric_group_on_four_points():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    assert G.order == 24


def test_empty_generators():
    G = close_group([], degree=5)
    assert G.order == 1
    assert G.contains(Perm.identity(5))
    with pytest.raises(GroupError):
        close_group([])


def test_mixed_degrees_rejected():
    with pytest.raises(GroupError):
        close_group([cyc(4, (0, 1)), cyc(5, (0, 1))])


@pytest.mark.parametrize("gens", [
    [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))],
    [cyc(5, (0, 1, 2, 3, 4))],
    [cyc(6, (0, 1), (2, 3)), cyc(6, (0, 2), (1, 3)), cyc(6, (4, 5))],
    [cyc(4, (0, 1, 2))],
    [cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 1))],
])
def test_order_matches_naive_closure(gens):
    G = close_group(gens)
    assert G.order == len(naive_closure(gens, gens[0].degree))


def test_membership_sound_and_complete():
    gens = [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]
    G = close_group(gens)
    elems = naive_closure(gens, 4)
    from itertools import permutations
    for images in permutations(range(4)):
        p = Perm(images)
        assert G.contains(p) == (p in elems)


def test_elements_enumeration(monkeypatch):
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    elems = G.elements()
    assert len(elems) == 24
    assert len(set(elems)) == 24
    assert elems == sorted(elems)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 10)
    with pytest.raises(CapError):
        G.elements()


def test_corpus_groups_match_naive_closure(corpus_structure):
    if corpus_structure.size > 6:
        return
    G = automorphism_group(corpus_structure)
    assert G.order == len(naive_closure(G.generators, G.degree))


def assert_chain_invariants(G):
    """Level i's transversal covers exactly the orbit of base[i] under that
    level's generators, each entry maps base[i] to its key, and the order is
    the product of the transversal sizes."""
    order = 1
    for i, point in enumerate(G.base):
        reached = {point}
        frontier = [point]
        while frontier:
            nxt = []
            for p in frontier:
                for s in G._levels[i]:
                    if s(p) not in reached:
                        reached.add(s(p))
                        nxt.append(s(p))
            frontier = nxt
        assert set(G._trans[i]) == reached
        for key, u in G._trans[i].items():
            assert u(point) == key
        order *= len(G._trans[i])
    assert G.order == order


def test_chain_invariants_on_corpus_groups(corpus_structure):
    G = automorphism_group(corpus_structure)
    assert_chain_invariants(G)
    for k in range(1, min(3, G.degree) + 1):
        assert_chain_invariants(stabilizer_pointwise(G, range(k)))
        assert_chain_invariants(close_group(G.generators, degree=G.degree,
                                            base_prefix=range(G.degree - k, G.degree)))


def test_chain_invariants_on_random_closures():
    rng = random.Random(11)
    for trial in range(300):
        degree = rng.randint(2, 6)
        gens = [Perm(rng.sample(range(degree), degree))
                for _ in range(rng.randint(1, 3))]
        prefix = rng.sample(range(degree), rng.randint(0, 2)) if trial % 2 else []
        G = close_group(gens, degree=degree, base_prefix=prefix)
        assert G.base[:len(prefix)] == tuple(prefix)
        assert_chain_invariants(G)
        assert G.order == len(word_closure(gens, degree))


# -- the sift ---------------------------------------------------------------------------


def test_sift_matches_the_textbook_sift(corpus_structure):
    """Residue and level agree on the corpus chains, closed afresh and at
    several base prefixes, for group members, random permutations and
    products of both, from every starting level."""
    G = automorphism_group(corpus_structure)
    n = G.degree
    rng = random.Random(f"sift {n}")
    chains = [G, close_group(G.generators, degree=n),
              close_group(G.generators, degree=n, base_prefix=tuple(range(n - 1, -1, -1)))]
    members = G.elements()[:50]
    for H in chains:
        for _ in range(40):
            g = Perm(rng.sample(range(n), n))
            for x in (g, rng.choice(members), g * rng.choice(members)):
                for start in range(len(H.base) + 1):
                    assert perm._sift(H.base, H._trans, x, start) == \
                        textbook_sift(H.base, H._trans, x, start)


def test_sift_matches_the_textbook_sift_on_random_closures():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 9)
        gens = [Perm(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        G = close_group(gens, degree=n)
        for _ in range(20):
            g = Perm(rng.sample(range(n), n))
            assert perm._sift(G.base, G._trans, g) == textbook_sift(G.base, G._trans, g)


# -- closing with a known order ---------------------------------------------------------


def chain(G):
    """Everything a chain holds, in order: base, generators, level
    generators, transversals (keys and representatives in insertion order)
    and the order."""
    return (G.base, G.generators, G._levels,
            tuple(tuple(t.items()) for t in G._trans), G.order)


def test_known_order_leaves_the_chain_unchanged_on_corpus_groups(corpus_structure):
    """The oracle closure with its known order builds the chain the full
    pass builds."""
    G = automorphism_group(corpus_structure)
    n = G.degree
    prefixes = [(), tuple(range(min(3, n))), tuple(range(n - 1, max(-1, n - 4), -1)),
                tuple(range(0, n, 2)), tuple(range(n))]
    for prefix in prefixes:
        plain = close_group(G.generators, degree=n, base_prefix=prefix)
        hinted = close_group(G.generators, degree=n, base_prefix=prefix,
                             known_order=G.order)
        assert chain(hinted) == chain(plain)


def test_known_order_leaves_the_chain_unchanged_on_random_closures():
    rng = random.Random(23)
    for trial in range(300):
        degree = rng.randint(1, 7)
        gens = [Perm(rng.sample(range(degree), degree))
                for _ in range(rng.randint(0, 4))]
        prefix = (rng.sample(range(degree), rng.randint(0, min(3, degree)))
                  if trial % 2 else [])
        plain = close_group(gens, degree=degree, base_prefix=prefix)
        hinted = close_group(gens, degree=degree, base_prefix=prefix,
                             known_order=plain.order)
        assert chain(hinted) == chain(plain)


@pytest.mark.parametrize("known", [48, 25, 1000])
def test_overstated_order_raises(known):
    s4 = [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]
    with pytest.raises(InternalCheckError, match=f"not the known order {known}"):
        close_group(s4, known_order=known)
    assert close_group(s4, known_order=24).order == 24


def test_subgroups_and_stabilizers_match_unhinted_closures(gf16, ex_rs):
    """Every stabilizer of a prefix of the points, in Aut(M), in each of its
    subgroups and in a setwise stabilizer, is the canonical reading of the
    closure with those points first; the stabilizer of no points is the
    group itself."""
    for M in (gf16, ex_rs):
        G = automorphism_group(M)
        for k in range(G.degree + 1):
            S = stabilizer_pointwise(G, range(k))
            assert S.order * len(orbit(G, tuple(range(k)))) == G.order
            assert chain(S) == chain(canonical_stabilizer(G, range(k)))
            if k == 0:
                assert S is G
        for H in all_subgroups(G) + [setwise_stabilizer(G, [(0, 1), (1, 0)])]:
            for k in range(1, 4):
                S = stabilizer_pointwise(H, range(k))
                assert chain(S) == chain(canonical_stabilizer(H, range(k)))
                assert S.equals(two_close_stabilizer(H, range(k)))


def assert_canonical(G):
    """G's generators are the canonical ones, read off its element list."""
    if G.order > 1:
        assert G.generators == brute_canonical_generators(G.elements())
    else:
        assert G.generators == ()


def test_canonical_generators_match_the_element_lists_on_random_groups():
    """The canonical reading of a closure, base its moved points ascending,
    against the generators read off the element list; a group whose
    generators are canonical reads the same once more."""
    rng = random.Random(43)
    for _ in range(200):
        degree = rng.randint(1, 7)
        G = close_group([Perm(rng.sample(range(degree), degree))
                         for _ in range(rng.randint(0, 3))], degree=degree)
        C = canonical_stabilizer(G, ())
        assert C.equals(G) and G.equals(C)
        assert_canonical(C)
        assert chain(canonical_stabilizer(C, ())) == chain(C)


def test_fixed_points_match_the_elements(corpus_structure):
    G = automorphism_group(corpus_structure)
    for k in range(min(3, G.degree) + 1):
        S = stabilizer_pointwise(G, range(k))
        expected = frozenset(x for x in range(S.degree)
                             if all(g(x) == x for g in S.elements()))
        assert S.fixed_points() == expected
        assert S.fixed_points() is S.fixed_points()


# -- orbits and stabilizers ----------------------------------------------------------


def test_orbit_cyclic_rotation():
    G = close_group([cyc(5, (0, 1, 2, 3, 4))])
    assert orbit(G, (0,)) == ((0,), (1,), (2,), (3,), (4,))


def test_orbit_trivial_group():
    G = close_group([], degree=4)
    assert orbit(G, (2, 3)) == ((2, 3),)


def test_orbit_klein_pair(ex_rs):
    # the Klein action on the paired points, restricted
    from galbench.aut import relative_restriction
    G = relative_restriction(ex_rs, ex_rs.ids(["a", "b", "c", "d"]), frozenset())
    assert orbit(G, (0, 1)) == ((0, 1), (1, 0), (2, 3), (3, 2))


def test_orbit_range_check():
    G = close_group([], degree=3)
    with pytest.raises(GroupError):
        orbit(G, (5,))


def test_stabilizer_empty_tuple_is_whole_group():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    assert stabilizer_pointwise(G, ()) is G


def test_stabilizer_of_three_points_in_s4():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    S = stabilizer_pointwise(G, (0, 1, 2))
    assert S.order == 1


def test_stabilizer_in_aut_ex_rs(ex_rs):
    G = automorphism_group(ex_rs)
    S = stabilizer_pointwise(G, (ex_rs.resolve("a"),))
    assert S.order == 2
    brute = [g for g in G.elements() if g(ex_rs.resolve("a")) == ex_rs.resolve("a")]
    assert len(brute) == 2


def test_repeated_stabilizer_is_the_same_group(ex_rs):
    """Nothing is kept in G, but the points' order and repeats do not
    matter: each call reads the same chain and generators."""
    G = automorphism_group(ex_rs)
    S = stabilizer_pointwise(G, (1, 0))
    for points in ([1, 0], (0, 1), (1, 1, 0), {0, 1}):
        assert chain(stabilizer_pointwise(G, points)) == chain(S)


def assert_kept_stabilizer_is_fresh(G, prefix):
    """The stabilizer of `prefix`, its points in any order and repeated, is
    the canonical reading of a fresh closure with its points first; its
    group is the fresh closure's, closed twice; up to order 200 its
    generators are the canonical ones read off its element list.  When G
    moves none of the points it is G itself."""
    points = tuple(dict.fromkeys(prefix))
    S = stabilizer_pointwise(G, prefix)
    assert chain(stabilizer_pointwise(G, points[::-1])) == chain(S)
    slow = two_close_stabilizer(G, points)
    assert S.equals(slow) and slow.equals(S)
    if not set(points) - G.fixed_points():
        assert S is G
        return
    assert chain(S) == chain(canonical_stabilizer(G, points))
    if S.order <= 200:
        assert_canonical(S)


def test_kept_stabilizers_match_fresh_closures(corpus_structure):
    G = automorphism_group(corpus_structure)
    n = G.degree
    head = tuple(range(min(3, n)))
    for prefix in [(), head, head[::-1], tuple(range(n - 1, -1, -2)) + (n - 1,),
                   tuple(range(n))]:
        assert_kept_stabilizer_is_fresh(G, prefix)
    assert_canonical(G)


def test_kept_stabilizers_match_fresh_closures_on_random_groups():
    """Closed groups, whose own generators are not canonical: every
    stabilizer of a point G moves has canonical generators."""
    rng = random.Random(29)
    for _ in range(150):
        degree = rng.randint(2, 7)
        G = close_group([Perm(rng.sample(range(degree), degree))
                         for _ in range(rng.randint(1, 3))], degree=degree)
        points = rng.sample(range(degree), rng.randint(2, min(4, degree)))
        for prefix in (points, points[::-1], points + points[:1]):
            assert_kept_stabilizer_is_fresh(G, prefix)


def test_orbit_stabilizer_law_random():
    rng = random.Random(3)
    G = close_group([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (0, 1))])
    for _ in range(25):
        t = tuple(rng.randrange(6) for _ in range(rng.randint(1, 3)))
        assert len(orbit(G, t)) * stabilizer_pointwise(G, t).order == G.order


# -- setwise stabilizer ----------------------------------------------------------------


def test_setwise_stabilizer_whole_universe():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    F = [(i,) for i in range(4)]
    assert setwise_stabilizer(G, F).order == G.order


def test_setwise_stabilizer_of_pair_in_restricted_klein(ex_rs):
    from galbench.aut import relative_restriction
    G = relative_restriction(ex_rs, ex_rs.ids(["a", "b", "c", "d"]), frozenset())
    S = setwise_stabilizer(G, [(0,), (1,)])
    assert S.order == 2
    assert S.generator_strings() == ("(0 1)(2 3)",)


def test_setwise_stabilizer_trivial_group():
    assert setwise_stabilizer(close_group([], degree=4), [(0,), (2,)]).order == 1


def test_setwise_contains_pointwise():
    G = close_group([cyc(5, (0, 1, 2, 3, 4)), cyc(5, (0, 1))])
    F = [(0,), (1,)]
    S = setwise_stabilizer(G, F)
    P = stabilizer_pointwise(G, (0, 1))
    assert P.is_subgroup_of(S)


def test_set_orbit_matches_the_oracle(corpus_structure):
    """The orbit of F gives the setwise stabilizer's order as |G| / |orbit|
    and its fixed points from the Schreier generators' tests; each member
    is the image of F under its transversal element."""
    G = automorphism_group(corpus_structure)
    rng = random.Random(31)
    for _ in range(10):
        length = rng.randint(1, 2)
        F = {tuple(rng.sample(range(G.degree), length))
             for _ in range(rng.randint(1, 3))}
        S = setwise_stabilizer(G, F)
        trans, fixed = perm._set_orbit(G, F, lambda images: None)
        assert len(trans) * S.order == G.order
        assert fixed == sorted(S.fixed_points())
        assert all(tuple(sorted(tuple(u[e] for e in t) for t in F)) == member
                   for member, u in trans.items())


def test_setwise_mixed_lengths_rejected():
    with pytest.raises(GroupError):
        setwise_stabilizer(close_group([], degree=4), [(0,), (1, 2)])


# -- subgroup lattice ---------------------------------------------------------------------


def test_klein_four_has_five_subgroups():
    G = close_group([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    subs = all_subgroups(G)
    assert len(subs) == 5
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 4]


def test_cyclic_prime_has_two_subgroups():
    subs = all_subgroups(close_group([cyc(5, (0, 1, 2, 3, 4))]))
    assert [H.order for H in subs] == [1, 5]


def test_trivial_group_has_one_subgroup():
    assert len(all_subgroups(close_group([], degree=3))) == 1


def test_s4_subgroups_against_pairwise_closure_oracle():
    gens = [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]
    G = close_group(gens)
    subs = all_subgroups(G)
    # oracle: close every pair of elements (every subgroup of S4 is 2-generated)
    elems = sorted(naive_closure(gens, 4))
    seen = {frozenset(naive_closure([], 4))}
    for a, b in combinations(elems, 2):
        seen.add(frozenset(naive_closure([a, b], 4)))
    for a in elems:
        seen.add(frozenset(naive_closure([a], 4)))
    assert len(subs) == len(seen) == 30


def test_subgroups_are_valid_and_lagrange():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    subs = all_subgroups(G)
    keys = set()
    for H in subs:
        elems = H.elements()
        keys.add(frozenset(elems))
        assert G.order % H.order == 0
        for a in elems:
            assert a.inverse() in elems
            for b in elems:
                assert a * b in elems
    assert len(keys) == len(subs)


def test_subgroup_cap(monkeypatch):
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    monkeypatch.setattr(perm, "DEFAULT_SUBGROUP_CAP", 10)
    with pytest.raises(CapError):
        all_subgroups(G)


def fresh_lattice(gens):
    """The subgroup lattice of a newly closed group, and the product
    lookups it made."""
    table = close_group(gens).element_table()
    return table.subgroups(), table.lookups


def test_lattice_work_is_members_times_generators_per_join():
    # C8 wr C2 on two 8-cycles: Aut of two disjoint directed 8-cycles
    gens = [cyc(16, tuple(range(8))), cyc(16, *[(i, i + 8) for i in range(8)])]
    lattice, lookups = fresh_lattice(gens)
    assert len(lattice) == 100 and lookups == 656_752


def test_lattice_work_cap(monkeypatch):
    gens = [cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))]
    lattice, lookups = fresh_lattice(gens)
    monkeypatch.setattr(perm, "LATTICE_WORK_CAP", lookups)
    assert fresh_lattice(gens) == (lattice, lookups)
    monkeypatch.setattr(perm, "LATTICE_WORK_CAP", lookups - 1)
    with pytest.raises(CapError) as err:
        fresh_lattice(gens)
    assert str(err.value) == f"subgroup lattice passed {lookups - 1} product lookups"


# -- normality -------------------------------------------------------------------------


def test_abelian_subgroups_always_normal():
    G = close_group([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    for H in all_subgroups(G):
        assert is_normal_subgroup(H, G)


def test_transposition_not_normal_in_s4():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    H = close_group([cyc(4, (0, 1))])
    assert is_normal_subgroup(H, G) is False


def test_group_normal_in_itself():
    G = close_group([cyc(4, (0, 1, 2, 3))])
    assert is_normal_subgroup(G, G)


def test_not_a_subgroup_rejected():
    G = close_group([cyc(4, (0, 1), (2, 3))])
    H = close_group([cyc(4, (0, 1))])
    with pytest.raises(GroupError):
        is_normal_subgroup(H, G)


# -- restriction -----------------------------------------------------------------------


def test_restrict_ex_rs(ex_rs):
    G = automorphism_group(ex_rs)
    C = ex_rs.ids(["a", "b", "c", "d"])
    assert restrict_to_invariant_set(G, C).order == 4
    assert stabilizer_pointwise(G, C).order == 2
    assert sorted(C) == [0, 1, 2, 3]


def test_restrict_full_universe_is_isomorphic():
    G = close_group([cyc(4, (0, 1, 2, 3)), cyc(4, (0, 1))])
    assert restrict_to_invariant_set(G, range(4)).order == G.order
    assert stabilizer_pointwise(G, [0, 1, 2, 3]).order == 1


def test_restrict_trivial_group():
    G = close_group([], degree=5)
    assert restrict_to_invariant_set(G, {1, 3}).order == 1
    assert stabilizer_pointwise(G, [1, 3]).order == 1


def test_restrict_requires_invariance():
    from galbench.errors import NotInvariantError
    G = close_group([cyc(4, (0, 1, 2, 3))])
    with pytest.raises(NotInvariantError):
        restrict_to_invariant_set(G, {0, 1})


def test_restriction_image_lifts_back(ex_rs):
    # every image element is the restriction of some group element
    G = automorphism_group(ex_rs)
    points = tuple(sorted(ex_rs.ids(["a", "b", "c", "d"])))
    image = restrict_to_invariant_set(G, points)
    originals = {g.apply_tuple(points) for g in G.elements()}
    for h in image.elements():
        assert tuple(points[h(i)] for i in range(len(points))) in originals


def test_order_splits_multiplicatively(ex_rs, c5, gf16):
    for M, C in ((ex_rs, ex_rs.ids(["a", "b", "c", "d"])),
                 (c5, frozenset(range(5))),
                 (gf16, gf16.ids(["0", "1", "w5", "w10"]))):
        G = automorphism_group(M)
        kernel = stabilizer_pointwise(G, C)
        assert restrict_to_invariant_set(G, C).order * kernel.order == G.order


def test_restriction_sift_check_rejects_a_corrupt_image_chain(ex_rs, monkeypatch):
    """An image chain that lost its first level is the trivial group here,
    so the restricted generators do not sift through it."""
    G = automorphism_group(ex_rs)
    real = perm._canonical
    monkeypatch.setattr(perm, "_canonical",
                        lambda degree, base, trans: real(degree, base[1:], trans[1:]))
    with pytest.raises(InternalCheckError, match=r"^restriction: generator .* does not "
                       r"sift through the image chain$"):
        restrict_to_invariant_set(G, ex_rs.ids(["a", "b", "c", "d"]))


def invariant_sets(G, rng, count):
    """`count` seeded unions of G's point orbits."""
    orbits = sorted(set(G.point_orbits()), key=sorted)
    return [frozenset().union(*rng.sample(orbits, rng.randint(0, len(orbits))))
            for _ in range(count)]


def assert_restriction_matches_the_oracle(G, C):
    """The image of G on C is the closure of G's restricted generators, and
    its chain is that closure's read canonically; up to order 200 its
    generators are the canonical ones read off its element list."""
    points = sorted(C)
    image = restrict_to_invariant_set(G, C)
    closed = close_group([Perm(points.index(g[e]) for e in points) for g in G.generators],
                         degree=len(points))
    assert image.equals(closed) and closed.equals(image)
    assert chain(image) == chain(canonical_stabilizer(closed, ()))
    if image.order <= 200:
        assert_canonical(image)


def test_restriction_images_match_the_oracle_on_corpus_groups(corpus_structure):
    M = corpus_structure
    rng = random.Random(f"images {M.name}")
    for A in ((), (0,), rng.sample(range(M.size), min(2, M.size))):
        G = automorphism_group_fixing(M, A)
        for C in invariant_sets(G, rng, 4):
            assert_restriction_matches_the_oracle(G, C)


def test_restriction_images_match_the_oracle_on_random_groups():
    rng = random.Random(41)
    for _ in range(150):
        degree = rng.randint(1, 7)
        G = close_group([Perm(rng.sample(range(degree), degree))
                         for _ in range(rng.randint(0, 3))], degree=degree)
        for C in invariant_sets(G, rng, 3):
            assert_restriction_matches_the_oracle(G, C)


# -- property-based sanity on random permutations ------------------------------------------


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
@settings(max_examples=100, deadline=None)
def test_perm_algebra_properties(p_images, q_images):
    p, q = Perm(p_images), Perm(q_images)
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert p * Perm.identity(6) == p
    G = close_group([p, q])
    assert G.contains(p * q)
    assert G.contains(p.inverse())
