import io
import random
import time
from math import prod

import pytest

import galbench.aut as aut
import galbench.perm as perm
from galbench.corpus import CORPUS
from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_restriction, search_automorphism_generators)
from galbench.errors import InternalCheckError, NotInvariantError, StructureError
from galbench.perm import Perm, PermGroup, stabilizer_pointwise
from galbench.structure import Structure, load_structure

from oracles import (brute_automorphisms, canonical_stabilizer, close_group,
                     frobenius_perm, naive_closure, slow_orbit_product,
                     slow_search_automorphism_generators, slow_stable_colors)
from test_cli import LABELLED_GRAPHS, LABELLINGS, SPLITTING_GRAPHS, labelled_graph_text
from test_fastpaths import GENERATED
from test_perm import chain


EXPECTED_ORDERS = {"EX_RS": 8, "RIGID3": 1, "C5": 5, "GF4": 2, "GF16": 4}


def test_full_groups_have_expected_orders(corpus_structure):
    assert automorphism_group(corpus_structure).order == \
        EXPECTED_ORDERS[corpus_structure.name]


def test_matches_brute_force_on_small_structures(corpus_structure):
    M = corpus_structure
    if M.size > 6:
        return
    G = automorphism_group(M)
    brute = brute_automorphisms(M)
    assert G.order == len(brute)
    assert all(G.contains(p) for p in brute)


def test_fixing_matches_brute_force(ex_rs):
    rng = random.Random(5)
    G = automorphism_group(ex_rs)
    for _ in range(15):
        A = frozenset(rng.sample(range(ex_rs.size), rng.randint(0, 3)))
        fixed = automorphism_group_fixing(ex_rs, A)
        brute = brute_automorphisms(ex_rs, A)
        assert fixed.order == len(brute)
        assert all(fixed.contains(p) for p in brute)


def test_fixing_examples(ex_rs):
    assert automorphism_group_fixing(ex_rs, frozenset()).order == 8
    assert automorphism_group_fixing(ex_rs, {ex_rs.resolve("a")}).order == 2
    assert automorphism_group_fixing(ex_rs, frozenset(range(6))).order == 1


def test_fixing_nothing_on_a_fresh_structure_closes_nothing():
    """Aut(M) is the search's own chain, and the package has no closure to
    run for it."""
    assert_the_package_has_no_closure()
    M = load_structure(CORPUS["EX_RS"].source)
    G = automorphism_group_fixing(M, frozenset())
    assert G is automorphism_group(M) and G.order == 8
    assert chain(G) == chain(search_automorphism_generators(M))


def test_dcl_and_orbit_on_a_fresh_structure_search_once_and_close_nothing(monkeypatch):
    """Aut(M/A) of a structure met for the first time is one search with A
    fixed: no search for Aut(M), and the package has no closure to run
    after it."""
    from galbench.galois import dcl, orbit_over

    searches = []

    def counted_search(M, fixed=()):
        searches.append(frozenset(fixed))
        return search_automorphism_generators(M, fixed)

    monkeypatch.setattr(aut, "search_automorphism_generators", counted_search)
    assert_the_package_has_no_closure()
    for name in ("EX_RS", "GF16"):
        for ask in (lambda M: dcl(M, {0, 1}), lambda M: orbit_over(M, (2,), {0, 1})):
            searches.clear()
            ask(load_structure(CORPUS[name].source))
            assert searches == [frozenset({0, 1})]


def test_a_generator_that_does_not_sift_raises(monkeypatch):
    """A chain whose transversal misses a generator's image is caught
    before it is cached."""
    def broken(M):
        G = search_automorphism_generators(M)
        trans = (dict(list(G._trans[0].items())[:1]),) + G._trans[1:]
        return PermGroup(G.degree, G.generators, G.base, G._levels, trans, G.order)

    monkeypatch.setattr(aut, "search_automorphism_generators", broken)
    M = load_structure(CORPUS["EX_RS"].source)
    with pytest.raises(InternalCheckError, match="does not sift"):
        automorphism_group(M)
    assert aut._cache(M) == {}


def test_fixing_is_pointwise_stabilizer(corpus_structure):
    M = corpus_structure
    rng = random.Random(9)
    G = automorphism_group(M)
    for _ in range(10):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 3)))
        via_op = automorphism_group_fixing(M, A)
        via_chain = stabilizer_pointwise(G, tuple(sorted(A)))
        assert chain(via_op) == chain(via_chain)


def test_fixing_agrees_with_direct_search(corpus_structure):
    M = corpus_structure
    rng = random.Random(21)
    for _ in range(5):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        S = search_automorphism_generators(M, A)
        assert S.equals(automorphism_group_fixing(M, A))
        assert close_group(S.generators, degree=M.size).equals(S)


def test_fixing_monotone(gf16):
    rng = random.Random(2)
    for _ in range(10):
        A = frozenset(rng.sample(range(16), 2))
        A2 = A | frozenset(rng.sample(range(16), 2))
        big = automorphism_group_fixing(gf16, A)
        small = automorphism_group_fixing(gf16, A2)
        assert small.is_subgroup_of(big)


def test_gf16_group_is_generated_by_squaring(gf16):
    G = automorphism_group(gf16)
    frob = frobenius_perm(gf16)
    powers = naive_closure([frob], 16)
    assert G.order == len(powers) == 4
    assert all(G.contains(p) for p in powers)


def test_gf4_group_is_squaring(gf4):
    G = automorphism_group(gf4)
    assert G.order == 2
    assert G.contains(frobenius_perm(gf4))


def test_relative_aut_examples(ex_rs, gf16):
    C = ex_rs.ids(["a", "b", "c", "d"])
    assert relative_restriction(ex_rs, C, frozenset()).order == 4
    G = relative_restriction(gf16, frozenset(range(16)), gf16.ids(["0", "1"]))
    assert G.order == 4
    # cyclic: a single generator's powers give the whole group
    frob = frobenius_perm(gf16)
    assert len(naive_closure([frob], 16)) == 4
    assert relative_restriction(ex_rs, C, C).order == 1


def test_relative_aut_elements_extend(ex_rs):
    C = sorted(ex_rs.ids(["a", "b", "c", "d"]))
    image = relative_restriction(ex_rs, frozenset(C), frozenset())
    global_images = {g.apply_tuple(tuple(C))
                     for g in automorphism_group(ex_rs).elements()}
    for h in image.elements():
        assert tuple(C[h(i)] for i in range(len(C))) in global_images


def test_relative_aut_rejects_non_invariant_set(ex_rs):
    with pytest.raises(NotInvariantError):
        relative_restriction(ex_rs, ex_rs.ids(["a", "b"]), frozenset())


def test_a_rejected_top_set_leaves_nothing_in_the_aut_cache():
    """The restriction takes no kernel, so a top set that is not invariant
    is rejected before any group is asked for it."""
    M = load_structure(CORPUS["EX_RS"].source)
    C = M.ids(["a", "b"])
    with pytest.raises(NotInvariantError):
        relative_restriction(M, C, frozenset())
    assert C not in aut._cache(M) and set(aut._cache(M)) == {frozenset()}


def test_relative_aut_requires_nesting(ex_rs):
    with pytest.raises(StructureError):
        relative_restriction(ex_rs, ex_rs.ids(["a"]), ex_rs.ids(["a", "b"]))


def test_no_relations_gives_full_symmetric_group():
    M = load_structure("structure F { universe = { p0, p1, p2, p3, p4 } }")
    assert automorphism_group(M).order == 120


def test_sixteen_points_no_relations_handled():
    labels = ", ".join(f"p{i}" for i in range(16))
    M = load_structure(f"structure B {{ universe = {{ {labels} }} }}")
    import math
    assert automorphism_group(M).order == math.factorial(16)


def test_determinism_of_generators(ex_rs):
    G = search_automorphism_generators(ex_rs)
    assert chain(search_automorphism_generators(ex_rs)) == chain(G)
    assert list(G.generators) == sorted(G.generators)


def test_random_structures_match_brute_force():
    from itertools import product

    from galbench.structure import Signature, Structure

    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(1, 6)
        rels = []
        tables = {}
        for r in range(rng.randint(0, 3)):
            arity = rng.randint(1, 3)
            name = f"R{r}"
            rels.append((name, arity))
            pool = list(product(range(n), repeat=arity))
            tables[name] = set(rng.sample(pool, rng.randint(0, len(pool))))
        M = Structure(f"Z{trial}", Signature(tuple(rels)),
                      [f"e{i}" for i in range(n)], tables)
        G = automorphism_group(M)
        brute = brute_automorphisms(M)
        assert G.order == len(brute)
        assert all(G.contains(p) for p in brute)


def test_random_generator_sets_match_naive_closure():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 6)
        gens = [Perm(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
        G = close_group(gens, degree=n)
        assert G.order == len(naive_closure(gens, n))


def fixed_sets(M):
    """The empty set, one point, every other point and three seeded random
    sets of up to three points."""
    rng = random.Random(M.name)
    return [(), (0,), tuple(range(0, M.size, 2))] + [
        tuple(rng.sample(range(M.size), rng.randint(1, min(3, M.size))))
        for _ in range(3)]


def searched(M, fixed=()):
    """The search's generators as a list, and its group's order."""
    G = search_automorphism_generators(M, fixed)
    return list(G.generators), G.order


def assert_search_chain_is_valid(M, fixed=()):
    """The chain the search returns for `fixed` is a stabilizer chain of
    the group its generators close to.

    Each transversal element maps its base point to its key and fixes the
    earlier base points; each level's generators fix the earlier base
    points; each generator fixes `fixed` and preserves every relation; the
    order is the product of the transversal sizes; the group equals both
    closures of its generators, with and without the order, both ways; and
    up to order 5,000 it has the closure's elements and each generator is
    the least member of its coset."""
    G = search_automorphism_generators(M, fixed)
    n = M.size
    assert list(G.base) == sorted(set(G.base))
    for i, point in enumerate(G.base):
        earlier = G.base[:i]
        assert len(G._trans[i]) > 1
        for key, u in G._trans[i].items():
            assert u[point] == key and all(u[b] == b for b in earlier)
        assert all(s[b] == b for s in G._levels[i] for b in earlier)
    for g in G.generators:
        assert all(g[e] == e for e in fixed)
        for table in M.tables.values():
            assert all(g.apply_tuple(t) in table for t in table)
    assert G.order == prod(map(len, G._trans))
    plain = close_group(G.generators, degree=n)
    hinted = close_group(G.generators, degree=n, known_order=G.order)
    for H in (plain, hinted):
        assert G.equals(H) and H.equals(G)
    if G.order <= 5000:
        assert G.elements() == plain.elements()
        assert_generators_are_lex_least(G)


def assert_generators_are_lex_least(G):
    """Each generator g of a searched group, its first moved point x, is the
    least image tuple in its coset g*H, H the elements fixing 0..x: the first
    automorphism a position-order backtrack reaches."""
    elements = G.elements()
    for g in G.generators:
        x = next(p for p, q in enumerate(g) if p != q)
        assert g == min(g * h for h in elements if all(h[p] == p for p in range(x + 1)))


def assert_orbit_product_is_the_order(M):
    """The order the search returns is its per-level orbit product and the
    order of the group its generators close to, with and without fixed
    points; its chain is valid; and the automorphism group is the search's
    own chain."""
    for fixed in fixed_sets(M):
        gens, order = searched(M, fixed)
        assert order == slow_orbit_product(gens, M.size)
        assert_search_chain_is_valid(M, fixed)
    assert chain(automorphism_group(M)) == chain(search_automorphism_generators(M))


def test_orbit_product_is_the_order_on_the_corpus(corpus_structure):
    assert_orbit_product_is_the_order(corpus_structure)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_orbit_product_is_the_order_on_generated_families(name):
    assert_orbit_product_is_the_order(GENERATED[name]())


@pytest.mark.parametrize("labelling", range(6))
@pytest.mark.parametrize("name", sorted(SPLITTING_GRAPHS))
def test_generators_are_lex_least_on_relabelled_graphs(name, labelling):
    """Rook4 and Clebsch under several labellings: the existence search
    often finds a coset member that is not the least, so the deeper levels'
    transversals must be applied in ascending base order."""
    M = load_structure(labelled_graph_text(name, SPLITTING_GRAPHS[name], labelling))
    assert_search_chain_is_valid(M)


def test_search_chain_is_valid_on_random_structures():
    rng = random.Random(37)
    for trial in range(150):
        M = random_structure(rng, f"Z{trial}", 7)
        fixed = tuple(rng.sample(range(M.size), rng.randint(0, min(2, M.size))))
        assert_search_chain_is_valid(M, fixed)


# -- the coloring against the degree-scan coloring it replaced ---------------------


def same_partition(a, b):
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def assert_coloring_matches_oracle(M, monkeypatch):
    """For each fixed set: the coloring partitions the universe as the old
    coloring did, every generator of Aut(M/fixed) preserves it, and the
    search run on the old coloring finds the same generators and order."""
    for fixed in fixed_sets(M):
        F = frozenset(fixed)
        colors = aut._stable_colors(M, F, aut._incidence(M))
        assert same_partition(colors, slow_stable_colors(M, F))
        gens, order = searched(M, fixed)
        for g in gens + list(automorphism_group_fixing(M, F).generators):
            assert all(colors[g(e)] == colors[e] for e in range(M.size))
        with monkeypatch.context() as m:
            m.setattr(aut, "_stable_colors",
                      lambda M, fixed, touch: slow_stable_colors(M, fixed))
            assert searched(M, fixed) == (gens, order)


def test_coloring_matches_oracle_on_the_corpus(corpus_structure, monkeypatch):
    assert_coloring_matches_oracle(corpus_structure, monkeypatch)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_coloring_matches_oracle_on_generated_families(name, monkeypatch):
    assert_coloring_matches_oracle(GENERATED[name](), monkeypatch)


def random_structure(rng, name, max_size):
    from itertools import product

    from galbench.structure import Signature, Structure

    n = rng.randint(1, max_size)
    rels, tables = [], {}
    for r in range(rng.randint(0, 3)):
        arity = rng.randint(1, 3)
        rels.append((f"R{r}", arity))
        pool = list(product(range(n), repeat=arity))
        tables[f"R{r}"] = set(rng.sample(pool, rng.randint(0, min(len(pool), 12))))
    return Structure(name, Signature(tuple(rels)), [f"e{i}" for i in range(n)], tables)


def test_coloring_refines_oracle_on_random_structures(monkeypatch):
    """Marking an element's own positions can split a class the degree scan
    kept whole, never the reverse; either coloring gives the same search."""
    rng = random.Random(23)
    for trial in range(300):
        M = random_structure(rng, f"Z{trial}", 8)
        F = frozenset(rng.sample(range(M.size), rng.randint(0, M.size)))
        colors = aut._stable_colors(M, F, aut._incidence(M))
        old = slow_stable_colors(M, F)
        assert len(set(zip(colors, old))) == len(set(colors))
        gens, order = searched(M, F)
        assert all(colors[g(e)] == colors[e] for g in gens for e in range(M.size))
        with monkeypatch.context() as m:
            m.setattr(aut, "_stable_colors",
                      lambda M, fixed, touch: slow_stable_colors(M, fixed))
            assert searched(M, F) == (gens, order)


def test_own_positions_split_what_degrees_do_not():
    """Elements 1 and 6 share both their tuples, (4, 6, 1) and (2, 1, 6), and
    each sits once in position 1 and once in position 2, so the old coloring
    cannot tell them apart; but 1 is last beside 4 and 6 is last beside 2."""
    from galbench.structure import Signature, Structure

    M = Structure("Split", Signature((("T", 3),)), [f"e{i}" for i in range(8)],
                  {"T": {(4, 6, 1), (4, 5, 4), (0, 4, 5), (2, 1, 6)}})
    colors = aut._stable_colors(M, frozenset(), aut._incidence(M))
    old = slow_stable_colors(M, frozenset())
    assert old[1] == old[6] and colors[1] != colors[6]
    gens, order = searched(M)
    assert order == len(brute_automorphisms(M)) == close_group(gens, degree=8).order


# -- the two-part search against the position-order backtrack it replaced ----------


def assert_search_matches_oracle(M):
    """Same generators, in the same order, and the same order of the group,
    for each fixed set."""
    for fixed in fixed_sets(M):
        assert searched(M, fixed) == slow_search_automorphism_generators(M, fixed), fixed


def test_search_matches_oracle_on_the_corpus(corpus_structure):
    assert_search_matches_oracle(corpus_structure)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_search_matches_oracle_on_generated_families(name):
    assert_search_matches_oracle(GENERATED[name]())


def test_search_matches_oracle_on_random_structures():
    """The 300 structures and fixed sets of the coloring test above, and
    `fixed_sets` of each."""
    rng = random.Random(23)
    for trial in range(300):
        M = random_structure(rng, f"Z{trial}", 8)
        F = frozenset(rng.sample(range(M.size), rng.randint(0, M.size)))
        assert searched(M, F) == slow_search_automorphism_generators(M, F)
        assert_search_matches_oracle(M)


@pytest.mark.parametrize("labelling", LABELLINGS)
@pytest.mark.parametrize("name", sorted(LABELLED_GRAPHS))
def test_search_matches_oracle_on_labelled_graphs(name, labelling):
    assert_search_matches_oracle(
        load_structure(labelled_graph_text(name, LABELLED_GRAPHS[name], labelling)))


# -- Aut(M/A) by each route the cache allows --------------------------------------


def route_sets(M):
    """Three seeded sets of one to three elements."""
    rng = random.Random(f"routes {M.name}")
    return [frozenset(rng.sample(range(M.size), rng.randint(1, min(3, M.size))))
            for _ in range(3)]


def assert_chain_levels_lie_in(H, G):
    """Each level of H's chain: every transversal element lies in G, maps
    its base point to its key and fixes the earlier base points; each
    level's generators fix the earlier base points; the order is the
    product of the transversal sizes."""
    for i, point in enumerate(H.base):
        earlier = H.base[:i]
        for key, u in H._trans[i].items():
            assert G.contains(u)
            assert u[point] == key and all(u[b] == b for b in earlier)
        assert all(s[b] == b for s in H._levels[i] for b in earlier)
    assert H.order == prod(map(len, H._trans))


def assert_the_package_has_no_closure():
    """No module of the package holds a Schreier-Sims closure: every chain
    is the search's or is read off one."""
    import galbench
    modules = [galbench] + [getattr(galbench, m) for m in
                            ("aut", "cli", "corpus", "galois", "perm", "suite")]
    assert not any(hasattr(m, "close_group") for m in modules)


def assert_routes_agree(M):
    """Aut(M/A) searched with A fixed on a fresh structure, read off a
    cached Aut(M), and read off the cached group of a nonempty proper
    subset of A: every route gives the same generator tuple and the same
    chain, those of the fresh closure of Aut(M) with A's points first, read
    canonically (`oracles.canonical_stabilizer`)."""
    rng = random.Random(f"subsets {M.name}")
    for A in route_sets(M):
        M._caches.clear()
        searched_group = automorphism_group_fixing(M, A)
        assert chain(searched_group) == chain(search_automorphism_generators(M, A))
        M._caches.clear()
        full = automorphism_group(M)
        groups = [searched_group, automorphism_group_fixing(M, A)]
        if len(A) > 1:
            M._caches.clear()
            S = frozenset(rng.sample(sorted(A), rng.randint(1, len(A) - 1)))
            automorphism_group_fixing(M, S)
            groups.append(automorphism_group_fixing(M, A))
        expected = canonical_stabilizer(full, A)
        for G in groups:
            assert G.generators == expected.generators
            assert chain(G) == chain(expected)
        assert_chain_levels_lie_in(expected, full)


def relabelled(M, labelling):
    """M with element k moved to position pi(k), pi a permutation of the
    universe seeded by `labelling`; the labels keep their order."""
    pi = list(range(M.size))
    random.Random(labelling).shuffle(pi)
    return Structure(f"{M.name}_{labelling}", M.signature, list(M.labels),
                     {rel: {tuple(pi[e] for e in t) for t in table}
                      for rel, table in M.tables.items()})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_routes_agree_on_the_corpus(name):
    assert_routes_agree(load_structure(CORPUS[name].source))


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_routes_agree_on_generated_families(name):
    """Each family in its generated labelling and in three relabellings."""
    M = GENERATED[name]()
    assert_routes_agree(M)
    for labelling in LABELLINGS:
        assert_routes_agree(relabelled(M, labelling))


@pytest.mark.parametrize("labelling", LABELLINGS)
@pytest.mark.parametrize("name", sorted(LABELLED_GRAPHS))
def test_routes_agree_on_labelled_graphs(name, labelling):
    assert_routes_agree(
        load_structure(labelled_graph_text(name, LABELLED_GRAPHS[name], labelling)))


def test_routes_agree_on_random_structures():
    """The 300 structures of the coloring test above."""
    rng = random.Random(23)
    for trial in range(300):
        M = random_structure(rng, f"Z{trial}", 8)
        rng.sample(range(M.size), rng.randint(0, M.size))  # that test's fixed set
        assert_routes_agree(M)


# -- base change on the 16-element structures --------------------------------------


def sixteen_point_text(name, relations):
    """Structure text on p0..p15; `relations` maps a name to (arity, tuples)."""
    lines = [f"structure {name} {{",
             "  universe = { " + ", ".join(f"p{i}" for i in range(16)) + " }"]
    for rel, (arity, tuples) in relations.items():
        body = ", ".join("(" + ", ".join(f"p{x}" for x in t) + ")" for t in sorted(tuples))
        lines.append(f"  rel {rel}/{arity} = {{ {body} }}")
    return "\n".join(lines + ["}"]) + "\n"


def undirected(edges):
    return {"E": (2, {(a, b) for a, b in edges} | {(b, a) for a, b in edges})}


def pairs_where(joined):
    return [(a, b) for a in range(16) for b in range(a + 1, 16) if joined(a, b)]


#: The seven 16-element structures of the ROADMAP's totality run.
SIXTEEN = {
    "FREE16": {"P": (1, {(0,)})},
    "K4x4": undirected(pairs_where(lambda a, b: a // 4 == b // 4)),
    "K2x8": undirected(pairs_where(lambda a, b: a // 2 == b // 2)),
    "K8x2": undirected(pairs_where(lambda a, b: a // 8 == b // 8)),
    "K8_8": undirected(pairs_where(lambda a, b: a // 8 != b // 8)),
    "Q4": undirected(pairs_where(lambda a, b: (a ^ b).bit_count() == 1)),
    "SPLIT8_8": {"P": (1, {(i,) for i in range(8)})},
}


@pytest.mark.parametrize("name, A", [
    ("K8_8", {0, 8}), ("K8_8", {3, 12}), ("K8_8", {7, 9, 14}),
    ("K8x2", {0, 8}), ("K8x2", {5, 10}),
    ("K4x4", {0, 4}), ("K4x4", {1, 6, 11}),
    ("SPLIT8_8", {8}), ("SPLIT8_8", {3, 12}),
])
def test_base_change_swaps_where_a_point_is_not_a_base_image(name, A, monkeypatch):
    """A point outside its level's orbit is swapped up: the swap runs, and
    the chain read off is the canonical reading of the closure's."""
    M = load_structure(sixteen_point_text(name, SIXTEEN[name]))
    full = automorphism_group(M)
    swaps = []

    def counted(*args):
        swaps.append(args[-2])
        return swap(*args)

    swap = perm._swap_levels
    monkeypatch.setattr(perm, "_swap_levels", counted)
    got = automorphism_group_fixing(M, frozenset(A))
    assert swaps
    closed = canonical_stabilizer(full, A)
    assert chain(got) == chain(closed)
    assert got.equals(close_group(closed.generators, degree=16))


def test_a_swap_whose_orbit_stops_short_raises():
    """Fixing p8 in the 8 + 8 split swaps p8 up past p6, whose level's
    orbit {p6, p7} is given a bogus third point: the orbit below p8 cannot
    reach the size the transversals promise."""
    G = automorphism_group(load_structure(sixteen_point_text("SPLIT8_8", SIXTEEN["SPLIT8_8"])))
    i = G.base.index(6)
    assert sorted(G._trans[i]) == [6, 7]
    bogus = {**G._trans[i], 9: G._trans[i][7]}
    trans = G._trans[:i] + (bogus,) + G._trans[i + 1:]
    H = PermGroup(G.degree, G.generators, G.base, G._levels, trans, G.order)
    with pytest.raises(InternalCheckError, match="base change: the orbit of 6 below 8"):
        stabilizer_pointwise(H, {8})


@pytest.mark.parametrize("name", sorted(SIXTEEN))
def test_follow_up_questions_after_aut_answer_within_a_second(name, tmp_path):
    """`aut`, then `dcl` and `orbit` on seeded sets of one to three elements
    of the same file: each follow-up is read off the kept Aut(M)."""
    from galbench.cli import run_command

    path = tmp_path / "structure.txt"
    path.write_text(sixteen_point_text(name, SIXTEEN[name]), encoding="utf-8")
    assert run_command(["aut", str(path)], out=io.StringIO()) == 0
    rng = random.Random(f"follow-up {name}")
    for _ in range(4):
        names = ",".join(f"p{x}" for x in rng.sample(range(16), rng.randint(1, 3)))
        x = f"p{rng.randrange(16)}"
        for argv in (["dcl", str(path), "--set", names],
                     ["orbit", str(path), "--tuple", x, "--base", names]):
            start = time.perf_counter()
            assert run_command(argv, out=io.StringIO()) == 0
            assert time.perf_counter() - start < 1.0, argv
