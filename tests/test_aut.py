import random

import pytest

import galbench.aut as aut
import galbench.perm as perm
from galbench.corpus import CORPUS
from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_aut, relative_restriction,
                          search_automorphism_generators)
from galbench.errors import NotInvariantError, StructureError
from galbench.perm import Perm, close_group, stabilizer_pointwise
from galbench.structure import load_structure

from oracles import (brute_automorphisms, frobenius_perm, naive_closure,
                     slow_orbit_product, slow_search_automorphism_generators,
                     slow_stable_colors)
from test_cli import LABELLED_GRAPHS, LABELLINGS, labelled_graph_text
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


def test_fixing_nothing_on_a_fresh_structure_closes_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return close_group(*args, **kwargs)

    monkeypatch.setattr(aut, "close_group", counted)
    monkeypatch.setattr(perm, "close_group", counted)
    M = load_structure(CORPUS["EX_RS"].source)
    G = automorphism_group_fixing(M, frozenset())
    assert len(calls) == 1
    assert G is automorphism_group(M) and G.order == 8


def test_fixing_is_pointwise_stabilizer(corpus_structure):
    M = corpus_structure
    rng = random.Random(9)
    G = automorphism_group(M)
    for _ in range(10):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 3)))
        via_op = automorphism_group_fixing(M, A)
        via_chain = stabilizer_pointwise(G, tuple(sorted(A)))
        assert via_op.equals(via_chain)


def test_fixing_agrees_with_direct_search(corpus_structure):
    M = corpus_structure
    rng = random.Random(21)
    for _ in range(5):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        gens, _ = search_automorphism_generators(M, A)
        searched = close_group(gens, degree=M.size)
        assert searched.equals(automorphism_group_fixing(M, A))


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
    assert relative_aut(ex_rs, C, frozenset()).order == 4
    G = relative_aut(gf16, frozenset(range(16)), gf16.ids(["0", "1"]))
    assert G.order == 4
    # cyclic: a single generator's powers give the whole group
    frob = frobenius_perm(gf16)
    assert len(naive_closure([frob], 16)) == 4
    assert relative_aut(ex_rs, C, C).order == 1


def test_relative_aut_elements_extend(ex_rs):
    C = sorted(ex_rs.ids(["a", "b", "c", "d"]))
    r = relative_restriction(ex_rs, frozenset(C), frozenset())
    global_images = {g.apply_tuple(tuple(C))
                     for g in automorphism_group(ex_rs).elements()}
    for h in r.image.elements():
        assert tuple(C[h(i)] for i in range(len(C))) in global_images


def test_relative_aut_rejects_non_invariant_set(ex_rs):
    with pytest.raises(NotInvariantError):
        relative_aut(ex_rs, ex_rs.ids(["a", "b"]), frozenset())


def test_relative_aut_requires_nesting(ex_rs):
    with pytest.raises(StructureError):
        relative_aut(ex_rs, ex_rs.ids(["a"]), ex_rs.ids(["a", "b"]))


def test_no_relations_gives_full_symmetric_group():
    M = load_structure("structure F { universe = { p0, p1, p2, p3, p4 } }")
    assert automorphism_group(M).order == 120


def test_sixteen_points_no_relations_handled():
    labels = ", ".join(f"p{i}" for i in range(16))
    M = load_structure(f"structure B {{ universe = {{ {labels} }} }}")
    import math
    assert automorphism_group(M).order == math.factorial(16)


def test_determinism_of_generators(ex_rs):
    a, order = search_automorphism_generators(ex_rs)
    assert search_automorphism_generators(ex_rs) == (a, order)
    assert a == sorted(a)


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


def assert_orbit_product_is_the_order(M):
    """The order the search returns is its per-level orbit product and the
    order of the group its generators close to, with and without fixed
    points, and the hinted automorphism group is the unhinted closure, chain
    and all."""
    for fixed in fixed_sets(M):
        gens, order = search_automorphism_generators(M, fixed)
        plain = close_group(gens, degree=M.size)
        assert order == slow_orbit_product(gens, M.size) == plain.order
    G = automorphism_group(M)
    gens, _ = search_automorphism_generators(M)
    assert chain(G) == chain(close_group(gens, degree=M.size))


def test_orbit_product_is_the_order_on_the_corpus(corpus_structure):
    assert_orbit_product_is_the_order(corpus_structure)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_orbit_product_is_the_order_on_generated_families(name):
    assert_orbit_product_is_the_order(GENERATED[name]())


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
        gens, order = search_automorphism_generators(M, fixed)
        for g in gens + list(automorphism_group_fixing(M, F).generators):
            assert all(colors[g(e)] == colors[e] for e in range(M.size))
        with monkeypatch.context() as m:
            m.setattr(aut, "_stable_colors",
                      lambda M, fixed, touch: slow_stable_colors(M, fixed))
            assert search_automorphism_generators(M, fixed) == (gens, order)


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
        gens, order = search_automorphism_generators(M, F)
        assert all(colors[g(e)] == colors[e] for g in gens for e in range(M.size))
        with monkeypatch.context() as m:
            m.setattr(aut, "_stable_colors",
                      lambda M, fixed, touch: slow_stable_colors(M, fixed))
            assert search_automorphism_generators(M, F) == (gens, order)


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
    gens, order = search_automorphism_generators(M)
    assert order == len(brute_automorphisms(M)) == close_group(gens, degree=8).order


# -- the two-part search against the position-order backtrack it replaced ----------


def assert_search_matches_oracle(M):
    """Same generators, in the same order, and the same order of the group,
    for each fixed set."""
    for fixed in fixed_sets(M):
        assert search_automorphism_generators(M, fixed) == \
            slow_search_automorphism_generators(M, fixed), fixed


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
        assert search_automorphism_generators(M, F) == \
            slow_search_automorphism_generators(M, F)
        assert_search_matches_oracle(M)


@pytest.mark.parametrize("labelling", LABELLINGS)
@pytest.mark.parametrize("name", sorted(LABELLED_GRAPHS))
def test_search_matches_oracle_on_labelled_graphs(name, labelling):
    assert_search_matches_oracle(
        load_structure(labelled_graph_text(name, LABELLED_GRAPHS[name], labelling)))
