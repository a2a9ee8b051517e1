"""The group core's fast paths against the slow paths they replaced."""

import random
from itertools import product

import pytest

import galbench.suite as suite
from galbench import perm
from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_aut, relative_restriction)
from galbench.errors import CapError, GalbenchError, GroupError, NotInvariantError
from galbench.galois import (codes_finite_sets, find_code, is_normal_extension,
                             multisymmetric_code, verify_galois_correspondence)
from galbench.perm import (Perm, all_subgroups, close_group, orbit,
                           restrict_to_invariant_set, stabilizer_pointwise,
                           trivial_group)
from galbench.structure import load_structure
from galbench.suite import run_law_suite

import oracles
from oracles import (cyclic_join_subgroups, slow_antitone_law, slow_code_is_verified,
                     slow_codes_finite_sets, slow_find_code,
                     slow_galois_correspondence, slow_is_normal_extension,
                     two_close_stabilizer)


def cyc(n, *cycles):
    images = list(range(n))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    return Perm(images)


def wreath_c2(k):
    """C_k wr C_2 on two k-cycles: the k-cycle and the swap of the cycles."""
    return close_group([cyc(2 * k, tuple(range(k))),
                        cyc(2 * k, *[(i, i + k) for i in range(k)])])


NAMED_GROUPS = {
    "C6": lambda: close_group([cyc(6, (0, 1, 2, 3, 4, 5))]),
    "D6": lambda: close_group([cyc(6, (0, 1, 2, 3, 4, 5)), cyc(6, (1, 5), (2, 4))]),
    "2xC4": lambda: wreath_c2(4),
    "2xC6": lambda: wreath_c2(6),
}


def corpus_relative_groups(M):
    rng = random.Random(M.name)
    bases = [frozenset()] + [frozenset(rng.sample(range(M.size), 1)) for _ in range(2)]
    return [relative_aut(M, frozenset(range(M.size)), A) for A in bases]


def assert_lattice_matches_oracle(G):
    subs = all_subgroups(G)
    expected = cyclic_join_subgroups(G)
    assert [H.order for H in subs] == [len(elems) for elems, _ in expected]
    assert [H.generator_strings() for H in subs] == \
        [tuple(str(g) for g in gens) for _, gens in expected]
    assert [H.elements() for H in subs] == [elems for elems, _ in expected]


@pytest.mark.parametrize("name", sorted(NAMED_GROUPS))
def test_lattice_matches_cyclic_join_oracle(name):
    assert_lattice_matches_oracle(NAMED_GROUPS[name]())


def test_lattice_matches_oracle_on_corpus_relative_groups(corpus_structure):
    for G in corpus_relative_groups(corpus_structure):
        assert_lattice_matches_oracle(G)


def test_one_close_stabilizer_matches_two_close():
    rng = random.Random(11)
    groups = [G() for G in NAMED_GROUPS.values()]
    groups.append(close_group([cyc(7, (0, 1, 2, 3, 4, 5, 6)), cyc(7, (0, 1))]))
    for G in groups:
        for _ in range(12):
            t = tuple(rng.randrange(G.degree) for _ in range(rng.randint(0, 4)))
            fast = stabilizer_pointwise(G, t)
            slow = two_close_stabilizer(G, t)
            assert fast.generator_strings() == slow.generator_strings()
            assert fast.order == slow.order
            assert fast.equals(slow) and slow.equals(fast)
            assert all(g(e) == e for g in fast.generators for e in t)


def test_restriction_memo_returns_equal_results(corpus_structure):
    M = corpus_structure
    rng = random.Random(M.name)
    for _ in range(4):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        G_A = automorphism_group_fixing(M, A)
        orbits = sorted({frozenset(t[0] for t in orbit(G_A, (x,)))
                         for x in range(M.size)}, key=sorted)
        C = A.union(*rng.sample(orbits, min(2, len(orbits))))
        first = relative_restriction(M, C, A)
        again = relative_restriction(M, C, A)
        fresh = restrict_to_invariant_set(G_A, C)
        for r in (first, again):
            assert r.points == fresh.points
            assert r.image.generator_strings() == fresh.image.generator_strings()
            assert r.image.order == fresh.image.order
            assert r.kernel.equals(fresh.kernel)


def test_restriction_memo_rejects_non_invariant_set_every_time(ex_rs):
    C = ex_rs.ids(["a", "b"])
    for _ in range(3):
        with pytest.raises(NotInvariantError):
            relative_restriction(ex_rs, C, frozenset())


def test_public_perm_still_checks_bijectivity():
    with pytest.raises(GroupError):
        Perm([0, 0])
    p = cyc(5, (0, 1, 2), (3, 4))
    q = cyc(5, (1, 4))
    assert p * q == Perm((p * q).images)
    assert p.inverse() == Perm(p.inverse().images)
    assert Perm.identity(5) == Perm(range(5))


# -- element tables ------------------------------------------------------------------


def test_element_table_masks_match_element_filters():
    rng = random.Random(5)
    groups = [G() for G in NAMED_GROUPS.values()]
    for G in groups:
        table = G.element_table()
        elems = G.elements()
        assert table.elements == elems
        n = len(elems)
        for _ in range(20):
            mask = rng.getrandbits(n) | 1
            members = [elems[i] for i in range(n) if mask >> i & 1]
            assert table.fixed(mask) == sum(
                1 << x for x in range(G.degree) if all(g(x) == x for g in members))
            points = rng.sample(range(G.degree), rng.randint(0, 3))
            pmask = sum(1 << x for x in points)
            fixing = [i for i, g in enumerate(elems) if all(g(x) == x for x in points)]
            assert table.pointwise(pmask) == sum(1 << i for i in fixing)
            assert table.pointwise_order(pmask) == len(fixing)
            tuples = {tuple(rng.randrange(G.degree) for _ in range(2))
                      for _ in range(rng.randint(0, 3))}
            setwise = [i for i, g in enumerate(elems)
                       if {g.apply_tuple(t) for t in tuples} == tuples]
            assert table.setwise(tuples) == sum(1 << i for i in setwise)


def test_element_table_is_built_once_and_checks_the_cap_every_time(monkeypatch):
    G = NAMED_GROUPS["D6"]()
    table = G.element_table()
    assert G.element_table() is table
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", G.order)
    assert G.element_table() is table
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 11)
    with pytest.raises(CapError, match="group of order 12 exceeds enumeration cap 11"):
        G.element_table()
    fresh = NAMED_GROUPS["D6"]()
    with pytest.raises(CapError, match="group of order 12 exceeds enumeration cap 11"):
        fresh.element_table()


# -- the duality check and code searches against their element-list loops ---------


def structure_from(name, n, rels, seed):
    """Structure text for relations over 0..n-1, elements declared in a
    seeded random order."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    label = {e: f"e{e}" for e in range(n)}
    lines = [f"structure {name} {{",
             "  universe = { " + ", ".join(label[e] for e in order) + " }"]
    for rel, arity, rows in rels:
        body = ", ".join("(" + ", ".join(label[e] for e in t) + ")" for t in sorted(rows))
        lines.append(f"  rel {rel}/{arity} = {{ {body} }}")
    lines.append("}")
    return load_structure("\n".join(lines) + "\n")


def cycle_union(*lengths):
    rows, start = [], 0
    for m in lengths:
        rows += [(start + k, start + (k + 1) % m) for k in range(m)]
        start += m
    return structure_from("Cyc" + "_".join(map(str, lengths)), start,
                          [("nx", 2, rows)], seed=start)


def dihedral(m):
    """D_m with arcs for right multiplication by r and by s: Aut(M) is D_m
    acting regularly by left multiplication."""
    elems = [(i, j) for j in range(2) for i in range(m)]
    index = {e: k for k, e in enumerate(elems)}

    def mul(a, b):
        return ((a[0] + (b[0] if a[1] == 0 else -b[0])) % m, (a[1] + b[1]) % 2)

    rels = [(rel, 2, [(index[e], index[mul(e, g)]) for e in elems])
            for rel, g in (("R", (1, 0)), ("S", (0, 1)))]
    return structure_from(f"D{m}", 2 * m, rels, seed=m)


def galois_field(p, modulus):
    """GF(p^k) as add/3 and mul/3 graphs; `modulus` is a monic irreducible
    polynomial of degree k, lowest coefficient first."""
    k = len(modulus) - 1
    elems = list(product(range(p), repeat=k))
    index = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            for i in range(k + 1):
                prod[top - k + i] = (prod[top - k + i] - c * modulus[i]) % p
        return tuple(prod[:k])

    add = [(index[a], index[b], index[tuple((x + y) % p for x, y in zip(a, b))])
           for a in elems for b in elems]
    times = [(index[a], index[b], index[mul(a, b)]) for a in elems for b in elems]
    return structure_from(f"GF{p ** k}", p ** k, [("add", 3, add), ("mul", 3, times)],
                          seed=p ** k)


def even_flips(k):
    """k two-element blocks under one k-ary relation holding the choices with
    an even number of second elements.  Aut(M) flips an even number of
    blocks, so two elements' fixed sets often meet in a set that no single
    element fixes, and the intermediate sets need the intersections."""
    rows = [tuple(2 * i + bit for i, bit in enumerate(bits))
            for bits in product(range(2), repeat=k) if sum(bits) % 2 == 0]
    return structure_from(f"Even{k}", 2 * k, [("T", k, rows)], seed=k)


GENERATED = {
    "Cyc3_3": lambda: cycle_union(3, 3),
    "Cyc2_4": lambda: cycle_union(2, 4),
    "Cyc4_4": lambda: cycle_union(4, 4),
    "Cyc2_2_3": lambda: cycle_union(2, 2, 3),
    "D3": lambda: dihedral(3),
    "D4": lambda: dihedral(4),
    "D5": lambda: dihedral(5),
    "GF5": lambda: galois_field(5, (0, 1)),
    "GF8": lambda: galois_field(2, (1, 1, 0, 1)),
    "GF9": lambda: galois_field(3, (1, 0, 1)),
    "Even3": lambda: even_flips(3),
    "Even4": lambda: even_flips(4),
}


@pytest.fixture(params=sorted(GENERATED))
def generated_structure(request):
    return GENERATED[request.param]()


def duality_instances(M):
    """(base, top) pairs: the empty base and a few random ones under the
    whole universe, and unions of orbits over a random base."""
    rng = random.Random(M.name)
    universe = frozenset(range(M.size))
    out = [(frozenset(), universe)]
    for _ in range(3):
        A = frozenset(rng.sample(range(M.size), rng.randint(1, 2)))
        out.append((A, universe))
        G_A = automorphism_group_fixing(M, A)
        orbits = sorted({frozenset(t[0] for t in orbit(G_A, (x,)))
                         for x in range(M.size)}, key=sorted)
        out.append((A, A.union(*rng.sample(orbits, min(2, len(orbits))))))
    return out


def assert_same_outcome(fast, slow):
    """Both raise the same error with the same message, or return equal
    values."""
    try:
        expected = slow()
    except GalbenchError as exc:
        with pytest.raises(type(exc)) as got:
            fast()
        assert str(got.value) == str(exc)
        return
    assert fast() == expected


def assert_duality_matches_slow_path(M):
    for A, C in duality_instances(M):
        assert_same_outcome(lambda: verify_galois_correspondence(M, A, C),
                            lambda: slow_galois_correspondence(M, A, C))


def test_duality_matches_slow_path_on_corpus(corpus_structure):
    assert_duality_matches_slow_path(corpus_structure)


def test_duality_matches_slow_path_on_generated(generated_structure):
    assert_duality_matches_slow_path(generated_structure)


def assert_normality_matches_slow_path(M):
    """The duality's (base, top) pairs, whose tops are unions of orbits, and
    seeded random pairs, normal or not (353 and 106 over the corpus and the
    generated families); a base outside its extension is an error on both
    paths."""
    rng = random.Random(M.name)
    pairs = duality_instances(M)
    for _ in range(20):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        pairs.append((A, A | frozenset(rng.sample(range(M.size), rng.randint(0, M.size)))))
    pairs.append((frozenset(range(M.size)), frozenset()))
    for A, B in pairs:
        assert_same_outcome(lambda: is_normal_extension(M, A, B),
                            lambda: slow_is_normal_extension(M, A, B))


def test_normality_matches_slow_path_on_corpus(corpus_structure):
    assert_normality_matches_slow_path(corpus_structure)


def test_normality_matches_slow_path_on_generated(generated_structure):
    assert_normality_matches_slow_path(generated_structure)


def test_ex_rs_failure_report_matches_slow_path(ex_rs):
    top = ex_rs.ids(["a", "b", "c", "d"])
    report = verify_galois_correspondence(ex_rs, frozenset(), top)
    assert len(report.failures) == 3 and report.coding_ok is False
    assert_same_outcome(lambda: verify_galois_correspondence(ex_rs, frozenset(), top),
                        lambda: slow_galois_correspondence(ex_rs, frozenset(), top))


def test_duality_still_caps_the_base_group(ex_rs, monkeypatch):
    # the relative group has order 4, Aut(M/A) order 8: the cap applies to
    # the latter, as the element list of Aut(M/A) did
    top = ex_rs.ids(["a", "b", "c", "d"])
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 4)
    for check in (verify_galois_correspondence, slow_galois_correspondence):
        with pytest.raises(CapError, match="group of order 8 exceeds enumeration cap 4"):
            check(ex_rs, frozenset(), top)
    M = cycle_union(2, 4)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 7)
    assert_same_outcome(
        lambda: verify_galois_correspondence(M, frozenset(), range(M.size)),
        lambda: slow_galois_correspondence(M, frozenset(), range(M.size)))


# -- the antitone law against its closed-subgroup version ---------------------------


def assert_antitone_matches_slow_path(M, monkeypatch):
    """The whole suite's LawResults, with the mask-based antitone law and with
    the one that closes a group per subgroup."""
    fast = run_law_suite(M, trials=10, seed=5).laws
    with monkeypatch.context() as patch:
        patch.setattr(suite, "_antitone_law", slow_antitone_law)
        slow = run_law_suite(M, trials=10, seed=5).laws
    assert fast == slow


def test_antitone_law_matches_slow_path_on_corpus(corpus_structure, monkeypatch):
    assert_antitone_matches_slow_path(corpus_structure, monkeypatch)


def test_antitone_law_matches_slow_path_on_generated(generated_structure, monkeypatch):
    assert_antitone_matches_slow_path(generated_structure, monkeypatch)


def test_antitone_law_reports_a_wrong_double_fix(ex_rs, monkeypatch):
    """A `fix_of_set` that returns the trivial group breaks Fix(Fix(H)) >= H
    for every nontrivial H; the law must say so, as its slow version does."""
    def trivial_fix(M, C, A, B):
        return trivial_group(len(C))

    monkeypatch.setattr(suite, "fix_of_set", trivial_fix)
    laws = run_law_suite(ex_rs, trials=10, seed=5).laws
    antitone = next(law for law in laws if law.name == "antitone_galois_connection")
    assert any(v.endswith("subgroup not inside its double Fix")
               for v in antitone.violations)
    monkeypatch.setattr(oracles, "fix_of_set", trivial_fix)
    monkeypatch.setattr(suite, "_antitone_law", slow_antitone_law)
    assert run_law_suite(ex_rs, trials=10, seed=5).laws == laws


def random_tuple_sets(M, rng, count):
    for _ in range(count):
        length = rng.randint(1, 2)
        yield {tuple(rng.randrange(M.size) for _ in range(length))
               for _ in range(rng.randint(1, 3))}


def assert_codes_match_slow_path(M, monkeypatch):
    rng = random.Random(M.name)
    for F in random_tuple_sets(M, rng, 12):
        for max_len in (0, 2):
            assert find_code(M, F, max_len) == slow_find_code(M, F, max_len)
    for size in (1, 2):
        assert_same_outcome(lambda: codes_finite_sets(M, max_set_size=size),
                            lambda: slow_codes_finite_sets(M, max_set_size=size))
    order = automorphism_group(M).order
    if order > 1:
        F = [(0,), (1,)]
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", order - 1)
        assert_same_outcome(lambda: find_code(M, F), lambda: slow_find_code(M, F))


def test_code_searches_match_slow_path_on_corpus(corpus_structure, monkeypatch):
    assert_codes_match_slow_path(corpus_structure, monkeypatch)


def test_code_searches_match_slow_path_on_generated(generated_structure, monkeypatch):
    assert_codes_match_slow_path(generated_structure, monkeypatch)


@pytest.mark.parametrize("make", [lambda: galois_field(2, (1, 1, 0, 1)),
                                  lambda: galois_field(3, (1, 0, 1))],
                         ids=["GF8", "GF9"])
def test_multisymmetric_check_matches_slow_path(make, gf16, monkeypatch):
    for M in (make(), gf16):
        rng = random.Random(M.name)
        table = automorphism_group(M).element_table()
        for F in random_tuple_sets(M, rng, 10):
            lengths = {len(t) for t in F}
            if len(lengths) > 1:
                continue
            code = multisymmetric_code(M, F)
            assert slow_code_is_verified(M, F, code)
            # the stabilizer comparison itself, on codes right and wrong
            for cand in (code, tuple(rng.randrange(M.size) for _ in range(2))):
                points = sum(1 << e for e in set(cand))
                assert (table.setwise(F) == table.pointwise(points)) == \
                    slow_code_is_verified(M, F, cand)
        with monkeypatch.context() as patch, \
                pytest.raises(CapError, match="exceeds enumeration cap"):
            patch.setattr(perm, "DEFAULT_ELEMENT_CAP", 1)
            multisymmetric_code(M, [(1,)])
