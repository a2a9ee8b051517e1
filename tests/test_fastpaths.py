"""The group core's fast paths against the slow paths they replaced."""

import random
from itertools import combinations, product

import pytest

import galbench.suite as suite
from galbench import galois, perm
from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_restriction)
from galbench.errors import (CapError, GalbenchError, GroupError, InternalCheckError,
                             NotInvariantError)
from galbench.galois import (codes_finite_sets, dcl, find_code, find_generator,
                             is_normal_extension, is_splitting_extension,
                             multisymmetric_code, verify_galois_correspondence)
from galbench.perm import Perm, orbit, restrict_to_invariant_set, stabilizer_pointwise
from galbench.structure import load_structure
from galbench.suite import run_law_suite

import oracles
from oracles import (all_subgroups, canonical_stabilizer, close_group,
                     cyclic_join_subgroups, slow_antitone_law, slow_code_is_verified,
                     slow_codes_finite_sets, slow_find_code, slow_galois_correspondence,
                     slow_is_normal_extension, two_close_stabilizer)
from test_cli import SPLITTING_GRAPHS


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
    return [relative_restriction(M, frozenset(range(M.size)), A) for A in bases]


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
            if set(t) - G.fixed_points():
                assert fast.generators == canonical_stabilizer(G, t).generators
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
        assert again is first
        fresh = restrict_to_invariant_set(G_A, C)
        for image in (first, again):
            assert image.degree == len(C)
            assert image.generator_strings() == fresh.generator_strings()
            assert image.order == fresh.order


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
    assert p * q == Perm(p * q)
    assert p.inverse() == Perm(p.inverse())
    assert Perm.identity(5) == Perm(range(5))


# -- element tables ------------------------------------------------------------------


def test_element_table_lists_the_groups_elements():
    for make in NAMED_GROUPS.values():
        G = make()
        assert G.element_table().elements == G.elements()


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
    # Three unrelated points: <(0 1 2)> and S3 share Fix = {}, whose closure
    # the duality check reads once, and only the first of them fails.
    "P3": lambda: structure_from("P3", 3, [], seed=3),
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


def non_normal_instances(M):
    """(base, top) pairs whose closed top is no union of orbits over the
    closed base: the empty base and two random points, each with one more
    point."""
    rng = random.Random(M.name)
    bases = [frozenset()] + [frozenset(rng.sample(range(M.size), 1)) for _ in range(2)]
    return [(A, A | {x}) for A in bases for x in range(M.size)
            if not slow_is_normal_extension(M, dcl(M, A), dcl(M, A | {x}))]


def assert_duality_matches_slow_path(M):
    """Equal reports, or equal errors: a non-normal top raises the same
    `HypothesisError` on both paths."""
    for A, C in duality_instances(M) + non_normal_instances(M):
        assert_same_outcome(lambda: verify_galois_correspondence(M, A, C),
                            lambda: slow_galois_correspondence(M, A, C))


def test_generated_families_have_non_normal_tops():
    counts = {name: len(non_normal_instances(make())) for name, make in GENERATED.items()}
    assert {name for name, n in counts.items() if n} == {"Cyc2_2_3", "Cyc3_3", "Cyc4_4",
                                                          "P3"}


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


def test_duality_answers_past_the_base_groups_element_cap(ex_rs, monkeypatch):
    """Only the relative group's elements are enumerated.  Over a,b,c,d the
    relative group of EX_RS has order 4, and Aut(M/A) = Aut(M) order 8,
    which the coding column no longer enumerates.  So the check answers
    under an element cap of 7 as the slow path, which enumerates Aut(M),
    answered under the default cap, and the slow path itself is refused."""
    top = ex_rs.ids(["a", "b", "c", "d"])
    expected = slow_galois_correspondence(ex_rs, frozenset(), top)
    monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", 7)
    assert verify_galois_correspondence(ex_rs, frozenset(), top) == expected
    with pytest.raises(CapError, match="group of order 8 exceeds enumeration cap 7"):
        slow_galois_correspondence(ex_rs, frozenset(), top)


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


def test_antitone_law_past_its_lattice_order_checks_the_group_alone(monkeypatch):
    """Six unrelated points: the suite's towers reach Aut(C/A) = S6 twice,
    past `ANTITONE_LATTICE_MAX_ORDER`, where the law reads no lattice."""
    M = load_structure("structure P6 { universe = { p0, p1, p2, p3, p4, p5 } }")
    orders = []
    real = suite._antitone_law

    def recorded(M, C, A, G_rel, B1, B2):
        orders.append(G_rel.order)
        return real(M, C, A, G_rel, B1, B2)

    monkeypatch.setattr(suite, "_antitone_law", recorded)
    assert run_law_suite(M, trials=10).verdict
    assert orders.count(720) == 2 and 720 > suite.ANTITONE_LATTICE_MAX_ORDER


def test_antitone_law_reports_a_wrong_double_fix(ex_rs, monkeypatch):
    """A `fix_of_set` that returns the trivial group breaks Fix(Fix(H)) >= H
    for every nontrivial H; the antitone law and the duality check, which
    share their route to Fix(Fix(H)), must say so, as their slow versions
    do."""
    def trivial_fix(M, C, A, B):
        return close_group([], degree=len(C))

    monkeypatch.setattr(galois, "fix_of_set", trivial_fix)
    monkeypatch.setattr(suite, "fix_of_set", trivial_fix)
    monkeypatch.setattr(oracles, "fix_of_set", trivial_fix)
    top = ex_rs.ids(["a", "b", "c", "d"])
    report = verify_galois_correspondence(ex_rs, frozenset(), top)
    slow = slow_galois_correspondence(ex_rs, frozenset(), top)
    assert len(report.failures) == report.subgroup_count - 1
    assert report.failures == tuple(f for f in slow.failures if f.kind == "subgroup")
    laws = run_law_suite(ex_rs, trials=10, seed=5).laws
    antitone = next(law for law in laws if law.name == "antitone_galois_connection")
    assert any(v.endswith("subgroup not inside its double Fix")
               for v in antitone.violations)
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
    # `find_code` enumerates no group, so an element cap below |Aut(M)| does
    # not touch it
    order = automorphism_group(M).order
    if order > 1:
        F = [(0,), (1,)]
        expected = slow_find_code(M, F)
        monkeypatch.setattr(perm, "DEFAULT_ELEMENT_CAP", order - 1)
        assert find_code(M, F) == expected


def test_code_searches_match_slow_path_on_corpus(corpus_structure, monkeypatch):
    assert_codes_match_slow_path(corpus_structure, monkeypatch)


def test_code_searches_match_slow_path_on_generated(generated_structure, monkeypatch):
    assert_codes_match_slow_path(generated_structure, monkeypatch)


def assert_codes_report_matches_find_code(M):
    """The report's failures are the representatives, least member of each
    orbit of sets, that `find_code` called on its own finds no code for."""
    elems = automorphism_group(M).elements()
    for size, max_len in ((1, 0), (2, 0), (2, 1), (2, 3)):
        reps, seen = [], set()
        for k in range(1, size + 1):
            for combo in combinations(range(M.size), k):
                if combo not in seen:
                    images = {tuple(sorted(g(e) for e in combo)) for g in elems}
                    seen |= images
                    reps.append(min(images))
        report = codes_finite_sets(M, max_set_size=size, max_len=max_len)
        assert report.sets_checked == len(reps)
        assert report.failures == tuple(M.render_set(rep) for rep in reps
                                        if find_code(M, [(e,) for e in rep], max_len) is None)


def test_codes_report_matches_find_code_on_corpus(corpus_structure):
    assert_codes_report_matches_find_code(corpus_structure)


def test_codes_report_matches_find_code_on_generated(generated_structure):
    assert_codes_report_matches_find_code(generated_structure)


@pytest.mark.parametrize("make", [lambda: galois_field(2, (1, 1, 0, 1)),
                                  lambda: galois_field(3, (1, 0, 1))],
                         ids=["GF8", "GF9"])
def test_multisymmetric_check_matches_slow_path(make, gf16, monkeypatch):
    """The self-check accepts exactly the tuples the slow path verifies: an
    expansion that gives a wrong tuple raises `InternalCheckError`."""
    for M in (make(), gf16):
        rng = random.Random(M.name)
        for F in random_tuple_sets(M, rng, 10):
            lengths = {len(t) for t in F}
            if len(lengths) > 1:
                continue
            code = multisymmetric_code(M, F)
            assert slow_code_is_verified(M, F, code)
            # the stabilizer comparison itself, on codes right and wrong
            for cand in (code, tuple(rng.randrange(M.size) for _ in range(2))):
                with monkeypatch.context() as patch:
                    patch.setattr(galois, "_multisymmetric_coefficients",
                                  lambda ops, tuples, n: cand)
                    try:
                        holds = multisymmetric_code(M, F) == cand
                    except InternalCheckError:
                        holds = False
                assert holds == slow_code_is_verified(M, F, cand)


# -- element lists, point orbits and splitting against their slow paths ------------


def graph(name, n, edges, seed):
    """An undirected graph as an `adj/2` structure, declared in a seeded
    random order."""
    arcs = [a for u, v in edges for a in ((u, v), (v, u))]
    return structure_from(name, n, [("adj", 2, arcs)], seed)


def rook4(seed):
    return graph("Rook4", 16, SPLITTING_GRAPHS["Rook4"], seed)


def clebsch(seed):
    return graph("Clebsch", 16, SPLITTING_GRAPHS["Clebsch"], seed)


def k44(seed):
    return graph("K4_4", 8, [(i, j) for i in range(4) for j in range(4, 8)], seed)


#: Vertex-transitive graphs with large groups: Rook4 and K4,4 of order 1152,
#: Clebsch of order 1920.
LARGE_GROUPS = {"Rook4": rook4, "Clebsch": clebsch, "K4_4": k44}


def kernel_groups(M):
    """Aut(M) and two of its pointwise stabilizers, whose generators are the
    chain's level generators rather than the search's."""
    G = automorphism_group(M)
    return [G, stabilizer_pointwise(G, (0,)), stabilizer_pointwise(G, (M.size - 1, 0))]


def assert_kernel_matches_slow_path(M):
    for G in kernel_groups(M):
        elems = G.elements()
        assert elems == oracles.slow_elements(G)
        assert all(type(g) is Perm and isinstance(g, tuple) for g in elems)
        orbits = G.point_orbits()
        assert orbits == tuple(frozenset(t[0] for t in orbit(G, (x,)))
                               for x in range(G.degree))
        assert G.point_orbits() is orbits


def test_kernel_matches_slow_path_on_corpus(corpus_structure):
    assert_kernel_matches_slow_path(corpus_structure)


def test_kernel_matches_slow_path_on_generated(generated_structure):
    assert_kernel_matches_slow_path(generated_structure)


@pytest.mark.parametrize("name", sorted(LARGE_GROUPS))
def test_kernel_matches_slow_path_on_large_groups(name):
    M = LARGE_GROUPS[name](0)
    assert automorphism_group(M).order == {"Rook4": 1152, "Clebsch": 1920,
                                           "K4_4": 1152}[name]
    assert_kernel_matches_slow_path(M)


@pytest.mark.parametrize("name", ["Clebsch", "Rook4"])
def test_code_searches_match_slow_path_on_large_groups(name, monkeypatch):
    assert_codes_match_slow_path(LARGE_GROUPS[name](0), monkeypatch)


def splitting_instances(M):
    """(base, top) pairs: the empty base under the whole universe, and per
    seeded random base a few random tops and the closure of one orbit."""
    rng = random.Random(M.name)
    universe = frozenset(range(M.size))
    out = [(frozenset(), universe)]
    for _ in range(3):
        A = frozenset(rng.sample(range(M.size), rng.randrange(3)))
        G = automorphism_group_fixing(M, A)
        x = rng.randrange(M.size)
        out.append((A, A | frozenset(rng.sample(range(M.size), rng.randrange(1, 4)))))
        out.append((A, dcl(M, A | frozenset(t[0] for t in orbit(G, (x,))))))
    return out


def assert_splitting_matches_slow_path(M):
    verdicts = set()
    for A, B in splitting_instances(M):
        for max_len in range(4):
            got = is_splitting_extension(M, A, B, max_len)
            assert got == oracles.slow_is_splitting_extension(M, A, B, max_len), \
                (sorted(A), sorted(B), max_len)
            verdicts.add(got[0])
    return verdicts


def test_splitting_matches_slow_path_on_corpus(corpus_structure):
    assert_splitting_matches_slow_path(corpus_structure)


def test_splitting_matches_slow_path_on_generated(generated_structure):
    assert_splitting_matches_slow_path(generated_structure)


@pytest.mark.parametrize("make", [rook4, clebsch], ids=["Rook4", "Clebsch"])
def test_splitting_matches_slow_path_on_relabelled_large_groups(make):
    assert assert_splitting_matches_slow_path(make(97)) == {True, False}


def assert_generator_matches_slow_path(M):
    """The splitting search's (base, top) pairs and seeded random ones: the
    search over entry sets finds the tuple that the search over every tuple
    in product order finds first."""
    rng = random.Random(M.name)
    pairs = splitting_instances(M)
    for _ in range(4):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        pairs.append((A, A | frozenset(rng.sample(range(M.size), rng.randint(0, M.size)))))
    for A, B in pairs:
        for max_len in range(4):
            assert find_generator(M, A, B, max_len) == \
                oracles.slow_find_generator(M, A, B, max_len), (sorted(A), sorted(B), max_len)


def test_generator_matches_slow_path_on_corpus(corpus_structure):
    assert_generator_matches_slow_path(corpus_structure)


def test_generator_matches_slow_path_on_generated(generated_structure):
    assert_generator_matches_slow_path(generated_structure)


def test_generator_length_prune_matches_slow_path(monkeypatch):
    """Groups large next to m(m - 1), m the points outside dcl(A): six
    unrelated points (S6), three disjoint edges (order 48) and two disjoint
    triangles (order 72).  The search computes |G : Aut(M/B)| there and
    skips the lengths whose tuples have fewer images; on seeded random
    (base, top) pairs it answers as the search over every tuple does, and
    some searches start past length 1."""
    import galbench.galois as galois
    starts = []
    real = galois._candidate_tuples

    def recorded(pool, shortest, longest):
        starts.append(shortest)
        return real(pool, shortest, longest)

    monkeypatch.setattr(galois, "_candidate_tuples", recorded)
    for M in (load_structure("structure P6 { universe = { a, b, c, d, e, f } }"),
              structure_from("Edges3", 6, [("E", 2, [(0, 1), (1, 0), (2, 3), (3, 2),
                                                     (4, 5), (5, 4)])], seed=3),
              structure_from("Tri2", 6, [("E", 2, [(i, j) for i in range(6)
                                                   for j in range(6) if i != j
                                                   and i // 3 == j // 3])], seed=5)):
        rng = random.Random(M.name)
        pairs = [(frozenset(), frozenset(range(M.size)))]
        for _ in range(8):
            A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
            pairs.append((A, A | frozenset(rng.sample(range(M.size),
                                                      rng.randint(0, M.size)))))
        for A, B in pairs:
            for max_len in range(5):
                assert find_generator(M, A, B, max_len) == \
                    oracles.slow_find_generator(M, A, B, max_len), \
                    (M.name, sorted(A), sorted(B), max_len)
    assert max(starts) >= 3


def test_splitting_closes_each_set_once(monkeypatch):
    """Two swappable pairs over the empty base: the candidates (a), (b), (c),
    (d), (a, b) bring only the entry sets {a, b} and {c, d}, and (a, c) is
    the witness.  The tuple-orbit loop closes {a, b} and {c, d}
    twice each and {a, b} twice more; the search closes each set once, also
    where a nonempty base absorbs different orbit entries into one set."""
    import galbench.galois as galois
    M = load_structure("structure Pairs {\n  universe = { a, b, c, d }\n"
                       "  rel P/1 = { (a), (b) }\n}\n")
    calls = []

    def counted(real):
        def dcl_counted(M, A):
            calls.append(frozenset(A))
            return real(M, A)
        return dcl_counted

    monkeypatch.setattr(galois, "dcl", counted(galois.dcl))
    monkeypatch.setattr(oracles, "dcl", counted(oracles.dcl))
    everything = frozenset(range(4))
    a, b, c, d = map(M.resolve, "abcd")
    assert is_splitting_extension(M, frozenset(), everything) == (True, (a, c))
    assert calls == [frozenset(), frozenset({a, b}), frozenset({c, d}), everything]
    calls.clear()
    assert oracles.slow_is_splitting_extension(M, frozenset(), everything) == \
        (True, (a, c))
    assert len(calls) == 8
    for make in (lambda: rook4(97), lambda: clebsch(97), lambda: even_flips(4)):
        M = make()
        for A, B in splitting_instances(M):
            calls.clear()
            is_splitting_extension(M, A, B)
            assert len(calls) == len(set(calls))
