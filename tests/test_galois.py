import random
from dataclasses import fields
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from galbench.aut import (automorphism_group, automorphism_group_fixing,
                          relative_restriction)
from galbench.errors import (CapError, EvalError, FieldEncodingError,
                             HypothesisError, InconclusiveError, StructureError)
from galbench.formula import parse_formula
from galbench.galois import (FieldOps, _candidate_tuples, acl, codes_finite_sets, dcl,
                             degree_of_extension, extension_aut_order,
                             find_code, find_generator, fix_of_set,
                             fix_of_subgroup, is_irreducible_formula,
                             is_normal_extension, is_splitting_extension,
                             multisymmetric_code, multisymmetric_monomials,
                             orbit_over, verify_galois_correspondence,
                             verify_tower)
from galbench.structure import load_structure
from galbench.suite import run_law_suite

from oracles import close_group, frobenius_perm


def ids(M, *names):
    return M.ids(names)


GF2_16 = ("0", "1")
GF4_16 = ("0", "1", "w5", "w10")

# Two isomorphic directed triangles: the closure of one triangle is itself,
# yet the triangle swap moves it, giving definably closed non-normal sets.
TWO_TRIANGLES = """
structure TWOTRI {
  universe = { x0, x1, x2, y0, y1, y2 }
  rel E/2 = { (x0,x1), (x1,x2), (x2,x0), (y0,y1), (y1,y2), (y2,y0) }
}
"""


@pytest.fixture(scope="module")
def twotri():
    return load_structure(TWO_TRIANGLES)


# -- closures ---------------------------------------------------------------------


def test_dcl_examples(ex_rs, gf4):
    assert dcl(ex_rs, frozenset()) == frozenset()
    assert dcl(ex_rs, ids(ex_rs, "a")) == ids(ex_rs, "a", "b", "c", "d")
    assert dcl(gf4, frozenset()) == ids(gf4, "0", "1")


def test_dcl_gf16_subfield(gf16):
    assert dcl(gf16, ids(gf16, *GF2_16)) == ids(gf16, *GF2_16)
    assert dcl(gf16, ids(gf16, "w5")) == ids(gf16, *GF4_16)
    assert dcl(gf16, ids(gf16, "w")) == frozenset(range(16))


def test_acl_is_whole_universe_here(corpus_structure):
    M = corpus_structure
    assert acl(M, frozenset()) == frozenset(range(M.size))
    assert acl(M, frozenset({0})) == frozenset(range(M.size))


def test_closure_laws_random(corpus_structure):
    M = corpus_structure
    rng = random.Random(23)
    for _ in range(20):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 3)))
        B = A | frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        dA = dcl(M, A)
        assert A <= dA
        assert dA <= dcl(M, B)
        assert dcl(M, dA) == dA
        assert dA <= acl(M, A)


# -- orbits ------------------------------------------------------------------------


def test_orbit_over_examples(ex_rs, gf16):
    assert orbit_over(ex_rs, (ex_rs.resolve("a"),), frozenset()) == \
        tuple((i,) for i in range(4))

    w = gf16.resolve("w")
    assert len(orbit_over(gf16, (w,), ids(gf16, *GF2_16))) == 4

    assert orbit_over(ex_rs, (0,), ids(ex_rs, "a")) == ((0,),)


def test_orbit_degree_divides_group_order(corpus_structure):
    M = corpus_structure
    rng = random.Random(31)
    from galbench.aut import automorphism_group_fixing
    for _ in range(20):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        b = tuple(rng.randrange(M.size) for _ in range(rng.randint(1, 2)))
        G = automorphism_group_fixing(M, A)
        assert G.order % len(orbit_over(M, b, A)) == 0


# -- irreducible formulas --------------------------------------------------------------


def test_irreducible_formula_examples(ex_rs):
    a = ex_rs.resolve("a")
    has_partner = parse_formula("E z. R(y,z)", ex_rs.signature)
    assert is_irreducible_formula(ex_rs, has_partner, (a,), frozenset()) is True

    everything = parse_formula("y = y", ex_rs.signature)
    assert is_irreducible_formula(ex_rs, everything, (a,), frozenset()) is False


def test_irreducible_with_parameter(ex_rs):
    c = ex_rs.resolve("c")
    f = parse_formula("y = c", ex_rs.signature)
    assert is_irreducible_formula(ex_rs, f, (c,), ids(ex_rs, "c")) is True
    with pytest.raises(EvalError):
        is_irreducible_formula(ex_rs, f, (c,), frozenset())  # parameter outside A


def test_irreducible_arity_mismatch(ex_rs):
    f = parse_formula("E z. R(y,z)", ex_rs.signature)
    with pytest.raises(EvalError):
        is_irreducible_formula(ex_rs, f, (0, 1), frozenset())


def test_irreducible_formula_not_satisfied_by_tuple(ex_rs):
    f = parse_formula("E z. R(y,z)", ex_rs.signature)
    e = ex_rs.resolve("e")
    assert is_irreducible_formula(ex_rs, f, (e,), frozenset()) is False


# -- generators and degrees --------------------------------------------------------------


def test_find_generator_examples(ex_rs, gf16):
    C = ids(ex_rs, "a", "b", "c", "d")
    assert find_generator(ex_rs, frozenset(), C) == (ex_rs.resolve("a"),)
    gen = find_generator(gf16, ids(gf16, *GF2_16), frozenset(range(16)))
    assert gen == (gf16.resolve("w"),)
    assert find_generator(ex_rs, C, C) == ()


def test_generator_actually_generates(corpus_structure):
    M = corpus_structure
    rng = random.Random(41)
    for _ in range(10):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        B = dcl(M, A | {rng.randrange(M.size)})
        gen = find_generator(M, A, B)
        assert gen is not None
        assert B <= dcl(M, A | frozenset(gen))


def test_degree_examples(gf16):
    assert degree_of_extension(gf16, ids(gf16, *GF2_16), frozenset(range(16))) == 4
    assert degree_of_extension(gf16, ids(gf16, *GF2_16), ids(gf16, *GF4_16)) == 2
    A = ids(gf16, *GF2_16)
    assert degree_of_extension(gf16, A, A) == 1


def test_degree_independent_of_generator_choice(gf16):
    # every primitive element generates the top field; all give degree 4
    A = ids(gf16, *GF2_16)
    top = frozenset(range(16))
    for name in ("w", "w2", "w4", "w7", "w11", "w13"):
        x = gf16.resolve(name)
        assert dcl(gf16, A | {x}) == top
        assert len(orbit_over(gf16, (x,), A)) == 4


def test_degree_inconclusive_when_no_generator():
    # five fixed points, no relations: proper subsets over the empty base are
    # only definable from all their elements, so short tuples cannot generate
    M = load_structure("structure F { universe = { p0, p1, p2, p3, p4 } }")
    with pytest.raises(InconclusiveError):
        degree_of_extension(M, frozenset(), frozenset(range(5)), max_len=3)


# -- normal and splitting extensions ------------------------------------------------------


@st.composite
def _pools_and_entry_set_tests(draw):
    """An ascending pool, a search's length range, and a test on entry sets:
    membership in drawn sets, or (monotone) containing one of them."""
    pool = sorted(draw(st.sets(st.integers(0, 30), max_size=4)))
    sets = draw(st.lists(st.frozensets(st.sampled_from(pool)) if pool
                         else st.just(frozenset()), max_size=4))
    if draw(st.booleans()):
        def holds(entries):
            return any(s <= entries for s in sets)
    else:
        def holds(entries):
            return entries in sets
    shortest = draw(st.integers(0, 1))
    return pool, shortest, draw(st.integers(shortest, 6)), holds


@given(_pools_and_entry_set_tests())
@settings(max_examples=200, deadline=None)
def test_each_entry_set_once_finds_the_first_tuple_in_product_order(case):
    """A test that reads only a tuple's entry set first holds, in product
    order by length, at an ascending tuple of distinct entries; the search
    over each entry set once reaches that tuple first."""
    pool, shortest, longest, holds = case
    tried = list(_candidate_tuples(pool, shortest, longest))
    assert all(list(t) == sorted(set(t)) for t in tried)
    assert len({frozenset(t) for t in tried}) == len(tried)
    every = (t for n in range(shortest, longest + 1) for t in product(pool, repeat=n))
    first = next((t for t in every if holds(frozenset(t))), None)
    assert next((t for t in tried if holds(frozenset(t))), None) == first


def test_tuple_searches_count_candidates_as_they_run(monkeypatch):
    """Three pairs, each swapped on its own: Aut is (Z2)^3, of order 8, not
    above P(6, 2) = 30, so the generator search skips no length, and the
    first generator over the empty base, (a0, a1, a2), is candidate
    6 + 15 + 6 = 27.  Seven unrelated points: a set of k points has an
    orbit of P(7, k) tuples, below |S7| = 5040 for k < 6, so the search
    starts at length 6 and its first set (p0, ..., p5) generates; the first
    splitting witness is (p0,), candidate 2."""
    import galbench.galois as galois
    M = load_structure("structure Pairs3 {\n  universe = { a0, b0, a1, b1, a2, b2 }\n"
                       "  rel P0/1 = { (a0), (b0) }\n  rel P1/1 = { (a1), (b1) }\n}\n")
    everything = frozenset(M.universe)
    first = tuple(map(M.resolve, ("a0", "a1", "a2")))
    assert find_generator(M, frozenset(), everything, max_len=3) == first
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 27)
    assert find_generator(M, frozenset(), everything, max_len=3) == first
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 26)
    with pytest.raises(CapError, match="passed 26 candidates at length 3"):
        find_generator(M, frozenset(), everything, max_len=3)

    M = load_structure("structure P7 { universe = { p0, p1, p2, p3, p4, p5, p6 } }")
    everything = frozenset(M.universe)
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 1)
    assert find_generator(M, frozenset(), everything, max_len=7) == (0, 1, 2, 3, 4, 5)
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 0)
    assert find_generator(M, frozenset(), everything, max_len=5) is None
    with pytest.raises(CapError, match="passed 0 candidates at length 6"):
        find_generator(M, frozenset(), everything, max_len=7)
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 2)
    assert is_splitting_extension(M, frozenset(), everything, max_len=100) == (True, (0,))
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 1)
    with pytest.raises(CapError, match="passed 1 candidates at length 1"):
        is_splitting_extension(M, frozenset(), everything, max_len=100)


def test_normal_extension_examples(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    assert is_normal_extension(ex_rs, frozenset(), C) is True
    assert is_normal_extension(ex_rs, frozenset(), ids(ex_rs, "a", "b")) is False
    assert is_normal_extension(ex_rs, frozenset(), acl(ex_rs, frozenset())) is True


def test_splitting_extension_examples(ex_rs, gf16):
    C = ids(ex_rs, "a", "b", "c", "d")
    assert is_splitting_extension(ex_rs, frozenset(), C) == (True, (0,))
    ok, witness = is_splitting_extension(gf16, ids(gf16, *GF2_16), frozenset(range(16)))
    assert ok and witness == (gf16.resolve("w"),)
    assert is_splitting_extension(ex_rs, frozenset(), ids(ex_rs, "a", "b")) == (False, None)


def test_splitting_trivial_when_contained(ex_rs):
    A = ids(ex_rs, "a", "b", "c", "d")
    assert is_splitting_extension(ex_rs, A, A) == (True, ())


# -- Fix in both directions ---------------------------------------------------------------


def test_fix_of_trivial_subgroup_is_everything(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    assert fix_of_subgroup(ex_rs, C, close_group([], degree=4)) == C


def test_fix_of_full_klein_group_is_empty(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    G = relative_restriction(ex_rs, C, frozenset())
    assert fix_of_subgroup(ex_rs, C, G) == frozenset()


def test_fix_of_squaring_subgroup_is_subfield(gf16):
    C = frozenset(range(16))
    G = relative_restriction(gf16, C, ids(gf16, *GF2_16))
    frob = frobenius_perm(gf16)
    frob2 = close_group([frob * frob], degree=16)
    assert fix_of_subgroup(gf16, C, frob2) == ids(gf16, *GF4_16)


def test_fix_of_set_examples(gf16):
    C = frozenset(range(16))
    A = ids(gf16, *GF2_16)
    full = fix_of_set(gf16, C, A, A)
    assert full.order == 4
    assert fix_of_set(gf16, C, A, C).order == 1
    half = fix_of_set(gf16, C, A, ids(gf16, *GF4_16))
    assert half.order == 2
    frob = frobenius_perm(gf16)
    assert half.contains(frob * frob)


def test_fix_nesting_validation(gf16):
    C = frozenset(range(16))
    with pytest.raises(StructureError):
        fix_of_set(gf16, C, ids(gf16, "w"), ids(gf16, "0"))


# Each entry point with one bad member `x` in one of its sets, and the label
# that set's error names; the other sets are valid.  TWOTRI has six elements.
ALL6 = frozenset(range(6))
BAD_SET_CALLS = {
    "dcl": (lambda M, x: dcl(M, {0, x}), "parameter set"),
    "automorphism_group_fixing": (lambda M, x: automorphism_group_fixing(M, [x]),
                                  "parameter set"),
    "relative_aut-base": (lambda M, x: relative_restriction(M, ALL6, {x}), "base set"),
    "relative_aut-top": (lambda M, x: relative_restriction(M, ALL6 | {x}, ()), "top set"),
    "fix_of_set-base": (lambda M, x: fix_of_set(M, ALL6, {x}, ALL6), "base set"),
    "fix_of_set-middle": (lambda M, x: fix_of_set(M, ALL6, (), {0, x}), "middle set"),
    "fix_of_set-top": (lambda M, x: fix_of_set(M, ALL6 | {x}, (), ()), "top set"),
    "orbit_over": (lambda M, x: orbit_over(M, (0,), {x}), "parameter set"),
    "find_generator-base": (lambda M, x: find_generator(M, {x}, ALL6), "base set"),
    "find_generator-extension": (lambda M, x: find_generator(M, (), {0, x}),
                                 "extension set"),
}


def fill_caches(M):
    """Valid calls to every entry point above, which fill M's group caches."""
    bases = [frozenset(), frozenset({0}), frozenset({0, 3}), ALL6]
    for A in bases:
        dcl(M, A)
        automorphism_group_fixing(M, A)
        orbit_over(M, (0,), A)
        find_generator(M, A, ALL6)
        relative_restriction(M, ALL6, A)
        fix_of_set(M, ALL6, A, ALL6)
    assert all(A in M._caches["aut"] and (ALL6, A) in M._caches["restriction"]
               for A in bases)


@pytest.mark.parametrize("bad", [6, -1, "a", 2.5], ids=["size", "negative", "str", "float"])
@pytest.mark.parametrize("name", sorted(BAD_SET_CALLS))
def test_bad_set_members_are_refused_on_a_cold_and_a_warm_cache(name, bad):
    call, label = BAD_SET_CALLS[name]
    M = load_structure(TWO_TRIANGLES)
    assert M.size == 6
    for warm in (False, True):
        if warm:
            fill_caches(M)
        with pytest.raises(StructureError) as err:
            call(M, bad)
        assert str(err.value) == f"{label} contains invalid element {bad!r}"


# -- codes ---------------------------------------------------------------------------------


def test_find_code_pair_has_none(ex_rs):
    F = [(ex_rs.resolve("a"),), (ex_rs.resolve("b"),)]
    assert find_code(ex_rs, F, max_len=3) is None


def test_find_code_rigid_structure_codes_by_empty_tuple(rigid3):
    for size in (1, 2, 3):
        for combo in combinations(range(3), size):
            assert find_code(rigid3, [(e,) for e in combo]) == ()


def test_find_code_gf4_conjugate_pair(gf4):
    F = [(gf4.resolve("w"),), (gf4.resolve("w2"),)]
    assert find_code(gf4, F) == ()


def test_find_code_output_verified_against_all_automorphisms(corpus_structure):
    M = corpus_structure
    rng = random.Random(47)
    elems = automorphism_group(M).elements()
    for _ in range(10):
        F = {(rng.randrange(M.size),) for _ in range(rng.randint(1, 2))}
        code = find_code(M, F)
        if code is None:
            continue
        for g in elems:
            fixes_code = all(g(e) == e for e in code)
            fixes_set = {g.apply_tuple(t) for t in F} == F
            assert fixes_code == fixes_set


def test_codes_report_verdicts(ex_rs, rigid3, gf16):
    bad = codes_finite_sets(ex_rs, max_set_size=2, max_len=3)
    assert bad.verdict is False
    assert ("a", "b") in bad.failures

    assert codes_finite_sets(rigid3, max_set_size=3, max_len=3).verdict is True
    assert codes_finite_sets(gf16, max_set_size=2, max_len=3).verdict is True


# -- multi-symmetric coefficient codes --------------------------------------------------------


def test_field_ops_recovered(gf4):
    ops = FieldOps.from_structure(gf4)
    assert ops.zero == gf4.resolve("0")
    assert ops.one == gf4.resolve("1")
    w, w2, one = gf4.resolve("w"), gf4.resolve("w2"), gf4.resolve("1")
    assert ops.mul[w][w] == w2
    assert ops.add[w][w2] == one


def test_field_ops_reject_non_field(ex_rs):
    with pytest.raises(FieldEncodingError):
        FieldOps.from_structure(ex_rs)


def test_msym_singleton_is_identity(gf4, gf16):
    for M in (gf4, gf16):
        for x in range(M.size):
            assert multisymmetric_code(M, [(x,)]) == (x,)


def test_msym_gf4_conjugate_pair(gf4):
    w, w2, one = gf4.resolve("w"), gf4.resolve("w2"), gf4.resolve("1")
    # w + w2 = 1 and w * w2 = 1 in this field
    assert multisymmetric_code(gf4, [(w,), (w2,)]) == (one, one)


def test_msym_pair_of_pairs_matches_coefficient_pattern(gf16):
    ops = FieldOps.from_structure(gf16)
    rng = random.Random(53)
    monos = multisymmetric_monomials(2, 2)
    # exponents over (T, U1, U2)
    assert monos == ((1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    for _ in range(10):
        x, y, u, v = (rng.randrange(16) for _ in range(4))
        if (x, y) == (u, v):
            continue
        code = multisymmetric_code(gf16, [(x, y), (u, v)])
        by_mono = dict(zip(monos, code))
        assert by_mono[(1, 1, 0)] == ops.add[x][u]
        assert by_mono[(0, 2, 0)] == ops.mul[x][u]
        assert by_mono[(1, 0, 1)] == ops.add[y][v]
        assert by_mono[(0, 0, 2)] == ops.mul[y][v]
        assert by_mono[(0, 1, 1)] == ops.add[ops.mul[x][v]][ops.mul[y][u]]


def test_msym_rejects_mixed_lengths(gf4):
    with pytest.raises(StructureError):
        multisymmetric_code(gf4, [(0,), (0, 1)])


# -- the correspondence -------------------------------------------------------------------


def test_duality_gf16(gf16):
    report = verify_galois_correspondence(gf16, ids(gf16, *GF2_16),
                                          frozenset(range(16)))
    assert report.verdict is True
    assert report.subgroup_count == 3
    assert report.intermediate_count == 3
    assert report.intermediates == (GF2_16, GF4_16, tuple(gf16.labels))
    assert report.coding_ok is True
    assert report.failures == ()


def test_duality_ex_rs_fails_exactly_as_expected(ex_rs):
    report = verify_galois_correspondence(ex_rs, frozenset(),
                                          ids(ex_rs, "a", "b", "c", "d"))
    assert report.verdict is False
    assert report.subgroup_count == 5
    assert report.intermediate_count == 2
    assert report.intermediates == ((), ("a", "b", "c", "d"))
    assert len(report.failures) == 3
    for failure in report.failures:
        assert failure.kind == "subgroup"
        assert failure.subject_order == 2
        assert failure.closure_order == 4
    assert report.coding_ok is False
    assert "{(a), (b)}" in report.coding_failures


def test_duality_trivial_when_base_equals_top(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    report = verify_galois_correspondence(ex_rs, C, C)
    assert report.verdict is True
    assert report.subgroup_count == report.intermediate_count == 1


def test_duality_rigid_and_cycle(rigid3, c5):
    for M, expected_subs in ((rigid3, 1), (c5, 2)):
        report = verify_galois_correspondence(M, frozenset(),
                                              frozenset(range(M.size)))
        assert report.verdict is True
        assert report.subgroup_count == expected_subs


def test_duality_rejects_non_normal_top(twotri):
    one_triangle = ids(twotri, "x0", "x1", "x2")
    assert dcl(twotri, one_triangle) == one_triangle
    assert is_normal_extension(twotri, frozenset(), one_triangle) is False
    with pytest.raises(HypothesisError):
        verify_galois_correspondence(twotri, frozenset(), one_triangle)


def test_duality_closes_inputs(rigid3):
    report = verify_galois_correspondence(rigid3, frozenset(), frozenset(range(3)))
    assert report.base == ("p", "q", "r")


def test_duality_and_tower_on_empty_sets(ex_rs):
    # dcl of the empty set is empty here, so these run on a zero-point action
    report = verify_galois_correspondence(ex_rs, frozenset(), frozenset())
    assert report.verdict is True
    assert report.subgroup_count == report.intermediate_count == 1
    tower = verify_tower(ex_rs, frozenset(), frozenset(), frozenset())
    assert tower.verdict is True
    assert tower.degrees["top_over_base"] == 1


# -- towers ---------------------------------------------------------------------------------


def test_tower_gf16(gf16):
    report = verify_tower(gf16, ids(gf16, *GF2_16), ids(gf16, *GF4_16),
                          frozenset(range(16)))
    assert report.degrees == {"mid_over_base": 2, "top_over_mid": 2, "top_over_base": 4}
    assert report.orders == {"mid_over_base": 2, "top_over_mid": 2, "top_over_base": 4}
    assert report.normality == {"mid_over_base": True, "top_over_base": True,
                                "top_over_mid": True, "subgroup": True}
    assert report.verdict is True
    assert all(c.status == "pass" for c in report.checks)


def test_tower_degenerate_ex_rs(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    report = verify_tower(ex_rs, frozenset(), dcl(ex_rs, ids(ex_rs, "a")), C)
    assert tuple(report.degrees.values()) == (4, 1, 4)
    assert report.verdict is True


def test_tower_all_equal(ex_rs):
    A = ids(ex_rs, "a", "b", "c", "d")
    report = verify_tower(ex_rs, A, A, A)
    assert tuple(report.degrees.values()) == (1, 1, 1)
    assert tuple(report.orders.values()) == (1, 1, 1)
    assert report.verdict is True


def test_tower_with_non_normal_mid(twotri):
    mid = ids(twotri, "x0", "x1", "x2")
    top = frozenset(range(6))
    report = verify_tower(twotri, frozenset(), mid, top)
    assert report.normality["mid_over_base"] is False
    assert report.normality["subgroup"] is False
    assert tuple(report.degrees.values()) == (6, 3, 18)
    # the middle group order counts partial elementary self-maps: the three
    # rotations keep the triangle inside itself, the swaps do not
    assert report.orders["mid_over_base"] == 3
    assert report.verdict is True  # the biconditionals themselves hold


def test_tower_requires_nesting(ex_rs):
    with pytest.raises(StructureError):
        verify_tower(ex_rs, ids(ex_rs, "a"), frozenset(), frozenset(range(6)))


def test_extension_aut_order_non_invariant_counts_partial_maps(ex_rs):
    # B = {a, b} is not invariant; its self-maps fixing nothing are id and the
    # swap a<->b (each extends to a global automorphism), so the order is 2
    B = ids(ex_rs, "a", "b")
    assert extension_aut_order(ex_rs, B, frozenset()) == 2


def test_partial_map_count_matches_restriction_when_invariant(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    assert extension_aut_order(ex_rs, C, frozenset()) == \
        relative_restriction(ex_rs, C, frozenset()).order == 4


@pytest.mark.parametrize("make", [
    codes_finite_sets,
    lambda M: run_law_suite(M, trials=2),
    lambda M: verify_tower(M, frozenset(), dcl(M, {0}), frozenset(range(M.size))),
], ids=["CodesReport", "SuiteReport", "TowerReport"])
def test_report_json_is_its_fields_plus_verdict(make, ex_rs):
    report = make(ex_rs)
    assert list(report.to_json_dict()) == [f.name for f in fields(report)] + ["verdict"]
