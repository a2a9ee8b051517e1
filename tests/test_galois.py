import random
from itertools import combinations

import pytest

from galbench.aut import automorphism_group, relative_aut
from galbench.errors import (CapError, EvalError, FieldEncodingError,
                             HypothesisError, InconclusiveError, StructureError)
from galbench.formula import parse_formula
from galbench.galois import (FieldOps, acl, codes_finite_sets, dcl,
                             degree_of_extension, extension_aut_order,
                             find_code, find_generator, fix_of_set,
                             fix_of_subgroup, is_irreducible_formula,
                             is_normal_extension, is_splitting_extension,
                             multisymmetric_code, multisymmetric_monomials,
                             orbit_over, verify_galois_correspondence,
                             verify_tower)
from galbench.perm import close_group, trivial_group
from galbench.structure import load_structure

from oracles import frobenius_perm


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
    desc = orbit_over(ex_rs, (ex_rs.resolve("a"),), frozenset())
    assert desc.degree == 4
    assert desc.orbit == tuple((i,) for i in range(4))

    w = gf16.resolve("w")
    desc16 = orbit_over(gf16, (w,), ids(gf16, *GF2_16))
    assert desc16.degree == 4

    fixed = orbit_over(ex_rs, (0,), ids(ex_rs, "a"))
    assert fixed.degree == 1


def test_orbit_degree_divides_group_order(corpus_structure):
    M = corpus_structure
    rng = random.Random(31)
    from galbench.aut import automorphism_group_fixing
    for _ in range(20):
        A = frozenset(rng.sample(range(M.size), rng.randint(0, 2)))
        b = tuple(rng.randrange(M.size) for _ in range(rng.randint(1, 2)))
        G = automorphism_group_fixing(M, A)
        assert G.order % orbit_over(M, b, A).degree == 0


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
        assert orbit_over(gf16, (x,), A).degree == 4


def test_degree_inconclusive_when_no_generator():
    # five fixed points, no relations: proper subsets over the empty base are
    # only definable from all their elements, so short tuples cannot generate
    M = load_structure("structure F { universe = { p0, p1, p2, p3, p4 } }")
    with pytest.raises(InconclusiveError):
        degree_of_extension(M, frozenset(), frozenset(range(5)), max_len=3)


# -- normal and splitting extensions ------------------------------------------------------


def test_tuple_searches_count_candidates_as_they_run(monkeypatch):
    """Seven unrelated points: the first generator over the empty base is
    (p0, ..., p5), candidate 7 + 7^2 + ... + 7^5 + 3268 = 22875 of the search;
    the first splitting witness is (p0,), candidate 2."""
    import galbench.galois as galois
    M = load_structure("structure P7 { universe = { p0, p1, p2, p3, p4, p5, p6 } }")
    everything = frozenset(M.universe)
    assert find_generator(M, frozenset(), everything, max_len=7) == (0, 1, 2, 3, 4, 5)
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 22875)
    assert find_generator(M, frozenset(), everything, max_len=7) == (0, 1, 2, 3, 4, 5)
    monkeypatch.setattr(galois, "TUPLE_SEARCH_CAP", 22874)
    with pytest.raises(CapError, match="passed 22874 candidates at length 6"):
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
    assert fix_of_subgroup(ex_rs, C, trivial_group(4)) == C


def test_fix_of_full_klein_group_is_empty(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    G = relative_aut(ex_rs, C, frozenset())
    assert fix_of_subgroup(ex_rs, C, G) == frozenset()


def test_fix_of_squaring_subgroup_is_subfield(gf16):
    C = frozenset(range(16))
    G = relative_aut(gf16, C, ids(gf16, *GF2_16))
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
    assert report.normalized_inputs is True
    assert report.base == ("p", "q", "r")


def test_duality_and_tower_on_empty_sets(ex_rs):
    # dcl of the empty set is empty here, so these run on a zero-point action
    report = verify_galois_correspondence(ex_rs, frozenset(), frozenset())
    assert report.verdict is True
    assert report.subgroup_count == report.intermediate_count == 1
    tower = verify_tower(ex_rs, frozenset(), frozenset(), frozenset())
    assert tower.verdict is True
    assert tower.degree_top_base == 1


# -- towers ---------------------------------------------------------------------------------


def test_tower_gf16(gf16):
    report = verify_tower(gf16, ids(gf16, *GF2_16), ids(gf16, *GF4_16),
                          frozenset(range(16)))
    assert (report.degree_mid_base, report.degree_top_mid,
            report.degree_top_base) == (2, 2, 4)
    assert (report.order_mid_base, report.order_top_mid,
            report.order_top_base) == (2, 2, 4)
    assert report.normal_mid_base and report.normal_top_base and report.normal_top_mid
    assert report.subgroup_normal is True
    assert report.verdict is True
    assert all(c.passed for c in report.checks)


def test_tower_degenerate_ex_rs(ex_rs):
    C = ids(ex_rs, "a", "b", "c", "d")
    report = verify_tower(ex_rs, frozenset(), dcl(ex_rs, ids(ex_rs, "a")), C)
    assert (report.degree_mid_base, report.degree_top_mid,
            report.degree_top_base) == (4, 1, 4)
    assert report.verdict is True


def test_tower_all_equal(ex_rs):
    A = ids(ex_rs, "a", "b", "c", "d")
    report = verify_tower(ex_rs, A, A, A)
    assert (report.degree_mid_base, report.degree_top_mid,
            report.degree_top_base) == (1, 1, 1)
    assert (report.order_mid_base, report.order_top_mid,
            report.order_top_base) == (1, 1, 1)
    assert report.verdict is True


def test_tower_with_non_normal_mid(twotri):
    mid = ids(twotri, "x0", "x1", "x2")
    top = frozenset(range(6))
    report = verify_tower(twotri, frozenset(), mid, top)
    assert report.normal_mid_base is False
    assert report.subgroup_normal is False
    assert (report.degree_mid_base, report.degree_top_mid,
            report.degree_top_base) == (6, 3, 18)
    # the middle group order counts partial elementary self-maps: the three
    # rotations keep the triangle inside itself, the swaps do not
    assert report.order_mid_base == 3
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
        relative_aut(ex_rs, C, frozenset()).order == 4
