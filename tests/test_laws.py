"""Law-level property tests: closure operators, orbit counting, degree laws,
and the antitone connection, driven by hypothesis on the smaller corpus
structures, plus seeded smoke runs of the full randomized suite.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from galbench.aut import automorphism_group_fixing, relative_aut
from galbench.corpus import corpus_names, load_corpus
from galbench.errors import InconclusiveError
from galbench.galois import (acl, codes_finite_sets, dcl, degree_of_extension,
                             extension_aut_order, find_generator, fix_of_set,
                             fix_of_subgroup, is_normal_extension, orbit_over,
                             verify_galois_correspondence)
from galbench.perm import all_subgroups, is_normal_subgroup, orbit
from galbench.structure import load_structure
from galbench.suite import run_duality_check, run_full_verification, run_law_suite

SMALL = ("EX_RS", "RIGID3", "C5", "GF4")


def _subsets(n):
    return st.frozensets(st.integers(0, n - 1), max_size=3)


@st.composite
def _structure_and_sets(draw):
    M = load_corpus(draw(st.sampled_from(SMALL)))
    A = draw(_subsets(M.size))
    B = A | draw(_subsets(M.size))
    x = draw(st.integers(0, M.size - 1))
    return M, A, B, x


@given(_structure_and_sets())
@settings(max_examples=120, deadline=None)
def test_dcl_is_a_closure_operator(data):
    M, A, B, _ = data
    dA, dB = dcl(M, A), dcl(M, B)
    assert A <= dA
    assert dA <= dB
    assert dcl(M, dA) == dA
    assert dA <= acl(M, A)


@given(_structure_and_sets())
@settings(max_examples=120, deadline=None)
def test_acl_is_a_closure_operator(data):
    M, A, B, _ = data
    aA, aB = acl(M, A), acl(M, B)
    assert A <= aA
    assert aA <= aB
    assert acl(M, aA) == aA


@given(_structure_and_sets(), st.integers(1, 2))
@settings(max_examples=120, deadline=None)
def test_orbit_size_divides_group_order(data, blen):
    M, A, _, x = data
    b = tuple((x + k) % M.size for k in range(blen))
    G = automorphism_group_fixing(M, A)
    assert G.order % orbit_over(M, b, A).degree == 0


@given(_structure_and_sets())
@settings(max_examples=100, deadline=None)
def test_one_orbit_closure_is_normal_and_splitting(data):
    M, A, _, x = data
    G = automorphism_group_fixing(M, A)
    entries = frozenset(t[0] for t in orbit(G, (x,)))
    B = dcl(M, A | entries)
    assert is_normal_extension(M, A, B)


@given(_structure_and_sets(), st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_degrees_multiply_in_towers(data, yraw):
    M, A, _, x = data
    A = dcl(M, A)
    y = yraw % M.size
    B = dcl(M, A | {x})
    C = dcl(M, B | {y})
    assert degree_of_extension(M, A, C) == \
        degree_of_extension(M, B, C) * degree_of_extension(M, A, B)


@given(_structure_and_sets())
@settings(max_examples=100, deadline=None)
def test_aut_order_counts_orbit_points_inside(data):
    M, A, _, x = data
    A = dcl(M, A)
    B = dcl(M, A | {x})
    gen = find_generator(M, A, B)
    inside = sum(1 for t in orbit_over(M, gen, A).orbit if all(e in B for e in t))
    assert extension_aut_order(M, B, A) == inside


@given(_structure_and_sets())
@settings(max_examples=100, deadline=None)
def test_degree_equals_aut_order_iff_normal(data):
    M, A, _, x = data
    A = dcl(M, A)
    B = dcl(M, A | {x})
    equal = degree_of_extension(M, A, B) == extension_aut_order(M, B, A)
    assert equal == is_normal_extension(M, A, B)


@given(_structure_and_sets(), st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_fixing_subgroup_normal_iff_set_normal(data, zraw):
    M, A, _, x = data
    A = dcl(M, A)
    G = automorphism_group_fixing(M, A)
    entries = frozenset(t[0] for t in orbit(G, (x,)))
    C = dcl(M, A | entries)
    z = sorted(C)[zraw % len(C)]
    B = dcl(M, A | {z})
    H = fix_of_set(M, C, A, B)
    assert is_normal_subgroup(H, relative_aut(M, C, A)) == \
        is_normal_extension(M, A, B)


@given(_structure_and_sets())
@settings(max_examples=60, deadline=None)
def test_antitone_connection(data):
    M, A, _, x = data
    A = dcl(M, A)
    G = automorphism_group_fixing(M, A)
    entries = frozenset(t[0] for t in orbit(G, (x,)))
    C = dcl(M, A | entries)
    G_rel = relative_aut(M, C, A)
    subs = all_subgroups(G_rel)
    fixes = {i: fix_of_subgroup(M, C, H) for i, H in enumerate(subs)}
    for i, H1 in enumerate(subs):
        for j, H2 in enumerate(subs):
            if H1.is_subgroup_of(H2):
                assert fixes[j] <= fixes[i]
    for i, H in enumerate(subs):
        assert H.is_subgroup_of(fix_of_set(M, C, A, fixes[i]))
    for B in (A, C):
        assert B <= fix_of_subgroup(M, C, fix_of_set(M, C, A, B))


@pytest.mark.parametrize("name", corpus_names())
def test_randomized_suite_smoke(name):
    report = run_law_suite(load_corpus(name), trials=40, seed=7)
    for law in report.laws:
        assert law.passed, (law.name, law.violations[:3])


@pytest.mark.parametrize("name", corpus_names())
def test_full_verification_smoke(name):
    report = run_full_verification(load_corpus(name), trials=15, seed=11)
    assert report.verdict, [
        (law.name, law.violations[:3]) for law in report.laws if not law.passed]


def test_duality_law_reads_the_hypothesis_on_sets_of_tuples():
    """EX_RS with one code element per 2-subset of {a,b,c,d} and a membership
    relation: every set of at most two elements has a code, but sets of pairs
    such as {(a,e),(b,f)} do not, and the duality fails over the whole
    universe.  The law's hypothesis is coding of the sets the duality
    consumes, so it reports no violation."""
    pairs = [x + y for x, y in combinations("abcd", 2)]
    members = ", ".join(f"({p[0]},{p}), ({p[1]},{p})" for p in pairs)
    M = load_structure(
        "structure EX_RS_CODES {\n"
        f"  universe = {{ a, b, c, d, e, f, {', '.join(pairs)} }}\n"
        "  rel R/2 = { (a,b), (b,a), (c,d), (d,c) }\n"
        "  rel S/2 = { (a,c), (c,a), (b,d), (d,b) }\n"
        f"  rel In/2 = {{ {members} }}\n"
        "}\n")
    assert M.size == 12
    assert codes_finite_sets(M, max_set_size=2).verdict
    report = verify_galois_correspondence(M, frozenset(), frozenset(range(M.size)))
    assert not report.verdict and report.coding_ok is False
    law = run_duality_check(M)
    assert law.name == "duality_iff_coding" and law.trials == 1
    assert law.violations == []


def test_law_suite_computes_each_degree_and_order_once_per_trial(monkeypatch):
    import galbench.suite as suite

    calls = {"degree": 0, "order": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(suite, "degree_of_extension", counted("degree", degree_of_extension))
    monkeypatch.setattr(suite, "extension_aut_order", counted("order", extension_aut_order))
    report = run_law_suite(load_corpus("EX_RS"), trials=12, seed=5)
    assert all(law.passed for law in report.laws)
    assert calls == {"degree": 3 * 12, "order": 12}


def test_law_suite_raises_a_failed_search_again_where_it_used_to():
    # With max_len 0 no generator is found for a proper extension: the tower
    # law records the error, and the normal-degree law raises it, as the
    # repeated computation did.
    with pytest.raises(InconclusiveError, match="degree undetermined"):
        run_law_suite(load_corpus("EX_RS"), trials=5, seed=1, max_len=0)


def test_duality_check_codes_small_sets_only_on_a_clean_pass(monkeypatch):
    """`codes_finite_sets` is read only when the correspondence passes with
    its own coding hypothesis: EX_RS fails the correspondence, so its verify
    output stands without the search; GF4 passes, so it runs once."""
    import io
    from pathlib import Path

    import galbench.suite as suite
    from galbench.cli import run_command

    golden = Path(__file__).parent / "golden"

    def refuse(*args, **kwargs):
        raise AssertionError("codes_finite_sets called")

    monkeypatch.setattr(suite, "codes_finite_sets", refuse)
    out = io.StringIO()
    assert run_command(["verify", "corpus:EX_RS", "--trials", "10"], out=out) == 0
    assert out.getvalue() == (golden / "verify-EX_RS.out").read_text(encoding="utf-8")

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return codes_finite_sets(*args, **kwargs)

    monkeypatch.setattr(suite, "codes_finite_sets", counted)
    out = io.StringIO()
    assert run_command(["verify", "corpus:GF4", "--trials", "20", "--seed", "3",
                        "--format", "json"], out=out) == 0
    assert out.getvalue() == (golden / "verify-GF4-json.out").read_text(encoding="utf-8")
    assert calls == ["GF4"]
