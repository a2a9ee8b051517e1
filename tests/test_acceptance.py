"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them)
and enforces its stated wall-clock budget alongside the exact expected values.
"""

import random
import time
from itertools import combinations

from galbench.aut import automorphism_group, relative_restriction
from galbench.corpus import corpus_names, load_corpus
from galbench.formula import evaluate, format_formula
from galbench.galois import (FieldOps, find_code, multisymmetric_code,
                             multisymmetric_monomials, verify_galois_correspondence,
                             verify_tower)
from galbench.suite import run_law_suite

from oracles import brute_automorphisms, naive_closure, naive_eval, random_formula


def _criterion(name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def test_ex_rs_relative_group_has_four_elements():
    def check():
        M = load_corpus("EX_RS")
        G = relative_restriction(M, M.ids(["a", "b", "c", "d"]), frozenset())
        assert G.order == 4
        assert len(G.elements()) == 4
    _criterion("EX_RS reproduction: |Aut(C/empty)| = 4", 1.0, check)


def test_ex_rs_duality_failure_diagnostics():
    def check():
        M = load_corpus("EX_RS")
        report = verify_galois_correspondence(M, frozenset(),
                                              M.ids(["a", "b", "c", "d"]))
        assert report.verdict is False
        assert report.subgroup_count == 5
        assert report.intermediate_count == 2
        assert report.intermediates == ((), ("a", "b", "c", "d"))
        assert len(report.failures) == 3
        assert all(f.kind == "subgroup" and f.subject_order == 2
                   and f.closure_order == 4 for f in report.failures)
        failing = {f.subject for f in report.failures}
        assert failing == {"<(0 1)(2 3)>", "<(0 2)(1 3)>", "<(0 3)(1 2)>"}
    _criterion("EX_RS duality failure: 5 subgroups vs 2 sets, "
               "3 broken order-2 subgroups", 5.0, check)


def test_ex_rs_pair_has_no_code():
    def check():
        M = load_corpus("EX_RS")
        F = [(M.resolve("a"),), (M.resolve("b"),)]
        assert find_code(M, F, max_len=3) is None
    _criterion("EX_RS coding failure: {(a),(b)} has no code up to length 3",
               5.0, check)


def test_duality_positive_cases():
    def check():
        gf16 = load_corpus("GF16")
        report = verify_galois_correspondence(gf16, gf16.ids(["0", "1"]),
                                              frozenset(range(16)))
        assert report.verdict is True
        assert report.subgroup_count == report.intermediate_count == 3
        assert len(report.pairs) == 3
        for name in ("RIGID3", "C5"):
            M = load_corpus(name)
            rep = verify_galois_correspondence(M, frozenset(),
                                               frozenset(range(M.size)))
            assert rep.verdict is True
    _criterion("duality positive: GF16 (3 pairs), RIGID3, C5", 30.0, check)


def test_tower_law_gf16():
    def check():
        M = load_corpus("GF16")
        report = verify_tower(M, M.ids(["0", "1"]),
                              M.ids(["0", "1", "w5", "w10"]),
                              frozenset(range(16)))
        assert tuple(report.degrees.values()) == (2, 2, 4)
        assert report.degrees["top_over_base"] == \
            report.degrees["top_over_mid"] * report.degrees["mid_over_base"]
        assert tuple(report.orders.values()) == (2, 2, 4)
        assert report.orders["top_over_base"] == \
            report.orders["top_over_mid"] * report.orders["mid_over_base"]
        assert report.normality == {"mid_over_base": True, "top_over_base": True,
                                    "top_over_mid": True, "subgroup": True}
        exactness = {c.name: c.status for c in report.checks}
        assert exactness["restriction_onto_mid_group"] == "pass"
        assert exactness["restriction_kernel_is_top_over_mid"] == "pass"
        assert exactness["order_product"] == "pass"
        assert report.verdict is True
    _criterion("tower law: degrees 2,2,4 with exact sequence on the field tower",
               30.0, check)


def test_law_suite_two_hundred_instances_per_structure():
    def check():
        for name in corpus_names():
            report = run_law_suite(load_corpus(name), trials=200, seed=0)
            for law in report.laws:
                assert law.passed, (name, law.name, law.violations[:3])
    _criterion("law suite: 200 randomized instances per corpus structure, "
               "zero violations", 120.0, check)


def test_multisymmetric_codes():
    def check():
        rng = random.Random(2024)
        for name in ("GF4", "GF16"):
            M = load_corpus(name)
            elems = automorphism_group(M).elements()

            def stabilizers_match(code, F):
                for g in elems:
                    fixes_code = all(g(e) == e for e in code)
                    maps_set = {g.apply_tuple(t) for t in F} == set(F)
                    if fixes_code != maps_set:
                        return False
                return True

            for size in (1, 2):
                for combo in combinations(range(M.size), size):
                    F = [(e,) for e in combo]
                    code = multisymmetric_code(M, F)
                    assert stabilizers_match(code, F)

            ops = FieldOps.from_structure(M)
            monos = multisymmetric_monomials(2, 2)
            for _ in range(10):
                x, y, u, v = (rng.randrange(M.size) for _ in range(4))
                if (x, y) == (u, v):
                    continue
                F = [(x, y), (u, v)]
                code = multisymmetric_code(M, F)
                assert stabilizers_match(code, F)
                by_mono = dict(zip(monos, code))
                assert by_mono[(1, 1, 0)] == ops.add[x][u]
                assert by_mono[(0, 2, 0)] == ops.mul[x][u]
                assert by_mono[(1, 0, 1)] == ops.add[y][v]
                assert by_mono[(0, 0, 2)] == ops.mul[y][v]
                assert by_mono[(0, 1, 1)] == ops.add[ops.mul[x][v]][ops.mul[y][u]]
    _criterion("multi-symmetric codes: stabilizer equality and the pair "
               "coefficient pattern on GF4 and GF16", 60.0, check)


def test_engine_oracles():
    def check():
        # automorphism groups vs brute force on every small corpus structure
        for name in corpus_names():
            M = load_corpus(name)
            if M.size > 6:
                continue
            G = automorphism_group(M)
            brute = brute_automorphisms(M)
            assert G.order == len(brute)
            assert all(G.contains(p) for p in brute)

        # stabilizer-chain orders vs naive closure for every corpus group
        for name in corpus_names():
            G = automorphism_group(load_corpus(name))
            assert G.order == len(naive_closure(G.generators, G.degree))

        # evaluator vs the witness-enumerating oracle on 500 random formulas
        rng = random.Random(99)
        small = [load_corpus("RIGID3"), load_corpus("C5")]
        for i in range(500):
            M = small[i % len(small)]
            f = random_formula(rng, M, depth=rng.randint(1, 4), free_vars=("x",))
            env = {"x": rng.randrange(M.size)}
            assert evaluate(M, f, env) == naive_eval(M, f, env), format_formula(f)
    _criterion("engine oracles: brute-force automorphisms, naive closure "
               "orders, 500-formula evaluator agreement", 120.0, check)
