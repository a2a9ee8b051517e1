"""The group core's fast paths against the slow paths they replaced."""

import random

import pytest

from galbench.aut import automorphism_group_fixing, relative_aut, relative_restriction
from galbench.errors import GroupError, NotInvariantError
from galbench.perm import (Perm, all_subgroups, close_group, orbit,
                           restrict_to_invariant_set, stabilizer_pointwise)

from oracles import cyclic_join_subgroups, two_close_stabilizer


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
