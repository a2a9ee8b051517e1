"""Randomized verification suite: checks the closure, orbit, degree, and
duality laws on randomly drawn parameter sets, tuples, and towers over a
structure, plus the deterministic duality check where its hypotheses hold.

Instances are drawn from a seeded generator, so a (structure, seed, trials)
triple always reproduces the same run.  More than `SUITE_TRIALS_CAP` trials
are refused with `CapError` before any work is done.  The laws are theorems,
so a library error (a search that ends without an answer, a cap, a failed
internal check) is not a violation: it leaves the suite unchanged.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from .aut import automorphism_group_fixing, relative_restriction
from .errors import CapError
from .galois import (DEFAULT_MAX_LEN, _fixes, acl, codes_finite_sets,
                     dcl, degree_of_extension, extension_aut_order, find_generator,
                     fix_of_set, fix_of_subgroup, is_normal_extension, orbit_over,
                     verify_galois_correspondence, verify_tower)
from .perm import PermGroup, is_normal_subgroup, orbit, stabilizer_pointwise
from .structure import Structure

#: Most randomized trials one suite run makes.  A trial takes up to about
#: 0.3 ms on the corpus structures, so the cap bounds a run at seconds; the
#: benchmark asks for at most 20.
SUITE_TRIALS_CAP = 10_000


#: Largest Aut(C/A) whose whole subgroup lattice the antitone law reads;
#: past it the law checks Aut(C/A) alone.  Not a cap, since nothing is
#: refused: the lattice of S6 (order 720) needs tens of millions of lookups.
ANTITONE_LATTICE_MAX_ORDER = 512


def _check_trials(trials: int) -> None:
    if trials > SUITE_TRIALS_CAP:
        raise CapError(f"{trials} trials exceed the suite's cap of {SUITE_TRIALS_CAP}")


@dataclass
class LawResult:
    name: str
    trials: int
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class SuiteReport:
    structure: str
    seed: int
    trials: int
    laws: list[LawResult]

    @property
    def verdict(self) -> bool:
        return all(law.passed for law in self.laws)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": "pass" if self.verdict else "fail"}


def _random_subset(rng: random.Random, n: int, most: int) -> frozenset[int]:
    size = rng.randint(0, min(most, n))
    return frozenset(rng.sample(range(n), size))


def _antitone_law(M: Structure, C: frozenset[int], A: frozenset[int],
                  G_rel: PermGroup, B1: frozenset[int], B2: frozenset[int]) -> list[str]:
    """The antitone Fix/Fix connection on a normal tower A <= C with
    A <= B1 <= B2 <= C: each violation found, in order.

    The subgroups of G_rel = Aut(C/A) are its element table's lattice masks
    (G_rel alone past `ANTITONE_LATTICE_MAX_ORDER`), so subgroup
    containment is mask containment and no group is closed per subgroup.
    Fix(H) and Fix(Fix(H)) come from `_fixes`, the duality check's route,
    and H <= Fix(Fix(H)) is tested on H's generators.
    """
    if G_rel.order <= ANTITONE_LATTICE_MAX_ORDER:
        table = G_rel.element_table()
        subs = [(mask, table.perms(gens)) for mask, gens in table.subgroups()]
    else:
        subs = [(0, list(G_rel.generators))]
    fixes, closures = _fixes(M, C, A, [gens for _, gens in subs])

    out = []
    for (m1, _), f1 in zip(subs, fixes):
        for (m2, _), f2 in zip(subs, fixes):
            if m1 & ~m2 == 0 and not f2 <= f1:
                out.append("Fix not antitone on subgroups")
    g1 = fix_of_set(M, C, A, B1)
    g2 = fix_of_set(M, C, A, B2)
    if not g2.is_subgroup_of(g1):
        out.append("Fix not antitone on sets")
    if not B1 <= fix_of_subgroup(M, C, g1):
        out.append("set not inside its double Fix")
    for (_, gens), f1 in zip(subs, fixes):
        if not all(map(closures[f1].contains, gens)):
            out.append("subgroup not inside its double Fix")
    return out


def run_law_suite(M: Structure, trials: int = 200, seed: int = 0,
                  max_len: int = DEFAULT_MAX_LEN) -> SuiteReport:
    """Run every randomized law `trials` times over structure M."""
    _check_trials(trials)
    rng = random.Random(seed)
    n = M.size

    closure_laws = LawResult("closure_operators", trials)
    orbit_law = LawResult("orbit_stabilizer_divisibility", trials)
    orbit_closure = LawResult("orbit_generated_extension_is_normal", trials)
    degree_tower = LawResult("degree_product_in_towers", trials)
    count_law = LawResult("aut_order_counts_orbit_points_inside", trials)
    normal_degree = LawResult("degree_is_aut_order_iff_normal", trials)
    subgroup_law = LawResult("subgroup_normal_iff_mid_normal", trials)
    antitone = LawResult("antitone_galois_connection", trials)

    def note(law: LawResult, message: str):
        law.violations.append(message)

    for trial in range(trials):
        A = _random_subset(rng, n, 3)
        A2 = A | _random_subset(rng, n, 2)
        x = rng.randrange(n)
        y = rng.randrange(n)
        blen = rng.randint(1, 2)
        b = tuple(rng.randrange(n) for _ in range(blen))
        tag = f"trial {trial}: A={sorted(A)}"

        # closure operators: extensive, monotone, idempotent; dcl inside acl
        dA, dA2, aA = dcl(M, A), dcl(M, A2), acl(M, A)
        if not A <= dA:
            note(closure_laws, f"{tag}: dcl not extensive")
        if not dA <= dA2:
            note(closure_laws, f"{tag}: dcl not monotone")
        if dcl(M, dA) != dA:
            note(closure_laws, f"{tag}: dcl not idempotent")
        if not dA <= aA:
            note(closure_laws, f"{tag}: dcl escapes acl")
        if not (A <= aA and aA <= acl(M, A2) and acl(M, aA) == aA):
            note(closure_laws, f"{tag}: acl law fails")

        # orbit-stabilizer: |orbit| * |stabilizer| = |group|
        G = automorphism_group_fixing(M, A)
        orb = orbit(G, b)
        stab = stabilizer_pointwise(G, b)
        if len(orb) * stab.order != G.order or G.order % len(orb) != 0:
            note(orbit_law, f"{tag}: b={b}: {len(orb)} * {stab.order} != {G.order}")

        # the closure of one full orbit is a normal extension
        orb_entries = G.point_orbits()[x]
        B_norm = dcl(M, A | orb_entries)
        if not is_normal_extension(M, A, B_norm):
            note(orbit_closure, f"{tag}: x={x}: orbit closure not normal")

        # random tower: degrees multiply, orders count orbit points,
        # degree = |Aut| exactly for normal extensions
        A_cl = dA
        B = dcl(M, A_cl | {x})
        C = dcl(M, B | {y})
        d_ba = degree_of_extension(M, A_cl, B, max_len)
        d_cb = degree_of_extension(M, B, C, max_len)
        d_ca = degree_of_extension(M, A_cl, C, max_len)
        if d_ca != d_cb * d_ba:
            note(degree_tower, f"{tag}: x={x} y={y}: {d_ca} != {d_cb}*{d_ba}")

        gen = find_generator(M, A_cl, B, max_len)
        inside = sum(1 for t in orbit_over(M, gen, A_cl) if all(e in B for e in t))
        o_ba = extension_aut_order(M, B, A_cl, max_len)
        if o_ba != inside:
            note(count_law, f"{tag}: |Aut| {o_ba} != orbit points inside {inside}")

        normal = is_normal_extension(M, A_cl, B)
        if (d_ba == o_ba) != normal:
            note(normal_degree, f"{tag}: deg {d_ba}, order {o_ba}, normal {normal}")

        # normal tower: fixing subgroup normal iff the middle set is normal
        C_n = dcl(M, A_cl | orb_entries | G.point_orbits()[y])
        z = rng.choice(sorted(C_n))
        B_mid = dcl(M, A_cl | {z})
        G_rel = relative_restriction(M, C_n, A_cl)
        H = fix_of_set(M, C_n, A_cl, B_mid)
        if is_normal_subgroup(H, G_rel) != is_normal_extension(M, A_cl, B_mid):
            note(subgroup_law, f"{tag}: z={z}: biconditional fails")

        # antitone connection on the same normal tower
        B1 = dcl(M, A_cl | _random_subset(rng, n, 2).intersection(C_n))
        B2 = dcl(M, B1 | {z})
        for message in _antitone_law(M, C_n, A_cl, G_rel, B1, B2):
            note(antitone, f"{tag}: {message}")

    return SuiteReport(structure=M.name, seed=seed, trials=trials,
                       laws=[closure_laws, orbit_law, orbit_closure, degree_tower,
                             count_law, normal_degree, subgroup_law, antitone])


def run_duality_check(M: Structure, max_len: int = DEFAULT_MAX_LEN) -> LawResult:
    """Deterministic check: where coding holds, the duality must pass; where
    coding fails, the duality report must fail and say so.

    The paper's hypothesis is that the finite sets the duality consumes have
    codes: the subgroup orbits of a generator, which are sets of tuples.
    That is the report's own `coding_ok`; codes for sets of single elements
    (`codes_finite_sets`) do not give codes for sets of tuples when the
    structure has no pairing function.
    """
    law = LawResult("duality_iff_coding", 1)
    base = dcl(M, frozenset())
    top = frozenset(range(M.size))
    report = verify_galois_correspondence(M, base, top, max_len=max_len)
    if report.coding_ok and not report.verdict:
        law.violations.append(
            f"codes finite sets but the correspondence fails: "
            f"{len(report.failures)} failures")
    if (report.verdict and report.coding_ok
            and not codes_finite_sets(M, max_set_size=2, max_len=max_len).verdict):
        law.violations.append(
            "coding fails on small sets but the correspondence reports a clean pass")
    return law


def run_full_verification(M: Structure, trials: int = 200, seed: int = 0,
                          max_len: int = DEFAULT_MAX_LEN) -> SuiteReport:
    """Everything: the randomized law suite plus the deterministic duality check
    and a canonical tower verification over the full universe.

    The duality check runs first, so a structure past its caps is rejected
    before the randomized suite does any work; its law is still listed after
    the suite's.  A trial count past the cap is refused before either runs.
    """
    _check_trials(trials)
    duality = run_duality_check(M, max_len=max_len)
    report = run_law_suite(M, trials=trials, seed=seed, max_len=max_len)
    report.laws.append(duality)

    tower_law = LawResult("tower_report_on_universe", 1)
    base = dcl(M, frozenset())
    top = frozenset(range(M.size))
    rest = top - base
    mid = dcl(M, base | {min(rest)}) if rest else base
    tr = verify_tower(M, base, mid, top, max_len=max_len)
    if not tr.verdict:
        tower_law.violations.extend(
            f"{c.name}: {c.detail}" for c in tr.checks if c.status == "fail")
    report.laws.append(tower_law)
    return report
