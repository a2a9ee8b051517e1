"""Seeded request mixes for the three benchmark workloads.

A plan turns (workload, seed) into structure files and rounds of requests.
A round is a fixed, stratified list: every round of a workload has the same
composition of request types and structure families, so runs that complete
different numbers of rounds still measure the same mix.  Everything is drawn
from `random.Random` seeded with a string, so one seed always gives
byte-identical files and argument vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import families as fam

VARS = ("x1", "x2", "x3")
FREE = "y1"


@dataclass(frozen=True)
class Request:
    """One command line plus what the checker needs to know about it.

    `spec` holds the request's inputs as element indices of `struct`; the
    argument vector is rendered from it."""

    kind: str
    argv: tuple[str, ...]
    struct: str
    spec: tuple = ()


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def fmt_set(b: fam.Built, S) -> str:
    return ",".join(b.labels[i] for i in sorted(S))


def fmt_tuple(b: fam.Built, t) -> str:
    return ",".join(b.labels[i] for i in t)


def fmt_tuples(b: fam.Built, F) -> str:
    return ";".join(fmt_tuple(b, t) for t in sorted(F))


# -- formulas ---------------------------------------------------------------------
#
# Formulas are nested tuples: ("atom", rel, terms), ("eq", s, t), ("not", f),
# (op, f, g) for op in and/or/imp/iff, ("A"|"E", var, f) and ("E!", n, var, f).

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f"{f[1]}({','.join(f[2])})"
    if tag == "eq":
        return f"{f[1]} = {f[2]}"
    if tag == "not":
        return f"~({render(f[1])})"
    if tag in _BINARY:
        return f"({render(f[1])}) {_BINARY[tag]} ({render(f[2])})"
    if tag == "E!":
        return f"E!{f[1]} {f[2]}. ({render(f[3])})"
    return f"{tag} {f[1]}. ({render(f[2])})"


def random_formula(rng: random.Random, b: fam.Built, depth: int, scope: tuple,
                   params: tuple, size: int = 6):
    """A formula of quantifier depth <= `depth` over `b`'s signature whose
    terms are variables in `scope` or element labels in `params`."""
    terms = list(scope) + list(params)
    if depth > 0 and (not terms or rng.random() < 0.45):
        var = VARS[sum(1 for v in scope if v in VARS)]
        body = random_formula(rng, b, depth - 1, scope + (var,), params, size - 1)
        roll = rng.random()
        if roll < 0.15:
            return ("E!", rng.randint(1, 2), var, body)
        return ("A" if roll < 0.55 else "E", var, body)
    if size <= 1 or rng.random() < 0.4:
        if rng.random() < 0.15:
            return ("eq", rng.choice(terms), rng.choice(terms))
        rel, arity, _ = rng.choice(b.rels)
        return ("atom", rel, tuple(rng.choice(terms) for _ in range(arity)))
    roll = rng.random()
    if roll < 0.2:
        return ("not", random_formula(rng, b, depth, scope, params, size - 1))
    op = rng.choice(("and", "and", "or", "or", "imp", "iff"))
    half = max(1, (size - 1) // 2)
    return (op, random_formula(rng, b, depth, scope, params, half),
            random_formula(rng, b, depth, scope, params, half))


def free_terms(f, bound=()) -> set:
    tag = f[0]
    if tag == "atom":
        return {t for t in f[2] if t not in bound}
    if tag == "eq":
        return {t for t in f[1:] if t not in bound}
    if tag == "not":
        return free_terms(f[1], bound)
    if tag in _BINARY:
        return free_terms(f[1], bound) | free_terms(f[2], bound)
    if tag == "E!":
        return free_terms(f[3], bound + (f[2],))
    return free_terms(f[2], bound + (f[1],))


# -- requests -------------------------------------------------------------------------


def _subset(rng, n, lo, hi, avoid=()):
    pool = [i for i in range(n) if i not in avoid]
    return frozenset(rng.sample(pool, min(len(pool), rng.randint(lo, hi))))


def _extension(rng, n, A, lo, hi):
    return A | _subset(rng, n, lo, hi, avoid=A)


def query_request(kind: str, key: str, b: fam.Built, rng: random.Random) -> Request:
    n = b.size
    common = ("--format", "json")
    if kind in ("dcl", "acl"):
        A = _subset(rng, n, 0, 3 if kind == "dcl" else 2)
        return Request(kind, (kind, key, "--set", fmt_set(b, A)) + common, key, (A,))
    if kind == "orbit":
        t = tuple(rng.randrange(n) for _ in range(rng.randint(1, 2)))
        A = _subset(rng, n, 0, 2)
        return Request(kind, (kind, key, "--tuple", fmt_tuple(b, t), "--base",
                              fmt_set(b, A)) + common, key, (t, A))
    if kind in ("degree", "normal", "splitting", "generator"):
        A = _subset(rng, n, 0, 1 if kind == "splitting" else 2)
        B = _extension(rng, n, A, 1, 3 if kind in ("normal", "splitting") else 2)
        return Request(kind, (kind, key, "--base", fmt_set(b, A), "--top",
                              fmt_set(b, B)) + common, key, (A, B))
    if kind == "code":
        # one element on the largest groups: enumerating them dominates anyway
        F = frozenset((x,) for x in _subset(rng, n, 1, 1 if b.order > 400 else 3))
        return Request(kind, (kind, key, "--tuples", fmt_tuples(b, F)) + common, key, (F,))
    if kind == "msym-code":
        length = rng.randint(1, 2)
        F = frozenset(tuple(rng.randrange(n) for _ in range(length))
                      for _ in range(rng.randint(1, 3)))
        kind = "msym-code" if b.field_char else "reject"
        return Request(kind, ("msym-code", key, "--tuples", fmt_tuples(b, F)) + common,
                       key, (F,))
    if kind == "aut":
        A = _subset(rng, n, 0, 2)
        return Request(kind, (kind, key, "--fixing", fmt_set(b, A)) + common, key, (A,))
    if kind == "eval":
        f = random_formula(rng, b, rng.randint(1, 3), (), tuple(rng.sample(b.labels, 1)))
        return Request(kind, (kind, key, render(f)) + common, key, (f,))
    if kind == "irr-check":
        A = _subset(rng, n, 0, 2)
        params = tuple(b.labels[i] for i in sorted(A))
        f = random_formula(rng, b, rng.randint(1, 2), (FREE,), params)
        if FREE not in free_terms(f):
            f = ("and", f, ("eq", FREE, FREE))
        t = (rng.randrange(n),)
        return Request(kind, (kind, key, render(f), "--tuple", fmt_tuple(b, t), "--base",
                              fmt_set(b, A)) + common, key, (f, t, A))
    raise ValueError(kind)


QUERY_KINDS = ("dcl", "acl", "orbit", "degree", "normal", "splitting", "generator",
               "code", "aut", "msym-code", "eval", "irr-check")

# Generated part of the query pool: every family, with groups small enough
# for the checker to enumerate.  Each structure is relabelled once per seed
# and re-read on every request, so members whose search cost swings with the
# labelling (Q4, Shrikhande, C12, some cycle unions and dihedral groups, up
# to 25x) are left out: one unlucky labelling would set the latency tail.
QUERY_POOL = (
    fam.petersen, lambda: fam.rook(3), lambda: fam.rook(4), lambda: fam.hypercube(3),
    fam.clebsch, *[lambda n=n: fam.cycle(n) for n in (5, 7, 8, 9)],
    lambda: fam.complete_bipartite(4),
    *[lambda c=c: fam.directed_cycles(c)
      for c in ((3, 3), (4, 4), (2, 3), (3, 5), (3, 3, 3), (2, 2, 2))],
    *[lambda m=m: fam.dihedral_cayley(m) for m in (3, 4, 5)],
    *[lambda q=q: fam.galois_field(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)],
)

# Structures for `new_structures`: one of each per round.  Search cost spans
# about 60x, from the smallest directed-cycle union to K6,6, whose steady
# cost then sets the latency tail.  Left out: the 16-cycle, GF(16) and larger
# cycle unions, whose search cost swings up to 25x with the labelling, and
# K7,7/K8,8, too few per run to hold the tail steady at 50-200 ms each.
NEW_VARIANTS = (
    fam.petersen, lambda: fam.rook(3), lambda: fam.rook(4), lambda: fam.hypercube(3),
    lambda: fam.hypercube(4), fam.shrikhande, fam.clebsch,
    *[lambda n=n: fam.cycle(n) for n in (6, 9, 10, 12)],
    *[lambda a=a: fam.complete_bipartite(a) for a in (3, 4, 5, 6)],
    *[lambda c=c: fam.directed_cycles(c)
      for c in ((3, 3), (4, 4), (3, 5), (2, 2, 2), (3, 3, 3), (5, 5))],
    *[lambda m=m: fam.dihedral_cayley(m) for m in (5, 6, 7)],
    *[lambda q=q: fam.galois_field(q) for q in (7, 8, 9, 11, 13)],
)

# Generated duality jobs: relative groups of order 6 to 50.  Three of the
# longest job keep the latency tail inside one kind of job even in a short
# run; the jobs of group order 10 to 15 come four times each, so the median
# falls among jobs of like cost instead of in a gap between two.
DUALITY_JOBS = (
    *[("galois", lambda c=c: fam.directed_cycles(c))
      for c in ((3, 3), (4, 4), (4, 4), (4, 4), (5, 5)) + ((3, 5), (3, 4)) * 4],
    *[("galois", lambda m=m: fam.dihedral_cayley(m)) for m in (5, 5, 5, 5, 6, 7, 8)],
    *[("galois", lambda n=n: fam.cycle(n)) for n in (6, 8)],
    *[("tower", build) for build in (
        lambda: fam.directed_cycles((3, 3)), lambda: fam.dihedral_cayley(4),
        lambda: fam.dihedral_cayley(6), lambda: fam.cycle(6), lambda: fam.galois_field(8),
        lambda: fam.hypercube(3), fam.petersen)],
    *[("codes-report", build) for build in (
        lambda: fam.dihedral_cayley(5), lambda: fam.directed_cycles((3, 3)),
        lambda: fam.cycle(6), lambda: fam.galois_field(8))],
    *[("verify", build) for build in (
        lambda: fam.directed_cycles((3, 3)), lambda: fam.dihedral_cayley(4),
        lambda: fam.cycle(6), lambda: fam.galois_field(8))],
)

WORKLOADS = ("query_stream", "new_structures", "duality_jobs")


# Largest group the checker enumerates; bigger ones use a closed form.
ENUM_CAP = 50_000


class Plan:
    """Structures and request rounds of one workload for one seed.

    Round indices are integers for measured rounds; "W" is the warm-up and
    "T" the traced round, so its content never depends on how many rounds
    fit into a run."""

    def __init__(self, workload: str, seed: int, workdir: Path, corpus: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.instances: dict[str, fam.Built] = {}
        for name, source in corpus.items():
            self.instances[f"corpus:{name}"] = fam.corpus_entry(name, source)
        self._rounds: dict = {}
        self._round_keys: dict = {}
        if workload == "query_stream":
            self._init_pool()

    def _file(self, stem: str, canon: fam.Built, rng: random.Random, index=None) -> str:
        key = str(self.workdir / f"{stem}.txt")
        self.instances[key] = fam.relabel(canon, rng, stem)
        self._round_keys.setdefault(index, []).append(key)
        return key

    def _init_pool(self):
        rng = _rng("pool", self.seed)
        self._pool = [f"corpus:{name}" for name in fam.CORPUS_ORDERS]
        for k, build in enumerate(QUERY_POOL):
            canon = build()
            self._pool.append(self._file(f"q{k:02d}_{canon.name}", canon, rng))

    def round(self, index) -> list[Request]:
        got = self._rounds.get(index)
        if got is None:
            if self.workload == "query_stream":
                got = self._query_round(index)
            elif self.workload == "new_structures":
                got = self._new_round(index)
            else:
                got = self._duality_round(index)
            self._rounds[index] = got
        return got

    def forget(self, index) -> list[str]:
        """Drop a finished round and the structures made for it; returns their keys."""
        self._rounds.pop(index, None)
        keys = self._round_keys.pop(index, [])
        for key in keys:
            del self.instances[key]
        return keys

    def _query_round(self, index) -> list[Request]:
        if index == "W":
            return [Request("aut", ("aut", key, "--fixing", "", "--format", "json"),
                            key, (frozenset(),)) for key in self._pool]
        # Fresh arguments every round over the same structures: structures
        # repeat, argument vectors rarely do.
        rng = _rng("queries", self.seed, index)
        reqs = [query_request(kind, key, self.instances[key], rng)
                for key in self._pool for kind in QUERY_KINDS]
        rng.shuffle(reqs)
        # The answers the project documents, kept in every round.
        return reqs + [
            Request("aut", ("aut", "corpus:EX_RS", "--format", "json"), "corpus:EX_RS",
                    (None,)),
            Request("dcl", ("dcl", "corpus:EX_RS", "--set", "a", "--format", "json"),
                    "corpus:EX_RS", (frozenset({0}),)),
            Request("degree", ("degree", "corpus:GF16", "--base", "0,1", "--top", "ALL",
                               "--format", "json"), "corpus:GF16",
                    (frozenset({0, 1}), frozenset(range(16)))),
        ]

    def _new_round(self, index) -> list[Request]:
        rng = _rng("new", self.seed, index)
        variants = (fam.petersen, lambda: fam.complete_bipartite(4)) if index == "W" \
            else NEW_VARIANTS
        order = list(range(len(variants)))
        rng.shuffle(order)
        reqs = []
        for k in order:
            canon = variants[k]()
            key = self._file(f"n{index}_{k:02d}_{canon.name}", canon, rng, index)
            b = self.instances[key]
            reqs.append(Request("aut", ("aut", key, "--format", "json"), key, (None,)))
            A = _subset(rng, b.size, 1, 2)
            if canon.order > ENUM_CAP or rng.random() < 0.5:
                reqs.append(Request("dcl", ("dcl", key, "--set", fmt_set(b, A),
                                            "--format", "json"), key, (A,)))
            else:
                t = (rng.choice([x for x in range(b.size) if x not in A]),)
                reqs.append(Request("orbit", ("orbit", key, "--tuple", fmt_tuple(b, t),
                                              "--base", fmt_set(b, A), "--format", "json"),
                                    key, (t, A)))
        return reqs

    def _duality_round(self, index) -> list[Request]:
        rng = _rng("duality", self.seed, index)
        if index == "W":
            return [
                Request("galois", ("galois", "corpus:C5", "--top", "ALL", "--format",
                                   "json"), "corpus:C5", (frozenset(), frozenset(range(5)))),
                Request("codes-report", ("codes-report", "corpus:GF4", "--format", "json"),
                        "corpus:GF4", ()),
                Request("verify", ("verify", "corpus:RIGID3", "--trials", "2", "--seed", "0",
                                   "--format", "json"), "corpus:RIGID3", (2, 0)),
            ]
        jobs = []
        jobs.append(Request("galois", ("galois", "corpus:EX_RS", "--base", "", "--top",
                                       "a,b,c,d", "--format", "json"), "corpus:EX_RS",
                            (frozenset(), frozenset(range(4)))))
        jobs.append(Request("galois", ("galois", "corpus:GF16", "--base", "0,1", "--top",
                                       "ALL", "--format", "json"), "corpus:GF16",
                            (frozenset({0, 1}), frozenset(range(16)))))
        jobs.append(Request("tower", ("tower", "corpus:GF16", "--sets", ";0,1,w5,w10;ALL",
                                      "--format", "json"), "corpus:GF16",
                            (frozenset(), frozenset({0, 1, 6, 11}), frozenset(range(16)))))
        for name in ("C5", "EX_RS", "GF16"):
            jobs.append(Request("codes-report", ("codes-report", f"corpus:{name}",
                                                 "--format", "json"), f"corpus:{name}", ()))
        for name in ("C5", "GF4", "RIGID3", "EX_RS", "GF16"):
            # fixed per seed, so corpus caches are steady after the first round
            s = _rng("verify", self.seed, name).randrange(1000)
            jobs.append(Request("verify", ("verify", f"corpus:{name}", "--trials", "20",
                                           "--seed", str(s), "--format", "json"),
                                f"corpus:{name}", (20, s)))
        for k, (kind, build) in enumerate(DUALITY_JOBS):
            canon = build()
            key = self._file(f"d{index}_{k:02d}_{canon.name}", canon, rng, index)
            b = self.instances[key]
            everything = frozenset(range(b.size))
            if kind == "galois":
                argv = ("galois", key, "--top", "ALL")
                spec = (frozenset(), everything)
            elif kind == "tower":
                x = rng.randrange(b.size)
                argv = ("tower", key, "--sets", f";{b.labels[x]};ALL")
                spec = (frozenset(), frozenset({x}), everything)
            elif kind == "codes-report":
                argv, spec = ("codes-report", key), ()
            else:
                s = rng.randrange(1000)
                argv, spec = ("verify", key, "--trials", "20", "--seed", str(s)), (20, s)
            jobs.append(Request(kind, argv + ("--format", "json"), key, spec))
        rng.shuffle(jobs)
        return jobs


def write_files(plan: Plan, requests) -> None:
    """Write every structure file the requests name that is not on disk yet."""
    for req in requests:
        if req.struct.startswith("corpus:"):
            continue
        path = Path(req.struct)
        if not path.exists():
            path.write_text(plan.instances[req.struct].text(), encoding="utf-8")
