"""Response checker: every answer is compared with one derived independently.

The reference answers come from each structure's automorphism group as known
from its construction (`families`), enumerated element by element, and from
a small formula evaluator of the benchmark's own.  Searches whose result is
the first hit in a documented order (generator, splitting witness, code) are
replayed in that order.  A request repeated with identical arguments must
get a byte-identical response.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import combinations, product

import families as fam
from workloads import ENUM_CAP, FREE, Request

MAX_LEN = 3  # the program's default search bound, used by every request
_CYCLE_RE = re.compile(r"\(([^)]*)\)")


def _mask(S) -> int:
    m = 0
    for x in S:
        m |= 1 << x
    return m


class _Group:
    """A canonical structure's automorphism group, element by element, with
    memoized pointwise stabilizers and definable closures (bit masks)."""

    def __init__(self, canon: fam.Built):
        self.canon = canon
        self.n = canon.size
        self._elements = None
        self._stab: dict[int, list] = {}
        self._dcl: dict[int, int] = {}

    def stab(self, m: int) -> list:
        """(element, fixed-point mask) for every element fixing mask m."""
        got = self._stab.get(m)
        if got is None:
            if self._elements is None:
                elements = fam.close(self.canon.gens, self.n)
                if len(elements) != self.canon.order:
                    raise AssertionError(f"{self.canon.name}: known order "
                                         f"{self.canon.order}, generators close to "
                                         f"{len(elements)}")
                self._elements = [(g, sum(1 << x for x in range(self.n) if g[x] == x))
                                  for g in elements]
            got = [(g, fm) for g, fm in self._elements if fm & m == m]
            self._stab[m] = got
        return got

    def dcl(self, m: int) -> int:
        got = self._dcl.get(m)
        if got is None:
            if self.canon.order <= ENUM_CAP:
                got = (1 << self.n) - 1
                for _, fm in self.stab(m):
                    got &= fm
            elif self.canon.family == "bipartite" and m:
                # fixing a point keeps each side of K_{a,a}; a side with at
                # most one unfixed point is then fixed entirely
                a = self.n // 2
                got = m
                for side in ((1 << a) - 1, ((1 << a) - 1) << a):
                    if bin(side & ~m).count("1") <= 1:
                        got |= side
            elif self.canon.family == "bipartite":
                got = 0
            else:
                raise ValueError(f"no closed form for {self.canon.name}")
            self._dcl[m] = got
        return got


class Oracle:
    """Reference answers for one structure, in its own element indices.

    Group work happens on the canonical structure it was relabelled from and
    is mapped back, so relabelled copies share one enumeration."""

    def __init__(self, b: fam.Built, group: _Group):
        self.b = b
        self.n = b.size
        self.group = group
        self.pi = b.notes.get("relabel", tuple(range(self.n)))
        self.inv = [0] * self.n
        for i, p in enumerate(self.pi):
            self.inv[p] = i
        self._stab: dict[frozenset, list] = {}
        self._tables = {rel: rows for rel, _, rows in b.rels}
        self._index = {label: i for i, label in enumerate(b.labels)}

    def stab(self, S) -> list:
        """(element, fixed-point mask) in own indices for every automorphism
        fixing S pointwise."""
        S = frozenset(S)
        got = self._stab.get(S)
        if got is None:
            pi, inv, n = self.pi, self.inv, self.n
            got = []
            for g, fm in self.group.stab(_mask(inv[x] for x in S)):
                got.append((tuple(pi[g[inv[j]]] for j in range(n)),
                            _mask(pi[x] for x in range(n) if fm >> x & 1)))
            self._stab[S] = got
        return got

    def elements(self) -> list:
        return self.stab(())

    def dcl(self, S) -> frozenset:
        m = self.group.dcl(_mask(self.inv[x] for x in S))
        return frozenset(self.pi[x] for x in range(self.n) if m >> x & 1)

    def orbit(self, t, S) -> list:
        return sorted({tuple(g[x] for x in t) for g, _ in self.stab(S)})

    def normal(self, A, B) -> bool:
        return all(g[x] in B for x in B for g, _ in self.stab(A))

    def generator(self, A, B):
        if B <= self.dcl(A):
            return ()
        for length in range(1, MAX_LEN + 1):
            for cand in product(sorted(B), repeat=length):
                if B <= self.dcl(A | frozenset(cand)):
                    return cand
        return None

    def splitting(self, A, B):
        for length in range(MAX_LEN + 1):
            for cand in product(sorted(B), repeat=length):
                entries = frozenset(e for t in self.orbit(cand, A) for e in t)
                if entries <= B and B <= self.dcl(A | entries):
                    return cand
        return None

    def code(self, F):
        elems = self.elements()
        setwise = [g for g, _ in elems if {tuple(g[e] for e in t) for t in F} == F]
        candidates = [x for x in range(self.n) if all(g[x] == x for g in setwise)]
        for length in range(MAX_LEN + 1):
            for cand in product(candidates, repeat=length):
                cm = _mask(cand)
                if sum(1 for _, fm in elems if fm & cm == cm) == len(setwise):
                    return cand
        return None

    def msym_code(self, F) -> tuple:
        """Coefficients of prod (T + x_1 U_1 + ... + x_k U_k) over x in F,
        all monomials of total degree |F| but T^|F|, graded lex order."""
        b, n = self.b, self.n
        add = {(x, y): z for x, y, z in b.table("add")}
        mul = {(x, y): z for x, y, z in b.table("mul")}
        zero = next(e for e in range(n) if all(add[e, x] == x for x in range(n)))
        one = next(e for e in range(n) if all(mul[e, x] == x for x in range(n)))
        tuples = sorted(F)
        k = len(tuples[0])
        poly = {(0,) * (k + 1): one}
        for x in tuples:
            form = {(1,) + (0,) * k: one}
            for j in range(k):
                if x[j] != zero:
                    form[tuple(int(i == j + 1) for i in range(k + 1))] = x[j]
            nxt = {}
            for m1, c1 in poly.items():
                for m2, c2 in form.items():
                    mono = tuple(p + q for p, q in zip(m1, m2))
                    nxt[mono] = add[nxt.get(mono, zero), mul[c1, c2]]
            poly = nxt
        m = len(tuples)
        monos = sorted((e for e in product(range(m + 1), repeat=k + 1) if sum(e) == m),
                       reverse=True)
        return tuple(poly.get(mono, zero) for mono in monos if mono[0] != m)

    def holds(self, f, env) -> bool:
        tag = f[0]
        if tag == "atom":
            return tuple(self._term(t, env) for t in f[2]) in self._tables[f[1]]
        if tag == "eq":
            return self._term(f[1], env) == self._term(f[2], env)
        if tag == "not":
            return not self.holds(f[1], env)
        if tag == "and":
            return self.holds(f[1], env) and self.holds(f[2], env)
        if tag == "or":
            return self.holds(f[1], env) or self.holds(f[2], env)
        if tag == "imp":
            return not self.holds(f[1], env) or self.holds(f[2], env)
        if tag == "iff":
            return self.holds(f[1], env) == self.holds(f[2], env)
        if tag == "E!":
            count, var, body = f[1:]
            return sum(self.holds(body, {**env, var: e}) for e in range(self.n)) == count
        var, body = f[1:]
        results = (self.holds(body, {**env, var: e}) for e in range(self.n))
        return all(results) if tag == "A" else any(results)

    def _term(self, t, env) -> int:
        return env[t] if t in env else self._index[t]

    def restricted_group(self, A, C) -> set:
        points = sorted(C)
        index = {p: i for i, p in enumerate(points)}
        return {tuple(index[g[p]] for p in points) for g, _ in self.stab(A)}

    def closed_sets(self, A, C) -> list:
        """Every dcl(A + S) for S inside C, as (size, sorted) ordered sets."""
        start = self.dcl(A)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for B in frontier:
                for x in sorted(C - B):
                    D = self.dcl(B | {x})
                    if D not in seen:
                        seen.add(D)
                        nxt.append(D)
            frontier = nxt
        return sorted(seen, key=lambda s: (len(s), sorted(s)))


def count_subgroups(group: set) -> int:
    """Number of subgroups of a small permutation group given by its elements."""
    elems = sorted(group)
    degree = len(elems[0])
    ident = tuple(range(degree))

    def compose(g, h):
        return tuple(g[x] for x in h)

    def closure(gens):
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    f = compose(e, g)
                    if f not in seen:
                        seen.add(f)
                        nxt.append(f)
            frontier = nxt
        return frozenset(seen)

    cyclic = {closure([g]) for g in elems}
    found = {frozenset({ident})}
    frontier = list(found)
    while frontier:
        nxt = []
        for H in frontier:
            for C in cyclic:
                if not C <= H:
                    J = closure(list(H | C))
                    if J not in found:
                        found.add(J)
                        nxt.append(J)
        frontier = nxt
    return len(found)


def parse_perm(text: str, n: int) -> tuple[int, ...]:
    g = list(range(n))
    for cyc in _CYCLE_RE.findall(text):
        pts = [int(p) for p in cyc.split()]
        for a, c in zip(pts, pts[1:] + pts[:1]):
            g[a] = c
    return tuple(g)


LAW_NAMES = (
    "closure_operators", "orbit_stabilizer_divisibility",
    "orbit_generated_extension_is_normal", "degree_product_in_towers",
    "aut_order_counts_orbit_points_inside", "degree_is_aut_order_iff_normal",
    "subgroup_normal_iff_mid_normal", "antitone_galois_connection",
    "duality_iff_coding", "tower_report_on_universe",
)


class Checker:
    """Checks responses, counts attempts and failures, and digests responses."""

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._oracles: dict[str, Oracle] = {}
        self._groups: dict[tuple, _Group] = {}
        self._verified: dict[tuple, tuple] = {}
        self._digest = hashlib.sha256()

    def digest(self) -> str:
        return self._digest.hexdigest()

    def oracle(self, key: str) -> Oracle:
        got = self._oracles.get(key)
        if got is None:
            b = self.plan.instances[key]
            canon = b.notes.get("canon", b)
            group = self._groups.get((canon.family, canon.name))
            if group is None:
                group = self._groups[canon.family, canon.name] = _Group(canon)
            got = self._oracles[key] = Oracle(b, group)
        return got

    def forget(self, keys) -> None:
        """Drop what was kept for structures that will not be named again."""
        keys = set(keys)
        for key in keys:
            self._oracles.pop(key, None)
        self._verified = {k: v for k, v in self._verified.items() if k[1] not in keys}

    def record(self, req: Request, code: int, out: str, err: str,
               digest: bool = True) -> bool:
        """Check one response; returns whether it was correct."""
        response = (code, out, err)
        self.attempted += 1
        if digest:
            self._digest.update(repr((req.argv, response)).encode())
        earlier = self._verified.get(req.argv)
        if earlier == response:
            return True
        if earlier is not None:
            problem = "response differs from the earlier one to the same request"
        else:
            try:
                problem = self._problem(req, code, out, err)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable response: {exc!r}"
        if problem is None:
            self._verified[req.argv] = response
            return True
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{' '.join(req.argv)}: {problem}")
        return False

    def _problem(self, req: Request, code: int, out: str, err: str) -> str | None:
        if req.kind == "reject":
            if code != 2 or out or not err.startswith("error: "):
                return f"expected a usage reject, got exit {code}"
            return None
        expected_code, check = getattr(self, "_check_" + req.kind.replace("-", "_"))(req)
        if code != expected_code:
            return f"exit {code}, expected {expected_code}; stderr {err.strip()!r}"
        if code == 2:
            return None if err.startswith("error: ") else "usage reject without message"
        payload = json.loads(out)
        if callable(check):
            return check(payload)
        return None if payload == check else f"got {payload}, expected {check}"

    # -- one method per request kind: (expected exit code, payload or predicate)

    def _labels(self, key, S, ordered=True):
        b = self.plan.instances[key]
        return [b.labels[i] for i in (sorted(S) if ordered else S)]

    def _check_aut(self, req):
        b = self.plan.instances[req.struct]
        A = req.spec[0]
        order = b.order if A is None else len(self.oracle(req.struct).stab(A))
        fixed = A or frozenset()

        def check(p):
            if p["universe"] != list(b.labels) or p["order"] != order:
                return f"order {p['order']}, expected {order}"
            for text in p["generators"]:
                g = parse_perm(text, b.size)
                if not b.is_automorphism(g) or any(g[x] != x for x in fixed):
                    return f"generator {text} is not an automorphism fixing the set"
            return None
        return 0, check

    def _check_dcl(self, req):
        return 0, {"dcl": self._labels(req.struct, self.oracle(req.struct).dcl(req.spec[0]))}

    def _check_acl(self, req):
        # every orbit is finite in a finite structure
        return 0, {"acl": list(self.plan.instances[req.struct].labels)}

    def _check_orbit(self, req):
        t, A = req.spec
        orb = self.oracle(req.struct).orbit(t, A)
        return 0, {"degree": len(orb),
                   "orbit": [self._labels(req.struct, u, ordered=False) for u in orb]}

    def _check_degree(self, req):
        A, B = req.spec
        o = self.oracle(req.struct)
        gen = o.generator(A, B)
        if gen is None:
            return 2, None
        return 0, {"degree": len(o.orbit(gen, A))}

    def _check_normal(self, req):
        return 0, {"normal": self.oracle(req.struct).normal(*req.spec)}

    def _check_splitting(self, req):
        w = self.oracle(req.struct).splitting(*req.spec)
        return 0, {"splitting": w is not None,
                   "witness": None if w is None else self._labels(req.struct, w, False)}

    def _check_generator(self, req):
        gen = self.oracle(req.struct).generator(*req.spec)
        if gen is None:
            return 0, {"generator": None, "max_len": MAX_LEN}
        return 0, {"generator": self._labels(req.struct, gen, ordered=False)}

    def _check_code(self, req):
        c = self.oracle(req.struct).code(req.spec[0])
        return 0, {"code": None if c is None else self._labels(req.struct, c, False),
                   "max_len": MAX_LEN}

    def _check_msym_code(self, req):
        c = self.oracle(req.struct).msym_code(req.spec[0])
        return 0, {"code": self._labels(req.struct, c, ordered=False)}

    def _check_eval(self, req):
        return 0, {"value": self.oracle(req.struct).holds(req.spec[0], {})}

    def _check_irr_check(self, req):
        f, t, A = req.spec
        o = self.oracle(req.struct)
        sols = {(y,) for y in range(o.n) if o.holds(f, {FREE: y})}
        return 0, {"irreducible": t in sols and sols == set(o.orbit(t, A))}

    def _check_galois(self, req):
        o = self.oracle(req.struct)
        A, C = (o.dcl(S) for S in req.spec)
        group = o.restricted_group(A, C)
        n_sub = count_subgroups(group)
        inter = [self._labels(req.struct, B) for B in o.closed_sets(A, C)]

        def check(p):
            if (p["base"], p["top"]) != (self._labels(req.struct, A),
                                         self._labels(req.struct, C)):
                return "base or top differs from the definable closures"
            if p["group_order"] != len(group):
                return f"group order {p['group_order']}, expected {len(group)}"
            if len(p["subgroups"]) != n_sub or len(p["pairs"]) != n_sub:
                return f"{len(p['subgroups'])} subgroups, expected {n_sub}"
            if p["intermediates"] != inter:
                return f"intermediates {p['intermediates']}, expected {inter}"
            if any(pair["fixed"] not in inter for pair in p["pairs"]):
                return "a fixed set is not an intermediate closed set"
            if p["verdict"] != verdict:
                return f"verdict {p['verdict']} with {len(p['failures'])} failures"
            return None
        # the duality holds iff every Fix(Fix(.)) identity holds; with as many
        # subgroups as closed sets, a failure would still show in `failures`
        verdict = "pass" if n_sub == len(inter) else "fail"
        return (0 if verdict == "pass" else 1), check

    def _check_tower(self, req):
        o = self.oracle(req.struct)
        A, B, C = (o.dcl(S) for S in req.spec)
        sa, sb, sc = (len(o.stab(S)) for S in (A, B, C))
        expected = {
            "base": self._labels(req.struct, A), "mid": self._labels(req.struct, B),
            "top": self._labels(req.struct, C),
            "degrees": {"mid_over_base": sa // sb, "top_over_mid": sb // sc,
                        "top_over_base": sa // sc},
            "normality": {"mid_over_base": o.normal(A, B), "top_over_base": o.normal(A, C),
                          "top_over_mid": o.normal(B, C)},
            "verdict": "pass",
        }

        def check(p):
            got = {k: p[k] for k in expected}
            got["normality"] = {k: p["normality"][k] for k in expected["normality"]}
            if got != expected:
                return f"got {got}, expected {expected}"
            for pair, normal in expected["normality"].items():
                if normal and p["orders"][pair] != p["degrees"][pair]:
                    return f"normal extension {pair} with |Aut| != degree"
            return None
        return 0, check

    def _check_codes_report(self, req):
        o = self.oracle(req.struct)
        b = o.b
        elems = [g for g, _ in o.elements()]
        reps, seen = [], set()
        for size in (1, 2):
            for combo in combinations(range(b.size), size):
                if combo not in seen:
                    images = {tuple(sorted(g[e] for e in combo)) for g in elems}
                    seen |= images
                    reps.append(min(images))
        failures = [self._labels(req.struct, r) for r in reps
                    if o.code(frozenset((e,) for e in r)) is None]
        return 0, {"structure": b.name, "max_set_size": 2, "max_len": MAX_LEN,
                   "sets_checked": len(reps), "failures": failures,
                   "verdict": "fail" if failures else "pass"}

    def _check_verify(self, req):
        trials, seed = req.spec
        name = self.plan.instances[req.struct].name

        def check(p):
            if (p["structure"], p["seed"], p["trials"], p["verdict"]) != (
                    name, seed, trials, "pass"):
                return "wrong header or verdict"
            laws = [(law["name"], law["trials"], law["violations"]) for law in p["laws"]]
            want = [(law, trials if k < 8 else 1, []) for k, law in enumerate(LAW_NAMES)]
            return None if laws == want else f"laws {laws}"
        return 0, check
