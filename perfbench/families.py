"""Structure families whose automorphism groups are known from construction.

Every constructor here returns a `Built`: the canonical structure (element i is the
i-th declared element), generators of its full automorphism group as image
tuples, and the group order from the textbook formula.  The benchmark's
tests close the generators and compare with the stated order; the response
checker compares the program's answers with both.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Built:
    name: str
    family: str
    labels: tuple[str, ...]
    rels: tuple[tuple[str, int, frozenset], ...]
    gens: tuple[tuple[int, ...], ...]
    order: int
    field_char: int = 0  # p for a field encoding GF(p^k), else 0
    notes: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    def table(self, rel: str) -> frozenset:
        for name, _, rows in self.rels:
            if name == rel:
                return rows
        raise KeyError(rel)

    def text(self) -> str:
        lines = [f"structure {self.name} {{",
                 "  universe = { " + ", ".join(self.labels) + " }"]
        for rel, arity, rows in self.rels:
            body = ", ".join("(" + ", ".join(self.labels[e] for e in t) + ")"
                             for t in sorted(rows))
            lines.append(f"  rel {rel}/{arity} = {{ {body} }}")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def is_automorphism(self, g) -> bool:
        return all(tuple(g[e] for e in t) in rows
                   for _, _, rows in self.rels for t in rows)


def relabel(b: Built, rng: random.Random, name: str) -> Built:
    """A copy whose elements are declared in a random order with fresh names.

    Canonical element i becomes element pi[i]; generators are conjugated, so
    the known group carries over unchanged.
    """
    n = b.size
    pi = list(range(n))
    rng.shuffle(pi)
    inv = [0] * n
    for i, p in enumerate(pi):
        inv[p] = i
    labels = tuple(f"e{i}" for i in range(n))
    rels = tuple((rel, arity, frozenset(tuple(pi[e] for e in t) for t in rows))
                 for rel, arity, rows in b.rels)
    gens = tuple(tuple(pi[g[inv[j]]] for j in range(n)) for g in b.gens)
    return Built(name, b.family, labels, rels, gens, b.order, b.field_char,
                 dict(b.notes, relabel=tuple(pi), canon=b))


def _graph(name, family, n, edges, gens, order):
    rows = frozenset(e for u, v in edges for e in ((u, v), (v, u)))
    return Built(name, family, tuple(f"v{i}" for i in range(n)),
                 (("adj", 2, rows),), tuple(tuple(g) for g in gens), order)


def _perm_from(n, fn):
    return tuple(fn(i) for i in range(n))


def petersen() -> Built:
    verts = list(itertools.combinations(range(5), 2))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[a], index[b]) for a, b in itertools.combinations(verts, 2)
             if not set(a) & set(b)]

    def induced(sigma):
        return _perm_from(10, lambda i: index[tuple(sorted(sigma[x] for x in verts[i]))])

    gens = [induced((1, 0, 2, 3, 4)), induced((1, 2, 3, 4, 0))]
    return _graph("Petersen", "petersen", 10, edges, gens, 120)


def rook(m: int) -> Built:
    n = m * m
    edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if i // m == j // m or i % m == j % m]
    cyc = [(k + 1) % m for k in range(m)]
    swap = [1, 0] + list(range(2, m))
    gens = [_perm_from(n, lambda i, s=s: s[i // m] * m + i % m) for s in (cyc, swap)]
    gens += [_perm_from(n, lambda i, s=s: (i // m) * m + s[i % m]) for s in (cyc, swap)]
    gens.append(_perm_from(n, lambda i: (i % m) * m + i // m))
    return _graph(f"Rook{m}", "rook", n, edges, gens, 2 * math.factorial(m) ** 2)


def hypercube(d: int) -> Built:
    n = 1 << d
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(d) if i < i ^ (1 << b)]

    def permute_bits(sigma):
        return _perm_from(n, lambda i: sum(((i >> b) & 1) << sigma[b] for b in range(d)))

    gens = [_perm_from(n, lambda i: i ^ 1),
            permute_bits([1, 0] + list(range(2, d))),
            permute_bits([(b + 1) % d for b in range(d)])]
    return _graph(f"Q{d}", "hypercube", n, edges, gens, (1 << d) * math.factorial(d))


def shrikhande() -> Built:
    pts = [(x, y) for x in range(4) for y in range(4)]
    index = {p: i for i, p in enumerate(pts)}
    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = [(index[p], index[q]) for p, q in itertools.combinations(pts, 2)
             if ((q[0] - p[0]) % 4, (q[1] - p[1]) % 4) in conn]

    def affine(fn):
        return _perm_from(16, lambda i: index[tuple(c % 4 for c in fn(*pts[i]))])

    gens = [affine(lambda x, y: (x + 1, y)), affine(lambda x, y: (x, y + 1)),
            affine(lambda x, y: (-x, -y)), affine(lambda x, y: (y, x)),
            affine(lambda x, y: (x - y, x))]
    return _graph("Shrikhande", "shrikhande", 16, edges, gens, 192)


def clebsch() -> Built:
    conn = {1, 2, 4, 8, 15}
    edges = [(i, j) for i, j in itertools.combinations(range(16), 2) if i ^ j in conn]

    def linear(images):  # images of the basis bits 1, 2, 4, 8
        def apply(i):
            out = 0
            for b in range(4):
                if i >> b & 1:
                    out ^= images[b]
            return out
        return _perm_from(16, apply)

    gens = [_perm_from(16, lambda i: i ^ 1), linear([2, 1, 4, 8]),
            linear([2, 4, 8, 1]), linear([15, 2, 4, 8])]
    return _graph("Clebsch", "clebsch", 16, edges, gens, 1920)


def cycle(n: int) -> Built:
    edges = [(i, (i + 1) % n) for i in range(n)]
    gens = [_perm_from(n, lambda i: (i + 1) % n), _perm_from(n, lambda i: (-i) % n)]
    return _graph(f"C{n}", "cycle", n, edges, gens, 2 * n)


def complete_bipartite(a: int) -> Built:
    n = 2 * a
    edges = [(i, a + j) for i in range(a) for j in range(a)]
    gens = [_perm_from(n, lambda i: (i + 1) % a if i < a else i),
            _perm_from(n, lambda i: {0: 1, 1: 0}.get(i, i)),
            _perm_from(n, lambda i: (i + a) % n)]
    return _graph(f"K{a}_{a}", "bipartite", n, edges, gens, 2 * math.factorial(a) ** 2)


def directed_cycles(lengths: tuple[int, ...]) -> Built:
    lengths = tuple(sorted(lengths))
    starts = list(itertools.accumulate((0,) + lengths))
    n = starts[-1]
    rows = frozenset((starts[c] + k, starts[c] + (k + 1) % m)
                     for c, m in enumerate(lengths) for k in range(m))
    gens = []
    for c, m in enumerate(lengths):
        gens.append(_perm_from(n, lambda i, c=c, m=m:
                               starts[c] + (i - starts[c] + 1) % m
                               if starts[c] <= i < starts[c + 1] else i))
        if c + 1 < len(lengths) and lengths[c + 1] == m:
            def swap(i, c=c, m=m):
                if starts[c] <= i < starts[c + 2]:
                    return i + m if i < starts[c + 1] else i - m
                return i
            gens.append(_perm_from(n, swap))
    order = 1
    for m, group in itertools.groupby(lengths):
        k = len(list(group))
        order *= m ** k * math.factorial(k)
    name = "Cyc" + "_".join(map(str, lengths))
    return Built(name, "dicycles", tuple(f"v{i}" for i in range(n)),
                 (("nx", 2, rows),), tuple(gens), order)


def dihedral_cayley(m: int) -> Built:
    """D_m as a structure with right-multiplication arcs for r and s; its
    automorphisms are the left multiplications, so the group is regular."""
    elems = [(i, j) for j in range(2) for i in range(m)]
    index = {e: k for k, e in enumerate(elems)}

    def mul(a, b):
        return ((a[0] + (b[0] if a[1] == 0 else -b[0])) % m, (a[1] + b[1]) % 2)

    rels = tuple((rel, 2, frozenset((index[e], index[mul(e, g)]) for e in elems))
                 for rel, g in (("R", (1, 0)), ("S", (0, 1))))
    gens = tuple(_perm_from(2 * m, lambda k, g=g: index[mul(g, elems[k])])
                 for g in ((1, 0), (0, 1)))
    return Built(f"D{m}", "dihedral", tuple(f"g{k}" for k in range(2 * m)),
                 rels, gens, 2 * m)


# Monic irreducible modulus for each non-prime field, low coefficient first.
_MODULI = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1)),
           16: (2, (1, 1, 0, 0, 1))}


def galois_field(q: int) -> Built:
    """GF(q) as add/3 and mul/3 graphs; Aut is the Frobenius group of order k."""
    if q in _MODULI:
        p, modulus = _MODULI[q]
    else:
        p, modulus = q, (0, 1)
    k = len(modulus) - 1

    def digits(x):
        return [(x // p ** i) % p for i in range(k)]

    def number(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                for i in range(k + 1):
                    prod[top - k + i] = (prod[top - k + i] - c * modulus[i]) % p
        return number(prod[:k])

    def add(a, b):
        return number([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def power(a, e):
        out = 1
        for _ in range(e):
            out = mul(out, a)
        return out

    rels = (("add", 3, frozenset((a, b, add(a, b)) for a in range(q) for b in range(q))),
            ("mul", 3, frozenset((a, b, mul(a, b)) for a in range(q) for b in range(q))))
    frob = _perm_from(q, lambda a: power(a, p))
    gens = () if k == 1 else (frob,)
    return Built(f"GF{q}", "field", tuple(f"f{i}" for i in range(q)), rels, gens, k,
                 field_char=p)


def close(gens, n: int) -> list[tuple[int, ...]]:
    """Every element of the group generated by `gens` (breadth-first)."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                f = tuple(g[x] for x in e)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return sorted(seen)


_UNIVERSE_RE = re.compile(r"universe\s*=\s*\{([^}]*)\}")
_REL_RE = re.compile(r"rel\s+(\w+)\s*/\s*(\d+)\s*=\s*\{([^}]*)\}")
_TUPLE_RE = re.compile(r"\(([^)]*)\)")

# Automorphism groups of the embedded corpus as documented, generators by label.
_CORPUS_GROUPS = {
    "EX_RS": ((("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")), (("e", "f"),)),
    "RIGID3": (),
    "C5": ((("v0", "v1", "v2", "v3", "v4"),),),
    "GF4": ((("w", "w2"),),),
    # Frobenius x -> x^2 on GF(16): w^k -> w^(2k mod 15)
    "GF16": ((("w", "w2", "w4", "w8"), ("w3", "w6", "w12", "w9"),
              ("w5", "w10"), ("w7", "w14", "w13", "w11")),),
}
CORPUS_ORDERS = {"EX_RS": 8, "RIGID3": 1, "C5": 5, "GF4": 2, "GF16": 4}


def corpus_entry(name: str, source: str) -> Built:
    """A corpus structure read from its source text, with its documented group."""
    text = re.sub(r"#[^\n]*", "", source)
    labels = tuple(x.strip() for x in _UNIVERSE_RE.search(text).group(1).split(","))
    index = {lab: i for i, lab in enumerate(labels)}
    rels = tuple(
        (rel, int(arity), frozenset(tuple(index[x.strip()] for x in m.split(","))
                                    for m in _TUPLE_RE.findall(body)))
        for rel, arity, body in _REL_RE.findall(text))
    gens = []
    for cycles in _CORPUS_GROUPS[name]:
        g = list(range(len(labels)))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                g[index[a]] = index[b]
        gens.append(tuple(g))
    return Built(name, "corpus", labels, rels, tuple(gens), CORPUS_ORDERS[name],
                 field_char=2 if name.startswith("GF") else 0)
