"""Embedded corpus of structures used by the CLI and the verification suite.

Every entry is source text in the structure format, so the whole workbench
runs with no external files.  Loaded structures are cached per name and
shared: their relation data never changes, and the facts derived from them
are memoized on the shared structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import StructureError
from .structure import Structure, load_structure

_EX_RS_SOURCE = """\
# Four points carrying two disjoint perfect pairings, plus two points e, f
# touched by no relation (a finite stand-in for the untouched remainder of a
# larger universe).  The pairings force Aut = (Klein four on a,b,c,d) x (e f).
structure EX_RS {
  universe = { a, b, c, d, e, f }
  rel R/2 = { (a,b), (b,a), (c,d), (d,c) }
  rel S/2 = { (a,c), (c,a), (b,d), (d,b) }
}
"""

_RIGID3_SOURCE = """\
# A strict linear order on three points; rigid (trivial automorphism group).
structure RIGID3 {
  universe = { p, q, r }
  rel lt/2 = { (p,q), (p,r), (q,r) }
}
"""

_C5_SOURCE = """\
# A directed 5-cycle; the automorphism group is the cyclic rotation group.
structure C5 {
  universe = { v0, v1, v2, v3, v4 }
  rel E/2 = { (v0,v1), (v1,v2), (v2,v3), (v3,v4), (v4,v0) }
}
"""

# GF(4) as a relational structure: ternary graphs of field addition and
# multiplication over {0, 1, w, w2}, w a root of x^2 + x + 1.
_GF4_SOURCE = """\
structure GF4 {
  universe = { 0, 1, w, w2 }
  rel add/3 = {
    (0,0,0), (0,1,1), (0,w,w), (0,w2,w2),
    (1,0,1), (1,1,0), (1,w,w2), (1,w2,w),
    (w,0,w), (w,1,w2), (w,w,0), (w,w2,1),
    (w2,0,w2), (w2,1,w), (w2,w,1), (w2,w2,0)
  }
  rel mul/3 = {
    (0,0,0), (0,1,0), (0,w,0), (0,w2,0),
    (1,0,0), (1,1,1), (1,w,w), (1,w2,w2),
    (w,0,0), (w,1,w), (w,w,w2), (w,w2,1),
    (w2,0,0), (w2,1,w2), (w2,w,1), (w2,w2,w)
  }
}
"""

# GF(16) likewise, w a root of x^4 + x + 1; wk denotes w to the power k.
# The subfield copy of GF(4) is {0, 1, w5, w10}.
_GF16_SOURCE = """\
structure GF16 {
  universe = { 0, 1, w, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14 }
  rel add/3 = {
    (0,0,0), (0,1,1), (0,w,w), (0,w2,w2), (0,w3,w3), (0,w4,w4), (0,w5,w5), (0,w6,w6),
    (0,w7,w7), (0,w8,w8), (0,w9,w9), (0,w10,w10), (0,w11,w11), (0,w12,w12), (0,w13,w13), (0,w14,w14),
    (1,0,1), (1,1,0), (1,w,w4), (1,w2,w8), (1,w3,w14), (1,w4,w), (1,w5,w10), (1,w6,w13),
    (1,w7,w9), (1,w8,w2), (1,w9,w7), (1,w10,w5), (1,w11,w12), (1,w12,w11), (1,w13,w6), (1,w14,w3),
    (w,0,w), (w,1,w4), (w,w,0), (w,w2,w5), (w,w3,w9), (w,w4,1), (w,w5,w2), (w,w6,w11),
    (w,w7,w14), (w,w8,w10), (w,w9,w3), (w,w10,w8), (w,w11,w6), (w,w12,w13), (w,w13,w12), (w,w14,w7),
    (w2,0,w2), (w2,1,w8), (w2,w,w5), (w2,w2,0), (w2,w3,w6), (w2,w4,w10), (w2,w5,w), (w2,w6,w3),
    (w2,w7,w12), (w2,w8,1), (w2,w9,w11), (w2,w10,w4), (w2,w11,w9), (w2,w12,w7), (w2,w13,w14), (w2,w14,w13),
    (w3,0,w3), (w3,1,w14), (w3,w,w9), (w3,w2,w6), (w3,w3,0), (w3,w4,w7), (w3,w5,w11), (w3,w6,w2),
    (w3,w7,w4), (w3,w8,w13), (w3,w9,w), (w3,w10,w12), (w3,w11,w5), (w3,w12,w10), (w3,w13,w8), (w3,w14,1),
    (w4,0,w4), (w4,1,w), (w4,w,1), (w4,w2,w10), (w4,w3,w7), (w4,w4,0), (w4,w5,w8), (w4,w6,w12),
    (w4,w7,w3), (w4,w8,w5), (w4,w9,w14), (w4,w10,w2), (w4,w11,w13), (w4,w12,w6), (w4,w13,w11), (w4,w14,w9),
    (w5,0,w5), (w5,1,w10), (w5,w,w2), (w5,w2,w), (w5,w3,w11), (w5,w4,w8), (w5,w5,0), (w5,w6,w9),
    (w5,w7,w13), (w5,w8,w4), (w5,w9,w6), (w5,w10,1), (w5,w11,w3), (w5,w12,w14), (w5,w13,w7), (w5,w14,w12),
    (w6,0,w6), (w6,1,w13), (w6,w,w11), (w6,w2,w3), (w6,w3,w2), (w6,w4,w12), (w6,w5,w9), (w6,w6,0),
    (w6,w7,w10), (w6,w8,w14), (w6,w9,w5), (w6,w10,w7), (w6,w11,w), (w6,w12,w4), (w6,w13,1), (w6,w14,w8),
    (w7,0,w7), (w7,1,w9), (w7,w,w14), (w7,w2,w12), (w7,w3,w4), (w7,w4,w3), (w7,w5,w13), (w7,w6,w10),
    (w7,w7,0), (w7,w8,w11), (w7,w9,1), (w7,w10,w6), (w7,w11,w8), (w7,w12,w2), (w7,w13,w5), (w7,w14,w),
    (w8,0,w8), (w8,1,w2), (w8,w,w10), (w8,w2,1), (w8,w3,w13), (w8,w4,w5), (w8,w5,w4), (w8,w6,w14),
    (w8,w7,w11), (w8,w8,0), (w8,w9,w12), (w8,w10,w), (w8,w11,w7), (w8,w12,w9), (w8,w13,w3), (w8,w14,w6),
    (w9,0,w9), (w9,1,w7), (w9,w,w3), (w9,w2,w11), (w9,w3,w), (w9,w4,w14), (w9,w5,w6), (w9,w6,w5),
    (w9,w7,1), (w9,w8,w12), (w9,w9,0), (w9,w10,w13), (w9,w11,w2), (w9,w12,w8), (w9,w13,w10), (w9,w14,w4),
    (w10,0,w10), (w10,1,w5), (w10,w,w8), (w10,w2,w4), (w10,w3,w12), (w10,w4,w2), (w10,w5,1), (w10,w6,w7),
    (w10,w7,w6), (w10,w8,w), (w10,w9,w13), (w10,w10,0), (w10,w11,w14), (w10,w12,w3), (w10,w13,w9), (w10,w14,w11),
    (w11,0,w11), (w11,1,w12), (w11,w,w6), (w11,w2,w9), (w11,w3,w5), (w11,w4,w13), (w11,w5,w3), (w11,w6,w),
    (w11,w7,w8), (w11,w8,w7), (w11,w9,w2), (w11,w10,w14), (w11,w11,0), (w11,w12,1), (w11,w13,w4), (w11,w14,w10),
    (w12,0,w12), (w12,1,w11), (w12,w,w13), (w12,w2,w7), (w12,w3,w10), (w12,w4,w6), (w12,w5,w14), (w12,w6,w4),
    (w12,w7,w2), (w12,w8,w9), (w12,w9,w8), (w12,w10,w3), (w12,w11,1), (w12,w12,0), (w12,w13,w), (w12,w14,w5),
    (w13,0,w13), (w13,1,w6), (w13,w,w12), (w13,w2,w14), (w13,w3,w8), (w13,w4,w11), (w13,w5,w7), (w13,w6,1),
    (w13,w7,w5), (w13,w8,w3), (w13,w9,w10), (w13,w10,w9), (w13,w11,w4), (w13,w12,w), (w13,w13,0), (w13,w14,w2),
    (w14,0,w14), (w14,1,w3), (w14,w,w7), (w14,w2,w13), (w14,w3,1), (w14,w4,w9), (w14,w5,w12), (w14,w6,w8),
    (w14,w7,w), (w14,w8,w6), (w14,w9,w4), (w14,w10,w11), (w14,w11,w10), (w14,w12,w5), (w14,w13,w2), (w14,w14,0)
  }
  rel mul/3 = {
    (0,0,0), (0,1,0), (0,w,0), (0,w2,0), (0,w3,0), (0,w4,0), (0,w5,0), (0,w6,0),
    (0,w7,0), (0,w8,0), (0,w9,0), (0,w10,0), (0,w11,0), (0,w12,0), (0,w13,0), (0,w14,0),
    (1,0,0), (1,1,1), (1,w,w), (1,w2,w2), (1,w3,w3), (1,w4,w4), (1,w5,w5), (1,w6,w6),
    (1,w7,w7), (1,w8,w8), (1,w9,w9), (1,w10,w10), (1,w11,w11), (1,w12,w12), (1,w13,w13), (1,w14,w14),
    (w,0,0), (w,1,w), (w,w,w2), (w,w2,w3), (w,w3,w4), (w,w4,w5), (w,w5,w6), (w,w6,w7),
    (w,w7,w8), (w,w8,w9), (w,w9,w10), (w,w10,w11), (w,w11,w12), (w,w12,w13), (w,w13,w14), (w,w14,1),
    (w2,0,0), (w2,1,w2), (w2,w,w3), (w2,w2,w4), (w2,w3,w5), (w2,w4,w6), (w2,w5,w7), (w2,w6,w8),
    (w2,w7,w9), (w2,w8,w10), (w2,w9,w11), (w2,w10,w12), (w2,w11,w13), (w2,w12,w14), (w2,w13,1), (w2,w14,w),
    (w3,0,0), (w3,1,w3), (w3,w,w4), (w3,w2,w5), (w3,w3,w6), (w3,w4,w7), (w3,w5,w8), (w3,w6,w9),
    (w3,w7,w10), (w3,w8,w11), (w3,w9,w12), (w3,w10,w13), (w3,w11,w14), (w3,w12,1), (w3,w13,w), (w3,w14,w2),
    (w4,0,0), (w4,1,w4), (w4,w,w5), (w4,w2,w6), (w4,w3,w7), (w4,w4,w8), (w4,w5,w9), (w4,w6,w10),
    (w4,w7,w11), (w4,w8,w12), (w4,w9,w13), (w4,w10,w14), (w4,w11,1), (w4,w12,w), (w4,w13,w2), (w4,w14,w3),
    (w5,0,0), (w5,1,w5), (w5,w,w6), (w5,w2,w7), (w5,w3,w8), (w5,w4,w9), (w5,w5,w10), (w5,w6,w11),
    (w5,w7,w12), (w5,w8,w13), (w5,w9,w14), (w5,w10,1), (w5,w11,w), (w5,w12,w2), (w5,w13,w3), (w5,w14,w4),
    (w6,0,0), (w6,1,w6), (w6,w,w7), (w6,w2,w8), (w6,w3,w9), (w6,w4,w10), (w6,w5,w11), (w6,w6,w12),
    (w6,w7,w13), (w6,w8,w14), (w6,w9,1), (w6,w10,w), (w6,w11,w2), (w6,w12,w3), (w6,w13,w4), (w6,w14,w5),
    (w7,0,0), (w7,1,w7), (w7,w,w8), (w7,w2,w9), (w7,w3,w10), (w7,w4,w11), (w7,w5,w12), (w7,w6,w13),
    (w7,w7,w14), (w7,w8,1), (w7,w9,w), (w7,w10,w2), (w7,w11,w3), (w7,w12,w4), (w7,w13,w5), (w7,w14,w6),
    (w8,0,0), (w8,1,w8), (w8,w,w9), (w8,w2,w10), (w8,w3,w11), (w8,w4,w12), (w8,w5,w13), (w8,w6,w14),
    (w8,w7,1), (w8,w8,w), (w8,w9,w2), (w8,w10,w3), (w8,w11,w4), (w8,w12,w5), (w8,w13,w6), (w8,w14,w7),
    (w9,0,0), (w9,1,w9), (w9,w,w10), (w9,w2,w11), (w9,w3,w12), (w9,w4,w13), (w9,w5,w14), (w9,w6,1),
    (w9,w7,w), (w9,w8,w2), (w9,w9,w3), (w9,w10,w4), (w9,w11,w5), (w9,w12,w6), (w9,w13,w7), (w9,w14,w8),
    (w10,0,0), (w10,1,w10), (w10,w,w11), (w10,w2,w12), (w10,w3,w13), (w10,w4,w14), (w10,w5,1), (w10,w6,w),
    (w10,w7,w2), (w10,w8,w3), (w10,w9,w4), (w10,w10,w5), (w10,w11,w6), (w10,w12,w7), (w10,w13,w8), (w10,w14,w9),
    (w11,0,0), (w11,1,w11), (w11,w,w12), (w11,w2,w13), (w11,w3,w14), (w11,w4,1), (w11,w5,w), (w11,w6,w2),
    (w11,w7,w3), (w11,w8,w4), (w11,w9,w5), (w11,w10,w6), (w11,w11,w7), (w11,w12,w8), (w11,w13,w9), (w11,w14,w10),
    (w12,0,0), (w12,1,w12), (w12,w,w13), (w12,w2,w14), (w12,w3,1), (w12,w4,w), (w12,w5,w2), (w12,w6,w3),
    (w12,w7,w4), (w12,w8,w5), (w12,w9,w6), (w12,w10,w7), (w12,w11,w8), (w12,w12,w9), (w12,w13,w10), (w12,w14,w11),
    (w13,0,0), (w13,1,w13), (w13,w,w14), (w13,w2,1), (w13,w3,w), (w13,w4,w2), (w13,w5,w3), (w13,w6,w4),
    (w13,w7,w5), (w13,w8,w6), (w13,w9,w7), (w13,w10,w8), (w13,w11,w9), (w13,w12,w10), (w13,w13,w11), (w13,w14,w12),
    (w14,0,0), (w14,1,w14), (w14,w,1), (w14,w2,w), (w14,w3,w2), (w14,w4,w3), (w14,w5,w4), (w14,w6,w5),
    (w14,w7,w6), (w14,w8,w7), (w14,w9,w8), (w14,w10,w9), (w14,w11,w10), (w14,w12,w11), (w14,w13,w12), (w14,w14,w13)
  }
}
"""


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: str
    notes: str


CORPUS: dict[str, CorpusEntry] = {
    e.name: e for e in (
        CorpusEntry(
            "EX_RS", _EX_RS_SOURCE,
            "four points under two disjoint pairings R and S plus two isolated "
            "points; the duality fails on it because pair sets have no codes"),
        CorpusEntry(
            "RIGID3", _RIGID3_SOURCE,
            "three-element strict linear order; rigid, codes everything"),
        CorpusEntry(
            "C5", _C5_SOURCE,
            "directed five-cycle with cyclic automorphism group of order 5"),
        CorpusEntry(
            "GF4", _GF4_SOURCE,
            "the field with 4 elements as add/mul relation graphs"),
        CorpusEntry(
            "GF16", _GF16_SOURCE,
            "the field with 16 elements as add/mul relation graphs; "
            "its GF(4) subfield is {0, 1, w5, w10}"),
    )
}

_loaded: dict[str, Structure] = {}


def corpus_names() -> tuple[str, ...]:
    return tuple(CORPUS)


def load_corpus(name: str) -> Structure:
    """The named corpus structure, loaded once and then shared."""
    entry = CORPUS.get(name)
    if entry is None:
        raise StructureError(
            f"unknown corpus structure {name!r}; available: {', '.join(CORPUS)}")
    got = _loaded.get(name)
    if got is None:
        got = load_structure(entry.source)
        _loaded[name] = got
    return got
