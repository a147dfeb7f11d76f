"""Turn sequence pairings into vane label tuples.

Triangles come from fold-1 pairings, squares from two-fold pairings,
5-cycles from a pair of interlocking sequences, and hexagons from merging
two triangles around their symbol sum.
"""

from __future__ import annotations

from .errors import (
    BoundViolation,
    MissingTriple,
    OutOfRange,
    ShiftTooSmall,
    UnmatchedSymbol,
)
from .sequences import (
    SkolemTypeSequence,
    _greedy_pairs,
    gen_hooked_skolem,
    gen_near_skolem_topdefect,
    gen_skolem,
)

Triple = tuple[int, int, int]


def triples_from_pairs(seq: SkolemTypeSequence, c: int, variant: int) -> list[Triple]:
    """Triangle vanes from the fold-1 pairs of ``seq``, one per symbol in increasing order.

    Variant 1 emits (0, left+c, right+c); variant 2 emits (0, symbol, right+c).
    Either way the triangle's edges are {symbol, left+c, right+c}, so c must
    be at least the largest symbol for the two ranges to stay disjoint.  The
    pairs come from ``seq.occurrences``.  A sequence it does not pair as fold
    1 fails: the greedy walk names an unmatched symbol or, since one greedy
    pair per symbol would be fold 1, a symbol whose pair count is not 1.
    """
    occ = seq.occurrences
    greedy = None if occ.fold == 1 else _greedy_pairs(seq)
    symbols = occ.symbols
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if not symbols:
        return []
    if c < symbols[-1]:
        raise ShiftTooSmall(f"shift {c} below largest symbol {symbols[-1]}")
    if greedy is not None:
        sym, prs = next((sym, prs) for sym, prs in greedy.items() if len(prs) != 1)
        raise UnmatchedSymbol(f"symbol {sym} has {len(prs)} pairs, expected 1")
    if variant == 1:
        return [(0, a + c, b + c) for a, b in zip(occ.firsts, occ.lasts)]
    return [(0, sym, b + c) for sym, b in zip(symbols, occ.lasts)]


def quadruples_from_twofold(seq: SkolemTypeSequence, c: int) -> list[tuple[int, int, int, int]]:
    """Square vanes (0, d+c, j, f+c) from the two pairs (c',d), (e,f) of each j.

    The edge labels are exactly the shifted positions [c+1, c+4s].  The vertex
    labels are checked for actual collisions rather than against per-family
    shift bounds: composites interleave their symbol ranges too tightly for a
    single closed-form bound.
    """
    if c < 0:
        raise BoundViolation(f"shift must be non-negative, got {c}")
    occ = seq.occurrences
    if occ.hooks:
        raise BoundViolation("two-fold quadruple input must be hook-free")
    if occ.fold == 2:
        symbols = occ.symbols
        ds = [first + sym + c for first, sym in zip(occ.firsts, symbols)]
        fs = [last + c for last in occ.lasts]
        if len({*ds, *symbols, *fs}) == 3 * len(symbols):
            return list(zip([0] * len(symbols), ds, symbols, fs))
    # Something fails: walk the greedy pairing symbol by symbol to name the
    # first failure, a label repeat at one symbol before a count at a later one.
    quads = []
    seen: set[int] = set()
    for sym, prs in _greedy_pairs(seq).items():
        if len(prs) != 2:
            raise BoundViolation(f"symbol {sym} has {len(prs)} pairs, expected 2")
        (_, d), (_, f) = prs
        quad = (0, d + c, sym, f + c)
        for label in quad[1:]:
            if label in seen:
                raise BoundViolation(f"vertex label {label} repeats (shift {c} too small)")
            seen.add(label)
        quads.append(quad)
    return quads


# ---------------------------------------------------------------------------
# 5-cycle vanes
# ---------------------------------------------------------------------------

_FIVETUPLE_LITERALS = {
    2: [(0, 11, 2, 9, 1), (0, 6, 3, 7, 5)],
    3: [(0, 15, 1, 14, 12), (0, 5, 6, 3, 10), (0, 9, 13, 2, 8)],
}

# Hand-searched companion sequences for p = 2, 3, below the near-Skolem tables'
# first order 11: symbol sets match the hooked base's position set, with no
# right endpoint in F(p) (see ``_fivetuple_sources``).
_SMALL_COMPANIONS = {
    2: (5, 3, 1, 1, 3, 5, 2, 0, 2),
    3: (2, 4, 2, 7, 5, 4, 1, 1, 3, 5, 7, 3),
}


def _triangle_sequence(n: int) -> SkolemTypeSequence:
    """The Skolem sequence of order n, hooked at n = 2, 3 (mod 4) where no
    plain one exists: the triangle blocks' pairs and the 5-cycle base."""
    return gen_skolem(n) if n % 4 in (0, 1) else gen_hooked_skolem(n)


def _fivetuple_sources(p: int) -> tuple[SkolemTypeSequence, SkolemTypeSequence]:
    """The base sequence and its companion, whose right ends give the 5-cycles.

    The base is the triangle sequence of order p.  The companion is the one of
    order 2p, Skolem at p = 0 and hooked at p = 1 (mod 4), or the near-Skolem
    sequence of order 2p+1 omitting 2p at p = 2, 3 (mod 4).

    Lemma: for every p >= 1 the companion pairs as fold 1 on exactly the
    base's non-hook cells, and none of its right ends lies in F(p), which is
    [1, p] when p = 0, 1 (mod 4) and [1, p-1] + {p+1} when p = 2, 3 (mod 4).

    Cells: each generator validates its kind, and so do the two rows of
    ``_SMALL_COMPANIONS``, so the symbols are 1..2p, or 1..2p+1 without 2p;
    these are the base's cells, without its hook at 2p when it has one.
    Right ends: F(p) lies in [1, p+1].  In symbol order they are 2, 5 at
    p = 1, 4, 9, 5, 6 at p = 2 and 8, 3, 12, 6, 10, 11 at p = 3.  At p >= 4
    the rows of one table give them, in order, as ranges in m:

      p = 2m, _skolem_0mod4(m), m >= 2: [2m+2, 4m+1], 7m+1, 6m, [7m+2, 8m],
        6m+1, [6m+2, 7m-1];
      p = 2m+1, _hooked_2mod4(m), m >= 2: [2m+3, 4m+3], 7m+5, [6m+4, 7m+3],
        8m+5, [7m+6, 8m+3], 6m+3;
      p = 2m, _near_hooked_1mod4(m), m >= 3: [2m+3, 4m+2], 6m-2, 6m-1,
        [7m, 8m-3], [6m+1, 7m-3], 8m-2, 7m-1, 8m+1;
      p = 2m+1, _near_plain_3mod4(m), m >= 3: [2m+4, 4m+4], 6m+2, 6m+1,
        [7m+4, 8m+1], [6m+4, 7m+1], 7m+3, 8m+3, 8m+4.

    The first row starts at p+2, p+2, p+3 and p+3, and every later right end is
    at least 6m-2 >= 2m+4 >= p+3.  ``tests/test_assemble.py`` checks each step.
    """
    base = _triangle_sequence(p)
    if p % 4 in (0, 1):
        return base, _triangle_sequence(2 * p)
    if p in _SMALL_COMPANIONS:
        return base, SkolemTypeSequence(_SMALL_COMPANIONS[p])
    return base, gen_near_skolem_topdefect(2 * p + 1)


def fivetuples_shifted(p: int, shift: int) -> list[tuple[int, int, int, int, int]]:
    """5-cycle vanes (0, D_b + shift, b, a, D_a + shift) for every base pair.

    (a, b) runs over the base sequence's pairs; D_x is the right endpoint of
    symbol x in the companion.  Both pair as fold 1 by the lemma of
    ``_fivetuple_sources``, so their index columns are their pairs.
    """
    base, companion = _fivetuple_sources(p)
    bo, co = base.occurrences, companion.occurrences
    right = dict(zip(co.symbols, co.lasts))
    return [(0, right[b] + shift, b, a, right[a] + shift) for a, b in zip(bo.firsts, bo.lasts)]


def fivetuples_c5(p: int) -> list[tuple[int, int, int, int, int]]:
    """5-cycle vanes labelling the p-vane 5-cycle windmill (shift = p)."""
    if p < 1:
        raise OutOfRange(f"need p >= 1, got {p}")
    if p in _FIVETUPLE_LITERALS:
        return list(_FIVETUPLE_LITERALS[p])
    return fivetuples_shifted(p, p)


# ---------------------------------------------------------------------------
# Hexagons
# ---------------------------------------------------------------------------


# Per n mod 5, the offsets (a, b, c) of the rows (k+z+a, 4k+z+b) and (2k+z+a, 3k+z+b), z < k+c.
_HEXAGON_ROWS = (
    ((0, 1, 0), (1, 1, 0)),
    ((1, 1, 1), (2, 1, -1)),
    ((1, 2, 1), (2, 2, 0)),
    ((1, 3, 1), (2, 3, 0)),
    ((1, 4, 1), (3, 3, 0)),
)


def _hexagon_pair_rows(n: int) -> list[tuple[int, int]]:
    """Two rows of residue-class pairs (i, j) that merge triangles into hexagons.

    Row-count lemma: for every n >= 1 there are exactly (2n+1)//5 pairs, so
    ``label_c3c6(t, h)``, which merges the first h with n = t+2h, never runs
    short: h <= 2t+1 and t >= 1 give h <= min((2n+1)//5, (n-1)//2).  Proof,
    with n = 5k+r, by ``_HEXAGON_ROWS``: the rows have k+1 and k pairs (k at
    r = 0, k-1 at r = 1), which is (2n+1)//5; j-i is 3k+b-a in the first row
    and k+b-a in the second, both positive in a non-empty row except (1, 1)
    at n = 1, and j ends at n in the first row and below n in the second.

    Clearance lemma: for every n >= 1 the pairs are disjoint, their sums are
    distinct, and each sum lies strictly between n and min(lasts) + n, lasts
    being the right ends of ``_triangle_sequence(n)``; so no merge of
    ``label_c3c6`` repeats a vertex label of its triangles (0, s, last + n).
    Proof: every row of ``_HEXAGON_ROWS`` has c1+a1 <= a2, c2+a2 <= b2 and
    c2+b2 <= b1, so the runs of first-row i, second-row i, second-row j and
    first-row j, rising by one from k+a1, 2k+a2, 3k+b2 and 4k+b1, lie in that
    order.  Each row has a1+b1 = r+1 and a2+b2 = r+2, so the sums run n+1,
    n+3, ... and n+2, n+4, ...: distinct, above n and, as c1 <= 1 and c2 <= 0,
    at most n + 2k + 1.  At n >= 7 the triangle sequence is ``_skolem_0mod4``,
    ``_skolem_1mod4``, ``_hooked_2mod4`` or ``_hooked_3mod4`` of m = n//4
    (m >= 2, 2, 2, 1), whose right ends are, in table order, as ranges in m:

      n = 4m: [2m+2, 4m+1], 7m+1, 6m, [7m+2, 8m], 6m+1, [6m+2, 7m-1];
      n = 4m+1: [2m+2, 4m+1], 6m+2, [7m+2, 8m+1], 8m+2, 5m+3, [6m+4, 7m+1];
      n = 4m+2: [2m+3, 4m+3], 7m+5, [6m+4, 7m+3], 8m+5, [7m+6, 8m+3], 6m+3;
      n = 4m+3: [2m+3, 4m+3], 5m+5, [6m+7, 7m+5], 8m+7, [7m+6, 8m+5], 6m+5.

    The first row starts at n//2 + 2 and the later ones at 5m+2 or above, so
    min(lasts) = n//2 + 2 > 2k + 1, as 2k <= 2n/5 < n/2.  At n = 2..6 the
    fixtures' sums 3; 4; 5; 6, 7; 7, 9 lie below 4, 6, 8, 9, 11.
    ``tests/test_assemble.py`` checks each step.
    """
    k, r = divmod(n, 5)
    (a1, b1, c1), (a2, b2, c2) = _HEXAGON_ROWS[r]
    pairs = [(k + z + a1, 4 * k + z + b1) for z in range(k + c1)]
    pairs += [(2 * k + z + a2, 3 * k + z + b2) for z in range(k + c2)]
    return [(i, j) for i, j in pairs if i != j]  # drops (1, 1) at n = 1


def hexagon_pairs(n: int) -> list[tuple[int, int]]:
    """Triangle symbol pairs (i, j) that may merge into hexagons via i+j."""
    if n < 5:
        raise OutOfRange(f"need n >= 5, got {n}")
    return _hexagon_pair_rows(n)


def merge_hexagons(vanes, pairs) -> list[tuple[int, ...]]:
    """Merge the triangles (0,i,x) and (0,j,y) of each pair into (0, x, i, i+j, j, y).

    The pairs merge in order, each seeing the vanes the earlier merges left.
    Both triangles must be present in symbol-keyed form; the merged hexagon
    reproduces the two triangles' edge labels exactly.  No vertex label is
    checked here: a sum that repeats one is a fault that ``verify`` names,
    and the clearance lemma of ``_hexagon_pair_rows`` rules it out for
    ``label_c3c6``.  Returns the vanes that no merge consumed, in their
    order, then the hexagons in merge order.
    """
    triangles: dict[int, list[tuple[int, ...]]] = {}
    for vane in vanes:
        if len(vane) == 3:
            triangles.setdefault(vane[1], []).append(vane)
    hexagons: list[tuple[int, ...]] = []
    for i, j in pairs:
        if i == j:
            raise ValueError("pair must use two distinct symbols")
        for sym in (i, j):
            if sym not in triangles:
                raise MissingTriple(f"no triangle (0, {sym}, _) present")
        x, y = triangles.pop(i)[0][2], triangles.pop(j)[0][2]
        hexagons.append((0, x, i, i + j, j, y))
    # a triangle survives while its symbol is still a key
    return [v for v in vanes if len(v) != 3 or v[1] in triangles] + hexagons
