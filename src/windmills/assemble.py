"""Turn sequence pairings into vane label tuples.

Triangles come from fold-1 pairings, squares from two-fold pairings,
5-cycles from a pair of interlocking sequences, and hexagons from merging
two triangles around their symbol sum.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    BoundViolation,
    LabelClash,
    MissingTriple,
    OutOfRange,
    PreconditionFailed,
    ShiftTooSmall,
)
from .sequences import (
    SkolemTypeSequence,
    gen_hooked_skolem,
    gen_near_skolem_topdefect,
    gen_skolem,
    pairs_of,
)

Triple = tuple[int, int, int]


def triples_from_pairs(seq: SkolemTypeSequence, c: int, variant: int) -> list[Triple]:
    """Triangle vanes from the fold-1 pairs of ``seq``, one per symbol in increasing order.

    Variant 1 emits (0, left+c, right+c); variant 2 emits (0, symbol, right+c).
    Either way the triangle's edges are {symbol, left+c, right+c}, so c must
    be at least the largest symbol for the two ranges to stay disjoint.  The
    pairs come from ``seq.occurrences``; a sequence it does not pair as fold 1
    goes through ``pairs_of`` and ``PairSet.single``, which raise the errors.
    """
    occ = seq.occurrences
    pairs = None if occ.fold == 1 else pairs_of(seq)
    symbols = occ.symbols
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    if not symbols:
        return []
    if c < symbols[-1]:
        raise ShiftTooSmall(f"shift {c} below largest symbol {symbols[-1]}")
    if pairs is None:
        lefts, rights = occ.firsts, occ.lasts
    else:
        lefts, rights = zip(*map(pairs.single, symbols))
    if variant == 1:
        return [(0, a + c, b + c) for a, b in zip(lefts, rights)]
    return [(0, sym, b + c) for sym, b in zip(symbols, rights)]


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
    # Something fails: pair and check symbol by symbol to name the first failure.
    pairs = pairs_of(seq)
    quads = []
    seen: set[int] = set()
    for sym in pairs.symbols:
        prs = pairs.pairs_for(sym)
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

# Hand-searched companion sequences for the two small orders whose closed-form
# companions do not exist: symbol sets match the hooked base's position set,
# with no right endpoint at a base hook-adjacent position.
_SMALL_COMPANIONS = {
    2: (5, 3, 1, 1, 3, 5, 2, 0, 2),
    3: (2, 4, 2, 7, 5, 4, 1, 1, 3, 5, 7, 3),
}


def _triangle_sequence(n: int) -> SkolemTypeSequence:
    """The Skolem sequence of order n, hooked at n = 2, 3 (mod 4) where no
    plain one exists: the triangle blocks' pairs and the 5-cycle base."""
    return gen_skolem(n) if n % 4 in (0, 1) else gen_hooked_skolem(n)


def _fivetuple_sources(p: int):
    """Base sequence, companion pairing and forbidden right-endpoint cells."""
    k = p % 4
    base = _triangle_sequence(p)
    if k == 0:
        companion = gen_skolem(2 * p)
        forbidden = set(range(1, p + 1))
    elif k == 1:
        companion = gen_hooked_skolem(2 * p)
        forbidden = set(range(1, p + 1))
    else:
        if p in _SMALL_COMPANIONS:
            companion = SkolemTypeSequence(_SMALL_COMPANIONS[p])
        else:
            companion = gen_near_skolem_topdefect(2 * p + 1)
        forbidden = set(range(1, p)) | {p + 1}
    return base, companion, forbidden


def fivetuples_shifted(p: int, shift: int) -> list[tuple[int, int, int, int, int]]:
    """5-cycle vanes (0, D_b + shift, b, a, D_a + shift) for every base pair.

    (a, b) runs over the base sequence's pairs; D_x is the right endpoint of
    symbol x in the companion sequence.  The companion must keep its right
    endpoints off a prefix of cells so that D + shift clears the base values.
    """
    base, companion, forbidden = _fivetuple_sources(p)
    bo, co = base.occurrences, companion.occurrences
    if (
        bo.fold == co.fold == 1
        and bo.symbols == tuple(range(1, p + 1))
        and forbidden.isdisjoint(co.lasts)
    ):
        right = dict(zip(co.symbols, co.lasts))
        base_pairs = zip(bo.firsts, bo.lasts)
    else:
        # Pair symbol by symbol to raise the first failure.
        base_set, comp_pairs = pairs_of(base), pairs_of(companion)
        right = {}
        for sym in comp_pairs.symbols:
            _, right[sym] = comp_pairs.single(sym)
            if right[sym] in forbidden:
                raise PreconditionFailed(
                    f"companion for p={p} has a right endpoint at cell {right[sym]}"
                )
        base_pairs = map(base_set.single, range(1, p + 1))
    return [(0, right[b] + shift, b, a, right[a] + shift) for a, b in base_pairs]


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


def _hexagon_pair_rows(n: int) -> list[tuple[int, int]]:
    # Residue-class pair families (i, j); sums i+j are pairwise distinct and
    # sit strictly between n and the smallest shifted right endpoint.
    k, r = divmod(n, 5)
    pairs: list[tuple[int, int]] = []
    if r == 0:
        pairs += [(k + z, 4 * k + z + 1) for z in range(k)]
        pairs += [(2 * k + z + 1, 3 * k + z + 1) for z in range(k)]
    elif r == 1:
        pairs += [(k + z + 1, 4 * k + z + 1) for z in range(k + 1)]
        pairs += [(2 * k + z + 2, 3 * k + z + 1) for z in range(k - 1)]
    elif r == 2:
        pairs += [(k + z + 1, 4 * k + z + 2) for z in range(k + 1)]
        pairs += [(2 * k + z + 2, 3 * k + z + 2) for z in range(k)]
    elif r == 3:
        pairs += [(k + z + 1, 4 * k + z + 3) for z in range(k + 1)]
        pairs += [(2 * k + z + 2, 3 * k + z + 3) for z in range(k)]
    else:
        pairs += [(k + z + 1, 4 * k + z + 4) for z in range(k + 1)]
        pairs += [(2 * k + z + 3, 3 * k + z + 3) for z in range(k)]
    return [(i, j) for i, j in pairs if 1 <= i <= n and 1 <= j <= n and i != j]


def hexagon_pairs(n: int) -> list[tuple[int, int]]:
    """Triangle symbol pairs (i, j) that may merge into hexagons via i+j."""
    if n < 5:
        raise OutOfRange(f"need n >= 5, got {n}")
    return _hexagon_pair_rows(n)


def merge_hexagons(vanes, pairs) -> list[tuple[int, ...]]:
    """Merge the triangles (0,i,x) and (0,j,y) of each pair into (0, x, i, i+j, j, y).

    The pairs merge in order, each seeing the vanes the earlier merges left.
    Both triangles must be present in symbol-keyed form and the sum i+j must
    not collide with any vertex label still in use; the merged hexagon
    reproduces the two triangles' edge labels exactly.  Returns the vanes
    that no merge consumed, in their order, then the hexagons in merge order.
    """
    triangles: dict[int, list[tuple[int, ...]]] = {}
    for vane in vanes:
        if len(vane) == 3:
            triangles.setdefault(vane[1], []).append(vane)
    used = Counter(label for vane in vanes for label in vane)
    consumed: set[int] = set()
    hexagons: list[tuple[int, ...]] = []

    def remaining() -> list[tuple[int, ...]]:
        return [v for v in vanes if not (len(v) == 3 and v[1] in consumed)] + hexagons

    for i, j in pairs:
        if i == j:
            raise ValueError("pair must use two distinct symbols")
        for sym in (i, j):
            if sym not in triangles:
                raise MissingTriple(f"no triangle (0, {sym}, _) present")
        total = i + j
        if used[total]:
            clash = next(v for v in remaining() if total in v)
            raise LabelClash(f"vertex label {total} already used in {clash}")
        tri_i, tri_j = triangles[i][0], triangles[j][0]
        for sym in (i, j):
            for vane in triangles.pop(sym):
                used.subtract(vane)
            consumed.add(sym)
        hexagon = (0, tri_i[2], i, total, j, tri_j[2])
        used.update(hexagon)
        hexagons.append(hexagon)
    return remaining()


def hexagon_merge(vanes, pair: tuple[int, int], n: int) -> tuple[int, ...]:
    """The hexagon ``merge_hexagons`` makes from one pair."""
    return merge_hexagons(vanes, [pair])[-1]


def apply_hexagon_merge(vanes, pair: tuple[int, int], n: int) -> list[tuple[int, ...]]:
    """Non-mutating merge: returns the vane list with the two triangles replaced."""
    return merge_hexagons(vanes, [pair])
