"""Exhaustive backtracking search for labellings and sequences.

This is the independent ground truth at desk scale: it never trusts the
constructive machinery, and it reports "none" only when the search space was
provably exhausted under its symmetry reduction.  Each cut keeps a member of
every symmetry class: the labelling search orients vanes, orders equal vanes
and flips triangles (``_search_vanes``); a find search for a hook-free
one-fold sequence uses reversal (``search_sequence``).  The labelling search
also looks ahead with one exact test, which drops only subtrees holding no
labelling: the triangle fit (``_triangles_fit``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderTooLarge, SpecTooLarge
from .sequences import SequenceKind, SkolemTypeSequence, validate
from .windmill import Labelling, WindmillSpec, labels, to_json_obj, verify

HARD_CAP_EDGES = 48
ENUM_CAP_ORDER = 12
FIND_CAP_ORDER = 24

FOUND = "found"
NONE = "none"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchResult:
    status: str
    labelling: Labelling | None
    nodes: int

    @property
    def exhaustive(self) -> bool:
        return self.status == NONE

    def __bool__(self) -> bool:
        return self.status == FOUND


def fixture_json_obj(result: SearchResult, spec: WindmillSpec) -> dict:
    """Labelling JSON with the provenance header used for emitted fixtures."""
    obj = {
        "origin": "oracle",
        "spec": [{"cycle": l, "count": c} for l, c in spec.vanes],
        "exhaustive": result.exhaustive,
    }
    if result.labelling is not None:
        obj.update(to_json_obj(result.labelling))
    return obj


class _BudgetExhausted(Exception):
    """The node budget ran out after ``nodes`` nodes."""

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes


def _triangles_fit(
    rest: int, spokes: int, nodes: int, node_budget: int | None
) -> tuple[bool, int]:
    """Whether triangles can take exactly the edge labels ``rest``: (fits, nodes).

    ``rest`` and ``spokes`` are bitmasks; ``spokes`` holds the labels that may
    be a vertex.  A triangle ``(0, a, b)`` with ``b > a`` takes the edges
    ``{a, b - a, b}``, so the check splits ``rest`` into triples
    ``{x, y, x + y}``, ``x < y``, whose sum and at least one of ``x, y`` are
    spokes.  It branches on the largest label left, which only a triple's sum
    can take.  Each split tried is a node, counted on from ``nodes``; it
    raises ``_BudgetExhausted`` past ``node_budget`` nodes.
    """

    def fit(rest: int) -> bool:
        nonlocal nodes
        if not rest:
            return True
        z = rest.bit_length() - 1
        if not spokes >> z & 1:
            return False
        rest ^= 1 << z
        half = z // 2 + 1
        ys = rest >> half << half  # y > z - y
        while ys:
            y = ys.bit_length() - 1
            ys ^= 1 << y
            x = z - y
            if rest >> x & 1 and (spokes >> x | spokes >> y) & 1:
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise _BudgetExhausted(nodes)
                if fit(rest ^ (1 << x) ^ (1 << y)):
                    return True
        return False

    return fit(rest), nodes


def _search_vanes(
    cycles: list[int], vertices: list[int], edges: list[int], node_budget: int | None
) -> tuple[list[tuple[int, ...]] | None, int]:
    """First vane assignment hitting every edge label once: (vanes or None, nodes).

    Backtracking over bitmasks of the free vertex and edge labels; raises
    ``_BudgetExhausted`` past ``node_budget`` nodes.  Value order is
    descending (the scarce large labels first).  ``cycles`` must be sorted
    longest first, so the triangles come last.

    Three canonical-form cuts, each keeping at least one labelling of every
    class, so a negative stays exhaustive:

    - every vane is oriented with its last vertex above its first;
    - equal-length vanes are ordered by decreasing first vertex;
    - a triangle ``(0, a, b)`` keeps ``b`` only if ``b > 2a`` or ``b - a`` is
      not free when ``b`` is placed (the triangle flip).

    The flip: ``(0, a, b)`` and ``(0, b - a, b)`` have the same edges
    ``{a, b - a, b}``.  A vertex next to the centre carries its edge's label,
    and edge labels are distinct, so ``b - a`` is no vertex of another
    triangle nor an end vertex of a longer vane: it can only be a middle
    vertex of a longer vane, and those are all placed before the triangles.
    So when ``b`` is placed, ``b - a`` is free exactly when no vertex of the
    finished labelling uses it and it is a vertex label.  Given any
    labelling, flip every triangle whose ``b - a`` is free and below ``a``:
    the flipped labels are distinct edge labels of distinct triangles, so
    the result is a labelling whose triangles all pass the cut.  Ordering
    the equal vanes again by first vertex gives a labelling this search
    admits.

    One lookahead cut, removing only subtrees that hold no labelling, so the
    first labelling found is the one the search without it finds.  The
    triangle fit: at the start of the first triangle, the free edge labels
    split into triangles (``_triangles_fit``, whose splits count as nodes).
    A triangle ``(0, a, b)`` with ``b > a`` has the edges ``{a, b - a, b}``
    and the vertices ``{a, b}``, and both vertices are edge labels of it.
    So distinct edge labels already make the vertices of distinct triangles
    distinct, and a split of the free edge labels into triples
    ``{x, y, x + y}`` whose sum and one of ``x, y`` are free vertex labels
    is a completion of the longer vanes placed so far.  The flip argument
    above, applied to that completion, gives one this search admits, so a
    split exists exactly when a completion does.  The fit's first test, the
    largest free edge is a free vertex label, runs inline and counts no node.
    """
    if cycles != sorted(cycles, reverse=True):
        raise ValueError(f"cycles must be sorted longest first, got {cycles}")
    vanes = [[0] * length for length in cycles]
    top = max(edges + vertices, default=0)
    first_triangle = cycles.index(3) if 3 in cycles else -1
    nodes = 0

    def rec(idx: int, pos: int, free: int, mask: int, mirror: int) -> bool:
        # free: vertex labels still unused; mask: edge labels still unused,
        # bit e for edge e; mirror: the same edges at bit top - e
        nonlocal nodes
        if idx == len(cycles):
            return True
        if pos == 1 and idx == first_triangle:
            if mask and not free >> (mask.bit_length() - 1) & 1:
                return False
            fits, nodes = _triangles_fit(mask, mask & free, nodes, node_budget)
            if not fits:
                return False
        length = cycles[idx]
        vane = vanes[idx]
        prev = vane[pos - 1]
        last = pos == length - 1
        # v = prev + e or v = prev - e for a free edge label e
        cand = free & ((mask << prev) | (mirror >> (top - prev)))
        if pos == 1 and idx > 0 and cycles[idx - 1] == length:
            cand &= (1 << vanes[idx - 1][1]) - 1  # decreasing first vertices
        if last:
            # the closing edge v is free, and the last vertex lies above the first
            cand &= mask >> (vane[1] + 1) << (vane[1] + 1)
            if length == 3:  # the triangle flip: v > 2 * prev, or v - prev not free
                cand &= (-1 << (2 * prev + 1)) | (~free << prev)
        next_idx, next_pos = (idx + 1, 1) if last else (idx, pos + 1)
        while cand:
            v = cand.bit_length() - 1
            bit = 1 << v
            cand ^= bit
            e = v - prev if v > prev else prev - v
            rest, rest_mirror = mask ^ (1 << e), mirror ^ (1 << (top - e))
            if last:
                if e == v:  # the closing edge is the one just used
                    continue
                rest, rest_mirror = rest ^ bit, rest_mirror ^ (1 << (top - v))
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise _BudgetExhausted(nodes)
            vane[pos] = v  # read only below this node, so never reset
            if rec(next_idx, next_pos, free ^ bit, rest, rest_mirror):
                return True
        return False

    mask = sum(1 << e for e in edges)
    mirror = sum(1 << (top - e) for e in edges)
    if rec(0, 1, sum(1 << v for v in vertices), mask, mirror):
        return [tuple(vane) for vane in vanes], nodes
    return None, nodes


def search_labelling(
    spec: WindmillSpec,
    mode: str,
    max_label: int | None = None,
    node_budget: int | None = None,
) -> SearchResult:
    """Find a verified labelling, prove none exists, or run out of budget.

    The edge labels are ``windmill.labels`` of ``mode``, and so are the vertex
    labels, cut at ``max_label``.  ``node_budget`` bounds every node the
    search counts, the triangle fit's splits included.
    """
    m = spec.edge_count
    if m > HARD_CAP_EDGES:
        raise SpecTooLarge(f"{m} edges exceeds the search cap of {HARD_CAP_EDGES}")
    cycles = sorted(
        (length for length, count in spec.vanes for _ in range(count)), reverse=True
    )
    edges = labels(m, mode)
    vertices = [v for v in edges if max_label is None or v <= max_label]
    try:
        vanes, nodes = _search_vanes(cycles, vertices, edges, node_budget)
    except _BudgetExhausted as exc:
        return SearchResult(BUDGET_EXHAUSTED, None, exc.nodes)
    if vanes is None:
        return SearchResult(NONE, None, nodes)
    labelling = Labelling(spec=spec, vanes=vanes, mode=mode)
    report = verify(labelling)
    if not report.ok:  # pragma: no cover - search and verifier agree
        raise AssertionError(f"oracle produced a bad labelling: {report}")
    return SearchResult(FOUND, labelling, nodes)


# ---------------------------------------------------------------------------
# Sequence search
# ---------------------------------------------------------------------------


def _symbols(kind: SequenceKind, n: int) -> list[int]:
    """The symbols of a search of nominal order n, largest first."""
    if kind.near and kind.defect > n:
        raise ValueError(f"near-Skolem defect {kind.defect} exceeds order {n}")
    expected = kind.expected_symbols(n - 1 if kind.near else n)  # n counts the omitted symbol
    if expected is None:
        raise ValueError(f"searching {kind.tag!r} needs an explicit symbol set")
    return sorted(expected, reverse=True)


def search_sequence(
    kind: SequenceKind, n: int, enumerate_all: bool = False
) -> list[SkolemTypeSequence]:
    """Depth-first placement of symbols, largest first, over a bitmask of free cells.

    Returns every sequence of the kind (``enumerate_all``) or the first one
    found; the empty list is an exhaustive negative.  A node records only its
    slot's left end on the path; a leaf writes the cells from the path.

    Reversal cut: the reverse of a hook-free one-fold sequence is another
    sequence of its kind, and it moves the largest symbol's left end ``a`` to
    ``length + 1 - sym - a``, so a find search places that symbol only at
    ``2a + sym <= length + 1``.  Left ends are tried from the left and the
    lowest left end of any solution lies in that half, so the first solution
    is the one the unreduced search returns.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    cap = ENUM_CAP_ORDER if enumerate_all else FIND_CAP_ORDER
    if n > cap:
        raise OrderTooLarge(f"order {n} exceeds the cap of {cap}")
    symbols = _symbols(kind, n)
    if not symbols:
        # degenerate order: only the empty hook-free sequence can qualify
        if kind.hooked:
            return []
        empty = SkolemTypeSequence(())
        return [empty] if validate(empty, kind).ok else []
    slots = [sym for sym in symbols for _ in range(kind.fold)]
    # a symbol's later copy starts to the right of its earlier one
    repeats = [slots[i + 1 : i + 2] == [sym] for i, sym in enumerate(slots)]
    length = 2 * len(slots) + kind.hooked
    free = (1 << (length + 1)) - 2  # bit a for each free cell a in 1..length
    if kind.hooked:
        free ^= 1 << (length - 1)  # the hook, next to last
    first_ends = -1  # bit a for each left end a the first slot may take
    if not enumerate_all and kind.fold == 1 and not kind.hooked:
        # 2a + sym <= length + 1; a symbol too long to fit at all keeps no end
        first_ends = (2 << max(length + 1 - slots[0], 0) // 2) - 1
    lows = [0] * len(slots)  # bit a for each placed slot's left end a
    results: list[SkolemTypeSequence] = []

    def place(idx: int, allowed: int, free: int) -> bool:
        if idx == len(slots):
            entries = [0] * length
            for sym, low in zip(slots, lows):
                a = low.bit_length() - 1
                entries[a - 1] = entries[a + sym - 1] = sym
            seq = SkolemTypeSequence(entries)
            report = validate(seq, kind)
            if not report.ok:  # pragma: no cover - layout and validator agree
                raise AssertionError(f"search produced invalid sequence: {report.violations}")
            results.append(seq)
            return not enumerate_all
        sym = slots[idx]
        # left ends in allowed (the reversal cut's at the root, those right of the
        # previous copy's after a repeat) with both cells free, leftmost first
        ends = free & (free >> sym) & allowed
        while ends:
            low = ends & -ends
            ends ^= low
            lows[idx] = low  # read only below this node, so never reset
            if place(idx + 1, -(low << 1) if repeats[idx] else -1, free ^ low ^ (low << sym)):
                return True
        return False

    place(0, first_ends, free)
    return results
