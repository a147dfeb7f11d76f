"""Exhaustive backtracking search for labellings and sequences.

This is the independent ground truth at desk scale: it never trusts the
constructive machinery, and it reports "none" only when the search space was
provably exhausted under its symmetry reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderTooLarge, SpecTooLarge
from .sequences import SequenceKind, SkolemTypeSequence, validate
from .windmill import (
    GRACEFUL,
    Labelling,
    NEAR_GRACEFUL,
    WindmillSpec,
    to_json_obj,
    verify,
)

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
    exhaustive: bool

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


def _search_vanes(
    cycles: list[int],
    allowed_vertices: list[int],
    m: int,
    target_edges: set[int],
    node_budget: int | None,
):
    """Backtracking over vane vertex assignments with an edge bitmask.

    Value order is descending (the scarce large labels first).  Symmetry
    reduction: equal-length vanes are ordered by decreasing first vertex and
    every vane is oriented with its last vertex above its first; both are
    canonical-form choices, so no labelling class is lost.
    """
    edge_mask = 0
    for e in target_edges:
        edge_mask |= 1 << e
    used_vertices: set[int] = set()
    vane_labels: list[list[int]] = [[0] * c for c in cycles]
    nodes = 0
    budget_hit = False

    allowed_desc = sorted(allowed_vertices, reverse=True)

    def rec(vane_idx: int, pos: int, mask: int):
        nonlocal nodes, budget_hit
        if vane_idx == len(cycles):
            yield
            return
        length = cycles[vane_idx]
        vane = vane_labels[vane_idx]
        prev = vane[pos - 1]
        last = pos == length - 1
        cap = None
        if pos == 1 and vane_idx > 0 and cycles[vane_idx - 1] == length:
            cap = vane_labels[vane_idx - 1][1]  # decreasing first vertices
        for v in allowed_desc:
            if budget_hit:
                return
            if v in used_vertices:
                continue
            if cap is not None and v >= cap:
                continue
            e1 = abs(v - prev)
            b1 = 1 << e1
            if not (mask & b1):
                continue
            new_mask = mask & ~b1
            if last:
                if v <= vane[1]:  # orientation: last vertex above the first
                    continue
                e2 = v  # closing edge back to the centre
                b2 = 1 << e2
                if not (new_mask & b2):
                    continue
                new_mask &= ~b2
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                budget_hit = True
                return
            vane[pos] = v
            used_vertices.add(v)
            if last:
                yield from rec(vane_idx + 1, 1, new_mask)
            else:
                yield from rec(vane_idx, pos + 1, new_mask)
            used_vertices.remove(v)
            vane[pos] = 0

    for _ in rec(0, 1, edge_mask):
        yield [tuple(v) for v in vane_labels], nodes, budget_hit
    yield None, nodes, budget_hit  # sentinel: search space finished


def search_labelling(
    spec: WindmillSpec,
    mode: str,
    max_label: int | None = None,
    node_budget: int | None = None,
    permissive: bool = False,
) -> SearchResult:
    """Find a verified labelling, prove none exists, or run out of budget.

    Near graceful searches target the constructive convention (omit m, use
    m+1); with ``permissive`` the general edge set [1, m] with vertices up to
    m+1 is tried as well.
    """
    m = spec.edge_count
    if m > HARD_CAP_EDGES:
        raise SpecTooLarge(f"{m} edges exceeds the search cap of {HARD_CAP_EDGES}")
    cycles = sorted(
        (length for length, count in spec.vanes for _ in range(count)), reverse=True
    )

    if mode == GRACEFUL:
        cap = max_label if max_label is not None else m
        targets = [(set(range(1, m + 1)), [v for v in range(1, cap + 1)])]
    elif mode == NEAR_GRACEFUL:
        cap = max_label if max_label is not None else m + 1
        near_vertices = [v for v in range(1, min(cap, m - 1) + 1)]
        if cap >= m + 1:
            near_vertices.append(m + 1)
        targets = [(set(range(1, m)) | {m + 1}, near_vertices)]
        if permissive:
            targets.append((set(range(1, m + 1)), [v for v in range(1, cap + 1)]))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    total_nodes = 0
    any_budget_hit = False
    for target_edges, allowed_vertices in targets:
        for outcome in _search_vanes(cycles, allowed_vertices, m, target_edges, node_budget):
            vanes, nodes, budget_hit = outcome
            if vanes is not None:
                labelling = Labelling(spec=spec, vanes=tuple(vanes), mode=mode)
                report = verify(labelling, permissive_near=permissive)
                if not report.ok:  # pragma: no cover - search and verifier agree
                    raise AssertionError(f"oracle produced a bad labelling: {report}")
                return SearchResult(FOUND, labelling, total_nodes + nodes, False)
            total_nodes += nodes
            any_budget_hit = any_budget_hit or budget_hit
            break  # sentinel reached
    if any_budget_hit:
        return SearchResult(BUDGET_EXHAUSTED, None, total_nodes, False)
    return SearchResult(NONE, None, total_nodes, True)


# ---------------------------------------------------------------------------
# Sequence search
# ---------------------------------------------------------------------------


def _kind_layout(kind: SequenceKind, n: int):
    """Symbol set, total length and hook cells for a search of nominal order n."""
    if kind.tag in ("near-skolem", "hooked-near-skolem"):
        symbols = sorted(kind.expected_symbols(n - 1), reverse=True)
    else:
        expected = kind.expected_symbols(n)
        if expected is None:
            raise ValueError(f"searching {kind.tag!r} needs an explicit symbol set")
        symbols = sorted(expected, reverse=True)
    order = len(symbols)
    length = 2 * kind.fold * order + (1 if kind.hooked else 0)
    hooks = {2 * kind.fold * order} if kind.hooked else set()
    return symbols, length, hooks


def search_sequence(
    kind: SequenceKind, n: int, enumerate_all: bool = False
) -> list[SkolemTypeSequence]:
    """Depth-first placement of symbols, largest first.

    Returns every sequence of the kind (``enumerate_all``) or the first one
    found; the empty list is an exhaustive negative.
    """
    cap = ENUM_CAP_ORDER if enumerate_all else FIND_CAP_ORDER
    if n > cap:
        raise OrderTooLarge(f"order {n} exceeds the cap of {cap}")
    symbols, length, hooks = _kind_layout(kind, n)
    if not symbols:
        # degenerate order: only the empty hook-free sequence can qualify
        if kind.hooked:
            return []
        empty = SkolemTypeSequence(())
        return [empty] if validate(empty, kind).ok else []
    entries = [0] * length
    free = [True] * (length + 1)
    for h in hooks:
        free[h] = False
    results: list[SkolemTypeSequence] = []
    fold = kind.fold

    def place(idx: int) -> bool:
        if idx == len(symbols):
            seq = SkolemTypeSequence(tuple(entries))
            report = validate(seq, kind)
            if not report.ok:  # pragma: no cover - layout and validator agree
                raise AssertionError(f"search produced invalid sequence: {report.violations}")
            results.append(seq)
            return not enumerate_all
        sym = symbols[idx]

        def pair_positions(start: int):
            for a in range(start, length - sym + 1):
                if free[a] and free[a + sym]:
                    yield a

        def put(a: int) -> None:
            free[a] = free[a + sym] = False
            entries[a - 1] = entries[a + sym - 1] = sym

        def take(a: int) -> None:
            free[a] = free[a + sym] = True
            entries[a - 1] = entries[a + sym - 1] = 0

        if fold == 1:
            for a in pair_positions(1):
                put(a)
                if place(idx + 1):
                    return True
                take(a)
        else:
            for a in pair_positions(1):
                put(a)
                for b in pair_positions(a + 1):  # ordered pairs of pairs
                    put(b)
                    if place(idx + 1):
                        return True
                    take(b)
                take(a)
        return False

    place(0)
    return results
