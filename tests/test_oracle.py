import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from windmills import oracle
from windmills.errors import OrderTooLarge, SpecTooLarge
from windmills.oracle import (
    BUDGET_EXHAUSTED,
    FOUND,
    NONE,
    _BudgetExhausted,
    _search_vanes,
    _triangles_fit,
    fixture_json_obj,
    search_labelling,
    search_sequence,
)
from windmills.sequences import KNOWN_TAGS, SequenceKind, SkolemTypeSequence, exists, validate
from windmills.windmill import GRACEFUL, NEAR_GRACEFUL, Labelling, WindmillSpec, labels, verify


def test_search_single_square():
    result = search_labelling(WindmillSpec.of((4, 1)), GRACEFUL)
    assert result.status == FOUND
    assert verify(result.labelling).ok
    assert (result.nodes, result.labelling.vanes) == (8, ((0, 3, 2, 4),))


def test_search_two_triangles_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((3, 2)), GRACEFUL)
    assert result.status == NONE
    assert result.exhaustive
    assert result.nodes == 2


def test_search_three_triangles_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((3, 3)), GRACEFUL)
    assert result.status == NONE and result.exhaustive
    assert result.nodes == 10


def test_search_two_pentagons_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((5, 2)), GRACEFUL)
    assert (result.status, result.nodes, result.exhaustive) == (NONE, 6101, True)


def test_search_single_triangle():
    result = search_labelling(WindmillSpec.of((3, 1)), GRACEFUL)
    assert result.status == FOUND
    # unique up to reversal and complement: {0,1,3} or its mirror {0,2,3}
    assert set(result.labelling.vanes[0]) in ({0, 1, 3}, {0, 2, 3})


def test_search_near_mode_and_permissive():
    strict = search_labelling(WindmillSpec.of((3, 2)), NEAR_GRACEFUL)
    assert strict.status == FOUND
    assert verify(strict.labelling).ok
    assert verify(strict.labelling, permissive_near=True).ok


def test_search_budget():
    result = search_labelling(WindmillSpec.of((3, 3), (4, 3)), GRACEFUL, node_budget=5)
    assert result.status == BUDGET_EXHAUSTED
    assert not result.exhaustive
    assert result.nodes == 6


def test_search_size_cap():
    with pytest.raises(SpecTooLarge):
        search_labelling(WindmillSpec.of((3, 20)), GRACEFUL)


def test_fixture_json_shape():
    spec = WindmillSpec.of((4, 1))
    result = search_labelling(spec, GRACEFUL)
    obj = fixture_json_obj(result, spec)
    assert obj["origin"] == "oracle"
    assert obj["exhaustive"] is False
    assert obj["spec"] == [{"cycle": 4, "count": 1}]
    assert obj["vanes"]


def test_search_sequence_basics():
    assert search_sequence(SequenceKind("skolem"), 2) == []
    hooked2 = search_sequence(SequenceKind("hooked-skolem"), 2, enumerate_all=True)
    assert [s.entries for s in hooked2] == [(1, 1, 2, 0, 2)]
    all4 = search_sequence(SequenceKind("skolem"), 4, enumerate_all=True)
    assert len(all4) == 6  # frozen after the first verified enumeration
    assert all(validate(s, SequenceKind("skolem")).ok for s in all4)


@pytest.mark.parametrize("kind", [SequenceKind("skolem"), SequenceKind("langford", defect=2)])
@pytest.mark.parametrize("n", [0, -3])
def test_search_sequence_order_below_one_rejected(kind, n):
    with pytest.raises(ValueError, match="order must be a positive integer"):
        search_sequence(kind, n)


def test_search_sequence_degenerate_order():
    # order 1 omitting its only symbol: the empty sequence is the one answer
    assert search_sequence(SequenceKind("near-skolem", defect=1), 1) == [SkolemTypeSequence(())]
    assert search_sequence(SequenceKind("hooked-near-skolem", defect=1), 1) == []


def test_search_sequence_cap():
    with pytest.raises(OrderTooLarge):
        search_sequence(SequenceKind("skolem"), 13, enumerate_all=True)


def test_search_twofold():
    found = search_sequence(SequenceKind("two-fold-skolem"), 3)
    assert found and validate(found[0], SequenceKind("two-fold-skolem")).ok


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("tag", ["skolem", "hooked-skolem", "two-fold-skolem"])
def test_agreement_with_existence_plain(tag, n):
    assert bool(search_sequence(SequenceKind(tag), n)) == exists(tag, n)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_agreement_with_existence_langford(n, d):
    for tag in ("langford", "hooked-langford"):
        got = bool(search_sequence(SequenceKind(tag, defect=d), n))
        assert got == exists(tag, n, defect=d)


def test_dispatcher_oracle_agreement_small():
    from windmills.families import label_c3, label_c3c4, label_c3c6

    cases = [
        (WindmillSpec.of((3, 4)), label_c3(4).mode),
        (WindmillSpec.of((3, 1), (4, 2)), label_c3c4(1, 2)[0].mode),
        (WindmillSpec.of((3, 2), (4, 2)), label_c3c4(2, 2)[0].mode),
        (WindmillSpec.of((3, 1), (6, 1)), label_c3c6(1, 1).mode),
    ]
    for spec, mode in cases:
        assert search_labelling(spec, mode).status == FOUND



def test_search_max_label_below_top():
    result = search_labelling(WindmillSpec.of((3, 1)), GRACEFUL, max_label=2)
    assert (result.status, result.nodes) == (NONE, 0)


@pytest.mark.parametrize("mode", [GRACEFUL, NEAR_GRACEFUL])
def test_search_max_label_above_top_is_ignored(mode):
    spec = WindmillSpec.of((4, 1))
    plain = search_labelling(spec, mode)
    assert search_labelling(spec, mode, max_label=7) == plain


def test_search_twofold_order_two_enumeration():
    found = search_sequence(SequenceKind("two-fold-skolem"), 2, enumerate_all=True)
    assert [s.to_text() for s in found] == [
        "2,2,2,2,1,1,1,1",
        "1,1,2,2,2,2,1,1",
        "1,1,1,1,2,2,2,2",
    ]


@pytest.mark.parametrize(
    "tag, n, count, first, last",
    [
        ("two-fold-skolem", 3, 12, "3,1,1,3,3,1,1,3,2,2,2,2", "1,1,1,1,2,3,2,3,3,2,3,2"),
        ("skolem", 5, 10, "5,2,4,2,3,5,4,3,1,1", "1,1,3,4,5,3,2,4,2,5"),
    ],
)
def test_search_sequence_enumeration_order(tag, n, count, first, last):
    found = [s.to_text() for s in search_sequence(SequenceKind(tag), n, enumerate_all=True)]
    assert (len(found), found[0], found[-1]) == (count, first, last)


@pytest.mark.parametrize(
    "spec, mode, nodes",
    [
        ("c3=2,c4=2", GRACEFUL, 77637),
        ("c3=6", GRACEFUL, 1018),
        ("c3=7", GRACEFUL, 6546),
        ("c3=2,c6=2", NEAR_GRACEFUL, 31011),
    ],
)
def test_search_heavy_node_counts(spec, mode, nodes):
    result = search_labelling(WindmillSpec.parse(spec), mode)
    assert result.nodes == nodes
    if mode == GRACEFUL:
        assert result.status == NONE
    else:
        assert result.status == FOUND and verify(result.labelling).ok
        assert result.labelling.vanes == (
            (0, 17, 16, 14, 3, 19),
            (0, 10, 4, 8, 1, 15),
            (0, 9, 12),
            (0, 5, 13),
        )


# every triangle (0, a, b) with a < b <= 15, by its smallest edge label
TRIANGLES_BY_LOW = {
    low: [(a, b) for b in range(3, 16) for a in range(1, b) if 2 * a != b and min(a, b - a) == low]
    for low in range(1, 8)
}


def triangle_completions(rest, spokes):
    """Every set of triangles (0, a, b), a < b, with a and b in ``spokes``, whose
    edges {a, b - a, b} are exactly ``rest``; one triangle covers min(rest)."""
    if not rest:
        yield ()
        return
    for a, b in TRIANGLES_BY_LOW.get(min(rest), ()):
        edges = {a, b - a, b}
        if edges <= rest and {a, b} <= spokes:
            for others in triangle_completions(rest - edges, spokes):
                yield ((a, b), *others)


def as_mask(values):
    return sum(1 << v for v in values)


FIT_SPOKES = [
    set(range(1, 16)),
    set(range(1, 16, 2)),
    set(range(2, 16, 2)),
    set(range(5, 16)),
    {v for v in range(1, 16) if v % 3},
    {1, 2, 4, 7, 8, 11, 13, 14, 15},
]


@pytest.mark.parametrize("k", range(4))
def test_triangles_fit_matches_brute_force(k):
    """The fit check passes exactly when some set of triangles completes the
    edge labels, over every 3k-subset of {1..15} and each spoke set."""
    fits = 0
    for rest in itertools.combinations(range(1, 16), 3 * k):
        rest = set(rest)
        for spokes in FIT_SPOKES:
            got, _ = _triangles_fit(as_mask(rest), as_mask(rest & spokes), 0, None)
            want = next(triangle_completions(rest, spokes), None) is not None
            assert got == want, (sorted(rest), sorted(spokes))
            fits += got
    assert fits == {0: 6, 1: 183, 2: 1470, 3: 2805}[k]


def test_triangles_fit_counts_and_bounds_its_splits():
    rest = as_mask(range(1, 13))  # the graceful C3^4 labels
    fits, nodes = _triangles_fit(rest, rest, 0, None)
    assert fits and nodes > 0
    assert _triangles_fit(rest, rest, 100, None) == (True, 100 + nodes)
    assert _triangles_fit(rest, rest, 0, nodes) == (True, nodes)
    with pytest.raises(_BudgetExhausted) as exc:
        _triangles_fit(rest, rest, 0, nodes - 1)
    assert exc.value.nodes == nodes
    # the largest label must be a vertex, and so one of each split's halves
    assert _triangles_fit(rest, rest ^ 1 << 12, 0, None) == (False, 0)
    assert _triangles_fit(as_mask({1, 2, 3}), as_mask({3}), 0, None) == (False, 0)


# Every c3..c6 mix with at most 12 edges, in both modes, with every vertex
# label (G, N) and with labels up to m - 2 (g, n).  Past 12 edges, the
# searches of that grid up to 24 edges that the search without the triangle
# fit decided within 500,000 nodes.
ORACLE_GRID_ABOVE_12 = """
c6=3:N c5=1,c6=2:N c5=2,c6=1:G c5=3:Ggn c4=1,c6=2:G c4=1,c5=1,c6=1:G
c4=1,c5=2:gNn c4=2,c6=1:gNn c4=2,c5=1:GgNn c4=2,c5=1,c6=1:G c4=3,c6=1:N
c4=3,c5=1:N c4=4:Ggn c4=5:G c3=1,c6=2:G c3=1,c5=1,c6=1:gNn c3=1,c5=2:GgNn
c3=1,c5=2,c6=1:G c3=1,c5=3:N c3=1,c4=1,c6=1:gNn c3=1,c4=1,c6=2:G
c3=1,c4=1,c5=1,c6=1:N c3=1,c4=1,c5=2:N c3=1,c4=2,c6=1:N c3=1,c4=2,c5=1:G
c3=1,c4=3:Ggn c3=1,c4=3,c6=1:N c3=1,c4=4:G c3=2,c6=2:N c3=2,c5=1,c6=1:N
c3=2,c5=2:G c3=2,c4=1,c6=1:G c3=2,c4=1,c5=1:Ggn c3=2,c4=2:GgNn
c3=2,c4=2,c6=1:G c3=2,c4=3:N c3=3,c6=1:Ggn c3=3,c5=1:GgNn c3=3,c5=1,c6=1:G
c3=3,c5=2:G c3=3,c4=1:GgNn c3=3,c4=1,c6=1:G c3=3,c4=1,c5=1:N c3=3,c4=2:N
c3=4,c6=1:N c3=4,c5=1:gNn c3=4,c4=1:GgNn c3=4,c4=1,c6=1:N c3=4,c4=2:G
c3=5:GgNn c3=5,c6=1:N c3=5,c5=1:G c3=5,c4=1:G c3=6:GgNn c3=6,c6=1:G
c3=6,c5=1:G c3=6,c4=1:N c3=7:GgNn c3=8:G
"""
# sha256 over (spec, mode, max_label, status, vanes) of the 194 searches of
# ``oracle_grid``, recorded before the triangle fit
ORACLE_GRID = "ea0a2b5ec43d431002e7d77482a03917b99bf17e5b3c364621bf3ba88ca777ae"


def oracle_grid():
    above = dict(item.split(":") for item in ORACLE_GRID_ABOVE_12.split())
    for t, s, p, h in itertools.product(range(9), range(7), range(5), range(5)):
        m = 3 * t + 4 * s + 5 * p + 6 * h
        if not 0 < m <= 24:
            continue
        spec = ",".join(f"c{l}={c}" for l, c in ((3, t), (4, s), (5, p), (6, h)) if c)
        for mode, key in ((GRACEFUL, "g"), (NEAR_GRACEFUL, "n")):
            for max_label, letter in ((None, key.upper()), (m - 2, key)):
                if m <= 12 or letter in above.get(spec, ""):
                    yield spec, mode, max_label


def test_oracle_grid_outputs_are_pinned():
    """Every verdict and first labelling of the grid; node counts are not hashed."""
    digest = hashlib.sha256()
    count = 0
    for spec, mode, max_label in oracle_grid():
        result = search_labelling(WindmillSpec.parse(spec), mode, max_label)
        vanes = result.labelling.vanes if result.labelling else None
        digest.update(f"{spec} {mode} {max_label} {result.status} {vanes}\n".encode())
        count += 1
    assert count == 194
    assert digest.hexdigest() == ORACLE_GRID


# sha256 over (spec, mode, max_label, status, nodes) of the same 194 searches,
# recorded before the inline fit test of ``_search_vanes``
ORACLE_GRID_NODES = "f5c28da6c3b4275c3a83688d333f612b218d0912680325a11a0b26ada88b0ed0"


def test_oracle_grid_node_counts_are_pinned():
    """Every verdict and node count of the grid, so a change that only makes
    a node cheaper shows that it moved no count."""
    digest = hashlib.sha256()
    for spec, mode, max_label in oracle_grid():
        result = search_labelling(WindmillSpec.parse(spec), mode, max_label)
        digest.update(f"{spec} {mode} {max_label} {result.status} {result.nodes}\n".encode())
    assert digest.hexdigest() == ORACLE_GRID_NODES


# ---------------------------------------------------------------------------
# The per-value loops the bitmask searches replaced, kept as references
# ---------------------------------------------------------------------------


def reference_triangles_fit(rest, spokes, nodes, node_budget=None):
    """``_triangles_fit`` over sets: its splits in its order, counted in ``nodes``."""
    if not rest:
        return True
    z = max(rest)
    if z not in spokes:
        return False
    for y in range(z - 1, z // 2, -1):
        x = z - y
        if {x, y} <= rest and {x, y} & spokes:
            nodes[0] += 1
            if node_budget is not None and nodes[0] > node_budget:
                raise _BudgetExhausted(nodes[0])
            if reference_triangles_fit(rest - {x, y, z}, spokes, nodes, node_budget):
                return True
    return False


def reference_labellings(cycles, vertices, edges, flip, node_budget=None, nodes=None, fit=False):
    """Every vane assignment the per-value loop of ``_search_vanes`` reaches, in order.

    The loop from before the bitmask kernel.  Without ``flip`` it is the
    unreduced search, which cuts only by orientation and by the order of
    equal vanes; ``flip`` adds the triangle flip in per-value form, and
    ``fit`` the triangle fit.  The one-item list ``nodes`` counts the nodes
    visited.
    """
    nodes = [0] if nodes is None else nodes
    vanes = [[0] * length for length in cycles]
    allowed = set(vertices)
    used = set()
    descending = sorted(vertices, reverse=True)
    first_triangle = cycles.index(3) if 3 in cycles else None

    def rec(idx, pos, mask):
        if idx == len(cycles):
            yield [tuple(vane) for vane in vanes]
            return
        if fit and pos == 1 and idx == first_triangle:
            free_edges = {e for e in edges if mask >> e & 1}
            spokes = free_edges & (allowed - used)
            if not reference_triangles_fit(free_edges, spokes, nodes, node_budget):
                return
        length = cycles[idx]
        vane = vanes[idx]
        prev = vane[pos - 1]
        last = pos == length - 1
        cap = None
        if pos == 1 and idx > 0 and cycles[idx - 1] == length:
            cap = vanes[idx - 1][1]
        for v in descending:
            if v in used or (cap is not None and v >= cap):
                continue
            bit = 1 << abs(v - prev)
            if not mask & bit:
                continue
            rest = mask & ~bit
            if last:
                closing = 1 << v
                if v <= vane[1] or not rest & closing:
                    continue
                rest &= ~closing
                # the flip (0, b - a, b) of this triangle (0, a, b) is searched instead
                if flip and length == 3 and v <= 2 * prev and v - prev in allowed - used:
                    continue
            nodes[0] += 1
            if node_budget is not None and nodes[0] > node_budget:
                raise _BudgetExhausted(nodes[0])
            vane[pos] = v
            used.add(v)
            yield from rec(idx + 1, 1, rest) if last else rec(idx, pos + 1, rest)
            used.remove(v)

    yield from rec(0, 1, sum(1 << e for e in edges))


def reference_search_vanes(cycles, vertices, edges, node_budget, flip=True, fit=True):
    """The first labelling of ``reference_labellings`` and the nodes it took."""
    nodes = [0]
    first = next(reference_labellings(cycles, vertices, edges, flip, node_budget, nodes, fit), None)
    return first, nodes[0]


def reference_search_sequence(kind, n, enumerate_all=False):
    """The per-cell loop of ``search_sequence`` before its bitmask kernel."""
    symbols = oracle._symbols(kind, n)
    if not symbols:
        if kind.hooked:
            return []
        empty = SkolemTypeSequence(())
        return [empty] if validate(empty, kind).ok else []
    slots = [sym for sym in symbols for _ in range(kind.fold)]
    length = 2 * len(slots) + kind.hooked
    entries = [0] * length
    free = [True] * (length + 1)
    if kind.hooked:
        free[length - 1] = False
    results = []

    def place(idx, start):
        if idx == len(slots):
            results.append(SkolemTypeSequence(tuple(entries)))
            return not enumerate_all
        sym = slots[idx]
        for a in range(start, length - sym + 1):
            if free[a] and free[a + sym]:
                free[a] = free[a + sym] = False
                entries[a - 1] = entries[a + sym - 1] = sym
                if place(idx + 1, a + 1 if slots[idx + 1 : idx + 2] == [sym] else 1):
                    return True
                free[a] = free[a + sym] = True
        return False

    place(0, 1)
    return results


def vanes_outcome(search, cycles, vertices, edges, node_budget):
    try:
        vanes, nodes = search(cycles, vertices, edges, node_budget)
    except _BudgetExhausted as exc:
        return ("budget", exc.nodes)
    return (vanes or None, nodes)


CRITERION_7_SPECS = (
    [f"c3={t}" for t in range(1, 7)]
    + [f"c5={p}" for p in range(1, 4)]
    + [f"c3={t},c4={s}" for t, s in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]]
    + [f"c3={t},c5={p}" for t, p in [(1, 1), (3, 1), (4, 1)]]
    + [f"c3={t},c6={h}" for t, h in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2)]]
)


def search_targets(spec, mode):
    """(cycles, vertices, edges) of the strict and the permissive search."""
    m = spec.edge_count
    cycles = sorted((l for l, c in spec.vanes for _ in range(c)), reverse=True)
    return [
        (cycles, labels(m, mode), labels(m, mode)),
        (cycles, labels(m + 1, GRACEFUL), labels(m, GRACEFUL)),
    ]


@pytest.mark.parametrize("mode", [GRACEFUL, NEAR_GRACEFUL])
@pytest.mark.parametrize("text", CRITERION_7_SPECS)
def test_search_vanes_matches_reference(text, mode):
    spec = WindmillSpec.parse(text)
    m = spec.edge_count
    for cycles, vertices, edges in search_targets(spec, mode):
        for max_label in (None, m - 1, 3):
            cut = [v for v in vertices if max_label is None or v <= max_label]
            for budget in (0, 7, 300, 20000):
                args = (cycles, cut, edges, budget)
                want = vanes_outcome(reference_search_vanes, *args)
                assert vanes_outcome(_search_vanes, *args) == want, (max_label, budget)


def test_search_vanes_verdicts_match_unreduced_search():
    """The verdicts the unreduced loop reaches within 10,000 nodes are the
    kernel's, the cuts only remove nodes, and every labelling found verifies."""
    decided = {FOUND: 0, NONE: 0}
    for text in CRITERION_7_SPECS:
        spec = WindmillSpec.parse(text)
        m = spec.edge_count
        for mode in (GRACEFUL, NEAR_GRACEFUL):
            for permissive, (cycles, vertices, edges) in enumerate(search_targets(spec, mode)):
                for max_label in (None, m - 1, m - 3, 5):
                    cut = [v for v in vertices if max_label is None or v <= max_label]
                    try:
                        want, unreduced_nodes = reference_search_vanes(
                            cycles, cut, edges, 10_000, flip=False, fit=False
                        )
                    except _BudgetExhausted:
                        continue
                    case = (text, mode, permissive, max_label)
                    vanes, nodes = _search_vanes(cycles, cut, edges, None)
                    assert (vanes is None) == (want is None), case
                    if vanes is None:
                        decided[NONE] += 1
                        assert nodes <= unreduced_nodes, case
                        continue
                    decided[FOUND] += 1
                    labelling = Labelling(
                        spec=spec, vanes=vanes, mode=NEAR_GRACEFUL if permissive else mode
                    )
                    assert verify(labelling, permissive_near=bool(permissive)).ok, case
    # 277 of the 432 searches; the other 155 need more than 10,000 unreduced nodes
    assert decided == {FOUND: 52, NONE: 225}


# every labelling of the unreduced space in both modes: 3,747 in all
@pytest.mark.parametrize(
    "cycles, count",
    [
        ((4, 3), 15),
        ((5, 3), 40),
        ((6, 3), 111),
        ((4, 3, 3), 168),
        ((4, 4, 3), 414),
        ((5, 3, 3), 376),
        ((6, 3, 3), 1267),
        ((4, 3, 3, 3), 1356),
    ],
)
def test_triangle_flip_keeps_a_labelling_on_every_vertex_set(cycles, count):
    """Given only the vertex labels of any labelling, the kernel still finds one.

    A cut that flips a triangle (0, a, b) whose b - a another vane already
    uses loses such labellings; a verdict-only comparison misses that.
    """
    cycles = list(cycles)
    seen = 0
    for mode in (GRACEFUL, NEAR_GRACEFUL):
        target = labels(sum(cycles), mode)
        for vanes in reference_labellings(cycles, target, target, flip=False):
            used = sorted({v for vane in vanes for v in vane[1:]})
            assert _search_vanes(cycles, used, target, None)[0] is not None, vanes
            seen += 1
    assert seen == count


@pytest.mark.parametrize("cycles", [[3, 4], [3, 3, 4], [4, 3, 5]])
def test_search_vanes_needs_cycles_longest_first(cycles):
    target = labels(sum(cycles), GRACEFUL)
    with pytest.raises(ValueError, match="longest first"):
        _search_vanes(cycles, target, target, None)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=3, max_value=8), min_size=1, max_size=4).filter(
        lambda cycles: sum(cycles) <= 12
    ),
    st.sampled_from([GRACEFUL, NEAR_GRACEFUL]),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=1, max_value=13)),
    st.sampled_from([0, 7, 300, 20000]),
)
def test_search_vanes_matches_reference_on_random_cycles(
    cycles, mode, permissive, max_label, budget
):
    cycles = sorted(cycles, reverse=True)
    spec = WindmillSpec.of(*((l, cycles.count(l)) for l in sorted(set(cycles))))
    _, vertices, edges = search_targets(spec, mode)[permissive]
    cut = [v for v in vertices if max_label is None or v <= max_label]
    args = (cycles, cut, edges, budget)
    assert vanes_outcome(_search_vanes, *args) == vanes_outcome(reference_search_vanes, *args)


def sequence_kinds(n, twofold_max):
    gapped = frozenset(range(1, n + 2)) - {2}
    yield SequenceKind("skolem")
    yield SequenceKind("hooked-skolem")
    yield SequenceKind("skolem-type", symbols=gapped)
    for d in range(1, n + 1):
        yield SequenceKind("near-skolem", defect=d)
        yield SequenceKind("hooked-near-skolem", defect=d)
    for d in range(1, (n + 3) // 2):
        yield SequenceKind("langford", defect=d)
        yield SequenceKind("hooked-langford", defect=d)
    if n <= twofold_max:
        yield SequenceKind("two-fold-skolem")
        yield SequenceKind("two-fold-skolem-type", symbols=gapped)
        for d in range(2, (n + 3) // 2):  # defect 1 is the two-fold Skolem tree
            yield SequenceKind("two-fold-langford", defect=d)


# enumerating the 79,238 two-fold Skolem sequences of order 6 takes about 14 s;
# the reference's find searches of order 11 take about 27 s
@pytest.mark.parametrize(
    "n, enumerate_all, twofold_max",
    [(n, False, 6) for n in range(1, 11)] + [(n, True, 5) for n in range(1, 9)],
)
def test_search_sequence_matches_reference(n, enumerate_all, twofold_max):
    """Byte-identical results: the reversal cut keeps a find search's first
    sequence, and enumerations do not use it."""
    for kind in sequence_kinds(n, twofold_max):
        want = reference_search_sequence(kind, n, enumerate_all)
        assert search_sequence(kind, n, enumerate_all) == want, kind


def every_tag(n):
    """A kind of every known tag at order ``n``, with defects 1-3 where the
    tag takes one and the symbols ``1..n + 1`` less 2 for the *-type tags."""
    for tag in KNOWN_TAGS:
        if tag.endswith("-type"):
            yield SequenceKind(tag, symbols=frozenset(range(1, n + 2)) - {2})
        elif "near" in tag or "langford" in tag:
            yield from (SequenceKind(tag, defect=d) for d in (1, 2, 3))
        else:
            yield SequenceKind(tag)


# sha256 over every result of ``every_tag`` searches, in order: finds up to
# order 10 and enumerations up to order 9, the two-fold kinds up to orders 8
# and 4; recorded before the path-tracking kernel of ``search_sequence``
SEQUENCE_GRID = "9bbc15314b97293691f54547f4345319e560e5408b1d802e51eb7945974548ca"


def test_sequence_search_outputs_are_pinned():
    digest = hashlib.sha256()
    for enumerate_all, top, twofold_top in ((False, 10, 8), (True, 9, 4)):
        for n in range(1, top + 1):
            for kind in every_tag(n):
                if kind.fold == 2 and n > twofold_top:
                    continue
                try:
                    found = [seq.to_text() for seq in search_sequence(kind, n, enumerate_all)]
                except ValueError as exc:  # a near-Skolem defect above the order
                    found = type(exc).__name__
                digest.update(f"{kind} {n} {enumerate_all} {found}\n".encode())
    assert digest.hexdigest() == SEQUENCE_GRID


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("enumerate_all", [False, True])
def test_search_sequence_oversized_symbol_is_exhaustive_negative(n, enumerate_all):
    """A largest symbol longer than the sequence leaves the reversal cut no
    left end: the search is an exhaustive negative, as in the reference."""
    oversized = [SequenceKind(tag, defect=d) for d in range(n + 3, n + 6)
                 for tag in ("langford", "hooked-langford")]
    oversized.append(SequenceKind("skolem-type", symbols=frozenset([*range(1, n), 2 * n + 1])))
    for kind in oversized:
        assert search_sequence(kind, n, enumerate_all) == [], kind
        assert reference_search_sequence(kind, n, enumerate_all) == [], kind
