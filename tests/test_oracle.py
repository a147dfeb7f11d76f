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
    fixture_json_obj,
    search_labelling,
    search_sequence,
)
from windmills.sequences import SequenceKind, SkolemTypeSequence, exists, validate
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
    assert result.nodes == 14


def test_search_three_triangles_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((3, 3)), GRACEFUL)
    assert result.status == NONE and result.exhaustive
    assert result.nodes == 69


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
    assert (result.status, result.nodes) == (NONE, 2)


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
        ("c3=2,c4=2", GRACEFUL, 314095),
        ("c3=6", GRACEFUL, 39058),
        ("c3=2,c6=2", NEAR_GRACEFUL, 59644),
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


# ---------------------------------------------------------------------------
# The per-value loops the bitmask searches replaced, kept as references
# ---------------------------------------------------------------------------


def reference_labellings(cycles, vertices, edges, flip, node_budget=None, nodes=None):
    """Every vane assignment the per-value loop of ``_search_vanes`` reaches, in order.

    The loop from before the bitmask kernel.  Without ``flip`` it is the
    unreduced search, which cuts only by orientation and by the order of
    equal vanes; ``flip`` adds the triangle flip in per-value form.  The
    one-item list ``nodes`` counts the nodes visited.
    """
    nodes = [0] if nodes is None else nodes
    vanes = [[0] * length for length in cycles]
    allowed = set(vertices)
    used = set()
    descending = sorted(vertices, reverse=True)

    def rec(idx, pos, mask):
        if idx == len(cycles):
            yield [tuple(vane) for vane in vanes]
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


def reference_search_vanes(cycles, vertices, edges, node_budget, flip=True):
    """The first labelling of ``reference_labellings`` and the nodes it took."""
    nodes = [0]
    first = next(reference_labellings(cycles, vertices, edges, flip, node_budget, nodes), None)
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
                            cycles, cut, edges, 10_000, flip=False
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
