from collections import Counter
from dataclasses import replace

import pytest

from windmills.errors import (
    BoundViolation,
    MissingRequiredTriangle,
    NotInTable,
    OutOfRange,
    TooManyHexagons,
    UnsupportedCombination,
)
from windmills.families import (
    GAP,
    RULES,
    ConstructionTrace,
    _is_straddling,
    _straddling_hooked,
    base_case_c3c4,
    coverage_audit,
    extend_c3c4,
    label_c3,
    label_c3c4,
    label_c3c5,
    label_c3c6,
    label_c5,
    replay,
)
from windmills.sequences import SequenceKind, gen_hooked_skolem, validate
from windmills.windmill import (
    GRACEFUL,
    NEAR_GRACEFUL,
    edge_multiset,
    expected_mode,
    verify,
)

EXPECTED_GAPS = [(1, 21), (1, 25), (2, 25), (3, 20), (3, 25)]


def same_cycle(vane, other):
    return vane == other or vane == (0,) + tuple(reversed(other[1:]))


# -- triangle and 5-cycle windmills -------------------------------------------


def test_label_c3_small():
    lab1 = label_c3(1)
    assert lab1.vanes == ((0, 2, 3),)
    assert lab1.mode == GRACEFUL

    lab3 = label_c3(3)
    assert lab3.mode == NEAR_GRACEFUL
    assert lab3.vanes == ((0, 5, 6), (0, 8, 10), (0, 4, 7))

    lab8 = label_c3(8)
    assert lab8.mode == GRACEFUL and verify(lab8).ok
    assert lab8.spec.edge_count == 24


def test_label_c5():
    assert label_c5(3).vanes == ((0, 15, 1, 14, 12), (0, 5, 6, 3, 10), (0, 9, 13, 2, 8))
    lab1 = label_c5(1)
    assert lab1.mode == NEAR_GRACEFUL
    assert lab1.vanes == ((0, 6, 2, 1, 3),)
    lab4 = label_c5(4)
    assert lab4.mode == GRACEFUL and lab4.spec.edge_count == 20
    with pytest.raises(OutOfRange):
        label_c5(0)


@pytest.mark.parametrize("p", range(1, 21))
def test_label_c5_modes(p):
    lab = label_c5(p)
    assert verify(lab).ok
    assert (lab.mode == GRACEFUL) == (p % 4 in (0, 3))


# -- triangle + square dispatch -----------------------------------------------


def test_label_c3c4_figure_cell():
    lab, trace = label_c3c4(4, 3)
    assert lab.spec.vanes == ((3, 4), (4, 3))
    assert lab.mode == GRACEFUL and lab.spec.edge_count == 24
    assert trace.rule == "twofold-direct"
    assert verify(lab).ok


def test_label_c3c4_worked_extension_cell():
    lab, trace = label_c3c4(4, 100)
    assert lab.mode == GRACEFUL and verify(lab).ok
    assert trace.rule == "extension-case1"
    assert trace.parameters["k"] == 20 and trace.parameters["s_base"] == 21
    assert replay(trace)


def test_label_c3c4_parity_table_cell():
    lab, trace = label_c3c4(5, 40)
    assert lab.mode == GRACEFUL and verify(lab).ok


def test_label_c3c4_base_case_cell():
    lab, trace = label_c3c4(2, 7)
    assert trace.rule == "base-case"
    assert lab.mode == NEAR_GRACEFUL and verify(lab).ok


def test_label_c3c4_s_zero_delegates():
    lab, trace = label_c3c4(7, 0)
    assert trace.rule == "triangles-only"
    assert lab.spec.vanes == ((3, 7),)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("s", [0, 1, 5, 13, 25, 44, 60])
def test_label_c3c4_spot_cells(t, s):
    lab, trace = label_c3c4(t, s)
    report = verify(lab)
    assert report.ok
    assert (lab.mode == GRACEFUL) == (t % 4 in (0, 1))
    assert lab.mode == expected_mode(lab.spec)
    assert replay(trace)
    assert all(node.rule in RULES for node in trace.walk())


@pytest.mark.parametrize("t,s", [(4, 18), (4, 22), (6, 54), (6, 60), (4, 44), (5, 51)])
def test_label_c3c4_tricky_cells(t, s):
    # cells near construction corners: tail-block collisions, deep extensions
    lab, trace = label_c3c4(t, s)
    assert verify(lab).ok and replay(trace)


@pytest.mark.parametrize("t,s", [(70, 490), (99, 693), (100, 600), (1, 200), (2, 100)])
def test_label_c3c4_tall_cells(t, s):
    # far outside the audited sweep: deep recursion, straddled bases, fixtures
    lab, trace = label_c3c4(t, s)
    assert verify(lab).ok and replay(trace)
    assert lab.mode == expected_mode(lab.spec)


def test_composite_rules_edge_shape():
    # composite cells must use exactly the contiguous edge block [1, 4s+3t]
    for t, s in [(4, 15), (4, 21), (5, 17), (7, 25), (8, 30), (9, 44)]:
        lab, trace = label_c3c4(t, s)
        assert trace.rule in (
            "langford-block",
            "langford-plus-twofold",
            "composite-low",
            "composite-high",
        ), (t, s, trace.rule)
        m = 4 * s + 3 * t
        got = sorted(edge_multiset(lab).elements())
        if t % 4 in (0, 1):
            assert got == list(range(1, m + 1))
        else:
            assert got == list(range(1, m)) + [m + 1]


# -- the square-block extension -----------------------------------------------


def test_extend_near_case_from_base_table():
    base = base_case_c3c4(2, 2)
    assert any(set(v) == {0, 13, 15} for v in base.vanes if len(v) == 3)
    lab = extend_c3c4(base, 5, 3)
    assert lab.spec.vanes == ((3, 2), (4, 21))
    assert lab.mode == NEAR_GRACEFUL and verify(lab).ok
    # the replacement triangle enables iterating the extension
    m = lab.spec.edge_count
    assert any(set(v) == {0, m - 1, m + 1} for v in lab.vanes if len(v) == 3)


def test_extend_graceful_case():
    base, _ = label_c3c4(4, 21)
    lab = extend_c3c4(base, 20, 1)
    assert lab.spec.vanes == ((3, 4), (4, 100))
    assert verify(lab).ok


def test_extend_iterates():
    # the replacement triangles make the output extendable again
    first = extend_c3c4(base_case_c3c4(2, 2), 5, 3)  # -> 21 squares
    second = extend_c3c4(first, 16, 3)  # -> 84 squares
    assert second.spec.vanes == ((3, 2), (4, 84))
    assert verify(second).ok
    m = second.spec.edge_count
    assert any(set(v) == {0, m - 1, m + 1} for v in second.vanes if len(v) == 3)


def test_extend_bound_violation():
    base, _ = label_c3c4(4, 3)
    with pytest.raises(BoundViolation):
        extend_c3c4(base, 1, 1)
    with pytest.raises(BoundViolation):
        extend_c3c4(base, 5, 2)  # wrong case for t = 0 (mod 4)


def test_extend_missing_triangle():
    base, _ = label_c3c4(3, 1)  # direct recipe lacks the replaceable triangles
    with pytest.raises(MissingRequiredTriangle):
        extend_c3c4(base, 3, 4)


@pytest.mark.parametrize("t,s", [(2, 24), (2, 30), (3, 30), (6, 55)])
def test_extension_closure_on_near_cells(t, s):
    # near outputs that came through the extension still carry the triangles
    lab, trace = label_c3c4(t, s)
    assert trace.rule.startswith("extension-case")
    assert verify(lab).ok
    m = lab.spec.edge_count
    if t % 4 == 2:
        needed = [{0, m - 1, m + 1}]
    else:
        needed = [{0, m - 2, m - 1}, {0, m - 3, m + 1}]
    vane_sets = [set(v) for v in lab.vanes if len(v) == 3]
    for triangle in needed:
        assert triangle in vane_sets, (t, s, triangle)


# -- catalogued base cases ----------------------------------------------------


def test_base_case_values():
    lab = base_case_c3c4(1, 2)
    assert set(lab.vanes) == {(0, 3, 2, 6), (0, 5, 7), (0, 9, 1, 11)}
    assert lab.mode == GRACEFUL

    lab21 = base_case_c3c4(2, 1)
    assert set(lab21.vanes) == {(0, 5, 2, 6), (0, 7, 8), (0, 9, 11)}
    assert lab21.mode == NEAR_GRACEFUL

    with pytest.raises(NotInTable):
        base_case_c3c4(3, 20)
    with pytest.raises(NotInTable):
        base_case_c3c4(4, 1)


def test_base_case_rows_all_verify():
    for t, top in ((1, 20), (2, 20), (3, 19)):
        for s in range(1, top + 1):
            lab = base_case_c3c4(t, s)
            assert verify(lab).ok
            assert lab.mode == expected_mode(lab.spec)


# -- triangle + 5-cycle -------------------------------------------------------

WORKED_FIVES = [(0, 43, 7, 8, 40), (0, 38, 4, 2, 37), (0, 44, 3, 6, 39), (0, 46, 1, 5, 47)]
WORKED_TRIPLES = [
    (0, 18, 23), (0, 22, 28), (0, 17, 24), (0, 21, 29), (0, 16, 25),
    (0, 20, 30), (0, 15, 26), (0, 19, 31), (0, 14, 27),
]


def test_label_c3c5_worked_example():
    lab = label_c3c5(9, 4)
    assert lab.mode == GRACEFUL and verify(lab).ok
    fives = [v for v in lab.vanes if len(v) == 5]
    triples = [v for v in lab.vanes if len(v) == 3]
    assert triples == WORKED_TRIPLES
    assert len(fives) == len(WORKED_FIVES)
    for mine, published in zip(fives, WORKED_FIVES):
        assert same_cycle(mine, published), (mine, published)


def test_label_c3c5_fixture():
    lab = label_c3c5(1, 1)
    assert set(lab.vanes) == {(0, 5, 7), (0, 8, 4, 3, 6)}
    assert lab.mode == GRACEFUL


def test_label_c3c5_uncovered():
    with pytest.raises(UnsupportedCombination):
        label_c3c5(2, 4)  # below the 2p+1 bound
    with pytest.raises(UnsupportedCombination):
        label_c3c5(10, 4)  # residue pair outside the covered grid


@pytest.mark.parametrize("p", range(1, 9))
def test_label_c3c5_grid(p):
    covered = 0
    for t in range(2 * p + 1, 2 * p + 10):
        try:
            lab = label_c3c5(t, p)
        except UnsupportedCombination:
            continue
        covered += 1
        assert verify(lab).ok
        assert lab.mode == expected_mode(lab.spec)
    assert covered == 5  # half the residue grid, see the labelling bound


# -- triangle + hexagon -------------------------------------------------------


def test_label_c3c6_single_merge():
    lab = label_c3c6(1, 1)
    assert set(lab.vanes) == {(0, 2, 10), (0, 6, 1, 4, 3, 7)}
    assert lab.mode == NEAR_GRACEFUL and verify(lab).ok


def test_label_c3c6_all_three_merges():
    lab = label_c3c6(2, 3)
    assert lab.mode == GRACEFUL and verify(lab).ok
    assert sum(len(v) == 6 for v in lab.vanes) == 3


def test_label_c3c6_too_many():
    with pytest.raises(TooManyHexagons):
        label_c3c6(1, 4)


def test_label_c3c6_preserves_triangle_edge_multiset():
    for t, h in [(2, 3), (4, 1), (5, 5), (10, 10)]:
        n = t + 2 * h
        merged = label_c3c6(t, h)
        plain = label_c3c6(n, 0)
        assert edge_multiset(merged) == edge_multiset(plain)


@pytest.mark.parametrize("t,h", [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2), (12, 20), (20, 20)])
def test_label_c3c6_cells(t, h):
    lab = label_c3c6(t, h)
    assert verify(lab).ok
    assert lab.mode == expected_mode(lab.spec)


# -- audit ----------------------------------------------------------------


def test_coverage_audit_expected_gaps():
    grid = coverage_audit(3, 30)
    gaps = sorted(cell for cell, rule in grid.items() if rule == GAP)
    assert gaps == EXPECTED_GAPS
    assert grid[(1, 8)] == "base-case"
    assert grid[(3, 22)] == "extension"


def test_coverage_audit_matches_dispatch_rules():
    assert coverage_audit(10, 12)[(10, 10)] == "twofold-direct"
    # (3, 110) holds the straddled base-case cells such as (3, 22) and the
    # cells whose smallest-k base is a gap fixture such as (1, 84), (3, 79)
    for t_max, s_max in [(10, 12), (3, 110)]:
        for (t, s), rule in coverage_audit(t_max, s_max).items():
            lab, trace = label_c3c4(t, s)
            assert replay(trace), (t, s)
            if rule == "extension":
                assert trace.rule.startswith("extension-case")
            elif rule == GAP:
                assert trace.rule == "gap-fixture"
            else:
                assert trace.rule == rule, (t, s, rule, trace.rule)


def test_straddled_base_case_trace():
    _, trace = label_c3c4(3, 22)
    assert trace.format() == "extension-case4(t=3, s=22, k=5, s_base=3)\n  base-case(t=3, s=3)"


@pytest.mark.parametrize(
    "t,entries",
    [
        (7, (7, 5, 2, 6, 2, 3, 5, 7, 3, 6, 4, 1, 1, 0, 4)),
        (10, (10, 8, 6, 4, 9, 7, 5, 4, 6, 8, 10, 5, 7, 9, 3, 1, 1, 3, 2, 0, 2)),
        (
            11,
            (11, 9, 5, 10, 2, 7, 2, 5, 8, 6, 9, 11, 7, 10, 3, 6, 8, 3, 4, 1, 1, 0, 4),
        ),
    ],
)
def test_straddling_hooked_search_first_solution(t, entries):
    assert _straddling_hooked(t).entries == entries


def test_straddling_hooked_carries_hook_adjacent_pairs():
    for t in range(7, 22):
        if t % 4 in (2, 3):
            seq = _straddling_hooked(t)
            assert validate(seq, SequenceKind("hooked-skolem")).ok, t
            assert _is_straddling(seq, t), t


def test_straddled_langford_base_trace():
    # the closed-form hooked sequence of order 7 does not straddle the hook,
    # so the base of this extension takes its triangles from the search
    assert not _is_straddling(gen_hooked_skolem(7), 7)
    lab, trace = label_c3c4(7, 70)
    assert verify(lab).ok
    assert trace.format() == (
        "extension-case4(t=7, s=70, k=14, s_base=15)\n  langford-block(t=7, s=15, defect=8)"
    )


def test_replay_rejects_unbuildable_base():
    # a straddled order-3 base cannot come from the direct recipe
    _, trace = label_c3c4(3, 22)
    direct = ConstructionTrace(
        "twofold-direct", {"t": 3, "s": 3, "c_squares": 3, "c_triangles": 15}
    )
    assert not replay(replace(trace, children=(direct,)))


@pytest.mark.parametrize("dk", [-1, 1])
def test_replay_rejects_extension_k_off_by_one(dk):
    _, trace = label_c3c4(4, 100)
    p = trace.parameters
    k, s_base = p["k"] + dk, p["s_base"] - 4 * dk
    _, base_trace = label_c3c4(4, s_base)
    tampered = replace(
        trace, parameters={**p, "k": k, "s_base": s_base}, children=(base_trace,)
    )
    assert not replay(tampered)


def test_replay_rejects_relabelled_rule():
    _, trace = label_c3c4(4, 3)
    assert trace.rule == "twofold-direct"
    assert not replay(replace(trace, rule="twofold-parity"))
    assert not replay(ConstructionTrace("twofold-parity", {"t": 4, "s": 3, "table": "odd"}))


def test_gap_cells_still_label():
    for t, s in EXPECTED_GAPS:
        lab, trace = label_c3c4(t, s)
        assert trace.rule == "gap-fixture"
        assert verify(lab).ok
        assert lab.mode == expected_mode(lab.spec)


def test_parameter_guards():
    from windmills.errors import Unlabellable

    with pytest.raises(Unlabellable):
        label_c3c4(0, 5)  # pure square windmills are not covered
    with pytest.raises(OutOfRange):
        label_c3c4(3, -1)
    with pytest.raises(OutOfRange):
        coverage_audit(0, 5)
    with pytest.raises(OutOfRange):
        label_c3(0)
    with pytest.raises(OutOfRange):
        label_c3c6(0, 1)
