import hashlib
import random
import signal
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from windmills import assemble, families, sequences
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
    _BASE_CASE_RANGE,
    _base_case_available,
    _c3c4_rule,
    _composite_rule,
    _extension_k,
    _load_gap_fixture,
    _square_shift,
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
from windmills.windmill import (
    GRACEFUL,
    NEAR_GRACEFUL,
    edge_multiset,
    expected_mode,
    to_json,
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
    lab = extend_c3c4(base, 5)
    assert lab.spec.vanes == ((3, 2), (4, 21))
    assert lab.mode == NEAR_GRACEFUL and verify(lab).ok
    # the replacement triangle enables iterating the extension
    m = lab.spec.edge_count
    assert any(set(v) == {0, m - 1, m + 1} for v in lab.vanes if len(v) == 3)


def test_extend_graceful_case():
    base, _ = label_c3c4(4, 21)
    lab = extend_c3c4(base, 20)
    assert lab.spec.vanes == ((3, 4), (4, 100))
    assert verify(lab).ok


def test_extend_iterates():
    # the replacement triangles make the output extendable again
    first = extend_c3c4(base_case_c3c4(2, 2), 5)  # -> 21 squares
    second = extend_c3c4(first, 16)  # -> 84 squares
    assert second.spec.vanes == ((3, 2), (4, 84))
    assert verify(second).ok
    m = second.spec.edge_count
    assert any(set(v) == {0, m - 1, m + 1} for v in second.vanes if len(v) == 3)


def test_extend_bound_violation():
    base, _ = label_c3c4(4, 3)
    with pytest.raises(BoundViolation):
        extend_c3c4(base, 1)


def test_extend_missing_triangle():
    base, _ = label_c3c4(3, 1)  # direct recipe lacks the replaceable triangles
    with pytest.raises(MissingRequiredTriangle):
        extend_c3c4(base, 3)


# The paper's extension as four cases by t % 4 + 1, with w = t // 4: the
# offsets (lo, hi) of the interval 2k + lo - 12w <= 4s <= 6k + hi - 12w, the
# square shift over 4s + 12w, and the triangles to translate as offsets over
# 4s + 12w.
PAPER_EXTENSION_CASES = {
    1: ((2, -5), 0, []),
    2: ((-1, -8), 3, []),
    3: ((-2, -9), 4, [(5, 7)]),
    4: ((-3, -10), 5, [(7, 8), (6, 10)]),
}


def test_extension_rule_matches_the_papers_four_cases():
    for t in range(1, 41):
        (lo, hi), shift, offsets = PAPER_EXTENSION_CASES[t % 4 + 1]
        w = t // 4
        for s in range(201):
            top = 4 * s + 12 * w
            c = _square_shift(t, s)
            if t >= 6 and t % 4 in (2, 3):
                # every triangle moves, so the block sits on the squares' top
                assert c == 4 * s + t, (t, s)
                continue
            assert c == top + shift, (t, s)
            if t <= 3 and s in _BASE_CASE_RANGE[t]:
                # the catalogued bases keep only the paper's tail triangles above c
                above = sorted(sorted(v) for v in base_case_c3c4(t, s).vanes if max(v) > c)
                assert above == sorted([0, top + a, top + b] for a, b in offsets), (t, s)
            # the closed-form k is the smallest k whose base of s - 4k + 1 >= 1
            # squares lies in the paper's interval
            paper = [
                k
                for k in range(1, s // 4 + 1)
                if 2 * k + lo - 12 * w <= 4 * (s - 4 * k + 1) <= 6 * k + hi - 12 * w
            ]
            assert _extension_k(t, s) == (paper[0] if paper else None), (t, s)


def test_extend_accepts_exactly_the_papers_interval():
    # t = 0, 1 (mod 4): the shift is the base's top label, so no edge crosses it
    for t in (4, 5, 8, 9):
        (lo, hi), _, _ = PAPER_EXTENSION_CASES[t % 4 + 1]
        w = t // 4
        for s in range(1, 7):
            base, _ = label_c3c4(t, s)
            for k in range(1, 13):
                if 2 * k + lo - 12 * w <= 4 * s <= 6 * k + hi - 12 * w:
                    assert verify(extend_c3c4(base, k)).ok, (t, s, k)
                else:
                    with pytest.raises(BoundViolation):
                        extend_c3c4(base, k)


# -- the closed-form k and the coverage lemma -----------------------------------


def scanning_c3c4_rule(t, s, straddle=False):
    """The rule function as it was before k had a closed form: a scan over k."""
    if s == 0:
        return "triangles-only", {"t": t}
    if t <= 3 and (straddle or s > t) and _base_case_available(t, s):
        return "base-case", {"t": t, "s": s}
    if s <= t:
        return "twofold-direct", {"t": t, "s": s, "c_squares": t, "c_triangles": 4 * s + t}
    if t >= 4:
        if s <= 2 * t:
            return "twofold-parity", {"t": t, "s": s, "table": "odd" if s % 2 else "even"}
        if s == 2 * t + 1:
            return "langford-block", {"t": t, "s": s, "defect": t + 1}
        if s <= 3 * t + 1:
            params = {"t": t, "s": s, "defect": t + 1, "k": s - (2 * t + 1)}
            return "langford-plus-twofold", params
        composite = _composite_rule(t, s)
        if composite is not None:
            return composite
    # the smallest k whose interval admits a base of s - 4k + 1 >= 1 squares
    for k in range(1, s // 4 + 1):
        s_base = s - 4 * k + 1
        if 2 * k + 2 <= _square_shift(t, s_base) <= 6 * k - 5:
            return f"extension-case{t % 4 + 1}", {"t": t, "s": s, "k": k, "s_base": s_base}
    return "gap-fixture", {"t": t, "s": s}


def test_closed_form_k_matches_the_scan():
    for t in range(1, 61):
        for s in range(0, 601):
            for straddle in (False, True) if t <= 3 else (False,):
                want = scanning_c3c4_rule(t, s, straddle)
                assert _c3c4_rule(t, s, straddle) == want, (t, s, straddle)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4000), st.integers(0, 20000), st.booleans())
def test_closed_form_k_matches_the_scan_at_scale(t, s, straddle):
    assert _c3c4_rule(t, s, straddle) == scanning_c3c4_rule(t, s, straddle)


def affine(f):
    """The constant and the slopes of an affine f(u, v), read off three points."""
    c = f(0, 0)
    return c, f(1, 0) - c, f(0, 1) - c


# The lemma's sufficient conditions for some k, as functions of s and a.
def wide_enough(s, a):  # 18(p+21) <= 22(q-17)
    return 8 * s + 2 * a - 435


def long_enough(s, a):  # 4(p+21) <= 22(s-3)
    return 3 * s - 93 - 2 * a


def test_lemma_conditions_hold_past_the_corners():
    # wide_enough rises with a and long_enough falls, so for t <= a <= 3t the
    # worst a is t for the one and 3t for the other
    assert affine(wide_enough)[1:] == (8, 2)
    assert affine(long_enough)[1:] == (3, -2)
    # t = 29 + u, s = 3t + 2 + v with u, v >= 0
    for cond, a_per_t in ((wide_enough, 1), (long_enough, 3)):
        f = affine(lambda u, v: cond(3 * (29 + u) + 2 + v, a_per_t * (29 + u)))
        assert min(f) >= 0, (cond.__name__, f)
    # t <= 28, so 1 <= a <= 84, and s = 87 + v with v >= 0
    for cond, a in ((wide_enough, 1), (long_enough, 84)):
        f = affine(lambda u, v: cond(87 + v, a))
        assert min(f) >= 0, (cond.__name__, f)


@given(st.integers(1, 10**6))
def test_square_shift_offset_lies_between_t_and_3t(t):
    assert t <= _square_shift(t, 0) <= 3 * t
    assert _square_shift(t, 17) == 4 * 17 + _square_shift(t, 0)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 10**7))
def test_lemma_conditions_give_a_k(t, s):
    a = _square_shift(t, 0)
    if wide_enough(s, a) >= 0 and long_enough(s, a) >= 0:
        k = _extension_k(t, s)
        assert k is not None
        assert 2 * k + 2 <= _square_shift(t, s - 4 * k + 1) <= 6 * k - 5 and 4 * k <= s


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 10**6), st.data())
def test_direct_rules_cover_up_to_3t_plus_1(t, data):
    s = data.draw(st.integers(0, 3 * t + 1))
    rule, _ = _c3c4_rule(t, s)
    assert not rule.startswith("extension-case") and rule != "gap-fixture"


def test_lemma_finite_scan():
    # the cells that neither a direct rule nor the lemma's conditions cover
    no_k = []
    for t in range(1, 29):
        for s in range(1 if t <= 3 else 3 * t + 2, 87):
            if _extension_k(t, s) is None:
                no_k.append((t, s))
    assert {t for t, _ in no_k} == set(range(1, 10)) | {12}
    assert max(s for _, s in no_k) == 39
    for t, s in no_k:
        rule, _ = _c3c4_rule(t, s)
        if t >= 4:
            assert rule.startswith("composite-"), (t, s, rule)
        else:
            assert rule in ("base-case", "twofold-direct", "gap-fixture"), (t, s, rule)
    gaps = sorted(cell for cell, rule in dict(coverage_audit(28, 86)).items() if rule == GAP)
    assert gaps == EXPECTED_GAPS


def test_small_audit_cells_label_and_replay():
    grid = dict(coverage_audit(12, 39))
    assert sorted(cell for cell, rule in grid.items() if rule == GAP) == EXPECTED_GAPS
    for t, s in grid:
        lab, trace = label_c3c4(t, s)
        assert verify(lab).ok and replay(trace), (t, s)


# -- the graft lemma --------------------------------------------------------------


@pytest.mark.parametrize("t", [6, 7, 10, 11])
def test_graft_split_at_4s_plus_t(t):
    # every base edge across the shift 4s + t then has a label above it
    for s in range(1, 121):
        lab, _ = label_c3c4(t, s)
        for vane in lab.vanes:
            top = 4 * s + t
            if len(vane) == 4:
                assert max(vane[1:]) <= top, (t, s, vane)
            else:
                assert min(vane[1:]) > top, (t, s, vane)


def test_catalogued_bases_cross_the_shift_only_above_it():
    for t in (2, 3):
        for s in _BASE_CASE_RANGE[t]:
            c = _square_shift(t, s)
            assert c == 4 * s + t + 2
            for vane in base_case_c3c4(t, s).vanes:
                for u, v in zip(vane, vane[1:] + vane[:1]):
                    if min(u, v) <= c < max(u, v):
                        assert abs(u - v) > c, (t, s, vane)


@pytest.mark.parametrize(
    "t,s,text",
    [
        (
            5,
            100,
            "extension-case2(t=5, s=100, k=20, s_base=21)\n"
            "  composite-high(t=5, s=21, x=1, y=1, defect=10)",
        ),
        (1, 30, "extension-case2(t=1, s=30, k=6, s_base=7)\n  base-case(t=1, s=7)"),
        (
            6,
            60,
            "extension-case3(t=6, s=60, k=12, s_base=13)\n  langford-block(t=6, s=13, defect=7)",
        ),
        (
            10,
            90,
            "extension-case3(t=10, s=90, k=18, s_base=19)\n"
            "  twofold-parity(t=10, s=19, table=odd)",
        ),
        (
            90,
            700,
            "extension-case3(t=90, s=700, k=132, s_base=173)\n"
            "  twofold-parity(t=90, s=173, table=odd)",
        ),
    ],
)
def test_extension_case_2_and_3_traces(t, s, text):
    lab, trace = label_c3c4(t, s)
    assert verify(lab).ok
    assert trace.format() == text
    assert replay(trace)


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


def test_missing_fixture_file_is_not_in_table():
    # the planner ends in a gap fixture without looking for its file, so a
    # cell that the coverage lemma missed would still end in a typed error
    with pytest.raises(NotInTable, match="c3c4_gap_t4_s4.json"):
        families._load_fixture("c3c4_gap_t4_s4.json")
    with pytest.raises(NotInTable, match="c3c4_gap_t1_s22.json"):
        _load_gap_fixture(1, 22)


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


def test_label_c3c5_long_langford_order():
    # t = 12 >= 8(p + 1) - 4 takes langford_sequence's split head and tail
    lab = label_c3c5(12, 1)
    assert lab.mode == NEAR_GRACEFUL and lab.spec.edge_count == 41
    assert verify(lab).ok


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


def test_label_c3c5_every_admissible_cell_to_p_12(monkeypatch):
    # the unshuffled first run alone passes the whole budget on 36 of these
    # cells; with the restarts each is built within a tenth of it
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 100_000)
    sequences.langford_sequence.cache_clear()
    cells = [
        (t, p)
        for p in range(1, 13)
        for t in range(2 * p + 1, 4 * p + 9)
        if sequences.exists("langford", order=t, defect=p + 1)
    ]
    assert len(cells) == 132
    for t, p in cells:
        lab = label_c3c5(t, p)
        assert verify(lab).ok and lab.mode == expected_mode(lab.spec), (t, p)


def test_label_c3c5_tight_cell_under_the_budget():
    # (d, l) = (20, 40): the first run and 981 shuffled runs fail, and the next succeeds
    sequences.langford_sequence.cache_clear()
    lab = label_c3c5(40, 19)
    assert verify(lab).ok and lab.mode == expected_mode(lab.spec)


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


# -- scaling ------------------------------------------------------------------

# Each builds and checks in well under a second with linear-time pairing,
# merging and verification; with the quadratic ones three of them took
# 6-93 s.
LARGE_CELLS = {
    "c3=20000": lambda: verify(label_c3(20000)).ok,
    "skolem-8000": lambda: sequences.validate(
        sequences.gen_skolem(8000), sequences.SequenceKind("skolem")
    ).ok,
    "c5=5000": lambda: verify(label_c5(5000)).ok,
    "c3=2000,c6=2000": lambda: verify(label_c3c6(2000, 2000)).ok,
}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@pytest.mark.parametrize("cell", sorted(LARGE_CELLS))
def test_large_cells_build_and_verify_within_5s(cell):
    def expire(signum, frame):
        raise TimeoutError(f"{cell} ran past 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        assert LARGE_CELLS[cell]()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- audit ----------------------------------------------------------------


def test_coverage_audit_expected_gaps():
    grid = dict(coverage_audit(3, 30))
    gaps = sorted(cell for cell, rule in grid.items() if rule == GAP)
    assert gaps == EXPECTED_GAPS
    assert grid[(1, 8)] == "base-case"
    assert grid[(3, 22)] == "extension"


def test_coverage_audit_streams_its_cells():
    # a dict of these 20,020 cells peaks at about 2.2 MB under tracemalloc;
    # the stream holds one row's outcomes and one cell's rule at a time
    tracemalloc.start()
    try:
        cells = coverage_audit(20, 1000)
        first = next(cells)
        count = 1 + sum(1 for _ in cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == ((1, 0), "triangles-only") and count == 20 * 1001
    assert peak < 200_000, peak


def reference_audit(t_max, s_max):
    """The audit as it planned every cell from scratch, kept as a reference."""
    for t in range(1, t_max + 1):
        for s in range(0, s_max + 1):
            plan = families._plan_c3c4(t, s)
            if plan.rule == "gap-fixture":
                yield (t, s), GAP
            else:
                yield (t, s), "extension" if plan.children else plan.rule


def test_coverage_audit_matches_planning_every_cell():
    # (3, s) extensions plan their straddled bases; (1, 84) has a gap-fixture base
    assert list(coverage_audit(60, 700)) == list(reference_audit(60, 700))


def test_coverage_audit_rules_each_cell_once(monkeypatch):
    # every cell has a plan, so the audit reads each cell's own rule and no
    # base below it, straddled rows t = 2, 3 included
    calls = Counter()
    rule = families._c3c4_rule

    def counting(t, s, straddle=False):
        calls[t] += 1
        return rule(t, s, straddle)

    monkeypatch.setattr(families, "_c3c4_rule", counting)
    assert sum(1 for _ in coverage_audit(30, 400)) == 30 * 401
    assert calls == {t: 401 for t in range(1, 31)}


def test_coverage_audit_matches_dispatch_rules():
    assert dict(coverage_audit(10, 12))[(10, 10)] == "twofold-direct"
    # (3, 110) holds the straddled base-case cells such as (3, 22) and the
    # cells whose smallest-k base is a gap fixture such as (1, 84), (3, 79)
    for t_max, s_max in [(10, 12), (3, 110)]:
        for (t, s), rule in dict(coverage_audit(t_max, s_max)).items():
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


def test_straddled_langford_base_trace():
    lab, trace = label_c3c4(7, 70)
    assert verify(lab).ok
    assert trace.format() == (
        "extension-case4(t=7, s=70, k=14, s_base=15)\n  langford-block(t=7, s=15, defect=8)"
    )


def test_c3c4_needs_no_search(monkeypatch):
    # with no placements allowed, any construction search would raise
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 0)
    sequences.langford_sequence.cache_clear()
    cells = [(6, 60), (7, 70), (10, 90), (11, 95), (22, 200), (27, 200), (43, 300), (90, 700)]
    for t, s in cells:
        lab, trace = label_c3c4(t, s)
        assert verify(lab).ok and replay(trace), (t, s)


_MEMOISED = (
    sequences.gen_skolem,
    sequences.gen_hooked_skolem,
    sequences.gen_langford_doubledefect,
    sequences.gen_near_skolem_topdefect,
    sequences.gen_twofold_skolem,
    sequences.gen_power4,
    sequences.fixed_small_twofold,
    sequences.gen_twofold_langford,
)


def _c3c4_digest(t, s):
    lab, trace = label_c3c4(t, s)
    return hashlib.sha256((to_json(lab) + "\n" + trace.format()).encode()).digest()


# sha256 over the per-cell digests of every t <= 40, s <= 250 in (t, s) order,
# each cell labelled with every generator memo cleared first (all misses)
COLD_C3C4_GRID = "3c26bb25a733a71cc99f9f2190879adbe2a8b25fd5f8817b72c63e35b6916a2e"


def test_warm_generator_memo_changes_no_c3c4_output(monkeypatch):
    # the grid in a shuffled order with the memos warm (mostly hits) gives the
    # cold grid's digest, and every sequence a memoised generator returned on
    # the way equals its uncached result for the same arguments
    returned = {gen: {} for gen in _MEMOISED}

    def recording(gen):
        def call(*args, **kwargs):
            seq = gen(*args, **kwargs)
            key = (args, tuple(sorted(kwargs.items())))
            assert returned[gen].setdefault(key, seq.entries) == seq.entries, key
            return seq

        return call

    for gen in _MEMOISED:
        for module in (assemble, families, sequences):
            if getattr(module, gen.__name__, None) is gen:
                monkeypatch.setattr(module, gen.__name__, recording(gen))
    cells = [(t, s) for t in range(1, 41) for s in range(0, 251)]
    random.Random(10).shuffle(cells)
    warm = {cell: _c3c4_digest(*cell) for cell in cells}
    monkeypatch.undo()
    grid = hashlib.sha256(b"".join(warm[cell] for cell in sorted(warm)))
    assert grid.hexdigest() == COLD_C3C4_GRID
    for gen, calls in returned.items():
        for args, kwargs in calls:
            for memoised in _MEMOISED:
                memoised.cache_clear()
            cold = gen.__wrapped__(*args, **dict(kwargs)).entries
            assert cold == calls[args, kwargs], (gen.__name__, args, kwargs)


def test_extension_cells_beyond_t_60():
    for t in range(62, 100):
        if t % 4 in (2, 3):
            lab, trace = label_c3c4(t, 7 * t + 19)
            assert trace.rule.startswith("extension-case"), t
            assert verify(lab).ok and replay(trace), t


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


def test_replay_rejects_cells_outside_the_rule_domain():
    # the rule covers t >= 1, s >= 0; elsewhere it would echo these traces
    direct = {"t": 1, "s": -1, "c_squares": 1, "c_triangles": -3}
    assert not replay(ConstructionTrace("twofold-direct", direct))
    assert not replay(ConstructionTrace("triangles-only", {"t": 0}))


@pytest.mark.parametrize(
    "parameters",
    [
        {},
        {"s": 3},
        {"t": "4"},
        {"t": 4.0},
        {"t": None},
        {"t": True},
        {"t": 4, "s": "3"},
        {"t": 4, "s": False},
        {"t": 4, "s": None},
    ],
)
def test_replay_rejects_a_missing_or_non_int_count(parameters):
    # a bool count passes the rule's range checks; a missing or str one fails in them
    for rule in ("triangles-only", "twofold-direct"):
        assert not replay(ConstructionTrace(rule, parameters))


def test_replay_reads_a_missing_s_as_zero():
    _, trace = label_c3c4(5, 0)
    assert trace == ConstructionTrace("triangles-only", {"t": 5}) and replay(trace)
    assert not replay(ConstructionTrace("twofold-direct", {"t": 5}))


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
        coverage_audit(5, 0)  # at the call, before any cell is read
    with pytest.raises(OutOfRange):
        label_c3(0)
    with pytest.raises(OutOfRange):
        label_c3c6(0, 1)
