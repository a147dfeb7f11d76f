import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from windmills import assemble, families, sequences
from windmills.assemble import (
    fivetuples_c5,
    fivetuples_shifted,
    hexagon_pairs,
    merge_hexagons,
    quadruples_from_twofold,
    triples_from_pairs,
)
from windmills.errors import (
    BoundViolation,
    InvalidSequence,
    MissingTriple,
    OutOfRange,
    ShiftTooSmall,
    UnmatchedSymbol,
)
from windmills.sequences import (
    SkolemTypeSequence,
    exists,
    fixed_small_twofold,
    gen_hooked_skolem,
    gen_langford_doubledefect,
    gen_skolem,
    gen_twofold_langford,
    gen_twofold_skolem,
    langford_sequence,
    parse_sequence,
)

from windmills.windmill import GRACEFUL, NEAR_GRACEFUL, Labelling, WindmillSpec, verify

from reference_pairing import pairs_of


def edges_of(vanes):
    out = Counter()
    for vane in vanes:
        cycle = tuple(vane) + (vane[0],)
        for a, b in zip(cycle, cycle[1:]):
            out[abs(a - b)] += 1
    return out


# -- triangles ----------------------------------------------------------------


def test_triples_hooked_order3_both_variants():
    seq = parse_sequence("3,1,1,3,2,0,2")
    assert triples_from_pairs(seq, 3, 1) == [(0, 5, 6), (0, 8, 10), (0, 4, 7)]
    assert triples_from_pairs(seq, 3, 2) == [(0, 1, 6), (0, 2, 10), (0, 3, 7)]


def test_triples_trivial():
    assert triples_from_pairs(parse_sequence("1,1"), 1, 1) == [(0, 2, 3)]


def test_triples_shift_too_small():
    with pytest.raises(ShiftTooSmall):
        triples_from_pairs(gen_skolem(5), 4, 1)


@pytest.mark.parametrize("t", [4, 5, 12, 21, 40, 100])
@pytest.mark.parametrize("extra", [0, 7])
def test_triples_label_ranges_skolem(t, extra):
    # framework guarantee: edges [1,t] and [c+1, c+2t], vertices the top block
    c = t + extra
    triples = triples_from_pairs(gen_skolem(t), c, 1)
    assert sorted(edges_of(triples).elements()) == sorted(
        list(range(1, t + 1)) + list(range(c + 1, c + 2 * t + 1))
    )
    vertices = sorted(v for tri in triples for v in tri[1:])
    assert vertices == list(range(c + 1, c + 2 * t + 1))


@pytest.mark.parametrize("t", [3, 6, 7, 59, 98])
@pytest.mark.parametrize("extra", [0, 7])
def test_triples_label_ranges_hooked(t, extra):
    c = t + extra
    triples = triples_from_pairs(gen_hooked_skolem(t), c, 1)
    want = (
        list(range(1, t + 1))
        + list(range(c + 1, c + 2 * t))
        + [c + 2 * t + 1]
    )
    assert sorted(edges_of(triples).elements()) == sorted(want)
    vertices = sorted(v for tri in triples for v in tri[1:])
    assert vertices == list(range(c + 1, c + 2 * t)) + [c + 2 * t + 1]


def test_triples_langford_ranges():
    # defect-d input: edges [d, d+l-1] plus the shifted block
    d = 4
    seq = gen_langford_doubledefect(d)
    l = seq.order
    c = d + l - 1
    triples = triples_from_pairs(seq, c, 1)
    want = list(range(d, d + l)) + list(range(c + 1, c + 2 * l + 1))
    assert sorted(edges_of(triples).elements()) == sorted(want)


def test_triple_label_sets_every_order_to_100():
    # label-set guarantee for every order and two shifts, both parities
    for t in range(1, 101):
        hooked = t % 4 in (2, 3)
        seq = gen_hooked_skolem(t) if hooked else gen_skolem(t)
        for c in (t, t + 7):
            triples = triples_from_pairs(seq, c, 1)
            vertices = sorted(v for tri in triples for v in tri[1:])
            if hooked:
                want_v = list(range(c + 1, c + 2 * t)) + [c + 2 * t + 1]
            else:
                want_v = list(range(c + 1, c + 2 * t + 1))
            assert vertices == want_v, (t, c)
            want_e = sorted(list(range(1, t + 1)) + want_v)
            assert sorted(edges_of(triples).elements()) == want_e, (t, c)


def test_quadruple_row_guarantees_to_order_60():
    # catalogued two-fold families: edges [c+1, c+4s] at the stated shifts
    from windmills.sequences import double, gen_langford_doubledefect as ldd
    from windmills.sequences import gen_power4, gen_twofold_langford

    cases = []
    for s in range(1, 61):
        cases.append((gen_twofold_skolem(s), max(s - 1, 0)))  # generic block
    for s in range(2, 61):
        half_bound = (s - 1) // 2 if s % 2 else (s - 0) // 2  # parity tables
        cases.append((gen_twofold_skolem(s), half_bound))
    for d in range(1, 16):
        cases.append((double(ldd(d)), d - 1))  # doubled Langford, defect <= c+1
    for x in range(1, 16):
        cases.append((gen_power4(x), max(2 * x - 3, 0)))  # power-of-4 block
    for k in range(1, 16):
        cases.append((gen_twofold_langford(k), 2 * k - 1))
    for seq, c in cases:
        s = seq.order
        quads = quadruples_from_twofold(seq, c)
        assert sorted(edges_of(quads).elements()) == list(range(c + 1, c + 4 * s + 1))


# -- squares ------------------------------------------------------------------


def test_quadruples_figure_sequence():
    seq = parse_sequence("3,1,1,3,2,2,2,2,3,1,1,3")
    assert quadruples_from_twofold(seq, 4) == [
        (0, 7, 1, 15),
        (0, 11, 2, 12),
        (0, 8, 3, 16),
    ]


def test_quadruples_small():
    assert quadruples_from_twofold(parse_sequence("1,1,1,1"), 1) == [(0, 3, 1, 5)]
    assert sorted(edges_of([(0, 3, 1, 5)]).elements()) == [2, 3, 4, 5]


def test_quadruples_small_block():
    quads = quadruples_from_twofold(fixed_small_twofold(2), 1)
    assert quads == [(0, 4, 2, 9), (0, 6, 3, 8)]
    assert sorted(edges_of(quads).elements()) == list(range(2, 10))


def test_quadruples_shift_bound():
    # the order-2 small block needs c >= 1: at c = 0 label 3 doubles up
    with pytest.raises(BoundViolation):
        quadruples_from_twofold(fixed_small_twofold(2), 0)


@pytest.mark.parametrize("s", [1, 2, 3, 8, 23, 44, 60])
def test_quadruple_edge_labels_exactly_shifted_block(s):
    c = s  # generic two-fold block bound: s <= c + 1
    quads = quadruples_from_twofold(gen_twofold_skolem(s), c)
    assert sorted(edges_of(quads).elements()) == list(range(c + 1, c + 4 * s + 1))
    vertices = [v for q in quads for v in q[1:]]
    assert len(vertices) == len(set(vertices))
    assert set(range(1, s + 1)) <= set(vertices)  # row says [0,s] shows up


@pytest.mark.parametrize("y,min_c", [(1, 0), (2, 1), (3, 3), (4, 2)])
def test_small_blocks_tightest_shift(y, min_c):
    # catalogued bound per block; one below must collide
    quads = quadruples_from_twofold(fixed_small_twofold(y), min_c)
    assert sorted(edges_of(quads).elements()) == list(
        range(min_c + 1, min_c + 4 * y + 1)
    )
    if min_c > 0:
        with pytest.raises(BoundViolation):
            quadruples_from_twofold(fixed_small_twofold(y), min_c - 1)


# -- 5-cycle vanes ------------------------------------------------------------


def test_fivetuples_literals():
    # p = 2, 3 sit below the near-Skolem tables' first order 11, so their
    # companions are the literal rows of ``_SMALL_COMPANIONS``
    for p, mode in ((2, NEAR_GRACEFUL), (3, GRACEFUL)):
        vanes = fivetuples_c5(p)
        assert vanes == fivetuples_shifted(p, p)
        assert verify(Labelling(WindmillSpec.of((5, p)), vanes, mode)).ok


def test_fivetuples_p1():
    assert fivetuples_c5(1) == [(0, 6, 2, 1, 3)]


def test_fivetuples_p4_edge_set():
    tuples = fivetuples_c5(4)
    assert len(tuples) == 4
    assert sorted(edges_of(tuples).elements()) == list(range(1, 21))


@pytest.mark.parametrize("p", range(1, 41))
def test_fivetuples_edge_union(p):
    tuples = fivetuples_c5(p)
    got = sorted(edges_of(tuples).elements())
    if p % 4 in (0, 3):
        assert got == list(range(1, 5 * p + 1))
    else:
        assert got == list(range(1, 5 * p)) + [5 * p + 1]


def test_fivetuple_sources_index_every_order_to_600():
    # the lemma as stated, scanned: the base pairs 1..p as fold 1, and the
    # companion pairs as fold 1 on the base's non-hook cells with no right end
    # in F(p), so ``fivetuples_shifted`` reads both off the index
    for p in range(1, 601):
        base, companion = assemble._fivetuple_sources(p)
        bo, co = base.occurrences, companion.occurrences
        assert bo.symbols == tuple(range(1, p + 1)) and bo.fold == 1, p
        assert co.fold == 1 and set(co.symbols) == non_hook_cells(base), p
        assert forbidden_cells(p).isdisjoint(co.lasts), p


# -- the C5 companion lemma, step by step (``assemble._fivetuple_sources``) -------


def forbidden_cells(p):
    return set(range(1, p + 1)) if p % 4 in (0, 1) else set(range(1, p)) | {p + 1}


def non_hook_cells(seq):
    return set(range(1, seq.length + 1)) - seq.hook_positions


# p mod 4 -> the companion's row table, p as a function of its m, the least m
# used, the first right end's offset above p, and each row's right ends in
# table order as (first, step, count), as the lemma reads them
COMPANION_TABLES = {
    0: (sequences._skolem_0mod4, lambda m: 2 * m, 2, 2, lambda m: [
        (2 * m + 2, 1, 2 * m), (7 * m + 1, 1, 1), (6 * m, 1, 1),
        (7 * m + 2, 1, m - 1), (6 * m + 1, 1, 1), (7 * m - 1, -1, m - 2),
    ]),
    1: (sequences._hooked_2mod4, lambda m: 2 * m + 1, 2, 2, lambda m: [
        (2 * m + 3, 1, 2 * m + 1), (7 * m + 5, 1, 1), (6 * m + 4, 1, m),
        (8 * m + 5, 1, 1), (7 * m + 6, 1, m - 2), (6 * m + 3, 1, 1),
    ]),
    2: (sequences._near_hooked_1mod4, lambda m: 2 * m, 3, 3, lambda m: [
        (2 * m + 3, 1, 2 * m), (6 * m - 2, 1, 1), (6 * m - 1, 1, 1),
        (7 * m, 1, m - 2), (6 * m + 1, 1, m - 3),
        (8 * m - 2, 1, 1), (7 * m - 1, 1, 1), (8 * m + 1, 1, 1),
    ]),
    3: (sequences._near_plain_3mod4, lambda m: 2 * m + 1, 3, 3, lambda m: [
        (2 * m + 4, 1, 2 * m + 1), (6 * m + 2, 1, 1), (6 * m + 1, 1, 1),
        (7 * m + 4, 1, m - 2), (6 * m + 4, 1, m - 2),
        (7 * m + 3, 1, 1), (8 * m + 3, 1, 1), (8 * m + 4, 1, 1),
    ]),
}


def test_c5_companion_comes_from_one_row_table():
    # p <= 3: the hooked fixture of order 2 and the two small companions
    assert assemble._fivetuple_sources(1)[1] == gen_hooked_skolem(2)
    for p in (2, 3):
        assert assemble._fivetuple_sources(p)[1].entries == assemble._SMALL_COMPANIONS[p]
    for p in range(4, 401):
        table, p_of, m_min, _, _ = COMPANION_TABLES[p % 4]
        m = p // 2
        assert p_of(m) == p and m >= m_min, p
        assert assemble._fivetuple_sources(p)[1] == table(m), p


def test_c5_companion_pairs_on_the_base_cells():
    for p in range(1, 401):
        base, companion = assemble._fivetuple_sources(p)
        assert companion.occurrences.fold == 1, p
        assert set(companion.occurrences.symbols) == non_hook_cells(base), p
        cells = set(range(1, 2 * p + 1)) if p % 4 in (0, 1) else set(range(1, 2 * p + 2)) - {2 * p}
        assert non_hook_cells(base) == cells, p


def test_c5_small_companions_miss_the_forbidden_cells():
    rights = {1: (2, 5), 2: (4, 9, 5, 6), 3: (8, 3, 12, 6, 10, 11)}
    for p, lasts in rights.items():
        assert assemble._fivetuple_sources(p)[1].occurrences.lasts == lasts
        assert forbidden_cells(p).isdisjoint(lasts), p


@pytest.fixture
def right_ends(monkeypatch):
    """Calls a table and returns the right ends of the rows it gives ``_from_rows``.

    The i-th pair of a row ``(count, sym, dsym, left, dleft)`` ends at
    ``left + sym + i * (dleft + dsym)``; the ends come in row order.
    """
    given = []
    real = sequences._from_rows
    monkeypatch.setattr(
        sequences, "_from_rows", lambda length, rows: (given.append(rows), real(length, rows))[1]
    )

    def call(table, m):
        given.clear()
        table(m)
        (rows,) = given
        return [
            left + sym + (dleft + dsym) * i
            for count, sym, dsym, left, dleft in rows
            for i in range(count)
        ]

    return call


def test_c5_companion_rows_read_as_the_lemma_says(right_ends):
    for table, _, m_min, _, rows in COMPANION_TABLES.values():
        for m in range(m_min, 150, 2):  # the m of every p the table serves
            expected = [first + step * i for first, step, count in rows(m) for i in range(count)]
            assert right_ends(table, m) == expected


def lowest_right_ends(rows):
    # affine in m, since the sign of each row's step does not depend on m
    return [first if step > 0 else first + step * (count - 1) for first, step, count in rows]


def test_c5_companion_rows_clear_p_plus_1():
    # an affine f with 0 <= f(m_min) <= f(m_min + 1) is >= 0 for every m >= m_min
    for table, p_of, m_min, offset, rows in COMPANION_TABLES.values():
        for m in (m_min, m_min + 1):
            assert lowest_right_ends(rows(m))[0] == p_of(m) + offset, table.__name__

        def margins(m):
            later = lowest_right_ends(rows(m))[1:]
            return [low - (6 * m - 2) for low in later] + [6 * m - 2 - (p_of(m) + 3)]

        assert all(0 <= a <= b for a, b in zip(margins(m_min), margins(m_min + 1))), table.__name__
        assert offset >= 2
    # so every right end is at least p + 2, above F(p)
    assert all(max(forbidden_cells(p)) <= p + 1 for p in range(1, 100))


@pytest.mark.parametrize("p", [5, 6, 9, 10])
def test_fivetuples_broken_companion_fails_verification(monkeypatch, p):
    # The reversed companion keeps its symbols but puts a right end in F(p),
    # so the 5-cycles are not graceful and ``_checked`` refuses the labelling.
    # (At p = 0, 3 mod 4 it happens to give another graceful C3C5 labelling.)
    sources = assemble._fivetuple_sources

    def reversed_companion(q):
        base, companion = sources(q)
        return base, SkolemTypeSequence(companion.entries[::-1])

    monkeypatch.setattr(assemble, "_fivetuple_sources", reversed_companion)
    assert not forbidden_cells(p).isdisjoint(reversed_companion(p)[1].occurrences.lasts)
    with pytest.raises(InvalidSequence):
        families.label_c5(p)
    t = next(t for t in range(2 * p + 1, 4 * p + 9) if exists("langford", order=t, defect=p + 1))
    with pytest.raises(InvalidSequence):
        families.label_c3c5(t, p)


# -- hexagons -----------------------------------------------------------------


def test_hexagon_pairs_examples():
    assert hexagon_pairs(8) == [(2, 7), (3, 8), (4, 6)]
    assert hexagon_pairs(5) == [(1, 5), (3, 4)]
    assert hexagon_pairs(6) == [(2, 5), (3, 6)]
    with pytest.raises(OutOfRange):
        hexagon_pairs(4)


@pytest.mark.parametrize("n", range(5, 61))
def test_hexagon_pairs_structure(n):
    pairs = hexagon_pairs(n)
    assert len(pairs) == (2 * n + 1) // 5
    used = [x for pair in pairs for x in pair]
    assert len(used) == len(set(used))  # disjoint
    sums = [i + j for i, j in pairs]
    assert len(sums) == len(set(sums))
    top = -(-(3 * n + 3) // 2) - 1
    assert all(n + 1 <= s <= top for s in sums)


# -- the C3C6 row-count lemma, step by step (``assemble._hexagon_pair_rows``) ------


def test_hexagon_row_count_by_residue():
    # n = 5k + r: the first row has k + 1 pairs (k at r = 0) and the second k
    # (k - 1 at r = 1); each row keeps one difference j - i, which tells them
    # apart, the largest j is n, and the filter drops a pair only at n = 1
    assert assemble._hexagon_pair_rows(1) == []
    for n in range(2, 2001):
        k, r = divmod(n, 5)
        pairs = assemble._hexagon_pair_rows(n)
        rows = [k + (r != 0), k - (r == 1)]
        assert sorted(Counter(j - i for i, j in pairs).values()) == sorted(c for c in rows if c), n
        assert all(1 <= i < j <= n for i, j in pairs) and max(j for _, j in pairs) == n, n
        assert len(pairs) == sum(rows) == (2 * n + 1) // 5, n


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10**5))
def test_hexagon_row_count_at_scale(n):
    assert len(assemble._hexagon_pair_rows(n)) == (2 * n + 1) // 5


@given(st.integers(1, 10**9), st.data())
def test_hexagon_bound_needs_no_more_rows(t, data):
    h = data.draw(st.integers(0, 2 * t + 1))
    n = t + 2 * h
    assert 5 * h <= 2 * n + 1 and 2 * h <= n - 1
    assert h <= min((2 * n + 1) // 5, (n - 1) // 2) <= (2 * n + 1) // 5


# -- the C3C6 clearance lemma, step by step (``assemble._hexagon_pair_rows``) ----


def test_hexagon_rows_keep_their_runs_apart_and_their_sums_by_parity():
    # the runs of first-row i, second-row i, second-row j and first-row j lie
    # in that order; the sums are n+1, n+3, ... and n+2, n+4, ..., at most n+2k+1
    for r, ((a1, b1, c1), (a2, b2, c2)) in enumerate(assemble._HEXAGON_ROWS):
        assert c1 + a1 <= a2 and c2 + a2 <= b2 and c2 + b2 <= b1, r
        assert (a1 + b1, a2 + b2) == (r + 1, r + 2), r
        assert c1 <= 1 and c2 <= 0, r


def test_hexagon_rows_read_as_the_clearance_lemma_says():
    for n in range(2, 401):
        k, r = divmod(n, 5)
        (a1, b1, c1), (a2, b2, c2) = assemble._HEXAGON_ROWS[r]
        first, second = k + c1, k + c2
        pairs = assemble._hexagon_pair_rows(n)
        runs = [
            [i for i, _ in pairs[:first]],
            [i for i, _ in pairs[first:]],
            [j for _, j in pairs[first:]],
            [j for _, j in pairs[:first]],
        ]
        starts = [k + a1, 2 * k + a2, 3 * k + b2, 4 * k + b1]
        assert runs == [list(range(s, s + len(run))) for s, run in zip(starts, runs)], n
        assert [len(run) for run in runs] == [first, max(second, 0), max(second, 0), first], n
        sums = [i + j for i, j in pairs]
        assert sums == [n + 1 + 2 * z for z in range(first)] + [n + 2 + 2 * z for z in range(second)], n


# n mod 4 -> the triangle sequence's row table, n as a function of its m, the
# least m used, and each row's right ends in table order as (first, step,
# count), as the clearance lemma reads them
TRIANGLE_TABLES = {
    0: (sequences._skolem_0mod4, lambda m: 4 * m, 2, COMPANION_TABLES[0][4]),
    1: (sequences._skolem_1mod4, lambda m: 4 * m + 1, 2, lambda m: [
        (2 * m + 2, 1, 2 * m), (6 * m + 2, 1, 1), (7 * m + 2, 1, m),
        (8 * m + 2, 1, 1), (5 * m + 3, 1, 1), (6 * m + 4, 1, m - 2),
    ]),
    2: (sequences._hooked_2mod4, lambda m: 4 * m + 2, 2, COMPANION_TABLES[1][4]),
    3: (sequences._hooked_3mod4, lambda m: 4 * m + 3, 1, lambda m: [
        (2 * m + 3, 1, 2 * m + 1), (5 * m + 5, 1, 1), (6 * m + 7, 1, m - 1),
        (8 * m + 7, 1, 1), (7 * m + 6, 1, m), (6 * m + 5, 1, 1),
    ]),
}


def test_triangle_sequence_comes_from_one_row_table():
    # below 7 it is a fixture
    for n in range(1, 7):
        fixtures = sequences._SKOLEM_FIXTURES if n % 4 in (0, 1) else sequences._HOOKED_FIXTURES
        assert assemble._triangle_sequence(n).entries == fixtures[n], n
    for n in range(7, 401):
        table, n_of, m_min, _ = TRIANGLE_TABLES[n % 4]
        m = n // 4
        assert n_of(m) == n and m >= m_min, n
        assert assemble._triangle_sequence(n) == table(m), n


def test_triangle_rows_read_as_the_clearance_lemma_says(right_ends):
    for table, _, m_min, rows in TRIANGLE_TABLES.values():
        for m in range(m_min, 120):
            expected = [first + step * i for first, step, count in rows(m) for i in range(count)]
            assert right_ends(table, m) == expected


def test_triangle_rows_start_at_half_n_plus_2():
    # an affine f with 0 <= f(m_min) <= f(m_min + 1) is >= 0 for every m >= m_min
    for table, n_of, m_min, rows in TRIANGLE_TABLES.values():
        for m in (m_min, m_min + 1):
            assert lowest_right_ends(rows(m))[0] == n_of(m) // 2 + 2, table.__name__

        def margins(m):
            later = lowest_right_ends(rows(m))[1:]
            return [low - (5 * m + 2) for low in later] + [5 * m + 2 - (n_of(m) // 2 + 2)]

        assert all(0 <= a <= b for a, b in zip(margins(m_min), margins(m_min + 1))), table.__name__


@given(st.integers(7, 10**9))
def test_hexagon_sums_clear_the_right_ends(n):
    # the largest sum, n + 2k + 1, is below min(lasts) + n = n//2 + 2 + n
    k = n // 5
    assert 2 * k <= 2 * n / 5 < n / 2 and 2 * k <= n // 2
    assert n + 2 * k + 1 < n // 2 + 2 + n


def test_hexagon_sums_clear_the_fixtures():
    assert assemble._hexagon_pair_rows(1) == []
    sums = {2: [3], 3: [4], 4: [5], 5: [6, 7], 6: [7, 9]}
    tops = {2: 4, 3: 6, 4: 8, 5: 9, 6: 11}
    for n in range(2, 7):
        assert [i + j for i, j in assemble._hexagon_pair_rows(n)] == sums[n], n
        assert min(assemble._triangle_sequence(n).occurrences.lasts) + n == tops[n], n
        assert n < min(sums[n]) and max(sums[n]) < tops[n], n


@pytest.mark.parametrize("t, pair, label", [(9, (7, 11), 18), (2, (1, 2), 3)])
def test_label_c3c6_refuses_a_clashing_pair(monkeypatch, t, pair, label):
    # ``verify`` is the one clash check: a pair whose sum is already a vertex
    # label (the right end 7 + 11 of the triangle (0, 2, 18) at n = 11, or the
    # symbol 3 at n = 4) makes ``label_c3c6`` fail, naming the label
    n = t + 2
    triangles = triples_from_pairs(assemble._triangle_sequence(n), n, 2)
    assert any(label in vane for vane in triangles)
    monkeypatch.setattr(families, "_hexagon_pair_rows", lambda n: [pair])
    with pytest.raises(InvalidSequence, match=rf"duplicate vertices \[{label}\]"):
        families.label_c3c6(t, 1)


def test_hexagon_merge_example():
    triples = [(0, 1, 6), (0, 2, 10), (0, 3, 7)]
    assert merge_hexagons(triples, [(1, 3)])[-1] == (0, 6, 1, 4, 3, 7)
    with pytest.raises(MissingTriple):
        merge_hexagons(triples, [(1, 5)])


def test_hexagon_merge_order8_example():
    seq = gen_skolem(8)
    triples = triples_from_pairs(seq, 8, 2)
    assert (0, 2, 14) in triples and (0, 7, 20) in triples
    merged = merge_hexagons(triples, [(2, 7)])[-1]
    assert merged == (0, 14, 2, 9, 7, 20)


def test_hexagon_merge_preserves_edges():
    seq = gen_skolem(8)
    vanes = triples_from_pairs(seq, 8, 2)
    before = edges_of(vanes)
    for pair in hexagon_pairs(8):
        vanes = merge_hexagons(vanes, [pair])
    assert edges_of(vanes) == before
    assert sum(len(v) == 6 for v in vanes) == 3


def test_hexagon_merge_randomised_edge_preservation():
    rng = random.Random(20250809)
    applications = 0
    while applications < 1000:
        n = rng.randrange(5, 61)
        seq = gen_skolem(n) if n % 4 in (0, 1) else gen_hooked_skolem(n)
        vanes = triples_from_pairs(seq, n, 2)
        before = edges_of(vanes)
        pairs = hexagon_pairs(n)
        rng.shuffle(pairs)
        take = rng.randrange(1, len(pairs) + 1)
        for pair in pairs[:take]:
            vanes = merge_hexagons(vanes, [pair])
            assert edges_of(vanes) == before
            applications += 1


class Clash(Exception):
    """A merge sum that is still a vertex label, which the references refuse."""


def reference_merge(vanes, pair):
    """One merge as it was before ``merge_hexagons``: three scans of the vanes."""
    i, j = pair
    if i == j:
        raise ValueError("pair must use two distinct symbols")

    def find(sym):
        for vane in vanes:
            if len(vane) == 3 and vane[1] == sym:
                return vane
        raise MissingTriple(f"no triangle (0, {sym}, _) present")

    tri_i = find(i)
    tri_j = find(j)
    total = i + j
    for vane in vanes:
        if total in vane:
            raise Clash(total, vane)
    merged = (0, tri_i[2], i, total, j, tri_j[2])
    return [v for v in vanes if not (len(v) == 3 and v[1] in (i, j))] + [merged]


def reference_merges(vanes, pairs):
    for pair in pairs:
        vanes = reference_merge(vanes, pair)
    return list(vanes)


def ledger_merge(vanes, pairs):
    """``merge_hexagons`` as it was with its label ledger, which refused a
    sum still in use; ``label_c3c6`` must give what this gives."""
    triangles = {}
    for vane in vanes:
        if len(vane) == 3:
            triangles.setdefault(vane[1], []).append(vane)
    used = Counter(label for vane in vanes for label in vane)
    consumed = set()
    hexagons = []

    def remaining():
        return [v for v in vanes if not (len(v) == 3 and v[1] in consumed)] + hexagons

    for i, j in pairs:
        if i == j:
            raise ValueError("pair must use two distinct symbols")
        for sym in (i, j):
            if sym not in triangles:
                raise MissingTriple(f"no triangle (0, {sym}, _) present")
        total = i + j
        if used[total]:
            raise Clash(total, next(v for v in remaining() if total in v))
        tri_i, tri_j = triangles[i][0], triangles[j][0]
        for sym in (i, j):
            for vane in triangles.pop(sym):
                used.subtract(vane)
            consumed.add(sym)
        hexagon = (0, tri_i[2], i, total, j, tri_j[2])
        used.update(hexagon)
        hexagons.append(hexagon)
    return remaining()


def merge_outcome(merge, vanes, pairs):
    try:
        return merge(vanes, pairs)
    except (ValueError, MissingTriple) as exc:
        return type(exc).__name__, str(exc)


def first_clash(vanes, pairs):
    """(step, vanes before it, sum, vane holding it) at the reference's first
    clash, or None when it merges or fails otherwise first."""
    for step, pair in enumerate(pairs):
        try:
            after = reference_merge(vanes, pair)
        except Clash as clash:
            return (step, vanes, *clash.args)
        except (ValueError, MissingTriple):
            return None
        vanes = after
    return None


def test_merge_hexagons_matches_iterated_merges():
    for n in range(5, 201):
        seq = gen_skolem(n) if n % 4 in (0, 1) else gen_hooked_skolem(n)
        triangles = triples_from_pairs(seq, n, 2)
        pairs = hexagon_pairs(n)
        expected = list(triangles)
        assert merge_hexagons(triangles, []) == expected
        for h in range(1, len(pairs) + 1):
            expected = reference_merge(expected, pairs[h - 1])
            assert merge_hexagons(triangles, pairs[:h]) == expected, (n, h)


# the large C3C6 cells of the benchmark's label-large workload
C3C6_ANCHORS = ((210, 124), (241, 180), (272, 244), (303, 300))


def test_label_c3c6_matches_the_ledger_merge():
    cells = [(t, h) for t in range(1, 61) for h in range(2 * t + 2)] + list(C3C6_ANCHORS)
    for t, h in cells:
        n = t + 2 * h
        triangles = triples_from_pairs(assemble._triangle_sequence(n), c=n, variant=2)
        expected = ledger_merge(triangles, assemble._hexagon_pair_rows(n)[:h])
        assert families.label_c3c6(t, h).vanes == tuple(expected), (t, h)


vane_lists = st.lists(
    st.one_of(
        st.tuples(st.just(0), st.integers(1, 12), st.integers(1, 24)),
        st.tuples(st.just(0), st.integers(1, 24), st.integers(1, 24), st.integers(1, 24)),
    ),
    max_size=10,
)


@settings(max_examples=400, deadline=None)
@given(vane_lists, st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=5))
def test_merge_hexagons_matches_iterated_merges_on_any_vanes(vanes, pairs):
    # repeated symbols, clashes, missing triangles and i == j all included
    clash = first_clash(vanes, pairs)
    if clash is None:
        assert merge_outcome(merge_hexagons, vanes, pairs) == merge_outcome(
            reference_merges, vanes, pairs
        )
        return
    # merge_hexagons checks no label: through the pair the reference refused,
    # its vanes repeat the sum, unless the vane holding it was a later
    # triangle on i or j, which the merge consumes with the first
    step, before, total, holder = clash
    pair = pairs[step]
    merged = merge_hexagons(vanes, pairs[: step + 1])
    firsts = [next(v for v in before if len(v) == 3 and v[1] == sym) for sym in pair]
    consumed = len(holder) == 3 and holder[1] in pair and holder not in firsts
    assert consumed or sum(vane.count(total) for vane in merged) >= 2


def test_single_merges_are_merge_hexagons():
    triples = [(0, 1, 6), (0, 2, 10), (0, 3, 7)]
    with pytest.raises(MissingTriple, match=r"no triangle \(0, 1, _\) present"):
        merge_hexagons(triples, [(1, 3), (1, 2)])  # the first merge consumed 1
    # the first triangle on a symbol merges, and the merge consumes the others on it
    assert merge_hexagons([(0, 4, 5), (0, 1, 9), *triples], [(1, 2)]) == [
        (0, 4, 5), (0, 3, 7), (0, 9, 1, 3, 2, 10)
    ]


# -- vane builders against the PairSet path -------------------------------------


def reference_triples(seq, c, variant):
    """Triangles read off a ``PairSet`` as before the occurrence index, kept as a reference."""
    pairs = pairs_of(seq)
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    symbols = pairs.symbols
    if not symbols:
        return []
    if c < max(symbols):
        raise ShiftTooSmall(f"shift {c} below largest symbol {max(symbols)}")
    triples = []
    for sym in symbols:
        a, b = pairs.single(sym)
        triples.append((0, a + c, b + c) if variant == 1 else (0, sym, b + c))
    return triples


def reference_quadruples(seq, c):
    if c < 0:
        raise BoundViolation(f"shift must be non-negative, got {c}")
    if seq.is_hooked:
        raise BoundViolation("two-fold quadruple input must be hook-free")
    pairs = pairs_of(seq)
    quads = []
    seen = set()
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


def reference_fivetuples(p, shift):
    base, companion = assemble._fivetuple_sources(p)
    base_pairs = pairs_of(base)
    comp_pairs = pairs_of(companion)
    tuples = []
    for i in range(1, p + 1):
        a, b = base_pairs.single(i)
        _, d_b = comp_pairs.single(b)
        _, d_a = comp_pairs.single(a)
        tuples.append((0, d_b + shift, b, a, d_a + shift))
    return tuples


def built(build, *args):
    # fresh sequences, so neither path reads what the other cached
    args = [SkolemTypeSequence(a.entries) if isinstance(a, SkolemTypeSequence) else a for a in args]
    try:
        return build(*args)
    except Exception as exc:  # the error is part of the outcome
        return type(exc).__name__, str(exc)


def assert_builders_match(seq, c, variants=(1, 2)):
    for variant in variants:
        assert built(triples_from_pairs, seq, c, variant) == built(reference_triples, seq, c, variant)
    assert built(quadruples_from_twofold, seq, c) == built(reference_quadruples, seq, c)


def family_cells():
    """(sequence, shift) for every vane block the five families build on a grid,
    with shifts just below and above the family's own."""
    cells = []
    for n in range(1, 121):  # C3, C3C6 (n = t + 2h) and the C3C4 triangle blocks
        seq = families._triangle_sequence(n)
        cells += [(seq, c) for c in (n - 1, n, 4 * n + 3)]
    for t in range(1, 17):
        for s in range(1, 101):
            rule, params = families._c3c4_rule(t, s)
            if rule in families._SQUARE_BLOCKS:
                block = families._SQUARE_BLOCKS[rule](params)
                cells += [(block, t - 1), (block, t)]
            elif rule.startswith("extension-case"):
                k = params["k"]
                c = families._square_shift(t, params["s_base"])
                block = gen_twofold_langford(k)
                cells += [(block, c), (block, 2 * k + 1)]
    for p in range(1, 10):  # C3C5 triangle blocks
        for t in range(2 * p + 1, 2 * p + 10):
            if exists("langford", order=t, defect=p + 1):
                cells += [(langford_sequence(p + 1, t), c) for c in (p + t - 1, p + t)]
    return list({(seq.entries, c): (seq, c) for seq, c in cells}.values())


def test_vane_builders_match_reference_on_every_family():
    cells = family_cells()
    assert len(cells) > 1500
    for seq, c in cells:
        assert_builders_match(seq, c)
    for p in range(1, 120):  # C5 at shift p, C3C5 at shift p + 3t
        for shift in (p, 7 * p + 3):
            assert built(fivetuples_shifted, p, shift) == built(reference_fivetuples, p, shift)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=24),
    st.integers(min_value=-1, max_value=12),
    st.integers(min_value=0, max_value=3),
)
def test_vane_builders_match_reference_on_random_entries(entries, c, variant):
    assert_builders_match(SkolemTypeSequence(tuple(entries)), c, (variant,))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=23)),
        max_size=16,
    ),
    st.integers(min_value=0, max_value=12),
)
def test_vane_builders_match_reference_on_placed_pairs(placements, c):
    entries = [0] * 24
    for sym, left in placements:
        right = left + sym
        if right <= 24 and entries[left - 1] == entries[right - 1] == 0:
            entries[left - 1] = entries[right - 1] = sym
    while entries and not entries[-1]:
        entries.pop()  # no hooks, so the squares get past the hook check
    assert_builders_match(SkolemTypeSequence(tuple(entries)), c)


def test_builder_errors_keep_their_precedence():
    # the random comparisons above reach these orders only by chance
    S = SkolemTypeSequence
    # a label repeat at symbol 2 comes before the count of symbol 3 (one pair)
    with pytest.raises(BoundViolation, match=r"^vertex label 2 repeats \(shift 0 too small\)$"):
        quadruples_from_twofold(S((1, 1, 2, 2, 2, 2, 3, 1, 1, 3)), 0)
    # a greedy failure comes before the variant, the shift and the counts
    with pytest.raises(UnmatchedSymbol, match=r"^symbol 2: no partner at distance 2 from position 5$"):
        triples_from_pairs(S((2,) * 6), 3, 7)
    ones = S((1, 1, 1, 1))  # pairs greedily, as fold 2
    with pytest.raises(ValueError, match=r"^variant must be 1 or 2, got 3$"):
        triples_from_pairs(ones, 0, 3)
    with pytest.raises(ShiftTooSmall, match=r"^shift 0 below largest symbol 1$"):
        triples_from_pairs(ones, 0, 1)
    with pytest.raises(UnmatchedSymbol, match=r"^symbol 1 has 2 pairs, expected 1$"):
        triples_from_pairs(ones, 1, 1)
    for variant in (1, 2):
        assert triples_from_pairs(S(()), 0, variant) == []
    assert quadruples_from_twofold(S(()), 0) == []
