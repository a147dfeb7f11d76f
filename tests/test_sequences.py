import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from windmills import oracle, sequences
from windmills.errors import (
    HookedOperand,
    InvalidSequence,
    NoSuchSequence,
    OutOfRange,
    SearchBudgetExhausted,
    UnknownKind,
    UnmatchedSymbol,
    UnsupportedOrder,
    WindmillError,
)
from windmills.sequences import (
    SequenceKind,
    SkolemTypeSequence,
    concat,
    double,
    exists,
    fixed_small_twofold,
    gen_hooked_skolem,
    gen_langford_doubledefect,
    gen_near_skolem_topdefect,
    gen_power4,
    gen_skolem,
    gen_twofold_langford,
    gen_twofold_skolem,
    langford_sequence,
    parse_sequence,
    validate,
)

import reference_kinds
from reference_pairing import PairSet, pairs_of


def seq(*entries):
    return SkolemTypeSequence(tuple(entries))


# -- validation ---------------------------------------------------------------


def test_validate_accepts_skolem_type_example():
    s = seq(6, 4, 1, 1, 3, 4, 6, 3)
    assert validate(s, SequenceKind("skolem-type", symbols=frozenset({1, 3, 4, 6}))).ok
    assert validate(s, SequenceKind("skolem-type")).ok
    assert not validate(s, SequenceKind("skolem-type", symbols=frozenset({1, 2, 4, 6}))).ok
    ps = pairs_of(s)
    assert ps.symbols == (1, 3, 4, 6)


def test_validate_single_pair():
    assert validate(seq(1, 1), SequenceKind("skolem")).ok


def test_validate_rejects_distance_violation():
    report = validate(seq(1, 1, 2, 2), SequenceKind("skolem"))
    assert not report.ok
    assert any("distance" in v for v in report.violations)


def test_validate_near_skolem_example():
    s = seq(1, 1, 6, 3, 7, 5, 3, 2, 6, 2, 5, 7)
    assert validate(s, SequenceKind("near-skolem", defect=4)).ok
    # wrong defect must be rejected
    assert not validate(s, SequenceKind("near-skolem", defect=2)).ok


def test_validate_hooked_near_skolem_example():
    s = seq(2, 5, 2, 4, 6, 7, 5, 4, 1, 1, 6, 0, 7)
    assert validate(s, SequenceKind("hooked-near-skolem", defect=3)).ok


def test_validate_hook_position_enforced():
    # hook must be at the penultimate cell
    report = validate(seq(2, 0, 2, 1, 1), SequenceKind("hooked-skolem"))
    assert not report.ok


def test_validate_hooked_skolem_type_example():
    s = seq(5, 3, 1, 1, 3, 5, 2, 0, 2)
    report = validate(
        s, SequenceKind("hooked-near-skolem", defect=4)
    )  # H = {1,2,3,5} = [1,5] minus 4
    assert report.ok


# -- pairing ------------------------------------------------------------------


def test_pairs_of_hooked_order3():
    ps = pairs_of(parse_sequence("3,1,1,3,2,0,2"))
    assert ps.single(1) == (2, 3)
    assert ps.single(2) == (5, 7)
    assert ps.single(3) == (1, 4)


def test_pairs_of_trivial():
    assert pairs_of(seq(1, 1)).single(1) == (1, 2)


def test_pairs_of_twofold():
    ps = pairs_of(seq(8, 8, 4, 4, 1, 1, 4, 4, 8, 8, 1, 1))
    assert ps.pairs_for(1) == ((5, 6), (11, 12))
    assert ps.pairs_for(4) == ((3, 7), (4, 8))
    assert ps.pairs_for(8) == ((1, 9), (2, 10))


def test_pairs_of_rejects_unmatchable():
    with pytest.raises(UnmatchedSymbol):
        pairs_of(seq(2, 2, 2, 2, 2, 2))  # six twos cannot pair greedily at distance 2


def test_pairs_roundtrip_examples():
    for s in (
        gen_skolem(9),
        gen_hooked_skolem(7),
        gen_twofold_skolem(6),
        gen_twofold_langford(2),
        gen_near_skolem_topdefect(13),
    ):
        assert pairs_of(s).to_entries() == s


def reference_pairs_of(seq):
    """The quadratic greedy pairing that ``pairs_of`` replaced, kept as a reference."""
    pairs = {}
    for sym in sorted(seq.symbol_set):
        positions = [pos for pos, e in enumerate(seq.entries, 1) if e == sym]
        matched = []
        while positions:
            left = positions.pop(0)
            right = left + sym
            if right not in positions:
                raise UnmatchedSymbol(
                    f"symbol {sym}: no partner at distance {sym} from position {left}"
                )
            positions.remove(right)
            matched.append((left, right))
        pairs[sym] = matched
    return PairSet(pairs, seq.length)


def outcome(pair, entries):
    # a fresh instance, so no pairing cached by a generator is read
    try:
        return pair(SkolemTypeSequence(tuple(entries)))
    except UnmatchedSymbol as exc:
        return str(exc)


GENERATED = (
    [gen_skolem(n) for n in range(1, 41) if n % 4 in (0, 1)]
    + [gen_hooked_skolem(n) for n in range(2, 41) if n % 4 in (2, 3)]
    + [gen_langford_doubledefect(d) for d in range(1, 15)]
    + [gen_near_skolem_topdefect(n) for n in range(11, 60, 2)]
    + [gen_twofold_skolem(n) for n in range(1, 31)]
    + [gen_power4(x, trimmed=trimmed) for x in range(1, 11) for trimmed in (False, True)]
    + [gen_twofold_langford(k) for k in range(1, 6)]
    + [fixed_small_twofold(y) for y in range(5)]
)


def place_pairs(placements, length=24):
    """Entries holding each (symbol, left) pair whose two cells are still free."""
    entries = [0] * length
    for sym, left in placements:
        right = left + sym
        if right <= length and entries[left - 1] == entries[right - 1] == 0:
            entries[left - 1] = entries[right - 1] = sym
    return entries


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=24))
def test_pairs_of_matches_reference_on_random_entries(entries):
    assert outcome(pairs_of, entries) == outcome(reference_pairs_of, entries)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GENERATED),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_pairs_of_matches_reference_on_generated_sequences(seq, i, j):
    entries = list(seq.entries)
    assert outcome(pairs_of, entries) == outcome(reference_pairs_of, entries)
    if entries:  # swapping two cells usually breaks the pairing
        i, j = i % len(entries), j % len(entries)
        entries[i], entries[j] = entries[j], entries[i]
        assert outcome(pairs_of, entries) == outcome(reference_pairs_of, entries)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=23)),
        max_size=16,
    )
)
def test_pairs_of_matches_reference_on_interleaved_twofold(placements):
    # placing a symbol twice often interleaves its pairs, as in 3,3,0,3,3
    entries = place_pairs(placements)
    assert outcome(pairs_of, entries) == outcome(reference_pairs_of, entries)


def greedy_outcome(entries):
    """The package's failure-naming walk in ``PairSet`` form, or its error text."""
    try:
        pairs = sequences._greedy_pairs(SkolemTypeSequence(tuple(entries)))
    except UnmatchedSymbol as exc:
        return str(exc)
    assert list(pairs) == sorted(pairs)  # in symbol order
    return PairSet(pairs, len(entries))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=24))
def test_greedy_walk_matches_reference_on_random_entries(entries):
    assert greedy_outcome(entries) == outcome(reference_pairs_of, entries)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=23)),
        max_size=16,
    )
)
def test_greedy_walk_matches_reference_on_interleaved_twofold(placements):
    entries = place_pairs(placements)
    assert greedy_outcome(entries) == outcome(reference_pairs_of, entries)


def test_pairs_of_greedy_on_interleaved_pairs():
    # symbol 3 at positions 1, 2, 4, 5: pairing each occurrence with the
    # previous open one would reject this
    s = seq(3, 3, 0, 3, 3)
    assert pairs_of(s).pairs_for(3) == ((1, 4), (2, 5))
    assert pairs_of(s) == reference_pairs_of(s)


def test_pairs_of_reports_the_first_failing_symbol():
    # 3 fails at position 1 and 1 at position 5, while 2 pairs: the smallest
    # failing symbol is reported, not the leftmost failure
    s = seq(3, 2, 0, 2, 1, 0, 1, 3)
    with pytest.raises(UnmatchedSymbol, match=r"^symbol 1: no partner at distance 1 from position 5$"):
        pairs_of(s)


def test_pairs_of_gives_an_equal_pairing_on_every_call():
    s = seq(3, 1, 1, 3, 2, 0, 2)
    assert pairs_of(s) == pairs_of(s)
    assert s == seq(3, 1, 1, 3, 2, 0, 2) and hash(s) == hash(seq(3, 1, 1, 3, 2, 0, 2))
    gen = gen_skolem(12)
    assert pairs_of(gen) == pairs_of(gen)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_pairs_roundtrip_property(n):
    s = gen_twofold_skolem(n)
    assert pairs_of(s).to_entries() == s


# -- the occurrence index against the PairSet path ----------------------------


def reference_validate(seq, kind, fragment=False):
    """``validate`` as it was before the occurrence index, kept as a reference:
    every check reads the entries, and the pairing comes from ``reference_pairs_of``."""
    violations = []
    fold = kind.fold
    order = seq.order
    hooks = seq.hook_positions
    if kind.hooked:
        expected_hook = 2 * fold * order
        if hooks != {expected_hook}:
            violations.append(
                f"hook must sit exactly at position {expected_hook}, found {sorted(hooks)}"
            )
    elif hooks:
        violations.append(f"unexpected hooks at positions {sorted(hooks)}")
    for sym, cnt in sorted(Counter(e for e in seq.entries if e).items()):
        if fragment:
            if cnt % 2 != 0 or not 2 <= cnt <= 2 * fold:
                violations.append(f"symbol {sym} occurs {cnt} times")
        elif cnt != 2 * fold:
            violations.append(f"symbol {sym} occurs {cnt} times, expected {2 * fold}")
    if not fragment:
        expected_len = 2 * fold * order + len(hooks)
        if seq.length != expected_len:
            violations.append(f"length {seq.length}, expected {expected_len}")
    try:
        reference_pairs_of(seq)
    except UnmatchedSymbol as exc:
        violations.append(str(exc))
    expected = kind.expected_symbols(order)
    if expected is not None and seq.symbol_set != expected:
        extra = sorted(seq.symbol_set - expected)
        missing = sorted(expected - seq.symbol_set)
        if extra:
            violations.append(f"symbols outside the kind's set: {extra}")
        if missing:
            violations.append(f"symbols missing from the kind's set: {missing}")
    return sequences.SequenceReport(ok=not violations, violations=tuple(violations))


FIXED_KINDS = (
    SequenceKind("skolem"),
    SequenceKind("hooked-skolem"),
    SequenceKind("near-skolem", defect=2),
    SequenceKind("hooked-near-skolem", defect=3),
    SequenceKind("langford", defect=2),
    SequenceKind("hooked-langford", defect=2),
    SequenceKind("skolem-type"),
    SequenceKind("skolem-type", symbols=frozenset({1, 2, 3})),
    SequenceKind("two-fold-skolem"),
    SequenceKind("two-fold-langford", defect=2),
    SequenceKind("two-fold-skolem-type"),
)


def kinds_for(entries):
    """The fixed kinds plus those whose symbol set or defect fits ``entries``."""
    symbols = frozenset(entries) - {0}
    kinds = list(FIXED_KINDS)
    kinds += [SequenceKind(tag, symbols=symbols) for tag in ("skolem-type", "two-fold-skolem-type")]
    if symbols:
        low, high = min(symbols), max(symbols)
        kinds += [SequenceKind(tag, defect=low) for tag in ("langford", "hooked-langford", "two-fold-langford")]
        if high > 1:
            kinds += [SequenceKind(tag, defect=high - 1) for tag in ("near-skolem", "hooked-near-skolem")]
    return kinds


def assert_index_matches_reference(entries):
    # fresh instances throughout, so nothing cached by a generator is read
    entries = tuple(entries)
    for kind in kinds_for(entries):
        for fragment in (False, True):
            got = validate(SkolemTypeSequence(entries), kind, fragment=fragment)
            want = reference_validate(SkolemTypeSequence(entries), kind, fragment=fragment)
            assert got == want, (entries, kind, fragment)
    occ = SkolemTypeSequence(entries).occurrences
    positions = {}
    for pos, sym in enumerate(entries, 1):
        positions.setdefault(sym, []).append(pos)
    zeros = positions.pop(0, [])
    assert (occ.hooks, occ.first_hook) == (len(zeros), zeros[0] if zeros else None)
    assert occ.symbols == tuple(sorted(positions))
    assert occ.firsts == tuple(positions[s][0] for s in occ.symbols)
    assert occ.lasts == tuple(positions[s][-1] for s in occ.symbols)
    try:
        pairs = reference_pairs_of(SkolemTypeSequence(entries))
    except UnmatchedSymbol:
        pairs = None
    counts = {len(p) for p in positions.values()}
    fold = {2: 1, 4: 2}.get(counts.pop(), 0) if pairs and len(counts) == 1 else 0
    assert occ.fold == fold, entries
    if fold == 1:
        assert all(pairs.single(s) == (f, l) for s, f, l in zip(*occ[1:4]))
    elif fold == 2:
        assert all(
            pairs.pairs_for(s) == ((f, f + s), (l - s, l)) for s, f, l in zip(*occ[1:4])
        )


def test_validate_pairs_only_what_the_index_leaves_unfolded(monkeypatch):
    # every generated sequence against its own kind (it passes), the two-fold
    # ones against "skolem" (they fail) and the trimmed power-of-4 fragments
    # (they pass; two of them are the fold-1 pair (1, 1))
    cases = (
        [(gen_skolem(n), SequenceKind("skolem"), False, True) for n in range(1, 41) if n % 4 in (0, 1)]
        + [(gen_hooked_skolem(n), SequenceKind("hooked-skolem"), False, True) for n in range(2, 41) if n % 4 in (2, 3)]
        + [(gen_langford_doubledefect(d), SequenceKind("langford", defect=d), False, True) for d in range(1, 15)]
        + [
            (gen_near_skolem_topdefect(n), SequenceKind(("hooked-" if n % 4 == 1 else "") + "near-skolem", defect=n - 1), False, True)
            for n in range(11, 60, 2)
        ]
        + [(gen_twofold_skolem(n), SequenceKind("two-fold-skolem"), False, True) for n in range(1, 31)]
        + [(gen_twofold_skolem(n), SequenceKind("skolem"), False, False) for n in range(1, 31)]
        + [(gen_power4(x), SequenceKind("two-fold-skolem-type"), False, True) for x in range(1, 21)]
        + [(gen_power4(x, trimmed=True), SequenceKind("two-fold-skolem-type"), True, True) for x in range(21)]
        + [(gen_twofold_langford(k), SequenceKind("two-fold-langford", defect=6 * k - 1), False, True) for k in range(1, 6)]
        + [(fixed_small_twofold(y), SequenceKind("two-fold-skolem-type"), False, True) for y in range(5)]
    )
    paired = []
    real = sequences._greedy_pairs

    def counting(s):
        paired.append(s)
        return real(s)

    monkeypatch.setattr(sequences, "_greedy_pairs", counting)
    for s, kind, fragment, ok in cases:
        assert validate(s, kind, fragment=fragment).ok == ok, (s.entries, kind)
    unfolded = [s for s, *_ in cases if s.occurrences.fold == 0]
    assert len(unfolded) == 20  # 19 trimmed fragments and the empty small sequence
    assert [s.entries for s in paired] == [s.entries for s in unfolded]


def test_index_fold_two_needs_distinct_middle_cells():
    # symbol 3 sits at 2, 5, 7, 8: 2+3 and 8-3 are the same cell, so the
    # greedy pairing takes (2, 5) and leaves 7 without a partner
    for entries in ((2, 3, 2, 2, 3, 2, 3, 3), (3, 3, 2, 3, 2, 2, 3, 2)):
        assert SkolemTypeSequence(entries).occurrences.fold == 0
        assert_index_matches_reference(entries)


def test_index_matches_reference_on_every_generated_sequence():
    for seq in GENERATED:
        assert_index_matches_reference(seq.entries)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=24))
def test_index_matches_reference_on_random_entries(entries):
    assert_index_matches_reference(entries)


def test_is_hooked_matches_hook_positions_on_every_generated_sequence():
    assert {seq.is_hooked for seq in GENERATED} == {False, True}
    for seq in GENERATED:
        assert seq.is_hooked == bool(seq.hook_positions), seq.entries


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=24))
def test_is_hooked_matches_hook_positions_on_random_entries(entries):
    seq = SkolemTypeSequence(tuple(entries))
    assert seq.is_hooked == bool(seq.hook_positions)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GENERATED),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_index_matches_reference_on_swapped_cells(seq, i, j):
    entries = list(seq.entries)
    if entries:
        i, j = i % len(entries), j % len(entries)
        entries[i], entries[j] = entries[j], entries[i]
    assert_index_matches_reference(entries)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=23)),
        max_size=16,
    )
)
def test_index_matches_reference_on_interleaved_twofold(placements):
    assert_index_matches_reference(place_pairs(placements))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(GENERATED),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_index_matches_reference_on_fragments(seq, i, j):
    # a slice of a valid sequence cuts some pairs: fragments and half pairs
    n = len(seq.entries) + 1
    i, j = sorted((i % n, j % n))
    assert_index_matches_reference(seq.entries[i:j])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GENERATED), st.sampled_from(GENERATED))
def test_index_matches_reference_on_mixed_folds(first, second):
    # concatenations mix folds, repeat symbols and move hooks off the end
    assert_index_matches_reference(first.entries + second.entries)


# -- generators ---------------------------------------------------------------


def test_gen_skolem_order8_table_value():
    assert gen_skolem(8).entries == (8, 6, 4, 2, 7, 2, 4, 6, 8, 3, 5, 7, 3, 1, 1, 5)


def test_gen_skolem_small_fixtures():
    assert gen_skolem(1).entries == (1, 1)
    assert gen_skolem(4).entries == (4, 2, 3, 2, 4, 3, 1, 1)
    assert validate(gen_skolem(5), SequenceKind("skolem")).ok


def test_gen_skolem_nonexistent():
    for n in (2, 3, 6, 7):
        with pytest.raises(NoSuchSequence):
            gen_skolem(n)


def test_gen_hooked_skolem_values():
    assert gen_hooked_skolem(3).entries == (3, 1, 1, 3, 2, 0, 2)
    assert gen_hooked_skolem(2).entries == (1, 1, 2, 0, 2)
    with pytest.raises(NoSuchSequence):
        gen_hooked_skolem(4)


def test_gen_langford_doubledefect():
    assert gen_langford_doubledefect(1).entries == (1, 1)
    assert gen_langford_doubledefect(2).entries == (4, 2, 3, 2, 4, 3)
    s = gen_langford_doubledefect(3)
    assert s.symbol_set == set(range(3, 8))
    assert validate(s, SequenceKind("langford", defect=3)).ok


def test_gen_near_skolem_topdefect():
    s13 = gen_near_skolem_topdefect(13)
    assert s13.is_hooked
    assert s13.symbol_set == set(range(1, 12)) | {13}
    ps = pairs_of(s13)
    assert all(ps.single(sym)[1] > 8 for sym in ps.symbols)  # no rights in [1,8]

    s11 = gen_near_skolem_topdefect(11)
    assert not s11.is_hooked
    assert s11.symbol_set == set(range(1, 10)) | {11}

    with pytest.raises(UnsupportedOrder):
        gen_near_skolem_topdefect(9)


def test_gen_twofold_skolem():
    assert gen_twofold_skolem(1).entries == (1, 1, 1, 1)
    assert gen_twofold_skolem(2).entries == (1, 1, 1, 1, 2, 2, 2, 2)
    assert gen_twofold_skolem(3).entries == (3, 1, 1, 3, 3, 1, 1, 3, 2, 2, 2, 2)


def test_gen_power4():
    assert gen_power4(3).entries == (8, 8, 4, 4, 1, 1, 4, 4, 8, 8, 1, 1)
    assert gen_power4(1).entries == (1, 1, 1, 1)
    assert gen_power4(0, trimmed=True).entries == (1, 1)
    assert gen_power4(3, trimmed=True).entries == (8, 8, 4, 4, 1, 1, 4, 4, 8, 8)
    with pytest.raises(OutOfRange):
        gen_power4(0)


def test_fixed_small_twofold():
    assert fixed_small_twofold(0).entries == ()
    assert fixed_small_twofold(2).entries == (2, 3, 2, 3, 3, 2, 3, 2)
    assert fixed_small_twofold(4).entries == (6, 6, 2, 2, 2, 2, 6, 6, 5, 3, 5, 3, 3, 5, 3, 5)
    with pytest.raises(OutOfRange):
        fixed_small_twofold(5)


def test_gen_twofold_langford():
    assert gen_twofold_langford(1).entries == (6, 6, 7, 5, 7, 5, 6, 6, 5, 7, 5, 7)
    s = gen_twofold_langford(2)
    assert s.symbol_set == set(range(11, 18))
    assert s.length == 28
    with pytest.raises(OutOfRange):
        gen_twofold_langford(0)


# sha256 over repr((generator, args, entries or the error's class name)) of
# every call of GENERATOR_CALLS, in order, recorded before the tables were
# written as rows
GENERATOR_GRID = "068aac71a94725c897e940098333c5dded4d2912488db4889b82c755d81a0e3b"
GENERATOR_CALLS = [
    *((gen, (n,)) for gen in (gen_skolem, gen_hooked_skolem, gen_twofold_skolem) for n in range(600)),
    *((gen_near_skolem_topdefect, (n,)) for n in range(600)),
    *((gen_langford_doubledefect, (d,)) for d in range(300)),
    *((gen_power4, (x, trimmed)) for x in range(150) for trimmed in (False, True)),
    *((gen_twofold_langford, (k,)) for k in range(100)),
]


def test_generator_outputs_are_pinned(cold_memos):
    digest = hashlib.sha256()
    for gen, args in GENERATOR_CALLS:
        try:
            out = gen(*args).entries
        except WindmillError as exc:
            out = type(exc).__name__
        digest.update(repr((gen.__name__, args, out)).encode())
    assert digest.hexdigest() == GENERATOR_GRID


def test_rows_fill_their_cells():
    # lefts step down to cell 1; a row of one pair may give zero steps
    assert sequences._from_rows(6, ((2, 2, 2, 2, -1), (1, 3, 0, 3, 0))).entries == (4, 2, 3, 2, 4, 3)
    assert sequences._from_rows(8, ((1, 4, 0, 1, 0), (2, 2, 1, 2, 1), (1, 1, 0, 7, 0))).entries == (
        4, 2, 3, 2, 4, 3, 1, 1,
    )
    # a row whose count is below 1 holds nothing, wherever it points
    assert sequences._from_rows(3, ((0, 1, 0, 9, 0), (-2, 1, 0, -9, 0))).entries == (0, 0, 0)


def test_cell_cap_holds_at_the_row_tables_and_the_pair_search():
    assert sequences._from_rows(sequences.MAX_CELLS, ()).length == sequences.MAX_CELLS
    with pytest.raises(OutOfRange, match="^sequence of 1000001 cells, above the limit of 1000000$"):
        sequences._from_rows(sequences.MAX_CELLS + 1, ())
    # a Langford sequence of defect 2 and order 500003 exists; its cells are refused unsearched
    with mock.patch.object(sequences, "_search_pairs", side_effect=AssertionError("searched")):
        with pytest.raises(OutOfRange, match="^sequence of 1000006 cells"):
            sequences.langford_sequence(2, 500003)


@pytest.mark.parametrize(
    "row",
    [
        (1, 1, 0, 0, 0),  # starts below cell 1
        (1, 1, 0, -2, 0),  # starts where a slice would wrap round to the end
        (1, 6, 0, 1, 0),  # its right end is past the length
        (3, 2, 0, 3, 1),  # runs past the length
        (3, 1, 0, 2, -1),  # runs below cell 1 on a negative step
        (2, 1, 0, 1, 0),  # two pairs on one cell, a slice that would grow the list
    ],
)
def test_rows_outside_the_cells_are_rejected(row):
    with pytest.raises(InvalidSequence, match="leaves cells"):
        sequences._from_rows(6, (row,))


@pytest.mark.parametrize(
    "gen, arg",
    [
        (gen_skolem, 8),
        (gen_skolem, 9),
        (gen_hooked_skolem, 10),
        (gen_hooked_skolem, 11),
        (gen_langford_doubledefect, 3),
        (gen_near_skolem_topdefect, 13),
        (gen_near_skolem_topdefect, 11),
        (gen_twofold_skolem, 5),
        (gen_twofold_skolem, 6),
        (gen_power4, 3),
        (gen_twofold_langford, 2),
    ],
)
def test_overlapping_rows_fail_validation(monkeypatch, cold_memos, gen, arg):
    # one more pair of 1s on cells 1 and 2, which each of these tables fills with other symbols
    real = sequences._from_rows
    monkeypatch.setattr(
        sequences, "_from_rows", lambda length, rows: real(length, (*rows, (1, 1, 0, 1, 0)))
    )
    with pytest.raises(InvalidSequence, match="generated sequence invalid"):
        gen(arg)


# -- combinators --------------------------------------------------------------


def test_concat_and_double():
    assert concat([seq(), seq(1, 1)]).entries == (1, 1)
    two = concat([seq(1, 1), seq(1, 1)])
    assert validate(two, SequenceKind("two-fold-skolem")).ok
    assert double(seq(1, 1)).entries == (1, 1, 1, 1)

    doubled = double(gen_langford_doubledefect(2))
    assert validate(doubled, SequenceKind("two-fold-langford", defect=2)).ok

    with pytest.raises(HookedOperand):
        double(gen_hooked_skolem(3))
    with pytest.raises(HookedOperand):
        concat([gen_hooked_skolem(3), seq(1, 1)])


@pytest.mark.parametrize("d", [1, 2, 5, 12, 25, 33])
def test_double_langford_validates_up_to_order_100(d):
    doubled = double(gen_langford_doubledefect(d))
    assert validate(doubled, SequenceKind("two-fold-langford", defect=d)).ok


@pytest.mark.parametrize("n", [1, 4, 5, 8, 9, 40, 97, 100])
def test_double_skolem_validates(n):
    doubled = double(gen_skolem(n))
    assert validate(doubled, SequenceKind("two-fold-skolem")).ok


# -- existence ----------------------------------------------------------------


def test_exists_table_rows():
    assert not exists("skolem", 7)
    assert exists("hooked-skolem", 7)
    assert not exists("langford", 5, defect=2)
    assert exists("hooked-langford", 5, defect=2)
    assert exists("langford", 1, defect=1)
    assert exists("near-skolem", 7, defect=4)
    assert not exists("near-skolem", 7, defect=3)
    assert exists("hooked-near-skolem", 7, defect=3)
    assert exists("two-fold-skolem", 6)
    for tag in ("m-fold-skolem", "hooked-m-fold-skolem"):
        with pytest.raises(UnknownKind):
            exists(tag, 6)
    assert all(exists("two-fold-skolem", n) for n in range(1, 201))
    assert not exists(SequenceKind("langford", defect=2), 5)  # kind objects work too
    with pytest.raises(UnknownKind):
        exists("two-fold-langford", 3, defect=5)
    with pytest.raises(UnknownKind):
        exists(["skolem"], 4)  # an unhashable tag is unknown too


def call_outcome(call, *args):
    """A call's value, or its exception's type and text."""
    try:
        return call(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def test_kind_table_matches_the_per_tag_rules():
    # every tag and an unknown one, orders None, -1, 0..40 and defects None, -1,
    # 0..12 (7,095 cases); kinds are also built with an explicit symbol set
    assert sequences.KNOWN_TAGS == reference_kinds.KNOWN_TAGS
    orders = (None, -1, *range(41))
    cases = 0
    for tag in (*reference_kinds.KNOWN_TAGS, "mystery"):
        for defect in (None, -1, *range(13)):
            for order in orders:
                got = call_outcome(exists, tag, order, defect)
                assert got == call_outcome(reference_kinds.exists, tag, order, defect)
                cases += 1
            for symbols in (None, frozenset({2, 3})):
                kind = call_outcome(SequenceKind, tag, defect, symbols)
                ref = call_outcome(reference_kinds.SequenceKind, tag, defect, symbols)
                if not isinstance(kind, SequenceKind):
                    assert kind == ref, (tag, defect, symbols)
                    continue
                assert isinstance(ref, reference_kinds.SequenceKind)
                assert (kind.fold, kind.hooked) == (ref.fold, ref.hooked)
                for order in orders:
                    for call, want in (
                        (exists, reference_kinds.exists),
                        (oracle._symbols, reference_kinds._symbols),
                        (SequenceKind.expected_symbols, reference_kinds.SequenceKind.expected_symbols),
                    ):
                        got = call_outcome(call, kind, order)
                        assert got == call_outcome(want, ref, order), (call, tag, defect, symbols, order)
    assert cases == 7095


@pytest.mark.parametrize("n", range(1, 201))
def test_generator_outputs_validate(n):
    if n % 4 in (0, 1):
        assert validate(gen_skolem(n), SequenceKind("skolem")).ok
    else:
        assert validate(gen_hooked_skolem(n), SequenceKind("hooked-skolem")).ok
    assert validate(gen_twofold_skolem(n), SequenceKind("two-fold-skolem")).ok


def test_table_first_right_endpoint_all_orders():
    # closed-form outputs put their first right endpoint at ceil((n+3)/2)
    for n in range(8, 201):
        s = gen_skolem(n) if n % 4 in (0, 1) else gen_hooked_skolem(n)
        ps = pairs_of(s)
        first = min(r for sym in ps.symbols for _, r in ps.pairs_for(sym))
        assert first == (n + 3 + 1) // 2, n


def test_langford_sequence_search():
    s = langford_sequence(5, 9)
    # the closed-form table output, which feeds the worked 3,5-windmill example
    assert s.entries == (13, 11, 9, 7, 5, 12, 10, 8, 6, 5, 7, 9, 11, 13, 6, 8, 10, 12)
    s2 = langford_sequence(3, 8)
    assert validate(s2, SequenceKind("langford", defect=3)).ok
    with pytest.raises(NoSuchSequence):
        langford_sequence(2, 5)


def test_langford_sequence_long_order_split():
    # l >= 8d - 4: the closed-form defect-d head, then a Langford tail of defect
    # 3d - 1 (here again closed form); the search alone finds another sequence
    langford_sequence.cache_clear()
    assert langford_sequence(2, 12) == concat(
        [gen_langford_doubledefect(2), gen_langford_doubledefect(5)]
    )


@pytest.mark.parametrize("d_mod_2, l_mod_4", [(1, 0), (1, 1), (0, 0), (0, 3)])
def test_long_order_split_tail_is_admissible_per_residue_class(d_mod_2, l_mod_4):
    # an admissible (d, l) has l mod 4 in row[d even]; the tail (3d-1, l-2d+1)
    # has the other defect parity and order l+3 (odd d) or l+1 (even d) mod 4
    row = sequences._RESIDUES["langford"]
    assert l_mod_4 in row[d_mod_2 == 0]
    assert (l_mod_4 - 2 * d_mod_2 + 1) % 4 in row[d_mod_2 == 1]


def test_long_order_split_tail_exists_whenever_the_order_does():
    # at l = 8d-4 the tail order 6d-3 is the tail's lower bound 2(3d-1)-1
    for d in range(1, 61):
        for l in range(8 * d - 4, 8 * d + 100):
            if exists("langford", order=l, defect=d):
                assert exists("langford", order=l - (2 * d - 1), defect=3 * d - 1), (d, l)


def test_long_order_split_searches_directly_when_the_tail_runs_out(monkeypatch):
    # Under 50,000 placements the tails (26, 52), (29, 60) and (29, 61) run
    # out, and the whole orders are then found directly within their own budget.
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 50_000)
    langford_sequence.cache_clear()
    search = sequences._search_pairs
    searched = []

    def recorded(symbols, length):
        try:
            found = search(symbols, length)
        except SearchBudgetExhausted:
            searched.append((symbols[0], len(symbols), "budget"))
            raise
        searched.append((symbols[0], len(symbols), "found"))
        return found

    monkeypatch.setattr(sequences, "_search_pairs", recorded)
    for d, l in [(9, 69), (10, 79), (10, 80)]:
        assert validate(langford_sequence(d, l), SequenceKind("langford", defect=d)).ok
    assert searched == [
        (26, 52, "budget"), (9, 69, "found"),
        (29, 60, "budget"), (10, 79, "found"),
        (29, 61, "budget"), (10, 80, "found"),
    ]


def test_langford_search_budget(monkeypatch):
    # (9, 24) takes 3,071 placements, so a budget of 100 cuts it off
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 100)
    langford_sequence.cache_clear()
    with pytest.raises(SearchBudgetExhausted):
        langford_sequence(9, 24)


def reference_search_pairs(symbols, length):
    """The list-scanning pair search that ``_search_pairs`` replaced, kept as a reference."""
    entries = [0] * length
    remaining = set(symbols)
    nodes = 0

    def fill():
        nonlocal nodes
        if not remaining:
            return True
        best_cell = -1
        best_opts = []
        for cell in range(1, length + 1):
            if entries[cell - 1] != 0:
                continue
            opts = []
            for sym in remaining:
                right = cell + sym
                if right <= length and entries[right - 1] == 0:
                    opts.append((sym, cell))
                left = cell - sym
                if left >= 1 and entries[left - 1] == 0:
                    opts.append((sym, left))
            if not opts:
                return False
            if best_cell < 0 or len(opts) < len(best_opts):
                best_cell, best_opts = cell, opts
                if len(opts) == 1:
                    break
        if best_cell < 0:
            return not remaining
        for sym, a in sorted(best_opts, key=lambda t: (-t[0], t[1])):
            nodes += 1
            budget = sequences._SEARCH_NODE_BUDGET
            if nodes > budget:
                raise SearchBudgetExhausted(
                    f"pair search on {length} cells passed {budget} placements"
                )
            entries[a - 1] = entries[a + sym - 1] = sym
            remaining.remove(sym)
            if fill():
                return True
            remaining.add(sym)
            entries[a - 1] = entries[a + sym - 1] = 0
        return False

    return tuple(entries) if fill() else None


def search_outcome(search, symbols, length):
    try:
        return search(symbols, length)
    except SearchBudgetExhausted as exc:
        return str(exc)


def test_search_pairs_matches_reference_on_langford_grid(monkeypatch):
    # every (d, l) near the closed-form order, admissible or not; the budget is
    # cut on both sides so that the inadmissible cells end quickly, some with an
    # exhaustive None and some with the budget error
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 4_000)
    outcomes = set()
    for d in range(1, 9):
        for l in range(2 * d - 1, 2 * d + 9):
            want = search_outcome(reference_search_pairs, range(d, d + l), 2 * l)
            got = search_outcome(sequences._search_pairs, range(d, d + l), 2 * l)
            assert got == want, (d, l)
            outcomes.add(type(got))
            if exists("langford", order=l, defect=d):
                assert validate(SkolemTypeSequence(got), SequenceKind("langford", defect=d)).ok
    assert outcomes == {tuple, type(None), str}


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.integers(min_value=1, max_value=18), max_size=8),
    st.one_of(st.integers(min_value=0, max_value=40), st.just(sequences._SEARCH_NODE_BUDGET)),
)
def test_search_pairs_matches_reference_on_random_symbol_sets(symbols, budget):
    # a small budget makes the outcome depend on the node count as well
    length = 2 * len(symbols)
    with mock.patch.object(sequences, "_SEARCH_NODE_BUDGET", budget):
        want = search_outcome(reference_search_pairs, symbols, length)
        assert search_outcome(sequences._search_pairs, symbols, length) == want


@pytest.mark.parametrize("budget", [0, 1, 7, 100])
def test_search_pairs_matches_reference_under_a_budget(monkeypatch, budget):
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", budget)
    for symbols, length in (
        ((), 0),
        ((1,), 2),
        (range(1, 5), 8),
        (range(2, 9), 14),
        (range(3, 8), 10),  # no tiling
        ((1, 4, 5, 6), 8),  # 8 placements; trying i before i-s takes 6
        ((1, 3, 6, 7, 8), 10),
        (range(3, 12), 18),
        (range(5, 17), 24),
    ):
        want = search_outcome(reference_search_pairs, symbols, length)
        assert search_outcome(sequences._search_pairs, symbols, length) == want


def test_search_pairs_node_count_pinned(monkeypatch):
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 3_071)
    assert validate(
        SkolemTypeSequence(sequences._search_pairs(range(9, 33), 48)),
        SequenceKind("langford", defect=9),
    ).ok
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 3_070)
    with pytest.raises(SearchBudgetExhausted, match="pair search on 48 cells passed 3070 placements"):
        sequences._search_pairs(range(9, 33), 48)


def test_restarted_search_node_count_pinned(monkeypatch):
    # (13, 32) passes the first run's cutoff and is found in the fifth run; the
    # budget counts the placements of every run
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 10_675)
    assert validate(
        SkolemTypeSequence(sequences._search_pairs(range(13, 45), 64)),
        SequenceKind("langford", defect=13),
    ).ok
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 10_674)
    with pytest.raises(SearchBudgetExhausted, match="pair search on 64 cells passed 10674 placements"):
        sequences._search_pairs(range(13, 45), 64)


@pytest.mark.parametrize(
    "d, l, digest",
    [
        (13, 32, "f323dfb82b6cd3f7b3e8f53d8f323b239fafe0933ec08291b141e51793e3d0c1"),
        (14, 28, "18eb6d55860d4edeaea852fb47f3b382b20000b9b7b6b292bc3afd8c0c995681"),
        (15, 36, "ee62af6a5020f376d7d7873d5051083f3aa1da4f73558df8a65efd9e6a5f3548"),
    ],
    ids=["13-32", "14-28", "15-36"],
)
def test_langford_search_entries_pinned(d, l, digest):
    # the three searches of label_c3c5's benchmark cells (c3=l, c5=d-1) that
    # pass the first run's cutoff, and so come from a shuffled run
    langford_sequence.cache_clear()
    entries = langford_sequence(d, l).to_text().encode()
    assert hashlib.sha256(entries).hexdigest() == digest


def test_langford_search_is_deterministic_across_processes():
    # the shuffled runs are seeded from (d, l) alone, so neither the hash seed
    # nor what ran before in the process changes the sequence
    langford_sequence.cache_clear()
    here = langford_sequence(13, 32).to_text()
    src = str(Path(sequences.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
    )
    code = (
        "from windmills.sequences import langford_sequence\n"
        "langford_sequence.cache_clear()\n"
        "print(langford_sequence(13, 32).to_text())\n"
    )
    there = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert there.strip() == here


def test_parse_sequence_roundtrip():
    s = parse_sequence("3,1,1,3,2,0,2")
    assert s.to_text() == "3,1,1,3,2,0,2"
    with pytest.raises(ValueError):
        parse_sequence("3,x,1")


def test_fragment_validation():
    trimmed = gen_power4(2, trimmed=True)
    kind = SequenceKind("two-fold-skolem-type", symbols=trimmed.symbol_set)
    assert validate(trimmed, kind, fragment=True).ok
    assert not validate(trimmed, kind).ok


class Sub(int):
    """An int subclass other than bool, which every integer check accepts."""


def test_entries_type_check_fast_path_keeps_the_per_entry_rules():
    assert SkolemTypeSequence((Sub(1), 1)).entries == (1, 1)
    assert SkolemTypeSequence(()).entries == ()
    for entries, bad in (
        ((1, 1, True), True),
        ((1.0, 1), 1.0),
        ((1, -1, 2.5), -1),
        ((2, 0, -1), -1),
        ((Sub(-3), 1), -3),
    ):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            SkolemTypeSequence(entries)


def test_type_and_kind_guards():
    # every sequence, a generator's included, is built through this check
    for bad in (-2, True, 1.0, "1"):
        with pytest.raises(ValueError):
            SkolemTypeSequence((1, bad))
    with pytest.raises(ValueError):
        SequenceKind("langford")  # defect required
    with pytest.raises(ValueError):
        SequenceKind("skolem", defect=3)  # defect forbidden
    with pytest.raises(UnknownKind):
        SequenceKind("mystery")
    with pytest.raises(ValueError):
        SequenceKind("skolem", symbols=frozenset({1}))


# -- the generators' memo -------------------------------------------------------

# Valid arguments of every memoised generator, as (args, kwargs).
MEMOISED = {
    gen_skolem: [((n,), {}) for n in range(1, 41) if n % 4 in (0, 1)],
    gen_hooked_skolem: [((n,), {}) for n in range(2, 41) if n % 4 in (2, 3)],
    gen_langford_doubledefect: [((d,), {}) for d in range(1, 21)],
    gen_near_skolem_topdefect: [((n,), {}) for n in range(11, 42, 2)],
    gen_twofold_skolem: [((n,), {}) for n in range(1, 41)],
    gen_power4: [((0,), {"trimmed": True})]
    + [((x,), {"trimmed": trimmed}) for x in range(1, 13) for trimmed in (False, True)]
    + [((x,), {}) for x in range(1, 4)],
    fixed_small_twofold: [((y,), {}) for y in range(5)],
    gen_twofold_langford: [((k,), {}) for k in range(1, 9)],
    # searched and split orders: a miss at l = 2d-1 hits gen_langford_doubledefect's
    # memo and so need not validate, and at d = 1 the split's tails are grid keys
    langford_sequence: [
        ((d, l), {})
        for d in range(2, 6)
        for l in range(2 * d, 2 * d + 10)
        if exists("langford", order=l, defect=d)
    ],
}


@pytest.fixture
def cold_memos():
    for gen in MEMOISED:
        gen.cache_clear()
    yield
    for gen in MEMOISED:
        gen.cache_clear()


@pytest.fixture
def validations(monkeypatch):
    """Counts the ``validate`` calls the generators make through ``_ensure_valid``."""
    calls = []
    real = sequences.validate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(sequences, "validate", counting)
    return calls


@pytest.mark.parametrize("gen", list(MEMOISED), ids=lambda gen: gen.__name__)
def test_memo_hit_and_miss_match_the_generator(gen, cold_memos, validations):
    assert gen.__module__ == "windmills.sequences"
    for args, kwargs in MEMOISED[gen]:
        want = gen.__wrapped__(*args, **kwargs)
        del validations[:]
        miss = gen(*args, **kwargs)
        # every miss validates, except power4's bare trimmed (1,1) pair
        assert miss == want and (validations or args == (0,)), (args, kwargs)
        del validations[:]
        hit = gen(*args, **kwargs)
        assert hit == want and not validations, (args, kwargs)
        # the stored object itself, carrying the index and pairing the miss built
        assert hit is miss
        assert pairs_of(hit) == pairs_of(miss)


def test_memo_remembers_no_errors(cold_memos):
    for _ in range(3):
        with pytest.raises(NoSuchSequence):
            gen_skolem(2)
        with pytest.raises(OutOfRange):
            gen_power4(-1)
        with pytest.raises(NoSuchSequence):
            langford_sequence(2, 5)
    for gen in (gen_skolem, gen_power4, langford_sequence):
        assert gen.cache_info().currsize == 0, gen.__name__


def test_memo_keys_are_typed(cold_memos):
    assert gen_skolem(8) == gen_skolem.__wrapped__(8)
    with pytest.raises(TypeError):
        gen_skolem(8.0)  # as uncached: the closed form needs an integer order


def test_memo_is_bounded_and_drops_the_least_recently_used(cold_memos, validations):
    assert sequences._MEMO_SIZE == 128
    for n in range(1, 129):
        gen_twofold_skolem(n)
    gen_twofold_skolem(1)  # a hit: order 1 is now the most recently used
    gen_twofold_skolem(129)
    assert gen_twofold_skolem.cache_info().currsize == 128
    del validations[:]
    gen_twofold_skolem(1)
    gen_twofold_skolem(129)
    assert not validations  # both still held
    gen_twofold_skolem(2)
    assert len(validations) == 1  # order 2 was the oldest and had been dropped
    assert gen_twofold_skolem.cache_info().currsize == 128


def test_every_memo_is_a_bounded_typed_lru_cache():
    for gen in MEMOISED:
        assert gen.cache_parameters() == {"maxsize": 128, "typed": True}, gen.__name__


# -- values hold tuples -----------------------------------------------------------


def test_list_entries_are_copied_into_a_tuple():
    entries = [1, 1]
    s = SkolemTypeSequence(entries)
    skolem = SequenceKind("skolem")
    assert validate(s, skolem).ok and s.occurrences.fold == 1
    entries[1] = 5
    entries.append(3)
    assert s.entries == (1, 1) and type(s.entries) is tuple
    assert s.occurrences == SkolemTypeSequence((1, 1)).occurrences
    assert validate(s, skolem).ok and pairs_of(s).single(1) == (1, 2)


def test_list_built_sequence_equals_and_hashes_like_its_tuple_twin():
    s, twin = SkolemTypeSequence([3, 1, 1, 3, 2, 0, 2]), parse_sequence("3,1,1,3,2,0,2")
    assert s == twin and hash(s) == hash(twin) and {s: 1}[twin] == 1
    assert SkolemTypeSequence(iter([3, 1, 1, 3, 2, 0, 2])) == twin  # read once
    with pytest.raises(ValueError, match=r"got -1$"):
        SkolemTypeSequence([1, -1])
