import pytest
from hypothesis import given, settings, strategies as st

from windmills import sequences
from windmills.errors import (
    HookedOperand,
    NoSuchSequence,
    OutOfRange,
    SearchBudgetExhausted,
    UnknownKind,
    UnmatchedSymbol,
    UnsupportedOrder,
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
    pairs_of,
    parse_sequence,
    validate,
)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=60))
def test_pairs_roundtrip_property(n):
    s = gen_twofold_skolem(n)
    assert pairs_of(s).to_entries() == s


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
    assert exists("m-fold-skolem", 6, fold=4)
    assert not exists("m-fold-skolem", 6, fold=3)
    assert exists("hooked-m-fold-skolem", 6, fold=3)
    assert not exists(SequenceKind("langford", defect=2), 5)  # kind objects work too
    with pytest.raises(UnknownKind):
        exists("two-fold-langford", 3, defect=5)


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


def test_langford_search_budget(monkeypatch):
    # (9, 24) takes 3,071 placements, so a budget of 100 cuts it off
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 100)
    langford_sequence.cache_clear()
    with pytest.raises(SearchBudgetExhausted):
        langford_sequence(9, 24)


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


def test_type_and_kind_guards():
    with pytest.raises(ValueError):
        SkolemTypeSequence((1, -2))
    with pytest.raises(ValueError):
        SequenceKind("langford")  # defect required
    with pytest.raises(ValueError):
        SequenceKind("skolem", defect=3)  # defect forbidden
    with pytest.raises(UnknownKind):
        SequenceKind("mystery")
    with pytest.raises(ValueError):
        SequenceKind("skolem", symbols=frozenset({1}))
