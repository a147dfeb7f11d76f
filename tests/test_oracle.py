import pytest

from windmills.errors import OrderTooLarge, SpecTooLarge
from windmills.oracle import (
    BUDGET_EXHAUSTED,
    FOUND,
    NONE,
    fixture_json_obj,
    search_labelling,
    search_sequence,
)
from windmills.sequences import SequenceKind, exists, validate
from windmills.windmill import GRACEFUL, NEAR_GRACEFUL, WindmillSpec, verify


def test_search_single_square():
    result = search_labelling(WindmillSpec.of((4, 1)), GRACEFUL)
    assert result.status == FOUND
    assert verify(result.labelling).ok
    assert (result.nodes, result.labelling.vanes) == (8, ((0, 3, 2, 4),))


def test_search_two_triangles_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((3, 2)), GRACEFUL)
    assert result.status == NONE
    assert result.exhaustive
    assert result.nodes == 29


def test_search_three_triangles_graceful_is_exhaustively_empty():
    result = search_labelling(WindmillSpec.of((3, 3)), GRACEFUL)
    assert result.status == NONE and result.exhaustive
    assert result.nodes == 256


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
    permissive = search_labelling(WindmillSpec.of((3, 2)), NEAR_GRACEFUL, permissive=True)
    assert permissive.status == FOUND


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
    plain = search_labelling(spec, mode, permissive=True)
    assert search_labelling(spec, mode, max_label=7, permissive=True) == plain


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
