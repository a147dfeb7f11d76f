"""The value classes: equality, hashing, repr and mutability."""

import pytest

from windmills.families import ConstructionTrace
from windmills.oracle import SearchResult
from windmills.sequences import SequenceKind, SequenceReport, SkolemTypeSequence
from windmills.windmill import GRACEFUL, NEAR_GRACEFUL, Labelling, VerificationReport, WindmillSpec

SPEC = WindmillSpec(((3, 1),))
LAB = Labelling(SPEC, ((0, 1, 3),), GRACEFUL)
LAB_TEXT = "Labelling(spec=WindmillSpec(vanes=((3, 1),)), vanes=((0, 1, 3),), mode='graceful')"
LEAF = ConstructionTrace("triangles-only", {"t": 1})

# class -> (a builder of one value, a value that differs from it, its field
# names, its repr)
VALUES = {
    WindmillSpec: (
        lambda: WindmillSpec([(3, 2)]),
        SPEC,
        ("vanes",),
        "WindmillSpec(vanes=((3, 2),))",
    ),
    Labelling: (
        lambda: Labelling(SPEC, [[0, 1, 3]], GRACEFUL),
        Labelling(SPEC, ((0, 2, 3),), GRACEFUL),
        ("spec", "vanes", "mode"),
        LAB_TEXT,
    ),
    VerificationReport: (
        lambda: VerificationReport(False, 4, NEAR_GRACEFUL, (1,), (), (2, 3), (4,)),
        VerificationReport(True, 3, GRACEFUL, note="x"),
        (
            "ok",
            "m",
            "mode_checked",
            "duplicate_vertices",
            "out_of_range_vertices",
            "missing_edges",
            "extra_edges",
            "note",
        ),
        "VerificationReport(ok=False, m=4, mode_checked='near-graceful',"
        " duplicate_vertices=(1,), out_of_range_vertices=(), missing_edges=(2, 3),"
        " extra_edges=(4,), note='')",
    ),
    SkolemTypeSequence: (
        lambda: SkolemTypeSequence([1, 1]),
        SkolemTypeSequence((1, 1, 2, 0, 2)),
        ("entries",),
        "SkolemTypeSequence(entries=(1, 1))",
    ),
    SequenceKind: (
        lambda: SequenceKind("langford", defect=2),
        SequenceKind("langford", defect=3),
        ("tag", "defect", "symbols"),
        "SequenceKind(tag='langford', defect=2, symbols=None)",
    ),
    SequenceReport: (
        lambda: SequenceReport(False, ("a",)),
        SequenceReport(True, ()),
        ("ok", "violations"),
        "SequenceReport(ok=False, violations=('a',))",
    ),
    SearchResult: (
        lambda: SearchResult("found", LAB, 7),
        SearchResult("found", LAB, 8),
        ("status", "labelling", "nodes"),
        f"SearchResult(status='found', labelling={LAB_TEXT}, nodes=7)",
    ),
    ConstructionTrace: (
        lambda: ConstructionTrace("twofold-parity", {"t": 2, "s": 1}, (LEAF,)),
        LEAF,
        ("rule", "parameters", "children"),
        "ConstructionTrace(rule='twofold-parity', parameters={'t': 2, 's': 1},"
        " children=(ConstructionTrace(rule='triangles-only', parameters={'t': 1},"
        " children=()),))",
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    make, different, names, text = VALUES[cls]
    value, twin = make(), make()
    assert type(value) is cls and repr(value) == text
    assert value == twin and not value != twin
    assert value != different and not value == different
    fields = tuple(getattr(value, name) for name in names)
    assert value != fields and fields != value
    for other_cls, (make_other, *_) in VALUES.items():
        if other_cls is not cls:
            assert value != make_other()
    # verify's reports and the cached ``occurrences`` sit in the instance
    # dict, beside the fields: equality, hashing and repr ignore them
    vars(value)["_report"] = object()
    assert value == twin and repr(value) == text
    if cls is ConstructionTrace:
        with pytest.raises(TypeError):
            hash(value)
        value.rule = different.rule
        assert value.rule == different.rule and value != twin
        return
    assert hash(value) == hash(twin)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and tuple(getattr(value, name) for name in names) == fields
