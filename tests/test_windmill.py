import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from windmills import windmill
from windmills.errors import MalformedLabelling, UnsupportedCombination
from windmills.families import label_c3, label_c3c4, label_c3c5, label_c3c6, label_c5
from windmills.windmill import (
    GRACEFUL,
    Labelling,
    NEAR_GRACEFUL,
    VerificationReport,
    WindmillSpec,
    edge_multiset,
    expected_mode,
    from_json,
    labels,
    to_dot,
    to_json,
    verify,
)

FIGURE_STYLE = Labelling(
    spec=WindmillSpec.of((3, 4), (4, 3)),
    vanes=(
        (0, 18, 20),
        (0, 23, 24),
        (0, 17, 21),
        (0, 22, 19),
        (0, 15, 1, 7),
        (0, 11, 2, 12),
        (0, 16, 3, 8),
    ),
    mode=GRACEFUL,
)


def test_spec_invariants():
    spec = WindmillSpec.of((4, 3), (3, 4))
    assert spec.vanes == ((3, 4), (4, 3))  # sorted by cycle length
    assert spec.edge_count == 24
    assert spec.count_of(5) == 0
    with pytest.raises(MalformedLabelling):
        WindmillSpec.of((2, 1))
    with pytest.raises(MalformedLabelling):
        WindmillSpec(((3, 1), (3, 2)))  # duplicate length
    for bad in (True, 1.0, "1"):
        with pytest.raises(MalformedLabelling):
            WindmillSpec(((3, bad),))


def test_spec_parse():
    assert WindmillSpec.parse("c3=4,c4=3").vanes == ((3, 4), (4, 3))
    assert WindmillSpec.parse("c3=1").edge_count == 3
    with pytest.raises(MalformedLabelling):
        WindmillSpec.parse("c7=1")
    with pytest.raises(MalformedLabelling):
        WindmillSpec.parse("nonsense")


@pytest.mark.parametrize("text", ["c3=4,c4=-3", "c3=-1,c4=2", "c3=2,c4=-1", "c5=-1"])
def test_spec_parse_rejects_negative_counts(text):
    with pytest.raises(MalformedLabelling, match="negative vane count"):
        WindmillSpec.parse(text)


@pytest.mark.parametrize(
    "text", ["cc3=4", "c+3=4", "c 3=2", "c3=+2", "c3=1_0", "c3 =2", "c3=2=1", "3=2", "c-3=2", "c3=\u0662"]
)
def test_spec_parse_rejects_malformed_components(text):
    # exactly one c, the length's decimal digits, =, then an optional - and digits
    with pytest.raises(MalformedLabelling, match="bad graph spec component"):
        WindmillSpec.parse(text)


def test_spec_parse_keeps_its_error_texts():
    assert WindmillSpec.parse(" C3=2 , c4=03,").vanes == ((3, 2), (4, 3))
    with pytest.raises(MalformedLabelling, match="unsupported cycle length"):
        WindmillSpec.parse("c03=1,c7=1")
    with pytest.raises(MalformedLabelling, match="negative vane count"):
        WindmillSpec.parse("c3=-0,c4=-1")
    with pytest.raises(MalformedLabelling, match="empty graph spec"):
        WindmillSpec.parse(" , ")


def test_spec_parse_zero_count_means_no_vanes():
    assert WindmillSpec.parse("c3=4,c4=0") == WindmillSpec.parse("c3=4")
    with pytest.raises(MalformedLabelling, match="empty graph spec"):
        WindmillSpec.parse("c3=0,c4=0")


def test_verify_figure_labelling():
    report = verify(FIGURE_STYLE)
    assert report.ok and report.m == 24


def test_verify_single_triangle():
    lab = Labelling(WindmillSpec.of((3, 1)), ((0, 1, 3),), GRACEFUL)
    report = verify(lab)
    assert report.ok
    assert edge_multiset(lab) == {1: 1, 2: 1, 3: 1}


def test_verify_near_five_cycles():
    lab = Labelling(
        WindmillSpec.of((5, 2)), ((0, 11, 2, 9, 1), (0, 6, 3, 7, 5)), NEAR_GRACEFUL
    )
    report = verify(lab)
    assert report.ok
    assert sorted(edge_multiset(lab)) == list(range(1, 10)) + [11]


def test_verify_mixed_triangle_pentagon():
    lab = Labelling(
        WindmillSpec.of((3, 1), (5, 1)), ((0, 5, 7), (0, 8, 4, 3, 6)), GRACEFUL
    )
    assert verify(lab).ok


def test_verify_reports_failures():
    bad = Labelling(WindmillSpec.of((3, 2)), ((0, 1, 3), (0, 1, 3)), GRACEFUL)
    report = verify(bad)
    assert not report.ok
    assert report.duplicate_vertices == (1, 3)
    assert report.missing_edges == (4, 5, 6)
    assert report.extra_edges == (1, 2, 3)


def test_verify_out_of_range_vertices():
    report = verify(Labelling(WindmillSpec.of((3, 1)), ((0, 9, 3),), GRACEFUL))
    assert not report.ok
    assert 9 in report.out_of_range_vertices


def test_verify_permissive_near_variant():
    # edges [1, m] with a vertex at m+1: rejected strictly, allowed permissively
    lab = Labelling(WindmillSpec.of((4, 1)), ((0, 4, 5, 2),), NEAR_GRACEFUL)
    assert not verify(lab).ok
    permissive = verify(lab, permissive_near=True)
    assert permissive.ok and "permissive" in permissive.note


def test_edge_multiset_examples():
    lab4 = Labelling(WindmillSpec.of((4, 1)), ((0, 4, 1, 2),), GRACEFUL)
    assert sorted(edge_multiset(lab4).elements()) == [1, 2, 3, 4]
    hexv = (0, 6, 1, 4, 3, 7)
    lab6 = Labelling(WindmillSpec.of((6, 1)), (hexv,), NEAR_GRACEFUL)
    assert sorted(edge_multiset(lab6).elements()) == [1, 3, 4, 5, 6, 7]
    assert sum(edge_multiset(FIGURE_STYLE).values()) == 24


@pytest.mark.parametrize(
    "groups,mode",
    [
        ((( 3, 4), (4, 3)), GRACEFUL),
        (((3, 2),), NEAR_GRACEFUL),
        (((5, 3),), GRACEFUL),
        (((3, 1), (6, 1)), NEAR_GRACEFUL),
        (((3, 9), (5, 4)), GRACEFUL),
    ],
)
def test_expected_mode(groups, mode):
    assert expected_mode(WindmillSpec.of(*groups)) == mode


def test_labelling_structural_checks():
    spec = WindmillSpec.of((3, 1))
    with pytest.raises(MalformedLabelling):
        Labelling(spec, ((1, 2, 3),), GRACEFUL)  # must start at 0
    with pytest.raises(MalformedLabelling):
        Labelling(spec, ((0, 1, 2, 3),), GRACEFUL)  # wrong length
    with pytest.raises(MalformedLabelling):
        Labelling(spec, ((0, 1, 3),), "sort-of-graceful")
    for bad in (True, 2.0, "2"):
        with pytest.raises(MalformedLabelling):
            Labelling(spec, ((0, bad, 3),), GRACEFUL)


class Sub(int):
    """An int subclass other than bool, which every integer check accepts."""


def test_labelling_type_check_fast_path_keeps_the_per_label_rules():
    assert verify(Labelling(WindmillSpec.of((3, 1)), ((0, Sub(1), Sub(3)),), GRACEFUL)).ok
    spec = WindmillSpec.of((3, 2))
    for vanes, message in (
        (((0, True, 3), (0, 4, 6)), r"non-integer label in \(0, True, 3\)"),
        (((0, 1, 3), (0, 4, 6.0)), r"non-integer label in \(0, 4, 6.0\)"),
        # the first vane's label is reported before the second vane's start
        (((0, 1.5, 3), (1, 4, 6)), r"non-integer label in \(0, 1.5, 3\)"),
        (((0, 1, 3), (1, 4, 6.0)), r"vane \(1, 4, 6.0\) must start at the central 0"),
        (((0, 1, 3), (1, 4, 6)), r"vane \(1, 4, 6\) must start at the central 0"),
    ):
        with pytest.raises(MalformedLabelling, match=message):
            Labelling(spec, vanes, GRACEFUL)


def test_verifier_total_on_weird_labels():
    # verification reports rather than crashes on wild but well-shaped input
    lab = Labelling(WindmillSpec.of((3, 1)), ((0, 1000, 3),), GRACEFUL)
    report = verify(lab)
    assert not report.ok


def _scramble(lab: Labelling, rng: random.Random) -> Labelling:
    vanes = list(lab.vanes)
    rng.shuffle(vanes)
    flipped = []
    for vane in vanes:
        if rng.random() < 0.5:
            flipped.append((0,) + tuple(reversed(vane[1:])))
        else:
            flipped.append(vane)
    return Labelling(lab.spec, tuple(flipped), lab.mode)


def test_verdict_invariant_under_vane_symmetries():
    rng = random.Random(7)
    for _ in range(25):
        assert verify(_scramble(FIGURE_STYLE, rng)).ok


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verdict_invariant_property(rnd):
    assert verify(_scramble(FIGURE_STYLE, rnd)).ok


def test_json_roundtrip():
    text = to_json(FIGURE_STYLE)
    again = from_json(text)
    assert again == FIGURE_STYLE
    obj = json.loads(text)
    assert obj["spec"] == [{"cycle": 3, "count": 4}, {"cycle": 4, "count": 3}]
    assert obj["mode"] == "graceful"
    with pytest.raises(MalformedLabelling):
        from_json("{not json")
    with pytest.raises(MalformedLabelling):
        from_json('{"spec": [], "mode": "graceful"}')


@pytest.mark.parametrize(
    "spec,vane",
    [
        ('{"cycle": 3, "count": 1}', "[0, 1.9, 3]"),
        ('{"cycle": 3, "count": 1}', '[0, "1", 3]'),
        ('{"cycle": 3, "count": 1}', "[0, true, 3]"),
        ('{"cycle": 3, "count": 1}', "[0, 1.0, 3]"),
        ('{"cycle": 3, "count": true}', "[0, 1, 3]"),
        ('{"cycle": 3.0, "count": 1}', "[0, 1, 3]"),
        ('{"cycle": 3, "count": 1}, {"cycle": 4, "count": false}', "[0, 1, 3]"),
        ('{"cycle": 3, "count": 1}, {"cycle": 4, "count": 0.0}', "[0, 1, 3]"),
    ],
)
def test_json_rejects_values_that_are_not_integers(spec, vane):
    # each of these read as the graceful (0, 1, 3) while labels were coerced
    text = f'{{"spec": [{spec}], "mode": "graceful", "vanes": [{vane}]}}'
    with pytest.raises(MalformedLabelling):
        from_json(text)
    good = '{"spec": [{"cycle": 3, "count": 1}, {"cycle": 4, "count": 0}], "mode": "graceful", "vanes": [[0, 1, 3]]}'
    assert verify(from_json(good)).ok


def test_dot_export():
    dot = to_dot(FIGURE_STYLE)
    assert dot.startswith("graph windmill {")
    assert dot.count('v0 [label="0"];') == 1  # central vertex emitted once
    assert 'v0 -- v18 [label="18"];' in dot
    assert 'v18 -- v20 [label="2"];' in dot
    # one node line per distinct label, one edge line per edge
    assert dot.count(" -- ") == 24


def reference_check(labelling, vertices, edges):
    """The fault finder ``verify`` ran on every call before its cheap passing check."""
    counts = Counter(labelling.vertex_labels())
    duplicates = tuple(sorted(v for v, c in counts.items() if c > 1))
    allowed = set(vertices)
    out_of_range = tuple(sorted(v for v in counts if v not in allowed))
    actual, target = edge_multiset(labelling), Counter(edges)
    missing = tuple(sorted((target - actual).elements()))
    extra = tuple(sorted((actual - target).elements()))
    return duplicates, out_of_range, missing, extra


def reference_verify(labelling, permissive_near=False):
    m, mode = labelling.spec.edge_count, labelling.mode
    faults = reference_check(labelling, labels(m, mode), labels(m, mode))
    if not any(faults):
        note = "omits m, uses m+1" if mode == NEAR_GRACEFUL else ""
        return VerificationReport(True, m, mode, note=note)
    if mode == NEAR_GRACEFUL and permissive_near:
        if not any(reference_check(labelling, labels(m + 1, GRACEFUL), labels(m, GRACEFUL))):
            note = "permissive variant: edges [1,m], vertices up to m+1"
            return VerificationReport(True, m, mode, note=note)
    return VerificationReport(False, m, mode, *faults)


def small_family_labellings():
    yield from (label_c3(t) for t in range(1, 10))
    yield from (label_c5(p) for p in range(1, 8))
    yield from (label_c3c4(t, s)[0] for t in range(1, 6) for s in range(0, 12, 3))
    yield from (label_c3c6(t, h) for t in range(1, 5) for h in range(0, 2 * t + 2))
    for t in range(1, 14):
        for p in range(1, 5):
            try:
                yield label_c3c5(t, p)
            except UnsupportedCombination:
                pass
    yield FIGURE_STYLE


def mutants(lab, rng):
    """The labelling with its mode flipped, and one vertex label changed at a
    few positions: +1, set to m, m+1 or 0, or set to another vertex's label."""
    m = lab.spec.edge_count
    other = NEAR_GRACEFUL if lab.mode == GRACEFUL else GRACEFUL
    yield Labelling(lab.spec, lab.vanes, other)
    cells = [(k, i) for k, vane in enumerate(lab.vanes) for i in range(1, len(vane))]
    for k, i in rng.sample(cells, min(len(cells), 6)):
        label = lab.vanes[k][i]
        dk, di = rng.choice(cells)
        for new in (label + 1, m, m + 1, 0, lab.vanes[dk][di]):
            vanes = list(lab.vanes)
            vanes[k] = vanes[k][:i] + (new,) + vanes[k][i + 1 :]
            mutant = Labelling(lab.spec, tuple(vanes), lab.mode)
            yield mutant
            yield Labelling(mutant.spec, mutant.vanes, other)


def test_verify_matches_reference_on_families_and_mutants():
    rng = random.Random(8)
    verdicts = set()
    for lab in small_family_labellings():
        for case in (lab, *mutants(lab, rng)):
            for permissive in (False, True):
                report = verify(case, permissive_near=permissive)
                assert report == reference_verify(case, permissive_near=permissive), case
                verdicts.add((report.ok, report.note.split(":")[0]))
    # strict, near and permissive passes and failures all occur
    assert verdicts == {
        (True, ""),
        (True, "omits m, uses m+1"),
        (True, "permissive variant"),
        (False, ""),
    }


# -- the report kept on the labelling ---------------------------------------------


@pytest.fixture
def checks(monkeypatch):
    """Counts the ``_passes`` calls ``verify`` makes."""
    calls = []
    real = windmill._passes

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(windmill, "_passes", counting)
    return calls


def test_verify_keeps_its_report_on_the_labelling(checks):
    # a fresh instance, never verified
    lab = Labelling(FIGURE_STYLE.spec, FIGURE_STYLE.vanes, FIGURE_STYLE.mode)
    first = verify(lab)
    assert first.ok and len(checks) == 1
    del checks[:]
    assert verify(lab) is first and not checks
    assert lab == FIGURE_STYLE and hash(lab) == hash(FIGURE_STYLE)


def test_verify_keeps_strict_and_permissive_reports_apart(checks):
    lab = Labelling(WindmillSpec.of((4, 1)), ((0, 4, 5, 2),), NEAR_GRACEFUL)
    permissive = verify(lab, permissive_near=True)
    strict = verify(lab)
    assert permissive.ok and not strict.ok
    del checks[:]
    assert verify(lab, permissive_near=True) is permissive
    assert verify(lab, permissive_near=False) is strict and not checks


def test_verify_keeps_a_failing_report_with_its_faults(checks):
    bad = Labelling(WindmillSpec.of((3, 2)), ((0, 1, 3), (0, 1, 3)), GRACEFUL)
    report = verify(bad)
    del checks[:]
    again = verify(bad)
    assert again is report and not checks
    assert again.duplicate_vertices == (1, 3)
    assert again.missing_edges == (4, 5, 6)
    assert again.extra_edges == (1, 2, 3)


def test_verify_keeps_the_report_of_list_vanes(checks):
    vanes = [[0, 1, 3]]
    lab = Labelling(WindmillSpec.of((3, 1)), vanes, GRACEFUL)
    report = verify(lab)
    assert report.ok and len(checks) == 1
    vanes[0][1] = 3  # the labelling holds its own copy
    del checks[:]
    assert verify(lab) is report and not checks
    assert to_dot(lab) == to_dot(Labelling(lab.spec, ((0, 1, 3),), GRACEFUL))


def test_list_inputs_are_copied_into_tuples():
    groups = [(3, 1), (4, 1)]
    spec = WindmillSpec(groups)
    vanes = [[0, 6, 7], [0, 5, 1, 3]]
    lab = Labelling(spec, vanes, GRACEFUL)
    report = verify(lab)
    assert report.ok
    groups.append((5, 1))
    vanes[0][1] = 1
    vanes.append([0, 2, 4])
    assert spec.vanes == ((3, 1), (4, 1)) and spec.edge_count == 7
    assert lab.vanes == ((0, 6, 7), (0, 5, 1, 3))
    fresh = Labelling(lab.spec, lab.vanes, lab.mode)
    assert verify(lab) == report == windmill._report(fresh, False)
    assert windmill.edge_multiset(lab) == Counter(range(1, 8))


def test_list_built_values_equal_and_hash_like_tuple_built_ones():
    spec = WindmillSpec([(3, 1), (4, 1)])
    twin_spec = WindmillSpec(((3, 1), (4, 1)))
    assert spec == twin_spec and hash(spec) == hash(twin_spec)
    assert type(spec.vanes) is tuple and WindmillSpec(iter(spec.vanes)) == spec
    lab = Labelling(spec, [[0, 6, 7], [0, 5, 1, 3]], GRACEFUL)
    twin = Labelling(twin_spec, ((0, 6, 7), (0, 5, 1, 3)), GRACEFUL)
    assert lab == twin and hash(lab) == hash(twin)
    assert {type(lab.vanes), *map(type, lab.vanes)} == {tuple}
    assert to_json(lab) == to_json(twin) and to_dot(lab) == to_dot(twin)


def test_list_inputs_keep_their_error_texts():
    with pytest.raises(MalformedLabelling, match=r"bad vane group \[3, 1\]"):
        WindmillSpec([[3, 1]])
    with pytest.raises(MalformedLabelling, match=r"vane \[1, 6, 7\] must start"):
        Labelling(WindmillSpec.of((3, 1)), [[1, 6, 7]], GRACEFUL)
    with pytest.raises(MalformedLabelling, match=r"non-integer label in \[0, 6.0, 7\]"):
        Labelling(WindmillSpec.of((3, 1)), [[0, 6.0, 7]], GRACEFUL)


def test_kept_reports_match_fresh_checks_on_families_and_mutants():
    rng = random.Random(8)
    for lab in small_family_labellings():
        for case in (lab, *mutants(lab, rng)):
            for order in ((False, True), (True, False)):
                case = Labelling(case.spec, case.vanes, case.mode)  # nothing kept yet
                first = [verify(case, permissive_near=p) for p in order]
                for p, report in zip(order, first):
                    assert verify(case, permissive_near=p) is report
                    fresh = Labelling(case.spec, case.vanes, case.mode)
                    assert report == windmill._report(fresh, p), case
