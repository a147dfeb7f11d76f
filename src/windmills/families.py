"""Family-level dispatchers: label a whole windmill from sequence machinery.

Each public ``label_*`` routine picks sequences, shifts and compositions for
one windmill family and returns a verified labelling.  The triangle/square
dispatcher additionally reports a construction trace naming the rule it used.
The dispatcher, ``replay`` and the coverage audit all read one rule function,
``_c3c4_rule``, so the rule precedence is written down once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .assemble import (
    _hexagon_pair_rows,
    apply_hexagon_merge,
    fivetuples_c5,
    fivetuples_shifted,
    quadruples_from_twofold,
    triples_from_pairs,
)
from .errors import (
    BoundViolation,
    InvalidSequence,
    MalformedLabelling,
    MissingRequiredTriangle,
    NotInTable,
    OutOfRange,
    TooManyHexagons,
    Unlabellable,
    UnsupportedCombination,
)
from .sequences import (
    SequenceKind,
    SkolemTypeSequence,
    _ensure_valid,
    _search_pairs,
    concat,
    double,
    exists,
    fixed_small_twofold,
    gen_hooked_skolem,
    gen_langford_doubledefect,
    gen_power4,
    gen_skolem,
    gen_twofold_langford,
    gen_twofold_skolem,
    langford_sequence,
    pairs_of,
)
from .windmill import (
    GRACEFUL,
    Labelling,
    NEAR_GRACEFUL,
    WindmillSpec,
    expected_mode,
    from_json_obj,
    verify,
)

RULES = frozenset(
    {
        "triangles-only",
        "twofold-direct",
        "twofold-parity",
        "langford-block",
        "langford-plus-twofold",
        "composite-low",
        "composite-high",
        "extension-case1",
        "extension-case2",
        "extension-case3",
        "extension-case4",
        "base-case",
        "gap-fixture",
    }
)


@dataclass
class ConstructionTrace:
    """Which rule produced a labelling, with the parameters it chose."""

    rule: str
    parameters: dict
    children: tuple["ConstructionTrace", ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def format(self, indent: int = 0) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        lines = ["  " * indent + f"{self.rule}({params})"]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


def _checked(labelling: Labelling) -> Labelling:
    report = verify(labelling)
    if not report.ok:
        raise InvalidSequence(f"constructed labelling failed: {report.summary()}")
    return labelling


# ---------------------------------------------------------------------------
# Triangle windmills and 5-cycle windmills
# ---------------------------------------------------------------------------


def _triangle_sequence(t: int, straddle: bool = False) -> SkolemTypeSequence:
    """(Hooked) Skolem sequence of order t used for the triangle block.

    With ``straddle`` the hooked sequence is additionally required to carry
    the hook-adjacent pairs that turn into the replaceable triangles of the
    square-block extension; a constrained search supplies one if the closed
    form does not.
    """
    if t % 4 in (0, 1):
        return gen_skolem(t)
    seq = gen_hooked_skolem(t)
    if not straddle or _is_straddling(seq, t):
        return seq
    found = _straddling_hooked(t)
    if found is None:
        raise Unlabellable(
            f"no hooked sequence of order {t} with the extension's triangle pairs"
        )
    return found


def _is_straddling(seq: SkolemTypeSequence, t: int) -> bool:
    pairs = pairs_of(seq)
    if t % 4 == 2:
        return pairs.single(2) == (2 * t - 1, 2 * t + 1)
    return (
        pairs.single(1) == (2 * t - 2, 2 * t - 1)
        and pairs.single(4) == (2 * t - 3, 2 * t + 1)
    )


@lru_cache(maxsize=None)
def _straddling_hooked(t: int) -> SkolemTypeSequence | None:
    """Hooked Skolem sequence of order t with forced hook-adjacent pairs.

    The forced pairs and the hook fill a fixed tail; a search tiles the head.
    """
    if t % 4 == 2:
        tail, forced = (2, 0, 2), {2}
    elif t % 4 == 3:
        tail, forced = (4, 1, 1, 0, 4), {1, 4}
    else:
        return None
    head = _search_pairs(set(range(1, t + 1)) - forced, 2 * t + 1 - len(tail))
    if head is None:
        return None
    return _ensure_valid(SkolemTypeSequence(head + tail), SequenceKind("hooked-skolem"))


def label_c3(t: int) -> Labelling:
    """(Near) graceful triangle windmill; graceful exactly for t = 0, 1 (mod 4)."""
    if t < 1:
        raise OutOfRange(f"need t >= 1, got {t}")
    seq = _triangle_sequence(t)
    tris = triples_from_pairs(pairs_of(seq), c=t, variant=1)
    spec = WindmillSpec.of((3, t))
    return _checked(Labelling(spec, tuple(tris), expected_mode(spec)))


def label_c5(p: int) -> Labelling:
    """(Near) graceful 5-cycle windmill; graceful exactly for p = 0, 3 (mod 4)."""
    if p < 1:
        raise OutOfRange(f"need p >= 1, got {p}")
    spec = WindmillSpec.of((5, p))
    vanes = tuple(fivetuples_c5(p))
    return _checked(Labelling(spec, vanes, expected_mode(spec)))


# ---------------------------------------------------------------------------
# Triangle + square windmills
# ---------------------------------------------------------------------------

# 4*s bounds for the extension: case -> (low offset, high offset) so that
# low <= 4*s' <= high with low = 2k + lo - 12w, high = 6k + hi - 12w.
_EXT_OFFSETS = {1: (2, -5), 2: (-1, -8), 3: (-2, -9), 4: (-3, -10)}
_EXT_SHIFT = {1: 0, 2: 3, 3: 4, 4: 5}


def _ext_bounds_hold(case: int, w: int, k: int, s: int) -> bool:
    lo_off, hi_off = _EXT_OFFSETS[case]
    return 2 * k + lo_off - 12 * w <= 4 * s <= 6 * k + hi_off - 12 * w


def _ext_required_triangles(case: int, w: int, s: int) -> list[tuple[int, int]]:
    base = 4 * s + 12 * w
    if case == 3:
        return [(base + 5, base + 7)]
    if case == 4:
        return [(base + 7, base + 8), (base + 6, base + 10)]
    return []


def _ext_replacement_triangles(case: int, w: int, s: int, k: int) -> list[tuple[int, int]]:
    base = 16 * k + 4 * s + 12 * w
    if case == 3:
        return [(base + 1, base + 3)]
    if case == 4:
        return [(base + 3, base + 4), (base + 2, base + 6)]
    return []


def extend_c3c4(base: Labelling, k: int, case: int) -> Labelling:
    """Graft 4k-1 squares onto a triangle+square labelling.

    The new squares come from the two-fold Langford block of defect 6k-1; in
    the near graceful cases the base must contain one or two specific
    hook-adjacent triangles, which are swapped for translated copies so the
    top edge labels stay unique.  The base's square count must lie in the
    published interval of the case.
    """
    if k < 1:
        raise BoundViolation(f"need k >= 1, got {k}")
    if not 1 <= case <= 4:
        raise BoundViolation(f"case must be 1..4, got {case}")
    lengths = {length for length, _ in base.spec.vanes}
    if not lengths <= {3, 4}:
        raise MalformedLabelling("extension applies to triangle+square windmills only")
    t = base.spec.count_of(3)
    s = base.spec.count_of(4)
    if t % 4 + 1 != case:
        raise BoundViolation(f"case {case} does not match t={t}")
    w = t // 4
    if case == 1 and w < 1:
        raise BoundViolation("case 1 needs at least four triangles")
    if not _ext_bounds_hold(case, w, k, s):
        raise BoundViolation(f"(t={t}, s={s}, k={k}) outside the case-{case} interval")
    expected = GRACEFUL if case in (1, 2) else NEAR_GRACEFUL
    if base.mode != expected:
        raise MalformedLabelling(f"case {case} needs a {expected} base")

    vanes = list(base.vanes)
    for (a, b), (na, nb) in zip(
        _ext_required_triangles(case, w, s), _ext_replacement_triangles(case, w, s, k)
    ):
        target = {0, a, b}
        for idx, vane in enumerate(vanes):
            if len(vane) == 3 and set(vane) == target:
                vanes[idx] = (0, na, nb)
                break
        else:
            raise MissingRequiredTriangle(f"base lacks triangle (0, {a}, {b})")

    c = 4 * s + 12 * w + _EXT_SHIFT[case]
    quads = quadruples_from_twofold(gen_twofold_langford(k), c)
    new_spec = WindmillSpec.of((3, t), (4, s + 4 * k - 1))
    tris = [v for v in vanes if len(v) == 3]
    squares = [v for v in vanes if len(v) == 4] + quads
    return _checked(Labelling(new_spec, tuple(tris + squares), base.mode))


def _composite_rule(t: int, s: int) -> tuple[str, dict] | None:
    """Locate s inside the tiling of composite orders: rule and parameters."""
    if s < max(3 * t + 2, 2 * t + 6) or 2 * s > 13 * t + 37:
        return None
    x = (s - (2 * t - 3)) // 9
    if x < 1 or t < 2 * x - 3:
        return None
    off = s - (2 * t + 9 * x - 3)
    if not 0 <= off <= 8:  # pragma: no cover - arithmetic guarantee
        return None
    if off < 4:
        rule, y, defect = "composite-low", off, t + 4 * x - 1
    else:
        # off == 4 is expressible both ways; the empty tail is simpler
        rule, y, defect = "composite-high", off - 4, t + 4 * x + 1
    if y == 4 and t + 2 * x == 6:
        # the order-4 tail block carries the label 6, which collides with the
        # power-of-4 block's top vertex at this one corner; fall through
        return None
    return rule, {"t": t, "s": s, "x": x, "y": y, "defect": defect}


def _composite_sequence(rule: str, x: int, y: int, defect: int) -> SkolemTypeSequence:
    if rule == "composite-low":
        # trimmed power-of-4 prefix, double Langford core, the closing (1,1),
        # then one of the small catalogued two-fold sequences
        parts = [
            gen_power4(x, trimmed=True),
            double(gen_langford_doubledefect(defect)),
            gen_power4(0, trimmed=True),
            fixed_small_twofold(y),
        ]
    else:
        parts = [
            gen_power4(x),
            double(gen_langford_doubledefect(defect)),
            fixed_small_twofold(y),
        ]
    return concat(parts)


def _build_c3c4(t: int, s: int, rule: str, params: dict, straddle: bool) -> Labelling:
    if rule == "twofold-direct" or rule == "twofold-parity":
        composite = gen_twofold_skolem(s)
    elif rule == "langford-block":
        composite = double(gen_langford_doubledefect(params["defect"]))
    elif rule == "langford-plus-twofold":
        composite = concat(
            [double(gen_langford_doubledefect(params["defect"])), gen_twofold_skolem(params["k"])]
        )
    else:
        composite = _composite_sequence(rule, params["x"], params["y"], params["defect"])
    quads = quadruples_from_twofold(composite, c=t)
    if len(quads) != s:  # pragma: no cover - arithmetic guarantee
        raise InvalidSequence(f"composite gave {len(quads)} squares, wanted {s}")
    tris = triples_from_pairs(
        pairs_of(_triangle_sequence(t, straddle)), c=4 * s + t, variant=1
    )
    spec = WindmillSpec.of((3, t), (4, s))
    return _checked(Labelling(spec, tuple(tris) + tuple(quads), expected_mode(spec)))


def _c3c4_rule(t: int, s: int, straddle: bool = False) -> tuple[str, dict] | None:
    """The rule covering C3^t C4^s and its trace parameters; None if none does.

    This is the only statement of the rule precedence and its preconditions:
    the dispatcher builds by it, ``replay`` re-derives it and the coverage
    audit tabulates it.  ``straddle`` marks the base of a case-3 or case-4
    extension, which must carry the replaceable hook-adjacent triangles; at
    t <= 3 only the catalogued rows do (no order-3 hooked sequence can
    straddle).
    """
    if t < 1 or s < 0:
        return None
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
    case = t % 4 + 1
    for k in range(1, s // 4 + 1):
        s_base = s - 4 * k + 1
        if _ext_bounds_hold(case, t // 4, k, s_base):
            return f"extension-case{case}", {"t": t, "s": s, "k": k, "s_base": s_base}
    if _load_gap_fixture(t, s) is not None:
        return "gap-fixture", {"t": t, "s": s}
    return None


def _dispatch_c3c4(t: int, s: int, straddle: bool) -> tuple[Labelling, ConstructionTrace]:
    if t < 1:
        raise Unlabellable("windmills without triangle vanes are not covered")
    if s < 0:
        raise OutOfRange(f"need s >= 0, got {s}")
    found = _c3c4_rule(t, s, straddle)
    if found is None:
        raise Unlabellable(f"no rule covers C3^{t}C4^{s}")
    rule, params = found
    children: tuple[ConstructionTrace, ...] = ()
    if rule == "triangles-only":
        lab = label_c3(t)
    elif rule == "base-case":
        lab = base_case_c3c4(t, s)
    elif rule == "gap-fixture":
        lab = _load_gap_fixture(t, s)
    elif rule.startswith("extension-case"):
        case = t % 4 + 1
        base, base_trace = _dispatch_c3c4(t, params["s_base"], straddle=case in (3, 4))
        lab, children = extend_c3c4(base, params["k"], case), (base_trace,)
    else:
        lab = _build_c3c4(t, s, rule, params, straddle)
    return lab, ConstructionTrace(rule, params, children)


def label_c3c4(t: int, s: int) -> tuple[Labelling, ConstructionTrace]:
    """Verified labelling of the t-triangle, s-square windmill, with its trace.

    Graceful exactly when t = 0, 1 (mod 4).  Rule precedence: direct
    constructions, then catalogued base cases, then the square-block
    extension, then gap fixtures.
    """
    return _dispatch_c3c4(t, s, straddle=False)


def replay(trace: ConstructionTrace) -> bool:
    """Re-derive every node's rule and parameters from its cell and compare."""
    p = trace.parameters
    return _replay(trace, p["t"], p.get("s", 0), straddle=False)


def _replay(trace: ConstructionTrace, t: int, s: int, straddle: bool) -> bool:
    if _c3c4_rule(t, s, straddle) != (trace.rule, trace.parameters):
        return False
    if not trace.rule.startswith("extension-case"):
        return not trace.children
    case = t % 4 + 1
    return len(trace.children) == 1 and _replay(
        trace.children[0], t, trace.parameters["s_base"], straddle=case in (3, 4)
    )


# ---------------------------------------------------------------------------
# Fixture store (catalogued base cases and audit-gap fills)
# ---------------------------------------------------------------------------

_BASE_CASE_RANGE = {1: range(1, 21), 2: range(1, 21), 3: range(1, 20)}


def _fixture_text(name: str) -> str | None:
    path = resources.files("windmills") / "fixtures" / name
    try:
        return path.read_text()
    except FileNotFoundError:
        return None


@lru_cache(maxsize=None)
def _load_fixture(name: str) -> Labelling | None:
    text = _fixture_text(name)
    if text is None:
        return None
    obj = json.loads(text)
    labelling = from_json_obj(obj)
    report = verify(labelling)
    if not report.ok:
        raise InvalidSequence(f"fixture {name} failed verification: {report.summary()}")
    return labelling


def _base_case_available(t: int, s: int) -> bool:
    return t in _BASE_CASE_RANGE and s in _BASE_CASE_RANGE[t]


def base_case_c3c4(t: int, s: int) -> Labelling:
    """Catalogued labelling for one, two or three triangles and few squares."""
    if not _base_case_available(t, s):
        raise NotInTable(f"no catalogued labelling for C3^{t}C4^{s}")
    lab = _load_fixture(f"c3c4_base_t{t}_s{s}.json")
    if lab is None:  # pragma: no cover - packaged data
        raise NotInTable(f"fixture file for C3^{t}C4^{s} is missing")
    return lab


def _load_gap_fixture(t: int, s: int) -> Labelling | None:
    return _load_fixture(f"c3c4_gap_t{t}_s{s}.json")


# ---------------------------------------------------------------------------
# Triangle + 5-cycle windmills
# ---------------------------------------------------------------------------

_C3C5_FIXTURE = ((0, 5, 7), (0, 8, 4, 3, 6))


def label_c3c5(t: int, p: int) -> Labelling:
    """Triangles plus 5-cycles; needs t >= 2p+1 and a compatible residue pair.

    The 5-cycle block is re-shifted clear of the triangle labels and the
    triangles come from a Langford sequence with defect p+1, so coverage is
    exactly the residue grid on which that Langford sequence exists.
    """
    if (t, p) == (1, 1):
        spec = WindmillSpec.of((3, 1), (5, 1))
        return _checked(Labelling(spec, _C3C5_FIXTURE, GRACEFUL))
    if p < 1 or t < 1:
        raise OutOfRange(f"need t, p >= 1, got ({t}, {p})")
    if t < 2 * p + 1:
        raise UnsupportedCombination(f"t={t} below the bound 2p+1={2 * p + 1}")
    if not exists("langford", order=t, defect=p + 1):
        raise UnsupportedCombination(
            f"no defect-{p + 1} Langford sequence of order {t}"
            f" (p mod 4 = {p % 4}, t mod 4 = {t % 4} is uncovered)"
        )
    fives = fivetuples_shifted(p, p + 3 * t)
    lang = langford_sequence(p + 1, t)
    tris = triples_from_pairs(pairs_of(lang), c=p + t, variant=1)
    spec = WindmillSpec.of((3, t), (5, p))
    return _checked(Labelling(spec, tuple(tris) + tuple(fives), expected_mode(spec)))


# ---------------------------------------------------------------------------
# Triangle + hexagon windmills
# ---------------------------------------------------------------------------


def label_c3c6(t: int, h: int) -> Labelling:
    """Triangles plus hexagons by merging triangle pairs around their symbol sum."""
    if t < 1 or h < 0:
        raise OutOfRange(f"need t >= 1 and h >= 0, got ({t}, {h})")
    if h > 2 * t + 1:
        raise TooManyHexagons(f"h={h} exceeds the bound 2t+1={2 * t + 1}")
    n = t + 2 * h
    vanes = list(triples_from_pairs(pairs_of(_triangle_sequence(n)), c=n, variant=2))
    pair_pool = _hexagon_pair_rows(n)
    if len(pair_pool) < h:  # pragma: no cover - equivalent to the h bound
        raise TooManyHexagons(f"only {len(pair_pool)} mergeable pairs for n={n}")
    for pair in pair_pool[:h]:
        vanes = apply_hexagon_merge(vanes, pair, n)
    spec = WindmillSpec.of((3, t), (6, h)) if h else WindmillSpec.of((3, t))
    ordered = tuple(v for v in vanes if len(v) == 3) + tuple(
        v for v in vanes if len(v) == 6
    )
    return _checked(Labelling(spec, ordered, expected_mode(spec)))


# ---------------------------------------------------------------------------
# Coverage audit
# ---------------------------------------------------------------------------

GAP = "GAP"


def coverage_audit(t_max: int, s_max: int) -> dict[tuple[int, int], str]:
    """Which rule the dispatcher would use per cell; GAP where none applies.

    This reads the dispatcher's rule function only (no labellings are built).
    Gap-fixture cells count as GAP, and an extension cell counts as covered
    only if its smallest-k base cell is covered or has a gap fixture.
    """
    if t_max < 1 or s_max < 1:
        raise OutOfRange("audit bounds must be >= 1")
    grid: dict[tuple[int, int], str] = {}
    for t in range(1, t_max + 1):
        for s in range(0, s_max + 1):
            grid[(t, s)] = _audit_cell(t, s, grid)
    return grid


def _audit_cell(t: int, s: int, grid: dict[tuple[int, int], str]) -> str:
    """One cell's audit label; ``grid`` already holds the cells (t, s' < s)."""
    found = _c3c4_rule(t, s)
    if found is None or found[0] == "gap-fixture":
        return GAP
    rule, params = found
    if not rule.startswith("extension-case"):
        return rule
    s_base = params["s_base"]
    if grid[(t, s_base)] != GAP or _load_gap_fixture(t, s_base) is not None:
        return "extension"
    return GAP
