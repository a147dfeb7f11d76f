"""Family-level dispatchers: label a whole windmill from sequence machinery.

Each public ``label_*`` routine picks sequences, shifts and compositions for
one windmill family and returns a verified labelling.  A triangle/square
cell is planned first: ``_plan_c3c4`` walks the rule function ``_c3c4_rule``
down the extension bases.  By the coverage lemma of ``_extension_k`` every
cell has a plan.  The build and ``replay`` read that plan, the coverage audit
reads each cell's rule, and the plan is the construction trace ``label_c3c4``
returns.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .assemble import (
    _hexagon_pair_rows,
    _triangle_sequence,
    fivetuples_c5,
    fivetuples_shifted,
    merge_hexagons,
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
    SkolemTypeSequence,
    concat,
    double,
    exists,
    fixed_small_twofold,
    gen_langford_doubledefect,
    gen_power4,
    gen_twofold_langford,
    gen_twofold_skolem,
    langford_sequence,
)
from .windmill import (
    GRACEFUL,
    Labelling,
    WindmillSpec,
    expected_mode,
    from_json_obj,
    verify,
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


def label_c3(t: int) -> Labelling:
    """(Near) graceful triangle windmill; graceful exactly for t = 0, 1 (mod 4)."""
    if t < 1:
        raise OutOfRange(f"need t >= 1, got {t}")
    seq = _triangle_sequence(t)
    tris = triples_from_pairs(seq, c=t, variant=1)
    spec = WindmillSpec.of((3, t))
    return _checked(Labelling(spec, tris, expected_mode(spec)))


def label_c5(p: int) -> Labelling:
    """(Near) graceful 5-cycle windmill; graceful exactly for p = 0, 3 (mod 4)."""
    if p < 1:
        raise OutOfRange(f"need p >= 1, got {p}")
    spec = WindmillSpec.of((5, p))
    return _checked(Labelling(spec, fivetuples_c5(p), expected_mode(spec)))


# ---------------------------------------------------------------------------
# Triangle + square windmills
# ---------------------------------------------------------------------------


def _square_shift(t: int, s: int) -> int:
    """Where the extension puts its square block in a base C3^t C4^s.

    With t = 0, 1 (mod 4) it is the base's top label 4s+3t, so nothing moves.
    The catalogued bases at t = 2, 3 keep only the paper's tail triangles
    above 4s+t+2.  Every other base has its squares' labels at most 4s+t and
    its triangles' labels above it, so all the triangles move.
    """
    if t % 4 in (0, 1):
        return 4 * s + 3 * t
    return 4 * s + t + (2 if t <= 3 else 0)


def _extension_k(t: int, s: int) -> int | None:
    """The smallest k that grafts 4k-1 squares onto a C3^t base to give s.

    The base has s_base = s-4k+1 squares and, with a = _square_shift(t, 0),
    the square shift c = 4*s_base + a = 4s-16k+4+a.  So ``extend_c3c4``'s
    interval 2k+2 <= c <= 6k-5 together with s_base >= 1 reads

        ceil((4s+9+a)/22) <= k <= min(s//4, (4s+2+a)//18),

    and the smallest k is the lower end, or None when the range is empty.

    Coverage lemma: every C3^t C4^s with t >= 1, s >= 0 has a rule.
    Write p = 4s+9+a and q = 4s+2+a.  Since ceil(p/22) <= (p+21)/22,
    floor(q/18) >= (q-17)/18 and floor(s/4) >= (s-3)/4, a k exists whenever

        18(p+21) <= 22(q-17), that is 8s+2a >= 435, and
        4(p+21) <= 22(s-3),   that is 3s >= 93+2a.

    Both rise with s; the first rises and the second falls with a, and
    t <= a <= 3t.  At t >= 29 and s >= 3t+2 the first is at least
    26t+16 >= 435 and the second 3s-93-6t >= 3t-87 >= 0; at t <= 28 and
    s >= 87 (so a <= 84) both hold too.  For t >= 4 the direct rules cover
    0 <= s <= 3t+1.  A finite scan of the other cells with t <= 28, s <= 86
    finds no k only at t <= 9 and t = 12 with s <= 39; the composite rules
    cover those cells when t >= 4, and catalogued bases or gap fixtures
    when t <= 3.  Since s_base < s, induction on s covers every
    extension's base.  ``tests/test_families.py`` checks each step.
    """
    a = _square_shift(t, 0)
    k = -(-(4 * s + 9 + a) // 22)
    return k if k <= min(s // 4, (4 * s + 2 + a) // 18) else None


def extend_c3c4(base: Labelling, k: int) -> Labelling:
    """Graft 4k-1 squares onto a triangle+square labelling.

    The squares come from the two-fold Langford block of defect 6k-1 at the
    square shift c, which must lie in [2k+2, 6k-5].  Every base label above c
    moves up by the block's length 16k-4, which the block then fills; this
    keeps the edge labels unique when every base edge across c has a label
    above c.
    """
    if k < 1:
        raise BoundViolation(f"need k >= 1, got {k}")
    lengths = {length for length, _ in base.spec.vanes}
    if not lengths <= {3, 4}:
        raise MalformedLabelling("extension applies to triangle+square windmills only")
    t = base.spec.count_of(3)
    s = base.spec.count_of(4)
    if t < 1:
        raise BoundViolation("the extension needs at least one triangle")
    c = _square_shift(t, s)
    if not 2 * k + 2 <= c <= 6 * k - 5:
        raise BoundViolation(f"(t={t}, s={s}, k={k}) outside the case-{t % 4 + 1} interval")
    if base.mode != expected_mode(base.spec):
        raise MalformedLabelling(f"case {t % 4 + 1} needs a {expected_mode(base.spec)} base")

    block = gen_twofold_langford(k)
    for vane in base.vanes:
        for u, v in zip(vane, vane[1:] + vane[:1]):
            if min(u, v) <= c < max(u, v) and abs(u - v) <= c:
                raise MissingRequiredTriangle(
                    f"base edge ({u}, {v}) crosses the square shift {c} with label {abs(u - v)}"
                )
    vanes = [tuple(v + block.length if v > c else v for v in vane) for vane in base.vanes]

    quads = quadruples_from_twofold(block, c)
    new_spec = WindmillSpec.of((3, t), (4, s + 4 * k - 1))
    tris = [v for v in vanes if len(v) == 3]
    squares = [v for v in vanes if len(v) == 4] + quads
    return _checked(Labelling(new_spec, tris + squares, base.mode))


def _composite_rule(t: int, s: int) -> tuple[str, dict] | None:
    """Locate s inside the tiling of composite orders: rule and parameters."""
    if s < max(3 * t + 2, 2 * t + 6) or 2 * s > 13 * t + 37:
        return None
    x = (s - (2 * t - 3)) // 9
    if x < 1 or t < 2 * x - 3:
        return None
    off = s - (2 * t + 9 * x - 3)  # (s - (2t - 3)) mod 9, so 0 <= off <= 8
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


def _double_langford(params: dict) -> SkolemTypeSequence:
    return double(gen_langford_doubledefect(params["defect"]))


# rule -> the two-fold composite whose pairs become the rule's square block
_SQUARE_BLOCKS = {
    "twofold-direct": lambda p: gen_twofold_skolem(p["s"]),
    "twofold-parity": lambda p: gen_twofold_skolem(p["s"]),
    "langford-block": _double_langford,
    "langford-plus-twofold": lambda p: concat([_double_langford(p), gen_twofold_skolem(p["k"])]),
    # trimmed power-of-4 prefix, double Langford core, the closing (1,1),
    # then one of the small catalogued two-fold sequences
    "composite-low": lambda p: concat(
        [
            gen_power4(p["x"], trimmed=True),
            _double_langford(p),
            gen_power4(0, trimmed=True),
            fixed_small_twofold(p["y"]),
        ]
    ),
    "composite-high": lambda p: concat(
        [gen_power4(p["x"]), _double_langford(p), fixed_small_twofold(p["y"])]
    ),
}

RULES = frozenset(_SQUARE_BLOCKS) | {
    "triangles-only",
    "base-case",
    "gap-fixture",
    *(f"extension-case{case}" for case in range(1, 5)),
}


def _c3c4_rule(t: int, s: int, straddle: bool = False) -> tuple[str, dict]:
    """The rule covering C3^t C4^s (t >= 1, s >= 0) and its trace parameters.

    This is the only statement of the rule precedence and its preconditions;
    ``_plan_c3c4`` applies it to a cell and to each extension base below it.
    ``straddle`` marks the base of an extension at t = 2, 3 (mod 4); at
    t <= 3 it picks the catalogued rows, whose labels above the square shift
    are the paper's tail triangles.  The result is never None: by the
    coverage lemma of ``_extension_k`` a cell that no direct rule, catalogued
    base or extension covers is one of the packaged gap fixtures.
    """
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
    k = _extension_k(t, s)
    if k is not None:
        return f"extension-case{t % 4 + 1}", {"t": t, "s": s, "k": k, "s_base": s - 4 * k + 1}
    return "gap-fixture", {"t": t, "s": s}


def _plan_c3c4(t: int, s: int, straddle: bool = False) -> ConstructionTrace:
    """The rule tree for C3^t C4^s; nothing is built.

    An extension node has one child, the plan of its base, whose rule is
    chosen with ``straddle`` set at t = 2, 3 (mod 4).
    """
    rule, params = _c3c4_rule(t, s, straddle)
    if not rule.startswith("extension-case"):
        return ConstructionTrace(rule, params)
    base = _plan_c3c4(t, params["s_base"], straddle=t % 4 in (2, 3))
    return ConstructionTrace(rule, params, (base,))


def _build_c3c4(plan: ConstructionTrace) -> Labelling:
    """The labelling a plan describes; an extension builds its base first."""
    rule, params = plan.rule, plan.parameters
    t, s = params["t"], params.get("s", 0)
    if rule == "triangles-only":
        return label_c3(t)
    if rule == "base-case":
        return base_case_c3c4(t, s)
    if rule == "gap-fixture":
        return _load_gap_fixture(t, s)
    if plan.children:
        return extend_c3c4(_build_c3c4(plan.children[0]), params["k"])
    quads = quadruples_from_twofold(_SQUARE_BLOCKS[rule](params), c=t)
    tris = triples_from_pairs(_triangle_sequence(t), c=4 * s + t, variant=1)
    spec = WindmillSpec.of((3, t), (4, s))
    return _checked(Labelling(spec, tris + quads, expected_mode(spec)))


def label_c3c4(t: int, s: int) -> tuple[Labelling, ConstructionTrace]:
    """Verified labelling of the t-triangle, s-square windmill, with its plan.

    Graceful exactly when t = 0, 1 (mod 4).  Rule precedence: direct
    constructions, then catalogued base cases, then the square-block
    extension, then gap fixtures.  A gap fixture that is not packaged raises
    NotInTable.
    """
    if t < 1:
        raise Unlabellable("windmills without triangle vanes are not covered")
    if s < 0:
        raise OutOfRange(f"need s >= 0, got {s}")
    plan = _plan_c3c4(t, s)
    return _build_c3c4(plan), plan


def replay(trace: ConstructionTrace) -> bool:
    """Whether a trace is the plan of its own cell (t >= 1, s >= 0), every node
    and parameter; False for a trace without an int ``t``, or with a non-int
    ``s`` (a triangles-only plan records no ``s``)."""
    t, s = trace.parameters.get("t"), trace.parameters.get("s", 0)
    if type(t) is not int or type(s) is not int:  # bools too
        return False
    return t >= 1 and s >= 0 and trace == _plan_c3c4(t, s)


# ---------------------------------------------------------------------------
# Fixture store (catalogued base cases and audit-gap fills)
# ---------------------------------------------------------------------------

_BASE_CASE_RANGE = {1: range(1, 21), 2: range(1, 21), 3: range(1, 20)}


@lru_cache(maxsize=None)
def _load_fixture(name: str) -> Labelling:
    try:
        text = (resources.files("windmills") / "fixtures" / name).read_text()
    except FileNotFoundError:
        raise NotInTable(f"fixture file {name} is not packaged") from None
    labelling = from_json_obj(json.loads(text))
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
    return _load_fixture(f"c3c4_base_t{t}_s{s}.json")


def _load_gap_fixture(t: int, s: int) -> Labelling:
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
    tris = triples_from_pairs(lang, c=p + t, variant=1)
    spec = WindmillSpec.of((3, t), (5, p))
    return _checked(Labelling(spec, tris + fives, expected_mode(spec)))


# ---------------------------------------------------------------------------
# Triangle + hexagon windmills
# ---------------------------------------------------------------------------


def label_c3c6(t: int, h: int) -> Labelling:
    """Triangles plus hexagons by merging triangle pairs around their symbol sum.

    By the lemma of ``assemble._hexagon_pair_rows`` every h <= 2t+1 has its pairs.
    """
    if t < 1 or h < 0:
        raise OutOfRange(f"need t >= 1 and h >= 0, got ({t}, {h})")
    if h > 2 * t + 1:
        raise TooManyHexagons(f"h={h} exceeds the bound 2t+1={2 * t + 1}")
    n = t + 2 * h
    triangles = triples_from_pairs(_triangle_sequence(n), c=n, variant=2)
    # the triangles that no merge consumed come first, then the hexagons
    vanes = merge_hexagons(triangles, _hexagon_pair_rows(n)[:h])
    spec = WindmillSpec.of((3, t), (6, h)) if h else WindmillSpec.of((3, t))
    return _checked(Labelling(spec, vanes, expected_mode(spec)))


# ---------------------------------------------------------------------------
# Coverage audit
# ---------------------------------------------------------------------------

GAP = "GAP"


def coverage_audit(t_max: int, s_max: int) -> Iterator[tuple[tuple[int, int], str]]:
    """Each cell's ``((t, s), rule)`` in (t, s) order, computed as it is read.

    Bounds are checked at the call; no labellings are built.  A cell is GAP
    when its rule is a gap fixture and ``extension`` for any extension case;
    by the coverage lemma every cell has a plan, so nothing below a cell's
    own rule is read.
    """
    if t_max < 1 or s_max < 1:
        raise OutOfRange("audit bounds must be >= 1")

    def cells():
        for t in range(1, t_max + 1):
            for s in range(s_max + 1):
                rule = _c3c4_rule(t, s)[0]
                if rule.startswith("extension-case"):
                    rule = "extension"
                yield (t, s), GAP if rule == "gap-fixture" else rule

    return cells()

