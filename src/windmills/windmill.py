"""Windmill graphs, labellings, and the (near) graceful verifier.

A windmill is a one-point union of cycles; every vane shares the central
vertex, which always carries the label 0.  A labelling with m edges is
graceful when the nonzero vertex labels are distinct values in [1, m] and the
cyclic absolute differences hit every value in [1, m] exactly once.  The
near graceful convention used by every constructive routine here omits the
vertex label m and the edge label m, using m+1 instead for both.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, sub

from .errors import MalformedLabelling

GRACEFUL = "graceful"
NEAR_GRACEFUL = "near-graceful"
MODES = (GRACEFUL, NEAR_GRACEFUL)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class WindmillSpec:
    """Multiset of (cycle length, vane count) sharing one central vertex."""

    vanes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # A copy, so a caller's list cannot change the value; the errors
        # below name a group, not the container.
        object.__setattr__(self, "vanes", tuple(self.vanes))
        seen = set()
        for item in self.vanes:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise MalformedLabelling(f"bad vane group {item!r}")
            length, count = item
            if not (_is_int(length) and _is_int(count)):
                raise MalformedLabelling(f"bad vane group {item!r}")
            if length < 3:
                raise MalformedLabelling(f"cycle length {length} < 3")
            if count < 1:
                raise MalformedLabelling(f"vane count {count} < 1")
            if length in seen:
                raise MalformedLabelling(f"cycle length {length} listed twice")
            seen.add(length)
        if self.edge_count < 3:
            raise MalformedLabelling("windmill needs at least 3 edges")

    @staticmethod
    def of(*groups: tuple[int, int]) -> "WindmillSpec":
        return WindmillSpec(sorted((l, c) for l, c in groups if c))

    @property
    def edge_count(self) -> int:
        return sum(length * count for length, count in self.vanes)

    def count_of(self, length: int) -> int:
        for l, c in self.vanes:
            if l == length:
                return c
        return 0

    @staticmethod
    def parse(text: str) -> "WindmillSpec":
        """Parse the CLI grammar ``c3=4,c4=3`` (closed length set {3,4,5,6})."""
        groups = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            # one c, the length's decimal digits, =, and the count's, maybe negative
            match = re.fullmatch(r"[cC]([0-9]+)=(-?[0-9]+)", part)
            if match is None:
                raise MalformedLabelling(f"bad graph spec component {part!r}")
            length, count = map(int, match.groups())
            if length not in (3, 4, 5, 6):
                raise MalformedLabelling(f"unsupported cycle length in {part!r}")
            if count < 0:
                raise MalformedLabelling(f"negative vane count in {part!r}")
            if count > 0:
                groups.append((length, count))
        if not groups:
            raise MalformedLabelling(f"empty graph spec {text!r}")
        return WindmillSpec.of(*groups)

    def to_text(self) -> str:
        return ",".join(f"c{l}={c}" for l, c in self.vanes)


@dataclass(frozen=True)
class Labelling:
    """Vertex labels per vane; each tuple starts at the central 0.

    A vane ``(0, a, b, c)`` is the cycle 0-a-b-c-0; the closing edge back to
    the centre is implicit.
    """

    spec: WindmillSpec
    vanes: tuple[tuple[int, ...], ...]
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise MalformedLabelling(f"unknown mode {self.mode!r}")
        lengths = Counter(map(len, self.vanes))
        expected = Counter({l: c for l, c in self.spec.vanes})
        if lengths != expected:
            raise MalformedLabelling(
                f"vane lengths {dict(lengths)} do not match spec {dict(expected)}"
            )
        # Every vane is as long as a cycle, so it has a first label.  Exact ints
        # starting each vane at 0 need no per-vane check; the loop runs only to
        # name the first bad vane or label.
        if not (
            set(map(type, chain.from_iterable(self.vanes))) <= {int}
            and not any(map(itemgetter(0), self.vanes))
        ):
            for vane in self.vanes:
                if not vane or vane[0] != 0:
                    raise MalformedLabelling(f"vane {vane} must start at the central 0")
                for label in vane:
                    if not _is_int(label):
                        raise MalformedLabelling(f"non-integer label in {vane}")
        # The caller's lists are copied into tuples after the checks, whose
        # errors print a vane as given.
        object.__setattr__(self, "vanes", tuple(map(tuple, self.vanes)))

    def vertex_labels(self) -> list[int]:
        """All non-central labels, with multiplicity."""
        return [label for vane in self.vanes for label in vane[1:]]


def edge_multiset(labelling: Labelling) -> Counter:
    """Absolute differences of cyclically consecutive labels, per vane."""
    edges: Counter = Counter()
    for vane in labelling.vanes:
        for a, b in zip(vane, (*vane[1:], vane[0])):
            edges[abs(a - b)] += 1
    return edges


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    m: int
    mode_checked: str
    duplicate_vertices: tuple[int, ...] = ()
    out_of_range_vertices: tuple[int, ...] = ()
    missing_edges: tuple[int, ...] = ()
    extra_edges: tuple[int, ...] = ()
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"ok ({self.mode_checked}, m={self.m})" + (
                f" [{self.note}]" if self.note else ""
            )
        parts = []
        if self.duplicate_vertices:
            parts.append(f"duplicate vertices {list(self.duplicate_vertices)}")
        if self.out_of_range_vertices:
            parts.append(f"vertices out of range {list(self.out_of_range_vertices)}")
        if self.missing_edges:
            parts.append(f"missing edges {list(self.missing_edges)}")
        if self.extra_edges:
            parts.append(f"extra edges {list(self.extra_edges)}")
        return f"FAILED ({self.mode_checked}, m={self.m}): " + "; ".join(parts)


def _passes(labelling: Labelling, vertices: list[int], edges: list[int]) -> bool:
    """Whether ``_check`` would find no fault; ``edges`` is sorted and distinct.

    Every vane starts at the central 0, so the vanes laid end to end form one
    closed walk with the same edges, and its labels other than the vanes'
    leading zeros are the vertex labels.  These must be distinct members of
    ``vertices`` (a non-central 0 shrinks the set below their count), and
    the sorted edge labels must equal ``edges``: one multiset comparison.
    """
    walk = list(chain.from_iterable(labelling.vanes))
    distinct = set(walk)
    distinct.discard(0)
    if len(distinct) != len(walk) - len(labelling.vanes) or not distinct.issubset(vertices):
        return False
    return sorted(map(abs, map(sub, walk, walk[1:] + walk[:1]))) == edges


def _check(labelling: Labelling, vertices: list[int], edges: list[int]) -> tuple:
    counts = Counter(labelling.vertex_labels())
    duplicates = tuple(sorted(v for v, c in counts.items() if c > 1))
    allowed = set(vertices)
    out_of_range = tuple(sorted(v for v in counts if v not in allowed))
    actual, target = edge_multiset(labelling), Counter(edges)
    missing = tuple(sorted((target - actual).elements()))
    extra = tuple(sorted((actual - target).elements()))
    return duplicates, out_of_range, missing, extra


def labels(m: int, mode: str) -> list[int]:
    """The vertex labels a labelling with m edges may use, which are also the
    edge labels it must hit: [1, m] (graceful) or [1, m-1] plus m+1 (near)."""
    if mode == GRACEFUL:
        return list(range(1, m + 1))
    if mode == NEAR_GRACEFUL:
        return list(range(1, m)) + [m + 1]
    raise ValueError(f"unknown mode {mode!r}")


def verify(labelling: Labelling, permissive_near: bool = False) -> VerificationReport:
    """Check the vertex and edge labels against ``labels(m, mode)``.

    With ``permissive_near`` a near labelling may instead use edge labels
    [1, m] with vertices up to m+1 (flagged in the note).  A labelling holds
    its vanes in tuples and cannot change, so its report is kept in the
    instance dict, as ``cached_property`` keeps a value, and a second call
    returns it; equality and hashing ignore it.
    """
    key = "_permissive_report" if permissive_near else "_report"
    report = vars(labelling).get(key)
    if report is None:
        report = vars(labelling)[key] = _report(labelling, permissive_near)
    return report


def _report(labelling: Labelling, permissive_near: bool) -> VerificationReport:
    m, mode = labelling.spec.edge_count, labelling.mode
    target = labels(m, mode)
    if _passes(labelling, target, target):
        note = "omits m, uses m+1" if mode == NEAR_GRACEFUL else ""
        return VerificationReport(True, m, mode, note=note)
    if mode == NEAR_GRACEFUL and permissive_near:
        if _passes(labelling, labels(m + 1, GRACEFUL), labels(m, GRACEFUL)):
            note = "permissive variant: edges [1,m], vertices up to m+1"
            return VerificationReport(True, m, mode, note=note)
    return VerificationReport(False, m, mode, *_check(labelling, target, target))


def expected_mode(spec: WindmillSpec) -> str:
    """Graceful exactly when the edge count is 0 or 3 (mod 4).

    Windmills are Eulerian, so the classical parity obstruction applies; all
    constructive families in this package match this prediction.
    """
    return GRACEFUL if spec.edge_count % 4 in (0, 3) else NEAR_GRACEFUL


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def to_json_obj(labelling: Labelling) -> dict:
    return {
        "spec": [{"cycle": l, "count": c} for l, c in labelling.spec.vanes],
        "mode": labelling.mode,
        "vanes": [list(v) for v in labelling.vanes],
    }


def to_json(labelling: Labelling, indent: int | None = None) -> str:
    return json.dumps(to_json_obj(labelling), indent=indent)


def from_json_obj(obj: dict) -> Labelling:
    """Read ``to_json_obj``'s layout; every cycle, count and label must be a
    JSON integer (``1.0``, ``"1"`` and ``true`` are rejected, not coerced)."""
    try:
        groups = [(g["cycle"], g["count"]) for g in obj["spec"]]
        mode = obj["mode"]
        vanes = tuple(tuple(vane) for vane in obj["vanes"])
    except (KeyError, TypeError) as exc:
        raise MalformedLabelling(f"bad labelling JSON: {exc}") from exc
    for group in groups:
        # checked here because ``WindmillSpec.of`` drops groups with a falsy count
        if not all(map(_is_int, group)):
            raise MalformedLabelling(f"bad vane group {group!r}")
    return Labelling(spec=WindmillSpec.of(*groups), vanes=vanes, mode=mode)


def from_json(text: str) -> Labelling:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLabelling(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLabelling("labelling JSON must be an object")
    return from_json_obj(obj)


def to_dot(labelling: Labelling) -> str:
    """Graphviz export; nodes are named v<label>, edges carry the difference."""
    lines = ["graph windmill {"]
    emitted = {0}
    lines.append('  v0 [label="0"];')
    for vane in labelling.vanes:
        for label in vane[1:]:
            if label not in emitted:
                emitted.add(label)
                lines.append(f'  v{label} [label="{label}"];')
    for vane in labelling.vanes:
        cycle = (*vane, vane[0])
        for a, b in zip(cycle, cycle[1:]):
            lines.append(f'  v{a} -- v{b} [label="{abs(a - b)}"];')
    lines.append("}")
    return "\n".join(lines)
