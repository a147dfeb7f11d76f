"""Skolem-type sequences: data model, validator, generators and combinators.

A Skolem-type sequence of order n places every symbol h of an n-element set H
on positions at distance exactly h (position j - position i = h).  Variants
differ in the symbol set (Skolem: [1,n]; Langford with defect d: [d,d+l-1];
near-Skolem: [1,n] minus one omitted value) and in the fold (two-fold: every
symbol owns two disjoint pairs).  Hooked variants leave a single empty cell,
encoded as the value 0, at the penultimate position.

Positions are 1-based everywhere; only the storage boundary converts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    HookedOperand,
    InvalidSequence,
    NoSuchSequence,
    OutOfRange,
    SearchBudgetExhausted,
    UnknownKind,
    UnmatchedSymbol,
    UnsupportedOrder,
)

Pair = tuple[int, int]


@dataclass(frozen=True)
class SkolemTypeSequence:
    """A positional sequence over a symbol set; 0 encodes a hook (empty cell)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for e in self.entries:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise ValueError(f"entries must be non-negative integers, got {e!r}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def hook_positions(self) -> frozenset[int]:
        return frozenset(i + 1 for i, e in enumerate(self.entries) if e == 0)

    @property
    def is_hooked(self) -> bool:
        return bool(self.hook_positions)

    @property
    def symbol_set(self) -> frozenset[int]:
        return frozenset(e for e in self.entries if e != 0)

    @property
    def order(self) -> int:
        return len(self.symbol_set)

    def positions_of(self, symbol: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, e in enumerate(self.entries) if e == symbol)

    def occurrence_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for e in self.entries:
            if e != 0:
                counts[e] = counts.get(e, 0) + 1
        return counts

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.entries)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"({self.to_text()})"


def parse_sequence(text: str) -> SkolemTypeSequence:
    """Parse the comma-separated entry format, e.g. ``"3,1,1,3,2,0,2"``."""
    text = text.strip()
    if not text:
        return SkolemTypeSequence(())
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad sequence text {text!r}") from exc
    return SkolemTypeSequence(entries)


class PairSet:
    """Symbol -> ordered (left, right) position pairs with right - left = symbol."""

    def __init__(self, pairs: dict[int, list[Pair]], length: int):
        self._pairs = {sym: tuple(sorted(prs)) for sym, prs in sorted(pairs.items())}
        self.length = length

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self._pairs)

    def pairs_for(self, symbol: int) -> tuple[Pair, ...]:
        return self._pairs[symbol]

    def items(self):
        return self._pairs.items()

    def single(self, symbol: int) -> Pair:
        prs = self._pairs[symbol]
        if len(prs) != 1:
            raise UnmatchedSymbol(f"symbol {symbol} has {len(prs)} pairs, expected 1")
        return prs[0]

    def to_entries(self) -> SkolemTypeSequence:
        """Rebuild the sequence; uncovered positions become hooks (0)."""
        return _seq_from_pairs(self._pairs, self.length)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairSet)
            and self._pairs == other._pairs
            and self.length == other.length
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{s}:{list(p)}" for s, p in self._pairs.items())
        return f"PairSet({inner}; length={self.length})"


def pairs_of(seq: SkolemTypeSequence) -> PairSet:
    """Greedy left-to-right pairing of each symbol's occurrences.

    Every table construction in this package yields sequences for which the
    greedy pairing is the unique valid one; anything else is rejected.
    """
    pairs: dict[int, list[Pair]] = {}
    for sym in sorted(seq.symbol_set):
        positions = list(seq.positions_of(sym))
        matched: list[Pair] = []
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


# ---------------------------------------------------------------------------
# Sequence kinds and validation
# ---------------------------------------------------------------------------

KNOWN_TAGS = frozenset(
    {
        "skolem",
        "hooked-skolem",
        "near-skolem",
        "hooked-near-skolem",
        "langford",
        "hooked-langford",
        "skolem-type",
        "two-fold-skolem",
        "two-fold-langford",
        "two-fold-skolem-type",
    }
)

_DEFECT_TAGS = frozenset(
    {"near-skolem", "hooked-near-skolem", "langford", "hooked-langford", "two-fold-langford"}
)


@dataclass(frozen=True)
class SequenceKind:
    """A named sequence family, with its defect where the family has one.

    ``defect`` is the omitted symbol for near-Skolem kinds and the smallest
    symbol for Langford kinds; the two meanings never co-occur.
    """

    tag: str
    defect: int | None = None
    symbols: frozenset[int] | None = None  # only for the *-type kinds

    def __post_init__(self) -> None:
        if self.tag not in KNOWN_TAGS:
            raise UnknownKind(f"unknown sequence kind {self.tag!r}")
        if self.tag in _DEFECT_TAGS:
            if self.defect is None or self.defect < 1:
                raise ValueError(f"kind {self.tag!r} needs a positive defect")
        elif self.defect is not None:
            raise ValueError(f"kind {self.tag!r} takes no defect")
        if self.symbols is not None and self.tag not in (
            "skolem-type",
            "two-fold-skolem-type",
        ):
            raise ValueError("explicit symbol sets only apply to the *-type kinds")

    @property
    def fold(self) -> int:
        return 2 if self.tag.startswith("two-fold") else 1

    @property
    def hooked(self) -> bool:
        return self.tag.startswith("hooked")

    def expected_symbols(self, order: int) -> frozenset[int] | None:
        """Symbol set this kind prescribes for a sequence of the given order."""
        if self.tag in ("skolem", "hooked-skolem", "two-fold-skolem"):
            return frozenset(range(1, order + 1))
        if self.tag in ("near-skolem", "hooked-near-skolem"):
            n = order + 1  # nominal order counts the omitted symbol
            if not 1 <= self.defect <= n:
                return frozenset()
            return frozenset(range(1, n + 1)) - {self.defect}
        if self.tag in ("langford", "hooked-langford", "two-fold-langford"):
            return frozenset(range(self.defect, self.defect + order))
        return self.symbols  # *-type kinds; None accepts any H


@dataclass(frozen=True)
class SequenceReport:
    """Validation outcome; ``violations`` pinpoints every failure."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate(
    seq: SkolemTypeSequence, kind: SequenceKind, fragment: bool = False
) -> SequenceReport:
    """Check all structural invariants of ``seq`` against ``kind``.

    ``fragment`` relaxes the fold: a symbol may then own fewer pairs than the
    kind's fold (used for trimmed sequences awaiting their closing pair).
    """
    violations: list[str] = []
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

    counts = seq.occurrence_counts()
    for sym, cnt in sorted(counts.items()):
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
        pairs_of(seq)
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

    return SequenceReport(ok=not violations, violations=tuple(violations))


def _ensure_valid(
    seq: SkolemTypeSequence, kind: SequenceKind, fragment: bool = False
) -> SkolemTypeSequence:
    # Every generator routes its output through here so a table typo can
    # never propagate into a labelling.
    report = validate(seq, kind, fragment=fragment)
    if not report.ok:
        raise InvalidSequence(f"generated sequence invalid: {report.violations}")
    return seq


# ---------------------------------------------------------------------------
# Pair-table plumbing
# ---------------------------------------------------------------------------


def _seq_from_pairs(pair_map: dict[int, list[Pair]], length: int) -> SkolemTypeSequence:
    entries = [0] * length
    for sym, prs in pair_map.items():
        for a, b in prs:
            if b - a != sym:
                raise InvalidSequence(f"pair ({a},{b}) not at distance {sym}")
            for pos in (a, b):
                if not 1 <= pos <= length:
                    raise InvalidSequence(f"position {pos} outside [1,{length}]")
                if entries[pos - 1] != 0:
                    raise InvalidSequence(f"position {pos} assigned twice")
                entries[pos - 1] = sym
    return SkolemTypeSequence(tuple(entries))


class _PairBuilder:
    def __init__(self) -> None:
        self.pairs: dict[int, list[Pair]] = {}

    def add(self, sym: int, a: int, b: int) -> None:
        self.pairs.setdefault(sym, []).append((a, b))

    def build(self, length: int) -> SkolemTypeSequence:
        return _seq_from_pairs(self.pairs, length)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_SKOLEM_FIXTURES = {
    1: (1, 1),
    4: (4, 2, 3, 2, 4, 3, 1, 1),
    5: (5, 2, 4, 2, 3, 5, 4, 3, 1, 1),
}

# The order-6 fixture deliberately carries symbol 2 on positions (11, 13),
# straddling the hook: triangle labellings built from it then contain the
# (0, m-1, m+1) triangle that the square-block extension replaces.
_HOOKED_FIXTURES = {
    2: (1, 1, 2, 0, 2),
    3: (3, 1, 1, 3, 2, 0, 2),
    6: (4, 5, 3, 6, 4, 3, 5, 1, 1, 6, 2, 0, 2),
}


def gen_skolem(n: int) -> SkolemTypeSequence:
    """Skolem sequence of order n; exists exactly for n = 0, 1 (mod 4)."""
    if n < 1:
        raise OutOfRange(f"order must be >= 1, got {n}")
    if n % 4 in (2, 3):
        raise NoSuchSequence(f"no Skolem sequence of order {n} (n = 2,3 mod 4)")
    if n in _SKOLEM_FIXTURES:
        seq = SkolemTypeSequence(_SKOLEM_FIXTURES[n])
    elif n % 4 == 0:
        seq = _skolem_0mod4(n // 4)
    else:
        seq = _skolem_1mod4(n // 4)
    return _ensure_valid(seq, SequenceKind("skolem"))


def _skolem_0mod4(m: int) -> SkolemTypeSequence:
    # closed-form rows for order 4m; the rows collide at m = 1, hence m >= 2
    t = _PairBuilder()
    for r in range(2 * m):
        t.add(2 * r + 2, 2 * m - r, 2 * m + 2 + r)
    t.add(1, 7 * m, 7 * m + 1)
    t.add(4 * m - 1, 2 * m + 1, 6 * m)
    for r in range(m - 1):
        t.add(2 * m + 2 * r + 1, 5 * m + 1 - r, 7 * m + r + 2)
    t.add(2 * m - 1, 4 * m + 2, 6 * m + 1)
    for r in range(m - 2):
        t.add(2 * m - 3 - 2 * r, 5 * m + 2 + r, 7 * m - 1 - r)
    return t.build(8 * m)


def _skolem_1mod4(m: int) -> SkolemTypeSequence:
    t = _PairBuilder()
    for r in range(1, 2 * m + 1):
        t.add(2 * r, 2 * m + 1 - r, 2 * m + 1 + r)
    t.add(4 * m + 1, 2 * m + 1, 6 * m + 2)
    for r in range(1, m + 1):
        t.add(2 * m - 1 + 2 * r, 5 * m + 2 - r, 7 * m + 1 + r)
    t.add(2 * m - 1, 6 * m + 3, 8 * m + 2)
    t.add(1, 5 * m + 2, 5 * m + 3)
    for r in range(1, m - 1):
        t.add(2 * r + 1, 6 * m + 2 - r, 6 * m + 3 + r)
    return t.build(8 * m + 2)


def gen_hooked_skolem(n: int) -> SkolemTypeSequence:
    """Hooked Skolem sequence of order n (hook at position 2n); n = 2, 3 (mod 4)."""
    if n < 2:
        raise NoSuchSequence(f"no hooked Skolem sequence of order {n}")
    if n % 4 in (0, 1):
        raise NoSuchSequence(f"no hooked Skolem sequence of order {n} (n = 0,1 mod 4)")
    if n in _HOOKED_FIXTURES:
        seq = SkolemTypeSequence(_HOOKED_FIXTURES[n])
    elif n % 4 == 2:
        seq = _hooked_2mod4((n - 2) // 4)
    else:
        seq = _hooked_3mod4((n - 3) // 4)
    return _ensure_valid(seq, SequenceKind("hooked-skolem"))


def _hooked_2mod4(m: int) -> SkolemTypeSequence:
    t = _PairBuilder()
    for r in range(1, 2 * m + 2):
        t.add(2 * r, 2 * m + 2 - r, 2 * m + 2 + r)
    t.add(1, 7 * m + 4, 7 * m + 5)
    for r in range(1, m + 1):
        t.add(1 + 2 * r, 6 * m + 2 - r, 6 * m + 3 + r)
    t.add(2 * m + 3, 6 * m + 2, 8 * m + 5)
    for r in range(1, m - 1):
        t.add(2 * m + 3 + 2 * r, 5 * m + 2 - r, 7 * m + 5 + r)
    t.add(4 * m + 1, 2 * m + 2, 6 * m + 3)
    return t.build(8 * m + 5)


def _hooked_3mod4(m: int) -> SkolemTypeSequence:
    t = _PairBuilder()
    for r in range(1, 2 * m + 2):
        t.add(2 * r, 2 * m + 2 - r, 2 * m + 2 + r)
    t.add(1, 5 * m + 4, 5 * m + 5)
    for r in range(1, m):
        t.add(1 + 2 * r, 6 * m + 5 - r, 6 * m + 6 + r)
    t.add(2 * m + 1, 6 * m + 6, 8 * m + 7)
    for r in range(1, m + 1):
        t.add(2 * m + 1 + 2 * r, 5 * m + 4 - r, 7 * m + 5 + r)
    t.add(4 * m + 3, 2 * m + 2, 6 * m + 5)
    return t.build(8 * m + 7)


def gen_langford_doubledefect(d: int) -> SkolemTypeSequence:
    """Langford sequence with defect d and order 2d-1 (symbols [d, 3d-2])."""
    if d < 1:
        raise OutOfRange(f"defect must be >= 1, got {d}")
    t = _PairBuilder()
    for r in range(d):
        t.add(d + 2 * r, d - r, 2 * d + r)
    for r in range(d - 1):  # second row vanishes when d = 1
        t.add(d + 2 * r + 1, 2 * d - 1 - r, 3 * d + r)
    seq = t.build(2 * (2 * d - 1))
    return _ensure_valid(seq, SequenceKind("langford", defect=d))


def gen_near_skolem_topdefect(n: int) -> SkolemTypeSequence:
    """Near-Skolem sequence of odd order n omitting n-1; hooked iff n = 1 (mod 4).

    The output has no right endpoints in positions [1, (n-1)/2 + 2], which is
    what the five-tuple construction for 5-cycle vanes relies on.
    """
    if n % 2 == 0 or n < 11:
        raise UnsupportedOrder(f"no top-defect construction for order {n}")
    if n % 4 == 1:
        m = n // 4
        if m < 3:
            raise UnsupportedOrder(f"no top-defect construction for order {n}")
        seq = _near_hooked_1mod4(m)
        kind = SequenceKind("hooked-near-skolem", defect=n - 1)
    else:
        m = n // 4
        if m < 2:
            raise UnsupportedOrder(f"no top-defect construction for order {n}")
        seq = _near_plain_3mod4(m)
        kind = SequenceKind("near-skolem", defect=n - 1)
    return _ensure_valid(seq, kind)


def _near_hooked_1mod4(m: int) -> SkolemTypeSequence:
    # order 4m+1, defect 4m, hook at 8m; valid for m >= 3
    t = _PairBuilder()
    for r in range(1, 2 * m + 1):
        t.add(2 * r + 1, 2 * m + 1 - r, 2 * m + 2 + r)
    t.add(4 * m - 4, 2 * m + 2, 6 * m - 2)
    t.add(4 * m - 2, 2 * m + 1, 6 * m - 1)
    for r in range(m - 2):
        t.add(2 * m + 2 * r, 5 * m - r, 7 * m + r)
    for r in range(m - 3):
        t.add(2 * r + 4, 6 * m - r - 3, 6 * m + r + 1)
    t.add(2 * m - 2, 6 * m, 8 * m - 2)
    t.add(1, 7 * m - 2, 7 * m - 1)
    t.add(2, 8 * m - 1, 8 * m + 1)
    return t.build(8 * m + 1)


def _near_plain_3mod4(m: int) -> SkolemTypeSequence:
    # order 4m+3, defect 4m+2, no hook; valid for m >= 2
    t = _PairBuilder()
    for r in range(1, 2 * m + 2):
        t.add(2 * r + 1, 2 * m + 2 - r, 2 * m + 3 + r)
    t.add(4 * m, 2 * m + 2, 6 * m + 2)
    t.add(4 * m - 2, 2 * m + 3, 6 * m + 1)
    for r in range(m - 2):
        t.add(2 * m + 2 + 2 * r, 5 * m + 2 - r, 7 * m + 4 + r)
    for r in range(m - 2):
        t.add(2 * r + 4, 6 * m - r, 6 * m + 4 + r)
    t.add(1, 7 * m + 2, 7 * m + 3)
    t.add(2 * m, 6 * m + 3, 8 * m + 3)
    t.add(2, 8 * m + 2, 8 * m + 4)
    return t.build(8 * m + 4)


def gen_twofold_skolem(n: int) -> SkolemTypeSequence:
    """Two-fold Skolem sequence of order n (exists for every n >= 1)."""
    if n < 1:
        raise OutOfRange(f"order must be >= 1, got {n}")
    if n == 1:
        seq = SkolemTypeSequence((1, 1, 1, 1))
    elif n % 2 == 1:
        seq = _twofold_odd(n)
    else:
        seq = _twofold_even(n)
    return _ensure_valid(seq, SequenceKind("two-fold-skolem"))


def _twofold_odd(n: int) -> SkolemTypeSequence:
    t = _PairBuilder()
    for r in range((n - 1) // 2 + 1):
        t.add(2 * r + 1, (n + 1) // 2 - r, (n + 3) // 2 + r)
        t.add(2 * r + 1, (3 * n + 3) // 2 - r, (3 * n + 5) // 2 + r)
    t.add(n - 1, 2 * n + 3, 3 * n + 2)
    t.add(n - 1, (5 * n + 5) // 2, (7 * n + 3) // 2)
    for r in range((n - 5) // 2 + 1):
        t.add(2 * r + 2, (5 * n + 3) // 2 - r, (5 * n + 3) // 2 + r + 2)
        t.add(2 * r + 2, (7 * n + 1) // 2 - r, (7 * n + 1) // 2 + r + 2)
    return t.build(4 * n)


def _twofold_even(n: int) -> SkolemTypeSequence:
    t = _PairBuilder()
    for r in range((n - 2) // 2 + 1):
        t.add(2 * r + 1, n // 2 - r, (n + 2) // 2 + r)
        t.add(2 * r + 1, 3 * n // 2 - r, (3 * n + 2) // 2 + r)
    t.add(n, 2 * n + 1, 3 * n + 1)
    t.add(n, (5 * n + 2) // 2, (7 * n + 2) // 2)
    for r in range((n - 4) // 2 + 1):
        t.add(2 * r + 2, 5 * n // 2 - r, 5 * n // 2 + r + 2)
        t.add(2 * r + 2, 7 * n // 2 - r, 7 * n // 2 + r + 2)
    return t.build(4 * n)


def gen_power4(x: int, trimmed: bool = False) -> SkolemTypeSequence:
    """Two-fold sequence over {1} and multiples of 4 up to 4(x-1).

    ``trimmed`` drops the trailing (1,1) pair, leaving symbol 1 half-paired;
    the trimmed index 0 is the bare pair (1,1).  Trimmed outputs are fragments
    and only exist to be completed by a later (1,1) inside a concatenation.
    """
    if trimmed and x == 0:
        return SkolemTypeSequence((1, 1))
    if x < 1:
        raise OutOfRange(f"index must be >= {0 if trimmed else 1}, got {x}")
    t = _PairBuilder()
    t.add(1, 2 * x - 1, 2 * x)
    t.add(1, 4 * x - 1, 4 * x)
    for r in range(1, x):
        t.add(4 * r, 2 * x - 2 * r - 1, 2 * x + 2 * r - 1)
        t.add(4 * r, 2 * x - 2 * r, 2 * x + 2 * r)
    seq = t.build(4 * x)
    kind = SequenceKind("two-fold-skolem-type", symbols=seq.symbol_set)
    _ensure_valid(seq, kind)
    if trimmed:
        seq = SkolemTypeSequence(seq.entries[:-2])
        _ensure_valid(seq, SequenceKind("two-fold-skolem-type", symbols=seq.symbol_set), fragment=True)
    return seq


_SMALL_TWOFOLD = (
    (),
    (2, 2, 2, 2),
    (2, 3, 2, 3, 3, 2, 3, 2),
    (2, 2, 2, 2, 5, 3, 5, 3, 3, 5, 3, 5),
    (6, 6, 2, 2, 2, 2, 6, 6, 5, 3, 5, 3, 3, 5, 3, 5),
)


def fixed_small_twofold(y: int) -> SkolemTypeSequence:
    """The five catalogued small two-fold sequences of orders 0..4."""
    if not 0 <= y <= 4:
        raise OutOfRange(f"index must be in [0,4], got {y}")
    seq = SkolemTypeSequence(_SMALL_TWOFOLD[y])
    return _ensure_valid(seq, SequenceKind("two-fold-skolem-type", symbols=seq.symbol_set))


def gen_twofold_langford(k: int) -> SkolemTypeSequence:
    """Two-fold Langford sequence with defect 6k-1 and order 4k-1."""
    if k < 1:
        raise OutOfRange(f"parameter must be >= 1, got {k}")
    t = _PairBuilder()
    for r in range(1, 2 * k):
        t.add(10 * k - 2 - 2 * r, r, 10 * k - 2 - r)
        t.add(10 * k - 2 - 2 * r, 2 * k - 1 + r, 12 * k - 3 - r)
    for r in range(1, 2 * k + 1):
        t.add(10 * k - 1 - 2 * r, 4 * k - 2 + r, 14 * k - 3 - r)
        t.add(10 * k - 1 - 2 * r, 6 * k - 2 + r, 16 * k - 3 - r)
    seq = t.build(4 * (4 * k - 1))
    return _ensure_valid(seq, SequenceKind("two-fold-langford", defect=6 * k - 1))


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def concat(seqs) -> SkolemTypeSequence:
    """Concatenate hook-free sequences; pair positions shift by prefix lengths."""
    entries: list[int] = []
    for seq in seqs:
        if seq.is_hooked:
            raise HookedOperand("cannot concatenate a hooked sequence")
        entries.extend(seq.entries)
    return SkolemTypeSequence(tuple(entries))


def double(seq: SkolemTypeSequence) -> SkolemTypeSequence:
    """Concatenate a hook-free sequence with itself, doubling every symbol's fold."""
    if seq.is_hooked:
        raise HookedOperand("cannot double a hooked sequence")
    return concat([seq, seq])


# ---------------------------------------------------------------------------
# Existence predicate
# ---------------------------------------------------------------------------


def exists(kind, order: int | None = None, defect: int | None = None, fold: int | None = None) -> bool:
    """Exact existence test for the classical sequence families.

    ``kind`` may be a SequenceKind or a tag string.  ``fold`` only applies to
    the m-fold tags.  Two-fold Langford sequences have no published
    characterisation, so that tag is rejected.
    """
    if isinstance(kind, SequenceKind):
        tag = kind.tag
        defect = kind.defect if kind.defect is not None else defect
    else:
        tag = kind
    if order is None or order < 1:
        raise ValueError("order must be a positive integer")
    n = order
    r = n % 4

    if tag == "skolem":
        return r in (0, 1)
    if tag == "hooked-skolem":
        return r in (2, 3)
    if tag == "langford":
        d = _require_defect(tag, defect)
        return n >= 2 * d - 1 and (
            (r in (0, 1) and d % 2 == 1) or (r in (0, 3) and d % 2 == 0)
        )
    if tag == "hooked-langford":
        d = _require_defect(tag, defect)
        return n * (n - 2 * d + 1) + 2 >= 0 and (
            (r in (2, 3) and d % 2 == 1) or (r in (1, 2) and d % 2 == 0)
        )
    if tag == "near-skolem":
        m = _require_defect(tag, defect)
        if m > n:
            raise ValueError(f"near-Skolem defect {m} exceeds order {n}")
        return (r in (0, 1) and m % 2 == 1) or (r in (2, 3) and m % 2 == 0)
    if tag == "hooked-near-skolem":
        m = _require_defect(tag, defect)
        if m > n:
            raise ValueError(f"near-Skolem defect {m} exceeds order {n}")
        return (r in (0, 1) and m % 2 == 0) or (r in (2, 3) and m % 2 == 1)
    if tag in ("two-fold-skolem", "m-fold-skolem"):
        m = 2 if tag == "two-fold-skolem" else (fold or 0)
        if m < 1:
            raise ValueError("m-fold kinds need fold >= 1")
        return r in (0, 1) or m % 2 == 0
    if tag == "hooked-m-fold-skolem":
        m = fold or 0
        if m < 1:
            raise ValueError("m-fold kinds need fold >= 1")
        return r in (2, 3) and m % 2 == 1
    raise UnknownKind(f"no existence rule for kind {tag!r}")


def _require_defect(tag: str, defect: int | None) -> int:
    if defect is None or defect < 1:
        raise ValueError(f"kind {tag!r} needs a positive defect")
    return defect


# ---------------------------------------------------------------------------
# General Langford sequences (searched, not tabulated)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def langford_sequence(d: int, l: int) -> SkolemTypeSequence:
    """A Langford sequence with defect d and order l.

    Orders 2d-1 come from the closed-form table.  Larger admissible orders are
    found by ``_search_pairs``; the first solution is cached.
    """
    if not exists("langford", order=l, defect=d):
        raise NoSuchSequence(f"no Langford sequence with defect {d} and order {l}")
    if l == 2 * d - 1:
        return gen_langford_doubledefect(d)
    if l >= 8 * d - 4:
        # Very long orders split into a closed-form head and a searched tail.
        tail_d, tail_l = 3 * d - 1, l - (2 * d - 1)
        try:
            if exists("langford", order=tail_l, defect=tail_d):
                head = gen_langford_doubledefect(d)
                tail = langford_sequence(tail_d, tail_l)
                seq = concat([head, tail])
                return _ensure_valid(seq, SequenceKind("langford", defect=d))
        except NoSuchSequence:
            pass
    entries = _search_pairs(range(d, d + l), 2 * l)
    if entries is None:
        raise NoSuchSequence(f"search found no Langford sequence d={d}, l={l}")
    seq = SkolemTypeSequence(entries)
    return _ensure_valid(seq, SequenceKind("langford", defect=d))


# Placements one _search_pairs call may make before it gives up.  The largest
# search the benchmark and the tests run needs about 220,000.
_SEARCH_NODE_BUDGET = 1_000_000


def _search_pairs(symbols, length: int) -> tuple[int, ...] | None:
    """Place one pair of every symbol so that the pairs tile positions 1..length.

    A deterministic backtracking search: it branches on the most constrained
    empty cell, and tries the largest symbol first, then the leftmost position.
    Returns the entries of the first tiling found, or None when none exists.
    Raises SearchBudgetExhausted after ``_SEARCH_NODE_BUDGET`` placements.
    """
    entries = [0] * length
    remaining = set(symbols)
    nodes = 0

    # Branch on the most constrained empty cell; every unplaced symbol either
    # covers it or the branch dies, which tames the tight high-defect cases.
    def fill() -> bool:
        nonlocal nodes
        if not remaining:
            return True
        best_cell = -1
        best_opts: list[tuple[int, int]] = []
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
            if nodes > _SEARCH_NODE_BUDGET:
                raise SearchBudgetExhausted(
                    f"pair search on {length} cells passed {_SEARCH_NODE_BUDGET} placements"
                )
            entries[a - 1] = entries[a + sym - 1] = sym
            remaining.remove(sym)
            if fill():
                return True
            remaining.add(sym)
            entries[a - 1] = entries[a + sym - 1] = 0
        return False

    return tuple(entries) if fill() else None
