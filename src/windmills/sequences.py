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

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, lt, ne, sub
from typing import NamedTuple

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


class Occurrences(NamedTuple):
    """Where each symbol of a sequence first and last occurs.

    ``symbols`` is in increasing order and ``firsts``/``lasts`` follow it.
    ``fold`` is 1 when every symbol occurs twice at distance itself, so its
    one pair is (first, last); it is 2 when every symbol occurs four times
    and pairs greedily, so its pairs are (first, first+s) and (last-s, last).
    Any other sequence has fold 0; ``_greedy_pairs`` names what fails.
    """

    fold: int
    symbols: tuple[int, ...]
    firsts: tuple[int, ...]
    lasts: tuple[int, ...]
    hooks: int
    first_hook: int | None


@dataclass(frozen=True)
class SkolemTypeSequence:
    """A positional sequence over a symbol set; 0 encodes a hook (empty cell)."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        # A copy, so a caller's list cannot change the value and an iterator
        # is read once; the error names an entry, not the container.
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        # Exact ints need no per-entry check; the loop runs only for other types.
        if set(map(type, entries)) <= {int} and min(entries, default=0) >= 0:
            return
        for e in entries:
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
        return 0 in self.entries

    @property
    def symbol_set(self) -> frozenset[int]:
        return frozenset(e for e in self.entries if e != 0)

    @property
    def order(self) -> int:
        return len(self.symbol_set)

    def to_text(self) -> str:
        return ",".join(str(e) for e in self.entries)

    @cached_property
    def occurrences(self) -> Occurrences:
        # Computed once per instance, in C-level passes: a generator's
        # validation and the vane builders then read the same index.  Cached
        # properties live in the instance dict, outside the dataclass fields,
        # so equality and hashing ignore them.  Four occurrences
        # p1 < p2 < p3 < p4 of s pair greedily exactly when p1+s and p4-s are
        # the two middle ones: p1 pairs with p1+s, the other two with each other.
        entries = self.entries
        n = len(entries)
        counts = Counter(entries)
        hooks = counts.pop(0, 0)
        first = dict(zip(reversed(entries), range(n, 0, -1)))
        last = dict(zip(entries, range(1, n + 1)))
        symbols = tuple(sorted(counts))
        firsts = tuple(map(first.__getitem__, symbols))
        lasts = tuple(map(last.__getitem__, symbols))
        sizes = set(counts.values())
        fold = 0
        if sizes == {2}:
            fold = 1 if tuple(map(sub, lasts, firsts)) == symbols else 0
        elif sizes == {4}:
            mids = tuple(map(add, firsts, symbols))
            highs = tuple(map(sub, lasts, symbols))
            at = (0, *entries).__getitem__
            if (
                all(map(lt, mids, lasts))
                and tuple(map(at, mids)) == symbols
                and tuple(map(at, highs)) == symbols
                and all(map(ne, mids, highs))
            ):
                fold = 2
        return Occurrences(fold, symbols, firsts, lasts, hooks, first.get(0))

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


def _greedy_pairs(seq: SkolemTypeSequence) -> dict[int, list[Pair]]:
    """Greedy left-to-right pairing of each symbol's occurrences, in symbol order.

    Every table construction in this package yields sequences for which the
    greedy pairing is the unique valid one; anything else is rejected.  Only
    failure paths and fold-0 fragments walk it: every other pairing is read
    off ``seq.occurrences``.
    """
    # One sweep collects every symbol's positions; then, symbol by symbol in
    # increasing order, the leftmost unpaired occurrence pairs with the cell
    # ``sym`` to its right, which must hold ``sym`` and still be unpaired.
    entries = seq.entries
    positions: dict[int, list[int]] = {}
    for pos, sym in enumerate(entries, 1):
        if sym:
            positions.setdefault(sym, []).append(pos)
    rights: set[int] = set()
    pairs: dict[int, list[Pair]] = {}
    for sym in sorted(positions):
        matched: list[Pair] = []
        for left in positions[sym]:
            if left in rights:
                continue
            right = left + sym
            if right > len(entries) or entries[right - 1] != sym or right in rights:
                raise UnmatchedSymbol(
                    f"symbol {sym}: no partner at distance {sym} from position {left}"
                )
            rights.add(right)
            matched.append((left, right))
        pairs[sym] = matched
    return pairs


# ---------------------------------------------------------------------------
# Sequence kinds and validation
# ---------------------------------------------------------------------------

# Each kind's residues of the order mod 4 at which a sequence exists: one set
# for an odd or absent defect, one for an even defect (a kind without a defect
# has only the first).  None marks a kind with no existence rule.
_RESIDUES = {
    "skolem": ({0, 1},),
    "hooked-skolem": ({2, 3},),
    "near-skolem": ({0, 1}, {2, 3}),
    "hooked-near-skolem": ({2, 3}, {0, 1}),
    "langford": ({0, 1}, {0, 3}),
    "hooked-langford": ({2, 3}, {1, 2}),
    "skolem-type": None,
    "two-fold-skolem": ({0, 1, 2, 3},),
    "two-fold-langford": None,
    "two-fold-skolem-type": None,
}
KNOWN_TAGS = tuple(_RESIDUES)


def _takes_defect(tag: str) -> bool:
    """The near-Skolem kinds omit their defect; the Langford kinds start at it."""
    return "near" in tag or "langford" in tag


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
        if _takes_defect(self.tag):
            if self.defect is None or self.defect < 1:
                raise ValueError(f"kind {self.tag!r} needs a positive defect")
        elif self.defect is not None:
            raise ValueError(f"kind {self.tag!r} takes no defect")
        if self.symbols is not None and not self.tag.endswith("-type"):
            raise ValueError("explicit symbol sets only apply to the *-type kinds")

    @property
    def fold(self) -> int:
        return 2 if self.tag.startswith("two-fold") else 1

    @property
    def hooked(self) -> bool:
        return self.tag.startswith("hooked")

    @property
    def near(self) -> bool:
        """The nominal order counts the omitted defect (the near-Skolem kinds)."""
        return "near" in self.tag

    def expected_symbols(self, order: int) -> frozenset[int] | None:
        """Symbol set this kind prescribes for a sequence of the given order."""
        if self.tag.endswith("-type"):
            return self.symbols  # None accepts any H
        if self.near:
            n = order + 1
            if not 1 <= self.defect <= n:
                return frozenset()
            return frozenset(range(1, n + 1)) - {self.defect}
        if self.defect is None:
            return frozenset(range(1, order + 1))
        return frozenset(range(self.defect, self.defect + order))  # the Langford kinds


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
    The hooks, the symbols and the fold are read off ``seq.occurrences``.
    An index fold equal to the kind's means every symbol occurs 2*fold times
    and pairs, which also fixes the length, so the counts and the length are
    checked only when the folds differ, and the greedy pairing is walked
    only when the index has no fold.
    """
    violations: list[str] = []
    occ = seq.occurrences
    fold = kind.fold
    order = len(occ.symbols)

    if kind.hooked:
        expected_hook = 2 * fold * order
        if occ.hooks != 1 or occ.first_hook != expected_hook:
            violations.append(
                f"hook must sit exactly at position {expected_hook}, found {sorted(seq.hook_positions)}"
            )
    elif occ.hooks:
        violations.append(f"unexpected hooks at positions {sorted(seq.hook_positions)}")

    if occ.fold != fold:
        for sym, cnt in sorted(Counter(filter(None, seq.entries)).items()):
            if fragment:
                if cnt % 2 != 0 or not 2 <= cnt <= 2 * fold:
                    violations.append(f"symbol {sym} occurs {cnt} times")
            elif cnt != 2 * fold:
                violations.append(f"symbol {sym} occurs {cnt} times, expected {2 * fold}")

        if not fragment:
            expected_len = 2 * fold * order + occ.hooks
            if seq.length != expected_len:
                violations.append(f"length {seq.length}, expected {expected_len}")

        if not occ.fold:
            try:
                _greedy_pairs(seq)
            except UnmatchedSymbol as exc:
                violations.append(str(exc))

    expected = kind.expected_symbols(order)
    symbols = frozenset(occ.symbols)
    if expected is not None and symbols != expected:
        extra = sorted(symbols - expected)
        missing = sorted(expected - symbols)
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
# Row tables
# ---------------------------------------------------------------------------


def _from_rows(length: int, rows) -> SkolemTypeSequence:
    """The sequence of ``length`` cells that holds the pairs of every row.

    A row ``(count, sym, dsym, left, dleft)`` holds ``count`` pairs: the i-th
    has symbol ``sym + i*dsym`` and left end ``left + i*dleft``, so its right
    ends start at ``left + sym`` and step by ``dleft + dsym``.  A row whose
    count is below 1 holds none, and a row of one pair may give zero steps.
    Each row is two slice writes of one shared run of symbols.  A row with a
    cell outside [1, length], or with more than one pair on a zero step,
    raises InvalidSequence, since its slice would wrap or grow the list;
    rows that overlap are left to ``_ensure_valid``, which every generator
    calls.
    """
    entries = [0] * (length + 1)  # cell i at index i; index 0 stays unused
    for row in rows:
        count, sym, dsym, left, dleft = row
        if count < 1:
            continue
        run = tuple(range(sym, sym + count * dsym, dsym)) if dsym else (sym,) * count
        for first, step in ((left, dleft), (left + sym, dleft + dsym)):
            last = first + (count - 1) * step
            if not (1 <= first <= length and 1 <= last <= length and (step or count == 1)):
                raise InvalidSequence(f"row {row} leaves cells [1,{length}] or repeats one")
            entries[first : last + (1 if step >= 0 else -1) : step or 1] = run
    return SkolemTypeSequence(entries[1:])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Distinct argument tuples each generator remembers; the least recently used
# is dropped first.  Neighbouring windmill cells share their sequences, and a
# sweep over t <= 100, s <= 120 gives no generator more than 120 keys.  A hit
# returns the validated sequence object a miss built, so its index and pairing
# are computed once however often it is asked for.  Errors are not remembered,
# and keys are typed, so ``8.0`` still fails as uncached.
_MEMO_SIZE = 128
_memoised = lru_cache(maxsize=_MEMO_SIZE, typed=True)


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


@_memoised
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
    return _from_rows(8 * m, (
        (2 * m, 2, 2, 2 * m, -1),
        (1, 1, 0, 7 * m, 0),
        (1, 4 * m - 1, 0, 2 * m + 1, 0),
        (m - 1, 2 * m + 1, 2, 5 * m + 1, -1),
        (1, 2 * m - 1, 0, 4 * m + 2, 0),
        (m - 2, 2 * m - 3, -2, 5 * m + 2, 1),
    ))


def _skolem_1mod4(m: int) -> SkolemTypeSequence:
    return _from_rows(8 * m + 2, (
        (2 * m, 2, 2, 2 * m, -1),
        (1, 4 * m + 1, 0, 2 * m + 1, 0),
        (m, 2 * m + 1, 2, 5 * m + 1, -1),
        (1, 2 * m - 1, 0, 6 * m + 3, 0),
        (1, 1, 0, 5 * m + 2, 0),
        (m - 2, 3, 2, 6 * m + 1, -1),
    ))


@_memoised
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
    return _from_rows(8 * m + 5, (
        (2 * m + 1, 2, 2, 2 * m + 1, -1),
        (1, 1, 0, 7 * m + 4, 0),
        (m, 3, 2, 6 * m + 1, -1),
        (1, 2 * m + 3, 0, 6 * m + 2, 0),
        (m - 2, 2 * m + 5, 2, 5 * m + 1, -1),
        (1, 4 * m + 1, 0, 2 * m + 2, 0),
    ))


def _hooked_3mod4(m: int) -> SkolemTypeSequence:
    return _from_rows(8 * m + 7, (
        (2 * m + 1, 2, 2, 2 * m + 1, -1),
        (1, 1, 0, 5 * m + 4, 0),
        (m - 1, 3, 2, 6 * m + 4, -1),
        (1, 2 * m + 1, 0, 6 * m + 6, 0),
        (m, 2 * m + 3, 2, 5 * m + 3, -1),
        (1, 4 * m + 3, 0, 2 * m + 2, 0),
    ))


@_memoised
def gen_langford_doubledefect(d: int) -> SkolemTypeSequence:
    """Langford sequence with defect d and order 2d-1 (symbols [d, 3d-2])."""
    if d < 1:
        raise OutOfRange(f"defect must be >= 1, got {d}")
    seq = _from_rows(2 * (2 * d - 1), (
        (d, d, 2, d, -1),
        (d - 1, d + 1, 2, 2 * d - 1, -1),  # vanishes when d = 1
    ))
    return _ensure_valid(seq, SequenceKind("langford", defect=d))


@_memoised
def gen_near_skolem_topdefect(n: int) -> SkolemTypeSequence:
    """Near-Skolem sequence of odd order n omitting n-1; hooked iff n = 1 (mod 4).

    The output has no right endpoints in positions [1, (n-1)/2 + 2], which is
    what the five-tuple construction for 5-cycle vanes relies on.
    """
    if n % 2 == 0 or n < 11:
        raise UnsupportedOrder(f"no top-defect construction for order {n}")
    m = n // 4  # at least 3 for n = 1 (mod 4) and 2 for n = 3 (mod 4), as n >= 11
    if n % 4 == 1:
        seq = _near_hooked_1mod4(m)
        kind = SequenceKind("hooked-near-skolem", defect=n - 1)
    else:
        seq = _near_plain_3mod4(m)
        kind = SequenceKind("near-skolem", defect=n - 1)
    return _ensure_valid(seq, kind)


def _near_hooked_1mod4(m: int) -> SkolemTypeSequence:
    # order 4m+1, defect 4m, hook at 8m; valid for m >= 3
    return _from_rows(8 * m + 1, (
        (2 * m, 3, 2, 2 * m, -1),
        (1, 4 * m - 4, 0, 2 * m + 2, 0),
        (1, 4 * m - 2, 0, 2 * m + 1, 0),
        (m - 2, 2 * m, 2, 5 * m, -1),
        (m - 3, 4, 2, 6 * m - 3, -1),
        (1, 2 * m - 2, 0, 6 * m, 0),
        (1, 1, 0, 7 * m - 2, 0),
        (1, 2, 0, 8 * m - 1, 0),
    ))


def _near_plain_3mod4(m: int) -> SkolemTypeSequence:
    # order 4m+3, defect 4m+2, no hook; valid for m >= 2
    return _from_rows(8 * m + 4, (
        (2 * m + 1, 3, 2, 2 * m + 1, -1),
        (1, 4 * m, 0, 2 * m + 2, 0),
        (1, 4 * m - 2, 0, 2 * m + 3, 0),
        (m - 2, 2 * m + 2, 2, 5 * m + 2, -1),
        (m - 2, 4, 2, 6 * m, -1),
        (1, 1, 0, 7 * m + 2, 0),
        (1, 2 * m, 0, 6 * m + 3, 0),
        (1, 2, 0, 8 * m + 2, 0),
    ))


@_memoised
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
    return _from_rows(4 * n, (
        ((n + 1) // 2, 1, 2, (n + 1) // 2, -1),
        ((n + 1) // 2, 1, 2, (3 * n + 3) // 2, -1),
        (1, n - 1, 0, 2 * n + 3, 0),
        (1, n - 1, 0, (5 * n + 5) // 2, 0),
        ((n - 3) // 2, 2, 2, (5 * n + 3) // 2, -1),
        ((n - 3) // 2, 2, 2, (7 * n + 1) // 2, -1),
    ))


def _twofold_even(n: int) -> SkolemTypeSequence:
    return _from_rows(4 * n, (
        (n // 2, 1, 2, n // 2, -1),
        (n // 2, 1, 2, 3 * n // 2, -1),
        (1, n, 0, 2 * n + 1, 0),
        (1, n, 0, (5 * n + 2) // 2, 0),
        ((n - 2) // 2, 2, 2, 5 * n // 2, -1),
        ((n - 2) // 2, 2, 2, 7 * n // 2, -1),
    ))


@_memoised
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
    seq = _from_rows(4 * x, (
        (1, 1, 0, 2 * x - 1, 0),
        (1, 1, 0, 4 * x - 1, 0),
        (x - 1, 4, 4, 2 * x - 3, -2),
        (x - 1, 4, 4, 2 * x - 2, -2),
    ))
    seq = _ensure_valid(seq, SequenceKind("two-fold-skolem-type"))
    if trimmed:
        seq = SkolemTypeSequence(seq.entries[:-2])
        _ensure_valid(seq, SequenceKind("two-fold-skolem-type"), fragment=True)
    return seq


_SMALL_TWOFOLD = (
    (),
    (2, 2, 2, 2),
    (2, 3, 2, 3, 3, 2, 3, 2),
    (2, 2, 2, 2, 5, 3, 5, 3, 3, 5, 3, 5),
    (6, 6, 2, 2, 2, 2, 6, 6, 5, 3, 5, 3, 3, 5, 3, 5),
)


@_memoised
def fixed_small_twofold(y: int) -> SkolemTypeSequence:
    """The five catalogued small two-fold sequences of orders 0..4."""
    if not 0 <= y <= 4:
        raise OutOfRange(f"index must be in [0,4], got {y}")
    seq = SkolemTypeSequence(_SMALL_TWOFOLD[y])
    return _ensure_valid(seq, SequenceKind("two-fold-skolem-type"))


@_memoised
def gen_twofold_langford(k: int) -> SkolemTypeSequence:
    """Two-fold Langford sequence with defect 6k-1 and order 4k-1."""
    if k < 1:
        raise OutOfRange(f"parameter must be >= 1, got {k}")
    seq = _from_rows(4 * (4 * k - 1), (
        (2 * k - 1, 10 * k - 4, -2, 1, 1),
        (2 * k - 1, 10 * k - 4, -2, 2 * k, 1),
        (2 * k, 10 * k - 3, -2, 4 * k - 1, 1),
        (2 * k, 10 * k - 3, -2, 6 * k - 1, 1),
    ))
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
    return SkolemTypeSequence(entries)


def double(seq: SkolemTypeSequence) -> SkolemTypeSequence:
    """Concatenate a hook-free sequence with itself, doubling every symbol's fold."""
    if seq.is_hooked:
        raise HookedOperand("cannot double a hooked sequence")
    return concat([seq, seq])


# ---------------------------------------------------------------------------
# Existence predicate
# ---------------------------------------------------------------------------


def exists(kind, order: int | None = None, defect: int | None = None) -> bool:
    """Exact existence test for the classical sequence families.

    ``kind`` may be a SequenceKind or a tag string; the tag's row of
    ``_RESIDUES`` gives the residues.  Two-fold Langford sequences have no
    published characterisation, so that tag is rejected, as are the *-type
    tags and every unknown tag.
    """
    if isinstance(kind, SequenceKind):
        tag = kind.tag
        defect = kind.defect if kind.defect is not None else defect
    else:
        tag = kind
    if order is None or order < 1:
        raise ValueError("order must be a positive integer")
    n = order
    row = _RESIDUES[tag] if tag in KNOWN_TAGS else None  # an unhashable tag is unknown
    if row is None:
        raise UnknownKind(f"no existence rule for kind {tag!r}")
    even = False
    if _takes_defect(tag):
        if defect is None or defect < 1:
            raise ValueError(f"kind {tag!r} needs a positive defect")
        if "near" in tag and defect > n:
            raise ValueError(f"near-Skolem defect {defect} exceeds order {n}")
        if tag == "langford" and n < 2 * defect - 1:
            return False
        if tag == "hooked-langford" and n * (n - 2 * defect + 1) + 2 < 0:
            return False
        even = defect % 2 == 0
    return n % 4 in row[even]


# ---------------------------------------------------------------------------
# General Langford sequences (searched, not tabulated)
# ---------------------------------------------------------------------------


@_memoised
def langford_sequence(d: int, l: int) -> SkolemTypeSequence:
    """A Langford sequence with defect d and order l.

    Orders 2d-1 come from the closed-form table.  Larger admissible orders are
    found by ``_search_pairs``, a seeded restarted search, so the result
    depends on ``(d, l)`` only; it is memoised.  The search builds every
    admissible order for ``d <= 20, l <= 4d + 4``, but at orders just above
    ``2d - 1`` with larger ``d``, such as ``(26, 52)`` and ``(30, 60)``, it
    raises SearchBudgetExhausted.
    """
    if not exists("langford", order=l, defect=d):
        raise NoSuchSequence(f"no Langford sequence with defect {d} and order {l}")
    if l == 2 * d - 1:
        return gen_langford_doubledefect(d)
    if l >= 8 * d - 4:
        # Very long orders split into a closed-form head of order 2d-1 and a
        # searched tail (3d-1, l-2d+1), which always exists: its order is at
        # least 6d-3 = 2(3d-1)-1; at odd d it is l+3, so 3 or 0 (mod 4), and
        # its defect is even (residues 0, 3); at even d it is l+1, so 1 or 0,
        # and its defect is odd (residues 0, 1).  If the tail search runs out
        # of budget, the whole order is searched.
        try:
            tail = langford_sequence(3 * d - 1, l - (2 * d - 1))
            seq = concat([gen_langford_doubledefect(d), tail])
            return _ensure_valid(seq, SequenceKind("langford", defect=d))
        except SearchBudgetExhausted:
            pass
    entries = _search_pairs(range(d, d + l), 2 * l)
    if entries is None:
        raise NoSuchSequence(f"search found no Langford sequence d={d}, l={l}")
    seq = SkolemTypeSequence(entries)
    return _ensure_valid(seq, SequenceKind("langford", defect=d))


# Placements one _search_pairs call may make, summed over all its runs, before
# it gives up.  The largest search the tests run, langford_sequence(20, 40) for
# c3=40,c5=19, takes 206,282 placements in 983 runs.
_SEARCH_NODE_BUDGET = 1_000_000
# Placements each run may make.  The first run is the unshuffled search, so a
# cell it solves within its cutoff keeps its sequence: 10,000 is above the 6,255
# that the C3C5 cells with p <= 8, t <= 2p + 9 need at most.  On the 56 cells
# with p <= 12, 2p + 1 <= t <= 4p + 8 that the first run leaves, 200 per later
# run took the fewest placements in the median over seeds of the cutoffs from
# 100 to 1,000 tried.
_FIRST_RUN_CUTOFF = 10_000
_RESTART_CUTOFF = 200


class _Cutoff(Exception):
    """A run of ``_search_pairs`` reached its cutoff."""


def _search_pairs(symbols, length: int) -> tuple[int, ...] | None:
    """Place one pair of every symbol so that the pairs tile positions 1..length.

    A backtracking search with restarts (Gomes, Selman and Kautz 1998).  Every
    run branches on the most constrained empty cell (the lowest of those with
    fewest options).  The first run tries the largest symbol first, then the
    leftmost position, and stops after ``_FIRST_RUN_CUTOFF`` placements.  Each
    later run shuffles the branches of every cell it visits, with a generator
    seeded from the lowest symbol and the length only, and stops after
    ``_RESTART_CUTOFF``.  Returns the entries of the first tiling found, or None
    when a run exhausts its tree: the cell a node branches on does not depend
    on the branch order, so every run searches the same tree.  Raises
    SearchBudgetExhausted once the runs together pass ``_SEARCH_NODE_BUDGET``
    placements, so under a budget below the first cutoff only the first run
    runs.

    The state is three int bitmasks: ``free`` has bit ``i`` set while cell
    ``i+1`` is empty, ``rev`` is its mirror (bit ``top-i``, ``top = length-1``)
    and ``rem`` has bit ``s`` set while symbol ``s`` is unplaced.  Then
    ``(free >> i) & rem`` holds the symbols that fit with their left end at
    cell ``i+1``, and ``(rev >> (top-i)) & rem`` those that fit with their
    right end there.
    """
    top = length - 1
    entries = [0] * length
    budget = _SEARCH_NODE_BUDGET
    nodes = limit = 0
    rng = None

    def fill(free: int, rev: int, rem: int) -> bool:
        nonlocal nodes
        if not rem:
            return True
        # Every unplaced symbol either covers the chosen cell or the branch
        # dies, which tames the tight high-defect cases.
        best = -1
        best_count = 0
        scan = free
        while scan:
            low = scan & -scan
            scan ^= low
            cell = low.bit_length() - 1
            count = ((free >> cell) & rem).bit_count() + ((rev >> (top - cell)) & rem).bit_count()
            if not count:
                return False
            if best < 0 or count < best_count:
                best, best_count = cell, count
                if count == 1:
                    break
        as_left = (free >> best) & rem
        as_right = (rev >> (top - best)) & rem
        options = as_left | as_right
        order = None
        if rng is not None:
            # a shuffled run tries the symbols in random order, each end first
            # as a random bit says
            order = []
            flips = rng.getrandbits(best_count)
            scan = options
            while scan:
                low = scan & -scan
                scan ^= low
                sym = low.bit_length() - 1
                sides = ((best - sym, as_right), (best, as_left))
                order.append((sym, sides[::-1] if flips & 1 else sides))
                flips >>= 1
            rng.shuffle(order)
        while options:
            if order is None:
                sym = options.bit_length() - 1
                sides = ((best - sym, as_right), (best, as_left))
            else:
                sym, sides = order.pop()
            bit = 1 << sym
            options ^= bit
            for a, fits in sides:
                if not fits & bit:
                    continue
                nodes += 1
                if nodes > limit:
                    if nodes > budget:
                        raise SearchBudgetExhausted(
                            f"pair search on {length} cells passed {budget} placements"
                        )
                    raise _Cutoff
                b = a + sym
                # a tiling rewrites every cell along the path that returns it,
                # so a failed branch leaves its cells as they are
                entries[a] = entries[b] = sym
                cells = (1 << a) | (1 << b)
                mirror = (1 << (top - a)) | (1 << (top - b))
                if fill(free ^ cells, rev ^ mirror, rem ^ bit):
                    return True
        return False

    rem = 0
    for sym in symbols:
        rem |= 1 << sym
    full = (1 << length) - 1
    cutoff = _FIRST_RUN_CUTOFF
    while True:
        limit = min(nodes + cutoff, budget)
        try:
            return tuple(entries) if fill(full, full, rem) else None
        except _Cutoff:
            nodes = limit
            if rng is None:
                rng = random.Random(min(symbols) * 100003 + length // 2)
                cutoff = _RESTART_CUTOFF
