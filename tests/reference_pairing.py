"""The ``PairSet`` pairing, kept as a reference for the tests.

The package reads every pairing off ``SkolemTypeSequence.occurrences`` and
walks the greedy pairing only to name a failure (``sequences._greedy_pairs``).
``PairSet`` and ``pairs_of`` are the symbol-keyed form it used before; the
tests compare the index, ``validate`` and the vane builders against them.
"""

from __future__ import annotations

from windmills.errors import UnmatchedSymbol
from windmills.sequences import Pair, SkolemTypeSequence


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
        """Rebuild the sequence, one pair at a time; uncovered positions become hooks (0)."""
        entries = [0] * self.length
        for sym, prs in self._pairs.items():
            for a, b in prs:
                entries[a - 1] = entries[b - 1] = sym
        return SkolemTypeSequence(entries)

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
    return PairSet(pairs, seq.length)
