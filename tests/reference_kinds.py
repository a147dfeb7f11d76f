"""The per-tag sequence-kind rules, kept as a reference for the tests.

The package reads each kind's existence residues from one table
(``sequences._RESIDUES``) and its symbol set from the kind's derived
properties.  Below are the forms it used before: the tag sets, the checks of
``SequenceKind``, ``expected_symbols``, the per-tag ``exists`` chain and the
oracle's ``_symbols``, verbatim.  The tests compare the package with them.
"""

from __future__ import annotations

from dataclasses import dataclass

from windmills.errors import UnknownKind

KNOWN_TAGS = (
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


def exists(kind, order: int | None = None, defect: int | None = None) -> bool:
    """Exact existence test for the classical sequence families.

    ``kind`` may be a SequenceKind or a tag string: ``skolem``,
    ``hooked-skolem``, ``langford``, ``hooked-langford``, ``near-skolem``,
    ``hooked-near-skolem`` or ``two-fold-skolem``.  Two-fold Langford
    sequences have no published characterisation, so that tag is rejected,
    as is every other tag.
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
    if tag == "two-fold-skolem":
        return True
    raise UnknownKind(f"no existence rule for kind {tag!r}")


def _require_defect(tag: str, defect: int | None) -> int:
    if defect is None or defect < 1:
        raise ValueError(f"kind {tag!r} needs a positive defect")
    return defect


def _symbols(kind: SequenceKind, n: int) -> list[int]:
    """The symbols of a search of nominal order n, largest first."""
    near = kind.tag in ("near-skolem", "hooked-near-skolem")
    if near and kind.defect > n:
        raise ValueError(f"near-Skolem defect {kind.defect} exceeds order {n}")
    expected = kind.expected_symbols(n - 1 if near else n)  # n counts the omitted symbol
    if expected is None:
        raise ValueError(f"searching {kind.tag!r} needs an explicit symbol set")
    return sorted(expected, reverse=True)
