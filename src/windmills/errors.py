"""Exception hierarchy shared by all windmills modules."""


class WindmillError(Exception):
    """Base class for all domain errors raised by this package."""


# -- sequence layer ---------------------------------------------------------

class NoSuchSequence(WindmillError):
    """The requested sequence order violates a known existence condition."""


class UnsupportedOrder(WindmillError):
    """The generator has no construction for this order."""


class OutOfRange(WindmillError):
    """A parameter lies outside the generator's admissible range."""


class UnknownKind(WindmillError):
    """No existence rule or validator is defined for this sequence kind."""


class UnmatchedSymbol(WindmillError):
    """No consistent left-to-right pairing exists for some symbol."""


class InvalidSequence(WindmillError):
    """A generated sequence failed its own validation (internal guard)."""


class HookedOperand(WindmillError):
    """Concatenation and doubling require hook-free operands."""


class SearchBudgetExhausted(WindmillError):
    """A construction search used up its node budget without an answer."""


# -- assembly layer ---------------------------------------------------------

class ShiftTooSmall(WindmillError):
    """The shift constant is too small for disjoint label ranges."""


class BoundViolation(WindmillError):
    """A shift/order bound needed for distinct labels does not hold."""


class PreconditionFailed(WindmillError):
    """A structural precondition that should hold by construction failed."""


class LabelClash(WindmillError):
    """A merge would introduce a vertex label that is already in use."""


class MissingTriple(WindmillError):
    """A merge refers to a triangle that is not present."""


# -- windmill / families layer ----------------------------------------------

class MalformedLabelling(WindmillError):
    """A labelling or windmill description breaks a structural invariant."""


class UnsupportedCombination(WindmillError):
    """The parameter combination is outside the covered families."""


class TooManyHexagons(WindmillError):
    """More hexagons requested than triangle pairs can supply."""


class NotInTable(WindmillError):
    """No catalogued base-case labelling exists for these parameters."""


class Unlabellable(WindmillError):
    """Every labelling strategy failed for this windmill."""


class MissingRequiredTriangle(WindmillError):
    """The base labelling lacks a triangle the extension must replace."""


# -- oracle ------------------------------------------------------------------

class SpecTooLarge(WindmillError):
    """The windmill exceeds the exhaustive search size cap."""


class OrderTooLarge(WindmillError):
    """The sequence order exceeds the enumeration size cap."""
