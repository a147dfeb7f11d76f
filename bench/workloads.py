"""Operation lists of the three benchmark workloads, built from a seed.

An operation is a plain tuple ``(kind, args)``; ``op_key`` names it.  The
library never sees the seed, only the cells drawn from it.

* ``label-large``: four large cells per family, one per size stratum.  Each
  stratum has a fixed anchor that the seed moves by at most ``JITTER``, so
  every seed exercises the same sizes and rules.
* ``sweep-grid``: 1,100 distinct ``C3^t C4^s`` cells drawn uniformly from
  ``t 1..100 x s 0..120``, one from each block of 11 consecutive ``s``.
* ``search``: fixed strata of backtracking searches, in a seed-shuffled
  order.  ``unbounded=True`` adds one cell per repetition, drawn by the seed,
  from the cells that run past any deadline at the seed commit.
"""

from __future__ import annotations

import random

WORKLOADS = ("label-large", "sweep-grid", "search")

# Label cells move by a seed-drawn multiple of 4 (at most JITTER), which keeps
# each cell's residues mod 4, and with them its rules and its cost.
JITTER = 4

# family -> anchors, one per residue of the first count mod 4; each anchor
# gives the first count and a rule for the second.  Edge counts run from
# about 1,400 to 4,200.
LABEL_ANCHORS = {
    "c3": (500, 701, 902, 1103),
    "c5": (330, 411, 492, 573),
    # (t, share of the square range t+1..3t+1)
    "c3c4": ((170, 0.125), (211, 0.375), (252, 0.625), (293, 0.875)),
    # p, with t = 2p+1 so the Langford sequence is the closed-form one
    "c3c5": (225, 276, 327, 378),
    # (t, hexagons as a share of t)
    "c3c6": ((210, 0.6), (241, 0.75), (272, 0.9), (303, 1.0)),
}

SWEEP_T = range(1, 101)
SWEEP_S = range(0, 121)
# One cell per (t, block of SWEEP_BLOCK consecutive s): every cell of the box
# is equally likely, and every seed covers the box evenly.
SWEEP_BLOCK = 11

# Criterion 7's dispatcher-covered specs with m <= 18, each with the mode the
# parity rule predicts: the oracle finds a labelling for every one.
_ORACLE_FIND = (
    tuple(f"c3={t}" for t in range(1, 7))
    + tuple(f"c5={p}" for p in range(1, 4))
    + tuple(
        f"c3={t},c4={s}"
        for t, s in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))
    )
    + tuple(f"c3={t},c5={p}" for t, p in ((1, 1), (3, 1), (4, 1)))
    + tuple(f"c3={t},c6={h}" for t, h in ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2)))
)
# Exhaustive graceful negatives; each edge count is 2 (mod 4).
_ORACLE_NONE = ("c3=6", "c3=2,c4=2", "c5=2")
# Sequence searches that end in an exhaustive negative.
_SEQ_NONE = (("skolem", 10), ("hooked-skolem", 8), ("hooked-skolem", 9))
# label_c3c4 cells whose extension base needs the straddling hooked search.
_STRADDLING = ((22, 200), (27, 200), (30, 300), (31, 300), (34, 300), (43, 300))
# Cells that run for more than 60 s at the seed commit.
UNBOUNDED = (("c3c5", (40, 19)), ("c3c5", (60, 29)), ("c3c4", (90, 700)))

ORACLE_KINDS = ("oracle-find", "oracle-none", "seq-none")
CONSTRUCT_KINDS = ("c3c5", "c3c4")


def langford_exists(order: int, defect: int) -> bool:
    """Existence of a Langford sequence (Simpson 1983), stated here so that the
    operation lists do not depend on the library under test."""
    r = order % 4
    return order >= 2 * defect - 1 and (
        (r in (0, 1) and defect % 2 == 1) or (r in (0, 3) and defect % 2 == 0)
    )


# label_c3c5 cells that need a searched Langford sequence.
_LANGFORD_SEARCH = tuple(
    (t, p)
    for p in range(1, 15)
    for t in range(2 * p + 2, 2 * p + 9)
    if langford_exists(t, p + 1)
)


def _label_graph(family: str, anchor, jitter: int) -> str:
    if family == "c3":
        return f"c3={anchor + jitter}"
    if family == "c5":
        return f"c5={anchor + jitter}"
    if family == "c3c4":
        t = anchor[0] + jitter
        return f"c3={t},c4={t + 1 + 4 * round(anchor[1] * t / 2)}"
    if family == "c3c5":
        p = anchor + jitter
        return f"c3={2 * p + 1},c5={p}"
    t = anchor[0] + jitter
    return f"c3={t},c6={4 * (round(anchor[1] * t) // 4)}"


_JITTERS = range(-JITTER, JITTER + 1, 4)


def _search_ops() -> list[tuple]:
    return (
        [("oracle-find", graph) for graph in _ORACLE_FIND]
        + [("oracle-none", graph) for graph in _ORACLE_NONE]
        + [("seq-none", kind) for kind in _SEQ_NONE]
        + [("c3c5", cell) for cell in _LANGFORD_SEARCH]
        + [("c3c4", cell) for cell in _STRADDLING]
    )


def make_ops(workload: str, seed: int, unbounded: bool = False) -> list[tuple]:
    """The operation list of one repetition; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "label-large":
        ops = [
            ("label", (family, _label_graph(family, anchor, rng.choice(_JITTERS))))
            for family, anchors in LABEL_ANCHORS.items()
            for anchor in anchors
        ]
        rng.shuffle(ops)
        return ops
    if workload == "sweep-grid":
        ops = [
            ("sweep", (t, rng.choice(SWEEP_S[lo : lo + SWEEP_BLOCK])))
            for t in SWEEP_T
            for lo in range(0, len(SWEEP_S), SWEEP_BLOCK)
        ]
        rng.shuffle(ops)
        return ops
    if workload == "search":
        ops = _search_ops()
        if unbounded:
            ops.append(rng.choice(UNBOUNDED))
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def domain(workload: str) -> list[tuple]:
    """Every operation some seed can draw (without ``unbounded``)."""
    if workload == "label-large":
        return [
            ("label", (family, _label_graph(family, anchor, jitter)))
            for family, anchors in LABEL_ANCHORS.items()
            for anchor in anchors
            for jitter in _JITTERS
        ]
    if workload == "sweep-grid":
        return [("sweep", (t, s)) for t in SWEEP_T for s in SWEEP_S]
    return _search_ops()


def op_key(op: tuple) -> str:
    """Unique, stable name of an operation, used for digests and reports."""
    kind, args = op
    if kind == "label":
        return f"label:{args[1]}"
    if kind in ("sweep", "c3c4"):
        return f"{kind}:c3={args[0]},c4={args[1]}"
    if kind == "c3c5":
        return f"c3c5:c3={args[0]},c5={args[1]}"
    if kind == "seq-none":
        return f"seq-none:{args[0]}={args[1]}"
    return f"{kind}:{args}"


def parse_graph(text: str) -> dict[int, int]:
    """``"c3=4,c4=3"`` -> ``{3: 4, 4: 3}``."""
    groups = {}
    for part in text.split(","):
        key, value = part.split("=")
        groups[int(key[1:])] = int(value)
    return groups
