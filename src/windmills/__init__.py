"""Graceful and near graceful labellings of variable windmill graphs.

The package builds labellings constructively from Skolem-type sequences
(`sequences` -> `assemble` -> `families`), verifies them independently
(`windmill.verify`), and cross-checks against exhaustive search at small
sizes (`oracle`).
"""

from .errors import WindmillError
from .sequences import (
    SequenceKind,
    SkolemTypeSequence,
    concat,
    double,
    exists,
    fixed_small_twofold,
    gen_hooked_skolem,
    gen_langford_doubledefect,
    gen_near_skolem_topdefect,
    gen_power4,
    gen_skolem,
    gen_twofold_langford,
    gen_twofold_skolem,
    langford_sequence,
    parse_sequence,
    validate,
)
from .windmill import (
    GRACEFUL,
    Labelling,
    NEAR_GRACEFUL,
    VerificationReport,
    WindmillSpec,
    edge_multiset,
    expected_mode,
    from_json,
    to_dot,
    to_json,
    verify,
)
from .assemble import (
    fivetuples_c5,
    hexagon_pairs,
    quadruples_from_twofold,
    triples_from_pairs,
)
from .families import (
    ConstructionTrace,
    base_case_c3c4,
    coverage_audit,
    extend_c3c4,
    label,
    label_c3,
    label_c3c4,
    label_c3c5,
    label_c3c6,
    label_c5,
)
from .oracle import SearchResult, search_labelling, search_sequence

__version__ = "0.1.0"
