"""Independent correctness gate and output digests.

The gate recomputes gracefulness from the raw labels, without the library's
verifier, and is run outside the timed region.  Digests are sha256 prefixes
of a canonical labelling JSON; ``digests.json`` holds the seed commit's,
written by ``make_digests.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import workloads

DIGEST_FILE = Path(__file__).with_name("digests.json")
DIGEST_CHARS = 8
DIGESTS_PER_LINE = 16
NO_DIGEST = "-" * DIGEST_CHARS

GRACEFUL = "graceful"
NEAR_GRACEFUL = "near-graceful"


def parity_mode(edges: int) -> str:
    """Graceful iff m = 0, 3 (mod 4); otherwise the parity obstruction applies."""
    return GRACEFUL if edges % 4 in (0, 3) else NEAR_GRACEFUL


def plain_labelling(spec: dict[int, int], mode: str, vanes) -> dict:
    return {"spec": dict(spec), "mode": mode, "vanes": [list(v) for v in vanes]}


def plain_from_object(labelling) -> dict:
    """Plain form of a ``windmills.windmill.Labelling``."""
    return plain_labelling(dict(labelling.spec.vanes), labelling.mode, labelling.vanes)


def plain_from_json(text: str) -> dict:
    """Plain form of the labelling JSON that ``windmills label --json`` prints."""
    obj = json.loads(text)
    spec = {group["cycle"]: group["count"] for group in obj["spec"]}
    return plain_labelling(spec, obj["mode"], obj["vanes"])


def labelling_errors(plain: dict, wanted: dict[int, int]) -> list[str]:
    """Why ``plain`` is not a correct labelling of the windmill ``wanted``."""
    spec, mode, vanes = plain["spec"], plain["mode"], plain["vanes"]
    if spec != wanted:
        return [f"spec {spec} != requested {wanted}"]
    m = sum(length * count for length, count in spec.items())
    errors = []
    if mode != parity_mode(m):
        errors.append(f"mode {mode} for m={m}")
    lengths: dict[int, int] = {}
    for vane in vanes:
        lengths[len(vane)] = lengths.get(len(vane), 0) + 1
        if vane[0] != 0:
            errors.append(f"vane {vane[:3]}... does not start at 0")
    if lengths != spec:
        errors.append(f"vane lengths {lengths} != spec {spec}")
    allowed = set(range(1, m + 1)) if mode == GRACEFUL else set(range(1, m)) | {m + 1}
    labels = [x for vane in vanes for x in vane[1:]]
    if len(set(labels)) != len(labels):
        errors.append("repeated vertex label")
    if not set(labels) <= allowed:
        errors.append("vertex label out of range")
    edge_labels = sorted(
        abs(a - b) for vane in vanes for a, b in zip(vane, vane[1:] + vane[:1])
    )
    if edge_labels != sorted(allowed):
        errors.append("edge labels are not the target set")
    return errors


def digest(plain: dict) -> str:
    canonical = json.dumps(
        [sorted(plain["spec"].items()), plain["mode"], plain["vanes"]],
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:DIGEST_CHARS]


@functools.cache
def reference_digests(workload: str) -> dict[str, str]:
    """op key -> digest at the seed commit; empty if none was recorded.

    ``digests.json`` maps each workload to its digests concatenated in the
    order of ``workloads.domain`` (``NO_DIGEST`` for outputs that are not
    labellings), split into lines of ``DIGESTS_PER_LINE``.
    """
    if not DIGEST_FILE.is_file():
        return {}
    packed = "".join(json.loads(DIGEST_FILE.read_text()).get(workload, []))
    keys = [workloads.op_key(op) for op in workloads.domain(workload)]
    if len(packed) != DIGEST_CHARS * len(keys):
        return {}
    return {
        key: packed[i * DIGEST_CHARS : (i + 1) * DIGEST_CHARS]
        for i, key in enumerate(keys)
        if packed[i * DIGEST_CHARS] != NO_DIGEST[0]
    }
