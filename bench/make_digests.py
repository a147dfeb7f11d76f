"""Record the output digests that ``outputs_changed`` compares against.

    python3 bench/make_digests.py

Runs every operation any seed can draw (``workloads.domain``) once, checks it
like a benchmark run does, and writes ``digests.json`` in the layout that
``checks.reference_digests`` reads.  Run it only on the commit
whose outputs are the reference; it refuses to write if any check fails.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import Runner, import_windmills


def main() -> int:
    import_windmills()
    table: dict[str, list[str]] = {}
    for workload in workloads.WORKLOADS:
        records = Runner(workload).run(workloads.domain(workload))
        bad = [r for r in records if not r["ok"]]
        if bad:
            for r in bad[:10]:
                print(f"FAILED {r['key']}: {r['why']}", file=sys.stderr)
            return 1
        digests = [r.get("digest", checks.NO_DIGEST) for r in records]
        step = checks.DIGESTS_PER_LINE
        table[workload] = ["".join(digests[i : i + step]) for i in range(0, len(digests), step)]
        print(f"{workload}: {len(records)} operations")
    checks.DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
