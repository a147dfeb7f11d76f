# The CLI smoke test of the workflow's `tests` job: `bash -e tools/ci_smoke.sh`
# from the repository root, with `windmills` and `python` on PATH and RUNNER_TEMP
# a writable directory.  `python tools/run_ci_smoke.py` runs it in a checkout.
# The `label --json` digest of the C3, C5, C3C5 and C3C6 grid is a tier-1 test
# (`tests/test_cli.py`).
# importing the CLI builds no dataclass, so neither module is loaded
python -c 'import sys, windmills.cli; assert not {"dataclasses", "inspect"} & set(sys.modules)'
windmills label --graph c3=4,c4=3 --json > lab.json
windmills verify --file lab.json
windmills oracle --graph c3=2 --mode graceful
out=$(timeout 60 windmills oracle --graph c3=2,c4=2 --mode graceful)
test "$out" = "none (exhaustive, 77637 nodes)"
out=$(timeout 10 windmills oracle --graph c3=6 --mode graceful)
test "$out" = "none (exhaustive, 1018 nodes)"
out=$(timeout 10 windmills oracle --graph c3=7 --mode graceful)
test "$out" = "none (exhaustive, 6546 nodes)"
out=$(timeout 10 windmills oracle --seq-kind skolem --order 10)
test "$out" = "none (exhaustive)"
out=$(timeout 10 windmills oracle --seq-kind hooked-skolem --order 9)
test "$out" = "none (exhaustive)"
code=0; windmills oracle --seq-kind skolem --order 0 || code=$?
test "$code" = 3
windmills label --graph c3=7,c4=70 --trace
windmills label --graph c3=90,c4=700 --trace
windmills audit --t-max 8 --s-max 120 --csv > /dev/null
timeout 60 windmills label --graph c3=20000 --json > "$RUNNER_TEMP/big.json"
windmills verify --file "$RUNNER_TEMP/big.json"
# the sweep's output is pinned: a change that alters it has to say so
out=$(timeout 120 windmills sweep --t 1..40 --s 0..250 --csv | sha256sum)
test "$out" = "df1ddc35ab89f978ed99c3d67a27ec9e57eb2abaccbf00d7282af23ee8951ed9  -"
out=$(timeout 60 windmills audit --t-max 60 --s-max 1500 --csv | sha256sum)
test "$out" = "6122693539b6c35d812de3e2cadefa15b1eeb6ac3eaab5ebd61c18da81f4a2fe  -"
timeout 120 windmills sweep --t 1..60 --s 0..300 --csv > "$RUNNER_TEMP/sweep.csv"
python - "$RUNNER_TEMP/sweep.csv" <<'PY'
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1])))
assert len(rows) == 60 * 301, len(rows)
assert all(row["verified"] == "True" for row in rows)
PY
python - <<'PY'
# the audit streams its cells, so its peak RSS stays flat as the grid grows
import csv, io, resource, subprocess
argv = ["windmills", "audit", "--t-max", "200", "--s-max", "4000", "--csv"]
out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout
rows = list(csv.DictReader(io.StringIO(out)))
assert len(rows) == 200 * 4001, len(rows)
gaps = [(int(row["t"]), int(row["s"])) for row in rows if row["rule"] == "GAP"]
assert gaps == [(1, 21), (1, 25), (2, 25), (3, 20), (3, 25)], gaps
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mb < 64, peak_mb
PY
code=0; windmills label --graph c3=4,c4=-3 || code=$?
test "$code" = 3
# a size past the CLI's cap of 10^6 edges is refused as unsupported
code=0; windmills label --graph c3=99999999999999999999 || code=$?
test "$code" = 2
echo '{"spec": [{"cycle": 3, "count": 1}], "mode": "graceful", "vanes": [[0, 1.9, 3]]}' > "$RUNNER_TEMP/float.json"
code=0; windmills verify --file "$RUNNER_TEMP/float.json" || code=$?
test "$code" = 3
windmills label --graph c3=32,c5=12 --json | windmills verify --file /dev/stdin
# every closed-form sequence table at a large order, checked by the validator
gen() { timeout 60 windmills seq gen "$@"; }
check() { timeout 60 windmills seq validate --stdin "$@"; }
gen --kind skolem --order 40001 | check --kind skolem
gen --kind hooked-skolem --order 40002 | check --kind hooked-skolem
gen --kind langford2d --defect 10000 | check --kind langford --defect 10000
gen --kind near-top --order 40003 | check --kind near-skolem --defect 40002
gen --kind near-top --order 40001 | check --kind hooked-near-skolem --defect 40000
gen --kind twofold-skolem --order 20001 | check --kind two-fold-skolem
gen --kind power4 --order 5000 --trimmed | check --kind two-fold-skolem-type --fragment
gen --kind twofold-langford --order 2000 | check --kind two-fold-langford --defect 11999
# one large cell per family: the triangle, square, 5-cycle and hexagon builders at scale
for graph in c3=1103 c5=492 c3=252,c4=413 c3=655,c5=327 c3=272,c6=244; do
  timeout 60 windmills label --graph "$graph" --json | timeout 60 windmills verify --file /dev/stdin
done
# the most hexagons a triangle count allows, h = 2t+1 at n = 5002: the merge checks
# no label, and verify finds none repeated, as the clearance lemma says
timeout 60 windmills label --graph c3=1000,c6=2001 --json | timeout 60 windmills verify --file /dev/stdin
# C3C5 cells whose Langford sequence only the restarted pair search finds within
# its budget: (20, 40) after 983 runs (about 3 s), and (6, 27)
for graph in c3=40,c5=19 c3=27,c5=5; do
  timeout 60 windmills label --graph "$graph" --json | timeout 60 windmills verify --file /dev/stdin
done
# c3=69,c5=8 is (9, 69), past the long-order split at 8d-4: its tail (26, 52)
# runs out of budget (about 26 s), then the direct search finds (9, 69)
timeout 120 windmills label --graph c3=69,c5=8 --json | timeout 60 windmills verify --file /dev/stdin
