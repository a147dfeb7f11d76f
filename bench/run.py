"""Benchmark of the ``windmills`` package.

    python3 bench/run.py --workload {label-large,sweep-grid,search} --seed N
                         --seconds S --trace {0,1} [--unbounded]

Runs from the root of a checkout and imports ``windmills`` from its ``src``.
Each repetition of the workload runs in a fresh interpreter (``worker.py``),
one at a time, so the library's caches start cold as in a CLI call.
Repetitions start until about ``--seconds`` have passed (at least three);
``search`` adds quick repetitions of its fastest operations (see ``run_reps``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics derived
from the spans, which it writes to ``bench/out/``.  Every metric is printed
by name with its unit; the last line is one JSON object with the metrics
``BENCHMARK.json`` lists.  The exit code is non-zero if any output fails the
independent checks.  ``--unbounded`` adds to ``search`` one cell per
repetition that runs past the deadline at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

MIN_REPS = 3
# workload -> share of its operations that quick repetitions run again
QUICK_SHARE = {"search": 2 / 3}
QUICK_SECONDS = 1.0
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output failing a check)."""


def spawn(argv: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker; return its report and the ``time.monotonic()`` it started at."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def spawn_rep(args, started: float, spans: Path | None = None, only: str = "") -> dict:
    """One repetition in a fresh worker, traced if ``spans`` names a file."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--trace", str(int(spans is not None))]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if args.unbounded:
        argv.append("--unbounded")
    if only:
        argv += ["--only", only]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    report, spawned = spawn(argv, timeout=max(remaining, 1.0))
    report["setup_s"] = report["first_op"] - spawned
    report["traced"] = spans is not None
    report["spans_file"] = spans
    return report


def quick_positions(first: dict, share: float) -> str:
    """Positions of the fastest ``share`` of the operations, as timed in ``first``."""
    ops = [(r["s"], i) for i, r in enumerate(first["ops"]) if r["ok"]]
    chosen = sorted(ops)[: round(share * len(first["ops"]))]
    return ",".join(str(i) for _, i in sorted(chosen, key=lambda item: item[1]))


def run_reps(args) -> tuple[list[dict], list[dict]]:
    """Full and quick repetitions for about ``args.seconds``.

    Full repetitions run the whole operation list, at least MIN_REPS of them;
    with --trace 1 every second one is traced.  Untraced runs of a workload in
    QUICK_SHARE follow every full repetition with quick ones for about
    QUICK_SECONDS: they run only its fastest operations, so those are timed
    at more moments of the run than the few full repetitions give.
    """
    started = time.monotonic()
    share = 0.0 if args.trace else QUICK_SHARE.get(args.workload, 0.0)
    reps, quick = [], []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        spans = OUT / f"spans-{args.workload}-rep{len(reps)}.jsonl" if traced else None
        reps.append(spawn_rep(args, started, spans))
        if share:
            only = quick_positions(reps[0], share)
            until = time.monotonic() + QUICK_SECONDS
            while only:
                quick.append(spawn_rep(args, started, only=only))
                if time.monotonic() >= until:
                    break
        elapsed = time.monotonic() - started
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > args.seconds:
            return reps, quick


def op_times(reps: list[dict], quick: list[dict] = ()) -> list[dict]:
    """One record per operation: the median of its times over the runs.

    Each time is first divided by the slowdown the reference search showed
    around that run of the operation, which brings runs in slow and quiet
    stretches of the machine to one speed.  Quick repetitions add runs of the
    operations they hold.  An operation that failed in any run is failed, at
    its slowest unscaled time (a miss is recorded at the deadline).
    """
    extra: dict[str, list[dict]] = {}
    for rep in quick:
        for r in rep["ops"]:
            extra.setdefault(r["key"], []).append(r)
    merged = []
    for runs in zip(*(rep["ops"] for rep in reps)):
        runs = runs + tuple(extra.get(runs[0]["key"], ()))
        ok = all(r["ok"] for r in runs)
        op = dict(runs[0], ok=ok)
        if ok:
            op["s"] = statistics.median(r["s"] / r["slowdown"] for r in runs)
            op["parts"] = {
                part: statistics.median(r["parts"][part] / r["slowdown"] for r in runs) for part in op["parts"]
            }
        else:
            op["s"] = max(r["s"] for r in runs)
        if "changed" in op:
            op["changed"] = any(r["changed"] for r in runs)
        merged.append(op)
    return merged


def _ms_median(values) -> float:
    return statistics.median(values) * 1000.0 if values else float("nan")


def end_to_end(reps: list[dict], setup_samples: list[float], workload: str, quick: list[dict] = ()) -> dict:
    """name -> (value, unit, note) for every end-to-end metric of the workload."""
    ops = op_times(reps, quick)
    seconds = [op["s"] for op in ops]
    passed = sum(op["ok"] for op in ops)
    records = [r for rep in [*reps, *quick] for r in rep["ops"]]
    tries = len(records)
    failed = sum(not r["ok"] for r in records)
    n = f"n={len(ops)}, median of {len(reps)} runs" + (f" (+{len(quick)} quick)" if quick else "")
    metrics = {
        "ops_per_s": (passed / sum(seconds), "1/s", f"{passed} passed ops"),
        "op_ms_p50": (_ms_median(seconds), "ms", n),
    }
    if len(ops) >= 100:
        metrics["op_ms_p90"] = (statistics.quantiles(seconds, n=10)[8] * 1000.0, "ms", n)
    metrics["failed_ratio"] = (failed / tries, "ratio", f"{failed}/{tries}")
    metrics["setup_s"] = (statistics.median(setup_samples), "s", f"median, n={len(setup_samples)}")
    slowdowns = [r["slowdown"] for rep in [*reps, *quick] for r in rep["ops"]]
    metrics["slowdown"] = (statistics.median(slowdowns), "ratio", f"reference search / {REFERENCE_S * 1000:g} ms, median")
    metrics["peak_rss_mb"] = (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB", f"median, n={len(reps)}")
    if workload == "label-large":
        for family in workloads.LABEL_ANCHORS:
            label = [op["parts"]["label"] for op in ops if op["family"] == family and op["ok"]]
            metrics[f"label_ms.{family}"] = (_ms_median(label), "ms", f"median, n={len(label)}")
        verify = [op["parts"]["verify"] for op in ops if op["ok"]]
        metrics["verify_ms"] = (_ms_median(verify), "ms", f"median, n={len(verify)}")
    if workload == "search":
        for name, kinds in (("oracle_s", workloads.ORACLE_KINDS), ("construct_search_s", workloads.CONSTRUCT_KINDS)):
            chosen = [op["s"] for op in ops if op["kind"] in kinds]
            metrics[name] = (sum(chosen), "s", f"sum of {len(chosen)} ops")
    unrecorded = sum("digest" in op and "changed" not in op for op in ops)
    note = f"of {len(ops)} ops" + (f"; {unrecorded} without a seed digest" if unrecorded else "")
    metrics["outputs_changed"] = (sum(op.get("changed", False) for op in ops), "count", note)
    return metrics


def per_layer(reps: list[dict]) -> tuple[dict, list[tuple[str, float]]]:
    """Per-layer metrics (medians over traced repetitions) and the top self times."""
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    per_rep, functions = [], {}
    for rep in traced:
        with open(rep["spans_file"]) as fh:
            spans = [json.loads(line) for line in fh]
        per_rep.append(tracer.layer_metrics(spans, len(rep["ops"])))
        for name, seconds in tracer.function_self_times(spans).items():
            functions[name] = functions.get(name, 0.0) + seconds / len(traced)
    metrics = tracer.median_metrics(per_rep)
    metrics["trace_overhead"] = sum(op["s"] for op in op_times(traced)) / sum(
        op["s"] for op in op_times(untraced)
    )
    top = sorted(functions.items(), key=lambda item: -item[1])[:8]
    return metrics, top


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unbounded", action="store_true")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "windmills" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/windmills package or no BENCHMARK.json", file=sys.stderr)
        return 2
    listed = json.loads(spec_file.read_text())["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob(f"spans-{args.workload}-rep*.jsonl"):
        stale.unlink()

    try:
        reps, quick = run_reps(args)
        if args.trace:
            values, top = per_layer(reps)
            units = {m["name"]: m["unit"] for m in listed}
            metrics = {name: (value, units.get(name, ""), "") for name, value in values.items()}
        else:
            probes = [spawn(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"], 60.0)
                      for _ in range(SETUP_PROBES)]
            probes = [dict(r, setup_s=r["first_op"] - started) for r, started in probes]
            setup = [rep["setup_s"] / rep["slowdown"] for rep in reps + quick + probes]
            metrics = end_to_end(reps, setup, args.workload, quick)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = [r for rep in reps + quick for r in rep["ops"]]
    failures = [r for r in records if not r["ok"]]
    wrong = [r for r in failures if not r["missed"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} full and {len(quick)} quick repetitions, "
          f"{len(records)} operations, {len(failures)} failed ({len(wrong)} wrong, "
          f"{len(failures) - len(wrong)} over the deadline)")
    for r in failures[:20]:
        print(f"  FAILED {r['kind']} {r['key']}: {r['why']}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    if args.trace:
        print("  largest self times per function (s per traced repetition):")
        for name, seconds in top:
            print(f"    {name:40s} {seconds:10.4f}")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
