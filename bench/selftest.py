"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

worker.import_windmills()
from windmills import families, windmill  # noqa: E402


def _corrupt(labelling):
    """The same labelling with one vertex label of its first vane changed."""
    vanes = [list(v) for v in labelling.vanes]
    vanes[0][1] += 1
    return windmill.Labelling(labelling.spec, tuple(map(tuple, vanes)), labelling.mode)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert workloads.make_ops(workload, 5) == workloads.make_ops(workload, 5)
    if workload != "search":
        assert workloads.make_ops(workload, 5) != workloads.make_ops(workload, 6)
    keys = [workloads.op_key(op) for op in workloads.domain(workload)]
    assert len(set(keys)) == len(keys)
    assert {workloads.op_key(op) for op in workloads.make_ops(workload, 5)} <= set(keys)


def test_recorded_digests_cover_every_domain():
    for workload in workloads.WORKLOADS:
        assert checks.reference_digests(workload), workload


def test_gate_rejects_one_changed_label():
    good = checks.plain_from_object(families.label_c3(9))
    assert checks.labelling_errors(good, {3: 9}) == []
    bad = checks.plain_from_object(_corrupt(families.label_c3(9)))
    assert checks.labelling_errors(bad, {3: 9})
    assert checks.labelling_errors(good, {3: 8})


def test_changed_label_counts_as_failed(monkeypatch):
    original_c3c4, original_c3 = families.label_c3c4, families.label_c3
    monkeypatch.setattr(families, "label_c3c4", lambda t, s: (_corrupt(original_c3c4(t, s)[0]), None))
    monkeypatch.setattr(families, "label_c3", lambda t: _corrupt(original_c3(t)))
    sweep = worker.Runner("sweep-grid").run([("sweep", (5, 7))])
    label = worker.Runner("label-large").run([("label", ("c3", "c3=12"))])
    for record in sweep + label:
        assert not record["ok"] and not record["missed"], record


def test_deadline_miss_counts_at_the_deadline(monkeypatch):
    monkeypatch.setattr(worker, "DEADLINE_S", 0.3)
    ops = workloads.make_ops("search", 2, unbounded=True)
    unbounded = [op for op in ops if op not in workloads.make_ops("search", 2)]
    assert len(unbounded) == 1 and unbounded[0] in workloads.UNBOUNDED
    ops = [unbounded[0], ("oracle-none", "c5=2"), ("c3c5", (8, 3))]
    reps = [{"ops": worker.Runner("search").run(ops), "peak_rss_mb": 20.0} for _ in range(2)]
    for rep in reps:
        assert [r["missed"] for r in rep["ops"]] == [True, False, False]
        assert rep["ops"][0]["s"] == 0.3 and not rep["ops"][0]["ok"]
    reported = run.end_to_end(reps, [0.1], "search")
    assert reported["failed_ratio"][0] == 2 / 6
    assert reported["construct_search_s"][0] > 0.3


def test_op_times_scale_each_run_and_add_quick_runs_by_key():
    def rep(times, ok=True, slowdown=1.0):
        ops = [{"key": k, "kind": "c3c5", "s": s, "parts": {"c3c5": s}, "ok": ok, "missed": False,
                "slowdown": slowdown} for k, s in times.items()]
        return {"ops": ops, "peak_rss_mb": 20.0, "setup_s": 0.1}

    full = [rep({"a": 0.5, "b": 0.002, "c": 0.004}), rep({"a": 0.8, "b": 0.006, "c": 0.005}, slowdown=2.0)]
    assert run.quick_positions(full[0], 2 / 3) == "1,2"
    quick = [rep({"b": 0.001, "c": 0.006}), rep({"c": 0.0035}, ok=False)]
    ops = {op["key"]: op for op in run.op_times(full, quick)}
    assert ops["a"]["s"] == 0.45 and ops["b"]["s"] == 0.002
    assert not ops["c"]["ok"] and ops["c"]["s"] == 0.006
    reported = run.end_to_end(full, [0.1], "search", quick)
    assert reported["failed_ratio"][0] == 1 / 9
    assert reported["slowdown"][0] == 1.0


def test_reference_search_counts_a_fixed_tree():
    assert worker.reference_search() == worker.REFERENCE_COUNT
    assert worker.reference_search(1, 5) == 10
    assert worker.reference_slowdown() > 0


def _traced_run(workload, ops):
    trace = tracer.Tracer()
    trace.install()
    try:
        records = worker.Runner(workload, trace).run(ops)
    finally:
        trace.uninstall()
    return records, trace.spans


def test_self_times_add_up_to_at_most_the_traced_wall_time():
    ops = workloads.make_ops("sweep-grid", 3)[:40] + [("label", ("c3c6", "c3=30,c6=20"))]
    records, spans = _traced_run("sweep-grid", ops)
    assert all(r["ok"] for r in records)
    metrics = tracer.layer_metrics(spans, len(ops))
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    wall = sum(s[tracer.END] - s[tracer.START] for s in spans if s[tracer.LAYER] == tracer.ROOT_LAYER)
    assert 0 < layer_self <= min(wall, sum(r["s"] for r in records))
    # 40 sweep calls from the benchmark, one label_c3c6 call from the CLI
    assert metrics["families.calls"] == 41 and metrics["cli.calls"] == 2
    assert not hasattr(families.label_c3c4, "__wrapped__")


def test_oracle_nodes_repeat_exactly():
    ops = [("oracle-none", "c5=2"), ("oracle-find", "c3=4,c5=1"), ("seq-none", ("hooked-skolem", 8))]
    first = tracer.layer_metrics(_traced_run("search", ops)[1], len(ops))
    second = tracer.layer_metrics(_traced_run("search", ops)[1], len(ops))
    assert first["oracle.nodes"] == second["oracle.nodes"] > 6000
    assert first["oracle.calls"] == 3


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    records, spans = _traced_run("search", [("c3c5", (8, 3))])
    assert records[0]["ok"]
    rep = {"ops": records, "peak_rss_mb": 20.0}
    reported = run.end_to_end([rep, rep], [0.1], "search")
    for metric in spec["end_to_end"]:
        assert reported[metric["name"]][1] == metric["unit"], metric
    layer_names = set(tracer.layer_metrics(spans, 1)) | {"trace_overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def test_fails_without_the_package():
    root = BENCH / "out" / "minimal"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(root)
    assert proc.returncode != 0 and proc.stdout == ""
