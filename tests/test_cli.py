import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from windmills import cli, families, sequences
from windmills.cli import main
from windmills.errors import Unlabellable
from windmills.windmill import from_json, verify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_gen_and_validate_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "seq", "gen", "--kind", "skolem", "--order", "8")
    assert code == 0
    assert out.strip() == "8,6,4,2,7,2,4,6,8,3,5,7,3,1,1,5"

    path = tmp_path / "seq.txt"
    path.write_text(out.strip())
    code, out, _ = run(capsys, "seq", "validate", "--file", str(path), "--kind", "skolem")
    assert code == 0 and out.startswith("accept")

    code, out, _ = run(
        capsys, "seq", "validate", "--file", str(path), "--kind", "hooked-skolem"
    )
    assert code == 1 and "reject" in out


def test_seq_gen_kinds(capsys):
    code, out, _ = run(capsys, "seq", "gen", "--kind", "langford2d", "--defect", "2")
    assert code == 0 and out.strip() == "4,2,3,2,4,3"
    code, out, _ = run(
        capsys, "seq", "gen", "--kind", "power4", "--order", "3", "--trimmed"
    )
    assert code == 0 and out.strip() == "8,8,4,4,1,1,4,4,8,8"
    code, out, _ = run(capsys, "seq", "gen", "--kind", "small-c", "--order", "2")
    assert code == 0 and out.strip() == "2,3,2,3,3,2,3,2"
    code, out, _ = run(capsys, "seq", "gen", "--kind", "twofold-langford", "--order", "1")
    assert code == 0 and out.strip() == "6,6,7,5,7,5,6,6,5,7,5,7"
    code, out, _ = run(capsys, "seq", "gen", "--kind", "near-top", "--order", "11")
    assert code == 0 and out.strip().startswith("11,9,7,5,3")


def test_seq_gen_unsupported_order(capsys):
    code, _, err = run(capsys, "seq", "gen", "--kind", "skolem", "--order", "6")
    assert code == 2 and "NoSuchSequence" in err
    for order in (7, 8, 9):  # below the top-defect table's order 11
        code, _, err = run(capsys, "seq", "gen", "--kind", "near-top", "--order", str(order))
        assert code == 2
        assert err == f"error: UnsupportedOrder: no top-defect construction for order {order}\n"


def test_seq_gen_empty_sequence_rejected(capsys):
    # small-c index 0 is the empty two-fold sequence, which has no text form;
    # the composites still use it (fixed_small_twofold(0))
    code, out, err = run(capsys, "seq", "gen", "--kind", "small-c", "--order", "0")
    assert code == 3 and out == ""
    assert err == "error: small-c --order 0 is the empty sequence\n"


def test_seq_validate_missing_defect(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4,2,3,2,4,3"))
    code, out, err = run(capsys, "seq", "validate", "--stdin", "--kind", "langford")
    assert code == 3 and out == ""
    assert err == "error: kind 'langford' needs a positive defect\n"


def test_label_text_default(capsys):
    code, out, _ = run(capsys, "label", "--graph", "c3=4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c3=4  m=12  mode=graceful"
    assert len(lines) == 5 and all(line.startswith("  0,") for line in lines[1:])


def test_label_trace_single_rule_family(capsys):
    code, out, _ = run(capsys, "label", "--graph", "c3=4", "--trace")
    assert code == 0 and out == "(single-rule family; no trace recorded)\n"


def test_label_json_roundtrips_through_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "label", "--graph", "c3=4,c4=3", "--json")
    assert code == 0
    labelling = from_json(out)
    assert verify(labelling).ok
    path = tmp_path / "labelling.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0 and out.startswith("ok")


def test_label_dot(capsys):
    code, out, _ = run(capsys, "label", "--graph", "c3=1", "--dot")
    assert code == 0
    assert out.startswith("graph windmill {")
    assert 'v0 [label="0"]' in out


def test_label_trace_names_rules(capsys):
    from windmills.families import RULES

    code, out, _ = run(capsys, "label", "--graph", "c3=4,c4=100", "--trace")
    assert code == 0
    for line in out.splitlines():
        if "(" in line:
            assert line.strip().split("(")[0] in RULES


def test_label_single_family_graphs(capsys):
    for graph in ("c3=5", "c5=2", "c3=1,c5=1", "c3=2,c6=1"):
        code, out, _ = run(capsys, "label", "--graph", graph, "--json")
        assert code == 0
        assert verify(from_json(out)).ok, graph


def test_label_unsupported(capsys):
    code, _, err = run(capsys, "label", "--graph", "c3=1,c6=4")
    assert code == 2 and "TooManyHexagons" in err
    code, _, err = run(capsys, "label", "--graph", "c4=3")
    assert code == 2
    code, _, err = run(capsys, "label", "--graph", "c9=3")
    assert code == 3


@pytest.mark.parametrize("graph", ["c3=4,c4=-3", "c3=-1,c4=2"])
def test_label_negative_count_rejected(capsys, graph):
    code, out, err = run(capsys, "label", "--graph", graph)
    assert (code, out) == (3, "")
    assert "negative vane count" in err


@pytest.mark.parametrize("graph", ["cc3=4", "c+3=4", "c 3=2", "c3=+2", "c3=1_0"])
def test_label_malformed_component_rejected(capsys, graph):
    code, out, err = run(capsys, "label", "--graph", graph)
    assert (code, out) == (3, "")
    assert "bad graph spec component" in err


def test_oracle_negative_count_rejected(capsys):
    code, out, err = run(capsys, "oracle", "--graph", "c3=2,c4=-1", "--mode", "graceful")
    assert (code, out) == (3, "")
    assert "negative vane count" in err


def test_verify_failure_exit_code(capsys, tmp_path):
    bad = {
        "spec": [{"cycle": 3, "count": 1}],
        "mode": "graceful",
        "vanes": [[0, 1, 2]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 1 and "FAILED" in out


def test_verify_malformed_input(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, _, err = run(capsys, "verify", "--file", str(path))
    assert code == 3


def test_verify_rejects_float_labels(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text(
        '{"spec": [{"cycle": 3, "count": 1}], "mode": "graceful", "vanes": [[0, 1.9, 3]]}'
    )
    code, out, err = run(capsys, "verify", "--file", str(path))
    assert (code, out) == (3, "") and "non-integer label" in err


def test_oracle_graph_none(capsys):
    code, out, _ = run(capsys, "oracle", "--graph", "c3=2", "--mode", "graceful")
    assert code == 0 and out.startswith("none (exhaustive")


def test_oracle_graph_found_emits_fixture_json(capsys):
    code, out, _ = run(capsys, "oracle", "--graph", "c4=1", "--mode", "graceful")
    assert code == 0
    obj = json.loads(out)
    assert obj["origin"] == "oracle"
    assert verify(from_json(json.dumps(obj))).ok


def test_oracle_max_label_above_top_matches_default(capsys):
    plain = run(capsys, "oracle", "--graph", "c4=1", "--mode", "graceful")
    capped = run(capsys, "oracle", "--graph", "c4=1", "--mode", "graceful", "--max-label", "7")
    assert capped == plain and plain[0] == 0
    assert json.loads(plain[1])["vanes"] == [[0, 3, 2, 4]]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["seq", "gen", "--kind", "skolem", "--order", "8", "--defect", "3"], "--defect"),
        (["seq", "gen", "--kind", "langford2d", "--defect", "2", "--order", "3"], "--order"),
        (["seq", "gen", "--kind", "twofold-skolem", "--order", "3", "--trimmed"], "--trimmed"),
        (["oracle", "--graph", "c3=2", "--mode", "graceful", "--seq-kind", "skolem"], "--seq-kind"),
        (["oracle", "--graph", "c3=2", "--mode", "graceful", "--order", "4"], "--order"),
        (["oracle", "--graph", "c3=2", "--mode", "graceful", "--defect", "1"], "--defect"),
        (["oracle", "--graph", "c3=2", "--mode", "graceful", "--all"], "--all"),
        (["oracle", "--seq-kind", "skolem", "--order", "4", "--mode", "graceful"], "--mode"),
        (["oracle", "--seq-kind", "skolem", "--order", "4", "--max-label", "0"], "--max-label"),
        (["oracle", "--seq-kind", "skolem", "--order", "4", "--budget", "10"], "--budget"),
    ],
)
def test_unread_option_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.strip().endswith(f"does not read {option}")


def test_oracle_budget_exit(capsys):
    code, out, _ = run(
        capsys, "oracle", "--graph", "c3=3,c4=3", "--mode", "graceful", "--budget", "3"
    )
    assert code == 4 and "budget" in out


def test_oracle_negative_budget_rejected(capsys):
    code, out, err = run(
        capsys, "oracle", "--graph", "c3=2", "--mode", "near-graceful", "--budget", "-1"
    )
    assert code == 3 and out == "" and "--budget" in err
    code, out, _ = run(
        capsys, "oracle", "--graph", "c3=2", "--mode", "near-graceful", "--budget", "0"
    )
    assert code == 4 and out.strip() == "budget exhausted after 1 nodes"


@pytest.mark.parametrize("max_label", ["0", "-1"])
def test_oracle_max_label_below_one_rejected(capsys, max_label):
    code, out, err = run(
        capsys, "oracle", "--graph", "c3=1", "--mode", "graceful", "--max-label", max_label
    )
    assert code == 3 and out == "" and "--max-label" in err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_oracle_seq_order_below_one_rejected(capsys, order):
    code, out, err = run(capsys, "oracle", "--seq-kind", "skolem", "--order", order)
    assert (code, out) == (3, "")
    assert err.strip() == f"error: --order must be >= 1, got {order}"


@pytest.mark.parametrize("tag", ["near-skolem", "hooked-near-skolem"])
def test_oracle_near_skolem_defect_above_order_rejected(capsys, tag):
    code, out, err = run(
        capsys, "oracle", "--seq-kind", tag, "--defect", "9", "--order", "3"
    )
    assert (code, out) == (3, "")
    assert err.strip() == "error: near-Skolem defect 9 exceeds order 3"


def test_oracle_negative_names_the_max_label_cut(capsys):
    # C4 is graceful, so a negative below its top label 4 comes from the cut
    code, out, _ = run(
        capsys, "oracle", "--graph", "c4=1", "--mode", "graceful", "--max-label", "3"
    )
    assert code == 0 and out.strip() == "none with labels up to 3 (exhaustive, 8 nodes)"
    code, out, _ = run(capsys, "oracle", "--graph", "c3=2", "--mode", "graceful")
    assert code == 0 and out.strip() == "none (exhaustive, 2 nodes)"
    capped = run(capsys, "oracle", "--graph", "c3=2", "--mode", "graceful", "--max-label", "6")
    assert capped[:2] == (0, out)


def test_label_search_budget_exit(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 100)
    sequences.langford_sequence.cache_clear()
    code, _, err = run(capsys, "label", "--graph", "c3=24,c5=8")
    assert code == 4 and "SearchBudgetExhausted" in err


def test_oracle_sequence(capsys):
    code, out, _ = run(
        capsys, "oracle", "--seq-kind", "hooked-skolem", "--order", "2", "--all"
    )
    assert code == 0 and out.strip() == "1,1,2,0,2"
    code, out, _ = run(capsys, "oracle", "--seq-kind", "skolem", "--order", "2")
    assert code == 0 and out.strip() == "none (exhaustive)"
    code, out, _ = run(
        capsys, "oracle", "--seq-kind", "langford", "--defect", "4", "--order", "1"
    )
    assert code == 0 and out.strip() == "none (exhaustive)"


def test_audit_csv(capsys):
    code, out, _ = run(capsys, "audit", "--t-max", "3", "--s-max", "30", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,s,rule"
    gaps = [line for line in lines if line.endswith(",GAP")]
    assert gaps == ["1,21,GAP", "1,25,GAP", "2,25,GAP", "3,20,GAP", "3,25,GAP"]


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "c3c4", "--t", "4..5", "--s", "0..2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,s,m,mode,rule,verified"
    assert len(lines) == 7
    assert all(line.endswith("True") for line in lines[1:])


def test_audit_text(capsys):
    code, out, _ = run(capsys, "audit", "--t-max", "1", "--s-max", "2")
    assert code == 0
    assert out.splitlines() == [
        "t=1 s=0: triangles-only",
        "t=1 s=1: twofold-direct",
        "t=1 s=2: base-case",
        "0 gap cells: []",
    ]


def test_audit_bad_bounds_print_nothing(capsys):
    code, out, err = run(capsys, "audit", "--t-max", "0", "--s-max", "5", "--csv")
    assert (code, out) == (2, "")
    assert "OutOfRange" in err


@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        (["oracle", "--graph", "c3=1"], 3, "error: oracle --graph needs --mode"),
        (["oracle"], 3, "error: oracle needs --graph or --seq-kind"),
        (["oracle", "--seq-kind", "skolem"], 3, "error: oracle --seq-kind needs --order"),
        (["seq", "gen", "--kind", "skolem"], 3, "error: skolem needs --order"),
        (["seq", "gen", "--kind", "langford2d"], 3, "error: langford2d needs --defect"),
        (["verify", "--file", "{missing}"], 3, "error: cannot read {missing}: "),
        (
            ["seq", "validate", "--file", "{missing}", "--kind", "skolem"],
            3,
            "error: cannot read {missing}: ",
        ),
        (
            ["audit", "--t-max", "3", "--s-max", "30"],
            0,
            "5 gap cells: [(1, 21), (1, 25), (2, 25), (3, 20), (3, 25)]",
        ),
    ],
)
def test_cli_exit_paths(capsys, tmp_path, argv, code, last_line):
    missing = tmp_path / "missing.json"
    got, out, err = run(capsys, *(arg.format(missing=missing) for arg in argv))
    assert got == code
    assert (out + err).splitlines()[-1].startswith(last_line.format(missing=missing))


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--t", "4", "--s", "0..1")
    assert code == 0
    assert out.splitlines() == [
        "t=4 s=0 m=12 graceful via triangles-only: ok",
        "t=4 s=1 m=16 graceful via twofold-direct: ok",
    ]


@pytest.mark.parametrize(
    "flags, before",
    [
        (["--csv"], ["t,s,m,mode,rule,verified", "4,0,12,graceful,triangles-only,True"]),
        ([], ["t=4 s=0 m=12 graceful via triangles-only: ok"]),
    ],
)
def test_sweep_streams_the_rows_before_a_failing_cell(capsys, monkeypatch, flags, before):
    label = families.label_c3c4

    def failing(t, s):
        if (t, s) == (4, 1):
            raise Unlabellable("no plan for t=4 s=1")
        return label(t, s)

    monkeypatch.setattr(families, "label_c3c4", failing)
    code, out, err = run(capsys, "sweep", "--t", "4..5", "--s", "0..2", *flags)
    assert code == 2
    assert out.splitlines() == before
    assert err == "error: Unlabellable: no plan for t=4 s=1\n"


def test_sweep_bad_range(capsys):
    code, out, err = run(capsys, "sweep", "--t", "x", "--s", "0..1")
    assert code == 3 and out == ""
    assert err == "error: bad range 'x'\n"
    # an empty range would check nothing, yet exit 0
    code, out, err = run(capsys, "sweep", "--t", "3..1", "--s", "0..2")
    assert code == 3 and out == ""
    assert err == "error: empty range '3..1'\n"


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["label", "--graph", "c5=200001"], "c5=200001 has 1000005 edges"),
        (["label", "--graph", "c3=5,c4=249997"], "c3=5,c4=249997 has 1000003 edges"),
        (["label", "--graph", f"c3={HUGE}"], f"c3={HUGE} has {3 * int(HUGE)} edges"),
        (["sweep", "--t", "1..5", "--s", "0..249997"], "cell t=5 s=249997 has 1000003 edges"),
        (
            ["sweep", "--t", HUGE, "--s", "0", "--csv"],
            f"cell t={HUGE} s=0 has {3 * int(HUGE)} edges",
        ),
        (
            ["seq", "gen", "--kind", "skolem", "--order", "500001"],
            "skolem --order 500001 gives up to 1000002 cells",
        ),
        (
            ["seq", "gen", "--kind", "hooked-skolem", "--order", "500000"],
            "hooked-skolem --order 500000 gives up to 1000001 cells",
        ),
        (
            ["seq", "gen", "--kind", "skolem", "--order", f"1{'0' * 20}"],
            f"skolem --order 1{'0' * 20} gives up to 2{'0' * 20} cells",
        ),
    ],
)
def test_sizes_above_the_cap_exit_2_before_building(capsys, argv, message):
    # past the cap a build overflows a list length, runs out of memory or runs
    # for minutes; the check answers before any row or sequence is printed
    assert cli._MAX_SIZE == 1_000_000
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: OutOfRange: {message}, above the limit of 1000000\n"


def test_sizes_at_the_cap_reach_the_builders(capsys, monkeypatch):
    # the builders are stubbed: at 10^6 edges a real build takes seconds and
    # hundreds of MB
    asked = []
    label_c5, label_c3c4 = families.label_c5, families.label_c3c4
    monkeypatch.setattr(families, "label_c5", lambda p: asked.append(p) or label_c5(1))
    monkeypatch.setattr(
        families, "label_c3c4", lambda t, s: asked.append((t, s)) or label_c3c4(1, 0)
    )
    option, _, cells = cli._GEN_KINDS["skolem"]
    monkeypatch.setitem(
        cli._GEN_KINDS,
        "skolem",
        (option, lambda n: asked.append(n) or sequences.gen_skolem(1), cells),
    )
    assert run(capsys, "label", "--graph", "c5=200000")[0] == 0
    assert run(capsys, "label", "--graph", "c3=4,c4=249997")[0] == 0
    assert run(capsys, "sweep", "--t", "4", "--s", "249996..249997")[0] == 0
    assert run(capsys, "seq", "gen", "--kind", "skolem", "--order", "500000") == (0, "1,1\n", "")
    assert asked == [200000, (4, 249997), (4, 249996), (4, 249997), 500000]


def test_cli_import_leaves_unneeded_modules_unloaded():
    # ``-S`` skips ``site``, whose ``.pth`` files may import some of these first
    script = """if True:
        import sys
        sys.path.insert(0, sys.argv[1])
        unneeded = {"dataclasses", "inspect", "typing", "importlib.resources", "random"}
        import windmills.cli
        assert not unneeded & set(sys.modules), sorted(unneeded & set(sys.modules))
        from windmills import families, sequences, windmill
        labelling, trace = families.label_c3c4(1, 21)
        assert trace.rule == "gap-fixture" and windmill.verify(labelling).ok
        assert sequences.langford_sequence(13, 32).order == 32
        assert {"importlib.resources", "random"} <= set(sys.modules)
    """
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, src], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_parser_reuse_leaks_no_state(capsys, tmp_path):
    # ``main`` builds its parser once per process; each call in a sequence
    # must still behave as it does with a freshly built parser
    near = tmp_path / "near.json"
    near.write_text(
        '{"spec": [{"cycle": 3, "count": 1}], "mode": "near-graceful", "vanes": [[0, 1, 3]]}'
    )
    calls = [
        ["label", "--graph", "c3=4", "--json"],
        ["label", "--graph", "c3=4"],
        ["oracle", "--graph", "c3=2,c4=1", "--mode", "graceful", "--budget", "5"],
        ["oracle", "--graph", "c3=2,c4=1", "--mode", "graceful"],
        ["verify", "--file", str(near), "--permissive-near"],
        ["verify", "--file", str(near)],
        ["label", "--json"],  # argparse error: --graph is required
        ["label", "--graph", "c3=4", "--json", "--dot"],  # argparse error: exclusive
        ["label", "--graph", "c3=4"],
        ["verify", "--file", str(near)],
        ["oracle", "--graph", "c3=2,c4=1", "--mode", "graceful"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(outcome(argv))
    cli._build_parser.cache_clear()
    together = [outcome(argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert together == alone
    codes = [code for code, _, _ in together]
    assert codes == [0, 0, 4, 0, 0, 1, ("exit", 2), ("exit", 2), 0, 1, 0]
    assert together[0][1].startswith("{") and together[1][1].startswith("c3=4  m=12  mode=graceful\n")
    assert together[2][1] == "budget exhausted after 6 nodes\n"
    assert together[3][1] == "none (exhaustive, 572 nodes)\n"
    assert together[4][1].startswith("ok (near-graceful, m=3) [permissive variant")
    assert together[5][1].startswith("FAILED (near-graceful, m=3)")


# sha256 over `label --json` of 1,484 C3, C5, C3C5 and C3C6 graphs, each with its exit code
LABEL_GRID = "8b9ca9b8ac7571381d5a968375a634650e1aa789100fc0a31fb905eac5988b5c"


def test_label_json_grid_is_pinned():
    graphs = [f"c3={t}" for t in range(1, 201)] + [f"c5={p}" for p in range(1, 151)]
    graphs += [f"c3={t},c5={p}" for p in range(1, 9) for t in range(1, 2 * p + 10)]
    graphs += [f"c3={t},c6={h}" for t in range(1, 31) for h in range(1, 2 * t + 3)]
    assert len(graphs) == 1484
    digest = hashlib.sha256()
    for graph in graphs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["label", "--graph", graph, "--json"])
        digest.update(f"{graph},{code}\n{out.getvalue()}{err.getvalue()}".encode())
    assert digest.hexdigest() == LABEL_GRID
