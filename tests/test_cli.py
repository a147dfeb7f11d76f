import json

import pytest

from windmills import families, sequences
from windmills.cli import main
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


def test_oracle_graph_none(capsys):
    code, out, _ = run(capsys, "oracle", "--graph", "c3=2", "--mode", "graceful")
    assert code == 0 and out.startswith("none (exhaustive")


def test_oracle_graph_found_emits_fixture_json(capsys):
    code, out, _ = run(capsys, "oracle", "--graph", "c4=1", "--mode", "graceful")
    assert code == 0
    obj = json.loads(out)
    assert obj["origin"] == "oracle"
    assert verify(from_json(json.dumps(obj))).ok


def test_oracle_budget_exit(capsys):
    code, out, _ = run(
        capsys, "oracle", "--graph", "c3=3,c4=3", "--mode", "graceful", "--budget", "3"
    )
    assert code == 4 and "budget" in out


def test_label_search_budget_exit(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "_SEARCH_NODE_BUDGET", 100)
    sequences.langford_sequence.cache_clear()
    families._straddling_hooked.cache_clear()
    code, _, err = run(capsys, "label", "--graph", "c3=24,c5=8")
    assert code == 4 and "SearchBudgetExhausted" in err


def test_oracle_sequence(capsys):
    code, out, _ = run(
        capsys, "oracle", "--seq-kind", "hooked-skolem", "--order", "2", "--all"
    )
    assert code == 0 and out.strip() == "1,1,2,0,2"
    code, out, _ = run(capsys, "oracle", "--seq-kind", "skolem", "--order", "2")
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
