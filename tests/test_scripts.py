import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_synthetic_audit_demo_runs(tmp_path, capsys):
    demo = load_script("run_synthetic_audit")
    assert demo.run(tmp_path, 0) == 0
    printed = capsys.readouterr().out
    assert "sensor criticality ranking" in printed
    ranking = json.loads((tmp_path / "audit_summary.json").read_text())["ablation"]["ranking"]
    assert sorted(ranking) == list(range(6))


def test_fdr_vs_mcc_sweep_runs(tmp_path, capsys):
    sweep = load_script("fdr_vs_mcc_sweep")
    out = tmp_path / "sweep.csv"
    assert sweep.main(["--seeds", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "gain_gap,seed,pair,raw_fdr,mcc,kendall_tau"
    assert len(rows) == 1 + len(sweep.GAPS) * 3  # one row per (gap, pair) at one seed
    assert "mean tau" in capsys.readouterr().out


def test_sampen_cost_runs(capsys):
    cost = load_script("sampen_cost")
    bitsets = cost.sampen.bitsets
    assert cost.main(["--widths", "64,90", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["W", "rows"]
    assert [line.split()[:2] for line in lines[1:3]] == [["64", "256"], ["90", "182"]]
    assert all(float(v) > 0 for line in lines[1:3] for v in line.split()[2:5])
    assert cost.sampen.bitsets is bitsets  # the timing wrapper is removed


def test_ranking_scorecard_runs(monkeypatch, capsys):
    card = load_script("ranking_scorecard")
    monkeypatch.setitem(card.SEED_SETS, "dev", (7,))
    assert card.main(["--sizes", "smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeds: dev (1)"
    assert lines[1].split() == ["workload", "size", "runs", "fdr", "mcc", "tonic"]
    rows = [line.split() for line in lines[2:5]]
    assert [row[:3] for row in rows] == [[name, "smoke", "1"] for name in card.workloads.WORKLOADS]
    assert all(row[3:] == ["1", "1", "1"] for row in rows)  # seed 7 passes, as in perfbench's own test
    assert lines[5] == "failed rules: 0"


def test_pairs_short_seed_24_ranks_every_tonic_channel_first(tmp_path):
    # at timed size, scored against the all-zero window, noise ch10 ranked
    # above tonic ch3 (worst tonic rank 7, best noise rank 6)
    card = load_script("ranking_scorecard")
    assert card.failed_rules(card.workloads.WORKLOADS["pairs-short"], 24, False, tmp_path) == {}
