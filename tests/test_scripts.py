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
