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
