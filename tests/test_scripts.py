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
