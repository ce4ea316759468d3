"""Where the typed-JSON config layer lives: ``sensoraudit.config`` defines
it, and no module takes it from ``ingest``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sensoraudit"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def defined(module: ast.Module) -> set[str]:
    """The names a module's top-level functions, classes and assignments bind."""
    names = set()
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def imports_from(module: ast.Module, target: str) -> set[str]:
    """The names ``module`` imports from ``sensoraudit.<target>``, with
    ``"*"`` for the module itself (``from . import target``,
    ``import sensoraudit.target``)."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom):
            source = ("sensoraudit." if node.level else "") + (node.module or "")
            if source == f"sensoraudit.{target}":
                names |= {a.name for a in node.names}
            elif source in ("sensoraudit", "sensoraudit.") and target in {a.name for a in node.names}:
                names.add("*")
        elif isinstance(node, ast.Import):
            if any(a.name == f"sensoraudit.{target}" for a in node.names):
                names.add("*")
    return names


LAYER = defined(tree(PACKAGE / "config.py"))


def test_the_layer_is_defined_in_config_alone():
    assert {"JsonConfig", "FrozenMap", "check_type"} <= LAYER
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "config.py":
            assert not defined(tree(path)) & LAYER, path.name


def test_no_config_name_is_taken_from_ingest():
    found = []
    for path in SOURCES:
        module = tree(path)
        names = imports_from(module, "ingest") & LAYER
        names |= {  # ingest.JsonConfig and the like
            node.attr
            for node in ast.walk(module)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ingest"
            and node.attr in LAYER
        }
        found += [f"{path.relative_to(ROOT).as_posix()}: {name}" for name in sorted(names)]
    assert found == []


@pytest.mark.parametrize("name", ["oracle.py", "ablation.py"])
def test_oracle_and_ablation_do_not_import_ingest(name):
    assert imports_from(tree(PACKAGE / name), "ingest") == set()
