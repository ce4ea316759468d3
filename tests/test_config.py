"""The typed-JSON config layer: ``sensoraudit.config`` defines it, no
module takes it from ``ingest``, and every config built on it is frozen."""

import ast
import copy
import dataclasses
from pathlib import Path

import pytest

from test_ingest import ALL_CONFIGS, CONFIGS, REQUIRED

from sensoraudit.ablation import AblationSpec
from sensoraudit.features import FeatureConfig
from sensoraudit.synthetic import ChannelProfile, ChannelSpec, SyntheticSpec

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


# Constructor arguments that are lists and dicts, for every config with a
# sequence or mapping field.
MUTABLE_ARGS = {
    AblationSpec: {"classes": ["a"], "ring_topology": [2, 0, 1]},
    ChannelSpec: {"classes": {"a": ChannelProfile(kind="tonic")}},
    FeatureConfig: {"enabled_features": ["rms", "zero_crossings"]},
    SyntheticSpec: {"class_names": ["a", "b"], "channel_count": 3, "channels": [ChannelSpec()]},
}


class TestFrozenConfigs:
    @pytest.mark.parametrize("cls", ALL_CONFIGS, ids=lambda c: c.__name__)
    def test_every_config_is_frozen(self, cls):
        config = cls.from_json_dict(REQUIRED.get(cls, {}))
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))

    @pytest.mark.parametrize("cls, args", MUTABLE_ARGS.items(), ids=[c.__name__ for c in MUTABLE_ARGS])
    def test_building_leaves_the_arguments_unmodified(self, cls, args):
        before = copy.deepcopy(args)
        cls(**args)
        assert args == before

    def test_lists_are_stored_as_tuples(self):
        spec = AblationSpec(**MUTABLE_ARGS[AblationSpec])
        assert type(spec.classes) is tuple and type(spec.ring_topology) is tuple
        assert spec.ring_topology == (2, 0, 1)
        assert FeatureConfig(enabled_features=["rms"]).enabled_features == ("rms",)
        assert type(SyntheticSpec(**MUTABLE_ARGS[SyntheticSpec]).channels) is tuple

    def test_objects_are_stored_read_only_and_hashable(self):
        spec = CONFIGS[6]
        assert hash(spec) == hash(copy.deepcopy(spec))
        assert len({spec, SyntheticSpec.from_json_dict(spec.to_json_dict())}) == 1
        with pytest.raises(TypeError):
            spec.channels[0].classes["x"] = ChannelProfile()
        assert list(spec.channels[0].classes) == ["b"]
