import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sensoraudit
from sensoraudit import cli, reports
from sensoraudit.cli import main
from sensoraudit.errors import (
    EXIT_BAD_DATA,
    EXIT_CONFIG,
    EXIT_MISSING_FILE,
    EXIT_OUTPUT_EXISTS,
    EXIT_TOO_SMALL,
    OutputExistsError,
)
from sensoraudit.ingest import Recording, RecordingSet
from sensoraudit.reports import artifact_names, write_dataset


def write_spec(path: Path, channel_count=3, classes=("alpha", "beta", "gamma"), windows=20, seed=3):
    channels = [
        {
            "classes": {
                c: {"kind": "tonic", "gain": 1.0 + 0.6 * i, "carrier_hz": 30.0}
                for i, c in enumerate(classes)
            }
        }
    ]
    spec = {
        "class_names": list(classes),
        "channel_count": channel_count,
        "windows_per_class": windows,
        "window_len_samples": 64,
        "trials_per_class": 2,
        "seed": seed,
        "channels": channels,
    }
    path.write_text(json.dumps(spec))
    return path


def fast_config(path: Path):
    path.write_text(
        json.dumps({"oracle": {"epochs": 30, "hidden_units": 16, "seed": 3}})
    )
    return path


def read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynthAndIngestCheck:
    def test_synth_writes_loadable_dataset(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(out)]) == 0
        assert (out / "dataset.json").is_file()
        assert main(["ingest-check", "--data", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "recordings" in printed and "alpha" in printed

    def test_synth_refuses_overwrite(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(out)]) == 0
        assert (
            main(["synth", "--synthetic", str(spec), "--out", str(out)])
            == EXIT_OUTPUT_EXISTS
        )
        assert (
            main(["synth", "--synthetic", str(spec), "--out", str(out), "--overwrite"])
            == 0
        )

    def test_ingest_check_missing_dataset(self, tmp_path, capsys):
        code = main(["ingest-check", "--data", str(tmp_path / "missing")])
        assert code == EXIT_MISSING_FILE
        assert "missing" in capsys.readouterr().err


def with_profile(spec, **changes):
    """The spec with ``changes`` made to channel 0's alpha profile."""
    channels = [{"classes": {**spec["channels"][0]["classes"]}}]
    channels[0]["classes"]["alpha"] = channels[0]["classes"]["alpha"] | changes
    return spec | {"channels": channels}


# Inputs of the wrong type or shape, each with the exit code it must give
# and a word its error must name: (where, value, exit code, named). "spec"
# values map the valid spec to a bad one; None makes the spec path a
# directory. "manifest", "csv" and "data-config" rows audit the dataset
# ``synth`` writes from the spec: "manifest" values are keys that replace
# those of its manifest, "csv" values map the bytes of its first trial file,
# and "data-config" values are the config. JSON writes NaN for
# float("nan"), and Python's reader accepts it.
NAN = float("nan")
BAD_INPUTS = {
    "entropy-bins-nan": ("config", {"features": {"entropy_bins": NAN}}, EXIT_CONFIG, "entropy_bins"),
    "sampen-m-float": ("config", {"features": {"sampen_m": 2.5}}, EXIT_CONFIG, "sampen_m"),
    "wavelet-levels-bool": ("config", {"features": {"wavelet_levels": True}}, EXIT_CONFIG, "wavelet_levels"),
    "config-list": ("config", [], EXIT_CONFIG, "ConfigFile"),
    "features-int": ("config", {"features": 3}, EXIT_CONFIG, "FeatureConfig"),
    "thresholds-int": ("config", {"thresholds": 5}, EXIT_CONFIG, "Thresholds"),
    "threshold-text": ("config", {"thresholds": {"criticality": "abc"}}, EXIT_CONFIG, "criticality"),
    "threshold-nan": ("config", {"thresholds": {"criticality": NAN}}, EXIT_CONFIG, "criticality"),
    "depth-float": ("config", {"ablation": {"combinatorial_depth": 1.5}}, EXIT_CONFIG, "combinatorial_depth"),
    "depth-bool": ("config", {"ablation": {"combinatorial_depth": True}}, EXIT_CONFIG, "combinatorial_depth"),
    "window-len-text": (
        "config",
        {"segmentation": {"window_len_samples": "40"}},
        EXIT_CONFIG,
        "window_len_samples",
    ),
    "epochs-float": ("config", {"oracle": {"epochs": 2.5}}, EXIT_CONFIG, "epochs"),
    "spec-list": ("spec", lambda spec: [], EXIT_CONFIG, "SyntheticSpec"),
    "spec-no-class-names": (
        "spec",
        lambda spec: {k: v for k, v in spec.items() if k != "class_names"},
        EXIT_CONFIG,
        "class_names",
    ),
    "channel-count-float": ("spec", lambda spec: spec | {"channel_count": 2.5}, EXIT_CONFIG, "channel_count"),
    "windows-per-class-text": (
        "spec",
        lambda spec: spec | {"windows_per_class": "8"},
        EXIT_CONFIG,
        "windows_per_class",
    ),
    "spec-directory": ("spec", None, EXIT_MISSING_FILE, "spec.json"),
    "depth-flag-zero": ("argv", ["--depth", "0"], EXIT_CONFIG, "combinatorial_depth"),
    "learning-rate-nan": ("config", {"oracle": {"learning_rate": NAN}}, EXIT_CONFIG, "learning_rate"),
    "trim-head-text": ("config", {"segmentation": {"trim_head_ms": "abc"}}, EXIT_CONFIG, "trim_head_ms"),
    "test-fraction-text": ("config", {"oracle": {"test_fraction": "x"}}, EXIT_CONFIG, "test_fraction"),
    "subsets-int": ("config", {"ablation": {"sensor_subsets": 5}}, EXIT_CONFIG, "sensor_subsets"),
    "subsets-float": ("config", {"ablation": {"sensor_subsets": [[1.5]]}}, EXIT_CONFIG, "sensor_subsets"),
    "ring-text": ("config", {"ablation": {"ring_topology": "abc"}}, EXIT_CONFIG, "ring_topology"),
    "ablation-classes-text": ("config", {"ablation": {"classes": "ab"}}, EXIT_CONFIG, "classes"),
    "enabled-features-int": ("config", {"features": {"enabled_features": 3}}, EXIT_CONFIG, "enabled_features"),
    "concat-text": (
        "config",
        {"segmentation": {"concat_trials_within_session": "no"}},
        EXIT_CONFIG,
        "concat_trials_within_session",
    ),
    "rate-nan": ("spec", lambda spec: spec | {"sampling_rate_hz": NAN}, EXIT_CONFIG, "sampling_rate_hz"),
    "gain-nan": ("spec", lambda spec: with_profile(spec, gain=NAN), EXIT_CONFIG, "gain"),
    "carrier-text": ("spec", lambda spec: with_profile(spec, carrier_hz="x"), EXIT_CONFIG, "carrier_hz"),
    "channels-int": ("spec", lambda spec: spec | {"channels": 5}, EXIT_CONFIG, "channels"),
    "profiles-int": ("spec", lambda spec: spec | {"channels": [{"classes": 5}]}, EXIT_CONFIG, "classes"),
    "class-name-int": ("spec", lambda spec: spec | {"class_names": ["alpha", 3]}, EXIT_CONFIG, "class_names"),
    "spec-seed-negative": ("spec", lambda spec: spec | {"seed": -1}, EXIT_CONFIG, "seed"),
    "seed-flag-negative": ("argv", ["--seed", "-1"], EXIT_CONFIG, "seed"),
    "manifest-rate-text": ("manifest", {"sampling_rate_hz": "abc"}, EXIT_BAD_DATA, "sampling_rate_hz"),
    "manifest-rate-nan": ("manifest", {"sampling_rate_hz": NAN}, EXIT_BAD_DATA, "sampling_rate_hz"),
    "manifest-channels-float": ("manifest", {"channel_count": 3.7}, EXIT_BAD_DATA, "channel_count"),
    "manifest-classes-text": ("manifest", {"class_names": "ab"}, EXIT_BAD_DATA, "class_names"),
    "learning-rate-huge": ("config", {"oracle": {"learning_rate": 1e300}}, EXIT_CONFIG, "learning_rate"),
    "trim-past-float-range": (
        "data-config",
        {"segmentation": {"trim_head_ms": 1e308}},
        EXIT_TOO_SMALL,
        "trim removes inf+",
    ),
    "csv-not-utf8": ("csv", lambda body: body + b"9,\xff,0,0\n", EXIT_BAD_DATA, "alpha_t00.csv: not UTF-8"),
    "csv-oversized-field": (
        "csv",
        lambda body: body.replace(b"\n", b"\n9," + b"x" * 200_000 + b",0,0\n", 1),
        EXIT_BAD_DATA,
        "alpha_t00.csv:2: field larger than field limit",
    ),
}


class TestComplexity:
    def test_three_pair_table(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "out"
        code = main(["complexity", "--synthetic", str(spec), "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "complexity.csv")
        assert len(rows) == 3
        assert max(float(r["normalized_fdr"]) for r in rows) == 1.0
        plot = read_csv(out / "complexity_plotdata.csv")
        assert {r["pair"] for r in plot} == {
            "alpha vs beta",
            "alpha vs gamma",
            "beta vs gamma",
        }
        payload = json.loads((out / "complexity.json").read_text())
        assert payload["config"]["schema_version"] == 1
        assert len(payload["one_vs_rest"]["pairs"]) == 3

    def test_missing_source_is_config_error(self, tmp_path, capsys):
        assert main(["complexity", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(
            ["complexity", "--synthetic", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_MISSING_FILE
        assert "nope.json" in capsys.readouterr().err

    def test_non_finite_feature_setting_is_config_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        for field in ("sampen_r_coeff", "zc_threshold", "ssc_threshold"):
            cfg = tmp_path / f"{field}.json"
            cfg.write_text(json.dumps({"features": {field: float("nan")}}))  # written as NaN
            code = main(
                ["complexity", "--synthetic", str(spec), "--config", str(cfg), "--out", str(tmp_path / field)]
            )
            assert code == EXIT_CONFIG
            assert field in capsys.readouterr().err
            assert not (tmp_path / field).exists()

    @pytest.mark.parametrize("where, value, code, named", BAD_INPUTS.values(), ids=BAD_INPUTS)
    def test_bad_input_is_a_typed_error(self, tmp_path, capsys, where, value, code, named):
        spec = write_spec(tmp_path / "spec.json")
        argv = ["full", "--synthetic", str(spec), "--out", str(tmp_path / "out")]
        if where in ("manifest", "csv", "data-config"):
            ds = tmp_path / "ds"
            assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
            argv = ["full", "--data", str(ds), "--out", str(tmp_path / "out")]
        if where in ("config", "data-config"):
            (tmp_path / "audit.json").write_text(json.dumps(value))
            argv += ["--config", str(tmp_path / "audit.json")]
        elif where == "spec" and value is None:
            spec.unlink()
            spec.mkdir()
        elif where == "spec":
            spec.write_text(json.dumps(value(json.loads(spec.read_text()))))
        elif where == "manifest":
            manifest = ds / "dataset.json"
            manifest.write_text(json.dumps(json.loads(manifest.read_text()) | value))
        elif where == "csv":
            victim = sorted(ds.rglob("*.csv"))[0]
            victim.write_bytes(value(victim.read_bytes()))
        else:
            argv += value
        assert main(argv) == code
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diverging_oracle_warns_nothing_under_default_filters(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        (tmp_path / "audit.json").write_text(json.dumps({"oracle": {"learning_rate": 1e300}}))
        argv = ["full", "--synthetic", str(spec), "--config", str(tmp_path / "audit.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert [str(w.message) for w in caught] == []
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_near_constant_channel_is_bad_data(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        flat = np.full(256, 3.0)
        flat[1::2] = np.nextafter(3.0, 4.0)
        rset = RecordingSet(
            [
                Recording(np.stack([rng.normal(size=256), flat]), label, "t0", "s0", "p0")
                for label in ("a", "b")
            ],
            200.0,
            ["a", "b"],
            2,
        )
        write_dataset(tmp_path / "ds", rset)
        cfg = tmp_path / "audit.json"
        segmentation = {"trim_head_ms": 0.0, "trim_tail_ms": 0.0, "window_len_samples": 64}
        cfg.write_text(json.dumps({"segmentation": segmentation}))
        out = tmp_path / "o"
        code = main(
            ["complexity", "--data", str(tmp_path / "ds"), "--config", str(cfg), "--out", str(out)]
        )
        assert code == EXIT_BAD_DATA
        err = capsys.readouterr().err
        assert "near-constant" in err and "entropy_bins" in err and "Traceback" not in err
        assert not out.exists()

    def test_single_class_too_few(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha",))
        code = main(["complexity", "--synthetic", str(spec), "--out", str(tmp_path / "o")])
        assert code == EXIT_TOO_SMALL
        assert "separability" in capsys.readouterr().err

    def test_class_with_no_windows_named_in_error(self, tmp_path, capsys):
        # one class's trials are shorter than a window after trimming
        from sensoraudit.ingest import Recording, RecordingSet
        from sensoraudit.reports import write_dataset
        import numpy as np

        rng = np.random.default_rng(0)
        rset = RecordingSet(
            [
                Recording(rng.normal(size=(2, 500)), "long", "t0", "s0", "p0"),
                Recording(rng.normal(size=(2, 500)), "long", "t1", "s0", "p0"),
                Recording(rng.normal(size=(2, 30)), "short", "t0", "s0", "p0"),
            ],
            200.0,
            ["long", "short"],
            2,
        )
        root = tmp_path / "ds"
        write_dataset(root, rset)
        cfg = tmp_path / "audit.json"
        cfg.write_text(
            json.dumps(
                {
                    "segmentation": {
                        "trim_head_ms": 0.0,
                        "trim_tail_ms": 0.0,
                        "window_len_samples": 64,
                        "overlap_fraction": 0.0,
                    }
                }
            )
        )
        code = main(
            ["ablate", "--data", str(root), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_TOO_SMALL
        assert "'short'" in capsys.readouterr().err

    def test_dump_features(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "out"
        assert (
            main(
                [
                    "complexity",
                    "--synthetic",
                    str(spec),
                    "--out",
                    str(out),
                    "--dump-features",
                ]
            )
            == 0
        )
        rows = read_csv(out / "features.csv")
        assert len(rows) == 60  # 3 classes x 20 windows
        assert "ch1_rms" in rows[0]
        columns = json.loads((out / "columns.json").read_text())
        assert len(columns["columns"]) == 27


class TestAblate:
    def test_depth_two_subset_count(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", channel_count=8)
        out = tmp_path / "out"
        code = main(
            ["ablate", "--synthetic", str(spec), "--out", str(out), "--depth", "2"]
        )
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        subsets = {r["subset"] for r in rows}
        assert len(subsets) == 8 + 28
        ranking = read_csv(out / "ranking.csv")
        assert len(ranking) == 8
        assert [r["rank"] for r in ranking] == [str(i) for i in range(1, 9)]

    def test_metric_flag_accepts_f1_only(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "out"
        assert main(["ablate", "--synthetic", str(spec), "--out", str(out), "--metric", "f1"]) == 0
        payload = json.loads((out / "ablation.json").read_text())
        assert payload["shift_metric"] == "f1"
        assert payload["advice"].keys() == {
            "reinforce_critical_components",
            "implement_graceful_degradation",
            "optimise_for_efficiency",
        }
        for metric in ("f2", "f3"):
            with pytest.raises(SystemExit) as exc:
                main(["ablate", "--synthetic", str(spec), "--out", str(out), "--metric", metric])
            assert exc.value.code == EXIT_CONFIG
            cfg = tmp_path / f"{metric}.json"
            cfg.write_text(json.dumps({"ablation": {"shift_metric": metric}}))
            argv = ["ablate", "--synthetic", str(spec), "--config", str(cfg), "--out", str(tmp_path / metric)]
            assert main(argv) == EXIT_CONFIG
            assert "unknown AblationSpec fields: shift_metric" in capsys.readouterr().err
            assert not (tmp_path / metric).exists()

    def test_ablated_classes_alone_get_features(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "spec.json")
        cfg = tmp_path / "audit.json"
        cfg.write_text(
            json.dumps({"ablation": {"classes": ["gamma", "alpha"]}, "oracle": {"epochs": 30}})
        )
        source = ["--synthetic", str(spec), "--config", str(cfg)]
        assert main(["full", *source, "--out", str(tmp_path / "full")]) == 0
        counted = []
        build = cli.build_class_matrices

        def counting(windows, *args):
            counted.append((sorted(set(windows.labels)), len(windows)))
            return build(windows, *args)

        monkeypatch.setattr(cli, "build_class_matrices", counting)
        assert main(["ablate", *source, "--out", str(tmp_path / "ablate")]) == 0
        assert counted == [(["alpha", "gamma"], 40)]  # 20 windows per class
        for path in (tmp_path / "ablate").iterdir():
            assert path.read_bytes() == (tmp_path / "full" / path.name).read_bytes()

    @pytest.mark.parametrize("command", ["ablate", "full"])
    def test_zero_window_constants_computed_once(self, tmp_path, monkeypatch, command):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        calls = []
        compute = cli.zero_window_features

        def counting(*args):
            calls.append(args)
            return compute(*args)

        monkeypatch.setattr(cli, "zero_window_features", counting)
        argv = [command, "--synthetic", str(spec), "--config", str(cfg), "--depth", "3"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        assert calls[0][1:] == (64, 200.0)  # the run's window length and rate

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_every_channel_is_scored_at_every_depth(self, tmp_path, depth):
        spec = write_spec(tmp_path / "spec.json", channel_count=4)
        out = tmp_path / "out"
        assert main(["ablate", "--synthetic", str(spec), "--out", str(out), "--depth", str(depth)]) == 0
        payload = json.loads((out / "ablation.json").read_text())
        for values in [*payload["normalized_criticality"].values(), payload["mean_criticality"]]:
            assert len(values) == 4 and all(isinstance(v, float) for v in values)
        for label in ("alpha", "beta", "gamma"):
            rows = read_csv(out / f"criticality_{label}.csv")
            assert [r["sensor"] for r in rows] == ["0", "1", "2", "3"]
            assert all(float(r["normalized_criticality"]) >= 0.0 for r in rows)

    def test_overwrite_refusal(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "out"
        assert main(["ablate", "--synthetic", str(spec), "--out", str(out)]) == 0
        assert (
            main(["ablate", "--synthetic", str(spec), "--out", str(out)])
            == EXIT_OUTPUT_EXISTS
        )


def write_noise_spec(path: Path, gain: float) -> Path:
    spec = {
        "class_names": ["a", "b"],
        "channel_count": 2,
        "windows_per_class": 8,
        "window_len_samples": 128,
        "trials_per_class": 2,
        "seed": 0,
        "channels": [{"default": {"kind": "noise", "gain": gain}}, {}],
    }
    path.write_text(json.dumps(spec))
    return path


class TestHugeAmplitudes:
    @pytest.mark.parametrize("gain", [1e140, 1e152])
    def test_full_audit_has_no_nan(self, tmp_path, gain):
        spec = write_noise_spec(tmp_path / "spec.json", gain)
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(fast_config(tmp_path / "c.json"))]
        assert main(argv + ["--out", str(out)]) == 0
        for path in out.iterdir():
            assert not re.search(r"\bnan\b", path.read_text(), re.IGNORECASE), path.name
        assert float(read_csv(out / "complexity.csv")[0]["f1"]) > 0.0

    def test_rms_and_sign_counts_stay_finite(self, tmp_path):
        # rms read inf at this gain, and the run exited 4
        spec = write_noise_spec(tmp_path / "spec.json", 1e155)
        cfg = tmp_path / "c.json"
        features = ["rms", "waveform_length", "zero_crossings", "slope_sign_changes"]
        cfg.write_text(json.dumps({"features": {"enabled_features": features}}))
        out = tmp_path / "out"
        argv = ["complexity", "--synthetic", str(spec), "--config", str(cfg), "--dump-features"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out / "features.csv")
        assert all(math.isfinite(float(r["ch1_rms"])) and float(r["ch1_rms"]) > 1e154 for r in rows)
        assert all(float(r["ch1_zero_crossings"]) > 0.0 for r in rows)

    # wavelet_energy's squares overflow at this gain (that energy exceeds
    # float64) before fractal_dimension refuses the window
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_fractal_dimension_overflow_is_bad_data(self, tmp_path, capsys):
        spec = write_noise_spec(tmp_path / "spec.json", 1e154)
        out = tmp_path / "out"
        assert main(["full", "--synthetic", str(spec), "--out", str(out)]) == EXIT_BAD_DATA
        err = capsys.readouterr().err
        assert "error [features]: fractal_dimension" in err and "overflows" in err
        assert not out.exists()


class TestUnsafeClassLabels:
    def tree(self, root: Path) -> set[Path]:
        return {p for p in root.rglob("*")}

    def test_synthetic_label_cannot_escape_out(self, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        spec = write_spec(work / "spec.json", classes=("alpha", "../../../escaped"))
        before = self.tree(tmp_path)
        out = work / "a" / "b"
        code = main(["ablate", "--synthetic", str(spec), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "escaped" in capsys.readouterr().err
        assert self.tree(tmp_path) == before

    def test_manifest_label_is_bad_data(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        manifest = json.loads((ds / "dataset.json").read_text())
        manifest["class_names"].append("../escaped")
        (ds / "dataset.json").write_text(json.dumps(manifest))
        before = self.tree(tmp_path)
        code = main(["ablate", "--data", str(ds), "--out", str(tmp_path / "a" / "b")])
        assert code == EXIT_BAD_DATA
        assert "escaped" in capsys.readouterr().err
        assert self.tree(tmp_path) == before


class TestOracleCmd:
    def test_validation_join(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        code = main(
            [
                "oracle",
                "--synthetic",
                str(spec),
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        oracle_rows = read_csv(out / "oracle.csv")
        validation_rows = read_csv(out / "validation.csv")
        assert len(oracle_rows) == 3 and len(validation_rows) == 3
        for row in oracle_rows:
            assert -1.0 <= float(row["mcc"]) <= 1.0
            assert row["seed"] == "3"
        for row in validation_rows:
            assert 0.0 <= float(row["normalized_fdr"]) <= 1.0

    def test_echoes_the_seed_it_trained_with(self, tmp_path):
        # without --seed the spec's seed trains the oracle, not the config's 3
        spec = write_spec(tmp_path / "spec.json", seed=5)
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        assert main(["oracle", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["config"]["seed"] == 5
        assert payload["config"]["oracle"]["seed"] == 5
        assert {r["seed"] for r in payload["results"]} == {5}


class TestFull:
    def run_full(self, tmp_path, out_name, jobs=1, seed=11):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / out_name
        code = main(
            [
                "full",
                "--synthetic",
                str(spec),
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--seed",
                str(seed),
                "--jobs",
                str(jobs),
            ]
        )
        assert code == 0
        return out

    def artifact_blobs(self, out: Path):
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    def test_all_artifacts_present_and_schema_valid(self, tmp_path):
        out = self.run_full(tmp_path, "out")
        expected = {
            "complexity.csv",
            "complexity.json",
            "complexity_plotdata.csv",
            "ablation.json",
            "ablation.csv",
            "ranking.csv",
            "neighbour_compensation.csv",
            "criticality_alpha.csv",
            "criticality_beta.csv",
            "criticality_gamma.csv",
            "oracle.csv",
            "oracle.json",
            "validation.csv",
            "audit_summary.json",
        }
        assert expected.issubset(set(self.artifact_blobs(out)))
        summary = json.loads((out / "audit_summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["config"]["seed"] == 11
        assert summary["classes"] == ["alpha", "beta", "gamma"]
        assert summary["window_counts"]["alpha"] == 20
        assert len(summary["oracle"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        a = self.run_full(tmp_path, "out_a")
        b = self.run_full(tmp_path, "out_b")
        assert self.artifact_blobs(a) == self.artifact_blobs(b)

    def test_jobs_do_not_change_artifacts(self, tmp_path):
        a = self.run_full(tmp_path, "out_serial", jobs=1)
        b = self.run_full(tmp_path, "out_threads", jobs=8)
        assert self.artifact_blobs(a) == self.artifact_blobs(b)


class TestRestHandling:
    def test_rest_excluded_by_default(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha", "beta", "rest"))
        out = tmp_path / "out"
        assert main(["complexity", "--synthetic", str(spec), "--out", str(out)]) == 0
        rows = read_csv(out / "complexity.csv")
        classes = {r["target"] for r in rows} | {r["reference"] for r in rows}
        assert "rest" not in classes

    def test_include_rest_flag(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha", "beta", "rest"))
        out = tmp_path / "out"
        assert (
            main(
                [
                    "complexity",
                    "--synthetic",
                    str(spec),
                    "--out",
                    str(out),
                    "--include-rest",
                ]
            )
            == 0
        )
        rows = read_csv(out / "complexity.csv")
        assert len(rows) == 3  # all three classes audited pairwise


# the writers the CLI calls, each returning what it wrote; write_json
# writes the summary and returns nothing
WRITERS = (
    "write_complexity",
    "write_ablation",
    "write_oracle",
    "write_validation",
    "write_feature_matrices",
    "write_json",
)


class TestRunner:
    @pytest.mark.parametrize(
        "command, dump",
        [
            ("complexity", False),
            ("complexity", True),
            ("ablate", False),
            ("oracle", False),
            ("full", False),
            ("full", True),
        ],
    )
    def test_writes_exactly_the_table_names(self, tmp_path, monkeypatch, command, dump):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = [command, "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        # what each writer returns, and write_json's path: what a caller counts
        written = []

        def recording(write):
            def recorded(*args):
                result = write(*args)
                paths = [args[0]] if result is None else result if isinstance(result, list) else [result]
                written.extend(Path(p).name for p in paths)
                return result

            return recorded

        for name in WRITERS:
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        assert main(argv + (["--dump-features"] if dump else [])) == 0
        stages = cli.COMMANDS[command][1]
        groups = [*stages, *(["summary"] if command == "full" else []), *(["features"] if dump else [])]
        expected = artifact_names(groups, ["alpha", "beta", "gamma"])
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)
        assert sorted(written) == sorted(expected)

    def test_each_payload_is_built_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name, build):
            def counted(*args):
                calls[name] += 1
                return build(*args)

            return counted

        for name in ("complexity_payload", "ablation_payload", "oracle_payload", "_advice"):
            build = counting(name, getattr(reports, name))
            monkeypatch.setattr(reports, name, build)
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, build)
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        assert main(["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]) == 0
        # one build per audit mode for complexity, one for each other group
        assert calls == {"complexity_payload": 2, "ablation_payload": 1, "oracle_payload": 1, "_advice": 1}
        summary = json.loads((out / "audit_summary.json").read_text())
        complexity = json.loads((out / "complexity.json").read_text())
        assert {k: complexity[k] for k in ("one_vs_one", "one_vs_rest")} == summary["complexity"]
        assert json.loads((out / "ablation.json").read_text()) == summary["ablation"]
        assert json.loads((out / "oracle.json").read_text())["results"] == summary["oracle"]

    @pytest.mark.parametrize("command", ["ablate", "oracle"])
    def test_dump_features_is_not_accepted(self, tmp_path, command):
        with pytest.raises(SystemExit):
            main([command, "--synthetic", "s.json", "--dump-features"])

    def test_overwrite_refusal_comes_before_features(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "out"
        assert main(["complexity", "--synthetic", str(spec), "--out", str(out)]) == 0

        def fail(*args, **kwargs):
            raise AssertionError("features were computed")

        monkeypatch.setattr(cli, "build_class_matrices", fail)
        code = main(["complexity", "--synthetic", str(spec), "--out", str(out)])
        assert code == OutputExistsError.exit_code

    def test_failed_write_leaves_out_unchanged(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")}
        written = []
        write_complexity = cli.write_complexity

        def recorded_write_complexity(*args):
            written.extend(write_complexity(*args))
            return written

        def fail(*args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "write_complexity", recorded_write_complexity)
        monkeypatch.setattr(cli, "write_ablation", fail)
        # a different seed changes every artifact, so a leaked file would show
        with pytest.raises(RuntimeError, match="disk full"):
            main(argv + ["--overwrite", "--seed", "12"])
        assert written and all(not p.exists() for p in written)
        assert {p: p.read_bytes() for p in out.rglob("*")} == before

    def test_failed_write_removes_the_out_it_created(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path / "spec.json")

        def fail(*args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "write_complexity", fail)
        with pytest.raises(RuntimeError):
            main(["complexity", "--synthetic", str(spec), "--out", str(tmp_path / "a" / "b")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_readme_config_example_is_the_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Audit configuration", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert cli.ConfigFile.from_json_dict(block) == cli.ConfigFile()
    assert cli.ConfigFile().to_json_dict() == block


@pytest.mark.parametrize("runner", [[], ["-m", "cProfile", "-o", "run.prof"]], ids=["plain", "cProfile"])
def test_python_m_sensoraudit_runs_the_cli(tmp_path, runner):
    spec = write_spec(tmp_path / "spec.json")
    src = str(Path(sensoraudit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["ablate", "--synthetic", str(spec), "--depth", "2"]
    proc = subprocess.run(
        [sys.executable, *runner, "-m", "sensoraudit", *argv, "--out", "out"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    for path in (tmp_path / "in_process").iterdir():
        assert (tmp_path / "out" / path.name).read_bytes() == path.read_bytes()
    bad = subprocess.run(
        [sys.executable, "-m", "sensoraudit", "ablate", "--synthetic", "missing.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert bad.returncode == EXIT_MISSING_FILE and "SyntheticSpec not found" in bad.stderr
