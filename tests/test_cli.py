import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from run_synthetic_audit import DEMO_SPEC

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
from sensoraudit.features import FEATURE_NAMES
from sensoraudit.ingest import Recording, RecordingSet
from sensoraudit.reports import artifact_names, write_dataset
from sensoraudit.separability import F1_CAP
from sensoraudit.synthetic import SyntheticSpec


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


def demo_root(tmp_path: Path) -> Path:
    """The demo spec of scripts/run_synthetic_audit.py written by ``synth --seed 3``."""
    spec = tmp_path / "demo.json"
    spec.write_text(json.dumps(DEMO_SPEC))
    ds = tmp_path / "ds"
    assert main(["synth", "--synthetic", str(spec), "--out", str(ds), "--seed", "3"]) == 0
    return ds


def zero_channel(paths, first_row=0, column=6):
    """Set one channel (ch6 by default; column 0 is t) to 0.0 in each trial
    CSV of ``paths``, from data row ``first_row`` on; returns ``paths``."""
    for path in paths:
        lines = path.read_text().splitlines()
        for i in range(1 + first_row, len(lines)):
            cells = lines[i].split(",")
            cells[column] = "0.0"
            lines[i] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    return paths


DEAD_GRIP_CH6 = (
    "ch6 is flat after trim in every recording of class 'grip' (synthetic/s00/t00, "
    "synthetic/s00/t01, synthetic/s00/t02, synthetic/s00/t03): a dead sensor there "
    "would separate the failure, not the class"
)


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

    def test_synth_refuses_trial_files_it_would_overwrite(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        out = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(out)]) == 0
        (out / "dataset.json").unlink()
        trials = sorted(out.glob("*/*/*.csv"))
        before = {p: p.read_bytes() for p in trials}
        argv = ["synth", "--synthetic", str(spec), "--out", str(out), "--seed", "5"]
        assert main(argv) == EXIT_OUTPUT_EXISTS
        assert f"refusing to overwrite {trials[0]}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_synth_refuses_a_root_with_trials_it_would_not_write(self, tmp_path, capsys):
        four = json.loads(write_spec(tmp_path / "four.json").read_text()) | {"trials_per_class": 4}
        (tmp_path / "four.json").write_text(json.dumps(four))
        two = write_spec(tmp_path / "two.json")
        out, fresh = tmp_path / "ds", tmp_path / "fresh"
        assert main(["synth", "--synthetic", str(tmp_path / "four.json"), "--out", str(out)]) == 0
        assert main(["synth", "--synthetic", str(two), "--out", str(fresh)]) == 0
        new = {p.relative_to(fresh) for p in fresh.glob("*/*/*.csv")}
        stale = sorted(p for p in out.glob("*/*/*.csv") if p.relative_to(out) not in new)
        assert len(new) == 6 and len(stale) == 6

        def files():
            return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        argv = ["synth", "--synthetic", str(two), "--out", str(out)]
        refusal = f"refusing to write a dataset into {out}: it holds {stale[0]}, which is not part of the new dataset"
        before = files()
        capsys.readouterr()
        assert main(argv + ["--overwrite"]) == EXIT_OUTPUT_EXISTS
        assert refusal in capsys.readouterr().err
        assert files() == before
        # without --overwrite too, once nothing the new set writes is in the way
        for path in [out / "dataset.json", *(out / name for name in new)]:
            path.unlink()
        before = files()
        assert main(argv) == EXIT_OUTPUT_EXISTS
        assert refusal in capsys.readouterr().err
        assert files() == before

    @pytest.mark.parametrize(
        "argv",
        [["complexity", "--out", "afile"], ["complexity", "--out", "afile/sub"], ["synth", "--out", "afile"]],
        ids=["audit", "audit-below-file", "synth"],
    )
    def test_out_below_a_file_is_config_error(self, tmp_path, capsys, argv):
        spec = write_spec(tmp_path / "spec.json")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        argv[-1] = str(tmp_path / argv[-1])
        assert main([argv[0], "--synthetic", str(spec), *argv[1:]]) == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"

    # mkdir raised FileExistsError on the link itself: exit 1 with a traceback
    @pytest.mark.parametrize(
        "command, out",
        [("full", "link"), ("full", "link/sub"), ("synth", "link")],
        ids=["audit", "audit-below-link", "synth"],
    )
    def test_out_through_a_dangling_symlink_is_config_error(self, tmp_path, capsys, command, out):
        spec = write_spec(tmp_path / "spec.json")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing" / "target")
        argv = [command, "--synthetic", str(spec), "--out", str(tmp_path / out)]
        assert main(argv) == EXIT_CONFIG
        assert f"{link} is not a directory" in capsys.readouterr().err
        assert link.is_symlink() and not (tmp_path / "missing").exists()

    def test_ingest_check_refuses_a_repeated_class_name(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        manifest = json.loads((ds / "dataset.json").read_text())
        manifest["class_names"].append("alpha")
        (ds / "dataset.json").write_text(json.dumps(manifest))
        assert main(["ingest-check", "--data", str(ds)]) == EXIT_BAD_DATA
        captured = capsys.readouterr()
        assert "class_names repeats 'alpha'" in captured.err
        assert "ok:" not in captured.out

    def test_ingest_check_missing_dataset(self, tmp_path, capsys):
        code = main(["ingest-check", "--data", str(tmp_path / "missing")])
        assert code == EXIT_MISSING_FILE
        assert "missing" in capsys.readouterr().err

    # ch6 (channel index 5) set to 0.0 in the first `trials` grip trials of
    # the demo spec, from data row `first_row` on; the head trim drops row 0.
    # Flat in every grip trial, it is a dead sensor of that class
    @pytest.mark.parametrize(
        "trials, first_row, code",
        [(4, 0, EXIT_BAD_DATA), (2, 0, 0), (4, 1, EXIT_BAD_DATA)],
        ids=["every-grip-trial", "two-grip-trials", "flat-after-trim-only"],
    )
    def test_ingest_check_lists_channels_flat_after_trim(self, tmp_path, capsys, trials, first_row, code):
        ds = demo_root(tmp_path)
        capsys.readouterr()
        assert main(["ingest-check", "--data", str(ds)]) == 0
        clean = capsys.readouterr().out
        assert "flat" not in clean
        zeroed = zero_channel(sorted(ds.glob("*/*/grip_*.csv"))[:trials], first_row)
        assert main(["ingest-check", "--data", str(ds)]) == code
        printed, err = capsys.readouterr()
        listed = [line for line in printed.splitlines() if line.startswith("flat:")]
        # 200 Hz, 600 ms trimmed from each end
        length = len(zeroed[0].read_text().splitlines()) - 1 - 2 * 120
        assert listed == [
            f"flat: ch6 in grip trial synthetic/s00/{path.stem.split('_')[1]} "
            f"({length} trimmed samples, all 0.0)"
            for path in zeroed
        ]
        assert printed.replace("".join(f"{line}\n" for line in listed), "") == clean
        assert err == ("" if code == 0 else f"error [ingest]: {DEAD_GRIP_CH6}\n")

    def test_ingest_check_lists_no_channel_of_one_trimmed_sample(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json")
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        rows = len(sorted(ds.glob("*/*/*.csv"))[0].read_text().splitlines()) - 1
        cfg = tmp_path / "audit.json"  # 200 Hz: 5 ms a sample
        cfg.write_text(json.dumps({"segmentation": {"trim_head_ms": 5.0 * (rows - 1), "trim_tail_ms": 0.0}}))
        capsys.readouterr()
        assert main(["ingest-check", "--data", str(ds), "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "alpha: 0 windows" in printed and "flat" not in printed

    @pytest.mark.parametrize("command", ["ingest-check", "full"])
    @pytest.mark.parametrize("entry", ["directory", "dangling-symlink"])
    def test_trial_entry_that_is_not_a_file_is_missing_file(self, tmp_path, capsys, command, entry):
        spec = write_spec(tmp_path / "spec.json")
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        victim = sorted(ds.rglob("*.csv"))[0]
        victim.unlink()
        if entry == "directory":
            victim.mkdir()
        else:
            victim.symlink_to(tmp_path / "missing.csv")
        argv = [command, "--data", str(ds)]
        if command == "full":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_MISSING_FILE
        assert f"trial file not found: {victim}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # JSON inputs that are not UTF-8 text or not JSON: (file, bytes, exit code)
    @pytest.mark.parametrize(
        "where, text, code",
        [
            ("manifest", b'{"channel_count": 3\xff}', EXIT_BAD_DATA),
            ("manifest", b'{"channel_count": 3', EXIT_BAD_DATA),
            ("config", b'{"oracle": {"epochs": 30}}\xff', EXIT_CONFIG),
            ("config", b'{"oracle": ', EXIT_CONFIG),
            ("spec", b"\xff{}", EXIT_CONFIG),
        ],
        ids=["manifest-not-utf8", "manifest-not-json", "config-not-utf8", "config-not-json", "spec-not-utf8"],
    )
    def test_json_input_that_is_not_utf8_json_is_a_typed_error(self, tmp_path, capsys, where, text, code):
        spec = write_spec(tmp_path / "spec.json")
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        victim = {"manifest": ds / "dataset.json", "config": tmp_path / "audit.json", "spec": spec}[where]
        victim.write_bytes(text)
        source = ["--synthetic", str(spec)] if where == "spec" else ["--data", str(ds)]
        argv = ["full", *source, "--config", str(tmp_path / "audit.json"), "--out", str(tmp_path / "out")]
        if where != "config":
            (tmp_path / "audit.json").write_text("{}")
        assert main(argv) == code
        assert f"{victim}: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
    "thresholds-crossed": (
        "config",
        {"thresholds": {"criticality": 0.5, "redundancy": 0.6}},
        EXIT_CONFIG,
        "redundancy <= criticality",
    ),
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
    "ablation-classes-repeated": (
        "config",
        {"ablation": {"classes": ["alpha", "alpha", "beta"]}},
        EXIT_CONFIG,
        "classes must be unique",
    ),
    "ablation-classes-empty": ("config", {"ablation": {"classes": []}}, EXIT_CONFIG, "classes must be nonempty"),
    "ring-empty": ("config", {"ablation": {"ring_topology": []}}, EXIT_CONFIG, "ring_topology"),
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
    "manifest-classes-repeated": (
        "manifest",
        {"class_names": ["alpha", "beta", "gamma", "alpha"]},
        EXIT_BAD_DATA,
        "class_names repeats 'alpha'",
    ),
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


class TestDeadChannels:
    @pytest.mark.parametrize("command", ["full", "ablate", "complexity", "oracle"])
    def test_channel_flat_in_every_trial_of_a_class_is_refused_before_features(
        self, tmp_path, capsys, monkeypatch, command
    ):
        ds = demo_root(tmp_path)
        zero_channel(sorted(ds.glob("*/*/grip_*.csv")))
        builds = []
        monkeypatch.setattr(cli, "build_class_matrices", lambda *args: builds.append(args))
        out = tmp_path / "out"
        assert main([command, "--data", str(ds), "--out", str(out)]) == EXIT_BAD_DATA
        assert capsys.readouterr().err == f"error [ingest]: {DEAD_GRIP_CH6}\n"
        assert builds == [] and not out.exists()

    @pytest.mark.parametrize("pattern", ["grip_t0[01].csv", "*.csv"], ids=["two-grip-trials", "every-trial"])
    def test_channel_flat_in_some_trials_or_everywhere_is_audited(self, tmp_path, pattern):
        ds = demo_root(tmp_path)
        zero_channel(sorted(ds.glob(f"*/*/{pattern}")))
        assert main(["full", "--data", str(ds), "--seed", "1", "--out", str(tmp_path / "out")]) == 0

    def test_a_rest_class_is_checked_only_when_audited(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha", "beta", "rest"))
        ds = tmp_path / "ds"
        assert main(["synth", "--synthetic", str(spec), "--out", str(ds)]) == 0
        zero_channel(sorted(ds.glob("*/*/rest_*.csv")), column=2)
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"segmentation": {"window_len_samples": 64}, "oracle": {"epochs": 30}}))
        argv = ["full", "--data", str(ds), "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert main(["ingest-check", "--data", str(ds), "--config", str(cfg)]) == 0
        assert main([*argv, "--include-rest", "--out", str(tmp_path / "rest")]) == EXIT_BAD_DATA
        assert "ch2 is flat after trim in every recording of class 'rest'" in capsys.readouterr().err


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
        assert payload["config"]["schema_version"] == 2
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

    # the ablation scores each class against the rest, so it needs two too
    @pytest.mark.parametrize("command", ["complexity", "ablate"])
    def test_single_class_too_few(self, tmp_path, capsys, command):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha",))
        code = main([command, "--synthetic", str(spec), "--out", str(tmp_path / "o")])
        assert code == EXIT_TOO_SMALL
        assert "error [separability]: need >= 2 classes, got 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_depth_past_channel_count_runs_as_channel_count(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", channel_count=2)
        for depth in ("2", "64"):
            argv = ["ablate", "--synthetic", str(spec), "--depth", depth]
            assert main([*argv, "--out", str(tmp_path / depth)]) == 0
        deep, shallow = tmp_path / "64", tmp_path / "2"
        assert (deep / "ablation.csv").read_bytes() == (shallow / "ablation.csv").read_bytes()
        echo = json.loads((deep / "ablation.json").read_text())["config"]["ablation"]
        assert echo["combinatorial_depth"] == 64

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

    def test_ablated_classes_are_scored_against_every_class(self, tmp_path, monkeypatch):
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
        assert counted == [(["alpha", "beta", "gamma"], 60)]  # 20 windows per class
        for path in (tmp_path / "ablate").iterdir():
            assert path.read_bytes() == (tmp_path / "full" / path.name).read_bytes()

    @pytest.mark.parametrize("named", [["alpha", "zz"], ["rest"]])
    def test_named_class_without_windows_is_too_small(self, tmp_path, capsys, named):
        spec = write_spec(tmp_path / "spec.json", classes=("alpha", "beta", "rest"))
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"ablation": {"classes": named}}))
        out = tmp_path / "out"
        argv = ["ablate", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_TOO_SMALL
        assert f"class {named[-1]!r} has no windows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ablate", "full"])
    @pytest.mark.parametrize(
        "channels, ablation, code, message",
        [
            (3, {"ring_topology": []}, EXIT_CONFIG, "ring_topology () is not a permutation of 0..2"),
            (2, {"ring_topology": [0]}, EXIT_CONFIG, "ring_topology (0,) is not a permutation of 0..1"),
            (3, {"ring_topology": [0, 5]}, EXIT_CONFIG, "ring_topology (0, 5) is not a permutation"),
            (3, {"classes": ["alpha", "nosuch"]}, EXIT_TOO_SMALL, "class 'nosuch' has no windows"),
        ],
        ids=["ring-empty", "ring-short", "ring-out-of-range", "unknown-class"],
    )
    def test_scope_is_refused_before_any_feature(
        self, tmp_path, capsys, monkeypatch, command, channels, ablation, code, message
    ):
        spec = write_spec(tmp_path / "spec.json", channel_count=channels)
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps({"ablation": ablation}))
        builds = []
        monkeypatch.setattr(cli, "build_class_matrices", lambda *args: builds.append(args))
        argv = [command, "--synthetic", str(spec), "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == code
        assert f"error [ablation]: {message}" in capsys.readouterr().err
        assert builds == [] and not (tmp_path / "out").exists()

    def test_one_channel_sensor_has_no_neighbours(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", channel_count=1)
        out = tmp_path / "out"
        assert main(["ablate", "--synthetic", str(spec), "--out", str(out)]) == 0
        rows = read_csv(out / "neighbour_compensation.csv")
        assert [r["class"] for r in rows] == ["alpha", "beta", "gamma"]
        for row in rows:
            assert row["sensor"] == "0" and row["verdict"] == "uncompensated"
            assert row["left_neighbour"] == row["left_criticality"] == ""
            assert row["right_neighbour"] == row["right_criticality"] == ""
        payload = json.loads((out / "ablation.json").read_text())
        for note in payload["neighbour_compensation"]:
            assert note["neighbours"] == note["neighbour_criticality"] == []
        degradation = payload["advice"]["implement_graceful_degradation"]
        assert degradation["sensors"] == [0]
        assert degradation["detail"] == {"ch1": ["alpha", "beta", "gamma"]}

    @pytest.mark.parametrize("command, one_vs_one", [("ablate", 0), ("complexity", 1), ("full", 1)])
    def test_one_vs_rest_audit_runs_once(self, tmp_path, monkeypatch, command, one_vs_one):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        modes = []
        audit = cli.pairwise_audit

        def counting(matrices, mode):
            modes.append(mode)
            return audit(matrices, mode)

        monkeypatch.setattr(cli, "pairwise_audit", counting)
        argv = [command, "--synthetic", str(spec), "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert Counter(modes) == Counter({"one-vs-rest": 1, "one-vs-one": one_vs_one})

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_every_channel_is_scored_at_every_depth(self, tmp_path, depth):
        spec = write_spec(tmp_path / "spec.json", channel_count=4)
        out = tmp_path / "out"
        assert main(["ablate", "--synthetic", str(spec), "--out", str(out), "--depth", str(depth)]) == 0
        payload = json.loads((out / "ablation.json").read_text())
        for values in [*payload["normalized_criticality"].values(), payload["mean_log1p_max_fdr"]]:
            assert len(values) == 4 and all(isinstance(v, float) for v in values)
        for label in ("alpha", "beta", "gamma"):
            rows = read_csv(out / f"criticality_{label}.csv")
            assert [r["sensor"] for r in rows] == ["0", "1", "2", "3"]
            assert all(float(r["normalized_criticality"]) >= 0.0 for r in rows)

    def test_every_class_has_a_runner_up_on_the_demo_spec(self, tmp_path):
        # scored against the all-zero window, every class's top sensor read
        # F1_CAP and every other sensor about 1e-9 of it
        ds = demo_root(tmp_path)
        assert main(["ablate", "--data", str(ds), "--seed", "1", "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "ablation.json").read_text())
        for label, scores in payload["normalized_criticality"].items():
            top, runner_up = sorted(scores, reverse=True)[:2]
            assert top == 1.0 and runner_up > 1e-3, label

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

    # wavelet_energy, which runs before it by default, refuses this gain too
    def test_fractal_dimension_overflow_is_bad_data(self, tmp_path, capsys):
        spec = write_noise_spec(tmp_path / "spec.json", 1e154)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"features": {"enabled_features": ["fractal_dimension", "rms"]}}))
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == EXIT_BAD_DATA
        err = capsys.readouterr().err
        assert "error [features]: fractal_dimension" in err and "overflows" in err
        assert not out.exists()

    # the detail energy exceeds float64; it printed two RuntimeWarnings and
    # then a "non-finite feature values" error that named no extractor
    @pytest.mark.parametrize(
        "gain, features", [(1e155, ["wavelet_energy", "rms"]), (1e154, None)], ids=["alone", "default"]
    )
    def test_wavelet_energy_overflow_is_bad_data(self, tmp_path, capsys, gain, features):
        spec = write_noise_spec(tmp_path / "spec.json", gain)
        argv = ["complexity", "--synthetic", str(spec)]
        if features:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"features": {"enabled_features": features}}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_BAD_DATA
        err = capsys.readouterr().err
        assert err.startswith("error [features]: wavelet_energy: the detail energy of a window")
        assert "overflows float64" in err and "Warning" not in err
        assert not out.exists()

    # synth wrote inf cells that its own loader refused with exit 4, and
    # full exited 4; both printed numpy overflow warnings first
    @pytest.mark.parametrize("command", ["synth", "full"])
    def test_a_gain_whose_samples_overflow_is_a_spec_error(self, tmp_path, capsys, command):
        spec = write_noise_spec(tmp_path / "spec.json", 1e308)
        out = tmp_path / "out"
        assert main([command, "--synthetic", str(spec), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "class 'a', trial 0, channel 0 (noise, gain 1e+308)" in err
        assert "overflow float64" in err and "Warning" not in err
        assert not out.exists()


class TestTinyAmplitudes:
    # every extractor but wavelet_energy and fractal_dimension gives the same
    # value, or the same value times 2**k, for a window scaled by 2**k
    SCALE_EXACT = [f for f in FEATURE_NAMES if f not in ("wavelet_energy", "fractal_dimension")]

    def audit(self, root: Path, scale: float) -> dict:
        """``full`` on a 3-class spec with every gain times ``scale``: its f1
        values, per-dimension Fisher ratios, f1 losses and MCCs."""
        root.mkdir()
        tonic = {c: {"kind": "tonic", "gain": g * scale} for c, g in zip("abc", (1.0, 1.6, 2.2))}
        noise = {"default": {"kind": "noise", "gain": scale}}
        spec = {
            "class_names": list("abc"),
            "channel_count": 3,
            "windows_per_class": 20,
            "window_len_samples": 64,
            "trials_per_class": 2,
            "seed": 3,
            "channels": [{"classes": tonic}, noise, noise],
        }
        (root / "spec.json").write_text(json.dumps(spec))
        cfg = {
            "features": {"enabled_features": self.SCALE_EXACT},
            "oracle": {"epochs": 30, "hidden_units": 16, "seed": 3},
        }
        (root / "c.json").write_text(json.dumps(cfg))
        out = root / "out"
        argv = ["full", "--synthetic", str(root / "spec.json"), "--config", str(root / "c.json")]
        assert main(argv + ["--out", str(out)]) == 0
        complexity = json.loads((out / "complexity.json").read_text())
        pairs = complexity["one_vs_one"]["pairs"] + complexity["one_vs_rest"]["pairs"]
        return {
            "f1": [p["f1"] for p in pairs],
            "fisher": [p["per_dimension"]["fisher"] for p in pairs],
            "f1_loss": json.loads((out / "ablation.json").read_text())["f1_loss"],
            "mcc": [row["mcc"] for row in read_csv(out / "validation.csv")],
        }

    def test_gains_scaled_by_2_to_the_minus_540_give_the_same_audit(self, tmp_path):
        # squared unscaled, the ~1e-163 rms and waveform_length columns
        # underflow to zero variance: f1 read F1_CAP and the oracle zeroed
        # those columns
        plain = self.audit(tmp_path / "plain", 1.0)
        tiny = self.audit(tmp_path / "tiny", 2.0**-540)
        assert tiny == plain
        assert F1_CAP not in [v for dims in tiny["fisher"] for v in dims]
        assert F1_CAP not in tiny["f1"]


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

    def test_echoes_the_segmentation_it_used(self, tmp_path):
        # a --synthetic run segments with its spec's geometry, not the config's
        spec = write_spec(tmp_path / "spec.json")
        cfg = tmp_path / "audit.json"
        segmentation = {"trim_head_ms": 50.0, "window_len_samples": 32}
        cfg.write_text(json.dumps({"segmentation": segmentation, "oracle": {"epochs": 30}}))
        out = tmp_path / "out"
        assert main(["oracle", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]) == 0
        echoed = json.loads((out / "oracle.json").read_text())["config"]["segmentation"]
        assert echoed == SyntheticSpec.from_json_file(spec).segmentation().to_json_dict()
        assert echoed["window_len_samples"] == 64 and echoed["trim_head_ms"] == 0.0
        assert echoed["concat_trials_within_session"] is False


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
        assert summary["schema_version"] == 2
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


class TestShortTrials:
    """Synthetic trials shorter than the generator's 8-tap smoothing kernel."""

    def write_short_spec(self, path: Path, window_len, windows, trials):
        spec = json.loads(write_spec(path, channel_count=2).read_text())
        spec.update(
            window_len_samples=window_len, windows_per_class=windows, trials_per_class=trials
        )
        path.write_text(json.dumps(spec))
        return path

    def test_six_sample_trials_render_and_audit(self, tmp_path):
        spec = self.write_short_spec(tmp_path / "spec.json", 6, 2, 2)
        cfg = fast_config(tmp_path / "audit.json")
        assert main(["synth", "--synthetic", str(spec), "--out", str(tmp_path / "ds")]) == 0
        rows = read_csv(tmp_path / "ds" / "synthetic" / "s00" / "alpha_t00.csv")
        assert len(rows) == 6
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads((out / "audit_summary.json").read_text())
        assert summary["window_counts"] == {"alpha": 2, "beta": 2, "gamma": 2}

    @pytest.mark.parametrize("window_len", [1, 2, 3])
    def test_tiny_windows_render_then_stop_at_features(self, tmp_path, capsys, window_len):
        spec = self.write_short_spec(tmp_path / "spec.json", window_len, 6, 4)
        assert main(["synth", "--synthetic", str(spec), "--out", str(tmp_path / "ds")]) == 0
        out = tmp_path / "out"
        assert main(["full", "--synthetic", str(spec), "--out", str(out)]) == EXIT_TOO_SMALL
        assert "error [features]" in capsys.readouterr().err
        assert not out.exists()


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
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        # one build per audit mode for complexity, one for each other group
        assert calls == {"complexity_payload": 2, "ablation_payload": 1, "oracle_payload": 1, "_advice": 1}
        summary = json.loads((out / "audit_summary.json").read_text())
        complexity = json.loads((out / "complexity.json").read_text())
        assert {k: complexity[k] for k in ("one_vs_one", "one_vs_rest")} == summary["complexity"]
        assert json.loads((out / "ablation.json").read_text()) == summary["ablation"]
        assert json.loads((out / "oracle.json").read_text())["results"] == summary["oracle"]

    def test_json_files_are_json_dumps_of_their_payloads(self, tmp_path, monkeypatch):
        # the summary splices in the text the stage files encoded
        payloads = {}
        write_json = reports.write_json

        def recording(path, payload, *args):
            payloads[Path(path).name] = payload
            return write_json(path, payload, *args)

        monkeypatch.setattr(reports, "write_json", recording)
        monkeypatch.setattr(cli, "write_json", recording)
        spec = write_spec(tmp_path / "spec.json", classes=("alpha", "béta", "ga\"mma"))
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        assert sorted(payloads) == sorted(p.name for p in out.glob("*.json"))
        for name, payload in payloads.items():
            text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
            assert (out / name).read_text(encoding="utf-8") == text, name

    def test_windows_are_freed_before_the_oracle(self, tmp_path, monkeypatch):
        # past the feature build only C, W and the labels are needed
        segment, audit = cli.segment, cli.run_oracle_audit
        windows_data = []

        def segmenting(*args, **kwargs):
            windows = segment(*args, **kwargs)
            windows_data.extend(weakref.ref(unit) for unit in windows.units)
            return windows

        def auditing(*args):
            assert windows_data and [ref() for ref in windows_data] == [None] * len(windows_data)
            return audit(*args)

        monkeypatch.setattr(cli, "segment", segmenting)
        monkeypatch.setattr(cli, "run_oracle_audit", auditing)
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        summary = json.loads((out / "audit_summary.json").read_text())
        assert summary["window_counts"] == {"alpha": 20, "beta": 20, "gamma": 20}

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

    def test_an_artifact_path_that_is_not_a_file_is_refused(self, tmp_path, monkeypatch, capsys):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        (out / "ranking.csv").unlink()
        (out / "ranking.csv").mkdir()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def fail(*args, **kwargs):
            raise AssertionError("features were computed")

        monkeypatch.setattr(cli, "build_class_matrices", fail)
        capsys.readouterr()
        assert main(argv + ["--overwrite", "--seed", "5"]) == OutputExistsError.exit_code
        assert f"refusing to replace {out / 'ranking.csv'}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert (out / "ranking.csv").is_dir()

    @pytest.mark.parametrize(
        "name, stage", [("build_class_matrices", "features"), ("run_oracle_audit", "oracle")]
    )
    def test_out_of_memory_is_one_line_naming_the_stage(
        self, tmp_path, monkeypatch, capsys, name, stage
    ):
        spec = write_spec(tmp_path / "spec.json")
        cfg = fast_config(tmp_path / "audit.json")
        out = tmp_path / "out"
        argv = ["full", "--synthetic", str(spec), "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*")}
        message = "Unable to allocate 80.5 GiB for an array with shape (108, 100000000)"

        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, name, fail)
        capsys.readouterr()
        assert main(argv + ["--overwrite", "--seed", "5"]) == 1
        assert capsys.readouterr().err == f"error [{stage}]: out of memory ({message})\n"
        assert {p: p.read_bytes() for p in out.rglob("*")} == before

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


PROFILER = ["-m", "cProfile", "-o", "run.prof"]


# Run as the profiler's module, the CLI's config classes are defined in a
# "__main__" that is not sys.modules["__main__"]; their field types must
# still resolve.
@pytest.mark.parametrize(
    "runner, module",
    [([], "sensoraudit"), (PROFILER, "sensoraudit"), (PROFILER, "sensoraudit.cli")],
    ids=["plain", "cProfile", "cProfile-cli"],
)
def test_python_m_sensoraudit_runs_the_cli(tmp_path, runner, module):
    spec = write_spec(tmp_path / "spec.json")
    src = str(Path(sensoraudit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["ablate", "--synthetic", str(spec), "--depth", "2"]
    proc = subprocess.run(
        [sys.executable, *runner, "-m", module, *argv, "--out", "out"],
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


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random is about a fifth of the package's import time;
    # a run that draws numbers loads it when it first does
    code = "import sys, sensoraudit.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(sensoraudit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("source", ["synthetic", "data"])
def test_audits_leave_numpy_ma_unloaded(tmp_path, source):
    # np.unique imports numpy.ma, about 12 ms and 1.2 MB of a short run;
    # no audit uses masked arrays
    spec = write_spec(tmp_path / "spec.json")
    if source == "data":
        assert main(["synth", "--synthetic", str(spec), "--out", str(tmp_path / "ds")]) == 0
    cfg = tmp_path / "audit.json"
    segmentation = {"trim_head_ms": 0.0, "trim_tail_ms": 0.0, "window_len_samples": 64}
    cfg.write_text(json.dumps({"segmentation": segmentation, "oracle": {"epochs": 30}}))
    path = spec if source == "synthetic" else tmp_path / "ds"
    argv = [f"--{source}", str(path), "--config", str(cfg)]
    code = (
        "import sys\n"
        "from sensoraudit.cli import COMMANDS, main\n"
        "for command in COMMANDS:\n"
        f"    assert main([command, *{argv!r}, '--out', command]) == 0, command\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sensoraudit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.stdout == "False\n", proc.stderr
