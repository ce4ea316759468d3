import csv

import numpy as np
import pytest

from conftest import ablate, windows_from

from sensoraudit.ablation import AblationSpec
from sensoraudit.errors import InvalidSpecError
from sensoraudit.features import FeatureConfig
from sensoraudit.reports import (
    ARTIFACTS,
    ablation_payload,
    artifact_names,
    kendall_tau,
    write_ablation,
)


def tree(root):
    return set(root.rglob("*"))


class TestArtifactTable:
    def test_every_name_is_listed_once(self):
        names = [n for group in ARTIFACTS.values() for n in group]
        assert len(names) == len(set(names))

    def test_ablation_names_include_one_criticality_file_per_class(self):
        assert artifact_names(["ablation"], ["a", "b"])[-2:] == [
            "criticality_a.csv",
            "criticality_b.csv",
        ]
        assert artifact_names(["oracle"], ["a"]) == list(ARTIFACTS["oracle"])

    @pytest.mark.parametrize("label", ["../escaped", "..", "", "a/b", "a\\b", "a\0b"])
    def test_unsafe_label_is_rejected(self, label):
        with pytest.raises(InvalidSpecError, match="file name"):
            artifact_names(["ablation"], ["ok", label])


class TestUnsafeLabelInWriter:
    def test_write_ablation_writes_nothing_for_an_escaping_label(self, tmp_path):
        rng = np.random.default_rng(0)
        windows = windows_from(
            [
                (rng.normal(size=(2, 32)), label, "t0", 32 * i)
                for label in ("ok", "../escaped")
                for i in range(4)
            ]
        )
        fcfg = FeatureConfig(enabled_features=("rms", "waveform_length"))
        report = ablate(windows, AblationSpec(), fcfg, 100.0)
        assert "../escaped" in report.classes
        out = tmp_path / "out"
        out.mkdir()
        before = tree(tmp_path)
        with pytest.raises(InvalidSpecError, match="escaped"):
            write_ablation(out, ablation_payload(report, {}))
        assert tree(tmp_path) == before


class TestAblationCsv:
    def test_raw_shift_cells_are_plain_numbers(self, tmp_path):
        rng = np.random.default_rng(1)
        windows = windows_from(
            [
                (rng.normal(size=(3, 32)), label, "t0", 32 * i)
                for label in ("a", "b")
                for i in range(5)
            ]
        )
        fcfg = FeatureConfig(enabled_features=("rms", "waveform_length"))
        report = ablate(windows, AblationSpec(combinatorial_depth=2), fcfg, 100.0)
        write_ablation(tmp_path, ablation_payload(report, {}))
        with (tmp_path / "ablation.csv").open(newline="") as fh:
            cells = [row["raw_shift"] for row in csv.DictReader(fh)]
        assert [float(c) for c in cells] == report.raw_shift.ravel().tolist()


class TestKendallTau:
    def test_agreement_and_reversal(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_fully_tied_list_gives_zero(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0

    def test_tau_b_tie_correction(self):
        # 5 concordant, 0 discordant, one tie in a: 5 / sqrt(5 * 6)
        assert kendall_tau([1, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(5 / np.sqrt(30))
