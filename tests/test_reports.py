import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ablate, windows_from
from kendall import kendall_tau

from sensoraudit.ablation import AblationSpec
from sensoraudit.errors import InvalidSpecError
from sensoraudit.features import FeatureConfig
from sensoraudit.reports import (
    ARTIFACTS,
    ablation_payload,
    artifact_names,
    json_text,
    write_ablation,
    write_csv,
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


class TestWriteCsv:
    def test_plain_rows_read_as_formatted_rows(self, tmp_path):
        # plain rows go to csv.writer as they are, the others cell by cell
        rows = [
            ["a", 1, 0.1, -2.5e-300, 1e22, float("inf"), float("nan"), -0.0],
            ["b", np.int64(3), np.float64(0.1), np.float32(0.5), True, None, 7, 1 / 3],
            ["c,d", 'say "x"', 2**70, 123456789.125, "", 0, 5e-324, 1.0],
        ]
        write_csv(tmp_path / "t.csv", ["k", *"abcdefg"], rows)
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
            "a,1,0.1,-2.5e-300,1e+22,inf,nan,-0.0",
            "b,3,0.1,0.5,True,None,7,0.3333333333333333",
            '"c,d","say ""x""",1180591620717411303424,123456789.125,,0,5e-324,1.0',
        ]


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


# JSON-like payloads: escapes, non-ASCII text, NaN and infinities, empty
# containers, nested lists, and dicts with string or integer keys
_texts = st.text(alphabet=st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\n", '"', "\\", "\t\x00\x1f", "é ü 雪 🎈", "\u2028"]
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | _texts
)
_payloads = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_texts, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=30,
)


def dumps(value):
    return json.dumps(value, indent=2, ensure_ascii=False)


class TestJsonText:
    @settings(max_examples=100, deadline=None)
    @given(_payloads)
    def test_equals_json_dumps(self, payload):
        assert json_text(payload) == dumps(payload)

    @settings(max_examples=100, deadline=None)
    @given(_payloads, _payloads, st.dictionaries(_texts, _payloads, max_size=3))
    def test_spliced_text_equals_json_dumps(self, a, b, extra):
        # a and b recur at other depths, as the stage payloads recur in the summary
        texts = {}
        first = {"config": a, "b": b, **extra}
        second = {"schema": 1, "groups": {"first": first, "a": a, "list": [a, b]}, "b": b}
        assert json_text(first, texts) == dumps(first)
        assert json_text(second, texts) == dumps(second)
        assert json_text(a, texts) == dumps(a)
