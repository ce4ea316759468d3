"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 needs a real dataset root in the environment variable
``SENSORAUDIT_DATASET`` and is skipped otherwise.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import criticality_spec, feature_row, graded_spec, matrix_from_rows, windows_of
from kendall import kendall_tau
from reference_impls import (
    naive_f2,
    naive_f3,
    naive_fisher,
    naive_sample_entropy,
)

from sensoraudit.ablation import AblationSpec, run_ablation_audit
from sensoraudit.cli import main
from sensoraudit.features import (
    FeatureConfig,
    build_class_matrices,
    median_frequency,
    sample_entropy,
    wavelet_energy,
)
from sensoraudit.ingest import SegmentationConfig, load_dataset, segment
from sensoraudit.oracle import (
    OracleConfig,
    gradients,
    init_params,
    mcc_from_counts,
    mean_loss,
    run_oracle_audit,
)
from sensoraudit.separability import pairwise_audit, separability_score


def _report(criterion: int, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nCRITERION {criterion}: PASS{suffix}", flush=True)


def test_criterion_1_metrics_match_brute_force():
    rng = np.random.default_rng(20240501)
    started = time.monotonic()
    for _ in range(500):
        dims = int(rng.integers(1, 6))
        t = rng.normal(
            loc=rng.normal(scale=2), scale=rng.uniform(0.2, 3), size=(int(rng.integers(2, 21)), dims)
        )
        r = rng.normal(
            loc=rng.normal(scale=2), scale=rng.uniform(0.2, 3), size=(int(rng.integers(2, 21)), dims)
        )
        score = separability_score(matrix_from_rows(t), matrix_from_rows(r))
        f1_ref, _, _ = naive_fisher(t.tolist(), r.tolist())
        assert score.f1 == pytest.approx(f1_ref, rel=1e-12)
        assert score.f2 == pytest.approx(naive_f2(t.tolist(), r.tolist()), rel=1e-12)
        assert score.f3 == pytest.approx(naive_f3(t.tolist(), r.tolist()), rel=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"brute-force comparison took {elapsed:.2f}s"
    _report(1, f"500 instances in {elapsed:.2f}s")


def test_criterion_2_analytic_fixtures():
    identical = matrix_from_rows(np.random.default_rng(0).normal(size=(10, 3)))
    same = separability_score(identical, identical)
    assert same.f2 == 1.0 and same.f3 == 0.0

    disjoint = separability_score(
        matrix_from_rows([[0.0], [1.0]]), matrix_from_rows([[5.0], [6.0]])
    )
    assert disjoint.f2 == 0.0 and disjoint.f3 == 1.0

    fisher = separability_score(
        matrix_from_rows([[-1.0], [1.0]]), matrix_from_rows([[1.0], [3.0]])
    )
    assert fisher.f1 == 2.0

    spans = separability_score(
        matrix_from_rows([[0.0], [2.0]]), matrix_from_rows([[1.0], [3.0]])
    )
    assert spans.f2 == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert spans.f3 == pytest.approx(2.0 / 3.0, rel=1e-12)
    _report(2)


def test_criterion_3_extractor_suite():
    from sensoraudit.features import (
        fractal_dimension,
        rms,
        sampen_cap,
        shannon_entropy,
        slope_sign_changes,
        waveform_length,
        zero_crossings,
    )
    from reference_impls import naive_katz

    cfg = FeatureConfig()
    # constant-signal conventions across all extractors
    zero_vec = feature_row(np.zeros((1, 100)), cfg, fs=200.0)
    assert zero_vec.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]

    # histogram entropy fixtures
    assert shannon_entropy(np.tile([1.0, 5.0], 50), 128) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(np.arange(128.0), 128) == pytest.approx(7.0, abs=1e-12)

    # counting and amplitude fixtures
    assert zero_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == 3
    assert waveform_length(np.array([0.0, 1.0, 0.0, 1.0])) == 3.0
    assert waveform_length(np.array([0.0, 2.0])) == 2.0
    assert rms(np.array([3.0, -4.0])) == pytest.approx(np.sqrt(12.5), abs=1e-12)
    assert slope_sign_changes(np.array([0.0, 1.0, 0.0, 1.0])) == 2
    assert slope_sign_changes(np.arange(10.0)) == 0

    # pure 25 Hz tone at fs=200, W=400: median frequency within one bin
    t = np.arange(400) / 200.0
    assert median_frequency(np.sin(2 * np.pi * 25.0 * t), 200.0) == pytest.approx(25.0, abs=0.5)
    # flat-spectrum noise averages to a quarter of the sampling rate
    noise_mdf = [
        median_frequency(np.random.default_rng(s).standard_normal(400), 200.0)
        for s in range(100)
    ]
    assert abs(float(np.mean(noise_mdf)) - 50.0) < 3.0

    # single-level Haar detail of [1, -1]
    assert wavelet_energy(np.array([1.0, -1.0]), 1) == pytest.approx(2.0, rel=1e-12)

    # Katz dimension fixtures and reference agreement
    assert fractal_dimension(np.arange(50.0)) == pytest.approx(1.0, abs=1e-12)
    noise = np.random.default_rng(3).standard_normal(400)
    fd = fractal_dimension(noise)
    assert 1.0 < fd < 2.0
    assert fd == pytest.approx(naive_katz(list(noise)), rel=1e-12)

    # sample entropy caps on a monotone ramp, stays interior on noise
    assert sample_entropy(np.arange(50.0), 2, 0.01) == sampen_cap(50, 2)
    x400 = np.random.default_rng(1).uniform(size=400)
    assert 0.0 < sample_entropy(x400, 2, 0.2) < sampen_cap(400, 2)

    # orthonormal Haar cascade conserves energy within 1e-9 relative
    rng = np.random.default_rng(77)
    for n in (64, 128, 256, 512):
        x = rng.standard_normal(n)
        approx = x.copy()
        detail_energy = 0.0
        for _ in range(4):
            even, odd = approx[0::2], approx[1::2]
            detail_energy += float(np.square((even - odd) / np.sqrt(2)).sum())
            approx = (even + odd) / np.sqrt(2)
        assert detail_energy + float(np.square(approx).sum()) == pytest.approx(
            float(np.square(x).sum()), rel=1e-9
        )
        assert wavelet_energy(x, 4) == pytest.approx(detail_energy, rel=1e-12)

    # sample entropy equals the naive O(W^2) counter, 50 seeds, W <= 200
    rng = np.random.default_rng(123)
    for _ in range(50):
        w = int(rng.integers(10, 201))
        x = rng.normal(size=w)
        expected, _ = naive_sample_entropy(list(x), 2, 0.2 * float(x.std()))
        assert sample_entropy(x, 2, 0.2) == expected
    _report(3)


def test_criterion_4_stage1_proxy_validity():
    started = time.monotonic()
    n_seeds = 20
    taus = []
    low_pair_always_minimal = True
    fcfg = FeatureConfig()
    for seed in range(n_seeds):
        windows, fs = windows_of(graded_spec(seed))
        matrices = build_class_matrices(windows, fcfg, fs)
        audit = pairwise_audit(matrices)
        fdr = {(r.target, r.reference): r.raw_fdr for r in audit.results}
        results = run_oracle_audit(matrices, OracleConfig(seed=seed))
        mcc = {r.pair: r.mcc for r in results}
        pairs = sorted(fdr)
        taus.append(kendall_tau([fdr[p] for p in pairs], [mcc[p] for p in pairs]))
        if min(fdr, key=fdr.get) != ("alpha", "beta"):
            low_pair_always_minimal = False
    elapsed = time.monotonic() - started
    mean_tau = float(np.mean(taus))
    assert low_pair_always_minimal, "engineered low-separation pair was not minimal"
    assert mean_tau > 0.6, f"mean Kendall tau {mean_tau:.3f}"
    assert elapsed < 120.0, f"stage-1 validity run took {elapsed:.1f}s"
    _report(4, f"mean tau {mean_tau:.3f} over {n_seeds} seeds in {elapsed:.1f}s")


def test_criterion_5_stage2_criticality_recovery():
    started = time.monotonic()
    n_seeds = 20
    informative = {"alpha": 0, "beta": 1, "gamma": 2}
    redundant = (3, 4)
    top_hits = 0
    top_total = 0
    clean_seeds = 0
    fcfg = FeatureConfig()
    for seed in range(n_seeds):
        windows, fs = windows_of(criticality_spec(seed))
        report = run_ablation_audit(
            pairwise_audit(build_class_matrices(windows, fcfg, fs), mode="one-vs-rest"),
            windows.channels,
            AblationSpec(),
        )
        seed_clean = True
        for ci, label in enumerate(report.classes):
            top_total += 1
            if int(np.nanargmax(report.normalized_criticality[ci])) == informative[label]:
                top_hits += 1
            for sensor in redundant:
                if not report.normalized_criticality[ci, sensor] < 0.3:
                    seed_clean = False
        clean_seeds += seed_clean
    elapsed = time.monotonic() - started
    assert top_hits >= 0.95 * top_total, f"top-rank recovery {top_hits}/{top_total}"
    assert clean_seeds >= 0.9 * n_seeds, f"redundant-low seeds {clean_seeds}/{n_seeds}"
    assert elapsed < 120.0, f"stage-2 recovery run took {elapsed:.1f}s"
    _report(
        5,
        f"top {top_hits}/{top_total}, redundant-clean {clean_seeds}/{n_seeds} in {elapsed:.1f}s",
    )


@pytest.mark.skipif(
    "SENSORAUDIT_DATASET" not in os.environ,
    reason="set SENSORAUDIT_DATASET to a dataset root to run the reproduction",
)
def test_criterion_6_dataset_reproduction():
    root = Path(os.environ["SENSORAUDIT_DATASET"])
    rset = load_dataset(root)
    classes = [c for c in rset.class_names if c != "rest"]
    assert {"rock", "paper", "scissors"}.issubset(set(classes))
    windows = segment(rset, SegmentationConfig(), classes=["rock", "paper", "scissors"])
    fcfg = FeatureConfig()
    matrices = build_class_matrices(windows, fcfg, rset.sampling_rate_hz)

    audit = pairwise_audit(matrices)
    fdr = {(r.target, r.reference): r.raw_fdr for r in audit.results}
    hard = ("paper", "scissors")
    others = [p for p in fdr if p != hard]
    assert all(fdr[hard] < fdr[p] for p in others), fdr
    assert all(fdr[p] >= 5.0 * fdr[hard] for p in others), fdr

    results = run_oracle_audit(matrices, OracleConfig(seed=0))
    mcc = {r.pair: r.mcc for r in results}
    assert all(mcc[hard] < mcc[p] for p in mcc if p != hard), mcc

    report = run_ablation_audit(
        pairwise_audit(matrices, mode="one-vs-rest"), windows.channels, AblationSpec()
    )
    bottom_three = set(report.ranking[-3:])
    assert {5, 6}.issubset(bottom_three), report.ranking  # channels ch6 and ch7
    _report(6)


def test_criterion_7_full_run_determinism(tmp_path):
    spec = {
        "class_names": ["alpha", "beta", "gamma"],
        "channel_count": 3,
        "windows_per_class": 20,
        "window_len_samples": 64,
        "trials_per_class": 2,
        "seed": 5,
        "channels": [
            {
                "classes": {
                    "alpha": {"kind": "tonic", "gain": 1.0},
                    "beta": {"kind": "tonic", "gain": 1.5},
                    "gamma": {"kind": "tonic", "gain": 2.2},
                }
            }
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    def run(out_name: str, jobs: int) -> dict[str, bytes]:
        out = tmp_path / out_name
        code = main(
            [
                "full",
                "--synthetic",
                str(spec_path),
                "--out",
                str(out),
                "--seed",
                "5",
                "--jobs",
                str(jobs),
            ]
        )
        assert code == 0
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run("a", jobs=1)
    second = run("b", jobs=1)
    threaded = run("c", jobs=8)
    assert first == second, "rerun with the same seed changed artifacts"
    assert first == threaded, "--jobs 8 changed artifacts"
    _report(7, f"{len(first)} artifacts byte-identical")


def test_criterion_8_oracle_numerics():
    rng = np.random.default_rng(8)
    step = 1e-5
    for _ in range(20):
        n_in = int(rng.integers(2, 7))
        hidden = int(rng.integers(2, 11))
        n = int(rng.integers(3, 21))
        params = init_params(n_in, hidden, rng)
        x = rng.normal(size=(n, n_in))
        y = rng.integers(0, 2, size=n).astype(float)
        grads = gradients(params, x, y)
        for key in params:
            flat = params[key].ravel()
            grad_flat = grads[key].ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + step
                up = mean_loss(params, x, y)
                flat[idx] = orig - step
                down = mean_loss(params, x, y)
                flat[idx] = orig
                numeric = (up - down) / (2 * step)
                scale = max(abs(numeric), abs(grad_flat[idx]), 1e-8)
                assert abs(numeric - grad_flat[idx]) / scale < 1e-4

    assert mcc_from_counts(10, 10, 0, 0) == 1.0
    assert mcc_from_counts(0, 0, 10, 10) == -1.0
    assert mcc_from_counts(45, 45, 5, 5) == 0.8
    _report(8)
