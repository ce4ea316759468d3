"""Workload definitions, input generation and the output checks.

Each workload is a synthetic recording set with known structure: which
channels carry class-dependent tonic activity, which are pure noise, and
one engineered hard pair of classes that differ only by a 2.0/1.9 gain
on shared channels. That structure is what the output checks verify.

The program receives only generated files: a spec JSON for the
``--synthetic`` workloads, and a CSV dataset directory (rendered here in
untimed set-up) for the ``--data`` workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path


# Amplitude drift on the channels the hard pair shares. It is wide enough
# that a 2.0/1.9 gain gap leaves the pair's windows overlapping, so the
# pair stays the hardest one however the oracle's test split falls.
HARD_PAIR_JITTER = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: tuple[str, ...]
    channel_count: int
    fs: float
    window_len: int
    depth: int
    on_disk: bool  # written as a CSV dataset and audited with --data
    # channel -> {class: gain}; every channel not listed is noise
    tonic: dict[int, dict[str, float]]
    hard_pair: tuple[str, str]
    # (windows_per_class, trials_per_class) for timed runs and for smoke runs
    size: tuple[int, int]
    smoke_size: tuple[int, int]

    @property
    def noise_channels(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.channel_count) if c not in self.tonic)

    def carrier_hz(self, channel: int) -> float:
        # distinct carriers, all well below Nyquist
        return round(self.fs * (0.03 + 0.025 * channel), 6)

    def spec(self, seed: int, smoke: bool) -> dict:
        windows, trials = self.smoke_size if smoke else self.size
        channels = []
        for ch in range(self.channel_count):
            gains = self.tonic.get(ch, {})
            profiles = {}
            for label, g in gains.items():
                profiles[label] = {"kind": "tonic", "gain": g, "carrier_hz": self.carrier_hz(ch)}
                if set(self.hard_pair) <= set(gains):
                    profiles[label]["amp_jitter"] = HARD_PAIR_JITTER
            channels.append({"classes": profiles})
        return {
            "class_names": list(self.classes),
            "channel_count": self.channel_count,
            "sampling_rate_hz": self.fs,
            "windows_per_class": windows,
            "window_len_samples": self.window_len,
            "overlap_fraction": 0.5,
            "trials_per_class": trials,
            "seed": seed,
            "channels": channels,
        }


def _own_channels(classes, gain=4.0) -> dict[int, dict[str, float]]:
    """Channel i is tonic for class i alone. Gain 4.0, twice the hard pair's,
    keeps the other pairs easy for an oracle trained on a few windows."""
    return {i: {label: gain} for i, label in enumerate(classes)}


_ARMBAND = ("fist", "spread", "pinch", "point", "tap")
_PAIRS = tuple(f"k{i:02d}" for i in range(6))
_LONG = ("grip", "lift", "press")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="armband-disk",
            why=(
                "5 classes x 8 channels at 1 kHz, W=400, depth 1, read from a CSV dataset "
                "with the default trims: the only workload that parses CSV; features "
                "(mostly sample entropy) dominate"
            ),
            classes=_ARMBAND,
            channel_count=8,
            fs=1000.0,
            window_len=400,
            depth=1,
            on_disk=True,
            # ch0-2: one class each; ch3: shared by the hard pair (point, tap)
            tonic={**_own_channels(_ARMBAND[:3]), 3: {"point": 2.0, "tap": 1.9}},
            hard_pair=("point", "tap"),
            size=(60, 5),
            smoke_size=(16, 2),
        ),
        Workload(
            name="pairs-short",
            why=(
                "6 classes x 12 channels at 200 Hz, W=128, depth 3, synthetic: "
                "15 oracle pairs and 1,788 ablation cells dominate; no CSV, cheap "
                "sample entropy"
            ),
            classes=_PAIRS,
            channel_count=12,
            fs=200.0,
            window_len=128,
            depth=3,
            on_disk=False,
            # own channel per class; the hard pair (k04, k05) mirrors its two
            # channels at 2.0/1.9; ch6-11 noise
            tonic={
                **_own_channels(_PAIRS[:4]),
                4: {"k04": 2.0, "k05": 1.9},
                5: {"k04": 1.9, "k05": 2.0},
            },
            hard_pair=("k04", "k05"),
            size=(16, 4),
            smoke_size=(8, 2),
        ),
        Workload(
            name="long-window",
            why=(
                "3 classes x 4 channels at 2 kHz, W=1000, depth 1, synthetic: the "
                "dense W x W sample-entropy matrix exceeds L2 and features are "
                "nearly all the work"
            ),
            classes=_LONG,
            channel_count=4,
            fs=2000.0,
            window_len=1000,
            depth=1,
            on_disk=False,
            tonic={0: {"grip": 4.0}, 1: {"lift": 2.0, "press": 1.9}},
            hard_pair=("lift", "press"),
            size=(12, 4),
            smoke_size=(6, 2),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, smoke: bool, input_dir: Path) -> Path:
    """Write the workload's inputs; returns the path the program is given."""
    input_dir.mkdir(parents=True, exist_ok=True)
    spec_path = input_dir / "spec.json"
    spec_path.write_text(json.dumps(workload.spec(seed, smoke), indent=2) + "\n")
    if not workload.on_disk:
        return spec_path
    return _write_dataset(spec_path, seed, input_dir / "dataset")


def _write_dataset(spec_path: Path, seed: int, root: Path) -> Path:
    """Render the spec's recordings as ``<root>/<participant>/<session>/<class>_<trial>.csv``."""
    import numpy as np
    from sensoraudit.synthetic import SyntheticSpec, generate_recordings

    rset = generate_recordings(SyntheticSpec.from_json_file(spec_path), seed=seed)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "sampling_rate_hz": rset.sampling_rate_hz,
        "class_names": list(rset.class_names),
        "channel_count": rset.channel_count,
    }
    (root / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")
    header = ",".join(["t", *[f"ch{c + 1}" for c in range(rset.channel_count)]])
    for rec in rset.recordings:
        name = f"{rec.class_label}_{rec.trial_id}.csv"
        path = root / rec.participant_id / rec.session_id / name
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = np.column_stack([np.arange(rec.length), rec.samples.T])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    return root


def cli_args(workload: Workload, source: Path, out_dir: Path, seed: int, jobs: int) -> list[str]:
    flag = "--data" if workload.on_disk else "--synthetic"
    return [
        "full", flag, str(source), "--out", str(out_dir), "--seed", str(seed),
        "--jobs", str(jobs), "--metric", "f1", "--depth", str(workload.depth),
    ]


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact's relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: Workload, out_dir: Path) -> list[str]:
    """Problems with one run's artifacts; an empty list means the run is correct."""
    problems = []
    try:
        validation = _read_csv(out_dir / "validation.csv")
        ranking = _read_csv(out_dir / "ranking.csv")
    except OSError as exc:
        return [f"missing artifact: {exc}"]

    hard = tuple(sorted(workload.hard_pair))
    pairs = {(r["class_a"], r["class_b"]): r for r in validation}
    if hard not in pairs or len(pairs) < 2:
        return [f"validation.csv lacks the hard pair {hard} or any other pair"]
    # The separability proxy must single the hard pair out. The oracle holds
    # out a fifth of each class (2-5 windows here) and trains 200 steps, so
    # any single pair's MCC can be off by a misclassified window, easy pairs
    # included: the hard pair's MCC must not exceed the other pairs' median.
    fdr = {p: float(r["normalized_fdr"]) for p, r in pairs.items()}
    mcc = {p: float(r["mcc"]) for p, r in pairs.items()}
    lowest_other = min(v for p, v in fdr.items() if p != hard)
    if not fdr[hard] < lowest_other:
        problems.append(
            f"hard pair {hard} normalized_fdr {fdr[hard]!r} is not the lowest "
            f"(lowest other pair {lowest_other!r})"
        )
    median_other = statistics.median(v for p, v in mcc.items() if p != hard)
    if mcc[hard] > median_other:
        problems.append(
            f"hard pair {hard} mcc {mcc[hard]!r} is above the other pairs' median {median_other!r}"
        )

    position = {int(r["sensor"]): int(r["rank"]) for r in ranking}
    if sorted(position) != list(range(workload.channel_count)):
        return problems + ["ranking.csv does not rank every channel once"]
    worst_tonic = max(position[c] for c in workload.tonic)
    best_noise = min(position[c] for c in workload.noise_channels)
    if not worst_tonic < best_noise:
        problems.append(
            f"a noise channel ranks above a tonic channel (worst tonic rank "
            f"{worst_tonic}, best noise rank {best_noise})"
        )
    return problems
