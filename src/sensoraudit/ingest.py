"""Loading, validation, trimming and windowing of multi-channel recordings.

``segment`` turns a recording set into one ``Windows`` record of shape
``(N, C, W)``: the samples of each trimmed unit (a trial, or a session's
trials of one class joined), each a C-contiguous float64 ``(C, T_u)``
array, and per row a ``(unit, start)`` index, a class label and a
``(trial, start)`` pair. It holds each trimmed sample once, however far
the windows overlap, and no array of all N windows: ``Windows.gather``
copies rows into a caller's buffer, so every window is copied exactly
once, when its features are extracted.

Dataset layout on disk::

    <root>/<participant>/<session>/<class>_<trial>.csv   header: t,ch1,...,chM
    <root>/dataset.json                                  manifest

The manifest carries ``sampling_rate_hz``, ``class_names`` and
``channel_count``, each checked by the config layer's type rule
(``config.check_type``) as data. Class names become parts of artifact
file names, so each must be a safe file-name token (``is_safe_label``),
and none may be listed twice. Amplitudes are
decimal text; any non-numeric or non-finite cell, or one with Python's
digit separator ``_``, rejects the file with its line number. Each file is parsed whole by ``np.loadtxt``; the line
parser reruns on any file that parse cannot decide (``_parse_trial_csv``).
Either way a recording's samples are a C-contiguous ``(C, T)`` array that
owns its memory.

``SegmentationConfig`` is the one config defined here; like every
config it is a ``config.JsonConfig``.
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import JsonConfig, check_type
from .errors import (
    DataFormatError,
    InconsistentChannelCountError,
    InvalidSpecError,
    LengthMismatchError,
    MalformedRowError,
    MissingFileError,
    TrimExceedsLengthError,
    UnknownClassLabelError,
)

MANIFEST_NAME = "dataset.json"

# Control/rest state: ingested like any class, excluded from audits by default.
REST_CLASS = "rest"


def is_safe_label(label) -> bool:
    """True when ``label`` can be part of a file name inside the output
    directory: a nonempty string, not ``.`` or ``..``, with no ``/``,
    ``\\`` or NUL."""
    return (
        isinstance(label, str)
        and label not in ("", ".", "..")
        and not any(c in label for c in "/\\\0")
    )


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(eq=False)
class Recording:
    samples: np.ndarray  # channels x T
    class_label: str
    trial_id: str
    session_id: str = ""
    participant_id: str = ""

    @property
    def channel_count(self) -> int:
        return int(self.samples.shape[0])

    @property
    def length(self) -> int:
        return int(self.samples.shape[1])

    def provenance(self) -> str:
        parts = [p for p in (self.participant_id, self.session_id, self.trial_id) if p]
        return "/".join(parts) if parts else self.trial_id


@dataclass(eq=False)
class RecordingSet:
    recordings: list[Recording]
    sampling_rate_hz: float
    class_names: list[str]
    channel_count: int


@dataclass(frozen=True, eq=False)
class Windows:
    """Equal-width windows cut from units of samples, without copying them.

    Row i is the ``(C, W)`` window ``units[u][:, s : s + W]`` for
    ``(u, s) = index[i]``, of class ``labels[i]``; it starts at sample
    ``provenance[i][1]`` of the unit named ``provenance[i][0]``. Each unit
    is a C-contiguous float64 ``(C, T_u)`` array, so the record holds each
    sample once however far its windows overlap. ``gather`` copies rows
    out. Counts of rows, labels and provenance pairs that differ, a unit
    that is not a ``(C, T)`` array, or a row outside its unit raise
    ``LengthMismatchError``."""

    units: tuple[np.ndarray, ...]  # each channels x T_u, C-contiguous float64
    index: np.ndarray  # N x 2 intp: (unit, start) per row
    labels: tuple[str, ...]
    provenance: tuple[tuple[str, int], ...]
    channels: int
    width: int

    def __post_init__(self) -> None:
        units = tuple(np.ascontiguousarray(u, dtype=float) for u in self.units)
        index = np.array(self.index, dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if not len(self) == len(self.labels) == len(self.provenance):
            raise LengthMismatchError(
                f"{len(self)} windows need as many labels and provenance pairs, "
                f"got {len(self.labels)} and {len(self.provenance)}"
            )
        for k, u in enumerate(units):
            if u.ndim != 2 or u.shape[0] != self.channels:
                raise LengthMismatchError(
                    f"unit {k} of shape {u.shape} is not a ({self.channels}, T) array"
                )
        ends = np.array([u.shape[1] for u in units] + [-1], dtype=np.intp)  # -1: no such unit
        unit, start = index.T
        unit = np.where((unit >= 0) & (unit < len(units)), unit, -1)
        outside = (start < 0) | (start + self.width > ends[unit])
        if outside.any():
            i = int(np.argmax(outside))
            raise LengthMismatchError(
                f"window {i} of {self.width} samples at (unit, start) "
                f"{tuple(index[i].tolist())} runs outside its unit"
            )

    def __len__(self) -> int:
        return int(self.index.shape[0])

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(N, C, W)``: the shape of the array of every window."""
        return len(self), self.channels, self.width

    def gather(self, start: int, out: np.ndarray) -> np.ndarray:
        """Copy rows ``start, start + 1, ...`` into the ``(n, C, W)`` array
        ``out``, as many as fit and exist, and return the filled part."""
        rows = self.index[start : start + out.shape[0]]
        w = self.width
        for k, (u, s) in enumerate(rows.tolist()):
            out[k] = self.units[u][:, s : s + w]
        return out[: len(rows)]


@dataclass(frozen=True)
class SegmentationConfig(JsonConfig):
    trim_head_ms: float = 600.0
    trim_tail_ms: float = 600.0
    window_len_samples: int = 400
    overlap_fraction: float = 0.5
    concat_trials_within_session: bool = True

    def check_bounds(self) -> None:
        if self.trim_head_ms < 0 or self.trim_tail_ms < 0:
            raise InvalidSpecError("trim amounts must be nonnegative")
        self.check_positive_ints("window_len_samples")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise InvalidSpecError("overlap_fraction must lie in [0, 1)")
        if self.stride < 1:
            raise InvalidSpecError(
                f"window {self.window_len_samples} with overlap "
                f"{self.overlap_fraction} rounds to a zero stride"
            )

    @property
    def stride(self) -> int:
        return round_half_up(self.window_len_samples * (1.0 - self.overlap_fraction))



def _check_geometry(sampling_rate_hz: float, channel_count: int) -> None:
    if sampling_rate_hz <= 0:
        raise DataFormatError("sampling_rate_hz must be positive")
    if channel_count < 1:
        raise DataFormatError("channel_count must be positive")


def _check_unique(class_names: list[str], where: str = "") -> None:
    """Refuse the first class name that ``class_names`` lists twice."""
    seen = set()
    for label in class_names:
        if label in seen:
            raise DataFormatError(f"{where}class_names repeats {label!r}")
        seen.add(label)


def validate_recording_set(rset: RecordingSet) -> None:
    _check_geometry(rset.sampling_rate_hz, rset.channel_count)
    _check_unique(rset.class_names)
    for rec in rset.recordings:
        if rec.channel_count != rset.channel_count:
            raise InconsistentChannelCountError(
                f"trial {rec.provenance()}: {rec.channel_count} channels, "
                f"expected {rset.channel_count}"
            )
        if rec.length < 1:
            raise DataFormatError(f"trial {rec.provenance()} is empty")
        if rec.class_label not in rset.class_names:
            raise UnknownClassLabelError(
                f"trial {rec.provenance()}: label {rec.class_label!r} not in manifest"
            )
        if not np.isfinite(rec.samples).all():
            raise DataFormatError(f"trial {rec.provenance()} contains non-finite values")


def load_dataset(root_path: str | Path) -> RecordingSet:
    """Load every trial under ``root_path`` in lexicographic file order.

    The manifest and each file's parse check every fact of the set that
    ``validate_recording_set`` checks, so ``segment`` finds it valid."""
    root = Path(root_path)
    if not root.is_dir():
        raise MissingFileError(f"dataset root not found: {root}")
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingFileError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_path}: must be a JSON object")
    for key, t in (("sampling_rate_hz", float), ("class_names", list[str]), ("channel_count", int)):
        if key not in manifest:
            raise DataFormatError(f"{manifest_path}: missing key {key!r}")
        check_type(f"{manifest_path}: {key}", t, manifest[key], DataFormatError)

    fs = float(manifest["sampling_rate_hz"])
    class_names = list(manifest["class_names"])
    for label in class_names:
        if not is_safe_label(label):
            raise DataFormatError(
                f"{manifest_path}: class name {label!r} cannot be part of a file name"
            )
    _check_unique(class_names, f"{manifest_path}: ")
    channel_count = manifest["channel_count"]

    recordings: list[Recording] = []
    for participant_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for session_dir in sorted(p for p in participant_dir.iterdir() if p.is_dir()):
            for path in sorted(session_dir.glob("*.csv")):
                recordings.append(
                    _load_trial_csv(
                        path,
                        channel_count,
                        class_names,
                        participant_dir.name,
                        session_dir.name,
                    )
                )

    # after the parse, so a file's own error still comes first
    _check_geometry(fs, channel_count)
    return RecordingSet(recordings, fs, class_names, channel_count)


def _load_trial_csv(
    path: Path,
    channel_count: int,
    class_names: list[str],
    participant_id: str,
    session_id: str,
) -> Recording:
    stem = path.stem
    if "_" not in stem:
        raise DataFormatError(f"{path}: filename must be <class>_<trial>.csv")
    class_label, trial_id = stem.rsplit("_", 1)
    if class_label not in class_names:
        raise UnknownClassLabelError(f"{path}: class {class_label!r} not in manifest")

    samples = _parse_trial_csv(path, channel_count)
    return Recording(samples, class_label, trial_id, session_id, participant_id)


def _parse_trial_csv(path: Path, channel_count: int) -> np.ndarray:
    """The ``(C, T)`` samples of one trial file, a C-contiguous array that
    owns its memory, parsed as a whole by ``np.loadtxt``. Whenever that
    parse fails, or could accept what the line parser refuses (as after a
    header whose quotes carry it past the first line), the line parser
    reruns and gives the samples or the error, so the fast path never
    decides either."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
        if (
            reader.line_num == 1
            and len(header) == channel_count + 1
            and not _has_numpy_only_space(path)
        ):
            with warnings.catch_warnings():  # a header-only file has no rows
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(
                    path, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8"
                )
            if values.shape[0] and values.shape[1] == channel_count + 1:
                samples = np.ascontiguousarray(values[:, 1:].T)  # rows are timestamps
                if np.isfinite(samples).all():
                    return samples
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        pass
    return _parse_csv_lines(path, channel_count)


def _has_numpy_only_space(path: Path) -> bool:
    """True when the file holds a byte 0x1C-0x1F: cell padding that numpy's
    float parser strips and Python's ``float()`` refuses."""
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            if any(b in chunk for b in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return True
    return False


def _parse_csv_lines(path: Path, channel_count: int) -> np.ndarray:
    """The ``(C, T)`` samples of one trial file, read row by row: the
    reference parser, and the one that names the file and line of every
    error. Blank lines are skipped; the ``t`` column is not read."""
    rows: list[list[float]] = []
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MalformedRowError(f"{path}:1: empty file") from None
            if len(header) != channel_count + 1:
                raise InconsistentChannelCountError(
                    f"{path}: header has {len(header) - 1} channels, expected {channel_count}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != channel_count + 1:
                    raise MalformedRowError(
                        f"{path}:{lineno}: {len(row)} fields, expected {channel_count + 1}"
                    )
                try:
                    if any("_" in cell for cell in row[1:]):  # float() reads 1_5 as 15.0 (PEP 515)
                        raise ValueError
                    values = [float(cell) for cell in row[1:]]
                except ValueError:
                    raise MalformedRowError(f"{path}:{lineno}: non-numeric amplitude") from None
                if not all(math.isfinite(v) for v in values):
                    raise MalformedRowError(f"{path}:{lineno}: non-finite amplitude")
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise MalformedRowError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise MalformedRowError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise MalformedRowError(f"{path}:1: no data rows")
    return np.ascontiguousarray(np.asarray(rows, dtype=float).T)  # rows are timestamps


def trim(recording: Recording, cfg: SegmentationConfig, fs: float) -> Recording:
    """Drop the configured head/tail milliseconds, ms converted half-up.
    The result's samples are a view of the recording's."""
    # a trim past float range stays inf samples, and is refused below
    head, tail = (
        round_half_up(x) if math.isfinite(x) else x
        for x in (cfg.trim_head_ms * fs / 1000.0, cfg.trim_tail_ms * fs / 1000.0)
    )
    remaining = recording.length - head - tail
    if remaining < 1:
        raise TrimExceedsLengthError(
            f"trial {recording.provenance()}: {recording.length} samples, "
            f"trim removes {head}+{tail}"
        )
    return replace(recording, samples=recording.samples[:, head : recording.length - tail])


def segment(
    rset: RecordingSet,
    cfg: SegmentationConfig,
    classes: list[str] | None = None,
) -> Windows:
    """Trim and window a whole recording set.

    With ``concat_trials_within_session`` the trimmed trials sharing a
    (participant, session, class) key are concatenated, in file order,
    into one unit; otherwise each trial is its own unit. Unit order
    follows first appearance. Within a unit, windows start at 0, stride,
    2*stride, ... and only full windows are kept, so a unit shorter than
    the window adds no rows and is not kept. The record holds each kept
    unit's samples, not its windows. A set that fails
    ``validate_recording_set`` raises its typed error.
    """
    validate_recording_set(rset)
    wanted = set(rset.class_names if classes is None else classes)
    fs = rset.sampling_rate_hz
    trimmed = [trim(r, cfg, fs) for r in rset.recordings if r.class_label in wanted]

    if cfg.concat_trials_within_session:
        groups: dict[tuple[str, str, str], list[Recording]] = {}
        for rec in trimmed:
            key = (rec.participant_id, rec.session_id, rec.class_label)
            groups.setdefault(key, []).append(rec)
        units = list(groups.values())
    else:
        units = [[rec] for rec in trimmed]

    w, stride = cfg.window_len_samples, cfg.stride
    samples: list[np.ndarray] = []
    index: list[tuple[int, int]] = []
    labels: list[str] = []
    provenance: list[tuple[str, int]] = []
    for members in units:
        length = sum(m.length for m in members)
        if length < w:
            continue
        rec = _concat_trials(members)
        starts = range(0, length - w + 1, stride)
        index += [(len(samples), s) for s in starts]
        samples.append(rec.samples)
        labels += [rec.class_label] * len(starts)
        source = rec.provenance()
        provenance += [(source, s) for s in starts]
    return Windows(samples, index, labels, provenance, rset.channel_count, w)


def _concat_trials(members: list[Recording]) -> Recording:
    if len(members) == 1:
        return members[0]
    first = members[0]
    joined = np.concatenate([m.samples for m in members], axis=1)
    trial_id = "+".join(m.trial_id for m in members)
    return replace(first, samples=joined, trial_id=trial_id)
