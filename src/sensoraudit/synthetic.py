"""Synthetic recordings with controllable class structure.

Two per-channel signal families:

``tonic``
    Narrow-band activity (sinusoid plus a small smoothed-noise texture)
    whose amplitude is ``gain`` with a slow relative drift of magnitude
    ``amp_jitter``. Class structure comes from giving a channel
    different gains per class; the drift keeps within-class feature
    variance well sampled by every window.
``noise``
    Class-independent broadband activity whose amplitude and bandwidth
    drift on the window timescale (a lognormal envelope and a white/
    low-pass mix, both driven by slow noise). Window features are wide
    but identically distributed across classes, and windows far apart
    are effectively independent.

Generation is bit-reproducible for a fixed seed: draws happen in a fixed
class -> trial -> channel order from one ``numpy`` generator.

Each recording is rendered into one ``(C, n)`` frame, one run of
consecutive same-kind channels at a time. A run of k noise channels draws
one ``(k, 4, n)`` block, channel-major: channel j's envelope, mix,
broadband and lowpass noise in that order, the same stream as 4k draws of
n. A tonic channel draws its phase and then its drift and texture noise
before the next channel draws. The samples are bit for bit those of a
channel-by-channel renderer: smoothing is one ``np.convolve`` per row
(batching it would change the dot product behind each output), every
other step is an elementwise ufunc applied row by row, and a row's mean
square is ``np.mean``'s own pairwise sum divided by n.

Smoothing keeps a row's n samples centred as ``np.convolve(mode="same")``
centres them, so a trial shorter than a smoothing kernel is defined too.
"""

import itertools
import math
import mmap
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .config import FrozenMap, JsonConfig
from .errors import InvalidSpecError
from .ingest import Recording, RecordingSet, SegmentationConfig, is_safe_label

PROFILE_KINDS = ("tonic", "noise")


@dataclass(frozen=True)
class ChannelProfile(JsonConfig):
    kind: str = "noise"
    gain: float = 1.0
    carrier_hz: float = 30.0  # tonic only
    am_depth: float = 0.25  # tonic: texture fraction added to the carrier
    amp_jitter: float = 0.08  # tonic: relative amplitude drift (window timescale)

    def check_bounds(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise InvalidSpecError(f"unknown profile kind {self.kind!r}")
        if self.gain <= 0:
            raise InvalidSpecError("profile gain must be positive")


@dataclass(frozen=True)
class ChannelSpec(JsonConfig):
    default: ChannelProfile = field(default_factory=ChannelProfile)
    classes: Mapping[str, ChannelProfile] = field(default_factory=FrozenMap)

    def profile(self, class_label: str) -> ChannelProfile:
        return self.classes.get(class_label, self.default)


@dataclass(frozen=True)
class SyntheticSpec(JsonConfig):
    class_names: tuple[str, ...]
    channel_count: int
    sampling_rate_hz: float = 200.0
    windows_per_class: int = 80
    window_len_samples: int = 128
    overlap_fraction: float = 0.5
    trials_per_class: int = 4
    seed: int = 0
    channels: tuple[ChannelSpec, ...] = ()

    def check_bounds(self) -> None:
        if not self.class_names:
            raise InvalidSpecError("class_names must be nonempty")
        if len(set(self.class_names)) != len(self.class_names):
            raise InvalidSpecError("class_names must be unique")
        for label in self.class_names:
            if not is_safe_label(label):
                raise InvalidSpecError(f"class name {label!r} cannot be part of a file name")
        self.check_positive_ints("channel_count", "windows_per_class", "trials_per_class")
        self.segmentation()  # checks the window length and overlap
        if self.sampling_rate_hz <= 0:
            raise InvalidSpecError("sampling_rate_hz must be positive")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be a nonnegative integer, got {self.seed}")
        if len(self.channels) > self.channel_count:
            raise InvalidSpecError("more channel specs than channel_count")
        known = set(self.class_names)
        for spec in self.channels:
            for label in spec.classes:
                if label not in known:
                    raise InvalidSpecError(f"channel profile for unknown class {label!r}")

    def profile(self, channel: int, class_label: str) -> ChannelProfile:
        """The profile of ``channel`` in class ``class_label``; a channel past
        the end of ``channels`` is default noise."""
        spec = self.channels[channel] if channel < len(self.channels) else ChannelSpec()
        return spec.profile(class_label)

    def segmentation(self) -> SegmentationConfig:
        """The natural segmentation for this spec: no trimming, own geometry."""
        return SegmentationConfig(
            trim_head_ms=0.0,
            trim_tail_ms=0.0,
            window_len_samples=self.window_len_samples,
            overlap_fraction=self.overlap_fraction,
            concat_trials_within_session=False,
        )


def _smooth(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Moving average of the 1-D ``x``: its ``len(x)`` samples centred as
    ``np.convolve(mode="same")`` centres them, also when ``x`` is shorter
    than ``taps`` (where that mode would return ``len(taps)`` samples)."""
    n, k = len(x), len(taps)
    if n >= k:
        return np.convolve(x, taps, mode="same")
    start = (k - 1) // 2
    return np.convolve(x, taps)[start : start + n]


def _smooth_rows(x: np.ndarray, taps: np.ndarray | None) -> None:
    """Smooth each row of ``x`` in place; ``taps`` None leaves it as it is."""
    if taps is not None:
        for row in x:
            row[...] = _smooth(row, taps)


def _unit_rms(x: np.ndarray, scratch: np.ndarray) -> None:
    """Scale each row (along the last axis) of ``x`` in place to unit RMS;
    an all-zero row stays. ``scratch`` is a work array of ``x``'s shape."""
    power = np.sqrt(np.square(x, out=scratch).sum(axis=-1, keepdims=True) / x.shape[-1])
    power[~(power > 0)] = 1.0
    x /= power


def _box(kernel: int) -> np.ndarray | None:
    return np.ones(kernel) / kernel if kernel > 1 else None


_ENV_LOG_SD = 0.5  # lognormal amplitude drift
_LOWPASS_KERNEL = 8  # slow component of the bandwidth mix


def _runs(profiles: list[ChannelProfile]) -> list[tuple[slice, str, np.ndarray]]:
    """``(rows, kind, columns)`` of each run of consecutive same-kind
    channels. ``columns`` holds the channels' gain, amp_jitter, carrier
    angular frequency and am_depth as four ``(k, 1)`` columns."""
    runs = []
    first = 0
    for kind, group in itertools.groupby(profiles, key=lambda p: p.kind):
        params = [(p.gain, p.amp_jitter, 2.0 * math.pi * p.carrier_hz, p.am_depth) for p in group]
        runs.append((slice(first, first + len(params)), kind, np.array(params).T[:, :, None]))
        first += len(params)
    return runs


# quoted: evaluating np.random would import numpy.random along with this module
def _render_tonic(
    rng: "np.random.Generator",
    out: np.ndarray,
    work: np.ndarray,
    scratch: np.ndarray,
    columns: np.ndarray,
    t: np.ndarray,
    taps: tuple,
) -> None:
    """Render a run of tonic channels into the rows of ``out``."""
    gain, amp_jitter, omega, am_depth = columns
    modulation, texture_taps, _ = taps
    k = len(out)
    phase = np.empty((k, 1))
    for j in range(k):
        phase[j] = rng.uniform(0.0, 2.0 * math.pi)
        rng.standard_normal(out=work[j, :2])
    drift, texture, carrier = work[:k, 0], work[:k, 1], work[:k, 2]
    _smooth_rows(drift, modulation)
    _smooth_rows(texture, texture_taps)
    _unit_rms(work[:k, :2], scratch[:k, :2])
    drift *= amp_jitter
    drift += 1.0
    np.maximum(drift, 0.05, out=drift)
    drift *= gain  # the envelope
    np.multiply(omega, t, out=carrier)
    carrier += phase
    np.sin(carrier, out=carrier)
    texture *= am_depth
    carrier += texture
    np.multiply(drift, carrier, out=out)


def _render_noise(
    rng: "np.random.Generator",
    out: np.ndarray,
    work: np.ndarray,
    scratch: np.ndarray,
    columns: np.ndarray,
    taps: tuple,
) -> None:
    """Render a run of noise channels into the rows of ``out``."""
    modulation, _, lowpass_taps = taps
    k = len(out)
    envelope, mix, broadband, lowpass = rng.standard_normal(out=work[:k]).swapaxes(0, 1)
    _smooth_rows(envelope, modulation)
    _smooth_rows(mix, modulation)
    _smooth_rows(lowpass, lowpass_taps)
    _unit_rms(work[:k], scratch[:k])
    envelope *= _ENV_LOG_SD
    mix *= -2.0
    np.exp(work[:k, :2], out=work[:k, :2])  # envelope and mix
    mix += 1.0
    np.divide(1.0, mix, out=mix)
    np.subtract(1.0, mix, out=out)
    out *= broadband
    lowpass *= mix
    out += lowpass
    envelope *= columns[0]  # gain
    out *= envelope


def trial_length(spec: SyntheticSpec) -> int:
    """Samples per trial so that the per-class window target is met."""
    per_trial = math.ceil(spec.windows_per_class / spec.trials_per_class)
    stride = spec.segmentation().stride
    return spec.window_len_samples + (per_trial - 1) * stride


def generate_recordings(spec: SyntheticSpec, seed: int | None = None) -> RecordingSet:
    """Render the spec into a RecordingSet; deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = trial_length(spec)
    t = np.arange(n) / spec.sampling_rate_hz
    # modulation, tonic texture and noise lowpass
    taps = (_box(spec.window_len_samples), _box(5), _box(_LOWPASS_KERNEL))
    # A run's draws and temporaries and the trial being rendered, in one
    # anonymous mapping that is given back on return. A trial is copied out
    # once rendered: a recording allocated before its rendering's heap
    # temporaries sits below them, and on long-window the heap was then no
    # longer trimmed after the feature build (+0.3 MB peak RSS).
    channels = spec.channel_count
    memory = np.frombuffer(mmap.mmap(-1, 8 * 9 * channels * n)).reshape(9 * channels, n)
    work, scratch = memory[: 8 * channels].reshape(2, channels, 4, n)
    frame = memory[8 * channels :]
    recordings: list[Recording] = []
    for label in spec.class_names:
        runs = _runs([spec.profile(ch, label) for ch in range(channels)])
        for trial in range(spec.trials_per_class):
            for rows, kind, columns in runs:
                if kind == "tonic":
                    _render_tonic(rng, frame[rows], work, scratch, columns, t, taps)
                else:
                    _render_noise(rng, frame[rows], work, scratch, columns, taps)
            recordings.append(
                Recording(
                    samples=frame.copy(),
                    class_label=label,
                    trial_id=f"t{trial:02d}",
                    session_id="s00",
                    participant_id="synthetic",
                )
            )
    return RecordingSet(
        recordings=recordings,
        sampling_rate_hz=spec.sampling_rate_hz,
        class_names=list(spec.class_names),
        channel_count=spec.channel_count,
    )
