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
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError
from .ingest import FrozenMap, JsonConfig, Recording, RecordingSet, SegmentationConfig, is_safe_label

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


def _smooth(x: np.ndarray, kernel: int) -> np.ndarray:
    if kernel <= 1:
        return x
    taps = np.ones(kernel) / kernel
    return np.convolve(x, taps, mode="same")


def _unit_rms(x: np.ndarray) -> np.ndarray:
    power = float(np.sqrt(np.mean(np.square(x))))
    return x / power if power > 0 else x


# quoted: evaluating np.random would import numpy.random along with this module
def _render_tonic(
    rng: "np.random.Generator", n: int, fs: float, p: ChannelProfile, modulation_len: int
) -> np.ndarray:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    drift = _unit_rms(_smooth(rng.standard_normal(n), modulation_len))
    envelope = p.gain * np.maximum(1.0 + p.amp_jitter * drift, 0.05)
    t = np.arange(n) / fs
    carrier = np.sin(2.0 * math.pi * p.carrier_hz * t + phase)
    texture = _unit_rms(_smooth(rng.standard_normal(n), 5))
    return envelope * (carrier + p.am_depth * texture)


_ENV_LOG_SD = 0.5  # lognormal amplitude drift
_LOWPASS_KERNEL = 8  # slow component of the bandwidth mix


def _render_noise(
    rng: "np.random.Generator", n: int, p: ChannelProfile, modulation_len: int
) -> np.ndarray:
    envelope = np.exp(_ENV_LOG_SD * _unit_rms(_smooth(rng.standard_normal(n), modulation_len)))
    mix = 1.0 / (1.0 + np.exp(-2.0 * _unit_rms(_smooth(rng.standard_normal(n), modulation_len))))
    broadband = _unit_rms(rng.standard_normal(n))
    lowpass = _unit_rms(_smooth(rng.standard_normal(n), _LOWPASS_KERNEL))
    return p.gain * envelope * ((1.0 - mix) * broadband + mix * lowpass)


def trial_length(spec: SyntheticSpec) -> int:
    """Samples per trial so that the per-class window target is met."""
    per_trial = math.ceil(spec.windows_per_class / spec.trials_per_class)
    stride = spec.segmentation().stride
    return spec.window_len_samples + (per_trial - 1) * stride


def generate_recordings(spec: SyntheticSpec, seed: int | None = None) -> RecordingSet:
    """Render the spec into a RecordingSet; deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = trial_length(spec)
    recordings: list[Recording] = []
    for label in spec.class_names:
        for trial in range(spec.trials_per_class):
            channels = []
            for ch in range(spec.channel_count):
                profile = spec.profile(ch, label)
                if profile.kind == "tonic":
                    channels.append(
                        _render_tonic(
                            rng, n, spec.sampling_rate_hz, profile, spec.window_len_samples
                        )
                    )
                else:
                    channels.append(
                        _render_noise(rng, n, profile, spec.window_len_samples)
                    )
            recordings.append(
                Recording(
                    samples=np.stack(channels),
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
