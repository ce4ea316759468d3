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
class -> trial -> channel order from one ``numpy`` generator. A tonic
channel draws its carrier phase, then n samples of drift noise, then n of
texture noise; a noise channel draws n samples each of envelope, mix,
broadband and lowpass noise, in that order.

Smoothing keeps a row's n samples centred as ``np.convolve(mode="same")``
centres them, so a trial shorter than a smoothing kernel is defined too.
"""

import math
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


def _unit_rms(x: np.ndarray) -> np.ndarray:
    """``x`` scaled in place to unit RMS; an all-zero ``x`` stays."""
    power = math.sqrt(np.mean(np.square(x)))
    if power > 0:
        x /= power
    return x


# quoted: evaluating np.random would import numpy.random along with this module
def _unit_noise(rng: "np.random.Generator", n: int, taps: np.ndarray | None) -> np.ndarray:
    """``n`` standard normals, smoothed by ``taps`` unless None, at unit RMS."""
    x = rng.standard_normal(n)
    return _unit_rms(x if taps is None else _smooth(x, taps))


_ENV_LOG_SD = 0.5  # lognormal amplitude drift
_TEXTURE_TAPS = np.ones(5) / 5  # tonic texture
_LOWPASS_TAPS = np.ones(8) / 8  # slow component of the noise bandwidth mix


def _render(
    rng: "np.random.Generator", t: np.ndarray, p: ChannelProfile, modulation: np.ndarray | None
) -> np.ndarray:
    """One channel's samples at times ``t``, drawn in the module docstring's order."""
    n = len(t)
    if p.kind == "tonic":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        drift = _unit_noise(rng, n, modulation)
        texture = _unit_noise(rng, n, _TEXTURE_TAPS)
        envelope = p.gain * np.maximum(1.0 + p.amp_jitter * drift, 0.05)
        carrier = np.sin(2.0 * math.pi * p.carrier_hz * t + phase)
        return envelope * (carrier + p.am_depth * texture)
    envelope = np.exp(_ENV_LOG_SD * _unit_noise(rng, n, modulation))
    mix = 1.0 / (1.0 + np.exp(-2.0 * _unit_noise(rng, n, modulation)))
    broadband = _unit_noise(rng, n, None)
    lowpass = _unit_noise(rng, n, _LOWPASS_TAPS)
    return p.gain * envelope * ((1.0 - mix) * broadband + mix * lowpass)


def trial_length(spec: SyntheticSpec) -> int:
    """Samples per trial so that the per-class window target is met."""
    per_trial = math.ceil(spec.windows_per_class / spec.trials_per_class)
    stride = spec.segmentation().stride
    return spec.window_len_samples + (per_trial - 1) * stride


def generate_recordings(spec: SyntheticSpec, seed: int | None = None) -> RecordingSet:
    """Render the spec into a RecordingSet; deterministic for a fixed seed.
    A channel whose samples overflow float64 raises ``InvalidSpecError``."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = trial_length(spec)
    t = np.arange(n) / spec.sampling_rate_hz
    w = spec.window_len_samples
    modulation = np.ones(w) / w if w > 1 else None  # drift on the window timescale
    recordings: list[Recording] = []
    for label in spec.class_names:
        for trial in range(spec.trials_per_class):
            samples = np.empty((spec.channel_count, n))
            for ch, row in enumerate(samples):
                p = spec.profile(ch, label)
                with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                    row[...] = _render(rng, t, p, modulation)
                if not np.isfinite(row).all():
                    raise InvalidSpecError(
                        f"class {label!r}, trial {trial}, channel {ch} ({p.kind}, gain "
                        f"{p.gain!r}): its samples overflow float64"
                    )
            trial_id = f"t{trial:02d}"
            recordings.append(Recording(samples, label, trial_id, "s00", "synthetic"))
    return RecordingSet(
        recordings=recordings,
        sampling_rate_hz=spec.sampling_rate_hz,
        class_names=list(spec.class_names),
        channel_count=spec.channel_count,
    )
