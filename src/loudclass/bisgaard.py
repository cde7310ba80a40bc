"""Standard audiogram profiles and nearest-profile classification.

The ten profiles (N1-N7 flat to moderately sloping, S1-S3 steeply sloping)
are the reference audiograms tabulated by Bisgaard, Vlaming, and Dahlquist
(2010). They live in ``data/bisgaard_profiles.csv``; a SHA-256 checksum is
frozen here so any edit to the transcription fails loudly. Measured
audiograms are assigned to the profile with minimal RMSE over the profile
frequency grid, resampling log-linearly in frequency where grids differ.
"""

from __future__ import annotations

import bisect
import csv
import enum
import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import ConfigurationError, DataError, ParameterError, RangeError, ShapeError

PROFILE_DATA_SHA256 = "547b6a940bbe1e2afe91a9f965fbd86d64286a93b84f2c318026c148d94045c8"

PTA_FREQUENCIES_HZ: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0)


class BisgaardClass(enum.Enum):
    """One of the ten standard audiogram classes.

    The family letter separates flat/moderately sloping (N) from steeply
    sloping (S) losses; the digit is the severity rank within the family.
    """

    N1 = "N1"
    N2 = "N2"
    N3 = "N3"
    N4 = "N4"
    N5 = "N5"
    N6 = "N6"
    N7 = "N7"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"

    @property
    def family(self) -> str:
        return self.name[0]

    @property
    def severity_rank(self) -> int:
        return int(self.name[1])

    def __lt__(self, other: object):
        if not isinstance(other, BisgaardClass):
            return NotImplemented
        return (self.family, self.severity_rank) < (other.family, other.severity_rank)

    def __str__(self) -> str:
        return self.name

    # Members are singletons compared by identity, so hash by identity in C
    # instead of Enum's Python-level hash of the name: metrics and the
    # harness look every label up in a dict.
    __hash__ = object.__hash__


def class_from_name(name: str) -> BisgaardClass:
    try:
        return BisgaardClass[name]
    except KeyError:
        raise DataError(f"unknown audiogram class {name!r}") from None


@dataclass(frozen=True)
class StandardAudiogram:
    """One reference profile: thresholds in dB HL on the shared grid."""

    bisgaard_class: BisgaardClass
    grid: tuple[float, ...]
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.grid) != len(self.thresholds):
            raise ShapeError("grid and thresholds must have equal length")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ParameterError("grid frequencies must be strictly increasing")
        if not all(math.isfinite(t) for t in self.thresholds):
            raise ParameterError("profile thresholds must be finite")


@dataclass(frozen=True)
class Audiogram:
    """Measured thresholds for one ear. NaN marks a missing measurement."""

    frequencies: tuple[float, ...]
    thresholds: tuple[float, ...]
    ear: str = "left"
    participant_id: str = "anon"

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if len(self.frequencies) != len(self.thresholds):
            raise ShapeError("frequencies and thresholds must have equal length")
        if any(b <= a for a, b in zip(self.frequencies, self.frequencies[1:])):
            raise ParameterError("frequencies must be strictly increasing")
        if self.ear not in ("left", "right"):
            raise ParameterError(f"ear must be 'left' or 'right', got {self.ear!r}")

    def is_complete(self) -> bool:
        return all(math.isfinite(t) for t in self.thresholds)


@lru_cache(maxsize=None)
def load_profiles() -> tuple[StandardAudiogram, ...]:
    """Load the ten standard profiles from the packaged table.

    The file is checksum-verified so the transcription cannot drift
    silently.
    """
    data = (resources.files("loudclass.data") / "bisgaard_profiles.csv").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != PROFILE_DATA_SHA256:
        raise ConfigurationError(
            "packaged profile table failed its checksum; "
            f"expected {PROFILE_DATA_SHA256}, got {digest}"
        )
    text = data.decode("utf-8")

    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0][0] != "class":
        raise ConfigurationError("profile table must start with a 'class' header column")
    grid = tuple(float(f) for f in rows[0][1:])
    profiles = []
    for row in rows[1:]:
        if not row:
            continue
        cls = class_from_name(row[0])
        thresholds = tuple(float(v) for v in row[1:])
        profiles.append(StandardAudiogram(cls, grid, thresholds))
    _check_profile_set(tuple(profiles))
    return tuple(profiles)


def _check_profile_set(profiles: tuple[StandardAudiogram, ...]) -> None:
    classes = {p.bisgaard_class for p in profiles}
    if len(profiles) != len(BisgaardClass) or classes != set(BisgaardClass):
        raise ConfigurationError("profile set must contain each of the ten classes exactly once")
    grids = {p.grid for p in profiles}
    if len(grids) != 1:
        raise ConfigurationError("all profiles must share one frequency grid")


def resample(a: Audiogram, grid) -> Audiogram:
    """Interpolate an audiogram onto ``grid``, linear in log2(frequency).

    Points that coincide with measured frequencies are returned exactly;
    points outside the measured range raise ``RangeError``.
    """
    grid = tuple(float(g) for g in grid)
    out = []
    for g in grid:
        if g < a.frequencies[0] or g > a.frequencies[-1]:
            raise RangeError(
                f"{g} Hz outside measured range "
                f"[{a.frequencies[0]}, {a.frequencies[-1]}] Hz"
            )
        out.append(_interp_log2(a, g))
    return Audiogram(grid, tuple(out), ear=a.ear, participant_id=a.participant_id)


def _interp_log2(a: Audiogram, freq: float) -> float:
    freqs = a.frequencies
    lo = bisect.bisect_left(freqs, freq)
    if freqs[lo] == freq:
        return a.thresholds[lo]
    left, right = lo - 1, lo
    w = (math.log2(freq) - math.log2(freqs[left])) / (
        math.log2(freqs[right]) - math.log2(freqs[left])
    )
    return a.thresholds[left] + w * (a.thresholds[right] - a.thresholds[left])


def rmse(a: Audiogram, s: StandardAudiogram) -> float:
    """Root-mean-square threshold difference over the profile grid."""
    if a.frequencies != s.grid:
        raise ShapeError("audiogram must be resampled onto the profile grid first")
    sq = [(x - y) ** 2 for x, y in zip(a.thresholds, s.thresholds)]
    return math.sqrt(sum(sq) / len(sq))


def classify(a: Audiogram) -> tuple[BisgaardClass, float]:
    """Assign an audiogram to the nearest standard profile by minimal RMSE.

    Exact ties go to the lower severity rank, N family before S.
    """
    profiles = load_profiles()
    if not a.is_complete():
        raise DataError("cannot classify an audiogram with missing thresholds")
    grid = profiles[0].grid
    resampled = a if a.frequencies == grid else resample(a, grid)
    best = min(
        profiles,
        key=lambda p: (
            rmse(resampled, p),
            p.bisgaard_class.severity_rank,
            p.bisgaard_class.family,
        ),
    )
    return best.bisgaard_class, rmse(resampled, best)


def pta(a: Audiogram) -> float:
    """Pure-tone average: mean threshold over 0.5, 1, 2, and 4 kHz."""
    if all(f in a.frequencies for f in PTA_FREQUENCIES_HZ):
        values = [a.thresholds[a.frequencies.index(f)] for f in PTA_FREQUENCIES_HZ]
    else:
        values = list(resample(a, PTA_FREQUENCIES_HZ).thresholds)
    return sum(values) / len(values)
