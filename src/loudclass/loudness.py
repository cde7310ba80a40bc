"""Two-segment categorical loudness function and its twelve-feature summary.

Loudness growth is modeled as two straight lines in (level, CU) space that
meet at the level ``l_cut`` where the rating passes 25 CU, the middle of the
0-50 categorical scale. Six summaries per center frequency (1500 Hz and
4000 Hz) form the feature vector used everywhere downstream: the levels at
2.5, 25, and 50 CU, the two slopes, and ``l_cut`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, ParameterError

CENTER_FREQUENCIES_HZ: tuple[int, int] = (1500, 4000)

_BLOCK_LABELS = ("L2.5", "L25", "L50", "MLOW", "MHIGH", "LCUT")

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{label}_{freq}" for freq in CENTER_FREQUENCIES_HZ for label in _BLOCK_LABELS
)


def column_name(index: int, width: int) -> str:
    """How a message names column ``index`` of a matrix ``width`` columns
    wide: by its feature name when the matrix holds the twelve features,
    otherwise by its index."""
    return FEATURE_NAMES[index] if width == len(FEATURE_NAMES) else f"column {index}"


# dB-valued features move under a calibration offset; slope features do not.
LEVEL_FEATURE_INDICES: tuple[int, ...] = (0, 1, 2, 5, 6, 7, 8, 11)

CU_MIN = 0.0
CU_MEDIUM = 25.0
CU_MAX = 50.0


@dataclass(frozen=True)
class LoudnessFunction:
    """Piecewise-linear loudness growth curve.

    ``m_low`` applies below ``l_cut``, ``m_high`` above it; the curve passes
    through (``l_cut``, 25 CU) by construction. Both slopes are in CU/dB and
    must be strictly positive.
    """

    l_cut: float
    m_low: float
    m_high: float

    def __post_init__(self) -> None:
        for name in ("l_cut", "m_low", "m_high"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.m_low <= 0 or self.m_high <= 0:
            raise ParameterError("slopes m_low and m_high must be strictly positive")


def level_at_cu(fn: LoudnessFunction, cu: float) -> float:
    """Level in dB at which the unclamped curve reaches ``cu``.

    Only CU values in (0, 50] have a unique pre-image: 0 is reached by the
    whole clamped region below the curve, so it is excluded.
    """
    if not CU_MIN < cu <= CU_MAX:
        raise DomainError(f"cu must lie in (0, 50], got {cu!r}")
    slope = fn.m_low if cu <= CU_MEDIUM else fn.m_high
    return fn.l_cut + (cu - CU_MEDIUM) / slope


@dataclass(frozen=True)
class FrequencyFeatures:
    """Six loudness-function summaries at one center frequency."""

    l2_5: float
    l25: float
    l50: float
    m_low: float
    m_high: float
    l_cut: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.l2_5, self.l25, self.l50, self.m_low, self.m_high, self.l_cut)


@dataclass(frozen=True)
class LoudnessFeatureVector:
    """Twelve features: six per center frequency, 1500 Hz block first."""

    f1500: FrequencyFeatures
    f4000: FrequencyFeatures

    def as_tuple(self) -> tuple[float, ...]:
        """Values in ``FEATURE_NAMES`` order."""
        return self.f1500.as_tuple() + self.f4000.as_tuple()

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.as_tuple()))

    @classmethod
    def from_sequence(cls, values) -> "LoudnessFeatureVector":
        vals = tuple(float(v) for v in values)
        if len(vals) != len(FEATURE_NAMES):
            raise ParameterError(f"expected {len(FEATURE_NAMES)} values, got {len(vals)}")
        return cls(FrequencyFeatures(*vals[:6]), FrequencyFeatures(*vals[6:]))

    def with_l_cut(self, l_cut_1500: float, l_cut_4000: float) -> "LoudnessFeatureVector":
        return LoudnessFeatureVector(
            replace(self.f1500, l_cut=l_cut_1500),
            replace(self.f4000, l_cut=l_cut_4000),
        )


def derive_features(fn_1500: LoudnessFunction, fn_4000: LoudnessFunction) -> LoudnessFeatureVector:
    """Summarize one loudness function per center frequency as 12 features."""

    def block(fn: LoudnessFunction) -> FrequencyFeatures:
        return FrequencyFeatures(
            l2_5=level_at_cu(fn, 2.5),
            l25=level_at_cu(fn, 25.0),
            l50=level_at_cu(fn, 50.0),
            m_low=fn.m_low,
            m_high=fn.m_high,
            l_cut=fn.l_cut,
        )

    return LoudnessFeatureVector(block(fn_1500), block(fn_4000))


def validate_features(v: LoudnessFeatureVector) -> list[str]:
    """List every violated feature invariant; an empty list means valid."""
    violations: list[str] = []
    for freq, block in ((1500, v.f1500), (4000, v.f4000)):
        for name in ("l2_5", "l25", "l50", "l_cut"):
            if not math.isfinite(getattr(block, name)):
                violations.append(f"{freq} Hz: level {name} must be finite")
        for name in ("m_low", "m_high"):
            value = getattr(block, name)
            if not (math.isfinite(value) and value > 0):
                violations.append(f"{freq} Hz: slope {name} must be positive")
        levels_ok = all(math.isfinite(getattr(block, n)) for n in ("l2_5", "l25", "l50"))
        if levels_ok and not (block.l2_5 <= block.l25 <= block.l50):
            violations.append(f"{freq} Hz: level ordering violated (need l2_5 <= l25 <= l50)")
    return violations
