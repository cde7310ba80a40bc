"""Two-segment categorical loudness function and its twelve-feature summary.

Loudness growth is modeled as two straight lines in (level, CU) space that
meet at the level ``l_cut`` where the rating passes 25 CU, the middle of the
0-50 categorical scale. Six summaries per center frequency (1500 Hz and
4000 Hz) form the feature vector used everywhere downstream: the levels at
2.5, 25, and 50 CU, the two slopes, and ``l_cut`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError

CENTER_FREQUENCIES_HZ: tuple[int, int] = (1500, 4000)

# One center frequency's block, in order: each label, and whether it is a
# dB level, which a calibration offset moves, or a slope in CU/dB, which it
# does not. The levels at 2.5, 25 and 50 CU come first, in that order.
_BLOCK: tuple[tuple[str, bool], ...] = (
    ("L2.5", True), ("L25", True), ("L50", True),
    ("MLOW", False), ("MHIGH", False), ("LCUT", True),
)

FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{label}_{freq}" for freq in CENTER_FREQUENCIES_HZ for label, _ in _BLOCK
)

LEVEL_FEATURE_INDICES: tuple[int, ...] = tuple(
    i for i, (_, is_level) in enumerate(_BLOCK * len(CENTER_FREQUENCIES_HZ)) if is_level
)

# Positions within a block of the first three levels, which must not decrease.
_ORDERED: tuple[int, ...] = LEVEL_FEATURE_INDICES[:3]


def column_name(index: int, width: int) -> str:
    """How a message names column ``index`` of a matrix ``width`` columns
    wide: by its feature name when the matrix holds the twelve features,
    otherwise by its index."""
    return FEATURE_NAMES[index] if width == len(FEATURE_NAMES) else f"column {index}"


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


def derive_features(fn_1500: LoudnessFunction, fn_4000: LoudnessFunction) -> tuple[float, ...]:
    """The twelve features of one loudness function per center frequency,
    in ``FEATURE_NAMES`` order: ``_BLOCK``'s labels, once per frequency."""
    return tuple(
        value
        for fn in (fn_1500, fn_4000)
        for value in (level_at_cu(fn, 2.5), level_at_cu(fn, 25.0), level_at_cu(fn, 50.0),
                      fn.m_low, fn.m_high, fn.l_cut)
    )


def validate_features(features) -> list[str]:
    """List every violated invariant of twelve features in ``FEATURE_NAMES``
    order; an empty list means valid."""
    violations: list[str] = []
    width = len(_BLOCK)
    for start in range(0, len(FEATURE_NAMES), width):
        names = FEATURE_NAMES[start:start + width]
        block = features[start:start + width]
        for name, value, (_, is_level) in zip(names, block, _BLOCK):
            if is_level and not math.isfinite(value):
                violations.append(f"{name} must be finite")
            elif not is_level and not (math.isfinite(value) and value > 0):
                violations.append(f"{name} must be positive")
        low, mid, high = (block[i] for i in _ORDERED)
        if all(map(math.isfinite, (low, mid, high))) and not low <= mid <= high:
            ordered = " <= ".join(names[i] for i in _ORDERED)
            violations.append(f"level ordering violated (need {ordered})")
    return violations
