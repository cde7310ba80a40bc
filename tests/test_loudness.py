import math

import pytest
from hypothesis import given, strategies as st

import oracles
from loudclass.errors import DomainError
from loudclass.loudness import (
    FEATURE_NAMES,
    LEVEL_FEATURE_INDICES,
    LoudnessFunction,
    derive_features,
    level_at_cu,
    validate_features,
)

FN = LoudnessFunction(l_cut=85.0, m_low=0.5, m_high=2.0)
# Slope features are the ones a calibration offset does not move.
SLOPE_FEATURE_INDICES = tuple(i for i in range(12) if i not in LEVEL_FEATURE_INDICES)


def test_worked_example_levels():
    assert level_at_cu(FN, 2.5) == pytest.approx(40.0, abs=1e-12)
    assert level_at_cu(FN, 25.0) == pytest.approx(85.0, abs=1e-12)
    assert level_at_cu(FN, 50.0) == pytest.approx(97.5, abs=1e-12)


def test_worked_example_ratings():
    assert oracles.cu_at_level(FN, 40.0) == pytest.approx(2.5, abs=1e-12)
    assert oracles.cu_at_level(FN, 85.0) == pytest.approx(25.0, abs=1e-12)
    assert oracles.cu_at_level(FN, 97.5) == pytest.approx(50.0, abs=1e-12)


def test_rating_clamped_to_scale():
    assert oracles.cu_at_level(FN, -200.0) == 0.0
    assert oracles.cu_at_level(FN, 500.0) == 50.0


@pytest.mark.parametrize("cu", [0.0, -1.0, 50.0001, math.nan])
def test_level_at_cu_domain(cu):
    with pytest.raises(DomainError):
        level_at_cu(FN, cu)


@given(
    l_cut=st.floats(20, 120),
    m_low=st.floats(0.05, 5),
    m_high=st.floats(0.05, 5),
    cu=st.floats(0.001, 50),
)
def test_round_trip(l_cut, m_low, m_high, cu):
    fn = LoudnessFunction(l_cut, m_low, m_high)
    assert oracles.cu_at_level(fn, level_at_cu(fn, cu)) == pytest.approx(cu, abs=1e-8)


def test_feature_name_layout():
    assert len(FEATURE_NAMES) == 12
    assert FEATURE_NAMES[0].endswith("1500")
    assert FEATURE_NAMES[6].endswith("4000")
    assert set(LEVEL_FEATURE_INDICES) <= set(range(12))
    assert SLOPE_FEATURE_INDICES == (3, 4, 9, 10)
    for i in LEVEL_FEATURE_INDICES:
        assert not FEATURE_NAMES[i].startswith("M")
    for i in SLOPE_FEATURE_INDICES:
        assert FEATURE_NAMES[i].startswith("M")


def test_derive_features_matches_function():
    v = dict(zip(FEATURE_NAMES, derive_features(FN, LoudnessFunction(70.0, 0.4, 1.5))))
    assert v["L2.5_1500"] == pytest.approx(40.0)
    assert v["L50_1500"] == pytest.approx(97.5)
    assert v["LCUT_1500"] == 85.0
    assert v["MHIGH_4000"] == 1.5
    assert validate_features(tuple(v.values())) == []


def test_shifted_moves_levels_only():
    base = derive_features(FN, LoudnessFunction(70.0, 0.4, 1.5))
    out = oracles.shifted(base, 7.25)
    for i in LEVEL_FEATURE_INDICES:
        assert out[i] == base[i] + 7.25
    for i in SLOPE_FEATURE_INDICES:
        assert out[i] == base[i]  # bit-identical, not approximately


def test_validate_flags_bad_blocks():
    v = derive_features(FN, LoudnessFunction(70.0, 0.4, 1.5))
    bad = v[:9] + (-1.0,) + v[10:]
    problems = validate_features(bad)
    assert any("4000" in p and "MLOW" in p for p in problems)
    swapped = (99.0,) + v[1:]
    assert any("ordering" in p for p in validate_features(swapped))
    assert problems == ["MLOW_4000 must be positive"]
    assert validate_features(swapped) == [
        "level ordering violated (need L2.5_1500 <= L25_1500 <= L50_1500)"]
    assert validate_features((math.inf,) + v[1:5] + (math.nan,) + v[6:]) == [
        "L2.5_1500 must be finite", "LCUT_1500 must be finite"]
