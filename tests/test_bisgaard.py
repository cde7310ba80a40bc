import hashlib
from importlib import resources
from itertools import combinations

import numpy as np
import pytest

from loudclass.bisgaard import (
    PROFILE_DATA_SHA256,
    PTA_FREQUENCIES_HZ,
    Audiogram,
    BisgaardClass,
    class_from_name,
    classify,
    load_profiles,
    pta,
    resample,
    rmse,
)
from loudclass.errors import (
    ConfigurationError,
    DataError,
    ParameterError,
    RangeError,
    ShapeError,
)

PROFILES = load_profiles()
GRID = PROFILES[0].grid

# Regression pin: closest pair of reference profiles and their RMSE on
# the shared grid. A transcription edit moves this number immediately.
MIN_PAIR_RMSE = 12.747548783981962
MIN_PAIR = ("N1", "S1")


def test_packaged_table_checksum():
    data = (resources.files("loudclass.data") / "bisgaard_profiles.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PROFILE_DATA_SHA256


def test_profile_set_shape():
    assert len(PROFILES) == 10
    assert [p.bisgaard_class for p in PROFILES] == sorted(BisgaardClass)
    assert GRID == (250.0, 375.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0)


def test_self_classification_is_exact():
    for profile in PROFILES:
        cls, err = classify(Audiogram(GRID, profile.thresholds))
        assert cls is profile.bisgaard_class
        assert err == 0.0


def test_min_pairwise_rmse_pinned():
    pairs = []
    for a, b in combinations(PROFILES, 2):
        r = float(np.sqrt(np.mean((np.array(a.thresholds) - np.array(b.thresholds)) ** 2)))
        pairs.append((r, a.bisgaard_class.name, b.bisgaard_class.name))
    smallest = min(pairs)
    assert (smallest[1], smallest[2]) == MIN_PAIR
    assert smallest[0] == pytest.approx(MIN_PAIR_RMSE, abs=1e-9)


def test_equidistant_midpoint_resolved_by_severity():
    # Halfway between the two closest profiles both RMSEs tie exactly;
    # the milder class (N before S at equal rank) must win.
    pa = next(p for p in PROFILES if p.bisgaard_class.name == "N1")
    pb = next(p for p in PROFILES if p.bisgaard_class.name == "S1")
    mid = tuple((x + y) / 2 for x, y in zip(pa.thresholds, pb.thresholds))
    cls, err = classify(Audiogram(GRID, mid))
    assert cls is BisgaardClass.N1
    assert err == pytest.approx(MIN_PAIR_RMSE / 2, abs=1e-9)


def test_class_ordering_and_names():
    assert BisgaardClass.N1 < BisgaardClass.N2 < BisgaardClass.N7
    assert str(BisgaardClass.S2) == "S2"
    assert class_from_name("S3") is BisgaardClass.S3
    with pytest.raises(DataError):
        class_from_name("N8")


def test_audiogram_validation():
    with pytest.raises(ShapeError):
        Audiogram((500.0, 1000.0), (10.0,))
    with pytest.raises(ParameterError):
        Audiogram((1000.0, 500.0), (10.0, 10.0))
    assert not Audiogram((500.0, 1000.0), (10.0, float("nan"))).is_complete()


def test_resample_log2_linear():
    a = Audiogram((500.0, 2000.0), (10.0, 30.0))
    out = resample(a, (1000.0,))
    # 1000 Hz is the log2 midpoint of 500 and 2000.
    assert out.thresholds[0] == pytest.approx(20.0, abs=1e-12)
    exact = resample(a, (500.0, 2000.0))
    assert exact.thresholds == (10.0, 30.0)
    with pytest.raises(RangeError):
        resample(a, (250.0,))
    with pytest.raises(RangeError):
        resample(a, (4000.0,))


def test_rmse_requires_matching_grid():
    a = Audiogram((500.0, 1000.0), (10.0, 10.0))
    with pytest.raises(ShapeError):
        rmse(a, PROFILES[0])


def test_classify_resamples_off_grid_input():
    # Thresholds measured on a finer grid than the profiles use.
    profile = PROFILES[3]
    fine = tuple(float(f) for f in (250, 500, 1000, 2000, 4000, 6000))
    a = resample(Audiogram(GRID, profile.thresholds), fine)
    cls, err = classify(a)
    assert cls is profile.bisgaard_class


def test_pta_definition():
    assert PTA_FREQUENCIES_HZ == (500.0, 1000.0, 2000.0, 4000.0)
    assert pta(Audiogram(GRID, PROFILES[0].thresholds)) == pytest.approx(16.25)
    assert pta(Audiogram(GRID, PROFILES[-1].thresholds)) == pytest.approx(62.5)


def test_checksum_guard_fires(tmp_path, monkeypatch):
    import loudclass.bisgaard as mod

    monkeypatch.setattr(mod, "PROFILE_DATA_SHA256", "0" * 64)
    mod.load_profiles.cache_clear()
    try:
        with pytest.raises(ConfigurationError):
            mod.load_profiles()
    finally:
        monkeypatch.undo()
        mod.load_profiles.cache_clear()

