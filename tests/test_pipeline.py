import math
from dataclasses import replace

import numpy as np
import pytest

from loudclass.bisgaard import Audiogram, BisgaardClass, classify, load_profiles, pta
from loudclass.errors import (
    ConfigurationError,
    DataError,
    ParseError,
    SchemaError,
)
from loudclass.loudness import (
    LEVEL_FEATURE_INDICES,
    SLOPE_FEATURE_INDICES,
    LoudnessFeatureVector,
)
from loudclass.pipeline import (
    CSV_COLUMNS,
    THRESHOLD_FREQUENCIES_HZ,
    EarData,
    EarRecord,
    LabeledRecord,
    ParticipantRecord,
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    drop_incomplete,
    feature_matrix,
    filter_pta,
    filter_rare_classes,
    generate_synthetic,
    generate_synthetic_full,
    label_records,
    labels_of,
    load_csv,
    load_labeled_json,
    merge_by_id_ear,
    participant_offset,
    preprocess,
    rove_matrix,
    split_ears,
    write_csv,
    write_labeled_json,
)

PROFILES = load_profiles()
GRID = PROFILES[0].grid


def _features(seed: int = 0) -> LoudnessFeatureVector:
    base = 30.0 + seed
    return LoudnessFeatureVector.from_sequence(
        (base, base + 30, base + 55, 0.4, 1.8, base + 40,
         base + 5, base + 35, base + 60, 0.45, 1.9, base + 45)
    )


def _audiogram(offset: float, pid: str = "p1", ear: str = "left") -> Audiogram:
    # N4 profile shifted; stays closest to N4 for small offsets.
    n4 = next(p for p in PROFILES if p.bisgaard_class is BisgaardClass.N4)
    return Audiogram(GRID, tuple(t + offset for t in n4.thresholds), ear=ear,
                     participant_id=pid)


# --- cascade stages ----------------------------------------------------------

def test_split_ears_order_and_presence():
    rec = ParticipantRecord(
        "p1",
        left=EarData(audiogram=_audiogram(0)),
        right=EarData(features=_features()),
    )
    ears = split_ears([rec])
    assert [(e.participant_id, e.ear) for e in ears] == [("p1", "left"), ("p1", "right")]
    only_right = ParticipantRecord("p2", right=EarData(features=_features()))
    assert [e.ear for e in split_ears([only_right])] == ["right"]
    with pytest.raises(Exception):
        ParticipantRecord("p3")


def test_drop_incomplete_rules():
    good = EarRecord("p1", "left", _audiogram(0), _features())
    nan_threshold = EarRecord(
        "p2", "left",
        Audiogram(GRID, (float("nan"),) + (10.0,) * 9, participant_id="p2"),
        None,
    )
    nan_feature = EarRecord(
        "p3", "left", None,
        LoudnessFeatureVector.from_sequence(
            (math.nan,) + _features().as_tuple()[1:]
        ),
    )
    one_sided = EarRecord("p4", "left", _audiogram(0, "p4"), None)
    kept = drop_incomplete([good, nan_threshold, nan_feature, one_sided])
    assert [r.participant_id for r in kept] == ["p1", "p4"]


def test_merge_inner_join():
    audio = [
        EarRecord("p1", "left", _audiogram(0), None),
        EarRecord("p1", "right", _audiogram(0, ear="right"), None),
        EarRecord("p2", "left", _audiogram(5, "p2"), None),
    ]
    loud = [
        EarRecord("p1", "left", None, _features()),
        EarRecord("p3", "left", None, _features()),
    ]
    merged = merge_by_id_ear(audio, loud)
    assert [(r.participant_id, r.ear) for r in merged] == [("p1", "left")]
    assert merged[0].audiogram is not None and merged[0].features is not None
    with pytest.raises(DataError):
        merge_by_id_ear(audio + [audio[0]], loud)


def test_label_records_matches_classifier():
    rec = EarRecord("p1", "left", _audiogram(2.0), _features())
    labeled = label_records([rec])
    expected, _ = classify(rec.audiogram)
    assert labeled[0].label is expected
    assert labeled[0].pta == pytest.approx(pta(rec.audiogram))


def test_pta_filter_keeps_boundary():
    base = label_records([EarRecord("p1", "left", _audiogram(0), _features())])[0]
    exactly = LabeledRecord("p2", "left", base.features, base.label, 20.0)
    below = LabeledRecord("p3", "left", base.features, base.label, 19.999)
    kept = filter_pta([exactly, below], 20.0)
    assert [r.participant_id for r in kept] == ["p2"]


def test_rare_class_filter_thresholds():
    base = label_records([EarRecord("p1", "left", _audiogram(0), _features())])[0]

    def with_label(label, i):
        return LabeledRecord(f"q{i}", "left", base.features, label, 40.0)

    # 700 records: 600 N2, 65 N3 (9.3% but > 35), 35 S1 (5% exactly),
    # 0-fraction check via tiny N7 group.
    records = (
        [with_label(BisgaardClass.N2, i) for i in range(600)]
        + [with_label(BisgaardClass.N3, 600 + i) for i in range(65)]
        + [with_label(BisgaardClass.S1, 700 + i) for i in range(35)]
    )
    survivors, kept = filter_rare_classes(records, 0.05, 35)
    assert kept == (BisgaardClass.N2, BisgaardClass.N3, BisgaardClass.S1)
    assert len(survivors) == 700

    # Drop S1 under the fraction rule by diluting it below 5%.
    more = records + [with_label(BisgaardClass.N2, 1000 + i) for i in range(100)]
    _, kept = filter_rare_classes(more, 0.05, 35)
    assert BisgaardClass.S1 not in kept

    # Count rule: 34 records of a class fail even at a high fraction.
    few = (
        [with_label(BisgaardClass.N2, i) for i in range(40)]
        + [with_label(BisgaardClass.N3, 100 + i) for i in range(34)]
    )
    _, kept = filter_rare_classes(few, 0.05, 35)
    assert kept == (BisgaardClass.N2,)


def test_preprocess_summary_counts():
    participants, _ = generate_synthetic_full(SyntheticConfig(records_per_class=10, seed=4))
    final, summary = preprocess(
        [ParticipantRecord(p.participant_id,
                           EarData(audiogram=p.left.audiogram) if p.left else None,
                           EarData(audiogram=p.right.audiogram) if p.right else None)
         for p in participants],
        [ParticipantRecord(p.participant_id,
                           EarData(features=p.left.features) if p.left else None,
                           EarData(features=p.right.features) if p.right else None)
         for p in participants],
    )
    assert summary.merged == summary.audiogram_complete
    assert summary.after_class_filter == len(final)
    assert summary.as_dict()["class_set"] == [c.name for c in summary.class_set]


# --- roving ------------------------------------------------------------------

def test_roving_zero_condition_is_noop(small_records):
    out = apply_roving(small_records, RovingConfig(0.0, 0.0))
    assert out == small_records
    assert all(a is b for a, b in zip(out, small_records))


def test_roving_moves_levels_keeps_slopes(small_records):
    cfg = RovingConfig(10.0, 5.0, seed=3)
    out = apply_roving(small_records, cfg)
    X0 = feature_matrix(small_records)
    X1 = feature_matrix(out)
    level = list(LEVEL_FEATURE_INDICES)
    slope = list(SLOPE_FEATURE_INDICES)
    assert np.array_equal(X0[:, slope], X1[:, slope])  # bit-identical
    shifts = X1[:, level] - X0[:, level]
    # One offset per record, shared across all eight level features.
    assert np.allclose(shifts, shifts[:, :1], atol=1e-12)
    by_pid = {}
    for rec, s in zip(small_records, shifts[:, 0]):
        by_pid.setdefault(rec.participant_id, set()).add(round(float(s), 9))
    # Both ears of a participant share one offset.
    assert all(len(v) == 1 for v in by_pid.values())
    # Distinct participants draw distinct offsets (sd > 0).
    all_offsets = {next(iter(v)) for v in by_pid.values()}
    assert len(all_offsets) > 1


def test_roving_is_order_independent(small_records):
    cfg = RovingConfig(5.0, 10.0, seed=1)
    forward = apply_roving(small_records, cfg)
    backward = apply_roving(list(reversed(small_records)), cfg)
    assert forward == list(reversed(backward))


def _roved_one_by_one(records, cfg):
    """Roving by its per-record definition: each record's features shifted
    by its participant's offset, a zero offset keeping the record."""
    out = []
    for r in records:
        o = participant_offset(cfg, r.participant_id)
        out.append(r if o == 0.0 else replace(r, features=r.features.shifted(o)))
    return out


@pytest.mark.parametrize("mean, sd, seed", [
    (0.0, 0.0, 0), (5.0, 5.0, 0), (5.0, 10.0, 0), (10.0, 0.0, 3), (-7.5, 2.0, 9),
])
def test_rove_matrix_equals_roving_record_by_record(small_records, mean, sd, seed):
    cfg = RovingConfig(mean, sd, seed=seed)
    X = feature_matrix(small_records)
    got = rove_matrix(X, small_records, cfg)
    want = feature_matrix(_roved_one_by_one(small_records, cfg))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    via_records = feature_matrix(apply_roving(small_records, cfg))
    assert got.view(np.uint64).tolist() == via_records.view(np.uint64).tolist()
    assert np.array_equal(X, feature_matrix(small_records))  # X is not modified


def test_rove_matrix_invalid_row_keeps_the_record_error():
    # Levels near the float maximum overflow under a large offset.
    big = LoudnessFeatureVector.from_sequence(
        (1e308, 1.5e308, 1.7e308, 0.4, 1.8, 1.6e308) * 2
    )
    records = [
        LabeledRecord("p1", "left", _features(), BisgaardClass.N4, 40.0),
        LabeledRecord("p2", "right", big, BisgaardClass.N4, 40.0),
    ]
    cfg = RovingConfig(1e308, 0.0)
    with pytest.raises(DataError) as want:
        _roved_one_by_one(records, cfg)
    assert str(want.value).startswith("invalid features for p2/right: ")
    with pytest.raises(DataError) as got:
        rove_matrix(feature_matrix(records), records, cfg)
    assert str(got.value) == str(want.value)
    with pytest.raises(DataError) as via_records:
        apply_roving(records, cfg)
    assert str(via_records.value) == str(want.value)


def test_participant_offset_determinism():
    cfg = RovingConfig(10.0, 5.0, seed=3)
    a = participant_offset(cfg, "syn-N2-p0001")
    assert participant_offset(cfg, "syn-N2-p0001") == a
    assert participant_offset(RovingConfig(10.0, 5.0, seed=4), "syn-N2-p0001") != a
    assert participant_offset(RovingConfig(7.5, 0.0, seed=3), "x") == 7.5


def test_roving_config_validation():
    with pytest.raises(ConfigurationError):
        RovingConfig(0.0, -1.0)
    with pytest.raises(ConfigurationError):
        RovingConfig(math.nan, 1.0)


# --- synthetic generator -----------------------------------------------------

def test_generator_reproducible():
    cfg = SyntheticConfig(records_per_class=8, seed=11)
    assert generate_synthetic(cfg) == generate_synthetic(cfg)
    other = generate_synthetic(SyntheticConfig(records_per_class=8, seed=12))
    assert other != generate_synthetic(cfg)


def test_generator_covers_requested_classes(small_records):
    labels = {r.label for r in small_records}
    assert labels == set(SyntheticConfig(1).classes)


def test_generator_labels_match_stored_audiograms():
    participants, labeled = generate_synthetic_full(
        SyntheticConfig(records_per_class=6, seed=9)
    )
    audiograms = {
        (p.participant_id, ear): getattr(p, ear).audiogram
        for p in participants
        for ear in ("left", "right")
        if getattr(p, ear) is not None
    }
    for rec in labeled:
        a = audiograms[(rec.participant_id, rec.ear)]
        cls, _ = classify(a)
        assert cls is rec.label
        assert rec.pta == pytest.approx(pta(a))


def test_zero_noise_collapses_classes(separable_records):
    by_class = {}
    for r in separable_records:
        by_class.setdefault(r.label, set()).add(r.features.as_tuple())
    assert all(len(v) == 1 for v in by_class.values())
    assert len(by_class) == 6


def test_generator_validation():
    with pytest.raises(ConfigurationError):
        SyntheticConfig(records_per_class=0)
    with pytest.raises(ConfigurationError):
        SyntheticConfig(records_per_class=5, jitter_sd=-1.0)


# --- serialization -----------------------------------------------------------

def test_csv_round_trip(tmp_path):
    participants, _ = generate_synthetic_full(SyntheticConfig(records_per_class=6, seed=2))
    path = tmp_path / "data.csv"
    write_csv(participants, path)
    header = path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == CSV_COLUMNS
    assert load_csv(path) == participants


def test_csv_missing_cells(tmp_path):
    path = tmp_path / "partial.csv"
    thresholds = ",".join(["10"] * len(THRESHOLD_FREQUENCIES_HZ))
    path.write_text(
        ",".join(CSV_COLUMNS) + "\n"
        + f"p1,left,{thresholds}" + "," * 12 + "\n"
    )
    [rec] = load_csv(path)
    assert rec.left.audiogram is not None
    assert rec.left.features is None


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,ear,nope\n")
    with pytest.raises(SchemaError):
        load_csv(path)
    thresholds = ",".join(["10"] * len(THRESHOLD_FREQUENCIES_HZ))
    path.write_text(
        ",".join(CSV_COLUMNS) + "\n"
        + f"p1,left,{thresholds}" + ",abc" + "," * 11 + "\n"
    )
    with pytest.raises(ParseError) as info:
        load_csv(path)
    assert "line 2" in str(info.value)


def test_labeled_json_round_trip(tmp_path, small_records):
    path = tmp_path / "labeled.json"
    write_labeled_json(small_records, path)
    assert load_labeled_json(path) == small_records
    # Rewriting identical records yields identical bytes.
    first = path.read_bytes()
    write_labeled_json(small_records, path)
    assert path.read_bytes() == first


def test_labeled_json_schema_errors(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[]")
    with pytest.raises(SchemaError):
        load_labeled_json(path)
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_labeled_json(path)


def test_feature_matrix_layout(small_records):
    X = feature_matrix(small_records)
    y = labels_of(small_records)
    assert X.shape == (len(small_records), 12)
    assert X.dtype == np.float64
    assert len(y) == len(small_records)
    assert tuple(X[0]) == small_records[0].features.as_tuple()
