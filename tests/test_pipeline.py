import math
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from loudclass.bisgaard import Audiogram, BisgaardClass, classify, load_profiles, pta
from loudclass.harness import DEFAULT_ROVING_CONDITIONS
from loudclass.errors import (
    ConfigurationError,
    DataError,
    ParameterError,
    ParseError,
    SchemaError,
)
from loudclass.loudness import LEVEL_FEATURE_INDICES, LoudnessFeatureVector
from loudclass.pipeline import (
    CSV_COLUMNS,
    THRESHOLD_FREQUENCIES_HZ,
    EarRecord,
    LabeledRecord,
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
    participant_normals,
    _participant_key,
    prepare_combined,
    preprocess,
    rove_matrix,
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

def test_ear_record_needs_a_data_side():
    EarRecord("p1", "left", audiogram=_audiogram(0))
    EarRecord("p1", "right", features=_features())
    with pytest.raises(ParameterError):
        EarRecord("p3", "left")


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
    ears, _ = generate_synthetic_full(SyntheticConfig(records_per_class=10, seed=4))
    final, summary = preprocess(
        [replace(e, features=None) for e in ears],
        [replace(e, audiogram=None) for e in ears],
    )
    assert summary.merged == summary.audiogram_complete
    assert summary.after_class_filter == len(final)
    assert summary.as_dict()["class_set"] == [c.name for c in summary.class_set]


@pytest.mark.parametrize("cascade", ["preprocess", "prepare_combined"])
@pytest.mark.parametrize("threshold, message", [
    ({"min_pta": math.nan}, "min_pta must be a finite number, got nan"),
    ({"min_pta": math.inf}, "min_pta must be a finite number, got inf"),
    ({"min_fraction": 2.0}, "min_fraction must be a finite number >= 0 and <= 1, got 2.0"),
    ({"min_fraction": -0.1}, "min_fraction must be a finite number >= 0 and <= 1, got -0.1"),
    ({"min_fraction": math.nan}, "min_fraction must be a finite number >= 0 and <= 1, got nan"),
    ({"min_count": -1}, "min_count must be an integer >= 0, got -1"),
])
def test_cascade_thresholds_outside_their_domain(cascade, threshold, message):
    ears, _ = generate_synthetic_full(SyntheticConfig(records_per_class=2, seed=4))
    run = {"preprocess": lambda: preprocess(ears, ears, **threshold),
           "prepare_combined": lambda: prepare_combined(ears, **threshold)}[cascade]
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        run()


def test_cascade_thresholds_on_their_boundaries_are_accepted():
    ears, _ = generate_synthetic_full(SyntheticConfig(records_per_class=2, seed=4))
    assert prepare_combined(ears, min_fraction=1.0, min_count=0)[0] == []
    final, _ = prepare_combined(ears, min_pta=-1e9, min_fraction=0.0, min_count=0)
    assert len(final) == len(ears)


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
    slope = [i for i in range(12) if i not in LEVEL_FEATURE_INDICES]
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
        o = oracles.participant_offset(cfg, r.participant_id)
        out.append(r if o == 0.0 else replace(r, features=oracles.shifted(r.features, o)))
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


def _normal_draw_offset(cfg, participant_id):
    """The offset as one ``Generator.normal(mean, sd)`` draw from the
    participant's own generator, built anew for every condition."""
    seq = np.random.SeedSequence([cfg.seed, _participant_key(participant_id)])
    return float(np.random.default_rng(seq).normal(cfg.mean, cfg.sd))


@pytest.mark.parametrize("mean, sd, seed", [
    (5.0, 5.0, 0), (10.0, 10.0, 7), (-7.5, 2.0, 9), (0.0, 1e308, 0), (3.0, 0.0, 1),
])
def test_participant_offset_is_the_normal_draw_bit_for_bit(mean, sd, seed):
    cfg = RovingConfig(mean, sd, seed=seed)
    ids = [f"p{i:04d}" for i in range(2000)]
    got = [oracles.participant_offset(cfg, pid) for pid in ids]
    want = [_normal_draw_offset(cfg, pid) for pid in ids]
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


@pytest.mark.parametrize("mean, sd", DEFAULT_ROVING_CONDITIONS)
def test_shared_normals_rove_the_default_conditions_bit_for_bit(small_records, mean, sd):
    # One draw per participant, shared by every condition of a rove seed,
    # gives the matrix of one Generator.normal draw per condition.
    cfg = RovingConfig(mean, sd, seed=0)
    X = feature_matrix(small_records)
    got = rove_matrix(X, small_records, cfg, participant_normals(small_records, 0))
    want = []
    for r in small_records:
        o = _normal_draw_offset(cfg, r.participant_id)
        want.append(r if o == 0.0 else replace(r, features=oracles.shifted(r.features, o)))
    want = feature_matrix(want)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_participant_offset_determinism():
    cfg = RovingConfig(10.0, 5.0, seed=3)
    a = oracles.participant_offset(cfg, "syn-N2-p0001")
    assert oracles.participant_offset(cfg, "syn-N2-p0001") == a
    other = RovingConfig(10.0, 5.0, seed=4)
    assert oracles.participant_offset(other, "syn-N2-p0001") != a
    assert oracles.participant_offset(RovingConfig(7.5, 0.0, seed=3), "x") == 7.5


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
    ears, labeled = generate_synthetic_full(
        SyntheticConfig(records_per_class=6, seed=9)
    )
    assert [(e.participant_id, e.ear) for e in ears] == [
        (r.participant_id, r.ear) for r in labeled
    ]
    for ear, rec in zip(ears, labeled):
        a = ear.audiogram
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


@pytest.mark.parametrize("name", ["jitter_sd", "l2_5_offset_mean", "l2_5_offset_sd",
                                  "l_cut_noise_sd"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generator_noise_terms_must_be_finite(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be a finite number"):
        SyntheticConfig(records_per_class=4, **{name: value})


def test_generator_offset_mean_may_be_negative():
    assert SyntheticConfig(records_per_class=4, l2_5_offset_mean=-5.0).l2_5_offset_mean == -5.0


# --- serialization -----------------------------------------------------------

def test_csv_round_trip(tmp_path):
    ears, _ = generate_synthetic_full(SyntheticConfig(records_per_class=7, seed=2))
    path = tmp_path / "data.csv"
    write_csv(ears, path)
    header = path.read_text().splitlines()[0]
    assert tuple(header.split(",")) == CSV_COLUMNS
    assert load_csv(path) == ears


def test_csv_loads_participants_in_order_of_first_appearance_left_first(tmp_path):
    path = tmp_path / "shuffled.csv"
    thresholds = ",".join(["10"] * len(THRESHOLD_FREQUENCIES_HZ))
    rows = [f"{pid},{ear},{thresholds}" + "," * 12
            for pid, ear in (("p2", "right"), ("p1", "left"), ("p2", "left"),
                             ("p1", "right"))]
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
    assert [(r.participant_id, r.ear) for r in load_csv(path)] == [
        ("p2", "left"), ("p2", "right"), ("p1", "left"), ("p1", "right"),
    ]


def test_csv_missing_cells(tmp_path):
    path = tmp_path / "partial.csv"
    thresholds = ",".join(["10"] * len(THRESHOLD_FREQUENCIES_HZ))
    path.write_text(
        ",".join(CSV_COLUMNS) + "\n"
        + f"p1,left,{thresholds}" + "," * 12 + "\n"
    )
    [rec] = load_csv(path)
    assert (rec.participant_id, rec.ear) == ("p1", "left")
    assert rec.audiogram is not None
    assert rec.features is None


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


def _csv_with_thresholds(path, cells):
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "p1,left," + ",".join(cells)
                    + "," * 12 + "\n")
    return path


@pytest.mark.parametrize("cell", ["1e308", "120.5", "-10.5", "inf", "-inf"])
def test_csv_threshold_outside_the_audiometric_range_is_a_parse_error(tmp_path, cell):
    cells = ["10"] * len(THRESHOLD_FREQUENCIES_HZ)
    cells[2] = cell
    with pytest.raises(ParseError, match=re.escape(
            f"line 2: column 'f500' must be a finite number >= -10 and <= 120, "
            f"got '{cell}'")):
        load_csv(_csv_with_thresholds(tmp_path / "bad.csv", cells))


def test_csv_thresholds_on_the_audiometric_range_edges_load(tmp_path):
    cells = ["-10", "120", "nan", ""] + ["10"] * (len(THRESHOLD_FREQUENCIES_HZ) - 4)
    [rec] = load_csv(_csv_with_thresholds(tmp_path / "edges.csv", cells))
    assert rec.audiogram.thresholds[:2] == (-10.0, 120.0)
    assert all(map(math.isnan, rec.audiogram.thresholds[2:4]))


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
