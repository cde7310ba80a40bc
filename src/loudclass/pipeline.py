"""Record ingestion, the preprocessing cascade, roving, and synthetic data.

Data arrive as one record per ear, as the CSV schema has one row per ear.
The cascade runs in a fixed order: drop records with missing measurements,
merge the audiogram and loudness sides by (participant, ear), label each
merged record with its nearest standard profile, exclude records whose
pure-tone average marks normal hearing, and prune rare classes once. A
calibration-offset ("roving") step can then shift every dB-level feature by
one per-participant Gaussian draw, leaving slopes untouched.

A seeded synthetic generator stands in for clinical data: it jitters the
standard profiles, maps thresholds at the two center frequencies to
loudness-function parameters with a simple recruitment rule, and labels
each record by re-classifying its own jittered audiogram.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from .bisgaard import (
    Audiogram,
    BisgaardClass,
    StandardAudiogram,
    class_from_name,
    classify,
    load_profiles,
    pta,
    resample,
)
from .domains import AtLeast, AtMost, Seed, check, check_fields, domain
from .errors import (
    ConfigurationError,
    DataError,
    ParameterError,
    ParseError,
    SchemaError,
)
from .loudness import (
    FEATURE_NAMES,
    LEVEL_FEATURE_INDICES,
    LoudnessFeatureVector,
    LoudnessFunction,
    derive_features,
    validate_features,
)

# Clinical measurement grid; the CSV schema carries one column per frequency.
THRESHOLD_FREQUENCIES_HZ: tuple[float, ...] = (
    125.0, 250.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 6000.0, 8000.0,
)

THRESHOLD_COLUMNS: tuple[str, ...] = tuple(f"f{int(f)}" for f in THRESHOLD_FREQUENCIES_HZ)

# A measured threshold in dB HL lies in the hearing-level range of a
# clinical (type 1) audiometer at its widest, -10 to 120 dB HL (IEC
# 60645-1:2017; ANSI/ASA S3.6-2018); no audiometer presents a tone outside.
ThresholdDbHL = Annotated[float, AtLeast(-10), AtMost(120)]
CSV_COLUMNS: tuple[str, ...] = ("id", "ear") + THRESHOLD_COLUMNS + FEATURE_NAMES

EARS = ("left", "right")

DEFAULT_MIN_PTA = 20.0
DEFAULT_MIN_CLASS_FRACTION = 0.05
DEFAULT_MIN_CLASS_COUNT = 35
# The domains of the cascade's thresholds; the cascade and the preprocess
# command's options check the same ones.
MinPta = float
MinClassFraction = Annotated[float, AtLeast(0), AtMost(1)]
MinClassCount = Annotated[int, AtLeast(0)]

DEFAULT_SYNTHETIC_CLASSES: tuple[BisgaardClass, ...] = (
    BisgaardClass.N2,
    BisgaardClass.N3,
    BisgaardClass.N4,
    BisgaardClass.S1,
    BisgaardClass.S2,
    BisgaardClass.S3,
)


@dataclass(frozen=True)
class EarRecord:
    """One ear of one participant, holding at least one data side."""

    participant_id: str
    ear: str
    audiogram: Audiogram | None = None
    features: LoudnessFeatureVector | None = None

    def __post_init__(self) -> None:
        if self.audiogram is None and self.features is None:
            raise ParameterError(
                f"ear {self.participant_id}/{self.ear} carries no data"
            )


@dataclass(frozen=True)
class LabeledRecord:
    """Fully prepared record: features, class label, and pure-tone average."""

    participant_id: str
    ear: str
    features: LoudnessFeatureVector
    label: BisgaardClass
    pta: float

    def __post_init__(self) -> None:
        if self.ear not in EARS:
            raise DataError(
                f"ear of {self.participant_id} must be 'left' or 'right', got {self.ear!r}"
            )
        _check_features(self.participant_id, self.ear, self.features)


def _check_features(participant_id: str, ear: str, features: LoudnessFeatureVector) -> None:
    violations = validate_features(features)
    if violations:
        raise DataError(
            f"invalid features for {participant_id}/{ear}: " + "; ".join(violations)
        )


@dataclass(frozen=True)
class RovingConfig:
    """One Gaussian calibration offset per participant.

    (mean=0, sd=0) is the no-roving reference and must be a strict no-op.
    """

    mean: float
    sd: Annotated[float, AtLeast(0)]
    seed: Seed = 0

    def __post_init__(self) -> None:
        check_fields(self)


# The most records per class the generator writes: 10 000 two-eared
# participants, so every participant id keeps its four digits
# (syn-N3-p9999), and all ten classes make 200 000 ears at most.
MAX_RECORDS_PER_CLASS = 20_000

# The synthetic generator's loudness recruitment: the lower slope shrinks
# and the upper slope grows with the hearing threshold (per dB), each
# clamped to a plausible range. They are not a claim about clinical data.
M_LOW_INTERCEPT = 0.9
M_LOW_SLOPE = -0.006
M_LOW_BOUNDS = (0.25, 0.9)
M_HIGH_INTERCEPT = 0.8
M_HIGH_SLOPE = 0.02
M_HIGH_BOUNDS = (0.8, 3.5)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic generator. Defaults produce overlapping classes.

    Each field sets the record count, the class set, the seed or one of the
    noise terms; the slope rules are the module's ``M_LOW_*`` and ``M_HIGH_*``
    constants. None of the values is a claim about clinical data.
    """

    records_per_class: Annotated[int, AtLeast(1), AtMost(MAX_RECORDS_PER_CLASS)]
    classes: tuple[BisgaardClass, ...] = DEFAULT_SYNTHETIC_CLASSES
    seed: Seed = 0
    jitter_sd: Annotated[float, AtLeast(0)] = 4.0
    l2_5_offset_mean: float = 5.0
    l2_5_offset_sd: Annotated[float, AtLeast(0)] = 3.0
    l_cut_noise_sd: Annotated[float, AtLeast(0)] = 2.0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.classes:
            raise ConfigurationError("class set must be non-empty")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigurationError("class set must not repeat classes")


@dataclass(frozen=True)
class PreprocessSummary:
    """Record counts after each cascade stage, for bookkeeping and reports."""

    audiogram_ears: int
    audiogram_complete: int
    loudness_ears: int
    loudness_complete: int
    merged: int
    after_pta_filter: int
    after_class_filter: int
    class_set: tuple[BisgaardClass, ...]

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "audiogram_ears", "audiogram_complete", "loudness_ears",
            "loudness_complete", "merged", "after_pta_filter", "after_class_filter",
        )}
        d["class_set"] = [c.name for c in self.class_set]
        return d


def _features_complete(features: LoudnessFeatureVector) -> bool:
    return all(math.isfinite(v) for v in features.as_tuple())


def drop_incomplete(records: list[EarRecord]) -> list[EarRecord]:
    """Remove records whose present measurements contain missing values.

    A side that is absent entirely (None) is not a gap; NaN inside a present
    audiogram or feature vector is.
    """
    out = []
    for r in records:
        if r.audiogram is not None and not r.audiogram.is_complete():
            continue
        if r.features is not None and not _features_complete(r.features):
            continue
        out.append(r)
    return out


def merge_by_id_ear(
    audiogram_records: list[EarRecord], loudness_records: list[EarRecord]
) -> list[EarRecord]:
    """Inner join on (participant, ear): audiogram side x loudness side."""

    def keyed(records: list[EarRecord], side: str) -> dict:
        table: dict[tuple[str, str], EarRecord] = {}
        for r in records:
            key = (r.participant_id, r.ear)
            if key in table:
                raise DataError(f"duplicate {side} record for {key}")
            table[key] = r
        return table

    audio = keyed(audiogram_records, "audiogram")
    loud = keyed(loudness_records, "loudness")
    out = []
    for key, a in audio.items():
        l = loud.get(key)
        if l is None:
            continue
        if a.audiogram is None:
            raise DataError(f"audiogram side is missing an audiogram for {key}")
        if l.features is None:
            raise DataError(f"loudness side is missing features for {key}")
        out.append(EarRecord(key[0], key[1], a.audiogram, l.features))
    return out


def label_records(records: list[EarRecord]) -> list[LabeledRecord]:
    """Classify each record's audiogram and attach label plus PTA."""
    out = []
    for r in records:
        if r.audiogram is None or r.features is None:
            raise DataError(
                f"record {r.participant_id}/{r.ear} lacks audiogram or features"
            )
        label, _ = classify(r.audiogram)
        out.append(
            LabeledRecord(r.participant_id, r.ear, r.features, label, pta(r.audiogram))
        )
    return out


def filter_pta(records: list[LabeledRecord], min_pta: float = DEFAULT_MIN_PTA) -> list[LabeledRecord]:
    """Keep records with pta >= min_pta; the boundary value is retained."""
    return [r for r in records if r.pta >= min_pta]


def filter_rare_classes(
    records: list[LabeledRecord],
    min_fraction: float = DEFAULT_MIN_CLASS_FRACTION,
    min_count: int = DEFAULT_MIN_CLASS_COUNT,
) -> tuple[list[LabeledRecord], tuple[BisgaardClass, ...]]:
    """Drop every class below either threshold. Applied once, not iterated."""
    n = len(records)
    counts: dict[BisgaardClass, int] = {}
    for r in records:
        counts[r.label] = counts.get(r.label, 0) + 1
    keep = {
        c for c, k in counts.items() if k >= min_count and (k / n) >= min_fraction
    }
    survivors = [r for r in records if r.label in keep]
    return survivors, tuple(sorted(keep))


def _label_and_filter(
    merged: list[EarRecord], input_counts: tuple[int, ...],
    min_pta: float, min_fraction: float, min_count: int,
) -> tuple[list[LabeledRecord], PreprocessSummary]:
    """The cascade after the merge: label, PTA filter, rare-class prune.

    ``input_counts`` are the audiogram and the loudness ear counts, each
    before and after dropping incomplete records.
    """
    check("min_pta", min_pta, MinPta)
    check("min_fraction", min_fraction, MinClassFraction)
    check("min_count", min_count, MinClassCount)
    labeled = label_records(merged)
    after_pta = filter_pta(labeled, min_pta)
    final, class_set = filter_rare_classes(after_pta, min_fraction, min_count)
    summary = PreprocessSummary(*input_counts, len(merged), len(after_pta), len(final),
                                class_set)
    return final, summary


def preprocess(
    audiogram_ears: list[EarRecord],
    loudness_ears: list[EarRecord],
    *,
    min_pta: float = DEFAULT_MIN_PTA,
    min_fraction: float = DEFAULT_MIN_CLASS_FRACTION,
    min_count: int = DEFAULT_MIN_CLASS_COUNT,
) -> tuple[list[LabeledRecord], PreprocessSummary]:
    """Run the full cascade on separate audiogram and loudness datasets."""
    audio_complete = drop_incomplete(audiogram_ears)
    loud_complete = drop_incomplete(loudness_ears)
    counts = (len(audiogram_ears), len(audio_complete),
              len(loudness_ears), len(loud_complete))
    return _label_and_filter(merge_by_id_ear(audio_complete, loud_complete), counts,
                             min_pta, min_fraction, min_count)


def prepare_combined(
    ears: list[EarRecord],
    *,
    min_pta: float = DEFAULT_MIN_PTA,
    min_fraction: float = DEFAULT_MIN_CLASS_FRACTION,
    min_count: int = DEFAULT_MIN_CLASS_COUNT,
) -> tuple[list[LabeledRecord], PreprocessSummary]:
    """Cascade for a single dataset that carries both sides per record."""
    complete = [
        r for r in drop_incomplete(ears) if r.audiogram is not None and r.features is not None
    ]
    # The one dataset is both the audiogram and the loudness side.
    return _label_and_filter(complete, (len(ears), len(complete)) * 2,
                             min_pta, min_fraction, min_count)


def _participant_key(participant_id: str) -> int:
    # Stable across runs and processes, unlike hash().
    digest = hashlib.blake2b(participant_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _participant_normal(seed: int, participant_id: str) -> float:
    """The standard normal draw of a participant under rove seed ``seed``."""
    seq = np.random.SeedSequence([seed, _participant_key(participant_id)])
    return float(np.random.default_rng(seq).standard_normal())


def participant_normals(records: list[LabeledRecord], seed: int) -> np.ndarray:
    """Per record, the standard normal draw of its participant under rove
    seed ``seed``; each participant's generator is built once."""
    ids = [r.participant_id for r in records]
    z = {pid: _participant_normal(seed, pid) for pid in dict.fromkeys(ids)}
    return np.array([z[pid] for pid in ids], dtype=np.float64)


def rove_matrix(
    X: np.ndarray,
    records: list[LabeledRecord],
    cfg: RovingConfig,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """``X``, the feature matrix of ``records``, with every dB-level column
    of a row shifted by the offset of the row's participant.

    Both ears and both frequencies of a participant share the offset; slope
    columns, and every row whose offset is zero, keep their bits, and
    (mean=0, sd=0) returns ``X`` itself. A finite offset keeps the level
    order of a valid record, since rounding is monotone, so only a row whose
    levels overflow can become invalid; the first such row raises the
    ``DataError`` that a ``LabeledRecord`` with its features raises.

    ``normals`` are the records' ``participant_normals`` under ``cfg.seed``;
    they are drawn here unless given, so that conditions sharing a seed can
    share one draw. Row i moves by ``cfg.mean + cfg.sd * normals[i]``, bit
    for bit the ``Generator.normal(cfg.mean, cfg.sd)`` draw of its
    participant's stream, which no record order or worker count changes.
    """
    if cfg.mean == 0.0 and cfg.sd == 0.0:
        return X
    if normals is None:
        normals = participant_normals(records, cfg.seed)
    levels = list(LEVEL_FEATURE_INDICES)
    out = X.copy()
    with np.errstate(over="ignore"):  # an overflowed row is reported below
        shift = cfg.mean + cfg.sd * normals
        moved = np.flatnonzero(shift != 0.0)
        out[np.ix_(moved, levels)] += shift[moved, None]
    for i in np.flatnonzero(~np.isfinite(out[:, levels]).all(axis=1)).tolist():
        r = records[i]
        _check_features(r.participant_id, r.ear, LoudnessFeatureVector.from_sequence(out[i]))
    return out


def apply_roving(records: list[LabeledRecord], cfg: RovingConfig) -> list[LabeledRecord]:
    """``records`` with their features roved by ``rove_matrix``.

    A record whose features do not move is returned as the same object,
    which makes (mean=0, sd=0) a byte-level no-op.
    """
    X = feature_matrix(records)
    roved = rove_matrix(X, records, cfg)
    moved = (roved != X).any(axis=1).tolist()
    return [
        replace(r, features=LoudnessFeatureVector.from_sequence(row)) if m else r
        for r, row, m in zip(records, roved, moved)
    ]


def _extended_profile(profile: StandardAudiogram) -> tuple[float, ...]:
    """Profile thresholds on the clinical grid, flat beyond the profile edges."""
    as_audiogram = Audiogram(profile.grid, profile.thresholds)
    out = []
    for f in THRESHOLD_FREQUENCIES_HZ:
        if f < profile.grid[0]:
            out.append(profile.thresholds[0])
        elif f > profile.grid[-1]:
            out.append(profile.thresholds[-1])
        else:
            out.append(resample(as_audiogram, (f,)).thresholds[0])
    return tuple(out)


def _clamp(x: float, bounds: tuple[float, float]) -> float:
    return min(max(x, bounds[0]), bounds[1])


def _synthesize_ear(
    cfg: SyntheticConfig,
    base_thresholds: tuple[float, ...],
    rng: np.random.Generator,
    participant_id: str,
    ear: str,
) -> tuple[Audiogram, LabeledRecord]:
    jitter = rng.normal(0.0, cfg.jitter_sd, size=len(base_thresholds))
    thresholds = tuple(t + j for t, j in zip(base_thresholds, jitter))
    audiogram = Audiogram(
        THRESHOLD_FREQUENCIES_HZ, thresholds, ear=ear, participant_id=participant_id
    )
    label, _ = classify(audiogram)

    blocks = []
    for freq in (1500.0, 4000.0):
        t = thresholds[THRESHOLD_FREQUENCIES_HZ.index(freq)]
        l2_5 = t + rng.normal(cfg.l2_5_offset_mean, cfg.l2_5_offset_sd)
        m_low = _clamp(M_LOW_INTERCEPT + M_LOW_SLOPE * t, M_LOW_BOUNDS)
        m_high = _clamp(M_HIGH_INTERCEPT + M_HIGH_SLOPE * t, M_HIGH_BOUNDS)
        # l_cut placed so the fitted curve reaches 2.5 CU exactly at l2_5.
        l_cut = l2_5 + (25.0 - 2.5) / m_low
        fn = LoudnessFunction(l_cut=l_cut, m_low=m_low, m_high=m_high)
        reported_l_cut = l_cut + rng.normal(0.0, cfg.l_cut_noise_sd)
        blocks.append((fn, reported_l_cut))

    features = derive_features(blocks[0][0], blocks[1][0]).with_l_cut(
        blocks[0][1], blocks[1][1]
    )
    record = LabeledRecord(participant_id, ear, features, label, pta(audiogram))
    return audiogram, record


def generate_synthetic_full(
    cfg: SyntheticConfig,
) -> tuple[list[EarRecord], list[LabeledRecord]]:
    """Synthesize ears (audiograms + features) and their labeled records,
    both in the same order.

    Each participant contributes two ears with independent jitter; an odd
    records-per-class count leaves the last participant single-eared. RNG
    streams are keyed by (seed, class, participant, ear), so output does not
    depend on generation order.
    """
    by_class = {p.bisgaard_class: p for p in load_profiles()}
    ear_records: list[EarRecord] = []
    labeled: list[LabeledRecord] = []
    for ci, cls in enumerate(cfg.classes):
        base = _extended_profile(by_class[cls])
        n_participants = (cfg.records_per_class + 1) // 2
        for pi in range(n_participants):
            pid = f"syn-{cls.name}-p{pi:04d}"
            remaining = cfg.records_per_class - 2 * pi
            ears = EARS if remaining >= 2 else EARS[:1]
            for ei, ear in enumerate(ears):
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, ci, pi, ei])
                )
                audiogram, record = _synthesize_ear(cfg, base, rng, pid, ear)
                ear_records.append(EarRecord(pid, ear, audiogram, record.features))
                labeled.append(record)
    return ear_records, labeled


def generate_synthetic(cfg: SyntheticConfig) -> list[LabeledRecord]:
    """Labeled synthetic records; see ``generate_synthetic_full``."""
    return generate_synthetic_full(cfg)[1]


def feature_matrix(records: list[LabeledRecord]) -> np.ndarray:
    """(n, 12) float64 matrix in ``FEATURE_NAMES`` column order."""
    return np.array([r.features.as_tuple() for r in records], dtype=np.float64)


def labels_of(records: list[LabeledRecord]) -> list[BisgaardClass]:
    return [r.label for r in records]


def _parse_cell(value: str, line_number: int, column: str, annotation=None) -> float:
    """The cell's number, NaN if empty; outside ``annotation``, a ``ParseError``."""
    if value == "":
        return math.nan
    try:
        number = float(value)
    except ValueError:
        raise ParseError(
            f"column {column!r} has non-numeric value {value!r}", line_number
        ) from None
    if annotation is not None and not math.isnan(number):
        description, admits = domain(annotation)
        if not admits(number):
            raise ParseError(f"column {column!r} must be {description}, got {value!r}",
                             line_number)
    return number


def _format_cell(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def load_csv(path) -> list[EarRecord]:
    """Read one ear record per row of the documented CSV schema.

    The records come in participant order of first appearance, left ear
    before right, whatever the row order. Empty cells mark missing values:
    a fully empty block (all thresholds or all features) means that side is
    absent; a partially empty block keeps the side present with NaN gaps so
    ``drop_incomplete`` can remove it. A threshold outside ``ThresholdDbHL``
    is a ``ParseError`` naming its line and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", 1) from None
        if tuple(header) != CSV_COLUMNS:
            unknown = [c for c in header if c not in CSV_COLUMNS]
            missing = [c for c in CSV_COLUMNS if c not in header]
            raise SchemaError(
                f"header mismatch: unknown columns {unknown}, missing columns {missing}"
            )
        by_participant: dict[str, dict[str, EarRecord]] = {}
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(
                    f"expected {len(CSV_COLUMNS)} cells, got {len(row)}", line_number
                )
            pid, ear = row[0], row[1]
            if not pid:
                raise ParseError("empty participant id", line_number)
            if ear not in EARS:
                raise ParseError(f"ear must be 'left' or 'right', got {ear!r}", line_number)
            thresholds = [
                _parse_cell(v, line_number, c, ThresholdDbHL)
                for v, c in zip(row[2:13], THRESHOLD_COLUMNS)
            ]
            feature_values = [
                _parse_cell(v, line_number, c) for v, c in zip(row[13:], FEATURE_NAMES)
            ]
            audiogram = None
            if any(not math.isnan(t) for t in thresholds):
                audiogram = Audiogram(
                    THRESHOLD_FREQUENCIES_HZ, thresholds, ear=ear, participant_id=pid
                )
            features = None
            if any(not math.isnan(v) for v in feature_values):
                features = LoudnessFeatureVector.from_sequence(feature_values)
            if audiogram is None and features is None:
                raise ParseError("row carries no data", line_number)
            by_ear = by_participant.setdefault(pid, {})
            if ear in by_ear:
                raise ParseError(f"duplicate entry for ({pid!r}, {ear!r})", line_number)
            by_ear[ear] = EarRecord(pid, ear, audiogram, features)
    return [
        by_ear[ear] for by_ear in by_participant.values() for ear in EARS if ear in by_ear
    ]


def write_csv(records: list[EarRecord], path) -> None:
    """Inverse of ``load_csv``, one row per record in the given order;
    floats use shortest round-trip formatting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            if rec.audiogram is not None:
                if rec.audiogram.frequencies != THRESHOLD_FREQUENCIES_HZ:
                    raise DataError(
                        f"audiogram of {rec.participant_id}/{rec.ear} is not on "
                        "the clinical frequency grid"
                    )
                thresholds = [_format_cell(t) for t in rec.audiogram.thresholds]
            else:
                thresholds = [""] * len(THRESHOLD_COLUMNS)
            if rec.features is not None:
                features = [_format_cell(v) for v in rec.features.as_tuple()]
            else:
                features = [""] * len(FEATURE_NAMES)
            writer.writerow([rec.participant_id, rec.ear, *thresholds, *features])


def write_labeled_json(records: list[LabeledRecord], path) -> None:
    payload = {
        "records": [
            {
                "participant_id": r.participant_id,
                "ear": r.ear,
                "label": r.label.name,
                "pta": r.pta,
                "features": r.features.as_dict(),
            }
            for r in records
        ]
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise TypeError(f"{what} must be a number within the float range") from None


def _json_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def load_labeled_json(path) -> list[LabeledRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from None
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise SchemaError("expected a top-level object with a 'records' list")
    out = []
    for i, entry in enumerate(records):
        try:
            if not isinstance(entry, dict) or not isinstance(entry["features"], dict):
                raise TypeError("a record and its 'features' must be objects")
            features = LoudnessFeatureVector.from_sequence(
                _json_number(entry["features"][name], name) for name in FEATURE_NAMES
            )
            record = LabeledRecord(
                participant_id=_json_string(entry["participant_id"], "participant_id"),
                ear=_json_string(entry["ear"], "ear"),
                features=features,
                label=class_from_name(_json_string(entry["label"], "label")),
                pta=_json_number(entry["pta"], "pta"),
            )
        except KeyError as exc:
            raise SchemaError(f"record {i} is missing key {exc}") from None
        except TypeError as exc:
            raise SchemaError(f"record {i}: {exc}") from None
        out.append(record)
    return out
