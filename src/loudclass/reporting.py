"""Serialization of experiment results to stable on-disk artifacts.

Every writer is deterministic: JSON is dumped with sorted keys, floats go
through repr, CSV rows use a fixed "\n" terminator, and nothing embeds
timestamps or machine-local state beyond the manifest's version pins and
input checksums. Rerunning a command from its manifest must reproduce
every byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import re
import statistics
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from ._version import __version__
from .errors import DataError
from .explain import PermutationImportanceReport, ShapExplanation, beeswarm_export
from .harness import ClassifierResult, ExperimentConfig, MetricsReport, SweepReport
from .metrics import ConfusionMatrix
from .pca import PcaModel


def dump_json(payload, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def write_csv_rows(path, header, rows) -> Path:
    """Write ``header`` and ``rows`` as CSV. ``csv`` writes a float, numpy's
    float64 included, as its shortest round-trip repr, and an int or a bool
    as ``str`` does; no row holds None, which it would write as ''."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _slug(label) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", str(label))


def _num(value: float) -> str:
    return f"{value:g}"


def experiment_config_jsonable(cfg: ExperimentConfig) -> dict:
    payload = asdict(cfg)
    # The file's content, not its path: manifest.json keeps the path.
    data_path = payload.pop("data_path")
    payload["data_sha256"] = sha256_file(data_path) if data_path else None
    if cfg.synthetic is not None:
        payload["synthetic"]["classes"] = [str(c) for c in cfg.synthetic.classes]
    return payload


def _score_block(values: tuple[float, ...]) -> dict:
    mean, sd = ClassifierResult.mean_sd(values)
    return {"per_fold": list(values), "mean": mean, "sd": sd}


def report_to_jsonable(report: MetricsReport) -> dict:
    classifiers = {}
    for result in report.results:
        classifiers[result.name] = {
            "variant": result.variant,
            "train_balanced_accuracy": _score_block(result.train_ba),
            "test_balanced_accuracy": _score_block(result.test_ba),
            "train_weighted_f1": _score_block(result.train_wf1),
            "test_weighted_f1": _score_block(result.test_wf1),
            "test_f1_per_class": {
                str(cls): _score_block(values)
                for cls, values in result.per_class_f1.items()
            },
        }
    detail = report.designated
    t_rows = []
    for (a, b), members in sorted(report.t_tests.items()):
        for metric, tt in sorted(members.items()):
            t_rows.append(
                {
                    "a": a,
                    "b": b,
                    "metric": metric,
                    "t": tt.t,
                    "p": tt.p,
                    "degenerate": tt.degenerate,
                }
            )
    return {
        "config": experiment_config_jsonable(report.config),
        "classes": [str(c) for c in report.classes],
        "n_records": int(len(report.fold_plans[0].assignments)),
        "fold_plan_seeds": [plan.seed for plan in report.fold_plans],
        "classifiers": classifiers,
        "designated": {
            "name": detail.name,
            "roc_auc": {str(k): v for k, v in detail.roc_auc.items()},
            "pr_ap": {str(k): v for k, v in detail.pr_ap.items()},
        },
        "t_tests": t_rows,
    }


def _write_confusion_csv(path, counts: ConfusionMatrix, fractions: ConfusionMatrix):
    rows = []
    for i, true_cls in enumerate(counts.classes):
        for j, pred_cls in enumerate(counts.classes):
            rows.append(
                (
                    str(true_cls),
                    str(pred_cls),
                    int(counts.matrix[i, j]),
                    float(fractions.matrix[i, j]),
                )
            )
    return write_csv_rows(
        path,
        ("true_class", "predicted_class", "count", "fraction_of_predicted"),
        rows,
    )


def _write_curve_csvs(out_dir: Path, detail) -> list[Path]:
    written = []
    for key, points in detail.roc_curves.items():
        rows = zip(points.thresholds, points.x, points.y)
        written.append(
            write_csv_rows(
                out_dir / f"roc_{_slug(key)}.csv",
                ("threshold", "one_minus_specificity", "sensitivity"),
                rows,
            )
        )
    for key, points in detail.pr_curves.items():
        rows = zip(points.thresholds, points.x, points.y)
        written.append(
            write_csv_rows(
                out_dir / f"pr_{_slug(key)}.csv",
                ("threshold", "recall", "precision"),
                rows,
            )
        )
    return written


def write_report(report: MetricsReport, out_dir) -> list[Path]:
    """report.json plus the per-class F1, confusion, ROC, and PR tables."""
    out_dir = Path(out_dir)
    written = [dump_json(report_to_jsonable(report), out_dir / "report.json")]

    f1_rows = []
    for result in report.results:
        for cls, values in result.per_class_f1.items():
            for fold, value in enumerate(values):
                f1_rows.append((result.name, str(cls), fold, value))
    written.append(
        write_csv_rows(
            out_dir / "per_class_f1.csv",
            ("classifier", "class", "fold", "f1"),
            f1_rows,
        )
    )
    detail = report.designated
    written.append(
        _write_confusion_csv(
            out_dir / "confusion.csv",
            detail.confusion_counts,
            detail.confusion_by_predicted,
        )
    )
    written.extend(_write_curve_csvs(out_dir, detail))
    return written


def write_beeswarm_csv(explanation: ShapExplanation, record_ids, path) -> Path:
    rows = beeswarm_export(explanation, record_ids)
    return write_csv_rows(
        path,
        ("record_id", "feature", "shap_value", "feature_value", "rank"),
        [
            (r["record_id"], r["feature"], r["shap_value"], r["feature_value"], r["rank"])
            for r in rows
        ],
    )


def _importance_rows(report: PermutationImportanceReport):
    """(feature, split, repeat, decrease) for every permuted feature."""
    for split in report.splits:
        d, repeats = split.decreases.shape
        for fi in range(d):
            for rep in range(repeats):
                yield (report.feature_names[fi], split.split, rep,
                       float(split.decreases[fi, rep]))


def write_importance_csv(report: PermutationImportanceReport, path) -> Path:
    return write_csv_rows(path, ("feature", "split", "repeat", "decrease"),
                          _importance_rows(report))


def importance_meta_jsonable(report: PermutationImportanceReport) -> dict:
    return {
        "metric": report.metric,
        "baselines": {s.split: s.baseline for s in report.splits},
    }


def write_sweep(sweep: SweepReport, out_dir) -> list[Path]:
    """Per-condition reports plus the condition-indexed summary tables."""
    sweep_dir = Path(out_dir) / "sweep"
    written = []
    for (mean, sd), report in zip(sweep.conditions, sweep.reports):
        name = f"report_m{_num(mean)}_sd{_num(sd)}.json"
        written.append(dump_json(report_to_jsonable(report), sweep_dir / name))

    auc_rows = []
    overlay_rows = []
    for (mean, sd), report in zip(sweep.conditions, sweep.reports):
        detail = report.designated
        for key in list(detail.roc_auc):
            auc_rows.append((mean, sd, str(key), float(detail.roc_auc[key])))
        micro = detail.roc_curves["micro"]
        for t, x, y in zip(micro.thresholds, micro.x, micro.y):
            overlay_rows.append((mean, sd, float(t), float(x), float(y)))
    written.append(
        write_csv_rows(
            sweep_dir / "auc_summary.csv",
            ("rove_mean", "rove_sd", "curve", "auc"),
            auc_rows,
        )
    )
    written.append(
        write_csv_rows(
            sweep_dir / "roc_micro_overlay.csv",
            ("rove_mean", "rove_sd", "threshold", "one_minus_specificity", "sensitivity"),
            overlay_rows,
        )
    )

    importance_rows = (
        (mean, sd, *row)
        for (mean, sd), imp in zip(sweep.conditions, sweep.importance)
        for row in _importance_rows(imp)
    )
    written.append(
        write_csv_rows(
            sweep_dir / "perm_importance.csv",
            ("rove_mean", "rove_sd", "feature", "split", "repeat", "decrease"),
            importance_rows,
        )
    )
    return written


def write_pca_outputs(model: PcaModel, scores: np.ndarray, record_ids, out_dir,
                      feature_names) -> list[Path]:
    out_dir = Path(out_dir)
    k = model.n_components
    component_names = [f"pc{i + 1}" for i in range(k)]
    loading_rows = [
        (feature_names[fi], *model.loadings[fi, :]) for fi in range(len(feature_names))
    ]
    score_rows = [
        (record_ids[ri], *scores[ri, :]) for ri in range(scores.shape[0])
    ]
    written = [
        write_csv_rows(
            out_dir / "pca_loadings.csv", ("feature", *component_names), loading_rows
        ),
        write_csv_rows(
            out_dir / "pca_scores.csv", ("record_id", *component_names), score_rows
        ),
        dump_json(
            {
                "explained_variance": [float(v) for v in model.explained_variance],
                "explained_variance_fraction": [
                    float(v) for v in model.explained_variance_fraction
                ],
            },
            out_dir / "pca_explained.json",
        ),
    ]
    return written


def write_manifest(out_dir, command: str, options: dict, inputs) -> Path:
    """Record what was run, on which inputs, under which library versions.

    The output directory is deliberately absent so a replay into a fresh
    directory regenerates the manifest byte-for-byte.
    """
    payload = {
        "command": command,
        "options": options,
        "inputs": {str(Path(p).resolve()): sha256_file(p) for p in inputs},
        "versions": {
            "loudclass": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    return dump_json(payload, Path(out_dir) / "manifest.json")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader]


def _metrics_summary_rows(report_payload: dict):
    metric_fields = {
        ("train", "balanced_accuracy"): "train_balanced_accuracy",
        ("test", "balanced_accuracy"): "test_balanced_accuracy",
        ("train", "weighted_f1"): "train_weighted_f1",
        ("test", "weighted_f1"): "test_weighted_f1",
    }
    for name in sorted(report_payload["classifiers"]):
        block = report_payload["classifiers"][name]
        for (split, metric), field_name in metric_fields.items():
            yield (name, split, metric, block[field_name]["mean"],
                   block[field_name]["sd"])


def make_figures(in_dir, out_dir=None) -> list[Path]:
    """Collect evaluate/sweep outputs into one plot-ready CSV per figure.

    Returns the input files it read, in reading order.
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir) if out_dir is not None else in_dir / "figures"
    consumed = []

    report_path = in_dir / "report.json"
    if report_path.exists():
        consumed.append(report_path)
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        write_csv_rows(
            out_dir / "metrics_summary.csv",
            ("classifier", "split", "metric", "mean", "sd"),
            _metrics_summary_rows(payload),
        )
        f1_rows = []
        for name in sorted(payload["classifiers"]):
            per_class = payload["classifiers"][name]["test_f1_per_class"]
            for cls in sorted(per_class):
                f1_rows.append((name, cls, per_class[cls]["mean"], per_class[cls]["sd"]))
        write_csv_rows(
            out_dir / "per_class_f1_summary.csv",
            ("classifier", "class", "mean_f1", "sd_f1"),
            f1_rows,
        )

    for kind, out_name in (("roc", "roc_curves.csv"), ("pr", "pr_curves.csv")):
        sources = sorted(in_dir.glob(f"{kind}_*.csv"))
        if not sources:
            continue
        consumed.extend(sources)
        rows = []
        for source in sources:
            curve = source.stem[len(kind) + 1 :]
            header, body = _read_csv(source)
            rows.extend((curve, *row) for row in body)
        write_csv_rows(out_dir / out_name, ("curve", *header), rows)

    sweep_auc = in_dir / "sweep" / "auc_summary.csv"
    if sweep_auc.exists():
        consumed.append(sweep_auc)
        header, body = _read_csv(sweep_auc)
        write_csv_rows(out_dir / "sweep_auc.csv", header, body)

    sweep_imp = in_dir / "sweep" / "perm_importance.csv"
    if sweep_imp.exists():
        consumed.append(sweep_imp)
        _, body = _read_csv(sweep_imp)
        grouped: dict[tuple, list[float]] = {}
        for mean, sd, feature, split, _rep, decrease in body:
            grouped.setdefault((mean, sd, split, feature), []).append(float(decrease))
        rows = [
            (mean, sd, split, feature, statistics.median(values))
            for (mean, sd, split, feature), values in sorted(grouped.items())
        ]
        write_csv_rows(
            out_dir / "sweep_importance.csv",
            ("rove_mean", "rove_sd", "split", "feature", "median_decrease"),
            rows,
        )

    if not consumed:
        raise DataError(f"nothing to report on in {in_dir}")
    return consumed
