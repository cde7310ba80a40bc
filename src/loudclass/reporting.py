"""Serialization of experiment results to stable on-disk artifacts.

Every writer is deterministic: JSON is dumped with sorted keys, floats go
through repr, CSV rows use a fixed "\n" terminator, and nothing embeds
timestamps or machine-local state beyond the manifest's version pins and
input checksums. Rerunning a command from its manifest must reproduce
every byte.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import platform
import re
import statistics
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ConfigurationError, DataError
from .explain import PermutationImportanceReport, beeswarm_rows
from .files import dump_json, sha256_file, write_csv_rows
from .harness import ClassifierResult, ExperimentConfig, MetricsReport, SweepReport
from .loudness import column_name
from .metrics import ConfusionMatrix
from .pca import PcaModel


def _slug(label) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", str(label))


def sweep_report_names(conditions) -> list[str]:
    """The file name of each (mean, sd) condition's report, its numbers
    written with ``:g``, which keeps six significant digits. Conditions whose
    names coincide, a repeated condition included, would overwrite each
    other's report, so they are a ``ConfigurationError``."""
    names: dict[str, list] = {}
    for mean, sd in conditions:
        name = f"report_m{mean:g}_sd{sd:g}.json"
        if name in names:
            raise ConfigurationError(
                f"conditions {names[name]} and {[mean, sd]} would both write {name}"
            )
        names[name] = [mean, sd]
    return list(names)


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
            "variant": result.name,
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
    write_csv_rows(
        path,
        ("true_class", "predicted_class", "count", "fraction_of_predicted"),
        rows,
    )


def _write_curve_csvs(out_dir: Path, detail) -> None:
    # csv writes Python floats with the digits it gives numpy's float64
    # scalars, in about half the time.
    for key, points in detail.roc_curves.items():
        rows = zip(points.thresholds.tolist(), points.x.tolist(), points.y.tolist())
        write_csv_rows(out_dir / f"roc_{_slug(key)}.csv",
                       ("threshold", "one_minus_specificity", "sensitivity"), rows)
    for key, points in detail.pr_curves.items():
        rows = zip(points.thresholds.tolist(), points.x.tolist(), points.y.tolist())
        write_csv_rows(out_dir / f"pr_{_slug(key)}.csv",
                       ("threshold", "recall", "precision"), rows)


def write_report(report: MetricsReport, out_dir) -> None:
    """report.json plus the per-class F1, confusion, ROC, and PR tables."""
    out_dir = Path(out_dir)
    dump_json(report_to_jsonable(report), out_dir / "report.json")

    f1_rows = []
    for result in report.results:
        for cls, values in result.per_class_f1.items():
            for fold, value in enumerate(values):
                f1_rows.append((result.name, str(cls), fold, value))
    write_csv_rows(out_dir / "per_class_f1.csv", ("classifier", "class", "fold", "f1"),
                   f1_rows)
    detail = report.designated
    _write_confusion_csv(out_dir / "confusion.csv", detail.confusion_counts,
                         detail.confusion_by_predicted)
    _write_curve_csvs(out_dir, detail)


def write_beeswarm_csv(phi: np.ndarray, X: np.ndarray, record_ids, path) -> None:
    write_csv_rows(path, ("record_id", "feature", "shap_value", "feature_value", "rank"),
                   beeswarm_rows(phi, X, record_ids))


def _importance_rows(report: PermutationImportanceReport):
    """(feature, split, repeat, decrease) for every permuted feature."""
    for split, decreases in report.decreases.items():
        d, repeats = decreases.shape
        for fi in range(d):
            for rep in range(repeats):
                yield (report.feature_names[fi], split, rep, float(decreases[fi, rep]))


def write_importance_csv(report: PermutationImportanceReport, path) -> None:
    write_csv_rows(path, ("feature", "split", "repeat", "decrease"),
                   _importance_rows(report))


def importance_meta_jsonable(report: PermutationImportanceReport) -> dict:
    return {"metric": report.metric, "baselines": report.baselines}


def write_sweep(sweep: SweepReport, out_dir) -> None:
    """Per-condition reports plus the condition-indexed summary tables."""
    sweep_dir = Path(out_dir) / "sweep"
    for name, report in zip(sweep_report_names(sweep.conditions), sweep.reports):
        dump_json(report_to_jsonable(report), sweep_dir / name)

    auc_rows = [
        (mean, sd, str(key), float(auc))
        for (mean, sd), report in zip(sweep.conditions, sweep.reports)
        for key, auc in report.designated.roc_auc.items()
    ]
    write_csv_rows(
        sweep_dir / "auc_summary.csv",
        ("rove_mean", "rove_sd", "curve", "auc"),
        auc_rows,
    )
    _write_overlay(sweep, sweep_dir / "roc_micro_overlay.csv")

    importance_rows = (
        (mean, sd, *row)
        for (mean, sd), imp in zip(sweep.conditions, sweep.importance)
        for row in _importance_rows(imp)
    )
    write_csv_rows(
        sweep_dir / "perm_importance.csv",
        ("rove_mean", "rove_sd", "feature", "split", "repeat", "decrease"),
        importance_rows,
    )


def _write_overlay(sweep: SweepReport, path: Path) -> None:
    """Every condition's micro-ROC points, the bytes ``write_csv_rows``
    writes for the rows (mean, sd, threshold, x, y), streamed one condition
    at a time. The condition's ``mean,sd,`` prefix is formatted once, by
    csv. A point's cells are Python floats (``tolist``), which csv writes
    as their repr, and a float's repr holds no character csv would quote."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("rove_mean", "rove_sd", "threshold", "one_minus_specificity", "sensitivity")
        )
        for (mean, sd), report in zip(sweep.conditions, sweep.reports):
            cells = io.StringIO()
            csv.writer(cells, lineterminator="").writerow((mean, sd, ""))
            prefix = cells.getvalue()
            micro = report.designated.roc_curves["micro"]
            handle.writelines(
                f"{prefix}{t!r},{x!r},{y!r}\n"
                for t, x, y in zip(micro.thresholds.tolist(), micro.x.tolist(),
                                   micro.y.tolist())
            )


def write_pca_outputs(model: PcaModel, scores: np.ndarray, record_ids, out_dir) -> None:
    out_dir = Path(out_dir)
    k = model.n_components
    component_names = [f"pc{i + 1}" for i in range(k)]
    d = model.loadings.shape[0]
    loading_rows = [(column_name(fi, d), *model.loadings[fi, :]) for fi in range(d)]
    score_rows = [
        (record_ids[ri], *scores[ri, :]) for ri in range(scores.shape[0])
    ]
    write_csv_rows(out_dir / "pca_loadings.csv", ("feature", *component_names),
                   loading_rows)
    write_csv_rows(out_dir / "pca_scores.csv", ("record_id", *component_names),
                   score_rows)
    dump_json(
        {
            "explained_variance": [float(v) for v in model.explained_variance],
            "explained_variance_fraction": [
                float(v) for v in model.explained_variance_fraction
            ],
        },
        out_dir / "pca_explained.json",
    )


def _scipy_version() -> str | None:
    """The installed scipy's version, or None where scipy is not installed.

    An installed package's metadata directory is named
    ``<name>-<version>.dist-info`` and sits beside the package, so the
    version is read from that name. Neither scipy nor importlib.metadata
    is imported: in a process that has imported loudclass.cli they add
    about 0.55 and 1.0 MiB of resident memory, and importlib.metadata
    parses scipy's 62 kB METADATA file for its version.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    for info in Path(spec.origin).parents[1].glob("scipy-*.dist-info"):
        return info.name[len("scipy-") : -len(".dist-info")]
    return None


def write_manifest(out_dir, command: str, options: dict, inputs) -> None:
    """Record what was run, on which inputs, under which library versions.

    The output directory is deliberately absent so a replay into a fresh
    directory regenerates the manifest byte-for-byte. scipy's version is
    recorded only where scipy is installed: the program does not use it,
    its tests do.
    """
    versions = {
        "loudclass": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    scipy_version = _scipy_version()
    if scipy_version is not None:
        versions["scipy"] = scipy_version
    payload = {
        "command": command,
        "options": options,
        "inputs": {str(Path(p).resolve()): sha256_file(p) for p in inputs},
        "versions": versions,
    }
    dump_json(payload, Path(out_dir) / "manifest.json")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path} is empty")
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
        try:
            payload = json.loads(report_path.read_text(encoding="utf-8"))
            summary_rows = list(_metrics_summary_rows(payload))
            f1_rows = []
            for name in sorted(payload["classifiers"]):
                per_class = payload["classifiers"][name]["test_f1_per_class"]
                for cls in sorted(per_class):
                    f1_rows.append((name, cls, per_class[cls]["mean"], per_class[cls]["sd"]))
        except KeyError as exc:
            raise DataError(f"{report_path} is missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"{report_path} is not an evaluate report: {exc}") from None
        write_csv_rows(
            out_dir / "metrics_summary.csv",
            ("classifier", "split", "metric", "mean", "sd"),
            summary_rows,
        )
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
        for number, row in enumerate(body, start=1):
            try:
                mean, sd, feature, split, _rep, decrease = row
                grouped.setdefault((mean, sd, split, feature), []).append(float(decrease))
            except ValueError as exc:
                raise DataError(f"{sweep_imp} row {number}: {exc}") from None
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
