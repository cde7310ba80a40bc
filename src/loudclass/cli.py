"""Command-line interface.

Every subcommand writes its outputs plus a manifest.json recording the
command, the fully resolved options (with absolute input paths), input
checksums, and library versions. `loudclass replay --manifest M` re-runs
the recorded command into a fresh directory and reproduces every output
byte-for-byte, including the manifest itself (the output directory is
never part of the recorded options).

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 numeric.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bisgaard import class_from_name
from .classifiers import VARIANTS, ClassifierSpec, fit, save_model
from .errors import (
    ConfigurationError,
    LoudclassError,
    NumericError,
    SchemaError,
)
from .explain import PERMUTATION_METRICS, explain_model, importance_report
from .harness import (
    DEFAULT_ROVING_CONDITIONS,
    ExperimentConfig,
    kfold_split,
    roving_sweep,
    run_experiment,
)
from .loudness import FEATURE_NAMES
from .metrics import sorted_labels
from .pca import fit_pca, standardize, transform
from .pipeline import (
    DEFAULT_MIN_CLASS_COUNT,
    DEFAULT_MIN_CLASS_FRACTION,
    DEFAULT_MIN_PTA,
    RovingConfig,
    SyntheticConfig,
    apply_roving,
    feature_matrix,
    generate_synthetic_full,
    labels_of,
    load_csv,
    load_labeled_json,
    prepare_combined,
    preprocess,
    write_csv,
    write_labeled_json,
)
from .reporting import (
    dump_json,
    importance_meta_jsonable,
    make_figures,
    write_beeswarm_csv,
    write_importance_csv,
    write_manifest,
    write_pca_outputs,
    write_report,
    write_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Sub-stream key for the background subsample so it cannot collide with
# the fold-plan streams keyed by (seed, repeat).
_BACKGROUND_STREAM = 101


class Option:
    """One subcommand option, declared once.

    ``name`` is both the config key and the argparse dest; the flag is
    ``--<name>`` unless ``flags`` says otherwise. ``default`` is the value
    when neither the command line nor a config file gives one (None means
    "required or derived later"), and ``kind`` the value type, taken from
    the default unless that is None. ``path`` options are made absolute
    before the manifest records them, so replay works from any working
    directory. ``extra`` goes to ``add_argument`` as is.
    """

    def __init__(self, name: str, default=None, help: str | None = None,
                 kind: type | None = None, *, path: bool = False,
                 flags: tuple[str, ...] = (), **extra):
        self.name = name
        self.default = default
        self.help = help
        self.kind = kind or type(default)
        self.path = path
        self.flags = flags or ("--" + name.replace("_", "-"),)
        self.extra = extra

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        # Every flag defaults to None so an absent flag falls through to the
        # config file; a boolean flag switches its default off or on.
        if self.kind is bool:
            kwargs = {"action": "store_false" if self.default else "store_true"}
        elif self.kind in (int, float):
            kwargs = {"type": self.kind}
        else:
            kwargs = {}
        parser.add_argument(*self.flags, dest=self.name, default=None,
                            help=self.help, **kwargs, **self.extra)

    def check(self, value) -> None:
        """Reject a value that is not of the option's type: a config file
        can hold any JSON value, and a wrong one is a usage error, not a
        traceback or a silent conversion."""
        if value is None and self.default is None:
            return
        if self.kind is bool and not isinstance(value, bool):
            raise ConfigurationError(f"{self.name} must be true or false, got {value!r}")
        if self.kind in (int, float) and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise ConfigurationError(f"{self.name} must be a number, got {value!r}")
        if self.kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigurationError(f"{self.name} must be an integer, got {value!r}")
        if self.kind is str and not isinstance(value, str):
            raise ConfigurationError(f"{self.name} must be a string, got {value!r}")


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


_SYNTHETIC = _field_defaults(SyntheticConfig)
_EXPERIMENT = _field_defaults(ExperimentConfig)

_DATA = Option("data", None, "labeled records JSON", str, path=True)


def _classifier_options(default: str | None) -> tuple[Option, ...]:
    return (
        Option("classifier", default, "classifier variant", str, choices=VARIANTS),
        Option("classifier_seed", None, "seed override for the selected classifier", int),
        Option("params", {}, "hyperparameter override for the selected classifier, "
               "repeatable; values parse as JSON literals",
               flags=("--param",), action="append", metavar="KEY=VALUE"),
    )


_METRIC_CHOICES = tuple(m.replace("_", "-") for m in PERMUTATION_METRICS)

# Every subcommand: its help line and its options, in --help order. Values
# that configure a dataclass are read from that dataclass.
_TABLE: dict[str, tuple[str, tuple[Option, ...]]] = {
    "generate": ("write a synthetic labeled dataset", (
        Option("per_class", 150, "labeled records to aim for per class"),
        Option("classes", [c.name for c in _SYNTHETIC["classes"]],
               "comma-separated audiogram class names"),
        Option("seed", _SYNTHETIC["seed"]),
        Option("jitter_sd", _SYNTHETIC["jitter_sd"],
               "sd of the per-frequency threshold jitter in dB"),
        Option("l2_5_offset_mean", _SYNTHETIC["l2_5_offset_mean"],
               "mean gap between threshold and the L2.5 level"),
        Option("l2_5_offset_sd", _SYNTHETIC["l2_5_offset_sd"]),
        Option("l_cut_noise_sd", _SYNTHETIC["l_cut_noise_sd"],
               "sd of the reported-L_cut decorrelation noise"),
        Option("csv", False, "also write participants.csv in the combined schema"),
    )),
    "preprocess": ("run the labeling cascade on raw CSV data", (
        Option("audiogram_csv", None, "per-participant audiogram dataset", str, path=True),
        Option("loudness_csv", None, "per-participant loudness-feature dataset", str,
               path=True),
        Option("combined_csv", None, "single dataset carrying both sides per row", str,
               path=True),
        Option("min_pta", DEFAULT_MIN_PTA, "exclude ears with pure-tone average below this"),
        Option("min_class_fraction", DEFAULT_MIN_CLASS_FRACTION,
               "prune classes under this share of records"),
        Option("min_class_count", DEFAULT_MIN_CLASS_COUNT,
               "prune classes under this record count"),
    )),
    "rove": ("apply participant-level calibration offsets", (
        _DATA,
        Option("mean", 0.0, flags=("--mean", "--rove-mean")),
        Option("sd", 0.0, flags=("--sd", "--rove-sd")),
        Option("seed", 0, flags=("--seed", "--rove-seed")),
    )),
    "pca": ("principal components of the standardized features", (
        _DATA,
        Option("components", 2),
    )),
    "train": ("fit one classifier on the full dataset", (
        _DATA,
        *_classifier_options("lr"),
        Option("model_out", "model.json",
               "model file name (relative paths land in --out-dir)"),
    )),
    "evaluate": ("cross-validated comparison of classifiers", (
        _DATA,
        *_classifier_options("lr"),
        Option("only", list(VARIANTS), "comma-separated subset of variants to evaluate"),
        Option("k", _EXPERIMENT["k"], "fold count"),
        Option("repeats", _EXPERIMENT["repeats"], "repetitions of the full cross-validation"),
        Option("stratified", _EXPERIMENT["stratified"],
               "plain instead of class-stratified folds", flags=("--no-stratify",)),
        Option("seed", _EXPERIMENT["seed"]),
        Option("rove_mean", None, "apply roving with this offset mean before evaluating",
               float),
        Option("rove_sd", None, kind=float),
        Option("rove_seed", _EXPERIMENT["rove_seed"]),
    )),
    "explain": ("Shapley values and permutation importance", (
        _DATA,
        *_classifier_options(None),
        Option("k", _EXPERIMENT["k"], "fold count; fold 0 provides the train/test split"),
        Option("seed", _EXPERIMENT["seed"]),
        Option("background", 100, "background sample size for the value function"),
        Option("max_records", 50, "test records to explain"),
        Option("perm_repeats", _EXPERIMENT["perm_repeats"]),
        Option("metric", _EXPERIMENT["perm_metric"], "permutation-importance metric",
               choices=_METRIC_CHOICES),
    )),
    "sweep": ("repeat the evaluation across roving conditions", (
        _DATA,
        *_classifier_options("lr"),
        Option("only", list(VARIANTS)),
        Option("conditions", [list(pair) for pair in DEFAULT_ROVING_CONDITIONS],
               "comma-separated mean:sd pairs, e.g. 0:0,10:5"),
        Option("k", _EXPERIMENT["k"]),
        Option("repeats", _EXPERIMENT["repeats"]),
        Option("stratified", _EXPERIMENT["stratified"], flags=("--no-stratify",)),
        Option("seed", _EXPERIMENT["seed"]),
        Option("rove_seed", _EXPERIMENT["rove_seed"]),
        Option("perm_repeats", _EXPERIMENT["perm_repeats"]),
        Option("metric", _EXPERIMENT["perm_metric"], choices=_METRIC_CHOICES),
    )),
    "report": ("collect run outputs into plot-ready figure CSVs", (
        Option("in_dir", None, "directory holding evaluate and/or sweep outputs", str,
               path=True),
    )),
    "replay": ("re-run a recorded manifest into a new directory", ()),
}

COMMANDS = tuple(_TABLE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loudclass",
        description="Loudness-feature hearing-profile classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, options) in _TABLE.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out-dir", default=".",
                       help="directory receiving outputs and manifest.json")
        if name == "replay":
            p.add_argument("--manifest", required=True, help="manifest.json of a prior run")
        else:
            p.add_argument("--config", default=None,
                           help="JSON file supplying values for flags not given")
        for option in options:
            option.add_to(p)
    return parser


def _parse_param(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigurationError(f"--param needs KEY=VALUE, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _config_section(path: str | None, cmd: str) -> dict:
    """The config-file values for ``cmd``: the flat keys it knows, overridden
    by its own section. A flat key only another command knows is ignored."""
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("config file must hold a JSON object")
    for key in COMMANDS:
        if not isinstance(payload.get(key, {}), dict):
            raise ConfigurationError(f"config section {key!r} must be an object")
    flat = {key: value for key, value in payload.items() if key not in COMMANDS}
    section = payload.get(cmd, {})
    known = {option.name for _, options in _TABLE.values() for option in options}
    allowed = {option.name for option in _TABLE[cmd][1]}
    unknown = (set(flat) - known) | (set(section) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown config keys for {cmd}: {', '.join(sorted(unknown))}"
        )
    return {**{k: v for k, v in flat.items() if k in allowed}, **section}


def _as_name_list(value, what: str) -> list[str]:
    if isinstance(value, str):
        items = [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    elif isinstance(value, (list, tuple)):
        items = [str(v) for v in value]
    else:
        raise ConfigurationError(f"{what} must be a list or comma-separated string")
    if not items:
        raise ConfigurationError(f"{what} must not be empty")
    return items


def _as_conditions(value) -> list[list[float]]:
    if isinstance(value, str):
        items = [chunk.strip().split(":") for chunk in value.split(",") if chunk.strip()]
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        raise ConfigurationError("conditions must be a list or mean:sd string")
    pairs: list[list[float]] = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigurationError(
                f"condition {item!r} must be a [mean, sd] pair or mean:sd, e.g. 10:5"
            )
        try:
            pairs.append([float(item[0]), float(item[1])])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"condition {item!r}: {exc}") from exc
    if not pairs:
        raise ConfigurationError("at least one roving condition is required")
    return pairs


def _resolve_options(cmd: str, args: argparse.Namespace) -> dict:
    """Merge CLI values over config-file values over built-in defaults."""
    table = _TABLE[cmd][1]
    config = _config_section(args.config, cmd)
    options = {}
    for option in table:
        value = getattr(args, option.name)
        if value is None:
            value = config.get(option.name, option.default)
        option.check(value)
        options[option.name] = value

    if "params" in options:
        # --param pairs override single keys of the config's params object.
        base = config.get("params") or {}
        if not isinstance(base, dict):
            raise ConfigurationError("params must be an object of KEY: VALUE")
        options["params"] = {**base, **dict(map(_parse_param, args.params or []))}

    out_dir = Path(args.out_dir)
    if "data" in options and options["data"] is None:
        options["data"] = str(out_dir / "labeled.json")
    if cmd == "report" and options["in_dir"] is None:
        options["in_dir"] = str(out_dir)
    for option in table:
        if option.path and options[option.name] is not None:
            options[option.name] = str(Path(options[option.name]).resolve())

    if "classes" in options:
        options["classes"] = _as_name_list(options["classes"], "classes")
    if "only" in options:
        options["only"] = _as_name_list(options["only"], "only")
        unknown = set(options["only"]) - set(VARIANTS)
        if unknown:
            raise ConfigurationError(
                f"unknown classifier variants: {', '.join(sorted(unknown))}"
            )
    if "conditions" in options:
        options["conditions"] = _as_conditions(options["conditions"])
    if "metric" in options:
        metric = str(options["metric"]).replace("-", "_")
        if metric not in PERMUTATION_METRICS:
            raise ConfigurationError(
                f"metric must be one of {', '.join(PERMUTATION_METRICS)}"
            )
        options["metric"] = metric

    if cmd == "preprocess":
        combined = options["combined_csv"] is not None
        split_pair = (
            options["audiogram_csv"] is not None
            or options["loudness_csv"] is not None
        )
        if combined and split_pair:
            raise ConfigurationError(
                "--combined-csv excludes --audiogram-csv/--loudness-csv"
            )
        if not combined and not (
            options["audiogram_csv"] and options["loudness_csv"]
        ):
            raise ConfigurationError(
                "preprocess needs --combined-csv or both "
                "--audiogram-csv and --loudness-csv"
            )
    if cmd == "explain" and not options["classifier"]:
        raise ConfigurationError("explain requires an explicit --classifier")
    if cmd in ("evaluate", "sweep") and options["classifier"] not in options["only"]:
        raise ConfigurationError(
            f"designated classifier {options['classifier']!r} must appear in --only"
        )
    return options


def _run_generate(options: dict, out_dir: Path) -> None:
    cfg = SyntheticConfig(
        records_per_class=int(options["per_class"]),
        classes=tuple(class_from_name(name) for name in options["classes"]),
        seed=int(options["seed"]),
        jitter_sd=float(options["jitter_sd"]),
        l2_5_offset_mean=float(options["l2_5_offset_mean"]),
        l2_5_offset_sd=float(options["l2_5_offset_sd"]),
        l_cut_noise_sd=float(options["l_cut_noise_sd"]),
    )
    participants, labeled = generate_synthetic_full(cfg)
    write_labeled_json(labeled, out_dir / "labeled.json")
    if options["csv"]:
        write_csv(participants, out_dir / "participants.csv")
    write_manifest(out_dir, "generate", options, [])


def _run_preprocess(options: dict, out_dir: Path) -> None:
    kwargs = dict(
        min_pta=float(options["min_pta"]),
        min_fraction=float(options["min_class_fraction"]),
        min_count=int(options["min_class_count"]),
    )
    if options["combined_csv"]:
        records, summary = prepare_combined(load_csv(options["combined_csv"]), **kwargs)
        inputs = [options["combined_csv"]]
    else:
        records, summary = preprocess(
            load_csv(options["audiogram_csv"]),
            load_csv(options["loudness_csv"]),
            **kwargs,
        )
        inputs = [options["audiogram_csv"], options["loudness_csv"]]
    write_labeled_json(records, out_dir / "labeled.json")
    dump_json(summary.as_dict(), out_dir / "preprocess_summary.json")
    write_manifest(out_dir, "preprocess", options, inputs)


def _run_rove(options: dict, out_dir: Path) -> None:
    records = load_labeled_json(options["data"])
    cfg = RovingConfig(float(options["mean"]), float(options["sd"]),
                       int(options["seed"]))
    write_labeled_json(apply_roving(records, cfg), out_dir / "labeled_roved.json")
    write_manifest(out_dir, "rove", options, [options["data"]])


def _run_pca(options: dict, out_dir: Path) -> None:
    records = load_labeled_json(options["data"])
    Z, means, sds = standardize(feature_matrix(records))
    model = fit_pca(Z, int(options["components"]), means=means, sds=sds)
    scores = transform(model, Z)
    ids = [f"{r.participant_id}:{r.ear}" for r in records]
    write_pca_outputs(model, scores, ids, out_dir, FEATURE_NAMES)
    write_manifest(out_dir, "pca", options, [options["data"]])


def _classifier_spec(options: dict) -> ClassifierSpec:
    return ClassifierSpec(
        options["classifier"],
        seed=options.get("classifier_seed"),
        params=dict(options.get("params") or {}),
    )


def _run_train(options: dict, out_dir: Path) -> None:
    records = load_labeled_json(options["data"])
    model = fit(_classifier_spec(options), feature_matrix(records), labels_of(records))
    model_path = Path(options["model_out"])
    if not model_path.is_absolute():
        model_path = out_dir / model_path
    save_model(model, model_path)
    write_manifest(out_dir, "train", options, [options["data"]])


def _experiment_config(options: dict) -> ExperimentConfig:
    designated = options["classifier"]
    specs = tuple(
        _classifier_spec(options) if variant == designated else ClassifierSpec(variant)
        for variant in options["only"]
    )
    roving = None
    if options.get("rove_mean") is not None or options.get("rove_sd") is not None:
        roving = RovingConfig(
            float(options.get("rove_mean") or 0.0),
            float(options.get("rove_sd") or 0.0),
            int(options["rove_seed"]),
        )
    # Only sweep has permutation-importance options; evaluate keeps the defaults.
    permutation = {}
    if "perm_repeats" in options:
        permutation = {"perm_repeats": int(options["perm_repeats"]),
                       "perm_metric": str(options["metric"])}
    return ExperimentConfig(
        data_path=options["data"],
        roving=roving,
        classifiers=specs,
        k=int(options["k"]),
        stratified=bool(options["stratified"]),
        repeats=int(options["repeats"]),
        designated=designated,
        seed=int(options["seed"]),
        rove_seed=int(options["rove_seed"]),
        **permutation,
    )


def _run_evaluate(options: dict, out_dir: Path) -> None:
    report = run_experiment(_experiment_config(options))
    write_report(report, out_dir)
    write_manifest(out_dir, "evaluate", options, [options["data"]])


def _run_explain(options: dict, out_dir: Path) -> None:
    for name in ("background", "max_records", "perm_repeats"):
        if int(options[name]) < 1:
            raise ConfigurationError(f"{name} must be >= 1")
    records = load_labeled_json(options["data"])
    X = feature_matrix(records)
    y = labels_of(records)
    plan = kfold_split(y, k=int(options["k"]), stratified=True,
                       seed=int(options["seed"]))
    train_idx, test_idx = plan.fold_indices(0)
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]
    model = fit(_classifier_spec(options), X[train_idx], y_train,
                classes=sorted_labels(y))

    size = min(int(options["background"]), len(train_idx))
    rng = np.random.default_rng(
        np.random.SeedSequence([int(options["seed"]), _BACKGROUND_STREAM])
    )
    chosen = np.sort(rng.choice(len(train_idx), size=size, replace=False))
    background = X[train_idx[chosen]]

    count = min(int(options["max_records"]), len(test_idx))
    explained = test_idx[:count]
    agnostic, _ = explain_model(model, X[explained], background,
                                feature_names=FEATURE_NAMES)
    ids = [f"{records[i].participant_id}:{records[i].ear}" for i in explained]
    write_beeswarm_csv(agnostic, ids, out_dir / "shap_beeswarm.csv")

    imp = importance_report(
        model, X[train_idx], y_train, X[test_idx], y_test,
        repeats=int(options["perm_repeats"]), metric=options["metric"],
        seed=int(options["seed"]), feature_names=FEATURE_NAMES,
    )
    write_importance_csv(imp, out_dir / "perm_importance.csv")
    dump_json(importance_meta_jsonable(imp), out_dir / "perm_importance_meta.json")
    write_manifest(out_dir, "explain", options, [options["data"]])


def _run_sweep(options: dict, out_dir: Path) -> None:
    cfg = _experiment_config(options)
    conditions = tuple((m, sd) for m, sd in options["conditions"])
    sweep = roving_sweep(cfg, conditions)
    write_sweep(sweep, out_dir)
    write_manifest(out_dir / "sweep", "sweep", options, [options["data"]])


def _run_report(options: dict, out_dir: Path) -> None:
    figures_dir = out_dir / "figures"
    consumed = make_figures(options["in_dir"], figures_dir)
    write_manifest(figures_dir, "report", options, consumed)


_RUNNERS = {
    "generate": _run_generate,
    "preprocess": _run_preprocess,
    "rove": _run_rove,
    "pca": _run_pca,
    "train": _run_train,
    "evaluate": _run_evaluate,
    "explain": _run_explain,
    "sweep": _run_sweep,
    "report": _run_report,
}


def _load_replay(args: argparse.Namespace) -> tuple[str, dict]:
    path = Path(args.manifest)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"manifest not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
    cmd = payload.get("command")
    if cmd not in _RUNNERS:
        raise SchemaError(f"manifest names unknown command {cmd!r}")
    options = payload.get("options")
    if not isinstance(options, dict):
        raise SchemaError("manifest has no options object")
    return cmd, options


def _fail(cmd: str, exc: BaseException, code: int) -> int:
    print(f"loudclass {cmd}: error: {exc}", file=sys.stderr)
    for note in getattr(exc, "__notes__", None) or []:
        print(f"  {note}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; surface the
        # code instead of terminating the host process.
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    cmd = args.command
    out_dir = Path(args.out_dir)
    try:
        if cmd == "replay":
            cmd, options = _load_replay(args)
        else:
            options = _resolve_options(cmd, args)
        out_dir.mkdir(parents=True, exist_ok=True)
        _RUNNERS[cmd](options, out_dir)
    except ConfigurationError as exc:
        return _fail(cmd, exc, EXIT_USAGE)
    except NumericError as exc:
        return _fail(cmd, exc, EXIT_NUMERIC)
    except np.linalg.LinAlgError as exc:
        return _fail(cmd, exc, EXIT_NUMERIC)
    except LoudclassError as exc:
        return _fail(cmd, exc, EXIT_DATA)
    except OSError as exc:
        return _fail(cmd, exc, EXIT_DATA)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
