"""Command-line interface.

Every subcommand writes its outputs plus a manifest.json recording the
command, the fully resolved options (with absolute input paths), input
checksums, and library versions. `loudclass replay --manifest M` checks
the recorded input checksums, resolves the recorded options as the config
section of the recorded command, re-runs it into a fresh directory and
reproduces every output byte-for-byte, including the manifest itself (the
output directory is never part of the recorded options).

Exit codes: 0 success, 2 usage or configuration, 3 data, 4 numeric.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np

from .bisgaard import BisgaardClass, class_from_name
from .classifiers import VARIANTS, ClassifierSpec, fit, save_model
from .errors import ConfigurationError, DataError, LoudclassError, NumericError
from .domains import AtLeast, AtMost, OneOf, Seed, check, field_annotations
from .explain import PERMUTATION_METRICS, explain_model, importance_report
from .files import dump_json, sha256_file
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
    DEFAULT_SYNTHETIC_CLASSES,
    MinClassCount,
    MinClassFraction,
    MinPta,
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
    importance_meta_jsonable,
    make_figures,
    sweep_report_names,
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
    "required or derived later"), ``kind`` the value type, taken from the
    default unless that is None, and ``domain`` its declared domain (see
    ``loudclass.domains``), the kind unless given or a list or dict.
    ``convert`` turns a given value into the form the domain describes.
    ``path`` options are made absolute before the manifest records them, so
    replay works from any working directory. ``extra`` goes to
    ``add_argument`` as is. ``resolve`` gives the value the run uses, so
    the manifest records exactly what ran.
    """

    def __init__(self, name: str, default=None, help: str | None = None,
                 kind: type | None = None, *, domain=None, convert=None,
                 path: bool = False, flags: tuple[str, ...] = (), **extra):
        self.name = name
        self.default = default
        self.help = help
        self.kind = kind or type(default)
        self.domain = domain or (None if self.kind in (list, dict) else self.kind)
        self.convert = convert
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

    def resolve(self, value):
        """The value the run uses. A config file can hold any JSON value, and
        one outside the option's domain is a usage error, not a traceback or
        a silent conversion. An int option takes an integral number and
        gives the int, a float option gives the float."""
        if value is None and self.default is None:
            return None
        if self.convert is not None:
            value = self.convert(value)
        if self.domain is None:
            return value
        if self.kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        check(self.name, value, self.domain)
        return self.kind(value)


def _field(cls, field: str, help: str | None = None, *, name: str | None = None,
           **extra) -> Option:
    """The option that sets ``field`` of the config dataclass ``cls``, with
    the field's default (unless ``default`` is given), kind and domain."""
    annotation = field_annotations(cls)[field]
    [default] = [f.default for f in fields(cls) if f.name == field]
    kind = get_args(annotation)[0] if get_origin(annotation) is Annotated else annotation
    return Option(name or field, extra.pop("default", default), help, kind,
                  domain=annotation, **extra)


def _split(value):
    """A comma-separated string as its list of names; any other value as is."""
    if isinstance(value, str):
        return [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    return value


def _names(choices):
    """The domain of a list option: a non-empty list of names from ``choices``."""
    return tuple[Annotated[str, OneOf(tuple(choices))], ...]


def _as_conditions(value) -> list[list[float]]:
    """(mean, sd) pairs from a list of pairs or the flag's ``mean:sd`` list;
    each number must lie in the domain of its ``RovingConfig`` field, and
    no two conditions may share a report name."""
    flag_form = isinstance(value, str)
    items = [chunk.split(":") for chunk in _split(value)] if flag_form else value
    if not isinstance(items, (list, tuple)):
        raise ConfigurationError("conditions must be a list or mean:sd string")
    pairs: list[list[float]] = []
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigurationError(
                f"condition {item!r} must be a [mean, sd] pair or mean:sd, e.g. 10:5"
            )
        if flag_form:
            try:
                item = [float(part) for part in item]
            except ValueError as exc:
                raise ConfigurationError(f"condition {item!r}: {exc}") from exc
        for v, name in zip(item, ("mean", "sd")):
            check(f"{name} of condition {item!r}", v, field_annotations(RovingConfig)[name])
        pairs.append([float(v) for v in item])
    if not pairs:
        raise ConfigurationError("at least one roving condition is required")
    sweep_report_names(pairs)
    return pairs


def _file_name(value):
    """``--model-out``: a file name alone, so the model lands in --out-dir
    and a replay into a fresh directory writes its own. A value that is not
    a string is left to the option's domain."""
    if isinstance(value, str) and (value in ("", ".", "..") or Path(value).name != value):
        raise ConfigurationError(
            f"model_out must be a file name with no directory part, got {value!r}"
        )
    return value


_DATA = Option("data", None, "labeled records JSON", str, path=True)


def _classifier_options(default: str | None) -> tuple[Option, ...]:
    return (
        Option("classifier", default, "classifier variant", str, choices=VARIANTS),
        Option("classifier_seed", None, "seed override for the selected classifier", int,
               domain=Seed),
        Option("params", {}, "hyperparameter override for the selected classifier, "
               "repeatable; values parse as JSON literals",
               flags=("--param",), action="append", metavar="KEY=VALUE"),
    )


_METRIC_CHOICES = tuple(m.replace("_", "-") for m in PERMUTATION_METRICS)


def _metric_options(help: str | None = None) -> tuple[Option, ...]:
    return (
        _field(ExperimentConfig, "perm_repeats"),
        _field(ExperimentConfig, "perm_metric", help, name="metric", choices=_METRIC_CHOICES,
               convert=lambda v: v.replace("-", "_") if isinstance(v, str) else v),
    )


# Every subcommand: its help line and its options, in --help order. Values
# that configure a dataclass take their default, kind and domain from its
# field; a domain that no field declares is declared here.
_TABLE: dict[str, tuple[str, tuple[Option, ...]]] = {
    "generate": ("write a synthetic labeled dataset", (
        _field(SyntheticConfig, "records_per_class", "labeled records to aim for per class",
               name="per_class", default=150),
        Option("classes", [c.name for c in DEFAULT_SYNTHETIC_CLASSES],
               "comma-separated audiogram class names",
               domain=_names(BisgaardClass.__members__), convert=_split),
        _field(SyntheticConfig, "seed"),
        _field(SyntheticConfig, "jitter_sd", "sd of the per-frequency threshold jitter in dB"),
        _field(SyntheticConfig, "l2_5_offset_mean",
               "mean gap between threshold and the L2.5 level"),
        _field(SyntheticConfig, "l2_5_offset_sd"),
        _field(SyntheticConfig, "l_cut_noise_sd",
               "sd of the reported-L_cut decorrelation noise"),
        Option("csv", False, "also write participants.csv in the combined schema"),
    )),
    "preprocess": ("run the labeling cascade on raw CSV data", (
        Option("audiogram_csv", None, "per-participant audiogram dataset", str, path=True),
        Option("loudness_csv", None, "per-participant loudness-feature dataset", str,
               path=True),
        Option("combined_csv", None, "single dataset carrying both sides per row", str,
               path=True),
        Option("min_pta", DEFAULT_MIN_PTA, "exclude ears with pure-tone average below this",
               domain=MinPta),
        Option("min_class_fraction", DEFAULT_MIN_CLASS_FRACTION,
               "prune classes under this share of records", domain=MinClassFraction),
        Option("min_class_count", DEFAULT_MIN_CLASS_COUNT,
               "prune classes under this record count", domain=MinClassCount),
    )),
    "rove": ("apply participant-level calibration offsets", (
        _DATA,
        _field(RovingConfig, "mean", default=0.0, flags=("--mean", "--rove-mean")),
        _field(RovingConfig, "sd", default=0.0, flags=("--sd", "--rove-sd")),
        _field(RovingConfig, "seed", flags=("--seed", "--rove-seed")),
    )),
    "pca": ("principal components of the standardized features", (
        _DATA,
        Option("components", 2, domain=Annotated[int, AtLeast(1), AtMost(len(FEATURE_NAMES))]),
    )),
    "train": ("fit one classifier on the full dataset", (
        _DATA,
        *_classifier_options("lr"),
        Option("model_out", "model.json", "model file name, written into --out-dir",
               convert=_file_name),
    )),
    "evaluate": ("cross-validated comparison of classifiers", (
        _DATA,
        *_classifier_options("lr"),
        Option("only", list(VARIANTS), "comma-separated subset of variants to evaluate",
               domain=_names(VARIANTS), convert=_split),
        _field(ExperimentConfig, "k", "fold count"),
        _field(ExperimentConfig, "repeats", "repetitions of the full cross-validation"),
        _field(ExperimentConfig, "stratified", "plain instead of class-stratified folds",
               flags=("--no-stratify",)),
        _field(ExperimentConfig, "seed"),
        _field(RovingConfig, "mean", "apply roving with this offset mean before evaluating",
               name="rove_mean", default=None),
        _field(RovingConfig, "sd", name="rove_sd", default=None),
        _field(ExperimentConfig, "rove_seed"),
    )),
    "explain": ("Shapley values and permutation importance", (
        _DATA,
        *_classifier_options(None),
        _field(ExperimentConfig, "k", "fold count; fold 0 provides the train/test split"),
        _field(ExperimentConfig, "seed"),
        Option("background", 100, "background sample size for the value function",
               domain=Annotated[int, AtLeast(1)]),
        Option("max_records", 50, "test records to explain",
               domain=Annotated[int, AtLeast(1)]),
        *_metric_options("permutation-importance metric"),
    )),
    "sweep": ("repeat the evaluation across roving conditions", (
        _DATA,
        *_classifier_options("lr"),
        Option("only", list(VARIANTS), domain=_names(VARIANTS), convert=_split),
        Option("conditions", [list(pair) for pair in DEFAULT_ROVING_CONDITIONS],
               "comma-separated mean:sd pairs, e.g. 0:0,10:5", convert=_as_conditions),
        _field(ExperimentConfig, "k"),
        _field(ExperimentConfig, "repeats"),
        _field(ExperimentConfig, "stratified", flags=("--no-stratify",)),
        _field(ExperimentConfig, "seed"),
        _field(ExperimentConfig, "rove_seed"),
        *_metric_options(),
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


def _read_json_object(path, what: str) -> dict:
    """The JSON object in ``path``; a missing file, malformed JSON or any
    other top-level value is a usage error."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{what} not found: {path}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{what} must hold a JSON object")
    return payload


def _config_section(payload: dict, cmd: str) -> dict:
    """The config-file values for ``cmd``: the flat keys it knows, overridden
    by its own section. A flat key only another command knows is ignored."""
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


def _resolve_options(cmd: str, args: argparse.Namespace, payload: dict) -> dict:
    """Merge CLI values over the config file's values (``payload``, the
    whole file) over built-in defaults."""
    table = _TABLE[cmd][1]
    config = _config_section(payload, cmd)
    options = {}
    for option in table:
        value = getattr(args, option.name)
        if value is None:
            value = config.get(option.name, option.default)
        options[option.name] = option.resolve(value)

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
    return options


def _config(cls, options: dict, **values):
    """``cls`` built from ``values`` and the options named as its fields."""
    named = field_annotations(cls).keys() & options.keys()
    return cls(**{**{name: options[name] for name in named}, **values})


def _run_generate(options: dict, out_dir: Path) -> None:
    cfg = _config(SyntheticConfig, options, records_per_class=options["per_class"],
                  classes=tuple(class_from_name(name) for name in options["classes"]))
    ears, labeled = generate_synthetic_full(cfg)
    write_labeled_json(labeled, out_dir / "labeled.json")
    if options["csv"]:
        write_csv(ears, out_dir / "participants.csv")
    write_manifest(out_dir, "generate", options, [])


def _run_preprocess(options: dict, out_dir: Path) -> None:
    kwargs = dict(
        min_pta=options["min_pta"],
        min_fraction=options["min_class_fraction"],
        min_count=options["min_class_count"],
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
    if not records:
        raise DataError(
            f"no record is left after the class filter (min_class_count "
            f"{options['min_class_count']}, min_class_fraction "
            f"{options['min_class_fraction']}; {summary.after_pta_filter} records "
            "passed the PTA filter)"
        )
    write_labeled_json(records, out_dir / "labeled.json")
    dump_json(summary.as_dict(), out_dir / "preprocess_summary.json")
    write_manifest(out_dir, "preprocess", options, inputs)


def _run_rove(options: dict, out_dir: Path) -> None:
    records = load_labeled_json(options["data"])
    cfg = _config(RovingConfig, options)
    write_labeled_json(apply_roving(records, cfg), out_dir / "labeled_roved.json")
    write_manifest(out_dir, "rove", options, [options["data"]])


def _run_pca(options: dict, out_dir: Path) -> None:
    records = load_labeled_json(options["data"])
    Z, _, _ = standardize(feature_matrix(records))
    model = fit_pca(Z, options["components"])
    scores = transform(model, Z)
    ids = [f"{r.participant_id}:{r.ear}" for r in records]
    write_pca_outputs(model, scores, ids, out_dir)
    write_manifest(out_dir, "pca", options, [options["data"]])


def _classifier_spec(options: dict) -> ClassifierSpec:
    return ClassifierSpec(options["classifier"], seed=options["classifier_seed"],
                          params=options["params"])


def _run_train(options: dict, out_dir: Path) -> None:
    spec = _classifier_spec(options)
    records = load_labeled_json(options["data"])
    model = fit(spec, feature_matrix(records), labels_of(records))
    save_model(model, out_dir / options["model_out"])
    write_manifest(out_dir, "train", options, [options["data"]])


def _experiment_config(options: dict) -> ExperimentConfig:
    designated = options["classifier"]
    specs = tuple(
        _classifier_spec(options) if variant == designated else ClassifierSpec(variant)
        for variant in options["only"]
    )
    roving = None
    if options.get("rove_mean") is not None or options.get("rove_sd") is not None:
        roving = RovingConfig(options.get("rove_mean") or 0.0,
                              options.get("rove_sd") or 0.0, options["rove_seed"])
    # Only sweep has permutation-importance options; evaluate keeps the defaults.
    metric = {"perm_metric": options["metric"]} if "metric" in options else {}
    return _config(ExperimentConfig, options, data_path=options["data"], roving=roving,
                   classifiers=specs, designated=designated, **metric)


def _run_evaluate(options: dict, out_dir: Path) -> None:
    report = run_experiment(_experiment_config(options))
    write_report(report, out_dir)
    write_manifest(out_dir, "evaluate", options, [options["data"]])


def _run_explain(options: dict, out_dir: Path) -> None:
    spec = _classifier_spec(options)
    records = load_labeled_json(options["data"])
    X = feature_matrix(records)
    y = labels_of(records)
    plan = kfold_split(y, k=options["k"], stratified=True, seed=options["seed"])
    train_idx, test_idx = plan.fold_indices(0)
    y_train = [y[i] for i in train_idx]
    y_test = [y[i] for i in test_idx]
    model = fit(spec, X[train_idx], y_train, classes=sorted_labels(y))

    size = min(options["background"], len(train_idx))
    rng = np.random.default_rng(
        np.random.SeedSequence([options["seed"], _BACKGROUND_STREAM])
    )
    chosen = np.sort(rng.choice(len(train_idx), size=size, replace=False))
    background = X[train_idx[chosen]]

    count = min(options["max_records"], len(test_idx))
    explained = test_idx[:count]
    phi, _ = explain_model(model, X[explained], background)
    ids = [f"{records[i].participant_id}:{records[i].ear}" for i in explained]
    write_beeswarm_csv(phi, X[explained], ids, out_dir / "shap_beeswarm.csv")

    imp = importance_report(
        model, X[train_idx], y_train, X[test_idx], y_test,
        repeats=options["perm_repeats"], metric=options["metric"],
        seed=options["seed"],
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


def _load_replay(path: str) -> tuple[str, dict]:
    """The recorded command and its recorded options as the section of a
    config file, once every recorded input still has its recorded sha256."""
    manifest = _read_json_object(path, "manifest")
    cmd = manifest.get("command")
    if not isinstance(cmd, str) or cmd not in _RUNNERS:
        raise ConfigurationError(f"manifest names unknown command {cmd!r}")
    inputs = manifest.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigurationError("manifest inputs must be an object of path: sha256")
    for name, digest in inputs.items():
        try:
            actual = sha256_file(name)
        except FileNotFoundError:
            raise DataError(f"input {name} is missing") from None
        if actual != digest:
            raise DataError(f"input {name} changed since the manifest was written")
    return cmd, {cmd: manifest.get("options")}


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
            # A replay runs the recorded command with no flags given.
            cmd, payload = _load_replay(args.manifest)
            args = parser.parse_args([cmd, "--out-dir", args.out_dir])
        else:
            payload = _read_json_object(args.config, "config file") if args.config else {}
        options = _resolve_options(cmd, args, payload)
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
