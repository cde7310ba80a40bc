"""Mutation tests of the inputs a command reads besides ``labeled.json``: a
config file, a recorded manifest and the split CSV pair of ``preprocess``.

Each example mutates one tiny valid input once and runs ``cli.main`` in this
process on 8 ears per class. It must end in a documented exit code (0, 2, 3
or 4) with no escaped exception and no traceback on stderr. A mutation
replaces a value with one of another JSON type or with one outside its
option's declared domain in ``cli._TABLE``, deletes a key or a list item,
duplicates a list item or a CSV row, or cuts a list or a CSV row short.
A value outside its option's domain must exit 2 before any output.
Every number drawn is small, so no example asks for a costly run
(random testing after Claessen & Hughes 2000, QuickCheck, ICFP).
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Annotated, get_args, get_origin

import pytest
from hypothesis import given, settings, strategies as st

from loudclass import cli
from loudclass.cli import main
from loudclass.domains import AtLeast, AtMost, OneOf
from loudclass.pipeline import ThresholdDbHL, load_csv, write_csv

EXIT_CODES = (0, 2, 3, 4)
MUTATION = settings(derandomize=True, deadline=None, max_examples=30)

# A mutated run on 8 ears per class may leave a class out of a fold.
pytestmark = pytest.mark.filterwarnings("ignore::loudclass.metrics.MetricWarning")


def _run(*argv: str) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc in EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
    return rc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A generated data set, the split pair made from its CSV, a tiny valid
    config section per command and a manifest recorded by each."""
    root = tmp_path_factory.mktemp("mutations")
    assert _run("generate", "--out-dir", str(root / "gen"), "--per-class", "8",
                "--seed", "3", "--csv") == 0
    ears = load_csv(root / "gen" / "participants.csv")
    write_csv([replace(e, features=None) for e in ears], root / "audiogram.csv")
    write_csv([replace(e, audiogram=None) for e in ears], root / "loudness.csv")
    data = str(root / "gen" / "labeled.json")
    fitted = {"data": data, "only": ["dt"], "classifier": "dt", "k": 3}
    configs = {
        "generate": {"per_class": 8, "seed": 1, "classes": ["N2", "S1"], "jitter_sd": 2.0},
        "preprocess": {"combined_csv": str(root / "gen" / "participants.csv"),
                       "min_pta": 0.0, "min_class_count": 1, "min_class_fraction": 0.0},
        "rove": {"data": data, "mean": 5.0, "sd": 2.0, "seed": 1},
        "pca": {"data": data, "components": 3},
        "train": {"data": data, "classifier": "dt", "params": {"min_samples_split": 4}},
        "evaluate": {**fitted, "repeats": 1, "rove_mean": 2.0},
        "explain": {"data": data, "classifier": "dt", "k": 3, "background": 5,
                    "max_records": 2, "perm_repeats": 1, "metric": "accuracy"},
        "sweep": {**fitted, "conditions": [[0.0, 0.0], [5.0, 2.0]], "perm_repeats": 1},
    }
    manifests = {}
    for command, section in configs.items():
        (root / f"{command}.json").write_text(json.dumps({command: section}))
        out = root / "recorded" / command
        assert _run(command, "--out-dir", str(out),
                    "--config", str(root / f"{command}.json")) == 0, command
        [manifests[command]] = out.rglob("manifest.json")
    return root, configs, manifests


# --- JSON mutations ---------------------------------------------------------------

def _kind(value) -> str:
    for kind, types in (("bool", bool), ("null", type(None)), ("int", int),
                        ("float", float), ("str", str), ("list", list)):
        if isinstance(value, types):
            return kind
    return "object"


_SCALARS = st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=3)
_OF_KIND = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-3, 12),
    "float": st.floats(-12, 12) | st.sampled_from([math.nan, math.inf, -math.inf]),
    "str": st.sampled_from(["", "lr", "abc", "nan", "-1"]) | st.text(max_size=4),
    "list": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
}


def _other_kind(value):
    """A small JSON value of another kind than ``value``."""
    kinds = sorted(set(_OF_KIND) - {_kind(value)})
    return st.sampled_from(kinds).flatmap(_OF_KIND.__getitem__)


def _beyond(bound, kind):
    """Values just outside one bound of a number kind, at most 100 beyond it."""
    if isinstance(bound, AtMost):
        high = bound.high
        return (st.integers(high + 1, high + 100) if kind is int
                else st.floats(high, high + 100, exclude_min=True))
    low = bound.low
    if kind is int:
        return st.integers(low - 100, low - (type(bound) is AtLeast))
    return st.floats(low - 100, low, exclude_max=type(bound) is AtLeast)


def _outside(option):
    """Values outside ``option``'s declared domain, or None where a value of
    another kind is the only way out of it."""
    if option.domain is None:
        return None
    listed = get_origin(option.domain) is tuple
    annotation = get_args(option.domain)[0] if listed else option.domain
    kind, *bounds = (get_args(annotation) if get_origin(annotation) is Annotated
                     else (annotation,))
    choices = [st.sampled_from([math.nan, math.inf, -math.inf])] if kind is float else []
    for bound in bounds:
        if isinstance(bound, OneOf):
            choices.append(st.text(max_size=4).filter(lambda v, b=bound: not b.admits(v)))
        else:
            choices.append(_beyond(bound, kind))
    if not choices:
        return None
    values = st.one_of(choices)
    return values.map(lambda v: [v]) if listed else values


def _paths(value, path=()):
    """Every path into the JSON value ``value``."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, (*path, key))


def _get(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def _mutated(draw, payload, options: dict):
    """``payload`` with one mutation, and whether it put a value outside the
    domain of an option; ``options`` maps a path to the option it sets."""
    payload = json.loads(json.dumps(payload))
    path = draw(st.sampled_from(list(_paths(payload))[1:]))
    *head, key = path
    parent, value = _get(payload, head), _get(payload, path)
    outside = _outside(options[path]) if path in options else None
    ops = ["retype", "delete"] + (["outside"] if outside is not None else [])
    if isinstance(parent, list):
        ops.append("duplicate")
    if isinstance(value, list) and value:
        ops.append("cut")
    op = draw(st.sampled_from(ops))
    if op == "retype":
        parent[key] = draw(_other_kind(value))
    elif op == "outside":
        parent[key] = draw(outside)
    elif op == "delete":
        del parent[key]
    elif op == "duplicate":
        parent.insert(key, value)
    else:
        parent[key] = value[:draw(st.integers(0, len(value) - 1))]
    return payload, op == "outside"


def _table(command: str) -> dict:
    return {option.name: option for option in cli._TABLE[command][1]}


@MUTATION
@given(st.data())
def test_a_mutated_config_file_ends_in_a_documented_exit_code(inputs, data):
    root, configs, _ = inputs
    command = data.draw(st.sampled_from(sorted(configs)))
    options = {(command, name): option for name, option in _table(command).items()}
    payload, outside = data.draw(_mutated({command: configs[command]}, options))
    with tempfile.TemporaryDirectory(dir=root) as work:
        config = Path(work) / "config.json"
        config.write_text(json.dumps(payload))
        out = Path(work) / "out"
        rc = _run(command, "--out-dir", str(out), "--config", str(config))
        if outside:
            assert rc == 2 and not out.exists()


@MUTATION
@given(st.data())
def test_a_mutated_manifest_ends_in_a_documented_exit_code(inputs, data):
    root, _, manifests = inputs
    command = data.draw(st.sampled_from(sorted(manifests)))
    recorded = json.loads(manifests[command].read_text())
    options = {("options", name): option for name, option in _table(command).items()}
    payload, outside = data.draw(_mutated(recorded, options))
    with tempfile.TemporaryDirectory(dir=root) as work:
        manifest = Path(work) / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = Path(work) / "out"
        rc = _run("replay", "--manifest", str(manifest), "--out-dir", str(out))
        if outside:
            assert rc == 2 and not out.exists()


# --- CSV mutations ----------------------------------------------------------------

_CELL_OF_ANOTHER_KIND = st.sampled_from(
    ["", "abc", "true", "null", "nan", "inf", "-inf", "1e400", "[1]", "{}", " 5"])


def _cell_outside(column: str):
    """A cell outside the domain of ``column``: a threshold beyond the
    audiometric range, a feature that is not finite, or an ear that is
    neither left nor right."""
    if column.startswith("HTL"):
        return st.one_of(_beyond(bound, float) for bound in get_args(ThresholdDbHL)[1:]).map(repr)
    if column == "ear":
        return st.sampled_from(["", "middle", "LEFT"])
    if column == "id":
        return st.just("")
    return st.sampled_from(["inf", "-inf", "1e400"])


@st.composite
def _mutated_rows(draw, rows: list[list[str]]):
    rows = [list(row) for row in rows]
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, len(rows[0]) - 1))
    op = draw(st.sampled_from(["retype", "outside", "delete", "duplicate", "cut"]))
    if op == "retype":
        rows[r][c] = draw(_CELL_OF_ANOTHER_KIND)
    elif op == "outside":
        rows[max(r, 1)][c] = draw(_cell_outside(rows[0][c]))
    elif op == "delete":  # the column, from the header and every row
        for row in rows:
            del row[c]
    elif op == "duplicate":
        rows.insert(r, rows[r])
    else:
        rows[r] = rows[r][:c]
    return rows


@MUTATION
@given(st.data())
def test_a_mutated_split_csv_pair_ends_in_a_documented_exit_code(inputs, data):
    root, _, _ = inputs
    side = data.draw(st.sampled_from(["audiogram", "loudness"]))
    with open(root / f"{side}.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    mutated = data.draw(_mutated_rows(rows))
    with tempfile.TemporaryDirectory(dir=root) as work:
        paths = {name: str(root / f"{name}.csv") for name in ("audiogram", "loudness")}
        paths[side] = str(Path(work) / f"{side}.csv")
        with open(paths[side], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(mutated)
        _run("preprocess", "--out-dir", str(Path(work) / "out"),
             "--audiogram-csv", paths["audiogram"], "--loudness-csv", paths["loudness"],
             "--min-pta", "0", "--min-class-count", "1", "--min-class-fraction", "0")
