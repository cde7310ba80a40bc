"""Nothing in src/loudclass that only the tests call.

The test parses the package with ``ast`` and lists every function, class,
method and module constant it defines. Each must be referenced somewhere
in ``src/``, ``scripts/`` or ``perfbench/``: loaded by name or as an
attribute, imported, or listed in a module's ``__all__``. Matching is by
bare name, so it errs towards calling a name used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loudclass"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# Defined names that no command uses, each kept for the reason given.
EXEMPT = {
    # Acceptance criterion 1 checks precision, recall and specificity of the
    # label metric API against the oracles until that API is retired.
    "metrics.precision",
    "metrics.recall",
    "metrics.specificity",
    # The README's Python API example prints report.designated.micro_auc.
    "harness.DesignatedDetail.micro_auc",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elements if isinstance(e, ast.Name)]
    return names


def defined_names() -> dict[str, tuple[str, str]]:
    """Qualified name -> (bare name, file:line) of every definition."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__") or "loudclass"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                members.append((node.name, node.name, node))
                if isinstance(node, ast.ClassDef):
                    members += [
                        (f"{node.name}.{m.name}", m.name, m)
                        for m in node.body
                        if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    ]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                members += [(name, name, node) for name in _assigned_names(node)]
            for qualified, name, where in members:
                if not _dunder(name):
                    location = f"{path.relative_to(ROOT)}:{where.lineno}"
                    found[f"{module}.{qualified}"] = (name, location)
    return found


def referenced_names() -> set[str]:
    """Every bare name the program's own code refers to."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Assign) and "__all__" in _assigned_names(node):
                    names.update(e.value for e in node.value.elts)
    return names


def test_every_definition_in_src_is_used_by_the_program():
    used = referenced_names()
    unused = [
        f"{qualified} ({location})"
        for qualified, (name, location) in sorted(defined_names().items())
        if name not in used and qualified not in EXEMPT
    ]
    assert not unused, "referenced only by tests, if at all:\n" + "\n".join(unused)


def test_every_exemption_names_a_definition_still_unused():
    defined = defined_names()
    used = referenced_names()
    assert EXEMPT <= set(defined)
    assert not {q for q in EXEMPT if defined[q][0] in used}
