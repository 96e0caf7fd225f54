"""Every definition in ``src/brainspeech`` is used by the package itself.

The test walks the package with ``ast`` and collects every module-level
function and class and every public method of a module-level class. Each
must be referenced from somewhere in ``src/`` outside its own body: a
function or class as a loaded name or an attribute, a method as an
attribute. Imports and ``__all__`` entries do not count: a name that only a
test imports is a test helper and lives under ``tests/``.

Every field of a ``@dataclass`` must likewise be loaded as an attribute
somewhere in ``src/``. The check goes by attribute name alone, so it cannot
see a field that shares its name with an attribute loaded elsewhere: a field
called ``split`` would pass on ``str.split`` and ``twoway.split``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "brainspeech"

# "module.qualname" -> why it may go unreferenced inside the package.
ALLOWLIST = {
    "cli.main": "console-script entry point named in pyproject.toml",
}

# "module.Class.field" -> why the field may go unread inside the package.
FIELD_ALLOWLIST = {
    "training.TrainResult.history": "perfbench/worker.py reads it",
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(parts)


def _definitions(tree: ast.Module) -> List[Tuple[str, Tuple[str, bool], int, int]]:
    """(qualname, (name, is method), first line, last line) of each checked def."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, (node.name, False), node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    defs.append((f"{node.name}.{item.name}", (item.name, True),
                                 item.lineno, item.end_lineno))
    return defs


def _references(tree: ast.Module) -> List[Tuple[Tuple[str, bool], int]]:
    """((name, is attribute), line) of every loaded name and attribute access."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(((node.id, False), node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append(((node.attr, True), node.lineno))
    return refs


def _trees() -> Dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def unreferenced() -> Dict[str, str]:
    """module.qualname -> file:line of every definition nothing in src/ uses."""
    trees = _trees()
    total: Counter = Counter()
    per_file = {}
    for path, tree in trees.items():
        per_file[path] = _references(tree)
        total.update(ref for ref, _ in per_file[path])
    missing = {}
    for path, tree in trees.items():
        module = _module_name(path)
        for qualname, (name, method), first, last in _definitions(tree):
            # a method is reached as an attribute; a function or class either way
            kinds = [(name, True)] if method else [(name, True), (name, False)]
            inside = sum(1 for ref, line in per_file[path]
                         if ref in kinds and first <= line <= last)
            if sum(total[k] for k in kinds) - inside == 0:
                key = f"{module}.{qualname}" if module else qualname
                missing[key] = f"{path.relative_to(SRC.parents[1])}:{first}"
    return missing


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def unread_fields() -> Dict[str, str]:
    """module.Class.field -> file:line of every dataclass field that no
    attribute load in src/ names."""
    trees = _trees()
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    missing = {}
    for path, tree in trees.items():
        module = _module_name(path)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id not in loaded):
                    key = f"{module}.{node.name}.{item.target.id}"
                    missing[key] = f"{path.relative_to(SRC.parents[1])}:{item.lineno}"
    return missing


def test_every_dataclass_field_is_read_in_src():
    missing = {k: v for k, v in unread_fields().items() if k not in FIELD_ALLOWLIST}
    assert not missing, (
        "dataclass fields that nothing in src/ reads (delete them):\n"
        + "\n".join(f"  {k} ({v})" for k, v in sorted(missing.items()))
    )


def test_field_allowlist_names_unread_fields():
    assert set(FIELD_ALLOWLIST) <= set(unread_fields()), sorted(
        set(FIELD_ALLOWLIST) - set(unread_fields()))


def test_every_definition_is_used_in_src():
    missing = {k: v for k, v in unreferenced().items() if k not in ALLOWLIST}
    assert not missing, (
        "definitions referenced from nowhere else in src/ (delete them, or move "
        "test-only helpers under tests/):\n"
        + "\n".join(f"  {k} ({v})" for k, v in sorted(missing.items()))
    )


def test_allowlist_names_existing_definitions():
    defined: Set[str] = set()
    for path in SRC.rglob("*.py"):
        module = _module_name(path)
        for qualname, *_ in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined.add(f"{module}.{qualname}" if module else qualname)
    assert not set(ALLOWLIST) - defined, sorted(set(ALLOWLIST) - defined)
