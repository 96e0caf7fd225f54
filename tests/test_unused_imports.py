"""Every imported name under ``src/`` and ``tests/`` is used by its module.

The test walks each module with ``ast``. A name bound by ``import`` or
``from ... import`` must be loaded somewhere in the same module, as a name
or as the base of an attribute access. ``from __future__`` imports and the
names a package's ``__init__.py`` lists in ``__all__`` (its re-exports) are
exempt. No linter is installed, so this test is the check.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]


def _exports(tree: ast.Module) -> Set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _imported(tree: ast.Module) -> List[Tuple[str, int]]:
    """(bound name, line) of every import in the module, nested ones included."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _loaded(tree: ast.Module) -> Set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(path: Path, root: Path = ROOT) -> List[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = _exports(tree) if path.name == "__init__.py" else set()
    used = _loaded(tree) | exempt
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_detects_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport numpy as np\nfrom json import dumps, loads\n"
                      "print(np.pi, dumps)\n")
    names = [entry.rsplit(": ", 1)[1] for entry in unused_imports(module, tmp_path)]
    assert names == ["os", "loads"]
