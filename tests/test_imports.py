"""No module of pbwkit imports a name it does not use.

Names imported relatively into ``__init__.py`` are the package's public
surface (re-exports) and are exempt.
"""

import ast
from pathlib import Path

import pbwkit

SRC = Path(pbwkit.__file__).parent


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if path.name == "__init__.py" and node.level:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_detects_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom math import gcd, lcm\n\nprint(gcd(4, 6))\n")
    assert unused_imports(mod) == [(1, "os"), (2, "lcm")]
