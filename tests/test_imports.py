"""No module of pbwkit imports a name it does not use, every public
function or method it defines is read somewhere in the package, no
module holds code that ``python -O`` strips, and only the kernel,
``linalg.py``, reaches into another object's private attributes or
imports a private name from another module of the package.  Only
``closure.Component`` builds rows on lookup: it alone defines the hook
``RowSpace._source``, which ``RowSpace`` sets to None.

Names imported relatively into ``__init__.py`` are the package's public
surface (re-exports): they are exempt from the first check and count as
reads for the second.

With no ``assert`` statement and no read of ``__debug__``, the package runs
the same code with and without ``-O``, so one tier-1 run under ``-O``
covers both: pytest rewrites the asserts of the test modules and of
``conftest.py``, which then still fire.
"""

import ast
from collections import Counter
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


def names_read(node):
    """How often each name occurs under node: as a variable, an attribute
    or an imported name."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.asname or sub.name] += 1
    return out


def unread_definitions(paths):
    """(file, name) of each public function or method defined in paths
    (``__init__.py`` exempt) whose name occurs nowhere in paths outside
    its own definition."""
    reads = Counter()
    defs = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += names_read(tree)
        if path.name == "__init__.py":
            continue
        for node in tree.body:
            for d in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not d.name.startswith("_"):
                    defs.append((path.name, d))
    return sorted((name, d.name) for name, d in defs
                  if reads[d.name] == names_read(d)[d.name])


def test_every_public_definition_is_read():
    assert unread_definitions(sorted(SRC.glob("*.py"))) == []


def test_detects_an_unread_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class A:\n    def used(self):\n        return self.unused\n\n"
        "    def unused(self):\n        return 0\n\n"
        "    def orphan(self):\n        return self.used()\n\n"
        "    def _private(self):\n        return 0\n")
    assert unread_definitions(sorted(tmp_path.glob("*.py"))) == [
        ("mod.py", "orphan"), ("mod.py", "recursive")]


def debug_only_code(path):
    """(line, what) of each ``assert`` statement and each read of
    ``__debug__`` in the module at path: the code ``python -O`` strips or
    turns off."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif (isinstance(node, ast.Name) and node.id == "__debug__"
              or isinstance(node, ast.Attribute) and node.attr == "__debug__"):
            found.append((node.lineno, "__debug__"))
    return sorted(found)


def test_no_debug_only_code():
    found = {str(path.relative_to(SRC)): debug_only_code(path)
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_detects_debug_only_code(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        '"""assert in a docstring is text."""\n'
        "import builtins\n\n"
        "def f(x):\n    assert x > 0, 'positive'\n    return x\n\n"
        "if __debug__:\n    print('checked')\n"
        "# assert in a comment is text\n"
        "print(builtins.__debug__)\n")
    assert debug_only_code(mod) == [(5, "assert"), (8, "__debug__"), (11, "__debug__")]


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_attributes(path):
    """(line, name) of each read or write, in the module at path, of a
    ``_``-prefixed attribute (dunders aside) of anything but ``self``, and
    of each ``_``-prefixed name it imports from a pbwkit module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "pbwkit"):
            found += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
    return sorted(found)


def test_private_attributes_stay_in_the_kernel():
    # RowSpace's slots (its rows and the ``_source`` hook that builds a
    # row on lookup) are read and set in linalg.py only; closure.py's
    # Component, a RowSpace, reaches them through ``self``
    found = {str(path.relative_to(SRC)): private_attributes(path)
             for path in sorted(SRC.rglob("*.py")) if path.name != "linalg.py"}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_detects_a_private_attribute(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .linalg import RowSpace, _normal as normal, __all__\n"
        "from pbwkit.closure import _layout\n"
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self._own = other._theirs\n"
        "        other._source = self._own\n"
        "        print(type(self).__name__, self.__class__)\n"
        "        del other.inner._rows\n")
    assert private_attributes(mod) == [(3, "_normal"), (4, "_layout"), (7, "_theirs"),
                                       (8, "_source"), (10, "_rows")]


def source_hooks(path):
    """(class, what) of each definition of ``_source`` in the module at
    path: a method ("def"), or an assignment with the source of its value,
    the class being the one whose body holds it (None at module level)."""
    found = []

    def visit(node, cls):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.name == "_source":
                found.append((cls, "def"))
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                if any(isinstance(t, ast.Name) and t.id == "_source"
                       or isinstance(t, ast.Attribute) and t.attr == "_source"
                       for t in targets):
                    found.append((cls, ast.unparse(sub.value)))
            visit(sub, sub.name if isinstance(sub, ast.ClassDef) else cls)
    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(found, key=repr)


def test_only_closure_components_build_rows_on_lookup():
    # a plain RowSpace holds every row it has built; the closure
    # components alone hold rows unbuilt, through the one hook
    found = {str(path.relative_to(SRC)): source_hooks(path) for path in sorted(SRC.rglob("*.py"))}
    assert {name: hooks for name, hooks in found.items() if hooks} == {
        "closure.py": [("Component", "def")], "linalg.py": [("RowSpace", "None")]}


def test_detects_a_source_hook(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class A:\n"
        "    _source = None\n\n"
        "    class B:\n"
        "        def _source(self, c):\n"
        "            return None\n\n"
        "    def __init__(self, other):\n"
        "        self._source = other.get\n\n"
        "def _source(c):\n"
        "    return c\n")
    assert source_hooks(mod) == [("A", "None"), ("A", "other.get"), ("B", "def"), (None, "def")]
