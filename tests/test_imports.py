"""Source hygiene: no module of the package or of the test suite imports
a name it never uses, and no private function of the package is left
that the package never reads."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "matbase"


def unused_imports(source):
    """The names a module imports and never reads, sorted; a name listed
    in the module's __all__ counts as read, and a __future__ import is a
    compiler directive, not a name."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    sample = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "__all__ = ['b']\nd(osp)\n")
    assert unused_imports(sample) == ["os"]
    found = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(TESTS.parent))] = names
    assert found == {}


def unread_private_defs(sources):
    """The private functions and methods (a leading underscore, not a
    dunder) defined in the named sources that no source reads, as a
    name or an attribute, outside the definition's own body; sorted
    (source name, function name) pairs."""
    defs = []
    reads = []
    for key, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((key, node))
            elif isinstance(node, ast.Name):
                reads.append((key, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.append((key, node.attr, node.lineno))
    return sorted((key, node.name) for key, node in defs
                  if not any(name == node.name and not (
                      where == key
                      and node.lineno <= line <= node.end_lineno)
                      for where, name, line in reads))


def test_no_unread_private_defs():
    # a definitional path may stay only as a twin in the tests, so a
    # private helper the package no longer calls is dead code
    sample = ("def _kept():\n    pass\n"
              "def _dead():\n    return _dead()\n"
              "class C:\n    def _method(self):\n        pass\n"
              "    def __init__(self):\n        self._method()\n"
              "_kept()\n")
    assert unread_private_defs({"s": sample}) == [("s", "_dead")]
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_defs(sources) == []
