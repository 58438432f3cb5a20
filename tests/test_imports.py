"""Source hygiene: no module of the package or of the test suite imports
a name it never uses."""

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
