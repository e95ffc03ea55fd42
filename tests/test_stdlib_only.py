"""The package stays standard-library only: every module imported under
src/gradedval is part of the standard library or gradedval itself.  And
no check of the package is one that python -O strips."""

import ast
import sys
from pathlib import Path

import gradedval


def test_package_imports_only_the_standard_library():
    files = sorted(Path(gradedval.__file__).resolve().parent.glob("*.py"))
    assert len(files) > 10
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "gradedval" and top not in sys.stdlib_module_names:
                    outside.append((path.name, name))
    assert outside == []


def test_package_modules_use_every_name_they_import():
    # __init__.py imports names only to re-export them
    files = sorted(Path(gradedval.__file__).resolve().parent.glob("*.py"))
    unused = []
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0]
                             for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported += [alias.asname or alias.name
                             for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported
                   if name not in used]
    assert unused == []


def test_no_package_check_is_stripped_by_python_O():
    # -O drops assert statements and folds __debug__ to False, so a check
    # written either way would vanish; every check must be a typed raise
    files = sorted(Path(gradedval.__file__).resolve().parent.glob("*.py"))
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append((path.name, node.lineno))
    assert found == []
