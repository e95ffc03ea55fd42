"""The package stays standard-library only: every module imported under
src/gradedval is part of the standard library or gradedval itself."""

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
