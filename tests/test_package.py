import ast
import glob
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ttg")


def test_library_imports_only_the_standard_library():
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path, name)
