import ast
import glob
import os
import subprocess
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


def _modules_after(code):
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    script = code + "\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    # Measured against a bare start-up, since site hooks may preload modules.
    added = _modules_after("import ttg.cli") - _modules_after("pass")
    assert "ttg.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
