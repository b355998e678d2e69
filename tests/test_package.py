import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ttg")
MODELS = os.path.join(os.path.dirname(__file__), "..", "models")
SUBMODULES = {os.path.splitext(os.path.basename(path))[0]
              for path in glob.glob(os.path.join(SRC, "*.py"))} - {"__init__"}


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
    # The command line runs every stage, so it loads every module.
    added = _modules_after("import ttg.cli") - _modules_after("pass")
    assert {name for name in added if name.split(".")[0] == "ttg"} == (
        {"ttg"} | {"ttg." + name for name in SUBMODULES})
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def _ttg_modules_after(code):
    return {name for name in _modules_after(code) if name.split(".")[0] == "ttg"}


def test_library_caller_loads_only_the_modules_it_uses():
    # The closure-queries workload of perfbench: load a model, then ask
    # generate, witnesses and is_thick.  Only named operators need
    # ttg.operators; nothing here needs ttg.space or ttg.monoid.
    code = ("from ttg import docio\n"
            "from ttg.thick import generate, is_thick, witnesses\n"
            "docio.load(%r)")
    closure = {"ttg", "ttg.docio", "ttg.presentation", "ttg.thick"}
    support3 = os.path.abspath(os.path.join(MODELS, "support3.json"))
    support2 = os.path.abspath(os.path.join(MODELS, "support2.json"))
    assert _ttg_modules_after(code % support3) == closure
    assert _ttg_modules_after(code % support2) == closure | {"ttg.operators"}


def test_bare_import_loads_a_submodule_on_first_use():
    assert _ttg_modules_after("import ttg") == {"ttg"}
    assert _ttg_modules_after("import ttg\nttg.docio.load") == {
        "ttg", "ttg.docio", "ttg.presentation"}


def test_public_names_are_their_home_modules_objects():
    import ttg
    assert len(set(ttg.__all__)) == len(ttg.__all__)
    for name in ttg.__all__:
        value = getattr(ttg, name)
        assert value.__module__.startswith("ttg."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    namespace = {}
    exec("from ttg import *", namespace)
    assert set(ttg.__all__) <= set(namespace)
    assert set(ttg.__all__) | SUBMODULES <= set(dir(ttg))
    assert ttg.docio is sys.modules["ttg.docio"]
    with pytest.raises(AttributeError) as err:
        ttg.nosuch
    assert str(err.value) == "module 'ttg' has no attribute 'nosuch'"


# Second routes to a fact another route decides: monoid_report gives the
# cells and the identity, p.principals gives K(m), p.decompositions the
# summands, generate's worklist records each bar and delta step (a sum as
# the delta step of its split triangle), c.completion gives c^inf,
# generate or monoid_report gives the join, validate_family returns the
# checked family and OperatorError names a gate failure.
RETIRED = ("monoid_op", "identity_element", "_require_fixed", "bar", "delta",
           "principal", "summands", "c_infinity", "add", "FamilySpec",
           "MonoidError")


def _top_level_names(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("name", RETIRED)
def test_retired_second_routes_are_gone(name):
    import ttg
    assert name not in ttg.__all__
    assert name not in dir(ttg)
    with pytest.raises(AttributeError):
        getattr(ttg, name)
    for path in glob.glob(os.path.join(SRC, "*.py")):
        assert name not in _top_level_names(path), path
