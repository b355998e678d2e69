import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttg.cli
import ttg.docio
import ttg.operators
from ttg import self_module, support_model
from ttg.cli import main
from ttg.operators import classify
from ttg.docio import (DocumentError, ModelInvalidError, dump_document, load,
                       load_document, model_digest, normalize_document, save)

from conftest import graded_support_model, restriction_module


def model_path(models_dir, name):
    return os.path.join(models_dir, name + ".json")


def test_load_support2_matches_generator(models_dir):
    p, operators, _ = load(model_path(models_dir, "support2"))
    gen = support_model(2)
    assert p.names == gen.names
    assert p.sum == gen.sum
    assert p.action == gen.action
    assert p.triangles == gen.triangles
    assert (p.zero, p.base.unit) == (gen.zero, gen.base.unit)
    assert set(operators) == {"rad", "div_a", "fam_min", "saturate"}


def test_load_without_module_section_defaults_to_self_action(models_dir):
    p, _, _ = load(model_path(models_dir, "chain3"))
    assert p.action == p.base.tensor


def test_unknown_name_in_triangle(models_dir):
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    doc["category"]["triangles"].append(["a", "mystery", "b"])
    with pytest.raises(DocumentError) as err:
        load_document(doc)
    assert "mystery" in str(err.value)


def test_axiom_violation_is_model_invalid(models_dir):
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    doc["category"]["sum"][1][0] = "b"  # break a + z = a
    with pytest.raises(ModelInvalidError):
        load_document(doc)


def test_round_trip_normalization(models_dir):
    for name in ("support2", "support3", "chain3"):
        path = model_path(models_dir, name)
        with open(path) as fh:
            doc = json.load(fh)
        p, _, normalized = load(path)
        assert normalized == normalize_document(doc, p)
        # a second pass through dump/parse/normalize is a fixed point
        reparsed = json.loads(dump_document(normalized))
        p2, _, normalized2 = load(path)
        assert normalize_document(reparsed, p2) == normalized


def test_normalized_triangles_sort_by_name(chain3, graded2, restrict2):
    # chain3's z is id 0 but sorts last, and graded2's id 1 is "1|0" but
    # id 4 is "0|1": name order is not id order
    for p in (chain3, graded2, restrict2):
        doc = normalize_document({"category": {}, "module": {}}, p)
        for sec, key in ((p.base, "category"), (p, "module")):
            assert doc[key]["triangles"] == sorted(
                [sec.names[v] for v in t] for t in sec.triangles)


def test_digest_stability(models_dir):
    _, _, doc = load(model_path(models_dir, "support2"))
    assert model_digest(doc) == model_digest(json.loads(dump_document(doc)))


def test_repeated_operator_names_keep_the_digest(models_dir):
    # the loader reads each operator list as a set, so repeats name the
    # same operator and must give the same normalized document
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    p, operators = load_document(doc)
    ops = json.loads(json.dumps(doc["operators"]))
    ops["div_a"]["s"] *= 2
    ops["fam_min"]["members"] = [f + f[:1] for f in ops["fam_min"]["members"] * 2]
    ops["saturate"]["table"] = {m: v + v[::-1] for m, v in ops["saturate"]["table"].items()}
    repeated = dict(doc, operators=ops)
    q, repeated_operators = load_document(repeated)
    assert q == p and repeated_operators == operators
    assert normalize_document(repeated, q) == normalize_document(doc, p)
    assert model_digest(normalize_document(repeated, q)) == \
        model_digest(normalize_document(doc, p))


def _broken_model(models_dir, tmp_path):
    """support2 with a + z = b, which violates the sum unit axiom."""
    broken = tmp_path / "broken.json"
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    doc["category"]["sum"][1][0] = "b"
    broken.write_text(json.dumps(doc))
    return str(broken)


def test_cli_validate_and_exit_codes(models_dir, tmp_path):
    assert main(["validate", "--model", model_path(models_dir, "support2")]) == 0
    assert main(["validate", "--model", str(tmp_path / "missing.json")]) == 2
    assert main(["validate", "--model", _broken_model(models_dir, tmp_path)]) == 1

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["validate", "--model", str(garbage)]) == 2


def test_cli_invalid_model_is_reported_only_by_validate(models_dir, tmp_path,
                                                        capsys):
    broken = _broken_model(models_dir, tmp_path)
    out = tmp_path / "validate.json"
    assert main(["validate", "--model", broken, "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert "digest" not in data
    assert data["command"] == "validate" and data["passed"] is False
    assert data["checks"][0]["name"] == "axioms"
    assert data["checks"][0]["violations"]
    assert capsys.readouterr().out.startswith("validate: FAIL\n")
    for command in ("report", "monoid", "spectral", "smod", "generate"):
        out = tmp_path / (command + ".json")
        assert main([command, "--model", broken, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("invalid model: ")
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["generate", "--seed", "q"], "unknown object name 'q' in seed"),
    (["generate", "--seed", "a,,b"], "unknown object name '' in seed"),
    (["witness", "--seed", "a", "--target", "a,b"],
     "unknown target object 'a,b'"),
    (["witness", "--seed", "a", "--target", "b"],
     "target b is not generated by the seed"),
    (["smod", "--out", "{missing}/smod.json"],
     "cannot write {missing}/smod.json: [Errno 2] No such file or directory: "
     "'{missing}/smod.json'"),
    (["smod", "--dot", "{missing}/smod.dot"],
     "cannot write {missing}/smod.dot: [Errno 2] No such file or directory: "
     "'{missing}/smod.dot'"),
])
def test_cli_argument_errors_exit_2(models_dir, tmp_path, capsys, argv, message):
    """``{missing}`` stands for a directory that does not exist."""
    missing = str(tmp_path / "missing")
    argv = [arg.replace("{missing}", missing) for arg in argv]
    assert main(argv + ["--model", model_path(models_dir, "support2")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message.replace("{missing}", missing)
    assert captured.out == ""


def test_cli_seed_tokens_are_stripped(models_dir, capsys):
    path = model_path(models_dir, "support2")
    assert main(["generate", "--model", path, "--seed", " a , b "]) == 0
    spaced = capsys.readouterr().out
    assert main(["generate", "--model", path, "--seed", "a,b"]) == 0
    assert spaced == capsys.readouterr().out


def test_cli_report_classifies_each_operator_once(models_dir, monkeypatch):
    """support2 has identity and four named operators."""
    calls = []

    def counting(p, c):
        calls.append(c)
        return classify(p, c)

    monkeypatch.setattr(ttg.operators, "classify", counting)
    monkeypatch.setattr(ttg.cli, "classify", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--model", model_path(models_dir, "support2")]) == 0
    assert len(calls) == 5


class _ClosedPipe:
    """A stdout whose reader has gone; ``fileno`` is a scratch file, so the
    devnull redirect touches no descriptor of the test run."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_console_exits_quietly_when_stdout_closes(models_dir, tmp_path,
                                                  monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "argv", [
            "ttg", "smod", "--model", model_path(models_dir, "support2")])
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        with pytest.raises(SystemExit) as exit_:
            ttg.cli.console()
    finally:
        os.close(fd)
    assert exit_.value.code == 1
    assert capsys.readouterr().err == ""


def test_console_entry_point(models_dir, tmp_path):
    """``python -m ttg.cli`` runs ``console()``, the ``ttg`` script target."""
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "pyproject.toml")) as fh:
        assert 'ttg = "ttg.cli:console"' in fh.read()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def ttg_command(*argv):
        return subprocess.run([sys.executable, "-m", "ttg.cli", *argv], env=env,
                              capture_output=True, text=True).returncode

    assert ttg_command("report", "--model", model_path(models_dir, "support2")) == 0
    assert ttg_command("validate", "--model", str(tmp_path / "missing.json")) == 2


# An ill-shaped last triangle of support3, read after every other triangle,
# and the error line it must give.
_LAST_TRIANGLE = {
    "last-triangle-unknown-name": (["z", "z", "q"], "unknown object name 'q' in category"),
    "last-triangle-two-entries": (["z", "z"], "category triangle ['z', 'z'] must have 3 entries"),
    "last-triangle-number": (5, "category triangle 5 must have 3 entries"),
    "last-triangle-string": ("zzz", "category triangle 'zzz' must have 3 entries"),
}


def _malformed(case, doc):
    """``doc`` edited so that loading it reads one ill-shaped value or
    meets one loader or operator error."""
    cat, ops = doc["category"], doc.get("operators")
    if case in _LAST_TRIANGLE:
        cat["triangles"][-1] = _LAST_TRIANGLE[case][0]
    elif case == "module-without-translate":
        doc["module"] = {key: cat[key]
                         for key in ("objects", "zero", "sum", "triangles")}
        doc["module"]["action"] = cat["tensor"]
    elif case == "division-without-s":
        ops["bad"] = {"kind": "division"}
    elif case == "operator-not-an-object":
        ops["bad"] = 5
    elif case == "short-translate":
        cat["translate"].pop()
    elif case == "category-translate-not-a-bijection":
        cat["translate"] = [cat["translate"][0]] * len(cat["translate"])
    elif case == "module-translate-not-a-bijection":
        doc = normalize_document({"category": {}, "module": {}},
                                 restriction_module(2, 1))
        doc["module"]["translate"] = ["z", "z"]
    elif case == "two-entry-triangle":
        cat["triangles"].append(["a", "b"])
    elif case == "module-is-a-list":
        doc["module"] = [cat]
    elif case == "operators-is-a-list":
        doc["operators"] = sorted(ops)
    elif case == "table-operator-with-list-table":
        ops["bad"] = {"kind": "table", "table": [["z", ["z"]]]}
    elif case == "number-triangle":
        cat["triangles"].append(5)
    elif case == "number-sum-row":
        cat["sum"][1] = 5
    elif case == "list-zero":
        cat["zero"] = ["z"]
    elif case == "number-division-s":
        ops["bad"] = {"kind": "division", "s": 5}
    elif case == "list-operator-kind":
        ops["bad"] = {"kind": ["table"]}
    elif case == "radical-with-number-table":
        ops["bad"] = {"kind": "radical", "table": 5}
    elif case == "number-object-name":
        cat["objects"][1] = 5
    elif case == "duplicate-object-name":
        cat["objects"][1] = cat["objects"][0]
    elif case == "no-category-section":
        del doc["category"]
    elif case == "operator-named-identity":
        ops["identity"] = {"kind": "identity"}
    elif case == "division-not-multiplicatively-closed":
        ops["bad"] = {"kind": "division", "s": ["a", "b"]}
    elif case == "table-value-not-thick":
        ops["bad"] = {"kind": "table", "table": {"z": ["z", "a", "b"]}}
    elif case == "division-in-module":
        doc = normalize_document({"category": {}, "module": {}},
                                 restriction_module(2, 1))
        doc["operators"] = {"bad": {"kind": "division", "s": ["z"]}}
    elif case == "over-max-objects":
        pass  # support2 as it is, loaded with --max-objects 3
    else:
        return {"top-level-number": 5, "top-level-null": None}[case]
    return doc


# The error line of each loader or operator error path, on the document
# ``_malformed`` makes: support2 edited, a restrict2 module document for
# "division-in-module" and "module-translate-not-a-bijection", and
# support2 itself, loaded with --max-objects 3, for "over-max-objects".
_ERROR_LINES = {
    "number-object-name": "category object names must be strings",
    "duplicate-object-name": "duplicate object names in category",
    "over-max-objects": "category has 4 objects, over the limit 3",
    "no-category-section": "document has no 'category' section",
    "operator-named-identity": "operator name 'identity' is reserved",
    "division-not-multiplicatively-closed":
        "operator 'bad': S is not multiplicatively closed: a tensor b escapes",
    "table-value-not-thick": "operator 'bad': table value at z is not thick (triangle)",
    "division-in-module": "operator 'bad': division requires K acting on itself",
    "category-translate-not-a-bijection": "category translate is not a bijection",
    "module-translate-not-a-bijection": "module translate is not a bijection",
}

# Files that are not a JSON document json.load can return.
_UNREADABLE = {"not-utf8": b"\xff\xfe{}", "nested-past-recursion-limit": b"[" * 5000}


@pytest.mark.parametrize("case", [
    "module-without-translate", "division-without-s", "operator-not-an-object",
    "short-translate", "top-level-number", "top-level-null",
    "two-entry-triangle", "module-is-a-list", "operators-is-a-list",
    "table-operator-with-list-table", "number-triangle", "number-sum-row",
    "list-zero", "number-division-s", "list-operator-kind",
    "radical-with-number-table", "not-utf8", "nested-past-recursion-limit",
    *_LAST_TRIANGLE, *_ERROR_LINES])
def test_cli_malformed_document_exits_2(models_dir, tmp_path, capsys, case):
    path = tmp_path / "malformed.json"
    if case in _UNREADABLE:
        path.write_bytes(_UNREADABLE[case])
    else:
        model = "support3" if case in _LAST_TRIANGLE else "support2"
        with open(model_path(models_dir, model)) as fh:
            path.write_text(json.dumps(_malformed(case, json.load(fh))))
    limit = ["--max-objects", "3"] if case == "over-max-objects" else []
    assert main(["validate", "--model", str(path), *limit]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in _LAST_TRIANGLE:
        assert err == "error: %s\n" % _LAST_TRIANGLE[case][1]
    if case in _ERROR_LINES:
        assert err == "error: %s\n" % _ERROR_LINES[case]


_DROP = object()  # an edit value that deletes its key

# Faults in a restrict2 document, which has both sections: the edits, each
# (section, key, new value), and the error line they must give.  The cases
# with two edits pin which fault the loader names first.
_MODULE_ERROR_LINES = {
    "module-without-action": ([("module", "action", _DROP)],
                              "module section missing 'action'"),
    "module-number-object-name": ([("module", "objects", ["z", 5])],
                                  "module object names must be strings"),
    "module-duplicate-object-name": ([("module", "objects", ["z", "z"])],
                                     "duplicate object names in module"),
    "module-short-translate": ([("module", "translate", ["z"])],
                               "module translate must be a list of 2 entries"),
    "module-two-entry-triangle": ([("module", "triangles", [["z", "z"]])],
                                  "module triangle ['z', 'z'] must have 3 entries"),
    "module-unknown-zero": ([("module", "zero", "nope")],
                            "unknown object name 'nope' in module"),
    "module-short-sum-row": ([("module", "sum", [["z"], ["m1", "m1"]])],
                             "module sum table row must be a list of 2 entries"),
    "short-action-row": ([("module", "action", [["z"]] + [["z", "z"]] * 3)],
                         "action table row must be a list of 2 entries"),
    "unknown-unit-and-short-sum-row": (
        [("category", "unit", "nope"), ("category", "sum", [["z"]] * 4)],
        "unknown object name 'nope' in category"),
    "module-unknown-zero-and-short-sum-row": (
        [("module", "zero", "nope"), ("module", "sum", [["z"], ["m1", "m1"]])],
        "unknown object name 'nope' in module"),
    "module-short-sum-row-and-short-action-row": (
        [("module", "sum", [["z"], ["m1", "m1"]]),
         ("module", "action", [["z"]] + [["z", "z"]] * 3)],
        "module sum table row must be a list of 2 entries"),
}


@pytest.mark.parametrize("case", _MODULE_ERROR_LINES)
def test_cli_module_document_error_lines(tmp_path, capsys, case):
    doc = normalize_document({"category": {}, "module": {}}, restriction_module(2, 1))
    edits, line = _MODULE_ERROR_LINES[case]
    for section, key, value in edits:
        if value is _DROP:
            del doc[section][key]
        else:
            doc[section][key] = value
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % line


def test_load_identity_kind_under_another_name(models_dir):
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    doc["operators"]["same"] = {"kind": "identity"}
    p, operators = load_document(doc)
    assert operators["same"] == ttg.operators.identity_operator(p)


def test_cli_generate(models_dir, tmp_path, capsys):
    out = tmp_path / "generate.json"
    path = model_path(models_dir, "support2")
    assert main(["generate", "--model", path, "--seed", "a,b", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "t" in printed and "stage 1" in printed
    # each member's order and step data by name: a delta record's triangle
    # and predecessors, a bar record's (a, m, cofactor)
    assert json.loads(out.read_text())["members"][3] == {
        "object": "t", "stage": 1, "via": "delta", "order": 3,
        "data": [["b", "t", "a"], "a", "b"]}
    assert main(["generate", "--model", path, "--seed", "t", "--out", str(out)]) == 0
    assert [(e["object"], e["via"], e["order"], e["data"])
            for e in json.loads(out.read_text())["members"]] == [
        ("z", "seed", 0, []), ("a", "bar", 2, ["a", "t", "z"]),
        ("b", "bar", 3, ["b", "t", "z"]), ("t", "seed", 1, [])]


def test_cli_generate_without_seed_gives_zero(models_dir, tmp_path, capsys):
    out = tmp_path / "generate.json"
    assert main(["generate", "--model", model_path(models_dir, "support2"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ("generated submodule (1 members):\n"
                                       "  z      stage 0 (seed)\n")
    data = json.loads(out.read_text())
    assert data["seed"] == []
    assert data["members"] == [{"object": "z", "stage": 0, "via": "seed",
                                "order": 0, "data": []}]


def test_cli_witness(models_dir, capsys):
    assert main(["witness", "--model", model_path(models_dir, "support2"),
                 "--seed", "a,b", "--target", "t"]) == 0
    assert "a,b" in capsys.readouterr().out


def test_cli_spectral(models_dir):
    assert main(["spectral", "--model", model_path(models_dir, "support2"),
                 "--operator", "identity"]) == 0
    assert main(["spectral", "--model", model_path(models_dir, "chain3"),
                 "--operator", "promote"]) == 0


@pytest.mark.parametrize("model,operator", [("chain3", "promote"),
                                            ("support2", "rad")])
def test_cli_operators(models_dir, tmp_path, model, operator):
    out = tmp_path / "operators.json"
    assert main(["operators", "--model", model_path(models_dir, model),
                 "--operator", operator, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True and data["operator"] == operator
    flags = data["flags"]
    assert flags["extensive"] and flags["order_preserving"]
    assert flags["finite_type"]
    # promote is not idempotent: it needs c-infinity to reach its fixed points
    assert flags["idempotent"] == (operator != "promote")
    assert data["witnesses"] == ([] if operator != "promote" else
                                 [["idempotent", [0, 1]]])


def test_cli_ultrafilter(models_dir, tmp_path):
    out = tmp_path / "ultrafilter.json"
    assert main(["ultrafilter", "--model", model_path(models_dir, "support2"),
                 "--operator", "div_a", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True and data["operator"] == "div_a"
    assert [p["point"] for p in data["points"]] == list(range(2))
    for point in data["points"]:
        assert all(point[k] is True for k in
                   ("thick", "fixed", "equals_point", "biconditional"))


def test_cli_gate_error_exits_1(glued, tmp_path, capsys):
    """Division by {a} on glued maps the point {z} to {z, b}, which is not
    thick, so monoid stops at the gate of c-infinity; spectral still reads
    the one fixed point, the whole module.  The report classifies div_a
    only, and ``operators`` names the point {z} for both false flags."""
    doc = normalize_document({"category": {}}, glued)
    doc["operators"] = {"div_a": {"kind": "division", "s": ["a"]}}
    path = str(tmp_path / "glued.json")
    save(doc, path)
    assert main(["monoid", "--model", path, "--operator", "div_a"]) == 1
    assert capsys.readouterr().err == (
        "check error: operator does not pass the gate: "
        "c-infinity requires SMod-valued\n")
    assert main(["spectral", "--model", path, "--operator", "div_a"]) == 0
    assert capsys.readouterr().out.startswith("fixed-point space: 1 points\n")
    out = str(tmp_path / "out.json")
    assert main(["report", "--model", path, "--out", out]) == 0
    with open(out) as fh:
        entry = json.load(fh)["checks"][2]
    assert entry == {"name": "operator:div_a", "gate": False, "passed": True,
                     "flags": {"extensive": True, "order_preserving": True,
                               "idempotent": False, "finite_type": True}}
    assert main(["operators", "--model", path, "--operator", "div_a",
                 "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh)["witnesses"] == [["smod_valued", [0]],
                                              ["idempotent", [0]]]


def test_cli_unknown_operator(models_dir):
    assert main(["spectral", "--model", model_path(models_dir, "support2"),
                 "--operator", "nope"]) == 2


def test_cli_monoid_with_dot(models_dir, tmp_path):
    dot = tmp_path / "monoid.dot"
    assert main(["monoid", "--model", model_path(models_dir, "chain3"),
                 "--operator", "promote", "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph") and "{z}" in text


def test_cli_smod_dot_hasse(models_dir, tmp_path):
    dot = tmp_path / "space.dot"
    assert main(["smod", "--model", model_path(models_dir, "support2"),
                 "--dot", str(dot)]) == 0
    text = dot.read_text()
    # Hasse diagram of the 4-point diamond: 4 cover edges
    assert text.count("->") == 4


def test_cli_spectral_dot_bytes(models_dir, tmp_path):
    dot = tmp_path / "spectral.dot"
    assert main(["spectral", "--model", model_path(models_dir, "chain3"),
                 "--operator", "promote", "--dot", str(dot)]) == 0
    assert dot.read_text() == (
        "digraph specialization {\n"
        "  rankdir=BT;\n"
        '  n0 [label="{z}"];\n'
        '  n1 [label="{z,p,q,r}"];\n'
        "  n0 -> n1;\n"
        "}\n")


def test_cli_dot_labels_escape_quote_and_backslash(tmp_path, capsys):
    names = ("z", 'a"x', "b\\", "t")
    p = self_module(support_model(2).base._replace(names=names))
    model = tmp_path / "odd.json"
    save(normalize_document({"category": {}}, p), str(model))
    texts = []
    for command in ("smod", "monoid"):
        dot = tmp_path / (command + ".dot")
        assert main([command, "--model", str(model), "--dot", str(dot)]) == 0
        texts.append(dot.read_text())
    assert '  {z,a"x}\n' in capsys.readouterr().out
    for text in texts:
        assert '  n1 [label="{z,a\\"x}"];\n' in text
        assert '  n2 [label="{z,b\\\\}"];\n' in text


@pytest.mark.parametrize("command", ["smod", "spectral", "monoid"])
def test_cli_builds_no_dot_text_without_dot(models_dir, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("DOT text built without --dot")

    for module in (ttg.cli, ttg.docio):
        monkeypatch.setattr(module, "specialization_dot", refuse)
        monkeypatch.setattr(module, "monoid_dot", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--model", model_path(models_dir, "chain3")]) == 0


def test_cli_report_structured_output(models_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", "--model", model_path(models_dir, "support2"),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "operator:identity" in names and "operator:saturate" in names


PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# Every CLI job of the benchmark as perfbench/run.py runs it:
# (job id, subcommand, model, --operator, --max-objects).
GOLDEN_JOBS = [
    ("report/support2", "report", "support2", None, None),
    ("report/support3", "report", "support3", None, None),
    ("report/chain3", "report", "chain3", None, None),
    ("monoid/chain10/identity", "monoid", "chain10", "identity", None),
    ("monoid/support4/div_ab", "monoid", "support4", "div_ab", None),
    ("spectral/lattice24/identity", "spectral", "lattice24", "identity", 24),
]


def _golden():
    with open(os.path.join(PERFBENCH, "golden.json")) as fh:
        return json.load(fh)


def _benchmark_generators():
    # run_path compiles in memory and leaves no bytecode in perfbench/
    return runpy.run_path(os.path.join(PERFBENCH, "inputs.py"))["GENERATORS"]


def test_golden_jobs_cover_the_benchmark():
    assert sorted(job[0] for job in GOLDEN_JOBS) == sorted(_golden()["jobs"])


@pytest.mark.parametrize("job", GOLDEN_JOBS, ids=[
    job[2] if job[1] == "report" else job[0] for job in GOLDEN_JOBS])
def test_cli_report_bytes_match_benchmark_golden(models_dir, tmp_path, job):
    """``--out`` of each benchmark job is byte-identical to the report whose
    sha256 the benchmark's golden file records.  Stress inputs are built
    into tmp_path and must match their recorded digests."""
    job_id, command, model, operator, max_objects = job
    golden = _golden()
    generators = _benchmark_generators()
    if model in generators:
        doc = generators[model]()
        assert model_digest(doc) == golden["models"][model]
        path = str(tmp_path / (model + ".json"))
        save(doc, path)
    else:
        path = model_path(models_dir, model)
    argv = [command, "--model", path, "--out", str(tmp_path / "out.json")]
    if operator:
        argv += ["--operator", operator]
    if max_objects:
        argv += ["--max-objects", str(max_objects)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == golden["jobs"][job_id]["rc"]
    digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
    assert digest == golden["jobs"][job_id]["out_sha256"]


# sha256 of ``ttg report --max-objects 64 --out`` on two 64-object models
# built like CI's stress models; CI checks support_model(7) and (8) too.
SCALE_REPORTS = {
    "support6": (lambda: support_model(6, bound=6),
                 "9246eb1c1cf448f94c9c8a760edf08a9e108db0d128a7a67702118fe3e050d5f"),
    "graded3": (lambda: graded_support_model(3),
                "9694c4fcdc7510cadd733a905767e46ccb5e82652c5dd0f2343c3569fff1c8c6"),
}


@pytest.mark.parametrize("name", sorted(SCALE_REPORTS))
def test_cli_report_bytes_at_64_objects(tmp_path, name):
    build, sha256 = SCALE_REPORTS[name]
    path = str(tmp_path / "model.json")
    save(normalize_document({"category": {}}, build()), path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--max-objects", "64", "--model", path,
                     "--out", str(tmp_path / "out.json")]) == 0
    assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == sha256


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.text(max_size=3),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=4)
OPERATOR_COMMANDS = ("operators", "spectral", "ultrafilter", "monoid")
SUBCOMMANDS = ("validate", "generate", "witness", "smod", "report") + OPERATOR_COMMANDS


def _slots(node):
    """Every (container, key) pair at or below the container ``node``."""
    for key, child in list(node.items() if isinstance(node, dict)
                           else enumerate(node)):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["support2", "support3", "chain3"]), data=st.data())
def test_cli_never_raises_on_mutated_documents(models_dir, name, data):
    """Up to three random edits (replace, delete or insert a value at a
    random path) of a shipped document, then a random subcommand: the CLI
    returns an exit code and raises nothing."""
    with open(model_path(models_dir, name)) as fh:
        doc = json.load(fh)
    objects = doc["category"]["objects"][:]
    operators = ["identity"] + sorted(doc.get("operators", {}))
    values = JSON_VALUES | st.sampled_from(objects)
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if edit == "delete":
            del node[key]
        elif edit == "replace":
            node[key] = data.draw(values)
        elif isinstance(node, list):
            node.insert(key, data.draw(values))
        else:
            node[data.draw(st.text(max_size=8))] = data.draw(values)
    command = data.draw(st.sampled_from(SUBCOMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, "--model", path]
        if command in ("generate", "witness"):
            argv += ["--seed", data.draw(st.sampled_from(objects))]
        if command == "witness":
            argv += ["--target", data.draw(st.sampled_from(objects))]
        if command in OPERATOR_COMMANDS:
            argv += ["--operator", data.draw(st.sampled_from(operators))]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2)
