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


def test_digest_stability(models_dir):
    _, _, doc = load(model_path(models_dir, "support2"))
    assert model_digest(doc) == model_digest(json.loads(dump_document(doc)))


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


def _malformed(case, doc):
    """``doc`` edited so that loading it reads one ill-shaped value."""
    cat, ops = doc["category"], doc["operators"]
    if case == "module-without-translate":
        doc["module"] = {key: cat[key]
                         for key in ("objects", "zero", "sum", "triangles")}
        doc["module"]["action"] = cat["tensor"]
    elif case == "division-without-s":
        ops["bad"] = {"kind": "division"}
    elif case == "operator-not-an-object":
        ops["bad"] = 5
    elif case == "short-translate":
        cat["translate"].pop()
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
    else:
        return {"top-level-number": 5, "top-level-null": None}[case]
    return doc


# Files that are not a JSON document json.load can return.
_UNREADABLE = {"not-utf8": b"\xff\xfe{}", "nested-past-recursion-limit": b"[" * 5000}


@pytest.mark.parametrize("case", [
    "module-without-translate", "division-without-s", "operator-not-an-object",
    "short-translate", "top-level-number", "top-level-null",
    "two-entry-triangle", "module-is-a-list", "operators-is-a-list",
    "table-operator-with-list-table", "number-triangle", "number-sum-row",
    "list-zero", "number-division-s", "list-operator-kind",
    "radical-with-number-table", "not-utf8", "nested-past-recursion-limit"])
def test_cli_malformed_document_exits_2(models_dir, tmp_path, capsys, case):
    path = tmp_path / "malformed.json"
    if case in _UNREADABLE:
        path.write_bytes(_UNREADABLE[case])
    else:
        with open(model_path(models_dir, "support2")) as fh:
            path.write_text(json.dumps(_malformed(case, json.load(fh))))
    assert main(["validate", "--model", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_generate(models_dir, capsys):
    assert main(["generate", "--model", model_path(models_dir, "support2"),
                 "--seed", "a,b"]) == 0
    out = capsys.readouterr().out
    assert "t" in out and "stage 1" in out


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
