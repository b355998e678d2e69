import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttg import support_model
from ttg.cli import main
from ttg.docio import (DocumentError, ModelInvalidError, dump_document, load,
                       load_document, model_digest, normalize_document)


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


def test_cli_validate_and_exit_codes(models_dir, tmp_path):
    assert main(["validate", "--model", model_path(models_dir, "support2")]) == 0
    assert main(["validate", "--model", str(tmp_path / "missing.json")]) == 2

    broken = tmp_path / "broken.json"
    with open(model_path(models_dir, "support2")) as fh:
        doc = json.load(fh)
    doc["category"]["sum"][1][0] = "b"
    broken.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(broken)]) == 1

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["validate", "--model", str(garbage)]) == 2


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


@pytest.mark.parametrize("case", [
    "module-without-translate", "division-without-s", "operator-not-an-object",
    "short-translate", "top-level-number", "top-level-null",
    "two-entry-triangle", "module-is-a-list", "operators-is-a-list",
    "table-operator-with-list-table", "number-triangle", "number-sum-row",
    "list-zero", "number-division-s", "list-operator-kind",
    "radical-with-number-table"])
def test_cli_malformed_document_exits_2(models_dir, tmp_path, capsys, case):
    with open(model_path(models_dir, "support2")) as fh:
        doc = _malformed(case, json.load(fh))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
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


def test_cli_report_structured_output(models_dir, tmp_path):
    out = tmp_path / "report.json"
    assert main(["report", "--model", model_path(models_dir, "support2"),
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert "operator:identity" in names and "operator:saturate" in names


@pytest.mark.parametrize("name", ["support2", "support3", "chain3"])
def test_cli_report_bytes_match_benchmark_golden(models_dir, tmp_path, name):
    """``ttg report --out`` on a shipped model is byte-identical to the
    report whose sha256 the benchmark's golden file records."""
    with open(os.path.join(models_dir, "..", "perfbench", "golden.json")) as fh:
        golden = json.load(fh)["jobs"]["report/" + name]
    out = tmp_path / "report.json"
    assert main(["report", "--model", model_path(models_dir, name),
                 "--out", str(out)]) == golden["rc"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["out_sha256"]


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
