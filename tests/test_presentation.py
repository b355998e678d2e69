import random
from dataclasses import replace

import pytest

from ttg import (chain_model, enumerate_smod, generate, is_thick, self_module,
                 summands, support_model, validate)
from ttg.cli import main
from ttg.docio import load, normalize_document, save
from ttg.presentation import (ResourceError, StructuralError, ValidationReport,
                              _validate_category, _validate_module)

from oracles import brute_thick_sets


def test_support_model_validates(support2, support3):
    assert validate(support2).ok
    assert validate(support3).ok


def test_chain_model_validates(chain3):
    assert validate(chain3).ok


def test_downset_lattice_validates(downsets):
    assert validate(downsets).ok


def test_validate_requires_split_triangles(split_probe, tmp_path):
    z, a, b, t = range(4)
    p = split_probe
    # without the rule the closure of {a, b} misses a + b = t
    assert not is_thick(p, generate(p, {a, b})[0])
    split = [v.witness for v in validate(p).violations
             if v.rule == "triangle-split"]
    assert (a, t, b) in split
    for x, s, y in split:
        assert p.sum[x][y] == s and (x, s, y) not in p.triangles
    path = tmp_path / "probe.json"
    save(normalize_document({"category": {}}, p), str(path))
    assert main(["validate", "--model", str(path)]) == 1


def test_each_violation_listed_once(split_probe):
    # K acting on itself is checked once, not once more as its module, and
    # a missing (x, x, 0) is only the split triangle with y = 0
    violations = validate(split_probe).violations
    assert len(violations) == len(set(violations))
    assert len([v for v in violations if v.rule == "triangle-split"]) == 9


def _set_cell(table, i, j, value):
    rows = [list(row) for row in table]
    rows[i][j] = value
    return tuple(map(tuple, rows))


def _one_cell_mutation(rng, cat):
    """cat with one sum or tensor cell, translate entry, zero, unit or
    triangle changed."""
    n = cat.n_objects
    kind = rng.choice(["sum", "tensor", "translate", "zero", "unit", "drop", "add"])
    if kind in ("sum", "tensor"):
        table = getattr(cat, kind)
        cell = _set_cell(table, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        return replace(cat, **{kind: cell})
    if kind == "translate":
        translate = list(cat.translate)
        i, j = rng.randrange(n), rng.randrange(n)
        translate[i], translate[j] = translate[j], translate[i]
        return replace(cat, translate=tuple(translate))
    if kind in ("zero", "unit"):
        return replace(cat, **{kind: rng.randrange(n)})
    if kind == "drop":
        dropped = rng.choice(sorted(cat.triangles))
        return replace(cat, triangles=cat.triangles - {dropped})
    return replace(cat, triangles=cat.triangles
                   | {tuple(rng.randrange(n) for _ in range(3))})


# The category rules each module rule restates when K acts on itself.
_RESTATES = {
    "module-sum-commutative": {"sum-commutative"},
    "module-sum-unit": {"sum-unit"},
    "module-sum-associative": {"sum-associative"},
    "action-unit": {"tensor-unit", "tensor-commutative"},
    "action-zero-left": {"tensor-zero", "tensor-commutative"},
    "action-zero-right": {"tensor-zero"},
    "action-associative": {"tensor-associative"},
    "action-distributive-right": {"tensor-distributive"},
    "action-distributive-left": {"tensor-distributive", "tensor-commutative"},
    "triangle-rotation": {"triangle-rotation"},
    "triangle-split": {"triangle-split"},
}


def test_self_module_checks_follow_from_category(support2, chain3, support3):
    # the derivation in validate's docstring: on K acting on itself every
    # module violation restates a category one, so once the category
    # passes the module checks find nothing
    rng = random.Random(11)
    passed = 0
    for i in range(600):
        cat = _one_cell_mutation(rng, (support2, chain3, support3)[i % 3].base)
        report, module_report = ValidationReport(), ValidationReport()
        try:
            _validate_category(cat, report)
        except StructuralError:
            continue
        _validate_module(self_module(cat), module_report)
        rules = {v.rule for v in report.violations}
        for v in module_report.violations:
            assert _RESTATES[v.rule] & rules, (v, rules)
        passed += report.ok
    assert passed >= 50


def test_genuine_module_validates_and_round_trips(restrict2, tmp_path):
    assert restrict2 != self_module(restrict2.base)
    assert validate(restrict2).ok
    path = tmp_path / "restrict2.json"
    save(normalize_document({"category": {}, "module": {}}, restrict2), str(path))
    assert main(["validate", "--model", str(path)]) == 0
    assert load(str(path))[0] == restrict2
    assert list(enumerate_smod(restrict2).points) == brute_thick_sets(restrict2)


def test_genuine_module_edits_reported(restrict2):
    action = _set_cell(restrict2.action, restrict2.base.unit, 1, 0)  # 1 * m1 = z
    rules = {v.rule for v in validate(replace(restrict2, action=action)).violations}
    assert any(rule.startswith("action-") for rule in rules)
    bad_sum = _set_cell(restrict2.sum, 1, 0, 0)  # m1 + z = z
    rules = {v.rule for v in validate(replace(restrict2, sum=bad_sum)).violations}
    assert any(rule.startswith("module-sum-") for rule in rules)


def test_support_model_sizes():
    assert support_model(1).n_objects == 2
    assert support_model(2).n_objects == 4
    assert support_model(3).n_objects == 8


def test_chain_model_names(chain3):
    assert chain3.names == ("z", "p", "q", "r")


def test_chain1_is_support1_up_to_renaming():
    c = chain_model(1)
    s = support_model(1)
    assert c.sum == s.sum
    assert c.action == s.action
    assert c.triangles == s.triangles
    assert (c.zero, c.base.unit) == (s.zero, s.base.unit)


def test_size_bound():
    with pytest.raises(ResourceError):
        support_model(6)
    with pytest.raises(ResourceError):
        chain_model(99)
    with pytest.raises(ResourceError):
        support_model(0)


def test_broken_sum_unit_reported(support2):
    bad_sum = [list(row) for row in support2.sum]
    bad_sum[1][0] = 2  # a + z should be a
    cat = replace(support2.base, sum=tuple(tuple(r) for r in bad_sum))
    bad = replace(self_module(cat))
    report = validate(bad)
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "sum-unit" in rules or "module-sum-unit" in rules
    witnessed = [v for v in report.violations if "sum-unit" in v.rule]
    assert any(1 in v.witness for v in witnessed)


def test_missing_rotation_reported(support2):
    dropped = next(iter(support2.triangles))
    cat = replace(support2.base, triangles=support2.triangles - {dropped})
    bad = self_module(cat)
    report = validate(bad)
    assert not report.ok
    assert any(v.rule == "triangle-rotation" for v in report.violations)


def test_malformed_table_is_structural(support2):
    cat = replace(support2.base, sum=support2.sum[:-1])
    with pytest.raises(StructuralError):
        validate(self_module(cat))


def test_summands_support2(support2):
    z, a, b, t = range(4)
    assert summands(support2, t) == {z, a, b, t}
    assert summands(support2, z) == {z}
    assert summands(support2, a) == {z, a}


def test_summands_chain3(chain3):
    z, p, q, r = range(4)
    assert summands(chain3, q) == {z, p, q}


def test_summands_relation_properties(support3):
    n = support3.n_objects
    rel = {(x, y) for y in range(n) for x in summands(support3, y)}
    for x in range(n):
        assert (x, x) in rel
        assert (support3.zero, x) in rel
    for (x, y) in rel:
        for (y2, w) in rel:
            if y == y2:
                assert (x, w) in rel


def test_triangles_rotation_closed(support2, chain3):
    for p in (support2, chain3):
        for (x, y, z) in p.triangles:
            assert (y, z, p.translate[x]) in p.triangles
