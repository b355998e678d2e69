import random

import pytest

from ttg import (chain_model, enumerate_smod, generate, identity_operator,
                 is_thick, monoid_report, self_module, support_model, validate)
from ttg.cli import main
from ttg.docio import load, normalize_document, save
from ttg.presentation import (ResourceError, StructuralError, ValidationReport,
                              _acts, _generators, _validate_category,
                              _validate_module, _validate_section,
                              rotation_closure)
from ttg.thick import _closure

from conftest import restriction_module, summands
from oracles import (basis_by_definition, brute_thick_sets,
                     principals_by_worklist, validate_by_scan)


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


def test_triangle_split_guards_the_derived_verdicts(split_probe):
    """split_probe with the rotations of (a, z, b): the principal table
    reaches b from a but, missing the split triangle (a, t, b), never t.
    Each derivation that cites ``triangle-split`` then fails, so the rule
    is what makes them hold."""
    z, a, b, t = range(4)
    cat = split_probe.base
    p = self_module(cat._replace(triangles=cat.triangles | rotation_closure(
        {(a, z, b)}, cat.translate)))
    violations = validate(p).violations
    assert len(violations) == 9
    assert {v.rule for v in violations} == {"triangle-split"}
    assert p.principals[a] == {z, a, b}
    check = is_thick(p, p.principals[a])
    assert (check.condition, check.witness) == ("sum", (a, b, t))
    verdicts = basis_by_definition(p, enumerate_smod(p))
    assert verdicts[2] is False and ("sum", (a, b)) in verdicts[5]
    assert _closure(p, {a, b}) == {z, a, b, t}
    assert generate(p, {a, b})[0] == {z, a, b}


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
        return cat._replace(**{kind: cell})
    if kind == "translate":
        translate = list(cat.translate)
        i, j = rng.randrange(n), rng.randrange(n)
        translate[i], translate[j] = translate[j], translate[i]
        return cat._replace(translate=tuple(translate))
    if kind in ("zero", "unit"):
        return cat._replace(**{kind: rng.randrange(n)})
    if kind == "drop":
        dropped = rng.choice(sorted(cat.triangles))
        return cat._replace(triangles=cat.triangles - {dropped})
    return cat._replace(triangles=cat.triangles
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
    rules = {v.rule for v in validate(restrict2._replace(action=action)).violations}
    assert any(rule.startswith("action-") for rule in rules)
    bad_sum = _set_cell(restrict2.sum, 1, 0, 0)  # m1 + z = z
    rules = {v.rule for v in validate(restrict2._replace(sum=bad_sum)).violations}
    assert any(rule.startswith("module-sum-") for rule in rules)


def _sum_closure(sum_table, gens):
    reached = set(gens)
    while True:
        more = {sum_table[x][y] for x in reached for y in reached} - reached
        if not more:
            return reached
        reached |= more


def test_generators_generate_every_object(support2, support3, chain3, downsets,
                                          graded2, restrict2, split_probe, glued):
    rng = random.Random(5)
    fixtures = (support2, support3, chain3, support_model(4), downsets, graded2,
                restrict2, split_probe, glued)
    tables = [sec.sum for p in fixtures for sec in (p.base, p)]
    # edited sums, whose indecomposables need not generate
    tables += [_set_cell(p.sum, rng.randrange(p.n_objects), rng.randrange(p.n_objects),
                         rng.randrange(p.n_objects))
               for p in (support2, chain3, support3) * 100]
    for table in tables:
        assert _sum_closure(table, _generators(table)) == set(range(len(table)))
    support5 = support_model(5)
    assert ([support5.names[g] for g in _generators(support5.sum)]
            == ["z", "a", "b", "c", "d", "e"])
    # Z/3: 0 = 1 + 2, 1 = 2 + 2 and 2 = 1 + 1, so no element is
    # indecomposable and the least unreached ids 0 and 1 are added
    z3 = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    assert _generators(z3) == [0, 1]


def test_valid_models_pass_the_checks_over_generators(
        support2, support3, chain3, downsets, graded2, restrict2, glued):
    # a check over G that failed on a valid model would cost the full scan
    # without changing any report
    for p in (support2, support3, chain3, support_model(4), downsets, graded2,
              restrict2, restriction_module(3, 2), glued):
        report = ValidationReport()
        base_gens = _validate_category(p.base, report)
        assert base_gens == _generators(p.base.sum) and report.ok
        gens = _validate_section(p, report, "module")
        assert gens == _generators(p.sum) and _acts(p, base_gens, gens)


def _matches_scan(p):
    """validate(p) lists the oracle's violations, or raises its error."""
    try:
        expected = validate_by_scan(p)
    except StructuralError as exc:
        with pytest.raises(StructuralError) as raised:
            validate(p)
        assert str(raised.value) == str(exc)
        return None
    assert validate(p).violations == expected
    return expected


def test_validate_matches_scan(support2, support3, chain3, downsets, graded2,
                              restrict2, split_probe, glued):
    # validate checks the cubic axioms over generators and scans only after
    # a failure; every report must equal the full scan's, witness for witness
    for p in (support2, support3, chain3, support_model(4), downsets, graded2,
              restrict2, split_probe, glued):
        assert _matches_scan(p) == ([] if p is not split_probe else
                                    validate_by_scan(split_probe))
    rng = random.Random(13)
    outcomes = []
    for i in range(1500):
        cat = _one_cell_mutation(rng, (support2, chain3, support3)[i % 3].base)
        violations = _matches_scan(self_module(cat))
        outcomes.append(violations)
        # Light's test decides sum associativity exactly
        assert (_validate_section(cat, ValidationReport(), "category") is not None) == (
            "sum-associative" not in {v[0] for v in violations})
    restrict3 = restriction_module(3, 2)
    for i in range(900):
        p = (restrict2, restrict3)[i % 2]
        if i % 3 == 2:  # a broken base: the action checks lose their premises
            p = p._replace(base=_one_cell_mutation(rng, p.base))
        elif rng.random() < 0.5:
            action = _set_cell(p.action, rng.randrange(p.base.n_objects),
                               rng.randrange(p.n_objects), rng.randrange(p.n_objects))
            p = p._replace(action=action)
        else:
            p = p._replace(sum=_set_cell(p.sum, rng.randrange(p.n_objects),
                                         rng.randrange(p.n_objects),
                                         rng.randrange(p.n_objects)))
        outcomes.append(_matches_scan(p))
    cat = support2.base
    malformed = [self_module(cat._replace(triangles=cat.triangles | {t}))
                 for t in ((0, 1), (0, 1, 2, 3), (3, 1, 4), (3, -1, 1), (3, 1.5, 3),
                           (3, "a", 3))]
    malformed += [self_module(cat._replace(tensor=_set_cell(cat.tensor, 1, 2, 4))),
                  self_module(cat._replace(unit=4)),
                  restrict2._replace(zero=2), restrict2._replace(action=restrict2.action[:3]),
                  restrict2._replace(sum=_set_cell(restrict2.sum, 0, 1, 2))]
    assert [_matches_scan(p) for p in malformed] == [None] * len(malformed)
    # an entry that is an int but not of type int is read as its value
    assert (0, 1, 3) not in cat.triangles
    assert _matches_scan(self_module(cat._replace(triangles=cat.triangles
                                                  | {(0, True, 3)})))
    # b * m3 = z and t * m3 = m1 on the subsets of two atoms: only the
    # action's distributivity over M's sum fails among the cubic rules
    square = restriction_module(2, 2)
    action = _set_cell(_set_cell(square.action, 2, 3, 0), 3, 3, 1)
    outcomes.append(_matches_scan(square._replace(action=action)))
    assert {v[0] for v in outcomes[-1]} == {
        "action-distributive-right", "action-unit", "translation-compatibility"}
    # the cases reach passes and failures of each cubic rule
    rules = {v[0] for violations in outcomes if violations for v in violations}
    assert [] in outcomes
    assert {"sum-associative", "tensor-associative", "tensor-distributive",
            "module-sum-associative", "action-associative",
            "action-distributive-left", "action-distributive-right"} <= rules


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
    with pytest.raises(ResourceError):
        chain_model(0)


def test_broken_sum_unit_reported(support2):
    bad_sum = [list(row) for row in support2.sum]
    bad_sum[1][0] = 2  # a + z should be a
    cat = support2.base._replace(sum=tuple(tuple(r) for r in bad_sum))
    bad = self_module(cat)
    report = validate(bad)
    assert not report.ok
    rules = {v.rule for v in report.violations}
    assert "sum-unit" in rules or "module-sum-unit" in rules
    witnessed = [v for v in report.violations if "sum-unit" in v.rule]
    assert any(1 in v.witness for v in witnessed)


def test_missing_rotation_reported(support2):
    dropped = next(iter(support2.triangles))
    cat = support2.base._replace(triangles=support2.triangles - {dropped})
    bad = self_module(cat)
    report = validate(bad)
    assert not report.ok
    assert any(v.rule == "triangle-rotation" for v in report.violations)


def test_malformed_table_is_structural(support2):
    cat = support2.base._replace(sum=support2.sum[:-1])
    with pytest.raises(StructuralError):
        validate(self_module(cat))
    short_row = (support2.sum[0], support2.sum[1][:-1], *support2.sum[2:])
    with pytest.raises(StructuralError) as raised:
        validate(self_module(support2.base._replace(sum=short_row)))
    assert str(raised.value) == "category sum table row 1 has 3 entries, expected 4"


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


def test_fields_are_read_only(support2):
    c = identity_operator(support2)
    records = [(support2, "names"), (support2, "principals"),
               (support2.base, "sum"), (c, "repair"), (c, "point_values"),
               (c, "completion"),
               (enumerate_smod(support2), "points"),
               (monoid_report(c), "identity")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # Every verdict on c is read from its point table, so no entry of it
    # may change: one assignment here used to drop a fixed point.
    z, a = 0, 1
    with pytest.raises(TypeError):
        c.point_values[frozenset({z})] = frozenset({z, a})
    assert c.point_values[frozenset({z})] == frozenset({z})


def test_replace_starts_without_cached_tables():
    z, a, b, t = range(4)
    p = support_model(2)
    p.principals
    q = p._replace(triangles=p.triangles | rotation_closure({(a, z, b)},
                                                            p.translate))
    assert "principals" in vars(p) and vars(q) == {}
    assert q.principals == principals_by_worklist(q) != p.principals
