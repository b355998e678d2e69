from dataclasses import replace

import pytest

from ttg import (chain_model, generate, is_thick, self_module, summands,
                 support_model, validate)
from ttg.cli import main
from ttg.docio import normalize_document, save
from ttg.presentation import ResourceError, StructuralError, rotation_closure


def test_support_model_validates(support2, support3):
    assert validate(support2).ok
    assert validate(support3).ok


def test_chain_model_validates(chain3):
    assert validate(chain3).ok


def _split_probe():
    """support_model(2) with its triangles cut to the rotations of the
    (x, x, 0) triangles, so no split triangle (x, x + y, y) is stored."""
    cat = support_model(2).base
    kept = rotation_closure({(x, x, cat.zero) for x in range(cat.n_objects)},
                            cat.translate)
    return self_module(replace(cat, triangles=kept))


def test_validate_requires_split_triangles(tmp_path):
    z, a, b, t = range(4)
    p = _split_probe()
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
    assert any(v.rule in ("triangle-rotation", "triangle-contraction")
               for v in report.violations)


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
