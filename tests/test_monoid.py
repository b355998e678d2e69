import os
import random
from time import perf_counter

import pytest

from ttg import (add, all_submodules, classify, continuity_check,
                 enumerate_smod, fixed_points, from_family, identity_element,
                 identity_operator, monoid_op, monoid_report, nc_set,
                 support_model, table_operator)
from ttg.docio import load
from ttg.monoid import MonoidError
from ttg.presentation import UnknownObjectError

from oracles import jointly_continuous, monoid_op_by_definition


def test_monoid_op_identity_operator(support2):
    z, a, b, t = range(4)
    c = identity_operator(support2)
    assert monoid_op(c, frozenset({z, a}), frozenset({z, b})) == {z, a, b, t}


def test_monoid_op_promote(chain3, promote):
    full = frozenset(range(4))
    assert monoid_op(promote, frozenset({0}), full) == full


def test_monoid_op_rejects_non_fixed(chain3, promote):
    with pytest.raises(MonoidError):
        monoid_op(promote, frozenset({0, 1}), frozenset({0}))


def test_identity_element_examples(support2, chain3, promote):
    assert identity_element(identity_operator(support2)) == {0}
    assert identity_element(promote) == {0}
    fam = from_family(support2, [frozenset({0}), frozenset(range(4))])
    assert identity_element(fam) == {0}


def test_neutrality(support2):
    c = identity_operator(support2)
    e = identity_element(c)
    for N in fixed_points(enumerate_smod(support2), c).points:
        assert monoid_op(c, N, e) == N


def test_nc_set_examples(support2, chain3, promote):
    z, a, b, t = range(4)
    c = identity_operator(support2)
    assert nc_set(c, frozenset({z, a}), t) == {b, t}
    # m already in N: every object works, including zero
    assert nc_set(c, frozenset({z, a}), a) == frozenset(range(4))
    assert nc_set(promote, frozenset({0}), 3) == {1, 2, 3}


def test_continuity_identity(support2):
    c = identity_operator(support2)
    rep = continuity_check(c, frozenset({0, 1}))
    assert rep.passed
    # m = zero: both sides are the whole space
    entry = rep.entries[support2.zero]
    npts = len(fixed_points(enumerate_smod(support2), c).points)
    assert entry[2] == tuple(range(npts)) and entry[3] == tuple(range(npts))


def test_continuity_promote(chain3, promote):
    rep = continuity_check(promote, frozenset({0}))
    assert rep.passed


def test_monoid_report_identity(support2):
    rep = monoid_report(identity_operator(support2))
    assert rep.passed
    assert len(rep.space.points) == 4
    # join-semilattice: operation is idempotent and the table is the join
    assert rep.idempotent
    for i, N in enumerate(rep.space.points):
        for j, N2 in enumerate(rep.space.points):
            joined = rep.space.points[rep.op_table[i][j]]
            assert N | N2 <= joined


def test_monoid_report_trivial_space(support2):
    # constant-full table operator leaves a single point
    from ttg import table_operator
    full = frozenset(range(4))
    c = table_operator(support2, {m: full for m in range(4)})
    rep = monoid_report(c)
    assert rep.passed
    assert len(rep.space.points) == 1


def test_monoid_report_promote(chain3, promote):
    rep = monoid_report(promote)
    assert rep.passed
    assert len(rep.space.points) == 2
    assert rep.op_table == ((0, 1), (1, 1))
    assert rep.identity == 0


def test_monoid_operation_idempotent(chain3, promote):
    rep = monoid_report(promote)
    assert rep.idempotent


@pytest.mark.parametrize("bad", [99, -1, "a", 1.0])
def test_monoid_entry_points_reject_unknown_ids(support2, bad):
    c = identity_operator(support2)
    full = frozenset(range(4))
    with pytest.raises(UnknownObjectError):
        nc_set(c, full, bad)
    with pytest.raises(UnknownObjectError):
        nc_set(c, {bad}, 0)
    with pytest.raises(UnknownObjectError):
        monoid_op(c, {bad}, full)
    with pytest.raises(UnknownObjectError):
        monoid_op(c, full, {bad})
    with pytest.raises(UnknownObjectError):
        continuity_check(c, {bad})
    with pytest.raises(UnknownObjectError):
        c.apply({bad})
    with pytest.raises(UnknownObjectError):
        add(support2, {bad}, full)


def test_table_operator_repairs_raw_union(support2):
    z, a, b, t = range(4)
    full = frozenset(range(4))
    c = table_operator(support2, {z: {z}, a: {z, a}, b: {z, b}, t: full})
    # the raw union {z, a, b} is not thick: a + b = t is missing
    assert c.apply({z, a, b}) == full
    with pytest.raises(MonoidError):
        monoid_op(c, {z, a, b}, {z})


def _random_table_operators(p, rng, count):
    subs = all_submodules(p)
    for _ in range(count):
        yield table_operator(p, {m: rng.choice([N for N in subs if m in N])
                                 for m in range(p.n_objects)})


def _shipped_operators(models_dir):
    """Identity and every named operator of the three shipped models."""
    cases = []
    for name in ("support2", "support3", "chain3"):
        p, operators, _ = load(os.path.join(models_dir, name + ".json"))
        cases += [identity_operator(p)] + [operators[k] for k in sorted(operators)]
    return cases


def test_monoid_matches_definition(models_dir, support2, support3, chain3,
                                   graded2):
    cases = _shipped_operators(models_dir)
    cases += [identity_operator(support_model(4)), identity_operator(graded2)]
    # on support3 most random tables need the thick-closure repair
    rng = random.Random(7)
    for p in (support2, chain3, support3):
        cases += _random_table_operators(p, rng, 20)
    gated = [c for c in cases if classify(c.presentation, c).gate]
    assert len(gated) > 30
    for c in gated:
        p = c.presentation
        rep = monoid_report(c)
        points = fixed_points(enumerate_smod(p), c).points
        assert rep.space.points == points
        least = [i for i, N in enumerate(points) if all(N <= M for M in points)]
        assert [rep.identity] == least
        for i, N in enumerate(points):
            images = [monoid_op_by_definition(c, N, N2) for N2 in points]
            for j, N2 in enumerate(points):
                assert monoid_op(c, N, N2) == images[j]
                assert rep.op_table[i][j] == points.index(images[j])
            joins = [monoid_op_by_definition(c, N, {m2})
                     for m2 in range(p.n_objects)]
            entries = []
            for m in range(p.n_objects):
                reach = {m2 for m2, J in enumerate(joins) if m in J}
                assert nc_set(c, N, m) == reach
                preimage = tuple(k for k, image in enumerate(images)
                                 if m in image)
                cover = tuple(k for k, M in enumerate(points) if reach & M)
                entries.append((m, preimage == cover, preimage, cover))
            assert continuity_check(c, N).entries == tuple(entries)
    assert monoid_report(identity_operator(graded2)).passed


def test_continuous_flag_matches_joint_continuity_oracle(
        models_dir, support2, support3, chain3):
    """Separate continuity of the translations, which monoid_report checks,
    agrees with continuity on the product space."""
    cases = _shipped_operators(models_dir)
    rng = random.Random(13)
    for p in (support2, chain3, support3):
        cases += _random_table_operators(p, rng, 20)
    reports = [monoid_report(c) for c in cases if classify(c.presentation, c).gate]
    assert len(reports) > 30
    for rep in reports:
        assert rep.closed
        assert rep.continuous == jointly_continuous(rep.space, rep.op_table)
    # the oracle does reject a map: reversing the first argument of the
    # identity's join on support2 turns inclusion around
    rep = monoid_report(identity_operator(support2))
    assert not jointly_continuous(rep.space, rep.op_table[::-1])


def test_monoid_support5_finishes():
    c = identity_operator(support_model(5))
    started = perf_counter()
    rep = monoid_report(c)
    assert perf_counter() - started < 2
    assert rep.passed and len(rep.space.points) == 32
