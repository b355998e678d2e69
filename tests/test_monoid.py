import os
import random
from time import perf_counter

import pytest

from ttg import (all_submodules, chain_model, classify, division,
                 enumerate_smod, fixed_points, from_family, generate,
                 identity_operator, monoid_report, radical, support_model,
                 table_operator)
from ttg.docio import load
from ttg.presentation import UnknownObjectError

from conftest import graded_support_model, restriction_module
from oracles import (continuity_check, jointly_continuous,
                     monoid_by_definition, monoid_op_by_definition, nc_set,
                     op_table_by_join)


def _join(rep, N, N2):
    """The point in ``rep``'s cell for the points N and N2."""
    points = rep.space.points
    return points[rep.op_table[points.index(N)][points.index(N2)]]


def test_monoid_op_identity_operator(support2):
    z, a, b, t = range(4)
    c = identity_operator(support2)
    N, N2 = frozenset({z, a}), frozenset({z, b})
    assert _join(monoid_report(c), N, N2) == {z, a, b, t}
    assert monoid_op_by_definition(c, N, N2) == {z, a, b, t}


def test_monoid_op_promote(chain3, promote):
    full = frozenset(range(4))
    assert _join(monoid_report(promote), frozenset({0}), full) == full
    assert monoid_op_by_definition(promote, frozenset({0}), full) == full


def test_identity_element_examples(support2, chain3, promote):
    fam = from_family(support2, [frozenset({0}), frozenset(range(4))])
    for c in (identity_operator(support2), promote, fam):
        rep = monoid_report(c)
        assert rep.space.points[rep.identity] == {0}
        assert monoid_op_by_definition(c, (), ()) == {0}


def test_neutrality(support2):
    c = identity_operator(support2)
    rep = monoid_report(c)
    e = rep.space.points[rep.identity]
    for N in fixed_points(enumerate_smod(support2), c).points:
        assert _join(rep, N, e) == N == monoid_op_by_definition(c, N, e)


def test_nc_set_examples(support2, chain3, promote):
    z, a, b, t = range(4)
    c = identity_operator(support2)
    assert nc_set(c, frozenset({z, a}), t) == {b, t}
    # m already in N: every object works, including zero
    assert nc_set(c, frozenset({z, a}), a) == frozenset(range(4))
    assert nc_set(promote, frozenset({0}), 3) == {1, 2, 3}


def test_continuity_identity(support2):
    c = identity_operator(support2)
    entries = continuity_check(c, frozenset({0, 1}))
    assert all(ok for _, ok, _, _ in entries)
    # m = zero: both sides are the whole space
    entry = entries[support2.zero]
    npts = len(fixed_points(enumerate_smod(support2), c).points)
    assert entry[2] == tuple(range(npts)) and entry[3] == tuple(range(npts))


def test_continuity_promote(chain3, promote):
    entries = continuity_check(promote, frozenset({0}))
    assert all(ok for _, ok, _, _ in entries)


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


@pytest.mark.parametrize("bad", [99, -1, "a", 1.0, True])
def test_monoid_entry_points_reject_unknown_ids(support2, bad):
    c = identity_operator(support2)
    full = frozenset(range(4))
    with pytest.raises(UnknownObjectError):
        c.apply({bad})
    for seed in ({bad}, {bad} | full):
        with pytest.raises(UnknownObjectError):
            generate(support2, seed)
    with pytest.raises(UnknownObjectError):
        division(support2, {2, bad})
    if bad != 1:  # as a dict key, 1.0 or True is the key 1
        with pytest.raises(UnknownObjectError):
            table_operator(support2, {**dict(enumerate(support2.principals)),
                                      bad: full})


def test_table_operator_repairs_raw_union(support2):
    z, a, b, t = range(4)
    full = frozenset(range(4))
    c = table_operator(support2, {z: {z}, a: {z, a}, b: {z, b}, t: full})
    # the raw union {z, a, b} is not thick: a + b = t is missing
    assert c.apply({z, a, b}) == full
    assert frozenset({z, a, b}) not in monoid_report(c).space.points


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
                                   graded2, operator_cases):
    cases = _shipped_operators(models_dir) + list(operator_cases)
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
        assert points[rep.identity] == monoid_op_by_definition(c, (), ())
        table = []
        for i, N in enumerate(points):
            images = [monoid_op_by_definition(c, N, N2) for N2 in points]
            table.append(images)
            for j, N2 in enumerate(points):
                assert rep.op_table[i][j] == points.index(images[j])
            joins = [monoid_op_by_definition(c, N, {m2})
                     for m2 in range(p.n_objects)]
            for m in range(p.n_objects):
                # the preimage of U(m) under join-with-N is open: the
                # derived ``continuous`` flag rests on this equality
                reach = {m2 for m2, J in enumerate(joins) if m in J}
                preimage = tuple(k for k, image in enumerate(images)
                                 if m in image)
                cover = tuple(k for k, M in enumerate(points) if reach & M)
                assert preimage == cover
        assert monoid_by_definition(c, rep.space, table) == (
            rep.closed, rep.associative, rep.neutral, rep.idempotent,
            rep.witnesses) == (True, True, True, True, ())
    assert monoid_report(identity_operator(graded2)).passed


def _gated_cases(operator_cases, glued, restrict2):
    """Every gated operator case, plus identity and radical on glued (whose
    principals need the triangle rule) and on three larger models, and
    identity on two genuine modules."""
    cases = [c for c in operator_cases if classify(c.presentation, c).gate]
    assert len(cases) > 30
    cases += [identity_operator(glued), radical(glued),
              identity_operator(restrict2),
              identity_operator(restriction_module(3, 2))]
    for p in (support_model(5), chain_model(10), graded_support_model(3)):
        cases += [identity_operator(p), radical(p)]
    return cases


def test_op_table_matches_join_by_pair(operator_cases, glued, restrict2):
    """Each cell read from the completion's principal table equals the
    completed join of its pair of points."""
    for c in _gated_cases(operator_cases, glued, restrict2):
        rep = monoid_report(c)
        assert (rep.op_table, rep.identity) == op_table_by_join(c)


def test_space_is_fixed_points_of_c(operator_cases, glued, restrict2):
    """The monoid's space is SMod^c, the points of SMod that c fixes, in
    the same order, and its points are exactly the values of the
    completion's principal table, so every cell has an index."""
    for c in _gated_cases(operator_cases, glued, restrict2):
        rep = monoid_report(c)
        assert rep.space == fixed_points(enumerate_smod(c.presentation), c)
        assert set(c.completion.principal_table) == set(rep.space.points)


def test_continuous_flag_matches_joint_continuity_oracle(
        models_dir, support2, support3, chain3, operator_cases):
    """The continuity monoid_report derives agrees with continuity on the
    product space."""
    cases = _shipped_operators(models_dir) + list(operator_cases)
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
