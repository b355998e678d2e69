import pytest

from ttg import (continuity_check, enumerate_smod, fixed_points, from_family,
                 identity_element, identity_operator, monoid_op, monoid_report,
                 nc_set)
from ttg.monoid import MonoidError
from ttg.presentation import UnknownObjectError


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


@pytest.mark.parametrize("bad", [99, -1, "a"])
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
