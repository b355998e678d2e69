from time import perf_counter

import pytest

import ttg.thick
from ttg import (all_submodules, classify, division, enumerate_smod,
                 fixed_points, fixed_space, from_family, identity_operator,
                 is_thick, monoid_report, radical, table_operator,
                 ultrafilter_check, validate_family)
from ttg.operators import (FamilyError, OperatorClassification, OperatorError,
                           OperatorSpec)
from ttg.presentation import support_model

from oracles import (all_subsets, classify_by_definition, division_scan,
                     family_violation, iterate_operator, monoid_by_definition,
                     monoid_op_by_definition, mult_closed_sets, radical_scan)


def full(p):
    return frozenset(range(p.n_objects))


def test_identity_classifies_all_true(support2):
    cls = classify(support2, identity_operator(support2))
    assert (cls.extensive, cls.order_preserving, cls.idempotent,
            cls.finite_type) == (True, True, True, True)


def test_radical_is_identity_on_support2(support2):
    rad = radical(support2)
    for N in all_submodules(support2):
        assert rad.apply(N) == N


def test_radical_fixes_full_ideal(support2):
    rad = radical(support2)
    assert rad.apply(full(support2)) == full(support2)


def test_radical_classification(support2, chain3):
    for p in (support2, chain3):
        cls = classify(p, radical(p))
        assert cls.extensive and cls.order_preserving
        assert cls.idempotent and cls.finite_type


def test_radical_matches_direct_scan(support2, chain3):
    for p in (support2, chain3):
        rad = radical(p)
        for N in all_submodules(p):
            assert rad.apply(N) == radical_scan(p, N)


def test_radical_requires_self_action(support2):
    twisted = type(support2)(
        base=support2.base, names=support2.names, zero=support2.zero,
        sum=support2.sum, translate=support2.translate,
        triangles=support2.triangles, action=support2.sum)
    with pytest.raises(OperatorError):
        radical(twisted)


def test_division_examples(support2):
    z, a, b, t = range(4)
    div = division(support2, {a})
    assert div.apply(frozenset({z, a})) == {z, a, b, t}
    assert div.apply(full(support2)) == full(support2)


def test_division_by_unit_is_identity(support2):
    div = division(support2, {support2.base.unit})
    for N in all_submodules(support2):
        assert div.apply(N) == N


def test_division_matches_direct_scan(support2, chain3):
    for p in (support2, chain3):
        for S in mult_closed_sets(p):
            div = division(p, S)
            for N in all_submodules(p):
                assert div.apply(N) == division_scan(p, S, N)


def test_division_rejects_non_multiplicative(support2):
    z, a, b, t = range(4)
    with pytest.raises(OperatorError) as err:
        division(support2, {a, b})  # a tensor b = z escapes
    assert "multiplicatively closed" in str(err.value)
    with pytest.raises(OperatorError):
        division(support2, set())


def test_division_gate(support2):
    for S in mult_closed_sets(support2):
        cls = classify(support2, division(support2, S))
        assert cls.gate


def test_family_operator_example(support2):
    z, a, b, t = range(4)
    F = [frozenset({z}), full(support2)]
    c = from_family(support2, F)
    assert c.apply(frozenset({z, a})) == full(support2)
    fixed = [N for N in all_submodules(support2) if c.apply(N) == N]
    assert set(fixed) == set(F)


def test_family_of_everything_gives_identity(support2):
    c = from_family(support2, list(all_submodules(support2)))
    for N in all_submodules(support2):
        assert c.apply(N) == N


def test_family_requires_full_module(support2):
    z, a, b, t = range(4)
    with pytest.raises(FamilyError) as err:
        validate_family(support2, [frozenset({z, a}), frozenset({z, b})])
    assert err.value.condition == "full-module"
    # from_family checks a family of validate_family's own type too
    with pytest.raises(FamilyError) as err:
        from_family(support2, frozenset({frozenset({z})}))
    assert err.value.condition == "full-module"


def test_family_intersection_violation(support2):
    z, a, b, t = range(4)
    with pytest.raises(FamilyError) as err:
        validate_family(support2,
                        [frozenset({z, a}), frozenset({z, b}), full(support2)])
    assert err.value.condition == "intersection"


def test_family_members_must_be_thick(support2):
    with pytest.raises(FamilyError) as err:
        validate_family(support2, [frozenset({0, 1, 2}), full(support2)])
    assert err.value.condition == "thick"


def test_family_classification(support2):
    F = [frozenset({0}), full(support2)]
    cls = classify(support2, from_family(support2, F))
    assert (cls.extensive, cls.order_preserving, cls.idempotent,
            cls.finite_type) == (True, True, True, True)


def test_promote_classification(chain3, promote):
    cls = classify(chain3, promote)
    assert cls.extensive and cls.order_preserving and cls.finite_type
    assert not cls.idempotent
    assert cls.gate


def test_table_identity(chain3):
    c = table_operator(chain3, {m: chain3.principals[m]
                                for m in range(chain3.n_objects)})
    for N in all_submodules(chain3):
        assert c.apply(N) == N


def test_table_constant_full(support2):
    c = table_operator(support2, {m: full(support2)
                                  for m in range(support2.n_objects)})
    fixed = [N for N in all_submodules(support2) if c.apply(N) == N]
    assert fixed == [full(support2)]


def test_table_rejects_bad_values(chain3):
    with pytest.raises(OperatorError):
        table_operator(chain3, {0: {0}, 1: {0}, 2: {0, 1, 2}, 3: {0, 1, 2, 3}})
    with pytest.raises(OperatorError):
        table_operator(chain3, {0: {0}})


def test_operator_outputs_are_thick(support2, chain3, promote):
    cases = [(support2, identity_operator(support2)),
             (support2, radical(support2)),
             (support2, division(support2, {1})),
             (support2, from_family(support2, [frozenset({0}), full(support2)])),
             (chain3, promote)]
    for p, c in cases:
        for N in all_submodules(p):
            assert is_thick(p, c.apply(N))


def test_c_infinity_promote(chain3, promote):
    ci = promote.completion
    assert ci.apply(frozenset({0, 1})) == full(chain3)
    cls = classify(chain3, ci)
    assert (cls.extensive, cls.order_preserving, cls.idempotent,
            cls.finite_type) == (True, True, True, True)


def test_c_infinity_of_idempotent_is_pointwise_equal(support2):
    c = from_family(support2, [frozenset({0}), full(support2)])
    ci = c.completion
    for N in all_submodules(support2):
        assert ci.apply(N) == c.apply(N)


def test_c_infinity_matches_direct_iteration(chain3, promote):
    ci = promote.completion
    for N in all_submodules(chain3):
        assert ci.apply(N) == iterate_operator(promote, N)
        assert ci.apply(N) == ci.apply(promote.apply(N))


def test_c_infinity_requires_gate(support2):
    # shrink below extensivity: send everything to the zero submodule
    bad = type(identity_operator(support2))(
        "table", support2,
        tuple(frozenset({0}) for _ in range(support2.n_objects)))
    with pytest.raises(OperatorError):
        bad.completion
    with pytest.raises(OperatorError, match="^operator does not pass the gate: "
                       "c-infinity requires extensive$"):
        monoid_report(bad)


def test_c_infinity_gate_matches_classify(operator_cases):
    """c.completion reads its gate from ``c.classification``, the value
    classify returns; it raises exactly where that gate is False, naming
    the first failing condition: extensive, then SMod-valued.
    monoid_report passes that name on."""
    gated = 0
    for c in operator_cases:
        p = c.presentation
        cls = classify(p, c)
        if cls.gate:
            gated += 1
            c.completion
        else:
            with pytest.raises(OperatorError) as err:
                c.completion
            condition = "extensive" if not cls.extensive else "SMod-valued"
            assert str(err.value) == "c-infinity requires " + condition
            with pytest.raises(OperatorError) as err:
                monoid_report(c)
            assert str(err.value) == ("operator does not pass the gate: "
                                      "c-infinity requires " + condition)
    assert 0 < gated < len(operator_cases)


def test_c_infinity_applies_c_to_no_point_after_classify(operator_cases,
                                                        monkeypatch):
    """classify and c.completion read c at the points from one table, and
    past the gate every value is a point of that table, so classify
    applies c once per point, in point order, and c.completion applies c
    to nothing after classify."""
    calls = []
    apply = OperatorSpec.apply

    def counting(self, N):
        calls.append(N)
        return apply(self, N)

    monkeypatch.setattr(OperatorSpec, "apply", counting)
    gated = 0
    for c in operator_cases:
        c = c._replace()  # a copy without the cached table
        p = c.presentation
        calls.clear()
        if classify(p, c).gate:
            assert calls == list(all_submodules(p))
            gated += 1
            calls.clear()
            c.completion
            assert calls == []
    assert gated > 30


def test_verdicts_follow_c_not_a_stray_p(support2, chain3):
    """``p`` is c's presentation and is not read: classify gives c's own
    verdicts next to another presentation."""
    c = identity_operator(support2)
    assert tuple(classify(chain3, c)) == classify_by_definition(support2, c)


def test_gate_is_read_from_the_classification(support2):
    """c.completion and monoid_report decide no gate of their own: a failing
    classification seeded into a copy of the identity stops both."""
    c = identity_operator(support2)._replace()
    c.__dict__["classification"] = OperatorClassification(
        extensive=False, order_preserving=True, idempotent=True,
        finite_type=True, smod_valued=True)
    with pytest.raises(OperatorError, match="^c-infinity requires extensive$"):
        c.completion
    with pytest.raises(OperatorError, match="^operator does not pass the gate: "
                       "c-infinity requires extensive$"):
        monoid_report(c)


def test_no_thick_closure_after_classify(operator_cases, monkeypatch):
    """Past classify, c.completion and the ultrafilter check on SMod^c read
    the gate and every thickness from tables, so on a gated operator they
    take no thick closure: each ``_closure`` goes through
    ``thick._generator``."""
    calls = []
    generator = ttg.thick._generator

    def counting(p, X):
        calls.append(X)
        return generator(p, X)

    monkeypatch.setattr(ttg.thick, "_generator", counting)
    gated = 0
    for c in operator_cases:
        c = c._replace()  # a copy without the cached tables
        p = c.presentation
        if classify(p, c).gate:
            gated += 1
            calls.clear()
            c.completion
            ultrafilter_check(fixed_space(c), c)
            assert calls == []
    assert gated > 30


def test_gate_rejects_operator_leaving_smod(support2):
    """An extensive operator whose value {z, a, b} is not thick fails the
    gate; past it, c^inf(K(z)) = {z, a, b} would not be a point, and the
    monoid oracle finds no neutral element."""
    z, a, b, t = range(4)
    c = OperatorSpec("table", support2,
                     (frozenset({z, a, b}),) * 3 + (full(support2),))
    cls = classify(support2, c)
    assert cls.extensive and not cls.smod_valued and not cls.gate
    assert ("smod_valued", (z,)) in cls.witnesses
    with pytest.raises(OperatorError, match="^c-infinity requires SMod-valued$"):
        c.completion
    with pytest.raises(OperatorError, match="^operator does not pass the gate: "
                       "c-infinity requires SMod-valued$"):
        monoid_report(c)
    space = fixed_points(enumerate_smod(support2), c)
    table = [[monoid_op_by_definition(c, N, N2) for N2 in space.points]
             for N in space.points]
    closed, associative, neutral, idempotent, witnesses = \
        monoid_by_definition(c, space, table)
    assert closed and associative and idempotent and not neutral
    assert witnesses == (("neutral", (z, a, b)),)


def test_family_round_trip_on_support2(support2):
    subs = all_submodules(support2)
    valid = []
    for F in all_subsets(subs):
        try:
            validate_family(support2, F)
        except FamilyError:
            continue
        valid.append(frozenset(F))
    assert len(valid) > 1
    for F in valid:
        c = from_family(support2, F)
        fixed = frozenset(N for N in subs if c.apply(N) == N)
        assert fixed == F


def test_gated_fixed_points_form_valid_family(support2, chain3, promote):
    cases = [(support2, identity_operator(support2)),
             (support2, radical(support2)),
             (support2, division(support2, {1})),
             (chain3, promote)]
    for p, c in cases:
        assert classify(p, c).gate
        fixed = [N for N in all_submodules(p) if c.apply(N) == N]
        validate_family(p, fixed)


def test_validate_family_matches_oracle_on_every_subfamily(support2, chain3,
                                                           support3):
    for p in (support2, chain3, support3):
        for F in all_subsets(all_submodules(p)):
            try:
                validate_family(p, F)
                condition = None
            except FamilyError as err:
                condition = err.condition
            assert condition == family_violation(p, F), sorted(map(sorted, F))


def test_validate_family_of_all_support4_submodules():
    # 16 members: a loop over every subfamily would take 2^16 steps
    p = support_model(4)
    subs = all_submodules(p)
    started = perf_counter()
    family = validate_family(p, subs)
    assert perf_counter() - started < 2
    assert family == frozenset(subs) and len(subs) == 16


def test_classify_matches_definition(operator_cases):
    """Order preservation and finite type, which classify derives, agree
    with the exhaustive loops, flags and witnesses alike, and so does
    SMod-valuedness, decided from the defining conditions."""
    flags, smod_valued = set(), set()
    for c in operator_cases:
        p = c.presentation
        cls = classify(p, c)
        assert (cls.extensive, cls.order_preserving, cls.idempotent,
                cls.finite_type, cls.smod_valued,
                cls.witnesses) == classify_by_definition(p, c)
        flags.add((cls.extensive, cls.idempotent))
        smod_valued.add((cls.extensive, cls.smod_valued))
    assert len(operator_cases) > 130
    every = {(True, True), (True, False), (False, True), (False, False)}
    assert flags == every and smod_valued == every
