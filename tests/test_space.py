import os
import random
import re
from time import perf_counter

import pytest

from ttg import (all_submodules, basis_properties, classify, division,
                 enumerate_smod, fixed_points, fixed_space, from_family,
                 identity_operator, radical, spectral_report, ultrafilter_check)
from ttg.docio import load, specialization_dot
from ttg.operators import OperatorSpec
from ttg.presentation import chain_model, support_model, validate
from ttg.space import SModSpace, make_space

from oracles import (basis_by_definition, brute_thick_sets,
                     spectral_by_definition, ultrafilter_by_definition)


def test_enumerate_support2(support2):
    space = enumerate_smod(support2)
    assert len(space.points) == 4
    assert list(space.points) == brute_thick_sets(support2)


def test_enumerate_chain3_is_a_chain(chain3):
    space = enumerate_smod(chain3)
    assert len(space.points) == 4
    pts = list(space.points)
    for i in range(len(pts) - 1):
        assert pts[i] < pts[i + 1]


def test_enumerate_single_object_model():
    p = support_model(1)
    # the 2-object model has the zero submodule and everything
    space = enumerate_smod(p)
    assert len(space.points) == 2


def test_point_membership_iff_basis(support2):
    space = enumerate_smod(support2)
    for i, N in enumerate(space.points):
        for m in range(support2.n_objects):
            assert (i in space.basis[m]) == (m in N)


def test_specialization_is_inclusion(support2, chain3, graded2):
    """The DOT edges are the cover pairs of inclusion of points: the
    strict inclusions that are not a composite of two strict inclusions."""
    for p in (support2, chain3, graded2):
        space = enumerate_smod(p)
        pts = space.points
        strict = {(i, j) for i, N in enumerate(pts) for j, N2 in enumerate(pts)
                  if N < N2}
        covers = strict - {(i, k) for i, j in strict for j2, k in strict if j == j2}
        edges = {tuple(int(v) for v in re.findall(r"n(\d+)", line))
                 for line in specialization_dot(p, space).splitlines()
                 if "->" in line}
        assert edges == covers, p.names


def test_fixed_points_identity(support2):
    space = enumerate_smod(support2)
    fixed = fixed_points(space, identity_operator(support2))
    assert fixed.points == space.points
    assert fixed.basis == space.basis


def test_fixed_points_promote(chain3, promote):
    fixed = fixed_points(enumerate_smod(chain3), promote)
    assert [sorted(N) for N in fixed.points] == [[0], [0, 1, 2, 3]]


def test_fixed_points_family(support2):
    full = frozenset(range(4))
    c = from_family(support2, [frozenset({0}), full])
    fixed = fixed_points(enumerate_smod(support2), c)
    assert set(fixed.points) == {frozenset({0}), full}


def test_fixed_space_is_fixed_points_for_every_operator(operator_cases):
    """The one SMod^c function, read from ``c.point_values``, equals the
    filter of SMod by ``apply``, gated operator or not."""
    for c in operator_cases:
        assert fixed_space(c) == fixed_points(enumerate_smod(c.presentation), c)


def test_spectral_support2(support2):
    rep = spectral_report(enumerate_smod(support2))
    assert rep.t0 and rep.sober
    assert rep.basis_quasi_compact and rep.basis_intersection_closed
    assert rep.spectral


def test_spectral_promote_space(chain3, promote):
    rep = spectral_report(fixed_points(enumerate_smod(chain3), promote))
    assert rep.spectral


def test_spectral_degenerate_t0_violation():
    # synthetic two-point space with identical basis profiles
    space = SModSpace(points=(frozenset({0}), frozenset({1})),
                      basis=(frozenset({0, 1}),))
    rep = spectral_report(space)
    assert not rep.t0
    assert not rep.spectral
    assert ("t0", (0, 1)) in rep.witnesses


def test_ultrafilter_identity(support2):
    space = enumerate_smod(support2)
    c = identity_operator(support2)
    rep = ultrafilter_check(space, c)
    assert rep.passed
    # induced submodule at the point {z,a} is {z,a} itself
    idx = list(space.points).index(frozenset({0, 1}))
    assert rep.results[idx].equals_point


def test_ultrafilter_full_point(support2):
    space = enumerate_smod(support2)
    full = frozenset(range(4))
    idx = list(space.points).index(full)
    for m in range(support2.n_objects):
        assert idx in space.basis[m]


def test_ultrafilter_promote(chain3, promote):
    fixed = fixed_points(enumerate_smod(chain3), promote)
    rep = ultrafilter_check(fixed, promote)
    assert rep.passed
    idx = list(fixed.points).index(frozenset({0}))
    # only U(zero) contains the zero submodule
    assert [m for m in range(chain3.n_objects) if idx in fixed.basis[m]] == [0]


def _ultrafilter_rows(space, c):
    return tuple((r.point, r.thick, r.fixed, r.equals_point, r.biconditional)
                 for r in ultrafilter_check(space, c).results)


def test_ultrafilter_matches_definition(operator_cases):
    for c in operator_cases:
        smod = enumerate_smod(c.presentation)
        for space in (smod, fixed_points(smod, c)):
            assert (_ultrafilter_rows(space, c)
                    == ultrafilter_by_definition(space, c))


def test_ultrafilter_applies_c_to_no_point_after_classify(operator_cases,
                                                         support2, monkeypatch):
    """The ultrafilter check reads c at an induced set that is a point from
    the table ``classify`` filled, so on SMod^c of a gated operator it
    applies c to nothing; it applies c only to an induced set that is not
    a point."""
    calls = []
    apply = OperatorSpec.apply

    def counting(self, N):
        calls.append(N)
        return apply(self, N)

    monkeypatch.setattr(OperatorSpec, "apply", counting)
    gated = 0
    for c in operator_cases:
        c = c._replace()  # a copy without the cached table
        if classify(c.presentation, c).gate:
            gated += 1
            calls.clear()
            assert ultrafilter_check(fixed_space(c), c).passed
            assert calls == []
    assert gated > 30
    c = identity_operator(support2)
    classify(support2, c)
    calls.clear()
    not_thick = frozenset({0, 1, 2})  # a + b is missing
    rep = ultrafilter_check(make_space([not_thick], support2.n_objects), c)
    assert calls == [not_thick]
    assert not rep.results[0].thick and rep.results[0].fixed


def _hand_built_space(p, rng):
    """Some thick and some arbitrary points, and the membership basis with
    one to four entries flipped."""
    subs = list(all_submodules(p))
    points = rng.sample(subs, rng.randint(1, len(subs)))
    points += [frozenset(rng.sample(range(p.n_objects),
                                    rng.randint(0, p.n_objects)))
               for _ in range(rng.randint(0, 3))]
    points = tuple(dict.fromkeys(points))
    flips = {(rng.randrange(p.n_objects), rng.randrange(len(points)))
             for _ in range(rng.randint(1, 4))}
    basis = tuple(frozenset(i for i, pt in enumerate(points)
                            if (m in pt) != ((m, i) in flips))
                  for m in range(p.n_objects))
    return SModSpace(points, basis)


def test_ultrafilter_matches_definition_on_hand_built_spaces(operator_cases):
    """Spaces whose basis is not the membership basis, so that the induced
    submodule can differ from its point and fail to be thick or fixed."""
    rng = random.Random(5)
    cases = [c for c in operator_cases if c.presentation.n_objects <= 8]
    seen = set()
    for _ in range(240):
        c = rng.choice(cases)
        space = _hand_built_space(c.presentation, rng)
        rows = ultrafilter_by_definition(space, c)
        assert _ultrafilter_rows(space, c) == rows
        seen |= {(k, row[k]) for row in rows for k in (1, 2, 3)}
    assert seen == {(k, v) for k in (1, 2, 3) for v in (True, False)}


def _basis_rows(rep):
    return (rep.zero_is_everything, rep.triangle_containment,
            rep.sum_intersection, rep.action_monotone,
            rep.translation_invariant, rep.witnesses)


def test_basis_properties_models(support2, support3, chain3, graded2,
                                 restrict2):
    """The derived identities agree with the scans, on models with T != id
    (graded2) and with a genuine module M != K (restrict2)."""
    for p in (support2, support3, chain3, support_model(4), chain_model(6),
              graded2, restrict2):
        space = enumerate_smod(p)
        rep = basis_properties(p, space)
        assert rep.passed, rep.witnesses
        assert _basis_rows(rep) == basis_by_definition(p, space)


def test_basis_sum_intersection_example(support2):
    space = enumerate_smod(support2)
    z, a, b, t = range(4)
    assert space.basis[a] & space.basis[b] == space.basis[t]
    full_idx = list(space.points).index(frozenset(range(4)))
    assert space.basis[a] & space.basis[b] == {full_idx}


def test_basis_zero_is_everything(support2):
    space = enumerate_smod(support2)
    assert space.basis[support2.zero] == frozenset(range(len(space.points)))


def test_spectral_gate_for_shipped_operators(support2, chain3, promote):
    cases = [(support2, identity_operator(support2)),
             (support2, radical(support2)),
             (support2, division(support2, {1})),
             (chain3, promote),
             (chain3, radical(chain3))]
    for p, c in cases:
        fixed = fixed_points(enumerate_smod(p), c)
        assert spectral_report(fixed).spectral
        assert ultrafilter_check(fixed, c).passed


def test_spectral_matches_exhaustive_oracle(models_dir):
    cases = []
    for name in ("support2", "support3", "chain3"):
        p, operators, _ = load(os.path.join(models_dir, name + ".json"))
        for c in [identity_operator(p)] + [operators[k] for k in sorted(operators)]:
            if classify(p, c).gate:
                cases.append((p, c))
    support4 = support_model(4)
    cases.append((support4, identity_operator(support4)))
    for p, c in cases:
        fixed = fixed_points(enumerate_smod(p), c)
        rep = spectral_report(fixed)
        derived = tuple(w for w in rep.witnesses if w[0] in ("t0", "sober"))
        assert (rep.t0, rep.sober, derived) == spectral_by_definition(fixed)


def test_spectral_support5_finishes():
    # 32 points and 7581 opens: the exhaustive closed-set search in
    # oracles.spectral_by_definition does not finish in 120 s on it
    space = enumerate_smod(support_model(5))
    assert len(space.points) == 32
    started = perf_counter()
    rep = spectral_report(space)
    assert perf_counter() - started < 5
    assert rep.spectral and rep.witnesses == ()


def test_graded_model_matches_oracle(graded2):
    # T swaps the two grades, so rotation is not the identity here
    assert graded2.translate != tuple(range(graded2.n_objects))
    assert validate(graded2).ok
    space = enumerate_smod(graded2)
    assert len(space.points) == 4
    assert list(space.points) == brute_thick_sets(graded2)
