import gc
import random
import weakref
from itertools import combinations

import pytest

from ttg import (all_submodules, chain_model, enumerate_smod, generate,
                 identity_operator, is_thick, monoid_report, self_module,
                 support_model, validate, witnesses)
from ttg.presentation import (UnknownObjectError, is_self_module,
                              rotation_closure)
from ttg.thick import GenerationError, _checked, _closure

from conftest import (bar, delta, graded_support_model, restriction_module,
                      summands)
from oracles import (all_subsets, brute_thick_sets, generate_by_scan,
                     least_cofactor, minimal_thick_superset,
                     principals_by_worklist, summands_by_scan,
                     thick_by_definition, thick_check_by_scan)


def test_is_thick_examples(support2):
    z, a, b, t = range(4)
    assert is_thick(support2, {z, a})
    assert is_thick(support2, {z})
    check = is_thick(support2, {z, a, b})
    assert not check
    assert check.condition == "triangle"
    assert check.witness[1] == t


def test_is_thick_zero_required(support2):
    check = is_thick(support2, {1})
    assert not check and check.condition == "zero"


def test_is_thick_unknown_id(support2):
    with pytest.raises(UnknownObjectError):
        is_thick(support2, {17})


def test_checked_ids_match_check_object(support2):
    for x in (0, 3, True, False, 1.0, 4, 99, -1, "a", None):
        for X in ({x}, {0, x}):
            # the ids X holds: {0, False} holds only 0, since False == 0
            try:
                for m in X:
                    support2.check_object(m)
                expected = None
            except UnknownObjectError as exc:
                expected = str(exc)
            try:
                assert _checked(support2, X) == frozenset(X)
                got = None
            except UnknownObjectError as exc:
                got = str(exc)
            assert got == expected, (x, X)


def _passes_scan_prefix(p, rng, count):
    """Seeded sets closed under zero, the action and summands, so that
    ``is_thick`` reaches its triangle and sum conditions."""
    summands = [summands_by_scan(p, x) for x in range(p.n_objects)]
    orbit = [set().union(*(summands[p.action[a][m]]
                           for a in range(p.base.n_objects)))
             for m in range(p.n_objects)]
    for _ in range(count):
        s = {p.zero} | set(rng.sample(range(p.n_objects), rng.randint(0, 3)))
        while True:
            grown = s.union(*(orbit[m] for m in s))
            if grown == s:
                break
            s = grown
        yield frozenset(s)


def _edit_cell(table, bound, rng):
    """``table`` with one seeded cell set to another id below ``bound``."""
    rows = [list(row) for row in table]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] = rng.choice([v for v in range(bound) if v != rows[i][j]])
    return tuple(map(tuple, rows))


def _invalid_mutations(p, rng, count):
    """``count`` seeded one-cell mutations of p that fail ``validate``, as
    (kind, presentation).  K acting on itself gets a sum cell, a tensor
    cell or a dropped triangle, a genuine module a module sum cell or an
    action cell."""
    cat, n = p.base, p.n_objects
    if is_self_module(p):
        edits = {
            "sum": lambda: self_module(cat._replace(sum=_edit_cell(cat.sum, n, rng))),
            "tensor": lambda: self_module(
                cat._replace(tensor=_edit_cell(cat.tensor, n, rng))),
            "triangle": lambda: self_module(cat._replace(
                triangles=cat.triangles - {rng.choice(sorted(cat.triangles))})),
        }
    else:
        edits = {
            "sum": lambda: p._replace(sum=_edit_cell(p.sum, n, rng)),
            "action": lambda: p._replace(action=_edit_cell(p.action, n, rng)),
        }
    kinds = sorted(edits)
    found = []
    while len(found) < count:
        kind = kinds[len(found) % len(kinds)]
        q = edits[kind]()
        if not validate(q).ok:
            found.append((kind, q))
    return found


def test_is_thick_matches_scan(support2, support3, chain3, graded2, glued,
                               restrict2):
    def agree(p, s):
        check = is_thick(p, s)
        assert (check.ok, check.condition, check.witness) == \
            thick_check_by_scan(p, s), (p.names, sorted(s))
        return check.condition

    for p in (support2, chain3, support3, glued):
        for s in all_subsets(range(p.n_objects)):
            agree(p, s)
    rng = random.Random(8)
    conditions = {agree(p, s) for p in (support_model(4), graded2)
                  for s in _passes_scan_prefix(p, rng, 300)}
    assert {"", "triangle"} <= conditions
    # presentations that fail validate, where a set may pass every
    # condition but one and the closure of the set need not be thick
    rng = random.Random(18)
    kinds, conditions = set(), set()
    for p, count in ((support2, 60), (chain3, 60), (support3, 45),
                     (restrict2, 20), (restriction_module(3, 2), 40)):
        for kind, q in _invalid_mutations(p, rng, count):
            kinds.add(kind)
            for s in all_subsets(range(q.n_objects)):
                conditions.add(agree(q, s))
    assert kinds == {"sum", "tensor", "triangle", "action"}
    assert conditions == {"", "zero", "action", "summand", "triangle", "sum"}


def test_bar_examples(support2):
    z, a, b, t = range(4)
    assert bar(support2, {t}) == {z, a, b, t}
    assert bar(support2, {z}) == {z}
    assert bar(support2, {a}) == {z, a}


def test_bar_idempotent(support3):
    for x in range(support3.n_objects):
        X = bar(support3, {x})
        assert bar(support3, X) == X


def test_delta_examples(support2):
    z, a, b, t = range(4)
    assert t in delta(support2, {z, a, b})
    assert delta(support2, {z}) == {z}
    assert delta(support2, {z, a}) == {z, a}


def test_delta_contains_input_when_zero_present(support2, chain3):
    for p in (support2, chain3):
        for x in range(p.n_objects):
            X = frozenset({p.zero, x})
            assert X <= delta(p, X)


def test_generate_examples(support2, chain3):
    z, a, b, t = range(4)
    members, cert = generate(support2, {a, b})
    assert members == {z, a, b, t}
    assert cert.records[t].stage == 1
    assert cert.records[t].kind == "delta"

    members, _ = generate(support2, set())
    assert members == {z}

    members, _ = generate(chain3, {1})
    assert members == {0, 1}


def test_generate_matches_brute_force(support2, chain3):
    for p in (support2, chain3):
        n = p.n_objects
        for mask in range(1 << n):
            X = frozenset(i for i in range(n) if mask >> i & 1)
            members, _ = generate(p, X)
            assert members == minimal_thick_superset(p, X)


def test_generate_output_is_thick(support2, support3, chain3, graded2, glued):
    # sound only because validate requires the split triangles (x, x+y, y)
    for p in (support2, support3, chain3, graded2, chain_model(6), glued):
        for size in range(3):
            for seed in combinations(range(p.n_objects), size):
                members, _ = generate(p, seed)
                assert is_thick(p, members), (p.names, seed)


def test_generate_matches_scan_oracle(support2, support3, chain3, graded2,
                                      restrict2, downsets, split_probe,
                                      glued, one_way):
    # the whole certificate: kind, stage, order, data and insertion order
    def agree(p, X):
        members, cert = generate(p, X)
        expected = generate_by_scan(p, X)
        assert (members, cert.seed) == (expected[0], expected[1].seed)
        assert list(cert.records.items()) == \
            list(expected[1].records.items()), (p.names, sorted(X))

    # support2 storing only (t, a, b), not closed under rotation: t joins
    # {a, b} by the first rotation of its triangle, with two distinct
    # predecessors, which no rotation-closed model here gives
    z, a, b, t = range(4)
    head_first = support2._replace(triangles=frozenset({(t, a, b)}))
    for p in (support2, support3, chain3, restrict2, split_probe, glued,
              one_way, restriction_module(3, 2), head_first):
        for X in all_subsets(range(p.n_objects)):
            agree(p, X)
    rng = random.Random(17)
    # support_model(6): 64 objects and 10165 triangles, a long sorted scan
    for p, count in ((downsets, 150), (graded2, 150), (support_model(5), 150),
                     (chain_model(10), 150), (graded_support_model(3), 12),
                     (support_model(6, bound=6), 20)):
        for _ in range(count):
            agree(p, rng.sample(range(p.n_objects), rng.randint(0, 4)))


def test_certificate_orders_strictly_increase(support2, support3, chain3):
    models = (support2, support3, chain3, support_model(4), chain_model(10))
    for p in models:
        for X in combinations(range(p.n_objects), 2):
            members, cert = generate(p, X)
            for n in members:
                rec = cert.records[n]
                if rec.kind == "bar":
                    a, m, cof = rec.data
                    assert cert.records[m].order < rec.order
                    assert p.sum[n][cof] == p.action[a][m]
                    assert cof == least_cofactor(p, n, p.action[a][m])
                elif rec.kind == "delta":
                    t, x, y = rec.data
                    assert t in p.triangles
                    assert any(t[k:] + t[:k] == (n, x, y) for k in range(3))
                    for pred in (x, y):
                        assert cert.records[pred].order < rec.order


def test_summands_and_bar_match_scan(support2, support3, chain3):
    for p in (support2, support3, chain3, support_model(4)):
        n = p.n_objects
        for x in range(n):
            assert summands(p, x) == summands_by_scan(p, x)
        for X in combinations(range(n), 2):
            assert bar(p, X) == frozenset().union(*(
                summands_by_scan(p, p.action[a][m])
                for m in X for a in range(p.base.n_objects)))


def test_principal_examples(support2):
    z, a, b, t = range(4)
    assert support2.principals[t] == {z, a, b, t}
    assert support2.principals[z] == {z}
    assert support2.principals[a] == {z, a}
    assert support2.principals == principals_by_worklist(support2)


def test_witnesses_examples(support2):
    z, a, b, t = range(4)
    members, cert = generate(support2, {a, b})
    assert witnesses(cert, t, {a, b}) == {a, b}
    assert witnesses(cert, a, {a, b}) == {a}
    members, cert = generate(support2, {a, b, t})
    assert witnesses(cert, t, {a, b, t}) == {t}


def test_witnesses_regenerate(support2, chain3):
    for p in (support2, chain3):
        n = p.n_objects
        for mask in range(1 << n):
            X = frozenset(i for i in range(n) if mask >> i & 1)
            members, cert = generate(p, X)
            for m in members:
                W = witnesses(cert, m, X)
                assert W <= X
                regenerated, _ = generate(p, W)
                assert m in regenerated


def test_witnesses_outside_submodule(support2):
    _, cert = generate(support2, set())
    with pytest.raises(GenerationError):
        witnesses(cert, 3, set())


def test_add_examples(support2, chain3):
    """N + N', the thick closure of N | N', on hand-checked pairs."""
    z, a, b, t = range(4)
    for p, N, N2, joined in ((support2, {z, a}, {z, b}, {z, a, b, t}),
                             (support2, {z, a}, {z}, {z, a}),
                             (chain3, {0, 1}, {0, 1, 2}, {0, 1, 2})):
        X = frozenset(N | N2)
        assert _closure(p, X) == joined == minimal_thick_superset(p, X)


def test_add_commutative_idempotent(support2):
    subs = all_submodules(support2)
    for N in subs:
        assert _closure(support2, N | N) == N
        for N2 in subs:
            assert (_closure(support2, N | N2)
                    == minimal_thick_superset(support2, N2 | N))


def test_all_submodules_matches_brute_force(support2, support3, chain3):
    for p in (support2, support3, chain3):
        assert list(all_submodules(p)) == brute_thick_sets(p)


def test_thick_exactly_when_a_point(support2, support3, chain3, graded2, glued):
    """The lemma the classification and the ultrafilter check read
    thickness by: on a validated presentation, X is thick exactly when it
    is a point of SMod, and exactly when it equals its thick closure."""
    for p in (support2, support3, chain3, graded2, glued,
              restriction_module(3, 2)):
        points = set(all_submodules(p))
        for X in all_subsets(range(p.n_objects)):
            thick = thick_by_definition(p, X)
            assert (X in points) == thick == (_closure(p, X) == X), \
                (p.names, sorted(X))


def test_finite_principality(support2, support3, chain3, graded2):
    # every thick submodule is the principal of the sum of its members
    for N in all_submodules(support3):
        total = support3.zero
        for m in sorted(N):
            total = support3.sum[total][m]
        assert support3.principals[total] == N
    # so is the closure of any set, which _closure reads from the table
    for p in (support2, chain3, support3):
        for X in all_subsets(range(p.n_objects)):
            assert _closure(p, X) == generate(p, X)[0]
    rng = random.Random(5)
    for p in (support_model(4), chain_model(10), graded2):
        for _ in range(200):
            X = rng.sample(range(p.n_objects), rng.randint(0, p.n_objects))
            assert _closure(p, X) == generate(p, X)[0]


def test_principal_table_matches_oracle(support2, support3, chain3, graded2,
                                       restrict2, downsets, glued):
    for p in (support2, support3, chain3, chain_model(6), graded2, restrict2,
              downsets, glued):
        thick = brute_thick_sets(p)
        for m in range(p.n_objects):
            # minimal_thick_superset(p, {m}), the thick sets found once
            assert p.principals[m] == frozenset.intersection(
                *[s for s in thick if m in s])


def test_glued_principals_need_the_triangle_rule(glued):
    z, a, b, t = range(4)
    assert validate(glued).ok
    # the orbit rule alone, on the same objects without (a, z, b)
    assert support_model(2).principals[a] == {z, a}
    assert glued.principals[a] == glued.principals[b] == {z, a, b, t}
    assert brute_thick_sets(glued) == [{z}, {z, a, b, t}]


@pytest.fixture(scope="module")
def one_way(split_probe):
    """support_model(2) storing only the rotations of (b, a, z).  Every
    valid model stores (y, x) -> n with (x, y) -> n; this one gives
    (a, z) -> b but not (z, a) -> b."""
    z, a, b, t = range(4)
    cat = split_probe.base
    return self_module(cat._replace(
        triangles=rotation_closure({(b, a, z)}, cat.translate)))


def test_principal_table_matches_generate(split_probe, one_way, glued):
    # also on presentations that fail validate: the table and generate
    # apply the same two rules, whether or not their fixpoint is thick.
    for p in (support_model(5), chain_model(10), split_probe, one_way, glued):
        for m in range(p.n_objects):
            assert p.principals[m] == generate(p, {m})[0], (p.names, m)


def test_principal_table_matches_worklist(restrict2, split_probe, one_way,
                                         glued):
    for p in (support_model(6, bound=6), support_model(7, bound=7),
              graded_support_model(3), restrict2, split_probe, one_way, glued):
        assert p.principals == principals_by_worklist(p), p.names


def test_principal_table_matches_worklist_off_validate(support3):
    # seeded sets of a few triples of support3's objects, each closed under
    # rotation by a seeded translation: as in one_way, a pair of objects
    # may complete a triangle in one order only.  support3's own triangles
    # would not do, since its principals are the down-sets, which the
    # orbit rule alone reaches.
    rng = random.Random(12)
    objects = range(support3.n_objects)
    for _ in range(200):
        translate = tuple(rng.sample(objects, len(objects)))
        triples = [tuple(rng.choice(objects) for _ in range(3))
                   for _ in range(rng.randint(1, 4))]
        kept = rotation_closure(triples, translate)
        p = self_module(support3.base._replace(translate=translate,
                                            triangles=kept))
        assert p.principals == principals_by_worklist(p), (translate, sorted(kept))


def test_derived_tables_are_tuples(support3):
    assert isinstance(support3.decompositions, tuple)
    assert all(isinstance(row, tuple) for row in support3.decompositions)
    assert isinstance(support3.sorted_triangles, tuple)
    assert isinstance(support3.principals, tuple)
    assert all(isinstance(row, frozenset) for row in support3.principals)
    assert all(isinstance(rows, tuple) for rows in support3.masks)
    assert all(isinstance(row, tuple) for row in support3.masks.pair)


class _Probe:
    """Held only in its owner's ``__dict__``, so it is freed exactly when
    its owner is: a presentation or operator is a tuple subclass, which
    takes no weak reference itself."""


def test_model_is_freed_after_last_reference():
    p = support_model(3)
    c = identity_operator(p)
    monoid_report(c)
    enumerate_smod(p)
    vars(p)["_probe"], vars(c)["_probe"] = _Probe(), _Probe()
    refs = [weakref.ref(vars(p)["_probe"]), weakref.ref(vars(c)["_probe"])]
    del p, c
    gc.collect()
    assert [r() for r in refs] == [None, None]
