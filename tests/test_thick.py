import gc
import random
import weakref
from dataclasses import replace
from itertools import combinations

import pytest

from ttg import (add, all_submodules, bar, chain_model, delta, enumerate_smod,
                 generate, identity_operator, is_thick, monoid_report,
                 principal, self_module, summands, support_model,
                 witnesses)
from ttg.presentation import UnknownObjectError, rotation_closure
from ttg.thick import GenerationError, _checked

from oracles import (all_subsets, brute_thick_sets, least_cofactor,
                     minimal_thick_superset, summands_by_scan,
                     thick_check_by_scan)


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
        try:
            support2.check_object(x)
            expected = None
        except UnknownObjectError as exc:
            expected = str(exc)
        for X in ({x}, {0, x}):
            try:
                assert _checked(support2, X) == frozenset(X)
                got = None
            except UnknownObjectError as exc:
                got = str(exc)
            assert got == expected, x


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


def test_is_thick_matches_scan(support2, support3, chain3, graded2):
    def agree(p, s):
        check = is_thick(p, s)
        assert (check.ok, check.condition, check.witness) == \
            thick_check_by_scan(p, s), (p.names, sorted(s))
        return check.condition

    for p in (support2, chain3, support3):
        for s in all_subsets(range(p.n_objects)):
            agree(p, s)
    rng = random.Random(8)
    conditions = {agree(p, s) for p in (support_model(4), graded2)
                  for s in _passes_scan_prefix(p, rng, 300)}
    assert {"", "triangle"} <= conditions


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


def test_generate_output_is_thick(support2, support3, chain3, graded2):
    # sound only because validate requires the split triangles (x, x+y, y)
    for p in (support2, support3, chain3, graded2, chain_model(6)):
        for size in range(3):
            for seed in combinations(range(p.n_objects), size):
                members, _ = generate(p, seed)
                assert is_thick(p, members), (p.names, seed)


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
    assert principal(support2, t) == {z, a, b, t}
    assert principal(support2, z) == {z}
    assert principal(support2, a) == {z, a}


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
    z, a, b, t = range(4)
    assert add(support2, frozenset({z, a}), frozenset({z, b})) == {z, a, b, t}
    assert add(support2, frozenset({z, a}), frozenset({z})) == {z, a}
    assert add(chain3, frozenset({0, 1}), frozenset({0, 1, 2})) == {0, 1, 2}


def test_add_commutative_idempotent(support2):
    subs = all_submodules(support2)
    for N in subs:
        assert add(support2, N, N) == N
        for N2 in subs:
            assert add(support2, N, N2) == add(support2, N2, N)


def test_all_submodules_matches_brute_force(support2, support3, chain3):
    for p in (support2, support3, chain3):
        assert list(all_submodules(p)) == brute_thick_sets(p)


def test_finite_principality(support2, support3, chain3, graded2):
    # every thick submodule is the principal of the sum of its members
    for N in all_submodules(support3):
        total = support3.zero
        for m in sorted(N):
            total = support3.sum[total][m]
        assert principal(support3, total) == N
    # so is the closure of any set, which add reads from the principal table
    for p in (support2, chain3, support3):
        for X in all_subsets(range(p.n_objects)):
            assert add(p, X, ()) == generate(p, X)[0]
    rng = random.Random(5)
    for p in (support_model(4), chain_model(10), graded2):
        for _ in range(200):
            X = rng.sample(range(p.n_objects), rng.randint(0, p.n_objects))
            assert add(p, X, ()) == generate(p, X)[0]


def test_principal_table_matches_oracle(support2, support3, chain3, graded2,
                                       restrict2):
    for p in (support2, support3, chain3, chain_model(6), graded2, restrict2):
        thick = brute_thick_sets(p)
        for m in range(p.n_objects):
            # minimal_thick_superset(p, {m}), the thick sets found once
            assert p.principals[m] == frozenset.intersection(
                *[s for s in thick if m in s])


def test_principal_table_matches_generate(split_probe):
    # also on presentations that fail validate: the table and generate
    # apply the same two rules, whether or not their fixpoint is thick.
    # Every valid model here stores (y, x) -> n with (x, y) -> n; storing
    # only the rotations of (b, a, z) gives (a, z) -> b but not (z, a) -> b.
    z, a, b, t = range(4)
    cat = split_probe.base
    one_way = self_module(replace(
        cat, triangles=rotation_closure({(b, a, z)}, cat.translate)))
    for p in (support_model(5), chain_model(10), split_probe, one_way):
        for m in range(p.n_objects):
            assert p.principals[m] == generate(p, {m})[0], (p.names, m)


def test_derived_tables_are_tuples(support3):
    assert isinstance(support3.decompositions, tuple)
    assert all(isinstance(row, tuple) for row in support3.decompositions)
    assert isinstance(support3.triangle_positions, tuple)
    assert isinstance(support3.principals, tuple)


def test_model_is_freed_after_last_reference():
    p = support_model(3)
    c = identity_operator(p)
    monoid_report(c)
    enumerate_smod(p)
    refs = [weakref.ref(p), weakref.ref(c)]
    del p, c
    gc.collect()
    assert [r() for r in refs] == [None, None]
