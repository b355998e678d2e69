import gc
import hashlib
import random
import weakref
from itertools import chain, combinations, permutations

import pytest

from ttg import (all_submodules, chain_model, enumerate_smod, generate,
                 identity_operator, is_thick, monoid_report, self_module,
                 support_model, validate, witnesses)
from ttg import docio
from ttg.presentation import (UnknownObjectError, ValidationReport,
                              is_self_module, rotation_closure)
from ttg.thick import GenerationError, _checked, _closure

from conftest import (bar, delta, graded_support_model, restriction_module,
                      summands)
from oracles import (all_subsets, brute_thick_sets, check_certificate,
                     implied_triangles, least_cofactor, minimal_thick_superset,
                     principals_by_worklist, split_facts, summands_by_scan,
                     thick_by_definition, thick_check_by_scan)
from oracles import _bar_steps as bar_steps_by_scan


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


def test_is_thick_raises_where_its_decision_is_not_exact(support2):
    # the scan of a set the decision rejects finds a violation; a decision
    # that rejects the thick {z, a} leaves none, and is_thick raises
    z, a, b, t = range(4)
    q = support2._replace()
    vars(q)["masks"] = tuple(row | (1 << b if m == a else 0)
                             for m, row in enumerate(support2.masks))
    with pytest.raises(RuntimeError, match="exact"):
        is_thick(q, {z, a})
    assert is_thick(support2, {z, a})


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


def test_generate_certificates_are_pinned(support2, glued, split_probe,
                                         one_way):
    # whole certificates (kind, stage, order, step data, discovery order)
    # at the scale of the CI pins, each checked against the rules before its
    # sha256 of repr(list(cert.records.items())) is compared
    s7 = support_model(7, bound=7)
    r77 = restriction_module(7, 7)
    g4 = graded_support_model(4)
    for p, seed, digest in (
            (s7, "a bc", "3051fbe8890cfe5f1f5f98128788e627"
                         "66c1a1f0b5ea0e4bf83c1da41d29eeac"),
            (s7, "abc defg", "1dcf408889310bab9ee0ea8f34fc3d3c"
                             "df9f1d3c0f95463eb86bcf13794a61b0"),
            (r77, "m3 m24 m96", "2416d7c309ccd4a6b176a794a89e34bb"
                                "46b2913367ac34485f2af862f94ad71e"),
            (r77, " ".join(r77.names), "eb4640de3a8c6dcb0d6de9e618642f79"
                                       "1377822876528f20c940156efe6eb8f4"),
            (g4, "1|2 4|8", "a96c459c732837ad801332587793ec44"
                            "1933a188d561bf2ff0c61d4f8e96b058")):
        X = frozenset(map(p.names.index, seed.split()))
        members, cert = generate(p, X)
        check_certificate(p, X, members, cert)
        assert hashlib.sha256(repr(list(cert.records.items())).encode()
                              ).hexdigest() == digest, (p.names[-1], seed)
    # where generate reads p.thirds (glued's extra triangles, and every
    # stored triangle where split fails): the certificates of every subset,
    # each checked against the rules, then one sha256 per model; the rule
    # fires for x and y popped, not for a member still in the queue, which
    # support2 without its split triangle (a, t, b) tells apart
    z, a, b, t = range(4)
    unsplit = self_module(support2.base._replace(
        triangles=support2.triangles - {(a, t, b)}))
    for p, digest in (
            (unsplit, "62cdd0daf5f296753b4beb1899f73863"
                      "8cdeb943b4dac2bdd9e26ee6c5c49bdb"),
            (glued, "6ae31a91bda1ae908881b810ffbaac44"
                    "95d3d321ab9b3a76e6bb7821299d5915"),
            (split_probe, "3c919742f0efeadc5d227427ca07b46d"
                          "97f2105151c64cd492f0717ed381f5c1"),
            (one_way, "187bef9cc1338f2bbac75a18790e3c32"
                      "f3c5500d2ce5568ff1204376397cd57d")):
        certs = []
        for X in all_subsets(range(p.n_objects)):
            members, cert = generate(p, X)
            check_certificate(p, X, members, cert)
            certs.append(list(cert.records.items()))
        assert hashlib.sha256(repr(certs).encode()).hexdigest() == digest, \
            sorted(p.triangles)


def _first_steps(steps):
    """The bar steps (n, (a, m, cofactor)) that are the first from their m
    to their n, in the order given."""
    seen, kept = set(), []
    for n, data in steps:
        if (data[1], n) not in seen:
            seen.add((data[1], n))
            kept.append((n, data))
    return kept


def test_orbit_steps_match_scan(support2, support3, chain3, graded2,
                                restrict2, downsets, split_probe, glued,
                                one_way):
    # each row is the full walk from m with only the first step to each n
    # kept; also on seeded one-edit mutants, where validate fails, a * m
    # repeats across a irregularly and the sum need not be commutative
    def agree(p):
        for m in range(p.n_objects):
            full = list(bar_steps_by_scan(p, {m}))
            assert list(p.orbit_steps[m]) == _first_steps(full), (p.names, m)
            dropped.append(len(full) - len(p.orbit_steps[m]))

    dropped, kinds, commutative = [], set(), set()
    for p in (support2, support3, chain3, graded2, restrict2, downsets,
              split_probe, glued, one_way, restriction_module(3, 2),
              graded_support_model(3)):
        agree(p)
    rng = random.Random(33)
    for p in (support2, chain3, graded2, restrict2, glued):
        for _ in range(40):
            kind, q = _one_edit(p, rng)
            agree(q)
            kinds.add((kind, validate(q).ok))
            commutative.add(q.sum == tuple(zip(*q.sum)))
    assert {("sum", False), ("action", False)} <= kinds
    assert commutative == {True, False}
    # the table leaves out steps the walk repeats
    assert max(dropped) > 0


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
    # the whole certificate, record by record, against the rules
    stages = []

    def agree(p, X):
        members, cert = generate(p, X)
        check_certificate(p, X, members, cert)
        stages.append(max(r.stage for r in cert.records.values()))

    # support2 storing only (t, a, b), not closed under rotation: t joins
    # {a, b} by the first rotation of its triangle, with two distinct
    # predecessors, which no rotation-closed model here gives
    z, a, b, t = range(4)
    head_first = support2._replace(triangles=frozenset({(t, a, b)}))
    # support2 with a + a = t and the rotations of (a, t, a) stored: the
    # split facts hold, and from {a} only the sum a + a, with x = y,
    # reaches t
    cat = support2.base
    doubled = self_module(cat._replace(
        sum=((z, a, b, t), (a, t, t, t), *cat.sum[2:]),
        triangles=cat.triangles | rotation_closure({(a, t, a)}, cat.translate)))
    assert split_facts(doubled)
    assert generate(doubled, {a})[1].records[t].data == ((a, t, a), a, a)
    for p in (support2, support3, chain3, restrict2, split_probe, glued,
              one_way, restriction_module(3, 2), head_first, doubled):
        for X in all_subsets(range(p.n_objects)):
            agree(p, X)
    rng = random.Random(17)
    # support_model(6): 64 objects and 10165 triangles, a long sorted scan
    for p, count in ((downsets, 150), (graded2, 150), (support_model(5), 150),
                     (chain_model(10), 150), (graded_support_model(3), 12),
                     (support_model(6, bound=6), 20)):
        for _ in range(count):
            agree(p, rng.sample(range(p.n_objects), rng.randint(0, 4)))
    # seeded one-edit mutants, which fail validate or change the triangles:
    # every subset, so bar's first step to each n is tested where the
    # action columns repeat irregularly
    kinds = set()
    for seed in range(4):
        rng = random.Random(seed)
        for p in (support3, chain3, restriction_module(3, 2)):
            kind, q = _one_edit(p, rng)
            kinds.add(kind)
            for X in all_subsets(range(q.n_objects)):
                agree(q, X)
    assert {"sum", "action"} <= kinds
    # some record derives from a record that is not a seed (glued records
    # t from b, itself derived from a and z)
    assert max(stages) >= 2


def test_certificates_do_not_depend_on_the_listing_order(
        support2, chain3, glued, split_probe, one_way, tmp_path, monkeypatch):
    # each model written as a document with its triangles listed in reverse
    # order, then loaded: the triangle set may iterate in another order, and
    # every certificate must stay the same, record for record; the seeded
    # one-edit mutants add extra triangles, several of which can give the
    # same delta step
    rng = random.Random(36)
    mutants = []
    for p in (support2, chain3):
        found = []
        while len(found) < 3:
            kind, q = _one_edit(p, rng)
            if kind == "orbit" and q.triangles - implied_triangles(q):
                found.append(q)
        mutants += found
    # split_probe, one_way and some mutants fail validate, which load enforces
    monkeypatch.setattr(docio, "validate", lambda p: ValidationReport())
    path = str(tmp_path / "reversed.json")
    reordered = 0
    for p in (glued, split_probe, one_way, *mutants):
        doc = docio.normalize_document({"category": {}}, p)
        doc["category"]["triangles"].reverse()
        docio.save(doc, path)
        q, _, _ = docio.load(path)
        assert q == p and q is not p
        reordered += list(q.triangles) != list(p.triangles)
        for X in all_subsets(range(p.n_objects)):
            members, cert = generate(q, X)
            expected = generate(p, X)
            assert (members, list(cert.records.items())) == \
                (expected[0], list(expected[1].records.items())), (p.triangles, X)
    assert reordered


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
                    # a is the least a with n a summand of a * m
                    assert a == min(
                        a2 for a2 in range(p.base.n_objects)
                        if n in summands_by_scan(p, p.action[a2][m]))
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


@pytest.mark.parametrize("X", [{99}, {1}])
def test_witnesses_reject_a_set_other_than_the_seed(support2, X):
    # neither {99} nor {1} regenerates t, which {a, b} generates
    _, cert = generate(support2, {1, 2})
    with pytest.raises(GenerationError, match="is not the seed"):
        witnesses(cert, 3, X)


@pytest.mark.parametrize("target", [True, 1.0])
def test_witnesses_reject_a_target_that_is_not_an_int_id(support2, target):
    # True == 1.0 == 1, the id of a, which {a, b} generates
    _, cert = generate(support2, {1, 2})
    with pytest.raises(GenerationError, match="is not in the generated submodule"):
        witnesses(cert, target, {1, 2})


def test_witnesses_visit_a_shared_ancestor_once(glued):
    # t comes from (a, b) and b from (a, z): the walk from t reaches a twice
    z, a, b, t = range(4)
    members, cert = generate(glued, {a})
    assert t in members
    assert cert.records[t].data[1:] == (a, b)
    assert cert.records[b].data[1:] == (a, z)
    assert witnesses(cert, t, {a}) == {a}


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


def _assert_split_index(p):
    """``p.split`` against the scan of the six facts, and ``p.thirds``
    against the permutations of the triangles the rule must scan: those
    outside ``implied_triangles`` where the facts hold, else every one."""
    assert p.split == split_facts(p), p.names
    scanned = p.triangles - implied_triangles(p) if p.split else p.triangles
    assert sorted((x, y, z) for x, row in enumerate(p.thirds)
                  for y, z, _ in row) == \
        sorted(chain.from_iterable(map(permutations, scanned))), p.names
    for x, row in enumerate(p.thirds):
        assert all(t in scanned and (x, y, z) in permutations(t)
                   for y, z, t in row), p.names
        # in sorted order of the triangles, whatever order p.triangles has
        assert [t for _, _, t in row] == sorted(t for _, _, t in row), p.names


def test_principal_table_matches_worklist(restrict2, split_probe, one_way,
                                         glued):
    for p in (support_model(6, bound=6), support_model(7, bound=7),
              graded_support_model(3), restrict2, split_probe, one_way, glued):
        assert p.principals == principals_by_worklist(p), p.names
        _assert_split_index(p)


def test_presentation_without_an_inverse_unit(support2):
    # a base translation that misses the unit has no T^-1(1), so fact 6
    # fails and the principal table reads every stored triangle
    p = self_module(support2.base._replace(translate=(0, 0, 0, 0)))
    assert not p.split
    _assert_split_index(p)
    for m in range(p.n_objects):
        assert p.principals[m] == generate(p, {m})[0], m
    for s in all_subsets(range(p.n_objects)):
        check = is_thick(p, s)
        assert (check.ok, check.condition, check.witness) == \
            thick_check_by_scan(p, s), sorted(s)
        assert _closure(p, s) == generate(p, s)[0], sorted(s)
    assert set(all_submodules(p)) == set(p.principals)


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


def _one_edit(p, rng):
    """p with one seeded edit, as (kind, presentation): a sum or action
    cell (the tensor, when K acts on itself), two entries of T swapped, a
    stored triangle dropped, or the rotations of a seeded triple added."""
    own = is_self_module(p)
    sec, n = (p.base if own else p), p.n_objects

    def edit(**fields):
        return self_module(p.base._replace(**fields)) if own else p._replace(**fields)

    kind = rng.choice(["sum", "action", "translate", "drop", "orbit"])
    if kind == "sum":
        return kind, edit(sum=_edit_cell(sec.sum, n, rng))
    if kind == "action":
        name = "tensor" if own else "action"
        return kind, edit(**{name: _edit_cell(getattr(sec, name), n, rng)})
    if kind == "translate":
        T = list(sec.translate)
        i, j = rng.sample(range(n), 2)
        T[i], T[j] = T[j], T[i]
        return kind, edit(translate=tuple(T))
    if kind == "drop":
        return kind, edit(triangles=sec.triangles - {rng.choice(sorted(sec.triangles))})
    triple = tuple(rng.randrange(n) for _ in range(3))
    return kind, edit(triangles=sec.triangles | rotation_closure({triple}, sec.translate))


def test_principal_table_reads_only_the_extra_triangles(
        support2, support3, chain3, graded2, restrict2, downsets, split_probe,
        glued, one_way):
    """The table against the frozenset worklist, which scans every stored
    triangle and adds no sums, on models where the six facts of
    ``principals`` hold and on models where one fails."""
    z, a, b, t = range(4)
    probe_azb = self_module(split_probe.base._replace(
        triangles=split_probe.triangles | rotation_closure({(a, z, b)},
                                                           split_probe.translate)))
    graded3 = graded_support_model(3)
    facts = {}
    for p in (support2, support3, chain3, graded2, restrict2, downsets,
              split_probe, glued, one_way, probe_azb, graded3,
              restriction_module(3, 2)):
        assert p.principals == principals_by_worklist(p), p.names
        _assert_split_index(p)
        facts[p] = split_facts(p)
    assert not facts[split_probe] and not facts[probe_azb] and not facts[one_way]
    assert all(facts[p] for p in (support2, support3, chain3, graded2, restrict2,
                                  downsets, glued, graded3))
    # glued's extra triangles are exactly the rotations of (a, z, b)
    assert glued.triangles - implied_triangles(glued) == rotation_closure(
        {(a, z, b)}, glued.translate)
    # T != id: the stored rotations (x + y, y, Tx) and (y, Tx, T(x + y))
    # are not split triples, and each is implied
    for p in (graded2, graded3):
        rotated = {(u, v, w) for u, v, w in p.triangles if p.sum[u][w] != v}
        assert p.translate != tuple(range(p.n_objects))
        assert rotated and rotated <= implied_triangles(p)

    rng = random.Random(28)
    outcomes = set()
    for p in (support2, chain3, graded2, restrict2, glued):
        for _ in range(220):
            kind, q = _one_edit(p, rng)
            assert q.principals == principals_by_worklist(q), (kind, q.names)
            _assert_split_index(q)
            holds = split_facts(q)
            outcomes.add((kind, holds, holds and bool(q.triangles - implied_triangles(q))))
    # both branches run, and the narrowed scan meets extra triangles
    assert {holds for _, holds, _ in outcomes} == {True, False}
    assert ("orbit", True, True) in outcomes
    assert {kind for kind, _, _ in outcomes} == {"sum", "action", "translate",
                                                "drop", "orbit"}


def _sum_closed_samples(p, rng, count):
    """Seeded sets holding zero and closed under sums and summands, every
    other one also under the action: the sets whose verdict, where the
    six facts hold, rests on the triangle forms ``p.thirds`` leaves out."""
    summands = [summands_by_scan(p, x) for x in range(p.n_objects)]
    for i in range(count):
        s = {p.zero} | set(rng.sample(range(p.n_objects), rng.randint(1, 3)))
        while True:
            grown = s.union(*(summands[x] for x in s),
                            (p.sum[x][y] for x in s for y in s))
            if i % 2:
                grown.update(row[m] for row in p.action for m in s)
            if grown == s:
                break
            s = grown
        yield frozenset(s)


def test_is_thick_matches_scan_where_triangles_are_skipped(support2, chain3,
                                                           graded2):
    def agree(p, s):
        check = is_thick(p, s)
        assert (check.ok, check.condition, check.witness) == \
            thick_check_by_scan(p, s), (p.names, sorted(p.triangles), sorted(s))
        return check.condition

    # T != id: the rotated forms (x + y, y, Tx) and (y, Tx, T(x + y)) are
    # stored, and is_thick reads none of them
    assert split_facts(graded2) and not any(graded2.thirds)
    assert graded2.translate != tuple(range(graded2.n_objects))
    rng = random.Random(29)
    objects = range(graded2.n_objects)
    samples = [*_sum_closed_samples(graded2, rng, 200),
               *(frozenset(rng.sample(objects, rng.randint(0, 16))) | {0}
                 for _ in range(200))]
    assert {agree(graded2, s) for s in samples} >= {"", "action"}
    # split models with extra triangles: every subset of seeded mutants
    # that add the rotations of one triple
    conditions = set()
    for p in (support2, chain3):
        mutants = set()
        for _ in range(400):
            kind, q = _one_edit(p, rng)
            if (kind == "orbit" and split_facts(q)
                    and q.triangles - implied_triangles(q)):
                mutants.add(q)
        assert len(mutants) >= 5, p.names
        for q in mutants:
            for s in all_subsets(range(q.n_objects)):
                conditions.add(agree(q, s))
    assert {"", "triangle"} <= conditions


def test_principal_path_builds_no_mask_rows():
    # only is_thick reads ``masks``, the action and summand rows
    p = support_model(6, bound=6)
    p.principals
    c = identity_operator(p)
    c.completion
    monoid_report(c)
    assert "masks" not in vars(p)
    assert is_thick(p, p.principals[5]) and "masks" in vars(p)


def test_derived_tables_are_tuples(support3):
    assert isinstance(support3.decompositions, tuple)
    assert all(isinstance(row, tuple) for row in support3.decompositions)
    assert isinstance(support3.sorted_triangles, tuple)
    assert isinstance(support3.principals, tuple)
    assert all(isinstance(row, frozenset) for row in support3.principals)
    assert isinstance(support3.masks, tuple)
    assert all(isinstance(row, int) for row in support3.masks)
    assert isinstance(support3.thirds, tuple)
    assert all(isinstance(row, tuple) for row in support3.thirds)
    assert isinstance(support3.orbit_steps, tuple)
    assert all(isinstance(row, tuple) for row in support3.orbit_steps)


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
