import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from ttg import (CategoryPresentation, ModulePresentation, all_submodules,
                 chain_model, division, from_family, identity_operator,
                 radical, self_module, support_model, table_operator)
from ttg.docio import load
from ttg.operators import OperatorSpec
from ttg.presentation import rotation_closure

from oracles import _delta_steps as delta_steps_by_scan
from oracles import summands_by_scan, triangle_positions

MODELS_DIR = os.path.join(os.path.dirname(__file__), "..", "models")


@pytest.fixture(scope="session")
def support2():
    return support_model(2)


@pytest.fixture(scope="session")
def support3():
    return support_model(3)


@pytest.fixture(scope="session")
def chain3():
    return chain_model(3)


def bar(p, X):
    """The bar rule: the targets of the bar steps ``generate`` reads, from
    ``p.orbit_steps``."""
    return frozenset(n for m in X for n, _ in p.orbit_steps[m])


def delta(p, X):
    """The delta rule: the targets of every rotation whose predecessors lie
    in X, as ``generate_by_scan`` walks them."""
    return frozenset(n for n, _ in delta_steps_by_scan(triangle_positions(p), X))


def summands(p, x):
    """The summands of x, read from ``p.decompositions``, once they equal
    the ones a scan of the sum table finds."""
    found = frozenset(n for n, _ in p.decompositions[x])
    assert found == summands_by_scan(p, x)
    return found


def graded_support_model(n):
    """K acting on itself, K the pairs (A, B) of subsets of n atoms: sum is
    componentwise union, T swaps A and B, (A, B) * (C, D) is
    (A&C | B&D, A&D | B&C), the unit is (full, empty) and the triangles are
    (x, x + y, y), closed under rotation.  Object A + B * 2**n is (A, B)."""
    size = 1 << n
    pairs = [(x % size, x // size) for x in range(size * size)]
    index = {pair: x for x, pair in enumerate(pairs)}
    objs = range(len(pairs))
    tensor = tuple(tuple(index[(a & c | b & d, a & d | b & c)]
                         for c, d in pairs) for a, b in pairs)
    translate = tuple(index[(b, a)] for a, b in pairs)
    cat = CategoryPresentation(
        names=tuple("%d|%d" % pair for pair in pairs),
        zero=0,
        unit=index[(size - 1, 0)],
        sum=tuple(tuple(x | y for y in objs) for x in objs),
        tensor=tensor,
        translate=translate,
        triangles=rotation_closure(
            {(x, x | y, y) for x in objs for y in objs}, translate),
    )
    return self_module(cat)


@pytest.fixture(scope="session")
def graded2():
    return graded_support_model(2)


def restriction_module(n, k):
    """support_model(n) acting on the subsets of its first k atoms by
    A * m = A & m: a genuine module M != K with union as its sum, identity
    translation and the triangles (x, x + y, y), closed under rotation."""
    base = support_model(n, bound=n).base
    objs = range(1 << k)
    translate = tuple(objs)
    return ModulePresentation(
        base=base,
        names=base.names[:1] + tuple("m%d" % x for x in objs[1:]),
        zero=0,
        sum=tuple(tuple(x | y for y in objs) for x in objs),
        translate=translate,
        triangles=rotation_closure(
            {(x, x | y, y) for x in objs for y in objs}, translate),
        action=tuple(tuple(a & x for x in objs) for a in range(base.n_objects)),
    )


@pytest.fixture(scope="session")
def restrict2():
    return restriction_module(2, 1)


@pytest.fixture(scope="session")
def downsets():
    """K acting on itself, K the 12 down-sets of the poset a, b, c, d with
    d above a as its one comparability: sum is union, tensor intersection,
    identity translation and the triangles (x, x + y, y), closed under
    rotation.  A distributive lattice that is not Boolean: {a} has no
    complement."""
    masks = sorted((m for m in range(16) if not m & 8 or m & 1),
                   key=lambda m: (bin(m).count("1"), m))
    index = {m: x for x, m in enumerate(masks)}
    objs = range(len(masks))
    sum_t = tuple(tuple(index[masks[x] | masks[y]] for y in objs) for x in objs)
    cat = CategoryPresentation(
        names=("z",) + tuple("".join(e for i, e in enumerate("abcd") if m >> i & 1)
                             for m in masks[1:-1]) + ("t",),
        zero=0,
        unit=len(masks) - 1,
        sum=sum_t,
        tensor=tuple(tuple(index[masks[x] & masks[y]] for y in objs) for x in objs),
        translate=tuple(objs),
        triangles=rotation_closure(
            {(x, sum_t[x][y], y) for x in objs for y in objs}, tuple(objs)),
    )
    return self_module(cat)


@pytest.fixture(scope="session")
def split_probe():
    """support_model(2) with its triangles cut to the rotations of the
    (x, x, 0) triangles, so the split triangles (x, x + y, y) are stored
    only where x or y is zero: 9 of the 16 are missing."""
    cat = support_model(2).base
    kept = rotation_closure({(x, x, cat.zero) for x in range(cat.n_objects)},
                            cat.translate)
    return self_module(cat._replace(triangles=kept))


@pytest.fixture(scope="session")
def glued():
    """support_model(2) with its triangles and the rotations of (a, z, b):
    a valid model whose principals need the triangle rule.  The orbit rule
    alone gives K(a) = {z, a}; the triangle (a, z, b) adds b, and the split
    triangle (a, t, b) then adds t, so K(a) = K(b) = {z, a, b, t}."""
    z, a, b, t = range(4)
    cat = support_model(2).base
    return self_module(cat._replace(triangles=cat.triangles | rotation_closure(
        {(a, z, b)}, cat.translate)))


@pytest.fixture(scope="session")
def promote(chain3):
    return table_operator(chain3, {0: {0}, 1: {0, 1, 2},
                                   2: {0, 1, 2, 3}, 3: {0, 1, 2, 3}})


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR


def random_family_operator(p, rng):
    """The family operator of a seeded sample of thick submodules, together
    with the full module, closed under intersection."""
    subs = all_submodules(p)
    members = {frozenset(range(p.n_objects))}
    members |= set(rng.sample(subs, rng.randint(0, len(subs))))
    while True:
        more = {f & g for f in members for g in members} - members
        if not more:
            return from_family(p, members)
        members |= more


@pytest.fixture(scope="session")
def operator_cases(support2, support3, chain3, graded2):
    """Operators on which the derived checks are compared with the oracles:
    identity and every named operator of the shipped models; identity and
    radical on support_model(4), chain_model(6) and graded2; division by ab
    on support_model(4); seeded table, family and raw principal-table
    operators (raw tables need be neither thick nor extensive, with or
    without the repair); and an operator that is not extensive."""
    cases = []
    for name in ("support2", "support3", "chain3"):
        p, operators, _ = load(os.path.join(MODELS_DIR, name + ".json"))
        cases += [identity_operator(p)] + [operators[k] for k in sorted(operators)]
    support4 = support_model(4)
    for p in (support4, chain_model(6), graded2):
        cases += [identity_operator(p), radical(p)]
    cases.append(division(support4, {support4.names.index("ab")}))
    rng = random.Random(11)
    for p in (support2, chain3, support3):
        subs = all_submodules(p)
        objects = range(p.n_objects)
        for _ in range(24):
            cases.append(table_operator(
                p, {m: rng.choice([N for N in subs if m in N]) for m in objects}))
        for _ in range(12):
            cases.append(random_family_operator(p, rng))
        for _ in range(12):
            table = tuple(frozenset(rng.sample(objects, rng.randint(0, p.n_objects)))
                          for _ in objects)
            cases.append(OperatorSpec("table", p, table, repair=rng.random() < 0.5))
    cases.append(OperatorSpec("table", support2,
                              (frozenset({0}),) * support2.n_objects))
    return tuple(cases)
