import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from ttg import (CategoryPresentation, ModulePresentation, chain_model,
                 self_module, support_model, table_operator)
from ttg.presentation import rotation_closure

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
    base = support_model(n).base
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
def split_probe():
    """support_model(2) with its triangles cut to the rotations of the
    (x, x, 0) triangles, so the split triangles (x, x + y, y) are stored
    only where x or y is zero: 9 of the 16 are missing."""
    cat = support_model(2).base
    kept = rotation_closure({(x, x, cat.zero) for x in range(cat.n_objects)},
                            cat.translate)
    return self_module(replace(cat, triangles=kept))


@pytest.fixture(scope="session")
def promote(chain3):
    return table_operator(chain3, {0: {0}, 1: {0, 1, 2},
                                   2: {0, 1, 2, 3}, 3: {0, 1, 2, 3}})


@pytest.fixture(scope="session")
def models_dir():
    return MODELS_DIR
