"""Thick K-submodules: membership checking, generation fixpoint, witnesses.

Submodules are plain frozensets of object ids over a fixed
ModulePresentation.  The generation fixpoint alternates a summand-of-orbit
step (bar) and a triangle-completion step (delta) and records a provenance
certificate from which finite witness sets are extracted.
"""

from collections import namedtuple
from functools import reduce
from operator import or_


class GenerationError(Exception):
    pass


class ThickCheck(namedtuple("ThickCheck", "ok condition witness",
                            defaults=("", ()))):
    __slots__ = ()

    def __bool__(self):
        return self.ok


class Provenance(namedtuple("Provenance", "kind stage order data")):
    """How an object entered the generated submodule.

    kind "seed": stage-0 member.
    kind "bar": data = (a, m, cofactor) with self + cofactor = a * m, m earlier.
    kind "delta": data = (triangle, pred1, pred2), both predecessors earlier;
    (self, pred1, pred2) is the first rotation, in ``_delta_steps`` order,
    with pred1 and pred2 among the members when its stage's delta pass
    began and self not.

    ``stage`` is the fixpoint iteration at which the object became a member;
    ``order`` is a global discovery counter, strictly increasing along
    provenance edges (bar and delta discoveries inside one iteration tie on
    stage, so strictness lives on order).
    """
    __slots__ = ()


# records maps each object id to its Provenance.
GenerationCertificate = namedtuple("GenerationCertificate", "seed records")


def _point_key(s):
    """Size, then sorted members: fixes every report's point indices."""
    return (len(s), sorted(s))


def _checked(p, X):
    """X as a frozenset, after checking that every id is a module object.

    One subset test against the object ids, and a type test because 1.0
    equals the id 1; only a set that fails either, bools included, is
    checked id by id, which raises for the first unknown id.
    """
    X = frozenset(X)
    if not (X <= p._ids and set(map(type, X)) <= {int}):
        for m in X:
            p.check_object(m)
    return X


def is_thick(p, s):
    """Decide the five thick-submodule conditions, with a violation witness.

    The decision reads the model's mask rows (``p.masks``) in |s|^2 steps:
    s is thick exactly when it holds zero and, for every m and x in s,
    ``act[m]`` (the action), ``parts[m]`` (the summands), ``pair[m][x]``
    (the triangles) and m + x (the sums) lie inside s.  ``pair`` is
    symmetric, so it is read once per unordered pair {m, x}; the sum table
    is read in both orders, since it need not be commutative on a
    presentation that fails ``validate``.  A set that fails is scanned in
    the order zero, action, summand, triangle, sum, for the first violated
    condition and its witness; the triangle witness is the first step of
    ``_delta_steps`` whose object lies outside s, with its triangle.

    The test ``_closure(p, s) == s`` is not used: it is sound only where
    the sum axioms and split triangles that ``validate`` checks hold, and
    on a presentation that fails ``validate`` it can call a set thick that
    is not closed under sums.  The masks check the conditions themselves,
    so the decision is exact on every presentation.
    """
    s = _checked(p, s)
    if p.zero not in s:
        return ThickCheck(False, "zero", (p.zero,))
    act, parts, pair = p.masks.act, p.masks.parts, p.masks.pair
    members = sorted(s)
    reached = 0
    for i, m in enumerate(members):
        if not s.issuperset(map(p.sum[m].__getitem__, members)):
            break
        reached |= (act[m] | parts[m]
                    | reduce(or_, map(pair[m].__getitem__, members[i:])))
    else:
        if not reached & ~sum(1 << m for m in s):
            return ThickCheck(True)
    for a in range(p.base.n_objects):
        for m in members:
            if p.action[a][m] not in s:
                return ThickCheck(False, "action", (a, m, p.action[a][m]))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if p.sum[m][m2] in s and not (m in s and m2 in s):
                return ThickCheck(False, "summand", (m, m2, p.sum[m][m2]))
    for n, (t, _, _) in _delta_steps(p, s):
        if n not in s:
            return ThickCheck(False, "triangle", (t, n))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if m in s and m2 in s and p.sum[m][m2] not in s:
                return ThickCheck(False, "sum", (m, m2, p.sum[m][m2]))
    return ThickCheck(True)


def _bar_steps(p, X):
    """Yield (n, (a, m, cofactor)) for each summand n of each a * m, m in X.

    Walks m in increasing order, then a, then n; the cofactor is the least
    n2 with n + n2 = a * m, read from ``p.decompositions``.
    """
    for m in sorted(X):
        for a in range(p.base.n_objects):
            for n, cofactor in p.decompositions[p.action[a][m]]:
                yield n, (a, m, cofactor)


def _delta_steps(p, X):
    """Yield (n, (t, pred1, pred2)) for each rotation (n, pred1, pred2) of
    a stored triangle t with pred1 and pred2 in X.

    The triangles are read once each, in sorted order, and the rotations
    of t = (a, b, c) are tested in the order (a, b, c), (b, c, a),
    (c, a, b): the order of the certificates of ``generate`` and the
    witnesses of ``is_thick``.
    """
    for t in p.sorted_triangles:
        a, b, c = t
        if b in X and c in X:
            yield a, (t, b, c)
        if c in X and a in X:
            yield b, (t, c, a)
        if a in X and b in X:
            yield c, (t, a, b)


def generate(p, X):
    """Smallest thick submodule containing X, with a provenance certificate.

    Iterates X_{i+1} = delta(bar(X_i)) from X_0 = X united with {zero},
    bar and delta being the rules whose steps ``_bar_steps`` and
    ``_delta_steps`` yield; the zero seed makes delta monotone from stage
    0.  Each stage runs the bar steps over X_i, then the delta steps over
    the members after the bar pass, recording the first step that reaches
    each new object.
    Stabilizes within |objects| iterations since membership only grows.
    """
    X = _checked(p, X)
    records = {}  # insertion order is discovery order
    for m in sorted(X | {p.zero}):
        records[m] = Provenance("seed", 0, len(records), ())
    stage = 0
    while True:
        stage += 1
        before = len(records)
        for kind in ("bar", "delta"):
            S = frozenset(records)
            steps = _bar_steps(p, S) if kind == "bar" else _delta_steps(p, S)
            for n, data in steps:
                if n not in records:
                    records[n] = Provenance(kind, stage, len(records), data)
        if len(records) == before:
            break
    return frozenset(records), GenerationCertificate(seed=X, records=records)


def witnesses(cert, m, X):
    """Finite witness set: provenance-tree leaves of m intersected with X.

    Returns W with m in generate(p, W); minimal along the recorded tree,
    not globally minimal.
    """
    X = frozenset(X)
    if m not in cert.records:
        raise GenerationError("object %r is not in the generated submodule" % (m,))
    leaves = set()
    seen = set()
    stack = [m]
    while stack:
        o = stack.pop()
        if o in seen:
            continue
        seen.add(o)
        rec = cert.records[o]
        if rec.kind == "seed":
            if o in X:
                leaves.add(o)
        elif rec.kind == "bar":
            stack.append(rec.data[1])
        else:
            stack.extend(rec.data[1:])
    return frozenset(leaves)


def _generator(p, X):
    """g_X, the sum of X's members, starting from zero."""
    g = p.zero
    for m in sorted(_checked(p, X)):
        g = p.sum[g][m]
    return g


def _closure(p, X):
    """The smallest thick submodule containing X: K(g), g the sum of X.

    A thick submodule holding X holds g, by sum closure; K(g) holds every
    summand of g, so every member of X, by summand closure.  Both steps use
    only the sum axioms that ``validate`` checks.
    """
    return p.principals[_generator(p, X)]


def add(p, N, N2):
    """N + N': the smallest thick submodule containing both."""
    return _closure(p, frozenset(N) | frozenset(N2))


def all_submodules(p):
    """Every thick submodule, as deduplicated principals.

    Complete because each thick N equals the principal submodule of the sum
    of its members (summand biconditional plus finiteness); cross-checked
    against brute-force subset filtering in the tests.
    """
    return tuple(sorted(set(p.principals), key=_point_key))
