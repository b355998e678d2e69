"""Thick K-submodules: membership checking, generation fixpoint, witnesses.

Submodules are plain frozensets of object ids over a fixed
ModulePresentation.  The generation fixpoint alternates a summand-of-orbit
step (bar) and a triangle-completion step (delta) and records a provenance
certificate from which finite witness sets are extracted.
"""

from collections import namedtuple
from functools import reduce
from itertools import compress
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
    kind "bar": data = (a, m, cofactor) with self + cofactor = a * m, m
    earlier, a the least such and then cofactor the least such.
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


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to selector bytes


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

    s is thick exactly when it holds zero and, for every m and x in s,
    ``p.masks[m]`` (each a * m, both terms of each sum equal to m), the sums
    m + x and x + m (the table need not be commutative where ``validate``
    fails) and each z with (x, z) in ``p.thirds[m]`` lie inside s.  A set
    that fails is scanned in the order zero, action, summand, triangle, sum
    for the first violation; the triangle witness is the first step of
    ``_delta_steps`` (whose objects all lie outside s), with its triangle.

    The decision is exact on every presentation.  Where a fact of
    ``p.split`` fails, ``thirds`` holds every stored triangle.  Where they
    hold, a triangle (a, b, c) with b = a + c needs no fact: the sums give
    b, and both terms of b are in ``masks[b]``.  The rotated forms
    (x + y, y, Tx) and (y, Tx, T(x + y)) need only facts 5 and 6: fact 5
    puts T(m) = T(1) * m in ``masks[m]``, and fact 6 makes the action row
    of T^-1(1), also in ``masks``, the inverse of T.  The test
    ``_closure(p, s) == s`` is not used: it is sound only where
    ``validate`` passes.  Since the decision is exact, the scan of a set
    it rejects finds a violation; one that finds none raises
    ``RuntimeError``.
    """
    s = _checked(p, s)
    if p.zero not in s:
        return ThickCheck(False, "zero", (p.zero,))
    masks, thirds = p.masks, p.thirds
    members = sorted(s)
    inside = sum(1 << m for m in s)
    reached = 0
    for m in members:
        if not s.issuperset(map(p.sum[m].__getitem__, members)):
            break
        reached |= masks[m]
        for x, third in thirds[m]:
            if inside >> x & 1:
                reached |= third
    else:
        if not reached & ~inside:
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
        return ThickCheck(False, "triangle", (t, n))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if m in s and m2 in s and p.sum[m][m2] not in s:
                return ThickCheck(False, "sum", (m, m2, p.sum[m][m2]))
    raise RuntimeError("is_thick: the decision found %r not thick but no "
                       "condition fails; it is exact on every presentation"
                       % (members,))


def _bar_steps(p, X, scanned=frozenset()):
    """Yield (n, (a, m, cofactor)), the first step to each summand n of
    some a * m, for each m in X and not in ``scanned``: the steps that a
    pass over ``scanned``, a subset of X, did not yield.

    Walks m in increasing order and reads its row of ``p.orbit_steps``:
    the least a, then n in ``p.decompositions`` order, and the least n2
    with n + n2 = a * m as the cofactor.
    """
    for m in sorted(X - scanned):
        yield from p.orbit_steps[m]


def _delta_steps(p, X, scanned=frozenset()):
    """Yield (n, (t, pred1, pred2)) for each rotation (n, pred1, pred2) of
    a stored triangle t with pred1 and pred2 in X and n not in X, and with
    pred1 or pred2 outside ``scanned``: the steps that a pass over
    ``scanned``, a subset of X, did not yield.

    Only the triangles ``p.triangle_bits`` marks for a member of X outside
    ``scanned`` are read, none when X equals ``scanned``: every step has
    such a member among its predecessors, and the triangles left out hold
    none.  Nor is a closed triangle read, one whose entries all lie in X,
    and none at all when X holds every object: a step's object lies
    outside X.  The closed ones are masked out with the OR of the rows of
    the objects outside X, one OR per non-member, so only when there are
    no more of them than members; on smaller sets the mask costs more
    than the triangles it skips.  They are read in sorted order, and the
    rotations of t = (a, b, c) are tested in the order (a, b, c),
    (b, c, a), (c, a, b): the order of the certificates of ``generate``
    and the witnesses of ``is_thick``.  A rotation whose object is in X
    is not yielded: ``generate`` records no step to a member, and
    ``is_thick`` wants a step to an object outside s.
    """
    new = X - scanned
    if not new or len(X) == p.n_objects:
        return
    rows = p.triangle_bits
    held = reduce(or_, map(rows.__getitem__, new))
    if 2 * len(X) >= p.n_objects:  # no more objects outside X than in it
        held &= reduce(or_, map(rows.__getitem__, p._ids - X))
    # byte i of the selector is bit i of held
    for t in compress(p.sorted_triangles, bin(held)[:1:-1].encode().translate(_BITS)):
        a, b, c = t
        if b in X and c in X and a not in X:
            yield a, (t, b, c)
        if c in X and a in X and b not in X:
            yield b, (t, c, a)
        if a in X and b in X and c not in X:
            yield c, (t, a, b)


def generate(p, X):
    """Smallest thick submodule containing X, with a provenance certificate.

    Iterates X_{i+1} = delta(bar(X_i)) from X_0 = X united with {zero},
    bar and delta being the rules whose steps ``_bar_steps`` and
    ``_delta_steps`` yield; the zero seed makes delta monotone from stage
    0.  Each stage runs the bar steps over X_i, then the delta steps over
    the members after the bar pass, recording the first step that reaches
    each new object.  Stabilizes within |objects| iterations.

    The certificate is the one the full rules record.  Each pass of a rule
    is given the set its previous pass scanned (none at stage 1), and so
    yields only the steps from members added since: a skipped bar step
    comes from a member whose orbit an earlier pass walked, and a skipped
    delta step has both predecessors in the earlier set, which yielded it,
    so its object is recorded.  From each m, bar yields only the first
    step to each summand n: the steps from m are consecutive, so a later
    one to n finds n recorded.  Nor does a delta pass read a closed
    triangle, one with every entry a member, once no more objects lie
    outside the members than in them: its rotations are steps to members,
    which record nothing.  The steps kept come in the same order.
    """
    X = _checked(p, X)
    records = {}  # insertion order is discovery order
    for m in sorted(X | {p.zero}):
        records[m] = Provenance("seed", 0, len(records), ())
    stage, scanned = 0, {"bar": frozenset(), "delta": frozenset()}
    while True:
        stage += 1
        before = len(records)
        for kind, steps in (("bar", _bar_steps), ("delta", _delta_steps)):
            S = frozenset(records)
            for n, data in steps(p, S, scanned[kind]):
                if n not in records:
                    records[n] = Provenance(kind, stage, len(records), data)
            scanned[kind] = S
        if len(records) == before:
            break
    return frozenset(records), GenerationCertificate(seed=X, records=records)


def witnesses(cert, m, X):
    """Finite witness set: provenance-tree leaves of m intersected with X.

    Returns W with m in generate(p, W); minimal along the recorded tree,
    not globally minimal.  An m that is not an int member id raises, as
    does an X other than the certificate's seed.
    """
    X = frozenset(X)
    if X != cert.seed:
        raise GenerationError("%r is not the seed of the certificate" % (set(X),))
    if type(m) is not int or m not in cert.records:
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


def all_submodules(p):
    """Every thick submodule, as deduplicated principals.

    Complete because each thick N equals the principal submodule of the sum
    of its members (summand biconditional plus finiteness); cross-checked
    against brute-force subset filtering in the tests.
    """
    return tuple(sorted(set(p.principals), key=_point_key))
