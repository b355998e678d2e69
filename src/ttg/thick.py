"""Thick K-submodules: membership checking, generation fixpoint, witnesses.

Submodules are plain frozensets of object ids over a fixed
ModulePresentation.  The generation fixpoint is a worklist that applies a
summand-of-orbit step (bar) and a triangle-completion step (delta) to each
new member and records a provenance certificate, from which finite witness
sets are extracted.
"""

from collections import namedtuple


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
    kind "delta": data = (triangle, pred1, pred2), both predecessors earlier,
    and (self, pred1, pred2) a rotation of the stored triangle.  A sum
    y + x is such a record too, with the split triangle (y, y + x, x),
    whose rotation (y + x, x, y) gives it.

    ``stage`` is the derivation depth: 0 for a seed, else 1 + the largest
    stage of the predecessors.  ``order`` is the number of records made
    before this one, so it strictly increases along provenance edges.
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

    s is thick exactly when it holds zero and, for every m and x in s,
    ``p.masks[m]`` (each a * m, both terms of each sum equal to m), the sums
    m + x and x + m (the table need not be commutative where ``validate``
    fails) and each z with (x, z, t) in ``p.thirds[m]`` lie inside s.  A set
    that fails is scanned in the order zero, action, summand, triangle, sum
    for the first violation; the triangle witness is the first triangle of
    ``p.sorted_triangles`` with exactly one entry outside s, and that entry.

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
        for x, z, _ in thirds[m]:
            if inside >> x & 1:
                reached |= 1 << z
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
    for t in p.sorted_triangles:
        outside = [v for v in t if v not in s]
        if len(outside) == 1:
            return ThickCheck(False, "triangle", (t, outside[0]))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if m in s and m2 in s and p.sum[m][m2] not in s:
                return ThickCheck(False, "sum", (m, m2, p.sum[m][m2]))
    raise RuntimeError("is_thick: the decision found %r not thick but no "
                       "condition fails; it is exact on every presentation"
                       % (members,))


def generate(p, X):
    """Smallest thick submodule containing X, with a provenance certificate.

    The worklist of ``p.principals``, run from X united with {zero} with a
    FIFO queue.  Each popped member y applies the rules once, paired with
    every member popped before it and with y itself, and each object it
    reaches that has no record yet is recorded by the first rule that
    reached it, in this order:

    - bar: each summand n of some a * y, from ``p.orbit_steps[y]``;
    - sum, where ``p.split`` holds: y + x for each popped x, in pop order.
      By split fact 1 the triangle (y, y + x, x) is stored, and
      (y + x, x, y) is one of its rotations, so the sum is recorded as the
      delta step it is, with data ((y, y + x, x), x, y);
    - delta: the z of each entry (x, z, t) of ``p.thirds[y]`` with x
      popped, recorded as the rotation of t that puts z first.

    A record's stage is its derivation depth, 1 + the largest stage of its
    predecessors, and its order the number of records before it.  The
    FIFO queue pops the members in stage order, so every predecessor is
    popped by y and has a stage no larger than y's: a record made from y
    has stage 1 + y's.  The member set is the principal table's fixpoint, also where ``validate``
    fails: the sums are added only where the split facts imply them.  The
    certificate depends only on the model, not on the order in which its
    document lists the triangles, since ``p.thirds`` keeps sorted order.
    """
    X = _checked(p, X)
    s, steps, thirds, split = p.sum, p.orbit_steps, p.thirds, p.split
    queue = sorted(X | {p.zero})  # the records, in discovery order
    records = {m: Provenance("seed", 0, i, ()) for i, m in enumerate(queue)}

    def record(n, kind, stage, data):
        records[n] = Provenance(kind, stage, len(records), data)
        queue.append(n)

    members = []  # the popped prefix of the queue
    for y in queue:
        members.append(y)
        depth = records[y].stage + 1
        for n, data in steps[y]:
            if n not in records:
                record(n, "bar", depth, data)
        row = s[y]
        for x in members if split else ():
            n = row[x]
            if n not in records:
                record(n, "delta", depth, ((y, n, x), x, y))
        for x, n, t in thirds[y]:
            # x is popped when its order is below the count of popped members
            if n not in records and x in records and records[x].order < len(members):
                i = t.index(n)  # n is new, so neither x nor y: it occurs once
                record(n, "delta", depth, (t, t[i - 2], t[i - 1]))  # t[i+1], t[i+2]
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
