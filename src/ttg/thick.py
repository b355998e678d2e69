"""Thick K-submodules: membership checking, generation fixpoint, witnesses.

Submodules are plain frozensets of object ids over a fixed
ModulePresentation.  The generation fixpoint alternates a summand-of-orbit
step (bar) and a triangle-completion step (delta) and records a provenance
certificate from which finite witness sets are extracted.
"""

from dataclasses import dataclass


class GenerationError(Exception):
    pass


@dataclass(frozen=True)
class ThickCheck:
    ok: bool
    condition: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Provenance:
    """How an object entered the generated submodule.

    kind "seed": stage-0 member.
    kind "bar": data = (a, m, cofactor) with self + cofactor = a * m, m earlier.
    kind "delta": data = (triangle, pred1, pred2), both predecessors earlier.

    ``stage`` is the fixpoint iteration at which the object became a member;
    ``order`` is a global discovery counter, strictly increasing along
    provenance edges (bar and delta discoveries inside one iteration tie on
    stage, so strictness lives on order).
    """
    kind: str
    stage: int
    order: int
    data: tuple


@dataclass
class GenerationCertificate:
    seed: frozenset
    records: dict  # object id -> Provenance


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
    """Decide the four thick-submodule conditions, with a violation witness."""
    s = _checked(p, s)
    if p.zero not in s:
        return ThickCheck(False, "zero", (p.zero,))
    for a in range(p.base.n_objects):
        for m in sorted(s):
            if p.action[a][m] not in s:
                return ThickCheck(False, "action", (a, m, p.action[a][m]))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if p.sum[m][m2] in s and not (m in s and m2 in s):
                return ThickCheck(False, "summand", (m, m2, p.sum[m][m2]))
    for t, n, pred1, pred2 in p.triangle_positions:
        if pred1 in s and pred2 in s and n not in s:
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
    """Yield (n, (t, pred1, pred2)) for each triangle position whose other
    two entries lie in X, triangles in sorted order."""
    for t, n, pred1, pred2 in p.triangle_positions:
        if pred1 in X and pred2 in X:
            yield n, (t, pred1, pred2)


def bar(p, X):
    """Summands of all a * m with m in X: one application of the closure step."""
    X = _checked(p, X)
    return frozenset(n for n, _ in _bar_steps(p, X))


def delta(p, X):
    """Objects completing a stored triangle whose other two entries lie in X."""
    X = _checked(p, X)
    return frozenset(n for n, _ in _delta_steps(p, X))


def generate(p, X):
    """Smallest thick submodule containing X, with a provenance certificate.

    Iterates X_{i+1} = delta(bar(X_i)) from X_0 = X united with {zero}; the
    zero seed makes delta monotone from stage 0.  Each stage runs the bar
    steps over X_i, then the delta steps over the members after the bar
    pass, recording the first step that reaches each new object.
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


def principal(p, m):
    """K(m): the smallest thick submodule containing the single object m."""
    p.check_object(m)
    return p.principals[m]


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


def _closure(p, X):
    """The smallest thick submodule containing X: K(g), g the sum of X.

    A thick submodule holding X holds g, by sum closure; K(g) holds every
    summand of g, so every member of X, by summand closure.  Both steps use
    only the sum axioms that ``validate`` checks.
    """
    g = p.zero
    for m in sorted(_checked(p, X)):
        g = p.sum[g][m]
    return p.principals[g]


def add(p, N, N2):
    """N + N': the smallest thick submodule containing both."""
    return _closure(p, frozenset(N) | frozenset(N2))


def all_submodules(p):
    """Every thick submodule, as deduplicated principals.

    Complete because each thick N equals the principal submodule of the sum
    of its members (summand biconditional plus finiteness); cross-checked
    against brute-force subset filtering in the tests.
    """
    return tuple(sorted(set(p.principals), key=lambda s: (len(s), sorted(s))))
