"""The monoid of fixed points: completed join, identity, continuity checks.

The operation on fixed points is the completion of the join of two
submodules; continuity of each left translation is verified against the
open-cover decomposition indexed by the objects whose principal join
reaches a given basis witness.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .operators import classify
from .space import enumerate_smod, fixed_points
from .thick import _checked, add


class MonoidError(Exception):
    pass


class MonoidInvariantError(MonoidError):
    """A structural claim (closure, neutrality, ...) failed on an instance
    that should satisfy it; surfaced loudly rather than reported quietly."""


def _fixed_space(c):
    return fixed_points(enumerate_smod(c.presentation), c)


def _require_fixed(c, N):
    N = _checked(c.presentation, N)
    if c.apply(N) != N:
        raise MonoidError("submodule %r is not fixed by the operator" % (sorted(N),))
    return N


def monoid_op(c, N, N2):
    """Completed join of two fixed points; lands in the fixed-point space."""
    N = _require_fixed(c, N)
    N2 = _require_fixed(c, N2)
    return c.completion.apply(add(c.presentation, N, N2))


def identity_element(c):
    """The least fixed point: completion of the zero submodule.

    Neutrality is verified against every point; a failure would falsify
    the monoid structure on this instance and raises."""
    p = c.presentation
    e = c.completion.apply(p.principals[p.zero])
    for N in _fixed_space(c).points:
        if monoid_op(c, e, N) != N:
            raise MonoidInvariantError(
                "completed zero submodule is not neutral at %r" % (sorted(N),))
    return e


def _principal_joins(c, N):
    """c^inf(N + K(m2)) for every object m2, in object order."""
    p = c.presentation
    return [c.completion.apply(add(p, N, K)) for K in p.principals]


def nc_set(c, N, m):
    """Objects whose principal submodule joined onto N reaches m."""
    c.presentation.check_object(m)
    N = _require_fixed(c, N)
    return frozenset(m2 for m2, J in enumerate(_principal_joins(c, N)) if m in J)


@dataclass(frozen=True)
class ContinuityReport:
    entries: tuple  # (object id, ok, preimage indices, cover indices)

    @property
    def passed(self):
        return all(ok for _, ok, _, _ in self.entries)


def continuity_check(c, N):
    """Compare the preimage of each basic open under join-with-N against the
    union of basic opens indexed by nc_set, object by object.  Each join
    with a point and with a principal is computed once, for all objects."""
    p = c.presentation
    N = _require_fixed(c, N)
    space = _fixed_space(c)
    images = [monoid_op(c, N, pt) for pt in space.points]
    joins = _principal_joins(c, N)
    entries = []
    for m in range(p.n_objects):
        preimage = frozenset(i for i, image in enumerate(images) if m in image)
        cover = frozenset().union(*(space.basis[m2]
                                    for m2, J in enumerate(joins) if m in J))
        entries.append((m, preimage == cover, tuple(sorted(preimage)),
                        tuple(sorted(cover))))
    return ContinuityReport(tuple(entries))


@dataclass(frozen=True)
class MonoidReport:
    space: object
    op_table: tuple       # point index x point index -> point index (or None)
    identity: int
    closed: bool
    commutative: bool
    associative: bool
    neutral: bool
    idempotent: bool
    continuous: bool
    witnesses: tuple

    @property
    def passed(self):
        return (self.closed and self.commutative and self.associative
                and self.neutral and self.continuous)


def monoid_report(c):
    """Build the full operation table and verify every monoid axiom plus
    continuity; failures are critical report entries."""
    p = c.presentation
    cls = classify(p, c)
    if not cls.gate:
        raise MonoidError("operator does not pass the extensive/order-preserving/"
                          "finite-type gate")
    space = _fixed_space(c)
    points = space.points
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)
    witnesses = []
    closed = True
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out = monoid_op(c, points[i], points[j])
            if out in index:
                table[i][j] = index[out]
            else:
                closed = False
                witnesses.append(("closed", (i, j, tuple(sorted(out)))))
    op_table = tuple(tuple(row) for row in table)

    commutative = True
    associative = True
    idempotent = True
    if closed:
        for i, j in combinations_with_replacement(range(n), 2):
            if op_table[i][j] != op_table[j][i]:
                commutative = False
                witnesses.append(("commutative", (i, j)))
        for i in range(n):
            if op_table[i][i] != i:
                idempotent = False
                witnesses.append(("idempotent", (i,)))
            for j in range(n):
                for k in range(n):
                    if op_table[op_table[i][j]][k] != op_table[i][op_table[j][k]]:
                        associative = False
                        witnesses.append(("associative", (i, j, k)))

    try:
        e = identity_element(c)
        e_idx = index[e]
        neutral = True
    except (MonoidInvariantError, KeyError):
        e_idx = -1
        neutral = False
        witnesses.append(("neutral", ()))
    if neutral and closed:
        for i in range(n):
            if op_table[e_idx][i] != i or op_table[i][e_idx] != i:
                neutral = False
                witnesses.append(("neutral", (i,)))

    continuous = True
    for i in range(n):
        rep = continuity_check(c, points[i])
        if not rep.passed:
            continuous = False
            witnesses.append(("continuous", (i,) + tuple(
                m for m, ok, _, _ in rep.entries if not ok)))
    return MonoidReport(space, op_table, e_idx, closed, commutative, associative,
                        neutral, idempotent, continuous, tuple(witnesses))
