"""The monoid of fixed points: completed join, identity, continuity checks.

The operation on fixed points is the completion of the join of two
submodules; continuity of each left translation is verified against the
open-cover decomposition indexed by the objects whose principal join
reaches a given basis witness.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .operators import OperatorError
from .space import enumerate_smod, fixed_points
from .thick import _checked, _closure, add


class MonoidError(Exception):
    pass


class MonoidInvariantError(MonoidError):
    """A structural claim (closure, neutrality, ...) failed on an instance
    that should satisfy it; surfaced loudly rather than reported quietly."""


def _fixed_space(c):
    return fixed_points(enumerate_smod(c.presentation), c)


def _require_fixed(c, N):
    N = _checked(c.presentation, N)
    if _closure(c.presentation, N) != N:
        raise MonoidError("submodule %r is not thick" % (sorted(N),))
    if c.apply(N) != N:
        raise MonoidError("submodule %r is not fixed by the operator" % (sorted(N),))
    return N


def _join(c, N, N2):
    return c.completion.apply(add(c.presentation, N, N2))


def monoid_op(c, N, N2):
    """Completed join of two fixed points; lands in the fixed-point space."""
    return _join(c, _require_fixed(c, N), _require_fixed(c, N2))


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
    return [_join(c, N, K) for K in c.presentation.principals]


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
    N = _require_fixed(c, N)
    space = _fixed_space(c)
    return _continuity(c, space, N, [_join(c, N, pt) for pt in space.points])


def _continuity(c, space, N, images):
    """continuity_check on a built space; images[i] is N joined with point i."""
    joins = _principal_joins(c, N)
    entries = []
    for m in range(c.presentation.n_objects):
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
    """Join each pair of points once and verify every monoid axiom plus
    continuity on that one table; failures are critical report entries.

    The join reads only N | N2, so cells (i, j) and (j, i) are one
    computation: each unordered pair is joined once and fills both cells,
    which makes the operation commutative by construction; for the same
    reason the identity's row decides neutrality.  Continuity of each
    translation implies joint continuity: finite spaces are Alexandrov
    spaces, where continuous means monotone for the specialization order,
    which on a product is componentwise (Alexandroff 1937).
    """
    p = c.presentation
    try:
        e = c.completion.apply(p.principals[p.zero])
    except OperatorError:
        raise MonoidError("operator does not pass the extensive/order-preserving/"
                          "finite-type gate") from None
    space = _fixed_space(c)
    points = space.points
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)
    witnesses = []
    joins = {(i, j): _join(c, points[i], points[j])
             for i, j in combinations_with_replacement(range(n), 2)}
    cells = [tuple(joins[min(i, j), max(i, j)] for j in range(n))
             for i in range(n)]
    for i, j in product(range(n), repeat=2):
        if cells[i][j] not in index:
            witnesses.append(("closed", (i, j, tuple(sorted(cells[i][j])))))
    closed = not witnesses
    op_table = tuple(tuple(index.get(out) for out in row) for row in cells)

    associative = True
    idempotent = True
    if closed:
        for i in range(n):
            if op_table[i][i] != i:
                idempotent = False
                witnesses.append(("idempotent", (i,)))
            for j in range(n):
                for k in range(n):
                    if op_table[op_table[i][j]][k] != op_table[i][op_table[j][k]]:
                        associative = False
                        witnesses.append(("associative", (i, j, k)))

    e_idx = index.get(e, -1)
    neutral = e_idx >= 0 and cells[e_idx] == points
    if not neutral:
        e_idx = -1
        witnesses.append(("neutral", ()))

    continuous = True
    for i in range(n):
        rep = _continuity(c, space, points[i], cells[i])
        if not rep.passed:
            continuous = False
            witnesses.append(("continuous", (i,) + tuple(
                m for m, ok, _, _ in rep.entries if not ok)))
    return MonoidReport(space, op_table, e_idx, closed, True, associative,
                        neutral, idempotent, continuous, tuple(witnesses))
