"""The monoid of fixed points: completed join, identity, continuity checks.

The operation on fixed points is the completion c^inf(N + N') of the join
of two submodules.  Once c passes the gate of ``classify`` (extensive,
order-preserving, finite type and SMod-valued), c^inf is a closure
operator on SMod: its value at a point N is the least fixed point of c
that contains N.  The fixed points then form a finite lattice whose join
is the operation, so the monoid axioms are theorems, and ``monoid_report``
derives them instead of checking them (Davey & Priestley, Introduction to
Lattices and Order, 2002, ch. 7).  Their brute-force forms live in the
tests.  ``continuity_check`` still compares, object by object, the
preimage of each basic open under join-with-N with the open cover indexed
by the objects whose principal join reaches it.
"""

from collections import namedtuple
from itertools import combinations_with_replacement

from .operators import OperatorError
from .space import enumerate_smod, fixed_points
from .thick import _checked, _closure, add


class MonoidError(Exception):
    pass


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

    It is neutral for ``monoid_op`` once c passes the gate (see
    ``monoid_report``); ``c.completion`` raises OperatorError otherwise."""
    p = c.presentation
    return c.completion.apply(p.principals[p.zero])


def _principal_joins(c, N):
    """c^inf(N + K(m2)) for every object m2, in object order."""
    return [_join(c, N, K) for K in c.presentation.principals]


def nc_set(c, N, m):
    """Objects whose principal submodule joined onto N reaches m."""
    c.presentation.check_object(m)
    N = _require_fixed(c, N)
    return frozenset(m2 for m2, J in enumerate(_principal_joins(c, N)) if m in J)


class ContinuityReport(namedtuple("ContinuityReport", "entries")):
    """``entries``: (object id, ok, preimage indices, cover indices), one
    per object."""

    __slots__ = ()

    @property
    def passed(self):
        return all(ok for _, ok, _, _ in self.entries)


def continuity_check(c, N):
    """Compare the preimage of each basic open under join-with-N against the
    union of basic opens indexed by nc_set, object by object.  Each join
    with a point and with a principal is computed once, for all objects."""
    N = _require_fixed(c, N)
    space = _fixed_space(c)
    images = [_join(c, N, pt) for pt in space.points]
    joins = _principal_joins(c, N)
    entries = []
    for m in range(c.presentation.n_objects):
        preimage = frozenset(i for i, image in enumerate(images) if m in image)
        cover = frozenset().union(*(space.basis[m2]
                                    for m2, J in enumerate(joins) if m in J))
        entries.append((m, preimage == cover, tuple(sorted(preimage)),
                        tuple(sorted(cover))))
    return ContinuityReport(tuple(entries))


class MonoidReport(namedtuple(
        "MonoidReport",
        "space op_table identity closed commutative associative neutral "
        "idempotent continuous witnesses")):
    """``op_table[i][j]`` is the index of the join of points i and j."""

    __slots__ = ()

    @property
    def passed(self):
        return (self.closed and self.commutative and self.associative
                and self.neutral and self.continuous)


def monoid_report(c):
    """Join each unordered pair of points once into the operation table,
    and derive every monoid axiom and continuity from the gate.

    Raises MonoidError when c fails the gate.  Otherwise, on a presentation
    that passes ``validate``, each flag is a theorem, and ``witnesses`` is
    empty:

    - commutative: the join reads only N | N2, so one join fills the cells
      (i, j) and (j, i);
    - closed: ``add`` returns a principal K(g), which is a point; every
      iterate of c from a point is a point (SMod-valued), and the
      iteration stops at a fixed point of c;
    - idempotent: c^inf(N + N) = c^inf(N) = N on a fixed point N;
    - associative: the iterates of c from N + N2 grow (extensive) to a
      fixed point.  A fixed point F holding N and N2 holds N + N2 (F is
      thick by ``triangle-split``; see ``thick._closure``), so it holds
      each iterate: c^k(N + N2) <= c^k(F) = F (order preserving).  So the
      operation is the join of the lattice of fixed points;
    - neutral: for the same reason e = c^inf(K(0)) lies in every fixed
      point, so c^inf(e + N) = N;
    - continuous: each point N2 is K(g), g the sum of its members, so m
      lies in c^inf(N + N2) exactly when it lies in c^inf(N + K(m2)) for
      some m2 in N2 (take m2 = g; conversely, order preservation): the
      preimage of U(m) is the cover ``continuity_check`` compares.  Finite
      spaces are Alexandrov spaces, where continuous means monotone for the
      specialization order, which on a product is componentwise, so the
      continuous translations make the operation jointly continuous
      (Alexandroff 1937).
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
    joins = {(i, j): index[_join(c, points[i], points[j])]
             for i, j in combinations_with_replacement(range(n), 2)}
    op_table = tuple(tuple(joins[min(i, j), max(i, j)] for j in range(n))
                     for i in range(n))
    return MonoidReport(space, op_table, index[e], True, True, True, True,
                        True, True, ())
