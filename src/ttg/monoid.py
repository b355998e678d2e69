"""The monoid of fixed points: completed join and identity.

The operation on fixed points is the completion c^inf(N + N') of the join
of two submodules.  Once c passes the gate of ``classify`` (extensive,
order-preserving, finite type and SMod-valued), c^inf is a closure
operator on SMod: its value at a point N is the least fixed point of c
that contains N.  The fixed points then form a finite lattice whose join
is the operation, so the monoid axioms and continuity are theorems, and
``monoid_report`` derives them instead of checking them (Davey & Priestley,
Introduction to Lattices and Order, 2002, ch. 7).  The points are SMod^c,
each join is read from the completion's principal table, and the tests
keep the brute-force forms.
"""

from collections import namedtuple

from .operators import OperatorError
from .space import fixed_space
from .thick import _generator


class MonoidError(Exception):
    pass


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
    """Read the operation table from the completion's principal table, and
    derive every monoid axiom and continuity from the gate.

    The lemma: every point N is K(g_N), g_N the sum of N's members (see
    ``thick._closure``), and K(g) + K(h) = K(g + h), since a thick
    submodule holds g and h exactly when it holds g + h.  So N + N' is
    K(g_N + g_N').  Past the gate c^inf preserves order, so c^inf(K(h)),
    the union of ``table[n]`` over n in K(h), is ``table[h]``, where
    ``table = c.completion.principal_table``: each K(n) lies in K(h), and
    h is one of the n.  Cell (i, j) is therefore ``table[g_i + g_j]``, one
    lookup, and the identity is ``table[0]``.

    The space is SMod^c (``space.fixed_space``), and its points are exactly
    the values of ``table``, so each cell has an index.  Past the gate each
    ``table[h]`` is the iterate of c from K(h) where c stops, so it is a
    fixed point, and a point because c is SMod-valued.  A fixed point N is
    K(g_N), and iterating c from N stops at once, so N = ``table[g_N]``.

    Raises MonoidError, naming the failing condition, when c fails the
    gate.  Otherwise, on a presentation that passes ``validate``, each flag
    is a theorem, and ``witnesses`` is empty:

    - commutative: K(g_i + g_j) is the least thick submodule holding
      N | N2, so cells (i, j) and (j, i) hold the same point;
    - closed: ``table[h]`` is c^inf(K(h)); every iterate of c from a point
      is a point (SMod-valued), and the iteration stops at a fixed point
      of c;
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
      preimage of U(m) under join-with-N is the union of the U(m2) over
      those m2, an open set.  Finite spaces are Alexandrov spaces, where
      continuous means monotone for the specialization order, which on a
      product is componentwise, so the continuous translations make the
      operation jointly continuous (Alexandroff 1937).
    """
    p = c.presentation
    try:
        table = c.completion.principal_table
    except OperatorError as exc:
        raise MonoidError("operator does not pass the gate: %s" % exc) from None
    space = fixed_space(c)
    index = {pt: i for i, pt in enumerate(space.points)}
    gens = [_generator(p, pt) for pt in space.points]
    op_table = tuple(tuple(index[table[row[h]]] for h in gens)
                     for row in (p.sum[g] for g in gens))
    return MonoidReport(space, op_table, index[table[p.zero]], True, True,
                        True, True, True, True, ())
