"""Operators on the lattice of thick submodules and their classification.

Finite-type operators are materialized as a per-object principal table;
evaluation on a submodule is the union of principal values over its members.
Shipped constructions: identity, radical, division by a multiplicative set,
family-induced closure, user tables, and the iterated completion.
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from .presentation import is_self_module
from .thick import _checked, _closure, _point_key, all_submodules, is_thick


class OperatorError(Exception):
    pass


class FamilyError(OperatorError):
    def __init__(self, condition, witness, message):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


class OperatorSpec(namedtuple("OperatorSpec",
                              "kind presentation principal_table repair",
                              defaults=(False,))):
    """A total operator on thick submodules, given by its principal table.

    ``principal_table`` maps each object id to a frozenset of member ids.
    ``apply`` takes and returns member frozensets.  For table-defined
    operators the raw union of principals may fail thickness; those carry
    repair=True and return its thick closure.  ``point_values``,
    ``classification`` and ``completion`` are computed once and kept in the
    instance ``__dict__``: every verdict on c reads c and its presentation.
    """

    def __setattr__(self, name, value):
        raise AttributeError("OperatorSpec is read-only")

    def apply(self, N):
        p = self.presentation
        result = frozenset().union(*(self.principal_table[n]
                                     for n in _checked(p, N)))
        return _closure(p, result) if self.repair else result

    @cached_property
    def point_values(self):
        """c at every point of SMod, in point order, applied once; a
        read-only mapping, since every verdict on c is read from it."""
        return MappingProxyType({N: self.apply(N)
                                 for N in all_submodules(self.presentation)})

    @cached_property
    def classification(self):
        """The flags ``classify`` returns, decided once from ``point_values``.

        c(N) is thick exactly when it is a point of SMod, a key of that
        table: each thick X is K(g), g the sum of X's members (see
        ``all_submodules``).  c(c(N)) is read from the same table when c(N)
        is a point, so c is applied again only to a value that is not one.
        ``apply(N)`` is a union over the members of N, and the repair K(sum
        of X) of a union X grows with X too, since the sum of A is a summand
        of the sum of B when A lies in B: so c preserves order.  Each point
        N is K(m) for some m in N, so c(N) is one term of the union of
        c(K(n)) over n in N, and every other term lies in c(N) because K(n)
        lies in N: so c has finite type.
        """
        witnesses = []
        extensive = idempotent = smod_valued = True
        values = self.point_values
        for N, value in values.items():
            if extensive and not N <= value:
                extensive = False
                witnesses.append(("extensive", tuple(sorted(N))))
            if smod_valued and value not in values:
                smod_valued = False
                witnesses.append(("smod_valued", tuple(sorted(N))))
            if idempotent and (values[value] if value in values
                               else self.apply(value)) != value:
                idempotent = False
                witnesses.append(("idempotent", tuple(sorted(N))))
        return OperatorClassification(extensive, True, idempotent, True,
                                      smod_valued, tuple(witnesses))

    @cached_property
    def completion(self):
        """c^inf of this operator, computed once (see ``c_infinity``)."""
        return c_infinity(self.presentation, self)


class OperatorClassification(namedtuple(
        "OperatorClassification",
        "extensive order_preserving idempotent finite_type smod_valued witnesses",
        defaults=((),))):
    """The flags ``classify`` decides.  ``smod_valued``: c(N) is a thick
    submodule for every point N.  ``witnesses``: (flag name, witness)
    pairs for the false flags."""

    __slots__ = ()

    @property
    def gate(self):
        # The paper's c is an operator on SMod(M): it must map thick
        # submodules to thick submodules.  With extensivity, order
        # preservation and finite type, c^inf is then a closure operator on
        # SMod, which is what the monoid derivations rest on.  Idempotence
        # is deliberately not part of the gate.
        return (self.extensive and self.order_preserving and self.finite_type
                and self.smod_valued)


class FamilySpec(namedtuple("FamilySpec", "members")):
    """A collection of thick submodules required to contain the full module
    and to be closed under intersections and directed unions.  ``members``
    is a frozenset of frozensets of object ids."""

    __slots__ = ()


def identity_operator(p):
    return OperatorSpec("identity", p, p.principals)


def power_orbit(cat, a):
    """Distinct tensor powers a, a^2, ... until the sequence cycles."""
    seen = []
    x = a
    while x not in seen:
        seen.append(x)
        x = cat.tensor[x][a]
    return tuple(seen)


def radical(p):
    """a is in the radical of I iff some tensor power of a lies in I."""
    if not is_self_module(p):
        raise OperatorError("radical requires K acting on itself")
    cat = p.base
    orbits = [power_orbit(cat, a) for a in range(p.n_objects)]
    table = tuple(frozenset(a for a in range(p.n_objects)
                            if any(x in ideal for x in orbits[a]))
                  for ideal in p.principals)
    return OperatorSpec("radical", p, table)


def division(p, S):
    """I -> { a | a tensor s in I for some s in S }, S multiplicatively closed."""
    if not is_self_module(p):
        raise OperatorError("division requires K acting on itself")
    S = frozenset(S)
    if not S:
        raise OperatorError("division requires a nonempty multiplicative set")
    cat = p.base
    for s in sorted(S):
        p.check_object(s)
        for s2 in sorted(S):
            if cat.tensor[s][s2] not in S:
                raise OperatorError(
                    "S is not multiplicatively closed: %s tensor %s escapes"
                    % (p.object_name(s), p.object_name(s2)))
    table = tuple(frozenset(a for a in range(p.n_objects)
                            if any(cat.tensor[a][s] in ideal for s in S))
                  for ideal in p.principals)
    return OperatorSpec("division", p, table)


def validate_family(p, members):
    """Check the two family conditions plus presence of the full module.

    Raises FamilyError naming the violated condition with witnesses.
    Closure under directed unions needs no check: a finite directed
    subfamily contains an upper bound of all its members, and that member
    is its union, so the union is already in the family.
    """
    members = frozenset(frozenset(f) for f in members)
    for f in members:
        check = is_thick(p, f)
        if not check:
            raise FamilyError("thick", (tuple(sorted(f)), check.condition),
                              "family member is not a thick submodule")
    if p._ids not in members:
        raise FamilyError("full-module", (), "the full module M is not in the family")
    for f1, f2 in combinations(sorted(members, key=_point_key), 2):
        if f1 & f2 not in members:
            raise FamilyError("intersection", (tuple(sorted(f1)), tuple(sorted(f2))),
                              "family not closed under intersection")
    return FamilySpec(members)


def from_family(p, family):
    """Closure operator whose fixed points are exactly the given family.

    The principal value at m is the intersection of all family members
    containing m; general evaluation is the union of principals.
    """
    if not isinstance(family, FamilySpec):
        family = validate_family(p, family)
    table = []
    for m in range(p.n_objects):
        containing = [f for f in family.members if m in f]
        inter = frozenset.intersection(*containing)
        table.append(inter)
    return OperatorSpec("family", p, tuple(table))


def table_operator(p, table):
    """Finite-type operator from an explicit principal table.

    ``table`` maps each object id, and no other key, to a thick submodule
    containing it; raw unions failing thickness become their thick closure.
    """
    _checked(p, table)
    tab = []
    for m in range(p.n_objects):
        if m not in table:
            raise OperatorError("principal table missing object %s" % p.object_name(m))
        val = frozenset(table[m])
        check = is_thick(p, val)
        if not check:
            raise OperatorError("table value at %s is not thick (%s)"
                                % (p.object_name(m), check.condition))
        if m not in val:
            raise OperatorError("table value at %s does not contain it"
                                % p.object_name(m))
        tab.append(val)
    return OperatorSpec("table", p, tuple(tab), repair=True)


def classify(p, c):
    """Decide the four operator properties over SMod(M), and whether c maps
    SMod into SMod: ``c.classification``, decided once per operator.
    ``p`` is c's presentation and is not read."""
    return c.classification


def c_infinity(p, c):
    """Union of all iterates of c, materialized as a finite-type operator.

    Requires c to pass ``c.classification.gate``: extensive,
    order-preserving, finite type and SMod-valued.  Each iterate of a point
    is then a point, the image consists of fixed points of c, and
    evaluation by union of principals agrees with direct iteration
    (checked in the tests).  The gate is read, not decided again; order
    preservation and finite type hold by construction, so the error names
    extensive, else SMod-valued.  Iterating is a walk through
    ``c.point_values``.  ``p`` is c's presentation and is not read.
    """
    cls = c.classification
    if not cls.gate:
        raise OperatorError("c-infinity requires "
                            + ("SMod-valued" if cls.extensive else "extensive"))
    values = c.point_values
    table = []
    for N in c.presentation.principals:
        while values[N] != N:
            N = values[N]
        table.append(N)
    return OperatorSpec("c-infinity", c.presentation, tuple(table))
