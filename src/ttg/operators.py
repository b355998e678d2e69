"""Operators on the lattice of thick submodules and their classification.

Finite-type operators are materialized as a per-object principal table;
evaluation on a submodule is the union of principal values over its members.
Shipped constructions: identity, radical, division by a multiplicative set,
family-induced closure, user tables, and the iterated completion.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .presentation import is_self_module
from .thick import _checked, _closure, all_submodules, is_thick


class OperatorError(Exception):
    pass


class FamilyError(OperatorError):
    def __init__(self, condition, witness, message):
        super().__init__(message)
        self.condition = condition
        self.witness = witness


@dataclass(frozen=True)
class OperatorSpec:
    """A total operator on thick submodules, given by its principal table.

    ``apply`` takes and returns member frozensets.  For table-defined
    operators the raw union of principals may fail thickness; those carry
    repair=True and return its thick closure.
    """
    kind: str
    presentation: object
    principal_table: tuple  # object id -> frozenset of member ids
    repair: bool = False

    def apply(self, N):
        p = self.presentation
        result = frozenset().union(*(self.principal_table[n]
                                     for n in _checked(p, N)))
        return _closure(p, result) if self.repair else result

    @cached_property
    def completion(self):
        """c^inf of this operator, computed once (see ``c_infinity``)."""
        return c_infinity(self.presentation, self)


@dataclass(frozen=True)
class OperatorClassification:
    extensive: bool
    order_preserving: bool
    idempotent: bool
    finite_type: bool
    witnesses: tuple = ()  # (flag name, witness) pairs for false flags

    @property
    def gate(self):
        # Idempotence is deliberately not part of the gate: the spectral and
        # monoid pipelines need only these three properties.
        return self.extensive and self.order_preserving and self.finite_type

    @property
    def closure_operator(self):
        return self.extensive and self.order_preserving and self.idempotent


@dataclass(frozen=True)
class FamilySpec:
    """A collection of thick submodules required to contain the full module
    and to be closed under intersections and directed unions."""
    members: frozenset  # frozenset of frozensets of object ids


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
    full = frozenset(range(p.n_objects))
    for f in members:
        check = is_thick(p, f)
        if not check:
            raise FamilyError("thick", (tuple(sorted(f)), check.condition),
                              "family member is not a thick submodule")
    if full not in members:
        raise FamilyError("full-module", (), "the full module M is not in the family")
    ordered = sorted(members, key=lambda s: (len(s), sorted(s)))
    for f1, f2 in combinations(ordered, 2):
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

    ``table`` maps every object to a thick submodule containing it; raw
    unions that fail thickness are replaced by their thick closure.
    """
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
    """Decide the four operator properties by exhaustive check over SMod(M)."""
    subs = all_submodules(p)
    witnesses = []
    extensive = True
    order_preserving = True
    idempotent = True
    finite_type = True
    values = {N: c.apply(N) for N in subs}
    for N in subs:
        if extensive and not N <= values[N]:
            extensive = False
            witnesses.append(("extensive", tuple(sorted(N))))
        if idempotent and c.apply(values[N]) != values[N]:
            idempotent = False
            witnesses.append(("idempotent", tuple(sorted(N))))
        if finite_type:
            union = frozenset().union(*(values[p.principals[n]] for n in N))
            if union != values[N]:
                finite_type = False
                witnesses.append(("finite_type", tuple(sorted(N))))
    for N in subs:
        for N2 in subs:
            if N <= N2 and not values[N] <= values[N2]:
                order_preserving = False
                witnesses.append(("order_preserving",
                                  (tuple(sorted(N)), tuple(sorted(N2)))))
                break
        if not order_preserving:
            break
    return OperatorClassification(extensive, order_preserving, idempotent,
                                  finite_type, tuple(witnesses))


def c_infinity(p, c):
    """Union of all iterates of c, materialized as a finite-type operator.

    Requires c extensive, order-preserving and finite type; the image then
    consists of fixed points of c, and evaluation by union of principals
    agrees with direct iteration (checked in the tests).
    """
    cls = classify(p, c)
    if not cls.gate:
        failing = [name for name, ok in
                   [("extensive", cls.extensive),
                    ("order-preserving", cls.order_preserving),
                    ("finite-type", cls.finite_type)] if not ok]
        raise OperatorError("c-infinity requires %s" % ", ".join(failing))
    table = []
    for N in p.principals:
        while True:
            nxt = c.apply(N)
            if nxt == N:
                break
            N = nxt
        table.append(N)
    return OperatorSpec("c-infinity", p, tuple(table))

