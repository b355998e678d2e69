"""Finite skeletal presentations of a tensor triangulated category acting on a module.

Objects are identified by small integers indexing an ordered name list.  All
structure (sum, tensor, translation, the action) is given by total lookup
tables, and distinguished triangles by an explicitly rotation-closed set of
ordered triples.  Presentations are frozen after construction and safe to
share.
"""

from dataclasses import dataclass, field
from functools import cached_property


MAX_OBJECTS_DEFAULT = 16
MODEL_SIZE_BOUND = 5


class PresentationError(Exception):
    pass


class StructuralError(PresentationError):
    """Malformed table data: missing entries, out-of-range ids, non-bijective
    translation.  Distinct from axiom violations, which go in the report."""


class ResourceError(PresentationError):
    """Requested model exceeds the configured size bound."""


class UnknownObjectError(PresentationError):
    pass


@dataclass(frozen=True)
class CategoryPresentation:
    """A finite skeletal tensor triangulated category (K, tensor, unit)."""

    names: tuple
    zero: int
    unit: int
    sum: tuple       # sum[x][y] -> object id
    tensor: tuple    # tensor[x][y] -> object id
    translate: tuple
    triangles: frozenset  # ordered triples (m', m, m''), rotation-closed

    @property
    def n_objects(self):
        return len(self.names)


@dataclass(frozen=True)
class ModulePresentation:
    """A finite module category over a CategoryPresentation with action table.

    ``action[a][m]`` is the object a * m for a in the base category and m in
    the module.  When K acts on itself the module tables mirror the base and
    the action table equals the tensor table.  Derived tables are computed on
    first use and kept, as shared tuples, outside the hashed fields.
    """

    base: CategoryPresentation
    names: tuple
    zero: int
    sum: tuple
    translate: tuple
    triangles: frozenset
    action: tuple    # action[a][m], a indexes base objects, m module objects

    @property
    def n_objects(self):
        return len(self.names)

    def object_name(self, x):
        return self.names[x]

    def check_object(self, x):
        if not isinstance(x, int) or not (0 <= x < len(self.names)):
            raise UnknownObjectError("unknown module object id: %r" % (x,))

    @cached_property
    def decompositions(self):
        """The summand table: for each object x, the pairs (n, least n2)
        with n + n2 = x, one per summand n, in increasing n."""
        table = [[] for _ in range(self.n_objects)]
        for n, row in enumerate(self.sum):
            seen = set()
            for n2, x in enumerate(row):
                if x not in seen:
                    seen.add(x)
                    table[x].append((n, n2))
        return tuple(map(tuple, table))

    @cached_property
    def triangle_positions(self):
        """(t, t[k], t[k+1], t[k+2]) for each position k of each stored
        triangle t, indices mod 3, triangles in sorted order."""
        return tuple((t, t[k], t[(k + 1) % 3], t[(k + 2) % 3])
                     for t in sorted(self.triangles) for k in range(3))

    @cached_property
    def principals(self):
        """K(m), the principal thick submodule, for every object m."""
        from .thick import generate  # thick imports this module
        return tuple(generate(self, {m})[0] for m in range(self.n_objects))


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    witness: tuple


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    # The octahedral axiom cannot be decided from object-level tables and is
    # deliberately not checked.
    unchecked: tuple = ("octahedral axiom (not decidable from object tables)",)

    @property
    def ok(self):
        return not self.violations

    def add(self, rule, message, *witness):
        self.violations.append(Violation(rule, message, tuple(witness)))


def rotate_triangle(triple, translate):
    """One rotation step: (m', m, m'') -> (m, m'', T(m'))."""
    a, b, c = triple
    return (b, c, translate[a])


def rotation_closure(triples, translate):
    closed = set(triples)
    frontier = list(closed)
    while frontier:
        t = frontier.pop()
        r = rotate_triangle(t, translate)
        if r not in closed:
            closed.add(r)
            frontier.append(r)
    return frozenset(closed)


def _check_table(bound, table, rows, cols, what):
    if len(table) != rows:
        raise StructuralError("%s table has %d rows, expected %d" % (what, len(table), rows))
    for i, row in enumerate(table):
        if len(row) != cols:
            raise StructuralError("%s table row %d has %d entries, expected %d"
                                  % (what, i, len(row), cols))
        for j, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < bound):
                raise StructuralError("%s[%d][%d] = %r is out of range" % (what, i, j, v))


def _validate_category(cat, report):
    n = cat.n_objects
    _check_table(n, cat.sum, n, n, "sum")
    _check_table(n, cat.tensor, n, n, "tensor")
    # A bijection is invertible: this is the whole translate-inverse axiom.
    if len(cat.translate) != n or sorted(cat.translate) != list(range(n)):
        raise StructuralError("translate is not a bijection on category objects")
    for t in cat.triangles:
        if len(t) != 3 or any(not isinstance(v, int) or not 0 <= v < n for v in t):
            raise StructuralError("malformed triangle %r" % (t,))
    if not (0 <= cat.zero < n and 0 <= cat.unit < n):
        raise StructuralError("zero/unit id out of range")

    rng = range(n)
    for x in rng:
        for y in rng:
            if cat.sum[x][y] != cat.sum[y][x]:
                report.add("sum-commutative", "x+y != y+x", x, y)
            if cat.tensor[x][y] != cat.tensor[y][x]:
                report.add("tensor-commutative", "x*y != y*x", x, y)
        if cat.sum[x][cat.zero] != x:
            report.add("sum-unit", "x + 0 != x", x)
        if cat.tensor[x][cat.unit] != x:
            report.add("tensor-unit", "x tensor 1 != x", x)
        if cat.tensor[x][cat.zero] != cat.zero:
            report.add("tensor-zero", "x tensor 0 != 0", x)
    for x in rng:
        for y in rng:
            for z in rng:
                if cat.sum[cat.sum[x][y]][z] != cat.sum[x][cat.sum[y][z]]:
                    report.add("sum-associative", "(x+y)+z != x+(y+z)", x, y, z)
                if cat.tensor[cat.tensor[x][y]][z] != cat.tensor[x][cat.tensor[y][z]]:
                    report.add("tensor-associative", "(xy)z != x(yz)", x, y, z)
                if cat.tensor[z][cat.sum[x][y]] != cat.sum[cat.tensor[z][x]][cat.tensor[z][y]]:
                    report.add("tensor-distributive", "z(x+y) != zx+zy", x, y, z)
    _check_rotation_closure(cat.triangles, cat.translate, cat.zero, cat.sum, report)


def _check_rotation_closure(triangles, translate, zero, sum_table, report):
    """Rotation closure plus the two triangle families the thick closure
    relies on: (x, x, 0) and the split triangles (x, x + y, y), which
    give closure under sums.  Where x + 0 = x, a missing (x, x, 0) is
    reported under both rules."""
    for t in triangles:
        r = rotate_triangle(t, translate)
        if r not in triangles:
            report.add("triangle-rotation", "rotation of triangle missing", t, r)
    for x, row in enumerate(sum_table):
        if (x, x, zero) not in triangles:
            report.add("triangle-contraction", "(x, x, 0) triangle missing", x)
        for y, s in enumerate(row):
            if (x, s, y) not in triangles:
                report.add("triangle-split", "(x, x+y, y) triangle missing", x, s, y)


def validate(p):
    """Check every table axiom of a ModulePresentation (and its base category).

    Raises StructuralError on malformed tables; axiom violations are
    collected in the returned ValidationReport with witnesses.
    """
    report = ValidationReport()
    _validate_category(p.base, report)

    n = p.n_objects
    nk = p.base.n_objects
    _check_table(n, p.sum, n, n, "module sum")
    _check_table(n, p.action, nk, n, "action")
    if len(p.translate) != n or sorted(p.translate) != list(range(n)):
        raise StructuralError("module translate is not a bijection")
    for t in p.triangles:
        if len(t) != 3 or any(not isinstance(v, int) or not 0 <= v < n for v in t):
            raise StructuralError("malformed module triangle %r" % (t,))
    if not 0 <= p.zero < n:
        raise StructuralError("module zero id out of range")

    rng = range(n)
    krng = range(nk)
    for x in rng:
        for y in rng:
            if p.sum[x][y] != p.sum[y][x]:
                report.add("module-sum-commutative", "m+m' != m'+m", x, y)
        if p.sum[x][p.zero] != x:
            report.add("module-sum-unit", "m + 0 != m", x)
    for x in rng:
        for y in rng:
            for z in rng:
                if p.sum[p.sum[x][y]][z] != p.sum[x][p.sum[y][z]]:
                    report.add("module-sum-associative", "(m+m')+m'' != m+(m'+m'')", x, y, z)
    for m in rng:
        if p.action[p.base.unit][m] != m:
            report.add("action-unit", "1 * m != m", m)
        if p.action[p.base.zero][m] != p.zero:
            report.add("action-zero-left", "0_K * m != 0_M", m)
    for a in krng:
        if p.action[a][p.zero] != p.zero:
            report.add("action-zero-right", "a * 0_M != 0_M", a)
        for b in krng:
            for m in rng:
                if p.action[p.base.tensor[a][b]][m] != p.action[a][p.action[b][m]]:
                    report.add("action-associative", "(ab)*m != a*(b*m)", a, b, m)
        for m in rng:
            for m2 in rng:
                if p.action[a][p.sum[m][m2]] != p.sum[p.action[a][m]][p.action[a][m2]]:
                    report.add("action-distributive-right", "a*(m+m') != a*m + a*m'", a, m, m2)
        for b in krng:
            for m in rng:
                if p.action[p.base.sum[a][b]][m] != p.sum[p.action[a][m]][p.action[b][m]]:
                    report.add("action-distributive-left", "(a+b)*m != a*m + b*m", a, b, m)
    t1 = p.base.translate[p.base.unit]
    for m in rng:
        if p.translate[m] != p.action[t1][m]:
            report.add("translation-compatibility", "T(m) != T(1) * m", m)
    _check_rotation_closure(p.triangles, p.translate, p.zero, p.sum, report)
    return report


def summands(p, x):
    """All n with n + n' = x for some n' in the module sum table."""
    p.check_object(x)
    return frozenset(n for n, _ in p.decompositions[x])


def self_module(cat):
    """K viewed as a module over itself: action = tensor."""
    return ModulePresentation(
        base=cat,
        names=cat.names,
        zero=cat.zero,
        sum=cat.sum,
        translate=cat.translate,
        triangles=cat.triangles,
        action=cat.tensor,
    )


def is_self_module(p):
    """True iff the module tables are exactly K acting on itself by tensor."""
    c = p.base
    return (p.names == c.names and p.zero == c.zero and p.sum == c.sum
            and p.translate == c.translate and p.triangles == c.triangles
            and p.action == c.tensor)


def _subset_names(n):
    letters = "abcdefghijklmnop"[:n]
    names = []
    full = (1 << n) - 1
    for mask in range(1 << n):
        if mask == 0:
            names.append("z")
        elif mask == full:
            names.append("t")
        else:
            names.append("".join(letters[i] for i in range(n) if mask >> i & 1))
    return tuple(names)


def support_model(n, bound=MODEL_SIZE_BOUND):
    """Reference model: subsets of an n-atom set, sum = union, tensor =
    intersection, identity translation, K acting on itself."""
    if n < 1:
        raise ResourceError("support_model needs n >= 1")
    if n > bound:
        raise ResourceError("support_model(%d) exceeds bound %d" % (n, bound))
    size = 1 << n
    objs = range(size)
    sum_t = tuple(tuple(x | y for y in objs) for x in objs)
    tensor_t = tuple(tuple(x & y for y in objs) for x in objs)
    translate = tuple(objs)
    base = {(x, x | y, y) for x in objs for y in objs}
    cat = CategoryPresentation(
        names=_subset_names(n),
        zero=0,
        unit=size - 1,
        sum=sum_t,
        tensor=tensor_t,
        translate=translate,
        triangles=rotation_closure(base, translate),
    )
    return self_module(cat)


def chain_model(n, bound=2 * MODEL_SIZE_BOUND):
    """Reference model: down-sets of an n-chain, a linearly ordered
    (n+1)-object model with sum = max and tensor = min."""
    if n < 1:
        raise ResourceError("chain_model needs n >= 1")
    if n > bound:
        raise ResourceError("chain_model(%d) exceeds bound %d" % (n, bound))
    size = n + 1
    objs = range(size)
    names = tuple(["z"] + list("pqrstuvwxy"[:n]))
    sum_t = tuple(tuple(max(x, y) for y in objs) for x in objs)
    tensor_t = tuple(tuple(min(x, y) for y in objs) for x in objs)
    translate = tuple(objs)
    base = {(x, max(x, y), y) for x in objs for y in objs}
    cat = CategoryPresentation(
        names=names,
        zero=0,
        unit=n,
        sum=sum_t,
        tensor=tensor_t,
        translate=translate,
        triangles=rotation_closure(base, translate),
    )
    return self_module(cat)
