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
    def _ids(self):
        return frozenset(range(self.n_objects))

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
        """K(m), the principal thick submodule, for every object m.

        The least set holding m and zero and closed under the two rules of
        ``thick.generate``: every summand of a * y for y inside (the orbit
        of y), and the third entry of a stored triangle whose other two
        entries are inside.  A worklist applies each rule once per new
        member y, to its orbit and to the pairs (x, y) and (y, x) with x
        already inside, so no certificate is kept.
        """
        orbit = [frozenset(n for a in range(self.base.n_objects)
                           for n, _ in self.decompositions[self.action[a][y]])
                 for y in range(self.n_objects)]
        thirds = {}  # (pred1, pred2) -> objects completing a stored triangle
        for _, n, pred1, pred2 in self.triangle_positions:
            thirds.setdefault((pred1, pred2), set()).add(n)
        table = []
        for m in range(self.n_objects):
            inside = set()
            todo = [m, self.zero]
            while todo:
                y = todo.pop()
                if y in inside:
                    continue
                inside.add(y)
                todo.extend(orbit[y])
                for x in inside:
                    todo.extend(thirds.get((x, y), ()))
                    todo.extend(thirds.get((y, x), ()))
            table.append(frozenset(inside))
        return tuple(table)


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


def _validate_section(sec, report, what):
    """The checks a category and a module section share: the shape of the
    sum table, triangles and zero, the translation bijection, the sum axioms,
    rotation closure and the split triangles (x, x + y, y), which give the
    thick closure its closure under sums.  The contraction (x, x, 0) needs
    no rule of its own: it is the split triangle with y = 0 wherever
    x + 0 = x, and ``sum-unit`` reports every other x.  ``what`` is
    "category" or "module"; module rules carry the prefix "module-",
    triangle rules none."""
    n = sec.n_objects
    _check_table(n, sec.sum, n, n, what + " sum")
    # A bijection is invertible: this is the whole translate-inverse axiom.
    if len(sec.translate) != n or sorted(sec.translate) != list(range(n)):
        raise StructuralError("%s translate is not a bijection" % what)
    for t in sec.triangles:
        if len(t) != 3 or any(not isinstance(v, int) or not 0 <= v < n for v in t):
            raise StructuralError("malformed %s triangle %r" % (what, t))
    if not 0 <= sec.zero < n:
        raise StructuralError("%s zero id out of range" % what)

    rule = "" if what == "category" else what + "-"
    add, rng, s = report.add, range(n), sec.sum
    for x in rng:
        for y in rng:
            if s[x][y] != s[y][x]:
                add(rule + "sum-commutative", "x+y != y+x", x, y)
            for z in rng:
                if s[s[x][y]][z] != s[x][s[y][z]]:
                    add(rule + "sum-associative", "(x+y)+z != x+(y+z)", x, y, z)
        if s[x][sec.zero] != x:
            add(rule + "sum-unit", "x + 0 != x", x)
    for t in sec.triangles:
        r = rotate_triangle(t, sec.translate)
        if r not in sec.triangles:
            add("triangle-rotation", "rotation of triangle missing", t, r)
    for x in rng:
        for y in rng:
            if (x, s[x][y], y) not in sec.triangles:
                add("triangle-split", "(x, x+y, y) triangle missing", x, s[x][y], y)


def _validate_category(cat, report):
    _validate_section(cat, report, "category")
    n = cat.n_objects
    _check_table(n, cat.tensor, n, n, "category tensor")
    if not 0 <= cat.unit < n:
        raise StructuralError("category unit id out of range")
    rng, t = range(n), cat.tensor
    for x in rng:
        for y in rng:
            if t[x][y] != t[y][x]:
                report.add("tensor-commutative", "x*y != y*x", x, y)
            for z in rng:
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    report.add("tensor-associative", "(xy)z != x(yz)", x, y, z)
                if t[z][cat.sum[x][y]] != cat.sum[t[z][x]][t[z][y]]:
                    report.add("tensor-distributive", "z(x+y) != zx+zy", x, y, z)
        if t[x][cat.unit] != x:
            report.add("tensor-unit", "x tensor 1 != x", x)
        if t[x][cat.zero] != cat.zero:
            report.add("tensor-zero", "x tensor 0 != 0", x)


def _validate_module(p, report):
    """The module section and the action axioms (Stevenson, 2013)."""
    _validate_section(p, report, "module")
    n, k = p.n_objects, p.base
    _check_table(n, p.action, k.n_objects, n, "action")
    rng, krng, act = range(n), range(k.n_objects), p.action
    for m in rng:
        if act[k.unit][m] != m:
            report.add("action-unit", "1 * m != m", m)
        if act[k.zero][m] != p.zero:
            report.add("action-zero-left", "0_K * m != 0_M", m)
    for a in krng:
        if act[a][p.zero] != p.zero:
            report.add("action-zero-right", "a * 0_M != 0_M", a)
        for b in krng:
            for m in rng:
                if act[k.tensor[a][b]][m] != act[a][act[b][m]]:
                    report.add("action-associative", "(ab)*m != a*(b*m)", a, b, m)
                if act[k.sum[a][b]][m] != p.sum[act[a][m]][act[b][m]]:
                    report.add("action-distributive-left", "(a+b)*m != a*m + b*m", a, b, m)
        for m in rng:
            for m2 in rng:
                if act[a][p.sum[m][m2]] != p.sum[act[a][m]][act[a][m2]]:
                    report.add("action-distributive-right", "a*(m+m') != a*m + a*m'", a, m, m2)


def validate(p):
    """Check every table axiom of a ModulePresentation (and its base category).

    Raises StructuralError on malformed tables; axiom violations are
    collected in the returned ValidationReport with witnesses.

    When K acts on itself (``is_self_module``) the module section is the
    category section, already checked, and each action axiom restates a
    tensor axiom once ``tensor-commutative`` holds: 1 * m = m * 1 = m,
    0 * m = m * 0 = 0, a * 0 = 0, (ab)m = a(bm), a(m + m') = am + am' and
    (a + b)m = m(a + b) = ma + mb.  So the module checks run only for a
    genuine module, and each violation is reported once.  Compatibility
    T(m) = T(1) * m follows from no category rule and is always checked.
    """
    report = ValidationReport()
    _validate_category(p.base, report)
    if not is_self_module(p):
        _validate_module(p, report)
    t1 = p.base.translate[p.base.unit]
    for m in range(p.n_objects):
        if p.translate[m] != p.action[t1][m]:
            report.add("translation-compatibility", "T(m) != T(1) * m", m)
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
