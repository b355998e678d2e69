"""Finite skeletal presentations of a tensor triangulated category acting on a module.

Objects are identified by small integers indexing an ordered name list.  All
structure (sum, tensor, translation, the action) is given by total lookup
tables, and distinguished triangles by an explicitly rotation-closed set of
ordered triples.  Presentations are frozen after construction and safe to
share.
"""

from collections import namedtuple
from functools import cached_property, reduce
from itertools import chain, compress, permutations
from operator import and_, itemgetter, ne, or_


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


class CategoryPresentation(namedtuple(
        "CategoryPresentation",
        "names zero unit sum tensor translate triangles")):
    """A finite skeletal tensor triangulated category (K, tensor, unit).

    ``sum[x][y]`` and ``tensor[x][y]`` are object ids, and ``triangles``
    is the rotation-closed set of ordered triples (m', m, m'').
    """

    __slots__ = ()

    @property
    def n_objects(self):
        return len(self.names)


class ModulePresentation(namedtuple(
        "ModulePresentation",
        "base names zero sum translate triangles action")):
    """A finite module category over a CategoryPresentation with action table.

    ``action[a][m]`` is the object a * m for a in the base category and m in
    the module.  When K acts on itself the module tables mirror the base and
    the action table equals the tensor table.  Derived tables are computed on
    first use and kept, as shared tuples, in the instance ``__dict__``,
    outside the hashed fields; ``_replace`` starts a new instance without
    them.
    """

    def __setattr__(self, name, value):
        raise AttributeError("ModulePresentation is read-only")

    @property
    def n_objects(self):
        return len(self.names)

    def check_object(self, x):
        if type(x) is not int or not (0 <= x < len(self.names)):
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
    def orbit_steps(self):
        """The bar steps of ``thick.generate``: for each object m, the
        pairs (n, (a, m, cofactor)), one for each summand n of some a * m,
        the first in the order a increasing, then n in ``decompositions``
        order.  An a whose a * m an earlier a gave adds no summand, so it
        is skipped whole."""
        table = []
        for m, column in enumerate(zip(*self.action)):
            seen, steps = set(), {}
            for a, x in enumerate(column):
                if x not in seen:
                    seen.add(x)
                    for n, cofactor in self.decompositions[x]:
                        if n not in steps:
                            steps[n] = n, (a, m, cofactor)
            table.append(tuple(steps.values()))
        return tuple(table)

    @cached_property
    def sorted_triangles(self):
        """The stored triangles in sorted order: the order in which the
        failure path of ``thick.is_thick`` looks for a triangle witness."""
        return tuple(sorted(self.triangles))

    @cached_property
    def masks(self):
        """The rows of ``thick.is_thick``'s decision as ``int`` bitmasks, bit
        x for object x: ``masks[m]`` holds every a * m and both terms of
        every sum equal to m."""
        rows = [sum(1 << s for s, _ in pairs) for pairs in self.decompositions]
        for m2, column in enumerate(zip(*self.sum)):  # add the second terms
            for x in set(column):
                rows[x] |= 1 << m2
        return tuple(row | sum(map((1).__lshift__, set(column)))
                     for row, column in zip(rows, zip(*self.action)))

    @cached_property
    def split(self):
        """Whether six table facts hold, in O(n^2) lookups: (1) every split
        triangle (x, x + y, y) is stored, (2) x + y = y + x, (3) x + 0 = x,
        (4) 1 * m = m, (5) T(m) = T(1) * m, (6) T^-1(1) * T(m) = m.  Then
        the orbits and sums make every inference of (x, x + y, y),
        (x + y, y, Tx) and (y, Tx, T(x + y)) (README derives each), and
        ``thirds`` leaves those forms out.  A base translation that misses
        the unit has no T^-1(1), so fact 6 fails there."""
        s, T, act, k = self.sum, self.translate, self.action, self.base
        if k.unit not in k.translate:
            return False
        back = act[k.translate.index(k.unit)]  # the row of T^-1(1)
        return (  # facts 3, 4 and 6, then 5, 2 and 1
            [row[self.zero] for row in s] == [*range(self.n_objects)] == [*act[k.unit]]
            == [*map(back.__getitem__, T)] and [*T] == [*act[k.translate[k.unit]]]
            and [*map(tuple, s)] == [*zip(*s)]
            and self.triangles.issuperset((x, z, y) for x, row in enumerate(s)
                                          for y, z in enumerate(row)))

    @cached_property
    def thirds(self):
        """The triangle index of ``principals``, ``thick.is_thick`` and
        ``thick.generate``: ``thirds[x]`` holds (y, z, t) for each
        permutation (x, y, z) of a stored triangle t the triangle rule must
        scan, in sorted order of t.  Where ``split`` holds these are the
        extra triangles, the stored ones outside (x, x + y, y),
        (x + y, y, Tx) and (y, Tx, T(x + y)); else every stored triangle.
        The sorted order makes ``generate``'s certificates independent of
        the order in which a document lists the triangles."""
        triangles = self.triangles
        if self.split:
            s, T, k = self.sum, self.translate, self.base
            back = self.action[k.translate.index(k.unit)]  # T^-1, by fact 6
            triangles = [(a, b, c) for a, b, c in triangles if s[a][c] != b
                         and s[back[c]][b] != a and T[s[back[b]][a]] != c]
        thirds = [[] for _ in range(self.n_objects)]
        for t in sorted(triangles):
            for x, y, z in permutations(t):
                thirds[x].append((y, z, t))
        return tuple(map(tuple, thirds))

    @cached_property
    def principals(self):
        """K(m), the principal thick submodule, for every object m: the
        least set holding m and zero and closed under the two rules of
        ``thick.generate``, the orbit of y (the summands of every a * y)
        and the third entry of a stored triangle with two entries inside.
        A bitmask worklist applies them once per new member y, paired with
        every x inside, y included.

        Where ``split`` holds it also adds each sum y + x, which by fact 1
        changes no fixpoint, and reads the triangles of ``thirds``; else it
        adds no sum.  ``generate`` runs the same worklist with a FIFO queue
        and records the rule that reached each member, so the table equals
        ``generate(p, {m})``, also where ``validate`` fails; here it pops
        the lowest bit and records nothing.
        """
        s, act, split, thirds = self.sum, self.action, self.split, self.thirds
        ids = [*range(self.n_objects)]
        bit = [1 << x for x in ids]
        summand = [sum(1 << x for x, _ in pairs) for pairs in self.decompositions]
        orbit = [reduce(or_, map(summand.__getitem__, column)) for column in zip(*act)]
        table = []
        for m in ids:
            inside, members = 0, []
            todo = 1 << m | 1 << self.zero
            while todo:
                low = todo & -todo
                y = low.bit_length() - 1
                inside |= low
                members.append(y)
                todo |= orbit[y]
                row = s[y]
                for x in members if split else ():
                    todo |= bit[row[x]]
                for x, z, _ in thirds[y]:
                    if inside >> x & 1:
                        todo |= bit[z]
                todo &= ~inside
            table.append(frozenset(members))
        return tuple(table)


Violation = namedtuple("Violation", "rule message witness")


class ValidationReport:
    # The octahedral axiom cannot be decided from object-level tables and is
    # deliberately not checked.
    unchecked = ("octahedral axiom (not decidable from object tables)",)

    def __init__(self):
        self.violations = []

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


def _generators(sum_table):
    """A set G whose closure under the sum table is every object: each
    indecomposable id (x is not a + b for any a, b != x), then, while the
    closure misses an object, the least id it misses.  The closure adds
    g + h and h + g once for each pair of reached ids, so this is O(n^2)."""
    n = len(sum_table)
    decomposable = set()
    for x, row in enumerate(sum_table):
        values = set(compress(row, map(ne, row, range(n))))  # row[y] != y
        values.discard(x)
        decomposable |= values
    gens = [x for x in range(n) if x not in decomposable]
    columns = list(zip(*sum_table))
    reached, members, todo = set(gens), [], list(gens)
    while True:
        while todo:
            y = todo.pop()
            members.append(y)
            new = {*map(sum_table[y].__getitem__, members),
                   *map(columns[y].__getitem__, members)} - reached
            reached |= new
            todo += new
        if len(reached) == n:
            return gens
        x = next(x for x in range(n) if x not in reached)
        gens.append(x)
        reached.add(x)
        todo.append(x)


# The checks over a generating set G compare whole rows at C speed.
# ``validate``'s docstring says when a pass covers every element.

def _associates(table, gens):
    """(xy)g == x(yg) for every x, y and every g in ``gens``.  With ``row``
    the row of x and ``col`` the column of g, the left side is ``col``
    read at ``row``'s entries, the right ``row`` read at ``col``'s."""
    columns = list(zip(*table))
    return all(itemgetter(*row)(col) == itemgetter(*col)(row)
               for col in map(columns.__getitem__, gens) for row in table)


def _additive(rows, sum_in, sum_out, gens):
    """f(x + g) == f(x) + f(g) for every row f of ``rows``, every x and every
    g in ``gens``, with + the table ``sum_in`` inside f and ``sum_out``
    outside."""
    columns_in, columns_out = list(zip(*sum_in)), list(zip(*sum_out))
    return all(itemgetter(*columns_in[g])(f) == itemgetter(*f)(columns_out[f[g]])
               for g in gens for f in rows)


def _acts(p, base_gens, gens):
    """a(m + g) == am + ag for every g in ``gens``, the generators of M's
    sum, then (a + b)m == am + bm and (ab)m == a(bm) for every b in
    ``base_gens``, K's."""
    act, k = p.action, p.base
    return (_additive(act, p.sum, p.sum, gens)
            and _additive(list(zip(*act)), k.sum, p.sum, base_gens)
            and all(list(act[k.tensor[a][b]]) == list(map(row.__getitem__, act[b]))
                    for b in base_gens for a, row in enumerate(act)))


def _validate_section(sec, report, what):
    """The checks a category and a module section share: the shape of the
    sum table, triangles and zero, the translation bijection, the sum axioms,
    rotation closure and the split triangles (x, x + y, y), which give the
    thick closure its closure under sums.  The contraction (x, x, 0) needs
    no rule of its own: it is the split triangle with y = 0 wherever
    x + 0 = x, and ``sum-unit`` reports every other x.  ``what`` is
    "category" or "module"; module rules carry the prefix "module-",
    triangle rules none.  Returns the generators of the sum when it is
    associative, else None."""
    n = sec.n_objects
    _check_table(n, sec.sum, n, n, what + " sum")
    # A bijection is invertible: this is the whole translate-inverse axiom.
    if len(sec.translate) != n or sorted(sec.translate) != list(range(n)):
        raise StructuralError("%s translate is not a bijection" % what)
    entries = chain.from_iterable
    if not ({*map(len, sec.triangles)} <= {3}
            and {*map(type, entries(sec.triangles))} <= {int}
            and 0 <= min(entries(sec.triangles), default=0)
            and max(entries(sec.triangles), default=0) < n):
        for t in sec.triangles:  # name the first malformed triangle
            if len(t) != 3 or any(not isinstance(v, int) or not 0 <= v < n for v in t):
                raise StructuralError("malformed %s triangle %r" % (what, t))
    if not 0 <= sec.zero < n:
        raise StructuralError("%s zero id out of range" % what)

    rule = "" if what == "category" else what + "-"
    add, rng, s = report.add, range(n), sec.sum
    gens = _generators(s)
    scan = not _associates(s, gens)
    for x in rng:
        for y in rng:
            if s[x][y] != s[y][x]:
                add(rule + "sum-commutative", "x+y != y+x", x, y)
            if scan:
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
    return None if scan else gens


def _validate_category(cat, report):
    """The category section and the tensor axioms.  Returns the generators
    of the sum when the sum and tensor are associative and the tensor
    distributes over the sum, else None."""
    gens = _validate_section(cat, report, "category")
    n = cat.n_objects
    _check_table(n, cat.tensor, n, n, "category tensor")
    if not 0 <= cat.unit < n:
        raise StructuralError("category unit id out of range")
    rng, t = range(n), cat.tensor
    scan = not (gens is not None and _additive(t, cat.sum, cat.sum, gens)
                and _associates(t, gens))
    for x in rng:
        for y in rng:
            if t[x][y] != t[y][x]:
                report.add("tensor-commutative", "x*y != y*x", x, y)
            if scan:
                for z in rng:
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        report.add("tensor-associative", "(xy)z != x(yz)", x, y, z)
                    if t[z][cat.sum[x][y]] != cat.sum[t[z][x]][t[z][y]]:
                        report.add("tensor-distributive", "z(x+y) != zx+zy", x, y, z)
        if t[x][cat.unit] != x:
            report.add("tensor-unit", "x tensor 1 != x", x)
        if t[x][cat.zero] != cat.zero:
            report.add("tensor-zero", "x tensor 0 != 0", x)
    return None if scan else gens


def _validate_module(p, report, base_gens=None):
    """The module section and the action axioms (Stevenson, 2013).
    ``base_gens`` is what ``_validate_category`` returned for the base;
    without it every action axiom is checked on every triple."""
    gens = _validate_section(p, report, "module")
    n, k = p.n_objects, p.base
    _check_table(n, p.action, k.n_objects, n, "action")
    rng, krng, act = range(n), range(k.n_objects), p.action
    for m in rng:
        if act[k.unit][m] != m:
            report.add("action-unit", "1 * m != m", m)
        if act[k.zero][m] != p.zero:
            report.add("action-zero-left", "0_K * m != 0_M", m)
    scan = not (base_gens is not None and gens is not None
                and _acts(p, base_gens, gens))
    for a in krng:
        if act[a][p.zero] != p.zero:
            report.add("action-zero-right", "a * 0_M != 0_M", a)
        if not scan:
            continue
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

    Each cubic axiom is first checked with its last variable g running over
    a set G that generates the sum (``_generators``), in n^2 |G| steps, in
    this order, each step resting on the ones before:

    - sum associativity: the c with (x+y)+c = x+(y+c) for all x, y are
      closed under the sum, since (x+y)+(a+b) = ((x+y)+a)+b =
      (x+(y+a))+b = x+((y+a)+b) = x+(y+(a+b)), so G covers every c
      (Light's test);
    - z(x + g) = zx + zg, and a(m + g) = am + ag for the action: by
      induction on g, since z(x+(a+b)) = z((x+a)+b) = (zx+za)+zb =
      zx+(za+zb) = zx+z(a+b) by sum associativity;
    - (a + g)m = am + gm, by the same induction, with K's and M's sums
      associative;
    - (xy)g = x(yg), since (xy)(a+b) = (xy)a+(xy)b = x(ya)+x(yb) =
      x(y(a+b)) by distributivity, and (ag)m = a(gm), since
      (a(b+c))m = (ab)m+(ac)m = a(bm)+a(cm) = a((b+c)m) by the tensor
      and both action distributivities.

    A check over G that fails finds a real violation; then that section
    runs the scan over every triple, so a report lists every violation,
    witness and message in the same order as a full scan.
    """
    report = ValidationReport()
    base_gens = _validate_category(p.base, report)
    if not is_self_module(p):
        _validate_module(p, report, base_gens)
    t1 = p.base.translate[p.base.unit]
    for m in range(p.n_objects):
        if p.translate[m] != p.action[t1][m]:
            report.add("translation-compatibility", "T(m) != T(1) * m", m)
    return report


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
    return p == self_module(p.base)


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


def _lattice_model(names, join, meet):
    """K acting on itself, K the objects 0..len(names)-1 of a lattice with
    zero first and unit last: sum = join, tensor = meet, identity
    translation and the split triangles (x, x + y, y), closed under
    rotation."""
    objs = range(len(names))
    sum_t = tuple(tuple(join(x, y) for y in objs) for x in objs)
    translate = tuple(objs)
    cat = CategoryPresentation(
        names=names,
        zero=0,
        unit=len(names) - 1,
        sum=sum_t,
        tensor=tuple(tuple(meet(x, y) for y in objs) for x in objs),
        translate=translate,
        triangles=rotation_closure(
            {(x, sum_t[x][y], y) for x in objs for y in objs}, translate),
    )
    return self_module(cat)


def support_model(n, bound=MODEL_SIZE_BOUND):
    """Reference model: subsets of an n-atom set, sum = union, tensor =
    intersection, identity translation, K acting on itself."""
    if n < 1:
        raise ResourceError("support_model needs n >= 1")
    if n > bound:
        raise ResourceError("support_model(%d) exceeds bound %d" % (n, bound))
    return _lattice_model(_subset_names(n), or_, and_)


def chain_model(n, bound=2 * MODEL_SIZE_BOUND):
    """Reference model: down-sets of an n-chain, a linearly ordered
    (n+1)-object model with sum = max and tensor = min."""
    if n < 1:
        raise ResourceError("chain_model needs n >= 1")
    if n > bound:
        raise ResourceError("chain_model(%d) exceeds bound %d" % (n, bound))
    return _lattice_model(tuple("z" + "pqrstuvwxy"[:n]), max, min)
