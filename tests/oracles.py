"""Independent brute-force oracles used to cross-check the library.

Everything here is written directly from the defining conditions, without
going through the library's checkers or fixpoint machinery.  Five
exceptions: ``monoid_op_by_definition`` joins with ``generate``, the
certificate-recording fixpoint that the library's join does not use and
that the tests check against ``minimal_thick_superset``;
``classify_by_definition`` ranges over ``all_submodules`` and the principal
table, which the tests check against ``brute_thick_sets``;
``principals_by_worklist``, the principal table's earlier builder, and
``generate_by_scan``, the fixpoint rescanning every step on each stage,
whose certificates ``generate`` must keep record for record, read the
model's summand table and list the triangle positions themselves; and
``op_table_by_join``, the monoid table's earlier builder, joins with
``generate``, like ``monoid_op_by_definition``, and completes with
``c.completion``.
"""

from itertools import combinations, combinations_with_replacement

from ttg import all_submodules, enumerate_smod, fixed_points, generate
from ttg.presentation import StructuralError
from ttg.thick import GenerationCertificate, Provenance, _checked


def thick_by_definition(p, s):
    """Direct check of the thick-submodule conditions on a candidate set."""
    if p.zero not in s:
        return False
    for a in range(p.base.n_objects):
        for m in s:
            if p.action[a][m] not in s:
                return False
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            both = m in s and m2 in s
            if (p.sum[m][m2] in s) != both:
                return False
    for t in p.triangles:
        flags = [v in s for v in t]
        if sum(flags) == 2:
            return False
    return True


def thick_check_by_scan(p, s):
    """``is_thick``'s (ok, condition, witness) by scanning the tables in
    its order: zero, action, summand, then the first triangle in sorted
    order with exactly two positions inside, then sum."""
    if p.zero not in s:
        return False, "zero", (p.zero,)
    for a in range(p.base.n_objects):
        for m in sorted(s):
            if p.action[a][m] not in s:
                return False, "action", (a, m, p.action[a][m])
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if p.sum[m][m2] in s and not (m in s and m2 in s):
                return False, "summand", (m, m2, p.sum[m][m2])
    for t in sorted(p.triangles):
        inside = sum(1 for v in t if v in s)  # counts positions, not values
        if inside == 2:
            return False, "triangle", (t, next(v for v in t if v not in s))
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if m in s and m2 in s and p.sum[m][m2] not in s:
                return False, "sum", (m, m2, p.sum[m][m2])
    return True, "", ()


def brute_thick_sets(p):
    n = p.n_objects
    out = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if thick_by_definition(p, s):
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def minimal_thick_superset(p, X):
    """Intersection of every thick superset of X (the full set always is one)."""
    supersets = [s for s in brute_thick_sets(p) if X <= s]
    return frozenset.intersection(*supersets)


def triangle_positions(p):
    """(t, t[k], t[k+1], t[k+2]) for each position k of each stored
    triangle t, indices mod 3, triangles in sorted order: the scan order
    of ``generate``'s certificates, one step per position."""
    return [(t, t[k], t[(k + 1) % 3], t[(k + 2) % 3])
            for t in sorted(p.triangles) for k in range(3)]


def principals_by_worklist(p):
    """The principal table by a frozenset worklist over the triangle
    positions: per object m, from {m, 0}, each new member y adds its orbit
    and the thirds of the pairs (x, y) and (y, x) with x already inside."""
    orbit = [frozenset(n for a in range(p.base.n_objects)
                       for n, _ in p.decompositions[p.action[a][y]])
             for y in range(p.n_objects)]
    thirds = {}  # (pred1, pred2) -> objects completing a stored triangle
    for _, n, pred1, pred2 in triangle_positions(p):
        thirds.setdefault((pred1, pred2), set()).add(n)
    table = []
    for m in range(p.n_objects):
        inside = set()
        todo = [m, p.zero]
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


def split_facts(p):
    """The six table facts under which ``p.principals`` adds the sums and
    reads only the triangles outside ``implied_triangles``, each by a scan
    of its definition: every split triangle (x, x + y, y) is stored, the
    sum is commutative, x + 0 = x, 1 * m = m, T(m) = T(1) * m and
    T^-1(1) * T(m) = m, which fails where no base object translates to
    the unit."""
    k, objs, s, T = p.base, range(p.n_objects), p.sum, p.translate
    return (all((x, s[x][y], y) in p.triangles for x in objs for y in objs)
            and all(s[x][y] == s[y][x] for x in objs for y in objs)
            and all(s[x][p.zero] == x for x in objs)
            and all(p.action[k.unit][m] == m for m in objs)
            and all(T[m] == p.action[k.translate[k.unit]][m] for m in objs)
            and k.unit in k.translate
            and all(p.action[k.translate.index(k.unit)][T[m]] == m
                    for m in objs))


def implied_triangles(p):
    """The triples (x, x + y, y), (x + y, y, Tx) and (y, Tx, T(x + y)) over
    every pair of objects x, y: the split triangles and their first two
    rotations."""
    T, objs = p.translate, range(p.n_objects)
    return {t for x in objs for y in objs for xy in (p.sum[x][y],)
            for t in ((x, xy, y), (xy, y, T[x]), (y, T[x], T[xy]))}


def _bar_steps(p, X):
    """Yield (n, (a, m, cofactor)) for each summand n of each a * m, m in X.

    Walks m in increasing order, then a, then n; the cofactor is the least
    n2 with n + n2 = a * m, read from ``p.decompositions``.
    """
    for m in sorted(X):
        for a in range(p.base.n_objects):
            for n, cofactor in p.decompositions[p.action[a][m]]:
                yield n, (a, m, cofactor)


def _delta_steps(positions, X):
    """Yield (n, (t, pred1, pred2)) for each triangle position whose other
    two entries lie in X, in the order of ``positions``."""
    for t, n, pred1, pred2 in positions:
        if pred1 in X and pred2 in X:
            yield n, (t, pred1, pred2)


def generate_by_scan(p, X):
    """Smallest thick submodule containing X, with a provenance certificate.

    Iterates X_{i+1} = delta(bar(X_i)) from X_0 = X united with {zero}; the
    zero seed makes delta monotone from stage 0.  Each stage runs the bar
    steps over X_i, then the delta steps over the members after the bar
    pass, recording the first step that reaches each new object.
    Stabilizes within |objects| iterations since membership only grows.
    """
    X = _checked(p, X)
    positions = triangle_positions(p)
    records = {}  # insertion order is discovery order
    for m in sorted(X | {p.zero}):
        records[m] = Provenance("seed", 0, len(records), ())
    stage = 0
    while True:
        stage += 1
        before = len(records)
        for kind in ("bar", "delta"):
            S = frozenset(records)
            steps = (_bar_steps(p, S) if kind == "bar"
                     else _delta_steps(positions, S))
            for n, data in steps:
                if n not in records:
                    records[n] = Provenance(kind, stage, len(records), data)
        if len(records) == before:
            break
    return frozenset(records), GenerationCertificate(seed=X, records=records)


def summands_by_scan(p, x):
    """Every n with n + n2 = x for some n2, by scanning the sum table."""
    return frozenset(n for n in range(p.n_objects)
                     if any(p.sum[n][n2] == x for n2 in range(p.n_objects)))


def least_cofactor(p, n, x):
    """The least n2 with n + n2 = x, or None."""
    return next((n2 for n2 in range(p.n_objects) if p.sum[n][n2] == x), None)


def radical_scan(p, ideal):
    """Direct power scan: a is in the radical iff some tensor power lies in
    the ideal; powers walked until the orbit repeats."""
    out = set()
    for a in range(p.n_objects):
        x = a
        seen = set()
        while x not in seen:
            seen.add(x)
            if x in ideal:
                out.add(a)
                break
            x = p.base.tensor[x][a]
    return frozenset(out)


def division_scan(p, S, ideal):
    return frozenset(a for a in range(p.n_objects)
                     if any(p.base.tensor[a][s] in ideal for s in S))


def mult_closed_sets(p):
    """Every nonempty subset of objects closed under the tensor product."""
    n = p.n_objects
    out = []
    for mask in range(1, 1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(p.base.tensor[a][b] in s for a in s for b in s):
            out.append(s)
    return out


def all_subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)


def iterate_operator(c, N):
    """Plain iteration of an operator to its fixpoint."""
    N = frozenset(N)
    while True:
        nxt = c.apply(N)
        if nxt == N:
            return N
        N = nxt


def monoid_op_by_definition(c, N, N2):
    """c^inf(N + N'): generate the union, then iterate the operator."""
    joined, _ = generate(c.presentation, frozenset(N) | frozenset(N2))
    return iterate_operator(c, joined)


def op_table_by_join(c):
    """(op_table, identity) as ``monoid_report`` built them with one join
    per unordered pair of fixed points: c^inf(N + N') through the
    ``generate`` fixpoint and ``c.completion.apply``, not the principal
    table lemma K(g) + K(h) = K(g + h) that ``monoid_report`` reads."""
    p = c.presentation
    e = c.completion.apply(p.principals[p.zero])
    points = fixed_points(enumerate_smod(p), c).points
    index = {pt: i for i, pt in enumerate(points)}
    n = len(points)
    joins = {(i, j): index[c.completion.apply(
                 generate(p, points[i] | points[j])[0])]
             for i, j in combinations_with_replacement(range(n), 2)}
    op_table = tuple(tuple(joins[min(i, j), max(i, j)] for j in range(n))
                     for i in range(n))
    return op_table, index[e]


def nc_set(c, N, m):
    """Objects whose principal submodule joined onto N reaches m."""
    return frozenset(m2 for m2 in range(c.presentation.n_objects)
                     if m in monoid_op_by_definition(c, N, {m2}))


def continuity_check(c, N):
    """(m, ok, preimage, cover) for each object m: the preimage of U(m)
    under join-with-N, and the union of the U(m2) over m2 in
    ``nc_set(c, N, m)``, as indices of the fixed points of c among
    ``brute_thick_sets``; ok when the two agree."""
    p = c.presentation
    points = [s for s in brute_thick_sets(p) if c.apply(s) == s]
    images = [monoid_op_by_definition(c, N, N2) for N2 in points]
    entries = []
    for m in range(p.n_objects):
        reach = nc_set(c, N, m)
        preimage = tuple(i for i, image in enumerate(images) if m in image)
        cover = tuple(i for i, M in enumerate(points) if reach & M)
        entries.append((m, preimage == cover, preimage, cover))
    return tuple(entries)


def monoid_by_definition(c, space, op_table):
    """(closed, associative, neutral, idempotent) of an operation table,
    with the first witness of each false flag.

    ``op_table[i][j]`` is the member set of points[i] joined with points[j].
    The neutral element is the completed join of nothing, c^inf(K(0)); it
    must be a point whose row and column both give back every point.
    Associativity is decided only on a closed table."""
    points = space.points
    index = {N: i for i, N in enumerate(points)}
    n = len(points)
    witnesses = []
    outside = [(i, j) for i in range(n) for j in range(n)
               if op_table[i][j] not in index]
    closed = not outside
    if outside:
        witnesses.append(("closed", outside[0]))
    associative = closed
    if closed:
        op = [[index[out] for out in row] for row in op_table]
        bad = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if op[op[i][j]][k] != op[i][op[j][k]]]
        if bad:
            associative = False
            witnesses.append(("associative", bad[0]))
    e = monoid_op_by_definition(c, (), ())
    neutral = e in index and all(
        op_table[index[e]][j] == N == op_table[j][index[e]]
        for j, N in enumerate(points))
    if not neutral:
        witnesses.append(("neutral", tuple(sorted(e))))
    bad = [i for i in range(n) if op_table[i][i] != points[i]]
    if bad:
        witnesses.append(("idempotent", (bad[0],)))
    return closed, associative, neutral, not bad, tuple(witnesses)


def basis_by_definition(p, space):
    """The five identities of the U(m) basis, each scanned over its whole
    table, with the first witness of each false one: U(0) is every point;
    for every stored triangle and position, the basic opens of the other
    two entries meet inside that entry's; U(m + m2) = U(m) & U(m2);
    U(m) <= U(a * m); U(Tm) = U(m)."""
    U = space.basis
    witnesses = []
    everything = frozenset(range(len(space.points)))
    zero = U[p.zero] == everything
    if not zero:
        witnesses.append(("zero", tuple(sorted(everything - U[p.zero]))))
    checks = (
        ("triangle", [(t, k) for t in sorted(p.triangles) for k in range(3)
                      if not U[t[(k + 1) % 3]] & U[t[(k + 2) % 3]] <= U[t[k]]]),
        ("sum", [(m, m2) for m in range(p.n_objects)
                 for m2 in range(p.n_objects)
                 if U[p.sum[m][m2]] != U[m] & U[m2]]),
        ("action", [(a, m) for a in range(p.base.n_objects)
                    for m in range(p.n_objects)
                    if not U[m] <= U[p.action[a][m]]]),
        ("translate", [(m,) for m in range(p.n_objects)
                       if U[p.translate[m]] != U[m]]),
    )
    for name, bad in checks:
        if bad:
            witnesses.append((name, bad[0]))
    return (zero,) + tuple(not bad for _, bad in checks) + (tuple(witnesses),)


def generated_opens(npts, basis):
    """Every open of the topology on range(npts) generated by ``basis``.

    The basis is first closed under pairwise intersection (the empty
    intersection being the whole space); the opens are then all unions.
    """
    universe = frozenset(range(npts))
    base = set(basis) | {universe}
    while True:
        more = {U & V for U in base for V in base} - base
        if not more:
            break
        base |= more
    opens = {frozenset()}
    for U in base:
        opens |= {o | U for o in opens}
    return opens


def spectral_by_definition(space):
    """T0 and sober flags with witnesses, by exhaustive search.

    Works on the topology generated by the space's basis: two points are
    topologically indistinguishable when no open holds exactly one of them,
    and every irreducible closed set (nonempty, not the union of two
    smaller closed sets) must have exactly one generic point.  Returns
    (t0, sober, witnesses) with the first failure of each, closed sets
    taken in (size, sorted members) order.
    """
    npts = len(space.points)
    opens = generated_opens(npts, space.basis)
    witnesses = []
    t0 = True
    for i, j in combinations(range(npts), 2):
        if not any((i in O) != (j in O) for O in opens):
            t0 = False
            witnesses.append(("t0", (i, j)))
            break
    universe = frozenset(range(npts))
    closeds = sorted({universe - O for O in opens},
                     key=lambda C: (len(C), sorted(C)))
    closures = [frozenset.intersection(*(C for C in closeds if i in C))
                for i in range(npts)]
    sober = True
    for C in closeds:
        if not C:
            continue
        smaller = [D for D in closeds if D < C]
        if any(A | B == C for A, B in combinations(smaller, 2)):
            continue
        generics = [i for i in sorted(C) if closures[i] == C]
        if len(generics) != 1:
            sober = False
            witnesses.append(("sober", (tuple(sorted(C)), tuple(generics))))
            break
    return t0, sober, tuple(witnesses)


def family_violation(p, members):
    """The first family condition ``members`` violates, or None.

    Conditions in order: every member is thick, the full module is a
    member, pairwise intersections are members, and the union of every
    nonempty directed subfamily (each pair has an upper bound inside it)
    is a member.
    """
    members = frozenset(frozenset(f) for f in members)
    ordered = sorted(members, key=lambda s: (len(s), sorted(s)))
    if not all(thick_by_definition(p, f) for f in ordered):
        return "thick"
    if frozenset(range(p.n_objects)) not in members:
        return "full-module"
    if any(f & g not in members for f, g in combinations(ordered, 2)):
        return "intersection"
    for sub in all_subsets(ordered):
        directed = all(any(a | b <= c for c in sub)
                       for a, b in combinations(sub, 2))
        if sub and directed and frozenset().union(*sub) not in members:
            return "directed-union"
    return None


def jointly_continuous(space, op_table):
    """Whether (i, j) -> op_table[i][j] is continuous from the product of
    the space with itself to the space, each topology generated by the
    space's basis.

    Every open's preimage W must be open in the product: each pair in W
    must lie in some U x V inside W, U and V open.  The least open holding
    a point is the intersection of the finitely many opens holding it, so
    those are the only U and V to try.
    """
    npts = len(space.points)
    opens = generated_opens(npts, space.basis)
    least = [frozenset.intersection(*(O for O in opens if i in O))
             for i in range(npts)]
    for O in opens:
        W = {(i, j) for i in range(npts) for j in range(npts)
             if op_table[i][j] in O}
        if any((k, l) not in W for i, j in W
               for k in least[i] for l in least[j]):
            return False
    return True


def classify_by_definition(p, c):
    """The four operator flags, whether c maps SMod into SMod, and their
    witnesses, every condition checked over every thick submodule:
    extensive, SMod-valued (from the defining conditions), idempotent and
    finite type point by point, then order preservation over every pair
    N <= N2."""
    subs = all_submodules(p)
    witnesses = []
    extensive = order_preserving = idempotent = finite_type = True
    smod_valued = True
    values = {N: c.apply(N) for N in subs}
    for N in subs:
        if extensive and not N <= values[N]:
            extensive = False
            witnesses.append(("extensive", tuple(sorted(N))))
        if smod_valued and not thick_by_definition(p, values[N]):
            smod_valued = False
            witnesses.append(("smod_valued", tuple(sorted(N))))
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
    return (extensive, order_preserving, idempotent, finite_type, smod_valued,
            tuple(witnesses))


def ultrafilter_by_definition(space, c):
    """(point, thick, fixed, equals_point, biconditional) for every point.

    The principal ultrafilter at point i holds the basic opens U(m) that
    contain i; the induced set is every m whose U(m) it holds.  Thickness
    is decided from the defining conditions, and the biconditional is
    checked object by object against the ultrafilter."""
    p = c.presentation
    out = []
    for i, N in enumerate(space.points):
        ultrafilter = {m for m, U in enumerate(space.basis) if i in U}
        induced = frozenset(m for m in range(p.n_objects) if m in ultrafilter)
        bicond = all((m in ultrafilter) == (m in induced)
                     for m in range(p.n_objects))
        out.append((i, thick_by_definition(p, induced),
                    c.apply(induced) == induced, induced == N, bicond))
    return tuple(out)


def _check_table_by_scan(bound, table, rows, cols, what):
    if len(table) != rows:
        raise StructuralError("%s table has %d rows, expected %d" % (what, len(table), rows))
    for i, row in enumerate(table):
        if len(row) != cols:
            raise StructuralError("%s table row %d has %d entries, expected %d"
                                  % (what, i, len(row), cols))
        for j, v in enumerate(row):
            if not isinstance(v, int) or not (0 <= v < bound):
                raise StructuralError("%s[%d][%d] = %r is out of range" % (what, i, j, v))


def _section_by_scan(sec, add, what):
    n = sec.n_objects
    _check_table_by_scan(n, sec.sum, n, n, what + " sum")
    if len(sec.translate) != n or sorted(sec.translate) != list(range(n)):
        raise StructuralError("%s translate is not a bijection" % what)
    for t in sec.triangles:
        if len(t) != 3 or any(not isinstance(v, int) or not 0 <= v < n for v in t):
            raise StructuralError("malformed %s triangle %r" % (what, t))
    if not 0 <= sec.zero < n:
        raise StructuralError("%s zero id out of range" % what)

    rule = "" if what == "category" else what + "-"
    rng, s = range(n), sec.sum
    for x in rng:
        for y in rng:
            if s[x][y] != s[y][x]:
                add(rule + "sum-commutative", "x+y != y+x", x, y)
            for z in rng:
                if s[s[x][y]][z] != s[x][s[y][z]]:
                    add(rule + "sum-associative", "(x+y)+z != x+(y+z)", x, y, z)
        if s[x][sec.zero] != x:
            add(rule + "sum-unit", "x + 0 != x", x)
    for a, b, c in sec.triangles:
        r = (b, c, sec.translate[a])
        if r not in sec.triangles:
            add("triangle-rotation", "rotation of triangle missing", (a, b, c), r)
    for x in rng:
        for y in rng:
            if (x, s[x][y], y) not in sec.triangles:
                add("triangle-split", "(x, x+y, y) triangle missing", x, s[x][y], y)


def validate_by_scan(p):
    """Every violation ``validate`` reports, as (rule, message, witness)
    in its order, by scanning every pair and triple of objects for every
    axiom; raises StructuralError as ``validate`` does."""
    violations = []

    def add(rule, message, *witness):
        violations.append((rule, message, witness))

    cat = p.base
    _section_by_scan(cat, add, "category")
    n = cat.n_objects
    _check_table_by_scan(n, cat.tensor, n, n, "category tensor")
    if not 0 <= cat.unit < n:
        raise StructuralError("category unit id out of range")
    rng, t = range(n), cat.tensor
    for x in rng:
        for y in rng:
            if t[x][y] != t[y][x]:
                add("tensor-commutative", "x*y != y*x", x, y)
            for z in rng:
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    add("tensor-associative", "(xy)z != x(yz)", x, y, z)
                if t[z][cat.sum[x][y]] != cat.sum[t[z][x]][t[z][y]]:
                    add("tensor-distributive", "z(x+y) != zx+zy", x, y, z)
        if t[x][cat.unit] != x:
            add("tensor-unit", "x tensor 1 != x", x)
        if t[x][cat.zero] != cat.zero:
            add("tensor-zero", "x tensor 0 != 0", x)

    if (p.names, p.zero, p.sum, p.translate, p.triangles, p.action) != (
            cat.names, cat.zero, cat.sum, cat.translate, cat.triangles, cat.tensor):
        _section_by_scan(p, add, "module")
        n, k = p.n_objects, p.base
        _check_table_by_scan(n, p.action, k.n_objects, n, "action")
        rng, krng, act = range(n), range(k.n_objects), p.action
        for m in rng:
            if act[k.unit][m] != m:
                add("action-unit", "1 * m != m", m)
            if act[k.zero][m] != p.zero:
                add("action-zero-left", "0_K * m != 0_M", m)
        for a in krng:
            if act[a][p.zero] != p.zero:
                add("action-zero-right", "a * 0_M != 0_M", a)
            for b in krng:
                for m in rng:
                    if act[k.tensor[a][b]][m] != act[a][act[b][m]]:
                        add("action-associative", "(ab)*m != a*(b*m)", a, b, m)
                    if act[k.sum[a][b]][m] != p.sum[act[a][m]][act[b][m]]:
                        add("action-distributive-left", "(a+b)*m != a*m + b*m", a, b, m)
            for m in rng:
                for m2 in rng:
                    if act[a][p.sum[m][m2]] != p.sum[act[a][m]][act[a][m2]]:
                        add("action-distributive-right", "a*(m+m') != a*m + a*m'",
                            a, m, m2)
    t1 = p.base.translate[p.base.unit]
    for m in range(p.n_objects):
        if p.translate[m] != p.action[t1][m]:
            add("translation-compatibility", "T(m) != T(1) * m", m)
    return violations
