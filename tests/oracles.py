"""Independent brute-force oracles used to cross-check the library.

Everything here is written directly from the defining conditions, without
going through the library's checkers or fixpoint machinery.  Two
exceptions: ``monoid_op_by_definition`` joins with ``generate``, the
certificate-recording fixpoint that the library's join does not use and
that the tests check against ``minimal_thick_superset``; and
``classify_by_definition`` ranges over ``all_submodules`` and the principal
table, which the tests check against ``brute_thick_sets``.
"""

from itertools import combinations

from ttg import all_submodules, generate


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
    """The four operator flags and their witnesses, every condition checked
    over every thick submodule: extensive, idempotent and finite type point
    by point, then order preservation over every pair N <= N2."""
    subs = all_submodules(p)
    witnesses = []
    extensive = order_preserving = idempotent = finite_type = True
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
    return (extensive, order_preserving, idempotent, finite_type,
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
