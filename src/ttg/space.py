"""The finite topological space of thick submodules and its spectral checks.

Points are thick submodules, basic opens U(m) collect the points containing
m, and specialization is membership inclusion.  Spectrality of a finite
space is certified through the T0 axiom, sobriety, and an intersection-closed
basis of (automatically quasi-compact) opens; the ultrafilter check mirrors
the fixed-point construction over every principal ultrafilter.
"""

from dataclasses import dataclass
from itertools import combinations

from .thick import all_submodules, is_thick


@dataclass(frozen=True)
class SModSpace:
    points: tuple            # ordered, deduplicated frozensets of object ids
    basis: tuple             # object id m -> frozenset of point indices U(m)
    specialization: frozenset  # pairs (i, j): points[i] in closure of points[j]


def _point_key(s):
    return (len(s), sorted(s))


def make_space(points, n_objects):
    points = tuple(sorted(set(points), key=_point_key))
    basis = tuple(frozenset(i for i, pt in enumerate(points) if m in pt)
                  for m in range(n_objects))
    spec = frozenset((i, j) for i in range(len(points)) for j in range(len(points))
                     if points[i] <= points[j])
    return SModSpace(points, basis, spec)


def enumerate_smod(p):
    """All thick submodules of p with the U(m) basis."""
    return make_space(all_submodules(p), p.n_objects)


def fixed_points(space, c):
    """Subspace of points fixed by c, with the restricted basis."""
    return make_space([pt for pt in space.points if c.apply(pt) == pt],
                      len(space.basis))


@dataclass(frozen=True)
class SpectralReport:
    t0: bool
    sober: bool
    basis_quasi_compact: bool
    basis_intersection_closed: bool
    spectral: bool
    witnesses: tuple
    notes: tuple


def spectral_report(space):
    """Finite-scale spectrality certificate: T0 + sober + good basis.

    A point's profile is the set of basic opens holding it; T0 means no two
    profiles agree.  The closure of point i is {j : profile(j) <= profile(i)},
    and in a finite space every irreducible closed set is a point closure,
    so sober means no point closure has two generic points.
    """
    npts = len(space.points)
    witnesses = []
    profiles = [frozenset(m for m, U in enumerate(space.basis) if i in U)
                for i in range(npts)]
    t0 = True
    for i, j in combinations(range(npts), 2):
        if profiles[i] == profiles[j]:
            t0 = False
            witnesses.append(("t0", (i, j)))
            break

    closures = [frozenset(j for j in range(npts) if profiles[j] <= profiles[i])
                for i in range(npts)]
    sober = True
    for C in sorted(set(closures), key=_point_key):
        generics = [i for i in sorted(C) if closures[i] == C]
        if len(generics) > 1:
            sober = False
            witnesses.append(("sober", (tuple(sorted(C)), tuple(generics))))
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


@dataclass(frozen=True)
class UltrafilterPointResult:
    point: int
    thick: bool
    fixed: bool
    equals_point: bool
    biconditional: bool

    @property
    def ok(self):
        return self.thick and self.fixed and self.equals_point and self.biconditional


@dataclass(frozen=True)
class UltrafilterReport:
    results: tuple
    note: str

    @property
    def passed(self):
        return all(r.ok for r in self.results)


def ultrafilter_check(space, c):
    """Mirror the ultrafilter fixed-point construction on every point.

    All ultrafilters on a finite set are principal, so each point N gives
    the ultrafilter of subsets containing it; the induced submodule is the
    set of m with N in U(m), which must be thick, fixed by c, and equal N.
    """
    p = c.presentation
    results = []
    for i, N in enumerate(space.points):
        induced = frozenset(m for m in range(p.n_objects) if i in space.basis[m])
        thick = bool(is_thick(p, induced))
        fixed = c.apply(induced) == induced
        equals_point = induced == N
        bicond = all((i in space.basis[m]) == (m in induced)
                     for m in range(p.n_objects))
        results.append(UltrafilterPointResult(i, thick, fixed, equals_point, bicond))
    note = ("all ultrafilters on a finite point set are principal; "
            "checked one per point")
    return UltrafilterReport(tuple(results), note)


@dataclass(frozen=True)
class BasisReport:
    zero_is_everything: bool
    triangle_containment: bool
    sum_intersection: bool
    action_monotone: bool
    translation_invariant: bool
    witnesses: tuple

    @property
    def passed(self):
        return (self.zero_is_everything and self.triangle_containment
                and self.sum_intersection and self.action_monotone
                and self.translation_invariant)


def basis_properties(p, space):
    """Exhaustive check of the five structural identities of the U(m) basis."""
    witnesses = []
    everything = frozenset(range(len(space.points)))
    zero_ok = space.basis[p.zero] == everything
    if not zero_ok:
        witnesses.append(("zero", tuple(sorted(everything - space.basis[p.zero]))))

    tri_ok = True
    for t in sorted(p.triangles):
        for k in range(3):
            m, m1, m2 = t[k], t[(k + 1) % 3], t[(k + 2) % 3]
            if not space.basis[m1] & space.basis[m2] <= space.basis[m]:
                tri_ok = False
                witnesses.append(("triangle", (t, k)))
                break
        if not tri_ok:
            break

    sum_ok = True
    for m in range(p.n_objects):
        for m2 in range(p.n_objects):
            if space.basis[p.sum[m][m2]] != space.basis[m] & space.basis[m2]:
                sum_ok = False
                witnesses.append(("sum", (m, m2)))
                break
        if not sum_ok:
            break

    act_ok = True
    for a in range(p.base.n_objects):
        for m in range(p.n_objects):
            if not space.basis[m] <= space.basis[p.action[a][m]]:
                act_ok = False
                witnesses.append(("action", (a, m)))
                break
        if not act_ok:
            break

    tr_ok = True
    for m in range(p.n_objects):
        if space.basis[p.translate[m]] != space.basis[m]:
            tr_ok = False
            witnesses.append(("translate", (m,)))
            break

    return BasisReport(zero_ok, tri_ok, sum_ok, act_ok, tr_ok, tuple(witnesses))
