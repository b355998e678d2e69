"""Acceptance suite: one test per criterion, exact tolerances, one line each.

All checks are exhaustive at desk scale over the reference models
support_model(2), support_model(3) and chain_model(3).  Criterion 3, whose
identities the library derives, also runs its scans over support_model(4),
chain_model(6), graded2 (T != id) and restrict2 (a module M != K).
"""

import json
import time

import pytest

from ttg import (all_submodules, basis_properties, chain_model, classify,
                 division, enumerate_smod, fixed_points, from_family,
                 generate, identity_operator, monoid_report, radical,
                 spectral_report, support_model, table_operator,
                 ultrafilter_check, validate_family, witnesses)
from ttg.cli import main
from ttg.operators import FamilyError

from oracles import (all_subsets, basis_by_definition, brute_thick_sets,
                     iterate_operator, minimal_thick_superset,
                     mult_closed_sets)


def _announce(num, label, started):
    print("criterion %d (%s): PASS in %.2fs" % (num, label, time.time() - started))


def _all_seeds(p):
    n = p.n_objects
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def _shipped_operators(p, promote_table):
    """Every operator family named by criterion 5 for the given model."""
    ops = [("identity", identity_operator(p)), ("radical", radical(p))]
    for S in mult_closed_sets(p):
        ops.append(("division(%s)" % sorted(S), division(p, S)))
    subs = all_submodules(p)
    for F in all_subsets(subs):
        try:
            fam = validate_family(p, F)
        except FamilyError:
            continue
        ops.append(("family(%d members)" % len(fam), from_family(p, fam)))
    ops.append(("promote", table_operator(p, promote_table)))
    return ops


PROMOTE_CHAIN3 = {0: {0}, 1: {0, 1, 2}, 2: {0, 1, 2, 3}, 3: {0, 1, 2, 3}}


def promote_for(p):
    if p.n_objects == 4 and p.names[-1] == "r":
        return PROMOTE_CHAIN3
    # support models: the constant-full promote analogue
    full = frozenset(range(p.n_objects))
    return {m: full for m in range(p.n_objects)}


def test_criterion_1_generation_oracle(support2, support3, chain3):
    started = time.time()
    for p in (support2, support3, chain3):
        for X in _all_seeds(p):
            members, _ = generate(p, X)
            assert members == minimal_thick_superset(p, X)
    _announce(1, "generation-oracle equivalence", started)


def test_criterion_2_smod_completeness(support2, support3, chain3):
    started = time.time()
    for p in (support2, support3, chain3):
        space = enumerate_smod(p)
        assert list(space.points) == brute_thick_sets(p)
    assert len(enumerate_smod(support2).points) == 4
    chain_pts = list(enumerate_smod(chain3).points)
    assert len(chain_pts) == 4
    assert all(chain_pts[i] < chain_pts[i + 1] for i in range(3))
    _announce(2, "SMod completeness", started)


def test_criterion_3_basis_properties(support2, support3, chain3, graded2,
                                      restrict2):
    started = time.time()
    for p in (support2, support3, chain3, support_model(4), chain_model(6),
              graded2, restrict2):
        space = enumerate_smod(p)
        rep = basis_properties(p, space)
        assert rep.passed, rep.witnesses
        assert basis_by_definition(p, space) == (True,) * 5 + ((),)
    _announce(3, "basis properties", started)


def test_criterion_4_family_round_trip(support2, chain3, promote):
    started = time.time()
    subs = all_submodules(support2)
    n_valid = 0
    for F in all_subsets(subs):
        try:
            fam = validate_family(support2, F)
        except FamilyError:
            continue
        n_valid += 1
        c = from_family(support2, fam)
        fixed = frozenset(N for N in subs if c.apply(N) == N)
        assert fixed == fam
    assert n_valid >= 2
    for p, c in [(support2, identity_operator(support2)),
                 (support2, radical(support2)),
                 (support2, division(support2, {1})),
                 (chain3, promote),
                 (chain3, radical(chain3))]:
        assert classify(p, c).gate
        fixed = [N for N in all_submodules(p) if c.apply(N) == N]
        validate_family(p, fixed)  # raises on violation
    _announce(4, "family round trip", started)


def test_criterion_5_spectral_instances(support2, chain3):
    started = time.time()
    for p in (support2, chain3):
        for name, c in _shipped_operators(p, promote_for(p)):
            assert classify(p, c).gate, name
            fixed = fixed_points(enumerate_smod(p), c)
            srep = spectral_report(fixed)
            assert srep.spectral, (name, srep.witnesses)
            urep = ultrafilter_check(fixed, c)
            assert urep.passed, (name, urep.results)
            for r in urep.results:
                assert r.thick and r.fixed and r.equals_point
    _announce(5, "spectral instance verification", started)


def test_criterion_6_witnesses(support2, support3, chain3):
    started = time.time()
    for p in (support2, support3, chain3):
        for X in _all_seeds(p):
            members, cert = generate(p, X)
            for m in members:
                W = witnesses(cert, m, X)
                assert W <= X and len(W) < float("inf")
                regenerated, _ = generate(p, W)
                assert m in regenerated
    _announce(6, "finite witnesses", started)


def test_criterion_7_c_infinity(support2, chain3, promote):
    started = time.time()
    cases = [(chain3, promote),
             (support2, table_operator(support2, promote_for(support2))),
             (chain3, table_operator(chain3, {m: chain3.principals[m]
                                              for m in range(4)}))]
    for p, c in cases:
        ci = c.completion
        for N in all_submodules(p):
            out = ci.apply(N)
            assert c.apply(out) == out
            assert out == iterate_operator(c, N)
            union = frozenset().union(*(ci.apply(p.principals[n]) for n in N))
            assert out == union
    _announce(7, "c-infinity completion", started)


def test_criterion_8_monoid_instances(support2, chain3):
    started = time.time()
    for p in (support2, chain3):
        for name, c in _shipped_operators(p, promote_for(p)):
            rep = monoid_report(c)
            assert rep.passed, (name, rep.witnesses)
    _announce(8, "monoid instance verification", started)


def test_criterion_9_report_determinism(models_dir, tmp_path):
    started = time.time()
    import os
    model = os.path.join(models_dir, "support2.json")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["report", "--model", model, "--out", str(out1)]) == 0
    assert main(["report", "--model", model, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())
    _announce(9, "report determinism", started)
