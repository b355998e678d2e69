"""Property-based checks over random seeds and operator inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ttg import generate, is_thick, spectral_report, support_model, witnesses
from ttg.presentation import chain_model
from ttg.space import SModSpace
from ttg.thick import _closure

from conftest import bar, delta
from oracles import minimal_thick_superset, spectral_by_definition

SUPPORT3 = support_model(3)
CHAIN4 = chain_model(4)

support3_seeds = st.frozensets(st.integers(0, SUPPORT3.n_objects - 1))
chain4_seeds = st.frozensets(st.integers(0, CHAIN4.n_objects - 1))


@given(support3_seeds)
def test_generate_is_thick_and_minimal(X):
    members, _ = generate(SUPPORT3, X)
    assert is_thick(SUPPORT3, members)
    assert members == minimal_thick_superset(SUPPORT3, X)


@given(chain4_seeds)
def test_generate_minimal_on_chain(X):
    members, _ = generate(CHAIN4, X)
    assert members == minimal_thick_superset(CHAIN4, X)


@given(support3_seeds.filter(bool))
def test_bar_properties(X):
    barred = bar(SUPPORT3, X)
    assert X <= barred
    assert SUPPORT3.zero in barred
    assert bar(SUPPORT3, barred) == barred


@given(support3_seeds)
def test_delta_monotone_with_zero(X):
    X = X | {SUPPORT3.zero}
    assert X <= delta(SUPPORT3, X)


@given(support3_seeds)
def test_witnesses_are_seeds_that_regenerate(X):
    members, cert = generate(SUPPORT3, X)
    for m in members:
        W = witnesses(cert, m, X)
        assert W <= X
        regenerated, _ = generate(SUPPORT3, W)
        assert m in regenerated


@given(support3_seeds, support3_seeds)
def test_add_is_join(X, Y):
    N, _ = generate(SUPPORT3, X)
    N2, _ = generate(SUPPORT3, Y)
    joined = _closure(SUPPORT3, N | N2)
    assert N | N2 <= joined
    assert joined == minimal_thick_superset(SUPPORT3, N2 | N)
    assert _closure(SUPPORT3, N | N) == N


@given(st.integers(0, SUPPORT3.n_objects - 1))
def test_principal_is_smallest(m):
    K = SUPPORT3.principals[m]
    assert m in K
    assert K == minimal_thick_superset(SUPPORT3, frozenset({m}))


@st.composite
def finite_spaces(draw):
    """1-6 points with 1-6 arbitrary basic opens, intersection-closed or not."""
    npts = draw(st.integers(1, 6))
    basis = draw(st.lists(st.frozensets(st.integers(0, npts - 1)),
                          min_size=1, max_size=6))
    return SModSpace(tuple(frozenset({i}) for i in range(npts)), tuple(basis))


@given(finite_spaces())
def test_spectral_t0_and_sober_match_exhaustive_oracle(space):
    rep = spectral_report(space)
    derived = tuple(w for w in rep.witnesses if w[0] in ("t0", "sober"))
    assert (rep.t0, rep.sober, derived) == spectral_by_definition(space)
