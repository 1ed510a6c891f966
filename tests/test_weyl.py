from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ROOT_DATA,
    alternating_projection,
    dot,
    form_pair,
    freudenthal_multiplicities,
    laurent_divide_2d,
    leibniz_det,
    mat_vec,
    restricted_character,
    simple_root_coordinates,
    to_dominant,
    vscale,
    weyl_dimension,
    weyl_orbit,
)

from wflag.formats import G2_FORMAT, GR25_FORMAT
from wflag.weyl import identity_matrix, weyl_elements

# rank-2 exceptional root system in simple-root coordinates
G2 = ROOT_DATA["g2"]
G2_GENS, G2_FORM, G2_POS, G2_RHO = (
    G2.weyl_generators, G2.invariant_form, G2.positive_roots, G2.weyl_vector
)
G2_LAM = G2_FORMAT.highest_weight  # highest long root: the adjoint module

# symmetric group S5 acting on Z^5 by coordinate permutation
S5 = ROOT_DATA["gr25"]
S5_GENS, S5_FORM, S5_POS, S5_RHO = (
    S5.weyl_generators, S5.invariant_form, S5.positive_roots, S5.weyl_vector
)
S5_LAM = GR25_FORMAT.highest_weight  # second exterior power of the standard module


def test_weyl_group_orders_and_signs():
    g2 = weyl_elements(G2_GENS)
    assert len(g2) == 12
    assert sum(s for _, s in g2) == 0
    s5 = weyl_elements(S5_GENS)
    assert len(s5) == 120
    assert dict(s5)[identity_matrix(5)] == 1
    # walking the reflections reaches the orbit through every group element
    for gens, elements, v in ((G2_GENS, g2, (1, 0)), (S5_GENS, s5, (3, 1, 1, 0, 0))):
        assert weyl_orbit(v, gens) == {mat_vec(m, v) for m, _ in elements}
    assert len(weyl_orbit(G2_LAM, G2_GENS)) == 6
    assert len(weyl_orbit(S5_LAM, S5_GENS)) == 10


def test_weyl_signs_are_leibniz_determinants():
    # the closure signs each element by the parity of a word in the
    # generators, which holds because every generator is a reflection
    for gens, order in ((G2_GENS, 12), (S5_GENS, 120)):
        elements = weyl_elements(gens)
        assert len(elements) == order
        for m, sign in elements:
            assert sign == leibniz_det(m), m


def test_weyl_dimension_goldens():
    assert weyl_dimension(G2_LAM, G2_POS, G2_FORM, G2_RHO) == 14
    assert weyl_dimension(vscale(2, G2_LAM), G2_POS, G2_FORM, G2_RHO) == 77
    assert weyl_dimension(S5_LAM, S5_POS, S5_FORM, S5_RHO) == 10
    assert weyl_dimension(vscale(2, S5_LAM), S5_POS, S5_FORM, S5_RHO) == 50
    assert weyl_dimension(vscale(3, S5_LAM), S5_POS, S5_FORM, S5_RHO) == 175


def test_adjoint_weights():
    mults = freudenthal_multiplicities(G2_LAM, G2_POS, 2, G2_FORM, G2_RHO, G2_GENS)
    expect = {r: 1 for r in G2_POS}
    expect.update({tuple(-x for x in r): 1 for r in G2_POS})
    expect[(0, 0)] = 2
    assert mults == expect


def test_exterior_square_weights():
    mults = freudenthal_multiplicities(S5_LAM, S5_POS, 4, S5_FORM, S5_RHO, S5_GENS)
    expect = {
        tuple(int(k in (i, j)) for k in range(5)): 1
        for i in range(5)
        for j in range(i + 1, 5)
    }
    assert mults == expect


def test_freudenthal_total_matches_dimension():
    for d in (1, 2, 3):
        mults = freudenthal_multiplicities(
            vscale(d, G2_LAM), G2_POS, 2, G2_FORM, G2_RHO, G2_GENS
        )
        assert sum(mults.values()) == weyl_dimension(
            vscale(d, G2_LAM), G2_POS, G2_FORM, G2_RHO
        )
    for d in (1, 2):
        mults = freudenthal_multiplicities(
            vscale(d, S5_LAM), S5_POS, 4, S5_FORM, S5_RHO, S5_GENS
        )
        assert sum(mults.values()) == weyl_dimension(
            vscale(d, S5_LAM), S5_POS, S5_FORM, S5_RHO
        )


def _project(mults, mu, delta):
    out = {}
    for v, m in mults.items():
        key = (dot(v, mu), dot(v, delta))
        out[key] = out.get(key, 0) + m
    return {k: c for k, c in out.items() if c}


def test_restricted_character_matches_freudenthal():
    delta = (1, 1)
    for mu in [(-1, 1), (0, 0), (-3, 4), (1, 0)]:
        for d in (1, 2):
            lam = vscale(d, G2_LAM)
            char = restricted_character(G2_GENS, lam, G2_RHO, mu, delta)
            mults = freudenthal_multiplicities(
                lam, G2_POS, 2, G2_FORM, G2_RHO, G2_GENS
            )
            assert char == _project(mults, mu, delta)
    delta5 = S5_RHO
    for mu in [(0, 0, 0, 0, 0), (0, 0, 1, 1, 2), (0, 1, 2, 3, 4)]:
        for d in (1, 2):
            lam = vscale(d, S5_LAM)
            char = restricted_character(S5_GENS, lam, S5_RHO, mu, delta5)
            mults = freudenthal_multiplicities(
                lam, S5_POS, 4, S5_FORM, S5_RHO, S5_GENS
            )
            assert char == _project(mults, mu, delta5)


def test_character_total_is_dimension():
    char = restricted_character(G2_GENS, vscale(3, G2_LAM), G2_RHO, (-1, 1), (1, 1))
    assert sum(char.values()) == weyl_dimension(
        vscale(3, G2_LAM), G2_POS, G2_FORM, G2_RHO
    )


def _l2_mul(a, b):
    out = {}
    for (f1, h1), c1 in a.items():
        for (f2, h2), c2 in b.items():
            k = (f1 + f2, h1 + h2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


sparse = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60)
@given(sparse, sparse)
def test_laurent_division_inverts_multiplication(q, d):
    # force a usable leading term on the divisor
    top = max(k[1] for k in d)
    d[(0, top + 1)] = 1
    prod = _l2_mul(q, d)
    q_clean = {k: c for k, c in q.items() if c}
    assert laurent_divide_2d(prod, d) == q_clean


def test_simple_root_coordinates():
    assert simple_root_coordinates((3, 2), G2_POS[:2]) == (3, 2)
    c = simple_root_coordinates((1, 0, -1, 0, 0), S5_POS[:4])
    assert c == (1, 1, 0, 0)
    assert simple_root_coordinates((1, 0, 0, 0, 0), S5_POS[:4]) is None
    # in the rational span but not in the lattice of the roots
    assert simple_root_coordinates((2, 4), ((2, 0), (0, 2))) == (1, 2)
    assert simple_root_coordinates((1, 0), ((2, 0), (0, 2))) is None


def test_to_dominant_is_orbit_invariant():
    for v in [(2, -1), (-5, 3), (0, -2), (7, -7)]:
        d0 = to_dominant(v, G2_POS[:2], G2_FORM, G2_GENS)
        for m, _ in weyl_elements(G2_GENS):
            assert to_dominant(mat_vec(m, v), G2_POS[:2], G2_FORM, G2_GENS) == d0
        assert all(form_pair(G2_FORM, d0, a) >= 0 for a in G2_POS[:2])


def test_alternating_projection_antisymmetry():
    # a vector fixed by a reflection has vanishing alternating sum
    els = weyl_elements(G2_GENS)
    proj = alternating_projection(els, (0, 0), (1, 1), (1, 0))
    assert proj == {}
