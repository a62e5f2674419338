from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtensor.brauer import (
    BrauerDiagram,
    BrauerElement,
    beta_ij,
    casimir_ad,
    compose_diagrams,
    diagram_basis,
    diagram_eta,
    embed_group_algebra,
    eta_sign,
    from_partners,
    from_permutation,
    generator_beta,
    generator_sigma,
    identity_diagram,
    multiply,
    partners,
    reference_pairing,
    sigma_ij,
    times_beta,
    transposed,
)
from gradedtensor.combinatorics import all_pairings, double_factorial, face_decomposition, perm_sign
from gradedtensor.polynomial import Poly
from gradedtensor.young import (
    GroupAlgebraElement,
    YoungDiagram,
    all_perms,
    compose_perms,
    partitions,
    young_symmetrizer,
)
from conftest import diagrams, permuted_above, permuted_below, rand_diagram


Z = Poly.x()


def test_diagram_canonicalization_and_validation():
    d = BrauerDiagram(2, ((4, 2), (3, 1)))
    assert d.pairs == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        BrauerDiagram(2, ((1, 2), (2, 3)))


def test_displayed_permutation_product():
    sigma = BrauerDiagram(4, ((1, 6), (2, 7), (3, 5), (4, 8)))
    tau = BrauerDiagram(4, ((1, 6), (2, 5), (3, 8), (4, 7)))
    prod, loops = compose_diagrams(sigma, tau)
    assert prod.pairs == ((1, 7), (2, 6), (3, 8), (4, 5))
    assert loops == 0


def test_displayed_arc_product_with_loop():
    beta = BrauerDiagram(4, ((1, 3), (2, 4), (5, 6), (7, 8)))
    upsilon = BrauerDiagram(4, ((1, 2), (3, 8), (4, 6), (5, 7)))
    prod, loops = compose_diagrams(beta, upsilon)
    assert prod.pairs == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert loops == 1


def test_identity_is_neutral(rng):
    for _ in range(100):
        d = rand_diagram(rng, 5)
        left, l1 = compose_diagrams(d, identity_diagram(5))
        right, l2 = compose_diagrams(identity_diagram(5), d)
        assert left == d and right == d
        assert l1 == 0 and l2 == 0


def test_permutation_diagram_product_matches_composition(rng):
    for _ in range(50):
        perms = list(all_perms(4))
        p = perms[rng.randrange(len(perms))]
        q = perms[rng.randrange(len(perms))]
        prod, loops = compose_diagrams(from_permutation(p), from_permutation(q))
        assert loops == 0
        assert prod == from_permutation(compose_perms(p, q))


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_generator_relations(D):
    one = BrauerElement.one(D)
    for i in range(1, D):
        s = BrauerElement.of_diagram(generator_sigma(D, i))
        b = BrauerElement.of_diagram(generator_beta(D, i))
        assert multiply(s, s) == one
        assert multiply(b, b) == b.scaled(Z)
        assert multiply(s, b) == b
        assert multiply(b, s) == b


def test_generator_specializations():
    assert beta_ij(2, 1, 2) == generator_beta(2, 1)
    assert sigma_ij(3, 1, 3).pairs == ((1, 6), (2, 5), (3, 4))
    assert beta_ij(3, 1, 3).pairs == ((1, 3), (2, 5), (4, 6))
    with pytest.raises(ValueError):
        sigma_ij(3, 2, 2)
    with pytest.raises(ValueError):
        generator_beta(3, 3)


def test_associativity_on_random_triples(rng):
    for _ in range(100):
        e1 = BrauerElement.of_diagram(rand_diagram(rng, 4))
        e2 = BrauerElement.of_diagram(rand_diagram(rng, 4))
        e3 = BrauerElement.of_diagram(rand_diagram(rng, 4))
        assert multiply(multiply(e1, e2), e3) == multiply(e1, multiply(e2, e3))


def test_strand_count_mismatch():
    with pytest.raises(ValueError, match="strand-count mismatch"):
        compose_diagrams(identity_diagram(2), identity_diagram(3))
    with pytest.raises(ValueError, match="strand-count mismatch"):
        multiply(BrauerElement.one(2), BrauerElement.one(3))


def test_casimir_structure():
    a2 = casimir_ad(2)
    assert a2 == BrauerElement.of_diagram(beta_ij(2, 1, 2))
    assert len(casimir_ad(3).terms) == 3
    assert len(casimir_ad(5).terms) == 10
    with pytest.raises(ValueError):
        casimir_ad(1)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_casimir_commutes_with_permutations(D):
    a = casimir_ad(D)
    for p in all_perms(D):
        s = BrauerElement.of_diagram(from_permutation(p))
        assert multiply(s, a) == multiply(a, s)


def test_casimir_commutes_with_symmetrizers():
    for D in (2, 3, 4):
        a = casimir_ad(D)
        for rows in partitions(D):
            c = embed_group_algebra(young_symmetrizer(YoungDiagram(rows)), D)
            assert multiply(a, c) == multiply(c, a)


def test_eta_values():
    assert eta_sign(identity_diagram(4)) == 1
    for D in (2, 3, 4):
        for i in range(1, D):
            assert eta_sign(generator_sigma(D, i)) == -1
            assert eta_sign(generator_beta(D, i)) == 1


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_eta_extends_permutation_sign(D):
    for p in all_perms(D):
        assert eta_sign(from_permutation(p)) == perm_sign(p)


def test_embedding_identity_and_multiplicativity(rng):
    assert embed_group_algebra(
        GroupAlgebraElement.of_perm((0, 1, 2)), 3
    ) == BrauerElement.one(3)
    perms = list(all_perms(4))
    for _ in range(50):
        p = perms[rng.randrange(len(perms))]
        q = perms[rng.randrange(len(perms))]
        ep = GroupAlgebraElement.of_perm(p)
        eq = GroupAlgebraElement.of_perm(q)
        lhs = embed_group_algebra(ep * eq, 4)
        rhs = multiply(embed_group_algebra(ep, 4), embed_group_algebra(eq, 4))
        assert lhs == rhs


def test_embedding_of_full_symmetrizer():
    c = embed_group_algebra(young_symmetrizer(YoungDiagram((2,))), 2)
    assert c == BrauerElement.one(2) + BrauerElement.of_diagram(sigma_ij(2, 1, 2))


def test_composition_conserves_points(rng):
    for _ in range(100):
        d1 = rand_diagram(rng, 4)
        d2 = rand_diagram(rng, 4)
        prod, loops = compose_diagrams(d1, d2)
        assert len(prod.pairs) == 4
        assert loops >= 0


def test_element_json_format():
    e = BrauerElement(2, {beta_ij(2, 1, 2): Poly([Fraction(1, 2), 0, -1])})
    assert e.to_json() == {
        "D": 2,
        "terms": [{"diagram": {"D": 2, "pairs": [[1, 2], [3, 4]]}, "coeff": ["1/2", "0", "-1"]}],
    }


def test_diagram_json_format():
    d = beta_ij(3, 1, 3)
    assert d.to_json() == {"D": 3, "pairs": [[1, 3], [2, 5], [4, 6]]}


@settings(max_examples=300, deadline=None)
@given(d=diagrams(min_D=2), data=st.data())
def test_arc_update_is_the_product_with_beta(d, data):
    i = data.draw(st.integers(1, d.D - 1))
    j = data.draw(st.integers(i + 1, d.D))
    p = partners(d)
    q = times_beta(p, i, j)
    # a loop closes exactly when the partner tuple comes back unchanged
    assert (from_partners(q), int(q == p)) == compose_diagrams(d, beta_ij(d.D, i, j))


@settings(max_examples=300, deadline=None)
@given(d=diagrams(), data=st.data())
def test_permutation_products_are_relabelings(d, data):
    sigma = tuple(data.draw(st.permutations(range(d.D))))
    p = partners(d)
    assert from_partners(p) == d
    below = compose_diagrams(from_permutation(sigma), d)
    above = compose_diagrams(d, from_permutation(sigma))
    assert below == (from_partners(permuted_below(p, sigma)), 0)
    assert above == (from_partners(permuted_above(p, sigma)), 0)


@settings(max_examples=300, deadline=None)
@given(d=diagrams(min_D=2), data=st.data())
def test_bottom_arc_update_is_the_product_with_beta_below(d, data):
    i = data.draw(st.integers(1, d.D - 1))
    j = data.draw(st.integers(i + 1, d.D))
    p = partners(d)
    q = times_beta(p, d.D + i, d.D + j)
    assert (from_partners(q), int(q == p)) == compose_diagrams(beta_ij(d.D, i, j), d)


@settings(max_examples=300, deadline=None)
@given(d=diagrams(min_D=2), data=st.data())
def test_transposition_swaps_two_points(d, data):
    D = d.D
    i = data.draw(st.integers(1, D - 1))
    j = data.draw(st.integers(i + 1, D))
    p = partners(d)
    swap = list(range(D))
    swap[i - 1], swap[j - 1] = j - 1, i - 1
    assert transposed(p, D + i, D + j) == permuted_below(p, tuple(swap))
    assert transposed(p, i, j) == permuted_above(p, tuple(swap))
    assert (from_partners(transposed(p, D + i, D + j)), 0) == compose_diagrams(sigma_ij(D, i, j), d)
    assert (from_partners(transposed(p, i, j)), 0) == compose_diagrams(d, sigma_ij(D, i, j))


@settings(max_examples=300, deadline=None)
@given(d=diagrams())
def test_closure_loops_are_the_faces_against_the_reference_pairing(d):
    basis = diagram_basis(d.D)
    loops = basis.loops[basis.number(partners(d))]
    assert loops == face_decomposition(d.oriented(), reference_pairing(d.D)).total


# -- the numbered diagrams of B_D and their int rows ----------------------------


def assert_rows_match_primitives(d):
    D = d.D
    basis = diagram_basis(D)
    p = partners(d)
    k = basis.number(p)
    assert basis.partners[k] == p
    assert len(basis.arcs) == D * (D - 1) // 2
    for a, (i, j) in enumerate(basis.arcs):
        q = times_beta(p, i, j)
        assert basis.partners[basis.top[k][a]] == q, (i, j)
        # a loop closes exactly when the image is the diagram itself
        assert (basis.top[k][a] == k) == (q == p), (i, j)
        assert basis.partners[basis.swapped[k][a]] == transposed(p, D + i, D + j)
    assert basis.loops[k] == face_decomposition(d.oriented(), reference_pairing(D)).total
    assert basis.diagram(k) == from_partners(p) == d
    assert diagram_eta(p) == eta_sign(basis.diagram(k))


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_rows_match_their_primitives_on_every_diagram(D):
    every = [BrauerDiagram(D, pairs) for pairs in all_pairings(2 * D)]
    for d in every:
        assert_rows_match_primitives(d)
    basis = diagram_basis(D)
    assert sorted(basis.partners) == sorted(partners(d) for d in every)
    assert basis.partners[0] == partners(identity_diagram(D))


@settings(max_examples=200, deadline=None)
@given(d=diagrams(min_D=5, max_D=6))
def test_rows_match_their_primitives_at_d5_and_d6(d):
    assert_rows_match_primitives(d)
    assert len(diagram_basis(d.D).partners) == double_factorial(2 * d.D - 1)


# -- B_D's S_D-conjugation orbits --------------------------------------------


def conjugated(p, sigma):
    """sigma*d*sigma^-1: d's top point i+1 becomes sigma(i)+1 and its bottom
    point D+1+i becomes D+1+sigma(i)."""
    D = len(sigma)
    image = (0,) + tuple(s + 1 for s in sigma) + tuple(D + 1 + s for s in sigma)
    q = [0] * len(p)
    for x, y in enumerate(p):
        q[image[x]] = image[y]
    return tuple(q)


def test_orbit_counts_at_d2_to_d6():
    # Burnside's count of S_D acting on B_D by conjugation
    assert [len(diagram_basis(D).orbits.members) for D in range(2, 7)] == [3, 5, 12, 20, 44]


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_orbits_are_the_conjugation_classes(D):
    basis = diagram_basis(D)
    members = basis.orbits.members
    classes = {
        frozenset(basis.number(conjugated(p, sigma)) for sigma in all_perms(D))
        for p in basis.partners
    }
    assert set(map(frozenset, members)) == classes
    assert sum(map(len, members)) == len(basis.partners)
    # numbered in the order of their least diagram, each listed first; the
    # identity is alone in orbit 0
    assert [m[0] for m in members] == sorted(map(min, members))
    assert members[0] == [0]


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_orbit_rows_are_the_arc_sum_on_each_orbit_sum(D):
    # S_o * A summed over every diagram of orbit o, its loop part apart,
    # against z loops[o] S_o + sum of c S_t over (t, c) in ad[o]
    basis = diagram_basis(D)
    orbits = basis.orbits
    for o, members in enumerate(orbits.members):
        free, closed = {}, {}
        for k in members:
            for q in basis.top[k]:
                part = closed if q == k else free
                part[q] = part.get(q, 0) + 1
        assert free == {k: c for t, c in orbits.ad[o] for k in orbits.members[t]}, o
        assert closed == {k: orbits.loops[o] for k in members if orbits.loops[o]}, o
