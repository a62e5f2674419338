"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single [criterion N] PASS line when it completes; a
failing assertion surfaces through pytest as the FAIL line for that
criterion.
"""

import random
from fractions import Fraction

import pytest

from gradedtensor.brauer import (
    BrauerDiagram,
    BrauerElement,
    compose_diagrams,
    from_permutation,
    multiply,
)
from gradedtensor.combinatorics import (
    DirectedPairing,
    disjoint_union,
    face_decomposition,
    pairing_sign,
)
from gradedtensor.model import (
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    duality_check,
    enumerate_invariants,
    gaussian_expectation,
    graph_amplitude,
    wick_expand,
)
from gradedtensor.oracle import numeric_invariant_expectation
from gradedtensor.polynomial import Poly
from gradedtensor.representation import (
    GradedForm,
    ad_matrix,
    decompose_projector_as_propagator,
    diagram_to_map,
    element_to_map,
    symmetric_traceless_projector,
    traceless_element,
    traceless_projector,
)
from gradedtensor.young import (
    YoungDiagram,
    all_perms,
    gl_dimension_poly,
    partitions,
    dimension_duality_check,
)
from conftest import rand_connected_graph, rand_diagram


def report(number: int, description: str):
    print(f"[criterion {number}] {description}: PASS")


def poly_from_roots(roots, scale):
    out = Poly.const(scale)
    for r in roots:
        out = out * Poly((Fraction(r), Fraction(1)))
    return out


def test_criterion_1_dimension_polynomials():
    # the two displayed polynomials of the duality example, attached per the
    # product formula (the display swaps their labels; see the duality
    # identity below, which forces dim((3,1), -N) = dim((2,1,1), N))
    n_n1_n2_p1 = poly_from_roots([0, -1, -2, 1], Fraction(1, 8))  # N(N-1)(N-2)(N+1)/8
    n_n1_p1_p2 = poly_from_roots([0, -1, 1, 2], Fraction(1, 8))  # N(N-1)(N+1)(N+2)/8
    assert gl_dimension_poly(YoungDiagram((2, 1, 1))) == n_n1_n2_p1
    assert gl_dimension_poly(YoungDiagram((3, 1))) == n_n1_p1_p2
    # the display itself, read consistently: dim((3,1)) at -N is the (2,1,1) value
    assert gl_dimension_poly(YoungDiagram((3, 1))).reflected() == n_n1_n2_p1
    for d in range(1, 8):
        for rows in partitions(d):
            assert dimension_duality_check(YoungDiagram(rows))
    report(1, "dimension polynomial regression and duality up to D=7")


def test_criterion_2_brauer_product_displays():
    sigma = BrauerDiagram(4, ((1, 6), (2, 7), (3, 5), (4, 8)))
    tau = BrauerDiagram(4, ((1, 6), (2, 5), (3, 8), (4, 7)))
    prod, loops = compose_diagrams(sigma, tau)
    assert prod == BrauerDiagram(4, ((1, 7), (2, 6), (3, 8), (4, 5)))
    assert loops == 0

    beta = BrauerDiagram(4, ((1, 3), (2, 4), (5, 6), (7, 8)))
    upsilon = BrauerDiagram(4, ((1, 2), (3, 8), (4, 6), (5, 7)))
    prod, loops = compose_diagrams(beta, upsilon)
    assert prod == BrauerDiagram(4, ((1, 2), (3, 4), (5, 6), (7, 8)))
    assert loops == 1
    # as elements: beta*upsilon = z * (that diagram)
    product = multiply(BrauerElement.of_diagram(beta), BrauerElement.of_diagram(upsilon))
    assert product.terms == {prod: Poly.monomial(1)}
    report(2, "displayed Brauer products, including the loop factor")


def test_criterion_3_two_vertex_face_count():
    from gradedtensor.model import count_faces

    graph = StrandedGraph(3, 2, ((1, 4), (2, 5), (3, 6)))
    completions = wick_expand(graph, Propagator.identity(3), 0)
    assert len(completions) == 1
    total, even, odd = count_faces(completions[0])
    assert total == 3
    assert graph_amplitude(completions[0], 0) == Poly.monomial(3)
    assert graph_amplitude(wick_expand(graph, Propagator.identity(3), 1)[0], 1) == (
        Poly.monomial(3) * (-1)
    )
    report(3, "two-vertex D=3 graph has 3 faces and amplitude +/- N^3")


@pytest.mark.parametrize("D,N,b", [(2, 3, 0), (3, 2, 0), (2, 2, 1), (3, 2, 1)])
def test_criterion_4_homomorphism(D, N, b):
    rng = random.Random(1000 + 10 * D + N + b)
    form = GradedForm(N, b)
    for _ in range(25):
        e1 = BrauerElement.of_diagram(rand_diagram(rng, D), Fraction(rng.randint(1, 3), 2))
        e1 = e1 + BrauerElement.of_diagram(rand_diagram(rng, D), Poly((0, 1)))
        e2 = BrauerElement.of_diagram(rand_diagram(rng, D), rng.randint(-2, 2) or 1)
        e2 = e2 + BrauerElement.of_diagram(rand_diagram(rng, D), Fraction(-1, 3))
        lhs = element_to_map(multiply(e1, e2), form)
        rhs = element_to_map(e1, form).compose(element_to_map(e2, form))
        assert lhs == rhs
    report(4, f"action is multiplicative for 25 random pairs at (D,N,b)=({D},{N},{b})")


def _grading_grid():
    out = []
    for D in (1, 2, 3):
        for b in (0, 1):
            for N in (2, 3, 4):
                if b == 1 and N % 2:
                    continue
                out.append((D, N, b))
    return out


def test_criterion_5_projector_suite():
    from gradedtensor.representation import TensorMap

    for (D, N, b) in _grading_grid():
        form = GradedForm(N, b)
        rep = traceless_projector(D, form)
        assert rep.idempotent, (D, N, b)
        if D == 1:
            # no contractions exist: the traceless projector is the identity
            assert rep.projector == TensorMap.identity(N, 1)
            continue
        a = ad_matrix(D, form)
        assert a.compose(rep.projector).is_zero(), (D, N, b)
        for p in all_perms(D):
            pm = diagram_to_map(from_permutation(p), form)
            assert pm.compose(rep.projector) == rep.projector.compose(pm), (D, N, b, p)
    for D in (2, 3):
        form = GradedForm(4, 0)
        explicit = symmetric_traceless_projector(D, form)
        from gradedtensor.brauer import embed_group_algebra
        from math import factorial

        from gradedtensor.young import young_symmetrizer

        c_s = embed_group_algebra(young_symmetrizer(YoungDiagram((D,))), D).scaled(
            Fraction(1, factorial(D))
        )
        universal = multiply(traceless_element(D, form), c_s)
        assert explicit.projector == element_to_map(universal, form), D
        assert explicit.idempotent
    report(5, "traceless projector identities and the explicit product formula")


def _projector_table(lam: YoungDiagram, N: int, b: int = 0) -> Propagator:
    return Propagator.from_brauer_element(
        decompose_projector_as_propagator(lam, GradedForm(N, b))
    )


def test_criterion_6_duality_of_expectations():
    cases = []
    for lam in (YoungDiagram((2,)), YoungDiagram((1, 1))):
        table = _projector_table(lam, 3)
        for vertices in (2, 4):
            for g in enumerate_invariants(2, vertices):
                cases.append((g, table))
    for lam in (YoungDiagram((3,)), YoungDiagram((1, 1, 1))):
        table = _projector_table(lam, 4)
        for g in enumerate_invariants(3, 2):
            cases.append((g, table))
    assert len(cases) == 2 * (2 + 4) + 2 * 11
    for g, table in cases:
        verdict = duality_check(g, table)
        assert verdict.equal, (g.D, g.vertices, g.strands)
    report(6, f"N -> -N duality on {len(cases)} connected graphs with projector propagators")


def test_criterion_7a_oracle_equivalence_bosonic():
    checked = 0
    graphs = list(enumerate_invariants(2, 2)) + list(enumerate_invariants(2, 4))
    for N in (2, 3, 4):
        for lam in (YoungDiagram((2,)), YoungDiagram((1, 1))):
            table = _projector_table(lam, N)
            for g in graphs:
                pipeline = gaussian_expectation(g, table, 0)(Fraction(N))
                assert numeric_invariant_expectation(g, table, N, 0) == pipeline
                checked += 1
    assert checked == 3 * 2 * 6
    report(7, f"(a) oracle equals pipeline on {checked} bosonic instances")


def test_criterion_7b_oracle_equivalence_b1_bosonic():
    graphs = list(enumerate_invariants(2, 2)) + list(enumerate_invariants(2, 4))
    tables = [
        _projector_table(YoungDiagram((1, 1)), 2, b=1),
        _projector_table(YoungDiagram((2,)), 2, b=1),
        Propagator(
            2,
            (
                PropagatorTerm(((1, 3), (2, 4)), Poly.const(1)),
                PropagatorTerm(((1, 4), (2, 3)), Poly.const(1)),
            ),
        ),
    ]
    for table in tables:
        for g in graphs:
            pipeline = gaussian_expectation(g, table, 1)(Fraction(2))
            assert numeric_invariant_expectation(g, table, 2, 1) == pipeline
    report(7, "(b) oracle equals pipeline at b=1, D=2, N=2")


def test_criterion_7c_oracle_equivalence_fermionic():
    # odd parity: each assignment's moment is the Pfaffian of its covariance block
    quadratic = StrandedGraph(3, 2, ((1, 4), (2, 5), (3, 6)))
    tables = [
        Propagator.identity(3),
        _projector_table(YoungDiagram((1, 1, 1)), 2, b=1),
    ]
    for table in tables:
        pipeline = gaussian_expectation(quadratic, table, 1)(Fraction(2))
        assert numeric_invariant_expectation(quadratic, table, 2, 1) == pipeline
    # a couple of partially self-traced quadratic patterns as well
    for g in enumerate_invariants(3, 2)[:4]:
        pipeline = gaussian_expectation(g, Propagator.identity(3), 1)(Fraction(2))
        assert numeric_invariant_expectation(g, Propagator.identity(3), 2, 1) == pipeline
    report(7, "(c) Pfaffian oracle equals pipeline at b=1, D=3, N=2")


def test_criterion_8_sign_property_suite():
    rng = random.Random(8888)

    def rand_pairing(n):
        pts = list(range(1, n + 1))
        rng.shuffle(pts)
        return DirectedPairing(n, tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n // 2)))

    for _ in range(200):  # property 1: symmetry
        m1, m2 = rand_pairing(10), rand_pairing(10)
        assert pairing_sign(m1, m2) == pairing_sign(m2, m1)
    for _ in range(200):  # property 2: triple multiplicativity
        m1, m2, m3 = rand_pairing(10), rand_pairing(10), rand_pairing(10)
        assert pairing_sign(m1, m2) == pairing_sign(m1, m3) * pairing_sign(m2, m3)
    for _ in range(200):  # property 3: disjoint-union factorization
        m1, m2 = rand_pairing(6), rand_pairing(6)
        m3, m4 = rand_pairing(4), rand_pairing(4)
        assert pairing_sign(m1, m2) * pairing_sign(m3, m4) == pairing_sign(
            disjoint_union(m1, m3), disjoint_union(m2, m4)
        )
    for _ in range(200):  # property 4: sign equals (-1)^(even faces)
        m1, m2 = rand_pairing(10), rand_pairing(10)
        assert pairing_sign(m1, m2) == (-1) ** face_decomposition(m1, m2).even_count
    report(8, "sign properties 1-4 on 200 randomized instances each")


def test_criterion_9_invariance_suite():
    rng = random.Random(99)
    pairings_d2 = [((1, 3), (2, 4)), ((1, 4), (2, 3)), ((1, 2), (3, 4))]

    def random_table():
        terms = []
        for pairing in pairings_d2:
            w = Fraction(rng.randint(-2, 2))
            if w:
                terms.append(PropagatorTerm(pairing, Poly.const(w)))
        if not terms:
            terms = [PropagatorTerm(pairings_d2[0], Poly.const(1))]
        return Propagator(2, tuple(terms))

    checked = 0
    for _ in range(50):
        vertices = rng.choice((2, 4))
        g = rand_connected_graph(rng, 2, vertices)
        table = random_table()
        b = rng.choice((0, 1))
        base = gaussian_expectation(g, table, b)
        # vertex relabeling
        perm = list(range(vertices))
        rng.shuffle(perm)
        assert gaussian_expectation(g.relabel_vertices(perm), table, b) == base
        # strand reorientation
        flipped = tuple(
            (y, x) if rng.random() < 0.5 else (x, y) for x, y in g.strands
        )
        assert gaussian_expectation(g.with_orientation(flipped), table, b) == base
        # reference-pairing change, through the numeric evaluation route
        if checked < 20:
            numeric = numeric_invariant_expectation(g, table, 2, 0)
            if b == 0:
                assert numeric == base(Fraction(2))
            vs = list(range(1, vertices + 1))
            rng.shuffle(vs)
            ref = DirectedPairing(
                vertices, tuple((vs[2 * i], vs[2 * i + 1]) for i in range(vertices // 2))
            )
            assert numeric_invariant_expectation(g, table, 2, 0, ref=ref) == numeric
        checked += 1
    assert checked == 50
    report(9, "expectation invariant under relabeling, reorientation and reference change")
