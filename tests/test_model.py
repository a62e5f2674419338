from fractions import Fraction

import pytest

from gradedtensor.combinatorics import DirectedPairing, all_pairings, double_factorial
from gradedtensor.model import (
    DualityReport,
    Interaction,
    ModelSpec,
    Propagator,
    PropagatorTerm,
    StrandedGraph,
    count_faces,
    disjoint_union_graphs,
    duality_check,
    enumerate_invariants,
    gaussian_expectation,
    graph_amplitude,
    invariant_sign_normal_form,
    perturbative_expansion,
    wick_expand,
)
from gradedtensor.polynomial import Poly
from gradedtensor.representation import GradedForm, decompose_projector_as_propagator
from gradedtensor.young import YoungDiagram
from conftest import rand_connected_graph, rand_diagram

import itertools


def dipole(D: int) -> StrandedGraph:
    """Two vertices joined slot-parallel by D strands."""
    return StrandedGraph(D, 2, tuple((c, D + c) for c in range(1, D + 1)))


def identity_plus_swap() -> Propagator:
    return Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly.const(1)),
            PropagatorTerm(((1, 4), (2, 3)), Poly.const(1)),
        ),
    )


def test_graph_validation_and_json():
    g = StrandedGraph(2, 2, ((3, 1), (4, 2)))
    assert g.strands == ((1, 3), (2, 4))
    assert StrandedGraph.from_json(g.to_json()) == g
    assert g.to_json()["strands"] == [[[1, 1], [2, 1]], [[1, 2], [2, 2]]]
    with pytest.raises(ValueError):
        StrandedGraph(2, 2, ((1, 2), (2, 3)))


def test_connectivity():
    assert dipole(2).is_connected()
    self_traced = StrandedGraph(2, 2, ((1, 2), (3, 4)))
    assert not self_traced.is_connected()
    partial = StrandedGraph(3, 2, ((1, 2), (3, 6), (4, 5)))
    assert partial.is_connected()


def test_normal_form_trivial_case():
    g = dipole(1)
    ref = DirectedPairing(2, ((1, 2),))
    nf = invariant_sign_normal_form(g, ref)
    assert nf.sign == 1
    assert nf.contractions.pairs == ((1, 2),)


def test_normal_form_size_mismatch():
    with pytest.raises(ValueError):
        invariant_sign_normal_form(dipole(2), DirectedPairing(4, ((1, 2), (3, 4))))


def test_wick_expansion_counts():
    C = identity_plus_swap()
    assert len(wick_expand(dipole(2), C, 0)) == 2  # one vertex pairing, two terms
    g4 = StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8)))
    assert len(wick_expand(g4, C, 0)) == 3 * 2 * 2

    # general count: (2p-1)!! * (#terms)^p
    three_terms = Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram((2,)), GradedForm(3, 0))
    )
    assert len(wick_expand(g4, three_terms, 0)) == double_factorial(3) * 3**2


def test_wick_weights_are_products():
    C = identity_plus_swap()
    g4 = StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8)))
    for g in wick_expand(g4, C, 0):
        assert g.weight == Poly.const(1)  # every term weight is 1 here
    scaled = Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly.const(Fraction(1, 2))),
            PropagatorTerm(((1, 4), (2, 3)), Poly.const(3)),
        ),
    )
    weights = sorted(
        str(g.weight.constant_value()) for g in wick_expand(dipole(2), scaled, 0)
    )
    assert weights == ["1/2", "3"]


def test_count_faces_d1_identity():
    g = dipole(1)
    graphs = wick_expand(g, Propagator.identity(1), 0)
    assert len(graphs) == 1
    # both strands run 1 -> 2, so one points along the cycle and one against
    assert count_faces(graphs[0]) == (1, 0, 1)


def test_dipole_d3_has_three_faces_and_cubic_amplitude():
    g = dipole(3)
    graphs = wick_expand(g, Propagator.identity(3), 0)
    assert len(graphs) == 1
    total, even, odd = count_faces(graphs[0])
    assert total == 3
    assert graph_amplitude(graphs[0], 0).poly == Poly.monomial(3)
    assert graph_amplitude(graphs[0], 1).poly == Poly.monomial(3) * (-1)


def test_every_graph_has_a_face(rng):
    C = identity_plus_swap()
    for _ in range(20):
        g = rand_connected_graph(rng, 2, 4)
        for two in wick_expand(g, C, 0):
            assert count_faces(two)[0] >= 1


def test_reorienting_one_strand_flips_its_face_parity(rng):
    C = identity_plus_swap()
    g = rand_connected_graph(rng, 2, 4)
    two = wick_expand(g, C, 0)[0]
    from gradedtensor.combinatorics import face_decomposition

    before = face_decomposition(two.color0_pairing(), two.color1_pairing())
    flipped = two.reoriented_color0([0])
    after = face_decomposition(flipped.color0_pairing(), flipped.color1_pairing())
    strand = two.color0[0]
    touched_before = {
        frozenset(c.nodes): c.even for c in before.cycles
    }
    touched_after = {frozenset(c.nodes): c.even for c in after.cycles}
    assert set(touched_before) == set(touched_after)
    for nodes, even in touched_before.items():
        if strand[0] in nodes:
            assert touched_after[nodes] != even
        else:
            assert touched_after[nodes] == even


def test_amplitude_invariant_under_orientations(rng):
    C = identity_plus_swap()
    for _ in range(50):
        g = rand_connected_graph(rng, 2, 4)
        for b in (0, 1):
            graphs = wick_expand(g, C, b)
            two = graphs[rng.randrange(len(graphs))]
            flips = [k for k in range(len(two.color0)) if rng.random() < 0.5]
            assert graph_amplitude(two.reoriented_color0(flips), b) == graph_amplitude(
                two, b
            )


def test_gaussian_expectation_examples():
    assert gaussian_expectation(dipole(1), Propagator.identity(1), 0).poly == Poly.x()
    C = identity_plus_swap()
    n = Poly.x()
    assert gaussian_expectation(dipole(2), C, 0).poly == n * n + n
    assert gaussian_expectation(dipole(2), C, 1).poly == n * n - n


def test_gaussian_expectation_empty_graph():
    empty = StrandedGraph(2, 0, ())
    assert gaussian_expectation(empty, identity_plus_swap(), 0).poly == Poly.const(1)


def test_gaussian_expectation_invariant_under_relabeling_and_orientation(rng):
    C = identity_plus_swap()
    for _ in range(25):
        g = rand_connected_graph(rng, 2, 4)
        base = gaussian_expectation(g, C, 1).poly
        perm = list(range(4))
        rng.shuffle(perm)
        assert gaussian_expectation(g.relabel_vertices(perm), C, 1).poly == base
        flipped = tuple(
            (b, a) if rng.random() < 0.5 else (a, b) for a, b in g.strands
        )
        assert gaussian_expectation(g.with_orientation(flipped), C, 1).poly == base


def test_disconnected_expectation_groups_into_factorized_part(rng):
    C = identity_plus_swap()
    g1 = dipole(2)
    g2 = StrandedGraph(2, 2, ((1, 4), (2, 3)))
    union = disjoint_union_graphs(g1, g2)
    total = gaussian_expectation(union, C, 0).poly
    # split the Wick sum by whether the vertex pairing crosses components
    non_crossing = Poly()
    crossing = Poly()
    for two in wick_expand(union, C, 0):
        crosses = any(
            (i <= 2) != (j <= 2) for (i, j) in two.vertex_pairing
        )
        amp = graph_amplitude(two, 0).poly
        if crosses:
            crossing = crossing + amp
        else:
            non_crossing = non_crossing + amp
    factorized = gaussian_expectation(g1, C, 0).poly * gaussian_expectation(g2, C, 0).poly
    assert non_crossing == factorized
    assert total == non_crossing + crossing


def test_duality_trivial_graph():
    rep = duality_check(StrandedGraph(2, 0, ()), identity_plus_swap())
    assert rep.equal
    assert rep.orthogonal == Poly.const(1)


def test_duality_symmetric_traceless_d3():
    prop = Propagator.from_brauer_element(
        decompose_projector_as_propagator(YoungDiagram((3,)), GradedForm(4, 0))
    )
    for g in enumerate_invariants(3, 2):
        rep = duality_check(g, prop)
        assert rep.equal, g


def test_duality_projector_family_d2_quartic():
    for lam in (YoungDiagram((2,)), YoungDiagram((1, 1))):
        prop = Propagator.from_brauer_element(
            decompose_projector_as_propagator(lam, GradedForm(3, 0))
        )
        for g in enumerate_invariants(2, 4):
            assert duality_check(g, prop).equal


def test_duality_z_polynomial_propagator(rng):
    # a z-dependent table is re-read at the grading's loop weight
    C = Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly((1, 2))),  # 1 + 2z
            PropagatorTerm(((1, 2), (3, 4)), Poly((0, 0, 1))),  # z^2
        ),
    )
    for g in enumerate_invariants(2, 2):
        assert duality_check(g, C).equal


def z_polynomial_table(rng, D: int) -> Propagator:
    """Four terms, one pairing repeated, with nonzero weights of degree 2 in z."""
    pairings = [rand_diagram(rng, D).pairs for _ in range(3)]
    pairings.append(pairings[0])
    weights = [
        Poly((Fraction(rng.randint(-3, 3), 2), rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in pairings
    ]
    return Propagator(D, tuple(PropagatorTerm(p, w) for p, w in zip(pairings, weights)))


@pytest.mark.parametrize("D,vertices", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4)])
def test_face_census_matches_per_graph_sum(rng, D, vertices):
    # from two edges on, terms repeat within a choice and the census merges multisets
    g = rand_connected_graph(rng, D, vertices)
    C = z_polynomial_table(rng, D)
    for b in (0, 1):
        reference = Poly()
        for G in wick_expand(g, C, b):
            reference = reference + graph_amplitude(G, b).poly
        assert gaussian_expectation(g, C, b).poly == reference


def test_duality_check_takes_one_census(rng, monkeypatch):
    # the face census does not depend on the grading, so both sides share it
    from gradedtensor import model

    calls = []
    census = model._face_census

    def counted(*args):
        calls.append(args)
        return census(*args)

    monkeypatch.setattr(model, "_face_census", counted)
    g = rand_connected_graph(rng, 3, 4)
    C = z_polynomial_table(rng, 3)
    report = duality_check(g, C)
    assert len(calls) == 1
    assert report.orthogonal == gaussian_expectation(g, C, 0).poly
    assert report.symplectic == gaussian_expectation(g, C, 1).poly


def test_census_rules_for_empty_odd_and_mismatched_graphs():
    C = identity_plus_swap()
    empty = StrandedGraph(2, 0, ())
    odd = StrandedGraph(2, 3, ((1, 3), (2, 5), (4, 6)))
    for b in (0, 1):
        assert gaussian_expectation(empty, C, b).poly == Poly.const(1)
        assert gaussian_expectation(odd, C, b).poly == Poly()
        with pytest.raises(ValueError, match="strand count"):
            gaussian_expectation(dipole(3), C, b)
    assert duality_check(empty, C) == DualityReport(True, Poly.const(1), Poly.const(1))
    assert duality_check(odd, C) == DualityReport(True, Poly(), Poly())
    with pytest.raises(ValueError, match="strand count"):
        duality_check(dipole(3), C)


def quartic_model() -> ModelSpec:
    quartic = StrandedGraph(2, 4, ((1, 3), (2, 5), (4, 7), (6, 8)))
    return ModelSpec(
        2,
        0,
        identity_plus_swap(),
        (Interaction("g4", quartic),),
    )


def test_model_validation():
    with pytest.raises(ValueError, match="connected"):
        Interaction("bad", StrandedGraph(2, 2, ((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="more than 2 nodes"):
        Interaction("tiny", dipole(1))
    with pytest.raises(ValueError, match="strand count"):
        ModelSpec(3, 0, identity_plus_swap(), ())


def test_perturbative_order_zero():
    terms = perturbative_expansion(quartic_model(), 0)
    assert len(terms) == 1
    assert terms[0].couplings == ()
    assert terms[0].coefficient == 1
    assert terms[0].amplitude.poly == Poly.const(1)


def test_perturbative_first_order_coefficient():
    model = quartic_model()
    terms = perturbative_expansion(model, 1)
    assert len(terms) == 2
    first = [t for t in terms if t.couplings == (("g4", 1),)][0]
    # 1/p! * (D/|nodes|)^p = 1 * 2/8
    assert first.coefficient == Fraction(1, 4)
    assert first.amplitude.poly == gaussian_expectation(
        model.interactions[0].graph, model.propagator, 0
    ).poly


def test_perturbative_duality_term_by_term():
    m0 = quartic_model()
    m1 = ModelSpec(2, 1, m0.propagator, m0.interactions)
    terms0 = perturbative_expansion(m0, 2)
    terms1 = perturbative_expansion(m1, 2)
    assert len(terms0) == len(terms1) == 3
    for t0, t1 in zip(terms0, terms1):
        assert t0.couplings == t1.couplings
        assert t0.coefficient == t1.coefficient
        assert t1.amplitude.poly == t0.amplitude.poly.reflected()


def test_enumerate_small_cases():
    assert len(enumerate_invariants(1, 2)) == 1
    classes = enumerate_invariants(2, 2)
    assert len(classes) == 2
    assert {g.strands for g in classes} == {
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    }
    assert len(enumerate_invariants(2, 2, slot_symmetry=True)) == 1
    assert all(g.is_connected() for g in enumerate_invariants(3, 2))


def test_enumerate_odd_node_count_is_empty():
    assert enumerate_invariants(1, 3) == ()


def test_enumerate_class_orbits_cover_all_connected_matchings():
    # derived oracle: orbit sizes under vertex relabeling sum to the number
    # of connected matchings
    for (D, nv) in [(2, 2), (2, 4), (3, 2)]:
        classes = enumerate_invariants(D, nv)
        n_connected = sum(
            1
            for m in all_pairings(D * nv)
            if StrandedGraph(D, nv, m).is_connected()
        )
        orbit_total = 0
        for g in classes:
            orbit = set()
            for perm in itertools.permutations(range(nv)):
                orbit.add(g.relabel_vertices(perm).strands)
            orbit_total += len(orbit)
        assert orbit_total == n_connected


def test_enumerate_d3_regression():
    # frozen from exhaustive enumeration over all 10395 matchings
    assert len(enumerate_invariants(3, 4)) == 438


def test_enumerate_deterministic():
    assert enumerate_invariants(2, 4) == enumerate_invariants(2, 4)


def _reference_classes(D, nv, slot_symmetry):
    """Classes as the minimum over all relabelings, collected in a dict and
    sorted.  A whole orbit is marked seen at once, so each class is
    relabeled once rather than each of its matchings."""
    slot_perms = list(itertools.permutations(range(D))) if slot_symmetry else [tuple(range(D))]
    relabelings = [
        {v * D + c + 1: vperm[v] * D + slots[v][c] + 1 for v in range(nv) for c in range(D)}
        for vperm in itertools.permutations(range(nv))
        for slots in itertools.product(slot_perms, repeat=nv)
    ]
    seen, classes = set(), {}
    for matching in all_pairings(D * nv):
        if matching in seen or not StrandedGraph(D, nv, matching).is_connected():
            continue
        orbit = {
            tuple(sorted(tuple(sorted((move[a], move[b]))) for a, b in matching))
            for move in relabelings
        }
        seen |= orbit
        classes[min(orbit)] = StrandedGraph(D, nv, min(orbit))
    return tuple(classes[k] for k in sorted(classes))


@pytest.mark.parametrize(
    "D,nv,slot_symmetry",
    [
        (D, nv, sym)
        for D in range(1, 9)
        for nv in range(1, 9)
        if D * nv <= 8 and D * nv % 2 == 0
        for sym in (False, True)
    ]
    + [(6, 2, False)],
)
def test_enumerate_matches_relabeling_minimum(D, nv, slot_symmetry):
    # classes, their printed representatives and their order
    assert enumerate_invariants(D, nv, slot_symmetry) == _reference_classes(D, nv, slot_symmetry)


def test_propagator_json_round_trip():
    prop = Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly((Fraction(1, 2), 1))),
            PropagatorTerm(((1, 2), (3, 4)), Poly.const(-2)),
        ),
    )
    assert Propagator.from_json(prop.to_json()) == prop
