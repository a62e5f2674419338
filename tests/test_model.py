import dataclasses
import hashlib
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedtensor import model
from gradedtensor.brauer import BrauerDiagram
from gradedtensor.combinatorics import (
    DirectedPairing,
    all_pairings,
    double_factorial,
    partner_map,
    strand_walk,
)
from gradedtensor.errors import CapExceededError
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
    invariant_strands,
    perturbative_expansion,
    wick_expand,
)
from gradedtensor.polynomial import Poly
from gradedtensor.representation import GradedForm, decompose_projector_as_propagator
from gradedtensor.young import YoungDiagram
from conftest import rand_connected_graph, rand_diagram, rand_stranded_graph

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
    # the pair count is compared with D * vertices / 2 before any of the
    # 2 * 10^9 nodes is listed, which would take gigabytes
    with pytest.raises(ValueError, match="strands must form a perfect matching"):
        StrandedGraph(2, 10**9, ())
    for D, vertices in ((2, -1), (-2, 1)):
        with pytest.raises(ValueError, match="must not be negative"):
            StrandedGraph(D, vertices, ())
    assert StrandedGraph(2, 0, ()).to_json() == {"D": 2, "vertices": 0, "strands": []}
    assert StrandedGraph(0, 3, ()).vertices == 3


def test_graphs_keep_no_instance_dict_and_stay_frozen():
    # enumerate holds a graph per class, so each keeps its four fields in slots
    g = StrandedGraph(2, 2, ((3, 1), (4, 2)))
    assert not hasattr(g, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.D = 3
    # a name that is no field has no slot; before Python 3.12 the
    # frozen check of a slotted dataclass raises TypeError for it
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        g.extra = 1


def _reference_matching(n, strands, message, keep_orientation=False):
    """The perfect-matching check of the three validating classes, strand
    by strand: the canonical strands (the strands as given when
    `keep_orientation`), or ValueError(message).  A strand that is not a
    pair breaks the matching."""
    pairs = []
    for p in strands:
        if len(p) != 2:
            raise ValueError(message)
        pairs.append((min(p), max(p)))
    canon = tuple(sorted(pairs))
    flat = [x for p in canon for x in p]
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError(message)
    return tuple(strands) if keep_orientation else canon


def _validated(check):
    """`check()`, or the exception type with a ValueError's message."""
    try:
        return check()
    except ValueError as exc:
        return ValueError, str(exc)
    except TypeError:
        return TypeError


@st.composite
def strand_lists(draw):
    """D, vertices and a strand list: a perfect matching with its pairs in
    any order and orientation, or one broken by a duplicated, missing or
    out-of-range node, a strand of another length, a float or bool node,
    or a node that does not compare with an int."""
    D, vertices = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = D * vertices
    nodes = draw(st.permutations(range(1, n + 1)))
    strands = [(nodes[i], nodes[i + 1]) for i in range(0, n - 1, 2)]
    node = st.one_of(st.integers(-1, n + 2), st.sampled_from([1.0, 2.0, True]))
    breaks = st.sampled_from(["none", "drop", "duplicate", "replace", "length", "text"])
    for kind in draw(st.lists(breaks, max_size=2)):
        if kind == "drop" and strands:
            strands.pop(draw(st.integers(0, len(strands) - 1)))
        elif kind == "duplicate" and strands:
            strands.append(draw(st.sampled_from(strands)))
        elif kind == "replace":
            strands.append((draw(node), draw(node)))
        elif kind == "length":
            strands.append(tuple(draw(st.lists(node, max_size=3))))
        elif kind == "text":
            strands.append((draw(node), "1"))
    return D, vertices, draw(st.permutations(strands))


@settings(max_examples=500, deadline=None)
@given(case=strand_lists())
def test_one_pass_validation_matches_the_reference(case):
    # StrandedGraph, BrauerDiagram (on n = 2D points) and DirectedPairing
    # (which keeps each pair's orientation) share one matching check, each
    # with its own message
    D, vertices, strands = case
    n, half = D * vertices, D * vertices // 2
    cases = [
        (lambda: StrandedGraph(D, vertices, strands).strands, n,
         "strands must form a perfect matching of the nodes", False),
        (lambda: BrauerDiagram(half, strands).pairs, 2 * half,
         "pairs must form a perfect matching of {1..2D}", False),
        (lambda: DirectedPairing(n, tuple(strands)).pairs, n,
         "pairs must partition {1..n} with each element used exactly once", True),
    ]
    for one_pass, size, message, keep in cases:
        expected = _validated(lambda: _reference_matching(size, strands, message, keep))
        assert _validated(one_pass) == expected


@pytest.mark.parametrize("strand", [(1, 1, 2), (), (1,)])
def test_a_strand_that_is_not_a_pair_breaks_the_matching(strand):
    with pytest.raises(ValueError, match="strands must form a perfect matching"):
        StrandedGraph(2, 1, (strand,))
    with pytest.raises(ValueError, match="pairs must form a perfect matching"):
        BrauerDiagram(1, (strand,))
    with pytest.raises(ValueError, match="pairs must form a perfect matching"):
        PropagatorTerm((strand,), Poly.const(1))


def test_connectivity():
    assert dipole(2).is_connected()
    assert StrandedGraph(2, 0, ()).is_connected()
    assert StrandedGraph(0, 1, ()).is_connected()
    assert not StrandedGraph(0, 2, ()).is_connected()
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
    assert graph_amplitude(graphs[0], 0) == Poly.monomial(3)
    assert graph_amplitude(graphs[0], 1) == Poly.monomial(3) * (-1)


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
    assert gaussian_expectation(dipole(1), Propagator.identity(1), 0) == Poly.x()
    C = identity_plus_swap()
    n = Poly.x()
    assert gaussian_expectation(dipole(2), C, 0) == n * n + n
    assert gaussian_expectation(dipole(2), C, 1) == n * n - n


def test_gaussian_expectation_empty_graph():
    empty = StrandedGraph(2, 0, ())
    assert gaussian_expectation(empty, identity_plus_swap(), 0) == Poly.const(1)


def test_gaussian_expectation_invariant_under_relabeling_and_orientation(rng):
    C = identity_plus_swap()
    for _ in range(25):
        g = rand_connected_graph(rng, 2, 4)
        base = gaussian_expectation(g, C, 1)
        perm = list(range(4))
        rng.shuffle(perm)
        assert gaussian_expectation(g.relabel_vertices(perm), C, 1) == base
        flipped = tuple(
            (b, a) if rng.random() < 0.5 else (a, b) for a, b in g.strands
        )
        assert gaussian_expectation(g.with_orientation(flipped), C, 1) == base


def test_disconnected_expectation_groups_into_factorized_part(rng):
    C = identity_plus_swap()
    g1 = dipole(2)
    g2 = StrandedGraph(2, 2, ((1, 4), (2, 3)))
    union = disjoint_union_graphs(g1, g2)
    total = gaussian_expectation(union, C, 0)
    # split the Wick sum by whether the vertex pairing crosses components
    non_crossing = Poly()
    crossing = Poly()
    for two in wick_expand(union, C, 0):
        crosses = any(
            (i <= 2) != (j <= 2) for (i, j) in two.vertex_pairing
        )
        amp = graph_amplitude(two, 0)
        if crosses:
            crossing = crossing + amp
        else:
            non_crossing = non_crossing + amp
    factorized = gaussian_expectation(g1, C, 0) * gaussian_expectation(g2, C, 0)
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
            reference = reference + graph_amplitude(G, b)
        assert gaussian_expectation(g, C, b) == reference


def test_duality_check_takes_one_fold(rng, monkeypatch):
    # the z-polynomial does not depend on the grading, so both sides share it
    calls = []
    fold = model._wick_fold

    def counted(*args):
        calls.append(args)
        return fold(*args)

    monkeypatch.setattr(model, "_wick_fold", counted)
    g = rand_connected_graph(rng, 3, 4)
    C = z_polynomial_table(rng, 3)
    report = duality_check(g, C)
    assert len(calls) == 1
    assert report.orthogonal == gaussian_expectation(g, C, 0)
    assert report.symplectic == gaussian_expectation(g, C, 1)


# -- the merged-state fold against the completion census ----------------------


def reference_face_census(S: StrandedGraph, C: Propagator) -> Counter:
    """Completions of S counted by (face count, sorted term choice).

    One strand walk per completion of `_completions`; the empty graph has
    the one empty completion and an odd number of vertices has none.
    """
    if S.vertices == 0:
        return Counter({(0, ()): 1})
    if S.vertices % 2 != 0:
        return Counter()
    strands = partner_map(S.strands)
    census: Counter = Counter()
    for _, choice, color0 in model._completions(S, C):
        faces = strand_walk(partner_map(color0), strands)[1]
        census[faces, tuple(sorted(choice))] += 1
    return census


def reference_expectation(census: Counter, C: Propagator, b: int) -> Poly:
    """The census read at grading b: one `Poly` per (faces, terms) class."""
    weights = C.weights_at_grading(b)
    total = Poly()
    for (faces, choice), count in census.items():
        term = Poly.monomial(faces, -count if b * faces % 2 else count)
        total = total + math.prod((weights[t] for t in choice), start=term)
    return total


def coprime_z_table(rng, D: int) -> Propagator:
    """Four terms with z-polynomial weights over the coprime denominators
    2, 3, 5 and 7.  The first term pairs slots 1, 2 of the first tensor
    and D+1, D+2 of the second; one pairing is repeated."""
    same_tensor = ((1, 2), (D + 1, D + 2)) + tuple((c, D + c) for c in range(3, D + 1))
    pairings = [same_tensor, rand_diagram(rng, D).pairs, rand_diagram(rng, D).pairs]
    pairings.append(pairings[1])
    weights = [
        Poly(tuple(Fraction(rng.choice([-2, -1, 1, 3]), q) for _ in range(3)))
        for q in (2, 3, 5, 7)
    ]
    return Propagator(D, tuple(PropagatorTerm(p, w) for p, w in zip(pairings, weights)))


def wide_negative_table(rng, D: int) -> Propagator:
    """Three terms whose numerators are negative and above 2^64 in size,
    over the denominators 3, 5 and 7."""
    weights = [
        Poly(tuple(Fraction(-(2**64 + rng.randrange(2**64)), q) for _ in range(2)))
        for q in (3, 5, 7)
    ]
    return Propagator(D, tuple(PropagatorTerm(rand_diagram(rng, D).pairs, w) for w in weights))


def zero_weight_table(rng, D: int) -> Propagator:
    """A zero-weight term, which the table drops, beside terms with zero
    coefficients below their top one."""
    weights = [Poly(), Poly((0, 0, Fraction(-1, 3))), Poly((Fraction(5, 2), 0, 1))]
    return Propagator(D, tuple(PropagatorTerm(rand_diagram(rng, D).pairs, w) for w in weights))


def fold_cases():
    """Seeded graphs with their tables: random matchings (strands inside
    one vertex and disconnected pieces included), disjoint unions as
    `expand --order 2` builds them, and explicit strands within one
    vertex, under `coprime_z_table`; then tables that test the decode of
    the fold's packed int."""
    rng = random.Random(20261018)
    cases = [
        (f"random-d{D}-v{v}-{k}", rand_stranded_graph(rng, D, v))
        for D, v in ((2, 4), (2, 6), (2, 8), (3, 2), (3, 4), (3, 6))
        for k in range(2)
    ]
    g2, g3 = rand_connected_graph(rng, 2, 4), rand_connected_graph(rng, 3, 2)
    cases.append(("union-d2-v8", disjoint_union_graphs(g2, g2)))
    cases.append(("union-d3-v6", disjoint_union_graphs(g3, rand_connected_graph(rng, 3, 4))))
    cases.append(("self-strands-d2-v4", StrandedGraph(2, 4, ((1, 2), (3, 5), (4, 7), (6, 8)))))
    self_strands = ((1, 2), (3, 4), (5, 6), (7, 10), (8, 9), (11, 12))
    cases.append(("self-strands-d3-v4", StrandedGraph(3, 4, self_strands)))
    cases = [(name, g, coprime_z_table(random.Random(name), g.D)) for name, g in cases]
    cases.append(("wide-negative-d2-v6", rand_stranded_graph(rng, 2, 6), wide_negative_table(rng, 2)))
    cases.append(("zero-weight-d3-v4", rand_stranded_graph(rng, 3, 4), zero_weight_table(rng, 3)))
    # one term, one coefficient: the bound on the result is |numerator|
    # itself, and 2^70 - 1 is the largest with its bit length, so the
    # z^3 coefficient sits next to the lowest signed digit
    edge = Propagator.identity(3, Fraction(-(2**70 - 1), 5))
    cases.append(("minus-bound-dipole-d3", dipole(3), edge))
    return cases


FOLD_CASES = fold_cases()


@pytest.mark.parametrize("name,graph,C", FOLD_CASES, ids=[name for name, _, _ in FOLD_CASES])
def test_fold_matches_reference_census(name, graph, C):
    census = reference_face_census(graph, C)
    assert census, "every case has completions"
    for b in (0, 1):
        assert gaussian_expectation(graph, C, b) == reference_expectation(census, C, b)
    report = duality_check(graph, C)
    assert report.orthogonal == reference_expectation(census, C, 0)
    assert report.symplectic == reference_expectation(census, C, 1)


def test_fold_of_vertices_without_slots():
    # D=0: no strands and no faces, only vertex pairings and term weights
    half, z = PropagatorTerm((), Poly.const(Fraction(1, 2))), PropagatorTerm((), Poly((0, 1)))
    C = Propagator(0, (half, z))
    for vertices in (2, 4, 6):
        g = StrandedGraph(0, vertices, ())
        census = reference_face_census(g, C)
        for b in (0, 1):
            assert gaussian_expectation(g, C, b) == reference_expectation(census, C, b)


@pytest.mark.parametrize("D", [0, 1, 2])
def test_fold_of_an_all_zero_table(D):
    # the table drops every zero-weight term, so no completion is left
    # and every level, the last edge too, meets no term
    pairings = all_pairings(2 * D) if D else [(), ()]
    C = Propagator(D, tuple(PropagatorTerm(m, Poly()) for m in pairings))
    assert C.terms == ()
    for vertices in (2, 4, 6, 8):
        g = rand_stranded_graph(random.Random(vertices), D, vertices)
        for b in (0, 1):
            assert gaussian_expectation(g, C, b) == Poly()
        assert duality_check(g, C) == DualityReport(True, Poly(), Poly())


def counted_levels(monkeypatch, cap=None):
    """Wrap `_pair_level` to record (vertices left, states entering, states
    leaving) per call; with `cap`, stop once the states seen pass it."""
    levels = []
    level = model._pair_level

    def counted(states, k, *args):
        out = level(states, k, *args)
        levels.append((k, len(states), len(out)))
        seen = sum(n for _, n, _ in levels) + len(out)
        assert cap is None or seen <= cap, "the fold does not merge equal states"
        return out

    monkeypatch.setattr(model, "_pair_level", counted)
    return levels


def test_fold_merges_equal_states(monkeypatch):
    # D=2 v=8 with four terms has 105 * 4^4 = 26880 completions.  States
    # are keyed by position, so they merge across vertex sets too: the
    # three levels before the last edge take 1, 12 and 23 states and at
    # most 3!! = 3 reach the last edge.  It stops early here if it does
    # not merge (1, 28 and 560 states, then 6720 at the last edge)
    g = rand_connected_graph(random.Random(8), 2, 8)
    C = coprime_z_table(random.Random(8), 2)
    levels = counted_levels(monkeypatch, cap=1000)
    assert gaussian_expectation(g, C, 0) == reference_expectation(
        reference_face_census(g, C), C, 0
    )
    assert [n for _, n, _ in levels] == [1, 12, 23]
    assert levels[-1][2] <= 3


@pytest.mark.parametrize("D,vertices", [(2, 6), (2, 8), (2, 10), (3, 6), (3, 8)])
def test_fold_states_are_matchings_of_their_positions(monkeypatch, D, vertices):
    # a state is a matching of the kD open positions of the k vertices
    # left: at most (kD-1)!! enter that level, (2D-1)!! reach the last edge
    rng = random.Random(vertices * 10 + D)
    levels = counted_levels(monkeypatch)
    for _ in range(3):
        levels.clear()
        g = rand_connected_graph(rng, D, vertices)
        gaussian_expectation(g, coprime_z_table(rng, D), 0)
        assert [k for k, _, _ in levels] == list(range(vertices, 2, -2))
        for k, entering, _ in levels:
            assert entering <= double_factorial(k * D - 1)
        assert levels[-1][2] <= double_factorial(2 * D - 1)


def symmetric_d3_table() -> Propagator:
    """The 15-term table of lambda = (3): 1/6 on each of the six pairings
    that join the two tensors slot to slot, -1/15 on the nine others."""
    def weight(m) -> Fraction:
        return Fraction(1, 6) if all(a <= 3 < b for a, b in m) else Fraction(-1, 15)

    return Propagator(3, tuple(PropagatorTerm(m, Poly.const(weight(m))) for m in all_pairings(6)))


def test_two_tetrahedra_expectation():
    # D=3 v=8 has 105 * 15^4 = 5.3M completions.  The literals were
    # computed once with `reference_face_census` (about 80 s) and agree
    # with the fold exactly.
    tetrahedron = StrandedGraph(3, 4, ((1, 4), (2, 7), (3, 10), (5, 8), (6, 11), (9, 12)))
    S = disjoint_union_graphs(tetrahedron, tetrahedron)
    C = symmetric_d3_table()
    orthogonal = Poly.from_coeff_map({
        "1": "-308/5625", "2": "13511/5625", "3": "12599/16875", "4": "-7643/16875",
        "5": "-173/6750", "6": "3343/54000", "7": "19/1800", "8": "1/3600",
    })
    symplectic = Poly.from_coeff_map({
        "1": "308/5625", "2": "13511/5625", "3": "-12599/16875", "4": "-7643/16875",
        "5": "173/6750", "6": "3343/54000", "7": "-19/1800", "8": "1/3600",
    })
    assert gaussian_expectation(S, C, 0) == orthogonal
    assert gaussian_expectation(S, C, 1) == symplectic


def test_census_rules_for_empty_odd_and_mismatched_graphs():
    C = identity_plus_swap()
    empty = StrandedGraph(2, 0, ())
    odd = StrandedGraph(2, 3, ((1, 3), (2, 5), (4, 6)))
    for b in (0, 1):
        assert gaussian_expectation(empty, C, b) == Poly.const(1)
        assert gaussian_expectation(odd, C, b) == Poly()
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
    g = quartic_model().interactions[0]
    with pytest.raises(ValueError, match="duplicate interaction name 'g4'"):
        ModelSpec(2, 0, identity_plus_swap(), (g, Interaction("g4", dipole(2))))


def test_perturbative_terms_come_in_lexicographic_splits():
    # per total order, the splits over (g4, d) run lexicographically
    model = ModelSpec(
        2, 0, identity_plus_swap(), quartic_model().interactions + (Interaction("d", dipole(2)),)
    )
    couplings = [t.couplings for t in perturbative_expansion(model, 2)]
    assert couplings == [
        (),
        (("d", 1),),
        (("g4", 1),),
        (("d", 2),),
        (("g4", 1), ("d", 1)),
        (("g4", 2),),
    ]


def test_perturbative_splits_over_many_interactions():
    # 40 interactions at order 2 keep 1 + 40 + 820 splits; each is built from
    # its multiset of insertions, never filtered out of all 3^40 tuples
    interactions = tuple(Interaction(f"g{i}", dipole(2)) for i in range(40))
    terms = perturbative_expansion(ModelSpec(2, 0, identity_plus_swap(), interactions), 2)
    assert len(terms) == 1 + 40 + math.comb(41, 2)
    splits = [tuple(dict(t.couplings).get(it.name, 0) for it in interactions) for t in terms]
    assert splits == sorted(splits, key=lambda s: (sum(s), s))
    # every interaction is one dipole, so a term's amplitude depends on its total only
    assert len({(sum(s), t.amplitude) for t, s in zip(terms, splits)}) == 3


def test_perturbative_order_zero():
    terms = perturbative_expansion(quartic_model(), 0)
    assert len(terms) == 1
    assert terms[0].couplings == ()
    assert terms[0].coefficient == 1
    assert terms[0].amplitude == Poly.const(1)


def test_perturbative_first_order_coefficient():
    model = quartic_model()
    terms = perturbative_expansion(model, 1)
    assert len(terms) == 2
    first = [t for t in terms if t.couplings == (("g4", 1),)][0]
    # 1/p! * (D/|nodes|)^p = 1 * 2/8
    assert first.coefficient == Fraction(1, 4)
    assert first.amplitude == gaussian_expectation(
        model.interactions[0].graph, model.propagator, 0
    )


def test_perturbative_duality_term_by_term():
    m0 = quartic_model()
    m1 = ModelSpec(2, 1, m0.propagator, m0.interactions)
    terms0 = perturbative_expansion(m0, 2)
    terms1 = perturbative_expansion(m1, 2)
    assert len(terms0) == len(terms1) == 3
    for t0, t1 in zip(terms0, terms1):
        assert t0.couplings == t1.couplings
        assert t0.coefficient == t1.coefficient
        assert t1.amplitude == t0.amplitude.reflected()


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


@pytest.mark.parametrize("slot_symmetry", [False, True])
def test_enumerate_d1_past_two_vertices_is_empty_without_a_table(monkeypatch, slot_symmetry):
    # with D = 1 every vertex has one node, so a matching on v > 2 vertices
    # falls apart into dipoles; 10! relabelings would exceed the cap
    def no_table(*args):
        raise AssertionError("relabeling table built for D = 1")

    monkeypatch.setattr(model, "_relabelings", no_table)
    monkeypatch.setattr(model, "_multigraphs", no_table)
    assert enumerate_invariants(1, 10, slot_symmetry) == ()
    assert enumerate_invariants(1, 4, slot_symmetry) == ()


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
    + [(6, 2, False)]
    + [(2, 5, sym) for sym in (False, True)]
    + [(5, 2, sym) for sym in (False, True)]
    + [(3, 4, False), (4, 3, False), (2, 6, False), (4, 3, True), (3, 4, True)],
)
def test_enumerate_matches_relabeling_minimum(D, nv, slot_symmetry):
    # classes, their printed representatives and their order
    assert enumerate_invariants(D, nv, slot_symmetry) == _reference_classes(D, nv, slot_symmetry)


def test_enumerate_d4_v4_pinned():
    # both values computed from the output of the per-matching search,
    # which walked all 2,027,025 matchings in about two minutes
    classes = enumerate_invariants(4, 4)
    assert len(classes) == 78988
    digest = hashlib.sha256(repr([g.strands for g in classes]).encode()).hexdigest()
    assert digest == "ae1ac87e42ee3a5cf434c3c6e5b2ade8e947533a16ab1aaa80d1ba542f0f1a9e"


def test_enumerate_d7_v2_pinned():
    # both values computed from the output of the search that compared
    # every relabeling from node 1 at each prefix
    classes = enumerate_invariants(7, 2)
    assert len(classes) == 68219
    digest = hashlib.sha256(repr([g.strands for g in classes]).encode()).hexdigest()
    assert digest == "b62729f74c617f1050a379c999c770a78c2cb314b9ff48abe0e6377dc74be0d8"


def _undecided_from_node_1(partner, first_open, table):
    """The relabelings of `table`, (move, inverse) pairs, still undecided on
    the prefix in `partner`, or None when one makes it smaller: every
    relabeling's comparison is read again from node 1."""
    n = len(partner) - 1
    kept = []
    for relabeling in table:
        move, inverse = relabeling
        for y in range(1, first_open):
            q = move[partner[inverse[y]]]
            if q != partner[y]:
                break
        else:
            kept.append(relabeling)
            continue
        if q < partner[y]:
            return None
        if q > n:
            kept.append(relabeling)
    return kept


def _orderly_search_from_node_1(D, nv):
    """Reference for `model._orderly_search`: the same prefixes in the same
    order, as a recursion, each checked by `_undecided_from_node_1`, and
    connectivity read off each complete matching."""
    n = D * nv
    partner = [0] * (n + 1)
    strands = []

    def extend(first, table):
        for other in range(first + 1, n + 1):
            if partner[other]:
                continue
            partner[first], partner[other] = other, first
            strands.append((first, other))
            following = first + 1
            while following <= n and partner[following]:
                following += 1
            kept = _undecided_from_node_1(partner, following, table)
            if kept is not None:
                if following <= n:
                    yield from extend(following, kept)
                elif StrandedGraph(D, nv, strands).is_connected():
                    yield tuple(strands)
            strands.pop()
            partner[first] = partner[other] = 0

    return list(extend(1, [(move, inverse) for move, inverse, _ in model._relabelings(D, nv)]))


@pytest.mark.parametrize("D,nv", [(2, 4), (3, 4), (4, 3), (2, 5), (5, 2), (6, 2), (2, 6), (4, 4)])
def test_search_matches_the_orderly_search_that_reads_from_node_1(D, nv):
    # each relabeling resumes where it stopped on the shorter prefix; the
    # restart from node 1 must keep and drop the same prefixes
    assert list(invariant_strands(D, nv)) == _orderly_search_from_node_1(D, nv)


def _is_least(strands, D, vertices, slot_symmetry):
    """Per-matching reference: True when no relabeling makes the sorted
    strand tuple smaller.  Relabelings permute the vertices and, with
    `slot_symmetry`, the D slots of every vertex independently."""
    slot_perms = list(itertools.permutations(range(D))) if slot_symmetry else [tuple(range(D))]
    for vperm in itertools.permutations(range(vertices)):
        for slot_choice in itertools.product(slot_perms, repeat=vertices):
            move = [0] + [vperm[v] * D + c + 1 for v in range(vertices) for c in slot_choice[v]]
            cand = tuple(sorted((min(move[a], move[b]), max(move[a], move[b])) for a, b in strands))
            if cand < strands:
                return False
    return True


def _table_size(D, nv, slot_symmetry):
    return math.factorial(nv) * (math.factorial(D) ** nv if slot_symmetry else 1)


@pytest.mark.parametrize(
    "D,nv,slot_symmetry",
    [
        (D, nv, sym)
        for D in range(1, 11)
        for nv in range(1, 11)
        if D * nv <= 10 and D * nv % 2 == 0
        for sym in (False, True)
        if _table_size(D, nv, sym) <= model.ENUMERATE_TABLE_CAP
    ],
)
def test_enumerate_keeps_exactly_the_least_connected_matchings(D, nv, slot_symmetry):
    kept = {g.strands for g in enumerate_invariants(D, nv, slot_symmetry)}
    accepted = {
        m
        for m in all_pairings(D * nv)
        if StrandedGraph(D, nv, m).is_connected() and _is_least(m, D, nv, slot_symmetry)
    }
    assert kept == accepted


@pytest.mark.parametrize(
    "D,nv,slot_symmetry",
    [
        (D, nv, sym)
        for D in range(1, 13)
        for nv in range(1, 13)
        if D * nv <= 12 and D * nv % 2 == 0
        for sym in (False, True)
        if _table_size(D, nv, sym) <= model.ENUMERATE_TABLE_CAP
    ],
)
def test_enumerated_classes_are_valid_connected_graphs(D, nv, slot_symmetry):
    # the search's strand tuples are already canonical: the validating
    # constructor keeps each as it comes
    for strands in invariant_strands(D, nv, slot_symmetry):
        g = StrandedGraph(D, nv, strands)
        assert g.strands == strands
        assert g.is_connected()


def test_enumerate_walks_no_class_for_connectivity(monkeypatch):
    # connectivity is counted as the search places strands
    reference = [g.strands for g in _reference_classes(2, 4, False)]
    two_dipoles = ((1, 3), (2, 4), (5, 7), (6, 8))
    assert StrandedGraph(2, 4, two_dipoles).strands == two_dipoles

    def refuse(*args):
        raise AssertionError("enumerate walked a class for connectivity")

    monkeypatch.setattr(model, "_connected", refuse)
    assert len(enumerate_invariants(6, 2)) == 5243
    kept = [g.strands for g in enumerate_invariants(2, 4)]
    assert kept == reference
    assert two_dipoles not in kept


@pytest.mark.parametrize("D,nv,slot_symmetry", [(2, 9, False), (2, 9, True)])
def test_enumerate_refuses_a_relabeling_table_above_the_cap(monkeypatch, D, nv, slot_symmetry):
    # both searches compare a graph with its images under the v! vertex
    # relabelings, with or without slot symmetries
    size = math.factorial(nv)
    assert size > model.ENUMERATE_TABLE_CAP

    def no_search(*args):
        raise AssertionError("enumerate started above the cap")

    monkeypatch.setattr(model, "_relabelings", no_search)
    monkeypatch.setattr(model, "_multigraphs", no_search)
    with pytest.raises(CapExceededError) as info:
        enumerate_invariants(D, nv, slot_symmetry)
    assert str(size) in str(info.value)
    assert str(model.ENUMERATE_TABLE_CAP) in str(info.value)


def _orbit_least_bound(D, nv):
    # an orbit holds at most v! matchings, so there are at least
    # (Dv - 1)!!/v! orbits, each with one least matching the search reaches
    return double_factorial(D * nv - 1) // math.factorial(nv)


class _SearchStarted(Exception):
    pass


def _refuse_search(*args):
    raise _SearchStarted


def _named_bound(message):
    # the counts a class-cap message names: matchings, the class cap, the
    # orbit size and the cap on matchings
    found = re.fullmatch(
        r"at least (\d+) matchings for enumerate, more than (\d+) orbit-least matchings "
        r"in orbits of at most (\d+), above the cap (\d+)",
        message,
    )
    assert found, message
    return tuple(int(g) for g in found.groups())


@pytest.mark.parametrize("D,nv", [(6, 4), (5, 4), (3, 8), (16, 1), (100_000, 2), (10**40, 8)])
def test_enumerate_refuses_a_search_past_the_class_cap(monkeypatch, D, nv):
    # the message names a lower bound on (Dv - 1)!! that passes (cap + 1) * v!,
    # found with a few products even where (Dv - 1)!! has no printable size
    assert math.factorial(nv) <= model.ENUMERATE_TABLE_CAP
    monkeypatch.setattr(model, "_relabelings", _refuse_search)
    with pytest.raises(CapExceededError) as info:
        enumerate_invariants(D, nv)
    named, class_cap, orbit, cap = _named_bound(str(info.value))
    assert (class_cap, orbit) == (model.ENUMERATE_CLASS_CAP, math.factorial(nv))
    assert cap == (model.ENUMERATE_CLASS_CAP + 1) * orbit - 1 < named
    if D * nv < 100:
        assert named <= double_factorial(D * nv - 1)


def test_the_class_cap_refuses_exactly_past_the_whole_bound(monkeypatch):
    # every (D, v) with D >= 2, v <= 8 and Dv < 64, none of them run: the
    # search starts for (8,2) (1,013,512), (14,1), (4,4), (7,2), (2,8) and
    # (3,6), and is refused for (16,1) (2,027,025)
    assert _orbit_least_bound(8, 2) <= model.ENUMERATE_CLASS_CAP < _orbit_least_bound(16, 1)
    monkeypatch.setattr(model, "_relabelings", _refuse_search)
    for D in range(2, 64):
        for nv in range(1, 9):
            if D * nv % 2 or D * nv >= 64:
                continue
            refused = _orbit_least_bound(D, nv) > model.ENUMERATE_CLASS_CAP
            with pytest.raises(CapExceededError if refused else _SearchStarted):
                enumerate_invariants(D, nv)


def test_the_class_cap_leaves_the_slot_search_alone():
    # (6,4) is past the class cap without slot symmetries; with them it is
    # 47 multigraphs
    assert len(enumerate_invariants(6, 4, slot_symmetry=True)) == 47


def _labelled_multigraphs(D, nv):
    """Every connected D-regular multigraph with loops on vertices
    0..nv-1, as the tuple of its upper triangle read row by row: loops at
    u on the diagonal, strands between u and w above it."""
    cells = [(u, w) for u in range(nv) for w in range(u, nv)]
    free = [D] * nv
    entries = []
    out = []

    def fill(k):
        if k == len(cells):
            if not any(free):
                m = dict(zip(cells, entries))
                pairs = [(u, w) for (u, w), c in m.items() if c]
                if model._connected(nv, pairs, range(nv)):
                    out.append(tuple(entries))
            return
        u, w = cells[k]
        top = free[u] // 2 if u == w else min(free[u], free[w])
        for c in range(top + 1):
            free[u] -= c
            free[w] -= c
            entries.append(c)
            fill(k + 1)
            entries.pop()
            free[u] += c
            free[w] += c

    fill(0)
    return out


def _burnside_classes(D, nv):
    """(1/v!) * sum over vertex permutations pi of the labelled matrices
    that pi fixes; fix(pi) depends only on pi's cycle type."""
    cells = [(u, w) for u in range(nv) for w in range(u, nv)]
    matrices = _labelled_multigraphs(D, nv)
    by_type = {}  # cycle type: (a permutation of that type, how many have it)
    for perm in itertools.permutations(range(nv)):
        seen, cycle_type = set(), []
        for start in range(nv):
            length = 0
            while start not in seen:
                seen.add(start)
                start = perm[start]
                length += 1
            cycle_type.append(length)
        key = tuple(sorted(cycle_type))
        rep, size = by_type.get(key, (perm, 0))
        by_type[key] = (rep, size + 1)
    total = 0
    for perm, size in by_type.values():
        moved = [cells.index(tuple(sorted((perm[u], perm[w])))) for u, w in cells]
        fixed = sum(all(m[moved[k]] == m[k] for k in range(len(cells))) for m in matrices)
        total += size * fixed
    assert total % math.factorial(nv) == 0
    return total // math.factorial(nv)


@pytest.mark.parametrize("D,nv,classes", [(6, 2, 3), (4, 4, 10), (3, 6, 17), (10, 1, 1)])
def test_enumerate_slot_classes_match_a_burnside_count(D, nv, classes):
    # (3, 6) is the 17 of OEIS A005967 (connected cubic multigraphs with
    # loops on 2n nodes: 2, 5, 17 for n = 1, 2, 3)
    found = enumerate_invariants(D, nv, slot_symmetry=True)
    assert len(found) == classes == _burnside_classes(D, nv)
    assert list(found) == sorted(found, key=lambda g: g.strands)
    for g in found:
        assert g == StrandedGraph(D, nv, g.strands) and g.is_connected()


@pytest.mark.parametrize("D,nv", [(3, 8), (4, 6), (5, 6), (4, 7), (7, 4)])
def test_slot_classes_come_strictly_increasing_past_the_reference_sizes(D, nv):
    # `invariant_strands` returns the fills in `_multigraphs`' order with no
    # sort; these sizes are past `_reference_classes`, which pins the rest
    found = list(invariant_strands(D, nv, slot_symmetry=True))
    assert found and all(a < b for a, b in zip(found, found[1:]))


def _multiplicities(D, nv, strands):
    m = [[0] * nv for _ in range(nv)]
    for a, b in strands:
        u, w = sorted(((a - 1) // D, (b - 1) // D))
        m[u][w] += 1
        if u != w:
            m[w][u] += 1
    return m


def _least_over_slot_permutations(D, nv, strands):
    """The least sorted strand tuple over every relabeling of the slots of
    each vertex, by brute force: the orbit of `strands` under the moves
    that swap two slots of one vertex, which generate those relabelings."""
    swaps = []
    for v in range(nv):
        for c in range(1, D):
            move = list(range(D * nv + 1))
            move[v * D + c], move[v * D + c + 1] = v * D + c + 1, v * D + c
            swaps.append(move)
    orbit, frontier = {strands}, [strands]
    while frontier:
        current = frontier.pop()
        for move in swaps:
            image = tuple(sorted(tuple(sorted((move[a], move[b]))) for a, b in current))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return min(orbit)


FILL_SIZES = [
    (D, nv)
    for D in range(1, 11)
    for nv in range(1, 11)
    if D * nv <= 10 and D * nv % 2 == 0 and not (D == 1 and nv > 2)
]


@st.composite
def labelled_connected_multigraphs(draw):
    """(D, v, strands) of a connected graph on labelled vertices: a spanning
    tree in a drawn vertex order, each vertex joined to a drawn earlier
    one with a free slot, then a drawn matching of the slots left.  Every
    connected graph arises, from a breadth-first order of its vertices."""
    D, nv = draw(st.sampled_from(FILL_SIZES))
    free = {v: list(range(v * D + 1, (v + 1) * D + 1)) for v in range(nv)}
    order = draw(st.permutations(range(nv)))
    strands = []
    for k in range(1, nv):
        u = draw(st.sampled_from([u for u in order[:k] if free[u]]))
        strands.append((free[u].pop(0), free[order[k]].pop(0)))
    rest = draw(st.permutations(sorted(x for slots in free.values() for x in slots)))
    strands += zip(rest[::2], rest[1::2])
    return D, nv, tuple(sorted(tuple(sorted(p)) for p in strands))


@settings(max_examples=300, deadline=None)
@given(case=labelled_connected_multigraphs())
def test_least_fill_is_the_least_strand_tuple_over_slot_permutations(case):
    D, nv, strands = case
    assert StrandedGraph(D, nv, strands).is_connected()
    m = _multiplicities(D, nv, strands)
    assert model._least_fill(D, m) == _least_over_slot_permutations(D, nv, strands)


@pytest.mark.parametrize("D", [0, -2])
def test_enumerate_rejects_a_non_positive_d(D):
    with pytest.raises(ValueError, match=f"D must be at least 1, got {D}"):
        enumerate_invariants(D, 2)


def test_propagator_json_round_trip():
    prop = Propagator(
        2,
        (
            PropagatorTerm(((1, 3), (2, 4)), Poly((Fraction(1, 2), 1))),
            PropagatorTerm(((1, 2), (3, 4)), Poly.const(-2)),
        ),
    )
    assert Propagator.from_json(prop.to_json()) == prop
